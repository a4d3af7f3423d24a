"""Command-line entry point.

    chansim <subcommand> [--config FILE] [--trace FILE]
            [--rain] [--clouds] [--snow]
            [--misalign-az D] [--misalign-el D] [--seed N] [--out DIR]

Subcommands: linkbudget, fading, spreads, cluster, ntn-compare.
Exit codes: 0 success, 2 config error, 3 input error, 4 numeric error.
"""

from __future__ import annotations

import argparse
import sys

from .config import apply_overrides, load_config
from .errors import ConfigError, NumericError, TraceError
from .report import SUBCOMMANDS, run_report

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INPUT = 3
EXIT_NUMERIC = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chansim",
        description="LEO satellite-to-ground channel simulator",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name, help=f"run the {name} report")
        p.add_argument("--config", help="scenario YAML file (defaults used when absent)")
        p.add_argument("--trace", help="multipath trace CSV (synthetic scenario when absent)")
        p.add_argument("--rain", action="store_true", help="enable rain attenuation")
        p.add_argument("--clouds", action="store_true", help="enable cloud attenuation")
        p.add_argument("--snow", action="store_true", help="enable snow attenuation")
        p.add_argument("--misalign-az", type=float, default=None, metavar="D",
                       help="azimuth misalignment in degrees")
        p.add_argument("--misalign-el", type=float, default=None, metavar="D",
                       help="elevation misalignment in degrees")
        p.add_argument("--seed", type=int, default=None, help="random seed override")
        p.add_argument("--out", default="chansim-out", metavar="DIR",
                       help="output directory (default: chansim-out)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    weather = {name for name in ("rain", "clouds", "snow") if getattr(args, name)}
    try:
        config = load_config(args.config)
        config = apply_overrides(
            config,
            weather_add=weather,
            misalign_az_deg=args.misalign_az,
            misalign_el_deg=args.misalign_el,
            seed=args.seed,
        )
        summary = run_report(config, args.subcommand, args.out, trace_path=args.trace)
    except (ConfigError, ValueError) as exc:
        print(f"chansim: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (TraceError, OSError) as exc:
        print(f"chansim: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericError as exc:
        print(f"chansim: numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    print(
        f"chansim {args.subcommand}: {summary['n_snapshots']} snapshots -> "
        f"{args.out}/{args.subcommand}.csv, {args.out}/summary.json"
    )
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
