"""Multipath trace files: a diff-friendly CSV exchange format.

A trace stores one row per ray, grouped by the altitude sample it
belongs to, under a versioned header that also carries the arc radius
and the amplitude convention.  Rays with zero interactions are the LOS
path.  Loading validates the schema, sorts delays, and converts powers
in dBm into linear path gains when the header declares them.  Loading
and saving stream the file a line or a chunk of rows at a time, so their
memory follows the ray table, not the text.
"""

from __future__ import annotations

import codecs
import os
import tempfile
from collections.abc import Iterable, Iterator
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import RayRowError, TraceError
from .geometry import check_arc_radius
from .mpc import RAY_COLUMNS, RayTable, first_bad_ray

TRACE_VERSION = 1

_HEADER_PREFIX = "# chansim-trace"
_COLUMNS = ("altitude_km", *RAY_COLUMNS, "n_interactions")

# Each data row: altitude and the seven ray fields, then the interaction count.
_ROW_DTYPE = np.dtype([("values", float, (len(_COLUMNS) - 1,)), ("n_interactions", np.int64)])

AMPLITUDE_LINEAR = "linear"
AMPLITUDE_DBM = "dbm"


def _parse_header(line: str, path: Path) -> tuple[float, str, float | None]:
    """The arc radius, amplitude unit and (for dBm) TX power of line 1."""
    if not line.startswith(_HEADER_PREFIX):
        raise TraceError(f"{path}: line 1: missing '{_HEADER_PREFIX}' header")
    fields = line[len(_HEADER_PREFIX):].split()
    if not fields or fields[0] != f"v{TRACE_VERSION}":
        raise TraceError(f"{path}: line 1: unsupported trace version {fields[:1]}")
    meta: dict[str, str] = {}
    for item in fields[1:]:
        if "=" not in item:
            raise TraceError(f"{path}: line 1: malformed header item {item!r}")
        key, value = item.split("=", 1)
        meta[key] = value
    try:
        arc_radius_km = check_arc_radius(float(meta["arc_radius_km"]))
    except KeyError:
        raise TraceError(f"{path}: line 1: header missing arc_radius_km") from None
    except ValueError as exc:
        raise TraceError(f"{path}: line 1: bad arc_radius_km: {exc}") from None
    amplitude_unit = meta.get("amplitude", AMPLITUDE_LINEAR)
    if amplitude_unit not in (AMPLITUDE_LINEAR, AMPLITUDE_DBM):
        raise TraceError(f"{path}: line 1: unknown amplitude unit {amplitude_unit!r}")
    p_tx_dbm = None
    if amplitude_unit == AMPLITUDE_DBM:
        try:
            p_tx_dbm = float(meta["p_tx_dbm"])
        except KeyError:
            raise TraceError(
                f"{path}: line 1: amplitude=dbm requires p_tx_dbm in the header"
            ) from None
        except ValueError as exc:
            raise TraceError(f"{path}: line 1: bad p_tx_dbm: {exc}") from None
    return arc_radius_km, amplitude_unit, p_tx_dbm


def _row_error(line: str, amplitude_unit: str, p_tx_dbm: float | None) -> str | None:
    """What is wrong with one data row, or None when it is valid."""
    parts = [f.strip() for f in line.split(",")]
    if len(parts) != len(_COLUMNS):
        return f"expected {len(_COLUMNS)} fields, got {len(parts)}"
    try:
        values = [float(v) for v in parts[:-1]]
        n_interactions = int(parts[-1])
    except ValueError as exc:
        return str(exc)
    if n_interactions < 0:
        return "negative interaction count"
    if amplitude_unit == AMPLITUDE_DBM:
        values[1] = 10.0 ** ((values[1] - p_tx_dbm) / 20.0)
    bad = first_bad_ray({name: np.array([v]) for name, v in zip(RAY_COLUMNS, values[1:])})
    return None if bad is None else bad[1]


def _data_lines(path: Path, after: int) -> Iterator[tuple[int, str]]:
    """Line number and text of each non-blank line past line ``after``,
    streamed from the file anew; only a fault's report reads it twice."""
    with path.open(encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if lineno > after and not line.isspace():
                yield lineno, line


def load_trace(path: str | Path) -> RayTable:
    """Parse and validate a trace file into a ray table, snapshots in file order.

    Raises TraceError with the offending line number: the first bad line
    of a parse, interaction-count or field fault, else the table's first
    broken snapshot rule (duplicate LOS ray, altitude off the arc).
    """
    p = Path(path)
    try:
        try:
            return _load(p)
        except TraceError:
            # A fault may be found before the whole file is read; a byte
            # that is not UTF-8 anywhere in it is reported first.
            with p.open(encoding="utf-8") as handle:
                while handle.read(1 << 16):
                    pass
            raise
    except FileNotFoundError:
        raise TraceError(f"trace file not found: {p}") from None
    except UnicodeDecodeError:
        raise TraceError(f"cannot read trace file {p}: {_utf8_fault(p)}") from None
    except OSError as exc:
        raise TraceError(f"cannot read trace file {p}: {exc}") from None


def _utf8_fault(path: Path) -> str:
    """The file's first UTF-8 fault as ``bytes.decode`` of the whole file
    words it; a text stream counts the position from its current chunk."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    offset = 0
    with path.open("rb") as handle:
        while True:
            chunk = handle.read(1 << 16)
            # Bytes of a character split across chunks wait in the decoder.
            pending = len(decoder.getstate()[0])
            try:
                decoder.decode(chunk, final=not chunk)
            except UnicodeDecodeError as exc:
                start = offset - pending + exc.start
                if exc.end - exc.start == 1:
                    where = f"byte 0x{exc.object[exc.start]:02x} in position {start}"
                else:
                    where = f"bytes in position {start}-{start + exc.end - exc.start - 1}"
                return f"'{exc.encoding}' codec can't decode {where}: {exc.reason}"
            offset += len(chunk)


def _load(p: Path) -> RayTable:
    # Lines end at \n, \r or \r\n only, as the file object splits them.
    with p.open(encoding="utf-8") as handle:
        header = handle.readline()
        if not header:
            raise TraceError(f"{p}: empty trace file")
        arc_radius_km, amplitude_unit, p_tx_dbm = _parse_header(header, p)

        # The column header row is the first non-blank line after line 1.
        for first_no, first in enumerate(handle, start=2):
            if not first.isspace():
                break
        else:
            raise TraceError(f"{p}: trace file holds no rows")
        first = first.strip()
        if first.split(",")[0].strip() != _COLUMNS[0]:
            raise TraceError(f"{p}: line {first_no}: missing column header row")
        header_cols = tuple(c.strip() for c in first.split(","))
        if header_cols != _COLUMNS:
            raise TraceError(
                f"{p}: line {first_no}: columns {header_cols} do not match {_COLUMNS}"
            )

        # np.loadtxt refuses whitespace-only lines, so the rows skip them.
        try:
            rows = np.loadtxt(
                (line for line in handle if not line.isspace()), delimiter=",",
                comments=None, dtype=_ROW_DTYPE, ndmin=1,
            )
        except UnicodeDecodeError:
            raise  # a ValueError too, which load_trace reports as unreadable
        except ValueError as exc:
            # Re-read row by row to name the first bad line as the format demands.
            for lineno, line in _data_lines(p, first_no):
                message = _row_error(line, amplitude_unit, p_tx_dbm)
                if message is not None:
                    raise TraceError(f"{p}: line {lineno}: {message}") from exc
            raise TraceError(f"{p}: {exc}") from exc

    def fail_at(row: int, message: str) -> TraceError:
        lineno, _ = next(islice(_data_lines(p, first_no), row, None))
        return TraceError(f"{p}: line {lineno}: {message}")

    values = rows["values"]
    n_interactions = rows["n_interactions"]
    columns = {name: values[:, k + 1] for k, name in enumerate(RAY_COLUMNS)}
    if amplitude_unit == AMPLITUDE_DBM:
        columns["amplitude"] = 10.0 ** ((columns["amplitude"] - p_tx_dbm) / 20.0)
    # The first bad row is reported; its interaction count is checked first.
    negative = np.flatnonzero(n_interactions < 0)
    bad = first_bad_ray(columns)
    if negative.size and (bad is None or negative[0] <= bad[0]):
        raise fail_at(int(negative[0]), "negative interaction count")
    if bad is not None:
        raise fail_at(*bad)

    altitude = values[:, 0]
    # A snapshot is a run of rows with equal altitude.
    starts = np.concatenate([[0], np.flatnonzero(altitude[1:] != altitude[:-1]) + 1])
    offsets = np.append(starts, altitude.size)
    try:
        return RayTable(columns, n_interactions == 0, offsets, altitude[starts], arc_radius_km)
    except RayRowError as exc:
        raise fail_at(exc.row, str(exc)) from exc


# Rays per chunk of a saved trace: a chunk is formatted and written before
# the next is made, so the text of only one chunk is alive at once.
_SAVE_CHUNK_ROWS = 2048


def _trace_chunks(table: RayTable) -> Iterator[str]:
    yield (
        f"{_HEADER_PREFIX} v{TRACE_VERSION} arc_radius_km={table.arc_radius_km!r}"
        " amplitude=linear\n" + ",".join(_COLUMNS) + "\n"
    )
    columns = [np.repeat(table.altitude_km, table.counts)]
    columns += [getattr(table, name) for name in RAY_COLUMNS]
    interactions = np.where(table.is_los, "0", "1")
    for lo in range(0, table.n_rays, _SAVE_CHUNK_ROWS):
        rows = slice(lo, lo + _SAVE_CHUNK_ROWS)
        # tolist() gives Python floats, whose repr reads back exactly.
        cells = [list(map(repr, column[rows].tolist())) for column in columns]
        cells.append(interactions[rows].tolist())
        yield "\n".join(map(",".join, zip(*cells))) + "\n"


def save_trace(table: RayTable, path: str | Path) -> None:
    """Write a pass as a linear-amplitude trace; loading it back is exact."""
    if len(table) == 0:
        raise ValueError("nothing to save")
    _atomic_write(Path(path), _trace_chunks(table))


def _atomic_write(path: Path, chunks: Iterable[str]) -> None:
    """Write the chunks, in order, via a temp file and rename, so partial
    output never lands: an error while a chunk is made or written removes
    the temp file and leaves the path as it was."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
