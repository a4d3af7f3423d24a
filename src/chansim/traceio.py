"""Multipath trace files: a diff-friendly CSV exchange format.

A trace stores one row per ray, grouped by the altitude sample it
belongs to, under a versioned header that also carries the arc radius
and the amplitude convention.  Rays with zero interactions are the LOS
path.  Loading validates the schema, sorts delays, and converts powers
in dBm into linear path gains when the header declares them.  Loading
and saving stream the file a line or a chunk of rows at a time, so their
memory follows the ray table, not the text.  The chunked CSV writer here
is also the report's.
"""

from __future__ import annotations

import codecs
import math
import os
import re
import tempfile
from collections.abc import Iterable, Iterator
from functools import partial
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .errors import RayRowError, TraceError
from .geometry import check_arc_radius
from .mpc import RAY_COLUMNS, RayTable, first_bad_ray

TRACE_VERSION = 1

_HEADER_PREFIX = "# chansim-trace"
# The items line 1 may give after the version, each at most once.
_HEADER_ITEMS = ("arc_radius_km", "amplitude", "p_tx_dbm")
_COLUMNS = ("altitude_km", *RAY_COLUMNS, "n_interactions")

# Each data row: altitude and the seven ray fields, then the interaction count.
_ROW_DTYPE = np.dtype([("values", float, (len(_COLUMNS) - 1,)), ("n_interactions", np.int64)])

# The rows of data lines: this one call decides whether a line parses.
_parse = partial(np.loadtxt, delimiter=",", comments=None, dtype=_ROW_DTYPE, ndmin=1)


def _header_number(text: str) -> float:
    """``text`` as a float by the rule the data rows are parsed by; a text it
    refuses raises ValueError with ``float()``'s message, else numpy's."""
    float(text)
    try:
        return float(np.loadtxt([text], delimiter=",", comments=None))
    except ValueError as exc:
        raise ValueError(re.sub(r" at row \d+, column \d+\.$", "", str(exc))) from None


def _parse_header(line: str, path: Path) -> tuple[float, float | None]:
    """The arc radius and, for powers in dBm, the TX power of line 1."""
    def fault(text: str) -> TraceError:
        return TraceError(f"{path}: line 1: {text}")

    if not line.startswith(_HEADER_PREFIX):
        raise fault(f"missing '{_HEADER_PREFIX}' header")
    fields = line[len(_HEADER_PREFIX):].split()
    if not fields or fields[0] != f"v{TRACE_VERSION}":
        raise fault(f"unsupported trace version {fields[:1]}")
    if malformed := [item for item in fields[1:] if "=" not in item]:
        raise fault(f"malformed header item {malformed[0]!r}")
    meta: dict[str, str] = {}
    for key, value in (item.split("=", 1) for item in fields[1:]):
        if key not in _HEADER_ITEMS:
            raise fault(f"unknown header item {key!r}; expected one of {', '.join(_HEADER_ITEMS)}")
        if key in meta:
            raise fault(f"header item {key!r} given twice")
        meta[key] = value
    try:
        arc_radius_km = check_arc_radius(_header_number(meta["arc_radius_km"]))
    except KeyError:
        raise fault("header missing arc_radius_km") from None
    except ValueError as exc:
        raise fault(f"bad arc_radius_km: {exc}") from None
    amplitude_unit = meta.get("amplitude", "linear")
    if amplitude_unit not in ("linear", "dbm"):
        raise fault(f"unknown amplitude unit {amplitude_unit!r}")
    if "p_tx_dbm" not in meta:
        if amplitude_unit == "dbm":
            raise fault("amplitude=dbm requires p_tx_dbm in the header")
        return arc_radius_km, None
    # A given p_tx_dbm is checked under either unit; linear amplitudes do not use it.
    try:
        p_tx_dbm = _header_number(meta["p_tx_dbm"])
    except ValueError as exc:
        raise fault(f"bad p_tx_dbm: {exc}") from None
    if not math.isfinite(p_tx_dbm):
        raise fault(f"bad p_tx_dbm: must be finite, got {p_tx_dbm}")
    return arc_radius_km, p_tx_dbm if amplitude_unit == "dbm" else None


def _ray_columns(rows: np.ndarray, p_tx_dbm: float | None) -> dict:
    """The ray columns of parsed rows, powers in dBm made linear gains.  The first row
    that breaks a row rule raises RayRowError, a row's count checked before its fields."""
    columns = {name: rows["values"][:, k + 1] for k, name in enumerate(RAY_COLUMNS)}
    if p_tx_dbm is not None:
        # A power beyond float range is an infinite gain, which the field rule names.
        with np.errstate(over="ignore"):
            columns["amplitude"] = 10.0 ** ((columns["amplitude"] - p_tx_dbm) / 20.0)
    negative = np.flatnonzero(rows["n_interactions"] < 0)
    bad = first_bad_ray(columns)
    if negative.size and (bad is None or negative[0] <= bad[0]):
        bad = int(negative[0]), "negative interaction count"
    if bad is not None:
        raise RayRowError(*bad)
    return columns


def _data_lines(path: Path, after: int) -> Iterator[tuple[int, str]]:
    """Line number and text of each non-blank line past line ``after``,
    streamed from the file anew; only a fault's report reads it twice."""
    with path.open(encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if lineno > after and not line.isspace():
                yield lineno, line


def _rejection(line: str) -> str | None:
    """Why ``_parse`` rejects a line, else None: the field count or the text of
    ``float()`` or ``int()``, else numpy's, whose row counts only this line."""
    try:
        _parse([line])
        return None
    except ValueError as exc:
        numpy_text = re.sub(r" at row \d+, (column \d+)\.$", r" in \1", str(exc))
    parts = [f.strip() for f in line.split(",")]
    if len(parts) != len(_COLUMNS):
        return f"expected {len(_COLUMNS)} fields, got {len(parts)}"
    try:
        for part in parts[:-1]:
            float(part)
        int(parts[-1])
    except ValueError as exc:
        return str(exc)
    return numpy_text


def _parse_fault(path: Path, after: int, p_tx_dbm: float | None, exc: ValueError) -> TraceError:
    """The fault of the first line ``_parse`` rejects, searched for a chunk at a
    time; a row before it that breaks a row rule raises its RayRowError first."""
    lines, row = _data_lines(path, after), 0
    while chunk := list(islice(lines, _CSV_CHUNK_ROWS)):
        try:
            _parse(line for _, line in chunk)
        except ValueError:
            row, lineno, message = next((row + i, lineno, text) for i, (lineno, line)
                                        in enumerate(chunk) if (text := _rejection(line)))
            if row:
                prefix = islice(_data_lines(path, after), row)
                _ray_columns(_parse(line for _, line in prefix), p_tx_dbm)
            return TraceError(f"{path}: line {lineno}: {message}")
        row += len(chunk)
    return TraceError(f"{path}: {exc}")


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
        except (TraceError, UnicodeDecodeError):
            # A fault may be found before the whole file is read; a byte
            # that is not UTF-8 anywhere in it is reported first.
            if (fault := _utf8_fault(p)) is None:
                raise
            raise TraceError(f"cannot read trace file {p}: {fault}") from None
    except FileNotFoundError:
        raise TraceError(f"trace file not found: {p}") from None
    except OSError as exc:
        raise TraceError(f"cannot read trace file {p}: {exc}") from None


def _utf8_fault(path: Path) -> str | None:
    """The file's first UTF-8 fault, or None, as ``bytes.decode`` of the whole
    file words it; a text stream counts the position from its current chunk."""
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
            if not chunk:
                return None
            offset += len(chunk)


def _next_filled(handle, lineno: int, path: Path) -> tuple[int, str]:
    """Number and text of the first non-blank line after line ``lineno``; at the
    end of the file, a fault named by the last line read."""
    for lineno, line in enumerate(handle, start=lineno + 1):
        if not line.isspace():
            return lineno, line
    raise TraceError(f"{path}: line {lineno}: trace file holds no rows")


def _load(p: Path) -> RayTable:
    # Lines end at \n, \r or \r\n only, as the file object splits them.
    try:
        with p.open(encoding="utf-8") as handle:
            header = handle.readline()
            if not header:
                raise TraceError(f"{p}: line 1: empty trace file")
            arc_radius_km, p_tx_dbm = _parse_header(header, p)

            # The column header row is the first non-blank line after line 1.
            first_no, first = _next_filled(handle, 1, p)
            header_cols = tuple(c.strip() for c in first.split(","))
            if header_cols[0] != _COLUMNS[0]:
                raise TraceError(f"{p}: line {first_no}: missing column header row")
            if header_cols != _COLUMNS:
                raise TraceError(f"{p}: line {first_no}: columns {header_cols} "
                                 f"do not match {_COLUMNS}")

            # np.loadtxt warns on no rows and refuses blank lines, so the rows
            # start at the first data line and skip blank ones.
            _, row = _next_filled(handle, first_no, p)
            lines = (line for line in handle if not line.isspace())
            try:
                rows = _parse(chain([row], lines))
            except ValueError as exc:
                raise _parse_fault(p, first_no, p_tx_dbm, exc) from exc

        columns = _ray_columns(rows, p_tx_dbm)
        altitude = rows["values"][:, 0]
        # A snapshot is a run of rows with equal altitude.
        starts = np.concatenate([[0], np.flatnonzero(altitude[1:] != altitude[:-1]) + 1])
        offsets = np.append(starts, altitude.size)
        los = rows["n_interactions"] == 0
        return RayTable(columns, los, offsets, altitude[starts], arc_radius_km)
    except RayRowError as exc:
        # A row or snapshot rule's fault is named by its row's line.
        lineno, _ = next(islice(_data_lines(p, first_no), exc.row, None))
        raise TraceError(f"{p}: line {lineno}: {exc}") from exc


def save_trace(table: RayTable, path: str | Path) -> None:
    """Write a pass as a linear-amplitude trace; loading it back is exact.  A trace
    tells snapshots apart by a change of altitude, so adjacent snapshots at one
    altitude raise ValueError before anything is written."""
    if len(table) == 0:
        raise ValueError("nothing to save")
    altitude = table.altitude_km
    if (repeated := np.flatnonzero(altitude[1:] == altitude[:-1])).size:
        raise ValueError(f"adjacent snapshots share altitude {float(altitude[repeated[0]])} km, "
                         "which a trace file would merge into one snapshot")
    header = (f"{_HEADER_PREFIX} v{TRACE_VERSION} arc_radius_km={table.arc_radius_km!r}"
              " amplitude=linear\n")
    columns = [np.repeat(table.altitude_km, table.counts),
               *(getattr(table, name) for name in RAY_COLUMNS), np.where(table.is_los, 0, 1)]
    _atomic_write({Path(path): chain([header], _csv_chunks(dict(zip(_COLUMNS, columns))))})


def _atomic_write(files: dict[Path, Iterable[str]]) -> None:
    """Write each path's chunks, in order, to a temp file, then rename every
    temp file into place, so partial output never lands: an error while a
    chunk is made or written removes every temp file and leaves each path
    as it was."""
    temps = []
    try:
        for path, chunks in files.items():
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
            temps.append(tmp)
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.writelines(chunks)
        for path, tmp in zip(files, temps):
            os.replace(tmp, path)
    except BaseException:
        for tmp in temps:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise


UNBOUNDED = "unbounded"


def _fmt(value) -> str:
    if value is None:
        return "undefined"
    if isinstance(value, float):
        if math.isinf(value):
            return UNBOUNDED if value > 0 else "-inf"
        return repr(float(value))
    return str(value)


# Rows per chunk of a CSV: a chunk is formatted a column at a time and
# written before the next is made, so the cell strings of only one chunk
# are alive at once.  A trace's parse fault is also searched for by chunk.
_CSV_CHUNK_ROWS = 2048


def _fmt_column(values) -> list[str]:
    """``_fmt`` of each value; all-float and all-int/str columns take the
    built-in ``repr``/``str``, which ``_fmt`` reduces to on them.  A numpy
    column is made Python numbers first, so no numpy scalar is printed."""
    if isinstance(values, np.ndarray):
        values = values.tolist()
    kinds = set(map(type, values))
    if kinds == {float}:
        cells = list(map(repr, values))
        if math.inf in values:
            cells = [UNBOUNDED if cell == "inf" else cell for cell in cells]
        return cells
    if kinds <= {int, str}:
        return list(map(str, values))
    return list(map(_fmt, values))


def _csv_chunks(columns: dict[str, list | np.ndarray]) -> Iterator[str]:
    yield ",".join(columns) + "\n"
    n_rows = min(map(len, columns.values()), default=0)
    for lo in range(0, n_rows, _CSV_CHUNK_ROWS):
        cells = [_fmt_column(values[lo:lo + _CSV_CHUNK_ROWS]) for values in columns.values()]
        yield "\n".join(map(",".join, zip(*cells))) + "\n"
