"""A fleet as arrays: CSV ingestion, normalization, vehicle splits, and synthesis.

FleetDataset holds one row per charge snippet: channels (N, M, D), metadata
(N, K), labels (N,), and each row's snippet and vehicle id. load_csv and
synth_fleet stack the snippets once; every later stage, down to the
classifier's feature matrix, works on these arrays and selects rows with take.

CSV formats (UTF-8, '.' decimals, LF or CRLF):
  snippets: snippet_id,vehicle_id,step,voltage,current,temperature[,extra...]
            rows of one snippet contiguous, with increasing integer steps;
            a snippet is resampled evenly in step, so its steps set its time axis.
  metadata: snippet_id,label,mileage_km,cycle_count  with label in {0,1}.
  A snippet or vehicle id holds no comma, double quote, CR or LF, so every
  CSV output that names it (the fleet files, tsne_*.csv) keeps its columns.

load_csv reads a snippet file in two ways. The array path parses it in
blocks of CSV_BLOCK_LINES lines with np.loadtxt (ids as strings, steps as
int64, channels as float64) and checks the whole file with array
expressions. A file it cannot take as regular (a quoted cell, a ragged row,
a step or channel cell numpy does not parse, any broken rule) goes unchanged
to the row reader, the general path: csv.reader, int and float, and the only
code that names a bad file:line (numpy's row numbers skip blank lines, so
no message comes from a numpy error). Both give the same FleetDataset, bit
for bit. Blocks bound the parser's working set. On the desk fleet (20,480
rows) a load took 20-22 ms with 256 to 2048 lines a block, against 41-47
ms row by row; a fresh process's peak RSS rose over the row reader's by
1.3 MB at 256 lines, 1.6 MB at 1024, 2.3 MB at 2048, 5.3 MB at 8192 and
7.4 MB for the whole file at once.

Every file the package writes goes through write_text (UTF-8, LF line ends),
every JSON document through json_text (the one canonical form) and every CSV
file through csv_text (a float cell is its repr). Every JSON document it reads
goes through read_document, every field of one through read_value.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import sys
import typing
from dataclasses import dataclass, fields, is_dataclass, replace

import numpy as np

from .numcore import SeededRng

STD_FLOOR = 1e-8
META_NAMES = ["mileage_km", "cycle_count"]
CSV_UNSAFE = (",", '"', "\r", "\n")  # what an unquoted CSV cell cannot hold
CSV_BLOCK_LINES = 1024  # snippet-file lines per np.loadtxt call of load_csv


class ParseError(ValueError):
    """Malformed input file; message carries file/line context."""


def write_text(path, text: str):
    """Write text to path as UTF-8 with LF line ends."""
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write(text)


def json_text(doc) -> str:
    """Canonical JSON text: sorted keys, one-space indent, a final newline; NaN or inf raise."""
    return json.dumps(doc, indent=1, sort_keys=True, allow_nan=False) + "\n"


def _refuse_csv_unsafe(cells, where: str, error):
    """Raise ``error`` naming ``where`` and the first text cell that holds a comma, a double
    quote, CR or LF. The cells are searched joined, so cells that hold none cost one scan."""
    joined = "".join(cells)
    if any(c in joined for c in CSV_UNSAFE):
        cell = next(cell for cell in cells if any(c in cell for c in CSV_UNSAFE))
        raise error(f"{where} {cell!r} holds a comma, a double quote, CR or LF")


def csv_text(header, *columns) -> str:
    """The header line of the names in ``header``, then one line per row of the columns.
    A cell is its ``str``, so a float cell is its repr; a text cell holding a comma, a double
    quote, CR or LF raises ValueError."""
    for name, column in zip(header, columns):
        if column and isinstance(column[0], str):
            _refuse_csv_unsafe(column, f"column {name!r} cell", ValueError)
    line = ",".join(["{}"] * len(header)) + "\n"  # format(cell, "") is str(cell)
    return line.format(*header) + "".join(map(line.format, *columns))


def read_document(path, what: str, read, version=None):
    """``read(doc)`` of the JSON object at path: the one reader of every JSON input file.

    A decode error, a document that is not an object or (when ``version`` is
    given) has another ``format_version``, nesting too deep to decode or read,
    and a KeyError, TypeError, ValueError or OverflowError from ``read`` are a
    ParseError "malformed <what> <path>: ..."; an OSError passes through.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError("not a JSON object")
        if version is not None and doc.get("format_version") != version:
            raise ValueError(f"unsupported format version {doc.get('format_version')!r} "
                             f"(expected {version})")
        return read(doc)
    except KeyError as exc:
        raise ParseError(f"malformed {what} {path}: missing key {exc}") from None
    except (TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise ParseError(f"malformed {what} {path}: {exc}") from None


def read_value(value, kind, name: str, key_name: str = "{} key {!r}"):
    """Read a value decoded from JSON as ``kind``: the one type rule of every document.

    Booleans are never numbers. ``int`` takes integral numbers (7.0 reads as
    7). ``float`` takes finite numbers and keeps them as given, so a document
    read and written again keeps its bytes. ``tuple[float, float]`` takes a
    list of that length and ``str`` a string. A dataclass takes an object,
    reads each key by its field's annotation, rejects unknown keys and is then
    built, so its ``__post_init__`` range checks run. Anything else is a
    ValueError naming ``name``; ``key_name`` names a dataclass's keys, as
    ``config key 'seed'`` at the top and ``config section 'model': L`` below.
    """
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is int and number and (isinstance(value, int) or value.is_integer()):
        return int(value)
    # False for NaN, for the infinities and for integers past the float range
    if kind is float and number and abs(value) <= sys.float_info.max:
        return value
    if kind is str and isinstance(value, str):
        return value
    kinds = typing.get_args(kind)
    if typing.get_origin(kind) is tuple and isinstance(value, list) and len(value) == len(kinds):
        return tuple(read_value(v, k, f"{name}[{i}]") for i, (v, k) in enumerate(zip(value, kinds)))
    if is_dataclass(kind) and isinstance(value, dict):
        hints = typing.get_type_hints(kind)
        unknown = sorted(set(value) - {f.name for f in fields(kind)})
        if unknown:
            raise ValueError(f"unknown key {unknown[0]!r} in {name}")
        read = {}
        for key, item in value.items():
            section = is_dataclass(hints[key])
            child = f"{name} section {key!r}" if section else key_name.format(name, key)
            read[key] = read_value(item, hints[key], child, "{}: {}")
        try:
            return kind(**read)
        except ValueError as exc:
            raise ValueError(f"invalid {name}: {exc}") from None
    expected = {int: "an integer", float: "a finite number", str: "a string"}.get(
        kind, f"a list of {len(kinds)} values" if kinds else "an object")
    raise ValueError(f"{name} must be {expected}, got {value!r}")


@dataclass(frozen=True)
class FleetDataset:
    """A fleet as arrays, one row per charge snippet.

    ``channels`` is (N, M, D) and ``meta`` (N, K), both float64; ``labels``
    (N,) holds each snippet's vehicle label, 0 normal and 1 fault.
    ``snippet_ids`` and ``vehicle_ids`` name each row.
    """

    channels: np.ndarray
    meta: np.ndarray
    labels: np.ndarray
    snippet_ids: tuple
    vehicle_ids: tuple
    channel_names: tuple
    meta_names: tuple

    def __post_init__(self):
        n, d, k = len(self.snippet_ids), len(self.channel_names), len(self.meta_names)
        if (self.channels.ndim != 3 or self.channels.shape[::2] != (n, d) or self.meta.shape != (n, k)
                or self.labels.shape != (n,) or len(self.vehicle_ids) != n):
            raise ValueError(f"channels {self.channels.shape}, meta {self.meta.shape}, labels "
                             f"{self.labels.shape} and {len(self.vehicle_ids)} vehicle ids do not "
                             f"match {n} snippets of {d} channels and {k} metadata fields")
        if len(set(self.snippet_ids)) != n:
            raise ValueError("duplicate snippet_id in dataset")
        finite = np.isfinite(self.channels).all(axis=(1, 2)) & np.isfinite(self.meta).all(axis=1)
        if not finite.all():
            raise ValueError(f"snippet {self.snippet_ids[np.argmin(finite)]}: non-finite values")

    def __len__(self):
        return len(self.snippet_ids)

    def take(self, rows) -> "FleetDataset":
        """The rows at the integer indices ``rows``, in that order."""
        return replace(self, channels=self.channels[rows], meta=self.meta[rows],
                       labels=self.labels[rows],
                       snippet_ids=tuple(self.snippet_ids[i] for i in rows),
                       vehicle_ids=tuple(self.vehicle_ids[i] for i in rows))

    def vehicle_labels(self) -> dict:
        """Each vehicle's label, in order of the vehicle's first row."""
        return dict(zip(self.vehicle_ids, self.labels.tolist()))


@dataclass(frozen=True)
class NormStats:
    mean: np.ndarray
    std: np.ndarray
    meta_mean: np.ndarray
    meta_std: np.ndarray


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


def _stack_snippets(snippets: list, channel_names, m: int) -> FleetDataset:
    """The fleet of (snippet_id, vehicle_id, channels (m, D), meta (K,), label) tuples."""
    sids, vids, channels, meta, labels = zip(*snippets) if snippets else ((),) * 5
    return FleetDataset(np.array(channels, dtype=np.float64).reshape(-1, m, len(channel_names)),
                        np.array(meta, dtype=np.float64).reshape(-1, len(META_NAMES)),
                        np.array(labels, dtype=np.int64), sids, vids,
                        tuple(channel_names), tuple(META_NAMES))


def _parse_float(cell: str, path, line_no: int, col: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise ParseError(f"{path}:{line_no}: non-numeric value {cell!r} in column {col!r}") from None
    if not math.isfinite(value):
        raise ParseError(f"{path}:{line_no}: non-finite value {cell!r} in column {col!r}")
    return value


def _resample(steps: list, channels: np.ndarray, target_len: int) -> np.ndarray:
    """Linear resample each column to target_len rows evenly spaced in step.

    The rows sit at their increasing integer ``steps``, so a snippet sampled
    with gaps or changing spacing keeps its shape in time; the new rows run
    from the first step to the last.
    """
    if len(steps) == target_len and int(steps[-1]) - int(steps[0]) == target_len - 1:
        return channels  # consecutive steps: the rows are the grid already
    s = np.array(steps, dtype=np.float64)
    grid = np.linspace(s[0], s[-1], target_len)
    return np.column_stack([np.interp(grid, s, channels[:, d]) for d in range(channels.shape[1])])


def load_csv(data_path, meta_path, target_len: int) -> FleetDataset:
    """Ingest snippet + metadata CSVs, resampling every snippet to target_len rows.

    A regular snippet file is read in blocks by numpy's C parser; any other
    file goes to the row reader, which parses it or names its bad line.
    """
    if target_len < 1:
        raise ValueError("target_len must be positive")
    meta_by_id = _read_meta(meta_path)
    fleet = _read_snippet_blocks(data_path, meta_by_id, target_len)
    if fleet is None:
        fleet = _read_snippet_rows(data_path, meta_path, meta_by_id, target_len)
    return fleet


def _read_meta(meta_path) -> dict:
    """snippet_id -> (label, [mileage_km, cycle_count], line) of each row of the metadata file."""
    meta_by_id = {}
    with open(meta_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:4]] != ["snippet_id", "label", "mileage_km", "cycle_count"]:
            raise ParseError(f"{meta_path}:1: expected header snippet_id,label,mileage_km,cycle_count")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < 4:
                raise ParseError(f"{meta_path}:{line_no}: expected 4 columns, got {len(row)}")
            sid = row[0].strip()
            _refuse_csv_unsafe((sid,), f"{meta_path}:{line_no}: id", ParseError)
            label = row[1].strip()
            if label not in ("0", "1"):
                raise ParseError(f"{meta_path}:{line_no}: label must be 0 or 1, got {label!r}")
            if sid in meta_by_id:
                raise ParseError(f"{meta_path}:{line_no}: snippet {sid!r} is already listed "
                                 f"on line {meta_by_id[sid][2]}")
            meta = [_parse_float(row[i], meta_path, line_no, META_NAMES[i - 2]) for i in (2, 3)]
            meta_by_id[sid] = (int(label), meta, line_no)
    return meta_by_id


def _read_snippet_blocks(data_path, meta_by_id: dict, target_len: int):
    """The fleet of a regular snippet file, parsed by ``np.loadtxt`` in blocks; None for any other.

    Regular: no double quote anywhere, a plain header, the header's column
    count on every non-blank line, ids that need no strip, steps that numpy
    reads as int64, channels that it reads as finite float64, and every rule
    of the row reader holding. numpy reads a subset of what ``int`` and
    ``float`` take, to the same values, so such a file loads as the row
    reader loads it. A block keeps only its snippets' first ids, not one per
    row.
    """
    with open(data_path, newline="", encoding="utf-8") as fh:
        header = next(fh, "").rstrip("\r\n").split(",")
        if ('"' in "".join(header) or len(header) < 4
                or [h.strip() for h in header[:3]] != ["snippet_id", "vehicle_id", "step"]):
            return None
        dtype = np.dtype([("sid", object), ("vid", object), ("step", np.int64),
                          ("x", np.float64, (len(header) - 3,))])
        sids, vids, starts, steps, values = [], [], [], [], []
        last_sid = last_vid = None  # the previous block's last row
        n_rows = 0
        while lines := list(itertools.islice(fh, CSV_BLOCK_LINES)):
            if '"' in "".join(lines):  # a quoted cell, which csv.reader unquotes
                return None
            if lines.count("\n") + lines.count("\r\n") + lines.count("\r"):
                # blank lines, which csv.reader skips and np.loadtxt would not count
                lines = [line for line in lines if line not in ("\n", "\r\n", "\r")]
                if not lines:
                    continue
            try:
                block = np.loadtxt(lines, dtype, delimiter=",", comments=None, ndmin=1)
            except ValueError:
                return None
            sid = np.concatenate(([last_sid], block["sid"]))
            vid = np.concatenate(([last_vid], block["vid"]))
            first = sid[1:] != sid[:-1]  # each row that starts a snippet
            if (vid[1:] != vid[:-1])[~first].any():
                return None
            sids += sid[1:][first].tolist()
            vids += vid[1:][first].tolist()
            starts.append(n_rows + np.flatnonzero(first))
            steps.append(block["step"].copy())  # copies, so the block and its ids go
            values.append(block["x"].copy())
            last_sid, last_vid = sid[-1], vid[-1]
            n_rows += len(block)
    # one snippet per metadata row; a metadata key is stripped, so a snippet
    # id that needs a strip is none
    if (not sids or len(set(sids)) != len(sids) or len(sids) != len(meta_by_id)
            or not all(map(meta_by_id.__contains__, sids)) or any(v != v.strip() for v in vids)):
        return None
    vehicle_label = {}
    if any(vehicle_label.setdefault(v, meta_by_id[s][0]) != meta_by_id[s][0]
           for s, v in zip(sids, vids)):
        return None
    step, x = np.concatenate(steps), np.concatenate(values)
    bounds = np.append(np.concatenate(starts), n_rows)
    rising = step[1:] > step[:-1]
    rising[bounds[1:-1] - 1] = True  # a snippet's first step follows nothing
    if np.diff(bounds).min() < 2 or not rising.all() or not np.isfinite(x).all():
        return None
    return _stack_snippets([(s, v, _resample(step[a:b], x[a:b], target_len),
                             meta_by_id[s][1], meta_by_id[s][0])
                            for s, v, a, b in zip(sids, vids, bounds[:-1], bounds[1:])],
                           [h.strip() for h in header[3:]], target_len)


def _read_snippet_rows(data_path, meta_path, meta_by_id: dict, target_len: int) -> FleetDataset:
    """The fleet of any snippet file, read row by row; a ParseError names its first bad line."""
    snippets = []
    with open(data_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) < 4 or [h.strip() for h in header[:3]] != ["snippet_id", "vehicle_id", "step"]:
            raise ParseError(f"{data_path}:1: expected header snippet_id,vehicle_id,step,<channels...>")
        channel_names = [h.strip() for h in header[3:]]
        if not channel_names:
            raise ParseError(f"{data_path}:1: no channel columns")

        first_line_of = {}    # snippet_id -> line its rows start on
        vehicle_label = {}    # vehicle_id -> (label, snippet_id that set it)
        lines = ((line_no, row) for line_no, row in enumerate(reader, start=2) if row)
        for sid, group in itertools.groupby(lines, key=lambda line: line[1][0].strip()):
            steps, rows = [], []
            for line_no, row in group:
                if len(row) != len(header):
                    raise ParseError(f"{data_path}:{line_no}: expected {len(header)} columns, got {len(row)}")
                vid = row[1].strip()
                if not steps:  # the snippet's first row
                    if sid in first_line_of:
                        raise ParseError(
                            f"{data_path}:{line_no}: rows of snippet {sid!r} are not contiguous "
                            f"(its first block starts at line {first_line_of[sid]})")
                    _refuse_csv_unsafe((sid, vid), f"{data_path}:{line_no}: id", ParseError)
                    first_line_of[sid] = first_line = line_no
                    vehicle = vid
                elif vid != vehicle:
                    raise ParseError(
                        f"{data_path}:{line_no}: snippet {sid!r} row has vehicle {vid!r} "
                        f"but its first row (line {first_line}) has vehicle {vehicle!r}")
                try:
                    step = int(row[2])
                except ValueError:
                    raise ParseError(f"{data_path}:{line_no}: step {row[2]!r} is not an integer") from None
                if steps and step <= steps[-1]:
                    raise ParseError(f"{data_path}:{line_no}: snippet {sid!r} step {step} "
                                     f"does not follow its previous step {steps[-1]}")
                steps.append(step)
                # one pass over the row; only a row that fails it is parsed again cell by
                # cell, to name the bad cell (or to pass finite cells whose sum overflowed)
                try:
                    values = list(map(float, row[3:]))
                    ok = math.isfinite(sum(values))
                except ValueError:
                    ok = False
                if not ok:
                    values = [_parse_float(cell, data_path, line_no, name)
                              for cell, name in zip(row[3:], channel_names)]
                rows.append(values)
            if len(rows) < 2:
                raise ParseError(f"{data_path}:{first_line}: snippet {sid!r} has fewer than 2 rows")
            if sid not in meta_by_id:
                raise ParseError(f"{data_path}:{first_line}: snippet {sid!r} missing from metadata file")
            label, meta, _ = meta_by_id[sid]
            v_label, v_sid = vehicle_label.setdefault(vehicle, (label, sid))
            if label != v_label:
                raise ParseError(
                    f"{data_path}:{first_line}: snippet {sid!r} has label {label} in the metadata "
                    f"file but vehicle {vehicle!r} has label {v_label} from snippet {v_sid!r}")
            channels = _resample(steps, np.array(rows, dtype=np.float64), target_len)
            snippets.append((sid, vehicle, channels, meta, label))

    for sid, (_, _, line_no) in meta_by_id.items():
        if sid not in first_line_of:
            raise ParseError(f"{meta_path}:{line_no}: snippet {sid!r} has no rows in {data_path}")
    return _stack_snippets(snippets, channel_names, target_len)


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------


def fit_norm(train: FleetDataset) -> NormStats:
    """Per-channel and per-meta mean/std pooled over the TRAIN split only.

    Population standard deviation, floored at 1e-8 so constant channels stay finite.
    """
    if len(train) == 0:
        raise ValueError("cannot fit normalization on an empty dataset")
    pooled = train.channels.reshape(-1, train.channels.shape[2])
    mean = pooled.mean(axis=0)
    std = np.maximum(pooled.std(axis=0), STD_FLOOR)
    meta_mean = train.meta.mean(axis=0)
    meta_std = np.maximum(train.meta.std(axis=0), STD_FLOOR)
    return NormStats(mean, std, meta_mean, meta_std)


def apply_norm(ds: FleetDataset, stats: NormStats) -> FleetDataset:
    """Z-score channels and metadata with previously fit statistics."""
    if ds.channels.shape[2] != stats.mean.shape[0]:
        raise ValueError(f"channel count {ds.channels.shape[2]} != stats D {stats.mean.shape[0]}")
    if ds.meta.shape[1] != stats.meta_mean.shape[0]:
        raise ValueError(f"meta length {ds.meta.shape[1]} != stats K {stats.meta_mean.shape[0]}")
    return replace(ds, channels=(ds.channels - stats.mean) / stats.std,
                   meta=(ds.meta - stats.meta_mean) / stats.meta_std)


# ---------------------------------------------------------------------------
# Vehicle-level split
# ---------------------------------------------------------------------------


def vehicle_split(ds: FleetDataset, ratio: float, seed: int):
    """Split by vehicle, stratified by label, so no vehicle straddles train/val.

    Returns (train, val, stats): both sides, each keeping the rows' order in
    ``ds``, z-scored with ``stats = fit_norm`` of the training side alone.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must be in (0,1)")
    vehicles = ds.vehicle_labels()
    if len(vehicles) < 2:
        raise ValueError("need at least 2 vehicles to split")

    rng = SeededRng(seed, ("vehicle_split",))
    by_label = {}
    for v, label in vehicles.items():
        by_label.setdefault(label, []).append(v)

    total_train = int(round(ratio * len(vehicles)))
    train_ids = set()
    # allocate per label group, keeping at least one vehicle of each group in
    # val (and train) whenever the group is large enough
    groups = sorted(by_label.items())
    alloc = {}
    for label, group in groups:
        n_tr = int(round(ratio * len(group)))
        if len(group) >= 2:
            n_tr = min(max(n_tr, 1), len(group) - 1)
        alloc[label] = n_tr
    # nudge the largest group so totals match round(ratio * V) when possible
    diff = total_train - sum(alloc.values())
    if diff != 0:
        label_big = max(groups, key=lambda kv: len(kv[1]))[0]
        group = by_label[label_big]
        lo = 1 if len(group) >= 2 else 0
        hi = len(group) - 1 if len(group) >= 2 else len(group)
        alloc[label_big] = min(max(alloc[label_big] + diff, lo), hi)

    for label, group in groups:
        order = rng.spawn(label).permutation(len(group))
        shuffled = [group[i] for i in order]
        train_ids.update(shuffled[:alloc[label]])

    if not 0 < len(train_ids) < len(vehicles):
        raise ValueError(f"split ratio {ratio} leaves an empty side for {len(vehicles)} vehicles")

    in_train = np.array([v in train_ids for v in ds.vehicle_ids])
    train, val = ds.take(np.flatnonzero(in_train)), ds.take(np.flatnonzero(~in_train))
    stats = fit_norm(train)
    return apply_norm(train, stats), apply_norm(val, stats), stats


# ---------------------------------------------------------------------------
# Synthetic fleet generator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FleetConfig:
    """Constant-current / constant-voltage charge profile generator settings."""

    n_vehicles: int = 40
    fault_fraction: float = 0.15
    snippets_per_vehicle: int = 4
    # healthy cell baseline
    v_start: float = 3.2          # open-circuit voltage at start of charge (V)
    v_max: float = 4.2            # CV-phase terminal voltage (V)
    i_charge: float = 50.0        # CC-phase current (A)
    resistance: float = 0.002     # internal resistance (ohm)
    tau_voltage: float = 60.0     # open-circuit ramp time constant (steps)
    tau_current: float = 25.0     # CV-phase current decay (steps)
    temp_ambient: float = 25.0    # ambient temperature (C)
    heat_gain: float = 0.08       # I^2 R -> temperature forcing gain
    temp_tau: float = 30.0        # first-order thermal lag (steps)
    noise_std: float = 0.01       # per-channel gaussian measurement noise
    jitter: float = 0.05          # relative per-vehicle parameter jitter
    # fault signature
    fault_resistance_mult: float = 1.8
    dip_depth: float = 0.15       # transient voltage dip (V)
    dip_len: int = 6              # dip duration (steps)
    dips_per_snippet: int = 2
    # metadata ranges
    mileage_range: tuple[float, float] = (20_000.0, 120_000.0)
    cycle_range: tuple[float, float] = (100.0, 900.0)
    fault_meta_bias: float = 0.35  # faulty vehicles biased toward the top of the ranges
    # subfleet offsets (distribution-shift experiments)
    voltage_offset: float = 0.0
    temp_offset: float = 0.0

    def __post_init__(self):
        if self.n_vehicles < 1 or self.snippets_per_vehicle < 1:
            raise ValueError("n_vehicles and snippets_per_vehicle must be positive")
        if not 0.0 <= self.fault_fraction <= 1.0:
            raise ValueError(f"fault_fraction must be in [0,1], got {self.fault_fraction}")
        if self.noise_std < 0 or self.jitter < 0:
            raise ValueError("noise_std and jitter must be nonnegative")
        if self.dip_len < 1:
            raise ValueError(f"dip_len must be >= 1, got {self.dip_len}")
        if self.dips_per_snippet < 0:
            raise ValueError(f"dips_per_snippet must be >= 0, got {self.dips_per_snippet}")
        for name in ("tau_voltage", "tau_current"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        # the thermal lag scales each step by 1 - 1/temp_tau, which must stay inside (-1, 1)
        if not self.temp_tau > 0.5:
            raise ValueError(f"temp_tau must be > 0.5, got {self.temp_tau}")
        for name in ("mileage_range", "cycle_range"):
            lo, hi = getattr(self, name)
            if not lo <= hi:
                raise ValueError(f"{name} must be [lo, hi] with lo <= hi, got {[lo, hi]!r}")


CHANNEL_NAMES = ("voltage", "current", "temperature")
# synth_fleet + write_csv peak per channel value: 119-132 B under tracemalloc
SYNTH_BYTES_PER_VALUE = 132


def _synth_snippet(cfg: FleetConfig, m: int, rng: SeededRng, resistance: float,
                   faulty: bool) -> np.ndarray:
    t = np.arange(m, dtype=np.float64)
    tau_v = cfg.tau_voltage * (1.0 + cfg.jitter * rng.normal(()))
    v_oc = cfg.v_start + (cfg.v_max - cfg.v_start) * (1.0 - np.exp(-t / max(tau_v, 1.0)))

    current = np.full(m, cfg.i_charge)
    terminal = v_oc + current * resistance
    over = np.nonzero(terminal >= cfg.v_max)[0]
    if over.size:
        t_sw = over[0]
        current[t_sw:] = cfg.i_charge * np.exp(-(t[t_sw:] - t_sw) / cfg.tau_current)
    voltage = np.minimum(v_oc + current * resistance, cfg.v_max)

    temp = np.empty(m)
    temp[0] = cfg.temp_ambient
    for k in range(m - 1):
        heating = cfg.heat_gain * current[k] ** 2 * resistance
        temp[k + 1] = temp[k] + heating - (temp[k] - cfg.temp_ambient) / cfg.temp_tau

    if faulty:
        for _ in range(cfg.dips_per_snippet):
            start = int(rng.integers(0, max(m - cfg.dip_len, 1)))
            depth = cfg.dip_depth * (0.5 + rng.uniform(()))
            voltage[start:start + cfg.dip_len] -= depth

    voltage = voltage + cfg.voltage_offset + cfg.noise_std * rng.normal(m)
    current = current + cfg.i_charge * cfg.noise_std * rng.normal(m)
    temp = temp + cfg.temp_offset + cfg.noise_std * rng.normal(m)
    return np.column_stack([voltage, current, temp])


def synth_fleet(cfg: FleetConfig, seed: int, seq_len: int, id_prefix: str = "ev") -> FleetDataset:
    """Generate a deterministic synthetic EV fleet of seq_len-step snippets with injected faults."""
    if seq_len < 2:
        raise ValueError(f"seq_len must be >= 2, got {seq_len}")
    rng = SeededRng(seed, ("synth_fleet",))

    n_fault = int(round(cfg.fault_fraction * cfg.n_vehicles))
    order = rng.spawn("labels").permutation(cfg.n_vehicles)
    faulty_set = set(int(i) for i in order[:n_fault])

    mi_lo, mi_hi = cfg.mileage_range
    cy_lo, cy_hi = cfg.cycle_range

    snippets = []
    for vi in range(cfg.n_vehicles):
        v_rng = rng.spawn("vehicle", vi)
        faulty = vi in faulty_set
        resistance = cfg.resistance * (1.0 + cfg.jitter * v_rng.normal(()))
        if faulty:
            resistance *= cfg.fault_resistance_mult
        bias = cfg.fault_meta_bias if faulty else 0.0
        mileage = mi_lo + (mi_hi - mi_lo) * min(v_rng.uniform(()) * (1 - bias) + bias, 1.0)
        cycles = cy_lo + (cy_hi - cy_lo) * min(v_rng.uniform(()) * (1 - bias) + bias, 1.0)
        meta = [mileage, cycles]
        vid = f"{id_prefix}{vi:04d}"
        for si in range(cfg.snippets_per_vehicle):
            channels = _synth_snippet(cfg, seq_len, v_rng.spawn("snippet", si), resistance, faulty)
            snippets.append((f"{vid}_s{si:03d}", vid, channels, meta, int(faulty)))

    return _stack_snippets(snippets, CHANNEL_NAMES, seq_len)


def merge_fleets(a: FleetDataset, b: FleetDataset) -> FleetDataset:
    """Concatenate two fleets sharing the same channel/meta layout."""
    if a.channel_names != b.channel_names or a.meta_names != b.meta_names:
        raise ValueError("fleets have different channel or meta layouts")
    return FleetDataset(np.concatenate([a.channels, b.channels]), np.concatenate([a.meta, b.meta]),
                        np.concatenate([a.labels, b.labels]), a.snippet_ids + b.snippet_ids,
                        a.vehicle_ids + b.vehicle_ids, a.channel_names, a.meta_names)


# ---------------------------------------------------------------------------
# CSV emission (inverse of load_csv, used by the CLI synth command)
# ---------------------------------------------------------------------------


def write_csv(ds: FleetDataset, data_path, meta_path):
    """Write a dataset in the ingestion CSV formats (deterministic bytes)."""
    n, m, d = ds.channels.shape
    write_text(data_path, csv_text(("snippet_id", "vehicle_id", "step", *ds.channel_names),
                                   [sid for sid in ds.snippet_ids for _ in range(m)],
                                   [vid for vid in ds.vehicle_ids for _ in range(m)],
                                   list(range(m)) * n, *ds.channels.reshape(n * m, d).T.tolist()))
    write_text(meta_path, csv_text(("snippet_id", "label", *META_NAMES), ds.snippet_ids,
                                   ds.labels.tolist(), *ds.meta.T.tolist()))
