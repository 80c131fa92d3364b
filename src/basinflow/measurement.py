"""Dataset parsing and measurement-system assembly.

Behavioral datasets (applied nutrient masses, edge-of-stream and
end-of-tide loads, per-load-source delivery factors and areas) are turned
into the measurement system ``D U - error = constant``.  Every row is
soft, so imperfect data never makes the estimation infeasible; its weight
``1 / max(constant^2, max(2, phi u0^2))`` (``compute_weights``, which the
estimator calls on the system it is given) normalizes its squared error by
the magnitude of the datum it checks, floored in the data's unit ``u0``.

``D`` is the paper's capability aggregation D_E, one sparse row per datum
or transport relation and one column per capability, gathered through
aggregation matrices: a county row sums over its land segments, and a
transport relation reads ``transport - ratio * inflow into its origin
place``.  ``assemble_system`` stacks the row families every command uses,
and ``expand_constraints`` lifts them onto a K-step horizon with the
temporal aggregation D_T.  The fit report scores flows through the same
rows, plus StreamToTide rows that never enter the estimation, so only this
module knows how a datum aggregates flows.
"""

from __future__ import annotations

import csv
import itertools
import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .core_net import OPERAND_NAMES, SECTORS, Capabilities

if TYPE_CHECKING:
    from .topology import WatershedNetwork

LOAD_KINDS = ("EoS", "EoT", "StreamToTide")
DF_STAGES = ("landToWater", "streamToRiver", "riverToBay")
MISSING_POLICIES = ("error", "passthrough")

WEIGHT_FLOOR = 2.0  # lbs^2; constants below sqrt(2) share the cap weight 1/2
# phi: from u0^2 = WEIGHT_FLOOR / phi = 4000 lbs^2 on, the floor is phi u0^2.
WEIGHT_FLOOR_SHARE = 5e-4


class DataConsistencyWarning(UserWarning):
    """Questionable but tolerated dataset content (e.g. a delivery-factor
    ratio above one)."""


class DatasetFormatError(ValueError):
    """A dataset file is missing columns or holds unparseable values."""


# One record dtype per dataset family, the family's whole schema: field
# names are the CSV headers, text fields hold ``str`` objects and the value
# is float64.  A dataset is an ``np.recarray`` of its dtype, so the assembly
# reads whole columns (``loads.mass``) and a row reads by attribute
# (``row.county``).
APPLIED = np.dtype([("county", object), ("sector", object),
                    ("operand", object), ("mass", float)])
LOADS = np.dtype([("county", object), ("operand", object), ("kind", object),
                  ("mass", float)])
DELIVERY_FACTORS = np.dtype([("segment", object), ("load_source", object),
                             ("stage", object), ("factor", float)])
AREAS = np.dtype([("segment", object), ("load_source", object),
                  ("acres", float)])


def table(dtype: np.dtype, rows: Iterable[tuple] = ()) -> np.recarray:
    """A table of ``dtype`` from row tuples in field order."""
    return np.array(list(rows), dtype=dtype).view(np.recarray)


def table_from_columns(dtype: np.dtype, *columns) -> np.recarray:
    """A table of ``dtype`` from its columns in field order; a scalar fills
    its whole column, and the last column sets the length."""
    out = np.zeros(len(columns[-1]), dtype).view(np.recarray)
    for name, column in zip(dtype.names, columns):
        out[name] = column
    return out


# Row families in stacking order.  Transport rows are relations, which hold
# at every step; the others are data rows, which measure horizon totals.
FAMILIES = ("accept", "eos", "eot", "transport", "stream_to_tide")
ACCEPT, EOS, EOT, TRANSPORT, STREAM_TO_TIDE = range(len(FAMILIES))


@dataclass(frozen=True)
class MeasurementConstraint:
    """One row of a :class:`MeasurementSystem`, read-only; coefficients are
    ``((step, capability), value)`` pairs with steps 1..K."""

    coefficients: tuple[tuple[tuple[int, int], float], ...]
    constant: float
    label: str


@dataclass(frozen=True, eq=False)
class MeasurementSystem:
    """The measurement rows ``d @ U - error = constant`` as one sparse matrix.

    ``d`` is CSR with one row per measurement and one column per (step,
    capability), step-major: column ``(k - 1) * n_caps + cap`` is step k's
    firing of ``cap``.

    Each row's provenance is three parallel fields: ``family``, a code into
    ``FAMILIES``; ``operand``, a code into ``OPERAND_NAMES``; and ``key``,
    the entity the row measures: (county, sector) for accept rows, (county,)
    for EoS and StreamToTide rows, () for EoT rows, and ("land", segment)
    or ("river", "from->to") for transport relations.  :func:`row_labels`
    renders them as text.
    """

    d: sp.csr_matrix
    constant: np.ndarray
    family: np.ndarray
    operand: np.ndarray
    key: tuple[tuple[str, ...], ...]
    n_steps: int = 1

    def __len__(self) -> int:
        return self.d.shape[0]

    def __getitem__(self, r: int) -> MeasurementConstraint:
        r = range(len(self))[r]
        n_caps = self.d.shape[1] // self.n_steps
        lo, hi = self.d.indptr[r], self.d.indptr[r + 1]
        coefficients = tuple(
            ((col // n_caps + 1, col % n_caps), value) for col, value in
            zip(self.d.indices[lo:hi].tolist(), self.d.data[lo:hi].tolist()))
        return MeasurementConstraint(coefficients, float(self.constant[r]),
                                     row_labels(self, [r])[0])


def row_labels(system: MeasurementSystem,
               rows: Optional[Sequence[int]] = None) -> list[str]:
    """The text label of each of ``rows`` (every row by default):
    "family/key.../operand", and "family/key...@k{k}/operand" for a
    relation's copy at step k of a multi-step horizon."""
    rows = np.arange(len(system)) if rows is None else np.asarray(rows, np.intp)
    family = system.family[rows]
    step = np.zeros(rows.size, dtype=np.intp)
    if system.n_steps > 1:  # a relation copy's columns lie in its step's block
        copies, d = family == TRANSPORT, system.d
        step[copies] = d.indices[d.indptr[rows[copies]]] // (
            d.shape[1] // system.n_steps) + 1
    labels = []
    for r, f, o, k in zip(rows.tolist(), family.tolist(),
                          system.operand[rows].tolist(), step.tolist()):
        head = "/".join((FAMILIES[f], *system.key[r]))
        labels.append(f"{head}@k{k}/{OPERAND_NAMES[o]}" if k
                      else f"{head}/{OPERAND_NAMES[o]}")
    return labels


def stack_systems(systems: Sequence[MeasurementSystem]) -> MeasurementSystem:
    """Join row blocks over the same columns, in the given order."""
    return MeasurementSystem(
        sp.vstack([s.d for s in systems], format="csr"),
        np.concatenate([s.constant for s in systems]),
        np.concatenate([s.family for s in systems]),
        np.concatenate([s.operand for s in systems]),
        tuple(key for s in systems for key in s.key), systems[0].n_steps)


# ---------------------------------------------------------------------------
# Dataset files
# ---------------------------------------------------------------------------

# Text columns compared case-insensitively, stored lowercase.
_LOWERCASE = ("sector", "operand")
# Categorical columns: the values they allow and the message naming another.
_CHOICES = {
    "sector": (SECTORS, lambda v: f"sector {v!r} not supported; expected one "
               f"of {SECTORS} (other source sectors are out of scope)"),
    "kind": (LOAD_KINDS, lambda v: f"unknown load kind {v!r}; expected {LOAD_KINDS}"),
    "stage": (DF_STAGES, lambda v: f"unknown stage {v!r}; expected {DF_STAGES}"),
}


def _first(flags) -> Optional[int]:
    """Position of the first true flag, or None."""
    hits = np.flatnonzero(flags)
    return int(hits[0]) if hits.size else None


def _parse_numbers(raw: Sequence[str], problems: list) -> np.ndarray:
    """``raw`` as floats; the first value that is not a number and the first
    that is not finite go to ``problems`` as (row, message).  ``1_000`` and
    non-ASCII digits, which ``float`` reads but no CSV writer writes, are not."""
    try:
        if "_" in (text := "".join(raw)) or not text.isascii():
            raise ValueError(text)
        values = np.array(list(map(float, raw)), dtype=float)
    except ValueError:
        values = np.full(len(raw), math.nan)
        for i, text in enumerate(raw):
            try:
                if "_" in text or not text.isascii():
                    raise ValueError(text)
                values[i] = float(text)
            except ValueError:
                problems.append((i, f"{text!r} is not a number"))
                break
    bad = _first(~np.isfinite(values))
    if bad is not None:
        problems.append((bad, f"{raw[bad]!r} is not a finite number"))
    return values


# The rows that ``read_table`` parses at a time.
READ_CHUNK_ROWS = 4096


def read_table(path, dtype: np.dtype, nonnegative: str = "",
               key: Sequence[str] = ()) -> np.recarray:
    """Read a CSV file into a table of ``dtype``.

    The header must name every field; other columns, blank lines and a
    leading byte-order mark are ignored.  Text is stripped, and ``sector``
    and ``operand`` lowercased; equal text values in a column are one
    shared ``str``.  Numbers must be finite, and nonnegative
    when ``nonnegative`` names them for the message.  No two rows may share
    their ``key`` columns.  The first row that breaks a rule, or has fewer
    fields than the header, is reported with the file and line that hold
    it, as is a field beyond ``csv.field_size_limit()``; a file not in UTF-8 is named.
    Rows are parsed ``READ_CHUNK_ROWS`` at a time, and no row list outlives
    its chunk.
    """
    numbers = [name for name in dtype.names if dtype[name] != object]
    # Per text column, each distinct raw value's shared str and the shared
    # strs by value, kept across chunks: each raw value is normalized once,
    # and every row that holds a value shares one str.
    vocab = {name: ({}, {}) for name in dtype.names if name not in numbers}
    # ``problems`` holds (row, message), or (row, message, repeated row).
    seen, parts, problems = {}, [], []

    def parse(rows: list[list[str]], start: int) -> np.ndarray:
        """Rows ``start`` on, as a table; their problems go to ``problems``."""
        found = []
        if min(map(len, rows)) < len(header):
            short = _first([len(row) < len(header) for row in rows])
            found.append((short, f"{len(rows[short])} fields, the header has "
                                 f"{len(header)}"))
            del rows[short:]
        columns = list(zip(*rows)) or [()] * len(header)
        # np.zeros, not np.empty: several times faster for object fields.
        out = np.zeros(len(rows), dtype)
        for name, (shared_of, shared) in vocab.items():
            fold = str.lower if name in _LOWERCASE else str
            column = columns[header.index(name)]
            for raw in set(column).difference(shared_of):
                shared_of[raw] = shared.setdefault(text := fold(raw.strip()), text)
            out[name] = [shared_of[raw] for raw in column]
        # Checks in the order a row reports them: operand, numbers, choices.
        if "operand" in dtype.names:
            bad = _first([v not in OPERAND_NAMES for v in out["operand"]])
            if bad is not None:
                raw = columns[header.index("operand")][bad]
                found.append((bad, f"unknown operand {raw!r}; expected "
                                   f"{' or '.join(OPERAND_NAMES)}"))
        for name in numbers:
            out[name] = _parse_numbers(columns[header.index(name)], found)
        for name, (allowed, message) in _CHOICES.items():
            if name in dtype.names:
                bad = _first([v not in allowed for v in out[name]])
                if bad is not None:
                    found.append((bad, message(out[name][bad])))
        for name in numbers if nonnegative else ():
            bad = _first(out[name] < 0)
            if bad is not None:
                found.append((bad, f"{nonnegative} must be >= 0, got "
                                   f"{float(out[name][bad])}"))
        for i, values in enumerate(zip(*(out[name].tolist() for name in key)),
                                   start):
            first = seen.setdefault(values, i)
            # The first line is named once the whole file is read: reading
            # it for line numbers now could meet a csv error first.
            if first != i:
                found.append((i - start, f"repeats the ({', '.join(key)}) key "
                                         f"{values} of line", first))
                break
        problems.extend((start + row, *rest) for row, *rest in found)
        return out

    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            missing = [name for name in dtype.names if name not in header]
            if missing:
                raise DatasetFormatError(
                    f"{path}: missing required column(s) {', '.join(missing)}")
            rows, start = filter(None, reader), 0
            # No row after a problem's chunk can come first, so later chunks
            # are only read: a csv or UTF-8 error in them still wins.
            while chunk := list(itertools.islice(rows, READ_CHUNK_ROWS)):
                if not problems:
                    parts.append(parse(chunk, start))
                start += len(chunk)
                del chunk  # before the next is read
        except UnicodeDecodeError as exc:
            raise DatasetFormatError(f"{path}: not UTF-8 text ({exc.reason})") from exc
        except csv.Error as exc:  # a field beyond csv.field_size_limit()
            raise DatasetFormatError(f"{path} line {reader.line_num}: {exc}") from exc
    if problems:
        lines = _lines(path)
        row, message, *first = min(problems, key=lambda problem: problem[0])
        if first:
            message += f" {lines[first[0]]}"
        raise DatasetFormatError(f"{path} line {lines[row]}: {message}")
    return np.concatenate(parts or [np.zeros(0, dtype)]).view(np.recarray)


def _lines(path) -> list[int]:
    """The line on which each nonblank row after the header ends."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        return [reader.line_num for row in reader if row]


def read_applied(path) -> np.recarray:
    return read_table(path, APPLIED, nonnegative="applied mass")


def read_loads(path) -> np.recarray:
    return read_table(path, LOADS, nonnegative="load mass")


def read_delivery_factors(path) -> np.recarray:
    factors = read_table(path, DELIVERY_FACTORS, nonnegative="delivery factor",
                         key=("segment", "load_source", "stage"))
    for row in factors[factors.factor > 1.0]:
        warnings.warn(
            f"delivery factor {float(row.factor)} > 1 for segment "
            f"{row.segment!r} stage {row.stage}; retained",
            DataConsistencyWarning, stacklevel=2)
    return factors


def read_areas(path) -> np.recarray:
    return read_table(path, AREAS, nonnegative="area",
                      key=("segment", "load_source"))


def _csv_text(text: list[str]) -> list[str]:
    """``text`` as ``csv.writer`` writes it: a field holding ``,``, ``"``,
    ``\\r`` or ``\\n`` is quoted, with its inner quotes doubled."""
    def special(value: str) -> bool:
        return any(char in value for char in ',"\r\n')

    if not special("".join(text)):
        return text
    return ['"%s"' % v.replace('"', '""') if special(v) else v for v in text]


# The rows that ``write_table`` joins into one write.
WRITE_CHUNK_ROWS = 4096


def write_table(path, dataset: np.ndarray) -> None:
    """Write a table as CSV, byte for byte as ``csv.writer`` writes it: the
    field names, then one ``\\r\\n``-ended line per row, text quoted only
    where it must be and each number as its ``repr``.  Rows are joined and
    written ``WRITE_CHUNK_ROWS`` at a time, so the file is never held whole."""
    names = dataset.dtype.names
    columns = [_csv_text(dataset[name].tolist()) if dataset.dtype[name] == object
               else map(repr, dataset[name].tolist()) for name in names]
    rows = map(",".join, zip(*columns))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(_csv_text(list(names))) + "\r\n")
        while chunk := list(itertools.islice(rows, WRITE_CHUNK_ROWS)):
            fh.write("\r\n".join(chunk) + "\r\n")


write_applied = write_loads = write_delivery_factors = write_areas = write_table


# ---------------------------------------------------------------------------
# Delivery factors
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DeliveryModel:
    """Per-entity attenuation coefficients derived from the raw factors, as
    float arrays by network position.

    ``land_factor[i]`` is land segment i's land-to-water times
    stream-to-river factor; ``outlet_river_to_bay[j]`` averages the
    river-to-bay factors of the land segments draining to outlet j;
    ``link_ratio[l]`` is the fraction of its upstream outlet's inflow that
    river link l carries (the ratio of the two outlets' river-to-bay
    factors, or the upstream factor alone for an estuary link).  Each
    stage factor of a land segment is the area-weighted mean of its
    per-load-source factors.
    """

    land_factor: np.ndarray
    outlet_river_to_bay: np.ndarray
    link_ratio: np.ndarray


def _missing(policy: str, message: str, warning: str) -> None:
    """Raise ``message`` under the error policy, else warn ``warning``."""
    if policy == "error":
        raise ValueError(message)
    warnings.warn(warning, DataConsistencyWarning, stacklevel=3)


def compute_delivery_model(network: "WatershedNetwork",
                           factors: np.recarray,
                           areas: Optional[np.recarray] = None,
                           missing_policy: str = "error") -> DeliveryModel:
    """Aggregate raw per-load-source factors into model coefficients.

    ``factors`` is a DELIVERY_FACTORS table and ``areas`` an AREAS table,
    both with unique keys; areas default to the network's
    ``load_source_areas``.  Rows naming no land segment of the network are
    ignored with one warning per table, and a factor whose load source has
    no area is skipped with a warning.  A land segment lacking factors or
    areas for a stage, or whose areas there sum to zero, is an error by
    default; ``missing_policy="passthrough"`` substitutes 1.0 with a warning
    per segment.  Sums run in row order (``np.bincount``).
    """
    if missing_policy not in MISSING_POLICIES:
        raise ValueError(f"unknown missing_policy {missing_policy!r}")
    land_ids = network.land_segments.external_id.tolist()
    if areas is None:
        pairs = network.land_segments.load_source_areas.tolist()
        areas = table(AREAS, ((land, *pair) for land, items in
                              zip(land_ids, pairs) for pair in items))
    position = dict(zip(land_ids, range(len(land_ids))))
    area_of = dict(zip(zip(areas.segment.tolist(), areas.load_source.tolist()),
                       areas.acres.tolist()))
    land, area_land = (np.array([position.get(s, -1) for s in
                                 rows.segment.tolist()], dtype=np.intp)
                       for rows in (factors, areas))
    has_area = np.bincount(area_land[area_land >= 0], minlength=len(land_ids)) > 0
    for what, rows, where in (("delivery-factor", factors, land),
                              ("area", areas, area_land)):
        off = np.flatnonzero(where < 0)
        if off.size:
            warnings.warn(
                f"{off.size} {what} row(s) name no land segment of the "
                f"network, the first {rows.segment[off[0]]!r}; ignored",
                DataConsistencyWarning, stacklevel=2)

    # One group per (land segment, stage), stages fastest.
    n_stages = len(DF_STAGES)
    on_network = np.flatnonzero(land >= 0)
    sources = factors.load_source[on_network].tolist()
    group = land[on_network] * n_stages + np.array(
        [DF_STAGES.index(s) for s in factors.stage[on_network].tolist()],
        dtype=np.intp)
    acres = np.array([area_of.get(k, math.nan) for k in
                      zip(factors.segment[on_network].tolist(), sources)])
    factor = factors.factor[on_network]
    shared = ~np.isnan(acres)
    n_groups = len(land_ids) * n_stages
    n_factors = np.bincount(group, minlength=n_groups)
    total = np.bincount(group[shared], weights=acres[shared], minlength=n_groups)
    weighted = np.bincount(group[shared], weights=(factor * acres)[shared],
                           minlength=n_groups)
    n_shared = np.bincount(group[shared], minlength=n_groups)
    group_has_area = np.repeat(has_area, n_stages)
    unmatched = ~shared & group_has_area[group]
    stage_factor = np.ones(n_groups)
    ok = (n_factors > 0) & group_has_area & (total > 0)
    stage_factor[ok] = weighted[ok] / total[ok]

    problem = ~ok
    problem[group[unmatched]] = True
    for g in np.flatnonzero(problem).tolist():
        land_id, stage = land_ids[g // n_stages], DF_STAGES[g % n_stages]
        if not n_factors[g]:
            _missing(missing_policy,
                     f"land segment {land_id!r} has no {stage} delivery "
                     f"factors; rerun with the passthrough policy to default "
                     f"them to 1.0",
                     f"land segment {land_id!r}: missing {stage} delivery "
                     f"factor, defaulting to 1.0")
            continue
        if not group_has_area[g]:
            _missing(missing_policy,
                     f"land segment {land_id!r} has delivery factors but no "
                     f"load-source areas",
                     f"land segment {land_id!r}: no areas to weight {stage} "
                     f"factors, defaulting to 1.0")
            continue
        for i in np.flatnonzero(unmatched & (group == g)).tolist():
            warnings.warn(f"land segment {land_id!r} stage {stage}: load source "
                          f"{sources[i]!r} has a delivery factor but no area; "
                          f"skipped", DataConsistencyWarning, stacklevel=2)
        if not n_shared[g]:
            raise ValueError(f"land segment {land_id!r} stage {stage}: no load "
                             f"source has both a delivery factor and an area")
        if not ok[g]:
            zero = (f"land segment {land_id!r} stage {stage}: total area over "
                    f"shared load sources is zero")
            _missing(missing_policy, zero, f"{zero}; defaulting to 1.0")
    stage_factor = stage_factor.reshape(len(land_ids), n_stages)

    outlets = network.outlets.external_id
    land_outlet = network.land_outlet
    n_lands = np.bincount(land_outlet, minlength=len(outlets))
    outlet_rtb = np.ones(len(outlets))
    drained = n_lands > 0
    outlet_rtb[drained] = (np.bincount(land_outlet, weights=stage_factor[:, 2],
                                       minlength=len(outlets))[drained]
                           / n_lands[drained])
    for outlet in outlets[~drained].tolist():
        _missing(missing_policy,
                 f"outlet {outlet!r} has no contributing land "
                 f"segments to average a river-to-bay factor from",
                 f"outlet {outlet!r} has no contributing land "
                 f"segments; river-to-bay factor defaulted to 1.0")

    # The river-to-bay factor by buffer, 1 at an estuary, so an estuary link
    # keeps its upstream factor.
    rtb = np.concatenate([np.ones(len(land_ids)), outlet_rtb,
                          np.ones(len(network.estuaries))])
    up, down = rtb[network.link_from], rtb[network.link_to]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = up / down
    for i in np.flatnonzero((down == 0) | (ratio > 1.0)).tolist():
        segment = network.buffer_names[network.link_to[i]]
        if down[i] == 0:
            raise ValueError(f"downstream river-to-bay delivery factor is "
                             f"zero for segment {segment!r}")
        warnings.warn(f"inter-outlet delivery ratio {ratio[i]:.6g} > 1 at "
                      f"segment {segment!r}; retained unclamped",
                      DataConsistencyWarning, stacklevel=2)
    return DeliveryModel(stage_factor[:, 0] * stage_factor[:, 1], outlet_rtb,
                         ratio)


# ---------------------------------------------------------------------------
# Measurement-system assembly (one step; see expand_constraints)
# ---------------------------------------------------------------------------

def _members(keys: np.ndarray, n_groups: int) -> sp.csr_matrix:
    """The aggregation matrix whose row g has a 1 at every position keyed g:
    ``_members(keys, n)[groups].nonzero()`` lists (row, member) pairs, the
    members of group ``groups[row]`` in position order."""
    return sp.csr_matrix((np.ones(keys.size), (keys, np.arange(keys.size))),
                         shape=(n_groups, keys.size))


def _system(rows, cols, values, constant, family: int, operand, key,
            n_caps: int) -> MeasurementSystem:
    d = sp.csr_matrix((values, (rows, cols)), shape=(len(key), n_caps))
    return MeasurementSystem(d, np.array(constant, dtype=float),
                             np.full(len(key), family, dtype=np.intp),
                             np.array(operand, dtype=np.intp), tuple(key))


def _key_groups(*columns: np.ndarray) -> tuple[np.ndarray, list[tuple]]:
    """Each row's group by its values in ``columns``, and the group keys in
    order of first appearance."""
    codes: dict[tuple, int] = {}
    group = np.array([codes.setdefault(key, len(codes)) for key in
                      zip(*(column.tolist() for column in columns))], dtype=np.intp)
    return group, list(codes)


def _county_rows(records: np.recarray, columns: Sequence[str], network,
                 what: str):
    """Rows summing ``records.mass`` by ``columns`` and operand, the county
    first, each over its county's land segments.  A key whose county has
    none gives no row, only a note.  Keys come back without the operand,
    which comes back as codes."""
    group, keys = _key_groups(*(records[name] for name in columns),
                              records.operand)
    totals = np.bincount(group, weights=records.mass, minlength=len(keys))
    codes = network.county_code
    kept = [i for i, key in enumerate(keys) if key[0] in codes]
    skipped = [f"{what} record for county {key[0]!r} matches no land segment; "
               f"constraint skipped" for key in keys if key[0] not in codes]
    op = np.array([OPERAND_NAMES.index(keys[i][-1]) for i in kept], dtype=np.intp)
    keys = [keys[i][:-1] for i in kept]
    rows, lands = _members(network.land_county, len(codes))[
        np.array([codes[key[0]] for key in keys], dtype=np.intp)].nonzero()
    return keys, op, totals[kept], rows, lands, skipped


def assemble_accept_constraints(
    applied: np.recarray,
    network: "WatershedNetwork",
    capabilities: Capabilities,
) -> tuple[MeasurementSystem, list[str]]:
    """One row per (county, sector, operand) of an APPLIED table over that
    county's accepts, in order of first appearance.

    Returns the rows plus diagnostics for records naming counties with no
    land segments (skipped, not fatal).
    """
    keys, op, totals, rows, lands, skipped = _county_rows(
        applied, ("county", "sector"), network, "applied")
    sector = np.array([SECTORS.index(k[1]) for k in keys], dtype=np.intp)
    cols = capabilities.accept[lands, sector[rows], op[rows]]
    return _system(rows, cols, np.ones(cols.size), totals, ACCEPT, op, keys,
                   len(capabilities)), skipped


def _county_load_rows(loads: np.recarray, kind: str, family: int,
                      network: "WatershedNetwork", capabilities: Capabilities,
                      land_weight: np.ndarray) -> tuple[MeasurementSystem, list[str]]:
    """One row per (county, operand) of ``kind`` loads over the county's
    land-to-outlet transports, land segment i weighted ``land_weight[i]``."""
    keys, op, totals, rows, lands, skipped = _county_rows(
        loads[loads.kind == kind], ("county",), network, kind)
    cols = capabilities.land_transport[lands, op[rows]]
    return _system(rows, cols, land_weight[lands], totals, family, op, keys,
                   len(capabilities)), skipped


def assemble_eos_constraints(
    loads: np.recarray,
    network: "WatershedNetwork",
    capabilities: Capabilities,
) -> tuple[MeasurementSystem, list[str]]:
    """One row per (county, operand) of EoS loads over land-to-outlet
    transports."""
    return _county_load_rows(loads, "EoS", EOS, network, capabilities,
                             np.ones(len(network.land_segments)))


def assemble_stream_to_tide(
    loads: np.recarray,
    network: "WatershedNetwork",
    capabilities: Capabilities,
    delivery: DeliveryModel,
) -> tuple[MeasurementSystem, list[str]]:
    """One row per (county, operand) of StreamToTide loads: the county's
    land-to-outlet transports, each times its outlet's river-to-bay factor.

    These rows score the fit only; they never enter the estimation.
    """
    return _county_load_rows(loads, "StreamToTide", STREAM_TO_TIDE,
                             network, capabilities,
                             delivery.outlet_river_to_bay[network.land_outlet])


def assemble_eot_constraints(
    loads: np.recarray,
    network: "WatershedNetwork",
    capabilities: Capabilities,
) -> tuple[MeasurementSystem, list[str]]:
    """One row per operand: all estuary-bound river transports sum to the
    end-of-tide total, summed across reporting counties.  A record whose
    county has no land segment stays out of the total, with one note per
    county."""
    eot = loads[loads.kind == "EoT"]
    known = np.array([county in network.county_code
                      for county in eot.county.tolist()], dtype=bool)
    skipped = [f"EoT record for county {county!r} matches no land segment; "
               f"left out of the end-of-tide total"
               for county in dict.fromkeys(eot.county[~known].tolist())]
    eot = eot[known]
    group, keys = _key_groups(eot.operand)
    totals = np.bincount(group, weights=eot.mass, minlength=len(keys))
    op = np.array([OPERAND_NAMES.index(key[0]) for key in keys], dtype=np.intp)
    terminal = network.buffer_kinds[network.link_to] == "estuary"
    river = capabilities.river_transport[terminal]
    if not river.size:
        skipped += [f"EoT record for operand {key[0]!r} but the network has "
                    f"no estuary-bound river transport; constraint skipped"
                    for key in keys]
        op, totals = op[:0], totals[:0]
    cols = river.T[op].ravel()  # row o: operand o's estuary-bound transports
    return _system(np.repeat(np.arange(op.size), len(river)), cols,
                   np.ones(cols.size), totals, EOT, op,
                   [()] * op.size, len(capabilities)), skipped


def assemble_transport_relations(
    network: "WatershedNetwork",
    capabilities: Capabilities,
    delivery: DeliveryModel,
) -> MeasurementSystem:
    """One zero-constant row per transport, ``transport - ratio * inflow =
    error``, the inflow being every firing into the transport's origin place
    and the ratio its land segment's ``land_factor`` or its river link's
    ``link_ratio``.  Rows run land by land, then link by link, operands
    fastest."""
    n_ops = len(OPERAND_NAMES)
    transport = np.concatenate([capabilities.land_transport.ravel(),
                                capabilities.river_transport.ravel()])
    ratio = np.repeat(np.concatenate([delivery.land_factor,
                                      delivery.link_ratio]), n_ops)
    operand = capabilities.operand[transport]
    # Row p of ``inflow`` holds the firings into place p: M's positive part.
    inflow = _members(capabilities.destination * n_ops + capabilities.operand,
                      network.n_buffers * n_ops)
    rows, member = inflow[capabilities.origin[transport] * n_ops + operand].nonzero()
    keys = [(kind, name) for kind, names in (
                ("land", network.buffer_names[:len(network.land_segments)]),
                ("river", network.link_names))
            for name in names.tolist() for _ in OPERAND_NAMES]
    return _system(np.concatenate([np.arange(transport.size), rows]),
                   np.concatenate([transport, member]),
                   np.concatenate([np.ones(transport.size), -ratio[rows]]),
                   np.zeros(len(keys)), TRANSPORT, operand, keys,
                   len(capabilities))


def assemble_system(network: "WatershedNetwork", capabilities: Capabilities,
                    applied: Optional[np.recarray], loads: Optional[np.recarray],
                    delivery: Optional[DeliveryModel]) -> tuple[
                        MeasurementSystem, MeasurementSystem, list[str]]:
    """The one-step measurement system, the rows the fit report scores (the
    system and the report-only StreamToTide rows) and the skipped-record
    notes.  Blocks stack in ``FAMILIES`` order.  Without a delivery model
    the transport-relation and StreamToTide rows are left out; a missing
    applied or loads table gives no rows.  The system is the report rows'
    leading rows and shares their arrays, so neither may be mutated."""
    if applied is None:
        applied = table(APPLIED)
    if loads is None:
        loads = table(LOADS)
    blocks, skipped = [], []
    for block, notes in (
            assemble_accept_constraints(applied, network, capabilities),
            assemble_eos_constraints(loads, network, capabilities),
            assemble_eot_constraints(loads, network, capabilities)):
        blocks.append(block)
        skipped += notes
    if delivery is None:
        system = stack_systems(blocks)
        return system, system, skipped
    blocks.append(assemble_transport_relations(network, capabilities, delivery))
    stream, notes = assemble_stream_to_tide(loads, network, capabilities,
                                            delivery)
    # One copy of the rows: the system is the report rows' leading n, as views.
    n, fit_rows = sum(map(len, blocks)), stack_systems(blocks + [stream])
    d = fit_rows.d
    system = MeasurementSystem(
        sp.csr_matrix((d.data, d.indices, d.indptr[:n + 1]), shape=(n, d.shape[1])),
        fit_rows.constant[:n], fit_rows.family[:n], fit_rows.operand[:n],
        fit_rows.key[:n])
    return system, fit_rows, skipped + notes


def median(values: np.ndarray) -> float:
    """``np.median`` of a nonempty array, to the bit on finite values,
    without its NaN check, which executes numpy.ma.  Its mean adds from
    +0.0, so a lone -0.0 comes out as 0.0."""
    lo, hi = (values.size - 1) // 2, values.size // 2
    part = np.partition(values, [lo, hi])
    return float((0.0 + part[lo] + part[hi]) / 2 if lo < hi else 0.0 + part[hi])


def unit_squared(constant: np.ndarray) -> float:
    """The data's squared unit ``u0^2``: the median squared nonzero
    constant, floored at ``WEIGHT_FLOOR``."""
    data = constant[constant != 0]
    return max(median(data * data) if data.size else 0.0, WEIGHT_FLOOR)


def compute_weights(constant: np.ndarray) -> np.ndarray:
    """Row weights ``1 / max(c^2, max(2, phi u0^2))`` for the rows'
    constants ``c``: the floor grows with the data's unit, so a relation
    row (c = 0) weighs the same against the penalties in any unit."""
    floor = max(WEIGHT_FLOOR, WEIGHT_FLOOR_SHARE * unit_squared(constant))
    return 1.0 / np.maximum(constant * constant, floor)


def diagonal(values: np.ndarray) -> sp.csr_matrix:
    """``diag(values)`` from index arrays: scipy's ``dia`` constructors
    (``sp.diags``, ``sp.eye``, ``sp.identity``) execute numpy.ma."""
    n = values.size
    return sp.csr_matrix((values, np.arange(n), np.arange(n + 1)), shape=(n, n))


def expand_constraints(system: MeasurementSystem,
                       k_steps: int) -> MeasurementSystem:
    """Lift single-step rows onto a ``k_steps`` horizon (the paper's D_T).

    Data rows measure horizon totals and become ``kron(ones((1, K)),
    D_data)``; relation (transport) rows hold at every step and become
    ``kron(I_K, D_rel)``.  Rows keep their order, each relation row's K
    copies consecutive, and a copy's step is the block its columns lie in.
    With ``k_steps == 1`` the system passes through.
    """
    if k_steps < 1:
        raise ValueError("k_steps must be >= 1")
    if system.n_steps != 1:
        raise ValueError(f"system already spans {system.n_steps} steps")
    if k_steps == 1:
        return system
    relation = system.family == TRANSPORT
    data = np.flatnonzero(~relation)
    rel = np.flatnonzero(relation)
    d = sp.vstack([sp.kron(np.ones((1, k_steps)), system.d[data]),
                   sp.kron(diagonal(np.ones(k_steps)), system.d[rel])],
                  format="csr")
    src = np.concatenate([data, np.tile(rel, k_steps)])
    step = np.concatenate([np.zeros(data.size, dtype=np.intp),
                           np.repeat(np.arange(k_steps), rel.size)])
    reps = np.where(relation, k_steps, 1)
    start = np.cumsum(reps) - reps
    order = np.argsort(start[src] + step)
    src = src[order]
    return MeasurementSystem(
        d[order], system.constant[src], system.family[src], system.operand[src],
        tuple(system.key[r] for r in src.tolist()), k_steps)
