"""Invariance gates: an estimate must not depend on how its bundle is written.

Each relation turns a ``synth`` bundle into an equivalent one: (a) the rows
of every dataset file shuffled, (b) the records of every network group
shuffled, (c) every id renamed through a bijection (a permutation of the
names, then a prefix), (d) every applied and load record split into two rows
that sum to it, (f) every text field of the dataset files padded with
spaces and every sector and operand upper-cased.  (Relation (e), every mass
scaled by one factor, waits for stated row variances.)  ``estimate`` then
runs on both bundles, and what the data determine must agree to roundoff:

- per-segment counties: every flow by entity, at K=1 and as horizon totals
  at K=12, to 1e-10 relative;
- grouped counties: each accept, EoS and EoT row's prediction ``d @
  totals``, to 1e-10 relative (the flows themselves are not determined);
- ``fit_report.csv``'s applied, EoS and EoT values, to 1e-10 absolute.

Under (c), the skipped-record notes on stderr must name the same records.

The record order sets the factorization's pivot order, so what the data do
not determine (grouped flows, per-step splits) may move and is not gated.
"""

from __future__ import annotations

import csv
import json
import random
import re
import shutil

import numpy as np
import pytest

from basinflow import cli, measurement, report, topology

RELATIVE = 1e-10
ABSOLUTE = 1e-10

# (``synth`` arguments, horizon K, what the data determine)
CASES = {
    "per-segment-k1": (["--outlets", "120", "--seed", "7"], 1, "flows"),
    "per-segment-k12": (["--outlets", "40", "--seed", "7"], 12, "flows"),
    "grouped-k1": (["--outlets", "100", "--seed", "7", "--county-mode",
                    "grouped", "--land-per-outlet", "2", "4"], 1,
                   "predictions"),
}
# The network file's groups, and the dataset columns that hold ids.
NETWORK_GROUPS = ("land_segments", "outlets", "river_links", "estuaries")
ID_COLUMNS = ("county", "segment", "load_source")


def _csv_files(bundle):
    return [bundle / f"{family}.csv" for family in cli.DATASET_FAMILIES]


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _write_csv(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def shuffle_datasets(bundle, rng):
    """(a) Shuffle the rows of each dataset file."""
    for path in _csv_files(bundle):
        header, *rows = _read_csv(path)
        rng.shuffle(rows)
        _write_csv(path, [header, *rows])
    return {}


def shuffle_network(bundle, rng):
    """(b) Shuffle the records of each network group."""
    path = bundle / "network.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    for group in NETWORK_GROUPS:
        rng.shuffle(doc[group])
    path.write_text(json.dumps(doc), encoding="utf-8")
    return {}


def rename_ids(bundle, rng):
    """(c) Rename every id, in the network file and the datasets, through
    one bijection; returns the map from new names back to old."""
    path = bundle / "network.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    tables = {p: _read_csv(p) for p in _csv_files(bundle)}
    names = set()
    for group in NETWORK_GROUPS:
        for record in doc[group]:
            names.update(value for key, value in record.items()
                         if isinstance(value, str))
            names.update(record.get("load_source_areas", {}))
    for header, *rows in tables.values():
        for i, column in enumerate(header):
            if column in ID_COLUMNS:
                names.update(row[i] for row in rows)
    old = sorted(names)
    new = [f"id-{name}" for name in old]
    rng.shuffle(new)
    rename = dict(zip(old, new))

    for group in NETWORK_GROUPS:
        for record in doc[group]:
            for key, value in record.items():
                if isinstance(value, str):
                    record[key] = rename[value]
            if "load_source_areas" in record:
                record["load_source_areas"] = {
                    rename[source]: acres for source, acres in
                    record["load_source_areas"].items()}
    path.write_text(json.dumps(doc), encoding="utf-8")
    for path, (header, *rows) in tables.items():
        ids = [i for i, column in enumerate(header) if column in ID_COLUMNS]
        for row in rows:
            for i in ids:
                row[i] = rename[row[i]]
        _write_csv(path, [header, *rows])
    return {value: key for key, value in rename.items()}


def split_records(bundle, rng):
    """(d) Split each applied and load record of mass m into two rows, x and
    m - x with x = m * r for a random r in [0, 1)."""
    for family in ("applied", "loads"):
        path = bundle / f"{family}.csv"
        header, *rows = _read_csv(path)
        mass = header.index("mass")
        split = []
        for row in rows:
            m = float(row[mass])
            x = m * rng.random()
            split += [[*row[:mass], repr(part), *row[mass + 1:]]
                      for part in (x, m - x)]
        _write_csv(path, [header, *split])
    return {}


def respell_text(bundle, rng):
    """(f) Pad every text field of the dataset files with up to two spaces on
    each side, and upper-case the sector and operand values; ids, kinds and
    stages are case-sensitive, so they are only padded."""
    for family in cli.DATASET_FAMILIES:
        path = bundle / f"{family}.csv"
        dtype = getattr(measurement, family.upper())
        header, *rows = _read_csv(path)
        text = [header.index(name) for name in dtype.names
                if dtype[name] == object]
        for row in rows:
            for i in text:
                value = (row[i].upper() if header[i] in ("sector", "operand")
                         else row[i])
                row[i] = " " * rng.randint(0, 2) + value + " " * rng.randint(0, 2)
        _write_csv(path, [header, *rows])
    return {}


RELATIONS = {"shuffle_datasets": shuffle_datasets,
             "shuffle_network": shuffle_network, "rename_ids": rename_ids,
             "split_records": split_records, "respell_text": respell_text}


def estimate(bundle, k_steps, names, determined):
    """``estimate`` on ``bundle``: its ``fit_report.csv`` values by (data
    type, operand, metric), and what its data determine: its flows by
    (kind, entity, operand) as ``solution.csv`` names them, or each accept,
    EoS and EoT row's prediction by label; every id is mapped back through
    ``names``."""
    out = bundle / "results"
    assert cli.main(["estimate", "--config", str(bundle / "config.json"),
                     "--k-steps", str(k_steps), "--output-dir", str(out)]) == 0

    def original(text):
        return "->".join(names.get(part, part) for part in text.split("->"))

    flows = report.flows_from_tabular(
        report.import_tabular(out / "solution.csv"))
    fit = {tuple(row[:3]): float(row[3])
           for row in _read_csv(out / "fit_report.csv")[1:]}
    if determined == "flows":
        return fit, {(kind, original(entity), operand): value
                     for (kind, entity, operand), value in flows.items()}

    network = topology.load_network(bundle / "network.json")
    applied, loads, factors, areas = (
        getattr(measurement, f"read_{family}")(bundle / f"{family}.csv")
        for family in cli.DATASET_FAMILIES)
    capabilities = topology.instantiate_capabilities(network)
    system, _, _ = measurement.assemble_system(
        network, capabilities, applied, loads,
        measurement.compute_delivery_model(network, factors, areas))
    totals = report.flow_totals(flows, capabilities, network)
    data = np.flatnonzero(np.isin(system.family, [
        measurement.ACCEPT, measurement.EOS, measurement.EOT]))
    return fit, dict(zip(
        ("/".join(map(original, label.split("/")))
         for label in measurement.row_labels(system, data)),
        (system.d @ totals)[data].tolist()))


@pytest.fixture(scope="module", params=list(CASES))
def case(request, tmp_path_factory):
    """A bundle, its horizon, what its data determine, and its estimate."""
    args, k_steps, determined = CASES[request.param]
    bundle = tmp_path_factory.mktemp(request.param) / "bundle"
    assert cli.main(["synth", *args, "--out", str(bundle)]) == 0
    return bundle, k_steps, determined, estimate(bundle, k_steps, {},
                                                 determined)


def assert_relative(got: dict, want: dict, bound: float):
    assert got.keys() == want.keys()
    keys = list(want)
    a = np.array([got[key] for key in keys])
    b = np.array([want[key] for key in keys])
    worst = np.abs(a - b) / np.abs(b)
    assert worst.max() <= bound, keys[int(worst.argmax())]


@pytest.mark.parametrize("relation", list(RELATIONS))
def test_estimate_is_invariant(case, relation, tmp_path):
    bundle, k_steps, determined, (fit, values) = case
    changed = tmp_path / "bundle"
    shutil.copytree(bundle, changed, ignore=shutil.ignore_patterns("results"))
    names = RELATIONS[relation](changed, random.Random(11))
    got_fit, got_values = estimate(changed, k_steps, names, determined)

    assert_relative(got_values, values, RELATIVE)
    data_types = ("applied", "eos", "eot")
    assert got_fit.keys() == fit.keys()
    for key, value in fit.items():
        if key[0] in data_types:
            assert abs(got_fit[key] - value) <= ABSOLUTE, key


def test_skipped_notes_name_the_same_records_after_renaming(tmp_path, capsys):
    # an applied record for a county with no land segment is skipped with a
    # note; after (c) the note names the renamed county, which maps back
    bundle = tmp_path / "bundle"
    assert cli.main(["synth", "--outlets", "30", "--seed", "7",
                     "--out", str(bundle)]) == 0
    with open(bundle / "applied.csv", "a", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(["county-nowhere", "agricultural", "nitrogen",
                                 "5.0"])
    renamed = tmp_path / "renamed"
    shutil.copytree(bundle, renamed, ignore=shutil.ignore_patterns("results"))
    names = rename_ids(renamed, random.Random(11))

    def notes(bundle, names):
        capsys.readouterr()
        assert cli.main(["estimate", "--config", str(bundle / "config.json"),
                         "--output-dir", str(bundle / "results")]) == 0
        return sorted(re.sub(r"'([^']*)'", lambda m: repr(names.get(
            m[1], m[1])), line) for line in capsys.readouterr().err.splitlines())

    want = notes(bundle, {})
    assert ("warning: applied record for county 'county-nowhere' matches no "
            "land segment; constraint skipped") in want
    assert notes(renamed, names) == want
