import csv
import gc
import hashlib
import io
import json
import shutil
import weakref
from pathlib import Path

import numpy as np
import pytest

import basinflow as bf
from basinflow import cli
from basinflow import estimator as est
from basinflow import measurement
from basinflow import report as rp
from basinflow.cli import DATASET_FAMILIES, main
from basinflow.core_net import OPERAND_NAMES
from basinflow.measurement import FAMILIES

from pipeline_util import (
    assemble_bundle,
    dense_oracle_solve,
    fit_report,
    fresh_python,
)


def run(argv):
    return main(argv)


def bundle_copy(synth_dir, tmp_path):
    """A copy of the bundle in ``synth_dir`` without its results."""
    bundle = tmp_path / "bundle"
    shutil.copytree(synth_dir, bundle, ignore=shutil.ignore_patterns("results"))
    return bundle


def drop_first_land_factors(bundle) -> str:
    """Delete the first land segment's rows from the bundle's
    delivery_factors.csv; returns the segment."""
    header, *rows = (bundle / "delivery_factors.csv").read_text().splitlines(
        keepends=True)
    segment = rows[0].split(",")[0]
    (bundle / "delivery_factors.csv").write_text("".join(
        [header] + [row for row in rows if row.split(",")[0] != segment]))
    return segment


NOWHERE_APPLIED = "nowhere,agricultural,nitrogen,5.0\n"
NOWHERE_WARNING = ("warning: applied record for county 'nowhere' matches no "
                   "land segment; constraint skipped\n")


# sha256 of every file ``synth`` writes, pinned so that a change to the
# generator or the dataset writers that moves one byte fails here.
BUNDLE_DIGESTS = {
    ("--outlets", "30", "--seed", "7"): {
        "applied.csv": "f5c10916ebd5495d0a33296d9f76e0b74006aef02af4ee6edd35c43c30feb79d",
        "areas.csv": "9d8e0a614650bf81b78124e7c99f8ca0d4600ea82d37e894c490233d0116dfd8",
        "config.json": "61bdcf9de3b1a117c5b50f4bc6c6e4c5b34e148a1f12dda36fa61f1f567efe8e",
        "delivery_factors.csv": "9e1e69b82f6ffb1745a1ba45305cd8c252bda7341181c2b30490f32c04bda323",
        "ground_truth.csv": "1e97e0fb4897d4aa029d4c986fe7cdd7766d0adabba2f23a0eaa96ec19313e0f",
        "loads.csv": "52714319f60590b8d096905ee1573fe83ad54bfd7c4ade75e5196de035989840",
        "network.json": "8a4774b11da38402813bf711000bda70f024eb54780861601e6eaab5b891d643",
    },
    ("--outlets", "30", "--seed", "7", "--county-mode", "grouped",
     "--land-per-outlet", "2", "4"): {
        "applied.csv": "c207e8f483717e62acdc98fdf5670d12a856eb6f4093f3d61df1f03e73a36e0e",
        "areas.csv": "96b06eb9b88329646947e03b6a5c13bd3cb984f94838125282b34c5c4270376f",
        "config.json": "61bdcf9de3b1a117c5b50f4bc6c6e4c5b34e148a1f12dda36fa61f1f567efe8e",
        "delivery_factors.csv": "c266f7527e43dc5d0d12e6279f50d433ca1bfa22355bb563ade82087e81c746b",
        "ground_truth.csv": "29031b15b7240899978f1bb9fcf296f746fdb1087bdd0e6fe1dd575f27730b33",
        "loads.csv": "573de8224da6a6bd2e9c70f37f2deaea44b4571f7769a98fa946d51ca8329db4",
        "network.json": "dc6586c05faeeb5b1e7fc9f74d9a0ab1fbe46ab62e2bb70c5f7651237a545ba9",
    },
}


# sha256 of the text columns of the tables ``estimate`` writes for the
# ``--outlets 30 --seed 7`` bundle, by horizon, and of the same text in
# ``solution.geojson``: each feature's text properties and geometry type, in
# order.  They pin every row label and the row order without depending on
# the last bits of any float.
TEXT_COLUMNS = {
    "solution.csv": ("entity_id", "entity_kind", "operand", "quantity_kind"),
    "fit_report.csv": ("data_type", "operand", "metric", "note"),
}
LABEL_DIGESTS = {
    1: {"solution.csv": "2fe1d19e4e164aceac74b65677bcb2d905eb0d25ef55757a7c131b42b672b293",
        "fit_report.csv": "04dff137c8e429119b02620ee63bb9aed447cc01ea2fdb456cdd3fe58cdfb007",
        "solution.geojson": "7b19bdf293324201d0bcadce273084c5b5cff9c7648553470b13a49c2aac1f96"},
    3: {"solution.csv": "10e68e603a7d4a15f7735d79d7321764a6a9ae153c2375297b641e3752ccb822",
        "fit_report.csv": "04dff137c8e429119b02620ee63bb9aed447cc01ea2fdb456cdd3fe58cdfb007",
        "solution.geojson": "7b19bdf293324201d0bcadce273084c5b5cff9c7648553470b13a49c2aac1f96"},
}


def csv_digest(rows):
    """sha256 of ``rows`` written as CSV."""
    buffer = io.StringIO()
    csv.writer(buffer).writerows(rows)
    return hashlib.sha256(buffer.getvalue().encode()).hexdigest()


def text_digest(path, names):
    """sha256 of the ``names`` columns of a CSV file, rewritten as CSV."""
    with open(path, encoding="utf-8", newline="") as fh:
        return csv_digest([[row[name] for name in names]
                           for row in csv.DictReader(fh)])


def geo_text_digest(path):
    """sha256 of the text properties ``solution.csv`` has as columns and the
    geometry type ("" for null geometry) of each feature of a GeoJSON file,
    rewritten as CSV."""
    names = TEXT_COLUMNS["solution.csv"]
    features = json.loads(Path(path).read_text(encoding="utf-8"))["features"]
    return csv_digest([[feature["properties"][name] for name in names]
                       + [(feature["geometry"] or {}).get("type", "")]
                       for feature in features])


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundle")
    assert run(["synth", "--outlets", "6", "--branching", "2",
                "--seed", "42", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def synth30_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundle30")
    assert run(["synth", "--outlets", "30", "--seed", "7",
                "--out", str(out)]) == 0
    return out


class TestSynth:
    def test_bundle_files(self, synth_dir):
        for name in ("network.json", "applied.csv", "loads.csv",
                     "delivery_factors.csv", "areas.csv", "ground_truth.csv",
                     "config.json"):
            assert (synth_dir / name).exists()

    def test_byte_identical_regeneration(self, synth_dir, tmp_path):
        again = tmp_path / "again"
        assert run(["synth", "--outlets", "6", "--branching", "2",
                    "--seed", "42", "--out", str(again)]) == 0
        for name in ("network.json", "applied.csv", "loads.csv",
                     "delivery_factors.csv", "areas.csv", "ground_truth.csv"):
            assert (again / name).read_bytes() == (synth_dir / name).read_bytes()

    @pytest.mark.parametrize("args", list(BUNDLE_DIGESTS),
                             ids=["per-segment", "grouped"])
    def test_pinned_bundle_digests(self, tmp_path, args):
        assert run(["synth", *args, "--out", str(tmp_path)]) == 0
        want = BUNDLE_DIGESTS[args]
        got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in want}
        assert got == want
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(want)

    def test_validate_accepts_bundle(self, synth_dir):
        assert run(["validate", "--config", str(synth_dir / "config.json")]) == 0

    def test_validate_accepts_byte_order_mark(self, synth_dir, tmp_path):
        # spreadsheet programs save "CSV UTF-8" with a leading BOM
        applied = tmp_path / "applied.csv"
        applied.write_bytes(b"\xef\xbb\xbf" + (synth_dir / "applied.csv").read_bytes())
        assert run(["validate", "--config", str(synth_dir / "config.json"),
                    "--applied", str(applied)]) == 0

    @pytest.mark.parametrize("name", ["network.json", "config.json"])
    def test_validate_accepts_json_byte_order_mark(self, synth_dir, tmp_path,
                                                   name):
        bundle = tmp_path / "bundle"
        shutil.copytree(synth_dir, bundle)
        path = bundle / name
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert run(["validate", "--config", str(bundle / "config.json")]) == 0

    def test_chain_equivalent_single_outlet(self, tmp_path):
        out = tmp_path / "one"
        assert run(["synth", "--outlets", "1", "--branching", "1",
                    "--seed", "1", "--out", str(out)]) == 0
        doc = json.loads((out / "network.json").read_text())
        assert len(doc["outlets"]) == 1
        assert doc["river_links"][0]["to_node"] == "bay"

    def test_large_bundle_validates(self, tmp_path):
        out = tmp_path / "big"
        assert run(["synth", "--outlets", "300", "--branching", "3",
                    "--seed", "7", "--out", str(out)]) == 0
        assert run(["validate", "--config", str(out / "config.json")]) == 0


class TestEstimate:
    @pytest.mark.parametrize("k_steps", sorted(LABEL_DIGESTS))
    def test_pinned_label_digests(self, tmp_path, k_steps):
        bundle = tmp_path / "bundle"
        assert run(["synth", "--outlets", "30", "--seed", "7",
                    "--out", str(bundle)]) == 0
        out = tmp_path / "results"
        assert run(["estimate", "--config", str(bundle / "config.json"),
                    "--k-steps", str(k_steps), "--output-dir", str(out)]) == 0
        got = {name: text_digest(out / name, columns)
               for name, columns in TEXT_COLUMNS.items()}
        got["solution.geojson"] = geo_text_digest(out / "solution.geojson")
        assert got == LABEL_DIGESTS[k_steps]

    def test_full_pipeline(self, synth_dir):
        code = run(["estimate", "--config", str(synth_dir / "config.json")])
        assert code == 0
        results = synth_dir / "results"
        for name in ("solution.csv", "solution.geojson", "residuals.json",
                     "fit_report.csv", "run_summary.json", "timings.json"):
            assert (results / name).exists()
        summary = json.loads((results / "run_summary.json").read_text())
        assert summary["solution"]["converged"]
        assert summary["config"]["alpha"] == 1e-10
        assert summary["config"]["beta"] == 1e-12

    def test_flows_match_ground_truth_and_oracle(self, synth_dir):
        results = synth_dir / "results"
        if not (results / "solution.csv").exists():
            assert run(["estimate", "--config",
                        str(synth_dir / "config.json")]) == 0
        estimated = rp.flows_from_tabular(
            rp.import_tabular(results / "solution.csv"))
        truth = rp.flows_from_tabular(
            rp.import_tabular(synth_dir / "ground_truth.csv"))
        assert set(estimated) == set(truth)
        for key, value in truth.items():
            assert estimated[key] == pytest.approx(value, rel=1e-4)

        # independent dense re-solve of the same inputs
        net, gt, ds = bf.generate_synthetic(6, branching=2, seed=42)
        _, _, _, _, _, problem = assemble_bundle(6, branching=2, seed=42)
        dense = dense_oracle_solve(problem)
        for cap in gt.capabilities:
            kind, entity = rp.capability_entity(cap, net)
            key = (kind, entity, cap.capability_class.operand_name)
            assert estimated[key] == pytest.approx(
                dense.u[0][cap.id], rel=1e-6, abs=1e-9)

    def test_deterministic_artifacts(self, synth_dir, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            assert run(["estimate", "--config", str(synth_dir / "config.json"),
                        "--output-dir", str(out)]) == 0
        for name in ("solution.csv", "solution.geojson", "residuals.json",
                     "fit_report.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        summary = json.loads((out_a / "run_summary.json").read_text())
        assert sorted(summary["solver"]) == [
            "fill_ratio", "kkt_nnz", "lu_nnz", "ordering",
            "refinement_residuals", "refinement_rounds", "suspect_rows", "u0"]
        assert not set(summary["solver"]) & set(summary["solution"])

    def test_eot_county_outside_network(self, synth_dir, tmp_path):
        # an EoT record whose county has no land segment stays out of the
        # end-of-tide total, with a note; report scores the same rows
        bundle = tmp_path / "bundle"
        shutil.copytree(synth_dir, bundle,
                        ignore=shutil.ignore_patterns("results"))
        with open(bundle / "loads.csv", "a", encoding="utf-8") as fh:
            fh.write("nowhere,nitrogen,EoT,1000.0\n")
        assert run(["estimate", "--config", str(bundle / "config.json")]) == 0
        results = bundle / "results"
        summary = json.loads((results / "run_summary.json").read_text())
        assert summary["skipped_records"] == [
            "EoT record for county 'nowhere' matches no land segment; "
            "left out of the end-of-tide total"]
        with open(results / "fit_report.csv", encoding="utf-8") as fh:
            [eot] = [row for row in csv.DictReader(fh)
                     if (row["data_type"], row["operand"]) == ("eot", "nitrogen")]
        assert float(eot["value"]) <= 1e-6
        assert run(["report", "--solution", str(results / "solution.csv"),
                    "--config", str(bundle / "config.json"),
                    "--output-dir", str(tmp_path / "rep")]) == 0
        assert (tmp_path / "rep" / "fit_report.csv").read_bytes() == \
            (results / "fit_report.csv").read_bytes()

    def test_single_operand_datasets(self, synth_dir, tmp_path):
        # applied and loads hold only nitrogen: estimate and report both
        # succeed and score no phosphorus data rows
        bundle = tmp_path / "bundle"
        shutil.copytree(synth_dir, bundle,
                        ignore=shutil.ignore_patterns("results"))
        for name in ("applied.csv", "loads.csv"):
            header, *rows = (bundle / name).read_text().splitlines(keepends=True)
            (bundle / name).write_text("".join(
                [header] + [row for row in rows if ",nitrogen," in row]))
        assert run(["estimate", "--config", str(bundle / "config.json")]) == 0
        results = bundle / "results"
        lines = (results / "fit_report.csv").read_text().splitlines()[1:]
        operands = {line.split(",")[1] for line in lines}
        assert "nitrogen" in operands and "phosphorus" not in operands
        assert run(["report", "--solution", str(results / "solution.csv"),
                    "--config", str(bundle / "config.json"),
                    "--output-dir", str(tmp_path / "rep")]) == 0
        assert (tmp_path / "rep" / "fit_report.csv").read_bytes() == \
            (results / "fit_report.csv").read_bytes()

    def test_requires_delivery_factors(self, synth_dir, capsys):
        code = run(["estimate", "--network", str(synth_dir / "network.json"),
                    "--applied", str(synth_dir / "applied.csv")])
        assert code == 1
        assert "delivery_factors" in capsys.readouterr().err

    def test_solver_failure_exits_2(self, synth_dir, tmp_path, capsys,
                                    monkeypatch):
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("KKT system is singular")

        monkeypatch.setattr(est, "solve", singular)
        code = run(["estimate", "--config", str(synth_dir / "config.json"),
                    "--output-dir", str(tmp_path / "res")])
        assert code == 2
        assert "solver error: KKT system is singular" in capsys.readouterr().err

    def test_unreachable_tolerance_exits_2(self, synth30_dir, tmp_path,
                                          capsys):
        # the refinement rounds run out, and estimate still writes its
        # results before it reports the failure
        out = tmp_path / "res"
        code = run(["estimate", "--config", str(synth30_dir / "config.json"),
                    "--tol", "1e-300", "--output-dir", str(out)])
        assert code == 2
        assert "solver did not reach tolerance" in capsys.readouterr().err
        summary = json.loads((out / "run_summary.json").read_text())
        assert summary["solution"]["converged"] is False
        assert summary["solver"]["refinement_rounds"] == \
            est.MAX_REFINEMENT_ROUNDS
        assert len(summary["solver"]["refinement_residuals"]) == \
            est.MAX_REFINEMENT_ROUNDS + 1

    def test_non_finite_datum_names_file_and_line(self, synth_dir, tmp_path,
                                                  capsys):
        applied = tmp_path / "applied.csv"
        lines = (synth_dir / "applied.csv").read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0] + ",nan"
        applied.write_text("\n".join(lines) + "\n")
        code = run(["estimate", "--config", str(synth_dir / "config.json"),
                    "--applied", str(applied),
                    "--output-dir", str(tmp_path / "res")])
        assert code == 1
        assert f"{applied} line 4: 'nan' is not a finite number" in \
            capsys.readouterr().err


class TestValidateFailures:
    def test_cycle_listed(self, tmp_path, capsys):
        doc = {
            "schema": 1,
            "land_segments": [],
            "outlets": [{"external_id": f"o{i}", "river_segment_id": f"s{i}"}
                        for i in (1, 2, 3)],
            "river_links": [{"from_outlet": "o1", "to_node": "o2"},
                            {"from_outlet": "o2", "to_node": "o3"},
                            {"from_outlet": "o3", "to_node": "o1"}],
            "estuaries": [{"external_id": "bay"}],
        }
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc))
        assert run(["validate", "--network", str(path)]) == 1
        assert "cycle" in capsys.readouterr().out

    def test_missing_column_named(self, synth_dir, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("county,sector,mass\nalpha,agricultural,5\n")
        code = run(["validate", "--network", str(synth_dir / "network.json"),
                    "--applied", str(bad)])
        assert code == 1
        assert "operand" in capsys.readouterr().err

    def test_missing_delivery_factors_fail_as_in_estimate(
            self, synth_dir, tmp_path, capsys):
        # routing is clean, but estimate would reject the delivery factors
        bundle = bundle_copy(synth_dir, tmp_path)
        segment = drop_first_land_factors(bundle)
        message = f"land segment {segment!r} has no landToWater delivery factors"
        assert run(["validate", "--config", str(bundle / "config.json")]) == 1
        captured = capsys.readouterr()
        assert "routing: ok" in captured.out
        assert message in captured.err
        assert run(["estimate", "--config", str(bundle / "config.json")]) == 1
        assert message in capsys.readouterr().err

    def test_missing_delivery_factors_pass_under_passthrough(
            self, synth_dir, tmp_path, capsys):
        bundle = bundle_copy(synth_dir, tmp_path)
        segment = drop_first_land_factors(bundle)
        with pytest.warns(bf.measurement.DataConsistencyWarning,
                          match=f"land segment {segment!r}: missing"):
            assert run(["validate", "--config", str(bundle / "config.json"),
                        "--missing-df-policy", "passthrough"]) == 0

    def test_skipped_records_warned(self, synth_dir, tmp_path, capsys):
        bundle = bundle_copy(synth_dir, tmp_path)
        with open(bundle / "applied.csv", "a", encoding="utf-8") as fh:
            fh.write(NOWHERE_APPLIED)
        assert run(["validate", "--config", str(bundle / "config.json")]) == 0
        assert capsys.readouterr().err == NOWHERE_WARNING

    def test_unmatched_areas_warn_per_segment(self, synth30_dir, tmp_path):
        # Python prints a warning text once, so each warning must name its
        # own land segment and stage for every dropped area to show
        bundle = bundle_copy(synth30_dir, tmp_path)
        header, *rows = (bundle / "areas.csv").read_text().splitlines(
            keepends=True)
        dropped = [row.split(",")[:2] for row in rows
                   if row.split(",")[1] == "developed_low"][:2]
        dropped += [row.split(",")[:2] for row in rows
                    if row.split(",")[1] == "developed_high"][:1]
        (bundle / "areas.csv").write_text("".join(
            [header] + [row for row in rows if row.split(",")[:2] not in dropped]))
        result = fresh_python("-m", "basinflow.cli", "validate", "--config",
                              str(bundle / "config.json"))
        assert result.returncode == 0
        for segment, source in dropped:
            for stage in measurement.DF_STAGES:
                assert (f"land segment {segment!r} stage {stage}: load source "
                        f"{source!r} has a delivery factor but no area; "
                        f"skipped") in result.stderr

    def test_bad_config_key(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"network": "net.json", "k_step": 2}))
        assert run(["estimate", "--config", str(config)]) == 1
        assert "k_step" in capsys.readouterr().err

    def test_non_string_dataset_path(self, synth_dir, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"network": str(synth_dir / "network.json"),
                                      "datasets": {"applied": 5}}))
        assert run(["estimate", "--config", str(config)]) == 1
        assert "'datasets' entry 'applied' must be a path string, got int" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("source", ["config", "flag"])
    @pytest.mark.parametrize("key, value", [
        ("alpha", "nan"), ("alpha", "inf"), ("beta", "inf"), ("beta", "0"),
        ("dt_years", "nan"), ("dt_years", "-inf"), ("tol", "-1"),
        ("tol", "nan")])
    def test_numeric_setting_must_be_finite_and_positive(
            self, synth_dir, tmp_path, capsys, source, key, value):
        out = tmp_path / "res"
        argv = ["estimate", "--output-dir", str(out)]
        if source == "config":
            config = tmp_path / "config.json"
            config.write_text(json.dumps({
                "network": str(synth_dir / "network.json"),
                "datasets": {"delivery_factors":
                             str(synth_dir / "delivery_factors.csv")},
                key: float(value)}))
            argv += ["--config", str(config)]
        else:
            argv += ["--config", str(synth_dir / "config.json"),
                     f"--{key.replace('_', '-')}={value}"]
        assert run(argv) == 1
        assert f"{key} must be a finite number > 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value, want", [
        ("alpha", True, "float"), ("tol", False, "float"),
        ("k_steps", True, "int")])
    def test_boolean_setting_rejected(self, synth_dir, tmp_path, capsys,
                                      key, value, want):
        # bool is an int to Python, but no setting is a JSON boolean
        out = tmp_path / "res"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "network": str(synth_dir / "network.json"),
            "datasets": {"delivery_factors":
                         str(synth_dir / "delivery_factors.csv")},
            key: value}))
        assert run(["estimate", "--config", str(config),
                    "--output-dir", str(out)]) == 1
        assert f"config key {key!r} must be {want}, got bool" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [
        ("load_source_areas", {"row_crops": 10 ** 400}),
        ("coordinates", [10 ** 400, 1])])
    def test_number_beyond_float_range(self, synth_dir, tmp_path, capsys,
                                       field, value):
        doc = json.loads((synth_dir / "network.json").read_text())
        doc["land_segments"][0][field] = value
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc))
        assert run(["validate", "--network", str(path)]) == 1
        assert "land_segments[0]: " in capsys.readouterr().err

    def test_missing_network_file(self, tmp_path):
        assert run(["validate", "--network",
                    str(tmp_path / "nothing.json")]) == 3


@pytest.mark.parametrize("command", ["validate", "estimate", "report"])
class TestEveryCommandChecksTheBundle:
    """The three commands read, check and assemble a bundle the same way, so
    each accepts and rejects the same inputs."""

    @staticmethod
    def run_on(command, bundle, tmp_path):
        argv = [command, "--config", str(bundle / "config.json"),
                "--output-dir", str(tmp_path / "out")]
        if command == "report":
            argv += ["--solution", str(bundle / "ground_truth.csv")]
        return run(argv)

    def test_orphan_outlet(self, synth30_dir, tmp_path, capsys, command):
        bundle = bundle_copy(synth30_dir, tmp_path)
        doc = json.loads((bundle / "network.json").read_text())
        orphan = doc["river_links"].pop(0)["from_outlet"]
        (bundle / "network.json").write_text(json.dumps(doc))
        assert self.run_on(command, bundle, tmp_path) == 1
        captured = capsys.readouterr()
        assert (f"[orphan_outlet] {orphan}: outlet has no downstream river "
                f"link") in captured.out + captured.err
        assert not (tmp_path / "out" / "fit_report.csv").exists()

    def test_missing_delivery_factors(self, synth30_dir, tmp_path, capsys,
                                      command):
        bundle = bundle_copy(synth30_dir, tmp_path)
        segment = drop_first_land_factors(bundle)
        assert self.run_on(command, bundle, tmp_path) == 1
        assert (f"land segment {segment!r} has no landToWater delivery "
                f"factors") in capsys.readouterr().err

    def test_unknown_operand(self, synth30_dir, tmp_path, capsys, command):
        bundle = bundle_copy(synth30_dir, tmp_path)
        applied = bundle / "applied.csv"
        with open(applied, "a", encoding="utf-8") as fh:
            fh.write("alpha,developed,Oxygen,5\n")
        line = len(applied.read_text().splitlines())
        assert self.run_on(command, bundle, tmp_path) == 1
        assert f"{applied} line {line}: unknown operand 'Oxygen'" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("factors", [True, False],
                             ids=["with_factors", "without_factors"])
    def test_stray_county_warned(self, synth30_dir, tmp_path, capsys,
                                 command, factors):
        # the rows are built whether or not a delivery model can be
        bundle = bundle_copy(synth30_dir, tmp_path)
        with open(bundle / "applied.csv", "a", encoding="utf-8") as fh:
            fh.write(NOWHERE_APPLIED)
        if not factors:
            config = json.loads((bundle / "config.json").read_text())
            del config["datasets"]["delivery_factors"]
            (bundle / "config.json").write_text(json.dumps(config))
            if command == "estimate":
                assert self.run_on(command, bundle, tmp_path) == 1
                assert "estimation requires a delivery_factors dataset" in \
                    capsys.readouterr().err
                return
        assert self.run_on(command, bundle, tmp_path) == 0
        assert capsys.readouterr().err == NOWHERE_WARNING

    def test_data_consistency_warnings_printed_as_notes(
            self, synth30_dir, tmp_path, command):
        # the delivery model's warnings read like the skipped-record notes,
        # in a child process, where Python rather than pytest prints them
        bundle = bundle_copy(synth30_dir, tmp_path)
        header, *rows = (bundle / "areas.csv").read_text().splitlines(
            keepends=True)
        first = next(i for i, row in enumerate(rows)
                     if row.split(",")[1] == "developed_low")
        segment = rows.pop(first).split(",")[0]
        (bundle / "areas.csv").write_text("".join([header] + rows))
        argv = [command, "--config", str(bundle / "config.json"),
                "--output-dir", str(tmp_path / "out")]
        if command == "report":
            argv += ["--solution", str(bundle / "ground_truth.csv")]
        result = fresh_python("-m", "basinflow.cli", *argv)
        assert result.returncode == 0
        assert result.stderr == "".join(
            f"warning: land segment {segment!r} stage {stage}: load source "
            f"'developed_low' has a delivery factor but no area; skipped\n"
            for stage in measurement.DF_STAGES)


class TestCollectorPause:
    """``main`` pauses the cyclic collector for the length of one command
    and leaves it as it found it, however the command ends."""

    @pytest.fixture(params=[True, False], ids=["collector_on", "collector_off"])
    def collecting(self, request):
        found = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if found else gc.disable)()

    def test_paused_during_command(self, synth_dir, monkeypatch, collecting):
        seen = []
        validate = cli.cmd_validate

        def spy(config):
            seen.append(gc.isenabled())
            return validate(config)

        monkeypatch.setattr(cli, "cmd_validate", spy)
        assert run(["validate", "--config", str(synth_dir / "config.json")]) == 0
        assert seen == [False]
        assert gc.isenabled() is collecting

    @pytest.mark.parametrize("case", [
        "ok", "configuration", "solver", "io", "usage", "help"])
    def test_restored_on_exit(self, synth_dir, tmp_path, monkeypatch, capsys,
                              collecting, case):
        config = str(synth_dir / "config.json")
        argv, code = {
            "ok": (["validate", "--config", config], 0),
            "configuration": (["validate", "--config", config,
                               "--tol", "-1"], 1),
            "solver": (["estimate", "--config", config,
                        "--output-dir", str(tmp_path / "res")], 2),
            "io": (["validate", "--network", str(tmp_path / "none.json")], 3),
            "usage": (["estimate", "--k-steps", "x"], 1),
            "help": (["estimate", "--help"], 0),
        }[case]

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("KKT system is singular")

        monkeypatch.setattr(est, "solve", singular)
        assert run(argv) == code
        assert gc.isenabled() is collecting

    def test_restored_when_an_exception_propagates(self, synth_dir,
                                                   monkeypatch, collecting):
        def unexpected(config):
            raise RuntimeError("unexpected")

        monkeypatch.setattr(cli, "cmd_validate", unexpected)
        with pytest.raises(RuntimeError, match="unexpected"):
            run(["validate", "--config", str(synth_dir / "config.json")])
        assert gc.isenabled() is collecting

    @pytest.mark.parametrize("collecting", [False], ids=["collector_off"],
                             indirect=True)
    def test_garbage_does_not_grow_with_the_bundle(self, synth30_dir,
                                                   tmp_path, collecting):
        # The pause is safe only while the pipeline's data hold no reference
        # cycles: what a command leaves for the collector must not grow with
        # the number of records.
        big = tmp_path / "bundle300"
        assert run(["synth", "--outlets", "300", "--seed", "7",
                    "--out", str(big)]) == 0
        garbage = {}
        for name, bundle in (("30", synth30_dir), ("300", big)):
            out = tmp_path / f"out{name}"
            for command, extra in (
                    ("estimate", []),
                    ("report", ["--solution", str(out / "solution.csv")])):
                gc.collect()
                assert run([command, "--config", str(bundle / "config.json"),
                            "--output-dir", str(out), *extra]) == 0
                garbage[name, command] = gc.collect()
        for command in ("estimate", "report"):
            assert garbage["30", command] == garbage["300", command]


class TestDatasetTables:
    """Equal text values in a table are one shared ``str``, and ``estimate``
    frees the dataset tables before it solves."""

    def test_equal_text_is_one_shared_str(self, synth30_dir):
        columns = []
        for family in DATASET_FAMILIES:
            table = getattr(measurement, f"read_{family}")(
                synth30_dir / f"{family}.csv")
            columns += [table[name].tolist() for name in table.dtype.names
                        if table.dtype[name] == object]
        # import_tabular's keys are the text columns of the table it reads
        columns += zip(*rp.import_tabular(synth30_dir / "ground_truth.csv"))
        for column in columns:
            assert len({id(v) for v in column}) == len(set(column))

    def test_estimate_frees_tables_before_solving(self, synth30_dir, tmp_path,
                                                  monkeypatch):
        tables = []
        for family in DATASET_FAMILIES:
            def read(path, read=getattr(measurement, f"read_{family}")):
                table = read(path)
                tables.append(weakref.ref(table))
                return table

            monkeypatch.setattr(measurement, f"read_{family}", read)
        alive = []
        solve = est.solve

        def spy(*args, **kwargs):
            alive.append([ref() is not None for ref in tables])
            return solve(*args, **kwargs)

        monkeypatch.setattr(est, "solve", spy)
        assert run(["estimate", "--config", str(synth30_dir / "config.json"),
                    "--output-dir", str(tmp_path / "results")]) == 0
        assert alive == [[False] * len(DATASET_FAMILIES)]


class TestProcessEntry:
    """``run`` is the process entry: it exits with ``main``'s code and
    freezes the heap first, so finalization's collection skips it.
    ``main`` never freezes."""

    @pytest.mark.parametrize("case, code", [
        ("ok", 0), ("usage", 1), ("io", 3)])
    def test_exits_with_main_code_after_freezing(self, synth30_dir, tmp_path,
                                                 case, code):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"network": "missing.json"}))
        argv = {
            "ok": ["estimate", "--config", str(synth30_dir / "config.json"),
                   "--output-dir", str(tmp_path / "out")],
            "usage": ["estimate", "--k-steps", "x"],
            "io": ["validate", "--config", str(config)],
        }[case]
        probe = f"""
import atexit, gc, sys
from basinflow import cli
atexit.register(lambda: print(gc.get_freeze_count() > 0))
sys.argv = ["basinflow", *{argv!r}]
cli.run()
"""
        result = fresh_python("-c", probe)
        assert result.returncode == code, result.stderr
        assert result.stdout.splitlines()[-1] == "True"

    def test_module_run_prints_every_fit_row(self, synth30_dir, tmp_path,
                                             capsys):
        argv = ["report", "--config", str(synth30_dir / "config.json"),
                "--solution", str(synth30_dir / "ground_truth.csv")]
        assert run([*argv, "--output-dir", str(tmp_path / "in")]) == 0
        expected = capsys.readouterr().out
        result = fresh_python("-m", "basinflow.cli", *argv,
                              "--output-dir", str(tmp_path / "fresh"))
        assert result.returncode == 0, result.stderr
        assert result.stdout == expected
        assert len(expected.splitlines()) > 1
        assert (tmp_path / "fresh" / "fit_report.csv").read_bytes() == \
            (tmp_path / "in" / "fit_report.csv").read_bytes()

    def test_main_leaves_freeze_count(self, synth_dir):
        frozen = gc.get_freeze_count()
        assert run(["validate", "--config", str(synth_dir / "config.json")]) == 0
        assert gc.get_freeze_count() == frozen


class TestUsageErrors:
    """A command line argparse rejects exits 1, as a configuration failure
    does; 2 is the solver's."""

    @pytest.mark.parametrize("argv, message", [
        (["estimate", "--k-steps", "x"], "invalid int value: 'x'"),
        (["estimate", "--missing-df-policy", "bogus"],
         "invalid choice: 'bogus'"),
        (["bogus"], "invalid choice: 'bogus'")],
        ids=["bad_type", "bad_choice", "unknown_command"])
    def test_usage_error_exits_1(self, capsys, argv, message):
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("usage: basinflow")
        assert message in captured.err
        assert captured.out == ""

    def test_help_exits_0(self, capsys):
        assert run(["estimate", "--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: basinflow estimate")


class TestNrmseNormalizer:
    """``nrmse_normalizer``, from the flag or the config key, picks the
    NRMSE rows' denominator in ``estimate`` and in ``report``."""

    @staticmethod
    def fit_rows(path) -> dict:
        with open(path, newline="", encoding="utf-8") as fh:
            return {(row["data_type"], row["operand"]): row
                    for row in csv.DictReader(fh)
                    if row["metric"] == rp.METRIC_NRMSE}

    @staticmethod
    def expected(bundle, solution, normalizer) -> dict:
        """``report.nrmse`` of each applied and EoS operand's rows, the
        flows read from ``solution``."""
        network = bf.load_network(bundle / "network.json")
        applied, loads, dfs, areas = (
            getattr(measurement, f"read_{family}")(bundle / f"{family}.csv")
            for family in DATASET_FAMILIES)
        capabilities = bf.instantiate_capabilities(network)
        _, rows, _ = measurement.assemble_system(
            network, capabilities, applied, loads,
            measurement.compute_delivery_model(network, dfs, areas))
        totals = rp.flow_totals(rp.flows_from_tabular(
            rp.import_tabular(solution)), capabilities, network)
        predicted = rows.d @ totals
        want = {}
        for family, data_type in (("accept", "applied"), ("eos", "eos")):
            for code, operand in enumerate(OPERAND_NAMES):
                picked = np.flatnonzero(
                    (rows.family == FAMILIES.index(family))
                    & (rows.operand == code))
                want[(data_type, operand)] = rp.nrmse(
                    predicted[picked], rows.constant[picked], normalizer)
        return want

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_range(self, synth30_dir, tmp_path, source):
        bundle = bundle_copy(synth30_dir, tmp_path)
        argv = ["--config", str(bundle / "config.json")]
        if source == "flag":
            argv += ["--nrmse-normalizer", "range"]
        else:
            config = json.loads((bundle / "config.json").read_text())
            config["nrmse_normalizer"] = "range"
            (bundle / "config.json").write_text(json.dumps(config))
        out = tmp_path / "est"
        assert run(["estimate", *argv, "--output-dir", str(out)]) == 0
        got = self.fit_rows(out / "fit_report.csv")
        want = self.expected(bundle, out / "solution.csv", "range")
        assert sorted(got) == sorted(want)
        for key, row in got.items():
            assert row["note"] == "normalizer=range"
            assert float(row["value"]) == pytest.approx(want[key], rel=1e-12)
        assert run(["report", *argv, "--solution", str(out / "solution.csv"),
                    "--output-dir", str(tmp_path / "rep")]) == 0
        assert (tmp_path / "rep" / "fit_report.csv").read_bytes() == \
            (out / "fit_report.csv").read_bytes()


def test_import_skips_sparse_solver():
    # ``report`` and ``validate`` never factorize, so importing the command
    # line must not import the sparse solver
    probe = "import sys, basinflow.cli; print('scipy.sparse.linalg' in sys.modules)"
    result = fresh_python("-c", probe)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


class TestReport:
    def test_ground_truth_reports_perfect(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "rep"
        code = run(["report", "--solution", str(synth_dir / "ground_truth.csv"),
                    "--config", str(synth_dir / "config.json"),
                    "--output-dir", str(out)])
        assert code == 0
        text = (out / "fit_report.csv").read_text()
        fit = {}
        for line in text.strip().splitlines()[1:]:
            data_type, operand, metric, value, _ = line.split(",")
            fit[(data_type, operand, metric)] = float(value)
        assert fit[("applied", "nitrogen", "r_squared")] == pytest.approx(1.0)
        assert fit[("eot", "nitrogen", "relative_error")] == pytest.approx(
            0.0, abs=1e-9)
        assert fit[("transport_relations", "both", "median_relative_error")] \
            == pytest.approx(0.0, abs=1e-9)

    def test_skipped_records_warned_as_in_estimate(self, synth_dir, tmp_path,
                                                   capsys):
        bundle = bundle_copy(synth_dir, tmp_path)
        config = str(bundle / "config.json")
        assert run(["estimate", "--config", config]) == 0
        solution = str(bundle / "results" / "solution.csv")
        capsys.readouterr()
        assert run(["report", "--solution", solution, "--config", config,
                    "--output-dir", str(tmp_path / "clean")]) == 0
        assert capsys.readouterr().err == ""
        with open(bundle / "applied.csv", "a", encoding="utf-8") as fh:
            fh.write(NOWHERE_APPLIED)
        assert run(["estimate", "--config", config,
                    "--output-dir", str(tmp_path / "est")]) == 0
        assert capsys.readouterr().err == NOWHERE_WARNING
        assert run(["report", "--solution", solution, "--config", config,
                    "--output-dir", str(tmp_path / "rep")]) == 0
        assert capsys.readouterr().err == NOWHERE_WARNING

    def test_three_point_hand_fixture(self, tmp_path):
        # single county, three land segments; applied N observed vs predicted
        # hand-checked through the public metric functions
        net, truth, ds = bf.generate_synthetic(1, 1, seed=5,
                                               land_per_outlet=(3, 3),
                                               county_mode="per-segment")
        fit = fit_report(net, truth.capabilities,
                         truth.u * 1.1,  # uniform 10% overshoot
                         ds.applied, ds.loads)
        obs = {}
        for rec in ds.applied:
            if rec.operand == "nitrogen":
                obs[(rec.county, rec.sector)] = rec.mass
        keys = sorted(obs)
        observed = np.array([obs[k] for k in keys])
        predicted = observed * 1.1
        assert fit.lookup("applied", "nitrogen", rp.METRIC_R2) == \
            pytest.approx(rp.r_squared(predicted, observed), rel=1e-12)
        assert fit.lookup("eot", "nitrogen", rp.METRIC_REL) == \
            pytest.approx(0.1, rel=1e-9)

    def test_operand_gap_is_error(self, synth_dir, tmp_path, capsys):
        table = rp.import_tabular(synth_dir / "ground_truth.csv")
        nitrogen_only = tmp_path / "partial.csv"
        with open(nitrogen_only, "w") as fh:
            fh.write(",".join(rp.TABULAR_HEADER) + "\n")
            for (kind, entity, operand, quantity), value in table.items():
                if operand == "nitrogen":
                    fh.write(f"{entity},{kind},{operand},{quantity},{value!r}\n")
        code = run(["report", "--solution", str(nitrogen_only),
                    "--config", str(synth_dir / "config.json"),
                    "--output-dir", str(tmp_path / "rep2")])
        assert code == 1
        assert "phosphorus" in capsys.readouterr().err

    def test_repeated_solution_row_names_both_lines(self, synth_dir, tmp_path,
                                                    capsys):
        # the lookup would keep one of the two values and score it silently
        lines = (synth_dir / "ground_truth.csv").read_text().splitlines()
        first = next(i for i, line in enumerate(lines) if ",flow," in line)
        entity, kind, operand, quantity, value = lines[first].split(",")
        lines.append(f"{entity},{kind},{operand},{quantity},{float(value) * 50!r}")
        solution = tmp_path / "solution.csv"
        solution.write_text("\n".join(lines) + "\n")
        code = run(["report", "--solution", str(solution),
                    "--config", str(synth_dir / "config.json"),
                    "--output-dir", str(tmp_path / "rep")])
        assert code == 1
        err = capsys.readouterr().err
        assert (f"{solution} line {len(lines)}: repeats the (entity_kind, "
                f"entity_id, operand, quantity_kind) key ('{kind}', '{entity}', "
                f"'{operand}', 'flow') of line {first + 1}") in err
        assert not (tmp_path / "rep" / "fit_report.csv").exists()

    @pytest.mark.parametrize("row, message", [
        ("x,transport_river", "2 fields, the header has 5"),
        ("x,transport_river,nitrogen,flow,lots", "'lots' is not a number"),
        ("x,transport_river,nitrogen,flow,nan", "'nan' is not a finite number"),
    ], ids=["short_row", "bad_number", "nan"])
    def test_bad_solution_row_names_file_and_line(self, synth_dir, tmp_path,
                                                  capsys, row, message):
        solution = tmp_path / "solution.csv"
        solution.write_text(",".join(rp.TABULAR_HEADER) + "\n"
                            "out-1,outlet_point,nitrogen,accumulation,0.0\n"
                            + row + "\n")
        code = run(["report", "--solution", str(solution),
                    "--config", str(synth_dir / "config.json"),
                    "--output-dir", str(tmp_path / "rep")])
        assert code == 1
        assert f"{solution} line 3: {message}" in capsys.readouterr().err
