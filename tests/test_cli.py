import json
import shutil
from pathlib import Path

import numpy as np
import pytest

import basinflow as bf
from basinflow import estimator as est
from basinflow import report as rp
from basinflow.cli import main

from pipeline_util import assemble_bundle, fit_report


def run(argv):
    return main(argv)


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundle")
    assert run(["synth", "--outlets", "6", "--branching", "2",
                "--seed", "42", "--out", str(out)]) == 0
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

    def test_validate_accepts_bundle(self, synth_dir):
        assert run(["validate", "--config", str(synth_dir / "config.json")]) == 0

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
        dense = est.dense_oracle_solve(problem)
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

    def test_bad_config_key(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"network": "net.json", "k_step": 2}))
        assert run(["estimate", "--config", str(config)]) == 1
        assert "k_step" in capsys.readouterr().err

    def test_missing_network_file(self, tmp_path):
        assert run(["validate", "--network",
                    str(tmp_path / "nothing.json")]) == 3


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
