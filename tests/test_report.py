import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import basinflow as bf
from basinflow import estimator as est
from basinflow import report as rp
from basinflow.core_net import default_operands
from basinflow.topology import (
    Estuary,
    LandSegment,
    Outlet,
    RiverLink,
    WatershedNetwork,
    instantiate_capabilities,
)

from pipeline_util import assemble_bundle, fit_report, measurement_system


class TestRSquared:
    def test_perfect(self):
        assert rp.r_squared([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0

    def test_mean_prediction_is_zero(self):
        obs = [1.0, 2.0, 3.0]
        assert rp.r_squared([2.0, 2.0, 2.0], obs) == 0.0

    def test_anti_prediction_negative(self):
        # SS_res = 8, SS_tot = 2
        assert rp.r_squared([3.0, 2.0, 1.0], [1.0, 2.0, 3.0]) == -3.0

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError, match="variance"):
            rp.r_squared([1.0, 2.0], [5.0, 5.0])

    def test_least_squares_repredicton_is_best_linear(self):
        rng = np.random.RandomState(7)
        obs = rng.uniform(0, 10, 12)
        pred = obs + rng.normal(0, 2, 12)
        a, b = np.polyfit(pred, obs, 1)
        best = rp.r_squared(a * pred + b, obs)
        for a2, b2 in rng.uniform(-2, 2, (20, 2)):
            assert best >= rp.r_squared(a2 * pred + b2, obs) - 1e-12


class TestNrmse:
    def test_perfect(self):
        assert rp.nrmse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_hand_value(self):
        # RMSE 1 over mean 10
        assert rp.nrmse([11.0, 9.0], [10.0, 10.0]) == pytest.approx(0.1)

    @given(s=st.floats(0.1, 100.0))
    @settings(max_examples=30)
    def test_scale_invariance(self, s):
        pred = np.array([11.0, 9.0, 10.5])
        obs = np.array([10.0, 10.0, 10.0])
        assert rp.nrmse(pred * s, obs * s) == pytest.approx(
            rp.nrmse(pred, obs), rel=1e-12)

    def test_normalizers(self):
        pred = np.array([2.0, 3.0])
        obs = np.array([1.0, 5.0])
        rmse = math.sqrt(((pred - obs) ** 2).mean())
        assert rp.nrmse(pred, obs, "mean") == pytest.approx(rmse / 3.0)
        assert rp.nrmse(pred, obs, "range") == pytest.approx(rmse / 4.0)
        assert rp.nrmse(pred, obs, "std") == pytest.approx(rmse / 2.0)
        with pytest.raises(ValueError, match="normalizer"):
            rp.nrmse(pred, obs, "iqr")

    def test_zero_mean_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            rp.nrmse([1.0, 1.0], [-1.0, 1.0])


class TestRelativeError:
    def test_equal(self):
        assert rp.relative_error(5.0, 5.0) == 0.0

    def test_hand_value(self):
        assert rp.relative_error(108.86, 100.0) == pytest.approx(0.0886,
                                                                 abs=1e-12)

    def test_zero_observed(self):
        with pytest.raises(ValueError, match="zero"):
            rp.relative_error(1.0, 0.0)


class TestMedianRelativeError:
    def test_single_pair(self):
        assert rp.median_relative_error([(1.1, 1.0)]) == pytest.approx(0.1)

    def test_odd_median(self):
        pairs = [(1.1, 1.0), (1.3, 1.0), (1.9, 1.0)]
        assert rp.median_relative_error(pairs) == pytest.approx(0.3)

    def test_even_midpoint(self):
        pairs = [(1.1, 1.0), (1.3, 1.0)]
        assert rp.median_relative_error(pairs) == pytest.approx(0.2)

    def test_zero_observed_pair(self):
        with pytest.raises(ValueError, match="pair 1"):
            rp.median_relative_error([(1.0, 1.0), (1.0, 0.0)])

    def test_empty(self):
        with pytest.raises(ValueError):
            rp.median_relative_error([])


@pytest.fixture(scope="module")
def solved_chain():
    network, truth, datasets, constraints, incidence, problem = \
        assemble_bundle(1, 1, seed=42)
    solution = est.solve(problem)
    return network, truth, constraints, solution


class TestExport:
    def test_tabular_round_trip(self, solved_chain, tmp_path):
        network, truth, constraints, solution = solved_chain
        path = tmp_path / "solution.csv"
        rp.export_results(solution, network, truth.capabilities,
                          truth.operands, path, constraints=constraints)
        table = rp.import_tabular(path)
        n_ops = len(truth.operands)
        n_buffers = len(network.buffer_specs)
        assert len(table) == (n_buffers * n_ops + len(truth.capabilities)
                              + len(constraints))
        for cap in truth.capabilities:
            kind, entity = rp.capability_entity(cap, network)
            value = table[(kind, entity, cap.capability_class.operand_name,
                           "flow")]
            assert value == solution.u[0][cap.id]  # lossless round trip
        from basinflow.core_net import place_index
        for spec in network.buffer_specs:
            for op in truth.operands:
                value = table[(spec.kind.value, spec.external_id, op.name,
                               "accumulation")]
                assert value == solution.q_b[-1][place_index(op.id, spec.id,
                                                             n_ops)]
        for r, (label, operand) in enumerate(zip(constraints.label,
                                                 constraints.operand)):
            assert table[("constraint", label, operand,
                          "error")] == solution.errors[r]

    def test_zero_flow_solution_exports(self, solved_chain, tmp_path):
        network, truth, constraints, solution = solved_chain
        zero = est.Solution(
            q_b=np.zeros_like(solution.q_b), u=np.zeros_like(solution.u),
            errors=np.zeros_like(solution.errors), objective_value=0.0,
            kkt_residual=0.0, constraint_residual=0.0, converged=True,
            x=np.zeros_like(solution.x),
            multipliers=np.zeros_like(solution.multipliers))
        path = tmp_path / "zero.csv"
        rp.export_results(zero, network, truth.capabilities, truth.operands,
                          path)
        table = rp.import_tabular(path)
        assert all(v == 0.0 for v in table.values())

    def test_geo_export(self, tmp_path):
        network, truth, datasets, constraints, incidence, problem = \
            assemble_bundle(4, branching=2, seed=2)
        solution = est.solve(problem)
        path = tmp_path / "solution.geojson"
        rp.export_results(solution, network, truth.capabilities,
                          truth.operands, path, fmt="geo")
        doc = json.loads(path.read_text())
        assert doc["type"] == "FeatureCollection"
        n_ops = len(truth.operands)
        transports = [c for c in truth.capabilities if c.origin is not None]
        assert len(doc["features"]) == (len(network.buffer_specs) * n_ops
                                        + len(transports))
        for feature in doc["features"]:
            props = feature["properties"]
            if props["quantity_kind"] == "flow":
                assert feature["geometry"]["type"] == "LineString"
                if props["value_lbs"] > 0:
                    assert props["log10_value"] == pytest.approx(
                        math.log10(props["value_lbs"]))
            else:
                assert feature["geometry"]["type"] == "Point"

    def test_geo_null_geometry_without_coordinates(self, chain_network,
                                                   tmp_path):
        from basinflow.core_net import build_incidence
        from basinflow.topology import instantiate_capabilities
        operands = default_operands()
        caps = instantiate_capabilities(chain_network, operands)
        incidence = build_incidence(caps, len(operands),
                                    len(chain_network.buffer_specs))
        with pytest.warns(est.AssemblyWarning):
            problem = est.assemble_problem(
                incidence, measurement_system([], len(caps)))
        solution = est.solve(problem)
        path = tmp_path / "bare.geojson"
        rp.export_results(solution, chain_network, caps, operands, path,
                          fmt="geo")
        doc = json.loads(path.read_text())
        assert all(f["geometry"] is None for f in doc["features"])

    def test_unknown_format(self, solved_chain, tmp_path):
        network, truth, constraints, solution = solved_chain
        with pytest.raises(ValueError, match="format"):
            rp.export_results(solution, network, truth.capabilities,
                              truth.operands, tmp_path / "x", fmt="shapefile")


class TestFitReport:
    def test_ground_truth_perfect_fit(self):
        network, truth, datasets = bf.generate_synthetic(12, branching=3,
                                                         seed=31)
        fit = fit_report(network, truth.capabilities, truth.u,
                         datasets.applied, datasets.loads, truth.delivery)
        for op in ("nitrogen", "phosphorus"):
            assert fit.lookup("applied", op, rp.METRIC_R2) == \
                pytest.approx(1.0, abs=1e-9)
            assert fit.lookup("eos", op, rp.METRIC_R2) == \
                pytest.approx(1.0, abs=1e-9)
            assert fit.lookup("eot", op, rp.METRIC_REL) == \
                pytest.approx(0.0, abs=1e-9)
            assert fit.lookup("stream_to_tide", op, rp.METRIC_REL) == \
                pytest.approx(0.0, abs=1e-9)
            assert fit.lookup("stream_to_tide", op, rp.METRIC_MEDIAN_REL) == \
                pytest.approx(0.0, abs=1e-9)
        assert fit.lookup("transport_relations", "both",
                          rp.METRIC_MEDIAN_REL) == pytest.approx(0.0, abs=1e-9)

    def test_mismatched_operands_error(self, solved_chain, tmp_path):
        # a solution.csv without the phosphorus flows cannot be scored
        network, truth, constraints, solution = solved_chain
        path = tmp_path / "solution.csv"
        rp.export_results(solution, network, truth.capabilities,
                          truth.operands, path)
        flows = rp.flows_from_tabular(rp.import_tabular(path))
        nitrogen_only = {k: v for k, v in flows.items() if k[2] == "nitrogen"}
        with pytest.raises(ValueError, match="phosphorus"):
            rp.flow_totals(nitrogen_only, truth.capabilities, network)

    def test_unmatched_county_not_scored(self):
        # an applied record for a county with no land segments is skipped
        # from the rows, so it cannot move the applied metrics
        network, truth, datasets = bf.generate_synthetic(6, branching=2,
                                                         seed=9)
        totals = truth.u * np.linspace(0.9, 1.1, truth.u.size)
        stray = bf.measurement.AppliedNutrientRecord(
            "nowhere", "agricultural", "nitrogen", 5.0)
        base = fit_report(network, truth.capabilities, totals,
                          datasets.applied, datasets.loads)
        more = fit_report(network, truth.capabilities, totals,
                          [*datasets.applied, stray], datasets.loads)
        for metric in (rp.METRIC_R2, rp.METRIC_NRMSE):
            assert more.lookup("applied", "nitrogen", metric) == \
                base.lookup("applied", "nitrogen", metric)

    def test_stream_to_tide_row_by_hand(self):
        # land-1 -> out-1 -> out-2 -> bay and land-2 -> out-2, one county:
        # the row weights each land transport by its outlet's river-to-bay
        # factor, 0.3 at out-1 and 0.6 at out-2
        network = WatershedNetwork(
            land_segments=(LandSegment("land-1", "alpha", "seg-1", ()),
                           LandSegment("land-2", "alpha", "seg-2", ())),
            outlets=(Outlet("out-1", "seg-1"), Outlet("out-2", "seg-2")),
            river_links=(RiverLink("out-1", "out-2"), RiverLink("out-2", "bay")),
            estuaries=(Estuary("bay"),),
        )
        caps = instantiate_capabilities(network, default_operands())
        delivery = bf.measurement.DeliveryModel(
            {"land-1": 1.0, "land-2": 1.0}, {"out-1": 0.3, "out-2": 0.6},
            {("out-1", "out-2"): 0.5, ("out-2", "bay"): 0.6})
        loads = [bf.measurement.LoadRecord("alpha", "nitrogen",
                                           "StreamToTide", 7.0)]
        rows, skipped = bf.measurement.assemble_stream_to_tide(
            loads, network, caps, delivery)
        assert skipped == []
        assert rows.label == ("stream_to_tide/alpha/nitrogen",)
        assert rows.constant.tolist() == [7.0]
        transport = {cap.resource_id: cap.id for cap in caps
                     if cap.capability_class.action == "transport_land"
                     and cap.capability_class.operand_name == "nitrogen"}
        assert dict(rows[0].coefficients) == {(1, transport["land-1"]): 0.3,
                                              (1, transport["land-2"]): 0.6}
        totals = np.zeros(len(caps))
        totals[transport["land-1"]] = 10.0
        totals[transport["land-2"]] = 5.0
        fit = rp.build_fit_report(rows, totals)
        # predicted 0.3 * 10 + 0.6 * 5 = 6 against 7
        assert fit.lookup("stream_to_tide", "nitrogen", rp.METRIC_REL) == \
            pytest.approx(1 / 7, rel=1e-12)
        assert fit.lookup("stream_to_tide", "nitrogen",
                          rp.METRIC_MEDIAN_REL) == pytest.approx(1 / 7, rel=1e-12)

    def test_csv_round_trip(self, tmp_path):
        rows = (rp.FitRow("applied", "nitrogen", rp.METRIC_R2, 0.91),
                rp.FitRow("eos", "phosphorus", rp.METRIC_R2, -0.072))
        fit = rp.FitReport(rows)
        path = tmp_path / "fit.csv"
        fit.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "data_type,operand,metric,value,note"
        assert "-0.072" in lines[2]
