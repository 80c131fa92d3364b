import dataclasses
import json
import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import basinflow as bf
from basinflow import estimator as est
from basinflow import report as rp
from basinflow.core_net import OPERAND_NAMES
from basinflow import measurement as ms
from basinflow.core_net import build_incidence
from basinflow.measurement import row_labels
from basinflow.topology import instantiate_capabilities, network_from_dict

from pipeline_util import (
    assemble_bundle,
    buffer_walk,
    build_constraints,
    fit_report,
    make_network,
    measurement_system,
    network_doc,
    reference_export_geo,
    reference_export_tabular,
    reference_fit_report_csv,
    reference_write_table,
)


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

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match="equal-length"):
            rp.r_squared([1.0, 2.0], [1.0, 2.0, 3.0])

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

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match="equal-length"):
            rp.nrmse([1.0, 2.0, 3.0], [1.0, 2.0])


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

    @given(st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(1e-3, 1e6)),
                    min_size=1, max_size=9))
    @settings(max_examples=60)
    def test_matches_statistics_median_bit_for_bit(self, pairs):
        errors = [abs(p - o) / abs(o) for p, o in pairs]
        assert rp.median_relative_error(pairs).hex() == \
            statistics.median(errors).hex()


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
        rp.export_results(solution, network, truth.capabilities, path,
                          constraints=constraints)
        table = rp.import_tabular(path)
        n_ops = len(OPERAND_NAMES)
        n_buffers = network.n_buffers
        assert len(table) == (n_buffers * n_ops + len(truth.capabilities)
                              + len(constraints))
        for cap in truth.capabilities:
            kind, entity = rp.capability_entity(cap, network)
            value = table[(kind, entity, cap.capability_class.operand_name,
                           "flow")]
            assert value == solution.u[0][cap.id]  # lossless round trip
        for b, (buffer, kind) in enumerate(buffer_walk(network)):
            for o, name in enumerate(OPERAND_NAMES):
                value = table[(kind, buffer, name, "accumulation")]
                assert value == solution.q_b[-1][b * n_ops + o]
        for r, (label, con) in enumerate(zip(row_labels(constraints),
                                             constraints)):
            assert con.label == label
            operand = OPERAND_NAMES[constraints.operand[r]]
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
        rp.export_results(zero, network, truth.capabilities, path)
        table = rp.import_tabular(path)
        assert all(v == 0.0 for v in table.values())

    def test_geo_export(self, tmp_path):
        network, truth, datasets, constraints, incidence, problem = \
            assemble_bundle(4, branching=2, seed=2)
        solution = est.solve(problem)
        path = tmp_path / "solution.geojson"
        rp.export_results(solution, network, truth.capabilities, path,
                          fmt="geo")
        doc = json.loads(path.read_text())
        assert doc["type"] == "FeatureCollection"
        n_ops = len(OPERAND_NAMES)
        transports = [c for c in truth.capabilities if c.origin is not None]
        assert len(doc["features"]) == (network.n_buffers * n_ops
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

    def test_accumulations_are_final_state(self, solved_chain, tmp_path):
        # the geo export's Point features carry place buffer * 2 + operand
        # of the final state, buffers in id order and operands fastest
        network, truth, constraints, solution = solved_chain
        path = tmp_path / "solution.geojson"
        rp.export_results(solution, network, truth.capabilities, path,
                          fmt="geo")
        points = [f["properties"] for f in json.loads(path.read_text())["features"]
                  if f["properties"]["quantity_kind"] == "accumulation"]
        expected = [(buffer, kind, name,
                     solution.q_b[-1][b * len(OPERAND_NAMES) + o])
                    for b, (buffer, kind) in enumerate(buffer_walk(network))
                    for o, name in enumerate(OPERAND_NAMES)]
        assert [(p["entity_id"], p["entity_kind"], p["operand"], p["value_lbs"])
                for p in points] == expected

    def test_geo_null_geometry_without_coordinates(self, chain_network,
                                                   tmp_path):
        from basinflow.core_net import build_incidence
        from basinflow.topology import instantiate_capabilities
        caps = instantiate_capabilities(chain_network)
        incidence = build_incidence(caps, chain_network.n_buffers)
        with pytest.warns(est.AssemblyWarning):
            problem = est.assemble_problem(
                incidence, measurement_system([], len(caps)))
        solution = est.solve(problem)
        path = tmp_path / "bare.geojson"
        rp.export_results(solution, chain_network, caps, path, fmt="geo")
        doc = json.loads(path.read_text())
        assert all(f["geometry"] is None for f in doc["features"])

    def test_unknown_format(self, solved_chain, tmp_path):
        network, truth, constraints, solution = solved_chain
        with pytest.raises(ValueError, match="format"):
            rp.export_results(solution, network, truth.capabilities,
                              tmp_path / "x", fmt="shapefile")


def awkward(text):
    """``text`` with a comma, a double quote, a newline and a non-ASCII
    character in it."""
    return f'{text},"\u00e9"\n{text}'


@pytest.fixture(scope="module")
def awkward_bundle():
    """A solved 4-outlet bundle whose ids and counties are all ``awkward``;
    the estuary has no coordinates, so the features touching it have null
    geometry."""
    network, _, datasets = bf.generate_synthetic(4, branching=2, seed=3)
    doc = network_doc(network)
    for group, fields in (
            ("land_segments", ("external_id", "county", "river_segment_id")),
            ("outlets", ("external_id", "river_segment_id")),
            ("river_links", ("from_outlet", "to_node")),
            ("estuaries", ("external_id",))):
        for record in doc[group]:
            record.update({field: awkward(record[field]) for field in fields})
    del doc["estuaries"][0]["coordinates"]
    network = network_from_dict(doc)

    def renamed(dataset, column):
        dataset = dataset.copy()
        dataset[column] = [awkward(v) for v in dataset[column].tolist()]
        return dataset

    datasets = dataclasses.replace(
        datasets, applied=renamed(datasets.applied, "county"),
        loads=renamed(datasets.loads, "county"),
        delivery_factors=renamed(datasets.delivery_factors, "segment"),
        areas=renamed(datasets.areas, "segment"))
    caps = instantiate_capabilities(network)
    constraints, _ = build_constraints(network, caps, datasets)
    problem = est.assemble_problem(
        build_incidence(caps, network.n_buffers), constraints)
    return network, caps, datasets, constraints, est.solve(problem)


# Flows and masses the writers must spell as ``repr`` and ``json.dumps`` do.
SPECIAL_VALUES = [0.0, -0.0, -2.5, math.nan, math.inf, -math.inf]


def with_values(solution, capabilities, values):
    """``solution`` with ``values`` as the first flows, the first transport
    flows, the first final masses and the first errors."""
    u, q_b, errors = solution.u.copy(), solution.q_b.copy(), solution.errors.copy()
    transport = np.flatnonzero(capabilities.origin >= 0)[:len(values)]
    u[0, :len(values)] = u[0, transport] = values
    q_b[-1, :len(values)] = errors[:len(values)] = values
    return dataclasses.replace(solution, u=u, q_b=q_b, errors=errors)


class TestWritersMatchReference:
    """The writers reproduce ``csv.writer`` and ``json.dumps`` byte for byte
    (see ``pipeline_util``)."""

    @pytest.mark.parametrize("values", [[], SPECIAL_VALUES[:3], SPECIAL_VALUES],
                             ids=["solved", "finite", "non-finite"])
    def test_solution_files(self, awkward_bundle, tmp_path, values):
        network, caps, _, constraints, solution = awkward_bundle
        solution = with_values(solution, caps, values)
        rp.export_results(solution, network, caps, tmp_path / "a.csv",
                          constraints=constraints)
        reference_export_tabular(solution, network, caps, tmp_path / "b.csv",
                                 constraints)
        rp.export_results(solution, network, caps, tmp_path / "a.geojson",
                          fmt="geo")
        reference_export_geo(solution, network, caps, tmp_path / "b.geojson")
        for suffix in (".csv", ".geojson"):
            assert (tmp_path / f"a{suffix}").read_bytes() == \
                (tmp_path / f"b{suffix}").read_bytes()
        doc = json.loads((tmp_path / "a.geojson").read_text(encoding="utf-8"))
        assert {feature["geometry"] is None for feature in doc["features"]} \
            == {True, False}

    @pytest.mark.parametrize("chunk_rows", [1, 7])
    @pytest.mark.parametrize("k_steps", [1, 3])
    def test_tabular_across_chunk_boundaries(self, awkward_bundle, tmp_path,
                                             monkeypatch, k_steps, chunk_rows):
        # rows are written, and error rows labelled, a chunk at a time: the
        # file is the reference's, and no call labels more than a chunk
        network, caps, _, constraints, _ = awkward_bundle
        lifted = ms.expand_constraints(constraints, k_steps)
        solution = est.solve(est.assemble_problem(
            build_incidence(caps, network.n_buffers), lifted))
        labelled = []

        def spy(system, rows=None):
            labelled.append(len(system) if rows is None else len(rows))
            return row_labels(system, rows)

        monkeypatch.setattr(ms, "WRITE_CHUNK_ROWS", chunk_rows)
        monkeypatch.setattr(rp, "row_labels", spy)
        rp.export_results(solution, network, caps, tmp_path / "a.csv",
                          constraints=lifted)
        reference_export_tabular(solution, network, caps, tmp_path / "b.csv",
                                 lifted)
        assert (tmp_path / "a.csv").read_bytes() == \
            (tmp_path / "b.csv").read_bytes()
        assert sum(labelled) == len(lifted) > 7
        assert max(labelled) <= chunk_rows

    def test_tabular_round_trip(self, awkward_bundle, tmp_path):
        network, caps, _, constraints, solution = awkward_bundle
        solution = with_values(solution, caps, SPECIAL_VALUES[:3])
        path = tmp_path / "solution.csv"
        rp.export_results(solution, network, caps, path, constraints=constraints)
        kind, entity, operand = rp.capability_names(caps, network)
        expected = {(k, e, o, "flow"): v for k, e, o, v in zip(
            kind, entity, operand, solution.u.sum(axis=0).tolist())}
        masses = iter(solution.q_b[-1].tolist())
        expected.update({(kind, buffer, name, "accumulation"): next(masses)
                         for buffer, kind in buffer_walk(network)
                         for name in OPERAND_NAMES})
        expected.update({("constraint", label, OPERAND_NAMES[o], "error"): v
                         for label, o, v in zip(
                             row_labels(constraints), constraints.operand.tolist(),
                             solution.errors.tolist())})
        assert any("\n" in key[1] for key in expected)
        # repr tells -0.0 from 0.0
        assert {key: repr(value) for key, value in rp.import_tabular(path).items()} \
            == {key: repr(value) for key, value in expected.items()}

    def test_tables(self, awkward_bundle, tmp_path):
        network, caps, datasets, constraints, solution = awkward_bundle
        tables = [datasets.applied, datasets.loads, datasets.delivery_factors,
                  datasets.areas, rp.flow_rows(caps, network, solution.u[0])]
        for i, dataset in enumerate(tables):
            ms.write_table(tmp_path / f"a{i}.csv", dataset)
            reference_write_table(tmp_path / f"b{i}.csv", dataset)
            assert (tmp_path / f"a{i}.csv").read_bytes() == \
                (tmp_path / f"b{i}.csv").read_bytes()
        fit = rp.build_fit_report(constraints, solution.u.sum(axis=0))
        fit.write_csv(tmp_path / "a.csv")
        reference_fit_report_csv(fit, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.text(st.sampled_from('a ,"\r\n\t\u00e9\x00')),
                              st.text(), st.floats()), max_size=6))
    def test_any_text(self, tmp_path_factory, rows):
        dataset = ms.table(np.dtype([("name", object), ("label", object),
                                     ("value", float)]), rows)
        path = tmp_path_factory.mktemp("table")
        ms.write_table(path / "a.csv", dataset)
        reference_write_table(path / "b.csv", dataset)
        assert (path / "a.csv").read_bytes() == (path / "b.csv").read_bytes()

    @pytest.mark.parametrize("n_rows", [0, 1, ms.WRITE_CHUNK_ROWS - 1,
                                        ms.WRITE_CHUNK_ROWS,
                                        2 * ms.WRITE_CHUNK_ROWS + 1])
    def test_chunk_boundaries(self, tmp_path, n_rows):
        dataset = ms.table(ms.LOADS, [(f"c,{i}", "nitrogen", "EoS", i / 7)
                                      for i in range(n_rows)])
        ms.write_table(tmp_path / "a.csv", dataset)
        reference_write_table(tmp_path / "b.csv", dataset)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_consecutive_tables(self, tmp_path):
        # tables of one dtype after the first go under its header, in order
        parts = [ms.table(ms.LOADS, [(f"c,{i}", "nitrogen", "EoS", i / 7)
                                     for i in range(n_rows)])
                 for n_rows in (3, 0, ms.WRITE_CHUNK_ROWS + 1, 2)]
        ms.write_table(tmp_path / "a.csv", parts[0], iter(parts[1:]))
        reference_write_table(tmp_path / "b.csv", np.concatenate(parts))
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


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
        rp.export_results(solution, network, truth.capabilities, path)
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
        stray = bf.measurement.table(
            bf.measurement.APPLIED, [("nowhere", "agricultural", "nitrogen", 5.0)])
        base = fit_report(network, truth.capabilities, totals,
                          datasets.applied, datasets.loads)
        more = fit_report(network, truth.capabilities, totals,
                          np.concatenate([datasets.applied, stray]).view(np.recarray), datasets.loads)
        for metric in (rp.METRIC_R2, rp.METRIC_NRMSE):
            assert more.lookup("applied", "nitrogen", metric) == \
                base.lookup("applied", "nitrogen", metric)

    def test_stream_to_tide_row_by_hand(self):
        # land-1 -> out-1 -> out-2 -> bay and land-2 -> out-2, one county:
        # the row weights each land transport by its outlet's river-to-bay
        # factor, 0.3 at out-1 and 0.6 at out-2
        network = make_network(
            land_segments=[("land-1", "alpha", "seg-1", (), None),
                           ("land-2", "alpha", "seg-2", (), None)],
            outlets=[("out-1", "seg-1", None), ("out-2", "seg-2", None)],
            river_links=[("out-1", "out-2"), ("out-2", "bay")],
            estuaries=[("bay", None)],
        )
        caps = instantiate_capabilities(network)
        delivery = bf.measurement.DeliveryModel(
            np.array([1.0, 1.0]), np.array([0.3, 0.6]), np.array([0.5, 0.6]))
        loads = bf.measurement.table(
            bf.measurement.LOADS, [("alpha", "nitrogen", "StreamToTide", 7.0)])
        rows, skipped = bf.measurement.assemble_stream_to_tide(
            loads, network, caps, delivery)
        assert skipped == []
        assert row_labels(rows) == ["stream_to_tide/alpha/nitrogen"]
        assert rows.key == (("alpha",),)
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

    @pytest.mark.parametrize("family", ["eot", "stream_to_tide"])
    def test_totals_add_in_row_order(self, family):
        # added in row order, predicted 1e16 + 1 - 1e16 is 0 and observed
        # 1e16 + 3 - 1e16 is 4; a compensated sum (the builtin ``sum`` from
        # Python 3.12 on) gives 1 and 3, and the report's bytes would then
        # depend on the interpreter
        flows, constants = [1e16, 1.0, -1e16], [1e16, 3.0, -1e16]
        assert (math.fsum(flows), math.fsum(constants)) == (1.0, 3.0)
        rows = measurement_system(
            [({(1, i): 1.0}, c, f"{family}/c{i}/nitrogen")
             for i, c in enumerate(constants)], 3)
        fit = rp.build_fit_report(rows, np.array(flows))
        assert fit.lookup(family, "nitrogen", rp.METRIC_REL) == 1.0  # |0 - 4| / 4

    def test_one_row_family_has_no_r_squared(self):
        # one observed value has zero variance: the metric is NaN, with the
        # reason as its note, and the rest of the report is still written
        rows = measurement_system(
            [({(1, 0): 1.0}, 5.0, "accept/alpha/agricultural/nitrogen")], 1)
        fit = rp.build_fit_report(rows, np.array([4.0]))
        r2 = next(row for row in fit.rows if row.metric == rp.METRIC_R2)
        assert math.isnan(r2.value)
        assert r2.note == "observed values have zero variance"
        assert fit.lookup("applied", "nitrogen", rp.METRIC_NRMSE) == \
            pytest.approx(0.2, rel=1e-12)

    def test_lookup_of_an_absent_row_is_a_key_error(self):
        rows = measurement_system(
            [({(1, 0): 1.0}, 5.0, "accept/alpha/agricultural/nitrogen")], 1)
        fit = rp.build_fit_report(rows, np.array([4.0]))
        for key in (("applied", "phosphorus", rp.METRIC_R2),
                    ("applied", "nitrogen", rp.METRIC_REL),
                    ("eos", "nitrogen", rp.METRIC_R2)):
            with pytest.raises(KeyError) as raised:
                fit.lookup(*key)
            assert raised.value.args == (key,)

    def test_csv_round_trip(self, tmp_path):
        fit = rp.FitReport(ms.table(rp._FIT_ROWS, [
            ("applied", "nitrogen", rp.METRIC_R2, 0.91, ""),
            ("eos", "phosphorus", rp.METRIC_R2, -0.072, "")]))
        path = tmp_path / "fit.csv"
        fit.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "data_type,operand,metric,value,note"
        assert "-0.072" in lines[2]
