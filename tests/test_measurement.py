import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import basinflow as bf
from basinflow import measurement as ms
from basinflow.core_net import default_operands
from basinflow.topology import instantiate_capabilities

from pipeline_util import build_constraints


class TestCapabilityAggregation:
    """The one-step matrix ``d`` is the paper's D_E."""

    def test_single_row(self):
        # the EoT datum's row selects each estuary-bound river transport of
        # its operand once
        net, truth, _ = bf.generate_synthetic(8, branching=2, seed=5)
        system, _ = ms.assemble_eot_constraints(
            [ms.LoadRecord("c1", "phosphorus", "EoT", 3.0)], net,
            ms.capability_table(net, truth.capabilities))
        specs = net.buffer_specs
        terminal = {
            cap.id for cap in truth.capabilities
            if cap.capability_class.action == "transport_river"
            and cap.capability_class.operand_name == "phosphorus"
            and specs[cap.destination].external_id in net.estuary_ids}
        assert system.d.shape == (1, len(truth.capabilities))
        assert set(system.d.indices.tolist()) == terminal
        assert (system.d.data == 1.0).all()

    def test_empty_group_rejected(self, chain_network):
        # a datum whose capability group is empty gives no row, only a note
        caps = [c for c in chain_caps(chain_network)
                if c.capability_class.action != "transport_river"]
        system, skipped = ms.assemble_eot_constraints(
            [ms.LoadRecord("alpha", "nitrogen", "EoT", 4.0)], chain_network,
            ms.capability_table(chain_network, caps))
        assert len(system) == 0
        assert "no estuary-bound river transport" in skipped[0]

    def test_identity_grouping(self):
        # one county per land segment: every accept and EoS row selects
        # exactly one capability, and no two rows share one
        net, truth, datasets = bf.generate_synthetic(5, seed=3)
        for assemble, records in ((ms.assemble_accept_constraints,
                                   datasets.applied),
                                  (ms.assemble_eos_constraints, datasets.loads)):
            system, _ = assemble(records, net,
                                 ms.capability_table(net, truth.capabilities))
            assert (system.d.getnnz(axis=1) == 1).all()
            assert (system.d.data == 1.0).all()
            assert len(set(system.d.indices.tolist())) == len(system)

    def test_out_of_range(self, chain_network):
        caps = chain_caps(chain_network)
        records = [ms.AppliedNutrientRecord("alpha", "developed",
                                            "nitrogen", 1.0)]
        with pytest.raises(ValueError, match="lacks a capability"):
            ms.assemble_accept_constraints(
                records, chain_network, ms.capability_table(
                    chain_network,
                    [c for c in caps
                     if c.capability_class.sector != "developed"]))


class TestTemporalAggregation:
    """``expand_constraints`` applies the paper's D_T."""

    @pytest.fixture(scope="class")
    def system(self):
        net, truth, datasets = bf.generate_synthetic(6, branching=2, seed=4)
        return build_constraints(net, truth.capabilities, datasets)[0]

    def test_annual_datum_column_of_ones(self, system):
        data = ~system.relation
        for k_steps in (2, 3):
            lifted = ms.expand_constraints(system, k_steps)
            expected = sp.kron(np.ones((1, k_steps)), system.d[data])
            assert np.array_equal(lifted.d[~lifted.relation].toarray(),
                                  expected.toarray())
            assert [lifted.label[r] for r in np.flatnonzero(~lifted.relation)] \
                == [system.label[r] for r in np.flatnonzero(data)]
            assert np.array_equal(lifted.constant[~lifted.relation],
                                  system.constant[data])

    def test_two_step_diagonal(self, system):
        lifted = ms.expand_constraints(system, 2)
        rel = system.d[system.relation]
        # each relation row's two copies are consecutive: undo that order
        copies = lifted.d[lifted.relation].toarray()
        by_step = np.vstack([copies[0::2], copies[1::2]])
        assert np.array_equal(by_step, sp.kron(sp.identity(2), rel).toarray())
        labels = [lifted.label[r] for r in np.flatnonzero(lifted.relation)]
        head, _, operand = system.label[np.flatnonzero(system.relation)[0]] \
            .rpartition("/")
        assert labels[:2] == [f"{head}@k1/{operand}", f"{head}@k2/{operand}"]

    def test_zero_steps_rejected(self, system):
        with pytest.raises(ValueError, match="k_steps"):
            ms.expand_constraints(system, 0)

    def test_lifted_system_rejected(self, system):
        with pytest.raises(ValueError, match="already spans 2 steps"):
            ms.expand_constraints(ms.expand_constraints(system, 2), 3)


class TestWeightedDeliveryFactor:
    def test_single_source(self):
        assert ms.weighted_delivery_factor({"a": 0.4}, {"a": 50.0}) == 0.4

    def test_equal_areas(self):
        value = ms.weighted_delivery_factor({"a": 0.2, "b": 0.6},
                                            {"a": 100.0, "b": 100.0})
        assert value == pytest.approx(0.4, rel=1e-15)

    def test_unequal_areas(self):
        # (0.2 * 300 + 0.6 * 100) / 400
        value = ms.weighted_delivery_factor({"a": 0.2, "b": 0.6},
                                            {"a": 300.0, "b": 100.0})
        assert value == pytest.approx(0.3, rel=1e-15)

    def test_factor_without_area_warns_and_skips(self):
        with pytest.warns(ms.DataConsistencyWarning, match="no area"):
            value = ms.weighted_delivery_factor(
                {"a": 0.2, "ghost": 0.9}, {"a": 100.0})
        assert value == 0.2

    def test_zero_total_area(self):
        with pytest.raises(ValueError, match="area"):
            ms.weighted_delivery_factor({"a": 0.2}, {"a": 0.0})

    def test_no_shared_sources(self):
        with pytest.raises(ValueError, match="no load source"):
            with pytest.warns(ms.DataConsistencyWarning):
                ms.weighted_delivery_factor({"a": 0.2}, {"b": 1.0})


class TestInteroutletDeliveryFactor:
    def test_halving(self):
        assert ms.interoutlet_delivery_factor(0.3, 0.6) == pytest.approx(0.5)

    def test_identical_segments(self):
        assert ms.interoutlet_delivery_factor(0.37, 0.37) == 1.0

    def test_inconsistency_retained_with_warning(self):
        with pytest.warns(ms.DataConsistencyWarning, match="> 1"):
            assert ms.interoutlet_delivery_factor(0.8, 0.4) == pytest.approx(2.0)

    def test_zero_downstream_names_segment(self):
        with pytest.raises(ValueError, match="seg-d"):
            ms.interoutlet_delivery_factor(0.5, 0.0, segment="seg-d")


class TestOutletDeliveryFactor:
    def test_single(self):
        assert ms.outlet_delivery_factor([0.5]) == 0.5

    def test_mean(self):
        assert ms.outlet_delivery_factor([0.2, 0.4]) == pytest.approx(0.3)

    def test_idempotent(self):
        assert ms.outlet_delivery_factor([0.7, 0.7, 0.7]) == pytest.approx(0.7)

    def test_empty(self):
        with pytest.raises(ValueError):
            ms.outlet_delivery_factor([])


def chain_caps(chain_network):
    return instantiate_capabilities(chain_network, default_operands())


class TestAcceptConstraints:
    def test_single_land_county(self, chain_network):
        caps = chain_caps(chain_network)
        records = [ms.AppliedNutrientRecord("alpha", "agricultural",
                                            "nitrogen", 100.0)]
        constraints, skipped = ms.assemble_accept_constraints(
            records, chain_network, ms.capability_table(chain_network, caps))
        assert skipped == []
        assert len(constraints) == 1
        con = constraints[0]
        assert con.constant == 100.0
        assert con.label == "accept/alpha/agricultural/nitrogen"
        coefs = dict(con.coefficients)
        assert list(coefs.values()) == [1.0]
        ((_, cap_id),) = coefs.keys()
        assert caps[cap_id].capability_class.sector == "agricultural"
        assert caps[cap_id].capability_class.operand_name == "nitrogen"

    def test_multi_land_county(self):
        net, truth, _ = bf.generate_synthetic(
            1, seed=3, land_per_outlet=(3, 3), county_mode="grouped")
        county = net.land_segments[0].county
        n_in_county = sum(1 for l in net.land_segments if l.county == county)
        records = [ms.AppliedNutrientRecord(county, "developed",
                                            "phosphorus", 10.0)]
        constraints, _ = ms.assemble_accept_constraints(
            records, net, ms.capability_table(net, truth.capabilities))
        assert len(constraints[0].coefficients) == n_in_county
        assert all(v == 1.0 for _, v in constraints[0].coefficients)

    def test_two_counties_disjoint(self):
        net, truth, _ = bf.generate_synthetic(2, seed=3, land_per_outlet=(1, 1))
        records = [
            ms.AppliedNutrientRecord(net.land_segments[0].county,
                                     "agricultural", "nitrogen", 5.0),
            ms.AppliedNutrientRecord(net.land_segments[1].county,
                                     "agricultural", "nitrogen", 7.0),
        ]
        constraints, _ = ms.assemble_accept_constraints(
            records, net, ms.capability_table(net, truth.capabilities))
        supports = [set(dict(c.coefficients)) for c in constraints]
        assert supports[0].isdisjoint(supports[1])

    def test_unknown_county_skipped(self, chain_network):
        caps = chain_caps(chain_network)
        records = [ms.AppliedNutrientRecord("nowhere", "agricultural",
                                            "nitrogen", 1.0)]
        constraints, skipped = ms.assemble_accept_constraints(
            records, chain_network, ms.capability_table(chain_network, caps))
        assert len(constraints) == 0
        assert "nowhere" in skipped[0]


class TestEosEotConstraints:
    def test_eos_single_land(self, chain_network):
        caps = chain_caps(chain_network)
        records = [ms.LoadRecord("alpha", "nitrogen", "EoS", 50.0)]
        constraints, skipped = ms.assemble_eos_constraints(
            records, chain_network, ms.capability_table(chain_network, caps))
        assert skipped == []
        ((_, cap_id), coef), = constraints[0].coefficients
        assert coef == 1.0
        assert caps[cap_id].capability_class.action == "transport_land"
        assert constraints[0].constant == 50.0

    def test_eos_missing_county(self, chain_network):
        caps = chain_caps(chain_network)
        records = [ms.LoadRecord("nowhere", "nitrogen", "EoS", 50.0)]
        constraints, skipped = ms.assemble_eos_constraints(
            records, chain_network, ms.capability_table(chain_network, caps))
        assert len(constraints) == 0 and skipped

    def test_eot_single_estuary(self, chain_network):
        caps = chain_caps(chain_network)
        records = [ms.LoadRecord("alpha", "nitrogen", "EoT", 25.0)]
        constraints, _ = ms.assemble_eot_constraints(
            records, chain_network, ms.capability_table(chain_network, caps))
        assert len(constraints) == 1
        ((_, cap_id), coef), = constraints[0].coefficients
        assert caps[cap_id].capability_class.action == "transport_river"
        assert constraints[0].constant == 25.0

    def test_eot_sums_counties_and_counts_terminal_links(self):
        net, truth, _ = bf.generate_synthetic(6, branching=3, seed=8)
        terminal = [l for l in net.river_links if l.to_node in net.estuary_ids]
        records = [
            ms.LoadRecord("c1", "nitrogen", "EoT", 10.0),
            ms.LoadRecord("c2", "nitrogen", "EoT", 15.0),
        ]
        constraints, _ = ms.assemble_eot_constraints(
            records, net, ms.capability_table(net, truth.capabilities))
        assert len(constraints) == 1
        assert constraints[0].constant == 25.0
        assert len(constraints[0].coefficients) == len(terminal)

    def test_eot_zero_constant(self, chain_network):
        caps = chain_caps(chain_network)
        records = [ms.LoadRecord("alpha", "nitrogen", "EoT", 0.0)]
        constraints, _ = ms.assemble_eot_constraints(
            records, chain_network, ms.capability_table(chain_network, caps))
        assert constraints[0].constant == 0.0


class TestTransportRelations:
    def make_delivery(self, chain_network, land_product, rtb):
        return ms.DeliveryModel(
            land_factor={"land-1": land_product},
            outlet_river_to_bay={"out-1": rtb},
            link_ratio={("out-1", "bay"): rtb},
        )

    def test_chain_land_relation(self, chain_network):
        caps = chain_caps(chain_network)
        relations = ms.assemble_transport_relations(
            chain_network, ms.capability_table(chain_network, caps),
            self.make_delivery(chain_network, 0.5, 0.6))
        row = next(c for c in relations
                   if c.label == "transport/land/land-1/nitrogen")
        assert row.constant == 0.0
        by_cap = {cap: v for (_, cap), v in row.coefficients}
        values = sorted(by_cap.values())
        assert values == [-0.5, -0.5, 1.0]
        transport_cap = next(c for c, v in by_cap.items() if v == 1.0)
        assert caps[transport_cap].capability_class.action == "transport_land"

    def test_pass_through_ratio(self, chain_network):
        caps = chain_caps(chain_network)
        relations = ms.assemble_transport_relations(
            chain_network, ms.capability_table(chain_network, caps),
            self.make_delivery(chain_network, 0.5, 1.0))
        river_rows = [c for c in relations
                      if c.label.startswith("transport/river/")]
        row = river_rows[0]
        coef_values = sorted(v for _, v in row.coefficients)
        assert coef_values == [-1.0, 1.0]

    def test_confluence_inflows(self):
        net, truth, datasets = bf.generate_synthetic(
            3, branching=2, seed=17, land_per_outlet=(1, 1))
        # seed 17 gives outlet-0001 two upstream children or land; find a
        # link whose upstream outlet has inbound links
        delivery = ms.compute_delivery_model(
            net, datasets.delivery_factors, datasets.areas)
        relations = ms.assemble_transport_relations(
            net, ms.capability_table(net, truth.capabilities), delivery)
        for link in net.river_links:
            inbound = net.links_into.get(link.from_outlet, ())
            if not inbound:
                continue
            label = f"transport/river/{link.from_outlet}->{link.to_node}/nitrogen"
            row = next(c for c in relations if c.label == label)
            ratio = delivery.link_ratio[(link.from_outlet, link.to_node)]
            negative = [v for _, v in row.coefficients if v < 0]
            # one -ratio per land transport plus one per inbound link
            expected = len(net.land_by_outlet[link.from_outlet]) + len(inbound)
            assert len(negative) == expected
            assert all(v == pytest.approx(-ratio) for v in negative)
            return
        pytest.fail("no confluence found in fixture")


class TestComputeWeights:
    def test_reference_points(self, chain_network):
        caps = chain_caps(chain_network)

        def weight_for(constant):
            records = [ms.LoadRecord("alpha", "nitrogen", "EoT", constant)]
            cons, _ = ms.assemble_eot_constraints(
                records, chain_network, ms.capability_table(chain_network, caps))
            return ms.compute_weights(cons)[0].weight

        assert weight_for(10.0) == 0.01
        assert weight_for(0.0) == 0.5
        assert weight_for(1.0) == 0.5

    @given(st.floats(0, 1e9, allow_nan=False))
    @settings(max_examples=100)
    def test_weight_range_and_monotonicity(self, c):
        w = 1.0 / max(c * c, ms.WEIGHT_FLOOR)
        assert 0 < w <= 0.5
        w_bigger = 1.0 / max((c + 1.0) ** 2, ms.WEIGHT_FLOOR)
        assert w_bigger <= w


@pytest.fixture(scope="module")
def bundle():
    net, truth, datasets = bf.generate_synthetic(10, branching=3, seed=21)
    constraints, _ = build_constraints(net, truth.capabilities, datasets)
    return net, truth, constraints


class TestFamilyInvariants:
    def test_operand_consistency(self, bundle):
        _, truth, constraints = bundle
        for con, operand in zip(constraints, constraints.operand):
            for (_, cap), _ in con.coefficients:
                assert (truth.capabilities[cap].capability_class.operand_name
                        == operand)

    def test_family_partition(self, bundle):
        _, _, constraints = bundle
        for family in ("accept", "eos", "eot"):
            seen: set[int] = set()
            for con, con_family in zip(constraints, constraints.family):
                if con_family != family:
                    continue
                caps = {cap for (_, cap), _ in con.coefficients}
                assert seen.isdisjoint(caps)
                seen |= caps

    def test_ground_truth_satisfies_everything(self, bundle):
        _, truth, constraints = bundle
        for con in constraints:
            lhs = sum(coef * truth.u[cap]
                      for (_, cap), coef in con.coefficients)
            scale = max(abs(con.constant), 1.0)
            assert abs(lhs - con.constant) <= 1e-10 * scale


class TestExpandConstraints:
    def test_single_step_passthrough(self, chain_network):
        caps = chain_caps(chain_network)
        cons, _ = ms.assemble_eot_constraints(
            [ms.LoadRecord("alpha", "nitrogen", "EoT", 9.0)],
            chain_network, ms.capability_table(chain_network, caps))
        assert ms.expand_constraints(cons, 1) is cons

    def test_relations_replicate_data_spreads(self, chain_network):
        caps = chain_caps(chain_network)
        delivery = ms.DeliveryModel({"land-1": 0.5}, {"out-1": 0.5},
                                    {("out-1", "bay"): 0.5})
        relations = ms.assemble_transport_relations(
            chain_network, ms.capability_table(chain_network, caps), delivery)
        data, _ = ms.assemble_eot_constraints(
            [ms.LoadRecord("alpha", "nitrogen", "EoT", 9.0)],
            chain_network, ms.capability_table(chain_network, caps))
        out = ms.expand_constraints(
            ms.compute_weights(ms.stack_systems([relations, data])), 3)
        relation_rows = [out[r] for r in np.flatnonzero(out.relation)]
        # every relation row is replicated per step
        assert len(relation_rows) == 3 * len(relations)
        assert {k for c in relation_rows
                for (k, _), _ in c.coefficients} == {1, 2, 3}
        data_rows = [out[r] for r in np.flatnonzero(~out.relation)]
        assert len(data_rows) == 1
        assert {k for (k, _), _ in data_rows[0].coefficients} == {1, 2, 3}

    def test_zero_datum_stays_one_horizon_row(self, chain_network):
        # a zero-mass record is still a datum on the horizon total, not a
        # relation to replicate per step
        caps = chain_caps(chain_network)
        data, _ = ms.assemble_accept_constraints(
            [ms.AppliedNutrientRecord("alpha", "developed", "phosphorus", 0.0)],
            chain_network, ms.capability_table(chain_network, caps))
        out = ms.expand_constraints(ms.compute_weights(data), 3)
        assert len(out) == 1
        assert out[0].label == "accept/alpha/developed/phosphorus"
        assert {k for (k, _), _ in out[0].coefficients} == {1, 2, 3}


class TestParsing:
    def test_round_trip_files(self, tmp_path):
        _, _, datasets = bf.generate_synthetic(3, seed=11)
        ms.write_applied(tmp_path / "a.csv", datasets.applied)
        ms.write_loads(tmp_path / "l.csv", datasets.loads)
        ms.write_delivery_factors(tmp_path / "d.csv", datasets.delivery_factors)
        ms.write_areas(tmp_path / "ar.csv", datasets.areas)
        assert tuple(ms.read_applied(tmp_path / "a.csv")) == datasets.applied
        assert tuple(ms.read_loads(tmp_path / "l.csv")) == datasets.loads
        assert tuple(ms.read_delivery_factors(tmp_path / "d.csv")) == \
            datasets.delivery_factors
        assert tuple(ms.read_areas(tmp_path / "ar.csv")) == datasets.areas

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("county,sector,mass\nalpha,agricultural,5\n")
        with pytest.raises(ms.DatasetFormatError, match="operand"):
            ms.read_applied(path)

    def test_short_row_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("county,sector,operand,mass\n\n"
                        "alpha,agricultural,nitrogen,5\nbeta,developed\n")
        with pytest.raises(ms.DatasetFormatError, match="line 4: 2 fields"):
            ms.read_applied(path)

    def test_bad_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("county,sector,operand,mass\nalpha,agricultural,nitrogen,lots\n")
        with pytest.raises(ms.DatasetFormatError, match="lots"):
            ms.read_applied(path)

    def test_operand_case_insensitive(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("county,sector,operand,mass\nalpha,agricultural,Nitrogen,5\n")
        assert ms.read_applied(path)[0].operand == "nitrogen"

    def test_unsupported_sector_rejected(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("county,sector,operand,mass\nalpha,septic,nitrogen,5\n")
        with pytest.raises(ValueError, match="septic"):
            ms.read_applied(path)

    def test_factor_above_one_warns(self):
        with pytest.warns(ms.DataConsistencyWarning, match="retained"):
            ms.DeliveryFactorRecord("seg", "src", "landToWater", 1.4)

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            ms.AppliedNutrientRecord("alpha", "developed", "nitrogen", -1.0)


class TestDeliveryModelPolicies:
    def test_missing_factor_errors_by_default(self, chain_network):
        with pytest.raises(ValueError, match="landToWater"):
            ms.compute_delivery_model(chain_network, [], None)

    def test_passthrough_defaults_to_one(self, chain_network):
        with pytest.warns(ms.DataConsistencyWarning):
            model = ms.compute_delivery_model(
                chain_network, [], None, missing_policy="passthrough")
        assert model.land_factor["land-1"] == 1.0
        assert model.link_ratio[("out-1", "bay")] == 1.0

    def test_areas_fall_back_to_network(self, chain_network):
        dfs = [
            ms.DeliveryFactorRecord("land-1", "row_crops", stage, 0.5)
            for stage in ms.DF_STAGES
        ]
        model = ms.compute_delivery_model(chain_network, dfs, None)
        assert model.land_factor["land-1"] == pytest.approx(0.25)
