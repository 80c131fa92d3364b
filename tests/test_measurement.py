import contextlib
import csv
import hashlib
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import basinflow as bf
from basinflow import measurement as ms
from basinflow import report
from basinflow.core_net import OPERAND_NAMES
from basinflow.topology import instantiate_capabilities, load_network

from basinflow.cli import main
from pipeline_util import build_constraints, make_network


class TestCapabilityAggregation:
    """The one-step matrix ``d`` is the paper's D_E."""

    def test_single_row(self):
        # the EoT datum's row selects each estuary-bound river transport of
        # its operand once
        net, truth, _ = bf.generate_synthetic(8, branching=2, seed=5)
        system, _ = ms.assemble_eot_constraints(
            ms.table(ms.LOADS, [("county-0001", "phosphorus", "EoT", 3.0)]), net,
            truth.capabilities)
        first_estuary = len(net.land_segments) + len(net.outlets)
        terminal = {
            cap.id for cap in truth.capabilities
            if cap.capability_class.action == "transport_river"
            and cap.capability_class.operand_name == "phosphorus"
            and cap.destination >= first_estuary}
        assert system.d.shape == (1, len(truth.capabilities))
        assert set(system.d.indices.tolist()) == terminal
        assert (system.d.data == 1.0).all()

    def test_empty_group_rejected(self):
        # a datum whose capability group is empty gives no row, only a note:
        # two outlets that drain into each other leave no estuary-bound link
        net = make_network(
            land_segments=[("land-1", "alpha", "seg-1",
                            (("row_crops", 100.0),), None)],
            outlets=[("out-1", "seg-1", None), ("out-2", "seg-2", None)],
            river_links=[("out-1", "out-2"), ("out-2", "out-1")],
            estuaries=[("bay", None)],
        )
        system, skipped = ms.assemble_eot_constraints(
            ms.table(ms.LOADS, [("alpha", "nitrogen", "EoT", 4.0)]),
            net, instantiate_capabilities(net))
        assert len(system) == 0
        assert "no estuary-bound river transport" in skipped[0]

    def test_empty_group_notes_in_order(self):
        # the county notes first, then one note per operand, each in order
        # of first appearance
        net = make_network(
            land_segments=[("land-1", "alpha", "seg-1", (), None)],
            outlets=[("out-1", "seg-1", None), ("out-2", "seg-2", None)],
            river_links=[("out-1", "out-2"), ("out-2", "out-1")],
            estuaries=[("bay", None)],
        )
        system, skipped = ms.assemble_eot_constraints(
            ms.table(ms.LOADS, [("alpha", "phosphorus", "EoT", 4.0),
                                ("nowhere", "nitrogen", "EoT", 1.0),
                                ("alpha", "nitrogen", "EoT", 2.0),
                                ("elsewhere", "nitrogen", "EoT", 3.0)]),
            net, instantiate_capabilities(net))
        assert len(system) == 0 and system.d.nnz == 0
        assert skipped == [
            "EoT record for county 'nowhere' matches no land segment; left "
            "out of the end-of-tide total",
            "EoT record for county 'elsewhere' matches no land segment; left "
            "out of the end-of-tide total",
            "EoT record for operand 'phosphorus' but the network has no "
            "estuary-bound river transport; constraint skipped",
            "EoT record for operand 'nitrogen' but the network has no "
            "estuary-bound river transport; constraint skipped"]

    def test_identity_grouping(self):
        # one county per land segment: every accept and EoS row selects
        # exactly one capability, and no two rows share one
        net, truth, datasets = bf.generate_synthetic(5, seed=3)
        for assemble, records in ((ms.assemble_accept_constraints,
                                   datasets.applied),
                                  (ms.assemble_eos_constraints, datasets.loads)):
            system, _ = assemble(records, net,
                                 truth.capabilities)
            assert (system.d.getnnz(axis=1) == 1).all()
            assert (system.d.data == 1.0).all()
            assert len(set(system.d.indices.tolist())) == len(system)


class TestTemporalAggregation:
    """``expand_constraints`` applies the paper's D_T."""

    @pytest.fixture(scope="class")
    def system(self):
        net, truth, datasets = bf.generate_synthetic(6, branching=2, seed=4)
        return build_constraints(net, truth.capabilities, datasets)[0]

    def test_annual_datum_column_of_ones(self, system):
        data = np.flatnonzero(system.family != ms.TRANSPORT)
        for k_steps in (2, 3):
            lifted = ms.expand_constraints(system, k_steps)
            lifted_data = np.flatnonzero(lifted.family != ms.TRANSPORT)
            expected = sp.kron(np.ones((1, k_steps)), system.d[data])
            assert np.array_equal(lifted.d[lifted_data].toarray(),
                                  expected.toarray())
            assert ms.row_labels(lifted, lifted_data) \
                == ms.row_labels(system, data)
            assert np.array_equal(lifted.constant[lifted_data],
                                  system.constant[data])

    def test_two_step_diagonal(self, system):
        lifted = ms.expand_constraints(system, 2)
        rel = np.flatnonzero(system.family == ms.TRANSPORT)
        lifted_rel = np.flatnonzero(lifted.family == ms.TRANSPORT)
        # each relation row's two copies are consecutive: undo that order
        copies = lifted.d[lifted_rel].toarray()
        by_step = np.vstack([copies[0::2], copies[1::2]])
        assert np.array_equal(by_step,
                              sp.kron(sp.identity(2), system.d[rel]).toarray())
        assert [lifted.key[r] for r in lifted_rel] \
            == [system.key[r] for r in np.repeat(rel, 2)]
        key = "/".join(system.key[rel[0]])
        operand = OPERAND_NAMES[system.operand[rel[0]]]
        assert ms.row_labels(lifted, lifted_rel[:2]) == [
            f"transport/{key}@k1/{operand}", f"transport/{key}@k2/{operand}"]

    def test_zero_steps_rejected(self, system):
        with pytest.raises(ValueError, match="k_steps"):
            ms.expand_constraints(system, 0)

    def test_lifted_system_rejected(self, system):
        with pytest.raises(ValueError, match="already spans 2 steps"):
            ms.expand_constraints(ms.expand_constraints(system, 2), 3)


def delivery_model(network, rows, areas):
    """``compute_delivery_model`` on ``network`` with ``rows`` of (segment,
    load_source, factor) at every stage, and ``areas`` rows of (segment,
    load_source, acres)."""
    factors = ms.table(ms.DELIVERY_FACTORS, [
        (segment, source, stage, factor)
        for segment, source, factor in rows for stage in ms.DF_STAGES])
    return ms.compute_delivery_model(network, factors,
                                     ms.table(ms.AREAS, areas))


class TestWeightedDeliveryFactor:
    """A stage factor is the area-weighted mean over load sources."""

    def weighted(self, chain_network, factors, areas):
        model = delivery_model(
            chain_network, [("land-1", k, v) for k, v in factors.items()],
            [("land-1", k, v) for k, v in areas.items()])
        return model.outlet_river_to_bay[0]

    def test_single_source(self, chain_network):
        assert self.weighted(chain_network, {"a": 0.4}, {"a": 50.0}) == 0.4

    def test_equal_areas(self, chain_network):
        value = self.weighted(chain_network, {"a": 0.2, "b": 0.6},
                              {"a": 100.0, "b": 100.0})
        assert value == pytest.approx(0.4, rel=1e-15)

    def test_unequal_areas(self, chain_network):
        # (0.2 * 300 + 0.6 * 100) / 400, at every stage
        model = delivery_model(chain_network,
                             [("land-1", "a", 0.2), ("land-1", "b", 0.6)],
                             [("land-1", "a", 300.0), ("land-1", "b", 100.0)])
        assert model.outlet_river_to_bay[0] == pytest.approx(0.3, rel=1e-15)
        assert model.land_factor[0] == pytest.approx(0.09, rel=1e-15)

    def test_factor_without_area_warns_and_skips(self, chain_network):
        with pytest.warns(ms.DataConsistencyWarning,
                          match="'ghost' has a delivery factor but no area"):
            value = self.weighted(chain_network, {"a": 0.2, "ghost": 0.9},
                                  {"a": 100.0})
        assert value == 0.2

    def test_zero_total_area(self, chain_network):
        with pytest.raises(ValueError, match="area"):
            self.weighted(chain_network, {"a": 0.2}, {"a": 0.0})

    def test_no_shared_sources(self, chain_network):
        with pytest.raises(ValueError, match="no load source"):
            with pytest.warns(ms.DataConsistencyWarning):
                self.weighted(chain_network, {"a": 0.2}, {"b": 1.0})


def two_outlet_network():
    """land-1 -> out-1 -> out-2 -> bay, and land-2 -> out-2."""
    return make_network(
        land_segments=[("land-1", "alpha", "seg-1", (), None),
                       ("land-2", "beta", "seg-2", (), None)],
        outlets=[("out-1", "seg-1", None), ("out-2", "seg-2", None)],
        river_links=[("out-1", "out-2"), ("out-2", "bay")],
        estuaries=[("bay", None)],
    )


class TestInteroutletDeliveryFactor:
    """A link between outlets carries the ratio of their river-to-bay
    factors; an estuary link carries the upstream factor itself."""

    def link_ratio(self, up, down):
        model = delivery_model(two_outlet_network(),
                             [("land-1", "a", up), ("land-2", "a", down)],
                             [("land-1", "a", 1.0), ("land-2", "a", 1.0)])
        assert model.link_ratio[1] == down
        return model.link_ratio[0]

    def test_halving(self):
        assert self.link_ratio(0.3, 0.6) == pytest.approx(0.5)

    def test_identical_segments(self):
        assert self.link_ratio(0.37, 0.37) == 1.0

    def test_inconsistency_retained_with_warning(self):
        with pytest.warns(ms.DataConsistencyWarning,
                          match="ratio 2 > 1 at segment 'out-2'"):
            assert self.link_ratio(0.8, 0.4) == pytest.approx(2.0)

    def test_zero_downstream_names_segment(self):
        with pytest.raises(ValueError, match="zero for segment 'out-2'"):
            self.link_ratio(0.5, 0.0)

    def test_links_out_of_outlet_order(self, two_estuary_network):
        # out-1 averages land-2 and land-4; each estuary link keeps its
        # upstream outlet's factor, whichever estuary it reaches
        model = delivery_model(
            two_estuary_network,
            [("land-1", "a", 0.5), ("land-2", "a", 0.8), ("land-3", "a", 0.4),
             ("land-4", "a", 0.6)],
            [(f"land-{i}", "a", 1.0) for i in range(1, 5)])
        assert model.outlet_river_to_bay.tolist() == pytest.approx([0.7, 0.5, 0.4])
        assert model.link_ratio.tolist() == pytest.approx([0.4 / 0.7, 0.5, 0.7])


class TestOutletDeliveryFactor:
    """An outlet's river-to-bay factor is the unweighted mean over the land
    segments draining to it."""

    def outlet_factor(self, factors):
        lands = [f"land-{i}" for i in range(len(factors))]
        network = make_network(
            [(land, "alpha", "seg-1", (), None) for land in lands],
            [("out-1", "seg-1", None)], [("out-1", "bay")], [("bay", None)])
        model = delivery_model(
            network,
            [(land, "a", f) for land, f in zip(lands, factors)],
            [(land, "a", 10.0 * (i + 1)) for i, land in enumerate(lands)])
        return model.outlet_river_to_bay[0]

    def test_single(self):
        assert self.outlet_factor([0.5]) == 0.5

    def test_mean(self):
        assert self.outlet_factor([0.2, 0.4]) == pytest.approx(0.3)

    def test_idempotent(self):
        assert self.outlet_factor([0.7, 0.7, 0.7]) == pytest.approx(0.7)

    def test_empty(self):
        with pytest.raises(ValueError, match="no contributing land segments"):
            self.outlet_factor([])


def chain_caps(chain_network):
    return instantiate_capabilities(chain_network)


class TestAcceptConstraints:
    def test_single_land_county(self, chain_network):
        caps = chain_caps(chain_network)
        records = ms.table(ms.APPLIED,
                           [("alpha", "agricultural", "nitrogen", 100.0)])
        constraints, skipped = ms.assemble_accept_constraints(
            records, chain_network, caps)
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
        records = ms.table(ms.APPLIED, [(county, "developed", "phosphorus", 10.0)])
        constraints, _ = ms.assemble_accept_constraints(
            records, net, truth.capabilities)
        assert len(constraints[0].coefficients) == n_in_county
        assert all(v == 1.0 for _, v in constraints[0].coefficients)

    def test_two_counties_disjoint(self):
        net, truth, _ = bf.generate_synthetic(2, seed=3, land_per_outlet=(1, 1))
        records = ms.table(ms.APPLIED, [
            (net.land_segments[0].county, "agricultural", "nitrogen", 5.0),
            (net.land_segments[1].county, "agricultural", "nitrogen", 7.0),
        ])
        constraints, _ = ms.assemble_accept_constraints(
            records, net, truth.capabilities)
        supports = [set(dict(c.coefficients)) for c in constraints]
        assert supports[0].isdisjoint(supports[1])

    def test_repeated_records_add_up(self, chain_network, tmp_path):
        # applied and loads records have no key: repeats of one key sum in
        # row order, where a repeated delivery factor or area is an error
        applied, loads = tmp_path / "applied.csv", tmp_path / "loads.csv"
        applied.write_text("county,sector,operand,mass\n"
                           "alpha,agricultural,nitrogen,1.5\n"
                           "alpha,developed,nitrogen,4.0\n"
                           "alpha,agricultural,nitrogen,2.25\n")
        loads.write_text("county,operand,kind,mass\n"
                         "alpha,nitrogen,EoS,1.5\nalpha,nitrogen,EoT,0.5\n"
                         "alpha,nitrogen,EoS,2.25\nalpha,nitrogen,EoT,0.25\n")
        system, _, _ = ms.assemble_system(
            chain_network, chain_caps(chain_network), ms.read_applied(applied),
            ms.read_loads(loads), None)
        assert list(zip(ms.row_labels(system), system.constant.tolist())) == [
            ("accept/alpha/agricultural/nitrogen", 3.75),
            ("accept/alpha/developed/nitrogen", 4.0),
            ("eos/alpha/nitrogen", 3.75), ("eot/nitrogen", 0.75)]

    def test_unknown_county_skipped(self, chain_network):
        caps = chain_caps(chain_network)
        records = ms.table(ms.APPLIED,
                           [("nowhere", "agricultural", "nitrogen", 1.0)])
        constraints, skipped = ms.assemble_accept_constraints(
            records, chain_network, caps)
        assert len(constraints) == 0
        assert "nowhere" in skipped[0]


class TestEosEotConstraints:
    def test_eos_single_land(self, chain_network):
        caps = chain_caps(chain_network)
        records = ms.table(ms.LOADS, [("alpha", "nitrogen", "EoS", 50.0)])
        constraints, skipped = ms.assemble_eos_constraints(
            records, chain_network, caps)
        assert skipped == []
        ((_, cap_id), coef), = constraints[0].coefficients
        assert coef == 1.0
        assert caps[cap_id].capability_class.action == "transport_land"
        assert constraints[0].constant == 50.0

    def test_eos_missing_county(self, chain_network):
        caps = chain_caps(chain_network)
        records = ms.table(ms.LOADS, [("nowhere", "nitrogen", "EoS", 50.0)])
        constraints, skipped = ms.assemble_eos_constraints(
            records, chain_network, caps)
        assert len(constraints) == 0 and skipped

    def test_eot_county_outside_network_left_out(self, chain_network):
        caps = chain_caps(chain_network)
        records = ms.table(ms.LOADS, [("alpha", "nitrogen", "EoT", 25.0),
                                      ("nowhere", "nitrogen", "EoT", 1000.0),
                                      ("nowhere", "phosphorus", "EoT", 9.0)])
        constraints, skipped = ms.assemble_eot_constraints(
            records, chain_network, caps)
        assert constraints.constant.tolist() == [25.0]
        assert skipped == ["EoT record for county 'nowhere' matches no land "
                           "segment; left out of the end-of-tide total"]

    def test_eot_single_estuary(self, chain_network):
        caps = chain_caps(chain_network)
        records = ms.table(ms.LOADS, [("alpha", "nitrogen", "EoT", 25.0)])
        constraints, _ = ms.assemble_eot_constraints(
            records, chain_network, caps)
        assert len(constraints) == 1
        ((_, cap_id), coef), = constraints[0].coefficients
        assert caps[cap_id].capability_class.action == "transport_river"
        assert constraints[0].constant == 25.0

    def test_eot_sums_counties_and_counts_terminal_links(self):
        net, truth, _ = bf.generate_synthetic(6, branching=3, seed=8)
        estuaries = {e.external_id for e in net.estuaries}
        terminal = [l for l in net.river_links if l.to_node in estuaries]
        records = ms.table(ms.LOADS, [
            ("county-0001", "nitrogen", "EoT", 10.0),
            ("county-0002", "nitrogen", "EoT", 15.0),
        ])
        constraints, _ = ms.assemble_eot_constraints(
            records, net, truth.capabilities)
        assert len(constraints) == 1
        assert constraints[0].constant == 25.0
        assert len(constraints[0].coefficients) == len(terminal)

    def test_eot_terminal_links_reach_either_estuary(self, two_estuary_network):
        caps = instantiate_capabilities(two_estuary_network)
        system, skipped = ms.assemble_eot_constraints(
            ms.table(ms.LOADS, [("b", "phosphorus", "EoT", 4.0)]),
            two_estuary_network, caps)
        assert skipped == []
        # links 1 (out-2 -> bay-2) and 2 (out-1 -> bay-1); link 0 ends at out-1
        assert sorted(system.d.indices.tolist()) == \
            caps.river_transport[[1, 2], 1].tolist()

    def test_eot_zero_constant(self, chain_network):
        caps = chain_caps(chain_network)
        records = ms.table(ms.LOADS, [("alpha", "nitrogen", "EoT", 0.0)])
        constraints, _ = ms.assemble_eot_constraints(
            records, chain_network, caps)
        assert constraints[0].constant == 0.0


class TestTransportRelations:
    def make_delivery(self, chain_network, land_product, rtb):
        return ms.DeliveryModel(land_factor=np.array([land_product]),
                                outlet_river_to_bay=np.array([rtb]),
                                link_ratio=np.array([rtb]))

    def test_chain_land_relation(self, chain_network):
        caps = chain_caps(chain_network)
        relations = ms.assemble_transport_relations(
            chain_network, caps,
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
            chain_network, caps,
            self.make_delivery(chain_network, 0.5, 1.0))
        river_rows = [relations[r] for r, key in enumerate(relations.key)
                      if key[0] == "river"]
        row = river_rows[0]
        coef_values = sorted(v for _, v in row.coefficients)
        assert coef_values == [-1.0, 1.0]

    def test_inflow_over_links_out_of_order(self, two_estuary_network):
        net = two_estuary_network
        caps = instantiate_capabilities(net)
        delivery = ms.DeliveryModel(np.ones(4), np.ones(3),
                                    np.array([0.5, 0.25, 0.75]))
        relations = ms.assemble_transport_relations(net, caps, delivery)
        river = [r for r, key in enumerate(relations.key) if key[0] == "river"]
        assert [relations.key[r] for r in river] == [
            ("river", name) for name in ("out-3->out-1", "out-2->bay-2",
                                         "out-1->bay-1") for _ in OPERAND_NAMES]
        # link 2's nitrogen row: out-1 takes land-2, land-4 and link 0
        row = relations[river[4]]
        assert {cap: v for (_, cap), v in row.coefficients} == {
            int(caps.river_transport[2, 0]): 1.0,
            int(caps.land_transport[1, 0]): -0.75,
            int(caps.land_transport[3, 0]): -0.75,
            int(caps.river_transport[0, 0]): -0.75}

    def test_confluence_inflows(self):
        net, truth, datasets = bf.generate_synthetic(
            3, branching=2, seed=17, land_per_outlet=(1, 1))
        # seed 17 gives outlet-0001 two upstream children or land; find a
        # link whose upstream outlet has inbound links
        delivery = ms.compute_delivery_model(
            net, datasets.delivery_factors, datasets.areas)
        relations = ms.assemble_transport_relations(
            net, truth.capabilities, delivery)
        outlet_ids = [outlet.external_id for outlet in net.outlets]
        for i, link in enumerate(net.river_links):
            inbound = [l for l in net.river_links if l.to_node == link.from_outlet]
            if not inbound:
                continue
            label = f"transport/river/{link.from_outlet}->{link.to_node}/nitrogen"
            row = next(c for c in relations if c.label == label)
            ratio = delivery.link_ratio[i]
            negative = [v for _, v in row.coefficients if v < 0]
            # one -ratio per land transport plus one per inbound link
            n_lands = (net.land_outlet == outlet_ids.index(link.from_outlet)).sum()
            expected = n_lands + len(inbound)
            assert len(negative) == expected
            assert all(v == pytest.approx(-ratio) for v in negative)
            return
        pytest.fail("no confluence found in fixture")


class TestComputeWeights:
    def test_reference_points(self, chain_network):
        caps = chain_caps(chain_network)

        def weight_for(constant):
            records = ms.table(ms.LOADS,
                               [("alpha", "nitrogen", "EoT", constant)])
            cons, _ = ms.assemble_eot_constraints(
                records, chain_network, caps)
            [weight] = ms.compute_weights(cons.constant)
            return weight

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
        for con, operand in zip(constraints, constraints.operand.tolist()):
            for (_, cap), _ in con.coefficients:
                assert (truth.capabilities[cap].capability_class.operand_name
                        == OPERAND_NAMES[operand])

    def test_family_partition(self, bundle):
        _, _, constraints = bundle
        for family in (ms.ACCEPT, ms.EOS, ms.EOT):
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


def rows_digest(system):
    """sha256 of a system's D (``indptr``, ``indices``, ``data``) and its
    constants, families, operands and keys; integers are hashed as int64,
    so the digest pins the values, not the index width scipy picks."""
    digest = hashlib.sha256()
    for array, dtype in ((system.d.indptr, np.int64),
                         (system.d.indices, np.int64),
                         (system.d.data, np.float64),
                         (system.constant, np.float64),
                         (system.family, np.int64),
                         (system.operand, np.int64)):
        digest.update(np.ascontiguousarray(array, dtype=dtype).tobytes())
    digest.update(repr(system.key).encode())
    return digest.hexdigest()


# sha256 (``rows_digest``) of the rows the fit report scores, which hold
# the whole measurement system, for the ``synth`` bundles that
# ``test_cli.BUNDLE_DIGESTS`` pins, one step and lifted onto three.
ROW_DIGESTS = {
    ("--outlets", "30", "--seed", "7"): {
        1: "518c14040f752164602c2be750d52a9ea5e1716a001f81e14f304b23d27158d2",
        3: "7ef8e8fbb2ba677277178ba09fd514e6fd35187cf116c876e2506f10f5f3f7bb",
    },
    ("--outlets", "30", "--seed", "7", "--county-mode", "grouped",
     "--land-per-outlet", "2", "4"): {
        1: "de451109e313b3a25d2b466964be2648ae0b42ba6a77f8359479d2324ea5abeb",
        3: "8c4b54a7b1e74fb2e2b730317821af1684a4d842441208aa6a97b85e220a22a2",
    },
}


@pytest.mark.parametrize("args", list(ROW_DIGESTS),
                         ids=["per-segment", "grouped"])
def test_pinned_row_digests(tmp_path, args):
    assert main(["synth", *args, "--out", str(tmp_path)]) == 0
    network = load_network(tmp_path / "network.json")
    delivery = ms.compute_delivery_model(
        network, ms.read_delivery_factors(tmp_path / "delivery_factors.csv"),
        ms.read_areas(tmp_path / "areas.csv"))
    _, fit_rows, _ = ms.assemble_system(
        network, instantiate_capabilities(network),
        ms.read_applied(tmp_path / "applied.csv"),
        ms.read_loads(tmp_path / "loads.csv"), delivery)
    got = {k: rows_digest(ms.expand_constraints(fit_rows, k)) for k in (1, 3)}
    assert got == ROW_DIGESTS[args]


def test_system_is_the_leading_fit_rows():
    # one copy of the one-step rows: the system is a view of the report
    # rows, which add StreamToTide rows after it
    net, truth, datasets = bf.generate_synthetic(10, branching=3, seed=21)
    delivery = ms.compute_delivery_model(net, datasets.delivery_factors,
                                         datasets.areas)
    system, fit_rows, _ = ms.assemble_system(
        net, truth.capabilities, datasets.applied, datasets.loads, delivery)
    n = len(system)
    assert fit_rows.family[n:].tolist() == [ms.STREAM_TO_TIDE] * (len(fit_rows) - n)
    assert ms.STREAM_TO_TIDE not in system.family
    for name in ("data", "indices"):
        assert np.shares_memory(getattr(system.d, name), getattr(fit_rows.d, name))
    for name in ("constant", "family", "operand"):
        assert np.shares_memory(getattr(system, name), getattr(fit_rows, name))
    leading = ms.MeasurementSystem(fit_rows.d[:n], fit_rows.constant[:n],
                                   fit_rows.family[:n], fit_rows.operand[:n],
                                   fit_rows.key[:n])
    assert rows_digest(system) == rows_digest(leading)


class TestExpandConstraints:
    def test_single_step_passthrough(self, chain_network):
        caps = chain_caps(chain_network)
        cons, _ = ms.assemble_eot_constraints(
            ms.table(ms.LOADS, [("alpha", "nitrogen", "EoT", 9.0)]),
            chain_network, caps)
        assert ms.expand_constraints(cons, 1) is cons

    def test_relations_replicate_data_spreads(self, chain_network):
        caps = chain_caps(chain_network)
        delivery = ms.DeliveryModel(np.array([0.5]), np.array([0.5]),
                                    np.array([0.5]))
        relations = ms.assemble_transport_relations(
            chain_network, caps, delivery)
        data, _ = ms.assemble_eot_constraints(
            ms.table(ms.LOADS, [("alpha", "nitrogen", "EoT", 9.0)]),
            chain_network, caps)
        out = ms.expand_constraints(ms.stack_systems([relations, data]), 3)
        relation_rows = [out[r] for r in np.flatnonzero(out.family == ms.TRANSPORT)]
        # every relation row is replicated per step
        assert len(relation_rows) == 3 * len(relations)
        assert {k for c in relation_rows
                for (k, _), _ in c.coefficients} == {1, 2, 3}
        data_rows = [out[r] for r in np.flatnonzero(out.family != ms.TRANSPORT)]
        assert len(data_rows) == 1
        assert {k for (k, _), _ in data_rows[0].coefficients} == {1, 2, 3}

    def test_zero_datum_stays_one_horizon_row(self, chain_network):
        # a zero-mass record is still a datum on the horizon total, not a
        # relation to replicate per step
        caps = chain_caps(chain_network)
        data, _ = ms.assemble_accept_constraints(
            ms.table(ms.APPLIED, [("alpha", "developed", "phosphorus", 0.0)]),
            chain_network, caps)
        out = ms.expand_constraints(data, 3)
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
        for read, name, written in (
                (ms.read_applied, "a.csv", datasets.applied),
                (ms.read_loads, "l.csv", datasets.loads),
                (ms.read_delivery_factors, "d.csv", datasets.delivery_factors),
                (ms.read_areas, "ar.csv", datasets.areas)):
            table = read(tmp_path / name)
            assert table.dtype == written.dtype
            assert np.array_equal(table, written)

    @pytest.mark.parametrize("family, read", [
        ("applied", ms.read_applied), ("loads", ms.read_loads),
        ("delivery_factors", ms.read_delivery_factors),
        ("areas", ms.read_areas)])
    def test_byte_order_mark_ignored(self, tmp_path, family, read):
        # spreadsheet programs save "CSV UTF-8" with a leading BOM
        written = getattr(bf.generate_synthetic(3, seed=11)[2], family)
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        ms.write_table(plain, written)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert np.array_equal(read(marked), read(plain))
        # line numbers in messages are unchanged by the mark
        marked.write_bytes(marked.read_bytes() + b"x,x,x\n")
        with pytest.raises(ms.DatasetFormatError,
                           match=f"line {len(written) + 2}: "):
            read(marked)

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

    # ``float`` reads "1_000" as 1000.0 and Arabic-Indic digits as 12.0, but
    # no CSV writer spells a number either way
    @pytest.mark.parametrize("raw", ["lots", "1_000", "\u0661\u0662"],
                             ids=["lots", "underscore", "arabic-indic"])
    def test_bad_number(self, tmp_path, raw):
        # the blank line 2 counts, so the bad value is named on line 3
        path = tmp_path / "bad.csv"
        path.write_text("county,sector,operand,mass\n\n"
                        f"alpha,agricultural,nitrogen,{raw}\n", encoding="utf-8")
        with pytest.raises(ms.DatasetFormatError,
                           match=re.escape(f"{path} line 3: {raw!r} is not a number")):
            ms.read_applied(path)

    @pytest.mark.parametrize("read, content, message", [
        (ms.read_applied, "county,sector,operand,mass\n"
         "alpha,septic,nitrogen,5\n", "sector 'septic' not supported"),
        (ms.read_applied, "county,sector,operand,mass\n"
         "alpha,developed,nitrogen,-5\n", "applied mass must be >= 0"),
        (ms.read_loads, "county,operand,kind,mass\n"
         "alpha,nitrogen,EoX,5\n", "unknown load kind 'EoX'"),
        (ms.read_loads, "county,operand,kind,mass\n"
         "alpha,nitrogen,EoS,-5\n", "load mass must be >= 0"),
        (ms.read_delivery_factors, "segment,load_source,stage,factor\n"
         "s1,forest,toBay,0.5\n", "unknown stage 'toBay'"),
        (ms.read_delivery_factors, "segment,load_source,stage,factor\n"
         "s1,forest,riverToBay,-0.5\n", "delivery factor must be >= 0"),
        (ms.read_areas, "segment,load_source,acres\n"
         "s1,forest,-1\n", "area must be >= 0"),
        (ms.read_applied, "county,sector,operand,mass\n"
         "alpha,developed,Oxygen,5\n",
         "unknown operand 'Oxygen'; expected nitrogen or phosphorus"),
    ], ids=["sector", "applied_mass", "kind", "load_mass", "stage", "factor",
            "area", "operand"])
    def test_rejected_record_names_file_and_line(self, tmp_path, read,
                                                 content, message):
        path = tmp_path / "bad.csv"
        path.write_text(content)
        with pytest.raises(ms.DatasetFormatError,
                           match=re.escape(f"{path} line 2: {message}")):
            read(path)

    @pytest.mark.parametrize("raw", ["nan", "inf", "-Infinity", "NaN"])
    def test_non_finite_rejected(self, tmp_path, raw):
        path = tmp_path / "bad.csv"
        path.write_text(f"segment,load_source,acres\ns1,forest,{raw}\n")
        with pytest.raises(ms.DatasetFormatError,
                           match=f"line 2: '{raw}' is not a finite number"):
            ms.read_areas(path)

    def test_operand_case_insensitive(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("county,sector,operand,mass\nalpha,agricultural,Nitrogen,5\n")
        assert ms.read_applied(path)[0].operand == "nitrogen"

    def test_equal_text_is_one_shared_str(self, tmp_path):
        # the spellings normalize to one value, held once by every row
        path = tmp_path / "a.csv"
        path.write_text("county,sector,operand,mass\n"
                        "alpha,agricultural,Nitrogen,1\n"
                        " alpha ,Agricultural, nitrogen ,2\n"
                        "alpha,AGRICULTURAL,NITROGEN,3\n")
        table = ms.read_applied(path)
        for name, value in (("county", "alpha"), ("sector", "agricultural"),
                            ("operand", "nitrogen")):
            assert table[name].tolist() == [value] * 3
            assert len({id(v) for v in table[name]}) == 1, name

    def test_unsupported_sector_rejected(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("county,sector,operand,mass\nalpha,septic,nitrogen,5\n")
        with pytest.raises(ValueError, match="septic"):
            ms.read_applied(path)

    def test_factor_above_one_warns(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("segment,load_source,stage,factor\n"
                        "seg,src,landToWater,1.4\n")
        with pytest.warns(ms.DataConsistencyWarning,
                          match="delivery factor 1.4 > 1 for segment 'seg' "
                                "stage landToWater; retained"):
            factors = ms.read_delivery_factors(path)
        assert factors.factor.tolist() == [1.4]

    def test_negative_mass_rejected(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("county,sector,operand,mass\n"
                        "alpha,developed,nitrogen,-1.0\n")
        with pytest.raises(ValueError, match="got -1.0"):
            ms.read_applied(path)

    @pytest.mark.parametrize("read, content, key", [
        (ms.read_delivery_factors, "segment,load_source,stage,factor\n"
         "s1,forest,riverToBay,0.5\ns1,forest,landToWater,0.5\n"
         "s1,forest,riverToBay,0.7\n", "('s1', 'forest', 'riverToBay')"),
        (ms.read_areas, "segment,load_source,acres\ns1,forest,10\n"
         "s2,forest,10\ns1,forest,12\n", "('s1', 'forest')"),
    ], ids=["delivery_factors", "areas"])
    def test_duplicate_key_names_both_lines(self, tmp_path, read, content, key):
        # a repeated key would leave one of two values unused
        path = tmp_path / "dup.csv"
        path.write_text(content)
        with pytest.raises(ms.DatasetFormatError,
                           match=re.escape(f"{path} line 4: repeats the ") + ".*"
                           + re.escape(f" key {key} of line 2")):
            read(path)

    def test_first_bad_line_reported(self, tmp_path):
        # whole-column checks still name the earliest offending line
        path = tmp_path / "bad.csv"
        path.write_text("county,sector,operand,mass\n"
                        "alpha,developed,nitrogen,1\n"
                        "beta,developed,nitrogen,-2\n"
                        "gamma,septic,nitrogen,lots\n"
                        "delta,developed\n")
        with pytest.raises(ms.DatasetFormatError, match="line 3: applied mass"):
            ms.read_applied(path)

    def test_undecodable_row_past_first_chunk_names_file(self, tmp_path):
        # the codec's position counts from the chunk it decodes, not from
        # the start of the file, so the message names the file only
        path = tmp_path / "latin.csv"
        text = "county,sector,operand,mass\n" + "alpha,developed,nitrogen,1\n" * 800
        path.write_bytes(text.encode() + b"\xff,developed,nitrogen,1\n")
        with pytest.raises(ms.DatasetFormatError) as caught:
            ms.read_applied(path)
        assert str(caught.value) == f"{path}: not UTF-8 text (invalid start byte)"


GOOD = "alpha,developed,nitrogen,1"


def applied_file(path, *rows):
    """An applied-mass file at ``path`` holding ``rows`` after its header."""
    path.write_text("county,sector,operand,mass\n"
                    + "".join(row + "\n" for row in rows), encoding="utf-8")
    return path


@contextlib.contextmanager
def field_size_limit(limit):
    old = csv.field_size_limit(limit)
    try:
        yield
    finally:
        csv.field_size_limit(old)


class TestChunkedReading:
    """``read_table`` parses ``READ_CHUNK_ROWS`` rows at a time; with chunks
    of two and three rows every rule names the line a whole file names."""

    @pytest.fixture(autouse=True, params=[2, 3])
    def tiny_chunks(self, request, monkeypatch):
        monkeypatch.setattr(ms, "READ_CHUNK_ROWS", request.param)

    @pytest.mark.parametrize("bad, message", [
        ("e,developed,nitrogen,lots", "'lots' is not a number"),
        ("e,developed,nitrogen,inf", "'inf' is not a finite number"),
        ("e,developed,Oxygen,1", "unknown operand 'Oxygen'"),
        ("e,septic,nitrogen,1", "sector 'septic' not supported"),
        ("e,developed,nitrogen,-1", "applied mass must be >= 0"),
    ], ids=["number", "finite", "operand", "choice", "nonnegative"])
    def test_problem_in_a_later_chunk_names_its_line(self, tmp_path, bad,
                                                     message):
        # row 5 lies in the second or third chunk, and a blank line counts
        path = applied_file(tmp_path / "a.csv", GOOD, GOOD, "", GOOD, GOOD,
                            bad, GOOD, bad)
        with pytest.raises(ms.DatasetFormatError,
                           match=re.escape(f"{path} line 7: {message}")):
            ms.read_applied(path)

    def test_short_row_beats_a_later_chunk(self, tmp_path):
        path = applied_file(tmp_path / "a.csv", GOOD, "beta,developed", GOOD,
                            GOOD, GOOD, "e,developed,nitrogen,lots")
        with pytest.raises(ms.DatasetFormatError,
                           match=re.escape(f"{path} line 3: 2 fields, the "
                                           f"header has 4")):
            ms.read_applied(path)

    def test_oversize_field_after_a_short_row_wins(self, tmp_path):
        # the chunks after a short row are read, not kept
        path = applied_file(tmp_path / "a.csv", GOOD, "beta,developed", GOOD,
                            GOOD, GOOD, "x" * 100 + ",developed,nitrogen,1")
        with field_size_limit(50), pytest.raises(
                ms.DatasetFormatError,
                match=re.escape(f"{path} line 7: field larger than field "
                                f"limit (50)")):
            ms.read_applied(path)

    def test_undecodable_bytes_after_a_short_row_win(self, tmp_path):
        # past the decoder's first block, so only reading on meets them
        path = applied_file(tmp_path / "a.csv", GOOD, "beta,developed",
                            *[GOOD] * 800)
        path.write_bytes(path.read_bytes() + b"\xff,developed,nitrogen,1\n")
        with pytest.raises(ms.DatasetFormatError) as caught:
            ms.read_applied(path)
        assert str(caught.value) == f"{path}: not UTF-8 text (invalid start byte)"

    def test_repeated_key_names_a_line_of_an_earlier_chunk(self, tmp_path):
        path = tmp_path / "areas.csv"
        path.write_text("segment,load_source,acres\n"
                        "s1,forest,1\ns2,forest,1\n\ns3,forest,1\ns1,forest,2\n")
        with pytest.raises(ms.DatasetFormatError, match=re.escape(
                f"{path} line 6: repeats the (segment, load_source) key "
                f"('s1', 'forest') of line 2")):
            ms.read_areas(path)

    def test_oversize_field_after_a_repeated_key_wins(self, tmp_path):
        # the repeat's first line is looked up only once the file is read
        path = tmp_path / "areas.csv"
        path.write_text("segment,load_source,acres\ns1,forest,1\ns2,forest,1\n"
                        "s1,forest,2\ns3,forest,1\ns4,forest,1\ns5,forest,1\n"
                        + "x" * 100 + ",forest,1\n")
        with field_size_limit(50), pytest.raises(
                ms.DatasetFormatError,
                match=re.escape(f"{path} line 8: field larger than field "
                                f"limit (50)")):
            ms.read_areas(path)

    def test_blank_lines_at_a_chunk_boundary_skipped(self, tmp_path):
        path = applied_file(tmp_path / "a.csv", GOOD, GOOD, "", "", "", GOOD,
                            GOOD, "", "e,developed,nitrogen,lots")
        with pytest.raises(ms.DatasetFormatError,
                           match=re.escape(f"{path} line 10: 'lots'")):
            ms.read_applied(path)
        applied_file(path, GOOD, GOOD, "", "", "", GOOD, "", GOOD, "")
        assert ms.read_applied(path).mass.tolist() == [1.0] * 4

    @pytest.mark.parametrize("bad, message", [
        ("e,septic,Oxygen,lots", "unknown operand 'Oxygen'"),
        ("e,septic,nitrogen,lots", "'lots' is not a number"),
        ("e,septic,nitrogen,-1", "sector 'septic' not supported"),
    ], ids=["operand", "number", "choice"])
    def test_one_row_reports_in_the_whole_file_order(self, tmp_path, bad,
                                                     message):
        path = applied_file(tmp_path / "a.csv", GOOD, GOOD, GOOD, bad)
        with pytest.raises(ms.DatasetFormatError,
                           match=re.escape(f"{path} line 5: {message}")):
            ms.read_applied(path)

    def test_equal_text_across_chunks_is_one_str(self, tmp_path):
        path = applied_file(tmp_path / "a.csv", "alpha,agricultural,Nitrogen,1",
                            "beta,developed,phosphorus,2",
                            " alpha ,Agricultural, nitrogen ,3",
                            "gamma,developed,phosphorus,4",
                            "alpha,AGRICULTURAL,NITROGEN,5")
        table = ms.read_applied(path)
        for name in ("county", "sector", "operand"):
            column = table[name]
            assert column[0] is column[2] is column[4], name
            assert column[1] is column[3] or name == "county"
        assert table.mass.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(
    ["a,developed,nitrogen,1", " B ,Developed,PHOSPHORUS,2.5", "",
     "c,agricultural,nitrogen,-1", "d,septic,nitrogen,1", "e,developed,oxygen,1",
     "f,developed,nitrogen,x", "g,developed,nitrogen,nan", "h,developed",
     "i,developed,nitrogen,1,extra"]), max_size=12),
    st.integers(1, 4))
def test_any_chunk_size_reads_as_one_chunk(tmp_path_factory, rows, chunk):
    path = applied_file(tmp_path_factory.mktemp("chunks") / "a.csv", *rows)

    def read(chunk_rows):
        with mock.patch.object(ms, "READ_CHUNK_ROWS", chunk_rows):
            try:
                table = ms.read_applied(path)
            except ms.DatasetFormatError as exc:
                return str(exc)
            return table.tolist(), [len(set(map(id, table[name])))
                                    for name in ("county", "sector", "operand")]

    assert read(chunk) == read(len(rows) + 1)


def test_reading_peaks_within_three_tables(tmp_path):
    # No row list outlives its chunk, so a 45,000-row table is read without
    # holding its rows as lists of cells: the peak stays near the table.
    n = 45_000
    written = ms.table_from_columns(
        report.TABULAR, [f"county-{i // 2:05d}_SYN0_{i // 2:05d}_0000"
                         for i in range(n)],
        "land_segment", ["nitrogen", "phosphorus"] * (n // 2), "flow",
        np.random.default_rng(0).random(n) * 100.0)
    path = tmp_path / "solution.csv"
    ms.write_table(path, written)
    tracemalloc.start()
    try:
        table = ms.read_table(path, report.TABULAR)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(table, written)
    assert peak <= 3 * kept, (peak, kept)


class TestDeliveryModelPolicies:
    def test_missing_factor_errors_by_default(self, chain_network):
        with pytest.raises(ValueError, match="landToWater"):
            ms.compute_delivery_model(chain_network,
                                      ms.table(ms.DELIVERY_FACTORS), None)

    def test_passthrough_defaults_to_one(self, chain_network):
        with pytest.warns(ms.DataConsistencyWarning):
            model = ms.compute_delivery_model(
                chain_network, ms.table(ms.DELIVERY_FACTORS), None,
                missing_policy="passthrough")
        assert model.land_factor.tolist() == [1.0]
        assert model.link_ratio.tolist() == [1.0]

    def test_factors_without_areas(self, chain_network):
        dfs = ms.table(ms.DELIVERY_FACTORS, [
            ("land-1", "row_crops", stage, 0.5) for stage in ms.DF_STAGES])
        no_areas = ms.table(ms.AREAS)
        with pytest.raises(ValueError, match="'land-1' has delivery factors "
                                             "but no load-source areas"):
            ms.compute_delivery_model(chain_network, dfs, no_areas)
        with pytest.warns(ms.DataConsistencyWarning) as record:
            model = ms.compute_delivery_model(chain_network, dfs, no_areas,
                                              missing_policy="passthrough")
        assert [str(w.message) for w in record] == [
            f"land segment 'land-1': no areas to weight {stage} factors, "
            f"defaulting to 1.0" for stage in ms.DF_STAGES]
        assert model.land_factor.tolist() == [1.0]

    def test_areas_fall_back_to_network(self, chain_network):
        dfs = ms.table(ms.DELIVERY_FACTORS, [
            ("land-1", "row_crops", stage, 0.5) for stage in ms.DF_STAGES])
        model = ms.compute_delivery_model(chain_network, dfs, None)
        assert model.land_factor.tolist() == [pytest.approx(0.25)]

    def test_rows_off_the_network_warn(self):
        # a misspelt segment id in both tables: its rows are ignored, with one
        # note per table, before the segment's missing factors are handled
        net, _, datasets = bf.generate_synthetic(3, seed=11)
        segment = net.land_segments[0].external_id
        factors = datasets.delivery_factors.copy()
        areas = datasets.areas.copy()
        n_factors = int((factors.segment == segment).sum())
        n_areas = int((areas.segment == segment).sum())
        factors.segment[factors.segment == segment] = "typo"
        areas.segment[areas.segment == segment] = "typo"
        with pytest.warns(ms.DataConsistencyWarning) as record:
            ms.compute_delivery_model(net, factors, areas,
                                      missing_policy="passthrough")
        messages = [str(w.message) for w in record]
        assert messages[:2] == [
            f"{n_factors} delivery-factor row(s) name no land segment of the "
            f"network, the first 'typo'; ignored",
            f"{n_areas} area row(s) name no land segment of the network, the "
            f"first 'typo'; ignored"]
        assert f"land segment {segment!r}: missing landToWater delivery " \
            f"factor, defaulting to 1.0" in messages
        with pytest.warns(ms.DataConsistencyWarning,
                          match=f"{n_factors} delivery-factor row"):
            with pytest.raises(ValueError, match=f"{segment!r} has no "
                                                 f"landToWater delivery factors"):
                ms.compute_delivery_model(net, factors, datasets.areas)
