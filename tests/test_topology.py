import dataclasses
import json

import numpy as np
import pytest

import basinflow as bf
from basinflow.core_net import (
    OPERAND_NAMES,
    SECTORS,
    BufferKind,
    Operand,
    default_operands,
)
from basinflow.topology import (
    Estuary,
    LandSegment,
    NetworkSchemaError,
    Outlet,
    RiverLink,
    WatershedNetwork,
    derive_connectivity_from_names,
    instantiate_capabilities,
    load_network,
    network_from_dict,
    validate_routing,
)


def write_network(tmp_path, doc, name="network.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestLoadNetwork:
    def test_chain_fixture(self, tmp_path, chain_network_doc):
        net = load_network(write_network(tmp_path, chain_network_doc))
        assert len(net.buffer_specs) == 3
        assert len(net.river_links) == 1
        kinds = [spec.kind for spec in net.buffer_specs]
        assert kinds == [BufferKind.LAND_SEGMENT, BufferKind.OUTLET_POINT,
                         BufferKind.ESTUARY]

    def test_dangling_estuary_named(self, tmp_path, chain_network_doc):
        chain_network_doc["estuaries"] = []
        with pytest.raises(NetworkSchemaError, match="bay"):
            load_network(write_network(tmp_path, chain_network_doc))

    def test_duplicate_external_id(self, chain_network_doc):
        chain_network_doc["outlets"].append(
            {"external_id": "out-1", "river_segment_id": "seg-9"})
        with pytest.raises(NetworkSchemaError, match="duplicate"):
            network_from_dict(chain_network_doc)

    def test_missing_field_reported(self, chain_network_doc):
        del chain_network_doc["land_segments"][0]["county"]
        with pytest.raises(NetworkSchemaError, match="county"):
            network_from_dict(chain_network_doc)

    def test_schema_version_required(self, chain_network_doc):
        chain_network_doc["schema"] = 2
        with pytest.raises(NetworkSchemaError, match="schema"):
            network_from_dict(chain_network_doc)

    def test_land_without_outlet(self, chain_network_doc):
        chain_network_doc["land_segments"][0]["river_segment_id"] = "seg-none"
        with pytest.raises(NetworkSchemaError, match="seg-none"):
            network_from_dict(chain_network_doc)

    def test_ambiguous_river_segment(self, chain_network_doc):
        chain_network_doc["outlets"].append(
            {"external_id": "out-2", "river_segment_id": "seg-1"})
        chain_network_doc["river_links"].append(
            {"from_outlet": "out-2", "to_node": "bay"})
        with pytest.raises(NetworkSchemaError, match="claimed by 2 outlets"):
            network_from_dict(chain_network_doc)

    def test_not_json(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("not json {")
        with pytest.raises(NetworkSchemaError, match="not valid JSON"):
            load_network(path)

    def test_synthetic_round_trip(self, tmp_path):
        net, _, _ = bf.generate_synthetic(100, branching=3, seed=4)
        path = tmp_path / "net.json"
        net.save(path)
        again = load_network(path)
        assert again.to_dict() == net.to_dict()
        assert validate_routing(again).ok


class TestValidateRouting:
    def test_chain_empty_report(self, chain_network):
        assert validate_routing(chain_network).ok

    def test_multiple_downstream_links(self, chain_network):
        net = WatershedNetwork(
            chain_network.land_segments,
            chain_network.outlets,
            chain_network.river_links + (RiverLink("out-1", "bay"),),
            chain_network.estuaries,
        )
        report = validate_routing(net)
        kinds = [v.kind for v in report.violations]
        assert "multiple_downstream" in kinds

    def test_orphan_outlet(self, chain_network):
        net = WatershedNetwork(
            chain_network.land_segments,
            chain_network.outlets + (Outlet("out-2", "seg-2"),),
            chain_network.river_links,
            chain_network.estuaries,
        )
        report = validate_routing(net)
        assert any(v.kind == "orphan_outlet" and v.subject == "out-2"
                   for v in report.violations)

    def test_three_cycle_detected(self):
        net = WatershedNetwork(
            land_segments=(),
            outlets=(Outlet("o1", "s1"), Outlet("o2", "s2"), Outlet("o3", "s3")),
            river_links=(RiverLink("o1", "o2"), RiverLink("o2", "o3"),
                         RiverLink("o3", "o1")),
            estuaries=(Estuary("bay"),),
        )
        report = validate_routing(net)
        cycles = [v for v in report.violations if v.kind == "cycle"]
        assert len(cycles) == 1
        for member in ("o1", "o2", "o3"):
            assert member in cycles[0].message
        unreachable = {v.subject for v in report.violations
                       if v.kind == "unreachable_estuary"}
        assert unreachable == {"o1", "o2", "o3"}

    def test_tail_into_cycle(self):
        # a drains into the cycle b -> c -> b: one cycle, all three stranded
        net = WatershedNetwork(
            land_segments=(),
            outlets=(Outlet("a", "sa"), Outlet("b", "sb"), Outlet("c", "sc")),
            river_links=(RiverLink("a", "b"), RiverLink("b", "c"),
                         RiverLink("c", "b")),
            estuaries=(Estuary("bay"),),
        )
        report = validate_routing(net)
        cycles = [v for v in report.violations if v.kind == "cycle"]
        assert [(v.subject, v.message) for v in cycles] == [
            ("b", "river links form a cycle: b -> c -> b")]
        unreachable = {v.subject for v in report.violations
                       if v.kind == "unreachable_estuary"}
        assert unreachable == {"a", "b", "c"}


class TestDeriveConnectivity:
    def test_single_estuarine_segment(self):
        links, unresolved = derive_connectivity_from_names(["A0000"])
        assert links == [("A0000", None)]
        assert unresolved == []

    def test_pointer_chain(self):
        links, unresolved = derive_connectivity_from_names(["A0000", "B000A"])
        assert ("A0000", None) in links
        assert ("B000A", "A0000") in links
        assert unresolved == []

    def test_cast_style_ids(self):
        # underscore-separated ids: 4-digit own number before a 4-digit
        # downstream pointer
        ids = ["CB3_0001_0000", "SL9_2720_0001", "XU0_4650_2720"]
        links, unresolved = derive_connectivity_from_names(ids)
        assert links == [("CB3_0001_0000", None),
                         ("SL9_2720_0001", "CB3_0001_0000"),
                         ("XU0_4650_2720", "SL9_2720_0001")]
        assert unresolved == []

    def test_unresolved_pointer_listed(self):
        links, unresolved = derive_connectivity_from_names(
            ["CB3_0001_0000", "SL9_2720_9999"])
        assert unresolved == [("SL9_2720_9999", "9999")]
        assert links == [("CB3_0001_0000", None)]

    def test_empty(self):
        assert derive_connectivity_from_names([]) == ([], [])

    def test_too_short_id(self):
        with pytest.raises(ValueError, match="too short"):
            derive_connectivity_from_names(["A000"])

    def test_generator_ids_reproduce_tree(self):
        net, _, _ = bf.generate_synthetic(25, branching=2, seed=9)
        ids = [o.river_segment_id for o in net.outlets]
        links, unresolved = derive_connectivity_from_names(ids)
        assert unresolved == []
        seg_of_outlet = {o.external_id: o.river_segment_id for o in net.outlets}
        expected = set()
        for link in net.river_links:
            downstream = (None if link.to_node in net.estuary_ids
                          else seg_of_outlet[link.to_node])
            expected.add((seg_of_outlet[link.from_outlet], downstream))
        assert set(links) == expected


class TestInstantiateCapabilities:
    def test_chain_count(self, chain_network):
        caps = instantiate_capabilities(chain_network, default_operands())
        assert len(caps) == 8  # 6 per land segment + 2 per river link

    def test_empty_network(self):
        net = WatershedNetwork((), (), (), (Estuary("bay"),))
        assert len(instantiate_capabilities(net, default_operands())) == 0

    def test_formula_matches_enumeration(self):
        net, truth, _ = bf.generate_synthetic(5, branching=2, seed=2,
                                              land_per_outlet=(2, 2))
        caps = instantiate_capabilities(net, default_operands())
        n_land = len(net.land_segments)
        n_links = len(net.river_links)
        assert len(caps) == 6 * n_land + 2 * n_links
        by_action = {}
        for cap in caps:
            by_action.setdefault(cap.capability_class.action, 0)
            by_action[cap.capability_class.action] += 1
        assert by_action == {"accept": 4 * n_land, "transport_land": 2 * n_land,
                             "transport_river": 2 * n_links}

    def test_ids_contiguous_and_valid(self, chain_network):
        caps = instantiate_capabilities(chain_network, default_operands())
        assert [c.id for c in caps] == list(range(len(caps)))
        buffer_specs = chain_network.buffer_specs
        for cap in caps:
            cls = cap.capability_class
            dest = buffer_specs[cap.destination]
            if cls.is_accept:
                assert cap.origin is None
                assert dest.kind == BufferKind.LAND_SEGMENT
            elif cls.action == "transport_land":
                assert buffer_specs[cap.origin].kind == BufferKind.LAND_SEGMENT
                assert dest.kind == BufferKind.OUTLET_POINT
            else:
                assert buffer_specs[cap.origin].kind == BufferKind.OUTLET_POINT
                assert dest.kind in (BufferKind.OUTLET_POINT, BufferKind.ESTUARY)

    @pytest.mark.parametrize("operands", [
        default_operands(), (Operand(0, "phosphorus"),),
        (Operand(0, "phosphorus"), Operand(1, "nitrogen"))])
    def test_position_tables_invert_the_layout(self, operands):
        # the tables agree with a walk over the views, the inversion they
        # replace; a missing operand leaves -1
        net, _, _ = bf.generate_synthetic(6, branching=2, seed=4,
                                          land_per_outlet=(1, 3))
        caps = instantiate_capabilities(net, operands)
        land_pos = {l.external_id: i for i, l in enumerate(net.land_segments)}
        link_pos = {(net.buffer_id[l.from_outlet], net.buffer_id[l.to_node]): i
                    for i, l in enumerate(net.river_links)}
        accept = np.full((len(land_pos), 2, 2), -1)
        land_transport = np.full((len(land_pos), 2), -1)
        river_transport = np.full((len(link_pos), 2), -1)
        for cap in caps:
            cls = cap.capability_class
            op = OPERAND_NAMES.index(cls.operand_name)
            if cls.is_accept:
                accept[land_pos[cap.resource_id], SECTORS.index(cls.sector),
                       op] = cap.id
            elif cls.action == "transport_land":
                land_transport[land_pos[cap.resource_id], op] = cap.id
            else:
                river_transport[link_pos[(cap.origin, cap.destination)],
                                op] = cap.id
        assert (caps.accept == accept).all()
        assert (caps.land_transport == land_transport).all()
        assert (caps.river_transport == river_transport).all()

    def test_views_index_like_a_sequence(self, chain_network):
        caps = instantiate_capabilities(chain_network, default_operands())
        assert caps[-1] == caps[len(caps) - 1]
        assert caps[-1].origin == chain_network.buffer_id["out-1"]
        assert caps[0].origin is None and caps[0].resource_id == "land-1"
        with pytest.raises(IndexError):
            caps[len(caps)]
        with pytest.raises(dataclasses.FrozenInstanceError):
            caps[0].destination = 2

    def test_unknown_operand_rejected(self, chain_network):
        with pytest.raises(ValueError, match="sediment"):
            instantiate_capabilities(chain_network, [Operand(0, "sediment")])


class TestGenerateSynthetic:
    def test_single_outlet_closed_form(self):
        net, truth, datasets = bf.generate_synthetic(
            1, branching=1, seed=42, land_per_outlet=(1, 1))
        land = net.land_segments[0]
        applied = {
            (r.sector, r.operand): r.mass for r in datasets.applied
        }
        for op in truth.operands:
            total = applied[("agricultural", op.name)] + applied[("developed", op.name)]
            land_flow = truth.delivery.land_factor[land.external_id] * total
            eot = land_flow * truth.delivery.outlet_river_to_bay["outlet-0001"]
            recorded = [r.mass for r in datasets.loads
                        if r.kind == "EoT" and r.operand == op.name]
            assert recorded == [pytest.approx(eot, rel=1e-12)]

    def test_determinism(self):
        a = bf.generate_synthetic(8, branching=3, seed=123)
        b = bf.generate_synthetic(8, branching=3, seed=123)
        assert a[0].to_dict() == b[0].to_dict()
        assert (a[1].u == b[1].u).all()
        assert a[2] == b[2]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_routing_always_valid(self, seed):
        net, _, _ = bf.generate_synthetic(30, branching=3, seed=seed)
        assert validate_routing(net).ok

    def test_every_land_path_reaches_estuary(self):
        net, _, _ = bf.generate_synthetic(20, branching=2, seed=6)
        downstream = {l.from_outlet: l.to_node for l in net.river_links}
        for land in net.land_segments:
            node = net.outlet_of_land(land).external_id
            hops = 0
            while node not in net.estuary_ids:
                node = downstream[node]
                hops += 1
                assert hops <= len(net.outlets)

    def test_grouped_counties(self):
        net, _, datasets = bf.generate_synthetic(
            12, branching=3, seed=5, county_mode="grouped")
        assert len(net.counties) < len(net.land_segments)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            bf.generate_synthetic(0)
        with pytest.raises(ValueError):
            bf.generate_synthetic(1, branching=0)
        with pytest.raises(ValueError):
            bf.generate_synthetic(1, county_mode="nope")
