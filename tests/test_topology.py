import dataclasses
import json
import re

import numpy as np
import pytest

import basinflow as bf
from basinflow import cli
from basinflow import measurement as ms
from basinflow.core_net import OPERAND_NAMES, SECTORS
from basinflow.topology import (
    GROUPS,
    NetworkSchemaError,
    WatershedNetwork,
    instantiate_capabilities,
    load_network,
    network_from_dict,
    validate_routing,
)

from pipeline_util import make_network, network_doc, reference_save_network
from test_cli import BUNDLE_DIGESTS


def write_network(tmp_path, doc, name="network.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestLoadNetwork:
    def test_chain_fixture(self, tmp_path, chain_network_doc):
        net = load_network(write_network(tmp_path, chain_network_doc))
        assert net.n_buffers == 3
        assert len(net.river_links) == 1
        assert net.buffer_kinds.tolist() == ["land_segment", "outlet_point",
                                             "estuary"]

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

    def test_boolean_schema_rejected(self, chain_network_doc):
        # True == 1 in Python, so the version check once accepted it
        chain_network_doc["schema"] = True
        with pytest.raises(NetworkSchemaError) as info:
            network_from_dict(chain_network_doc)
        assert info.value.violations == ["schema version must be 1, got True"]

    def test_every_fault_reported_in_order(self):
        # A fault in every field of every group.  Within a record, missing
        # or mistyped fields come first, in field order, then bad areas, then
        # bad coordinates; a record with a missing or mistyped field is not
        # read further, so land_segments[0]'s areas and coordinates and
        # outlets[1]'s coordinates go unreported.
        doc = {
            "schema": 1,
            "land_segments": [
                {"county": 7, "river_segment_id": "seg-1",
                 "load_source_areas": {"row_crops": -1.0}, "coordinates": [1]},
                {"external_id": "land-2", "county": "c",
                 "river_segment_id": None, "load_source_areas": None},
                "land-3",
                {"external_id": "land-4", "county": "c",
                 "river_segment_id": "seg-1",
                 "load_source_areas": {"row_crops": "many", "pasture": 2.0,
                                       "urban": float("nan")},
                 "coordinates": [0.0, float("inf")]},
                {"external_id": "land-5", "county": "c",
                 "river_segment_id": "seg-none", "load_source_areas": {}},
            ],
            "outlets": [
                {"external_id": "out-1", "river_segment_id": "seg-1",
                 "coordinates": "here"},
                {"river_segment_id": ["seg-2"], "coordinates": [1, 2, 3]},
                None,
                {"external_id": "land-4", "river_segment_id": "seg-2"},
                {"external_id": "out-5", "river_segment_id": "seg-1"},
            ],
            "river_links": [
                {"from_outlet": "out-1"},
                {"from_outlet": 1, "to_node": "bay"},
                [],
                {"from_outlet": "out-1", "to_node": "bay"},
                {"from_outlet": "out-9", "to_node": "sea"},
            ],
            "estuaries": [
                {"external_id": "bay", "coordinates": [True, 1.0]},
                {"coordinates": [0, 0]},
                {"external_id": {}, "coordinates": "x"},
            ],
        }
        with pytest.raises(NetworkSchemaError) as info:
            network_from_dict(doc)
        area = "must be a finite non-negative number, got"
        assert info.value.violations == [
            "land_segments[0]: missing field 'external_id'",
            "land_segments[0]: county must be a string, got 7",
            "land_segments[1]: river_segment_id must be a string, got None",
            "land_segments[1]: load_source_areas must be an object, got None",
            "land_segments[2]: record must be an object",
            f"land_segments[3]: area for load source 'row_crops' {area} 'many'",
            f"land_segments[3]: area for load source 'urban' {area} nan",
            "land_segments[3]: coordinates must be finite, got [0.0, inf]",
            "outlets[0]: coordinates must be a [x, y] pair",
            "outlets[1]: missing field 'external_id'",
            "outlets[1]: river_segment_id must be a string, got ['seg-2']",
            "outlets[2]: record must be an object",
            "river_links[0]: missing field 'to_node'",
            "river_links[1]: from_outlet must be a string, got 1",
            "river_links[2]: record must be an object",
            "estuaries[0]: coordinates must be a [x, y] pair",
            "estuaries[1]: missing field 'external_id'",
            "estuaries[2]: external_id must be a string, got {}",
            "duplicate external_id 'land-4' (outlet)",
            "river link references unknown outlet 'out-9'",
            "river link from 'out-9' references unknown node 'sea'",
            "river segment 'seg-1' is claimed by 2 outlets; land segments "
            "cannot be mapped unambiguously",
            "land segment 'land-5' references river segment 'seg-none' with "
            "no outlet",
        ]

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

    def test_problems_beyond_five_counted(self, chain_network_doc):
        # two empty records miss four fields each: five shown, three counted
        chain_network_doc["land_segments"] = [{}, {}]
        with pytest.raises(NetworkSchemaError) as caught:
            network_from_dict(chain_network_doc)
        assert len(caught.value.violations) == 8
        assert str(caught.value).startswith(
            "invalid network file: land_segments[0]: missing field "
            "'external_id'; ")
        assert str(caught.value).endswith(
            "land_segments[1]: missing field 'external_id'; ... (3 more)")

    def test_not_json(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("not json {")
        with pytest.raises(NetworkSchemaError, match="not valid JSON"):
            load_network(path)

    @pytest.mark.parametrize("group, field", [
        ("land_segments", "external_id"), ("land_segments", "county"),
        ("land_segments", "river_segment_id"), ("outlets", "external_id"),
        ("outlets", "river_segment_id"), ("river_links", "from_outlet"),
        ("river_links", "to_node"), ("estuaries", "external_id")])
    @pytest.mark.parametrize("value", [None, ["x", 1], 7])
    def test_reference_must_be_a_string(self, chain_network_doc, group, field,
                                        value):
        # a null once dropped the record unreported, and str() renamed a list
        chain_network_doc[group][0][field] = value
        with pytest.raises(NetworkSchemaError, match=re.escape(
                f"{group}[0]: {field} must be a string, got {value!r}")):
            network_from_dict(chain_network_doc)

    def test_null_areas_named(self, chain_network_doc):
        chain_network_doc["land_segments"][0]["load_source_areas"] = None
        with pytest.raises(NetworkSchemaError, match=re.escape(
                "land_segments[0]: load_source_areas must be an object, "
                "got None")):
            network_from_dict(chain_network_doc)

    @pytest.mark.parametrize("group", ["land_segments", "outlets", "estuaries"])
    def test_boolean_coordinates_rejected(self, chain_network_doc, group):
        chain_network_doc[group][0]["coordinates"] = [True, False]
        with pytest.raises(NetworkSchemaError, match=re.escape(
                f"{group}[0]: coordinates must be a [x, y] pair")):
            network_from_dict(chain_network_doc)

    def test_boolean_area_rejected(self, chain_network_doc):
        chain_network_doc["land_segments"][0]["load_source_areas"] = {
            "row_crops": True}
        with pytest.raises(NetworkSchemaError, match=re.escape(
                "land_segments[0]: area for load source 'row_crops' must be a "
                "finite non-negative number, got True")):
            network_from_dict(chain_network_doc)

    def test_non_finite_coordinates_named(self, tmp_path, chain_network_doc):
        # json.load accepts the NaN token, which RFC 8259 JSON does not allow
        chain_network_doc["land_segments"][0]["coordinates"] = [float("nan"), 1.0]
        path = write_network(tmp_path, chain_network_doc)
        assert "NaN" in path.read_text()
        with pytest.raises(NetworkSchemaError, match=r"land_segments\[0\]: "
                           r"coordinates must be finite, got \[nan, 1.0\]"):
            load_network(path)

    def test_non_finite_area_named(self, tmp_path, chain_network_doc):
        chain_network_doc["land_segments"][0]["load_source_areas"] = {
            "row_crops": float("inf")}
        path = write_network(tmp_path, chain_network_doc)
        assert "Infinity" in path.read_text()
        with pytest.raises(NetworkSchemaError, match=r"land_segments\[0\]: area "
                           r"for load source 'row_crops' must be a finite "
                           r"non-negative number, got inf"):
            load_network(path)

    def test_area_beyond_float_range_named(self, tmp_path, chain_network_doc):
        # float(10**400) raises OverflowError, which once escaped uncaught
        chain_network_doc["land_segments"][0]["load_source_areas"] = {
            "row_crops": 10 ** 400}
        path = write_network(tmp_path, chain_network_doc)
        with pytest.raises(NetworkSchemaError, match=re.escape(
                "land_segments[0]: area for load source 'row_crops' must be a "
                f"finite non-negative number, got {10 ** 400!r}")):
            load_network(path)

    def test_coordinates_beyond_float_range_named(self, tmp_path,
                                                  chain_network_doc):
        chain_network_doc["outlets"][0]["coordinates"] = [10 ** 400, 1]
        path = write_network(tmp_path, chain_network_doc)
        with pytest.raises(NetworkSchemaError, match=re.escape(
                f"outlets[0]: coordinates must be finite, got "
                f"[{10 ** 400!r}, 1]")):
            load_network(path)

    @pytest.mark.parametrize("group", ["land_segments", "outlets",
                                       "river_links", "estuaries"])
    def test_non_object_record_reported_once(self, chain_network_doc, group):
        chain_network_doc[group][0] = 5
        with pytest.raises(NetworkSchemaError) as info:
            network_from_dict(chain_network_doc)
        message = f"{group}[0]: record must be an object"
        assert info.value.violations.count(message) == 1

    def test_synthetic_round_trip(self, tmp_path):
        net, _, _ = bf.generate_synthetic(100, branching=3, seed=4)
        path = tmp_path / "net.json"
        net.save(path)
        again = load_network(path)
        assert network_doc(again) == network_doc(net)
        assert validate_routing(again).ok


# Text that ``json`` escapes: a quote, a backslash, a comma, a newline, a
# non-ASCII character and one beyond the Basic Multilingual Plane.
AWKWARD = 'a"b\\c,d\ne\u00e9\U0001f30a'


def awkward_network(estuaries: bool) -> WatershedNetwork:
    """Records without coordinates, with int and non-finite ones, int and
    non-finite areas, unsorted area keys, a repeated area key and a land
    segment with no areas; with no estuaries when ``estuaries`` is false."""
    return make_network(
        land_segments=[
            (f"land-{AWKWARD}", f"county-{AWKWARD}", AWKWARD,
             (("row_crops", 10), (f"z-{AWKWARD}", 2.5), ("forest", 0.1),
              ("developed", float("inf"))), (-76, 38.25)),
            ("land-2", "county,2", "seg-2", (), (float("inf"), -0.0)),
            ("land-3", "county\u00e9", "seg-2",
             (("pasture", 3.0), ("forest", 4), ("pasture", 5.5)), None),
        ],
        outlets=[(f"out-{AWKWARD}", AWKWARD, (1e-7, 1e300)),
                 ("out-2", "seg-2", None)],
        river_links=[("out-2", f"out-{AWKWARD}"),
                     (f"out-{AWKWARD}", f"bay-{AWKWARD}")],
        estuaries=[(f"bay-{AWKWARD}", None), ("bay-2", (0, -1.5))]
        if estuaries else [],
    )


class TestNetworkWriterMatchesReference:
    """``WatershedNetwork.save`` writes what ``json.dump(doc, indent=1,
    sort_keys=True)`` writes, so a loaded network re-saves to its bytes."""

    @pytest.mark.parametrize("network", [
        awkward_network(estuaries=True), awkward_network(estuaries=False),
        make_network()], ids=["awkward", "no_estuaries", "empty"])
    def test_matches_reference(self, tmp_path, network):
        network.save(tmp_path / "got.json")
        reference_save_network(network, tmp_path / "want.json")
        assert ((tmp_path / "got.json").read_bytes()
                == (tmp_path / "want.json").read_bytes())

    @pytest.mark.parametrize("args", list(BUNDLE_DIGESTS),
                             ids=["per-segment", "grouped"])
    def test_pinned_bundles_resave(self, tmp_path, args):
        assert cli.main(["synth", *args, "--out", str(tmp_path)]) == 0
        load_network(tmp_path / "network.json").save(tmp_path / "again.json")
        assert ((tmp_path / "again.json").read_bytes()
                == (tmp_path / "network.json").read_bytes())


def parsed(field: str, value):
    """A field's value in a network table, from its JSON value."""
    if field == "load_source_areas":
        return tuple((source, float(acres)) for source, acres in value.items())
    if field == "coordinates" and value is not None:
        return tuple(map(float, value))
    return value


class TestNetworkArrays:
    @pytest.fixture(params=["grouped", "two_estuaries"])
    def document(self, request, tmp_path):
        """A network file's parsed JSON document."""
        if request.param == "two_estuaries":
            net = request.getfixturevalue("two_estuary_network")
        else:
            net, _, _ = bf.generate_synthetic(40, branching=3, seed=7,
                                              county_mode="grouped",
                                              land_per_outlet=(2, 4))
        net.save(tmp_path / "network.json")
        return json.loads((tmp_path / "network.json").read_text())

    def test_arrays_match_a_record_walk(self, document):
        network = network_from_dict(document)
        lands, outlets, links = (document[group] for group in
                                 ("land_segments", "outlets", "river_links"))
        walk = [(record["external_id"], kind) for kind, group in (
            ("land_segment", "land_segments"), ("outlet_point", "outlets"),
            ("estuary", "estuaries")) for record in document[group]]
        position = {name: b for b, (name, _) in enumerate(walk)}
        counties = list(dict.fromkeys(land["county"] for land in lands))
        outlet_of = {o["river_segment_id"]: j for j, o in enumerate(outlets)}
        for group, dtype in GROUPS.items():
            for field in dtype.names:
                assert getattr(network, group)[field].tolist() == [
                    parsed(field, record.get(field))
                    for record in document[group]]
        assert network.n_buffers == len(walk)
        assert network.buffer_names.tolist() == [name for name, _ in walk]
        assert network.buffer_kinds.tolist() == [kind for _, kind in walk]
        assert network.buffer_id == position
        assert network.link_from.tolist() == [position[l["from_outlet"]]
                                              for l in links]
        assert network.link_to.tolist() == [position[l["to_node"]]
                                            for l in links]
        assert network.link_names.tolist() == [
            f"{l['from_outlet']}->{l['to_node']}" for l in links]
        assert network.county_code == {c: i for i, c in enumerate(counties)}
        assert network.land_county.tolist() == [counties.index(l["county"])
                                                for l in lands]
        assert network.land_outlet.tolist() == [
            outlet_of[l["river_segment_id"]] for l in lands]
        for ids in (network.link_from, network.link_to, network.land_county,
                    network.land_outlet, network.downstream):
            assert ids.dtype == np.intp

    def test_two_estuaries_by_hand(self, two_estuary_network):
        net = two_estuary_network
        assert validate_routing(net).ok
        # buffers: land-1..4 are 0-3, out-1..3 are 4-6, bay-1 and bay-2 7-8
        assert net.link_from.tolist() == [6, 5, 4]
        assert net.link_to.tolist() == [4, 8, 7]
        assert net.link_names.tolist() == ["out-3->out-1", "out-2->bay-2",
                                           "out-1->bay-1"]
        assert list(net.county_code) == ["b", "a", "c"]
        assert net.land_county.tolist() == [0, 1, 0, 2]
        assert net.downstream.tolist() == [5, 4, 6, 4, 7, 8, 4, -1, -1]

    def test_downstream_follows_the_first_link(self):
        # buffers: land-1 0, out-1..3 1-3, bay 4; out-2 is an orphan and
        # out-3's first link, in file order, is the one to the bay
        net = make_network(
            land_segments=[("land-1", "a", "seg-2", (), None)],
            outlets=[("out-1", "seg-1", None), ("out-2", "seg-2", None),
                     ("out-3", "seg-3", None)],
            river_links=[("out-3", "bay"), ("out-1", "bay"), ("out-3", "out-1")],
            estuaries=[("bay", None)])
        assert net.downstream.tolist() == [2, 4, -1, 4, -1]
        assert [(v.kind, v.subject, v.message)
                for v in validate_routing(net).violations] == [
            ("orphan_outlet", "out-2", "outlet has no downstream river link"),
            ("multiple_downstream", "out-3", "outlet has 2 downstream links "
             "(bay, out-1); the network must be dendritic")]

    def test_groups_name_the_saved_keys(self, tmp_path):
        # every generated land segment, outlet and estuary has coordinates
        net, _, _ = bf.generate_synthetic(3, branching=2, seed=1)
        net.save(tmp_path / "network.json")
        doc = json.loads((tmp_path / "network.json").read_text())
        for group, dtype in GROUPS.items():
            assert doc[group]
            for record in doc[group]:
                assert sorted(record) == sorted(dtype.names)


class TestValidateRouting:
    def test_chain_empty_report(self, chain_network):
        assert validate_routing(chain_network).ok

    def test_multiple_downstream_links(self, chain_network):
        net = WatershedNetwork(
            chain_network.land_segments,
            chain_network.outlets,
            ms.table(GROUPS["river_links"], [*chain_network.river_links.tolist(),
                                             ("out-1", "bay")]),
            chain_network.estuaries,
        )
        report = validate_routing(net)
        kinds = [v.kind for v in report.violations]
        assert "multiple_downstream" in kinds

    def test_orphan_outlet(self, chain_network):
        net = WatershedNetwork(
            chain_network.land_segments,
            ms.table(GROUPS["outlets"], [*chain_network.outlets.tolist(),
                                         ("out-2", "seg-2", None)]),
            chain_network.river_links,
            chain_network.estuaries,
        )
        report = validate_routing(net)
        assert any(v.kind == "orphan_outlet" and v.subject == "out-2"
                   for v in report.violations)

    def test_orphan_reported_once(self):
        # the first river link of a generated tree dropped: its outlet is an
        # orphan, and every outlet that drains through it is stranded
        net, _, _ = bf.generate_synthetic(30, branching=3, seed=7)
        orphan = net.river_links[0].from_outlet
        net = dataclasses.replace(net, river_links=net.river_links[1:])
        downstream = {link.from_outlet: link.to_node for link in net.river_links}

        def drains_through_orphan(outlet):
            while outlet in downstream:
                outlet = downstream[outlet]
            return outlet == orphan

        upstream = {o.external_id for o in net.outlets
                    if o.external_id != orphan
                    and drains_through_orphan(o.external_id)}
        assert upstream  # the case shows the stranded outlets
        report = validate_routing(net)
        assert [(v.kind, v.message) for v in report.violations
                if v.subject == orphan] == [
            ("orphan_outlet", "outlet has no downstream river link")]
        assert {v.subject for v in report.violations
                if v.kind == "unreachable_estuary"} == upstream
        assert len(report.violations) == 1 + len(upstream)

    def test_three_cycle_detected(self):
        net = make_network(
            land_segments=[],
            outlets=[("o1", "s1", None), ("o2", "s2", None), ("o3", "s3", None)],
            river_links=[("o1", "o2"), ("o2", "o3"), ("o3", "o1")],
            estuaries=[("bay", None)],
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
        net = make_network(
            land_segments=[],
            outlets=[("a", "sa", None), ("b", "sb", None), ("c", "sc", None)],
            river_links=[("a", "b"), ("b", "c"), ("c", "b")],
            estuaries=[("bay", None)],
        )
        report = validate_routing(net)
        cycles = [v for v in report.violations if v.kind == "cycle"]
        assert [(v.subject, v.message) for v in cycles] == [
            ("b", "river links form a cycle: b -> c -> b")]
        unreachable = {v.subject for v in report.violations
                       if v.kind == "unreachable_estuary"}
        assert unreachable == {"a", "b", "c"}


class TestInstantiateCapabilities:
    def test_chain_count(self, chain_network):
        caps = instantiate_capabilities(chain_network)
        assert len(caps) == 8  # 6 per land segment + 2 per river link

    def test_empty_network(self):
        net = make_network(estuaries=[("bay", None)])
        assert len(instantiate_capabilities(net)) == 0

    def test_formula_matches_enumeration(self):
        net, truth, _ = bf.generate_synthetic(5, branching=2, seed=2,
                                              land_per_outlet=(2, 2))
        caps = instantiate_capabilities(net)
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
        caps = instantiate_capabilities(chain_network)
        assert [c.id for c in caps] == list(range(len(caps)))
        kinds = chain_network.buffer_kinds
        for cap in caps:
            cls = cap.capability_class
            dest = kinds[cap.destination]
            if cls.is_accept:
                assert cap.origin is None
                assert dest == "land_segment"
            elif cls.action == "transport_land":
                assert kinds[cap.origin] == "land_segment"
                assert dest == "outlet_point"
            else:
                assert kinds[cap.origin] == "outlet_point"
                assert dest in ("outlet_point", "estuary")

    def test_position_tables_invert_the_layout(self):
        # the tables agree with a walk over the views, the inversion they
        # replace, and every position holds a capability
        net, _, _ = bf.generate_synthetic(6, branching=2, seed=4,
                                          land_per_outlet=(1, 3))
        caps = instantiate_capabilities(net)
        land_pos = {l.external_id: i for i, l in enumerate(net.land_segments)}
        link_pos = {(net.buffer_id[l.from_outlet], net.buffer_id[l.to_node]): i
                    for i, l in enumerate(net.river_links)}
        accept = np.full((len(land_pos), 2, 2), -1)
        land_transport = np.full((len(land_pos), 2), -1)
        river_transport = np.full((len(link_pos), 2), -1)
        for cap in caps:
            cls = cap.capability_class
            op = OPERAND_NAMES.index(cls.operand_name)
            assert cap.operand == op
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
        for ids in (caps.accept, caps.land_transport, caps.river_transport):
            assert (ids >= 0).all()

    def test_views_index_like_a_sequence(self, chain_network):
        caps = instantiate_capabilities(chain_network)
        assert caps[-1] == caps[len(caps) - 1]
        assert caps[-1].origin == chain_network.buffer_id["out-1"]
        assert caps[0].origin is None and caps[0].resource_id == "land-1"
        with pytest.raises(IndexError):
            caps[len(caps)]
        with pytest.raises(dataclasses.FrozenInstanceError):
            caps[0].destination = 2


class TestGenerateSynthetic:
    def test_single_outlet_closed_form(self):
        net, truth, datasets = bf.generate_synthetic(
            1, branching=1, seed=42, land_per_outlet=(1, 1))
        # one land segment (position 0) draining to one outlet (position 0)
        applied = {
            (r.sector, r.operand): r.mass for r in datasets.applied
        }
        for op in OPERAND_NAMES:
            total = applied[("agricultural", op)] + applied[("developed", op)]
            land_flow = truth.delivery.land_factor[0] * total
            eot = land_flow * truth.delivery.outlet_river_to_bay[0]
            recorded = [r.mass for r in datasets.loads
                        if r.kind == "EoT" and r.operand == op]
            assert recorded == [pytest.approx(eot, rel=1e-12)]

    def test_determinism(self):
        a = bf.generate_synthetic(8, branching=3, seed=123)
        b = bf.generate_synthetic(8, branching=3, seed=123)
        assert network_doc(a[0]) == network_doc(b[0])
        assert (a[1].u == b[1].u).all()
        for family in ("applied", "loads", "delivery_factors", "areas"):
            assert np.array_equal(getattr(a[2], family), getattr(b[2], family))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_routing_always_valid(self, seed):
        net, _, _ = bf.generate_synthetic(30, branching=3, seed=seed)
        assert validate_routing(net).ok

    def test_every_land_path_reaches_estuary(self):
        net, _, _ = bf.generate_synthetic(20, branching=2, seed=6)
        downstream = {l.from_outlet: l.to_node for l in net.river_links}
        for outlet in net.land_outlet.tolist():
            node = net.outlets[outlet].external_id
            hops = 0
            while node != "bay":
                node = downstream[node]
                hops += 1
                assert hops <= len(net.outlets)

    def test_grouped_counties(self):
        net, _, datasets = bf.generate_synthetic(
            12, branching=3, seed=5, county_mode="grouped")
        counties = {land.county for land in net.land_segments}
        assert len(counties) < len(net.land_segments)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            bf.generate_synthetic(0)
        with pytest.raises(ValueError):
            bf.generate_synthetic(1, branching=0)
        with pytest.raises(ValueError):
            bf.generate_synthetic(1, county_mode="nope")
        for bad in ((3, 1), (0, 1), (0, 0)):
            with pytest.raises(ValueError, match="land_per_outlet"):
                bf.generate_synthetic(1, land_per_outlet=bad)
