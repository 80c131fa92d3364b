import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import basinflow as bf
from basinflow.core_net import (
    CAPABILITY_CLASSES,
    CAPABILITY_KINDS,
    OPERAND_NAMES,
    SECTORS,
    CapabilityClass,
    CapabilitySpec,
    build_incidence,
)
from basinflow.cli import main
from basinflow.topology import instantiate_capabilities, load_network

from pipeline_util import capabilities_of
from test_cli import BUNDLE_DIGESTS


class TestBuildIncidence:
    def test_single_accept_is_source_only(self):
        caps = [CapabilitySpec(0, CapabilityClass.ACCEPT_AGRICULTURAL_N, 0,
                               origin=None, destination=0, resource_id="l")]
        m = build_incidence(capabilities_of(caps), 1).toarray()
        assert m[0::2].tolist() == [[1]]
        assert not m[1::2].any()

    def test_signs_at_destination_and_origin(self):
        # each column holds +1 at its capability's destination place and,
        # for a transport, -1 at its origin place, and nothing else
        net, truth, _ = bf.generate_synthetic(12, branching=2, seed=3)
        m = build_incidence(truth.capabilities, net.n_buffers)
        n_ops = len(OPERAND_NAMES)
        for cap in truth.capabilities:
            expected = {cap.destination * n_ops + cap.operand: 1}
            if cap.origin is not None:
                expected[cap.origin * n_ops + cap.operand] = -1
            lo, hi = m.indptr[cap.id], m.indptr[cap.id + 1]
            assert dict(zip(m.indices[lo:hi].tolist(),
                            m.data[lo:hi].tolist())) == expected

    def test_single_transport_conserves(self):
        caps = [CapabilitySpec(0, CapabilityClass.TRANSPORT_RIVER_N, 0,
                               origin=0, destination=1, resource_id="s")]
        col = build_incidence(capabilities_of(caps), 2).toarray()[:, 0]
        assert col[0::2].tolist() == [-1, 1]
        assert not col[1::2].any()
        assert col.sum() == 0

    def test_chain_fixture_entries(self, mini_chain_incidence):
        m = mini_chain_incidence.toarray()
        # hand enumeration over the nitrogen places (even rows): accept ->
        # buffer 0; land transport 0 -> 1; river transport 1 -> 2
        assert m[0::2].tolist() == [[1, -1, 0], [0, 1, -1], [0, 0, 1]]
        assert not m[1::2].any()
        assert m.sum(axis=0).tolist() == [1, 0, 0]

    def test_column_conservation_classes(self, mini_chain_incidence):
        sums = np.asarray(mini_chain_incidence.sum(axis=0)).ravel()
        assert sums[0] == 1  # accept
        assert sums[1] == sums[2] == 0  # transports

    def test_dangling_buffer_rejected(self):
        caps = [CapabilitySpec(0, CapabilityClass.ACCEPT_AGRICULTURAL_N, 0,
                               origin=None, destination=7, resource_id="l")]
        with pytest.raises(ValueError, match="does not exist"):
            build_incidence(capabilities_of(caps), 3)

    @pytest.mark.parametrize("origin, operand, message", [
        (5, 0, "origin buffer 5 does not exist"),
        (-2, 0, "origin buffer -2 does not exist"),
        (0, 2, "operand 2 does not exist"),
    ])
    def test_dangling_origin_or_operand_rejected(self, origin, operand, message):
        caps = [CapabilitySpec(0, CapabilityClass.TRANSPORT_RIVER_N, operand,
                               origin=origin, destination=1, resource_id="s")]
        with pytest.raises(ValueError, match=f"capability 0: {message}"):
            build_incidence(capabilities_of(caps), 3)

    def test_operand_segregation(self):
        # two operands: every nonzero of a capability's column sits in rows
        # whose operand index matches the capability's operand
        caps = [
            CapabilitySpec(0, CapabilityClass.ACCEPT_AGRICULTURAL_N, 0,
                           origin=None, destination=0, resource_id="l"),
            CapabilitySpec(1, CapabilityClass.ACCEPT_AGRICULTURAL_P, 1,
                           origin=None, destination=0, resource_id="l"),
            CapabilitySpec(2, CapabilityClass.TRANSPORT_RIVER_P, 1,
                           origin=1, destination=2, resource_id="s"),
        ]
        coo = build_incidence(capabilities_of(caps), 3).tocoo()
        for row, col in zip(coo.row, coo.col):
            assert row % 2 == caps[col].operand


class TestStateTransition:
    """One step of the mass balance, ``q + m @ u * dt``."""

    def test_null_firing(self, mini_chain_incidence):
        q = np.zeros(6) + mini_chain_incidence @ np.zeros(3)
        assert (q == 0).all()

    def test_chain_hand_evaluation(self, mini_chain_incidence):
        q = np.zeros(6) + mini_chain_incidence @ np.array([100.0, 50.0, 25.0])
        assert q[0::2].tolist() == [50.0, 25.0, 25.0]
        assert not q[1::2].any()

    @given(
        u=st.lists(st.floats(0, 1e6, allow_nan=False), min_size=3, max_size=3),
        dt=st.floats(0.1, 10.0),
    )
    @settings(max_examples=50)
    def test_total_mass_telescopes_to_accepts(self, u, dt):
        m = build_incidence(capabilities_of([
            CapabilitySpec(0, CapabilityClass.ACCEPT_AGRICULTURAL_N, 0,
                           origin=None, destination=0, resource_id="land-1"),
            CapabilitySpec(1, CapabilityClass.TRANSPORT_LAND_TO_OUTLET_N, 0,
                           origin=0, destination=1, resource_id="land-1"),
            CapabilitySpec(2, CapabilityClass.TRANSPORT_RIVER_N, 0,
                           origin=1, destination=2, resource_id="seg-1"),
        ]), 3)
        # transports net out; only the accept firing adds mass
        assert np.asarray(m.sum(axis=0)).ravel().tolist() == [1, 0, 0]
        q0 = np.arange(6, dtype=float)
        q1 = q0 + m @ np.array(u) * dt
        # In floats the firings of ~1e7 cancel only to rounding: each of the
        # three flows' terms is rounded four times and the sums three more,
        # each within one spacing of the largest mass.  The most seen over
        # 200,000 random draws was 4 spacings.
        assert abs((q1 - q0).sum() - dt * u[0]) \
            <= 16 * np.spacing(np.abs(q1).max())


class TestSpecs:
    def test_capability_origin_rules(self):
        with pytest.raises(ValueError):
            CapabilitySpec(0, CapabilityClass.ACCEPT_DEVELOPED_P, 1,
                           origin=0, destination=0, resource_id="l")
        with pytest.raises(ValueError):
            CapabilitySpec(0, CapabilityClass.TRANSPORT_RIVER_N, 0,
                           origin=None, destination=1, resource_id="s")


class TestClassCodes:
    """A class's code, its position in ``CapabilityClass``, is ``kind *
    len(OPERAND_NAMES) + operand``."""

    # The export kind of each (action, sector) the enum declares.
    KIND = {("accept", sector): f"accept_{sector}" for sector in SECTORS} | {
        ("transport_land", None): "transport_land_to_outlet",
        ("transport_river", None): "transport_river"}

    def test_code_rule(self):
        n_ops = len(OPERAND_NAMES)
        assert len(CAPABILITY_CLASSES) == len(CAPABILITY_KINDS) * n_ops
        for code, cls in enumerate(CAPABILITY_CLASSES):
            assert cls.operand_name == OPERAND_NAMES[code % n_ops], cls
            assert self.KIND[cls.action, cls.sector] \
                == CAPABILITY_KINDS[code // n_ops], cls

    @pytest.mark.parametrize("args", list(BUNDLE_DIGESTS),
                             ids=["per-segment", "grouped"])
    def test_instantiated_codes_match_enum_lookup(self, tmp_path, args):
        assert main(["synth", *args, "--out", str(tmp_path)]) == 0
        caps = instantiate_capabilities(load_network(tmp_path / "network.json"))

        def code(*value):
            return CAPABILITY_CLASSES.index(CapabilityClass(value))

        want = np.full(len(caps), -1)
        for o, op in enumerate(OPERAND_NAMES):
            for s, sector in enumerate(SECTORS):
                want[caps.accept[:, s, o]] = code("accept", sector, op)
            want[caps.land_transport[:, o]] = code("transport_land", None, op)
            want[caps.river_transport[:, o]] = code("transport_river", None, op)
        assert (want >= 0).all()
        assert caps.capability_class.tolist() == want.tolist()
