import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basinflow.core_net import (
    BufferKind,
    BufferSpec,
    CapabilityClass,
    CapabilitySpec,
    build_incidence,
    default_operands,
    place_index,
    state_transition,
)

from pipeline_util import capabilities_of


class TestPlaceIndex:
    def test_first_place(self):
        assert place_index(0, 0, 2) == 0

    def test_operand_fastest(self):
        assert place_index(1, 0, 2) == 1

    def test_buffer_major(self):
        # 3 * 2 + 1, evaluated by hand
        assert place_index(1, 3, 2) == 7

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            place_index(2, 0, 2)
        with pytest.raises(ValueError):
            place_index(-1, 0, 2)
        with pytest.raises(ValueError):
            place_index(0, -1, 2)
        with pytest.raises(ValueError):
            place_index(0, 5, 2, n_buffers=5)

    @given(n_operands=st.integers(1, 5), n_buffers=st.integers(1, 30))
    @settings(max_examples=50)
    def test_bijection(self, n_operands, n_buffers):
        seen = {
            place_index(i, y, n_operands, n_buffers)
            for y in range(n_buffers)
            for i in range(n_operands)
        }
        assert seen == set(range(n_operands * n_buffers))


class TestBuildIncidence:
    def test_single_accept_is_source_only(self):
        caps = [CapabilitySpec(0, CapabilityClass.ACCEPT_AGRICULTURAL_N, 0,
                               origin=None, destination=0, resource_id="l")]
        inc = build_incidence(capabilities_of(caps), 1, 1)
        assert inc.m_plus.toarray().tolist() == [[1]]
        assert inc.m_minus.nnz == 0

    def test_single_transport_conserves(self):
        caps = [CapabilitySpec(0, CapabilityClass.TRANSPORT_RIVER_N, 0,
                               origin=0, destination=1, resource_id="s")]
        inc = build_incidence(capabilities_of(caps), 1, 2)
        col = inc.m.toarray()[:, 0]
        assert col.tolist() == [-1, 1]
        assert col.sum() == 0

    def test_chain_fixture_entries(self, mini_chain_incidence):
        m = mini_chain_incidence.m.toarray()
        # hand enumeration: accept -> place 0; land transport 0 -> 1;
        # river transport 1 -> 2
        assert m.tolist() == [[1, -1, 0], [0, 1, -1], [0, 0, 1]]
        assert m.sum(axis=0).tolist() == [1, 0, 0]

    def test_column_conservation_classes(self, mini_chain_incidence):
        sums = np.asarray(mini_chain_incidence.m.sum(axis=0)).ravel()
        assert sums[0] == 1  # accept
        assert sums[1] == sums[2] == 0  # transports

    def test_dangling_buffer_rejected(self):
        caps = [CapabilitySpec(0, CapabilityClass.ACCEPT_AGRICULTURAL_N, 0,
                               origin=None, destination=7, resource_id="l")]
        with pytest.raises(ValueError, match="does not exist"):
            build_incidence(capabilities_of(caps), 1, 3)

    @pytest.mark.parametrize("origin, operand, message", [
        (5, 0, "origin buffer 5 does not exist"),
        (-2, 0, "origin buffer -2 does not exist"),
        (0, 1, "operand 1 does not exist"),
    ])
    def test_dangling_origin_or_operand_rejected(self, origin, operand, message):
        caps = [CapabilitySpec(0, CapabilityClass.TRANSPORT_RIVER_N, operand,
                               origin=origin, destination=1, resource_id="s")]
        with pytest.raises(ValueError, match=f"capability 0: {message}"):
            build_incidence(capabilities_of(caps), 1, 3)

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
        inc = build_incidence(capabilities_of(caps), 2, 3)
        coo = inc.m.tocoo()
        for row, col in zip(coo.row, coo.col):
            assert row % 2 == caps[col].operand


class TestStateTransition:
    def test_null_firing(self, mini_chain_incidence):
        q = state_transition(np.zeros(3), np.zeros(3), 1.0,
                             mini_chain_incidence.m)
        assert (q == 0).all()

    def test_chain_hand_evaluation(self, mini_chain_incidence):
        q = state_transition(np.zeros(3), [100.0, 50.0, 25.0], 1.0,
                             mini_chain_incidence.m)
        assert q.tolist() == [50.0, 25.0, 25.0]

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
        ]), 1, 3).m
        q0 = np.arange(3, dtype=float)
        q1 = state_transition(q0, u, dt, m)
        # transports net out; only the accept firing adds mass
        assert (q1 - q0).sum() == pytest.approx(dt * u[0], rel=1e-9, abs=1e-9)

    def test_dimension_mismatch(self, mini_chain_incidence):
        with pytest.raises(ValueError):
            state_transition(np.zeros(2), np.zeros(3), 1.0,
                             mini_chain_incidence.m)
        with pytest.raises(ValueError):
            state_transition(np.zeros(3), np.zeros(2), 1.0,
                             mini_chain_incidence.m)
        with pytest.raises(ValueError):
            state_transition(np.zeros(3), np.zeros(3), 0.0,
                             mini_chain_incidence.m)


class TestSpecs:
    def test_buffer_county_rule(self):
        with pytest.raises(ValueError):
            BufferSpec(0, BufferKind.OUTLET_POINT, "o", county="alpha")
        with pytest.raises(ValueError):
            BufferSpec(0, BufferKind.LAND_SEGMENT, "l")

    def test_capability_origin_rules(self):
        with pytest.raises(ValueError):
            CapabilitySpec(0, CapabilityClass.ACCEPT_DEVELOPED_P, 1,
                           origin=0, destination=0, resource_id="l")
        with pytest.raises(ValueError):
            CapabilitySpec(0, CapabilityClass.TRANSPORT_RIVER_N, 0,
                           origin=None, destination=1, resource_id="s")

    def test_default_operands(self):
        ops = default_operands()
        assert [op.id for op in ops] == [0, 1]
        assert [op.name for op in ops] == ["nitrogen", "phosphorus"]
