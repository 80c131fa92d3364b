"""Place/transition structure of a watershed nutrient network.

The network state lives on *places*: one place per (operand, buffer) pair,
where operands are the tracked nutrients (nitrogen, phosphorus) and buffers
are the locations that can hold them (land segments, outlet points,
estuaries).  *Capabilities* are the transitions: each one either injects an
operand into a buffer from outside the system (an accept) or moves it from
one buffer to another (a transport).

The structure is encoded in a pair of 0/1 incidence matrices over
places x capabilities; their difference drives the mass-balance recursion
``q[k+1] = q[k] + m @ u[k] * dt``.

Vectorization convention (used everywhere in this package): the place axis
is buffer-major and operand-fastest, i.e. place = buffer * n_operands +
operand.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp

NITROGEN = "nitrogen"
PHOSPHORUS = "phosphorus"
SECTORS = ("agricultural", "developed")


@dataclass(frozen=True)
class Operand:
    """A tracked nutrient species.

    Parameters
    ----------
    id : int
        Contiguous index, 0..n_operands-1.
    name : str
        Unique lowercase name, e.g. "nitrogen".
    unit : str
        Mass unit; all shipped datasets use pounds.
    """

    id: int
    name: str
    unit: str = "pounds"


def default_operands() -> tuple[Operand, Operand]:
    """The standard two-nutrient operand set."""
    return (Operand(0, NITROGEN), Operand(1, PHOSPHORUS))


class BufferKind(Enum):
    LAND_SEGMENT = "land_segment"
    OUTLET_POINT = "outlet_point"
    ESTUARY = "estuary"


@dataclass(frozen=True)
class BufferSpec:
    """A location that stores or transforms operands.

    ``county`` is set for land segments only; ``external_id`` carries the
    source dataset's identifier (e.g. a land-river segment code).
    """

    id: int
    kind: BufferKind
    external_id: str
    county: Optional[str] = None

    def __post_init__(self) -> None:
        if (self.county is not None) != (self.kind is BufferKind.LAND_SEGMENT):
            raise ValueError(
                f"buffer {self.external_id!r}: county must be present iff "
                f"the buffer is a land segment"
            )


class CapabilityClass(Enum):
    """The eight capability classes of the watershed architecture.

    Accepts inject nutrient mass applied by an economic sector onto a land
    segment; land transports move it from a land segment to its outlet;
    river transports move it between outlets or into an estuary.
    """

    ACCEPT_AGRICULTURAL_N = ("accept", "agricultural", NITROGEN)
    ACCEPT_AGRICULTURAL_P = ("accept", "agricultural", PHOSPHORUS)
    ACCEPT_DEVELOPED_N = ("accept", "developed", NITROGEN)
    ACCEPT_DEVELOPED_P = ("accept", "developed", PHOSPHORUS)
    TRANSPORT_LAND_TO_OUTLET_N = ("transport_land", None, NITROGEN)
    TRANSPORT_LAND_TO_OUTLET_P = ("transport_land", None, PHOSPHORUS)
    TRANSPORT_RIVER_N = ("transport_river", None, NITROGEN)
    TRANSPORT_RIVER_P = ("transport_river", None, PHOSPHORUS)

    def __init__(self, action: str, sector: Optional[str], operand_name: str):
        # Plain attributes: ``value`` goes through the enum descriptor,
        # which is slow in loops over every capability.
        self.action = action
        self.sector = sector
        self.operand_name = operand_name
        self.is_accept = action == "accept"


@dataclass(frozen=True)
class CapabilitySpec:
    """One transition of the network: a resource doing one thing to one operand.

    Accept capabilities have no origin (mass enters from outside the
    system); transports pull from ``origin`` and push to ``destination``.
    ``resource_id`` names the land or river segment performing the action.
    """

    id: int
    capability_class: CapabilityClass
    operand: int
    origin: Optional[int]
    destination: int
    resource_id: str

    def __post_init__(self) -> None:
        if self.capability_class.is_accept and self.origin is not None:
            raise ValueError(
                f"capability {self.id} ({self.resource_id}): accept "
                f"capabilities take no origin buffer"
            )
        if not self.capability_class.is_accept and self.origin is None:
            raise ValueError(
                f"capability {self.id} ({self.resource_id}): transport "
                f"capabilities require an origin buffer"
            )


@dataclass(frozen=True)
class IncidenceMatrices:
    """Injection/extraction structure over places x capabilities.

    ``m_plus[p, c] == 1`` when capability ``c`` injects its operand into the
    buffer of place ``p``; ``m_minus[p, c] == 1`` when it pulls from there.
    ``m = m_plus - m_minus`` is the signed matrix used in the mass balance.
    All three are CSC with sorted, deduplicated indices so that equal
    structures compare equal regardless of assembly order.
    """

    m_plus: sp.csc_matrix
    m_minus: sp.csc_matrix
    m: sp.csc_matrix
    n_operands: int
    n_buffers: int

    @property
    def n_places(self) -> int:
        return self.n_operands * self.n_buffers

    @property
    def n_capabilities(self) -> int:
        return self.m.shape[1]


def place_index(operand: int, buffer: int, n_operands: int,
                n_buffers: Optional[int] = None) -> int:
    """Map an (operand, buffer) pair to its place-vector position.

    Buffer-major, operand-fastest: ``buffer * n_operands + operand``.
    Bijective over 0..n_operands*n_buffers-1.
    """
    if not 0 <= operand < n_operands:
        raise ValueError(f"operand index {operand} out of range [0, {n_operands})")
    if buffer < 0:
        raise ValueError(f"buffer index {buffer} is negative")
    if n_buffers is not None and buffer >= n_buffers:
        raise ValueError(f"buffer index {buffer} out of range [0, {n_buffers})")
    return buffer * n_operands + operand


def build_incidence(capabilities: Sequence[CapabilitySpec], n_operands: int,
                    n_buffers: int) -> IncidenceMatrices:
    """Assemble the incidence matrices for a capability list.

    Every capability contributes a +1 at (its operand, its destination);
    transports additionally contribute a +1 to ``m_minus`` at (operand,
    origin).  Capability ids must be exactly 0..len-1 and all buffer
    references must be in range.
    """
    n_caps = len(capabilities)
    seen_ids = set()
    for cap in capabilities:
        if cap.id in seen_ids:
            raise ValueError(f"duplicate capability id {cap.id}")
        seen_ids.add(cap.id)
        if not 0 <= cap.id < n_caps:
            raise ValueError(
                f"capability id {cap.id} outside contiguous range [0, {n_caps})"
            )

    plus_rows, plus_cols = [], []
    minus_rows, minus_cols = [], []
    for cap in capabilities:
        if cap.destination < 0 or cap.destination >= n_buffers:
            raise ValueError(
                f"capability {cap.id}: destination buffer {cap.destination} "
                f"does not exist"
            )
        plus_rows.append(place_index(cap.operand, cap.destination, n_operands))
        plus_cols.append(cap.id)
        if cap.origin is not None:
            if cap.origin < 0 or cap.origin >= n_buffers:
                raise ValueError(
                    f"capability {cap.id}: origin buffer {cap.origin} "
                    f"does not exist"
                )
            minus_rows.append(place_index(cap.operand, cap.origin, n_operands))
            minus_cols.append(cap.id)

    shape = (n_operands * n_buffers, n_caps)
    m_plus = sp.coo_matrix(
        (np.ones(len(plus_rows), dtype=np.int8), (plus_rows, plus_cols)),
        shape=shape,
    ).tocsc()
    m_minus = sp.coo_matrix(
        (np.ones(len(minus_rows), dtype=np.int8), (minus_rows, minus_cols)),
        shape=shape,
    ).tocsc()
    m = (m_plus - m_minus).tocsc()
    for mat in (m_plus, m_minus, m):
        mat.sum_duplicates()
        mat.sort_indices()
    return IncidenceMatrices(m_plus, m_minus, m, n_operands, n_buffers)


def state_transition(q_b: np.ndarray, u: np.ndarray, dt: float,
                     m: sp.spmatrix) -> np.ndarray:
    """Advance the place-mass vector one step: ``q_b + m @ u * dt``.

    ``u`` holds per-capability flow rates (mass/time); ``dt`` is the step
    duration, so transports conserve total mass and accepts add it.
    """
    n_places, n_caps = m.shape
    q_b = np.asarray(q_b, dtype=float)
    u = np.asarray(u, dtype=float)
    if q_b.shape != (n_places,):
        raise ValueError(
            f"state vector has length {q_b.shape}, expected ({n_places},)"
        )
    if u.shape != (n_caps,):
        raise ValueError(
            f"firing vector has length {u.shape}, expected ({n_caps},)"
        )
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    return q_b + m @ u * dt
