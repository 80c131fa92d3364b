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
from typing import Optional

import numpy as np
import scipy.sparse as sp

NITROGEN = "nitrogen"
PHOSPHORUS = "phosphorus"
SECTORS = ("agricultural", "developed")
OPERAND_NAMES = (NITROGEN, PHOSPHORUS)


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


CAPABILITY_CLASSES = tuple(CapabilityClass)


@dataclass(frozen=True, eq=False)
class Capabilities:
    """Every capability of a network, as parallel arrays over capability ids.

    ``capability_class`` indexes ``CAPABILITY_CLASSES``; ``origin`` is -1 for
    accepts.  ``resource`` names the land or river segment performing each
    action.  ``accept[land, sector, operand]``, ``land_transport[land,
    operand]`` and ``river_transport[link, operand]`` give the ids by network
    position, -1 where there is none: land segments and river links in
    network order, sectors as in ``SECTORS`` and operands as in
    ``OPERAND_NAMES``.  ``capabilities[i]`` is a read-only
    :class:`CapabilitySpec` view of capability i.
    """

    capability_class: np.ndarray
    operand: np.ndarray
    origin: np.ndarray
    destination: np.ndarray
    resource: np.ndarray
    accept: np.ndarray
    land_transport: np.ndarray
    river_transport: np.ndarray

    @property
    def n_caps(self) -> int:
        return self.operand.size

    def __len__(self) -> int:
        return self.n_caps

    def __getitem__(self, i: int) -> CapabilitySpec:
        i = range(self.n_caps)[i]
        origin = int(self.origin[i])
        return CapabilitySpec(i, CAPABILITY_CLASSES[self.capability_class[i]],
                              int(self.operand[i]), None if origin < 0 else origin,
                              int(self.destination[i]), self.resource[i])


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


def build_incidence(capabilities: Capabilities, n_operands: int,
                    n_buffers: int) -> IncidenceMatrices:
    """Assemble the incidence matrices of ``capabilities``.

    Every capability contributes a +1 to ``m_plus`` at (its operand, its
    destination); transports additionally contribute a +1 to ``m_minus`` at
    (operand, origin).  All operand and buffer references must be in range.
    """
    caps = np.arange(capabilities.n_caps)
    transports = np.flatnonzero(capabilities.origin != -1)
    operand = capabilities.operand
    for what, ids, values, bound in (
            ("operand", caps, operand, n_operands),
            ("destination buffer", caps, capabilities.destination, n_buffers),
            ("origin buffer", transports, capabilities.origin[transports], n_buffers)):
        bad = np.flatnonzero((values < 0) | (values >= bound))
        if bad.size:
            raise ValueError(f"capability {ids[bad[0]]}: {what} {values[bad[0]]} "
                             f"does not exist")

    shape = (n_operands * n_buffers, caps.size)

    def incidence(buffers: np.ndarray, cols: np.ndarray) -> sp.csc_matrix:
        places = buffers * n_operands + operand[cols]
        return sp.csc_matrix((np.ones(cols.size, dtype=np.int8), (places, cols)),
                             shape=shape)

    m_plus = incidence(capabilities.destination, caps)
    m_minus = incidence(capabilities.origin[transports], transports)
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
