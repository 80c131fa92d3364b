"""Place/transition structure of a watershed nutrient network.

The network state lives on *places*: one place per (operand, buffer) pair,
where operands are the tracked nutrients (nitrogen, phosphorus) and buffers
are the locations that can hold them (land segments, outlet points,
estuaries).  *Capabilities* are the transitions: each one either injects an
operand into a buffer from outside the system (an accept) or moves it from
one buffer to another (a transport).

The structure is the paper's signed incidence matrix ``M`` over places x
capabilities (``build_incidence``), +1 where a capability injects and -1
where it extracts; it drives the mass-balance recursion ``q[k+1] = q[k] +
M @ u[k] * dt``.

Vectorization convention (used everywhere in this package): the place axis
is buffer-major and operand-fastest, i.e. place = buffer *
len(OPERAND_NAMES) + operand, an operand's code being its position in
``OPERAND_NAMES``.
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
# What a capability does, as exports name it.  A capability class's code, its
# position in ``CapabilityClass``, is ``kind * len(OPERAND_NAMES) + operand``.
CAPABILITY_KINDS = ("accept_agricultural", "accept_developed",
                    "transport_land_to_outlet", "transport_river")


class CapabilityClass(Enum):
    """The eight capability classes of the watershed architecture, in code order.

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

    ``capability_class`` indexes ``CAPABILITY_CLASSES`` and ``operand``
    ``OPERAND_NAMES``; ``origin`` is -1 for accepts.  ``resource`` names the
    land or river segment performing each action.  ``accept[land, sector,
    operand]``, ``land_transport[land, operand]`` and ``river_transport[link,
    operand]`` give the ids by network position: land segments and river
    links in network order, sectors as in ``SECTORS`` and operands as in
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

    def __len__(self) -> int:
        return self.operand.size

    def __getitem__(self, i: int) -> CapabilitySpec:
        i = range(len(self))[i]
        origin = int(self.origin[i])
        return CapabilitySpec(i, CAPABILITY_CLASSES[self.capability_class[i]],
                              int(self.operand[i]), None if origin < 0 else origin,
                              int(self.destination[i]), self.resource[i])


def build_incidence(capabilities: Capabilities, n_buffers: int) -> sp.csc_matrix:
    """The signed incidence matrix ``M`` of ``capabilities``, places x
    capabilities.

    Every capability contributes a +1 at (its operand, its destination);
    transports additionally contribute a -1 at (operand, origin).  All
    operand and buffer references must be in range.  CSC with sorted,
    deduplicated indices, so equal structures compare equal regardless of
    assembly order.
    """
    n_operands = len(OPERAND_NAMES)
    caps = np.arange(len(capabilities))
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

    cols = np.concatenate([caps, transports])
    buffers = np.concatenate([capabilities.destination, capabilities.origin[transports]])
    values = np.concatenate([np.ones(caps.size, dtype=np.int8),
                             np.full(transports.size, -1, dtype=np.int8)])
    m = sp.csc_matrix((values, (buffers * n_operands + operand[cols], cols)),
                      shape=(n_operands * n_buffers, caps.size))
    m.sum_duplicates()
    m.eliminate_zeros()
    m.sort_indices()
    return m
