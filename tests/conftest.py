import pytest

from basinflow.core_net import (
    BufferKind,
    BufferSpec,
    CapabilityClass,
    CapabilitySpec,
    Operand,
    build_incidence,
)
from basinflow.topology import (
    Estuary,
    LandSegment,
    Outlet,
    RiverLink,
    WatershedNetwork,
)

from pipeline_util import capabilities_of


@pytest.fixture
def mini_chain_caps():
    """One operand, three buffers (land 0, outlet 1, estuary 2), three
    capabilities: accept into the land, land-to-outlet, outlet-to-estuary."""
    return [
        CapabilitySpec(0, CapabilityClass.ACCEPT_AGRICULTURAL_N, 0,
                       origin=None, destination=0, resource_id="land-1"),
        CapabilitySpec(1, CapabilityClass.TRANSPORT_LAND_TO_OUTLET_N, 0,
                       origin=0, destination=1, resource_id="land-1"),
        CapabilitySpec(2, CapabilityClass.TRANSPORT_RIVER_N, 0,
                       origin=1, destination=2, resource_id="seg-1"),
    ]


@pytest.fixture
def mini_chain_incidence(mini_chain_caps):
    return build_incidence(capabilities_of(mini_chain_caps), n_operands=1,
                           n_buffers=3)


@pytest.fixture
def chain_network():
    """Smallest valid network: one land segment, one outlet, one estuary."""
    return WatershedNetwork(
        land_segments=(LandSegment("land-1", "alpha", "seg-1",
                                   (("row_crops", 100.0),)),),
        outlets=(Outlet("out-1", "seg-1"),),
        river_links=(RiverLink("out-1", "bay"),),
        estuaries=(Estuary("bay"),),
    )


@pytest.fixture
def chain_network_doc(chain_network):
    return chain_network.to_dict()
