import pytest

from basinflow.core_net import (
    CapabilityClass,
    CapabilitySpec,
    build_incidence,
)
from basinflow.topology import (
    Estuary,
    LandSegment,
    Outlet,
    RiverLink,
    WatershedNetwork,
)

from pipeline_util import capabilities_of, network_doc


@pytest.fixture
def mini_chain_caps():
    """Three buffers (land 0, outlet 1, estuary 2) and three nitrogen
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
    return build_incidence(capabilities_of(mini_chain_caps), n_buffers=3)


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
def two_estuary_network():
    """Three outlets draining to two estuaries, ``river_links`` out of
    outlet order: out-3 -> out-1 -> bay-1 and out-2 -> bay-2.  Counties
    first appear in the order b, a, c."""
    return WatershedNetwork(
        land_segments=(
            LandSegment("land-1", "b", "seg-2", (("row_crops", 10.0),)),
            LandSegment("land-2", "a", "seg-1", (("pasture", 20.0),)),
            LandSegment("land-3", "b", "seg-3", (("row_crops", 30.0),)),
            LandSegment("land-4", "c", "seg-1", (("forest", 40.0),)),
        ),
        outlets=(Outlet("out-1", "seg-1"), Outlet("out-2", "seg-2"),
                 Outlet("out-3", "seg-3")),
        river_links=(RiverLink("out-3", "out-1"), RiverLink("out-2", "bay-2"),
                     RiverLink("out-1", "bay-1")),
        estuaries=(Estuary("bay-1"), Estuary("bay-2")),
    )


@pytest.fixture
def chain_network_doc(chain_network):
    return network_doc(chain_network)
