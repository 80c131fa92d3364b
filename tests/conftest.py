import pytest

from basinflow.core_net import (
    CapabilityClass,
    CapabilitySpec,
    build_incidence,
)

from pipeline_util import capabilities_of, make_network, network_doc


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
    return make_network(
        land_segments=[("land-1", "alpha", "seg-1", (("row_crops", 100.0),),
                        None)],
        outlets=[("out-1", "seg-1", None)],
        river_links=[("out-1", "bay")],
        estuaries=[("bay", None)],
    )


@pytest.fixture
def two_estuary_network():
    """Three outlets draining to two estuaries, ``river_links`` out of
    outlet order: out-3 -> out-1 -> bay-1 and out-2 -> bay-2.  Counties
    first appear in the order b, a, c."""
    return make_network(
        land_segments=[
            ("land-1", "b", "seg-2", (("row_crops", 10.0),), None),
            ("land-2", "a", "seg-1", (("pasture", 20.0),), None),
            ("land-3", "b", "seg-3", (("row_crops", 30.0),), None),
            ("land-4", "c", "seg-1", (("forest", 40.0),), None),
        ],
        outlets=[("out-1", "seg-1", None), ("out-2", "seg-2", None),
                 ("out-3", "seg-3", None)],
        river_links=[("out-3", "out-1"), ("out-2", "bay-2"),
                     ("out-1", "bay-1")],
        estuaries=[("bay-1", None), ("bay-2", None)],
    )


@pytest.fixture
def chain_network_doc(chain_network):
    return network_doc(chain_network)
