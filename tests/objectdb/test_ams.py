"""Tests for the AMS-style remote page server and remote reader."""

import pytest

from repro.netsim.channels import MessageNetwork
from repro.netsim.link import Link
from repro.netsim.topology import Host, Topology
from repro.netsim.units import mbps
from repro.objectdb import Federation
from repro.objectdb.ams import AmsPageServer, RemoteObjectReader
from repro.simulation import Simulator


@pytest.fixture
def remote_setup():
    sim = Simulator()
    topo = Topology()
    topo.add_host(Host("store"))
    topo.add_host(Host("client"))
    topo.connect("store", "client",
                 Link("wan", capacity=mbps(45), delay=0.0625))
    msgnet = MessageNetwork(sim, topo)
    federation = Federation("cms", site="store")
    federation.declare_type("aod")
    db = federation.create_database("data.db")
    container = db.create_container()
    objects = [
        db.new_object(container, "aod", 4000, f"{i}/aod") for i in range(20)
    ]
    server = AmsPageServer(sim, msgnet, topo.host("store"), federation)
    reader = RemoteObjectReader(sim, msgnet, topo.host("client"), server)
    return sim, server, reader, objects


def test_remote_read_returns_the_object(remote_setup):
    sim, _server, reader, objects = remote_setup
    obj = sim.run(until=reader.read(objects[3].oid))
    assert obj.logical_key == "3/aod"
    assert reader.page_fetches >= 1


def test_each_page_miss_costs_a_wan_round_trip(remote_setup):
    sim, _server, reader, objects = remote_setup
    start = sim.now
    sim.run(until=reader.read(objects[0].oid))
    elapsed = sim.now - start
    # one 4000 B object on one 8 KiB page: at least one 125 ms round trip
    assert elapsed > 0.125
    assert reader.page_fetches == 1


def test_page_cache_makes_second_read_free(remote_setup):
    sim, _server, reader, objects = remote_setup
    sim.run(until=reader.read(objects[0].oid))
    fetches = reader.page_fetches
    start = sim.now
    # object 1 shares object 0's page (4000+4000 < 8192)
    sim.run(until=reader.read(objects[1].oid))
    assert reader.page_fetches == fetches
    assert sim.now - start < 0.01


def test_drop_cache_forces_refetch(remote_setup):
    sim, _server, reader, objects = remote_setup
    sim.run(until=reader.read(objects[0].oid))
    reader.drop_cache()
    sim.run(until=reader.read(objects[0].oid))
    assert reader.page_fetches == 2


def test_read_many_scales_with_distinct_pages(remote_setup):
    sim, server, reader, objects = remote_setup
    start = sim.now
    sim.run(until=reader.read_many([o.oid for o in objects]))
    # 20 x 4000 B objects = ~10 pages; sequential fetches dominate
    assert 9 <= reader.page_fetches <= 11
    assert sim.now - start > 9 * 0.125
    assert server.monitor.counter("pages_served") == reader.page_fetches


def test_remote_navigation(remote_setup):
    sim, _server, reader, objects = remote_setup
    objects[0].associate("next", objects[10].oid)
    targets = sim.run(until=reader.navigate(objects[0], "next"))
    assert targets[0].logical_key == "10/aod"
