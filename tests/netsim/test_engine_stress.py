"""Engine stress: many concurrent transfers with global conservation."""

import pytest

from repro.netsim import TcpParams, TestbedParams, cern_anl_testbed
from repro.netsim.units import KiB, MB, mbps


def test_fifty_concurrent_transfers_complete_and_conserve_bytes():
    params = TestbedParams(extra_sites=("caltech", "lyon"), seed=11)
    sim, topo, engine = cern_anl_testbed(params)
    routes = [("cern", "anl"), ("cern", "caltech"), ("cern", "lyon"),
              ("anl", "caltech"), ("lyon", "anl")]
    pools = []
    for i in range(50):
        src, dst = routes[i % len(routes)]
        pools.append(
            engine.open_transfer(
                src, dst, nbytes=(1 + i % 5) * MB,
                streams=1 + i % 3,
                tcp=TcpParams(buffer=(64 if i % 2 else 256) * KiB),
                name=f"stress{i}",
            )
        )
    sim.run()
    total_expected = sum(p.size for p in pools)
    for pool in pools:
        assert pool.exhausted
        assert pool.delivered == pytest.approx(pool.size)
        assert pool.completed_at > pool.started_at
    assert engine.monitor.counter("bytes_delivered") == pytest.approx(
        total_expected
    )
    assert engine.monitor.counter("transfers_completed") == 50
    # aggregate goodput can never exceed the sum of link capacities
    elapsed = max(p.completed_at for p in pools)
    assert total_expected / elapsed < 4 * mbps(45)


def test_staggered_arrivals_all_finish():
    sim, _topo, engine = cern_anl_testbed(TestbedParams(seed=4))
    finished = []

    def submitter(sim):
        for i in range(10):
            pool = engine.open_transfer(
                "cern", "anl", nbytes=2 * MB, streams=2,
                tcp=TcpParams(buffer=256 * KiB),
            )

            def waiter(sim, pool=pool):
                yield pool.done
                finished.append(sim.now)

            sim.spawn(waiter(sim, pool))
            yield sim.timeout(3.0)

    sim.spawn(submitter(sim))
    sim.run()
    assert len(finished) == 10
    assert finished == sorted(finished)
