"""Open-loop arrival generation for the workload engine.

Models the production-style request stream of the "Simulation Study for
T0/T1 Data Replication": users across virtual organisations ask for
logical files at their sites at a configured aggregate rate, optionally
modulated by a diurnal profile.  The stream is *open-loop* — arrivals do
not wait for the pipeline; they are offered to admission control and
either released (as batched ``pick`` tasks to the queue) or shed at the
per-VO backlog cap.

Scale discipline: one million requests must cost neither one million
events nor one million envelopes.  The generator ticks once per
``profile.tick`` sim-seconds; each tick draws per-VO Poisson arrival
*counts* and distributes them over (destination, file) categories with a
single multinomial draw, and each drain flushes per-destination demand
as one bulk ``pick`` task carrying an ``lfn → count`` multiplicity map.
All randomness comes from one named :class:`RandomStream`, so the whole
stream is a pure function of (seed, profile).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.workload.admission import FairShareAdmission, TokenBucket

__all__ = ["ArrivalProfile", "ArrivalGenerator"]


@dataclass(frozen=True)
class ArrivalProfile:
    """Shape of the request stream."""

    rate: float = 400.0                  # aggregate requests / sim-second
    mix: tuple = (("atlas", 3.0), ("cms", 2.0), ("alice", 1.0))
    tick: float = 30.0                   # admission tick, sim-seconds
    diurnal_amplitude: float = 0.0       # 0..1; 0 = flat rate
    diurnal_period: float = 3600.0
    popularity_alpha: float = 1.1        # Zipf exponent over the file set
    admit_rate: float = 600.0            # token-bucket refill, requests/s
    admit_burst: float = 20_000.0        # token-bucket capacity
    max_backlog: int = 200_000           # per-VO backlog cap (then shed)

    def shares(self) -> dict[str, float]:
        """Normalised VO shares, sorted by name."""
        total = sum(w for _, w in self.mix)
        return {vo: w / total for vo, w in sorted(self.mix)}

    def diurnal(self, now: float) -> float:
        """Rate multiplier at sim time ``now``."""
        if self.diurnal_amplitude <= 0.0:
            return 1.0
        return 1.0 + self.diurnal_amplitude * math.sin(
            2.0 * math.pi * now / self.diurnal_period
        )


class ArrivalGenerator:
    """The standing arrival/admission process.

    Each tick: draw per-VO Poisson arrivals, offer them to fair-share
    admission, take a token-bucket budget, drain deficit-round-robin,
    and flush the released demand to the queue as one ``pick`` task per
    destination site.  Runs until ``total`` requests have been generated
    *and* the admission backlog has drained (sheds excepted).
    """

    def __init__(self, sim, proxy, profile: ArrivalProfile, *,
                 lfns: list[str], dest_sites: list[str],
                 rng, total: int, metrics=None):
        self.sim = sim
        self.proxy = proxy
        self.profile = profile
        self.rng = rng
        self.total = int(total)
        self.metrics = metrics
        self.dest_sites = sorted(dest_sites)
        self.lfns = list(lfns)
        if not self.lfns or not self.dest_sites:
            raise ValueError("arrival generator needs files and destinations")

        self.bucket = TokenBucket(profile.admit_rate, profile.admit_burst)
        self.fairshare = FairShareAdmission(
            {vo: w for vo, w in profile.mix},
            max_backlog=profile.max_backlog,
        )
        # fixed (dest, lfn) category grid: destinations uniform, files
        # Zipf-popular by position in the supplied list
        pop = [1.0 / (rank + 1) ** profile.popularity_alpha
               for rank in range(len(self.lfns))]
        pop_total = sum(pop)
        self._categories = [
            (dest, lfn) for dest in self.dest_sites for lfn in self.lfns
        ]
        self._probs = [
            (p / pop_total) / len(self.dest_sites)
            for _ in self.dest_sites for p in pop
        ]
        #: per-VO FIFO of per-tick demand chunks ({(dest, lfn): count});
        #: fair-share releases counts, these remember what they were for
        self._chunks: dict[str, list[dict]] = {
            vo: [] for vo in self.fairshare.weights
        }
        self.generated = 0
        self.admitted = 0
        self.ticks = 0
        self.pick_tasks = 0
        self.done = sim.event()

    # -- accounting -------------------------------------------------------
    def _count(self, name: str, amount: float, **labels) -> None:
        if self.metrics is not None and amount:
            self.metrics.counter(name, **labels).inc(amount)

    # -- one tick ---------------------------------------------------------
    def _draw_arrivals(self) -> None:
        """Poisson per-VO arrival counts for this tick, multinomially
        spread over the (dest, lfn) grid, offered to admission."""
        profile = self.profile
        lam = profile.rate * profile.diurnal(self.sim.now) * profile.tick
        for vo, share in profile.shares().items():
            if self.generated >= self.total:
                break
            n = int(self.rng.poisson(lam * share))
            n = min(n, self.total - self.generated)
            if n <= 0:
                continue
            self.generated += n
            self._count("workload.arrivals", n, vo=vo)
            accepted = self.fairshare.offer(vo, n)
            self._count("workload.arrivals_shed", n - accepted, vo=vo)
            if accepted <= 0:
                continue
            counts = self.rng.multinomial(accepted, self._probs)
            chunk = {
                self._categories[i]: int(c)
                for i, c in enumerate(counts) if c
            }
            self._chunks[vo].append(chunk)

    def _pop_demand(self, vo: str, n: int) -> dict:
        """Consume ``n`` released requests from ``vo``'s chunk FIFO, in
        arrival order (sorted categories within a chunk)."""
        demand: dict = {}
        fifo = self._chunks[vo]
        while n > 0 and fifo:
            chunk = fifo[0]
            for cat in sorted(chunk):
                if n <= 0:
                    break
                take = min(chunk[cat], n)
                chunk[cat] -= take
                if chunk[cat] == 0:
                    del chunk[cat]
                demand[cat] = demand.get(cat, 0) + take
                n -= take
            if not chunk:
                fifo.pop(0)
        return demand

    def _drain(self):
        """Token-bucket budget → fair-share drain → bulk pick tasks."""
        backlog = self.fairshare.backlog()
        if backlog == 0:
            return
        budget = self.bucket.take(self.sim.now, backlog)
        if budget <= 0:
            return
        released = self.fairshare.drain(budget)
        # merge all VOs' released demand into per-destination maps
        per_dest: dict[str, dict[str, int]] = {}
        for vo, count in released:
            self.admitted += count
            self._count("workload.admitted", count, vo=vo)
            for (dest, lfn), c in sorted(self._pop_demand(vo, count).items()):
                per_dest.setdefault(dest, {})
                per_dest[dest][lfn] = per_dest[dest].get(lfn, 0) + c
        if not per_dest:
            return
        tasks = []
        for dest in sorted(per_dest):
            serial = self.sim.next_serial("workload-pick")
            tasks.append({
                "type": "pick",
                "site": dest,
                "key": f"pick:{dest}:{serial}",
                "payload": {"demand": per_dest[dest]},
            })
        self.pick_tasks += len(tasks)
        yield self.proxy.submit_bulk(tasks)

    # -- the process body -------------------------------------------------
    def run(self):
        """Generator body: tick until generated == total and backlog == 0."""
        while True:
            if self.generated < self.total:
                self._draw_arrivals()
            yield from self._drain()
            self.ticks += 1
            if (self.generated >= self.total
                    and self.fairshare.backlog() == 0):
                break
            yield self.sim.timeout(self.profile.tick)
        self.done.succeed()
