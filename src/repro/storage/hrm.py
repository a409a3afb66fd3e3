"""Hierarchical Resource Manager: the uniform staging API.

§4.4: "GDMP has a plug-in for the Hierarchical Storage Manager (HRM)
[Bern00] APIs, which provide a common interface to be used to access
different Mass Storage Systems."  GDMP's storage manager talks to this
interface only, never to a concrete MSS — swapping HPSS for Castor (or for
no tape at all) is a constructor argument.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.simulation.kernel import Event, Simulator
from repro.storage.diskpool import DiskPool
from repro.storage.filesystem import StorageError
from repro.storage.mss import MassStorageSystem, TapeError

__all__ = ["StageStatus", "HierarchicalResourceManager"]


class StageStatus(enum.Enum):
    """Observable state of a file with respect to the disk pool."""

    ON_DISK = "on_disk"
    ON_TAPE = "on_tape"
    STAGING = "staging"
    UNKNOWN = "unknown"


class HierarchicalResourceManager:
    """Uniform disk/tape façade for one site.

    ``mss`` may be None for a disk-only site — stage requests for files not
    on disk then fail with :class:`StorageError`, which is exactly what a
    site without tertiary storage reports.
    """

    def __init__(
        self,
        sim: Simulator,
        pool: DiskPool,
        mss: Optional[MassStorageSystem] = None,
    ):
        self.sim = sim
        self.pool = pool
        self.mss = mss
        self._in_flight: dict[str, Event] = {}

    # -- interrogation -------------------------------------------------------
    def status(self, path: str) -> StageStatus:
        """Where a file currently is (disk / tape / staging / unknown)."""
        if path in self._in_flight:
            return StageStatus.STAGING
        if self.pool.fs.exists(path):
            return StageStatus.ON_DISK
        if self.mss is not None and self.mss.contains(path):
            return StageStatus.ON_TAPE
        return StageStatus.UNKNOWN

    def file_size(self, path: str) -> float:
        """Size of a file wherever it lives; raises StorageError when unknown."""
        if self.pool.fs.exists(path):
            return self.pool.fs.stat(path).size
        if self.mss is not None and self.mss.contains(path):
            return self.mss.archive_record(path).size
        raise StorageError(f"{self.pool.fs.site}: unknown file {path!r}")

    # -- the common interface --------------------------------------------------
    def stage_file(self, path: str) -> Event:
        """Ensure ``path`` is on disk; the event fires with the
        :class:`StoredFile`.  Disk hits complete immediately; tape misses
        trigger (or join) a staging; unknown files fail the event."""
        done = self.sim.event()
        now = self.sim.now
        cached = self.pool.lookup(path, now)
        if cached is not None:
            done.succeed(cached)
            return done
        pending = self._in_flight.get(path)
        if pending is not None:
            # Join the staging already under way.
            def follow(sim=self.sim):
                try:
                    stored = yield pending
                except StorageError as exc:
                    done.fail(exc)
                    return
                done.succeed(stored)

            self.sim.spawn(follow(), name=f"follow-stage {path}")
            return done
        if self.mss is None or not self.mss.contains(path):
            done.fail(
                TapeError(f"{self.pool.fs.site}: {path!r} neither on disk nor on tape")
            )
            return done
        staging = self.mss.stage_to_pool(self.pool, path)
        self._in_flight[path] = staging

        def finish(sim=self.sim):
            try:
                stored = yield staging
            except StorageError as exc:
                del self._in_flight[path]
                done.fail(exc)
                return
            del self._in_flight[path]
            done.succeed(stored)

        self.sim.spawn(finish(), name=f"finish-stage {path}")
        return done

    def archive_file(self, path: str) -> Event:
        """Migrate a disk file to tape via the MSS."""
        if self.mss is None:
            failed = self.sim.event()
            failed.fail(StorageError(f"{self.pool.fs.site}: no MSS attached"))
            return failed
        return self.mss.migrate(self.pool, path)

    def release_file(self, path: str) -> None:
        """Drop one pin; the pool may evict the file afterwards."""
        self.pool.unpin(path)
