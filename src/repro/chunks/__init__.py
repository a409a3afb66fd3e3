"""Chunked, content-addressed object transfer with erasure-coded placement.

Logical files are split into fixed-count content-addressed chunks
(blake2b chunk ids, deduplicated across objects), expanded to k data +
m parity chunks by a deterministic pure-python systematic Reed–Solomon
coder over GF(256), and placed site-disjoint across the grid so any k
of the k+m chunk replicas reconstruct the object byte-identically.

Layers:

* :mod:`~repro.chunks.gf256` — the erasure coder;
* :mod:`~repro.chunks.manifest` — witnesses, chunk ids, manifests;
* :mod:`~repro.chunks.placement` — the seeded deterministic stripe
  placement policy;
* :mod:`~repro.chunks.directory` — the ``chunk.*`` bus service
  (init / commit / manifest / repair_done; writes are idempotent calls
  the request server's exactly-once middleware applies once) plus its
  site-side proxy;
* :mod:`~repro.chunks.store` — the per-site client: ``put_object``
  (chunk, place, upload, verify, commit) and ``fetch_object``
  (any-k-of-n reconstruction with ranked failover);
* :mod:`~repro.chunks.scrub` — the standing claim-based scrub/repair
  components on the workload queue;
* :mod:`~repro.chunks.runtime` — grid-level assembly.
"""

from repro.chunks.gf256 import ReedSolomon
from repro.chunks.manifest import (
    ChunkSpec,
    Manifest,
    build_manifest,
    chunk_content_id,
    chunk_crc,
    chunk_id_of,
    chunk_path,
    object_fingerprint,
    witness,
)
from repro.chunks.placement import place_stripe
from repro.chunks.directory import (
    ChunkDirectory,
    ChunkDirectoryProxy,
    ChunkDirectoryService,
)
from repro.chunks.store import ChunkStoreClient, ChunkStoreError
from repro.chunks.scrub import Repairer, Scrubber, ScrubPlanner
from repro.chunks.runtime import ChunkConfig, ChunkRuntime

__all__ = [
    "ReedSolomon",
    "ChunkSpec",
    "Manifest",
    "build_manifest",
    "witness",
    "chunk_id_of",
    "chunk_content_id",
    "chunk_crc",
    "chunk_path",
    "object_fingerprint",
    "place_stripe",
    "ChunkDirectory",
    "ChunkDirectoryService",
    "ChunkDirectoryProxy",
    "ChunkStoreClient",
    "ChunkStoreError",
    "ScrubPlanner",
    "Scrubber",
    "Repairer",
    "ChunkConfig",
    "ChunkRuntime",
]
