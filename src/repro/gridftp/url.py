"""gsiftp:// URL handling and the ``globus_url_copy`` scripting tool.

§3.2: "A full-featured command line tool appropriate for scripting called
globus_url_copy is provided."  Here it is a simulation coroutine that
connects, negotiates buffers/streams, transfers, and disconnects — the same
sequence the real tool drives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.gridftp.client import GridFTPClient, TransferError
from repro.simulation.kernel import Process

__all__ = ["GridFTPUrl", "parse_url", "globus_url_copy"]

DEFAULT_PORT = 2811


@dataclass(frozen=True)
class GridFTPUrl:
    """A parsed ``gsiftp://host[:port]/path`` or ``file:///path`` URL."""

    scheme: str
    host: str
    port: int
    path: str

    def __str__(self) -> str:
        if self.scheme == "file":
            return f"file://{self.path}"
        return f"{self.scheme}://{self.host}:{self.port}{self.path}"


def parse_url(url: str) -> GridFTPUrl:
    """Parse a gsiftp:// or file:// URL; raises ValueError when malformed."""
    if "://" not in url:
        raise ValueError(f"not a URL: {url!r}")
    scheme, rest = url.split("://", 1)
    if scheme == "file":
        if not rest.startswith("/"):
            raise ValueError(f"file URL must carry an absolute path: {url!r}")
        return GridFTPUrl(scheme="file", host="", port=0, path=rest)
    if scheme != "gsiftp":
        raise ValueError(f"unsupported scheme {scheme!r}")
    if "/" not in rest:
        raise ValueError(f"missing path in {url!r}")
    authority, path = rest.split("/", 1)
    path = "/" + path
    if ":" in authority:
        host, port_text = authority.split(":", 1)
        try:
            port = int(port_text)
        except ValueError:
            raise ValueError(f"bad port in {url!r}") from None
    else:
        host, port = authority, DEFAULT_PORT
    if not host:
        raise ValueError(f"missing host in {url!r}")
    return GridFTPUrl(scheme="gsiftp", host=host, port=port, path=path)


def globus_url_copy(
    client: GridFTPClient,
    src_url: str,
    dst_url: str,
    streams: int = 1,
    tcp_buffer: Optional[int] = None,
) -> Process:
    """Copy ``src_url`` to ``dst_url``; returns a process yielding a
    :class:`TransferResult`.

    Supported forms (as with the real tool):

    * ``gsiftp://A/p  ->  file:///q``    — get to the client's site
    * ``file:///p     ->  gsiftp://B/q`` — put from the client's site
    * ``gsiftp://A/p  ->  gsiftp://B/q`` — third-party transfer
    """
    src = parse_url(src_url)
    dst = parse_url(dst_url)
    sim = client.sim

    def run():
        if src.scheme == "gsiftp" and dst.scheme == "file":
            session = yield client.connect(src.host)
            try:
                if tcp_buffer is not None:
                    yield client.set_buffer(session, tcp_buffer)
                if streams != 1:
                    yield client.set_parallelism(session, streams)
                result = yield client.get(session, src.path, dst.path)
            finally:
                yield client.quit(session)
            return result
        if src.scheme == "file" and dst.scheme == "gsiftp":
            session = yield client.connect(dst.host)
            try:
                if tcp_buffer is not None:
                    yield client.set_buffer(session, tcp_buffer)
                if streams != 1:
                    yield client.set_parallelism(session, streams)
                result = yield client.put(session, src.path, dst.path)
            finally:
                yield client.quit(session)
            return result
        if src.scheme == "gsiftp" and dst.scheme == "gsiftp":
            src_session = yield client.connect(src.host)
            dst_session = yield client.connect(dst.host)
            try:
                if tcp_buffer is not None:
                    yield client.set_buffer(src_session, tcp_buffer)
                if streams != 1:
                    yield client.set_parallelism(src_session, streams)
                result = yield client.third_party_transfer(
                    src_session, dst_session, src.path, dst.path
                )
            finally:
                yield client.quit(src_session)
                yield client.quit(dst_session)
            return result
        raise TransferError(f"unsupported URL pair {src_url!r} -> {dst_url!r}")

    return sim.spawn(run(), name=f"globus-url-copy {src_url}")
