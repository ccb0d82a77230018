"""Communication metering shared by the distributed stack.

:class:`CommMeter` counts the bytes and calls a communicator moves.  The
socket transport (:mod:`repro.cluster.transport`) charges every frame to
it per peer, and the elastic engine (:mod:`repro.cluster.elastic`)
exposes its coordinator's meter as ``engine.meter``, so a distributed run
reports measured, not modelled, traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["CommMeter"]


@dataclass
class CommMeter:
    """Byte and call accounting for a communicator.

    ``volume_bytes`` counts the *wire* traffic: every byte once, charged
    by the sender (receives add calls and per-peer totals, not volume).

    Point-to-point traffic is accounted per peer: :meth:`record_send` and
    :meth:`record_recv` maintain ``sent_by_peer`` / ``recv_by_peer`` byte
    totals, which :meth:`export` publishes as observability counters
    (``comm.bytes_sent{peer=...}``) so traces show network cost per phase
    and per peer, not just one opaque total.
    """

    calls: dict = field(default_factory=dict)
    volume_bytes: float = 0.0
    sent_by_peer: dict = field(default_factory=dict)
    recv_by_peer: dict = field(default_factory=dict)
    _exported: dict = field(default_factory=dict, repr=False, compare=False)

    def record(self, op: str, nbytes: float) -> None:
        self.calls[op] = self.calls.get(op, 0) + 1
        self.volume_bytes += nbytes

    # -- point-to-point ---------------------------------------------------
    def record_send(self, peer: str, nbytes: float, op: str = "send") -> None:
        """One point-to-point send of ``nbytes`` to ``peer``."""
        self.record(op, nbytes)
        self.sent_by_peer[peer] = self.sent_by_peer.get(peer, 0.0) + nbytes

    def record_recv(self, peer: str, nbytes: float, op: str = "recv") -> None:
        """One point-to-point receive of ``nbytes`` from ``peer``.

        Received bytes are *not* added to ``volume_bytes`` — the sender
        already counted them on the wire — but the call and the per-peer
        volume are recorded.
        """
        self.calls[op] = self.calls.get(op, 0) + 1
        self.recv_by_peer[peer] = self.recv_by_peer.get(peer, 0.0) + nbytes

    def peer_counters(self) -> dict:
        """Per-peer byte totals as observability counter names."""
        out = {}
        for peer, nbytes in sorted(self.sent_by_peer.items()):
            out[f"comm.bytes_sent{{peer={peer}}}"] = nbytes
        for peer, nbytes in sorted(self.recv_by_peer.items()):
            out[f"comm.bytes_recv{{peer={peer}}}"] = nbytes
        return out

    def export(self, tracer) -> dict:
        """Publish per-peer byte volumes to ``tracer`` as counters.

        Only the *delta* since the previous export is added, so calling
        once per phase yields counters whose event timeline shows network
        cost per phase.  Returns the deltas that were published.
        """
        deltas = {}
        for name, total in self.peer_counters().items():
            delta = total - self._exported.get(name, 0.0)
            if delta > 0:
                tracer.add(name, delta)
                self._exported[name] = total
                deltas[name] = delta
        return deltas
