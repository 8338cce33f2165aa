"""Message records and aggregate statistics."""

from __future__ import annotations

import dataclasses

import numpy as np

__all__ = ["Message", "MessageStats", "SIZE_CLASS_EDGES", "size_class_label"]

#: Upper edges (bytes, inclusive) of the message-size classes tail latencies
#: are bucketed by; traffic above the last edge lands in the open top class.
SIZE_CLASS_EDGES: tuple[float, ...] = (1024.0, 16384.0, 262144.0)


def size_class_label(index: int,
                     edges: tuple[float, ...] = SIZE_CLASS_EDGES) -> str:
    """Stable printable name of size class ``index`` (e.g. ``"<=16KiB"``)."""
    def _fmt(bytes_: float) -> str:
        if bytes_ >= 1024.0 and bytes_ % 1024.0 == 0:
            return f"{int(bytes_ // 1024)}KiB"
        return f"{int(bytes_)}B"

    if index < len(edges):
        return f"<={_fmt(edges[index])}"
    return f">{_fmt(edges[-1])}"


@dataclasses.dataclass(slots=True)
class Message:
    """One point-to-point message tracked by the simulator.

    Times are microseconds of simulation time; ``deliver_time`` is filled in
    when the tail of the message reaches the destination processor.
    """

    msg_id: int
    src: int
    dst: int
    size_bytes: float
    send_time: float
    deliver_time: float | None = None
    hops: int = 0
    #: end-to-end retransmissions so far (buffer overflows; see simulator)
    attempts: int = 0
    #: True once the simulator gave up on the message (exhausted overflow
    #: retries; never set under the default unroutable_policy="raise")
    dropped: bool = False

    @property
    def latency(self) -> float:
        """End-to-end latency (send to full delivery), in microseconds."""
        if self.deliver_time is None:
            raise ValueError(f"message {self.msg_id} not delivered yet")
        return self.deliver_time - self.send_time


class MessageStats:
    """Streaming accumulator of delivered-message latencies and volume.

    Besides the seed-era aggregates (count, bytes, hops-per-byte, mean/max
    latency) this tracks everything the finite-buffer tail-latency report
    needs: per-message sizes (for size-class percentiles), end-to-end
    retransmissions, buffer-overflow drop events and final drops. All
    counters update in event order, so two runs with the same
    seed produce bit-identical snapshots (the determinism guard in
    ``tests/netsim/test_buffered.py``).
    """

    def __init__(self):
        # Deliveries in order: chunks of (latencies, sizes) float64 arrays,
        # then the values record() appended since the last chunk. Reading
        # joins them into one chunk, which stays until the next change.
        self._chunks: list[tuple[np.ndarray, np.ndarray]] = []
        self._tail: tuple[list[float], list[float]] = ([], [])
        self._count = 0
        self._hop_bytes = 0.0
        self._bytes = 0.0
        #: end-to-end retransmissions scheduled after buffer overflows
        self.retransmits = 0
        #: tail-drop events at a full finite buffer (each may retransmit)
        self.buffer_drops = 0
        #: messages the simulator finally gave up on
        self.dropped = 0
        self.dropped_bytes = 0.0

    def record(self, message: Message) -> None:
        """Account one delivered message."""
        self._tail[0].append(message.latency)
        self._tail[1].append(message.size_bytes)
        self._count += 1
        self._bytes += message.size_bytes
        self._hop_bytes += message.size_bytes * message.hops

    def extend(self, latencies: np.ndarray, sizes: np.ndarray,
               total_bytes: float, hop_bytes: float) -> None:
        """Account deliveries the compiled DES recorded, in order: float64
        arrays this object keeps, and the new byte and hop-byte totals."""
        self._flush_tail()
        self._chunks.append((latencies, sizes))
        self._count += len(latencies)
        self._bytes, self._hop_bytes = total_bytes, hop_bytes

    def _flush_tail(self) -> None:
        if self._tail[0]:
            self._chunks.append(tuple(np.array(v, dtype=np.float64)
                                      for v in self._tail))
            self._tail = ([], [])

    def record_drop(self, message: Message) -> None:
        """Account one finally-dropped (undeliverable) message."""
        self.dropped += 1
        self.dropped_bytes += message.size_bytes

    @property
    def count(self) -> int:
        """Delivered messages so far."""
        return self._count

    @property
    def total_bytes(self) -> float:
        """Total payload bytes delivered."""
        return self._bytes

    @property
    def hops_per_byte(self) -> float:
        """Observed average hops per byte over delivered traffic."""
        return self._hop_bytes / self._bytes if self._bytes else 0.0

    def _delivered(self) -> tuple[np.ndarray, np.ndarray]:
        """(latencies, sizes) of every delivery, as one read-only chunk."""
        self._flush_tail()
        if len(self._chunks) != 1:
            chunks = self._chunks or [(np.zeros(0), np.zeros(0))]
            self._chunks = [tuple(np.concatenate(parts)
                                  for parts in zip(*chunks))]
        for arr in self._chunks[0]:
            arr.flags.writeable = False
        return self._chunks[0]

    def latencies(self) -> np.ndarray:
        """Delivered latencies as a read-only array (microseconds)."""
        return self._delivered()[0]

    def sizes(self) -> np.ndarray:
        """Delivered message sizes as a read-only array (bytes),
        latency-aligned."""
        return self._delivered()[1]

    @property
    def mean_latency(self) -> float:
        """Mean delivered latency in microseconds."""
        lat = self.latencies()
        return float(lat.mean()) if len(lat) else 0.0

    @property
    def max_latency(self) -> float:
        """Worst delivered latency in microseconds."""
        lat = self.latencies()
        return float(lat.max()) if len(lat) else 0.0

    def snapshot(self) -> dict:
        """All aggregates as one JSON-able dict (bit-identical per seed)."""
        return {
            "delivered": self.count,
            "total_bytes": self._bytes,
            "hop_bytes": self._hop_bytes,
            "dropped": self.dropped,
            "dropped_bytes": self.dropped_bytes,
            "retransmits": self.retransmits,
            "buffer_drops": self.buffer_drops,
            "latencies": self.latencies().tolist(),
            "sizes": self.sizes().tolist(),
        }

