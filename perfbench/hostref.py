"""Host speed: a fixed reference loop, and time scaled to a nominal host.

The loop is plain interpreter work (objects, method calls, a dict,
string formatting, ``struct`` and bytes slicing) plus SHA-256 and ECDSA
through OpenSSL, and exercises nothing of the program, so when it moves
the host moved, not the code.  The full loop
(:func:`ref_loop_ms`) brackets every run and is reported as
``host.ref_loop_ms``.

The host this benchmark runs on is a share of a busy machine, and its
speed changes in spells of seconds to minutes: the same code runs a
third slower in a slow spell, on wall time and on CPU time alike.  So
each run also takes short probes of the loop (:meth:`HostClock.probe`)
between its timed blocks, set-ups and batches, and every time metric
scales the CPU its interval spent on the main thread by the host speed
the probes around it read, to the speed of a host whose probe takes
:data:`NOMINAL_PROBE_MS`.  Waiting (timers, the socket round trip) is
kept as measured, since a slow spell does not lengthen it.
"""

from __future__ import annotations

import hashlib
import statistics
import struct
import time
from dataclasses import dataclass

from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec

_KEY = ec.derive_private_key(0x5EED, ec.SECP256R1())
_MESSAGE = b"perfbench host reference" * 4

#: A probe is the median of this many passes of a tenth of the loop:
#: the median, not the fastest, because the program runs at the host's
#: typical speed in a spell, not its best.
PROBE_REPEATS = 3
#: A probe's time on the nominal host: a fast spell of a 2-vCPU cloud VM.
NOMINAL_PROBE_MS = 2.5


class _Item:
    __slots__ = ("key", "weight")

    def __init__(self, key: int, weight: int) -> None:
        self.key = key
        self.weight = weight

    def cost(self, x: int) -> int:
        return self.key + x * self.weight


def _loop_ms(scale: int) -> float:
    start = time.perf_counter()
    table: dict[str, int] = {}
    acc = 0
    for i in range(1_500 * scale):
        item = _Item(i, 3)
        name = "k%d" % (i & 255)
        table[name] = table.get(name, 0) + item.cost(i)
        frame = struct.pack(">HI", i & 0xFFFF, i) + b"xyz"
        acc ^= frame[1] + len(frame[2:5])
    digest = hashlib.sha256()
    for _ in range(200 * scale):
        digest.update(_MESSAGE)
    public = _KEY.public_key()
    for _ in range(4 * scale):
        signature = _KEY.sign(_MESSAGE, ec.ECDSA(hashes.SHA256()))
        public.verify(signature, _MESSAGE, ec.ECDSA(hashes.SHA256()))
    return (time.perf_counter() - start) * 1000.0


def ref_loop_ms() -> float:
    return _loop_ms(10)


def probe_ms() -> float:
    return statistics.median(_loop_ms(1) for _ in range(PROBE_REPEATS))


@dataclass(frozen=True)
class Span:
    """A measured interval: wall-clock start and end, and the CPU time
    the main thread spent in it."""

    start: float
    end: float
    cpu: float

    @property
    def wall(self) -> float:
        return self.end - self.start


class Stopwatch:
    """Times one interval as a :class:`Span`."""

    def __init__(self) -> None:
        self.start = time.perf_counter()
        self.cpu = time.thread_time()

    def stop(self) -> Span:
        return Span(self.start, time.perf_counter(), time.thread_time() - self.cpu)


class HostClock:
    """The probes a run takes, and the scaling of its spans by them."""

    def __init__(self) -> None:
        #: (when the probe ended, its time in ms), in order.
        self.probes: list[tuple[float, float]] = []

    def probe(self) -> None:
        ms = probe_ms()
        self.probes.append((time.perf_counter(), ms))

    def speed(self, span: Span) -> float:
        """Host speed against the nominal host over *span*: the last
        probe before it, the probes inside it and the first after it."""
        before = [ms for t, ms in self.probes if t <= span.start][-1:]
        inside = [ms for t, ms in self.probes if span.start < t < span.end]
        after = [ms for t, ms in self.probes if t >= span.end][:1]
        return NOMINAL_PROBE_MS / statistics.fmean(before + inside + after)

    def scaled(self, span: Span) -> float:
        """*span*'s wall time on the nominal host, in seconds."""
        return span.wall + span.cpu * (self.speed(span) - 1.0)


#: The run's clock: one run per process.
CLOCK = HostClock()
