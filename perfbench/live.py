"""The live workloads: daemons and clients on one asyncio loop, over loopback.

Every :class:`~repro.service.daemon.ObjectServiceDaemon` and every
:class:`~repro.service.client.SubjectServiceClient` lives in this
process and exchanges real UDP frames over 127.0.0.1.  The load is a
closed loop with :data:`IN_FLIGHT` operations outstanding: a slot
starts its next operation only when the previous one has finished.

Each run does a fixed number of operations (discoveries and churn
batches), never a fixed duration, so every run attempts the same work.
"""

from __future__ import annotations

import asyncio
import functools
import os
import random
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from perfbench import fleet
from perfbench.fleet import FLEET, SubjectSpec
from perfbench.hostref import CLOCK, Span, Stopwatch
from perfbench.trace import current_discovery

from repro.backend.updates import ChurnEngine
from repro.backend.updatewire import UpdateBatcher, UpdatePublisher
from repro.crypto import keypool
from repro.net.run import RetryPolicy
from repro.protocol.errors import FreshnessError
from repro.protocol.messages import TYPE_RES2, TYPE_RRES
from repro.service.client import SubjectServiceClient
from repro.service.daemon import ObjectServiceDaemon
from repro.service.update_stream import UpdateStreamPusher

#: Operations outstanding at once (the host has two vCPUs).
IN_FLIGHT = 2
#: Returning subjects in warm_return and churn_rekey.
RETURNING = 64
#: churn_rekey: one batch per this many discoveries, half-way through
#: each cycle.  A batch stales every ticket, so each returning subject's
#: next discovery waits out a timer: the cycle must be long enough for
#: all 64 to come round and for fast discoveries to follow.
CHURN_K = 240
#: Client timers.  No nominal exchange comes near them, so a timer fires
#: only where the protocol answers with silence (a stale ticket).
CLIENT_RETRY = RetryPolicy(max_retries=0, base_timeout_s=0.25, give_up_s=5.0)
PHASE1_TIMEOUT_S = 5.0
#: Update pushes: stop-and-wait with a timer far above one apply.
PUSH_RETRY = RetryPolicy(max_retries=4, base_timeout_s=0.5, give_up_s=10.0)
#: Short timers for the untimed revocation probe, where silence is the
#: expected answer of every Level-2/3 object.
PROBE_RETRY = RetryPolicy(max_retries=0, base_timeout_s=0.2, give_up_s=1.0)
#: Discovery rounds.  A round that loses an exchange to a timer (the
#: host can stall the process for a quarter second) leaves the object
#: to the next round, as the client's recovery intends; give-ups stay
#: visible per layer.
ROUNDS = 2
#: Every this many frames, keep one for the re-serialisation check ...
SAMPLE_EVERY = 16
#: ... up to this many, so the benchmark's own memory stays flat.
MAX_SAMPLES = 512
#: Every this many discoveries, read the resident set size.
RSS_EVERY = 16
#: Revocation batches every workload times after its discoveries.
TRAILING_BATCHES = 200
#: Pause between them, besides the host probe before each (about
#: 12 ms).  The pusher is one peer to each daemon, and a batch sends a
#: Level-3 daemon two frames: back to back, the batches would overrun
#: the daemon's per-peer shed budget (256 frames/s) and every shed push
#: would wait out a retransmission timer.
BATCH_GAP_S = 0.005


def rss_mb() -> float:
    """Resident set size of this process now, in MB."""
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


@dataclass
class Outcome:
    """What one timed phase produced."""

    #: Time inside the timed blocks: the host probes between them are
    #: not counted.
    wall_s: float = 0.0
    #: ``perf_counter`` at the start and end of the timed phase.
    t0: float = 0.0
    t1: float = 0.0
    #: The timed blocks: (first discovery, discovery after the last,
    #: the spans the block was timed in).
    blocks: list[tuple[int, int, list[Span]]] = field(default_factory=list)
    discoveries: int = 0
    failed: int = 0
    #: Per discovery, in completion order: wall time.
    latencies_s: list[float] = field(default_factory=list)
    #: Bytes of every frame sent or received (on the simulated air on
    #: sim_lossy).
    wire_bytes: int = 0
    #: Resident set size at the start of the phase, and the largest
    #: read during it.
    rss_start_mb: float = 0.0
    peak_rss_mb: float = 0.0
    #: Each revocation batch, from the churn call to the last delivery.
    batches: list[Span] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    checks: Counter = field(default_factory=Counter)

    def sample_rss(self) -> None:
        self.peak_rss_mb = max(self.peak_rss_mb, rss_mb())

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(problem)


class WireTap:
    """Counts every frame the clients send or take in, by size and type.

    RES2 and RRES lengths are kept per daemon address: an object pads
    every answer to one length of its own (its longest variant), so the
    lengths must not vary across the subjects one object answers.
    """

    def __init__(self) -> None:
        self.frames = 0
        self.bytes = 0
        self.lengths: dict[tuple[int, tuple], set[int]] = defaultdict(set)
        self.samples: list[bytes] = []

    def __call__(self, _direction: str, raw: bytes, addr) -> None:
        self.frames += 1
        self.bytes += len(raw)
        tag = raw[0]
        if tag == TYPE_RES2 or tag == TYPE_RRES:
            self.lengths[(tag, addr)].add(len(raw))
        if self.frames % SAMPLE_EVERY == 0 and len(self.samples) < MAX_SAMPLES:
            self.samples.append(raw)


class TicketLedger:
    """The benchmark's own record of the resumption tickets daemons issue.

    A ticket carries the issuing object's epoch, and every push that
    changes what the object shows moves the epoch: a ticket is stale
    when it was issued before the daemon applied a push.  The ledger
    reads a daemon's epoch right after each handler call that issues a
    ticket (nothing else runs on the loop in between) and, at every
    RQUE, predicts whether the daemon will turn the ticket away.
    """

    def __init__(self) -> None:
        #: Client ``ip:port`` -> subject id.
        self.subject_at: dict[str, str] = {}
        #: (subject id, object id) -> epoch of the ticket last issued.
        self.issued: dict[tuple[str, str], int] = {}
        self.predicted_stale = 0

    def watch(self, object_id: str, daemon: ObjectServiceDaemon) -> None:
        for attr in ("handle_que2", "handle_rque"):
            setattr(daemon, attr, functools.partial(self._handle, attr, daemon, object_id))

    def _handle(self, attr: str, daemon, object_id: str, message, peer: str):
        key = (self.subject_at.get(peer, peer), object_id)
        epoch = daemon.creds.resumption_epoch
        if attr == "handle_rque" and self.issued.get(key) != epoch:
            self.predicted_stale += 1
        reply = getattr(type(daemon), attr)(daemon, message, peer)
        if reply is not None:
            self.issued[key] = daemon.creds.resumption_epoch
        return reply

    def forget(self, subject_id: str) -> None:
        for key in [k for k in self.issued if k[0] == subject_id]:
            del self.issued[key]


@dataclass
class Subject:
    spec: SubjectSpec
    client: SubjectServiceClient
    #: One device runs one discovery at a time: while a slot waits out a
    #: stale ticket, the other slot can come round to the same subject.
    busy: asyncio.Lock = field(default_factory=asyncio.Lock)


class LiveFleet:
    """The backend, the eight daemons and the update plane of one run."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.backend = fleet.make_backend()
        self.daemons: dict[str, ObjectServiceDaemon] = {}
        self.tap = WireTap()
        self.ledger = TicketLedger()
        self.clients: list[SubjectServiceClient] = []
        #: Counters of clients already released.
        self.released_stats: Counter = Counter()
        self.pusher = UpdateStreamPusher(retry=PUSH_RETRY, seed=seed)
        #: Set while a traced phase runs.
        self.tracer = None

    async def start(self) -> None:
        for spec in FLEET:
            receiver = fleet.object_receiver(self.backend, spec.object_id)
            daemon = ObjectServiceDaemon(receiver.object_creds, update_receiver=receiver)
            await daemon.start()
            self.ledger.watch(spec.object_id, daemon)
            self.daemons[spec.object_id] = daemon
        self.endpoints = [d.address for d in self.daemons.values()]
        await self.pusher.start()
        self.plane = UpdatePlane(
            self.backend, FLEET,
            {oid: d.update_receiver for oid, d in self.daemons.items()},
            lambda oid, messages: self.pusher.push_all(self.daemons[oid].address, messages),
            self.rng,
        )

    async def client(self, creds, seed: int, retry: RetryPolicy = CLIENT_RETRY,
                     phase1_timeout_s: float = PHASE1_TIMEOUT_S) -> SubjectServiceClient:
        client = SubjectServiceClient(
            creds, retry=retry, seed=seed, phase1_timeout_s=phase1_timeout_s,
            on_frame=self.tap,
        )
        await client.start()
        host, port = client._transport.get_extra_info("sockname")[:2]
        self.ledger.subject_at[f"{host}:{port}"] = creds.subject_id
        self.clients.append(client)
        return client

    async def release(self, client: SubjectServiceClient) -> None:
        """Close a client whose subject is done, keeping its counters."""
        await client.close()
        self.clients.remove(client)
        self.released_stats.update(vars(client.stats))
        self.ledger.forget(client.engine.creds.subject_id)

    async def close(self) -> None:
        for client in self.clients:
            await client.close()
        self.clients.clear()
        await self.pusher.close()
        for daemon in self.daemons.values():
            await daemon.close()

    # -- shared measurement helpers ------------------------------------------------

    def peer_entries(self) -> int:
        """Per-peer state the daemons hold: established sessions, peer
        identities and token buckets, summed over every daemon."""
        return sum(
            len(d.engine.established) + len(d.engine.peer_identity) + len(d._buckets)
            for d in self.daemons.values()
        )

    def stale_tickets_rejected(self) -> int:
        """RQUEs the daemons turned away because the ticket's epoch was stale."""
        return sum(
            1 for d in self.daemons.values() for e in d.engine.errors
            if isinstance(e, FreshnessError) and str(e).startswith("stale ticket epoch")
        )

    def daemon_stats(self) -> Counter:
        total: Counter = Counter()
        for daemon in self.daemons.values():
            total.update(daemon.stats)
        return total

    def client_stats(self) -> Counter:
        total: Counter = Counter(self.released_stats)
        for client in self.clients:
            total.update(vars(client.stats))
        return total


async def discover_checked(
    live: LiveFleet, subject: Subject, out: Outcome, resume: bool = True
) -> None:
    """One timed discovery, judged against the oracle."""
    if live.tracer is not None:
        discovery = live.tracer.next_discovery()
        current_discovery.set(discovery)
        host, port = subject.client._transport.get_extra_info("sockname")[:2]
        live.tracer.peer_discovery[f"{host}:{port}"] = discovery
    start = time.perf_counter()
    found = await subject.client.discover(live.endpoints, rounds=ROUNDS, allow_resume=resume)
    end = time.perf_counter()
    out.latencies_s.append(end - start)
    out.discoveries += 1
    if out.discoveries % RSS_EVERY == 0:
        out.sample_rss()
    expected = fleet.expected_functions(subject.spec)
    observed = fleet.observed_functions(found)
    if observed != expected:
        out.fail(
            f"{subject.spec.subject_id}: expected {expected}, got {observed}; "
            f"client {vars(subject.client.stats)}"
        )


async def run_slots(n_ops: int, op, out: Outcome, blocks: int = 1) -> None:
    """Closed loop: IN_FLIGHT slots take operations 0..n_ops-1 in order.

    With *blocks* above 1 the operations run in that many equal blocks,
    timed one by one, with a host probe before each and after the last.
    """

    async def slot(next_op) -> None:
        for index in next_op:
            await op(index)

    out.rss_start_mb = rss_mb()
    out.t0 = time.perf_counter()
    for b in range(blocks):
        if blocks > 1:
            CLOCK.probe()
        next_op = iter(range(b * n_ops // blocks, (b + 1) * n_ops // blocks))
        first = out.discoveries
        watch = Stopwatch()
        await asyncio.gather(*(slot(next_op) for _ in range(IN_FLIGHT)))
        out.blocks.append((first, out.discoveries, [watch.stop()]))
    if blocks > 1:
        CLOCK.probe()
    out.t1 = time.perf_counter()
    out.wall_s = sum(s.wall for _, _, spans in out.blocks for s in spans)
    out.sample_rss()


def settle_keypool() -> None:
    """Leave the ECDH key pool at the program's own working stock.

    Set-up draws keys and so starts the pool's background refills; the
    timed phase starts once they are done, with the pool topped up to
    one refill batch, and from there keygen and refill run as they
    would in service.
    """
    for thread in threading.enumerate():
        if thread.name.startswith("keypool-refill-"):
            thread.join()
    pool = keypool.default_pool()
    pool.prime(max(0, pool.batch_size - pool.stock()))


# -- first_contact ----------------------------------------------------------------


class FirstContact:
    """Every discovery is a fresh subject's first: full handshakes, cold
    chain caches on both sides."""

    def __init__(self, discoveries: int, phases: int) -> None:
        """*phases*: timed phases the run will measure, each with
        *discoveries* subjects of its own."""
        self.discoveries = discoveries
        self.phases = phases

    async def setup(self, live: LiveFleet) -> None:
        fresh = self.discoveries * self.phases
        specs = fleet.subject_specs(live.rng, "fresh", fresh + IN_FLIGHT)
        subjects = [(s, fleet.register(live.backend, s)) for s in specs]
        warmup, self.fresh = subjects[:IN_FLIGHT], subjects[IN_FLIGHT:]
        await live.start()
        scratch = Outcome()
        for i, (spec, creds) in enumerate(warmup):
            client = await live.client(creds, seed=live.seed * 1000 + i)
            await discover_checked(live, Subject(spec, client), scratch)
        if scratch.failed:
            raise RuntimeError(f"warm-up discovery failed: {scratch.failures}")
        settle_keypool()

    async def measure(self, live: LiveFleet, blocks: int) -> Outcome:
        out = Outcome()
        fresh, self.fresh = self.fresh[:self.discoveries], self.fresh[self.discoveries:]

        async def op(index: int) -> None:
            spec, creds = fresh[index]
            client = await live.client(creds, seed=live.seed * 100_000 + index)
            try:
                await discover_checked(live, Subject(spec, client), out)
            finally:
                await live.release(client)

        await run_slots(self.discoveries, op, out, blocks)
        return out


# -- warm_return and churn_rekey ----------------------------------------------------


class WarmReturn:
    """Returning subjects cycling through the fleet on their tickets."""

    def __init__(self, discoveries: int, phases: int) -> None:
        self.discoveries = discoveries
        #: Cleared while a churn batch is in flight (churn_rekey only).
        self.rekey_done = asyncio.Event()
        self.rekey_done.set()
        self.in_flight = 0
        self.fellows_in_flight = 0
        self.fellows_idle = asyncio.Event()
        self.fellows_idle.set()

    async def setup(self, live: LiveFleet) -> None:
        specs = fleet.subject_specs(live.rng, "ret", RETURNING)
        creds = [fleet.register(live.backend, s) for s in specs]
        await live.start()
        self.rotation = [
            Subject(spec, await live.client(c, seed=live.seed * 1000 + i))
            for i, (spec, c) in enumerate(zip(specs, creds))
        ]
        scratch = Outcome()
        # One full discovery to earn tickets, one to warm the resumption path.
        for _ in range(2):
            await run_slots(
                RETURNING, lambda i: self.discover_slot(live, i, scratch), Outcome()
            )
        if scratch.failed:
            raise RuntimeError(f"warm-up discovery failed: {scratch.failures}")
        settle_keypool()

    async def discover_slot(self, live: LiveFleet, slot: int, out: Outcome) -> None:
        """Discover as whichever subject holds rotation *slot* once it is free.

        A fellow does not start while a churn batch is in flight: the
        batch advances the fellows' group key at once, and the Level-3
        objects only as each push lands.
        """
        while True:
            subject = self.rotation[slot]
            async with subject.busy:
                if self.rotation[slot] is not subject:
                    continue  # revoked while we waited; its newcomer goes next
                fellow = subject.spec.fellow
                if fellow:
                    await self.rekey_done.wait()
                    self.fellows_in_flight += 1
                    self.fellows_idle.clear()
                self.in_flight += 1
                try:
                    await discover_checked(live, subject, out)
                finally:
                    self.in_flight -= 1
                    if fellow:
                        self.fellows_in_flight -= 1
                        if not self.fellows_in_flight:
                            self.fellows_idle.set()
                return

    def schedule(self) -> list[int | None]:
        """Operation list: rotation slot to discover, or None for a batch."""
        return [n % RETURNING for n in range(self.discoveries)]

    async def measure(self, live: LiveFleet, blocks: int) -> Outcome:
        out = Outcome()
        ops = self.schedule()

        async def op(index: int) -> None:
            slot = ops[index]
            if slot is None:
                await self.batch(live, out)
            else:
                await self.discover_slot(live, slot, out)

        await run_slots(len(ops), op, out, blocks)
        return out


class ChurnRekey(WarmReturn):
    """warm_return plus one churn batch every :data:`CHURN_K` discoveries.

    A batch revokes one fellow and admits one newcomer fellow; the
    flushed pushes travel to the daemons through the stop-and-wait
    pusher while the other slot keeps discovering.  Only fellows wait
    for the batch (see :meth:`WarmReturn.discover_slot`).
    """

    async def setup(self, live: LiveFleet) -> None:
        await super().setup(live)
        self.revoked: list[Subject] = []

    def schedule(self) -> list[int | None]:
        ops: list[int | None] = []
        for n in range(self.discoveries):
            if n % CHURN_K == CHURN_K // 2:
                ops.append(None)
            ops.append(n % RETURNING)
        return ops

    async def batch(self, live: LiveFleet, out: Outcome) -> None:
        fellows = [i for i, s in enumerate(self.rotation) if s.spec.fellow]
        slot = live.rng.choice(fellows)
        victim = self.rotation[slot]
        # The victim finishes any discovery in flight first; then no
        # fellow starts until the last push is acknowledged.
        async with victim.busy:
            self.rekey_done.clear()
            try:
                await self.fellows_idle.wait()
                done = out.discoveries
                newcomer, creds = await live.plane.batch(victim.spec.subject_id, out)
                # Discoveries in flight at any point of the batch.
                out.checks["discoveries_beside_batches"] += (
                    out.discoveries + self.in_flight - done
                )
                self.revoked.append(victim)
                client = await live.client(
                    creds, seed=live.seed * 1000 + 500 + live.plane.admitted
                )
                self.rotation[slot] = Subject(newcomer, client)
            finally:
                self.rekey_done.set()

    async def revocations(self, live: LiveFleet, out: Outcome) -> None:
        """More batches, each with a read beside it: a non-fellow of the
        rotation discovers while the batch's pushes travel.  It discovers
        by full handshake, so that no ticket the batch stales leaves it
        waiting on a timer instead of working."""
        readers = [s for s in self.rotation if not s.spec.fellow]
        await live.plane.trailing(
            out, BATCH_GAP_S,
            lambda k: discover_checked(live, readers[k % len(readers)], out, resume=False),
        )

    async def probe_revoked(self, live: LiveFleet) -> bool:
        """Untimed: a subject revoked mid-run now finds Level 1 only."""
        victim = self.revoked[0]
        client = await live.client(
            victim.client.engine.creds, seed=live.seed, retry=PROBE_RETRY,
            phase1_timeout_s=1.0,
        )
        found = await client.discover(live.endpoints, rounds=1, allow_resume=False)
        return fleet.observed_functions(found) == fleet.expected_functions(
            victim.spec, revoked=True
        )


# -- the update plane ---------------------------------------------------------------


class UpdatePlane:
    """The backend's churn engine and a way to deliver its pushes.

    *deliver* is ``async (object id, messages) -> number applied``: the
    stop-and-wait pusher toward a daemon on the live workloads, a direct
    call of the object's receiver on sim_lossy.
    """

    def __init__(self, backend, specs, receivers, deliver, rng: random.Random) -> None:
        self.backend = backend
        self.specs = specs
        self.receivers = receivers
        self.deliver = deliver
        self.rng = rng
        self.group_id = fleet.group_id(backend)
        self.churn = ChurnEngine(
            backend, wire=UpdateBatcher(UpdatePublisher(backend.root_key))
        )
        self.admitted = 0

    async def batch(self, victim_id: str, out: Outcome):
        """Revoke *victim_id*, admit one newcomer fellow, deliver, verify.

        Returns the newcomer's spec and credentials.  The time from the
        churn call to the last delivery goes into ``out.batches``.
        """
        self.admitted += 1
        newcomer = SubjectSpec(
            f"new-{self.admitted:04d}", self.rng.choice(fleet.DEPARTMENTS), True
        )
        watch = Stopwatch()
        creds, messages = fleet.revoke_and_admit(self.churn, victim_id, newcomer)
        by_object = fleet.route(messages, self.receivers)
        delivered = await asyncio.gather(*(
            self.deliver(oid, msgs) for oid, msgs in by_object.items()
        ))
        out.batches.append(watch.stop())
        out.checks["batches"] += 1
        out.checks["update_messages"] += len(messages)
        out.checks["update_bytes"] += sum(len(m.to_bytes()) for m in messages)

        problems = []
        if any(n != len(msgs) for n, msgs in zip(delivered, by_object.values())):
            problems.append("a push was not applied")
        group_key = self.backend.groups.groups[self.group_id].key
        for spec in self.specs:
            creds_o = self.receivers[spec.object_id].object_creds
            if spec.level in (2, 3) and victim_id not in creds_o.revoked_subjects:
                problems.append(f"{spec.object_id} did not revoke {victim_id}")
            if spec.level == 3 and creds_o.level3_variants[self.group_id][0] != group_key:
                problems.append(f"{spec.object_id} holds a stale group key")
        if problems:
            out.fail("; ".join(problems[:3]))
        return newcomer, creds

    async def trailing(self, out: Outcome, gap_s: float, beside=None) -> None:
        """Revocations of victims registered for the purpose.

        *beside*, if given, is ``async (k) -> None``, a read started
        together with batch *k* and awaited with it; otherwise the
        batches run on a quiet fleet.
        """
        for k in range(TRAILING_BATCHES):
            await asyncio.sleep(gap_s)
            CLOCK.probe()
            spec = SubjectSpec(
                f"victim-{self.admitted:04d}", self.rng.choice(fleet.DEPARTMENTS), True
            )
            fleet.register(self.backend, spec)
            if beside is None:
                await self.batch(spec.subject_id, out)
            else:
                await asyncio.gather(self.batch(spec.subject_id, out), beside(k))
        CLOCK.probe()
