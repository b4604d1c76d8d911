"""sim_lossy: the discrete-event simulator under 20% burst loss.

Each operation is one :func:`~repro.net.run.simulate_discovery` call: a
subject finds 20 Level-2/3 objects over a simulated WiFi star whose
frames die in Gilbert-Elliott bursts (``burst_loss_schedule(0.20,
seed)``).  ``RetryPolicy()`` retransmits QUE2s and the subject
re-broadcasts QUE1 for up to :data:`ROUNDS` rounds.  The fault matrix's
12 rounds and 30 s leave about one seed in 25 short of an object here
(20 objects, bursty loss: the slowest of 1,890 seeds needed 57 s), so
the budget is set far above the slowest seed seen, and every object
must be found on every seed.  No sockets are involved; the timings are
wall-clock times of the simulator's own work.
"""

from __future__ import annotations

import asyncio
import random
import time

from perfbench import fleet
from perfbench.fleet import ObjectSpec, SubjectSpec
from perfbench.hostref import CLOCK, Stopwatch
from perfbench.live import Outcome, UpdatePlane, rss_mb
from perfbench.trace import current_discovery

import repro.net.run as net_run
from repro.net.faults import burst_loss_schedule
from repro.net.run import RetryPolicy, simulate_discovery

ROUNDS = 64
DEADLINE_S = 140.0
LOSS = 0.20
#: Seeds of the untimed warm-up pass.
WARM_SEEDS = 8
#: Timed passes over the seed list; the run reports the median pass.
PASSES = 3

#: 10 objects at Level 2 and 10 at Level 3, all in the ``lab`` zone.
SIM_FLEET: tuple[ObjectSpec, ...] = tuple(
    ObjectSpec(f"l2-sim-{i:02d}", 2, "lab", ("show_slides",), fleet.VARIANTS)
    for i in range(10)
) + tuple(
    ObjectSpec(
        f"l3-sim-{i:02d}", 3, "lab", ("dispense_magazine",), fleet.VARIANTS,
        covert=("dispense_support_flyer",),
    )
    for i in range(10)
)


class RecordingNetwork(net_run.GroundNetwork):
    """The simulator's network, remembered so its radios can be read."""

    last: "RecordingNetwork | None" = None

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        RecordingNetwork.last = self

    def bytes_on_air(self) -> int:
        return sum(node.radio.bytes_sent for node in self.nodes.values())


class SimLossy:
    def __init__(self, simulations: int) -> None:
        self.seeds_per_run = simulations // PASSES

    def setup(self, seed: int) -> None:
        self.rng = rng = random.Random(seed)
        self.backend = fleet.make_backend(SIM_FLEET)
        self.subjects = [
            (spec, fleet.register(self.backend, spec))
            for spec in (
                SubjectSpec("sim-fellow", rng.choice(fleet.DEPARTMENTS), True),
                SubjectSpec("sim-member", rng.choice(fleet.DEPARTMENTS), False),
            )
        ]
        self.objects = [self.backend.issued_objects[s.object_id] for s in SIM_FLEET]
        # The loss seeds are a fixed list; --seed draws the subjects.
        self.seeds = list(range(self.seeds_per_run))
        net_run.GroundNetwork = RecordingNetwork
        # An untimed pass over the first seeds: the module-level caches
        # (keyed by profile and certificate bytes, the same on every
        # seed) persist across calls, so the timed pass starts warm.
        warm = Outcome()
        for index, s in enumerate(self.seeds[:WARM_SEEDS]):
            self.discover(index, s, warm)
        if warm.failed:
            raise RuntimeError(f"warm-up simulation failed: {warm.failures}")

    def discover(self, index: int, seed: int, out: Outcome):
        spec, creds = self.subjects[index % len(self.subjects)]
        current_discovery.set(index)
        start = time.perf_counter()
        timeline = simulate_discovery(
            creds, self.objects,
            seed=seed,
            faults=burst_loss_schedule(LOSS, seed=seed),
            retry=RetryPolicy(),
            max_rounds=ROUNDS,
            deadline_s=DEADLINE_S,
        )
        end = time.perf_counter()
        out.latencies_s.append(end - start)
        out.discoveries += 1
        out.sample_rss()
        out.wire_bytes += RecordingNetwork.last.bytes_on_air()
        out.checks["retransmissions"] += timeline.retransmissions
        out.checks["frames_lost"] += timeline.messages_lost
        expected = fleet.expected_functions(spec, SIM_FLEET)
        observed = {s.object_id: tuple(s.functions) for s in timeline.services}
        if observed != expected or set(timeline.completion) != set(expected):
            out.fail(f"seed {seed}: expected {expected}, got {observed}")
        return timeline

    def measure(self) -> Outcome:
        out = Outcome()
        out.rss_start_mb = rss_mb()
        out.t0 = time.perf_counter()
        for _ in range(PASSES):
            first, spans = out.discoveries, []
            for index, s in enumerate(self.seeds):
                CLOCK.probe()
                watch = Stopwatch()
                self.discover(index, s, out)
                spans.append(watch.stop())
            out.blocks.append((first, out.discoveries, spans))
        CLOCK.probe()
        out.t1 = time.perf_counter()
        out.wall_s = sum(s.wall for _, _, spans in out.blocks for s in spans)
        return out

    def replay_check(self) -> bool:
        """Untimed: the first seed, run again, finishes at the same times."""
        first = self.discover(0, self.seeds[0], Outcome())
        again = self.discover(0, self.seeds[0], Outcome())
        return first.completion == again.completion

    def revocations(self, out: Outcome) -> None:
        """The live workloads' trailing revocation batches, each push
        applied by a direct call of the object's receiver: the simulator
        has no update plane of its own."""
        receivers = {
            spec.object_id: fleet.object_receiver(self.backend, spec.object_id)
            for spec in SIM_FLEET
        }

        async def deliver(object_id: str, messages) -> int:
            applied = 0
            for message in messages:
                if not receivers[object_id].apply(message):
                    break
                applied += 1
            return applied

        plane = UpdatePlane(self.backend, SIM_FLEET, receivers, deliver, self.rng)
        asyncio.run(plane.trailing(out, gap_s=0.0))
