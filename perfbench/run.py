#!/usr/bin/env python3
"""The benchmark command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload for a fixed amount of work (proportional to
``--seconds``), checks every output against the benchmark's own oracle
and the protocol properties, and prints as its last line one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the run measures the same work untraced and then traced, and prints the
per-layer metrics (spans go to ``.perfbench/``, gzipped).  The line before it is
a JSON detail record (host reference loop, check results, counters).

Every end-to-end time is scaled to a nominal host by the host probes
taken around it (see :mod:`perfbench.hostref`); the detail record keeps
the raw wall times and the probes.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import checks, hostref, live, sim  # noqa: E402
from perfbench import trace as tracing  # noqa: E402

from repro.crypto import keypool, meter  # noqa: E402
from repro.pki import certificate, profile  # noqa: E402

#: Set-ups per run; ``setup_s`` is their median.  The first is the one
#: the run measures; the others come after the measured phase, so that
#: the memory they free cannot absorb the phase's growth.
SETUPS = 5

#: Discoveries per block of a first_contact or warm_return timed phase:
#: a fraction of a second each on the reference host.
BLOCK_DISCOVERIES = {"first_contact": 16, "warm_return": 100}

#: Operations per ``--seconds`` of run length, per workload.
OPS_PER_SECOND = {
    "first_contact": 128,
    "warm_return": 400,
    "churn_rekey": 48,
    "sim_lossy": 9,
}

LIVE = {
    "first_contact": live.FirstContact,
    "warm_return": live.WarmReturn,
    "churn_rekey": live.ChurnRekey,
}

END_TO_END = {
    "setup_s": "s",
    "discoveries_per_s": "1/s",
    "discovery_mean_ms": "ms",
    "discovery_p90_ms": "ms",
    "wire_bytes_per_discovery": "B",
    "peak_rss_mb": "MB",
    "revocation_p50_ms": "ms",
}

TRACE_DIR = ROOT / ".perfbench"


def work_count(workload: str, seconds: int) -> int:
    ops = OPS_PER_SECOND[workload] * seconds
    if workload == "churn_rekey":
        # Whole churn cycles, each with its batch.
        ops = max(1, round(ops / live.CHURN_K)) * live.CHURN_K
    return ops


def blocks(workload: str, count: int) -> int:
    """Equal blocks a timed phase runs in, with a host probe between two.

    The host changes speed in spells, and a block is scaled by the
    probes around it; the median block is what a discovery typically
    saw.  A churn_rekey block is one churn cycle (fast discoveries, the
    batch, the stall it causes), a sim_lossy block one pass of seeds.
    """
    if workload == "churn_rekey":
        return count // live.CHURN_K
    if workload == "sim_lossy":
        return sim.PASSES
    return count // BLOCK_DISCOVERIES[workload]


def reset_module_caches() -> None:
    """Make every set-up pay the same cold module-level caches."""
    keypool.default_pool().drain()
    profile.clear_verify_cache()
    certificate.clear_parse_cache()


def quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def block_medians(out: live.Outcome) -> tuple[float, float, float]:
    """(discoveries/s, mean s, p90 s), each the median over the blocks,
    each block scaled to the nominal host (see :mod:`perfbench.hostref`);
    a sim_lossy simulation, timed on its own, is scaled on its own.

    The mean, not the median: with two discoveries in flight on one
    loop, a discovery's wall time depends on how its exchanges interleave
    with the other slot's, and the latencies fall into two modes whose
    shares change from run to run.  A block's median jumps between the
    modes; its mean moves only with the shares.
    """
    rates, means, p90s = [], [], []
    for first, stop, spans in out.blocks:
        scaled = [hostref.CLOCK.scaled(s) for s in spans]
        ratios = [t / s.wall for t, s in zip(scaled, spans)]
        if len(spans) == 1:
            # One span for the whole block: every discovery in it alike.
            ratios *= stop - first
        latencies = [t * r for t, r in zip(out.latencies_s[first:stop], ratios)]
        rates.append(len(latencies) / sum(scaled))
        means.append(statistics.fmean(latencies))
        p90s.append(quantile(latencies, 0.9))
    return statistics.median(rates), statistics.median(means), statistics.median(p90s)


class Snapshot:
    """Counters read before and after a phase."""

    def __init__(self, fleet_: live.LiveFleet) -> None:
        self.frames = fleet_.tap.frames
        self.bytes = fleet_.tap.bytes
        self.client = fleet_.client_stats()
        self.daemon = fleet_.daemon_stats()
        self.push_retransmissions = fleet_.pusher.stats["pushes_retransmitted"]


async def time_revocations(workload, fleet_: live.LiveFleet) -> live.Outcome:
    """churn_rekey times its extra batches with a read beside each; the
    other workloads time theirs on the quiet fleet they leave behind."""
    revocations = live.Outcome()
    if isinstance(workload, live.ChurnRekey):
        await workload.revocations(fleet_, revocations)
    else:
        await fleet_.plane.trailing(revocations, live.BATCH_GAP_S)
    return revocations


def start_trace() -> tuple[tracing.Tracer, meter.OpMeter]:
    tracer = tracing.Tracer()
    tracing.install_layers(tracer)
    global_meter = meter.enable()
    gc.collect()
    return tracer, global_meter


def stop_trace(tracer: tracing.Tracer) -> None:
    meter.disable()
    tracer.uninstall()


# -- live workloads ---------------------------------------------------------------


async def set_up_live(name: str, seed: int, count: int, traced: bool):
    reset_module_caches()
    hostref.CLOCK.probe()
    watch = hostref.Stopwatch()
    fleet_ = live.LiveFleet(seed)
    workload = LIVE[name](count, phases=2 if traced else 1)
    await workload.setup(fleet_)
    span = watch.stop()
    hostref.CLOCK.probe()
    return fleet_, workload, span


async def run_live(name: str, seed: int, seconds: int, traced: bool) -> dict:
    count = work_count(name, seconds)
    fleet_, workload, first_setup = await set_up_live(name, seed, count, traced)
    gc.collect()
    before = Snapshot(fleet_)
    out = await workload.measure(fleet_, blocks(name, count))
    out.wire_bytes = fleet_.tap.bytes - before.bytes
    result = {"out": out, "count": count}

    if traced:
        tracer, global_meter = start_trace()
        fleet_.tracer = tracer
        traced_before = Snapshot(fleet_)
        traced_out = await workload.measure(fleet_, blocks(name, count))
        traced_after = Snapshot(fleet_)
        revocations = await time_revocations(workload, fleet_)
        stop_trace(tracer)
        fleet_.tracer = None
        result.update(
            tracer=tracer, meter=global_meter, traced_out=traced_out,
            traced_before=traced_before, traced_after=traced_after,
        )
    else:
        revocations = await time_revocations(workload, fleet_)

    # Untimed checks on the state the run left behind.
    problems = checks.live_properties(fleet_)
    problems += await checks.metering_audit(fleet_)
    if name == "churn_rekey":
        if not fleet_.stale_tickets_rejected():
            problems.append("no churn batch staled a ticket")
        if not await workload.probe_revoked(fleet_):
            problems.append("a revoked subject still sees Level-2/3 services")
    result.update(
        problems=problems, fleet=fleet_, revocations=revocations,
        peer_entries=fleet_.peer_entries(),
    )
    await fleet_.close()
    setup_times = [first_setup]
    for _ in range(SETUPS - 1):
        other, _, span = await set_up_live(name, seed, count, traced)
        setup_times.append(span)
        await other.close()
    result["setup_times"] = setup_times
    return result


# -- sim_lossy --------------------------------------------------------------------


def set_up_sim(seed: int, count: int) -> tuple[sim.SimLossy, hostref.Span]:
    reset_module_caches()
    hostref.CLOCK.probe()
    watch = hostref.Stopwatch()
    workload = sim.SimLossy(count)
    workload.setup(seed)
    span = watch.stop()
    hostref.CLOCK.probe()
    return workload, span


def run_sim(seed: int, seconds: int, traced: bool) -> dict:
    count = work_count("sim_lossy", seconds)
    workload, first_setup = set_up_sim(seed, count)
    gc.collect()
    out = workload.measure()
    revocations = live.Outcome()
    result = {"out": out, "count": count}
    if traced:
        tracer, global_meter = start_trace()
        traced_out = workload.measure()
        workload.revocations(revocations)
        stop_trace(tracer)
        result.update(tracer=tracer, meter=global_meter, traced_out=traced_out)
    else:
        workload.revocations(revocations)
    problems = [] if workload.replay_check() else [
        "a re-run seed did not reproduce its completion times"
    ]
    result.update(problems=problems, revocations=revocations)
    result["setup_times"] = [first_setup] + [
        set_up_sim(seed, count)[1] for _ in range(SETUPS - 1)
    ]
    return result


def end_to_end(workload: str, result: dict) -> dict[str, float]:
    out: live.Outcome = result["out"]
    rate, mean, p90 = block_medians(out)
    clock = hostref.CLOCK
    return {
        "setup_s": statistics.median(clock.scaled(s) for s in result["setup_times"]),
        "discoveries_per_s": rate,
        "discovery_mean_ms": 1000.0 * mean,
        "discovery_p90_ms": 1000.0 * p90,
        "wire_bytes_per_discovery": out.wire_bytes / out.discoveries,
        "peak_rss_mb": out.peak_rss_mb,
        "revocation_p50_ms": 1000.0 * statistics.median(
            clock.scaled(s) for s in out.batches + result["revocations"].batches
        ),
    }


# -- the command ------------------------------------------------------------------


def run(workload: str, seed: int, seconds: int, traced: bool) -> tuple[dict, dict]:
    hostref.CLOCK.probes.clear()
    ref_start = hostref.ref_loop_ms()
    if workload == "sim_lossy":
        result = run_sim(seed, seconds, traced)
    else:
        result = asyncio.run(run_live(workload, seed, seconds, traced))
    ref_end = hostref.ref_loop_ms()
    out = result["out"]
    outcomes = [out, result["revocations"]]
    if traced:
        outcomes.append(result["traced_out"])
    attempted = sum(o.discoveries + o.checks["batches"] for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    detail = {
        "workload": workload, "seed": seed, "operations": result["count"],
        "host.ref_loop_ms": [ref_start, ref_end],
        "setup_wall_s": [s.wall for s in result["setup_times"]],
        "problems": result["problems"],
        "failures": [f for o in outcomes for f in o.failures],
        "batch_wall_ms": [
            1000 * s.wall for s in out.batches + result["revocations"].batches
        ],
        "probe_ms": [ms for _, ms in hostref.CLOCK.probes],
        "discoveries_beside_batches": out.checks["discoveries_beside_batches"],
        "daemon_peer_entries": result.get("peer_entries", 0),
        "rss_start_mb": out.rss_start_mb,
        "end_to_end": end_to_end(workload, result),
        "discovery_p50_ms": 1000.0 * quantile(out.latencies_s, 0.5),
        "discovery_p99_ms": 1000.0 * quantile(out.latencies_s, 0.99),
    }
    if traced:
        from perfbench import layers

        if result["tracer"].nesting_errors():
            result["problems"].append("a span lies outside its parent")
        metrics = layers.per_layer(workload, result, (ref_start + ref_end) / 2)
        path = TRACE_DIR / f"trace-{workload}-{seed}.jsonl.gz"
        result["tracer"].write(path)
        detail["trace_file"] = str(path.relative_to(ROOT))
        units = layers.UNITS
    else:
        metrics = detail["end_to_end"]
        units = END_TO_END
    summary = {
        "correct": not result["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return detail, summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted([*LIVE, "sim_lossy"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    detail, summary = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(detail, default=str))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
