"""Per-layer metrics, computed from one traced phase.

Span names follow the program's package names (``service.dispatch``,
``crypto.ecdsa_verify``, ...; see :func:`perfbench.trace.install_layers`).
Times are means per call unless the name says otherwise.  A layer a
workload does not touch (the simulator on the live workloads, the
daemons on ``sim_lossy``) reads 0.
"""

from __future__ import annotations

UNITS = {
    "service.dispatch_us": "us",
    "service.object_busy_us_per_discovery": "us",
    "service.residual_us_per_discovery": "us",
    "service.frames_per_discovery": "count",
    "service.retransmissions": "count",
    "service.frames_shed": "count",
    "service.tcp_fallbacks": "count",
    "service.give_ups": "count",
    "service.resumption_fallbacks_per_discovery": "count",
    "service.update_push_ms": "ms",
    "service.daemon_peer_entries": "count",
    "protocol.object_que1_us": "us",
    "protocol.object_que2_us": "us",
    "protocol.object_rque_us": "us",
    "protocol.subject_start_round_us": "us",
    "protocol.subject_res1_us": "us",
    "protocol.subject_res2_us": "us",
    "protocol.subject_start_resumption_us": "us",
    "protocol.subject_rres_us": "us",
    "protocol.parse_us": "us",
    "protocol.encode_us": "us",
    "protocol.res2_bytes": "B",
    "protocol.rres_bytes": "B",
    "crypto.ecdsa_verify_us": "us",
    "crypto.ecdsa_sign_us": "us",
    "crypto.ecdh_derive_us": "us",
    "crypto.ecdh_keygen_us": "us",
    "crypto.pk_ops_per_handshake": "count",
    "crypto.keypool_hit_ratio": "ratio",
    "crypto.openssl_share": "ratio",
    "crypto.aead_us": "us",
    "crypto.kdf_us": "us",
    "crypto.meter_records_per_exchange": "count",
    "pki.chain_verify_us": "us",
    "pki.chain_cache_hit_ratio": "ratio",
    "pki.profile_verify_cache_hit_ratio": "ratio",
    "attributes.predicate_eval_us": "us",
    "backend.register_subject_ms": "ms",
    "backend.churn_batch_ms": "ms",
    "backend.update_messages_per_batch": "count",
    "backend.update_bytes_per_batch": "B",
    "backend.update_apply_us": "us",
    "net.events_per_discovery": "count",
    "net.event_us": "us",
    "net.engine_share": "ratio",
    "net.retransmissions_per_discovery": "count",
    "net.frames_lost_per_discovery": "count",
    "host.ref_loop_ms": "ms",
    "trace.overhead_pct": "%",
}

_OPENSSL = ("crypto.ecdsa_verify", "crypto.ecdsa_sign", "crypto.ecdh_derive",
            "crypto.ecdh_keygen", "crypto.aead", "crypto.kdf")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(workload: str, result: dict, host_ref_ms: float) -> dict[str, float]:
    tracer = result["tracer"]
    spans = tracer.summary()
    counts = result["meter"].counts
    logical = {}
    for (op, _strength), n in counts.items():
        logical[op] = logical.get(op, 0) + n
    out = result["traced_out"]
    discoveries = out.discoveries

    def calls(name: str) -> int:
        return spans.get(name, {}).get("calls", 0)

    def total_ns(name: str) -> int:
        return spans.get(name, {}).get("total_ns", 0)

    def mean(name: str, scale: float = 1e3) -> float:
        return _ratio(total_ns(name), calls(name)) / scale

    handshakes = calls("protocol.object_que2")
    exchanges = calls("protocol.object_que1") + calls("protocol.object_rque")
    revocations = result["revocations"]
    batches = revocations.checks["batches"]
    m = {
        "protocol.object_que1_us": mean("protocol.object_que1"),
        "protocol.object_que2_us": mean("protocol.object_que2"),
        "protocol.object_rque_us": mean("protocol.object_rque"),
        "protocol.subject_start_round_us": mean("protocol.subject_start_round"),
        "protocol.subject_res1_us": mean("protocol.subject_res1"),
        "protocol.subject_res2_us": mean("protocol.subject_res2"),
        "protocol.subject_start_resumption_us": mean("protocol.subject_start_resumption"),
        "protocol.subject_rres_us": mean("protocol.subject_rres"),
        "protocol.parse_us": mean("protocol.parse"),
        "protocol.encode_us": mean("protocol.encode"),
        "crypto.ecdsa_verify_us": mean("crypto.ecdsa_verify"),
        "crypto.ecdsa_sign_us": mean("crypto.ecdsa_sign"),
        "crypto.ecdh_derive_us": mean("crypto.ecdh_derive"),
        "crypto.ecdh_keygen_us": mean("crypto.ecdh_keygen"),
        "crypto.pk_ops_per_handshake": _ratio(
            calls("crypto.ecdsa_verify") + calls("crypto.ecdsa_sign")
            + calls("crypto.ecdh_derive") + logical.get("ecdh_pool_miss", 0),
            handshakes,
        ),
        "crypto.keypool_hit_ratio": _ratio(
            logical.get("ecdh_pool_hit", 0),
            logical.get("ecdh_pool_hit", 0) + logical.get("ecdh_pool_miss", 0),
        ),
        "crypto.aead_us": mean("crypto.aead"),
        "crypto.kdf_us": mean("crypto.kdf"),
        "crypto.meter_records_per_exchange": _ratio(sum(logical.values()), exchanges),
        "pki.chain_verify_us": mean("pki.chain_verify"),
        "pki.chain_cache_hit_ratio": _ratio(
            logical.get("cert_verify_cached", 0), calls("pki.chain_verify")
        ),
        "pki.profile_verify_cache_hit_ratio": _ratio(
            logical.get("profile_verify_cached", 0), calls("pki.profile_verify")
        ),
        "attributes.predicate_eval_us": mean("attributes.predicate_eval"),
        "backend.register_subject_ms": mean("backend.register_subject", 1e6),
        "backend.churn_batch_ms": _ratio(
            total_ns("backend.churn_remove") + total_ns("backend.churn_add")
            + total_ns("backend.churn_flush"),
            calls("backend.churn_flush"),
        ) / 1e6,
        "backend.update_apply_us": mean("backend.update_apply"),
        "host.ref_loop_ms": host_ref_ms,
        "trace.overhead_pct": 100.0 * (out.wall_s / result["out"].wall_s - 1.0),
    }
    if workload == "sim_lossy":
        m.update(_sim_layers(result, spans, tracer, discoveries))
    else:
        m.update(_service_layers(result, spans, tracer, discoveries))
    m["backend.update_messages_per_batch"] = _ratio(
        revocations.checks["update_messages"], batches
    )
    m["backend.update_bytes_per_batch"] = _ratio(revocations.checks["update_bytes"], batches)
    m["crypto.openssl_share"] = _ratio(
        sum(tracer.total_ns_between(n, out.t0, out.t1) for n in _OPENSSL),
        out.wall_s * 1e9,
    )
    return {name: float(m.get(name, 0.0)) for name in UNITS}


def _service_layers(result, spans, tracer, discoveries) -> dict[str, float]:
    out = result["traced_out"]
    before, after = result["traced_before"], result["traced_after"]
    client = {k: after.client[k] - before.client[k] for k in after.client}
    daemon = {k: after.daemon[k] - before.daemon[k] for k in after.daemon}
    dispatch = spans.get("service.dispatch", {"calls": 0, "total_ns": 0})
    covered = tracer.covered_ns(out.t0, out.t1)
    lengths = result["fleet"].tap.lengths
    res2 = sorted(n for (tag, _), ls in lengths.items() if tag == 0x05 for n in ls)
    rres = sorted(n for (tag, _), ls in lengths.items() if tag == 0x07 for n in ls)
    push = spans.get("service.update_push", {"calls": 0, "total_ns": 0})
    return {
        "service.dispatch_us": _ratio(dispatch["total_ns"], dispatch["calls"]) / 1e3,
        "service.object_busy_us_per_discovery": _ratio(
            tracer.total_ns_between("service.dispatch", out.t0, out.t1), discoveries
        ) / 1e3,
        "service.residual_us_per_discovery": _ratio(
            out.wall_s * 1e9 - covered, discoveries
        ) / 1e3,
        "service.frames_per_discovery": _ratio(after.frames - before.frames, discoveries),
        "service.retransmissions": client.get("retransmissions", 0)
        + after.push_retransmissions - before.push_retransmissions,
        "service.frames_shed": daemon.get("frames_shed", 0),
        "service.tcp_fallbacks": client.get("tcp_fallbacks", 0),
        "service.give_ups": client.get("exchanges_given_up", 0),
        "service.resumption_fallbacks_per_discovery": _ratio(
            client.get("resumption_fallbacks", 0), discoveries
        ),
        "service.update_push_ms": _ratio(push["total_ns"], push["calls"]) / 1e6,
        "service.daemon_peer_entries": result["peer_entries"],
        "protocol.res2_bytes": res2[-1] if res2 else 0,
        "protocol.rres_bytes": rres[-1] if rres else 0,
    }


def _sim_layers(result, spans, tracer, discoveries) -> dict[str, float]:
    out = result["traced_out"]
    run = spans.get("net.run", {"calls": 0, "total_ns": 0})
    events = tracer.counts.get("net.events", 0)
    engine_ns = sum(
        entry["total_ns"] for name, entry in spans.items()
        if name.startswith(("protocol.object_", "protocol.subject_"))
    )
    return {
        "net.events_per_discovery": _ratio(events, discoveries),
        "net.event_us": _ratio(run["total_ns"], events) / 1e3,
        "net.engine_share": _ratio(engine_ns, run["total_ns"]),
        "net.retransmissions_per_discovery": _ratio(
            out.checks["retransmissions"], discoveries
        ),
        "net.frames_lost_per_discovery": _ratio(out.checks["frames_lost"], discoveries),
    }
