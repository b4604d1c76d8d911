"""In-memory span tracing, installed from the benchmark's side only.

:class:`Tracer` replaces public callables of the program's modules with
wrappers that record one span per call: name, start, end, parent span
and discovery id.  Synchronous calls nest on a stack, so a span's
parent is the innermost span open when it started.  Coroutines (the
update pusher) are recorded as *async* spans: they cover awaits, so
they take no part in nesting or in self time.

Nothing here is installed unless the run asks for a trace; the
untraced run executes the program's own code objects.
"""

from __future__ import annotations

import contextvars
import functools
import gzip
import json
import time
from collections import defaultdict
from pathlib import Path

#: The discovery a client-side call belongs to (set by the workload).
current_discovery: contextvars.ContextVar[int] = contextvars.ContextVar(
    "perfbench_discovery", default=-1
)

_NAME, _START, _END, _PARENT, _DISCOVERY, _ASYNC = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        #: Client ``ip:port`` -> discovery id, for daemon-side root spans.
        self.peer_discovery: dict[str, int] = {}
        self.counts: dict[str, int] = defaultdict(int)
        self._discoveries = 0

    def next_discovery(self) -> int:
        self._discoveries += 1
        return self._discoveries

    # -- installing wrappers -------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, peer_arg: int | None = None) -> None:
        """Record a span for every call of ``owner.attr``.

        *peer_arg* names the positional argument holding a transport
        peer id, used to attribute a root span to a discovery.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        spans, stack, peers = self.spans, self._stack, self.peer_discovery
        clock = time.perf_counter_ns

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if stack:
                parent = stack[-1]
                discovery = spans[parent][_DISCOVERY]
            else:
                parent = -1
                discovery = current_discovery.get()
                if discovery < 0 and peer_arg is not None and len(args) > peer_arg:
                    discovery = peers.get(args[peer_arg], -1)
            record = [name, 0, 0, parent, discovery, False]
            stack.append(len(spans))
            spans.append(record)
            record[_START] = clock()
            try:
                return original(*args, **kwargs)
            finally:
                record[_END] = clock()
                stack.pop()

        self._install(owner, attr, original, traced)

    def wrap_async(self, owner, attr: str, name: str) -> None:
        original = owner.__dict__[attr]
        spans = self.spans
        clock = time.perf_counter_ns

        @functools.wraps(original)
        async def traced(*args, **kwargs):
            record = [name, clock(), 0, -1, -1, True]
            spans.append(record)
            try:
                return await original(*args, **kwargs)
            finally:
                record[_END] = clock()

        self._install(owner, attr, original, traced)

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` without a span (very hot paths)."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        counts = self.counts

        @functools.wraps(original)
        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        self._install(owner, attr, original, counted)

    def _install(self, owner, attr, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- reading spans -------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive and self time (ns)."""
        child_time = [0] * len(self.spans)
        for record in self.spans:
            parent = record[_PARENT]
            if parent >= 0:
                child_time[parent] += record[_END] - record[_START]
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_ns": 0, "self_ns": 0}
        )
        for index, record in enumerate(self.spans):
            entry = out[record[_NAME]]
            duration = record[_END] - record[_START]
            entry["calls"] += 1
            entry["total_ns"] += duration
            if not record[_ASYNC]:
                entry["self_ns"] += duration - child_time[index]
        return dict(out)

    def _window(self, t0: float, t1: float):
        lo, hi = int(t0 * 1e9), int(t1 * 1e9)
        return (r for r in self.spans if lo <= r[_START] <= hi)

    def covered_ns(self, t0: float, t1: float) -> int:
        """Time inside synchronous root spans that started in [t0, t1]
        (``perf_counter`` seconds).  Root spans never overlap: they run
        one at a time on the event loop."""
        return sum(
            r[_END] - r[_START] for r in self._window(t0, t1)
            if r[_PARENT] < 0 and not r[_ASYNC]
        )

    def total_ns_between(self, name: str, t0: float, t1: float) -> int:
        return sum(r[_END] - r[_START] for r in self._window(t0, t1) if r[_NAME] == name)

    def nesting_errors(self) -> int:
        """Spans that do not lie inside their parent's interval."""
        spans = self.spans
        return sum(
            1 for r in spans
            if r[_PARENT] >= 0 and not (
                spans[r[_PARENT]][_START] <= r[_START] <= r[_END] <= spans[r[_PARENT]][_END]
            )
        )

    def write(self, path: Path) -> None:
        """Gzipped JSON lines: a header naming the fields, then one array
        per span; a span's id is its line number after the header."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps(
                ["name", "start_ns", "end_ns", "parent", "discovery", "async"]
            ) + "\n")
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


def install_layers(tracer: Tracer) -> None:
    """Wrap the public calls of every layer a discovery passes through."""
    import repro.attributes.predicate as predicate
    import repro.backend.registration as registration
    import repro.backend.updates as updates
    import repro.backend.updatewire as updatewire
    import repro.crypto.aead as aead
    import repro.crypto.ecdh as ecdh
    import repro.crypto.ecdsa as ecdsa
    import repro.crypto.kdf as kdf
    import repro.net.simulator as simulator
    import repro.pki.chain as chain
    import repro.pki.profile as profile
    import repro.protocol.messages as messages
    import repro.protocol.object as obj
    import repro.protocol.subject as subj
    import repro.service.client as client
    import repro.service.daemon as daemon
    import repro.service.update_stream as update_stream

    w = tracer.wrap
    # repro.service
    w(daemon.ObjectServiceDaemon, "dispatch", "service.dispatch", peer_arg=2)
    tracer.wrap_async(update_stream.UpdateStreamPusher, "push_all", "service.update_push")
    # repro.protocol
    for attr, name in (("handle_que1", "que1"), ("handle_que2", "que2"),
                       ("handle_rque", "rque")):
        w(obj.ObjectEngine, attr, f"protocol.object_{name}")
    for attr, name in (("start_round", "start_round"), ("handle_res1", "res1"),
                       ("handle_res1_level1", "res1_level1"), ("handle_res2", "res2"),
                       ("start_resumption", "start_resumption"), ("handle_rres", "rres")):
        w(subj.SubjectEngine, attr, f"protocol.subject_{name}")
    for module in (daemon, client):
        w(module, "parse_message", "protocol.parse")
    for cls in (messages.Que1, messages.Res1Level1, messages.Res1, messages.Que2,
                messages.Res2, messages.Rque, messages.Rres):
        w(cls, "to_bytes", "protocol.encode")
    # repro.crypto
    w(ecdsa.VerifyingKey, "verify", "crypto.ecdsa_verify")
    w(ecdsa.SigningKey, "sign", "crypto.ecdsa_sign")
    w(ecdh.EphemeralECDH, "derive_premaster", "crypto.ecdh_derive")
    for module in (obj, subj):
        w(module, "ecdh_keypair", "crypto.ecdh_keygen")
    for attr in ("encrypt", "decrypt"):
        w(aead, attr, "crypto.aead")
    for attr in ("premaster_to_session", "derive_k2", "derive_k3", "subject_finished",
                 "object_finished", "resumption_master", "derive_resumed_key",
                 "rque_binder"):
        w(kdf, attr, "crypto.kdf")
    # repro.pki
    w(chain.ChainVerifier, "verify_chain_bytes", "pki.chain_verify")
    w(profile.Profile, "verify", "pki.profile_verify")
    # repro.attributes
    for cls in (predicate.Comparison, predicate.And, predicate.Or, predicate.Not):
        w(cls, "evaluate", "attributes.predicate_eval")
    # repro.backend
    w(registration.Backend, "register_subject", "backend.register_subject")
    w(updates.ChurnEngine, "remove_subject", "backend.churn_remove")
    w(updates.ChurnEngine, "add_subject", "backend.churn_add")
    w(updatewire.UpdateBatcher, "flush", "backend.churn_flush")
    w(updatewire.UpdateReceiver, "apply", "backend.update_apply")
    # repro.net
    w(simulator.Simulator, "run", "net.run")
    tracer.count(simulator.Simulator, "schedule", "net.events")
