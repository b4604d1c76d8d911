"""Protocol property checks, run untimed at the end of every live run.

* Each side of a full Level-2/3 handshake meters exactly the §IX-B
  counts (1 sign, 3 verify, 1 ECDH key, 1 ECDH derive); a resumed
  exchange meters no public-key operation at all.
* Every RES2 frame of the run has one length, and so has every RRES.
* Sampled frames re-serialise byte-identically.
* The stale tickets the daemons reject equal the ones the benchmark's
  own ticket ledger predicted.

Each function returns a list of problems; an empty list means the
property held.
"""

from __future__ import annotations

from collections import Counter, defaultdict

from perfbench import fleet
from perfbench.fleet import SubjectSpec

from repro.crypto import meter
from repro.protocol.errors import MessageFormatError
from repro.protocol.messages import TYPE_RES2, parse_message
from repro.protocol.object import ObjectEngine
from repro.protocol.subject import SubjectEngine

#: §IX-B: public-key operations per side of one full Level-2/3 handshake.
FULL_HANDSHAKE_OPS = {"ecdsa_sign": 1, "ecdsa_verify": 3, "ecdh_gen": 1, "ecdh_derive": 1}
_PK_OPS = tuple(FULL_HANDSHAKE_OPS)


def live_properties(live_fleet) -> list[str]:
    problems = []
    tap = live_fleet.tap
    for (tag, addr), lengths in tap.lengths.items():
        if len(lengths) > 1:
            kind = "RES2" if tag == TYPE_RES2 else "RRES"
            problems.append(f"{kind} lengths from {addr} differ: {sorted(lengths)}")
    for raw in tap.samples:
        try:
            again = parse_message(raw).to_bytes()
        except MessageFormatError as exc:
            problems.append(f"sampled frame does not parse: {exc}")
            break
        if again != raw:
            problems.append(f"frame type {raw[0]} does not re-serialise byte-identically")
            break
    # Counted where the ticket is judged: a client also falls back when
    # a timer fires on a valid ticket, which the give-ups show instead.
    stale = live_fleet.stale_tickets_rejected()
    if stale != live_fleet.ledger.predicted_stale:
        problems.append(
            f"daemons rejected {stale} stale tickets, the ledger predicted "
            f"{live_fleet.ledger.predicted_stale}"
        )
    return problems


async def metering_audit(live_fleet) -> list[str]:
    """Meter every engine call of two fresh subjects, full then resumed."""
    tallies: dict[tuple[str, str], Counter] = defaultdict(Counter)
    originals = []

    def metered(cls, attr, side, key_of):
        original = cls.__dict__[attr]

        def wrapper(self, *args):
            with meter.metered() as m:
                result = original(self, *args)
            tally = tallies[(side, key_of(self, args))]
            for (op, _strength), n in m.counts.items():
                tally[op] += n
            return result

        originals.append((cls, attr, original))
        setattr(cls, attr, wrapper)

    object_key = lambda engine, args: f"{engine.creds.object_id}|{args[1]}"  # noqa: E731
    subject_key = lambda engine, args: f"{engine.creds.subject_id}|{args[-1]}"  # noqa: E731
    for attr in ("handle_que1", "handle_que2", "handle_rque"):
        metered(ObjectEngine, attr, "object", object_key)
    for attr in ("handle_res1", "handle_res2", "handle_res1_level1", "handle_rres"):
        metered(SubjectEngine, attr, "subject", subject_key)
    metered(SubjectEngine, "start_resumption", "subject", subject_key)

    object_at = {f"{d.host}:{d.port}": oid for oid, d in live_fleet.daemons.items()}
    problems = []
    try:
        for fellow in (True, False):
            for attempt in range(AUDIT_ATTEMPTS):
                found = await _audit_subject(live_fleet, tallies, fellow, attempt)
                if found is not None:
                    break
            else:
                problems.append("every audit attempt lost an exchange to a timer")
                continue
            spec, results = found
            for phase, (observed, phase_tallies) in results.items():
                if observed != fleet.expected_functions(spec):
                    problems.append(f"audit discovery ({phase}) saw the wrong services")
                problems += _judge(phase_tallies, phase, spec.subject_id, object_at)
    finally:
        for cls, attr, original in reversed(originals):
            setattr(cls, attr, original)
    return problems


#: Fresh subjects an audit may use before it gives up: a timer that fires
#: on a slow exchange adds a round, whose work is not the property's.
AUDIT_ATTEMPTS = 3


async def _audit_subject(live_fleet, tallies, fellow: bool, attempt: int):
    """Full then resumed discovery of one fresh subject, with the tallies
    of each; None if any exchange was given up on."""
    spec = SubjectSpec(f"audit-{int(fellow)}-{attempt}", fleet.DEPARTMENTS[0], fellow)
    creds = fleet.register(live_fleet.backend, spec)
    client = await live_fleet.client(creds, seed=7 + attempt)
    # The intermediate certificate is verified once per cold verifier;
    # §IX-B counts the handshake with it already known.
    client.engine.verifier.warm_up(creds.cert_chain)
    results = {}
    for phase in ("full", "resumed"):
        tallies.clear()
        found = await client.discover(live_fleet.endpoints, rounds=1)
        results[phase] = (fleet.observed_functions(found), dict(tallies))
    if client.stats.exchanges_given_up:
        return None
    return spec, results


def _judge(tallies, phase: str, subject_id: str, object_at: dict[str, str]) -> list[str]:
    """Compare per-exchange tallies with the §IX-B counts."""
    per_exchange: dict[tuple[str, str], Counter] = defaultdict(Counter)
    for (side, key), tally in tallies.items():
        owner, peer = key.split("|")
        # The subject names a peer by daemon address (full handshake)
        # or by object id (resumption).
        object_id = owner if side == "object" else object_at.get(peer, peer)
        per_exchange[(side, object_id)].update(tally)
    want = FULL_HANDSHAKE_OPS if phase == "full" else dict.fromkeys(_PK_OPS, 0)
    problems = []
    for spec in fleet.FLEET:
        if spec.level == 1:
            continue
        for side in ("object", "subject"):
            tally = per_exchange[(side, spec.object_id)]
            ops = {op: tally[op] for op in _PK_OPS}
            if ops != want:
                problems.append(
                    f"{subject_id} at {spec.object_id}, {phase}: {side} side metered {ops}"
                )
    return problems
