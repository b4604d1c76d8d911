"""The benchmark's own fleet table, its provisioning, and the oracle.

Everything a workload discovers is decided here, from plain data, before
the program runs: which objects exist, which subject attributes match
which Level-2 variant, who is a fellow of the Level-3 group.  The oracle
evaluates the table's predicates with its own code (every predicate is
``attr=='value'``), so a discovery is judged against an expectation the
program under test did not compute.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass

from repro.backend.registration import Backend, ObjectCredentials, SubjectCredentials
from repro.backend.updates import ChurnEngine
from repro.backend.updatewire import GROUP_ADDR_PREFIX, UpdateMessage, UpdateReceiver

#: The two sensitive attributes the one secret group connects.
SUBJECT_SENSITIVE = "sensitive:fellow"
OBJECT_SENSITIVE = "sensitive:covert"

#: Subject departments; every one is named by some Level-2 variant.
DEPARTMENTS = ("eng", "ops", "fin", "hr")

#: One fellow in this many subjects.
FELLOW_EVERY = 4

#: Level-2/3 variants, first match wins.  The last one matches every
#: subject, so no Level-2/3 object stays silent for a live subject.
VARIANTS = (
    ("dept=='eng'", ("stream", "cast")),
    ("dept=='ops'", ("stream", "schedule")),
    ("role=='staff'", ("stream",)),
)


@dataclass(frozen=True)
class ObjectSpec:
    object_id: str
    level: int
    zone: str
    functions: tuple[str, ...]
    variants: tuple[tuple[str, tuple[str, ...]], ...] = ()
    covert: tuple[str, ...] = ()


#: The fleet: 2 objects at Level 1, 3 at Level 2, 3 at Level 3.
FLEET: tuple[ObjectSpec, ...] = (
    ObjectSpec("l1-thermostat", 1, "lobby", ("read_temperature",)),
    ObjectSpec("l1-wayfinder", 1, "lobby", ("show_map",)),
    *(
        ObjectSpec(f"l2-display-{i}", 2, "lab", ("show_slides",), VARIANTS)
        for i in range(3)
    ),
    *(
        ObjectSpec(
            f"l3-kiosk-{i}", 3, "lab", ("dispense_magazine",), VARIANTS,
            covert=("dispense_support_flyer",),
        )
        for i in range(3)
    ),
)


@dataclass(frozen=True)
class SubjectSpec:
    subject_id: str
    dept: str
    fellow: bool

    @property
    def attributes(self) -> dict[str, str]:
        return {"dept": self.dept, "role": "staff"}


def subject_specs(rng: random.Random, prefix: str, n: int) -> list[SubjectSpec]:
    """*n* subjects; exactly one in :data:`FELLOW_EVERY` is a fellow."""
    return [
        SubjectSpec(f"{prefix}-{i:05d}", rng.choice(DEPARTMENTS), i % FELLOW_EVERY == 0)
        for i in range(n)
    ]


# -- the oracle -------------------------------------------------------------------


def predicate_holds(predicate: str, attributes: dict[str, str]) -> bool:
    """Evaluate ``attr=='value'`` without the program's predicate code."""
    name, sep, literal = predicate.partition("==")
    if not sep or len(literal) < 2 or literal[0] != "'" or literal[-1] != "'":
        raise ValueError(f"oracle handles only attr=='value', got {predicate!r}")
    return attributes.get(name.strip()) == literal[1:-1]


def expected_functions(
    subject: SubjectSpec, fleet=FLEET, revoked: bool = False
) -> dict[str, tuple[str, ...]]:
    """object id -> the functions *subject* must discover there.

    Level 1 shows its public functions to everyone; Level 2 shows the
    first matching variant; Level 3 shows the covert variant to fellows
    and the Level-2 variant to everyone else.  A revoked subject sees
    Level 1 only.  An object with nothing to show is absent.
    """
    expected: dict[str, tuple[str, ...]] = {}
    for spec in fleet:
        if spec.level == 1:
            expected[spec.object_id] = spec.functions
            continue
        if revoked:
            continue
        if spec.level == 3 and subject.fellow:
            expected[spec.object_id] = spec.covert
            continue
        for predicate, functions in spec.variants:
            if predicate_holds(predicate, subject.attributes):
                expected[spec.object_id] = functions
                break
    return expected


def observed_functions(found) -> dict[str, tuple[str, ...]]:
    """The same shape from a discovery result (addr -> DiscoveredService)."""
    return {service.object_id: tuple(service.functions) for service in found.values()}


# -- provisioning -----------------------------------------------------------------


def make_backend(specs=FLEET) -> Backend:
    """A backend holding the fleet *specs*, its secret group and one policy.

    The policy gives every staff subject access to the ``lab`` zone, so
    revoking a subject notifies every Level-2/3 object.
    """
    backend = Backend()
    backend.add_sensitive_policy(SUBJECT_SENSITIVE, OBJECT_SENSITIVE)
    backend.add_policy("staff-lab", "role=='staff'", "zone=='lab'")
    for spec in specs:
        backend.register_object(
            spec.object_id,
            {"zone": spec.zone},
            level=spec.level,
            functions=spec.functions,
            variants=[(p, f) for p, f in spec.variants] or None,
            covert_functions={OBJECT_SENSITIVE: spec.covert} if spec.covert else None,
            sensitive_attributes=(OBJECT_SENSITIVE,) if spec.covert else (),
        )
    return backend


def register(backend: Backend, spec: SubjectSpec) -> SubjectCredentials:
    return backend.register_subject(
        spec.subject_id, spec.attributes,
        (SUBJECT_SENSITIVE,) if spec.fellow else (),
    )


def device_copy(creds: ObjectCredentials) -> ObjectCredentials:
    """The object's own copy of its credentials.

    The backend's churn engine edits the credentials it issued in
    place; a device must learn of a change only through the pushes it
    receives, so the daemon gets copies of the mutable parts.
    """
    return dataclasses.replace(
        creds,
        level2_variants=list(creds.level2_variants),
        level3_variants=dict(creds.level3_variants),
        revoked_subjects=set(creds.revoked_subjects),
    )


def group_id(backend: Backend) -> str:
    group = backend.groups.group_for_attributes(SUBJECT_SENSITIVE, OBJECT_SENSITIVE)
    assert group is not None
    return group.group_id


def revoke_and_admit(
    churn: ChurnEngine, victim_id: str, newcomer: SubjectSpec
) -> tuple[SubjectCredentials, list[UpdateMessage]]:
    """One churn batch: revoke a fellow, admit a new one; the flushed pushes."""
    with churn.batch():
        churn.remove_subject(victim_id)
        creds, _ = churn.add_subject(
            newcomer.subject_id, newcomer.attributes, (SUBJECT_SENSITIVE,)
        )
    return creds, churn.last_wire_flush


def route(
    messages: list[UpdateMessage], receivers: dict[str, UpdateReceiver]
) -> dict[str, list[UpdateMessage]]:
    """object id -> its pushes, in publish order.

    A group broadcast goes to every object whose receiver holds LKH
    state for the group; anything else to its addressee.
    """
    by_object: dict[str, list[UpdateMessage]] = {}
    for message in messages:
        if message.addressee.startswith(GROUP_ADDR_PREFIX):
            gid = message.addressee[len(GROUP_ADDR_PREFIX):]
            targets = [oid for oid, r in receivers.items() if gid in r.lkh_members]
        else:
            targets = [message.addressee]
        for oid in targets:
            by_object.setdefault(oid, []).append(message)
    return by_object


def object_receiver(backend: Backend, object_id: str) -> UpdateReceiver:
    """A device copy of the object's credentials behind its own receiver,
    with LKH state for the secret group when the object is a fellow."""
    creds = device_copy(backend.issued_objects[object_id])
    gid = group_id(backend)
    lkh = {gid: backend.groups.member_state(gid, object_id)} if creds.level3_variants else {}
    return UpdateReceiver(object_id, backend.admin_public, object_creds=creds, lkh_members=lkh)
