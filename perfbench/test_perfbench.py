"""The benchmark's own tests: oracle, metric names, tracer, smoke runs.

    python3 -m pytest perfbench/test_perfbench.py

The smoke runs use ``--seconds 1`` (about a minute for all four
workloads together).
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from perfbench import fleet, hostref, layers, run
from perfbench.fleet import FLEET, SubjectSpec
from perfbench.trace import Tracer

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# -- the oracle -------------------------------------------------------------------


def test_oracle_levels():
    fellow = SubjectSpec("f", "eng", True)
    member = SubjectSpec("m", "hr", False)
    exp_f = fleet.expected_functions(fellow)
    exp_m = fleet.expected_functions(member)
    assert exp_f["l1-thermostat"] == exp_m["l1-thermostat"] == ("read_temperature",)
    assert exp_f["l2-display-0"] == ("stream", "cast")  # first matching variant
    assert exp_m["l2-display-0"] == ("stream",)  # the catch-all variant
    assert exp_f["l3-kiosk-0"] == ("dispense_support_flyer",)  # covert for fellows
    assert exp_m["l3-kiosk-0"] == ("stream",)  # the Level-2 face otherwise
    revoked = fleet.expected_functions(fellow, revoked=True)
    assert set(revoked) == {s.object_id for s in FLEET if s.level == 1}


def test_oracle_handles_only_equalities():
    assert fleet.predicate_holds("dept=='eng'", {"dept": "eng"})
    assert not fleet.predicate_holds("dept=='eng'", {"dept": "ops"})
    with pytest.raises(ValueError):
        fleet.predicate_holds("dept!='eng'", {"dept": "eng"})


def test_oracle_rejects_a_wrong_expectation(monkeypatch):
    """A run whose expectation is deliberately wrong fails every discovery."""
    right = fleet.expected_functions

    def wrong(subject, specs=FLEET, revoked=False):
        expected = dict(right(subject, specs, revoked))
        if subject.subject_id.startswith("fresh-") and subject.subject_id >= "fresh-00002":
            # Past the two warm-up subjects, which must pass for set-up.
            expected["l1-wayfinder"] = ("teleport",)
        return expected

    monkeypatch.setattr(fleet, "expected_functions", wrong)
    _, summary = run.run("first_contact", seed=3, seconds=1, traced=False)
    discoveries = run.work_count("first_contact", 1)
    assert summary["failed"] == discoveries


# -- metric names -----------------------------------------------------------------


def test_end_to_end_names_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert declared == run.END_TO_END


def test_per_layer_names_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert declared == layers.UNITS


def test_benchmark_json_within_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["workloads"] and 2 <= len(SPEC["workloads"]) <= 8
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.OPS_PER_SECOND)
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    assert all(UNIT.match(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


# -- the tracer -------------------------------------------------------------------


class _Toy:
    def outer(self):
        return self.inner() + self.inner()

    def inner(self):
        return sum(range(1000))


def test_tracer_self_time_and_restore():
    original = _Toy.__dict__["outer"]
    tracer = Tracer()
    tracer.wrap(_Toy, "outer", "toy.outer")
    tracer.wrap(_Toy, "inner", "toy.inner")
    _Toy().outer()
    tracer.uninstall()
    assert _Toy.__dict__["outer"] is original
    summary = tracer.summary()
    assert summary["toy.outer"]["calls"] == 1
    assert summary["toy.inner"]["calls"] == 2
    outer = summary["toy.outer"]
    assert outer["self_ns"] == outer["total_ns"] - summary["toy.inner"]["total_ns"]
    assert tracer.nesting_errors() == 0


# -- host scaling -----------------------------------------------------------------


def test_host_clock_scales_only_cpu_time():
    clock = hostref.HostClock()
    slow = 2 * hostref.NOMINAL_PROBE_MS
    clock.probes = [(0.0, slow), (2.0, slow), (9.0, hostref.NOMINAL_PROBE_MS)]
    span = hostref.Span(start=1.0, end=4.0, cpu=2.0)
    # The probes before, inside and after the span average 5/3 nominal.
    assert clock.speed(span) == pytest.approx(0.6)
    # One second of waiting kept as measured; two of CPU at 0.6 speed.
    assert clock.scaled(span) == pytest.approx(1.0 + 2.0 * 0.6)


# -- smoke runs -------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(run.OPS_PER_SECOND))
def test_smoke(workload):
    detail, summary = run.run(workload, seed=1, seconds=1, traced=False)
    assert summary["correct"], detail["problems"]
    assert summary["failed"] == 0, detail["failures"]
    assert summary["attempted"] >= run.work_count(workload, 1)
    assert set(summary["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in summary["metrics"].values())


def test_smoke_traced():
    detail, summary = run.run("warm_return", seed=2, seconds=1, traced=True)
    assert summary["correct"], detail["problems"]
    assert set(summary["metrics"]) == set(layers.UNITS)
    assert summary["metrics"]["service.frames_per_discovery"]["value"] > 0
    assert (ROOT / detail["trace_file"]).exists()
