"""Tests of the benchmark's own machinery: frozen inputs, output checks and
the tracer.  Run with ``PYTHONPATH=src python -m pytest perfbench``."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

from bench import (HARD_INDICES, HARD_SET_DIR, ProgramRuns, command_problem,
                   run_command, verdict)
from speed import REFERENCE_S, SpeedProbe
from tracer import LAYERS, Tracer, lookup_sites

from ittm.machine import p_flip, p_halt, parse_program, render_program
from ittm.oracle import enumeration_slice
from ittm.reals import ZERO
from ittm.runner import BudgetPolicy, run_transfinite


def test_hard_set_files_match_their_enumeration_index():
    files = sorted(HARD_SET_DIR.glob("*.itm"))
    assert sorted(int(f.stem) for f in files) == sorted(HARD_INDICES)
    programs = enumeration_slice(max(HARD_INDICES) + 1, 2, 3)
    for f in files:
        text = f.read_text(encoding="utf-8")
        expected = programs[int(f.stem)]
        assert text == render_program(expected), f.name
        assert parse_program(text).digest() == expected.digest(), f.name


class _Pair(ProgramRuns):
    budget = (3, 64, 64)

    def __init__(self, reference):
        self.programs = [p_halt(), p_flip()]
        self._reference = reference

    def reference(self):
        return self._reference

    def verify_positions(self, rng):
        return range(len(self.programs))


def test_a_run_fails_on_a_changed_verdict_or_an_exception():
    budget = BudgetPolicy(*_Pair.budget)
    outcomes = [run_transfinite(p, ZERO, budget) for p in (p_halt(), p_flip())]
    halt = verdict(outcomes[0])
    assert halt.startswith("h ")

    failed, exceeded, _ = _Pair([halt, verdict(outcomes[1])]).check(outcomes, [0, 0], None)
    assert failed == [False, False]
    # a reference EXCEEDED may become decided, a decided verdict may not change
    failed, _, _ = _Pair(["e", "h 1 (0)*"]).check(outcomes, [0, 0], None)
    assert failed == [False, outcomes[1].outcome != "halted"]
    failed, _, _ = _Pair(["h 7 (0)*", "e"]).check(outcomes, [0, 0], None)
    assert failed[0]
    failed, exceeded, _ = _Pair([halt, "e"]).check([RuntimeError(), outcomes[1]], [0, 0], None)
    assert failed[0] and not exceeded[0]


def test_command_failure_rules():
    survey = ("survey", "--bound", "2")
    assert command_problem("jump", ("jump",), 2, "") == "exit 2"
    assert command_problem("fm", ("fm",), 1, "") is None  # an expected refusal
    assert command_problem("survey", survey, 1, '{"programs": [{}, {}]}') is None
    assert "survey entries" in command_problem("survey", survey, 0, '{"programs": [{}]}')
    assert "erasure" in command_problem("matrix", ("matrix",), 1,
                                        '{"erasure_problems": ["x"]}')


def _all_sites():
    return {(name, id(owner), attr): getattr(owner, attr)
            for name, _, module, fn in LAYERS
            for owner, attr in lookup_sites(module, fn)}


def test_tracer_wraps_every_lookup_site_and_restores_the_originals():
    before = _all_sites()
    runner = importlib.import_module("ittm.runner")
    approx = importlib.import_module("ittm.approx")
    with Tracer():
        assert getattr(runner.run_transfinite, "__wrapped__", None) is not None
        assert approx.run_transfinite is runner.run_transfinite
        for name, _, module, fn in LAYERS:
            for owner, attr in lookup_sites(module, fn) or [None]:
                assert owner is not None, name
                assert hasattr(getattr(owner, attr), "__wrapped__"), (name, attr)
    after = _all_sites()
    assert before.keys() == after.keys()
    assert all(before[k] is after[k] for k in before)


def test_spans_nest_within_their_unit_and_self_times_add_up():
    runner = importlib.import_module("ittm.runner")
    tr = Tracer()
    with tr:
        with tr.unit("bench.unit"):
            code, out, _ = run_command(("jump", "--states", "0", "--bound", "6",
                                        "--budget", "64"))
        with tr.unit("bench.unit"):
            # through the module attribute, as the benchmark calls it
            runner.run_transfinite(p_flip(), ZERO, BudgetPolicy(3, 64, 64))
    assert code == 0 and out
    spans = {s[0]: s for s in tr.spans}
    roots = [s for s in tr.spans if s[1] is None]
    assert [s[3] for s in roots] == ["bench.unit", "bench.unit"]
    assert len({s[2] for s in roots}) == 2
    names = {s[3] for s in tr.spans}
    assert {"cli.jump", "oracle.jump_lightface", "runner.run_transfinite",
            "runner.run_block"} <= names
    for sid, parent, unit, name, start, end in tr.spans:
        assert start <= end
        if parent is None:
            continue
        p = spans[parent]
        assert p[0] < sid and p[2] == unit, name
        assert p[4] <= start and end <= p[5], name
    busy = sum(s[5] - s[4] for s in roots)
    assert tr.self_seconds() == pytest.approx(busy, rel=1e-6)
    assert tr.stats["runner.run_transfinite"][0] == 7
    assert tr.counts["runner.blocks.halt"] == 6


def test_speed_probe_restores_the_alarm_handler_and_corrects_unit_times():
    import signal
    before = signal.getsignal(signal.SIGALRM)
    probe = SpeedProbe()
    with probe:
        while not probe.lengths:
            sum(range(1000))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

    # a machine running the probe at half speed, sampled every 20 ms
    probe.starts = [0.02 * k for k in range(100)]
    probe.lengths = [2 * REFERENCE_S] * 100
    # a unit of 0.5 s holds 25 samples, which are taken off before halving
    (long_unit, short_unit) = probe.corrected([0.3, 1.001], [0.5, 0.001])
    assert long_unit == pytest.approx((0.5 - 25 * 2 * REFERENCE_S) / 2)
    assert short_unit == pytest.approx(0.001 / 2)


def test_run_refuses_outside_a_checkout(tmp_path):
    run = Path(__file__).resolve().parent / "run.py"
    proc = subprocess.run([sys.executable, str(run), "--workload", "hard-set",
                           "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
