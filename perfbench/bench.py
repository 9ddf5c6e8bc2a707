"""One workload process: set-up, timed rounds, then the output checks.

``run.py`` starts this file as a fresh interpreter (with ``PYTHONHASHSEED``
pinned) for each process of a run, and reads the JSON object it prints as
its last line.  It can also be run by hand from the repository root:

    PYTHONPATH=src python3 perfbench/bench.py --workload hard-set --seed 1

Each program run or CLI command is one timed *unit*; a round runs every
unit of the process once.  Checks run between rounds, outside the timed
region.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import hashlib
import io
import json
import random
import resource
import sys
import time
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"
HARD_SET_DIR = HERE / "hard_set"

SURVEY_BOUND = 60000
SURVEY_BUDGET = (3, 256, 256)
HARD_BUDGET = (3, 1024, 256)
# the acceptance-survey programs that exceed budget 256 (enumeration indices)
HARD_INDICES = (10825, 10828, 16079, 16085, 21333, 21342, 26587, 26599,
                31841, 31856, 37095, 37113, 42349, 42370)
CLI_COMMANDS = (
    ("survey", ("survey", "--states", "2", "--bound", "2000")),
    ("jump", ("jump", "--states", "2", "--bound", "2000")),
    ("matrix", ("matrix", "--order", "w*2", "--states", "0", "--bound", "20")),
    ("fm", ("fm", "--states", "0", "--bound", "48")),
)
# Small versions of the commands, run once untimed before the first round
# so the first timed round does not pay for cold code paths.
CLI_WARM_UP = (
    ("survey", "--states", "2", "--bound", "30"),
    ("jump", "--states", "2", "--bound", "200"),
    ("matrix", "--order", "w*2", "--states", "0", "--bound", "5"),
    ("fm", "--states", "0", "--bound", "24"),
)
# survey-wide programs per process whose certificates are re-checked
VERIFY_SAMPLE = 400
# program runs made untimed before the first round, at this budget
WARM_UP_PROGRAMS = 200
WARM_UP_BUDGET = (3, 64, 64)


def verdict(res) -> str:
    """The decided part of a run's result: outcome, and for a halt its
    time and output.  Loop stages are certificate detail, not verdict."""
    if res.outcome == "halted":
        return "h %s %s" % (res.time.render(), res.output.render())
    return "l" if res.outcome == "loops" else "e"


def certificates_hold(program, res) -> bool:
    from ittm.runner import verify_certificate
    return all(verify_certificate(program, b.start, b.certificate)
               for b in res.trace.blocks)


def load_survey_reference() -> list[str]:
    with gzip.open(REFERENCE / "survey-wide.txt.gz", "rt", encoding="utf-8") as fh:
        return fh.read().splitlines()


def load_seed_reference() -> dict:
    return json.loads((REFERENCE / "seed.json").read_text(encoding="utf-8"))


class ProgramRuns:
    """Shared by the two program-run workloads: each unit is one
    ``run_transfinite`` call on input 0, kept until the round ends."""

    processes = 1
    min_rounds = 2

    @property
    def keys(self):
        return self.indices

    def warm_up(self):
        from ittm import runner
        from ittm.reals import ZERO
        budget = runner.BudgetPolicy(*WARM_UP_BUDGET)
        for p in self.programs[:WARM_UP_PROGRAMS]:
            runner.run_transfinite(p, ZERO, budget)

    def units(self):
        from ittm import runner
        from ittm.reals import ZERO
        budget = runner.BudgetPolicy(*self.budget)
        return [(lambda p=p: runner.run_transfinite(p, ZERO, budget))
                for p in self.programs]

    def check(self, outcomes, times, rng):
        """(failed flags, exceeded flags, notes) for one round."""
        reference = self.reference()
        verify = set(self.verify_positions(rng))
        failed, exceeded = [], []
        for pos, res in enumerate(outcomes):
            if isinstance(res, BaseException):
                failed.append(True)
                exceeded.append(False)
                continue
            want = reference[pos]
            ok = want == "e" or verdict(res) == want
            if ok and pos in verify:
                ok = certificates_hold(self.programs[pos], res)
            failed.append(not ok)
            exceeded.append(res.outcome == "exceeded")
        return failed, exceeded, []

    def out_bytes(self, outcomes):
        return {}


class SurveyWide(ProgramRuns):
    """Many tiny runs: a seeded share of the first 60,000 canonical programs.

    The seed orders the whole prefix; process ``part`` of ``parts`` takes
    every ``parts``-th program of that order, so the processes of one run
    cover the prefix exactly once between them."""

    name = "survey-wide"
    budget = SURVEY_BUDGET
    processes = 2  # each one enumerates the whole prefix in its set-up

    def setup(self, seed, part, parts):
        from ittm import oracle
        everything = oracle.enumeration_slice(SURVEY_BOUND, 2, 3)
        order = random.Random(seed).sample(range(SURVEY_BOUND), SURVEY_BOUND)
        self.indices = order[part::parts]
        self.programs = [everything[i] for i in self.indices]

    def reference(self):
        ref = load_survey_reference()
        return [ref[i] for i in self.indices]

    def verify_positions(self, rng):
        return rng.sample(range(len(self.programs)),
                          min(VERIFY_SAMPLE, len(self.programs)))


class HardSet(ProgramRuns):
    """A few long blocks: the 14 acceptance-survey programs that exceed
    budget 256, frozen as .itm files, run at budget 1024."""

    name = "hard-set"
    budget = HARD_BUDGET

    def setup(self, seed, part, parts):
        from ittm.machine import parse_program
        self.indices = list(HARD_INDICES)
        self.programs = [
            parse_program((HARD_SET_DIR / ("%d.itm" % i)).read_text(encoding="utf-8"))
            for i in self.indices]

    def reference(self):
        ref = load_seed_reference()["hard-set"]
        return [ref[str(i)] for i in self.indices]

    def verify_positions(self, rng):
        return range(len(self.programs))


def run_command(argv):
    """One in-process CLI command: (exit code, stdout text, stderr text)."""
    from ittm import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def command_problem(name, argv, code, stdout) -> str | None:
    """Why a command run counts as failed, or None.  Exit 1 is an expected
    refusal (truncated log, partial matrix, flagged construction)."""
    if code not in (0, 1):
        return "exit %d" % code
    if name == "survey":
        bound = int(argv[argv.index("--bound") + 1])
        entries = len(json.loads(stdout)["programs"])
        if entries != bound:
            return "%d survey entries for bound %d" % (entries, bound)
    if name == "matrix":
        problems = json.loads(stdout)["erasure_problems"]
        if problems:
            return "erasure problems: %s" % problems[:3]
    return None


class CliMix:
    """Four commands through ``ittm.cli.main``; each command is one unit."""

    name = "cli-mix"
    processes = 1
    min_rounds = 2
    keys = tuple(name for name, _ in CLI_COMMANDS)

    def setup(self, seed, part, parts):
        import ittm.cli  # noqa: F401  (imports are the whole set-up)

    def warm_up(self):
        for argv in CLI_WARM_UP:
            run_command(argv)

    def units(self):
        return [(lambda argv=argv: run_command(argv)) for _, argv in CLI_COMMANDS]

    def check(self, outcomes, times, rng):
        reference = load_seed_reference()["cli-mix"]
        failed, exceeded, notes = [], [], []
        for (name, argv), out, seconds in zip(CLI_COMMANDS, outcomes, times):
            if isinstance(out, BaseException):
                failed.append(True)
                exceeded.append(False)
                notes.append("%s: raised %r" % (name, out))
                continue
            code, stdout, _stderr = out
            problem = command_problem(name, argv, code, stdout)
            digest = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
            same = digest == reference[name]["sha256"]
            failed.append(problem is not None)
            exceeded.append(code == 1)
            notes.append("%s: %.3f s, exit %d%s, %d bytes, sha256 %s (%s seed bytes)" % (
                name, seconds, code, " (refusal)" if code == 1 else "", len(stdout),
                digest[:16], "matches" if same else "differs from"))
            if problem:
                notes.append("%s: FAILED: %s" % (name, problem))
        return failed, exceeded, notes

    def out_bytes(self, outcomes):
        """Stdout size of each command that returned."""
        return {name: len(out[1].encode("utf-8"))
                for (name, _), out in zip(CLI_COMMANDS, outcomes)
                if not isinstance(out, BaseException)}


WORKLOADS = {w.name: w for w in (SurveyWide, HardSet, CliMix)}


def timed_round(units, times, outcomes, tracer=None, starts=None):
    """Run every unit once, appending its seconds and outcome (and, given
    `starts`, its start time); returns the seconds for the whole round."""
    unit = tracer.unit if tracer is not None else None
    start = perf_counter()
    for call in units:
        t0 = perf_counter()
        if starts is not None:
            starts.append(t0)
        try:
            if unit is None:
                out = call()
            else:
                with unit("bench.unit"):
                    out = call()
        except Exception as exc:  # a unit that raises is a counted failure
            out = exc
        times.append(perf_counter() - t0)
        outcomes.append(out)
        del out
    return perf_counter() - start


def measure(workload, args):
    """Untraced run: an untimed warm-up, then rounds over every unit until
    this process's share of time is used and the workload's minimum number
    of rounds is done.  Each round is checked before the next one starts.
    A unit's latency is its time corrected by the speed probe."""
    from speed import SpeedProbe
    work, setup = timed_setup(workload, args)
    units = work.units()
    rng = random.Random("%d:%d" % (args.seed, args.part))
    work.warm_up()
    walls, starts, times, notes = [], [], [], []
    attempted = failed = exceeded = 0
    rss_mb = None
    probe = SpeedProbe()
    while len(walls) < work.min_rounds or sum(walls) < args.seconds:
        gc.collect()  # every round starts from the same heap
        outcomes = []
        with probe:
            walls.append(timed_round(units, times, outcomes, starts=starts))
        if rss_mb is None:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        bad, over, notes = work.check(outcomes, times[-len(units):], rng)
        del outcomes
        attempted += len(bad)
        failed += sum(bad)
        if len(walls) == 1:  # each unit once, so the share is the same per run
            exceeded = sum(over)
    latencies = list(zip(list(work.keys) * len(walls), probe.corrected(starts, times)))
    return {**setup, "rounds": walls, "latencies": latencies,
            "slowdown": probe.slowdown(),
            "units": len(units), "exceeded": exceeded, "attempted": attempted,
            "failed": failed, "rss_mb": rss_mb, "notes": notes}


def trace(workload, args):
    """Traced run: set-up and one untraced round to warm lazy caches, then
    set-up and one round under the tracer, then one more untraced round.
    The tracing overhead is the traced round minus that last round, both
    corrected by the speed probe."""
    from speed import SpeedProbe
    from tracer import Tracer, layer_metrics
    rng = random.Random("%d:%d" % (args.seed, args.part))
    attempted = failed = 0

    def checked(work, outcomes, times):
        nonlocal attempted, failed
        bad, _, notes = work.check(outcomes, times, rng)
        attempted += len(bad)
        failed += sum(bad)
        return notes

    work = WORKLOADS[workload]()
    work.setup(args.seed, args.part, args.parts)
    times, outcomes = [], []
    timed_round(work.units(), times, outcomes)
    checked(work, outcomes, times)
    del work, outcomes

    gc.collect()
    tr = Tracer()
    probe = SpeedProbe()
    times, outcomes = [], []
    with tr:
        t0 = perf_counter()
        work = WORKLOADS[workload]()
        with tr.unit("bench.setup"):
            work.setup(args.seed, args.part, args.parts)
            units = work.units()
        traced_setup_s = perf_counter() - t0
        traced_start = perf_counter()
        with probe:
            traced_wall = timed_round(units, times, outcomes, tr)
    notes = checked(work, outcomes, times)
    out_bytes = work.out_bytes(outcomes)
    del outcomes

    gc.collect()
    times, outcomes = [], []
    plain_start = perf_counter()
    with probe:
        plain_wall = timed_round(units, times, outcomes)
    checked(work, outcomes, times)

    traced = traced_setup_s + traced_wall
    traced_wall, plain_wall = probe.corrected([traced_start, plain_start],
                                              [traced_wall, plain_wall])
    metrics = layer_metrics(tr)
    for name, _ in CLI_COMMANDS:
        metrics["cli.%s.out_bytes" % name] = (out_bytes.get(name, 0), "bytes")
    metrics["trace.untraced_round_s"] = (plain_wall, "s")
    metrics["trace.round_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    metrics["trace.overhead_frac"] = ((traced_wall - plain_wall) / plain_wall, "ratio")
    metrics["trace.self_sum_frac"] = (tr.self_seconds() / traced, "ratio")
    spans_path = write_spans(tr, workload, args.seed)
    notes.append("spans: %d written to %s" % (len(tr.spans), spans_path))
    return {"metrics": {k: list(v) for k, v in metrics.items()},
            "attempted": attempted, "failed": failed, "notes": notes}


def write_spans(tr, workload, seed) -> str:
    """Spans as JSON lines under .perfbench/ in the working directory."""
    out = Path(".perfbench")
    out.mkdir(exist_ok=True)
    path = out / ("spans-%s-seed%d.jsonl" % (workload, seed))
    with path.open("w", encoding="utf-8") as fh:
        for sid, parent, unit, name, start, end in tr.spans:
            fh.write(json.dumps({"id": sid, "parent": parent, "unit": unit,
                                 "name": name, "start": start, "end": end}) + "\n")
    return str(path)


def timed_setup(workload, args):
    """Set the workload up under the speed probe: the workload, and when
    set-up ended with the probe's time and slowdown during it (run.py
    corrects the set-up time with them)."""
    from speed import SpeedProbe
    work = WORKLOADS[workload]()
    probe = SpeedProbe()
    with probe:
        work.setup(args.seed, args.part, args.parts)
    ready = time.monotonic()
    return work, {"ready": ready, "setup_probe_s": sum(probe.lengths),
                  "setup_slowdown": probe.slowdown() if probe.lengths else 1.0}


def setup_only(workload, args):
    """Set up and stop: one more sample of set-up time."""
    return timed_setup(workload, args)[1]


MODES = {"measure": measure, "trace": trace, "setup": setup_only}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--part", type=int, default=0)
    ap.add_argument("--parts", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=0.0,
                    help="measure until this much round time is spent")
    ap.add_argument("--mode", choices=sorted(MODES), default="measure")
    args = ap.parse_args(argv)
    if not 0 <= args.part < args.parts:
        ap.error("--part must be in [0, --parts)")
    result = MODES[args.mode](args.workload, args)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
