"""Command-line driver with deterministic trace and report emission.

Exit codes: 0 success, 1 engine refusal (budget exceeded, truncated logs,
partial results), 2 usage or parse errors.  All outputs are byte-identical
across reruns for a given configuration.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from .approx import (DEFAULT_ROW_CAP, TruncatedLog, iterated_matrix, universal_run,
                     validate_erasures)
from .fm import fm_construct
from .machine import ProgramError, parse_program
from .oracle import (DEFAULT_TRIM_BITS, ENUM_WORK_CAP, RealOracle, SetOracle,
                     enumeration_slice, jump_lightface, run_programs)
from .ordinal import BudgetOrdinalOverflow, parse_ordinal
from .reals import ZERO as ZERO_REAL, parse_real
from .runner import (BudgetPolicy, DEFAULT_BUDGET, ExceededCert, HaltAt,
                     OracleProtocolError, RepeatCert, TranslationCert,
                     run_transfinite)

SCHEMA = 1
_STATES = range(ENUM_WORK_CAP + 1)


class UsageError(Exception):
    pass


def _json_line(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _write_text(path: str, text: str):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError("cannot write output: %s" % exc)


def _emit(path: str | None, text: str):
    """Write text to path, or to stdout when no path is given."""
    if path:
        _write_text(path, text)
    else:
        sys.stdout.write(text)


def _budget(args) -> BudgetPolicy:
    try:
        return BudgetPolicy(args.depth, args.budget,
                            getattr(args, "cap", DEFAULT_BUDGET.appearance_cap))
    except ValueError as exc:
        raise UsageError(str(exc))


def _load_program(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_program(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError("cannot read program: %s" % exc)
    except ProgramError as exc:
        raise UsageError("bad program %s: %s" % (path, exc))


def _oracle(args):
    if args.oracle and args.oracle_real:
        raise UsageError("give at most one of --oracle and --oracle-real")
    if args.oracle:
        try:
            with open(args.oracle, "r", encoding="utf-8") as fh:
                lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
            members = frozenset(parse_real(ln) for ln in lines)
        except OSError as exc:
            raise UsageError("cannot read oracle file: %s" % exc)
        except ValueError as exc:
            raise UsageError("bad oracle file: %s" % exc)
        return SetOracle(members, args.trim_bits)
    if args.oracle_real:
        try:
            return RealOracle(parse_real(args.oracle_real))
        except ValueError as exc:
            raise UsageError(str(exc))
    return None


_CERT_KINDS = {RepeatCert: "repeat", TranslationCert: "translation",
               HaltAt: "halt", ExceededCert: "exceeded"}


def _cert_json(cert):
    return dict(asdict(cert), kind=_CERT_KINDS[type(cert)])


def _result_line(res) -> str:
    if res.outcome == "halted":
        return "HALTED time=%s output=%s" % (res.time.render(), res.output.render())
    if res.outcome == "loops":
        return "LOOPS first=%s second=%s" % (res.loop.first.render(),
                                             res.loop.second.render())
    return "EXCEEDED reason=%s" % res.reason


def _outcome(res, doc: dict) -> dict:
    """doc plus the run's outcome and what it found: time and output, the
    loop stages, or the reason it stopped."""
    doc["outcome"] = res.outcome
    if res.outcome == "halted":
        doc["time"] = res.time.render()
        doc["output"] = res.output.render()
    elif res.outcome == "loops":
        doc["loop"] = {"first": res.loop.first.render(),
                       "second": res.loop.second.render()}
    else:
        doc["reason"] = res.reason
    return doc


def _run_result(args):
    program = _load_program(args.program)
    budget = _budget(args)
    oracle = _oracle(args)
    input_real = ZERO_REAL
    if args.input:
        try:
            input_real = parse_real(args.input)
        except ValueError as exc:
            raise UsageError("bad input real: %s" % exc)
    return run_transfinite(program, input_real, budget, oracle)


def cmd_run(args) -> int:
    res = _run_result(args)
    if args.format == "json":
        sys.stdout.write(_json_line(_outcome(res, {"schema": SCHEMA})))
    else:
        print(_result_line(res))
    return 1 if res.outcome == "exceeded" else 0


def cmd_trace(args) -> int:
    res = _run_result(args)
    lines = []
    for block in res.blocks:
        rec = {"schema": SCHEMA, "kind": "block",
               "stage": block.start.stage.render(),
               "certificate": _cert_json(block.certificate),
               "ever_one": [r.render() for r in block.ever_one],
               "start_digest": block.start.digest(),
               "limit_digest": block.limit.digest() if block.limit else None}
        if args.full_snapshots:
            rec["snapshots"] = [
                {"state": s.state, "head": s.head, "stage": s.stage.render(),
                 "tracks": [t.render() for t in s.tracks]}
                for s in block.explicit]
        lines.append(_json_line(rec))
    for level, snap in res.limits:
        lines.append(_json_line({"schema": SCHEMA, "kind": "limit",
                                 "level": level, "stage": snap.stage.render(),
                                 "digest": snap.digest()}))
    outcome = _outcome(res, {"schema": SCHEMA, "kind": "outcome"})
    if res.outcome == "loops":
        outcome["loop"]["snapshot"] = res.final_limit.digest()
    lines.append(_json_line(outcome))
    _write_text(args.out, "".join(lines))
    print(_result_line(res))
    return 1 if res.outcome == "exceeded" else 0


def cmd_survey(args) -> int:
    budget = _budget(args)
    programs = enumeration_slice(args.bound, args.states, args.tracks)
    results = run_programs(programs, budget)
    entries = []
    for pid, res in enumerate(results):
        entry = {"index": pid, "digest": programs[pid].digest(),
                 "outcome": res.outcome}
        if res.outcome == "halted":
            entry["time"] = res.time.render()
            entry["output"] = res.output.render()
        entries.append(entry)
    log = universal_run(results, budget)
    doc = {"schema": SCHEMA, "bound": args.bound, "states": args.states,
           "tracks": args.tracks,
           "budget": {"depth": budget.depth, "per_level": budget.per_level_budget,
                      "appearance_cap": budget.appearance_cap},
           "programs": entries,
           "appearances": [{"stage": a.stage.render(), "program": a.program,
                            "track": a.track, "real": a.real.render(),
                            "digest": a.digest} for a in log.records],
           "truncated": log.truncated,
           "complete_below": log.complete_below.render() if log.complete_below else None}
    _emit(args.out, _json_line(doc))
    return 1 if log.truncated else 0


def cmd_jump(args) -> int:
    budget = _budget(args)
    oracle = _oracle(args)
    programs = enumeration_slice(args.bound, args.states, args.tracks)
    jr = jump_lightface(programs, oracle, budget)
    doc = {"schema": SCHEMA, "bound": jr.bound,
           "oracle": oracle.describe() if oracle else None,
           "halted": [{"program": p, "time": t.render()} for p, t in jr.halted],
           "diverges": sorted(jr.diverges),
           "exceeded": sorted(jr.exceeded),
           "halting_real": jr.halting_real().render()}
    if oracle is not None and oracle.kind == "real":
        doc["joined"] = jr.joined().render()
    _emit(args.out, _json_line(doc))
    return 0


def cmd_matrix(args) -> int:
    budget = _budget(args)
    try:
        alpha = parse_ordinal(args.order)
    except ValueError as exc:
        raise UsageError(str(exc))
    programs = enumeration_slice(args.bound, args.states, 4)
    matrix = iterated_matrix(alpha, programs, budget, args.rows)
    problems = validate_erasures(matrix)
    if args.log:
        lines = [_json_line({"schema": SCHEMA, "kind": "erasure",
                             "stage": e.stage.render(), "rank": e.rank.render(),
                             "cause": e.cause}) for e in matrix.erasure_log]
        _write_text(args.log, "".join(lines))
    doc = {"schema": SCHEMA, "order": alpha.render(), "bound": matrix.bound,
           "ranks": [r.render() for r in matrix.ranks],
           "rows": {r.render(): matrix.rows[r].render() for r in matrix.ranks},
           "changes": [{"stage": c.stage.render(), "rank": c.rank.render(),
                        "program": c.program} for c in matrix.change_log],
           "stabilization": {r.render(): matrix.stabilization[r].render()
                             for r in matrix.ranks},
           "partial": matrix.partial,
           "partial_reasons": list(matrix.partial_reasons),
           "erasure_problems": problems}
    _emit(args.out, _json_line(doc))
    return 1 if matrix.partial or problems else 0


def cmd_fm(args) -> int:
    budget = _budget(args)
    programs = enumeration_slice(args.bound, args.states, args.tracks)
    state, report = fm_construct(programs, budget, args.trim_bits)
    if args.events:
        lines = [_json_line(dict(ev, schema=SCHEMA)) for ev in state.events]
        _write_text(args.events, "".join(lines))
    if report is None:
        print("REFUSED flags=%s" % ",".join(state.flags), file=sys.stderr)
        return 1
    _emit(args.report, _json_line(report))
    return 1 if state.flags else 0


def _natural(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError("expected a natural number, got %r" % text)
    return int(text)


def _add_budget_args(sp):
    sp.add_argument("--depth", type=int, default=DEFAULT_BUDGET.depth,
                    help="ordinal depth D; stages stay below w^D")
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET.per_level_budget,
                    help="per-level step/block budget B (default %d)"
                         % DEFAULT_BUDGET.per_level_budget)


def _add_oracle_args(sp):
    sp.add_argument("--oracle", help="set-oracle file, one real per line")
    sp.add_argument("--oracle-real", help="real oracle, prefix(tail)* syntax")
    sp.add_argument("--trim-bits", type=_natural, default=DEFAULT_TRIM_BITS,
                    help="query canonicalization width for set oracles")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ittm",
        description="transfinite machine runs, jumps, and injury constructions")
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one program")
    run.add_argument("program")
    run.add_argument("--input", help="input real, prefix(tail)* syntax")
    run.add_argument("--format", choices=("text", "json"), default="text")
    _add_budget_args(run)
    _add_oracle_args(run)
    run.set_defaults(fn=cmd_run)

    trace = sub.add_parser("trace", help="run one program, write a JSONL trace")
    trace.add_argument("program")
    trace.add_argument("--input", help="input real")
    trace.add_argument("--out", required=True)
    trace.add_argument("--full-snapshots", action="store_true")
    _add_budget_args(trace)
    _add_oracle_args(trace)
    trace.set_defaults(fn=cmd_trace)

    survey = sub.add_parser("survey", help="clockable times and appearance log")
    survey.add_argument("--states", type=int, choices=_STATES, default=2)
    survey.add_argument("--tracks", type=int, choices=(3, 4), default=3)
    survey.add_argument("--bound", type=_natural, default=256)
    survey.add_argument("--out")
    _add_budget_args(survey)
    survey.add_argument("--cap", type=int, default=DEFAULT_BUDGET.appearance_cap,
                        help="appearance log cap")
    survey.set_defaults(fn=cmd_survey)

    jump = sub.add_parser("jump", help="budgeted halting set of the enumeration")
    jump.add_argument("--states", type=int, choices=_STATES, default=2)
    jump.add_argument("--tracks", type=int, choices=(3, 4), default=3)
    jump.add_argument("--bound", type=_natural, default=256)
    jump.add_argument("--out")
    _add_budget_args(jump)
    _add_oracle_args(jump)
    jump.set_defaults(fn=cmd_jump)

    matrix = sub.add_parser("matrix", help="iterated-jump injury matrix")
    matrix.add_argument("--order", required=True, help="ordinal literal, e.g. w*1+1")
    matrix.add_argument("--states", type=int, choices=_STATES, default=0)
    matrix.add_argument("--bound", type=_natural, default=40)
    matrix.add_argument("--rows", type=_natural, default=DEFAULT_ROW_CAP,
                        help="per-run row cap")
    matrix.add_argument("--log", help="erasure JSONL path")
    matrix.add_argument("--out")
    _add_budget_args(matrix)
    matrix.set_defaults(fn=cmd_matrix)

    fm = sub.add_parser("fm", help="transfinite priority construction")
    fm.add_argument("--states", type=int, choices=_STATES, default=0)
    fm.add_argument("--tracks", type=int, choices=(3, 4), default=3)
    fm.add_argument("--bound", type=_natural, default=16)
    fm.add_argument("--trim-bits", type=_natural, default=DEFAULT_TRIM_BITS)
    fm.add_argument("--events", help="event JSONL path")
    fm.add_argument("--report", help="report JSON path")
    _add_budget_args(fm)
    fm.add_argument("--cap", type=int, default=DEFAULT_BUDGET.appearance_cap,
                    help="appearance log cap")
    fm.set_defaults(fn=cmd_fm)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (UsageError, ProgramError, OracleProtocolError) as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 2
    except (TruncatedLog, BudgetOrdinalOverflow) as exc:
        print("refused: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
