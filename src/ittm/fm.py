"""The transfinite priority construction at desk scale.

Two staged sets of reals A and B are built so that, for every program p in
the surveyed space, the budgeted runs witness R_p: phi_p^B != A and
S_p: phi_p^A != B.  Requirements interleave as R_0 < S_0 < R_1 < ... and act
only at halting-event stages of the background dovetail.  A requirement
requires attention when its program, run against the current opposite set
on its witness, halts with all-zero output; it receives attention by adding
the witness to its own side, certifying the run's query set as a restraint,
and handing every weaker waiting requirement a fresh witness that avoids all
certified queries.  Additions by stronger requirements may injure weaker
restraints; injuries are logged and the injured requirement reverts to
waiting.

Witnesses are diagonalized against the appearance log and every active
preserved query set (plus current witnesses and set members, so witnesses
stay pairwise distinct), and the construction refuses rather than guess
when the appearance log is truncated below the stage it needs.  The avoid
list and its diagonal are kept across assignments: a new witness takes the
old one's slot and moves one bit of the diagonal, and the list is rebuilt
only when the stage, the restraints or the members have changed, or when
the old witness is also listed from another source.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

from .approx import (AppearanceLog, Diagonal, TruncatedLog, approximate_jump,
                     universal_run)
from .machine import Program, extend_to_oracle_tracks
from .oracle import SetOracle, replay_queries, run_programs, run_with_oracle
from .ordinal import Ordinal, ZERO as ZERO_ORD, successor
from .reals import Real
from .runner import BudgetPolicy, DEFAULT_BUDGET, QueryRecord

WAITING = "waiting"
BY_WITNESS = "satisfied-by-witness"
BY_DIVERGENCE = "satisfied-by-divergence-at-budget"


class ConstructionRefusal(Exception):
    """A witness was demanded beyond what the appearance log soundly covers."""


@dataclass
class Requirement:
    kind: str                     # "R" (wants witness in A) or "S" (in B)
    prog: int
    priority: int                 # R_p -> 2p, S_p -> 2p+1; lower acts first
    witness: Real | None = None
    state: str = WAITING
    injuries: list = field(default_factory=list)     # (stage, injuring priority)

    @property
    def own_side(self) -> str:
        return "A" if self.kind == "R" else "B"

    @property
    def opposite_side(self) -> str:
        return "B" if self.kind == "R" else "A"

    def label(self) -> str:
        return "%s_%d" % (self.kind, self.prog)


@dataclass
class Restraint:
    owner: int                    # priority of the certifying requirement
    guarded_side: str             # side whose queried reals must be preserved
    stage: Ordinal
    preserved: tuple[Real, ...]
    query_log: tuple[QueryRecord, ...]


@dataclass
class FMState:
    programs: list[Program]
    budget: BudgetPolicy
    trim_bits: int
    a_rows: dict[int, list[Real]] = field(default_factory=dict)
    b_rows: dict[int, list[Real]] = field(default_factory=dict)
    requirements: list[Requirement] = field(default_factory=list)
    restraints: dict[int, Restraint] = field(default_factory=dict)
    stage: Ordinal = ZERO_ORD
    events: list[dict] = field(default_factory=list)
    appearance_log: AppearanceLog | None = None
    flags: list[str] = field(default_factory=list)
    oracle_programs: list[Program] = field(default_factory=list)
    avoid: AvoidList | None = field(default=None, repr=False, compare=False)

    def side_rows(self, side: str) -> dict[int, list[Real]]:
        return self.a_rows if side == "A" else self.b_rows

    def members(self, side: str) -> list[Real]:
        rows = self.side_rows(side)
        return [r for pid in sorted(rows) for r in rows[pid]]

    def side_oracle(self, side: str) -> SetOracle:
        return SetOracle(frozenset(self.members(side)), self.trim_bits)

    def member_count(self) -> int:
        return (sum(map(len, self.a_rows.values()))
                + sum(map(len, self.b_rows.values())))

    def log(self, kind: str, **fields):
        rec = {"type": kind, "stage": self.stage.render()}
        rec.update(fields)
        self.events.append(rec)


_WITNESS = attrgetter("witness")


@dataclass
class AvoidList:
    """The avoid list of `fresh_witness` as a Diagonal, with what it was
    built from.  The list is dedup(segment ++ preserved sets by owner ++
    witnesses in requirement order ++ members of A then B); the sets only
    grow, so their member count tells whether they changed."""
    stage: Ordinal
    restraints: dict[int, Restraint]
    member_count: int
    witnesses: list[Real | None]   # each requirement's, in requirement order
    pinned: set[Real]              # members, and witnesses listed before
                                   # their own slot: their slots are not theirs
    last_slot: int                 # whose witness is listed last: -1 none,
                                   # len(witnesses) a member
    diagonal: Diagonal

    def is_current(self, state: FMState) -> bool:
        return (self.stage == state.stage
                and self.restraints == state.restraints
                and self.member_count == state.member_count()
                and self.witnesses == list(map(_WITNESS, state.requirements)))

    def write(self, i: int, old: Real | None, new: Real) -> bool:
        """Hand requirement i the unlisted witness `new` in place of `old`.
        False when that would move later entries, so the list must be
        rebuilt."""
        if old is None:
            if self.last_slot > i:
                return False
            self.diagonal.add(new)
            self.last_slot = i
        elif old in self.pinned:
            return False
        else:
            self.diagonal.replace(old, new)
        self.witnesses[i] = new
        return True


def _oracle_ready(p: Program) -> Program:
    return extend_to_oracle_tracks(p) if p.track_count == 3 else p


def _build_avoid(state: FMState, upto: Ordinal) -> AvoidList:
    """The avoid list of `fresh_witness`, from scratch."""
    diagonal = Diagonal(state.appearance_log.segment(upto))
    for owner in sorted(state.restraints):
        for r in state.restraints[owner].preserved:
            diagonal.add(r)
    members = state.members("A") + state.members("B")
    pinned = set(members)
    witnesses = list(map(_WITNESS, state.requirements))
    last_slot = -1
    for i, w in enumerate(witnesses):
        if w in diagonal:
            pinned.add(w)
        elif w is not None:
            diagonal.add(w)
            last_slot = i
    listed = len(diagonal)
    for r in members:
        diagonal.add(r)
    if len(diagonal) > listed:
        last_slot = len(witnesses)
    return AvoidList(state.stage, dict(state.restraints), state.member_count(),
                     witnesses, pinned, last_slot, diagonal)


def fresh_witness(state: FMState, req: Requirement) -> Real:
    """Diagonal real avoiding the current appearance segment, every active
    preserved query set, current witnesses and both sets' members."""
    upto = successor(state.stage)
    try:
        state.appearance_log.require_complete(upto)
    except TruncatedLog as exc:
        raise ConstructionRefusal(str(exc))
    avoid = state.avoid
    if avoid is None or not avoid.is_current(state):
        avoid = state.avoid = _build_avoid(state, upto)
    out = avoid.diagonal.real()
    if out in avoid.diagonal:   # raised, not asserted, so `python -O` keeps it
        raise AssertionError("the witness equals a real it must avoid")
    return out


def _assign_witness(state: FMState, req: Requirement):
    witness = fresh_witness(state, req)
    if state.avoid is not None and not state.avoid.write(req.priority,
                                                         req.witness, witness):
        state.avoid = None
    req.witness = witness
    state.log("witness", requirement=req.label(), priority=req.priority,
              witness=req.witness.render())


def check_attention(state: FMState, req: Requirement, budget: BudgetPolicy):
    """Certified (result, query log) when the requirement's program halts
    with all-zero output against the current opposite set, else None."""
    if req.state != WAITING:
        return None
    oracle = state.side_oracle(req.opposite_side)
    prog = state.oracle_programs[req.prog]
    res, qlog = run_with_oracle(prog, req.witness, oracle, budget)
    if res.outcome == "halted" and res.output.is_zero():
        return res, qlog
    return None


def receive_attention(state: FMState, req: Requirement, certified) -> None:
    res, qlog = certified
    side = req.own_side
    state.side_rows(side).setdefault(req.prog, []).append(req.witness)
    state.log("attention", requirement=req.label(), priority=req.priority,
              witness=req.witness.render(), halt_time=res.time.render())
    state.log("addition", side=side, row=req.prog, real=req.witness.render(),
              requirement=req.label())
    # a stronger requirement's addition may tear up weaker certifications
    for owner in sorted(state.restraints):
        rst = state.restraints[owner]
        if rst.guarded_side != side:
            continue
        if req.witness in rst.preserved:
            if owner < req.priority:
                state.flags.append(
                    "hygiene violation: %s disturbed a stronger restraint" % req.label())
                continue
            injured = state.requirements[owner]
            injured.injuries.append((state.stage, req.priority))
            injured.state = WAITING
            del state.restraints[owner]
            state.log("injury", requirement=injured.label(), priority=owner,
                      injured_by=req.label())
    preserved = []
    pseen = set()
    for rec in qlog:
        if rec.real not in pseen:
            pseen.add(rec.real)
            preserved.append(rec.real)
    state.restraints[req.priority] = Restraint(
        req.priority, req.opposite_side, state.stage, tuple(preserved), qlog)
    req.state = BY_WITNESS
    state.log("restraint", requirement=req.label(), priority=req.priority,
              preserved=[r.render() for r in preserved])
    for weaker in state.requirements:
        if weaker.priority > req.priority and weaker.state == WAITING:
            _assign_witness(state, weaker)


def fm_construct(programs, budget: BudgetPolicy = DEFAULT_BUDGET,
                 trim_bits: int = 64) -> tuple[FMState, dict | None]:
    """Run the full priority loop over the given program space.

    The same programs serve as the background halter stream (their budgeted
    halting times are the event stages) and as the requirement programs run
    against set oracles.  Returns the final state and the report, or a
    flagged partial state with the report withheld."""
    progs = list(programs)
    state = FMState(progs, budget, trim_bits)
    state.oracle_programs = [_oracle_ready(p) for p in progs]
    results = run_programs(progs, budget)
    state.appearance_log = universal_run(results, budget)
    if state.appearance_log.truncated:
        state.flags.append("appearance-log-truncated")
    for pid in range(len(progs)):
        state.requirements.append(Requirement("R", pid, 2 * pid))
        state.requirements.append(Requirement("S", pid, 2 * pid + 1))
    background = approximate_jump(results)
    try:
        for req in state.requirements:
            _assign_witness(state, req)
        for stage, pid in background.events:
            state.stage = stage
            state.log("halting-event", program=pid)
            for req in state.requirements:
                att = check_attention(state, req, budget)
                if att is not None:
                    receive_attention(state, req, att)
                    break
    except ConstructionRefusal as exc:
        state.flags.append("refused: %s" % exc)
        return state, None
    report = _classify(state)
    return state, report


def _classify(state: FMState) -> dict:
    """Terminal classification with the doubled-budget divergence recheck."""
    lineage = {req.label(): [] for req in state.requirements}
    for ev in state.events:   # each (stage, witness) assignment, in order
        if ev["type"] == "witness":
            lineage[ev["requirement"]].append((ev["stage"], ev["witness"]))
    entries = []
    recheck_budget = state.budget.scaled(2)
    for req in state.requirements:
        entry = {"requirement": req.label(), "kind": req.kind,
                 "program": req.prog, "priority": req.priority,
                 "injuries": [[st.render(), by] for st, by in req.injuries],
                 "witness": req.witness.render(),
                 "lineage": lineage[req.label()]}
        if req.state == BY_WITNESS:
            rst = state.restraints[req.priority]
            final_oracle = state.side_oracle(req.opposite_side)
            undisturbed = replay_queries(rst.query_log, final_oracle)
            in_own = req.witness in set(state.members(req.own_side))
            res, _ = run_with_oracle(state.oracle_programs[req.prog],
                                     req.witness, final_oracle, state.budget)
            still_zero = res.outcome == "halted" and res.output.is_zero()
            if undisturbed and in_own and still_zero:
                entry["classification"] = BY_WITNESS
            else:
                entry["classification"] = "certification-disturbed"
                state.flags.append("disturbed certification for %s" % req.label())
        else:
            oracle = state.side_oracle(req.opposite_side)
            res, _ = run_with_oracle(state.oracle_programs[req.prog],
                                     req.witness, oracle, recheck_budget)
            converges_zero = res.outcome == "halted" and res.output.is_zero()
            if converges_zero:
                entry["classification"] = "unserved-convergence"
                state.flags.append("recheck failed for %s" % req.label())
            else:
                req.state = BY_DIVERGENCE
                entry["classification"] = BY_DIVERGENCE
                entry["recheck"] = res.outcome
        entries.append(entry)
    return {"schema": 1,
            "requirements": entries,
            "a_members": [r.render() for r in state.members("A")],
            "b_members": [r.render() for r in state.members("B")],
            "events": len(state.events),
            "flags": list(state.flags)}


# --- event-log invariants ----------------------------------------------------

def check_event_log(state: FMState) -> list[str]:
    """Replayable checks: restraint preservation, the injury bound,
    additions-at-events, and witness hygiene, all from the event log."""
    problems = []
    halting_stages = {e["stage"] for e in state.events if e["type"] == "halting-event"}
    attention_by_priority: dict[int, int] = {}
    active: dict[int, dict] = {}       # priority -> restraint event record
    witnesses_ok: set[str] = set()

    for ev in state.events:
        kind = ev["type"]
        if kind == "attention":
            attention_by_priority[ev["priority"]] = \
                attention_by_priority.get(ev["priority"], 0) + 1
        elif kind == "restraint":
            active[ev["priority"]] = ev
        elif kind == "injury":
            if ev["priority"] not in active:
                problems.append("injury of %s without an active restraint"
                                % ev["requirement"])
            active.pop(ev["priority"], None)
        elif kind == "addition":
            if ev["stage"] not in halting_stages:
                problems.append("addition at %s is not a halting-event stage"
                                % ev["stage"])
            serving = next(r for r in state.requirements
                           if r.label() == ev["requirement"])
            if ev["row"] != serving.prog:
                problems.append("addition row %s is not the producing program %d"
                                % (ev["row"], serving.prog))
            side = ev["side"]
            for owner, rst_ev in list(active.items()):
                owner_req = state.requirements[owner]
                if owner_req.opposite_side != side:
                    continue
                if ev["real"] in rst_ev["preserved"]:
                    if owner <= serving.priority:
                        problems.append(
                            "addition %s disturbs restraint of priority %d"
                            % (ev["real"], owner))
                    else:
                        same_stage_injury = any(
                            e["type"] == "injury" and e["priority"] == owner
                            and e["stage"] == ev["stage"]
                            for e in state.events)
                        if not same_stage_injury:
                            problems.append(
                                "preserved real %s added at %s without logged injury"
                                % (ev["real"], ev["stage"]))
    for req in state.requirements:
        allowed = sum(attention_by_priority.get(pr, 0)
                      for pr in range(req.priority))
        if len(req.injuries) > allowed:
            problems.append("injury bound violated for %s: %d > %d"
                            % (req.label(), len(req.injuries), allowed))
        for st, by in req.injuries:
            if by >= req.priority:
                problems.append("injury of %s from non-stronger priority %d"
                                % (req.label(), by))
    return problems


def check_witness_hygiene(state: FMState) -> list[str]:
    """Every witness assignment was absent from the then-current appearance
    segment, every then-active preserved set, every then-current witness and
    both sets' then-current members (replayed from the log)."""
    from .ordinal import parse_ordinal
    problems = []
    active_preserved: dict[int, set[str]] = {}
    witnesses: dict[str, str] = {}     # requirement label -> current witness
    members: set[str] = set()
    for ev in state.events:
        if ev["type"] == "restraint":
            active_preserved[ev["priority"]] = set(ev["preserved"])
        elif ev["type"] == "injury":
            active_preserved.pop(ev["priority"], None)
        elif ev["type"] == "addition":
            members.add(ev["real"])
        elif ev["type"] == "witness":
            stage = parse_ordinal(ev["stage"])
            witness = ev["witness"]
            segment = {r.render()
                       for r in state.appearance_log.segment(successor(stage))}
            if witness in segment:
                problems.append("witness %s appears in the log segment at %s"
                                % (witness, ev["stage"]))
            for owner, preserved in active_preserved.items():
                if witness in preserved:
                    problems.append("witness %s lies in preserved set of %d"
                                    % (witness, owner))
            if witness in witnesses.values():
                problems.append("witness %s is already a current witness at %s"
                                % (witness, ev["stage"]))
            if witness in members:
                problems.append("witness %s is already a member at %s"
                                % (witness, ev["stage"]))
            witnesses[ev["requirement"]] = witness
    return problems
