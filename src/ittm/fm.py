"""The transfinite priority construction at desk scale.

Two staged sets of reals A and B are built so that, for every program p in
the surveyed space, the budgeted runs witness R_p: phi_p^B != A and
S_p: phi_p^A != B.  Requirements interleave as R_0 < S_0 < R_1 < ... and act
only at halting-event stages of the background dovetail.  A requirement
requires attention when its program, run against the current opposite set
on its witness, halts with all-zero output; it receives attention by adding
the witness to its own side, certifying the run's query set as a restraint,
and handing every weaker waiting requirement a fresh witness that avoids all
certified queries.  A requirement is certified exactly while it holds a
restraint.  A stronger requirement's addition may injure it: the restraint
is dropped and the injury logged, and the report reads injuries from the log.
`check_event_log` replays that bookkeeping from the log alone.

Witnesses are diagonalized against the appearance log and every active
preserved query set (plus current witnesses and set members, so witnesses
stay pairwise distinct).  When the appearance log is truncated below the
stage a witness needs, it raises `TruncatedLog`, and the construction
refuses rather than guess.  Witnesses are handed out in batches: the first
assignment of every requirement, and each attention's reassignment of the
weaker waiting ones.  A batch builds its avoid list once; each new witness
takes the old one's slot and moves one bit of the diagonal, and the list is
rebuilt only when the old witness is also listed from another source or a
first witness would land before entries already listed.  Nothing changes the
state within a batch but its own writes, so the list lives only as long as
the batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter

from .approx import (AppearanceLog, Diagonal, TruncatedLog, approximate_jump,
                     universal_run)
from .machine import Program, extend_to_oracle_tracks
from .oracle import (DEFAULT_TRIM_BITS, SetOracle, replay_queries, run_programs,
                     run_with_oracle)
from .ordinal import Ordinal, ZERO as ZERO_ORD, parse_ordinal, successor
from .reals import Real
from .runner import BudgetPolicy, DEFAULT_BUDGET, QueryRecord

BY_WITNESS = "satisfied-by-witness"
BY_DIVERGENCE = "satisfied-by-divergence-at-budget"


@dataclass
class Requirement:
    kind: str                     # "R" (wants witness in A) or "S" (in B)
    prog: int
    priority: int                 # R_p -> 2p, S_p -> 2p+1; lower acts first
    witness: Real | None = None

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
    preserved: tuple[Real, ...]   # guarded on the owner's opposite side
    query_log: tuple[QueryRecord, ...]


@dataclass
class FMState:
    budget: BudgetPolicy
    trim_bits: int
    # each side's additions as (row, real), in the order they were made
    added: dict[str, list[tuple[int, Real]]] = field(
        default_factory=lambda: {"A": [], "B": []})
    requirements: list[Requirement] = field(default_factory=list)
    # the restraints of the requirements certified now, by priority
    restraints: dict[int, Restraint] = field(default_factory=dict)
    stage: Ordinal = ZERO_ORD
    events: list[dict] = field(default_factory=list)
    appearance_log: AppearanceLog | None = None
    flags: list[str] = field(default_factory=list)
    oracle_programs: list[Program] = field(default_factory=list)
    # the last stage logged and its text, rendered once per stage
    _stage_text: tuple = field(default=(None, ""), repr=False, compare=False)

    def members(self, side: str) -> list[Real]:
        """The side's members by row, each row in the order of its additions."""
        return [r for _row, r in sorted(self.added[side], key=itemgetter(0))]

    def side_oracle(self, side: str) -> SetOracle:
        return SetOracle(frozenset(self.members(side)), self.trim_bits)

    def log(self, kind: str, **fields):
        if self._stage_text[0] is not self.stage:
            self._stage_text = (self.stage, self.stage.render())
        rec = {"type": kind, "stage": self._stage_text[1]}
        rec.update(fields)
        self.events.append(rec)


@dataclass
class AvoidList:
    """The avoid list of `fresh_witness` as a Diagonal: dedup(segment ++
    preserved sets by owner ++ witnesses in requirement order ++ members of
    A then B)."""
    pinned: set[Real]              # members, and witnesses listed before
                                   # their own slot: their slots are not theirs
    last_slot: int                 # whose witness is listed last: -1 none,
                                   # len(requirements) a member
    diagonal: Diagonal

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
        return True


def _build_avoid(state: FMState) -> AvoidList:
    """The avoid list at the current stage, from scratch; raises TruncatedLog
    when the appearance log does not cover the stage's successor."""
    diagonal = Diagonal(state.appearance_log.segment(successor(state.stage)))
    for owner in sorted(state.restraints):
        for r in state.restraints[owner].preserved:
            diagonal.add(r)
    members = state.members("A") + state.members("B")
    pinned = set(members)
    last_slot = -1
    for i, req in enumerate(state.requirements):
        w = req.witness
        if w in diagonal:
            pinned.add(w)
        elif w is not None:
            diagonal.add(w)
            last_slot = i
    listed = len(diagonal)
    for r in members:
        diagonal.add(r)
    if len(diagonal) > listed:
        last_slot = len(state.requirements)
    return AvoidList(pinned, last_slot, diagonal)


def fresh_witness(state: FMState) -> Real:
    """Diagonal real avoiding the current appearance segment, every active
    preserved query set, current witnesses and both sets' members; raises
    TruncatedLog when the log does not cover the stage's successor."""
    return _build_avoid(state).diagonal.real()


def _assign_witness(state: FMState, req: Requirement,
                    avoid: AvoidList | None) -> AvoidList | None:
    """Hand `req` the witness of `avoid`, built first when None.  The list
    for the batch's next assignment, or None when it must be rebuilt."""
    if avoid is None:
        avoid = _build_avoid(state)
    witness = avoid.diagonal.real()
    kept = avoid.write(req.priority, req.witness, witness)
    req.witness = witness
    state.log("witness", requirement=req.label(), priority=req.priority,
              witness=witness.render())
    return avoid if kept else None


def _assign_witnesses(state: FMState, reqs) -> None:
    """Hand each of `reqs`, the state's own requirements in priority order,
    a fresh witness: a requirement's priority is its slot in the list."""
    avoid = None
    for req in reqs:
        avoid = _assign_witness(state, req, avoid)


def check_attention(state: FMState, req: Requirement):
    """Certified (result, query log) when the requirement holds no restraint
    and its program halts with all-zero output on the opposite set, else None."""
    if req.priority in state.restraints:
        return None
    oracle = state.side_oracle(req.opposite_side)
    prog = state.oracle_programs[req.prog]
    res, qlog = run_with_oracle(prog, req.witness, oracle, state.budget)
    if res.outcome == "halted" and res.output.is_zero():
        return res, qlog
    return None


def receive_attention(state: FMState, req: Requirement, certified) -> None:
    res, qlog = certified
    side = req.own_side
    state.added[side].append((req.prog, req.witness))
    state.log("attention", requirement=req.label(), priority=req.priority,
              witness=req.witness.render(), halt_time=res.time.render())
    state.log("addition", side=side, row=req.prog, real=req.witness.render(),
              requirement=req.label())
    # a stronger requirement's addition may tear up weaker certifications
    for owner in sorted(state.restraints):
        injured = state.requirements[owner]
        if injured.opposite_side != side:
            continue
        if req.witness in state.restraints[owner].preserved:
            if owner < req.priority:
                state.flags.append(
                    "hygiene violation: %s disturbed a stronger restraint" % req.label())
                continue
            del state.restraints[owner]
            state.log("injury", requirement=injured.label(), priority=owner,
                      injured_by=req.label())
    preserved = tuple(dict.fromkeys(rec.real for rec in qlog))
    state.restraints[req.priority] = Restraint(preserved, qlog)
    state.log("restraint", requirement=req.label(), priority=req.priority,
              preserved=[r.render() for r in preserved])
    _assign_witnesses(state, [weaker for weaker in state.requirements
                              if weaker.priority > req.priority
                              and weaker.priority not in state.restraints])


def fm_construct(programs, budget: BudgetPolicy = DEFAULT_BUDGET,
                 trim_bits: int = DEFAULT_TRIM_BITS
                 ) -> tuple[FMState, dict | None]:
    """Run the full priority loop over the given program space.

    The same programs serve as the background halter stream (their budgeted
    halting times are the event stages) and as the requirement programs run
    against set oracles.  Returns the final state and the report, or, when a
    witness needs more of the appearance log than it covers (`TruncatedLog`),
    the partial state flagged `refused: <message>` with the report withheld."""
    progs = list(programs)
    state = FMState(budget, trim_bits)
    state.oracle_programs = [extend_to_oracle_tracks(p) if p.track_count == 3
                             else p for p in progs]
    results = run_programs(progs, budget)
    state.appearance_log = universal_run(results, budget)
    if state.appearance_log.truncated:
        state.flags.append("appearance-log-truncated")
    for pid in range(len(progs)):
        state.requirements.append(Requirement("R", pid, 2 * pid))
        state.requirements.append(Requirement("S", pid, 2 * pid + 1))
    background = approximate_jump(results)
    try:
        _assign_witnesses(state, state.requirements)
        for stage, pid in background.events:
            state.stage = stage
            state.log("halting-event", program=pid)
            for req in state.requirements:
                att = check_attention(state, req)
                if att is not None:
                    receive_attention(state, req, att)
                    break
    except TruncatedLog as exc:
        state.flags.append("refused: %s" % exc)
        return state, None
    return state, _classify(state)


def _classify(state: FMState) -> dict:
    """Terminal classification with the doubled-budget divergence recheck."""
    entries = {req.label(): {"requirement": req.label(), "kind": req.kind,
                             "program": req.prog, "priority": req.priority,
                             "injuries": [], "witness": req.witness.render(),
                             "lineage": []}
               for req in state.requirements}
    for ev in state.events:   # in order
        if ev["type"] == "witness":
            entries[ev["requirement"]]["lineage"].append(
                (ev["stage"], ev["witness"]))
        elif ev["type"] == "injury":
            entries[ev["requirement"]]["injuries"].append(
                [ev["stage"], entries[ev["injured_by"]]["priority"]])
    for req in state.requirements:
        entry = entries[req.label()]
        certified = req.priority in state.restraints
        oracle = state.side_oracle(req.opposite_side)
        budget = state.budget if certified else state.budget.scaled(2)
        res, _ = run_with_oracle(state.oracle_programs[req.prog], req.witness,
                                 oracle, budget)
        halts_zero = res.outcome == "halted" and res.output.is_zero()
        if certified:
            undisturbed = replay_queries(state.restraints[req.priority].query_log,
                                         oracle)
            in_own = req.witness in set(state.members(req.own_side))
            if undisturbed and in_own and halts_zero:
                entry["classification"] = BY_WITNESS
            else:
                entry["classification"] = "certification-disturbed"
                state.flags.append("disturbed certification for %s" % req.label())
        elif halts_zero:
            entry["classification"] = "unserved-convergence"
            state.flags.append("recheck failed for %s" % req.label())
        else:
            entry["classification"] = BY_DIVERGENCE
            entry["recheck"] = res.outcome
    return {"schema": 1,
            "requirements": list(entries.values()),
            "a_members": [r.render() for r in state.members("A")],
            "b_members": [r.render() for r in state.members("B")],
            "events": len(state.events),
            "flags": list(state.flags)}


# --- event-log invariants ----------------------------------------------------

# the fields `FMState.log` writes for each event type, besides type and stage
_EVENT_FIELDS = {"halting-event": ("program",),
                 "witness": ("requirement", "priority", "witness"),
                 "attention": ("requirement", "priority", "witness", "halt_time"),
                 "addition": ("side", "row", "real", "requirement"),
                 "injury": ("requirement", "priority", "injured_by"),
                 "restraint": ("requirement", "priority", "preserved")}
# the kind of value `FMState.log` writes in each field; `preserved` is a
# list of str
_FIELD_TYPES = {"type": str, "stage": str, "program": int, "requirement": str,
                "priority": int, "witness": str, "halt_time": str, "side": str,
                "row": int, "real": str, "injured_by": str, "preserved": list}
_KIND_NAMES = {str: "a str", int: "an int", list: "a list of str"}


def _holds(value, kind) -> bool:
    if kind is list:
        return isinstance(value, list) and all(isinstance(r, str) for r in value)
    return isinstance(value, kind) and not isinstance(value, bool)


def _well_formed(events, problems: list[str]):
    """(index, event) for each event up to the first that lacks a field of
    its type or holds another kind of value there than `FMState.log`
    writes; that one is reported by its index."""
    for k, ev in enumerate(events):
        kind = ev.get("type")
        fields = ("type", "stage") + (
            _EVENT_FIELDS.get(kind, ()) if isinstance(kind, str) else ())
        missing = [f for f in fields if f not in ev]
        if missing:
            problems.append("event %d lacks %s" % (k, ", ".join(missing)))
            return
        bad = [f for f in fields if not _holds(ev[f], _FIELD_TYPES[f])]
        if bad:
            problems.append("event %d: %s" % (k, "; ".join(
                "%s %r is not %s" % (f, ev[f], _KIND_NAMES[_FIELD_TYPES[f]])
                for f in bad)))
            return
        yield k, ev


def _due(kind: str, stage: str, req: Requirement, **fields) -> dict:
    """The fields fixed for `req`'s event of type `kind`, due at `stage`."""
    return {"type": kind, "stage": stage, "requirement": req.label(),
            "priority": req.priority, **fields}


def _mismatch(ev: dict, due: dict) -> str:
    """Each field in which a logged event differs from the one due."""
    return "; ".join("%s %r where %r is due" % (f, ev.get(f), value)
                     for f, value in due.items() if ev.get(f) != value)


def check_event_log(state: FMState) -> list[str]:
    """Replay the construction's bookkeeping from the requirement list and
    the event log alone: first witnesses, then halting events at stages that
    never decrease, each naming a program and followed by at most one
    attention from a requirement that holds no restraint, and after that its
    addition, injuries, restraint and new witnesses.  Witnesses are checked
    for hygiene, additions against stronger restraints.  The replay stops at
    the first event out of place, since every later expectation rests on
    it.  Only a refused construction may leave events due, and the members
    must be the logged additions."""
    problems: list[str] = []
    reqs = state.requirements
    witnesses: dict[int, str] = {}          # priority -> current witness
    restraints: dict[int, set[str]] = {}    # priority -> preserved reals
    added: dict[str, list[tuple[int, str]]] = {"A": [], "B": []}
    due = [_due("witness", "0", req) for req in reqs]
    waiting: dict[str, Requirement] = {}    # who may attend to the last event
    # the last halting stage, its text, and its appearance segment once built
    stage, halted, segment = ZERO_ORD, "0", None
    read = 0
    for k, ev in _well_formed(state.events, problems):
        read, kind, wrong = k + 1, ev["type"], ""
        attending, waiting = waiting.get(ev.get("requirement")), {}
        if due:
            wrong = _mismatch(ev, due.pop(0))
        elif kind == "halting-event":
            if not 0 <= ev["program"] < len(reqs) // 2:
                wrong = "halting event names no program %d" % ev["program"]
            try:
                now = parse_ordinal(ev["stage"])
            except ValueError as exc:
                now, wrong = stage, str(exc)
            if now < stage:
                wrong = "stage %s is below the last halting stage %s" % (
                    ev["stage"], halted)
            stage, halted, segment = now, ev["stage"], None
            waiting = {r.label(): r for r in reqs if r.priority not in restraints}
        elif kind == "attention" and attending is not None:
            req, w = attending, witnesses[attending.priority]
            wrong = _mismatch(ev, _due("attention", halted, req, witness=w))
            hit = sorted(o for o, kept in restraints.items()
                         if w in kept and reqs[o].opposite_side == req.own_side)
            due = [{"type": "addition", "stage": halted, "side": req.own_side,
                    "row": req.prog, "real": w, "requirement": req.label()}]
            due += [_due("injury", halted, reqs[o], injured_by=req.label())
                    for o in hit if o > req.priority]
            due.append(_due("restraint", halted, req))
            due += [_due("witness", halted, q) for q in reqs
                    if q.priority > req.priority
                    and (q.priority not in restraints or q.priority in hit)]
        else:
            wrong = "%s at %s is out of place" % (kind, ev["stage"])
        if wrong:
            problems.append("event %d: %s" % (k, wrong))
            return problems
        if kind == "witness":
            if segment is None:
                try:
                    segment = {r.render() for r in state.appearance_log.segment(
                        successor(stage))}
                except TruncatedLog as exc:
                    problems.append("event %d: %s" % (k, exc))
                    return problems
            # the reals it must avoid, by source, in the avoid list's order
            w, at = ev["witness"], ev["stage"]
            avoided = [("appears in the log segment at %s" % at, segment)]
            avoided += [("lies in preserved set of %d" % o, kept)
                        for o, kept in restraints.items()]
            avoided += [("is already a current witness at %s" % at, witnesses.values()),
                        ("is already a member at %s" % at,
                         [r for rows in added.values() for _row, r in rows])]
            problems.extend("witness %s %s" % (w, why)
                            for why, reals in avoided if w in reals)
            witnesses[ev["priority"]] = w
        elif kind == "addition":    # of the last attention's `req`; it hit `hit`
            problems.extend("addition %s disturbs restraint of priority %d"
                            % (ev["real"], o) for o in hit if o < req.priority)
            added[ev["side"]].append((ev["row"], ev["real"]))
        elif kind == "injury":
            del restraints[ev["priority"]]
        elif kind == "restraint":
            restraints[ev["priority"]] = set(ev["preserved"])
    if read < len(state.events):        # stopped at a malformed event
        return problems
    if due and not any(f.startswith("refused: ") for f in state.flags):
        problems.append("the log ends early, with the %(type)s of "
                        "%(requirement)s at %(stage)s due" % due[0])
    for side, rows in added.items():
        if rows != [(row, r.render()) for row, r in state.added[side]]:
            problems.append("the members of %s are not the logged additions" % side)
    return problems
