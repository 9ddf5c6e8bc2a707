"""Spans and counters for the benchmark's traced run.

Every wrapper is installed from here, on the module attribute where each
caller looks the name up: ``ittm.reals.or_real`` (where ``or_all`` finds it),
``ittm.runner.and_not`` (where ``run_transfinite`` finds it), and so on.  For
a module-level function, every ``ittm`` module that holds the same function
object gets the wrapper, so ``cnf_add`` is counted both for
``ittm.ordinal.successor`` and for the direct calls in ``ittm.approx``.  The
package itself is never edited; ``uninstall`` puts the originals back.

Span layers record one span per call (name, start, end, parent span and the
id of the program or command that caused it).  Counter layers are called far
more often, so they keep only calls and busy time, which bounds memory.
Both kinds take part in self time: a layer's self time is its busy time
minus the busy time of traced calls made inside it.
"""

from __future__ import annotations

import importlib
from time import perf_counter

SPAN, COUNTER = "span", "counter"

MODULES = ("ittm.reals", "ittm.ordinal", "ittm.machine", "ittm.runner",
           "ittm.oracle", "ittm.approx", "ittm.fm", "ittm.cli")

# (layer name, kind, module that defines the function, function name)
LAYERS = (
    ("machine.validate", COUNTER, "ittm.machine", "validate"),
    ("runner.run_transfinite", SPAN, "ittm.runner", "run_transfinite"),
    ("runner.run_block", SPAN, "ittm.runner", "run_block"),
    ("reals.or_real", COUNTER, "ittm.reals", "or_real"),
    ("reals.and_not", COUNTER, "ittm.reals", "and_not"),
    ("reals.shift_union", COUNTER, "ittm.reals", "shift_union"),
    ("reals.with_bit", COUNTER, "ittm.reals", "Real.with_bit"),
    ("ordinal.cnf_add", COUNTER, "ittm.ordinal", "cnf_add"),
    ("oracle.enumeration_slice", SPAN, "ittm.oracle", "enumeration_slice"),
    ("oracle.jump_lightface", SPAN, "ittm.oracle", "jump_lightface"),
    ("oracle.run_with_oracle", SPAN, "ittm.oracle", "run_with_oracle"),
    ("approx.universal_run", SPAN, "ittm.approx", "universal_run"),
    ("approx.approximate_jump", SPAN, "ittm.approx", "approximate_jump"),
    ("approx.iterated_matrix", SPAN, "ittm.approx", "iterated_matrix"),
    ("approx.diagonal_against", SPAN, "ittm.approx", "diagonal_against"),
    ("fm.fm_construct", SPAN, "ittm.fm", "fm_construct"),
    ("fm.check_attention", SPAN, "ittm.fm", "check_attention"),
    ("fm.fresh_witness", SPAN, "ittm.fm", "fresh_witness"),
    ("cli.survey", SPAN, "ittm.cli", "cmd_survey"),
    ("cli.jump", SPAN, "ittm.cli", "cmd_jump"),
    ("cli.matrix", SPAN, "ittm.cli", "cmd_matrix"),
    ("cli.fm", SPAN, "ittm.cli", "cmd_fm"),
)


def _observe_block(counts, summary):
    from ittm.runner import ExceededCert, HaltAt, RepeatCert
    cert = summary.certificate
    if isinstance(cert, HaltAt):
        kind, steps = "halt", cert.steps
    elif isinstance(cert, ExceededCert):
        kind, steps = "exceeded", cert.steps
    else:
        kind = "repeat" if isinstance(cert, RepeatCert) else "translation"
        steps = cert.mu + cert.pi
    counts["runner.blocks." + kind] += 1
    counts["runner.steps"] += steps


def _observe_run(counts, res):
    counts["runner.limits_above_1"] += len(res.trace.limits)


def _observe_or(counts, real):
    counts["reals.or_real.bits"] += len(real.prefix) + len(real.tail)


def _observe_slice(counts, programs):
    counts["oracle.enumeration_slice.programs"] += len(programs)


def _observe_log(counts, log):
    counts["approx.appearances"] += len(log.records)
    counts["approx.truncated"] += int(log.truncated)


def _observe_attention(counts, certified):
    counts["fm.check_attention.granted"] += certified is not None


# counts read off return values: certificates, limits, result sizes
OBSERVERS = {
    "runner.run_block": _observe_block,
    "runner.run_transfinite": _observe_run,
    "reals.or_real": _observe_or,
    "oracle.enumeration_slice": _observe_slice,
    "approx.universal_run": _observe_log,
    "fm.check_attention": _observe_attention,
}

COUNT_NAMES = ("runner.steps", "runner.limits_above_1", "runner.blocks.halt",
               "runner.blocks.repeat", "runner.blocks.translation",
               "runner.blocks.exceeded", "reals.or_real.bits",
               "oracle.enumeration_slice.programs", "approx.appearances",
               "approx.truncated", "fm.check_attention.granted")


def _resolve(path):
    """(owner object, attribute) for 'module:Name' or 'module:Class.attr'."""
    module, _, dotted = path.partition(":")
    owner = importlib.import_module(module)
    parts = dotted.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def lookup_sites(module, name):
    """Every (owner, attribute) through which callers reach the function."""
    if "." in name:  # a method: callers find it on its class
        return [_resolve("%s:%s" % (module, name))]
    original = getattr(importlib.import_module(module), name)
    sites = []
    for mod_name in MODULES:
        mod = importlib.import_module(mod_name)
        if getattr(mod, name, None) is original:
            sites.append((mod, name))
    return sites


class Tracer:
    """Installs timing wrappers, collects spans and per-layer totals."""

    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0] for name, *_ in LAYERS}  # calls, busy, self
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self.spans = []      # [span id, parent id, unit id, name, start, end]
        self.unit_stats = {}  # root span name -> [calls, busy, self]
        self._stack = []     # frames: [time in traced children, span id]
        self._unit = 0
        self._saved = []

    # -- installing ------------------------------------------------------
    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, kind, module, attr in LAYERS:
            sites = lookup_sites(module, attr)
            original = getattr(*sites[0])
            wrapper = self._wrap(name, kind, original)
            for owner, site_attr in sites:
                self._saved.append((owner, site_attr, getattr(owner, site_attr)))
                setattr(owner, site_attr, wrapper)
        return self

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, name, kind, fn):
        stack, stats, spans = self._stack, self.stats[name], self.spans
        counts, observe = self.counts, OBSERVERS.get(name)
        record = kind == SPAN
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            if record:
                span = [len(spans), parent, tracer._unit, name, 0.0, 0.0]
                spans.append(span)
                frame = [0.0, span[0]]
            else:
                frame = [0.0, parent]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                busy = end - start
                stats[0] += 1
                stats[1] += busy
                stats[2] += busy - frame[0]
                if stack:
                    stack[-1][0] += busy
                if record:
                    span[4], span[5] = start, end
            if observe is not None:
                observe(counts, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- benchmark-level spans -------------------------------------------
    def unit(self, name):
        """Root span for one program run, command or set-up; every span
        opened inside it carries the same unit id."""
        return _Unit(self, name)

    def self_seconds(self):
        """Total self time over every layer and root span."""
        return (sum(s[2] for s in self.stats.values())
                + sum(s[2] for s in self.unit_stats.values()))


class _Unit:
    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        tr = self.tracer
        if tr._stack:
            raise RuntimeError("units do not nest")
        tr._unit += 1
        self.span = [len(tr.spans), None, tr._unit, self.name, 0.0, 0.0]
        tr.spans.append(self.span)
        self.frame = [0.0, self.span[0]]
        tr._stack.append(self.frame)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        end = perf_counter()
        tr = self.tracer
        tr._stack.pop()
        busy = end - self.start
        self.span[4], self.span[5] = self.start, end
        stats = tr.unit_stats.setdefault(self.name, [0, 0.0, 0.0])
        stats[0] += 1
        stats[1] += busy
        stats[2] += busy - self.frame[0]


def layer_metrics(tracer):
    """Per-layer metrics (name -> (value, unit)) from one traced region,
    grouped by layer."""
    st, c = tracer.stats, tracer.counts

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}

    def add(name, *fields):
        for field in fields:
            calls, busy, own = st[name]
            out["%s.%s" % (name, field)] = {
                "calls": (calls, "count"), "s": (busy, "s"), "self_s": (own, "s"),
            }[field]

    def count(name, unit="count"):
        out[name] = (c[name], unit)

    add("machine.validate", "calls", "s")
    add("runner.run_transfinite", "calls", "self_s")
    add("runner.run_block", "calls", "s", "self_s")
    count("runner.steps")
    out["runner.us_per_step"] = (
        1e6 * ratio(st["runner.run_block"][1], c["runner.steps"]), "us")
    for kind in ("halt", "repeat", "translation", "exceeded"):
        count("runner.blocks." + kind)
    count("runner.limits_above_1")
    add("reals.or_real", "calls", "s")
    count("reals.or_real.bits")
    for name in ("reals.and_not", "reals.shift_union", "reals.with_bit",
                 "ordinal.cnf_add"):
        add(name, "calls", "s")
    add("oracle.enumeration_slice", "s")
    out["oracle.enumeration_slice.programs_per_s"] = (
        ratio(c["oracle.enumeration_slice.programs"],
              st["oracle.enumeration_slice"][1]), "1/s")
    add("oracle.jump_lightface", "self_s")
    add("oracle.run_with_oracle", "calls")
    add("approx.universal_run", "s", "self_s")
    count("approx.appearances")
    count("approx.truncated")
    add("approx.approximate_jump", "calls", "self_s")
    add("approx.iterated_matrix", "self_s")
    add("approx.diagonal_against", "calls", "s")
    add("fm.fm_construct", "self_s")
    add("fm.check_attention", "calls")
    out["fm.check_attention.useful_ratio"] = (
        ratio(c["fm.check_attention.granted"], st["fm.check_attention"][0]), "ratio")
    add("fm.fresh_witness", "calls", "s")
    for command in ("survey", "jump", "matrix", "fm"):
        add("cli." + command, "s", "self_s")
    return out
