"""Record the benchmark's inputs and reference outputs from the current code.

    PYTHONPATH=src python3 perfbench/make_reference.py

Writes the frozen hard-set programs (``hard_set/<index>.itm``), the
survey-wide verdicts (``reference/survey-wide.txt.gz``, one line per
enumeration index) and ``reference/seed.json`` (hard-set verdicts, and the
exit code and stdout sha256 of each cli-mix command).  The checked-in files
were recorded at the commit that added the benchmark; recording them again
changes what counts as a failed run, so do it only on purpose.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import sys

from bench import (CLI_COMMANDS, HARD_BUDGET, HARD_INDICES, HARD_SET_DIR,
                   REFERENCE, SURVEY_BOUND, SURVEY_BUDGET, run_command, verdict)


def main() -> int:
    from ittm.machine import render_program
    from ittm.oracle import enumeration_slice
    from ittm.reals import ZERO
    from ittm.runner import BudgetPolicy, run_transfinite

    programs = enumeration_slice(SURVEY_BOUND, 2, 3)
    HARD_SET_DIR.mkdir(exist_ok=True)
    for i in HARD_INDICES:
        (HARD_SET_DIR / ("%d.itm" % i)).write_text(
            render_program(programs[i]), encoding="utf-8")

    budget = BudgetPolicy(*SURVEY_BUDGET)
    lines = [verdict(run_transfinite(p, ZERO, budget)) for p in programs]
    text = ("\n".join(lines) + "\n").encode("utf-8")
    REFERENCE.mkdir(exist_ok=True)
    (REFERENCE / "survey-wide.txt.gz").write_bytes(gzip.compress(text, mtime=0))

    hard_budget = BudgetPolicy(*HARD_BUDGET)
    seed = {"hard-set": {str(i): verdict(run_transfinite(programs[i], ZERO, hard_budget))
                         for i in HARD_INDICES},
            "cli-mix": {}}
    for name, argv in CLI_COMMANDS:
        code, stdout, _ = run_command(argv)
        seed["cli-mix"][name] = {
            "exit": code, "sha256": hashlib.sha256(stdout.encode("utf-8")).hexdigest()}
    (REFERENCE / "seed.json").write_text(
        json.dumps(seed, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
