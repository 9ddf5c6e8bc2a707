import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ittm

from ittm import approx
from ittm.approx import LIMIT_ROW_CAP, join_rows, join_size
from ittm.cli import main
from ittm.machine import p_flip, p_flip_lh, p_halt, p_sweep, render_program
from ittm.ordinal import parse_ordinal
from ittm.reals import join, parse_real


@pytest.fixture
def halt_file(tmp_path):
    path = tmp_path / "P_halt.itm"
    path.write_text(render_program(p_halt()))
    return str(path)


def test_run_prints_halt_line(halt_file, capsys):
    code = main(["run", halt_file, "--depth", "2", "--budget", "64"])
    out = capsys.readouterr().out
    assert out == "HALTED time=1 output=1(0)*\n"
    assert code == 0


def test_run_depth_zero_is_usage_error(halt_file, capsys):
    code = main(["run", halt_file, "--depth", "0"])
    assert code == 2
    assert "usage error" in capsys.readouterr().err


def test_run_loops_and_exceeded_codes(tmp_path, capsys):
    flip = tmp_path / "flip.itm"
    flip.write_text(render_program(p_flip()))
    assert main(["run", str(flip), "--budget", "64"]) == 0
    assert "LOOPS" in capsys.readouterr().out
    assert main(["run", str(flip), "--budget", "64", "--depth", "1"]) == 1
    assert "EXCEEDED reason=ordinal-overflow" in capsys.readouterr().out


def test_run_json_format(tmp_path, capsys):
    lh = tmp_path / "lh.itm"
    lh.write_text(render_program(p_flip_lh()))
    assert main(["run", str(lh), "--format", "json", "--budget", "64"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"schema": 1, "outcome": "halted", "time": "w*1+1",
                   "output": "(0)*"}


def test_run_with_input_and_oracle_file(tmp_path, capsys):
    from conftest import query_probe
    probe = tmp_path / "probe.itm"
    probe.write_text(render_program(query_probe()))
    oracle = tmp_path / "oracle.set"
    oracle.write_text("11(0)*\n")
    code = main(["run", str(probe), "--oracle", str(oracle), "--budget", "64"])
    out = capsys.readouterr().out
    assert code == 0 and "HALTED" in out and "output=(0)*" in out


def test_survey_byte_identical_and_worker_independent(tmp_path):
    args = ["survey", "--states", "0", "--bound", "60", "--depth", "2",
            "--budget", "64", "--cap", "128"]
    outs, codes = [], []
    for name in ("a", "b"):
        path = tmp_path / ("%s.json" % name)
        codes.append(main(args + ["--out", str(path)]))
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]
    assert codes[0] == codes[1]
    doc = json.loads(outs[0])
    # sweepers in the slice produce endless fresh contents: truncation is
    # flagged and surfaces as the refusal exit code
    assert doc["truncated"] == (codes[0] == 1)


def test_trace_jsonl(tmp_path, capsys):
    flip = tmp_path / "flip.itm"
    flip.write_text(render_program(p_flip()))
    out = tmp_path / "trace.jsonl"
    assert main(["trace", str(flip), "--out", str(out), "--budget", "64",
                 "--full-snapshots"]) == 0
    lines = [json.loads(ln) for ln in out.read_text().splitlines()]
    assert lines[0]["kind"] == "block"
    assert lines[0]["certificate"] == {"kind": "repeat", "mu": 0, "pi": 2}
    assert lines[0]["schema"] == 1
    assert "snapshots" in lines[0]
    assert lines[-1]["kind"] == "outcome" and lines[-1]["outcome"] == "loops"


def test_jump_cli(tmp_path):
    out = tmp_path / "jump.json"
    assert main(["jump", "--states", "0", "--bound", "80", "--budget", "64",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == 1
    assert any(h["time"] == "w*1+1" for h in doc["halted"])


def test_jump_cli_joins_a_real_oracle_with_its_halting_real(capsys):
    assert main(["jump", "--states", "0", "--tracks", "4", "--bound", "6",
                 "--budget", "64", "--oracle-real", "1(0)*"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["joined"] == "110101010101(0)*"
    assert parse_real(doc["joined"]) == join(parse_real("1(0)*"),
                                             parse_real(doc["halting_real"]))


def test_matrix_cli(tmp_path):
    out = tmp_path / "matrix.json"
    log = tmp_path / "erasures.jsonl"
    code = main(["matrix", "--order", "w*1+1", "--states", "0", "--bound", "3",
                 "--budget", "48", "--rows", "3", "--out", str(out),
                 "--log", str(log)])
    assert code == 1     # ranks omitted below the limit row: flagged partial
    doc = json.loads(out.read_text())
    assert doc["partial"] and doc["erasure_problems"] == []
    assert doc["rows"]["0"] == "(0)*"
    for line in log.read_text().splitlines():
        assert json.loads(line)["kind"] == "erasure"


def test_matrix_cli_refuses_a_bad_order_term(capsys):
    for term in ("w^w", "3w"):
        assert main(["matrix", "--order", term]) == 2
        assert capsys.readouterr().err == "usage error: bad ordinal term %r\n" % term


def test_matrix_cli_total_for_finite_order(tmp_path):
    out = tmp_path / "matrix.json"
    assert main(["matrix", "--order", "2", "--states", "0", "--bound", "3",
                 "--budget", "48", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert not doc["partial"] and doc["ranks"] == ["0", "1"]


def test_matrix_cli_refuses_a_limit_row_too_large(tmp_path):
    # row w*4 of w*5 would span about 75 million bits: the replay stops
    # before building it, without raising, and keeps only the ranks below it
    out = tmp_path / "matrix.json"
    assert main(["matrix", "--order", "w*5", "--states", "0", "--bound", "4",
                 "--budget", "16", "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert "limit-row-too-large" in doc["partial_reasons"]
    assert doc["erasure_problems"] == []
    rows = {parse_ordinal(r): parse_real(doc["rows"][r]) for r in doc["ranks"]}
    assert max(rows) < parse_ordinal("w*4")
    limits = [lam for lam in rows if lam.is_limit()]
    assert len(limits) == 3
    for lam in limits:
        assert rows[lam] == join_rows(rows, lam)
        assert join_size(rows, lam) == rows[lam].support_bound() <= LIMIT_ROW_CAP


def test_matrix_cli_joins_only_the_limit_rows_an_event_changes(monkeypatch,
                                                               capsys):
    # each limit row is built by one OR of its cached per-rank pair codes
    join_codes = approx._join_codes
    calls = []
    def counting(codes):
        calls.append(1)
        return join_codes(codes)
    monkeypatch.setattr(approx, "_join_codes", counting)
    # the matrix command of the benchmark's cli-mix workload
    assert main(["matrix", "--order", "w*2", "--states", "0",
                 "--bound", "20"]) == 1
    assert json.loads(capsys.readouterr().out)["erasure_problems"] == []
    assert 0 < len(calls) <= 140


def test_matrix_cli_runs_each_program_once_per_cells_read(monkeypatch, capsys):
    # the matrix command of the benchmark's cli-mix workload meets 161
    # distinct oracle rows, but its 20 programs read only 47 distinct
    # (program, oracle cells) pairs: 3,220 runs without the reuse
    runner = importlib.import_module("ittm.runner")
    original = runner.run_transfinite
    calls = []
    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)
    for name in ("runner", "oracle", "approx"):
        module = importlib.import_module("ittm." + name)
        if getattr(module, "run_transfinite", None) is original:
            monkeypatch.setattr(module, "run_transfinite", counting)
    assert main(["matrix", "--order", "w*2", "--states", "0",
                 "--bound", "20"]) == 1
    assert json.loads(capsys.readouterr().out)["erasure_problems"] == []
    assert 0 < len(calls) <= 47


def test_survey_cli_builds_each_wake_once(monkeypatch, capsys):
    # the survey command of the benchmark's cli-mix workload: its 24 moving
    # tracks share one wake, which costs 512 splices once, not per track
    from ittm.reals import Real
    splice = Real.splice
    calls = []
    def counting(self, n, rest):
        calls.append(n)
        return splice(self, n, rest)
    monkeypatch.setattr(Real, "splice", counting)
    assert main(["survey", "--states", "2", "--bound", "2000"]) == 1
    assert len(json.loads(capsys.readouterr().out)["programs"]) == 2000
    assert 0 < len(calls) <= 600


def test_survey_cli_offers_each_wake_entry_once(monkeypatch, capsys):
    # the same command: the dovetail offers each entry of its one wake from
    # the wake's least reader, one stage each, rather than walking every
    # moving track's tail step by step (7,182 additions before)
    add = approx.cnf_add
    dovetail = approx.universal_run
    calls = []
    inside = []
    def counting(a, b):
        if inside:
            calls.append(1)
        return add(a, b)
    def counted_run(*args):
        inside.append(1)
        try:
            return dovetail(*args)
        finally:
            inside.pop()
    monkeypatch.setattr(approx, "cnf_add", counting)
    monkeypatch.setattr("ittm.cli.universal_run", counted_run)
    assert main(["survey", "--states", "2", "--bound", "2000"]) == 1
    assert len(json.loads(capsys.readouterr().out)["appearances"]) == 512
    assert 512 <= len(calls) <= 600


# exit codes and stdout sha256 of the benchmark's cli-mix commands, as
# recorded in perfbench/reference/seed.json
CLI_MIX = [
    (["survey", "--states", "2", "--bound", "2000"], 1,
     "1d45f1efa086f89c7bffa3b6e31df85cf3e6944859e6aa52f8184fbc70253779"),
    (["jump", "--states", "2", "--bound", "2000"], 0,
     "d6ef36d7dc7272cc3d7c2a87b2b5d5c1477d937f6c23c25907265b0633a98801"),
    (["matrix", "--order", "w*2", "--states", "0", "--bound", "20"], 1,
     "7a36a2d09219f0d5c035b5a51ce02f6beeaba4b0c97245e45de01e19d1004435"),
    (["fm", "--states", "0", "--bound", "48"], 1,
     "e325d26389cd951308333e740fb9c485616eab1e5c424ec639721fcced483e3a"),
]


def test_cli_mix_commands_keep_their_bytes(capsys):
    for argv, code, digest in CLI_MIX:
        assert main(argv) == code, argv
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, argv


def test_cli_bytes_do_not_depend_on_the_environment(monkeypatch):
    # the argv alone fixes the output: an exported default budget changes
    # nothing
    monkeypatch.setenv("ITTM_DEFAULT_BUDGET", "512")
    for argv, code, digest in CLI_MIX:
        proc = _cli(argv)
        assert proc.returncode == code, (argv, proc.stderr)
        assert hashlib.sha256(proc.stdout.encode("utf-8")).hexdigest() == digest, argv


# exit code, stdout sha256 and `--log` sha256 of matrix commands wider than
# cli-mix's: more limit ranks, more programs and a limit row of rank w+1
MATRIX_WIDE = [
    ("w*3 --states 0 --bound 20", 1,
     "bd66778b0bf66cc61415e1ca1e3b4878efe8fb0a0760dbed8a55f5658a20a8b5",
     "feef516b8722597d7a8f4d45ecd7bcf415b627f6fcc5fad77b4333a3360579b5"),
    ("w*2 --states 1 --bound 60", 1,
     "fa28ee43f213d22fd7c23cb0eb3d3d9ca0aa246d419c721b7a02090e1fb07ff0",
     "e9217334865c0243299c5de813e9107adf30bdb5c15270b93c096891eeed236d"),
    ("w*1+1 --states 0 --bound 6", 1,
     "afb9e91c0895ed838a711063293e76ec422af6ab4c6aa414c4ffb7db02895988",
     "818a7d8766dd610276cf94a7478459402f994893001acf4be72ad1cbecd39adf"),
]


@pytest.mark.parametrize("recipe,code,out_digest,log_digest", MATRIX_WIDE,
                         ids=[r[0].split()[0] for r in MATRIX_WIDE])
def test_wide_matrix_commands_keep_their_bytes(recipe, code, out_digest,
                                               log_digest, tmp_path, capsys):
    log = tmp_path / "erasures.jsonl"
    assert main(["matrix", "--order", *recipe.split(), "--log", str(log)]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == out_digest
    assert hashlib.sha256(log.read_bytes()).hexdigest() == log_digest


# exit code, stdout sha256 and trace-file sha256 of `run --format json` and
# `trace --full-snapshots` on a one-block halt, a halt after a limit, a
# hard-set program that exceeds its budget, a translation block that then
# loops, and a halt after a level-2 limit
RUN_AND_TRACE = {
    "P_halt": ("64", 0, "422cbbbab999fe827421743e831ad7099b1d38d3621b5f935694ff0e8570962f",
               "26a86891c33c133c267468241481cfddb95bacbc20b00ef8b2943ac27419779a",
               "b56d2a39faa59fc593a1ffb803f44bff5629d5a010abbe7364e64a10d3d6445a"),
    "P_flip_lh": ("64", 0, "1d49e953760bee3236a8678d6b165c2ad120fd7dcb74b64fcacb57aa4a74827d",
                  "3a5615d5e412b8ea6c5c4f3c7f7c24927a022f3feb04747d29576187aae24b72",
                  "107237d98378cd8c4360ebc5f90b5e5ab189212806408615c77fefc500c0ed30"),
    "10825": ("1024", 1, "890dff9b9fad6b4d6994fe371a4bcf545fcc16e174d9daf16231506e78554444",
              "253873c71b312559248d2a2299c9f65b33277d69b9f20c194cf4da9714599198",
              "8744e71f364d4c2dd0b7603de3660f41c00d45a89b42f7c44a42d191f5ba602d"),
    "P_sweep": ("64", 0, "ed9b3bc8d4595d7ca1c3a8c344410e2cdd240433321d4308d0f9b33da14035ba",
                "c8695e0d8e58b4024136f28990b1e4647ed9552ef035cb634e797ec6a3baf978",
                "270dc1328e67307d728a97b01d9cbd7d5a125f86842cc3fd05c225700f39a685"),
    "omega_squared_clocker": (
        "64", 0, "f9e4c2df9f6fb9ee467b9eda5477de8aacf7b2effe51bdfdf1d39fa8126e18b2",
        "097a3fed28f5b1cc22e2d7c406fc102936c2fdd2b5e10cb855cfa74a137bd354",
        "edf3645ed9b5d43c68160c4254487339244bdcdeeea8b4ffa2da81bfb204e42c"),
}


def test_run_and_trace_keep_their_bytes(tmp_path, capsys):
    from conftest import omega_squared_clocker
    files = {"10825": str(Path(__file__).resolve().parents[1] / "perfbench" /
                          "hard_set" / "10825.itm")}
    for name, p in (("P_halt", p_halt()), ("P_flip_lh", p_flip_lh()),
                    ("P_sweep", p_sweep()),
                    ("omega_squared_clocker", omega_squared_clocker())):
        files[name] = str(tmp_path / (name + ".itm"))
        Path(files[name]).write_text(render_program(p))
    out = tmp_path / "trace.jsonl"
    for name, (budget, code, run_digest, stdout_digest, trace_digest) in \
            RUN_AND_TRACE.items():
        assert main(["run", files[name], "--budget", budget,
                     "--format", "json"]) == code, name
        run_out = capsys.readouterr().out
        assert main(["trace", files[name], "--budget", budget,
                     "--full-snapshots", "--out", str(out)]) == code, name
        trace_out = capsys.readouterr().out
        assert [hashlib.sha256(data).hexdigest() for data in
                (run_out.encode("utf-8"), trace_out.encode("utf-8"),
                 out.read_bytes())] == [run_digest, stdout_digest,
                                        trace_digest], name


# stdout, `--events` and `--report` sha256 of two fm constructions: the
# events pin every witness and the order it is handed out in
FM_PINS = [
    ("0 16", "f1b47bcf3cce98cf2485c9c4c00e980e996fc7b42473e50dfb8d2834d0c5f030",
     "ea07a6d5cf2eabc872d0ad21b9923158be03b38dece90a651ac94df4a44a5195"),
    ("1 40", "940b9364aa89c42a165ee1be18645b67771130ed559b0296f98ed616b021b144",
     "e0ae8494e06dd4989eb9224a9c066c4c6b58a9b97c65f8f465ef28f6b93c2856"),
]


@pytest.mark.parametrize("recipe,events_digest,report_digest", FM_PINS,
                         ids=[r[0].replace(" ", "-") for r in FM_PINS])
def test_fm_events_and_report_keep_their_bytes(recipe, events_digest,
                                               report_digest, tmp_path, capsys):
    states, bound = recipe.split()
    events, report = tmp_path / "events.jsonl", tmp_path / "report.json"
    assert main(["fm", "--states", states, "--bound", bound,
                 "--events", str(events), "--report", str(report)]) == 1
    assert capsys.readouterr().out == ""
    assert hashlib.sha256(events.read_bytes()).hexdigest() == events_digest
    assert hashlib.sha256(report.read_bytes()).hexdigest() == report_digest


def test_fm_cli(tmp_path):
    events = tmp_path / "events.jsonl"
    report = tmp_path / "report.json"
    # two immediate zero-halters give only two halting events, so the weaker
    # requirement pair stays unserved: the report is delivered but flagged
    code = main(["fm", "--states", "0", "--bound", "2", "--budget", "64",
                 "--events", str(events), "--report", str(report)])
    assert code == 1
    doc = json.loads(report.read_text())
    assert doc["schema"] == 1 and doc["flags"]
    for line in events.read_text().splitlines():
        assert json.loads(line)["schema"] == 1
    rerun_events = tmp_path / "events2.jsonl"
    rerun_report = tmp_path / "report2.json"
    main(["fm", "--states", "0", "--bound", "2", "--budget", "64",
          "--events", str(rerun_events), "--report", str(rerun_report)])
    assert rerun_events.read_bytes() == events.read_bytes()
    assert rerun_report.read_bytes() == report.read_bytes()


def test_every_command_defaults_to_the_library_defaults():
    import argparse
    from ittm.approx import DEFAULT_ROW_CAP
    from ittm.cli import _budget, build_parser
    from ittm.oracle import DEFAULT_TRIM_BITS
    from ittm.runner import DEFAULT_BUDGET
    ap = build_parser()
    commands = next(a for a in ap._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    argvs = {"run": ["P"], "trace": ["P", "--out", "T"], "survey": [],
             "jump": [], "matrix": ["--order", "w"], "fm": []}
    assert set(argvs) == set(commands)
    trimmed = set()
    for command, rest in argvs.items():
        args = ap.parse_args([command] + rest)
        assert _budget(args) == DEFAULT_BUDGET, command
        if hasattr(args, "trim_bits"):
            assert args.trim_bits == DEFAULT_TRIM_BITS, command
            trimmed.add(command)
        assert ("(default %d)" % DEFAULT_BUDGET.per_level_budget
                in " ".join(commands[command].format_help().split())), command
    assert trimmed == {"run", "trace", "jump"}
    assert ap.parse_args(["matrix", "--order", "w"]).rows == DEFAULT_ROW_CAP


def test_unknown_usage_is_exit_two(capsys):
    assert main(["frobnicate"]) == 2
    assert main(["run"]) == 2


def _cli(argv):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ittm.__file__)))
    return subprocess.run([sys.executable, "-m", "ittm.cli"] + argv, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("argv", [
    ["run", "{halt}", "--input", "1(0"],
    ["survey", "--states", "9"],
    ["jump", "--states", "9"],
    ["fm", "--states", "9"],
    ["survey", "--bound", "-5"],
    ["jump", "--bound", "-1"],
    ["matrix", "--order", "w^w"],
    ["matrix", "--order", "3w"],
    ["run", "{halt}", "--oracle-real", "(0)*"],
    ["jump", "--oracle-real", "(0)*"],
    ["matrix", "--order", "3", "--states", "0", "--bound", "3", "--rows", "-1"],
    ["fm", "--states", "0", "--bound", "4", "--trim-bits", "-1"],
    ["jump", "--states", "0", "--bound", "4", "--cap", "5"],
])
def test_bad_arguments_are_usage_errors(halt_file, argv):
    proc = _cli([a.replace("{halt}", halt_file) for a in argv])
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "error" in proc.stderr


def test_oracle_protocol_mismatches_keep_their_messages(tmp_path, capsys):
    from conftest import query_probe
    probe = tmp_path / "probe.itm"
    probe.write_text(render_program(query_probe()))
    for argv, message in [
            (["jump", "--tracks", "3", "--oracle-real", "(1)*"],
             "oracle runs need a 4-track program"),
            (["run", str(probe), "--oracle-real", "(0)*"],
             "query protocol declared but the oracle is a real, not a set"),
            (["run", str(probe)], "query state entered without a set oracle")]:
        assert main(argv) == 2
        assert capsys.readouterr().err == "usage error: %s\n" % message


def test_depth_one_empty_trace_is_a_refusal():
    # program 48's first block reaches w = w^1, so its run overflows the
    # ordinal range before any block is recorded: the log covers nothing
    argv = ["--depth", "1", "--states", "0", "--bound", "60", "--budget", "16"]
    proc = _cli(["survey"] + argv)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["truncated"] is True and doc["complete_below"] == "0"
    proc = _cli(["fm"] + argv)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    flags = proc.stderr.partition("REFUSED flags=")[2].split(",")
    assert any(flag.startswith("refused") for flag in flags)


def test_deep_depth_climbs_levels_without_recursion(halt_file):
    proc = _cli(["run", halt_file, "--depth", "5000"])
    assert proc.returncode == 0, proc.stderr
    assert "HALTED time=1" in proc.stdout
    assert "Traceback" not in proc.stdout + proc.stderr


def test_each_command_runs_each_program_once(monkeypatch, tmp_path):
    runner = importlib.import_module("ittm.runner")
    original = runner.run_transfinite
    oracles = []
    def counting(*args, **kwargs):
        oracles.append(kwargs.get("oracle", args[3] if len(args) > 3 else None))
        return original(*args, **kwargs)
    for name in ("runner", "oracle", "approx", "fm", "cli"):
        module = importlib.import_module("ittm." + name)
        if getattr(module, "run_transfinite", None) is original:
            monkeypatch.setattr(module, "run_transfinite", counting)
    main(["survey", "--states", "0", "--bound", "60", "--budget", "64",
          "--cap", "128", "--out", str(tmp_path / "survey.json")])
    assert len(oracles) == 60
    oracles.clear()
    main(["fm", "--states", "0", "--bound", "16",
          "--report", str(tmp_path / "report.json")])
    # the requirement runs against set oracles come on top
    assert sum(o is None for o in oracles) == 16


def test_the_cli_mix_batches_run_each_distinct_behaviour_once(monkeypatch,
                                                              tmp_path):
    """The survey and jump commands of the benchmark's cli-mix workload run
    96 of their 2,000 programs: the others read the same rules as one of
    those.  fm's 48 programs are 48 distinct behaviours.  matrix makes 28
    runs, each against its row as a real oracle."""
    runner = importlib.import_module("ittm.runner")
    original = runner.run_transfinite
    oracles = []
    def counting(*args, **kwargs):
        oracles.append(kwargs.get("oracle", args[3] if len(args) > 3 else None))
        return original(*args, **kwargs)
    for name in ("runner", "oracle", "approx", "fm", "cli"):
        module = importlib.import_module("ittm." + name)
        if getattr(module, "run_transfinite", None) is original:
            monkeypatch.setattr(module, "run_transfinite", counting)
    for command in ("survey", "jump"):
        oracles.clear()
        main([command, "--states", "2", "--bound", "2000",
              "--out", str(tmp_path / (command + ".json"))])
        assert len(oracles) == 96 and set(oracles) == {None}
    oracles.clear()
    main(["fm", "--states", "0", "--bound", "48",
          "--report", str(tmp_path / "report.json")])
    assert sum(o is None for o in oracles) == 48
    oracles.clear()
    main(["matrix", "--order", "w*2", "--states", "0", "--bound", "20",
          "--out", str(tmp_path / "matrix.json")])
    assert len(oracles) == 28 and {o.kind for o in oracles} == {"real"}
