"""Command-line interface: validation, provenance echo, regeneration."""

import argparse
import csv
import json
import os
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from coopsearch import analytics, cli
from coopsearch.cli import main, parse_config
from coopsearch.harness import TrialPlan

FAST = ["--trials", "4000", "--seed", "7"]


def run_to_file(argv, path):
    rc = main(argv + ["--output", str(path)])
    assert rc == 0
    return path.read_text()


def config_line_of(text: str) -> list[str]:
    for line in text.splitlines():
        if line.startswith("# config: "):
            args = shlex.split(line[len("# config: ") :])
            assert args[0] == "coopsearch"
            return args[1:]
    raise AssertionError("no config line found")


# bad count and seed text, which the option's own `type` rejects
USAGE_ERRORS = [
    [command, *agents, flag, value]
    for command, agents in (("pl-hist", []), ("simulate", ["--agents", "3"]))
    for flag, value in (("--workers", "0"), ("--trials", "0"), ("--seed", "-1"))
]


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--agents", "10", "--strategy", "diagonal"],
        ["simulate", "--agents", "10", "--strategy", "grouped-0"],
        ["simulate", "--agents", "3,5", "--strategy", "equal"],
        ["simulate", "--agents", "10", "--strategy", "equal", "--allocation", "random"],
        ["simulate", "--agents", "4", "--strategy", "grouped-5"],
        ["simulate", "--agents", "10", "--speeds", "1.0,0.5:0.5"],
        ["simulate", "--agents", "10", "--trials", "0"],
        ["simulate", "--agents", "10", "--seed", "-3"],
        ["pl-hist", "--agents", "1,5"],
        ["pl-hist", "--agents", "5", "--allocation", "equal"],
        ["sweep", "--agents", "4,4,8"],
        ["sweep", "--agents", "8,4"],
        ["sweep", "--agents", "4,8", "--agents-range", "2:10"],
        ["sweep", "--agents", "4,8", "--speeds", "1.0,2.0"],
        ["expected", "--agents", "5", "--strategy", "two-directional"],
        ["expected", "--agents", "5", "--speeds", "1.0,2.0"],
        ["compare", "--targets", "one-directional"],
        ["compare", "--targets", "grouped-9:4"],
        ["simulate", "--agents", "10", "--region-length", "0"],
        ["expected", "--agents", "3", "--speeds", "inf"],
        ["pl-hist", "--agents", "2", "--region-length", "inf"],
        ["simulate", "--agents", "3", "--region-length", "inf"],
        ["simulate", "--agents", "3", "--speeds", "inf"],
        # options a command does not take are its parser's errors, which exit 2 as well
        ["simulate", "--agents", "3", "--agents-range", "2:4"],
        ["expected", "--agents", "3", "--trials", "10"],
        ["pl-hist", "--speeds", "1.0"],
        ["simulate", "--agents", "3", "--with-analytic"],
        ["compare", "--agents", "3"],
        # the --agents grammar: m1,m2,... or lo:hi[:step] with lo <= hi and step >= 1
        ["sweep", "--agents", "5:2"],
        ["sweep", "--agents", "2:8:0"],
        ["expected", "--agents", "2:8:-1"],
        ["expected", "--agents", "1:2:3:4"],
        ["pl-hist", "--agents", "2:x"],
        ["simulate", "--agents", ","],
        # method tokens, read by harness.resolve_method alone
        ["simulate", "--agents", "3", "--strategy", "grouped"],
        ["simulate", "--agents", "3", "--strategy", "grouped-x"],
        ["compare", "--targets", "grouped:4"],
    ]
    + USAGE_ERRORS
    + [
        # out-of-range numbers that the region, the plan or the speed law rejects
        ["simulate", "--agents", "0"],
        ["expected", "--agents", "0"],
        ["expected", "--agents", "3", "--speeds", "0"],
        ["simulate", "--agents", "3", "--speeds", "nan"],
        ["simulate", "--agents", "3", "--region-length", "-1"],
        ["pl-hist", "--agents", "2", "--region-length", "nan"],
        # a stray positional is an argument the command does not take
        ["simulate", "--agents", "3", "stray"],
        # a subnormal length: its uniform(0, L) = L * u draws round up to L
        ["simulate", "--agents", "3", "--region-length", "5e-324"],
        ["pl-hist", "--agents", "2", "--region-length", "5e-324"],
        # the smallest normal float: L * u rounds up to L there too
        ["simulate", "--agents", "3", "--region-length", "2.2250738585072014e-308"],
        ["simulate", "--agents", "3", "--speeds", "2.2250738585072014e-308"],
    ],
)
def test_bad_configuration_exits_2(argv, capsys, tmp_path):
    # every configuration error is the command's usage error, whichever check fails
    out = tmp_path / "never.csv"
    rc = main(argv + ["--output", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert f"usage: coopsearch {argv[0]}" in err
    assert not out.exists()


def test_parse_config_exits_on_a_failed_check():
    # a check after parsing exits as argparse does; no ValueError reaches the caller
    with pytest.raises(SystemExit) as exc:
        parse_config(["simulate", "--agents", "3", "--strategy", "equal", "--allocation", "random"])
    assert exc.value.code == 2


# one call per command and the exact config line it echoes; a new option order fails here
PINNED_ECHOES = [
    (
        "pl-hist --agents 2,3 --trials 200 --seed 1",
        "coopsearch pl-hist --region-length 1000.0 --agents 2,3 --allocation random"
        " --trials 200 --seed 1 --format dsv",
    ),
    (
        "expected --agents 2:4 --strategy Semi_Equal --speeds 1.0",
        "coopsearch expected --region-length 1000.0 --agents 2,3,4 --strategy semi-equal"
        " --speeds 1.0:1.0 --format dsv",
    ),
    (
        "simulate --agents 4 --trials 200 --seed 7",
        "coopsearch simulate --region-length 1000.0 --agents 4 --strategy one-directional"
        " --allocation random --speeds 0.5:0.3,1.0:0.3,1.375:0.4"
        " --trials 200 --seed 7 --format dsv",
    ),
    (
        "sweep --agents 3,5 --strategy equal --speeds 1.0 --with-analytic --trials 200",
        "coopsearch sweep --region-length 1000.0 --agents 3,5 --strategy equal --allocation equal"
        " --speeds 1.0 --trials 200 --seed 0 --with-analytic --format dsv",
    ),
    (
        "compare --targets grouped_3:6,equal:4 --format structured --trials 200 --seed 2",
        "coopsearch compare --region-length 1000.0 --targets grouped-3:6,equal:4"
        " --speeds 0.5:0.3,1.0:0.3,1.375:0.4 --trials 200 --seed 2 --format structured",
    ),
]


@pytest.mark.parametrize("call, line", PINNED_ECHOES, ids=[c.split()[0] for c, _ in PINNED_ECHOES])
def test_config_line_is_pinned(call, line, tmp_path):
    text = run_to_file(shlex.split(call), tmp_path / "a.out")
    if "structured" in call:
        echoed = json.loads(text)["config"]
    else:
        echoed = text.splitlines()[1].removeprefix("# config: ")
    assert echoed == line
    assert run_to_file(shlex.split(line)[1:], tmp_path / "b.out") == text


ECHO_TEXTS = ["4:32:4", " 2 : 4 ", "1.0", "1:0.5,2:0.5", "grouped_03:6"]
TYPED_OPTIONS = [
    (flag, command, kwargs, echo)
    for flag, takes, echo in cli.OPTIONS
    for command, kwargs in takes.items()
    if "type" in kwargs and echo is not None
]


@pytest.mark.parametrize(
    "flag, command, kwargs, echo", TYPED_OPTIONS, ids=[f"{c}{f}" for f, c, _, _ in TYPED_OPTIONS]
)
def test_option_echo_parses_back_to_its_value(flag, command, kwargs, echo):
    # what the config line writes for an option reads back to the same value;
    # argparse reads a text default through `type` and keeps any other default as is
    parse, default = kwargs["type"], kwargs.get("default")
    values = [] if default is None else [parse(default) if isinstance(default, str) else default]
    for text in ECHO_TEXTS:
        try:
            values.append(parse(text))
        except (argparse.ArgumentTypeError, ValueError):
            pass
    assert values, flag
    for value in values:
        assert parse(echo(value)) == value, (flag, value)


def test_reproduce_results_config_lines_regenerate(tmp_path):
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    script = [sys.executable, str(root / "scripts" / "reproduce_results.py"), "--trials", "500"]
    subprocess.run(
        script + ["--outdir", str(tmp_path / "tables")],
        env=dict(os.environ, PYTHONPATH=path),
        check=True,
        capture_output=True,
    )
    files = sorted((tmp_path / "tables").iterdir())
    assert len(files) == 15
    for file in files:
        text = file.read_text()
        assert run_to_file(config_line_of(text), tmp_path / "replay.csv") == text, file.name


@pytest.mark.parametrize(
    "argv, plans",
    [
        (["simulate", "--agents", "5", "--trials", "100"], 1),
        (["expected", "--agents", "2:4"], 3),
        (["sweep", "--agents", "2:4", "--trials", "100"], 3),
        (["compare", "--trials", "100"], 5),  # the five default targets
    ],
)
def test_each_plan_is_built_once(argv, plans, monkeypatch, tmp_path):
    # parse_config builds the plans to validate them, and the command runs those plans
    built = []
    post_init = TrialPlan.__post_init__
    monkeypatch.setattr(TrialPlan, "__post_init__", lambda plan: built.append(post_init(plan)))
    run_to_file(argv, tmp_path / "out.csv")
    assert len(built) == plans


def in_fresh_process(argv, then: str = "pass") -> subprocess.CompletedProcess:
    """`coopsearch argv` through `cli.main` in a new interpreter that imports this
    checkout's package, followed by the statement `then`, which may use `sys`."""
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    code = f"import sys\nfrom coopsearch.cli import main\nrc = main(sys.argv[1:])\n{then}\nsys.exit(rc)"
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )


@pytest.mark.parametrize("output", ["missing/out.csv", "."])
def test_unwritable_output_is_an_error(output, tmp_path):
    proc = in_fresh_process(["expected", "--agents", "2", "--output", str(tmp_path / output)])
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


def test_one_worker_run_loads_no_thread_pool(tmp_path):
    # at one worker every chunk runs on the calling thread: no pool, not even its module
    argv = ["sweep", "--agents", "2:4", "--workers", "1", *FAST, "--output", str(tmp_path / "out.csv")]
    proc = in_fresh_process(argv, then="assert 'concurrent.futures' not in sys.modules")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "bad",
    [["sweep", "--agents", "2:4", "--trials", "0"], ["simulate", "--agents", "3", "--strategy", "grouped"]],
    ids=["argparse", "parse_config"],
)
def test_usage_error_leaves_the_parser_as_built(bad, capsys):
    # one parser serves every call in a process: after a call that exits 2, the next
    # call prints what it prints in a fresh process
    argv = ["sweep", "--agents", "2:4", "--strategy", "grouped-2", *FAST]
    assert main(bad) == 2
    capsys.readouterr()
    rc = main(argv)
    proc = in_fresh_process(argv)
    assert (rc, capsys.readouterr().out) == (proc.returncode, proc.stdout)
    assert rc == 0 and cli._build_parser() is cli._build_parser()


def test_simulate_rerun_is_byte_identical(tmp_path):
    argv = ["simulate", "--agents", "6", "--strategy", "random"] + FAST
    a = run_to_file(argv, tmp_path / "a.csv")
    b = run_to_file(argv, tmp_path / "b.csv")
    assert a == b


def test_workers_flag_does_not_change_output(tmp_path):
    for argv in (["sweep", "--agents", "3,6", "--strategy", "proportional"], ["pl-hist", "--agents", "2,30,5"]):
        a = run_to_file(argv + FAST + ["--workers", "1"], tmp_path / "a.csv")
        b = run_to_file(argv + FAST + ["--workers", "3"], tmp_path / "b.csv")
        assert a == b, argv[0]
        assert "--workers" not in a


def test_config_line_regenerates_file(tmp_path):
    argv = [
        "simulate",
        "--agents",
        "5",
        "--strategy",
        "grouped-2",
        "--speeds",
        "0.5:0.5,1.5:0.5",
    ] + FAST
    original = run_to_file(argv, tmp_path / "orig.csv")
    replay = config_line_of(original)
    regenerated = run_to_file(replay, tmp_path / "again.csv")
    assert regenerated == original


def test_config_line_materializes_defaults(tmp_path):
    text = run_to_file(["simulate", "--agents", "4"] + FAST, tmp_path / "d.csv")
    line = " ".join(config_line_of(text))
    assert "--strategy one-directional" in line
    assert "--allocation random" in line
    assert "--region-length 1000.0" in line
    assert "0.5:0.3" in line and "1.375:0.4" in line  # default speed pmf spelled out


def test_agents_range_expanded_in_echo(tmp_path):
    argv = ["sweep", "--agents", "2:8:3", "--strategy", "equal", "--speeds", "1.0"] + FAST
    text = run_to_file(argv, tmp_path / "r.csv")
    assert "--agents 2,5,8" in " ".join(config_line_of(text))
    regenerated = run_to_file(config_line_of(text), tmp_path / "r2.csv")
    assert regenerated == text


def test_pl_hist_takes_an_agent_range(tmp_path):
    text = run_to_file(["pl-hist", "--agents", "2:4", "--trials", "200"], tmp_path / "h.csv")
    assert "--agents 2,3,4" in " ".join(config_line_of(text))
    assert sorted({row["m"] for row in table_of(text)}) == ["2", "3", "4"]


def test_render_prints_numpy_floats_plainly():
    record = cli.OutputRecord(("m", "mean", "analytic"), ((2, np.float64(0.25), None),), "coopsearch")
    assert record.render("dsv").splitlines()[-1] == "2,0.25,"


def test_structured_format_roundtrip(tmp_path):
    argv = ["compare", "--targets", "equal:4,proportional:3", "--format", "structured"] + FAST
    text = run_to_file(argv, tmp_path / "c.json")
    doc = json.loads(text)
    assert doc["columns"] == ["strategy", "m", "mean", "stderr", "ci95", "trials", "seed"]
    assert [r[:2] for r in doc["rows"]] == [["equal", 4], ["proportional", 3]]
    replay = shlex.split(doc["config"])[1:]
    assert run_to_file(replay, tmp_path / "c2.json") == text


def test_expected_equal_closed_form(tmp_path):
    argv = ["expected", "--agents", "2,4,10", "--strategy", "equal", "--speeds", "1.0"]
    text = run_to_file(argv, tmp_path / "e.csv")
    rows = [line.split(",") for line in text.splitlines() if line and not line.startswith(("#", "strategy"))]
    got = {int(m): float(v) for _, m, v in rows}
    assert got == {2: 250.0, 4: 125.0, 10: 50.0}
    argv = ["expected", "--agents", "2", "--speeds", "1.0", "--region-length", "1e154"]
    assert table_of(run_to_file(argv, tmp_path / "big.csv"))[0]["expected_time"] == "2.5e+153"


@pytest.mark.parametrize(
    "strategy, length",
    [
        ("equal", "1e155"),  # E(l^2) overflows
        ("random", "1e154"),  # 2 L^2 overflows
        ("equal", "1e-300"),  # E(l^2) underflows to 0
        ("semi-equal", "1e-320"),  # 0 times the infinite m/(2L)
        ("equal", "1e-160"),  # E(l^2) is subnormal, so digits are lost
        ("proportional", "1e-320"),  # the mean itself is subnormal
    ],
)
def test_closed_form_out_of_float_range_exits_2(strategy, length, capsys):
    # the arguments alone decide it, so it is a configuration error
    argv = ["expected", "--agents", "2", "--speeds", "1.0", "--strategy", strategy, "--region-length", length]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage: coopsearch expected" in captured.err and "error:" in captured.err
    assert "Traceback" not in captured.err and "RuntimeWarning" not in captured.err


def test_huge_closed_form_enumeration_exits_2(capsys, monkeypatch):
    # 10 atoms at m=32 is C(41, 9) = 350,343,565 terms; refused before enumerating
    speeds = ",".join(f"{1 + k / 10}:0.1" for k in range(10))
    argv = ["expected", "--agents", "32", "--strategy", "proportional", "--speeds", speeds]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "usage: coopsearch expected" in err and "error:" in err
    # sweep --with-analytic evaluates its closed forms before it simulates anything
    monkeypatch.setattr(cli, "sweep_m", lambda *args, **kwargs: pytest.fail("simulated first"))
    argv = ["sweep", "--agents", "4,32", "--strategy", "proportional", "--with-analytic"]
    assert main(argv + ["--speeds", speeds] + FAST) == 2
    err = capsys.readouterr().err
    assert "usage: coopsearch sweep" in err and "error:" in err


def test_closed_form_enumeration_out_of_float_range_exits_2(capsys):
    # C(1100, 550) passes 2**1024, far under the term cap: once an OverflowError traceback
    argv = ["expected", "--strategy", "proportional", "--agents", "1100", "--speeds", "0.5:0.5,1.0:0.5"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage: coopsearch expected" in captured.err and "out of range for a float64" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("length", ["1e300", "1e13", "1000001"])
def test_histogram_past_bin_budget_exits_2(length, capsys):
    tracemalloc.start()
    try:
        rc = main(["pl-hist", "--agents", "2", "--trials", "10", "--region-length", length])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage: coopsearch pl-hist" in captured.err and "error:" in captured.err
    assert "Traceback" not in captured.err
    assert peak < 1_000_000  # rejected before any allocation: 10**6 bins take 8 MB


@pytest.mark.parametrize(
    "extreme",
    [
        ["--region-length", "1e200"],
        ["--speeds", "1e-300"],
        ["--region-length", "1e-200"],
        # the times themselves overflow, in the kernel's divide and in their sum
        ["--speeds", "1e-306"],
        ["--region-length", "1e306", "--speeds", "1e-3"],
        ["--strategy", "grouped-2", "--speeds", "1e-306"],
        ["--strategy", "proportional", "--speeds", "1e-306"],
    ],
)
def test_times_whose_squares_leave_float_range_exit_1(capsys, extreme):
    # the squared times overflow or underflow, so no standard error can be given; the
    # error line is all that is printed, with no numpy warning before it
    assert main(["simulate", "--agents", "3", "--trials", "10", *extreme]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "out of range" in captured.err
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


def test_expected_evaluates_each_closed_form_once(monkeypatch, capsys):
    # parse_config evaluates the closed forms, and the command prints those values
    calls = []
    inner = analytics.speed_sum_inverse_mean
    monkeypatch.setattr(analytics, "speed_sum_inverse_mean", lambda *args: calls.append(args) or inner(*args))
    assert main(["expected", "--agents", "2:32", "--strategy", "proportional"]) == 0
    assert len(calls) == 31


@pytest.mark.parametrize(
    "argv",
    [
        ["expected", "--agents", "2:6", "--strategy", "proportional"],
        ["sweep", "--agents", "2,3", "--strategy", "equal", "--with-analytic", *FAST],
        ["pl-hist", "--agents", "2,3", *FAST],
    ],
    ids=["expected", "sweep", "pl-hist"],
)
def test_commands_print_what_parse_config_built(argv, monkeypatch):
    ns = parse_config(argv + ["--workers", "1"])
    monkeypatch.setattr(cli, "closed_form", lambda plan: pytest.fail("closed form in the command"))
    monkeypatch.setattr(cli, "spacing_pmf_oracle", lambda *args: pytest.fail("gap law in the command"))
    columns, rows = cli._COMMANDS[ns.command](ns)
    assert len(rows) > 0 and all(len(row) == len(columns) for row in rows)


def test_expected_rejects_simulation_only_strategy(capsys):
    assert main(["expected", "--agents", "5", "--strategy", "grouped-2"]) == 2
    assert "simulate" in capsys.readouterr().err


def test_sweep_with_analytic_blank_for_two_directional(tmp_path):
    argv = ["sweep", "--agents", "3,5", "--strategy", "two-directional", "--with-analytic"] + FAST
    text = run_to_file(argv, tmp_path / "s.csv")
    header = next(l for l in text.splitlines() if l.startswith("strategy"))
    assert header.endswith(",analytic")
    for line in text.splitlines():
        if line.startswith("two-directional"):
            assert line.endswith(",")  # no closed form published for this sweep


def test_sweep_with_analytic_equal_value(tmp_path):
    argv = [
        "sweep",
        "--agents",
        "5,10",
        "--strategy",
        "equal",
        "--speeds",
        "1.0",
        "--with-analytic",
    ] + FAST
    text = run_to_file(argv, tmp_path / "s.csv")
    values = {}
    for line in text.splitlines():
        if line.startswith("equal"):
            parts = line.split(",")
            values[int(parts[1])] = float(parts[-1])
    assert values == {5: 100.0, 10: 50.0}


def table_of(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(line for line in text.splitlines() if not line.startswith("#")))


@pytest.mark.parametrize("method", ["equal", "semi-equal", "random", "proportional"])
def test_sweep_analytic_is_expected_closed_form(method, tmp_path):
    sweep = ["sweep", "--agents", "2:32", "--strategy", method, "--with-analytic", "--trials", "1000"]
    expected = ["expected", "--agents", "2:32", "--strategy", method]
    analytic = [row["analytic"] for row in table_of(run_to_file(sweep, tmp_path / "s.csv"))]
    exact = [row["expected_time"] for row in table_of(run_to_file(expected, tmp_path / "e.csv"))]
    assert len(analytic) == 31
    assert analytic == exact  # repr of the same float, so equal bit for bit


def test_pl_hist_table_shape(tmp_path):
    argv = ["pl-hist", "--agents", "2,3", "--trials", "20000", "--seed", "1"]
    text = run_to_file(argv, tmp_path / "h.csv")
    rows = [l.split(",") for l in text.splitlines() if l and not l.startswith(("#", "m,"))]
    ms = sorted({int(r[0]) for r in rows})
    assert ms == [2, 3]
    for m in ms:
        mass = sum(float(r[2]) for r in rows if int(r[0]) == m)
        assert abs(mass - 1.0) < 1e-9
    regenerated = run_to_file(config_line_of(text), tmp_path / "h2.csv")
    assert regenerated == text


def test_stdout_when_no_output(capsys):
    rc = main(["expected", "--agents", "3", "--strategy", "random", "--speeds", "1.0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("# coopsearch")
    assert "random,3,250.0" in out


def test_parse_config_normalizes_tokens():
    cfg = parse_config(["simulate", "--agents", "6", "--strategy", "Semi_Equal"] + FAST)
    assert cfg.strategy == "semi-equal"
    assert cfg.allocation == "semi-equal"
    cfg = parse_config(["compare", "--targets", "grouped_3:6"] + FAST)
    assert cfg.targets == (("grouped-3", 6),)


def test_compare_labels_match_simulate(tmp_path):
    # compare names a strategy as simulate and sweep do: grouped-03 and grouped-+3 are grouped-3
    argv = ["compare", "--targets", "grouped-03:6,grouped-+3:6,Semi_Equal:4"] + FAST
    text = run_to_file(argv, tmp_path / "c.csv")
    assert [(row["strategy"], row["m"]) for row in table_of(text)] == [
        ("grouped-3", "6"),
        ("grouped-3", "6"),
        ("semi-equal", "4"),
    ]
    assert "--targets grouped-3:6,grouped-3:6,semi-equal:4" in " ".join(config_line_of(text))
    argv = ["simulate", "--agents", "6", "--strategy", "grouped-03"] + FAST
    assert table_of(run_to_file(argv, tmp_path / "s.csv"))[0]["strategy"] == "grouped-3"


def readme_lines(language: str) -> list[str]:
    """The lines of the README's fenced blocks in `language`, in order."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines, inside = [], False
    for line in readme.read_text().splitlines():
        if line.startswith("```"):
            inside = line == "```" + language
        elif inside:
            lines.append(line)
    return lines


def test_readme_command_lines_parse():
    lines = [line for line in readme_lines("sh") if line.startswith("coopsearch ")]
    assert len(lines) >= 5
    for line in lines:
        parse_config(shlex.split(line)[1:])


def test_readme_library_block_runs():
    source = "\n".join(readme_lines("python"))
    assert "run_trials(plan)" in source and "sweep_m(plans)" in source
    exec(compile(source, "README.md", "exec"), {})


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_every_command_has_help(command, capsys):
    assert main([command, "--help"]) == 0
    out = capsys.readouterr().out
    assert "--format" in out
    assert ("lo:hi[:step]" in out) == (command in ("pl-hist", "expected", "sweep"))
