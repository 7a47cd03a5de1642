"""Command-line interface: validation, provenance echo, regeneration."""

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

from coopsearch import cli
from coopsearch.cli import main, parse_config

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
        # options a command does not take are argparse errors, which exit 2 as well
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
    ],
)
def test_bad_configuration_exits_2(argv, capsys, tmp_path):
    out = tmp_path / "never.csv"
    rc = main(argv + ["--output", str(out)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


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


def test_huge_closed_form_enumeration_exits_1(capsys, monkeypatch):
    # 10 atoms at m=32 is C(41, 9) = 350,343,565 terms; refused before enumerating
    speeds = ",".join(f"{1 + k / 10}:0.1" for k in range(10))
    argv = ["expected", "--agents", "32", "--strategy", "proportional", "--speeds", speeds]
    assert main(argv) == 1
    assert "error:" in capsys.readouterr().err
    # sweep --with-analytic evaluates its closed forms before it simulates anything
    monkeypatch.setattr(cli, "sweep_m", lambda *args, **kwargs: pytest.fail("simulated first"))
    argv = ["sweep", "--agents", "4,32", "--strategy", "proportional", "--with-analytic"]
    assert main(argv + ["--speeds", speeds] + FAST) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("length", ["1e300", "1e13", "1000001"])
def test_histogram_past_bin_budget_exits_1(length, capsys):
    tracemalloc.start()
    try:
        rc = main(["pl-hist", "--agents", "2", "--trials", "10", "--region-length", length])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert peak < 1_000_000  # rejected before any allocation: 10**6 bins take 8 MB


@pytest.mark.parametrize(
    "extreme",
    [["--region-length", "1e200"], ["--speeds", "1e-300"], ["--region-length", "1e-200"]],
)
def test_times_whose_squares_leave_float_range_exit_1(capsys, extreme):
    # the squared times overflow or underflow, so no standard error can be given
    assert main(["simulate", "--agents", "3", "--trials", "10", *extreme]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and "out of range" in captured.err


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


def test_readme_command_lines_parse():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines, in_sh = [], False
    for line in readme.read_text().splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
        elif in_sh and line.startswith("coopsearch "):
            lines.append(line)
    assert len(lines) >= 5
    for line in lines:
        parse_config(shlex.split(line)[1:])


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_every_command_has_help(command, capsys):
    assert main([command, "--help"]) == 0
    out = capsys.readouterr().out
    assert "--format" in out
    assert ("lo:hi[:step]" in out) == (command in ("pl-hist", "expected", "sweep"))
