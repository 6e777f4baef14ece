import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import incchains
from incchains.cli import main

ROOT = Path(__file__).resolve().parents[1]
# stdout and exit code of the README commands plus two pd commands, in both
# formats and both fields, recorded before the CLI's output path was merged
GOLDEN = json.loads((ROOT / "tests" / "cli_golden.json").read_text())

SAMPLE = """\
c = 3
i = 1
r = 4
gens:
x[1,2]^3
x[1,4]^2 * x[2,1]
x[2,2]*x[3,3]
"""

WORKED = """\
c = 3
i = 2
r = 6
gens:
x[2,1]^4
x[1,1]^3*x[2,3]^2*x[1,4]
x[3,2]*x[1,3]^2*x[2,4]
x[2,3]^3*x[1,4]^2
x[2,4]^2*x[3,5]^4
"""

ONE_ROW = """\
c = 1
i = 1
r = 2
gens:
x[1,2]^2
"""


@pytest.fixture
def sample_file(tmp_path):
    path = tmp_path / "sample.chain"
    path.write_text(SAMPLE)
    return str(path)


@pytest.fixture
def worked_file(tmp_path):
    path = tmp_path / "worked.chain"
    path.write_text(WORKED)
    return str(path)


def test_gen_lists_generators(sample_file, capsys):
    assert main(["gen", "--spec", sample_file, "--n", "6"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 12
    assert "x[1,4]^3" in out
    assert "x[2,4]*x[3,5]" in out


def test_invariants_csv(sample_file, capsys):
    assert main(["invariants", "--spec", sample_file, "--n", "4..7"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "n,codim,pd_exact,pd_lower,pd_upper,gamma"
    pd_column = [line.split(",")[2] for line in lines[1:]]
    assert pd_column == ["3", "6", "8", "10"]


def test_invariants_json_deterministic(sample_file, capsys):
    assert main(["--format", "json", "invariants", "--spec", sample_file, "--n", "4..5"]) == 0
    first = capsys.readouterr().out
    assert main(["--format", "json", "invariants", "--spec", sample_file, "--n", "4..5"]) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["schemaVersion"] == 1


def test_fit_command(sample_file, capsys):
    assert main(["fit", "--spec", sample_file, "--n", "4..9", "--column", "codim"]) == 0
    out = capsys.readouterr().out
    assert "slope 2" in out


def test_fit_codim_builds_no_invariant_table(sample_file, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("fit --column codim built a full invariant table")

    monkeypatch.setattr("incchains.cli.invariant_table", refuse)
    assert main(["fit", "--spec", sample_file, "--n", "4..9", "--column", "codim"]) == 0
    assert capsys.readouterr().out == (
        "codim: slope 2, intercept -5, onset 4, steps 5, conclusive\n"
    )


# stderr of fit --column codim's refusals, as printed while it built a full table
@pytest.mark.parametrize(
    "flags, width, err",
    [
        ([], "6..4", "error: empty width range\n"),
        (["--char", "4"], "4..9", "error: field characteristic must be 0 or a prime, got 4\n"),
        (
            ["--char", "4294967311"],
            "4..9",
            "error: field characteristic 4294967311 exceeds the supported maximum "
            "3037000499 (the largest p with p*p < 2**63)\n",
        ),
    ],
)
def test_fit_codim_refusals_unchanged(sample_file, capsys, flags, width, err):
    argv = flags + ["fit", "--spec", sample_file, "--n", width, "--column", "codim"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err


def test_verify_codim_exit_codes(sample_file, capsys):
    assert main(["verify", "--spec", sample_file, "--n", "4..9", "--theorem", "codim"]) == 0
    capsys.readouterr()
    # short range: inconclusive exit
    assert main(["verify", "--spec", sample_file, "--n", "4..5", "--theorem", "codim"]) == 3


def test_verify_cm_exit_code(tmp_path, capsys):
    path = tmp_path / "product.chain"
    path.write_text(
        "c = 2\ni = 1\nr = 3\ngens:\nx[1,2]*x[1,3]\nx[1,2]*x[2,3]\n"
    )
    assert main(["verify", "--spec", str(path), "--n", "3..6", "--theorem", "cm"]) == 2
    out = capsys.readouterr().out
    assert "NECESSARY-CONDITION-FAILS" in out


def test_verify_c1(tmp_path, capsys):
    path = tmp_path / "one.chain"
    path.write_text(ONE_ROW)
    assert main(["verify", "--spec", str(path), "--n", "2..8", "--theorem", "c1"]) == 0
    capsys.readouterr()


def test_verify_c1_inconclusive_under_a_low_gen_cap(capsys):
    spec = str(ROOT / "demos" / "chains" / "onerow.chain")
    argv = ["--gen-cap", "3", "verify", "--spec", spec, "--n", "2..8", "--theorem", "c1"]
    assert main(argv) == 3
    assert "note: some widths lack exact pd" in capsys.readouterr().out


def test_verify_c1_wrong_rows(sample_file, capsys):
    assert main(["verify", "--spec", sample_file, "--n", "4..6", "--theorem", "c1"]) == 1


def test_gamma_command_on_worked_ideal(worked_file, capsys):
    assert main(["gamma", "--spec", worked_file]) == 0
    out = capsys.readouterr().out
    assert "gamma: 1" in out
    assert "[2]" in out


def test_gamma_big(sample_file, capsys):
    assert main(["gamma", "--spec", sample_file, "--big", "--depth", "2"]) == 0
    out = capsys.readouterr().out
    assert "gamma limit" in out and "2" in out


def test_oracle_command(sample_file, capsys):
    assert main(["oracle", "--spec", sample_file, "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert "codim-vs-bruteforce: PASS" in out
    assert "pd-vs-taylor: PASS" in out


def test_verify_pd_bounds_command(sample_file, capsys):
    code = main([
        "--gen-cap", "30", "verify", "--spec", sample_file,
        "--n", "4..8", "--theorem", "pd-bounds", "--depth", "2",
    ])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "pd-bounds: PASS" in out


def test_oracle_takes_one_width(sample_file, capsys):
    assert main(["oracle", "--spec", sample_file, "--n", "4..7"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid int value: '4..7'" in captured.err


@pytest.mark.parametrize("case", GOLDEN, ids=[" ".join(c["argv"]) for c in GOLDEN])
def test_cli_output_matches_golden(case, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert main(case["argv"]) == case["exit"]
    assert capsys.readouterr().out == case["stdout"]


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.chain"
    path.write_text("c = 1\ni = 0\nr = 1\ngens:\nx[2,1]\n")
    assert main(["gen", "--spec", str(path), "--n", "3"]) == 1
    err = capsys.readouterr().err
    assert "parse error" in err


def test_missing_file_exit_code(capsys):
    assert main(["gen", "--spec", "/nonexistent.chain", "--n", "3"]) == 1


def test_unreadable_spec_path_exits_1(tmp_path, capsys):
    assert main(["gen", "--spec", str(tmp_path), "--n", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"


def test_usage_error_exit_code(capsys):
    assert main(["frobnicate"]) == 1
    assert main([]) == 1


def test_char_flag(sample_file, capsys):
    assert main(["--char", "32003", "invariants", "--spec", sample_file, "--n", "4..5"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[1].split(",")[2] == "3"


def test_char_above_int64_bound_exits_1(sample_file, capsys):
    args = ["--char", "4294967311", "invariants", "--spec", sample_file, "--n", "4..5"]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "3037000499" in captured.err


def test_import_leaves_numpy_unloaded():
    src = str(Path(incchains.__file__).resolve().parents[1])
    code = "import sys, incchains; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize(
    "command",
    [
        ["gen", "--n", "5"],
        ["gamma"],
        ["verify", "--n", "4..9", "--theorem", "codim"],
        ["verify", "--n", "4..6", "--theorem", "cm"],
        ["oracle", "--n", "1"],
    ],
)
@pytest.mark.parametrize("header", [False, True])
def test_bad_char_refused_by_every_command(tmp_path, capsys, command, header):
    path = tmp_path / "sample.chain"
    path.write_text(("char = 4\n" if header else "") + SAMPLE)
    flags = [] if header else ["--char", "4"]
    assert main(flags + command[:1] + ["--spec", str(path)] + command[1:]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: field characteristic must be 0 or a prime, got 4\n"


@pytest.mark.parametrize("theorem", ["pd-bounds", "cm", "c1"])
def test_verify_refuses_a_reversed_range_for_every_theorem(sample_file, capsys, theorem):
    assert main(["verify", "--spec", sample_file, "--n", "6..4", "--theorem", theorem]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: empty width range\n"


@pytest.mark.parametrize("width", ["6..4", "1..2"])
def test_verify_codim_empty_range_exits_1(sample_file, capsys, width):
    assert main(["verify", "--spec", sample_file, "--n", width, "--theorem", "codim"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: empty width range\n"
