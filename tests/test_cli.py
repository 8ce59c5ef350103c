"""Command-line interface: outputs, exit codes, overrides, JSON."""

import csv
import io
import json

import pytest

from edgeavail import solver
from edgeavail.cli import main

from conftest import DATA, MODELS, deadline

TWO_STATE = str(DATA / "two_state.san")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def kv(out):
    pairs = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition("=")
        pairs[key] = value
    return pairs


def test_solve_two_state(capsys):
    code, out, err = run(capsys, "solve", TWO_STATE, "--reward", "up")
    assert code == 0
    report = kv(out)
    assert float(report["unavailability"]) == pytest.approx(0.1, abs=1e-12)
    assert report["states"] == "2" and report["method"] == "gth"


def test_solve_ru_document(capsys):
    code, out, _ = run(capsys, "solve", str(MODELS / "ru.san"), "--reward", "up")
    assert code == 0
    assert float(kv(out)["unavailability"]) == pytest.approx(7.2e-4, rel=2e-3)


def test_solve_iterative_method(capsys):
    code, out, _ = run(capsys, "solve", TWO_STATE, "--reward", "up",
                       "--method", "iter")
    assert code == 0
    report = kv(out)
    assert report["method"] == "iterative"
    assert float(report["unavailability"]) == pytest.approx(0.1, abs=1e-10)


@pytest.mark.parametrize("flag, value, message", [
    ("--tol", "nan", "--tol must be positive and finite"),
    ("--tol", "-1", "--tol must be positive and finite"),
    ("--tol", "0", "--tol must be positive and finite"),
    ("--max-iter", "-3", "--max-iter must be >= 1"),
    ("--max-states", "-3", "--max-states must be >= 1"),
])
def test_solve_bad_limits_exit_64(capsys, flag, value, message):
    with deadline(10):
        code, out, err = run(capsys, "solve", str(MODELS / "du.san"), "--reward", "up",
                             "--method", "iter", flag, value)
    assert code == 64 and not out
    assert err.strip() == f"usage error: {message}"


def test_solve_parse_error_exits_1(capsys):
    code, out, err = run(capsys, "solve", str(DATA / "broken.san"),
                         "--reward", "up")
    assert code == 1
    assert not out and err


def test_solve_missing_file_exits_1(capsys):
    code, _, err = run(capsys, "solve", "no_such.san", "--reward", "up")
    assert code == 1 and err


def test_solve_absorbing_exits_2(capsys):
    code, _, err = run(capsys, "solve", str(DATA / "absorbing.san"),
                       "--reward", "up")
    assert code == 2
    assert "computation error" in err


def test_solve_oversized_dense_block_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(solver, "_DENSE_MAX", 10)
    code, out, err = run(capsys, "solve", str(MODELS / "cluster.san"),
                         "--reward", "up")
    assert code == 2 and not out
    assert "computation error" in err and "--method iter" in err


def test_solve_set_override(capsys):
    code, out, _ = run(capsys, "solve", TWO_STATE, "--reward", "up",
                       "--set", "lam=0.9")
    assert code == 0
    assert float(kv(out)["unavailability"]) == pytest.approx(0.5, abs=1e-12)


def test_solve_unknown_override_exits_64(capsys):
    code, _, err = run(capsys, "solve", TWO_STATE, "--reward", "up",
                       "--set", "nope=1")
    assert code == 64 and "usage error" in err


def test_solve_json(capsys):
    code, out, _ = run(capsys, "solve", TWO_STATE, "--reward", "up", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["unavailability"] == pytest.approx(0.1, abs=1e-12)


def test_simulate_deterministic_per_seed(capsys):
    args = ("simulate", TWO_STATE, "--reward", "up", "--horizon", "1e5",
            "--seed", "42")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    report = kv(out1)
    assert float(report["point"]) == pytest.approx(0.9, abs=0.05)
    assert report["seed"] == "42"


def test_simulate_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("EDGEAVAIL_SEED", "777")
    code, out, _ = run(capsys, "simulate", TWO_STATE, "--reward", "up",
                       "--horizon", "1e4")
    assert code == 0
    assert kv(out)["seed"] == "777"


def test_simulate_single_batch_exits_64(capsys):
    code, _, err = run(capsys, "simulate", TWO_STATE, "--reward", "up",
                       "--batches", "1")
    assert code == 64 and "usage error" in err


def test_simulate_infinite_horizon_exits_1(capsys):
    with deadline(10):
        code, out, err = run(capsys, "simulate", str(MODELS / "du.san"), "--reward",
                             "up", "--horizon", "inf", "--warmup", "0")
    assert code == 1 and not out
    assert err.strip().splitlines() == ["error: need a finite horizon, got inf"]


def test_simulate_du_ci_covers_exact(capsys):
    code, out, _ = run(capsys, "simulate", str(MODELS / "du.san"), "--reward",
                       "up", "--horizon", "1e7", "--seed", "1")
    assert code == 0
    report = kv(out)
    exact_avail = 1 - 6.542520393290066e-4  # GTH value for the same document
    assert abs(float(report["point"]) - exact_avail) <= float(report["ci_halfwidth"])


@pytest.mark.parametrize("command", ["solve", "simulate"])
@pytest.mark.parametrize("k", ["0", "-0.9"])
def test_bad_rate_exits_1(capsys, tmp_path, command, k):
    # "extra" adds rate k beside repair's 0.9 in the Down marking
    path = tmp_path / "bad_rate.san"
    path.write_text((DATA / "two_state.san").read_text() + f"""\
param k = {k}
activity timed extra rate "k" {{
  input "#Down >= 1" {{ Down -= 1 }}
  case 1 {{ Up += 1 }}
}}
""")
    code, out, err = run(capsys, command, str(path), "--reward", "up")
    assert code == 1 and not out
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: activity 'extra' has rate")


def test_ft_paper_zeros(capsys):
    code, out, _ = run(capsys, "ft", "--paper",
                       *("--u-ru 0 --u-du 0 --u-cu 0 --u-meh 0 "
                         "--u-5gc 0 --u-mano 0".split()))
    assert code == 0
    assert float(kv(out)["u_sys"]) == 0.0


def test_ft_paper_halves(capsys):
    code, out, _ = run(capsys, "ft", "--paper",
                       *("--u-ru 0.5 --u-du 0.5 --u-cu 0.5 --u-meh 0.5 "
                         "--u-5gc 0.5 --u-mano 0.5".split()))
    assert code == 0
    report = kv(out)
    assert float(report["u_ran"]) == pytest.approx(0.875, abs=1e-15)
    assert float(report["u_sys"]) == pytest.approx(0.984375, abs=1e-15)


def test_ft_paper_missing_input_exits_64(capsys):
    code, _, err = run(capsys, "ft", "--paper", "--u-ru", "0.5")
    assert code == 64


def test_ft_file(capsys):
    code, out, _ = run(capsys, "ft", str(DATA / "tree.ft"))
    assert code == 0
    expected = 1 - (1 - 0.1) * (1 - (3 * 0.04 * 0.8 + 0.008))
    assert float(kv(out)["u_sys"]) == pytest.approx(expected, abs=1e-12)


def test_ft_malformed_file_exits_1(capsys, tmp_path):
    bad = tmp_path / "bad.ft"
    bad.write_text("or(basic(a, 0.1)")
    code, _, err = run(capsys, "ft", str(bad))
    assert code == 1


def test_paper_table3_csv(capsys, tmp_path):
    out_csv = tmp_path / "t3.csv"
    code, out, _ = run(capsys, "paper", "table3", "--out", str(out_csv),
                       "--jobs", "1")
    assert code == 0
    assert kv(out)["rows"] == "36"
    rows = list(csv.DictReader(io.StringIO(out_csv.read_text())))
    assert len(rows) == 36
    assert rows[0]["config"] == "N_C=1,N_D=1,N_R=1,N_H=1"


def test_paper_fig6_rows(capsys, tmp_path):
    out_csv = tmp_path / "f6.csv"
    code, out, _ = run(capsys, "paper", "fig6", "--out", str(out_csv),
                       "--jobs", "1")
    assert code == 0
    text = out_csv.read_text()
    for mk in ("(10,10)", "(10,9)", "(10,8)"):
        assert f"both:(M,K)={mk}" in text


def test_paper_csv_to_stdout(capsys):
    code, out, _ = run(capsys, "paper", "fig7", "--out", "-", "--jobs", "1")
    assert code == 0
    assert out.splitlines()[0].startswith("config,")
    assert len(out.strip().splitlines()) == 9


def test_paper_rejects_zero_rate_exits_64(capsys):
    code, _, err = run(capsys, "paper", "table3", "--set", "lambda_SW=0")
    assert code == 64
    assert "rates must be > 0" in err


def test_paper_rejects_unknown_parameter_exits_64(capsys):
    code, _, err = run(capsys, "paper", "table3", "--set", "lambda_XX=1")
    assert code == 64


def test_paper_rejects_fractional_cluster_size_exits_64(capsys):
    code, _, err = run(capsys, "paper", "fig6", "--set", "K=8.7", "--out", "-")
    assert code == 64
    assert "K must be a whole number, got 8.7" in err


def test_paper_accepts_whole_cluster_size_as_float(capsys):
    code, out, _ = run(capsys, "paper", "fig7", "--set", "K=9.0", "--out", "-",
                       "--jobs", "1")
    assert code == 0
    _, default, _ = run(capsys, "paper", "fig7", "--out", "-", "--jobs", "1")
    assert out == default


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_paper_rejects_non_positive_jobs_exits_64(capsys, jobs):
    code, _, err = run(capsys, "paper", "fig7", "--out", "-", "--jobs", jobs)
    assert code == 64
    assert "--jobs must be >= 1" in err


def test_paper_json_summary(capsys, tmp_path):
    code, out, _ = run(capsys, "paper", "fig7", "--out",
                       str(tmp_path / "f7.csv"), "--jobs", "1", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["rows"] == 8 and report["study"] == "fig7"


def test_usage_error_on_unknown_subcommand(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 64
