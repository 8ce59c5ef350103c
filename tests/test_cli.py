"""Command-line interface: outputs, exit codes, overrides, JSON."""

import csv
import dataclasses
import io
import json

import pytest

from edgeavail import cli, errors, solver
from edgeavail import models as md
from edgeavail.cli import main
from edgeavail.document import parse_model
from edgeavail.simulator import simulate

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


def test_solve_oversized_sparse_stages_exit_2(capsys, monkeypatch):
    monkeypatch.setattr(solver, "_SPARSE_MAX_BYTES", 1000)
    code, out, err = run(capsys, "solve", str(MODELS / "cluster.san"),
                         "--reward", "up")
    assert code == 2 and not out
    assert "computation error" in err and "sparse stages" in err
    assert "--method iter" in err


_COMPUTATION_ERRORS = [errors.NotIrreducible("reducible"), errors.NotConverged(7, 1e-3, 2e-3),
                       errors.VanishingLoop("loop"), errors.VanishingLivelock(100),
                       errors.StateSpaceExceeded(5), errors.DenseBlockTooLarge(9, 4),
                       errors.SparseStagesTooLarge(10**6, 9, 10**5)]


def test_computation_errors_are_the_seven():
    assert set(errors.ComputationError.__subclasses__()) == \
        {type(err) for err in _COMPUTATION_ERRORS}


@pytest.mark.parametrize("error", _COMPUTATION_ERRORS, ids=lambda e: type(e).__name__)
def test_computation_error_exits_2(capsys, monkeypatch, error):
    def fail(args):
        raise error
    monkeypatch.setattr(cli, "_cmd_ft", fail)
    code, out, err = run(capsys, "ft", "--paper")
    assert code == 2 and not out
    assert err.strip().splitlines() == [f"computation error: {error}"]


@pytest.mark.parametrize("command", ["solve", "simulate"])
def test_unknown_reward_exits_1(capsys, command):
    code, out, err = run(capsys, command, TWO_STATE, "--reward", "nope")
    assert code == 1 and not out
    assert err.strip().splitlines() == ["error: unknown reward 'nope' (declared: up)"]


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


def test_simulate_bad_env_seed_exits_64(capsys, monkeypatch):
    monkeypatch.setenv("EDGEAVAIL_SEED", "abc")
    code, out, err = run(capsys, "simulate", TWO_STATE, "--reward", "up",
                         "--horizon", "1e4")
    assert code == 64 and not out
    assert err.strip().splitlines() == [
        "usage error: EDGEAVAIL_SEED must be an integer, got 'abc'"]


def test_simulate_negative_seed_exits_64(capsys, monkeypatch):
    code, out, err = run(capsys, "simulate", TWO_STATE, "--reward", "up",
                         "--seed", "-1")
    assert code == 64 and not out
    assert err.strip().splitlines() == ["usage error: --seed must be >= 0"]
    monkeypatch.setenv("EDGEAVAIL_SEED", "-3")
    code, out, err = run(capsys, "simulate", TWO_STATE, "--reward", "up")
    assert code == 64 and not out
    assert err.strip().splitlines() == ["usage error: EDGEAVAIL_SEED must be >= 0, got '-3'"]


def test_simulate_single_batch_exits_64(capsys):
    code, _, err = run(capsys, "simulate", TWO_STATE, "--reward", "up",
                       "--batches", "1")
    assert code == 64 and "usage error" in err


def test_simulate_too_many_batches_exits_64(capsys):
    with deadline(10):
        code, out, err = run(capsys, "simulate", str(MODELS / "du.san"), "--reward",
                             "up", "--batches", "1000000000", "--horizon", "10")
    assert code == 64 and not out
    assert "--batches must be in [2, 100000]" in err


@pytest.mark.parametrize("args, message", [
    (("--horizon", "inf", "--warmup", "0"), "--horizon must be finite, got inf"),
    (("--horizon", "nan"), "--horizon must be finite, got nan"),
    (("--horizon", "-5"), "need --horizon > --warmup >= 0, got -5.0 and -0.05"),
    (("--warmup", "2e6"), "need --horizon > --warmup >= 0, got 1000000.0 and 2000000.0"),
    (("--warmup", "-1"), "need --horizon > --warmup >= 0, got 1000000.0 and -1.0"),
], ids=["inf", "nan", "negative", "warmup-past-horizon", "negative-warmup"])
def test_simulate_bad_horizon_or_warmup_exits_64(capsys, args, message):
    # judged before the model is read, like every other option: the path is missing
    code, out, err = run(capsys, "simulate", "missing.san", "--reward", "up", *args)
    assert code == 64 and not out
    assert err.strip().splitlines() == [f"usage error: {message}"]


def test_simulate_du_prints_the_library_estimate(capsys):
    # coverage is the library's to show, over many seeds; the command must
    # print the library's estimate for its seed, digit for digit
    code, out, _ = run(capsys, "simulate", str(MODELS / "du.san"), "--reward",
                       "up", "--horizon", "1e7", "--seed", "1")
    assert code == 0
    report = kv(out)
    est = simulate(parse_model((MODELS / "du.san").read_text()), "up",
                   horizon=1e7, seed=1)
    assert (float(report["point"]), float(report["ci_halfwidth"])) == (
        est.point, est.ci_halfwidth)


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


@pytest.mark.parametrize("command", ["solve", "simulate"])
def test_overflowing_exit_rate_exits_1(capsys, tmp_path, command):
    # "fail" and "fail2" are each finite, but their sum in Up is not
    path = tmp_path / "overflow.san"
    path.write_text((DATA / "two_state.san").read_text() + """\
activity timed fail2 rate "lam" {
  input "#Up >= 1" { Up -= 1 }
  case 1 { Down += 1 }
}
""")
    code, out, err = run(capsys, command, str(path), "--reward", "up", "--set", "lam=1e308")
    assert code == 1 and not out
    lines = err.strip().splitlines()
    assert lines == ["error: exit rate inf in marking {'Down': 0, 'Up': 1} is not finite"]


def test_non_finite_initial_count_exits_1(capsys, tmp_path):
    path = tmp_path / "inf_count.san"
    path.write_text((DATA / "two_state.san").read_text()
                    .replace("place Up = 1", "place Up = 1e400"))
    code, out, err = run(capsys, "solve", str(path), "--reward", "up")
    assert code == 1 and not out
    assert err.strip().splitlines() == [
        "error: invalid model: place 'Up' has non-integer initial tokens (inf)"]


@pytest.mark.parametrize("command", ["solve", "simulate"])
@pytest.mark.parametrize("value, shown", [("1e400", "inf"), ("1e400 - 1e400", "nan")])
def test_non_finite_effect_exits_1(capsys, tmp_path, command, value, shown):
    path = tmp_path / "inf_effect.san"
    path.write_text((DATA / "two_state.san").read_text()
                    .replace("case 1 { Up += 1 }", f"case 1 {{ Up += {value} }}"))
    code, out, err = run(capsys, command, str(path), "--reward", "up")
    assert code == 1 and not out
    assert err.strip().splitlines() == [
        f"error: activity 'repair' drives place 'Up' to non-integer count {shown}"]


@pytest.mark.parametrize("command", ["solve", "simulate"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_override_exits_64(capsys, command, value):
    code, out, err = run(capsys, command, str(MODELS / "ru.san"), "--reward", "up",
                         "--set", f"mu_RH={value}")
    assert code == 64 and not out
    assert err.strip().splitlines() == [
        "usage error: overrides make the model invalid: "
        f"parameter 'mu_RH' is not a finite number ({value})"]


@pytest.mark.parametrize("command", ["solve", "simulate"])
def test_non_finite_parameter_exits_1(capsys, tmp_path, command):
    # a simulation over this horizon never reaches the marking mu_RH weighs
    path = tmp_path / "inf_param.san"
    path.write_text((MODELS / "ru.san").read_text()
                    .replace("param mu_RH = 0.16666666666666666", "param mu_RH = 1e400"))
    extra = ("--horizon", "1e3") if command == "simulate" else ()
    code, out, err = run(capsys, command, str(path), "--reward", "up", *extra)
    assert code == 1 and not out
    assert err.strip().splitlines() == [
        "error: invalid model: parameter 'mu_RH' is not a finite number (inf)"]


def test_ft_paper_zeros(capsys):
    code, out, _ = run(capsys, "ft", "--paper",
                       *("--u-ru 0 --u-du 0 --u-cu 0 --u-meh 0 "
                         "--u-5gc 0 --u-mano 0".split()))
    assert code == 0
    assert kv(out)["u_sys"] == "0.0"


def test_ft_paper_keeps_digits_at_tiny_unavailabilities(capsys):
    # six independent U = 1e-12 in series: 1 - (1 - u)^6 = 6u - 15u^2 + ...
    code, out, _ = run(capsys, "ft", "--paper",
                       *("--u-ru 1e-12 --u-du 1e-12 --u-cu 1e-12 --u-meh 1e-12 "
                         "--u-5gc 1e-12 --u-mano 1e-12".split()))
    assert code == 0
    assert float(kv(out)["u_sys"]) == pytest.approx(6e-12 - 1.5e-23, rel=1e-14, abs=0)


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


def test_ft_non_finite_k_exits_1(capsys, tmp_path):
    bad = tmp_path / "inf_k.ft"
    bad.write_text("kofn(1e400, basic(a, 0.1), basic(b, 0.2))")
    code, out, err = run(capsys, "ft", str(bad))
    assert code == 1 and not out
    assert err.strip().splitlines() == [
        "error: k must be an integer, got inf at line 1, column 1"]


@pytest.mark.parametrize("name, text, where", [
    ("greek.san", (DATA / "two_state.san").read_text().replace("lam", "\u03bc"),
     "line 3, column 7"),
    ("greek.ft", "or(basic(\u03bc, 0.1), basic(b, 0.2))", "line 1, column 10"),
], ids=["san", "ft"])
def test_non_ascii_name_exits_1(capsys, tmp_path, name, text, where):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    command = ("ft",) if name.endswith(".ft") else ("solve",)
    extra = () if name.endswith(".ft") else ("--reward", "up")
    code, out, err = run(capsys, *command, str(path), *extra)
    assert code == 1 and not out
    assert err.strip().splitlines() == [f"error: unexpected character '\u03bc' at {where}"]


def test_paper_table3_csv(capsys, tmp_path):
    out_csv = tmp_path / "t3.csv"
    code, out, _ = run(capsys, "paper", "table3", "--out", str(out_csv))
    assert code == 0
    assert kv(out)["rows"] == "36"
    rows = list(csv.DictReader(io.StringIO(out_csv.read_text())))
    assert len(rows) == 36
    assert rows[0]["config"] == "N_C=1,N_D=1,N_R=1,N_H=1"


def test_paper_fig6_rows(capsys, tmp_path):
    out_csv = tmp_path / "f6.csv"
    code, out, _ = run(capsys, "paper", "fig6", "--out", str(out_csv))
    assert code == 0
    text = out_csv.read_text()
    for mk in ("(10,10)", "(10,9)", "(10,8)"):
        assert f"both:(M,K)={mk}" in text


def test_paper_csv_to_stdout(capsys):
    code, out, _ = run(capsys, "paper", "fig7", "--out", "-")
    assert code == 0
    assert out.splitlines()[0].startswith("config,")
    assert len(out.strip().splitlines()) == 9


def test_paper_writes_a_large_whole_alpha_as_the_san_writer_does(capsys):
    # alpha columns and config names print as expr.format_number does
    code, out, _ = run(capsys, "paper", "fig8", "--set", "alpha_O=1e20", "--out", "-")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [(r["alpha_H"], r["alpha_O"]) for r in rows[:2]] == [("0.01", "1e+20"),
                                                                ("0.1", "1e+20")]
    assert [r["config"] for r in rows[5:7]] == ["alpha_O=0.01,targets=both",
                                                "alpha_O=0.1,targets=both"]


def test_paper_rejects_zero_rate_exits_64(capsys):
    code, _, err = run(capsys, "paper", "table3", "--set", "lambda_SW=0")
    assert code == 64
    assert "rates must be > 0" in err


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_paper_rejects_non_finite_rate_exits_64(capsys, value):
    code, out, err = run(capsys, "paper", "fig7", "--set", f"lambda_SW={value}",
                         "--out", "-")
    assert code == 64 and not out
    assert "rates must be > 0" in err


def test_paper_rejects_unknown_parameter_exits_64(capsys):
    code, _, err = run(capsys, "paper", "table3", "--set", "lambda_XX=1")
    assert code == 64


def test_paper_rejects_fractional_cluster_size_exits_64(capsys):
    code, _, err = run(capsys, "paper", "fig6", "--set", "K=8.7", "--out", "-")
    assert code == 64
    assert "K must be a whole number, got 8.7" in err


def test_paper_accepts_whole_cluster_size_as_float(capsys):
    code, out, _ = run(capsys, "paper", "fig7", "--set", "K=9.0", "--out", "-")
    assert code == 0
    _, default, _ = run(capsys, "paper", "fig7", "--out", "-")
    assert out == default


def test_paper_has_no_jobs_option(capsys):
    code, out, err = run(capsys, "paper", "fig7", "--out", "-", "--jobs", "1")
    assert code == 64 and not out
    assert "unrecognized arguments: --jobs 1" in err


def test_paper_json_summary(capsys, tmp_path):
    code, out, _ = run(capsys, "paper", "fig7", "--out",
                       str(tmp_path / "f7.csv"), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["rows"] == 8 and report["study"] == "fig7"


def test_usage_error_on_unknown_subcommand(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 64


def _override(name, value):
    """A different legal value for the intensity-table field ``name``."""
    if name.startswith("alpha_"):
        return 10 * value
    if name.startswith("lambda_"):
        return 3 * value
    if name.startswith("mu_"):
        return value / 2
    if name.startswith("C_"):
        return 0.5
    return {"M": 12, "K": 8}[name]


def _document_fields():
    fields = {f.name for f in dataclasses.fields(md.IntensityTable)}
    for doc in ("ru", "du", "cu", "meh", "cluster"):
        declared = parse_model((MODELS / f"{doc}.san").read_text()).parameters
        for name in declared:
            if name in fields:
                yield doc, name


def test_every_table_field_is_declared_by_a_document():
    declared = {name for _, name in _document_fields()}
    assert declared == {f.name for f in dataclasses.fields(md.IntensityTable)}


@pytest.mark.parametrize("doc, name", list(_document_fields()))
def test_set_reaches_every_derived_value(capsys, table, doc, name):
    # the document with one catalog entry overridden is the library's element
    value = _override(name, getattr(table, name))
    code, out, err = run(capsys, "solve", str(MODELS / f"{doc}.san"), "--reward", "up",
                         "--set", f"{name}={value!r}")
    assert code == 0, err
    kind = md.ElementKind.CLUSTER_5GC if doc == "cluster" else md.ElementKind(doc)
    expected = md.element_unavailability(kind, table.with_overrides(**{name: value}))
    assert float(kv(out)["unavailability"]) == expected


@pytest.mark.parametrize("override, message", [
    ("K=0", "parameter 'lambda_Hi': division by zero in alpha_H * lambda_HW * M / K; "
            "parameter 'lambda_Oi': division by zero in alpha_O * lambda_OS * M / K"),
    ("M=10.5", "place 'Working' has non-integer initial tokens (10.5)"),
    ("C_HW=1.5", "activity 'HW_F1' case 0: probability 1.5 outside [0, 1]; "
                 "activity 'HW_F1' case 1: probability -0.5 outside [0, 1]"),
])
def test_out_of_domain_cluster_override_exits_64(capsys, override, message):
    code, out, err = run(capsys, "solve", str(MODELS / "cluster.san"), "--reward", "up",
                         "--set", override)
    assert code == 64 and not out
    assert err.strip().splitlines() == [
        f"usage error: overrides make the model invalid: {message}"]


def test_override_nothing_reads_exits_64(capsys, tmp_path):
    # "twice" is read by nothing, so "spare", read only by twice's value, is not read
    path = tmp_path / "spare.san"
    path.write_text((DATA / "two_state.san").read_text()
                    + "param spare = 1\nparam twice = 2 * spare\n")
    for names, unread in ((["twice"], "twice"), (["spare"], "spare"),
                          (["spare", "twice", "lam"], "spare, twice")):
        code, out, err = run(capsys, "solve", str(path), "--reward", "up",
                             *(f"--set={name}=2" for name in names))
        assert code == 64 and not out
        assert err.strip().splitlines() == [
            f"usage error: --set names that nothing in the model reads: {unread}"]


def test_override_reaches_through_parameter_chains(capsys, tmp_path):
    # lam reads base through half; base is read, two parameters away from the rate
    path = tmp_path / "chain.san"
    path.write_text((DATA / "two_state.san").read_text()
                    .replace("param lam = 0.1", "param base = 0.4\nparam half = base / 2\n"
                             "param lam = half / 2"))
    code, out, _ = run(capsys, "solve", str(path), "--reward", "up", "--set", "base=0.8")
    assert code == 0
    assert float(kv(out)["unavailability"]) == pytest.approx(0.2 / 1.1, rel=1e-12)
