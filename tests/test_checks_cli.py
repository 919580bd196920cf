"""Verification suite wiring and the command-line surface."""

import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg

import cvclone
from cvclone import checks, cli, fock, network
from cvclone.errors import TruncationWarning

FLOAT_RE = re.compile(r"^-?\d\.\d{11}e[+-]\d{2,3}$")


# ------------------------------------------------------------------- checks

def test_run_all_statuses_at_moderate_truncation():
    results = checks.run_all(truncation=16)
    by_name = {r.name: r for r in results}
    assert list(by_name) == ["commutator-algebra", "bch-identity",
                             "unitarity", "backend-equivalence",
                             "weyl-covariance", "clone-symmetry",
                             "gains-consistency"]
    assert by_name["backend-equivalence"].status == "skip"
    for name, res in by_name.items():
        if name != "backend-equivalence":
            assert res.status == "pass", f"{name}: {res.detail}"
            assert res.seconds >= 0.0


def test_run_all_skips_algebra_checks_at_minimum_truncation():
    results = checks.run_all(truncation=8)
    skipped = {r.name for r in results if r.status == "skip"}
    assert skipped == {"bch-identity", "backend-equivalence",
                       "weyl-covariance", "clone-symmetry"}
    for r in results:
        if r.name not in skipped:
            assert r.status == "pass", f"{r.name}: {r.detail}"


@pytest.mark.parametrize("truncation", [8, 12, 13, 14, 15, 16, 25])
def test_run_all_is_quiet_at_every_truncation(truncation):
    # a TruncationWarning raised inside a check turns it into a failure
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        results = checks.run_all(truncation)
    assert [r.name for r in results] == [
        "commutator-algebra", "bch-identity", "unitarity",
        "backend-equivalence", "weyl-covariance", "clone-symmetry",
        "gains-consistency"]
    for r in results:
        assert r.status in ("pass", "skip"), f"{r.name}: {r.detail}"
    by_name = {r.name: r for r in results}
    if truncation < 15:
        assert by_name["weyl-covariance"].detail == "needs truncation >= 15"
    if truncation < 14:
        assert by_name["clone-symmetry"].detail == "needs truncation >= 14"


@pytest.fixture
def skewed_gains(monkeypatch):
    """network.gains with G1 scaled by 1 + 2e-6, far above the check's 1e-12."""
    exact = network.gains

    def skewed(spec):
        g1, g2, g3 = exact(spec)
        return g1 * (1.0 + 2e-6), g2, g3

    monkeypatch.setattr(network, "gains", skewed)


def test_wrong_gains_are_caught_by_name(skewed_gains):
    results = checks.run_all(truncation=8)
    by_name = {r.name: r for r in results}
    bad = by_name["gains-consistency"]
    assert bad.failed
    assert "measured" in bad.detail and "expected" in bad.detail
    others = [r for r in results if r.name != "gains-consistency"
              and r.status != "skip"]
    assert all(not r.failed for r in others)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 40])
@pytest.mark.parametrize("k", [0, 3])
@pytest.mark.parametrize("lam", [0.3, 1.2])
def test_chain_expm_matches_dense_expm(n, k, lam):
    # lengths 1-5 reach every (c - r) mod 4 case of the real-arithmetic form
    na = np.arange(n) + k
    nb = np.arange(n)
    w = np.sqrt(na[1:] * nb[1:])
    rows = (na < 6) & (nb < 6)
    chain = np.diag(w, 1) - np.diag(w, -1)
    dense = scipy.linalg.expm(lam * chain)[rows]
    got = checks._chain_expm(lam, w, rows)
    assert got.shape == dense.shape
    assert np.abs(got - dense).max(initial=0.0) < 1e-13


def _scaled(fn):
    return lambda *args: fn(*args) * (1.0 + 1e-6)


def test_bch_check_fails_on_perturbed_sector_exponential(monkeypatch):
    monkeypatch.setattr(checks, "_chain_expm", _scaled(checks._chain_expm))
    status, detail = checks._check_bch(12)
    assert status == "fail", detail


def test_unitarity_check_fails_on_perturbed_exponential(monkeypatch):
    monkeypatch.setattr(fock, "expm_apply", _scaled(fock.expm_apply))
    status, detail = checks._check_unitarity(12)
    assert status == "fail", detail


def test_run_all_truncation_bounds():
    from cvclone.errors import InvalidArgumentError
    with pytest.raises(InvalidArgumentError):
        checks.run_all(truncation=7)
    with pytest.raises(InvalidArgumentError):
        checks.run_all(truncation=33)


def test_check_result_failed_property():
    ok = checks.CheckResult("x", "pass", "", 0.0)
    bad = checks.CheckResult("x", "fail", "", 0.0)
    skipped = checks.CheckResult("x", "skip", "", 0.0)
    assert not ok.failed and bad.failed and not skipped.failed


# ---------------------------------------------------------------- cli: sweep

def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def test_sweep_csv_is_deterministic(tmp_path):
    args = ["sweep", "--lambda-min", "1", "--lambda-max", "8",
            "--steps", "8", "--alpha", "1,0"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    text = _read(out1)
    assert text == _read(out2)
    lines = text.strip().split("\n")
    assert lines[0] == ("lambda,G1,G2,G3,var_x,var_y,product,"
                        "fidelity_c,fidelity_a")
    assert len(lines) == 9
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 9
        for cell in cells:
            assert FLOAT_RE.match(cell), cell


def test_sweep_respects_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# sweep configuration\n"
                   "lambda_min = 1.0\n"
                   "lambda_max = 4.0   # inline comment\n"
                   "steps = 4\n"
                   "alpha = 0.5,0.0\n", encoding="utf-8")
    out = tmp_path / "swept.csv"
    code = cli.main(["sweep", "--config", str(cfg), "--steps", "2",
                     "--out", str(out)])
    assert code == 0
    lines = _read(out).strip().split("\n")
    assert len(lines) == 3  # header + the overriding 2 steps
    assert lines[1].startswith("1.00000000000e+00,")
    assert lines[2].startswith("4.00000000000e+00,")


def test_config_file_errors(tmp_path):
    bad_key = tmp_path / "bad.cfg"
    bad_key.write_text("unknown_thing = 3\n", encoding="utf-8")
    assert cli.main(["sweep", "--config", str(bad_key), "--lambda-min", "1",
                     "--lambda-max", "2", "--steps", "2", "--alpha", "1,0",
                     "--out", str(tmp_path / "x.csv")]) == 2
    bad_line = tmp_path / "badline.cfg"
    bad_line.write_text("just some words\n", encoding="utf-8")
    assert cli.main(["sweep", "--config", str(bad_line), "--lambda-min", "1",
                     "--lambda-max", "2", "--steps", "2", "--alpha", "1,0",
                     "--out", str(tmp_path / "x.csv")]) == 2
    assert cli.main(["sweep", "--config", str(tmp_path / "missing.cfg"),
                     "--lambda-min", "1", "--lambda-max", "2", "--steps", "2",
                     "--alpha", "1,0", "--out", str(tmp_path / "x.csv")]) == 3


def test_exit_codes_for_bad_parameters(tmp_path):
    out = str(tmp_path / "o.csv")
    assert cli.main(["sweep", "--lambda-min", "0", "--lambda-max", "2",
                     "--steps", "2", "--alpha", "1,0", "--out", out]) == 2
    assert cli.main(["sweep", "--lambda-min", "3", "--lambda-max", "2",
                     "--steps", "2", "--alpha", "1,0", "--out", out]) == 2
    assert cli.main(["clone", "--lambda", "13", "--alpha", "1,0"]) == 2
    assert cli.main(["clone", "--lambda", "2", "--alpha", "1,0",
                     "--truncation", "7"]) == 2
    assert cli.main(["povm", "--lambda", "3", "--phi", "0", "--theta", "3.5",
                     "--grid", "11,4"]) == 2
    # missing required pieces
    assert cli.main(["sweep", "--lambda-min", "1", "--lambda-max", "2",
                     "--steps", "2", "--alpha", "1,0"]) == 2
    assert cli.main(["povm", "--lambda", "3", "--phi", "0",
                     "--theta", "1.5"]) == 2


def test_exit_code_for_unwritable_output(tmp_path):
    assert cli.main(["sweep", "--lambda-min", "1", "--lambda-max", "2",
                     "--steps", "2", "--alpha", "1,0",
                     "--out", str(tmp_path / "no" / "dir" / "x.csv")]) == 3


# ---------------------------------------------------------------- cli: clone

def test_clone_command_output(tmp_path, capsys):
    out = tmp_path / "clone.csv"
    code = cli.main(["clone", "--lambda", "0.34657359027997264",
                     "--alpha", "1,0", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "G1 = 1.00000000000e+00" in text
    assert "clone_c:" in text and "clone_a:" in text
    lines = _read(out).strip().split("\n")
    assert lines[0] == "clone,mean_x,mean_y,var_x,var_y,fidelity"
    assert len(lines) == 3


def test_clone_fock_backend_reports_distance(capsys):
    code = cli.main(["clone", "--lambda", "6", "--alpha", "0.5,0",
                     "--backend", "fock", "--truncation", "16"])
    assert code == 0
    text = capsys.readouterr().out
    m = re.search(r"clone trace distance = (\S+)", text)
    assert m and float(m.group(1)) < 1e-3


def _clone_a_var_y(text):
    m = re.search(r"clone_a: .* var = \((\S+), (\S+)\)", text)
    return float(m.group(2))


def test_clone_fock_general_width_matches_symplectic(capsys):
    args = ["clone", "--lambda", "4", "--alpha", "0.3,0", "--sigma", "2"]
    assert cli.main(args) == 0
    expect = _clone_a_var_y(capsys.readouterr().out)
    assert expect == pytest.approx(0.3125, abs=1e-4)    # 1/4 + 1/(4 sigma^2)
    assert cli.main(args + ["--backend", "fock", "--truncation", "32"]) == 0
    assert _clone_a_var_y(capsys.readouterr().out) == pytest.approx(
        expect, abs=1e-3)                                 # measured 0.31249


# ----------------------------------------------------------------- cli: povm

def test_povm_table_structure(capsys):
    code = cli.main(["povm", "--lambda", "3", "--phi", "0",
                     "--theta", "1.5707963267948966", "--grid", "41,6"])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].startswith("# lambda = 3.00000000000e+00")
    assert "alpha = 0j" in lines[0]
    assert any(l == "# E = 0.00000000000e+00" or
               l.startswith("# E = 1.2") and "e-19" in l for l in lines)
    header_at = lines.index("x,x_prime,density")
    assert header_at == 9
    assert len(lines) == 9 + 1 + 41 * 41 + 1
    m = re.match(r"# integral = (\S+)", lines[-1])
    assert m and abs(float(m.group(1)) - 1.0) < 1e-2
    row = lines[header_at + 1].split(",")
    assert len(row) == 3 and all(FLOAT_RE.match(c) for c in row)


def test_povm_to_file_matches_stdout(tmp_path, capsys):
    args = ["povm", "--lambda", "2", "--phi", "0.3",
            "--theta", "1.9", "--grid", "11,4", "--alpha", "0.4,-0.2"]
    assert cli.main(args) == 0
    direct = capsys.readouterr().out
    out = tmp_path / "povm.csv"
    assert cli.main(args + ["--out", str(out)]) == 0
    assert _read(out) == direct


def test_povm_refuses_truncated_coherent_input(capsys):
    code = cli.main(["povm", "--lambda", "3", "--phi", "0",
                     "--theta", "1.5707963267948966", "--grid", "11,4",
                     "--alpha=3,0", "--truncation", "16"])
    assert code == cli.EXIT_BAD_CONFIG == 2
    assert "raise truncation" in capsys.readouterr().err


@pytest.mark.parametrize("truncation", ["18", "32"])
def test_clone_refuses_leaking_general_width_prep(truncation, capsys):
    code = cli.main(["clone", "--lambda", "3", "--alpha", "0.1,0",
                     "--sigma", "4", "--backend", "fock",
                     "--truncation", truncation])
    assert code == cli.EXIT_BAD_CONFIG == 2
    assert "after preparation; raise truncation" in capsys.readouterr().err


# --------------------------------------------------------------- cli: verify

def test_verify_command_reports_and_skips(capsys):
    code = cli.main(["verify", "--truncation", "8"])
    assert code == 0
    text = capsys.readouterr().out
    assert "verification passed" in text
    assert text.count("SKIP") == 4
    assert "gains-consistency" in text


def test_verify_fails_on_wrong_gains(skewed_gains, capsys):
    code = cli.main(["verify", "--truncation", "8"])
    assert code == 1
    text = capsys.readouterr().out
    assert "verification FAILED" in text
    line = next(l for l in text.split("\n")
                if l.startswith("gains-consistency"))
    assert "FAIL" in line


def _child_env():
    # a child process must import the same cvclone as this one, installed
    # or not
    src = os.path.dirname(os.path.dirname(cvclone.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_module_entry_point():
    out = subprocess.run([sys.executable, "-m", "cvclone.cli", "clone",
                          "--lambda", "1", "--alpha", "0,0"],
                         capture_output=True, text=True, env=_child_env())
    assert out.returncode == 0
    assert "gains:" in out.stdout


def test_fock_paths_do_not_import_scipy_linalg():
    # importing scipy.linalg adds 50-120 ms to every fresh process that
    # builds a preparation or an outcome grid
    script = (
        "import math, sys\n"
        "import numpy as np\n"
        "import cvclone\n"
        "from cvclone import fock, measurement, network\n"
        "network.preparation_state(2.0, 'fock', truncation=18)\n"
        "p = measurement.povm_params(3.0, 0.0, math.pi / 2.0)\n"
        "measurement.povm_density_grid(p, np.zeros(3), np.zeros(3),\n"
        "                              fock.vacuum_fock((16,)))\n"
        "print('scipy.linalg' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, env=_child_env())
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_unexpected_error_maps_to_exit_four(monkeypatch, capsys):
    def broken(cfg):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_clone", broken)
    code = cli.main(["clone", "--lambda", "1", "--alpha", "0,0"])
    assert code == cli.EXIT_INTERNAL == 4
    err = capsys.readouterr().err
    assert err == "internal error: RuntimeError: boom\n"
    assert "Traceback" not in err


def test_truncation_overflow_maps_to_exit_two(capsys):
    code = cli.main(["clone", "--lambda", "8", "--alpha", "2,0",
                     "--backend", "fock", "--truncation", "8"])
    assert code == cli.EXIT_BAD_CONFIG == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration: ")
    assert "raise truncation" in err
    assert "internal error" not in err


def test_negative_real_alpha_in_equals_form(capsys):
    code = cli.main(["clone", "--lambda", "3", "--alpha=-0.3,0.6"])
    assert code == 0
    assert "clone_c: mean = (-3" in capsys.readouterr().out


def test_argparse_error_maps_to_exit_two():
    assert cli.main(["sweep", "--alpha", "nonsense"]) == 2
    assert cli.main([]) != 0


def test_parser_is_built_once_and_keeps_no_state(capsys):
    assert cli._build_parser() is cli._build_parser()
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            cli._build_parser().parse_args(["clone", "--help"])
        assert exc.value.code == 0
    first, second = capsys.readouterr().out.split("usage:")[1:]
    assert first == second
    assert cli.main(["clone", "--lambda", "3", "--alpha", "0.1,0",
                     "--truncation", "20", "--sigma", "2"]) == 0
    args = cli._build_parser().parse_args(["verify"])
    assert (args.truncation, args.seed) == (None, None)
    args = cli._build_parser().parse_args(["clone"])
    assert (args.lam, args.alpha, args.sigma) == (None, None, None)
    for _ in range(2):
        assert cli.main(["clone", "--lambda", "x"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == err[len(err) // 2 - 1]
    assert "invalid float value: 'x'" in err[-1]


def test_random_circuits_keep_the_squeeze_cap():
    for seed in range(300):
        rng = np.random.default_rng(seed)
        for _ in range(5):
            gates, _ = checks._random_circuit(rng)
            total = sum(s for kind, _, _, s in gates if kind == "tms")
            assert total <= checks._SQUEEZE_CAP * (1.0 + 1e-12)


@pytest.mark.parametrize("seed", [5, 109, 110, 666291129, 666291192])
def test_backend_equivalence_passes_where_the_tail_once_leaked(seed):
    # with a total squeeze of 0.75 these seeds drew circuits whose output
    # tail at d = 25 left moment gaps of 6e-5, 2.7e-4, 4.2e-4, 1.9e-6, 3.4e-3
    status, detail = checks._check_backend_equivalence(25, seed)
    assert status == "pass", detail
