"""Verification suite wiring and the command-line surface."""

import ast
import dataclasses
import functools
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import cvclone
from cvclone import checks, cli, fock, gaussian, network
from cvclone.errors import (InvalidArgumentError, TruncationOverflowError,
                            TruncationWarning)

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


def test_gains_are_read_off_the_built_gates():
    status, detail = checks._check_gains()
    assert (status, detail) == ("pass",
                                "max gain deviation 0.00e+00 (tol 1e-12)")


def _gains_result():
    by_name = {r.name: r for r in checks.run_all(truncation=8)}
    return by_name["gains-consistency"]


def test_a_wrong_gate_entry_fails_the_gains_check(monkeypatch):
    # the printed gains and the closed forms still agree; only the gate lies
    exact = gaussian.two_mode_squeezer

    def skewed(n_modes, i, j, r):
        matrix = exact(n_modes, i, j, r).matrix.copy()
        matrix[2 * i, 2 * i] *= 1.0 + 1e-9
        return gaussian._trusted(gaussian.SymplecticTransform, matrix=matrix)

    monkeypatch.setattr(gaussian, "two_mode_squeezer", skewed)
    bad = _gains_result()
    assert bad.failed
    assert "off the gates" in bad.detail and "expected" in bad.detail


def test_a_wrong_stage_strength_fails_the_gains_check(monkeypatch):
    # the gates and the printed gains agree with each other, not the paper
    exact = network.network_from_lambda

    def skewed(lam, sigma=1.0):
        spec = exact(lam, sigma)
        st = spec.stages[1]
        stages = (spec.stages[0], st._replace(strength=st.strength * 1.01),
                  spec.stages[2])
        return dataclasses.replace(spec, stages=stages)

    monkeypatch.setattr(network, "network_from_lambda", skewed)
    assert _gains_result().failed


@functools.lru_cache(maxsize=None)
def _dense_chain_rows(k, lam):
    # first six rows of exp(lam G_k) for a chain of 600 levels: rows with
    # k + r <= 22 are still squeezed well short of its edge at lam = 1.2
    na = np.arange(600) + k
    nb = np.arange(600)
    w = np.sqrt(na[1:] * nb[1:])
    chain = np.diag(w, 1) - np.diag(w, -1)
    return scipy.linalg.expm(lam * chain)[:6]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 40, 300])
@pytest.mark.parametrize("k", [0, 3, 17])
@pytest.mark.parametrize("lam", [0.3, 1.2])
def test_chain_expm_matches_dense_expm(n, k, lam):
    # n closed-form columns, at most half the dense chain; with 1-5 columns
    # for six rows, entries below the diagonal reach |r - c| past the last
    # column
    got = checks._sector_rows(lam, k + 6, n)[k, :6]
    dense = _dense_chain_rows(k, lam)[:, :n]
    assert got.shape == dense.shape
    assert np.abs(got - dense).max() < 1e-13


@pytest.mark.parametrize("truncation", [12, 16, 25, 32])
def test_window_rows_have_unit_norm(truncation):
    # exact rows of the orthogonal sector exponential have unit norm, so a
    # column count too short for the tail would show here
    win = truncation - checks.GUARD_BAND
    for lam in checks._BCH_STRENGTHS:
        rows = checks._window_rows(lam, win)
        for k in range(win):
            norms = (rows[k, :win - k] ** 2).sum(axis=1)
            assert np.abs(norms - 1.0).max() < 1e-13, (lam, k)


def _padded_chain_rows(lam, weights, rows):
    # rows of exp(lam G) for a chain cut at weights.size + 1 levels: G is
    # diag(i^m) (-i T) diag(i^-m) with T = Q diag(theta) Q^T symmetric, so
    # entry (r, c) is Re(i^(c-r) (C - iS)) with C = Q cos(lam theta) Q^T and
    # S = Q sin(lam theta) Q^T
    n = weights.size + 1
    if n == 1:
        return np.ones((1, 1))[rows]
    theta, q = scipy.linalg.eigh_tridiagonal(np.zeros(n), weights)
    q_rows = q[rows]
    cos_part = (q_rows * np.cos(lam * theta)) @ q.T
    sin_part = (q_rows * np.sin(lam * theta)) @ q.T
    idx = np.arange(n)
    shift = (idx[None, :] - idx[rows][:, None]) % 4
    return (np.where(shift & 1, sin_part, cos_part)
            * np.where(shift & 2, -1.0, 1.0))


def _padded_chain_bch_residual(truncation):
    """The window residual as the eigendecomposition version computed it.

    Each sector chain is cut at a pad of 2 win e^(2 lam) + 5 levels and
    exponentiated through one tridiagonal eigendecomposition.
    """
    win = truncation - checks.GUARD_BAND
    worst = 0.0
    for lam in checks._BCH_STRENGTHS:
        pad = int(math.ceil(win * math.exp(2.0 * lam) * 2.0)) + 5
        cache = {}

        def sector(k):
            if abs(k) not in cache:
                nb = np.arange(pad - abs(k))
                na = nb + abs(k)
                win_rows = (na < win) & (nb < win)
                cache[abs(k)] = (na, nb, win_rows, _padded_chain_rows(
                    lam, np.sqrt(na[1:] * nb[1:]), win_rows))
            na, nb, win_rows, ek = cache[abs(k)]
            return (na, nb, win_rows, ek) if k >= 0 else (nb, na, win_rows, ek)

        for k in range(-win, win - 1):
            na, nb, cols, ek = sector(k)
            na2, _, rows, ek2 = sector(k + 1)
            length, length2 = na.size, na2.size
            m = np.arange(length)
            bmat = np.zeros((length2, length))
            mp = m - 1 if k >= 0 else m
            ok = (nb > 0) & (mp >= 0) & (mp < length2)
            bmat[mp[ok], m[ok]] = np.sqrt(nb[ok])
            conjugated = ek2 @ bmat @ ek.T
            target = math.cosh(lam) * bmat
            mp2 = na + 1 - max(k + 1, 0)
            ok2 = (mp2 >= 0) & (mp2 < length2) & (na + 1 < pad)
            target[mp2[ok2], m[ok2]] += math.sinh(lam) * np.sqrt(na[ok2] + 1.0)
            diff = np.abs(conjugated - target[np.ix_(rows, cols)])
            if diff.size:
                worst = max(worst, float(diff.max()))
    return worst


def _bch_residual(truncation):
    status, detail = checks._check_bch(truncation)
    assert status == "pass", detail
    return float(detail.split()[3])


@pytest.mark.parametrize("truncation", [14, 16, 20, 25, 28, 32])
def test_bch_residual_matches_padded_chain(truncation):
    ref = _padded_chain_bch_residual(truncation)
    got = _bch_residual(truncation)
    assert got < 1e-12
    assert abs(got - ref) < 1e-12


@pytest.mark.parametrize("truncation", [12, 13])
def test_bch_residual_beats_padded_chain_at_its_edge(truncation):
    # the fixed pad lets the chain edge reach the window at these sizes
    assert _bch_residual(truncation) < _padded_chain_bch_residual(truncation)


def _scaled(fn):
    return lambda *args: fn(*args) * (1.0 + 1e-6)


def test_bch_check_fails_on_perturbed_sector_exponential(monkeypatch):
    monkeypatch.setattr(checks, "_sector_rows", _scaled(checks._sector_rows))
    status, detail = checks._check_bch(12)
    assert status == "fail", detail


def test_unitarity_check_fails_on_perturbed_exponential(monkeypatch):
    monkeypatch.setattr(fock, "pair_expm_apply",
                        _scaled(fock.pair_expm_apply))
    status, detail = checks._check_unitarity(12)
    assert status == "fail", detail


def test_nan_residuals_fail_their_checks(monkeypatch):
    # the builtin max(0.0, nan) is 0.0, which once let NaN amplitudes pass
    # backend-equivalence with a moment gap of 0.00e+00
    exact = fock.pair_expm_apply
    monkeypatch.setattr(fock, "pair_expm_apply",
                        lambda *args: exact(*args) * np.nan)
    status, detail = checks._check_backend_equivalence(25, 21)
    assert status == "fail" and "nan" in detail, detail
    monkeypatch.setattr(fock, "pair_expm_apply", exact)
    monkeypatch.setattr(fock, "trace_distance", lambda r1, r2: math.nan)
    status, detail = checks._check_weyl_covariance(16, 21)
    assert status == "fail" and "nan" in detail, detail


def test_pair_gate_checks_run_no_chebyshev_sum(monkeypatch):
    # every gate of unitarity and backend-equivalence is a single pair, so
    # each runs as chain exponentials
    calls = []
    real = fock.expm_apply
    monkeypatch.setattr(fock, "expm_apply",
                        lambda mat, vec: calls.append(mat.shape)
                        or real(mat, vec))
    assert checks._check_unitarity(25)[0] == "pass"
    assert checks._check_backend_equivalence(25, 21)[0] == "pass"
    assert calls == []


def test_run_all_truncation_bounds():
    with pytest.raises(InvalidArgumentError):
        checks.run_all(truncation=7)
    with pytest.raises(InvalidArgumentError):
        checks.run_all(truncation=33)


@pytest.mark.parametrize("seed", [-1, 1.5, "3"])
def test_run_all_refuses_a_bad_seed_before_any_check(seed, monkeypatch):
    monkeypatch.setattr(checks, "_check_commutators", None)
    with pytest.raises(InvalidArgumentError, match="seed"):
        checks.run_all(truncation=25, seed=seed)


@pytest.mark.parametrize("truncation", ["8", "25"])
def test_verify_refuses_a_negative_seed(truncation, capsys):
    # exited 0 at truncation 8, where no check draws, and 4 at 25
    code = cli.main(["verify", "--seed", "-1", "--truncation", truncation])
    assert code == cli.EXIT_BAD_CONFIG == 2
    assert capsys.readouterr() == (
        "", "invalid configuration: seed must be a non-negative integer\n")


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


@pytest.mark.parametrize("argv", [
    ["clone", "--lambda", "3", "--alpha", "nan,0"],
    ["clone", "--lambda", "3", "--alpha", "inf,0"],
    ["clone", "--lambda", "3", "--alpha", "0,-inf", "--backend", "fock"],
    ["povm", "--lambda", "3", "--phi", "0", "--theta", "1.57",
     "--grid", "41,nan"],
    ["povm", "--lambda", "3", "--phi", "0", "--theta", "1.57",
     "--grid", "41,inf"],
])
def test_non_finite_input_exits_two(argv, capsys):
    assert cli.main(argv) == 2
    assert capsys.readouterr().out == ""


_POVM = ["povm", "--lambda", "3", "--phi", "0", "--theta", "1.57"]


@pytest.mark.parametrize("argv, message", [
    (["clone", "--lambda", "3", "--alpha", "nan,0"],
     "argument --alpha: alpha must be finite (got 'nan,0')"),
    (["clone", "--lambda", "3", "--alpha", "0.5"],
     "argument --alpha: alpha must be RE,IM (got '0.5')"),
    (["sweep", "--alpha", "1,x"], "argument --alpha: bad alpha component"),
    (_POVM + ["--grid", "41,abc"], "argument --grid: bad grid component"),
    (_POVM + ["--grid", "41"], "argument --grid: grid must be N,XMAX"),
], ids=["alpha-nan", "alpha-one-part", "alpha-bad-part", "grid-bad-part",
        "grid-one-part"])
def test_flag_parse_errors_keep_their_message(argv, message, capsys):
    # argparse once replaced these with "invalid _parse_complex value"
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "_parse" not in err


def test_non_finite_config_alpha_exits_two(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lambda = 3\nalpha = nan,0\n", encoding="utf-8")
    assert cli.main(["clone", "--config", str(cfg),
                     "--backend", "fock"]) == 2
    err = capsys.readouterr().err
    assert "alpha must be finite" in err
    assert "raise truncation" not in err


def test_config_grid_key_sets_the_outcome_grid(tmp_path, capsys):
    cfg = tmp_path / "povm.cfg"
    cfg.write_text("grid = 5,2.0\n", encoding="utf-8")
    assert cli.main(_POVM + ["--config", str(cfg)]) == 0
    rows = [line for line in capsys.readouterr().out.splitlines()
            if not line.startswith("#")][1:]
    assert len(rows) == 25
    assert rows[0].startswith("-2.00000000000e+00,-2.00000000000e+00,")
    # the flag overrides the file
    assert cli.main(_POVM + ["--config", str(cfg), "--grid", "3,1.0"]) == 0
    rows = [line for line in capsys.readouterr().out.splitlines()
            if not line.startswith("#")][1:]
    assert len(rows) == 9
    assert rows[0].startswith("-1.00000000000e+00,-1.00000000000e+00,")


def test_verify_truncation_comes_from_default_file_then_flag(tmp_path,
                                                             monkeypatch):
    seen = []
    monkeypatch.setattr(checks, "run_all",
                        lambda truncation, seed: seen.append(truncation) or [])
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("truncation = 12\n", encoding="utf-8")
    assert cli.main(["verify"]) == 0
    assert cli.main(["verify", "--config", str(cfg)]) == 0
    assert cli.main(["verify", "--config", str(cfg), "--truncation", "20"]) == 0
    assert seen == [25, 12, 20]


def test_config_sigma_outside_range_is_refused(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sigma = 9\n", encoding="utf-8")
    assert cli.main(["clone", "--config", str(cfg), "--lambda", "2",
                     "--alpha", "1,0"]) == 2
    assert capsys.readouterr().err == (
        "invalid configuration: sigma must lie in [0.25, 4]\n")


# the keys each command reads; it has a flag and a config key for these only
_READS = {
    "sweep": {"lambda_min", "lambda_max", "steps", "alpha", "sigma", "out"},
    "clone": {"lambda", "alpha", "sigma", "backend", "truncation", "out"},
    "povm": {"lambda", "phi", "theta", "grid", "alpha", "truncation", "out"},
    "verify": {"truncation", "seed"},
}
_VALUES = {"lambda": "3", "lambda_min": "1", "lambda_max": "2", "steps": "2",
           "alpha": "0.5,0", "sigma": "1", "backend": "fock",
           "truncation": "16", "seed": "3", "out": "x.csv", "phi": "0",
           "theta": "1.5", "grid": "5,2.0"}


def _flag(key):
    return "--" + key.replace("_", "-")


@pytest.mark.parametrize("command", sorted(_READS))
def test_a_command_takes_a_flag_only_for_a_key_it_reads(command, capsys):
    for key, value in _VALUES.items():
        argv = [command, _flag(key), value]
        if key in _READS[command]:
            cli._build_parser().parse_args(argv)
            continue
        with pytest.raises(SystemExit) as exc:
            cli._build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err
    assert sum(map(len, _READS.values())) == 21


@pytest.mark.parametrize("command", sorted(_READS))
def test_a_config_file_sets_only_the_keys_its_command_reads(command, tmp_path,
                                                            capsys):
    # a clone config with "seed = 3" once ran and ignored the line
    for key, value in _VALUES.items():
        cfg = tmp_path / f"{key}.cfg"
        cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
        code = cli.main([command, "--config", str(cfg)])
        err = capsys.readouterr().err
        if key in _READS[command]:
            assert "takes no key" not in err, (key, err)
        else:
            assert code == 2
            assert err == (f"invalid configuration: {cfg}:1: "
                           f"{command} takes no key {key!r}\n")


@pytest.mark.parametrize("argv", [
    ["sweep", "--lambda-min", "1", "--lambda-max", "2", "--alpha", "1,0",
     "--truncation", "16"],
    ["sweep", "--lambda-min", "1", "--lambda-max", "2", "--alpha", "1,0",
     "--seed", "1"],
    ["clone", "--lambda", "3", "--alpha", "0.5,0", "--seed", "1"],
    _POVM + ["--grid", "5,2.0", "--seed", "1"],
], ids=["sweep-truncation", "sweep-seed", "clone-seed", "povm-seed"])
def test_flags_a_command_never_read_are_refused(argv, tmp_path, capsys):
    out = tmp_path / "x.csv"
    argv = argv + (["--out", str(out)] if argv[0] == "sweep" else [])
    assert cli.main(argv) == 2
    assert capsys.readouterr().out == ""
    assert not out.exists()


def test_a_flag_must_be_spelled_in_full(capsys):
    # "verify --trunc 8" once ran at truncation 8 and exited 0, and
    # "sweep --lambda 3" failed as an ambiguous prefix of --lambda-min/max
    assert cli.main(["verify", "--trunc", "8"]) == 2
    assert "unrecognized arguments: --trunc 8" in capsys.readouterr().err
    assert cli.main(["sweep", "--lambda", "3"]) == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --lambda 3" in err
    assert "ambiguous" not in err


def test_backend_is_refused_by_its_own_parser(tmp_path, capsys):
    message = "backend must be gaussian or fock"
    argv = ["clone", "--lambda", "3", "--alpha", "0.5,0"]
    assert cli.main(argv + ["--backend", "nope"]) == 2
    assert f"argument --backend: {message}" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("backend = nope\n", encoding="utf-8")
    assert cli.main(argv + ["--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        f"invalid configuration: {cfg}:1: {message}\n")


_FULL = {
    "sweep": {"lambda_min": "1", "lambda_max": "2", "alpha": "1,0",
              "out": "x.csv"},
    "clone": {"lambda": "3", "alpha": "0.5,0"},
    "povm": {"lambda": "3", "phi": "0", "theta": "1.5", "grid": "5,2.0"},
}


@pytest.mark.parametrize("command, missing", [
    (command, key) for command, keys in _FULL.items() for key in keys])
def test_a_missing_required_key_names_its_flag(command, missing, capsys):
    argv = [command]
    for key, value in _FULL[command].items():
        if key != missing:
            argv += [_flag(key), value]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        f"invalid configuration: {command} needs {_flag(missing)}\n")


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


# Fock clone stdout, byte for byte: a change to the merged factor's term
# count or product order moves roundoff, which must not reach these digits
FOCK_CLONE_STDOUT = {
    ("--truncation", "16", "--lambda", "3", "--alpha", "0.5,0.2"): (
        'lambda = 3.00000000000e+00  sigma = 1.00000000000e+00'
        '  backend = fock\n'
        'gains: G1 = 5.09298385627e+01  G2 = 1.00994782119e+00'
        '  G3 = 1.01357818061e+02\n'
        'clone_c: mean = (5.02458233202e-01, 2.00983293281e-01)'
        '  var = (5.03231594194e-01, 5.03273885171e-01)'
        '  fidelity = 6.63726216844e-01\n'
        'clone_a: mean = (4.99583201685e-01, 1.99833280674e-01)'
        '  var = (5.00814624360e-01, 5.00820312465e-01)'
        '  fidelity = 6.65934566335e-01\n'
        'clone trace distance = 2.78065210949e-03\n'),
    ("--truncation", "25", "--lambda", "6", "--sigma", "1.5",
     "--alpha", "0.5,0.2"): (
        'lambda = 6.00000000000e+00  sigma = 1.50000000000e+00'
        '  backend = fock\n'
        'gains: G1 = 4.06891978563e+04  G2 = 1.00002457705e+00'
        '  G3 = 4.06891978563e+04\n'
        'clone_c: mean = (4.99958570832e-01, 1.99998296015e-01)'
        '  var = (8.12295340817e-01, 3.61107445831e-01)'
        '  fidelity = 6.20504975800e-01\n'
        'clone_a: mean = (4.99994339371e-01, 1.99999088517e-01)'
        '  var = (8.12479144276e-01, 3.61111359341e-01)'
        '  fidelity = 6.20503358876e-01\n'
        'clone trace distance = 3.16376695410e-05\n'),
}


@pytest.mark.parametrize("args", list(FOCK_CLONE_STDOUT), ids=["T16", "T25"])
def test_fock_clone_stdout_is_pinned(args, capsys):
    assert cli.main(["clone", "--backend", "fock", *args]) == 0
    assert capsys.readouterr().out == FOCK_CLONE_STDOUT[args]


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


def _raising(exc):
    def check(*args):
        raise exc
    return check


@pytest.mark.parametrize("exc", [RuntimeError("boom"),
                                 InvalidArgumentError("boom")])
def test_verify_reports_a_raising_check_as_an_internal_error(
        monkeypatch, capsys, exc):
    # a bug inside a check is neither a failed check nor a bad configuration
    monkeypatch.setattr(checks, "_check_gains", _raising(exc))
    code = cli.main(["verify", "--truncation", "8"])
    assert code == cli.EXIT_INTERNAL == 4
    out, err = capsys.readouterr()
    assert "verification" not in out
    assert err == (f"internal error: RuntimeError: check gains-consistency "
                   f"raised {type(exc).__name__}: boom\n")


def test_verify_fails_a_check_that_overflows_its_truncation(monkeypatch,
                                                            capsys):
    monkeypatch.setattr(checks, "_check_unitarity",
                        _raising(TruncationOverflowError("leaked")))
    code = cli.main(["verify", "--truncation", "8"])
    assert code == cli.EXIT_CHECK_FAILED == 1
    text = capsys.readouterr().out
    assert "verification FAILED" in text
    line = next(l for l in text.split("\n") if l.startswith("unitarity"))
    assert "FAIL" in line and "raised TruncationOverflowError: leaked" in line


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


_LOADED_SCIPY = (
    "import json, sys\n"
    "from cvclone import cli\n"
    "code = cli.main(sys.argv[1:])\n"
    "print(json.dumps([code, sorted(m for m in sys.modules\n"
    "                               if m.split('.')[0] == 'scipy')]))\n")


def _scipy_modules_after(argv):
    out = subprocess.run([sys.executable, "-c", _LOADED_SCIPY, *argv],
                         capture_output=True, text=True, env=_child_env())
    code, modules = json.loads(out.stdout.strip().splitlines()[-1])
    assert code == 0, out.stderr
    return modules


def test_commands_import_only_the_scipy_they_use(tmp_path):
    # importing scipy.sparse costs about 0.3 s and scipy.integrate about
    # 0.5 s in a fresh process; the Gaussian backend and the outcome grid
    # need neither, and verify needs no scipy.linalg
    gaussian_runs = [
        ["clone", "--lambda", "3", "--alpha", "0.5,0.0"],
        ["sweep", "--lambda-min", "1", "--lambda-max", "8", "--steps", "4",
         "--alpha", "0.5,0.0", "--out", str(tmp_path / "sweep.csv")],
        ["povm", "--lambda", "3", "--phi", "0", "--theta", "1.5707963",
         "--grid", "41,4.0", "--out", str(tmp_path / "povm.csv")],
    ]
    for argv in gaussian_runs:
        assert _scipy_modules_after(argv) == [], argv[0]
    # at 25 the pair gates of unitarity and backend-equivalence take the
    # chain exponentials, whose eigh is numpy's
    for truncation in ("12", "25"):
        loaded = _scipy_modules_after(["verify", "--truncation", truncation])
        assert "scipy.sparse" in loaded
        assert "scipy.linalg" not in loaded, truncation


# every module sits on the ones before it; cvclone/__init__ gathers them all
_LAYERS = ("errors", "_kernels", "gaussian", "fock", "network", "measurement",
           "checks", "cli")


def test_modules_import_only_the_layers_below_them():
    # fock, a backend, once imported network inside a function; an import in
    # a function body counts as much as one at module level
    pkg = os.path.dirname(cvclone.__file__)
    found = sorted(f[:-3] for f in os.listdir(pkg)
                   if f.endswith(".py") and f != "__init__.py")
    assert found == sorted(_LAYERS)
    upward = []
    for rank, name in enumerate(_LAYERS):
        with open(os.path.join(pkg, name + ".py"), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.level):
                continue
            # "from .fock import x" names fock, "from . import a, b" a and b
            targets = ([node.module] if node.module
                       else [alias.name for alias in node.names])
            upward += [f"{name}.py:{node.lineno} imports {target}"
                       for target in targets
                       if target not in _LAYERS[:rank]]
    assert upward == []


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


def _sparse_annihilations(dims):
    """CSR lowering operator of each mode, by a Kronecker product chain."""
    ops = []
    for m, d in enumerate(dims):
        full = sp.identity(1, format="csr")
        for k, dk in enumerate(dims):
            factor = (sp.csr_matrix(fock.annihilation_matrix(d)) if k == m
                      else sp.identity(dk, format="csr"))
            full = sp.kron(full, factor, format="csr")
        ops.append(full)
    return ops


def _quadrature_operator_moments(amps, dims):
    # the moments as formed from six complex quadrature matrices
    quads = []
    for op in _sparse_annihilations(dims):
        quads.append((op + op.conj().T) * 0.5)
        quads.append((op - op.conj().T) * (-0.5j))
    vecs = [q @ amps for q in quads]
    mean = np.array([float(np.real(np.vdot(amps, v))) for v in vecs])
    cov = np.array([[float(np.real(np.vdot(u, v))) for v in vecs]
                    for u in vecs])
    return mean, cov - np.outer(mean, mean)


@pytest.mark.parametrize("seed", [21, 1234, 666291129])
def test_fock_moments_match_quadrature_operators(seed):
    dims = (25,) * 3
    rng = np.random.default_rng(seed)
    for _ in range(5):
        gates, alphas = checks._random_circuit(rng)
        amps = fock.tensor(*[fock.coherent_fock(al, 25)
                             for al in alphas]).amplitudes
        for kind, i, j, s in gates:
            name = "squeezer" if kind == "tms" else "splitter"
            amps = fock.expm_apply(s * fock.pair_generator(name, dims, i, j),
                                   amps)
        mean, cov = checks._fock_moments(amps, dims)
        ref_mean, ref_cov = _quadrature_operator_moments(amps, dims)
        assert np.abs(mean - ref_mean).max() < 1e-14
        assert np.abs(cov - ref_cov).max() < 1e-14


@pytest.mark.parametrize("seed", [5, 109, 110, 666291129, 666291192])
def test_backend_equivalence_passes_where_the_tail_once_leaked(seed):
    # with a total squeeze of 0.75 these seeds drew circuits whose output
    # tail at d = 25 left moment gaps of 6e-5, 2.7e-4, 4.2e-4, 1.9e-6, 3.4e-3
    status, detail = checks._check_backend_equivalence(25, seed)
    assert status == "pass", detail
