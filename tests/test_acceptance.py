"""End-to-end acceptance run: one printed verdict line per criterion.

Each test prints its measured figure next to the tolerance it is held to, so
a bare ``pytest tests/test_acceptance.py`` doubles as a readable report. The
expected values are frozen from independent closed forms and seeded runs.
"""

import math
import re
import time

import numpy as np
import pytest
from scipy.integrate import trapezoid

from cvclone import checks, fock, gaussian, measurement, network
from cvclone.network import TWIN_BEAM_SQUEEZE

RIGHT = math.pi / 2.0


def _report(capsys, num: int, ok: bool, detail: str):
    with capsys.disabled():
        print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}  {detail}",
              flush=True)
    assert ok, f"criterion {num:02d}: {detail}"


def _residual(detail: str) -> float:
    return float(re.search(r"(\d\.\d+e[+-]\d+)", detail).group(1))


def test_criterion_01_coherent_clone_fidelity(capsys):
    t0 = time.perf_counter()
    spec = network.network_from_lambda(8.0)
    worst = 0.0
    for alpha in (0j, 1.0 + 0j, 1.0 + 1.0j):
        res = network.run_cloner(alpha, spec, backend="gaussian")
        for clone in (res.clone_c, res.clone_a):
            fid = gaussian.fidelity_with_coherent(clone, alpha)
            worst = max(worst, abs(fid - 2.0 / 3.0))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-3 and dt < 1.0
    _report(capsys, 1, ok,
            f"max |fidelity - 2/3| = {worst:.2e} over 3 coherent inputs "
            f"(tol 1e-3, {dt:.2f}s)")


def test_criterion_02_preparation_photon_number(capsys):
    t0 = time.perf_counter()
    prep_g = network.preparation_state(1.0, backend="gaussian")
    gap_g = abs(float(np.trace(prep_g.cov)) - 1.0 - 0.25)
    prep_f = network.preparation_state(1.0, backend="fock", truncation=20)
    probs = np.abs(prep_f.amplitudes.reshape(20, 20)) ** 2
    photons = float((np.add.outer(np.arange(20), np.arange(20)) * probs).sum())
    gap_f = abs(photons - 0.25)
    dt = time.perf_counter() - t0
    ok = gap_g == 0.0 and gap_f <= 1e-9 and dt < 1.0
    _report(capsys, 2, ok,
            f"mean photons 1/4: gaussian gap {gap_g:.1e} (exact), "
            f"fock gap {gap_f:.1e} (tol 1e-9, {dt:.2f}s)")


def _built_gains(spec):
    # entry [2i, 2i] of the pair squeezer on modes (i, j) is cosh r
    return tuple(float(gaussian.two_mode_squeezer(3, *st.modes, st.strength)
                       .matrix[2 * st.modes[0], 2 * st.modes[0]]) ** 2
                 for st in spec.stages)


def test_criterion_03_amplifier_gains(capsys):
    worst = 0.0
    for lam in (1.0, 2.0, 4.0):
        spec = network.network_from_lambda(lam)
        built = _built_gains(spec)
        expected = tuple(math.cosh(s) ** 2 for s in
                         (TWIN_BEAM_SQUEEZE - lam, 2.0 * math.exp(-lam), lam))
        for got in (built, network.gains(spec)):
            worst = max(worst, max(abs(g - e) for g, e in zip(got, expected)))
    unit = _built_gains(network.network_from_lambda(TWIN_BEAM_SQUEEZE))[0]
    ok = worst == 0.0 and unit == 1.0
    _report(capsys, 3, ok,
            f"gain residual {worst:.1e} at lam in {{1, 2, 4}}, read off the "
            f"built gates; G1(atanh(1/3)) = {unit}")


def test_criterion_04_variance_product_curve(capsys):
    t0 = time.perf_counter()
    prods = []
    for lam in range(1, 9):
        res = network.run_cloner(0j, network.network_from_lambda(float(lam)),
                                 backend="gaussian")
        _, var_x = gaussian.quadrature_moments(res.clone_c, 0, 0.0)
        _, var_y = gaussian.quadrature_moments(res.clone_a, 0, RIGHT)
        prods.append(var_x * var_y)
    dt = time.perf_counter() - t0
    monotone = all(b <= a + 1e-12 for a, b in zip(prods, prods[1:]))
    floor = min(prods) >= 0.25 - 1e-9
    end_gap = abs(prods[-1] - 0.25)
    ok = monotone and floor and end_gap <= 1e-3 and dt < 2.0
    _report(capsys, 4, ok,
            f"variance product nonincreasing over lam 1..8, min {min(prods):.9f} "
            f">= 1/4, end gap {end_gap:.1e} (tol 1e-3, {dt:.2f}s)")


def test_criterion_05_added_noise_limit(capsys):
    rep = measurement.expected_moments(10.0, (0.0, 0.0, 0.25, 0.25))
    gap_c = abs(rep.added_noise[0] - 0.25)
    gap_a = abs(rep.added_noise[1] - 0.25)
    ok = gap_c <= 1e-7 and gap_a <= 1e-7
    _report(capsys, 5, ok,
            f"added noise at lam=10 within ({gap_c:.1e}, {gap_a:.1e}) "
            f"of (1/4, 1/4) (tol 1e-7)")


def test_criterion_06_generator_algebra(capsys):
    t0 = time.perf_counter()
    status_c, detail_c = checks._check_commutators(25)
    status_b, detail_b = checks._check_bch(25)
    dt = time.perf_counter() - t0
    res_c, res_b = _residual(detail_c), _residual(detail_b)
    ok = (status_c == "pass" and status_b == "pass"
          and res_c <= 1e-8 and res_b <= 1e-8 and dt < 30.0)
    _report(capsys, 6, ok,
            f"commutator residual {res_c:.1e}, conjugation-identity residual "
            f"{res_b:.1e} at truncation 25 (tol 1e-8, {dt:.1f}s)")


def test_criterion_07_backend_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    spec = network.network_from_lambda(6.0)
    fres = network.run_cloner(0.5 + 0j, spec, backend="fock", truncation=16)
    gres = network.run_cloner(0.5 + 0j, spec, backend="gaussian")
    gaps = []
    for fclone, gclone in ((fres.clone_c, gres.clone_c),
                           (fres.clone_a, gres.clone_a)):
        for phase in (0.0, RIGHT):
            fm, fv = fclone.quadrature_moments(phase)
            gm, gv = gaussian.quadrature_moments(gclone, 0, phase)
            gaps += [abs(fm - gm), abs(fv - gv)]
    moment_gap = max(gaps)
    mix = fock.smeared_mixture(fock.coherent_fock(0.5, 16))
    td_c = fock.trace_distance(fres.clone_c, mix)
    td_a = fock.trace_distance(fres.clone_a, mix)
    dt = time.perf_counter() - t0
    ok = (moment_gap <= 1e-4 and td_c <= 1e-3 and td_a <= 1e-3
          and dt < 300.0)
    _report(capsys, 7, ok,
            f"backend moment gap {moment_gap:.1e} (tol 1e-4); smeared-mixture "
            f"distances {td_c:.1e}/{td_a:.1e} (tol 1e-3, {dt:.1f}s)")


def test_criterion_08_projector_form(capsys):
    dist = measurement.projector_form_check(fock.coherent_fock(0.5, 16), 6.0)
    ok = dist <= 5e-3
    _report(capsys, 8, ok,
            f"projected-pair form distance {dist:.2e} (tol 5e-3)")


def test_criterion_09_displacement_covariance(capsys):
    status, detail = checks._check_weyl_covariance(16, 1234)
    dist = _residual(detail)
    ok = status == "pass" and dist < 1e-3
    _report(capsys, 9, ok,
            f"max displaced-clone distance {dist:.1e} over 5 seeded "
            f"amplitudes (tol 1e-3)")


def test_criterion_10_povm_coherent_limit(capsys):
    gap = measurement.husimi_limit_check(1.0 + 1.0j, 8.0)
    ok = gap <= 0.02
    _report(capsys, 10, ok,
            f"rescaled joint statistics vs Husimi Q moment gap {gap:.2e} "
            f"(tol 2e-2)")


def test_criterion_11_povm_finite_lambda_histogram(capsys):
    lam, alpha, n, seed, nb = 3.0, 0.6 - 0.4j, 1_000_000, 20240817, 21
    spec = network.network_from_lambda(lam)
    res = network.run_cloner(alpha, spec, backend="gaussian")
    samples = measurement.sample_joint_quadratures(res, 0.0, RIGHT, n, seed)
    u, v = samples[:, 0], samples[:, 1]
    u_edges = np.linspace(u.mean() - 4.0 * u.std(),
                          u.mean() + 4.0 * u.std(), nb + 1)
    v_edges = np.linspace(v.mean() - 4.0 * v.std(),
                          v.mean() + 4.0 * v.std(), nb + 1)
    hist, _, _ = np.histogram2d(u, v, bins=(u_edges, v_edges))
    emp = hist / n
    params = measurement.povm_params(lam, 0.0, RIGHT)
    probe = fock.coherent_fock(alpha, 24)
    # bin probabilities from the density on a 2x-refined grid; the outcome
    # density of (u, v) sits at the mirrored arguments of the operator family
    uf = np.linspace(u_edges[0], u_edges[-1], 2 * nb + 1)
    vf = np.linspace(v_edges[0], v_edges[-1], 2 * nb + 1)
    dens = measurement.povm_density_grid(params, -uf, -vf, probe)
    model = np.empty((nb, nb))
    for i in range(nb):
        for j in range(nb):
            block = dens[2 * i:2 * i + 3, 2 * j:2 * j + 3]
            model[i, j] = trapezoid(trapezoid(block, vf[2 * j:2 * j + 3],
                                              axis=1), uf[2 * i:2 * i + 3])
    l1 = float(np.abs(emp - model).sum())
    xs = np.linspace(-6.0, 6.0, 121)
    full = measurement.povm_density_grid(params, xs, xs, probe)
    integral = float(trapezoid(trapezoid(full, xs, axis=1), xs))
    ok = l1 <= 2e-2 and abs(integral - 1.0) <= 1e-2
    _report(capsys, 11, ok,
            f"histogram L1 gap {l1:.2e} (tol 2e-2, n=1e6); density integrates "
            f"to {integral:.6f} (tol 1e-2)")


def test_criterion_12_sigma_variant_symmetry(capsys):
    angle, rep = measurement.sigma_variant_report(1.5, 5.0)
    tdist = rep["clone_trace_distance"]
    ok = tdist <= 1e-3 and angle == math.atan(2.25)
    _report(capsys, 12, ok,
            f"sigma=1.5 clone distance {tdist:.2e} (tol 1e-3); matched angle "
            f"= arctan(2.25) = {angle:.6f}")
