"""Invariants that must hold across the whole parameter space.

Property-based: hypothesis drives gate sequences, amplitudes and couplings
through the documented domains and asserts structure (symplecticity, the
uncertainty bound, purity, positivity) rather than point values.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cvclone import fock, gaussian, measurement, network

finite = st.floats(allow_nan=False, allow_infinity=False)
lam_st = st.floats(min_value=0.3, max_value=10.0)
angle_st = st.floats(min_value=-math.pi, max_value=math.pi)
squeeze_st = st.floats(min_value=-0.8, max_value=0.8)
amp_st = st.floats(min_value=-1.5, max_value=1.5)


def _symplectic_defect(matrix):
    n = matrix.shape[0] // 2
    omega = gaussian.symplectic_form(n)
    return np.abs(matrix @ omega @ matrix.T - omega).max()


@st.composite
def circuits(draw):
    ops = []
    for _ in range(draw(st.integers(1, 5))):
        i = draw(st.integers(0, 2))
        j = draw(st.integers(0, 2).filter(lambda x, i=i: x != i))
        if draw(st.booleans()):
            ops.append(("tms", i, j, draw(squeeze_st)))
        else:
            ops.append(("bs", i, j, draw(angle_st)))
    return ops


def _run(ops):
    state = gaussian.vacuum_state(3)
    total = gaussian.SymplecticTransform(np.eye(6))
    for kind, i, j, s in ops:
        gate = (gaussian.two_mode_squeezer(3, i, j, s) if kind == "tms"
                else gaussian.beam_splitter(3, i, j, s))
        state = gate.apply(state)
        total = gate.compose(total)
    return state, total


@given(circuits())
@settings(max_examples=60, deadline=None)
def test_products_stay_symplectic(ops):
    _, total = _run(ops)
    scale = max(1.0, float(np.abs(total.matrix).max()) ** 2)
    assert _symplectic_defect(total.matrix) < 1e-10 * scale


@given(circuits())
@settings(max_examples=60, deadline=None)
def test_uncertainty_bound_and_purity(ops):
    state, _ = _run(ops)
    omega = gaussian.symplectic_form(3)
    eig = np.linalg.eigvalsh(state.cov + 0.25j * omega)
    assert eig.min() > -1e-9
    # vacuum through unitary gates stays pure
    assert np.linalg.det(4.0 * state.cov) == pytest.approx(1.0, rel=1e-6)


@given(circuits(), st.integers(0, 2))
@settings(max_examples=40, deadline=None)
def test_marginal_moments_consistent(ops, mode):
    state, _ = _run(ops)
    single = gaussian.reduce(state, [mode])
    for phase in (0.0, 1.1):
        assert gaussian.quadrature_moments(single, 0, phase) == \
            gaussian.quadrature_moments(state, mode, phase)


@given(circuits())
@settings(max_examples=30, deadline=None)
def test_reduce_is_permutation_equivariant(ops):
    state, _ = _run(ops)
    fwd = gaussian.reduce(state, [2, 0])
    rev = gaussian.reduce(state, [0, 2])
    np.testing.assert_allclose(fwd.cov[:2, :2], rev.cov[2:, 2:], atol=1e-14)
    np.testing.assert_allclose(fwd.mean[:2], rev.mean[2:], atol=1e-14)


@given(lam_st, amp_st, amp_st)
@settings(max_examples=40, deadline=None)
def test_clone_fidelity_in_unit_interval(lam, re, im):
    spec = network.network_from_lambda(lam)
    res = network.run_cloner(complex(re, im), spec, backend="gaussian")
    for clone in (res.clone_c, res.clone_a):
        fid = gaussian.fidelity_with_coherent(clone, complex(re, im))
        assert 0.0 <= fid <= 1.0


@given(lam_st)
@settings(max_examples=60, deadline=None)
def test_added_noise_positive_and_ordered(lam):
    noise_c, noise_a = measurement.expected_moments(
        lam, (0.0, 0.0, 0.25, 0.25)).added_noise
    # the joint-measurement floor is 1/4 of added noise per clone, reached
    # only asymptotically; the regrouped coefficient rows keep the excess
    # strictly positive even at the strong-coupling end of the range
    assert noise_c > 0.25
    assert noise_a > 0.25
    assert (0.25 + noise_c) * (0.25 + noise_a) >= 1.0 / 16.0


@given(st.floats(min_value=-2.0, max_value=2.0),
       st.floats(min_value=-2.0, max_value=2.0), circuits())
@settings(max_examples=30, deadline=None)
def test_husimi_nonnegative(re, im, ops):
    # the Husimi function of a state at z is <z|rho|z> / pi
    state, _ = _run(ops)
    single = gaussian.reduce(state, [1])
    assert gaussian.fidelity_with_coherent(single, complex(re, im)) >= 0.0


@given(lam_st, st.floats(min_value=0.15, max_value=0.85),
       st.floats(min_value=-2.5, max_value=2.5),
       st.floats(min_value=-2.5, max_value=2.5))
@settings(max_examples=25, deadline=None)
def test_povm_density_nonnegative(lam, frac, x, xp):
    params = measurement.povm_params(lam, 0.0, frac * math.pi)
    probe = fock.coherent_fock(0.3 - 0.2j, 14)
    assert measurement.povm_density(params, x, xp, probe) >= 0.0


@given(amp_st, amp_st, lam_st,
       st.floats(min_value=0.0, max_value=0.6),
       st.floats(min_value=0.0, max_value=0.6))
@settings(max_examples=60, deadline=None)
def test_expected_moments_respect_uncertainty(mx, my, lam, ex, ey):
    x2 = mx * mx + 0.25 + ex
    y2 = my * my + 0.25 + ey
    rep = measurement.expected_moments(lam, (mx, my, x2, y2))
    assert rep.variance_product >= 0.25 - 1e-9
    assert rep.var_xc >= 0.0 and rep.var_ya >= 0.0


@given(st.floats(min_value=-0.9, max_value=0.9),
       st.floats(min_value=-0.9, max_value=0.9))
@settings(max_examples=30, deadline=None)
def test_coherent_fock_normalized(re, im):
    vec = fock.coherent_fock(complex(re, im), 16)
    assert vec.norm() == pytest.approx(1.0, abs=1e-12)


@given(st.integers(0, 1000))
@settings(max_examples=20, deadline=None)
def test_trace_distance_metric_properties(seed):
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(3):
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        rho = m @ m.conj().T
        mats.append(fock.DensityMatrix(rho / np.trace(rho).real))
    a, b, c = mats
    dab = fock.trace_distance(a, b)
    assert 0.0 <= dab <= 1.0
    # eigensolves of negated differences agree only to roundoff
    assert dab == pytest.approx(fock.trace_distance(b, a), abs=1e-12)
    assert dab <= fock.trace_distance(a, c) + fock.trace_distance(c, b) + 1e-12


@given(st.floats(min_value=1.0, max_value=8.0),
       st.floats(min_value=-0.5, max_value=0.5),
       st.floats(min_value=-0.5, max_value=0.5))
@settings(max_examples=30, deadline=None)
@pytest.mark.filterwarnings("ignore:guard-band leakage")
def test_fock_and_gaussian_clone_moments_agree(lam, re, im):
    # the two backends are independent; at d = 16 their clone moments agree
    # to the benchmark's d = 16 tolerance (worst corner measured 2.8e-3)
    spec = network.network_from_lambda(lam)
    alpha = complex(re, im)
    res_f = network.run_cloner(alpha, spec, backend="fock", truncation=16)
    res_g = network.run_cloner(alpha, spec, backend="gaussian")
    for rho, gauss in ((res_f.clone_c, res_g.clone_c),
                       (res_f.clone_a, res_g.clone_a)):
        for phase in (0.0, math.pi / 2.0):
            mean_f, var_f = rho.quadrature_moments(phase)
            mean_g, var_g = gaussian.quadrature_moments(gauss, 0, phase)
            assert abs(mean_f - mean_g) < 5e-3
            assert abs(var_f - var_g) < 5e-3
