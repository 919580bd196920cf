"""Joint-measurement layer: parameter bundle, outcome densities, moments.

The central oracle is the symplectic simulation itself: at right angles the
outcome-density family must reproduce the bivariate normal of the simulated
(X on clone c, Y on clone a) pair exactly, under the sign map documented on
the module.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import trapezoid

from cvclone import _kernels, fock, gaussian, measurement, network
from cvclone.errors import DomainError, InvalidArgumentError

T0 = math.atanh(1.0 / 3.0)
RIGHT = math.pi / 2.0


def _params3():
    return measurement.povm_params(3.0, 0.0, RIGHT)


def test_parameter_bundle_frozen():
    p = _params3()
    assert p.epsilon == -2.0 * math.exp(-3.0)
    assert p.lambda_prime == 3.0 - T0
    assert p.C == pytest.approx(0.5016670166995171, rel=1e-14)
    assert p.D == pytest.approx(0.502478055663161, rel=1e-14)
    assert abs(p.E) < 1e-18  # cos(phi - theta) = 0 at right angles
    assert p.disc == pytest.approx(0.25207666714151183, rel=1e-14)
    assert abs(p.beta) == pytest.approx(1.6494566747717598e-03, rel=1e-12)
    assert abs(p.gamma) == pytest.approx(0.5008313442496869, rel=1e-13)
    assert abs(p.delta) == pytest.approx(1.9966909717026216, rel=1e-13)
    assert p.xi.real == pytest.approx(3.2934492967704662e-03, rel=1e-12)
    assert abs(p.xi.imag) < 1e-15
    assert p.thermal_base == pytest.approx(8.359547368369494e-06, rel=1e-10)
    assert p.prefactor == pytest.approx(0.31700131850601854, rel=1e-13)


def test_normalization_identity():
    # |gamma|^2 - |beta|^2 = 1/|delta|^2 by construction
    p = _params3()
    lhs = abs(p.gamma) ** 2 - abs(p.beta) ** 2
    assert lhs == pytest.approx(1.0 / abs(p.delta) ** 2, rel=1e-12)


def test_alpha_of_linear_form():
    p = _params3()
    for x, xp in ((0.3, -0.7), (-1.1, 0.2)):
        expect = (-0.5j * x
                  + (p.C * xp - p.E * x) / (2.0 * math.sqrt(p.disc)))
        assert p.alpha_of(x, xp) == expect


def test_angle_domain_validation():
    with pytest.raises(InvalidArgumentError):
        measurement.povm_params(0.0, 0.0, RIGHT)
    with pytest.raises(InvalidArgumentError):
        measurement.povm_params(3.0, 0.0, 0.0)
    with pytest.raises(InvalidArgumentError):
        measurement.povm_params(3.0, 0.0, 3.5)
    with pytest.raises(InvalidArgumentError):
        measurement.povm_params(3.0, 1.0, 0.5)


def test_parameters_stay_in_domain_across_grid():
    # no discriminant or thermal-base failure anywhere in the working range
    for lam in (0.5, 1.0, 2.0, 4.0, 8.0):
        for frac in (0.1, 0.3, 0.5, 0.7, 0.9):
            p = measurement.povm_params(lam, 0.0, frac * math.pi)
            assert -1.0 < p.thermal_base < 1.0
            assert p.disc > 0.0
            assert abs(p.gamma) > abs(p.beta)


def test_out_of_range_thermal_base_fails_loudly():
    bad = dataclasses.replace(_params3(), thermal_base=1.2)
    with pytest.raises(DomainError):
        measurement.povm_density(bad, 0.1, 0.2, fock.coherent_fock(0j, 12))


def test_right_angle_density_reproduces_simulation():
    lam, alpha = 3.0, 0.7 + 0.3j
    p = _params3()
    res = network.run_cloner(alpha, network.network_from_lambda(lam),
                             backend="gaussian")
    st = res.state
    eu = np.zeros(6)
    eu[0] = 1.0
    ev = np.zeros(6)
    ev[3] = 1.0
    mu = np.array([eu @ st.mean, ev @ st.mean])
    cov = np.array([[eu @ st.cov @ eu, eu @ st.cov @ ev],
                    [eu @ st.cov @ ev, ev @ st.cov @ ev]])
    icov = np.linalg.inv(cov)
    norm = 2.0 * math.pi * math.sqrt(np.linalg.det(cov))
    probe = fock.coherent_fock(alpha, 24)
    worst = 0.0
    for u in np.linspace(-2.5, 2.5, 9):
        for v in np.linspace(-2.5, 2.5, 9):
            d = np.array([u, v]) - mu
            expect = math.exp(-0.5 * d @ icov @ d) / norm
            got = measurement.povm_density(p, -u, -v, probe)
            worst = max(worst, abs(got - expect))
    assert worst < 1e-10  # measured 1.2e-14


def test_completeness_integral():
    p = _params3()
    probe = fock.coherent_fock(0.7 + 0.3j, 24)
    xs = np.linspace(-6.0, 6.0, 121)
    grid = measurement.povm_density_grid(p, xs, xs, probe)
    assert np.all(grid >= 0.0)
    total = float(trapezoid(trapezoid(grid, xs, axis=1), xs))
    assert 0.99 <= total <= 1.01
    assert total == pytest.approx(1.0, abs=1e-10)


def test_density_symmetry_for_vacuum_input():
    p = _params3()
    xs = np.linspace(-3.0, 3.0, 11)
    g = measurement.povm_density_grid(p, xs, xs, fock.coherent_fock(0j, 20))
    np.testing.assert_allclose(g, g[::-1, ::-1], atol=1e-14)


def _density_loop(params, xs, xps, vec):
    """Tr[rho F] point by point from single displacement columns."""
    rho = np.outer(vec.amplitudes, vec.amplitudes.conj())
    dim = rho.shape[0]
    weights = measurement._thermal_weights(params, dim)
    s_dag = measurement._squeeze_dag(params.xi, dim)
    out = np.empty((len(xs), len(xps)))
    for i, x in enumerate(xs):
        for j, xp in enumerate(xps):
            z = params.alpha_of(x, xp) * params.delta
            u = s_dag @ _kernels.displacement_columns(z, dim, len(weights))
            out[i, j] = params.prefactor * np.einsum(
                "mn,mk,kn,n->", u.conj(), rho, u, weights).real
    return out


@pytest.mark.parametrize("xs,xps", [
    (np.linspace(-5.0, 5.0, 41), np.linspace(-5.0, 5.0, 41)),
    (np.linspace(-5.0, 5.0, 61), np.linspace(-5.0, 5.0, 61)),
    (np.linspace(-4.0, 4.0, 40), np.linspace(-3.0, 3.0, 40)),
    (np.linspace(-4.0, 5.0, 23), np.linspace(-5.0, 5.0, 17)),   # asymmetric
])
def test_density_grid_matches_point_loop(xs, xps):
    # a displaced input has parity-flipping coherences, so p(z) != p(-z)
    p = measurement.povm_params(4.0, 0.6, 0.6 + RIGHT)
    vec = fock.coherent_fock(0.5 - 0.3j, 14)
    got = measurement.povm_density_grid(p, xs, xps, vec)
    expect = _density_loop(p, xs, xps, vec)
    assert np.abs(got - expect).max() < 1e-14
    assert np.abs(got - got[::-1, ::-1]).max() > 1e-3


@pytest.mark.parametrize("xs", [
    np.array([-1.0, np.nan, 2.0]),
    np.array([-2.0, np.inf, 2.0]),
    np.array([np.nan, 0.0, np.nan]),
])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_grid_points_leave_the_others_exact(xs):
    # a NaN or inf must not pass the mirror check and misplace densities
    p = _params3()
    vec = fock.coherent_fock(0.4 - 0.2j, 12)
    xps = np.array([-0.5, 0.0, 0.5])
    got = measurement.povm_density_grid(p, xs, xps, vec)
    expect = _density_loop(p, xs[np.isfinite(xs)], xps, vec)
    assert np.abs(got[np.isfinite(xs)] - expect).max() < 1e-14


@pytest.mark.parametrize("xs,xps,points", [
    (np.linspace(-5.0, 5.0, 41), np.linspace(-5.0, 5.0, 41), 841),
    (np.linspace(-5.0, 5.0, 40), np.linspace(-5.0, 5.0, 40), 800),
    (np.linspace(-5.0, 5.0, 41), np.linspace(-5.0, 5.0, 41) + 0.1, 1681),
    (np.linspace(-5.0, 4.0, 40), np.linspace(-5.0, 5.0, 40), 1600),
])
def test_symmetric_grids_build_half_the_columns(monkeypatch, xs, xps,
                                                points):
    seen = []
    batch = _kernels.displacement_columns_batch

    def spy(zs, dim, ncols):
        seen.append(len(zs))
        return batch(zs, dim, ncols)

    monkeypatch.setattr(_kernels, "displacement_columns_batch", spy)
    measurement.povm_density_grid(_params3(), xs, xps,
                                  fock.coherent_fock(0.3, 12))
    assert seen == [points]


def test_density_accepts_density_matrix_input():
    p = _params3()
    vec = fock.coherent_fock(0.2, 16)
    rho = fock.DensityMatrix(np.outer(vec.amplitudes, vec.amplitudes.conj()))
    a = measurement.povm_density(p, 0.4, -0.3, vec)
    b = measurement.povm_density(p, 0.4, -0.3, rho)
    assert a == pytest.approx(b, rel=1e-12)
    with pytest.raises(InvalidArgumentError):
        measurement.povm_density(p, 0.0, 0.0, np.eye(4))


def test_expected_moments_triangle_against_simulation():
    alpha = 0.7 + 0.3j
    inp = (alpha.real, alpha.imag,
           alpha.real ** 2 + 0.25, alpha.imag ** 2 + 0.25)
    for lam in (2.0, 3.0):
        res = network.run_cloner(alpha, network.network_from_lambda(lam),
                                 backend="gaussian")
        mxc, vxc = gaussian.quadrature_moments(res.clone_c, 0, 0.0)
        mya, vya = gaussian.quadrature_moments(res.clone_a, 0, RIGHT)
        rep = measurement.expected_moments(lam, inp)
        assert rep.mean_xc == pytest.approx(mxc, abs=1e-12)
        # opposite coupling sign convention flips the clone-a first moment
        assert abs(rep.mean_ya) == pytest.approx(abs(mya), abs=1e-12)
        assert rep.mean_ya * mya < 0.0
        assert rep.var_xc == pytest.approx(vxc, abs=1e-9)
        assert rep.var_ya == pytest.approx(vya, abs=1e-9)


def test_coefficient_rows_match_literal_products():
    # same quantities as the literal hyperbolic products where those are
    # still accurate, and clean limits r -> 1, p -> -q -> 1/sqrt(2) where
    # the literal forms would have cancelled at the e^(2 lam) scale
    for lam in (0.5, 1.0, 2.0, 3.0):
        eps = 2.0 * math.exp(-lam)
        lamp = lam - T0
        r_lit = math.sinh(lam) * math.sinh(eps)
        p_lit = (math.cosh(lam) * math.cosh(lamp)
                 - math.sinh(lam) * math.cosh(eps) * math.sinh(lamp))
        q_lit = (math.cosh(lam) * math.sinh(lamp)
                 - math.sinh(lam) * math.cosh(lamp) * math.cosh(eps))
        r, p, q = measurement.clone_a_coefficient_rows(lam)
        assert r == pytest.approx(r_lit, rel=1e-12)
        assert p == pytest.approx(p_lit, rel=1e-12)
        assert q == pytest.approx(q_lit, rel=1e-12)
    r, p, q = measurement.clone_a_coefficient_rows(18.0)
    assert r == pytest.approx(1.0, abs=1e-12)
    assert p == pytest.approx(math.sqrt(0.5), abs=1e-12)
    assert q == pytest.approx(-math.sqrt(0.5), abs=1e-12)
    with pytest.raises(InvalidArgumentError):
        measurement.clone_a_coefficient_rows(-1.0)


def test_expected_moments_validation():
    with pytest.raises(InvalidArgumentError):
        measurement.expected_moments(0.0, (0.0, 0.0, 0.25, 0.25))
    with pytest.raises(InvalidArgumentError):
        # second moment below the squared mean
        measurement.expected_moments(2.0, (1.0, 0.0, 0.5, 0.25))
    with pytest.raises(InvalidArgumentError):
        # variance product under the uncertainty floor
        measurement.expected_moments(2.0, (0.0, 0.0, 0.1, 0.1))
    rep = measurement.expected_moments(2.0, (0.0, 0.0, 0.25, 0.25))
    assert rep.variance_product >= 0.25 - 1e-9


def test_sampler_is_deterministic():
    res = network.run_cloner(0.6 - 0.4j, network.network_from_lambda(3.0),
                             backend="gaussian")
    a = measurement.sample_joint_quadratures(res, 0.0, RIGHT, 2000, 99)
    b = measurement.sample_joint_quadratures(res, 0.0, RIGHT, 2000, 99)
    assert a.shape == (2000, 2)
    assert np.array_equal(a, b)
    c = measurement.sample_joint_quadratures(res, 0.0, RIGHT, 2000, 100)
    assert not np.array_equal(a, c)


def test_sampler_moments_track_state():
    res = network.run_cloner(1.0 + 0j, network.network_from_lambda(4.0),
                             backend="gaussian")
    s = measurement.sample_joint_quadratures(res, 0.0, RIGHT, 200_000, 7)
    m1, v1 = gaussian.quadrature_moments(res.clone_c, 0, 0.0)
    m2, v2 = gaussian.quadrature_moments(res.clone_a, 0, RIGHT)
    assert s[:, 0].mean() == pytest.approx(m1, abs=5.0 * math.sqrt(v1 / 2e5))
    assert s[:, 1].mean() == pytest.approx(m2, abs=5.0 * math.sqrt(v2 / 2e5))
    assert s[:, 0].var() == pytest.approx(v1, rel=2e-2)


def test_sampler_requires_gaussian_result():
    res = network.run_cloner(0j, network.network_from_lambda(2.0),
                             backend="fock", truncation=14)
    with pytest.raises(InvalidArgumentError):
        measurement.sample_joint_quadratures(res, 0.0, RIGHT, 10, 1)
    res_g = network.run_cloner(0j, network.network_from_lambda(2.0),
                               backend="gaussian")
    with pytest.raises(InvalidArgumentError):
        measurement.sample_joint_quadratures(res_g, 0.0, RIGHT, 0, 1)


def test_husimi_limit_agreement():
    gap = measurement.husimi_limit_check(1.0 + 1.0j, 8.0)
    assert gap == measurement.husimi_limit_check(1.0 + 1.0j, 8.0)
    assert gap < 5e-3  # measured 1.64e-3 at 1e5 draws
    with pytest.raises(InvalidArgumentError):
        measurement.husimi_limit_check(0j, 2.0)


def test_sigma_variant_report():
    angle, rep = measurement.sigma_variant_report(1.5, 5.0)
    assert angle == math.atan(1.5 ** 2)
    ref = 1.5 ** 2 / (2.0 * (1.0 + 1.5 ** 4))
    assert rep["reference_added_noise"] == pytest.approx(ref, rel=1e-14)
    assert rep["added_noise_c"] == pytest.approx(ref, abs=1e-3)
    assert rep["added_noise_a"] == pytest.approx(ref, abs=1e-3)
    assert rep["clone_trace_distance"] < 1e-3


def test_sigma_variant_validation():
    with pytest.raises(InvalidArgumentError):
        measurement.sigma_variant_report(5.0, 4.0)
    with pytest.raises(InvalidArgumentError):
        measurement.sigma_variant_report(1.5, 7.0)
