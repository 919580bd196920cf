"""Symplectic backend: states, gates, moments, overlaps.

Expected values come from closed-form hyperbolic identities evaluated inline,
so every comparison here is against an expression independent of the module
under test.
"""

import math

import numpy as np
import pytest

from cvclone import gaussian
from cvclone.errors import InvalidArgumentError

T0 = math.atanh(1.0 / 3.0)


def test_vacuum_state():
    st = gaussian.vacuum_state(3)
    assert st.n_modes == 3
    np.testing.assert_array_equal(st.mean, np.zeros(6))
    np.testing.assert_array_equal(st.cov, np.eye(6) / 4.0)


def test_two_mode_squeezer_twin_beam_covariance():
    # cosh(2 atanh t) = (1 + t^2)/(1 - t^2) and sinh(2 atanh t) = 2t/(1 - t^2);
    # at t = 1/3 the single-mode variance cosh(2r)/4 is exactly 5/16 and the
    # cross term sinh(2r)/4 is 3/16, negative in X and positive in Y
    st = gaussian.two_mode_squeezer(2, 0, 1, T0).apply(
        gaussian.vacuum_state(2))
    assert st.cov[0, 0] == pytest.approx(5.0 / 16.0, abs=1e-15)
    assert st.cov[1, 1] == pytest.approx(5.0 / 16.0, abs=1e-15)
    assert st.cov[2, 2] == pytest.approx(5.0 / 16.0, abs=1e-15)
    assert st.cov[0, 2] == pytest.approx(-3.0 / 16.0, abs=1e-15)
    assert st.cov[1, 3] == pytest.approx(3.0 / 16.0, abs=1e-15)
    assert st.cov[0, 1] == pytest.approx(0.0, abs=1e-15)
    assert st.cov[0, 3] == pytest.approx(0.0, abs=1e-15)


def test_two_mode_squeezer_is_pure():
    st = gaussian.two_mode_squeezer(2, 0, 1, 1.3).apply(
        gaussian.vacuum_state(2))
    assert np.linalg.det(4.0 * st.cov) == pytest.approx(1.0, abs=1e-12)


def test_beam_splitter_quarter_turn_swaps_modes():
    st = gaussian.displace(gaussian.vacuum_state(2), 0, 0.8 - 0.2j)
    out = gaussian.beam_splitter(2, 0, 1, math.pi / 2.0).apply(st)
    assert out.mean[0:2] == pytest.approx([0.0, 0.0], abs=1e-15)
    assert out.mean[2:4] == pytest.approx([-0.8, 0.2], abs=1e-15)


def test_beam_splitter_balanced_split():
    st = gaussian.displace(gaussian.vacuum_state(2), 0, 1.0 + 0j)
    out = gaussian.beam_splitter(2, 0, 1, math.pi / 4.0).apply(st)
    r = 1.0 / math.sqrt(2.0)
    assert out.mean[0:2] == pytest.approx([r, 0.0], abs=1e-15)
    assert out.mean[2:4] == pytest.approx([-r, 0.0], abs=1e-15)
    # passive gate: vacuum covariance is invariant
    np.testing.assert_allclose(out.cov, np.eye(4) / 4.0, atol=1e-15)


def test_beam_splitter_matrix_is_rotation():
    bs = gaussian.beam_splitter(2, 0, 1, 0.37)
    s = bs.matrix
    np.testing.assert_allclose(s @ s.T, np.eye(4), atol=1e-14)


def test_displace_only_shifts_mean():
    st = gaussian.displace(gaussian.vacuum_state(1), 0, 0.3 + 0.9j)
    np.testing.assert_allclose(st.mean, [0.3, 0.9], atol=1e-15)
    np.testing.assert_array_equal(st.cov, np.eye(2) / 4.0)


def test_quadrature_moments_rotation():
    st = gaussian.displace(gaussian.vacuum_state(1), 0, 1.0 + 2.0j)
    for phase in (0.0, math.pi / 2.0, 0.7):
        mean, var = gaussian.quadrature_moments(st, 0, phase)
        assert mean == pytest.approx(math.cos(phase) + 2.0 * math.sin(phase),
                                     abs=1e-14)
        assert var == pytest.approx(0.25, abs=1e-14)



@pytest.mark.parametrize("phase", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
def test_quadrature_moments_refuse_a_non_finite_phase(phase):
    # a non-finite phase once returned (nan, nan)
    st = gaussian.displace(gaussian.vacuum_state(1), 0, 1.0 + 2.0j)
    with pytest.raises(InvalidArgumentError, match="^phase must be finite$"):
        gaussian.quadrature_moments(st, 0, phase)

def test_reduce_preserves_requested_order():
    st = gaussian.displace(gaussian.vacuum_state(3), 1, 2.0 + 0j)
    sub = gaussian.reduce(st, [2, 1])
    assert sub.n_modes == 2
    assert list(sub.mean[0:2]) == [0.0, 0.0]
    assert sub.mean[2:4] == pytest.approx([2.0, 0.0], abs=1e-15)


def test_reduce_matches_fancy_indexing_and_is_contiguous():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(8, 8))
    st = gaussian.GaussianState(4, rng.normal(size=8), m @ m.T)
    for keep in ([0], [2], [3, 1], [0, 1, 2], [2, 0, 3, 1]):
        idx = np.array([i for k in keep for i in (2 * k, 2 * k + 1)])
        sub = gaussian.reduce(st, keep)
        np.testing.assert_array_equal(sub.mean, st.mean[idx])
        np.testing.assert_array_equal(sub.cov, st.cov[np.ix_(idx, idx)])
        assert sub.mean.flags.c_contiguous and sub.cov.flags.c_contiguous


def test_reduce_rejects_bad_mode_sets():
    st = gaussian.vacuum_state(2)
    with pytest.raises(InvalidArgumentError):
        gaussian.reduce(st, [])
    with pytest.raises(InvalidArgumentError):
        gaussian.reduce(st, [0, 0])
    with pytest.raises(InvalidArgumentError):
        gaussian.reduce(st, [2])


def test_fidelity_thermal_half_photon():
    # <0| rho_th |0> = 1/(1 + nbar); cov (2 nbar + 1) I / 4 with nbar = 1/2
    thermal = gaussian.GaussianState(1, np.zeros(2), np.eye(2) / 2.0)
    fid = gaussian.fidelity_with_coherent(thermal, 0j)
    assert fid == pytest.approx(2.0 / 3.0, abs=1e-14)


def test_fidelity_coherent_with_itself():
    st = gaussian.displace(gaussian.vacuum_state(1), 0, 1.1 - 0.4j)
    assert gaussian.fidelity_with_coherent(st, 1.1 - 0.4j) == pytest.approx(
        1.0, abs=1e-14)
    assert gaussian.fidelity_with_coherent(st, 0j) == pytest.approx(
        math.exp(-abs(1.1 - 0.4j) ** 2), abs=1e-14)


def test_fidelity_requires_single_mode():
    with pytest.raises(InvalidArgumentError):
        gaussian.fidelity_with_coherent(gaussian.vacuum_state(2), 0j)


def test_symplectic_validation_rejects_scaling():
    with pytest.raises(InvalidArgumentError):
        gaussian.SymplecticTransform(2.0 * np.eye(2))


def test_symplectic_validation_is_relative_at_large_squeeze():
    # cosh(8) ~ 1.5e3; an absolute defect bound at 1e-12 would reject this
    big = gaussian.SymplecticTransform(
        gaussian.two_mode_squeezer(2, 0, 1, 8.0).matrix)
    assert abs(big.matrix[0, 0]) > 1e3


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_symplectic_validation_refuses_non_finite_matrices(bad):
    # a NaN defect once passed the test "defect > bound"
    with pytest.raises(InvalidArgumentError, match="not finite"):
        gaussian.SymplecticTransform([[bad, 0.0], [0.0, 1.0]])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_large_finite_strengths_and_matrices_are_refused():
    # each once ended in OverflowError: from math.cosh, and from the squared
    # peak entry that scales the defect bound
    for r in (1000.0, -1000.0):
        with pytest.raises(InvalidArgumentError, match="overflows"):
            gaussian.two_mode_squeezer(3, 0, 1, r)
    assert gaussian.two_mode_squeezer(3, 0, 1, 700.0).matrix[0, 0] > 1e303
    for big in ([[1e200, 0.0], [0.0, 1e-200]], [[1e200, 0.0], [0.0, 1.0]]):
        with pytest.raises(InvalidArgumentError, match="too large"):
            gaussian.SymplecticTransform(big)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_products_that_overflow_are_refused():
    # each gate is finite, but S V S^T or S S overflows float64; these once
    # returned infinite moments with numpy's "overflow encountered in matmul"
    sq = gaussian.two_mode_squeezer
    state, product = "^transformed state overflows", "^transform product over"
    with pytest.raises(InvalidArgumentError, match=state):
        sq(2, 0, 1, 400.0).apply(gaussian.vacuum_state(2))
    with pytest.raises(InvalidArgumentError, match=product):
        sq(2, 0, 1, 360.0).compose(sq(2, 0, 1, 360.0))
    wide = gaussian.GaussianState(2, np.zeros(4), 1e200 * np.eye(4))
    with pytest.raises(InvalidArgumentError, match=state):
        sq(2, 0, 1, 300.0).apply(wide)
    # the largest squeezes the network reaches stay finite
    big = sq(3, 0, 1, 12.0).compose(sq(3, 1, 2, 12.0))
    assert np.isfinite(big.apply(gaussian.vacuum_state(3)).cov).all()


def test_gates_and_compositions_skip_the_constructor(monkeypatch):
    # only a caller's matrix runs the S Omega S^T test
    calls = []
    check = gaussian.SymplecticTransform.__post_init__
    monkeypatch.setattr(gaussian.SymplecticTransform, "__post_init__",
                        lambda self: calls.append(self) or check(self))
    sq = gaussian.two_mode_squeezer(3, 0, 1, 2.0)
    bs = gaussian.beam_splitter(3, 1, 2, 0.7)
    both = bs.compose(sq)
    np.testing.assert_array_equal(both.matrix, bs.matrix @ sq.matrix)
    assert calls == []
    gaussian.SymplecticTransform(both.matrix)
    assert len(calls) == 1


def test_transformed_states_and_marginals_skip_the_constructor(monkeypatch):
    st = gaussian.displace(gaussian.vacuum_state(3), 0, 0.4 - 0.1j)
    calls = []
    check = gaussian.GaussianState.__post_init__
    monkeypatch.setattr(gaussian.GaussianState, "__post_init__",
                        lambda self: calls.append(self.n_modes) or check(self))
    out = gaussian.two_mode_squeezer(3, 0, 2, 1.1).apply(st)
    np.testing.assert_array_equal(out.cov, out.cov.T)
    marginal = gaussian.reduce(out, [2, 0])
    np.testing.assert_array_equal(marginal.mean, out.mean[[4, 5, 0, 1]])
    assert calls == []


def test_compose_against_matrix_product():
    a = gaussian.two_mode_squeezer(2, 0, 1, 0.4)
    b = gaussian.beam_splitter(2, 0, 1, 0.9)
    ba = b.compose(a)
    np.testing.assert_allclose(ba.matrix, b.matrix @ a.matrix, atol=1e-14)
    st = gaussian.displace(gaussian.vacuum_state(2), 0, 0.5 + 0j)
    one = b.apply(a.apply(st))
    two = ba.apply(st)
    np.testing.assert_allclose(one.mean, two.mean, atol=1e-14)
    np.testing.assert_allclose(one.cov, two.cov, atol=1e-14)


def test_state_construction_validation():
    with pytest.raises(InvalidArgumentError):
        gaussian.GaussianState(2, np.zeros(4), np.eye(3))
    with pytest.raises(InvalidArgumentError):
        gaussian.GaussianState(1, np.zeros(3), np.eye(2) / 4.0)
    skew = np.eye(2) / 4.0
    skew[0, 1] = 1e-3
    with pytest.raises(InvalidArgumentError):
        gaussian.GaussianState(1, np.zeros(2), skew)


@pytest.mark.parametrize("i, j", [(0, -1), (-1, 0), (0, 3), (3, 1)])
def test_gate_constructors_refuse_out_of_range_modes(i, j):
    # a negative index would otherwise wrap around to the last mode
    for gate in (gaussian.two_mode_squeezer, gaussian.beam_splitter):
        with pytest.raises(InvalidArgumentError, match="out of range"):
            gate(3, i, j, 0.4)
    state = gaussian.vacuum_state(3)
    for gate in (gaussian.two_mode_squeezer, gaussian.beam_splitter):
        with pytest.raises(InvalidArgumentError, match="out of range"):
            gate(state.n_modes, i, j, 0.4).apply(state)


@pytest.mark.parametrize("strength", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
def test_gate_constructors_refuse_non_finite_strengths(strength):
    # NaN and inf once built NaN matrices, and a beam splitter at inf raised
    # ValueError from math.cos
    for gate in (gaussian.two_mode_squeezer, gaussian.beam_splitter):
        with pytest.raises(InvalidArgumentError, match="must be finite"):
            gate(3, 0, 1, strength)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
def test_state_refuses_non_finite_moments_without_warning(bad):
    # the asymmetry test on an inf covariance once warned on inf - inf
    quarter = np.eye(2) / 4.0
    bad_cov = quarter.copy()
    bad_cov[1, 1] = bad
    for mean, cov in (([bad, 0.0], quarter), ([0.0, 0.0], bad_cov)):
        with pytest.raises(InvalidArgumentError, match="not finite"):
            gaussian.GaussianState(1, mean, cov)

