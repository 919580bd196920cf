"""Exact Gaussian-state evolution in the symplectic picture.

Conventions, fixed package-wide: quadratures X = (c + c†)/2, Y = (c − c†)/(2i),
so vacuum has covariance I/4 and [X, Y] = i/2. Quadratures are interleaved as
(x1, y1, x2, y2, ...). All operations are pure; states are immutable.

A gate is a linear symplectic map S acting as (mean, cov) -> (S mean,
S cov S^T); ``displace`` shifts a state's mean directly. Gates act on a pair
of modes (i, j), and their generators and symplectic actions are (sign
conventions are pinned by the truncated-Fock backend's ``pair_generator``,
see tests):

  two-mode squeezer  e^{r(ij − i†j†)}:   i → i cosh r − j† sinh r
  beam splitter      e^{θ(i†j − ij†)}:   i → i cos θ + j sin θ,  j → j cos θ − i sin θ

Input is checked once, where it enters: gates check their modes and strength,
states their shapes, finiteness and symmetry, and ``SymplecticTransform(
matrix)`` a caller's matrix. ``_trusted`` wraps what is computed from checked
input with no second check: closed-form gates and their products, symplectic
by construction (a product's S Omega S^T roundoff reflects factors it no
longer shows), and transformed states and their marginals. ``apply`` and
``compose`` refuse a product that overflows float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError

_SYMPLECTIC_TOL = 1e-12


def _trusted(cls, **fields):
    """The frozen dataclass ``cls`` with ``fields`` set but its constructor's
    checks skipped: for what a backend computes from input already checked."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def symplectic_form(n_modes: int) -> np.ndarray:
    """The canonical antisymmetric form for interleaved quadratures."""
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        omega[2 * k, 2 * k + 1] = 1.0
        omega[2 * k + 1, 2 * k] = -1.0
    return omega


@dataclass(frozen=True)
class GaussianState:
    """Mean quadrature vector and covariance matrix for n bosonic modes."""

    n_modes: int
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        if self.n_modes < 1:
            raise InvalidArgumentError("need at least one mode")
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        d = 2 * self.n_modes
        if mean.shape != (d,) or cov.shape != (d, d):
            raise InvalidArgumentError(
                f"mean/cov shape mismatch for {self.n_modes} modes")
        # before the asymmetry test, whose inf - inf would warn
        if not all(map(math.isfinite, mean.tolist() + cov.ravel().tolist())):
            raise InvalidArgumentError(
                "GaussianState mean or covariance is not finite")
        asym = np.abs(cov - cov.T).max()
        if asym > 1e-9:
            raise InvalidArgumentError(f"covariance asymmetry {asym:.2e}")
        if asym > 0:
            cov = 0.5 * (cov + cov.T)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


@dataclass(frozen=True)
class SymplecticTransform:
    """Linear symplectic map: state -> (S mean, S cov S^T)."""

    matrix: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.matrix, dtype=float)
        d = s.shape[0]
        if s.shape != (d, d) or d % 2:
            raise InvalidArgumentError("matrix must be square and even-sized")
        # finiteness first: inf * 0 in S Omega S^T would warn
        peak = float(np.abs(s).max())
        if not peak < math.inf:
            raise InvalidArgumentError("matrix is not finite")
        if not d * peak * peak < math.inf:
            raise InvalidArgumentError(
                f"matrix entry {peak:.2e} is too large: S Omega S^T overflows")
        omega = symplectic_form(d // 2)
        err = np.abs(s @ omega @ s.T - omega).max()
        # roundoff in S Omega S^T scales with |S|^2 (cosh/sinh cancellation
        # at large squeeze), so the defect bound must be relative
        scale = max(1.0, peak ** 2)
        if not err <= _SYMPLECTIC_TOL * scale:
            raise InvalidArgumentError(
                f"matrix is not symplectic (defect {err:.2e}, "
                f"scale {scale:.2e})")
        object.__setattr__(self, "matrix", s)

    @property
    def n_modes(self) -> int:
        return self.matrix.shape[0] // 2

    def apply(self, state: GaussianState) -> GaussianState:
        if state.n_modes != self.n_modes:
            raise InvalidArgumentError("mode-count mismatch")
        try:
            with np.errstate(over="raise", invalid="raise"):
                mean = self.matrix @ state.mean
                cov = self.matrix @ state.cov @ self.matrix.T
                cov = 0.5 * (cov + cov.T)
        except FloatingPointError:
            raise InvalidArgumentError("transformed state overflows") from None
        return _trusted(GaussianState, n_modes=state.n_modes, mean=mean,
                        cov=cov)

    def compose(self, inner: "SymplecticTransform") -> "SymplecticTransform":
        """The map that applies ``inner`` first, then this transform."""
        try:
            with np.errstate(over="raise", invalid="raise"):
                matrix = self.matrix @ inner.matrix
        except FloatingPointError:
            raise InvalidArgumentError("transform product overflows") from None
        return _trusted(SymplecticTransform, matrix=matrix)


def _check_mode(n_modes: int, mode: int) -> int:
    if not 0 <= mode < n_modes:
        raise InvalidArgumentError(f"mode {mode} out of range")
    return mode


def _check_pair(n_modes: int, i: int, j: int, strength: float,
                gate: str) -> None:
    """Every pair gate's rule: distinct modes in range, a finite strength."""
    _check_mode(n_modes, i), _check_mode(n_modes, j)
    if i == j:
        raise InvalidArgumentError(f"{gate} needs two distinct modes")
    if not math.isfinite(strength):
        raise InvalidArgumentError(f"{gate} strength must be finite")


def vacuum_state(n_modes: int) -> GaussianState:
    if n_modes < 1:
        raise InvalidArgumentError("need at least one mode")
    return GaussianState(n_modes, np.zeros(2 * n_modes),
                         np.eye(2 * n_modes) / 4.0)


def displace(state: GaussianState, mode: int, alpha: complex) -> GaussianState:
    """Shift one mode's mean by (Re alpha, Im alpha); covariance unchanged."""
    i = 2 * _check_mode(state.n_modes, mode)
    mean = state.mean.copy()
    mean[i] += np.real(alpha)
    mean[i + 1] += np.imag(alpha)
    return GaussianState(state.n_modes, mean, state.cov)


def two_mode_squeezer(n_modes: int, i: int, j: int, r: float) -> SymplecticTransform:
    """Symplectic matrix of e^{r(ij − i†j†)} acting on modes (i, j)."""
    _check_pair(n_modes, i, j, r, "squeezer")
    try:
        ch, sh = math.cosh(r), math.sinh(r)
    except OverflowError:
        raise InvalidArgumentError(f"squeezer cosh({r}) overflows") from None
    s = np.eye(2 * n_modes)
    xi, yi, xj, yj = 2 * i, 2 * i + 1, 2 * j, 2 * j + 1
    s[xi, xi] = ch; s[xi, xj] = -sh
    s[xj, xj] = ch; s[xj, xi] = -sh
    s[yi, yi] = ch; s[yi, yj] = sh
    s[yj, yj] = ch; s[yj, yi] = sh
    return _trusted(SymplecticTransform, matrix=s)


def beam_splitter(n_modes: int, i: int, j: int, angle: float) -> SymplecticTransform:
    """Symplectic matrix of e^{θ(i†j − ij†)} acting on modes (i, j)."""
    _check_pair(n_modes, i, j, angle, "beam splitter")
    s = np.eye(2 * n_modes)
    c, sn = math.cos(angle), math.sin(angle)
    for p, q in ((2 * i, 2 * j), (2 * i + 1, 2 * j + 1)):
        s[p, p] = c; s[p, q] = sn
        s[q, q] = c; s[q, p] = -sn
    return _trusted(SymplecticTransform, matrix=s)


def reduce(state: GaussianState, keep) -> GaussianState:
    """Gaussian marginal on the given modes, in the order given."""
    keep = list(keep)
    if not keep:
        raise InvalidArgumentError("keep set must be nonempty")
    if len(set(keep)) != len(keep):
        raise InvalidArgumentError("repeated mode index")
    for m in keep:
        _check_mode(state.n_modes, m)
    idx = [i for m in keep for i in (2 * m, 2 * m + 1)]
    mean, cov = state.mean.take(idx), state.cov.take(idx, 0).take(idx, 1)
    return _trusted(GaussianState, n_modes=len(keep), mean=mean, cov=cov)


def quadrature_moments(state: GaussianState, mode: int, phase: float):
    """Mean and variance of cos(phase) X + sin(phase) Y on one mode."""
    i = 2 * _check_mode(state.n_modes, mode)
    if not math.isfinite(phase):
        raise InvalidArgumentError("phase must be finite")
    c, s = math.cos(phase), math.sin(phase)
    mean = c * state.mean[i] + s * state.mean[i + 1]
    v = state.cov
    var = (c * c * v[i, i] + 2.0 * c * s * v[i, i + 1]
           + s * s * v[i + 1, i + 1])
    return mean, var


def fidelity_with_coherent(state: GaussianState, alpha: complex) -> float:
    """<alpha| rho |alpha>, pi times the Husimi Q, for a single-mode rho."""
    if state.n_modes != 1:
        raise InvalidArgumentError("fidelity_with_coherent needs a single mode")
    # det/quadratic form of (cov + I/4) against the phase-space point alpha
    m = state.cov + np.eye(2) / 4.0
    delta = state.mean - np.array([np.real(alpha), np.imag(alpha)])
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    quad = delta @ np.linalg.solve(m, delta)
    return 0.5 * (math.exp(-0.5 * quad) / math.sqrt(det))
