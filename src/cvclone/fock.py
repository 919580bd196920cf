"""Brute-force truncated Fock-space backend.

Operators are plain arrays: dense numpy for single modes, scipy-sparse on the
tensor space. Every two-mode gate generator, the pair squeezer or the
splitter on one pair of modes, comes from ``pair_generator``; all of them are
real (float64). ``expm_apply`` computes in the promoted dtype of generator and
vector, so a state with zero imaginary part evolves in real arithmetic and a
complex one in complex arithmetic, and ``apply_network_fock`` runs every
state whose imaginary part is exactly zero as float64. Around them sit
a dense scaling-and-squaring matrix exponential, network evolution by the
action of the gate exponentials on the state (truncated Taylor steps sized by
the Al-Mohy & Higham bounds, see ``expm_apply``), reduced density matrices,
and the displaced-mixture integral. This module is the ground truth the
symplectic backend is checked against.

Mode order for three-mode vectors is (c, a, b): c carries the input, a the
second clone, b the ancilla. Index layout is mode-major,
``flat = (n_c * d_a + n_a) * d_b + n_b``.

A truncated bilinear generator is exactly anti-Hermitian, so gate exponentials
are exactly unitary and norm loss cannot signal truncation failure. The
truncation diagnostic used instead is guard-band leakage: probability mass in
the top two levels of any mode (warn above 1e-3, raise above 1e-2).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from numpy.polynomial.hermite import hermgauss

from . import _kernels
from .errors import (GridTooCoarseError, InvalidArgumentError,
                     TruncationOverflowError, TruncationWarning)

_LEAK_WARN = 1e-3
_LEAK_FAIL = 1e-2

TWIN_BEAM_SQUEEZE = math.atanh(1.0 / 3.0)


# ------------------------------------------------------------------- vectors

@dataclass(frozen=True)
class FockVector:
    """Dense state vector on a truncated multimode Fock space."""

    dims: tuple
    amplitudes: np.ndarray

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        size = int(np.prod(dims))
        if any(d < 2 for d in dims):
            raise InvalidArgumentError("every mode needs dimension >= 2")
        if amps.shape != (size,):
            raise InvalidArgumentError("amplitude length != product of dims")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n_modes(self) -> int:
        return len(self.dims)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "FockVector":
        return FockVector(self.dims, self.amplitudes / self.norm())

    def leakage(self, levels: int = 2) -> float:
        """Probability mass with any mode in its top ``levels`` states."""
        t = np.abs(self.amplitudes.reshape(self.dims)) ** 2
        keep = t
        for ax, d in enumerate(self.dims):
            sl = [slice(None)] * len(self.dims)
            sl[ax] = slice(0, d - levels)
            keep = keep[tuple(sl)]
        return float(t.sum() - keep.sum())


def vacuum_fock(dims) -> FockVector:
    amps = np.zeros(int(np.prod(dims)), np.complex128)
    amps[0] = 1.0
    return FockVector(tuple(dims), amps)


def coherent_fock(alpha: complex, dim: int) -> FockVector:
    """Truncated coherent state, renormalized on the truncated space.

    The norm the truncation drops, 1 - e^(-|alpha|^2) sum_n |alpha^n|^2 / n!
    over n < dim, meets the guard-band policy: a TruncationWarning above 1e-3,
    a TruncationOverflowError above 1e-2.
    """
    amps = np.empty(dim, np.complex128)
    amps[0] = 1.0
    for n in range(1, dim):
        amps[n] = amps[n - 1] * alpha / math.sqrt(n)
    vec = FockVector((dim,), amps)
    dropped = 1.0 - math.exp(-abs(alpha) * abs(alpha)) * vec.norm() ** 2
    msg = (f"coherent input {alpha} drops {dropped:.2e} of its norm at "
           f"dim {dim}")
    if not dropped <= _LEAK_FAIL:                      # NaN once amps overflow
        raise TruncationOverflowError(msg + "; raise truncation")
    if dropped > _LEAK_WARN:
        warnings.warn(msg, TruncationWarning, stacklevel=2)
    return vec.normalized()


def tensor(*vecs: FockVector) -> FockVector:
    """Tensor product, mode-major (first argument is the leading mode)."""
    amps = vecs[0].amplitudes
    dims = list(vecs[0].dims)
    for v in vecs[1:]:
        amps = np.kron(amps, v.amplitudes)
        dims.extend(v.dims)
    return FockVector(tuple(dims), amps)


# ----------------------------------------------------------------- operators

def annihilation_matrix(dim: int) -> np.ndarray:
    """Single-mode lowering operator, <n-1|a|n> = sqrt(n)."""
    if dim < 2:
        raise InvalidArgumentError("dim must be at least 2")
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1)


@functools.lru_cache(maxsize=16)
def _mode_annihilations(dims: tuple):
    """Sparse lowering operator for each mode of the full tensor space."""
    ops = []
    for m, d in enumerate(dims):
        mat = sp.csr_matrix(annihilation_matrix(d))
        full = sp.identity(1, format="csr")
        for k, dk in enumerate(dims):
            factor = mat if k == m else sp.identity(dk, format="csr")
            full = sp.kron(full, factor, format="csr")
        ops.append(full)
    return tuple(ops)


def pair_generator(kind: str, dims, i: int, j: int):
    """Sparse two-mode generator on modes (i, j) of the tensor space ``dims``.

    ``"squeezer"`` is ij - i^dag j^dag and ``"splitter"`` is
    i^dag j - i j^dag, the generators of ``gaussian.two_mode_squeezer`` and
    ``gaussian.beam_splitter`` on the same pair.
    """
    dims = tuple(int(d) for d in dims)
    for m in (i, j):
        if not 0 <= m < len(dims):
            raise InvalidArgumentError(f"mode {m} out of range")
    if i == j:
        raise InvalidArgumentError("a pair generator needs two distinct modes")
    ann = _mode_annihilations(dims)
    ai, aj = ann[i], ann[j]
    if kind == "squeezer":
        return (ai @ aj - ai.conj().T @ aj.conj().T).tocsr()
    if kind == "splitter":
        return (ai.conj().T @ aj - ai @ aj.conj().T).tocsr()
    raise InvalidArgumentError(f"unknown pair generator {kind!r}")


@functools.lru_cache(maxsize=16)
def _generators(dims: tuple):
    """The three network generators as sparse matrices on (c, a, b).

    A squeezes the pair (b, c) and C the pair (a, b); B is the splitter
    coupling of (a, c).
    """
    return {"A": pair_generator("squeezer", dims, 2, 0),
            "B": pair_generator("splitter", dims, 1, 0),
            "C": pair_generator("squeezer", dims, 1, 2)}


def build_generator(kind: str, dims):
    """One of the three network generators, a sparse matrix on (c, a, b)."""
    dims = tuple(int(d) for d in dims)
    if len(dims) != 3:
        raise InvalidArgumentError("generators live on three modes")
    if kind not in ("A", "B", "C"):
        raise InvalidArgumentError(f"unknown generator kind {kind!r}")
    return _generators(dims)[kind]


# ------------------------------------------------------- matrix exponentials

# Largest ||A||_1 for which the degree-m Taylor step meets double-precision
# backward error, Al-Mohy & Higham (2011), Table 3.1.
_TAYLOR_THETA = {20: 1.4, 25: 2.4, 30: 3.5, 35: 4.7, 40: 6.0, 45: 7.2,
                 50: 8.5, 55: 9.9}
_UNIT_ROUNDOFF = 2.0 ** -53


def _expm_dense(mat: np.ndarray) -> np.ndarray:
    """Scaling-and-squaring with a Taylor core.

    The generators exponentiated here are anti-Hermitian, hence normal, so an
    eigendecomposition would serve as well; the Taylor core keeps
    scipy.linalg out of the module-level imports.
    """
    norm = float(np.abs(mat).sum(axis=0).max())
    s = max(0, int(math.ceil(math.log2(norm)))) if norm > 1.0 else 0
    m = mat / (2.0 ** s)
    dim = mat.shape[0]
    out = np.eye(dim, dtype=np.complex128)
    term = np.eye(dim, dtype=np.complex128)
    for k in range(1, 40):
        term = term @ m / k
        out += term
        if np.abs(term).max() <= 1e-17 * max(1.0, np.abs(out).max()):
            break
    for _ in range(s):
        out = out @ out
    return out


def squeeze_matrix(xi: complex, dim: int) -> np.ndarray:
    """Single-mode squeezer S(xi) = exp((xi a^dag^2 - conj(xi) a^2)/2).

    Built on ``dim`` levels; the outcome operators of ``measurement`` and the
    general-width preparation both use this convention.
    """
    a = annihilation_matrix(dim).astype(np.complex128)
    gen = 0.5 * (xi * a.conj().T @ a.conj().T - np.conj(xi) * a @ a)
    return _expm_dense(gen)


def matrix_exponential(op) -> np.ndarray:
    """exp(op) for a square array."""
    mat = np.asarray(op, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise InvalidArgumentError("need a square matrix")
    if not np.all(np.isfinite(mat)):
        raise InvalidArgumentError("non-finite operator entries")
    return _expm_dense(mat)


def _inf_norm(block: np.ndarray) -> float:
    if block.ndim == 1:
        return float(np.abs(block).max())
    return float(np.abs(block).reshape(block.shape[0], -1).sum(axis=1).max())


def expm_apply(mat, vec: np.ndarray) -> np.ndarray:
    """exp(mat) @ vec without forming exp(mat); mat sparse or dense.

    ``vec`` is one vector (n,) or a block of columns (n, k); the result has
    the promoted dtype of ``mat`` and ``vec`` (at least float64), so a real
    generator on a real vector runs in real arithmetic. Truncated Taylor
    steps sized as in Al-Mohy & Higham, SIAM J. Sci. Comput. 33 (2011) 488:
    from the exact 1-norm, take the degree m in 20, 25, ..., 55 and the step
    count s = ceil(||mat||_1 / theta_m) that minimise m s, where theta_m is
    their double-precision bound (Table 3.1). Each step sums at most m terms
    and stops once two successive terms fall below 2^-53 of the partial sum's
    inf-norm. That norm is computed only when the triangle bound B, the
    step's starting norm plus every term norm so far, admits a stop
    (c1 + c2 <= 2^-52 B; the factor 2 absorbs rounding in B), so every
    stopping decision is the one the exact test alone would take.
    """
    v = np.asarray(vec)
    dtype = np.result_type(v.dtype, mat.dtype, np.float64)
    v = np.array(v, dtype=dtype)
    if mat.dtype != dtype:
        mat = mat.astype(dtype)
    norm = float(np.abs(mat).sum(axis=0).max())
    if norm == 0.0:
        return v
    m, s = min(((m, math.ceil(norm / theta))
                for m, theta in _TAYLOR_THETA.items()),
               key=lambda ms: ms[0] * ms[1])
    for _ in range(s):
        term = v
        c1 = bound = _inf_norm(term)
        for j in range(1, m + 1):
            term = mat @ term
            term *= 1.0 / (s * j)
            v += term
            c2 = _inf_norm(term)
            bound += c2
            if (c1 + c2 <= 2.0 * _UNIT_ROUNDOFF * bound
                    and c1 + c2 <= _UNIT_ROUNDOFF * _inf_norm(v)):
                break
            c1 = c2
    return v


# ------------------------------------------------------------------- network

def _leak_check(vec: FockVector, where: str) -> FockVector:
    leak = vec.leakage()
    if leak > _LEAK_FAIL:
        raise TruncationOverflowError(
            f"guard-band leakage {leak:.2e} after {where}; raise truncation")
    if leak > _LEAK_WARN:
        warnings.warn(f"guard-band leakage {leak:.2e} after {where}",
                      TruncationWarning, stacklevel=3)
    if abs(vec.norm() - 1.0) > 1e-6:
        warnings.warn(f"norm drift {vec.norm() - 1.0:.2e} after {where}",
                      TruncationWarning, stacklevel=3)
    return vec


def apply_network_fock(spec, state: FockVector,
                       method: str = "merged") -> FockVector:
    """Run the three-stage network on a three-mode vector.

    ``merged`` (default) applies the algebraically identical two-factor form
    exp(s2 cosh(s3) A + s2 sinh(s3) B) exp((s1 + s3) C), which avoids passing
    through the strongly squeezed intermediate of the literal sequence.
    ``literal`` applies the three gates one by one; past moderate coupling it
    trips the truncation diagnostic by design. Guard-band leakage is checked
    after every factor: each gate on the literal path, and on the merged path
    the preparation exp((s1 + s3) C) as well as the output. A state whose
    imaginary part is exactly zero evolves in real arithmetic.
    """
    if state.n_modes != 3:
        raise InvalidArgumentError("network input must have three modes")
    stages = spec.stages
    gens = _generators(state.dims)
    v = state.amplitudes
    if not v.imag.any():
        v = v.real
    if method == "literal":
        for st in stages:
            v = expm_apply(gens[st.kind] * st.strength, v)
            out = _leak_check(FockVector(state.dims, v),
                              f"stage {st.kind}({st.strength:+.3f})")
        return out
    if method != "merged":
        raise InvalidArgumentError(f"unknown method {method!r}")
    k1, k2, k3 = (st.kind for st in stages)
    if (k1, k2, k3) != ("C", "A", "C"):
        raise InvalidArgumentError("merged path expects the C, A, C layout")
    s1, s2, s3 = (st.strength for st in stages)
    prep = s1 + s3
    if abs(prep) > 0:
        v = expm_apply(gens["C"] * prep, v)
        _leak_check(FockVector(state.dims, v), "preparation")
    mixed = gens["A"] * (s2 * math.cosh(s3)) + gens["B"] * (s2 * math.sinh(s3))
    v = expm_apply(mixed, v)
    return _leak_check(FockVector(state.dims, v), "merged network")


# ---------------------------------------------------------- density matrices

@dataclass(frozen=True)
class DensityMatrix:
    """Single-mode density matrix with validity checks on construction."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidArgumentError("density matrix must be square")
        herm = np.abs(m - m.conj().T).max()
        if herm > 1e-10:
            raise InvalidArgumentError(f"hermiticity violation {herm:.2e}")
        m = 0.5 * (m + m.conj().T)
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > 1e-8:
            raise InvalidArgumentError(f"trace {tr} too far from 1")
        low = float(np.linalg.eigvalsh(m).min())
        if low < -1e-8:
            raise InvalidArgumentError(f"negative eigenvalue {low:.2e}")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)

    def photon_number(self) -> float:
        return float((np.arange(self.dim) * np.diag(self.matrix).real).sum())

    def quadrature_moments(self, phase: float):
        """Mean and variance of cos(phase) X + sin(phase) Y."""
        a = annihilation_matrix(self.dim)
        quad = 0.5 * (a * np.exp(-1j * phase) + a.conj().T * np.exp(1j * phase))
        mean = float(np.trace(self.matrix @ quad).real)
        second = float(np.trace(self.matrix @ quad @ quad).real)
        return mean, second - mean * mean


def reduced_density(state: FockVector, mode: int) -> DensityMatrix:
    """Partial trace down to one mode."""
    if not 0 <= mode < state.n_modes:
        raise InvalidArgumentError(f"mode {mode} out of range")
    t = state.amplitudes.reshape(state.dims)
    t = np.moveaxis(t, mode, 0).reshape(state.dims[mode], -1)
    rho = t @ t.conj().T
    nrm = float(np.trace(rho).real)
    return DensityMatrix(rho / nrm)


def trace_distance(r1: DensityMatrix, r2: DensityMatrix) -> float:
    """(1/2) trace norm of the difference, by Hermitian eigendecomposition."""
    m1 = r1.matrix if isinstance(r1, DensityMatrix) else np.asarray(r1)
    m2 = r2.matrix if isinstance(r2, DensityMatrix) else np.asarray(r2)
    if m1.shape != m2.shape:
        raise InvalidArgumentError("dimension mismatch")
    return 0.5 * float(np.abs(np.linalg.eigvalsh(m1 - m2)).sum())


# ----------------------------------------------------------- smeared mixture

def _parse_f_spec(f_spec):
    """Width pair (wx, wy) such that the mixture nodes are (wx u + i wy v)/√2.

    The displacement weight is |f|^2 with Var(Re z) = wx^2/4 and
    Var(Im z) = wy^2/4.
    """
    if f_spec == "symmetric" or f_spec == {"symmetric": True}:
        return 1.0, 1.0
    if isinstance(f_spec, dict) and "sigma" in f_spec:
        s = float(f_spec["sigma"])
        if s <= 0:
            raise InvalidArgumentError("sigma must be positive")
        return s, 1.0 / s
    if isinstance(f_spec, dict) and "width" in f_spec:
        w = float(f_spec["width"])
        if w <= 0:
            raise InvalidArgumentError("width must be positive")
        return w, w
    raise InvalidArgumentError(f"unrecognized f_spec {f_spec!r}")


def smeared_mixture(phi, f_spec="symmetric", grid: int = 41) -> DensityMatrix:
    """Gaussian displacement mixture of a single-mode state.

    Integrates D(z) rho D†(z) against the squared kernel |f|^2 on a tensor
    Gauss-Hermite grid aligned with the Gaussian weight. The grid is symmetric
    under z -> -z and z -> z*, and with P = diag((-1)^n), D(-z) = P D(z) P and
    D(z*) = conj D(z). So only the quadrant u, v >= 0 is summed, with nodes on
    an axis at half weight, as S(sigma) for the four images sigma = rho, P rho
    P, rho*, P rho* P, and the mixture is
    S(rho) + conj S(rho*) + P (S(P rho P) + conj S(P rho* P)) P.
    """
    if isinstance(phi, FockVector):
        if phi.n_modes != 1:
            raise InvalidArgumentError("smeared_mixture needs a single mode")
        rho = np.outer(phi.amplitudes, phi.amplitudes.conj())
        rho /= np.trace(rho).real
    elif isinstance(phi, DensityMatrix):
        rho = phi.matrix
    else:
        raise InvalidArgumentError("phi must be a FockVector or DensityMatrix")
    if grid < 41:
        raise InvalidArgumentError("need at least a 41x41 node grid")
    wx, wy = _parse_f_spec(f_spec)
    dim = rho.shape[0]
    nodes, wts = hermgauss(grid)
    nodes, wts = nodes[grid // 2:], wts[grid // 2:].copy()
    if grid % 2:
        wts[0] *= 0.5                                  # the node on the axis
    u, v = np.meshgrid(nodes, nodes, indexing="ij")
    zs = ((wx * u + 1j * wy * v) / math.sqrt(2.0)).ravel()
    weights = np.outer(wts, wts).ravel() / math.pi
    disp = _kernels.displacement_columns_batch(zs, dim, dim)
    sign = (-1.0) ** np.arange(dim)
    parity = np.outer(sign, sign)
    images = np.stack([rho, parity * rho, rho.conj(), parity * rho.conj()])
    part = _kernels.smear_accumulate(disp, weights, images)
    mix = part[0] + part[2].conj() + parity * (part[1] + part[3].conj())
    tr = float(np.trace(mix).real)
    if abs(tr - 1.0) > 1e-4:
        raise GridTooCoarseError(
            f"mixture trace {tr:.6f}; the smear moves mass past the "
            "truncation, raise truncation")
    return DensityMatrix(mix / tr)


# ------------------------------------------------------- projector-form limit

def projector_form_check(phi: FockVector, lam: float) -> float:
    """Distance between the two-clone state and its projector limit form.

    Builds (1/2) P (|phi><phi| ⊗ I) P with P the vacuum projector conjugated
    by the balanced rotation of the clone pair, normalizes it, and returns its
    trace distance from the ancilla-traced network output.
    """
    if phi.n_modes != 1:
        raise InvalidArgumentError("phi must be single-mode")
    if lam < 3.0:
        raise InvalidArgumentError("limit form needs lam >= 3")
    from . import network

    d = phi.dims[0]
    psi = tensor(phi.normalized(), vacuum_fock((d,)), vacuum_fock((d,)))
    out = apply_network_fock(network.network_from_lambda(lam), psi)
    t = out.amplitudes.reshape(d, d, d)
    rho_ca = np.einsum("ijb,klb->ijkl", t, t.conj()).reshape(d * d, d * d)
    rho_ca /= np.trace(rho_ca).real

    # the columns of the rotation with c in vacuum span the projector's range
    gen = pair_generator("splitter", (d, d), 0, 1)
    w = expm_apply((math.pi / 4.0) * gen,
                   np.eye(d * d, dtype=np.complex128)[:, :d])
    proj = w @ w.conj().T
    kern = np.kron(np.outer(phi.amplitudes, phi.amplitudes.conj()), np.eye(d))
    target = 0.5 * (proj @ kern @ proj)
    target /= np.trace(target).real
    return 0.5 * float(np.abs(np.linalg.eigvalsh(rho_ca - target)).sum())
