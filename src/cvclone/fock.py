"""Brute-force truncated Fock-space backend.

Single-mode operators are dense numpy arrays. On the tensor space the only
operators are the two-mode gate generators, the pair squeezer or the splitter
on one pair of modes: ``pair_generator`` builds each as a real (float64) DIA
matrix of two diagonals from the mode-major index and caches it, and
``build_generator`` names the three network gates among them. Around them sit
two exponentials, a dense scaling-and-squaring one for the single-mode
squeezer (``squeeze_matrix``) and the action of a generator's exponential on
a state (``expm_apply``), which network evolution applies factor by factor,
then reduced density matrices and the displaced-mixture integral. This module
is the ground truth the symplectic backend is checked against.

``expm_apply`` sums the Chebyshev expansion of exp(G) v (Tal-Ezer & Kosloff
1984). G must be anti-Hermitian, which every truncated bilinear generator is
exactly; then rho = ||G||_1 bounds ||G||_2, the weights are the Bessel values
J_k(rho), and the number of terms is fixed from rho before the first product,
so that the dropped tail is below 2^-53 ||v||_2. A generator that is not
anti-Hermitian is refused. The recurrence runs in the promoted dtype of
generator and vector, so a state with zero imaginary part evolves in real
arithmetic and a complex one in complex arithmetic, and
``apply_network_fock`` runs every state whose imaginary part is exactly zero
as float64.

Mode order for three-mode vectors is (c, a, b): c carries the input, a the
second clone, b the ancilla. Index layout is mode-major,
``flat = (n_c * d_a + n_a) * d_b + n_b``.

Since the generators are exactly anti-Hermitian, gate exponentials are
unitary and norm loss cannot signal truncation failure. The truncation
diagnostic used instead is guard-band leakage: probability mass in the top
two levels of any mode (warn above 1e-3, raise above 1e-2, and raise on NaN).

Input is checked once, where it enters: ``FockVector`` and ``DensityMatrix``
refuse non-finite data, and a caller's density must be Hermitian, positive and
of unit trace. Computed densities, Gram matrices t t^dag and positive mixtures
of D rho D^dag, are positive by construction: ``gaussian._trusted`` wraps them.
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermgauss

from . import _kernels
from .errors import (GridTooCoarseError, InvalidArgumentError,
                     TruncationOverflowError, TruncationWarning)
from .gaussian import _trusted

_LEAK_WARN = 1e-3
_LEAK_FAIL = 1e-2
_GUARD_LEVELS = 2                   # top levels of each mode in the guard band

TWIN_BEAM_SQUEEZE = math.atanh(1.0 / 3.0)


# ------------------------------------------------------------------- vectors

@dataclass(frozen=True)
class FockVector:
    """Dense state vector on a truncated multimode Fock space."""

    dims: tuple
    amplitudes: np.ndarray

    def __post_init__(self):
        dims = _mode_dims(self.dims)
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        size = int(np.prod(dims))
        if amps.shape != (size,):
            raise InvalidArgumentError("amplitude length != product of dims")
        if not np.isfinite(amps).all():
            raise InvalidArgumentError("FockVector amplitudes are not finite")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n_modes(self) -> int:
        return len(self.dims)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "FockVector":
        if not self.amplitudes.any():
            raise InvalidArgumentError("cannot normalize a zero FockVector")
        return FockVector(self.dims, self.amplitudes / self.norm())

    def leakage(self) -> float:
        """Probability mass with any mode in its guard band."""
        t = np.abs(self.amplitudes.reshape(self.dims)) ** 2
        keep = t
        for ax, d in enumerate(self.dims):
            sl = [slice(None)] * len(self.dims)
            sl[ax] = slice(0, d - _GUARD_LEVELS)
            keep = keep[tuple(sl)]
        return float(t.sum() - keep.sum())


def _mode_dims(dims) -> tuple:
    dims = tuple(int(d) for d in dims)
    if any(d < 2 for d in dims):
        raise InvalidArgumentError("every mode needs dimension >= 2")
    return dims


def _guard_band(value: float, msg: str, stacklevel: int) -> None:
    """The truncation policy for a dropped or leaked probability ``value``.

    Above _LEAK_FAIL, or NaN, it raises TruncationOverflowError; above
    _LEAK_WARN it warns with a TruncationWarning. ``stacklevel`` counts
    from the caller of this function, as in ``warnings.warn``.
    """
    if not value <= _LEAK_FAIL:                         # NaN fails as well
        raise TruncationOverflowError(msg + "; raise truncation")
    if value > _LEAK_WARN:
        warnings.warn(msg, TruncationWarning, stacklevel=stacklevel + 1)


def vacuum_fock(dims) -> FockVector:
    dims = _mode_dims(dims)
    amps = np.zeros(math.prod(dims), np.complex128)
    amps[0] = 1.0
    return FockVector(dims, amps)


def _finite_amplitude(value) -> complex:
    alpha = complex(value)
    if not cmath.isfinite(alpha):
        raise InvalidArgumentError(f"coherent amplitude {alpha} is not finite")
    return alpha


def coherent_fock(alpha: complex, dim: int) -> FockVector:
    """Truncated coherent state, renormalized on the truncated space.

    The norm the truncation drops, 1 - e^(-|alpha|^2) sum_n |alpha^n|^2 / n!
    over n < dim, meets the guard-band policy: a TruncationWarning above 1e-3,
    a TruncationOverflowError above 1e-2. A non-finite alpha is refused.
    """
    _finite_amplitude(alpha)
    (dim,) = _mode_dims((dim,))
    amps = np.empty(dim, np.complex128)
    amps[0] = 1.0
    for n in range(1, dim):
        amps[n] = amps[n - 1] * alpha / math.sqrt(n)
    norm = float(np.linalg.norm(amps))
    dropped = 1.0 - math.exp(-abs(alpha) * abs(alpha)) * norm ** 2
    # dropped is NaN once amps overflow, before FockVector would refuse them
    _guard_band(dropped, f"coherent input {alpha} drops {dropped:.2e} of its "
                f"norm at dim {dim}", stacklevel=2)
    return FockVector((dim,), amps / norm)


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
    (dim,) = _mode_dims((dim,))
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1)


def pair_generator(kind: str, dims, i: int, j: int):
    """Two-mode generator on modes (i, j) of ``dims``, a DIA sparse matrix.

    ``"squeezer"`` is ij - i^dag j^dag and ``"splitter"`` is
    i^dag j - i j^dag, the generators of ``gaussian.two_mode_squeezer`` and
    ``gaussian.beam_splitter`` on the same pair. Either is T - T^T for a
    term T on one diagonal, ij or i^dag j, whose weight in column ``flat``
    is read off the occupations of the mode-major index. The diagonal data
    span the full width, one entry per column.

    The matrix is cached per (kind, dims, i, j) and shared by every caller,
    so callers scale it and never write to it.
    """
    return _pair_generator(kind, tuple(int(d) for d in dims), i, j)


# verify holds at most 21 generators at once: A, B and C at three
# truncations and all twelve ordered pairs at d = 25
@functools.lru_cache(maxsize=32)
def _pair_generator(kind: str, dims: tuple, i: int, j: int):
    # imported here so that commands without a tensor space never load scipy
    import scipy.sparse as sp

    for m in (i, j):
        if not 0 <= m < len(dims):
            raise InvalidArgumentError(f"mode {m} out of range")
    if i == j:
        raise InvalidArgumentError("a pair generator needs two distinct modes")
    size = math.prod(dims)
    strides = [math.prod(dims[m + 1:]) for m in range(len(dims))]
    flat = np.arange(size)
    n_i = flat // strides[i] % dims[i]
    n_j = flat // strides[j] % dims[j]
    if kind == "squeezer":                  # T = ij lowers both modes
        weight = np.sqrt(n_i) * np.sqrt(n_j)
        offset = strides[i] + strides[j]
    elif kind == "splitter":                # T = i^dag j moves j into i
        weight = np.sqrt(n_i + 1) * np.sqrt(n_j) * (n_i < dims[i] - 1)
        offset = strides[j] - strides[i]
    else:
        raise InvalidArgumentError(f"unknown pair generator {kind!r}")
    # T[c - offset, c] = weight[c], so -T^T holds -weight[c + offset] in
    # column c of the mirror diagonal -offset
    mirror = np.zeros(size)
    if offset > 0:
        mirror[:size - offset] = -weight[offset:]
    else:
        mirror[-offset:] = -weight[:size + offset]
    data = np.stack((weight, mirror))
    data.flags.writeable = False            # the cache shares it
    return sp.dia_matrix((data, [offset, -offset]), shape=(size, size))


# A squeezes the pair (b, c) and C the pair (a, b); B is the splitter
# coupling of (a, c)
_NETWORK_PAIRS = {"A": ("squeezer", 2, 0), "B": ("splitter", 1, 0),
                  "C": ("squeezer", 1, 2)}


def build_generator(kind: str, dims):
    """One of the three network generators on (c, a, b): the cached DIA
    matrix of ``pair_generator`` for its pair."""
    if len(dims) != 3:
        raise InvalidArgumentError("generators live on three modes")
    if kind not in _NETWORK_PAIRS:
        raise InvalidArgumentError(f"unknown generator kind {kind!r}")
    pair, i, j = _NETWORK_PAIRS[kind]
    return pair_generator(pair, dims, i, j)


# ------------------------------------------------------- matrix exponentials

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


def _chebyshev_coefficients(rho: float) -> np.ndarray:
    """The weights (2 - delta_k0) J_k(rho), k < K, of the Chebyshev sum.

    K is the first index with 2 sum_{k >= K} |J_k(rho)| < 2^-53. The Bessel
    values come from Miller's backward recurrence
    J_(k-1) = (2k / rho) J_k - J_(k+1), started well past the transition
    region k ~ rho + rho^(1/3) where J_k(rho) falls off super-exponentially,
    rescaled whenever it grows large and normalised by
    J_0 + 2 sum_k J_2k = 1.
    """
    if rho < 2.0 ** -26:
        # J_0 rounds to 1 and 2 J_1 to rho; the tail is below rho^2 / 4
        return np.array([1.0, rho])
    start = int(rho + 20.0 * rho ** (1.0 / 3.0)) + 40
    vals = np.zeros(start + 1)
    above, cur = 0.0, 1.0
    vals[start] = cur
    for k in range(start, 0, -1):
        above, cur = cur, (2.0 * k / rho) * cur - above
        vals[k - 1] = cur
        if abs(cur) > 1e250:
            vals[k - 1:] *= 1e-250
            above, cur = above * 1e-250, cur * 1e-250
    vals /= vals[0] + 2.0 * vals[2::2].sum()
    tail = np.cumsum(np.abs(vals[::-1]))[::-1]
    cut = int(np.argmax(2.0 * tail < _UNIT_ROUNDOFF))
    coef = 2.0 * vals[:cut]
    coef[0] = vals[0]
    return coef


def _full_width(dia) -> np.ndarray:
    """The diagonals of a square DIA matrix as rows of one entry per column."""
    n, width = dia.shape[1], dia.data.shape[1]
    if width >= n:
        return dia.data[:, :n]
    return np.pad(dia.data, ((0, 0), (0, n - width)))


def _is_anti_hermitian(mat) -> bool:
    """Whether the DIA matrix mat == -mat^H exactly, diagonal by diagonal.

    Column c of offset k holds mat[c - k, c], which must be minus the
    conjugate of column c - k of offset -k.
    """
    if mat.shape[0] != mat.shape[1]:
        return False
    n = mat.shape[0]
    rows = dict(zip(mat.offsets.tolist(), _full_width(mat)))
    zero = np.zeros(n, mat.dtype)
    for k in {abs(k) for k in rows if abs(k) < n}:
        upper = rows.get(k, zero)[k:]
        lower = rows.get(-k, zero)[:n - k]
        if not np.array_equal(upper, -lower.conj()):
            return False
    return True


def expm_apply(mat, vec: np.ndarray) -> np.ndarray:
    """exp(mat) @ vec for an anti-Hermitian mat.

    ``mat`` is worked on as a DIA matrix, the form of every generator from
    ``pair_generator``; dense and other sparse input is converted once.
    ``vec`` is one vector (n,) or a block of columns (n, k); the result has
    the promoted dtype of ``mat`` and ``vec`` (at least float64), so a real
    generator on a real vector runs in real arithmetic. A matrix that is not
    square and exactly anti-Hermitian raises InvalidArgumentError: the
    expansion below holds only on the imaginary axis.

    The method is the Chebyshev expansion of Tal-Ezer & Kosloff, J. Chem.
    Phys. 81 (1984) 3967. For anti-Hermitian G the 1-norm equals the
    inf-norm, so rho = ||G||_1 bounds ||G||_2, and with u_0 = v,
    u_1 = G v / rho and u_(k+1) = (2 / rho) G u_k + u_(k-1),

        exp(G) v = sum_k (2 - delta_k0) J_k(rho) u_k.

    Each u_k is i^k T_k(G / i rho) v, so ||u_k||_2 <= ||v||_2 and cutting
    the sum where 2 sum_{k >= K} |J_k(rho)| < 2^-53 bounds the error by
    2^-53 ||v||_2. The cut is fixed before the loop, from rho alone.
    """
    import scipy.sparse as sp

    mat = sp.dia_matrix(mat)
    v = np.asarray(vec)
    dtype = np.result_type(v.dtype, mat.dtype, np.float64)
    if not _is_anti_hermitian(mat):
        raise InvalidArgumentError(
            "expm_apply needs an anti-Hermitian generator")
    if mat.dtype != dtype:
        mat = mat.astype(dtype)
    u_prev = np.array(v, dtype=dtype)
    rho = float(np.abs(_full_width(mat)).sum(axis=0).max())
    if rho == 0.0:
        return u_prev
    coef = _chebyshev_coefficients(rho)
    step = mat * (2.0 / rho)
    u = step @ u_prev
    u *= 0.5
    out = coef[0] * u_prev + coef[1] * u
    scratch = np.empty_like(out)
    for c in coef[2:]:
        nxt = step @ u
        nxt += u_prev
        u_prev, u = u, nxt
        np.multiply(u, c, out=scratch)
        out += scratch
    return out


# ------------------------------------------------------------------- network

def _leak_check(vec: FockVector, where: str) -> FockVector:
    leak = vec.leakage()
    _guard_band(leak, f"guard-band leakage {leak:.2e} after {where}",
                stacklevel=3)
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
    trips the truncation diagnostic by design. One loop applies each method's
    labelled factors and checks guard-band leakage after each: "stage K(+s)"
    per literal gate; on the merged path any "preparation" exp((s1 + s3) C),
    then the "merged network". ``run_cloner`` passes s1 = -s3 and its own
    preparation. A state with zero imaginary part evolves in real arithmetic.
    """
    if state.n_modes != 3:
        raise InvalidArgumentError("network input must have three modes")
    stages = spec.stages
    dims = state.dims
    if method == "literal":
        factors = [(build_generator(st.kind, dims) * st.strength,
                    f"stage {st.kind}({st.strength:+.3f})") for st in stages]
    elif method != "merged":
        raise InvalidArgumentError(f"unknown method {method!r}")
    elif tuple(st.kind for st in stages) != ("C", "A", "C"):
        raise InvalidArgumentError("merged path expects the C, A, C layout")
    else:
        import scipy.sparse as sp

        s1, s2, s3 = (st.strength for st in stages)
        prep = s1 + s3
        factors = ([(build_generator("C", dims) * prep, "preparation")]
                   if abs(prep) > 0 else [])
        # A and B lie on distinct diagonals, so the mixed factor stacks their
        # scaled full-width data
        a, b = build_generator("A", dims), build_generator("B", dims)
        factors.append((sp.dia_matrix(
            (np.concatenate((a.data * (s2 * math.cosh(s3)),
                             b.data * (s2 * math.sinh(s3)))),
             np.concatenate((a.offsets, b.offsets))), shape=a.shape),
            "merged network"))
    v = state.amplitudes
    if not v.imag.any():
        v = v.real
    for gen, label in factors:
        v = expm_apply(gen, v)
        out = _leak_check(FockVector(dims, v), label)
    return out


# ---------------------------------------------------------- density matrices

@dataclass(frozen=True)
class DensityMatrix:
    """Single-mode density matrix with validity checks on construction."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidArgumentError("density matrix must be square")
        # before m - m^H, whose inf - inf would warn
        if not np.isfinite(m).all():
            raise InvalidArgumentError("density matrix is not finite")
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
    """Partial trace down to one mode, normalized to unit trace."""
    if not 0 <= mode < state.n_modes:
        raise InvalidArgumentError(f"mode {mode} out of range")
    if not state.amplitudes.any():
        raise InvalidArgumentError("cannot reduce a zero FockVector")
    t = state.amplitudes.reshape(state.dims)
    t = np.moveaxis(t, mode, 0).reshape(state.dims[mode], -1)
    rho = t @ t.conj().T
    rho = rho / float(np.trace(rho).real)
    return _trusted(DensityMatrix, matrix=0.5 * (rho + rho.conj().T))


def _density(state) -> np.ndarray:
    """The matrix of a DensityMatrix or of a single-mode FockVector."""
    if isinstance(state, DensityMatrix):
        return state.matrix
    if isinstance(state, FockVector):
        if state.n_modes != 1:
            raise InvalidArgumentError("need a single-mode input")
        v = state.normalized().amplitudes
        return np.outer(v, v.conj())
    raise InvalidArgumentError("input must be a DensityMatrix or FockVector")


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
    if f_spec == "symmetric":
        return 1.0, 1.0
    if isinstance(f_spec, dict) and "sigma" in f_spec:
        s = float(f_spec["sigma"])
        if not 0 < s < math.inf:
            raise InvalidArgumentError("sigma must be positive and finite")
        return s, 1.0 / s
    if isinstance(f_spec, dict) and "width" in f_spec:
        w = float(f_spec["width"])
        if not 0 < w < math.inf:
            raise InvalidArgumentError("width must be positive and finite")
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
    rho = _density(phi)
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
    mix /= tr
    return _trusted(DensityMatrix, matrix=0.5 * (mix + mix.conj().T))


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
    out = network.run_cloner(phi, network.network_from_lambda(lam),
                             backend="fock", truncation=d).state
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
    return trace_distance(rho_ca, target)
