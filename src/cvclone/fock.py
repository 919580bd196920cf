"""Brute-force truncated Fock-space backend.

Single-mode operators are dense numpy arrays. On the tensor space the only
operators are the two-mode gate generators, the pair squeezer or the splitter
on one pair of modes: ``pair_generator`` builds each as a real (float64) DIA
matrix of two diagonals from the mode-major index and caches it, and
``build_generator`` names the three network gates among them. Around them sit
two exponential actions on a state, one per kind of factor.
``pair_expm_apply`` applies a single pair gate exactly, from the
photon-number chains its generator splits into: every literal network stage,
the merged path's preparation, the pair gates of ``checks`` and the balanced
splitter of ``measurement.projector_form_check``.
``expm_apply`` sums a Chebyshev series for the rest: the merged path's mixed
A/B factor, and the dense single-mode squeezer, which ``squeeze_matrix``
builds by applying it to the identity. Then come reduced density matrices
and the displaced-mixture integral.
This module is the ground truth the symplectic backend is checked against.
It imports nothing from ``network``, whose stages ``apply_network_fock`` is
handed; the network's limit-form checks live in ``measurement``.

``expm_apply`` sums the Chebyshev expansion of exp(G) v (Tal-Ezer & Kosloff
1984). G must be anti-Hermitian, which every truncated bilinear generator is
exactly; then any rho >= ||G||_2 scales the series, the weights are the
Bessel values J_k(rho), and the number of terms is fixed from rho before the
first product, so that the dropped tail is below 2^-53 ||v||_2. rho is
||G||_1, or a caller's tighter bound on ||G||_2: for the merged factor
c1 A + c2 B that is |c1| ||A||_2 + |c2| ||B||_2, read off the chain spectra,
0.79-0.85 of the 1-norm and 12-13% fewer terms. Each term is one in-place
product into the older of two buffers, on a DIA matrix through scipy's raw
routine (``_dia_matvec_add``, which checks what that routine does not). A
generator that is not anti-Hermitian is refused. The recurrence runs in the
promoted dtype of generator and vector, so a state with zero imaginary part
evolves in real arithmetic and a complex one in complex arithmetic;
``pair_expm_apply`` keeps a real state real too. So ``apply_network_fock``
runs every state whose imaginary part is exactly zero as float64.

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
import operator
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


def _integer(value, name: str) -> int:
    """``value`` through ``operator.index``: an int or a numpy integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidArgumentError(
            f"{name} must be an integer, got {value!r}") from None


def _mode_dims(dims) -> tuple:
    dims = tuple(_integer(d, "dimension") for d in dims)
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
    dims = _mode_dims(dims)
    _check_pair(dims, i, j)
    return _pair_generator(kind, dims, i, j)


def _check_pair(dims: tuple, i: int, j: int) -> None:
    for m in (i, j):
        if not 0 <= m < len(dims):
            raise InvalidArgumentError(f"mode {m} out of range")
    if i == j:
        raise InvalidArgumentError("a pair generator needs two distinct modes")


# verify holds at most 8 generators at once: A, B and C at its truncation,
# A and B at 16, and the three two-mode ones behind its chain tables; the
# Fock benchmark holds A and B at five truncations and one two-mode one
@functools.lru_cache(maxsize=16)
def _pair_generator(kind: str, dims: tuple, i: int, j: int):
    # imported here so that commands without a tensor space never load scipy
    import scipy.sparse as sp

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


def _network_pair(kind: str) -> tuple:
    """(pair generator, i, j) of network gate ``kind``."""
    if kind not in _NETWORK_PAIRS:
        raise InvalidArgumentError(f"unknown generator kind {kind!r}")
    return _NETWORK_PAIRS[kind]


def build_generator(kind: str, dims):
    """One of the three network generators on (c, a, b): the cached DIA
    matrix of ``pair_generator`` for its pair."""
    if len(dims) != 3:
        raise InvalidArgumentError("generators live on three modes")
    pair, i, j = _network_pair(kind)
    return pair_generator(pair, dims, i, j)


# ------------------------------------------------------- matrix exponentials

_UNIT_ROUNDOFF = 2.0 ** -53


def squeeze_matrix(xi: complex, dim: int) -> np.ndarray:
    """Single-mode squeezer S(xi) = exp((xi a^dag^2 - conj(xi) a^2)/2).

    The exponential of the generator truncated to ``dim`` levels, a unitary
    on them; the outcome operators of ``measurement`` and the general-width
    preparation both use this convention. The generator's two diagonals are
    built from one weight array, so that it is exactly anti-Hermitian.
    """
    (dim,) = _mode_dims((dim,))
    w = 0.5 * np.sqrt(np.arange(1.0, dim - 1) * np.arange(2.0, dim))
    gen = np.diag(xi * w, -2) - np.diag(np.conj(xi) * w, 2)
    return expm_apply(gen, np.eye(dim))


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
    """Whether a square dense or DIA matrix mat == -mat^H exactly.

    A DIA matrix is compared diagonal by diagonal: column c of offset k
    holds mat[c - k, c], which must be minus the conjugate of column c - k
    of offset -k.
    """
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        return False
    if isinstance(mat, np.ndarray):
        return np.array_equal(mat, -mat.conj().T)
    n = mat.shape[0]
    rows = dict(zip(mat.offsets.tolist(), _full_width(mat)))
    zero = np.zeros(n, mat.dtype)
    for k in {abs(k) for k in rows if abs(k) < n}:
        upper = rows.get(k, zero)[k:]
        lower = rows.get(-k, zero)[:n - k]
        if not np.array_equal(upper, -lower.conj()):
            return False
    return True


def _dia_matvec_add(data: np.ndarray, offsets: np.ndarray, x: np.ndarray,
                    y: np.ndarray) -> None:
    """y += M x in place, for the square DIA matrix M of ``data``, ``offsets``.

    The one call into scipy's private C routines behind ``dia_matrix @ x``,
    ``dia_matvec`` for a vector (n,) and ``dia_matvecs`` for a block (n, k),
    which add the product into their output array. M is n x n for n =
    len(y); row r of ``data`` is the diagonal at offset ``offsets[r]``, entry
    c in column c, of any width (entries past n are ignored, missing ones
    count as zero). The routines check no bounds and write into a converted
    copy of an output of another dtype, so everything is checked here: one
    dtype for ``data``, ``x`` and ``y``, C-contiguous arrays, ``x`` of the
    shape of ``y``, and one diagonal per offset.
    """
    from scipy.sparse import _sparsetools

    if not (x.dtype == y.dtype == data.dtype and x.shape == y.shape
            and 1 <= x.ndim <= 2 and data.ndim == 2 and offsets.ndim == 1
            and offsets.shape[0] == data.shape[0]
            and x.flags.c_contiguous and y.flags.c_contiguous
            and data.flags.c_contiguous and offsets.flags.c_contiguous
            and y.flags.writeable):
        raise InvalidArgumentError("DIA product on mismatched arrays")
    n = y.shape[0]
    if x.ndim == 1:
        _sparsetools.dia_matvec(n, n, offsets.shape[0], data.shape[1],
                                offsets, data, x, y)
    else:
        _sparsetools.dia_matvecs(n, n, offsets.shape[0], data.shape[1],
                                 offsets, data, x.shape[1], x, y)


def expm_apply(mat, vec: np.ndarray, bound: float | None = None) -> np.ndarray:
    """exp(mat) @ vec for an anti-Hermitian mat.

    The exponential for factors that are not a single pair gate, which
    ``pair_expm_apply`` takes exactly: the merged network's mixed A/B
    factor, whose conserved sectors are two-dimensional lattices, and the
    dense single-mode squeezer. A dense ``ndarray`` stays dense, and needs
    no scipy: ``squeeze_matrix`` passes one. Other input is worked on as a
    DIA matrix, the form of every generator from ``pair_generator``; other
    sparse formats are converted once. ``vec`` is one vector (n,) or a block
    of columns (n, k); the result has the promoted dtype of ``mat`` and
    ``vec`` (at least float64), so a real generator on a real vector runs in
    real arithmetic. A matrix that is not square and exactly anti-Hermitian,
    or a ``vec`` whose first axis is not its size, raises
    InvalidArgumentError: the expansion below holds only on the imaginary
    axis.

    The method is the Chebyshev expansion of Tal-Ezer & Kosloff, J. Chem.
    Phys. 81 (1984) 3967. Any rho >= ||G||_2 scales it: with u_0 = v,
    u_1 = G v / rho and u_(k+1) = (2 / rho) G u_k + u_(k-1),

        exp(G) v = sum_k (2 - delta_k0) J_k(rho) u_k.

    Each u_k is i^k T_k(G / i rho) v, so ||u_k||_2 <= ||v||_2 and cutting
    the sum where 2 sum_{k >= K} |J_k(rho)| < 2^-53 bounds the error by
    2^-53 ||v||_2. The cut is fixed before the loop, from rho alone, and
    the smaller rho, the fewer terms. For anti-Hermitian G the 1-norm equals
    the inf-norm, so ||G||_1 bounds ||G||_2; a caller that knows a tighter
    ``bound`` on ||G||_2, as ``apply_network_fock`` does from the chain
    spectra, passes it, and rho = min(bound, ||G||_1), so a bound only ever
    tightens. A bound below the largest column 2-norm of G, itself a lower
    bound on ||G||_2, is refused. Each term is one in-place product
    u_(k-1) <- (2 / rho) G u_k + u_(k-1) on two rotating buffers: through
    ``_dia_matvec_add`` for a DIA matrix, a dense product for an ndarray.
    """
    dense = isinstance(mat, np.ndarray)
    if not dense:
        import scipy.sparse as sp

        mat = sp.dia_matrix(mat)
    if not _is_anti_hermitian(mat):
        raise InvalidArgumentError(
            "expm_apply needs an anti-Hermitian generator")
    v = np.asarray(vec)
    if v.shape[:1] != mat.shape[:1] or v.ndim > 2:
        raise InvalidArgumentError(
            f"vector of shape {v.shape} for a generator of size "
            f"{mat.shape[0]}")
    dtype = np.result_type(v.dtype, mat.dtype, np.float64)
    u_prev = np.array(v, dtype=dtype, order="C")
    weights = np.abs(mat if dense else _full_width(mat))
    rho = float(weights.sum(axis=0).max())
    if bound is not None:
        bound = float(bound)
        floor = math.sqrt(float(np.square(weights, out=weights)
                                .sum(axis=0).max()))
        if not floor <= bound < math.inf:
            raise InvalidArgumentError(
                f"bound {bound} on ||G||_2 is below its largest column "
                f"norm {floor} or not finite")
        rho = min(bound, rho)
    del weights             # before the scaled copy of the same size
    if rho == 0.0:
        return u_prev
    coef = _chebyshev_coefficients(rho)
    if dense:
        scaled = mat.astype(dtype) * (2.0 / rho)

        def step(x, y):
            y += scaled @ x
    else:
        step = functools.partial(
            _dia_matvec_add, np.multiply(mat.data, 2.0 / rho, dtype=dtype),
            np.ascontiguousarray(mat.offsets))
    u = np.zeros_like(u_prev)
    step(u_prev, u)
    u *= 0.5
    out = coef[0] * u_prev + coef[1] * u
    scratch = np.empty_like(out)
    for c in coef[2:]:
        step(u, u_prev)
        u_prev, u = u, u_prev
        np.multiply(u, c, out=scratch)
        out += scratch
    return out


def _finite_strength(value) -> float:
    """A gate strength as a float, refused unless real and finite."""
    try:
        strength = float(value)
    except TypeError:
        raise InvalidArgumentError(
            f"gate strength must be real, got {value!r}") from None
    if not math.isfinite(strength):
        raise InvalidArgumentError(f"gate strength {strength} is not finite")
    return strength


def _chain_stack(kind: str, d_i: int, d_j: int) -> tuple:
    """The chains of ``pair_generator(kind, (d_i, d_j), 0, 1)`` (see
    ``_pair_chains``): the stack of symmetric S, padded to a common
    length, then the chain and position of each flat (n_i, n_j) index, and
    the length of each chain."""
    gen = pair_generator(kind, (d_i, d_j), 0, 1)
    n_i, n_j = np.divmod(np.arange(d_i * d_j), d_j)
    chain = n_i - n_j if kind == "squeezer" else n_i + n_j
    chain -= chain.min()
    counts = np.bincount(chain)
    # positions count n_i up from its lowest value on the chain
    low = np.full(counts.size, d_i)
    np.minimum.at(low, chain, n_i)
    pos = n_i - low[chain]
    # G[r, c] = data[c] on the diagonal at offset c - r: S keeps it above
    # the chain's diagonal and flips its sign below
    length = int(counts.max())
    sym = np.zeros((counts.size, length, length))
    for offset, data in zip(gen.offsets, _full_width(gen)):
        col = np.flatnonzero(data)
        row, col = pos[col - offset], col
        sym[chain[col], row, pos[col]] = np.where(
            pos[col] > row, data[col], -data[col])
    return sym, chain, pos, counts


# verify uses three tables: the squeezer at d = 8, squeezer and splitter at 25
@functools.lru_cache(maxsize=8)
def _pair_chains(kind: str, d_i: int, d_j: int) -> tuple:
    """``pair_generator(kind, (d_i, d_j), 0, 1)`` as a stack of chains.

    The squeezer conserves n_i - n_j and the splitter n_i + n_j, so on the
    (n_i, n_j) plane the generator is a direct sum of chains, one per
    conserved value, each with positions in the order of n_i. On a chain it
    is a real antisymmetric tridiagonal H. With D = diag(i^p),
    D^-1 H D = i S, where the symmetric tridiagonal S has S[p, p + 1] =
    H[p, p + 1] and a zero diagonal. So from S = V Lambda V^T,

        exp(s H)[m, n] = i^(m - n) [V e^(i s Lambda) V^T][m, n],

    a real orthogonal matrix. Write i^p = sign_p w_p with sign_p = +-1 and
    w_p = 1 for even p, i for odd p, and R = diag(sign) V. Then
    exp(s H) = same * (R cos(s Lambda) R^T) + cross * (R sin(s Lambda) R^T),
    where same[m, n] is 1 when m and n have equal parity, and cross[m, n]
    is +1 for even m and odd n, -1 for odd m and even n. Chains are padded
    to L = min(d_i, d_j) positions. The padding of S is zero and its rows
    of R are zeroed, so it never mixes into a chain.

    Returns the eigenvalues (chains, L), R (chains, L, L), the (L, L)
    patterns same and cross, the flat (n_i, n_j) index read into each
    (chain, position), padding reading index 0, and the (chain, position)
    slot written back to each flat index.
    """
    sym, chain, pos, counts = _chain_stack(kind, d_i, d_j)
    length = sym.shape[1]
    scatter = chain * length + pos
    gather = np.zeros(counts.size * length, np.intp)
    gather[scatter] = np.arange(chain.size)
    vals, vecs = np.linalg.eigh(sym)
    step = np.arange(length)
    sign = np.array([1.0, 1.0, -1.0, -1.0])[step % 4]
    vecs *= (sign * (step < counts[:, None]))[:, :, None]
    odd = step % 2
    same = (odd[:, None] == odd).astype(float)
    cross = (odd - odd[:, None]).astype(float)
    table = (vals, vecs, same, cross, gather.reshape(counts.size, length),
             scatter)
    for arr in table:
        arr.flags.writeable = False         # the cache shares them
    return table


# fock_clone's five truncations need ten norms, more tables than
# _pair_chains keeps, so each norm is cached on its own
@functools.lru_cache(maxsize=16)
def _pair_norm(kind: str, d_i: int, d_j: int) -> float:
    """||pair_generator(kind, dims, i, j)||_2 for dims[i], dims[j] = d_i, d_j.

    The generator is a direct sum of copies of its two-mode chains, one per
    spectator level, so its 2-norm is their largest |eigenvalue|. They come
    from the solver of ``_pair_chains``, so they match its table's to the
    bit, and the table itself is not kept.
    """
    return float(np.abs(np.linalg.eigh(
        _chain_stack(kind, d_i, d_j)[0])[0]).max())


def _network_norm(kind: str, dims: tuple) -> float:
    """||build_generator(kind, dims)||_2, from the chain spectra."""
    pair, i, j = _network_pair(kind)
    return _pair_norm(pair, dims[i], dims[j])


def pair_expm_apply(kind: str, dims, i: int, j: int, strength: float,
                    vec: np.ndarray) -> np.ndarray:
    """exp(strength G) @ vec for G = ``pair_generator(kind, dims, i, j)``.

    Exact up to roundoff, with no series: G is a direct sum of real
    antisymmetric tridiagonal chains in the (n_i, n_j) plane, one per
    conserved value and spectator level, and each chain's exponential comes
    from one eigendecomposition (``_pair_chains``). The tables depend only
    on (kind, d_i, d_j), so all pairs with the same two dimensions share
    one.
    The state is gathered into (chain, position, spectators x columns),
    multiplied by the chain exponentials in one batched product, and
    scattered back.

    ``vec`` is one vector (n,) or a block of columns (n, k), as in
    ``expm_apply``; a real one stays real (at least float64), and a complex
    one is multiplied as its interleaved real and imaginary parts. A
    strength that is not a finite real number is refused, and strength 0
    returns a copy of ``vec``.
    """
    dims = _mode_dims(dims)
    _check_pair(dims, i, j)
    strength = _finite_strength(strength)
    v = np.asarray(vec)
    if v.shape[:1] != (math.prod(dims),) or v.ndim > 2:
        raise InvalidArgumentError("vector length != product of dims")
    dtype = np.result_type(v.dtype, np.float64)
    vals, vecs, same, cross, gather, scatter = _pair_chains(
        kind, dims[i], dims[j])
    if strength == 0.0:
        return np.array(v, dtype=dtype)
    vecs_t = vecs.transpose(0, 2, 1)
    gate = (same * ((vecs * np.cos(strength * vals)[:, None, :]) @ vecs_t)
            + cross * ((vecs * np.sin(strength * vals)[:, None, :]) @ vecs_t))
    plane = v.astype(dtype, copy=False).reshape(dims + v.shape[1:])
    plane = np.moveaxis(plane, (i, j), (0, 1))
    moved = plane.shape
    block = plane.reshape(dims[i] * dims[j], -1)[gather]
    if dtype.kind == "c":
        out = (gate @ block.view(np.float64)).view(dtype)
    else:
        out = gate @ block
    out = out.reshape(-1, out.shape[-1])[scatter].reshape(moved)
    return np.moveaxis(out, (0, 1), (i, j)).reshape(v.shape)


# ------------------------------------------------------------------- network

def _leak_check(vec: FockVector, where: str) -> FockVector:
    leak = vec.leakage()
    _guard_band(leak, f"guard-band leakage {leak:.2e} after {where}",
                stacklevel=3)
    if abs(vec.norm() - 1.0) > 1e-6:
        warnings.warn(f"norm drift {vec.norm() - 1.0:.2e} after {where}",
                      TruncationWarning, stacklevel=3)
    return vec


def _merged_factor(dims: tuple, s2: float, s3: float) -> tuple:
    """The mixed generator K = s2 cosh(s3) A + s2 sinh(s3) B on ``dims``, a
    DIA matrix, and the bound (|c1| ||A||_2 + |c2| ||B||_2)(1 + 1e-12) on
    ||K||_2 that scales its Chebyshev sum.

    A and B lie on distinct diagonals, so K stacks their scaled full-width
    data. The triangle bound is 0.79-0.85 of ||K||_1, and the slack, far
    above the roundoff of the chain eigenvalues, keeps it a bound.
    """
    import scipy.sparse as sp

    c1, c2 = s2 * math.cosh(s3), s2 * math.sinh(s3)
    a, b = build_generator("A", dims), build_generator("B", dims)
    mixed = sp.dia_matrix((np.concatenate((a.data * c1, b.data * c2)),
                           np.concatenate((a.offsets, b.offsets))),
                          shape=a.shape)
    bound = (abs(c1) * _network_norm("A", dims)
             + abs(c2) * _network_norm("B", dims)) * (1.0 + 1e-12)
    return mixed, bound


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
    preparation. Single-pair factors, every literal gate and the preparation,
    run through ``pair_expm_apply``; the mixed A/B factor through
    ``expm_apply``. A state with zero imaginary part evolves in real
    arithmetic. An empty stage list or a stage strength that is not finite
    is refused before any work.
    """
    if state.n_modes != 3:
        raise InvalidArgumentError("network input must have three modes")
    stages = spec.stages
    if not stages:
        raise InvalidArgumentError("the network has no stages")
    strengths = [_finite_strength(st.strength) for st in stages]
    dims = state.dims

    def pair_factor(kind, strength):
        pair, i, j = _network_pair(kind)
        return functools.partial(pair_expm_apply, pair, dims, i, j, strength)

    if method == "literal":
        factors = [(pair_factor(st.kind, s), f"stage {st.kind}({s:+.3f})")
                   for st, s in zip(stages, strengths)]
    elif method != "merged":
        raise InvalidArgumentError(f"unknown method {method!r}")
    elif tuple(st.kind for st in stages) != ("C", "A", "C"):
        raise InvalidArgumentError("merged path expects the C, A, C layout")
    else:
        s1, s2, s3 = strengths
        prep = s1 + s3
        factors = [(pair_factor("C", prep), "preparation")] if prep else []
        mixed, bound = _merged_factor(dims, s2, s3)
        factors.append((lambda v: expm_apply(mixed, v, bound),
                        "merged network"))
    v = state.amplitudes
    if not v.imag.any():
        v = v.real
    for step, label in factors:
        v = step(v)
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

    def photon_number(self) -> float:
        return float((np.arange(self.dim) * np.diag(self.matrix).real).sum())

    def quadrature_moments(self, phase: float):
        """Mean and variance of cos(phase) X + sin(phase) Y."""
        if not math.isfinite(phase):
            raise InvalidArgumentError("phase must be finite")
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


def _factor(state) -> np.ndarray:
    """A factor L, d x r, with L L^H the density of a single-mode state.

    A FockVector gives its normalised amplitudes as one column. A
    DensityMatrix gives the eigenvectors v_i sqrt(w_i) of its positive
    eigenvalues w_i; its constructor has refused any below -1e-8.
    """
    if isinstance(state, DensityMatrix):
        return _eigen_factor(state.matrix)
    if isinstance(state, FockVector):
        if state.n_modes != 1:
            raise InvalidArgumentError("need a single-mode input")
        return state.normalized().amplitudes[:, None]
    raise InvalidArgumentError("input must be a DensityMatrix or FockVector")


def _eigen_factor(rho: np.ndarray) -> np.ndarray:
    """Columns v_i sqrt(w_i) over the positive eigenvalues of Hermitian rho."""
    wts, vecs = np.linalg.eigh(rho)
    keep = wts > 0
    return vecs[:, keep] * np.sqrt(wts[keep])


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


@functools.lru_cache(maxsize=8)
def _hermgauss(grid: int) -> tuple:
    """Read-only Gauss-Hermite nodes and weights; every mixture shares them."""
    nodes, wts = hermgauss(grid)
    nodes.setflags(write=False)
    wts.setflags(write=False)
    return nodes, wts


def _grid_size(grid) -> int:
    """The node count per axis: an integer, at least 41."""
    grid = _integer(grid, "grid")
    if grid < 41:
        raise InvalidArgumentError("need at least a 41x41 node grid")
    return grid


def _smear_blocks(xs, ys, rows, ncols):
    """D(i ys) and D(-xs) blocks for real steps, from D(ys) and D(xs).

    D(i t)[m, n] = i^(m-n) D(t)[m, n] and D(-t)[m, n] = (-1)^(m+n) D(t)[m, n].
    The diagonal recurrence keeps both bit for bit: for a real or imaginary
    t every product it takes has one zero part, and the patterns are exact
    multiplications by 1, i, -1 and -i. Equal steps, a symmetric smear,
    take one build for both blocks. The steps are real, so the builds are
    float64; the D(i ys) block is complex, and the D(-xs) block stays real.
    """
    base_y = _kernels.displacement_columns_batch(ys, rows, ncols)
    base_x = (base_y if np.array_equal(xs, ys)
              else _kernels.displacement_columns_batch(xs, rows, ncols))
    m, n = np.ogrid[:rows, :ncols]
    up = base_y * np.array([1.0, 1j, -1.0, -1j])[(m - n) % 4]
    # (-1)^(m+n) in place, once up has read base_y
    base_x[:, 1::2, ::2] *= -1.0
    base_x[:, ::2, 1::2] *= -1.0
    return up, base_x


def smeared_mixture(phi, f_spec="symmetric", grid: int = 41) -> DensityMatrix:
    """Gaussian displacement mixture of a single-mode state.

    Integrates D(z) rho D†(z) against the squared kernel |f|^2 on a tensor
    Gauss-Hermite grid aligned with the Gaussian weight, z = a + ib with
    a = wx u/√2 and b = wy v/√2. Since D(a + ib) = e^{iab} D(a) D(ib) and the
    phase cancels in D rho D†, the grid sum factors into two one-dimensional
    passes: inner = sum_v w_v D(ib_v) rho D(ib_v)†, then
    mix = sum_u (w_u/π) D(a_u) inner D(a_u)†. Both passes work on a factor
    of the state, rho = L L^H (see ``_kernels.smear_accumulate``): pass 1
    returns the factor [sqrt(w_v) D(ib_v) L]_v of inner, which pass 2 takes
    as it is unless it has more columns than rows, as for a full-rank input
    or a short ladder; then the eigenvector factor of inner is narrower and
    replaces it. Both passes read their blocks off real displacements
    (``_smear_blocks``), bit for bit as direct builds of D(ib_v) and D(-a_u)
    would give them; a symmetric smear, wx = wy, takes one build for both.
    D(-a_u) is real, and pass 2 multiplies it in real arithmetic, with the
    same sums a complex build would take.
    The factoring is exact on an untruncated ladder, so the inner state
    lives on a longer ladder, padded by the reach of the wider smear. A
    smear that adds more photons, (wx^2 + wy^2)/4 on average, than the
    ladder has levels is refused before any work: there even a vacuum keeps
    less than 0.7 of its trace, far from the 1e-4 the result may lose.
    """
    factor = _factor(phi)
    grid = _grid_size(grid)
    wx, wy = _parse_f_spec(f_spec)
    dim = factor.shape[0]
    rms = 0.5 * math.hypot(wx, wy)         # sqrt of the mean added photons
    if not rms * rms <= dim:
        raise GridTooCoarseError(
            f"the smear adds {rms * rms:.3g} photons on average, more than "
            f"the {dim} levels of the truncation; raise truncation")
    # sqrt(wide) - sqrt(dim) = 1.5 + max(wx, wy) keeps the two passes within
    # 3.2e-15 of the tensor-grid sum: measured for d = 8-64, widths 0.05-4
    # and sigma 0.25-6, on coherent and Fock inputs, at grids 41 and 81
    wide = math.ceil((math.sqrt(dim) + 1.5 + max(wx, wy)) ** 2)
    nodes, wts = _hermgauss(grid)
    # D(a)[:dim, :wide] = D(-a)[:wide, :dim]^T for real a, so both passes
    # build dim columns on the wide ladder
    steps = nodes / math.sqrt(2.0)
    up, down = _smear_blocks(wx * steps, wy * steps, wide, dim)
    inner, factor = _kernels.smear_accumulate(up, wts, factor)
    if factor.shape[1] > wide:
        factor = _eigen_factor(inner)
    mix, _ = _kernels.smear_accumulate(down.transpose(0, 2, 1),
                                       wts / math.pi, factor)
    tr = float(np.trace(mix).real)
    if abs(tr - 1.0) > 1e-4:
        raise GridTooCoarseError(
            f"mixture trace {tr:.6f}; the smear moves mass past the "
            "truncation, raise truncation")
    mix /= tr
    return _trusted(DensityMatrix, matrix=0.5 * (mix + mix.conj().T))

