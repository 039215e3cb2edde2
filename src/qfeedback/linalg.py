"""Complex matrix algebra for doubled-up quantum systems.

Everything downstream (realizability checks, transfer-function tests, noise
synthesis) reduces to a handful of structured matrix problems: doubled-up
block structure, Sylvester/Lyapunov solves, a Hermitian algebraic Riccati
equation, sign-split factorizations and rank decisions.  This module owns
those primitives together with the package-wide tolerances.

All routines accept anything ``np.asarray`` can turn into a complex matrix
and return plain ``numpy`` arrays (dtype complex128).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import schur, get_lapack_funcs

from .errors import DimensionError, DomainError, SingularityError

# Package-wide tolerances.  STRUCTURE_TOL guards doubled-up block structure,
# RESIDUAL_TOL equation residuals, RANK_TOL rank/definiteness decisions,
# SPECTRAL_GAP_TOL solvability prechecks (eigenvalue collisions), and
# FREQ_TOL pointwise frequency-domain identities.
STRUCTURE_TOL = 1e-9
RESIDUAL_TOL = 1e-8
RANK_TOL = 1e-10
SPECTRAL_GAP_TOL = 1e-10
FREQ_TOL = 1e-7


def _stack_max_abs(a: np.ndarray):
    """:func:`max_abs` of each matrix of a stack (..., r, c): a float for one matrix."""
    top = np.abs(a).max(axis=(-2, -1), initial=0.0)
    return top if top.ndim else float(top)


def _stacked_block(rows: list[list[np.ndarray]]) -> np.ndarray:
    """``np.block`` over the last two axes of blocks that share their leading (stack) axes,
    a 2-D block repeated along them."""
    blocks = [blk for row in rows for blk in row]
    heights = [row[0].shape[-2] for row in rows]
    widths = [blk.shape[-1] for blk in rows[0]]
    lead = max((blk.shape[:-2] for blk in blocks), key=len)
    out = np.empty((*lead, sum(heights), sum(widths)), dtype=np.result_type(*blocks))
    top = 0
    for row, height in zip(rows, heights):
        left = 0
        for blk, width in zip(row, widths):
            out[..., top : top + height, left : left + width] = blk
            left += width
        top += height
    return out


def _hurwitz_spectrum(lam: np.ndarray, a: np.ndarray, tol: float = SPECTRAL_GAP_TOL):
    """The Hurwitz rule on the spectrum ``lam`` of ``a``: max Re lambda < -tol * max(1, |a|).

    Over leading axes: a stack of spectra (..., n) of a stack (..., n, n)
    gets one verdict per matrix; one matrix gets a bool.
    """
    stable = np.max(lam.real, axis=-1, initial=-np.inf) < -tol * np.maximum(1.0, _stack_max_abs(a))
    return stable if stable.ndim else bool(stable)


def _sum_collision(la: np.ndarray, lb: np.ndarray, scale: float) -> tuple[complex, complex] | None:
    """The eigenvalue-sum gap rule: (la_i, lb_j) minimizing |la_i + lb_j| if below SPECTRAL_GAP_TOL * scale."""
    sums = np.abs(la[:, None] + lb[None, :])
    i, j = np.unravel_index(np.argmin(sums), sums.shape)
    return (complex(la[i]), complex(lb[j])) if sums[i, j] < SPECTRAL_GAP_TOL * scale else None


def _rank_cut(scale, dim: int = 1):
    """The rank rule: a singular value or |eigenvalue| at most RANK_TOL * max(1, scale) * dim is zero;
    an array of scales gets one cut each."""
    return RANK_TOL * np.maximum(1.0, scale) * dim


def _sign_cut(lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Hermitian sign cut: masks of ``lam`` beyond +-:func:`_rank_cut` of max|lam|, per spectrum
    of a stack (..., n)."""
    cut = _rank_cut(np.abs(lam).max(axis=-1, initial=0.0, keepdims=True))
    return lam > cut, lam < -cut


def _exceeds(residual, bound):
    """``residual`` not finite (an overflow shows nothing) or above ``bound``, per matrix of a stack."""
    if isinstance(residual, float):
        return not (math.isfinite(residual) and residual <= bound)
    return ~(np.isfinite(residual) & (residual <= bound))


def _lyapunov_defect(f, theta, q, residuals, tol):
    """True when |F Theta + Theta F^dagger + Q| (into ``residuals``) :func:`_exceeds` tol * (1 + |Q|).

    Over leading axes: stacked operands get one residual and one verdict per
    matrix of the stack.  No numpy warning is raised.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        residuals["lyapunov"] = r = _stack_max_abs(f @ theta + theta @ dagger(f) + q)
        return _exceeds(r, tol * (1.0 + _stack_max_abs(q)))


def _coupling_defect(g, theta, h, sig, residuals, tol):
    """True when |G + Theta H^dagger S| (into ``residuals``) :func:`_exceeds` tol * (1 + |G| + |Theta| |H|).

    Over leading axes and without a numpy warning, as :func:`_lyapunov_defect`.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        residuals["coupling"] = r = _stack_max_abs(g + theta @ dagger(h) @ sig)
        return _exceeds(r, tol * (1.0 + _stack_max_abs(g) + _stack_max_abs(theta) * _stack_max_abs(h)))


def _certificate_defect(f, g, h, sig, q, theta, residuals, tol) -> str | None:
    """First of F Theta + Theta F^dagger + Q = 0 and G = -Theta H^dagger S to fail, or None."""
    if _lyapunov_defect(f, theta, q, residuals, tol):
        return "lyapunov"
    return "coupling" if _coupling_defect(g, theta, h, sig, residuals, tol) else None


def as_matrix(x, name: str = "matrix") -> np.ndarray:
    """Coerce ``x`` to a 2-D complex array, rejecting NaN/Inf entries."""
    a = np.atleast_2d(np.asarray(x, dtype=complex))
    if a.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {a.shape}")
    if a.size and not np.isfinite(a).all():
        raise DomainError(f"{name} has non-finite entries")
    return a


def as_square(x, name: str = "matrix") -> np.ndarray:
    """:func:`as_matrix` for a square matrix."""
    a = as_matrix(x, name)
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"{name} must be square, got {a.shape}")
    return a


def _read_only(a: np.ndarray) -> np.ndarray:
    """A read-only copy of ``a``: what a validated model stores."""
    a = a.copy()
    a.flags.writeable = False
    return a


def _check_layout(model, counts: dict[str, int], d: int) -> None:
    """Validate ``model``'s matrices against its class-level ``_layout`` and store them.

    ``_layout`` maps each matrix, in document order, to the names of the
    counts that size its rows and columns.  Every dimension is ``d`` times its
    count, and d = 2 (the general kind) also requires doubled-up structure of
    every matrix.  A count not fixed in ``counts`` is read from the first
    matrix whose rows it sizes, else from the first whose columns it sizes;
    every count then becomes an attribute, and every matrix a read-only copy.
    """
    mats = {name: as_matrix(getattr(model, name), name) for name in model._layout}
    for axis in (0, 1):
        for name, dims in model._layout.items():
            counts.setdefault(dims[axis], mats[name].shape[axis] // d)
    for name, (rows, cols) in model._layout.items():
        want = (d * counts[rows], d * counts[cols])
        if mats[name].shape != want:
            raise DimensionError(f"{name} must have shape {want}, got {mats[name].shape}")
        if d == 2 and not is_doubled(mats[name]):
            raise DomainError(f"general-kind {name} lacks doubled-up structure")
    for name, value in mats.items():
        object.__setattr__(model, name, _read_only(value))
    for name, value in counts.items():
        object.__setattr__(model, name, value)


def dagger(a) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack (..., r, c)."""
    return np.asarray(a, dtype=complex).conj().swapaxes(-1, -2)


def max_abs(a) -> float:
    """Largest entry magnitude; 0 for empty matrices."""
    a = np.asarray(a)
    return float(np.abs(a).max()) if a.size else 0.0


def hermitian_part(a) -> np.ndarray:
    """(A + A^dagger) / 2, of each matrix of a stack (..., n, n) too."""
    a = np.asarray(a, dtype=complex)
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def _noise_term(g: np.ndarray, sig: np.ndarray | None = None) -> np.ndarray:
    """herm(G S G^dagger), S = I when None, as a solver's input: an overflow reaches its DomainError
    without a numpy warning.  Not for a residual test, which must count a NaN as a defect (:func:`_exceeds`)."""
    with np.errstate(over="ignore", invalid="ignore"):
        return hermitian_part(g @ dagger(g) if sig is None else g @ sig @ dagger(g))


def _trace_cost(c: np.ndarray, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The LQG cost sqrt(tr(C Theta C^dagger)) of a stable loop at its state covariance Theta, and
    the trace, over leading axes; a DomainError where the trace is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        trace = np.trace(c @ theta @ dagger(c), axis1=-2, axis2=-1).real
    if not np.isfinite(trace).all():
        raise DomainError("cost tr(C Theta C^dagger) is not finite: the cost rows or the covariance are too large")
    return np.sqrt(np.maximum(trace, 0.0)), trace


def _square(x: float, name: str) -> float:
    """``x ** 2`` for a magnitude ``x``, or a DomainError naming ``name`` where the square overflows."""
    try:
        return x**2
    except OverflowError:
        raise DomainError(f"{name} {x:.3g} is too large: its square overflows") from None


def require_hermitian(a, name: str) -> np.ndarray:
    """Validate Hermitian symmetry within RESIDUAL_TOL (relative) and symmetrize."""
    a = as_square(a, name)
    ah = a.conj().T
    dev = max_abs(a - ah)
    if dev > RESIDUAL_TOL * (1.0 + max_abs(a)):
        raise DomainError(f"{name} is not Hermitian (deviation {dev:.3e})")
    return 0.5 * (a + ah)


def require_tolerance(value: float, name: str) -> None:
    """Reject a tolerance that is not a finite positive number."""
    if not (np.isfinite(value) and value > 0.0):
        raise DomainError(f"{name} must be finite and positive, got {value!r}")


def signature_matrix(half_dim: int) -> np.ndarray:
    """The signature matrix diag(I, -I) with blocks of size ``half_dim``."""
    if half_dim < 0:
        raise DimensionError("half_dim must be nonnegative")
    j = np.eye(2 * half_dim, dtype=complex)
    j[half_dim:, half_dim:] *= -1.0
    return j


def delta_build(a1, a2) -> np.ndarray:
    """Assemble the doubled-up matrix [[A1, A2], [conj(A2), conj(A1)]].

    Parameters
    ----------
    a1, a2 : array_like
        Equal-shaped blocks.
    """
    a1 = as_matrix(a1, "a1")
    a2 = as_matrix(a2, "a2")
    if a1.shape != a2.shape:
        raise DimensionError(f"blocks must share a shape, got {a1.shape} and {a2.shape}")
    return np.block([[a1, a2], [a2.conj(), a1.conj()]])


def is_doubled(x, tol: float = STRUCTURE_TOL) -> bool:
    """True when ``x`` has doubled-up structure within ``tol`` (relative)."""
    x = np.atleast_2d(np.asarray(x, dtype=complex))
    r, c = x.shape
    if r % 2 or c % 2:
        raise DimensionError("doubled-up test needs even dimensions")
    hr, hc = r // 2, c // 2
    scale = 1.0 + max_abs(x)
    dev = max(
        max_abs(x[hr:, hc:] - x[:hr, :hc].conj()),
        max_abs(x[hr:, :hc] - x[:hr, hc:].conj()),
    )
    return dev <= tol * scale


def conj_swap(x) -> np.ndarray:
    """The involution X -> Sigma conj(X) Sigma with Sigma swapping halves.

    Doubled-up matrices are fixed points; commutation matrices of doubled
    systems are antisymmetric under it.
    """
    x = np.atleast_2d(np.asarray(x, dtype=complex))
    r, c = x.shape
    if r % 2 or c % 2:
        raise DimensionError("conj_swap needs even dimensions")
    hr, hc = r // 2, c // 2
    out = np.empty_like(x)
    out[:hr, :hc] = x[hr:, hc:].conj()
    out[hr:, hc:] = x[:hr, :hc].conj()
    out[:hr, hc:] = x[hr:, :hc].conj()
    out[hr:, :hc] = x[:hr, hc:].conj()
    return out


def doubling_permutation(half_sizes) -> np.ndarray:
    """Index permutation from per-subsystem doubled stacking to canonical.

    A vector stacked as (x1, x1#, x2, x2#, ...) with half sizes
    ``half_sizes`` is reordered to (x1, x2, ..., x1#, x2#, ...).  Returns
    the index array ``p`` such that ``v_canonical = v[p]``.
    """
    half_sizes = [int(s) for s in half_sizes]
    ann, cre = [], []
    off = 0
    for s in half_sizes:
        ann.extend(range(off, off + s))
        cre.extend(range(off + s, off + 2 * s))
        off += 2 * s
    return np.array(ann + cre, dtype=int)


def hermitian_basis(n: int) -> np.ndarray:
    """Real basis of the n x n Hermitian matrices, stacked as (n*n, n, n).

    The diagonal units come first, then for each i < j (row-major) the
    symmetric unit E_ij + E_ji followed by i E_ij - i E_ji.  Least-squares
    problems over Hermitian unknowns apply their linear map to the whole
    stack at once and recombine with ``np.tensordot(coeffs, basis, 1)``.
    """
    rows, cols = np.triu_indices(n, 1)
    sym = n + 2 * np.arange(rows.size)
    basis = np.zeros((n * n, n, n), dtype=complex)
    basis[np.arange(n), np.arange(n), np.arange(n)] = 1.0
    basis[sym, rows, cols] = basis[sym, cols, rows] = 1.0
    basis[sym + 1, rows, cols] = 1j
    basis[sym + 1, cols, rows] = -1j
    return basis


def real_lstsq(images, targets) -> tuple[np.ndarray, float, np.ndarray]:
    """Least squares over real unknowns that enter complex equations.

    ``images[j]`` has shape (k, ...): slice i is the image of unknown i in
    equation block j, whose right-hand side is ``targets[j]``.  Real and
    imaginary parts are stacked into one real system.  Returns the k real
    coefficients, the largest residual entry (0.0 with no equations) and
    the real matrix.
    """
    k = images[0].shape[0]
    vec = np.concatenate([im.reshape(k, math.prod(im.shape[1:])) for im in images], axis=1)
    a_mat = np.concatenate([vec.real, vec.imag], axis=1).T
    rhs_c = np.concatenate([t.ravel() for t in targets])
    rhs = np.concatenate([rhs_c.real, rhs_c.imag])
    sol, *_ = np.linalg.lstsq(a_mat, rhs, rcond=None)
    residual = float(np.max(np.abs(a_mat @ sol - rhs))) if rhs.size else 0.0
    return sol, residual, a_mat


def solve_sylvester(a, b, c) -> np.ndarray:
    """Solve A X + X B + C = 0 by Bartels-Stewart.

    Triangularizes A and B (complex Schur) and solves the triangular
    equation with LAPACK ``trsyl``.  The solvability precheck demands the
    spectra of A and -B, read off the Schur diagonals, be separated:
    min |lambda_i(A) + lambda_j(B)| above SPECTRAL_GAP_TOL * scale.

    Parameters
    ----------
    a : (n, n) array_like
    b : (q, q) array_like
    c : (n, q) array_like

    Returns
    -------
    x : (n, q) ndarray

    Raises
    ------
    SingularityError
        When an eigenvalue pair nearly cancels; carries the pair.
    """
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    c = as_matrix(c, "c")
    n, q = a.shape[0], b.shape[0]
    if a.shape != (n, n) or b.shape != (q, q) or c.shape != (n, q):
        raise DimensionError(
            f"incompatible Sylvester shapes {a.shape}, {b.shape}, {c.shape}"
        )
    if n == 0 or q == 0:
        return np.zeros((n, q), dtype=complex)

    ta, ua = schur(a, output="complex")
    tb, ub = schur(b, output="complex")
    return _bartels_stewart(ta, ua, tb, ub, c, max(1.0, max_abs(a), max_abs(b)))


def _bartels_stewart(ta, ua, tb, ub, c, scale, tranb="N") -> np.ndarray:
    """A X + X B + C = 0 from Schur forms A = Ua Ta Ua^dagger, B = Ub op(Tb) Ub^dagger (op(Tb) =
    Tb^dagger for ``tranb`` "C"); its gap precheck applies :func:`_sum_collision`."""
    la, lb = np.diag(ta), (np.diag(tb).conj() if tranb == "C" else np.diag(tb))
    if (pair := _sum_collision(la, lb, scale)) is not None:
        raise SingularityError(
            f"spectra of A and -B collide: {pair[0]:.6g} + {pair[1]:.6g} ~ 0", eigenvalue_pair=pair
        )

    trsyl, = get_lapack_funcs(("trsyl",), (ta, tb))
    y, sc, info = trsyl(ta, tb, -(ua.conj().T @ c @ ub), tranb=tranb)
    if info < 0:
        raise SingularityError(f"trsyl rejected argument {-info}")
    return ua @ (y / sc) @ ub.conj().T


def solve_lyapunov_hermitian(a, q, _schur=None) -> np.ndarray:
    """Solve A X + X A^dagger + Q = 0 for Hermitian X.

    ``q`` must be Hermitian; the result is symmetrized.  Solvability needs
    lambda_i(A) + conj(lambda_j(A)) != 0, checked as in
    :func:`solve_sylvester`, on one Schur form A = U T U^dagger for both sides
    (the private ``_schur`` = (T, U) of ``a`` when the caller holds it).
    """
    a = as_matrix(a, "a")
    q = require_hermitian(q, "q")
    if q.shape != a.shape:
        raise DimensionError(f"shape mismatch: a {a.shape}, q {q.shape}")
    if a.shape[0] == 0:
        return np.zeros((0, 0), dtype=complex)
    t, u = schur(a, output="complex") if _schur is None else _schur
    return hermitian_part(_bartels_stewart(t, u, t, u, q, max(1.0, max_abs(a)), tranb="C"))


@dataclass(frozen=True)
class CareSolution:
    """Outcome of :func:`solve_care_hermitian`.

    ``exists`` is False when no Hermitian solution was found; that is a
    report, not an exception.  ``selection`` documents which invariant
    subspace produced ``x``: "stable-subspace" or "lyapunov-degenerate"
    ("none" when ``exists`` is False).
    """

    x: np.ndarray | None
    exists: bool
    selection: str
    residual: float
    hermiticity: float


def _care_residual(a, r, q, x) -> float:
    return max_abs(a @ x + x @ a.conj().T + x @ r @ x + q)


def _care_scale(r, q, x) -> float:
    return 1.0 + max_abs(q) + max_abs(x) ** 2 * max_abs(r)


def solve_care_hermitian(a, r, q) -> CareSolution:
    """Hermitian solutions of A X + X A^dagger + X R X + Q = 0.

    The 2n x 2n matrix [[A^dagger, R], [-Q, -A]] has the property that any
    n-dimensional invariant subspace [Z; Y] with invertible Z yields a
    solution X = Y Z^{-1}.  The primary selection takes the n eigenvalues
    with most-negative real parts (ordered Schur); when that basis block is
    singular or the candidate is more than 1e-6 (relative) from Hermitian,
    no solution is reported.  A zero R degenerates to the Lyapunov path.

    Returns
    -------
    CareSolution
        With ``exists=False`` when no subspace produced a Hermitian solution
        within tolerance.
    """
    a = as_matrix(a, "a")
    r = require_hermitian(r, "r")
    q = require_hermitian(q, "q")
    n = a.shape[0]
    if a.shape != (n, n) or r.shape != (n, n) or q.shape != (n, n):
        raise DimensionError("a, r, q must be square with a common size")
    if n == 0:
        z = np.zeros((0, 0), dtype=complex)
        return CareSolution(z, True, "stable-subspace", 0.0, 0.0)

    if max_abs(r) == 0.0:
        x = solve_lyapunov_hermitian(a, q)
        return CareSolution(
            x, True, "lyapunov-degenerate", _care_residual(a, r, q, x), 0.0
        )

    ham = np.block([[a.conj().T, r], [-q, -a]])

    def _extract(z, y):
        if np.linalg.svd(z, compute_uv=False)[-1] <= _rank_cut(0.0):
            return None
        x = y @ np.linalg.inv(z)
        herm_dev = max_abs(x - x.conj().T) / (1.0 + max_abs(x))
        if herm_dev > 1e-6:
            return None
        x = hermitian_part(x)
        res = _care_residual(a, r, q, x)
        if res > RESIDUAL_TOL * _care_scale(r, q, x) * 100:
            return None
        return x, res, herm_dev

    # Ordered Schur: one LAPACK reorder moves the n most-negative real parts
    # to the leading block.
    t, u = schur(ham, output="complex")
    d = np.diag(t)
    select = np.zeros(2 * n, dtype=np.int32)
    select[np.lexsort((d.imag, d.real))[:n]] = 1
    trsen, = get_lapack_funcs(("trsen",), (t,))
    _, u2, *_, info = trsen(select, t, u, job="N")
    got = _extract(u2[:n, :n], u2[n:, :n]) if info == 0 else None
    if got is not None:
        x, res, dev = got
        return CareSolution(x, True, "stable-subspace", res, dev)
    return CareSolution(None, False, "none", np.inf, np.inf)


@dataclass(frozen=True)
class PsdSplit:
    """Sign decomposition M = positive - negative with PSD parts.

    ``positive_factor``/``negative_factor`` satisfy F F^dagger = part with
    column counts equal to the significant rank of each part.
    """

    positive: np.ndarray
    negative: np.ndarray
    positive_factor: np.ndarray
    negative_factor: np.ndarray


def psd_split(m) -> PsdSplit:
    """Split a Hermitian matrix into PSD parts via its eigendecomposition.

    Eigenvalues inside the :func:`_sign_cut` are treated as zero, so the
    factors carry exactly the significantly nonzero modes.
    """
    m = require_hermitian(m, "m")
    n = m.shape[0]
    if n == 0:
        z = np.zeros((0, 0), dtype=complex)
        return PsdSplit(z, z, z, z)
    lam, v = np.linalg.eigh(m)
    pos, neg = _sign_cut(lam)
    vp, vn = v[:, pos], v[:, neg]
    positive = hermitian_part((vp * lam[pos]) @ vp.conj().T)
    negative = hermitian_part((vn * (-lam[neg])) @ vn.conj().T)
    return PsdSplit(positive, negative, vp * np.sqrt(lam[pos]), vn * np.sqrt(-lam[neg]))


def _psd_factor(m) -> np.ndarray | None:
    """The PSD-slack rule: psd_split's positive factor, None if |negative| > RESIDUAL_TOL (1 + |m|)."""
    split = psd_split(m)
    return None if max_abs(split.negative) > RESIDUAL_TOL * (1.0 + max_abs(m)) else split.positive_factor


def _inertia(h: np.ndarray) -> tuple[int, int, int]:
    """Counts of (positive, negative, zero) eigenvalues of a Hermitian matrix, by :func:`_sign_cut`."""
    if h.shape[0] == 0:
        return (0, 0, 0)
    pos, neg = _sign_cut(np.linalg.eigvalsh(h))
    p, q = int(np.count_nonzero(pos)), int(np.count_nonzero(neg))
    return (p, q, h.shape[0] - p - q)
