"""Transfer-function analysis: evaluation, minimality, structure checks, norms.

The frequency-domain side of realizability lives here: (J,J)-unitarity for
doubled-up systems, the lossless bounded real property for annihilation
systems, and the H2/H-infinity norms used by the feedback analyses.  Both
structural checks test Gamma~ S Gamma = S (S = J or I) by an algebraic
prong and an independent sampled frequency prong, reported separately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar

import numpy as np
from scipy.linalg import schur

from .errors import (
    DimensionError,
    DomainError,
    GenerationError,
    InfiniteNormError,
    InstabilityError,
    SingularityError,
)
from .linalg import (
    FREQ_TOL,
    RESIDUAL_TOL,
    SPECTRAL_GAP_TOL,
    _check_layout,
    _coupling_defect,
    _hurwitz_spectrum,
    _noise_term,
    _rank_cut,
    _square,
    _stacked_block,
    _trace_cost,
    as_square,
    dagger,
    hermitian_part,
    max_abs,
    require_tolerance,
    signature_matrix,
    solve_lyapunov_hermitian,
)


@dataclass(frozen=True)
class StateSpaceTF:
    """State-space realization (A, B, C, D) of C (sI - A)^{-1} B + D, stored read-only.

    Construction checks the shapes against ``_layout`` and sets the counts
    ``state_dim``, ``input_dim`` and ``output_dim``.
    """

    _layout: ClassVar[dict[str, tuple[str, str]]] = {
        "a": ("state_dim", "state_dim"),
        "b": ("state_dim", "input_dim"),
        "c": ("output_dim", "state_dim"),
        "d": ("output_dim", "input_dim"),
    }

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        _check_layout(self, {}, 1)

    @cached_property
    def _schur(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Schur form A = Z T Z^dagger (A is read-only): poles diag(T), T and Z."""
        return tuple(x[0] for x in _schur_forms(self.a[None]))

    @cached_property
    def _loops(self) -> "_Loops":
        """This realization as a stack of one loop, built once."""
        return _Loops(self.a[None], self.b[None], self.c[None], self.d[None], tuple(x[None] for x in self._schur))

    def _rows(self, select: np.ndarray) -> "StateSpaceTF":
        """The outputs ``select`` picks, (A, B, select C, select D), sharing A's Schur form."""
        rows = StateSpaceTF(self.a, self.b, select @ self.c, select @ self.d)
        rows.__dict__["_schur"] = self._schur
        return rows

    @classmethod
    def from_system(cls, s) -> "StateSpaceTF":
        """View a quantum system model (F, G, H, K) as a transfer function."""
        return cls(a=s.f, b=s.g, c=s.h, d=s.k)


def _schur_forms(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Schur forms (poles, T, Z) of a stack of state matrices (L, k, k), each factored on its own
    (SciPy has no batched Schur).  Each T and Z keeps the column-major layout LAPACK returns, so a
    product with it runs the BLAS call that it runs for one loop, and gives the same bits."""
    if not a.shape[-1]:
        return np.zeros(a.shape[:-1], dtype=complex), a, a
    t, z = (np.stack([m.T for m in ms]).swapaxes(1, 2) for ms in zip(*(schur(x, output="complex") for x in a)))
    return np.diagonal(t, axis1=1, axis2=2), t, z


@dataclass(frozen=True)
class _Loops:
    """Equal-shape realizations (A, B, C, D) stacked on a leading axis, with their Schur forms
    (poles, T, Z) stacked likewise."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    form: tuple[np.ndarray, np.ndarray, np.ndarray]

    def take(self, idx) -> "_Loops":
        """The sub-stack at the increasing positions ``idx``: the stack itself when that is all of it."""
        if len(idx) == len(self.a):
            return self
        return _Loops(self.a[idx], self.b[idx], self.c[idx], self.d[idx], tuple(x[idx] for x in self.form))


@dataclass(frozen=True)
class NormResult:
    """A computed system norm with its method tag and certificate data."""

    value: float
    method: str
    certificate: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class TransferCheck:
    """Multi-prong verdict of a transfer-function structure check.

    ``prongs`` maps prong name to "pass", "fail" or "indeterminate";
    ``residuals`` collects the worst deviations behind those calls.
    """

    verdict: bool
    prongs: dict[str, str]
    residuals: dict[str, float]


# Grid sampling back-substitutes at most this many entries (points * n * min(m, p))
# per loop at once, which bounds the memory of the stacked solution at large n.
_BLOCK_ENTRIES = 2**14
_GRID_SEED = 1729
_GRID_POINTS = 200
_GRID_RANDOM_POINTS = 56


def _pole_scale(lam: np.ndarray):
    """max(1, spectral radius) for the eigenvalues ``lam``, per spectrum of a stack (..., n)."""
    return np.maximum(1.0, np.max(np.abs(lam), axis=-1, initial=0.0))


def _shifted_solve(poles: np.ndarray, t: np.ndarray, rhs: np.ndarray, s: np.ndarray) -> np.ndarray:
    """(sI - T)^{-1} rhs by back-substitution for each loop of the stack, all columns at once;
    ``s`` (L, columns) is each column's point."""
    x = np.empty_like(rhs)
    for i in range(poles.shape[-1] - 1, -1, -1):
        row = x[:, i : i + 1]  # written in place: a stack of one runs as fast as one loop's solve
        np.matmul(t[:, i : i + 1, i + 1 :], x[:, i + 1 :], out=row)
        row += rhs[:, i : i + 1]
        row /= s[:, None] - poles[:, i, None, None]
    return x


def _response(a, b, c, d, form, s: np.ndarray) -> np.ndarray:
    """C (sI - A)^{-1} B + D of each loop of the stack at its points ``s`` (L, k) as (L, k, p, m),
    from A's Schur form (Laub 1981), refined once against A itself for the accuracy of a dense
    solve at each point.  The entries are laid out in memory as (p, m, L, k), so the points of
    all loops view as one (L k, p, m) stack whose matrices have the strides of one loop's."""
    poles, t, z = form
    k, s = s.shape[-1], np.tile(s, d.shape[-1])
    x = _shifted_solve(poles, t, np.repeat(dagger(z) @ b, k, axis=-1), s)
    y = z @ x
    x += _shifted_solve(poles, t, dagger(z) @ (np.repeat(b, k, axis=-1) - y * s[:, None] + a @ y), s)
    out = np.empty((*d.shape[1:], len(d), k), dtype=complex).transpose(2, 3, 0, 1)
    return np.add((c @ z @ x).reshape(*d.shape, k).transpose(0, 3, 1, 2), d[:, None], out=out)


def _freq_response(g: _Loops, s: np.ndarray) -> np.ndarray:
    """C (sI - A)^{-1} B + D of each loop of the stack ``g`` at its points ``s`` (L, k), as
    (L, k, p, m).  With more inputs than outputs the transpose is solved instead, on the Schur
    form of A^T that A^T = (conj(Z) J)(J T^T J)(J Z^T) gives, J the reversal."""
    a, b, c, d = g.a, g.b, g.c, g.d
    if b.shape[-1] <= c.shape[-2]:
        return _response(a, b, c, d, g.form, s)
    poles, t, z = g.form
    form = (poles[:, ::-1], t.swapaxes(1, 2)[:, ::-1, ::-1], z.conj()[:, :, ::-1])
    return _response(*(x.swapaxes(1, 2) for x in (a, c, b, d)), form, s).swapaxes(2, 3)


def _sigma_max(v: np.ndarray) -> np.ndarray:
    """sigma_max of each matrix of the stack (..., p, m): sqrt of the top eigenvalue of its
    smaller Gram matrix, each point scaled by its largest |entry| (0 if all are 0).
    A 1 x 1 Gram matrix is its own eigenvalue, as the eigensolver would return it."""
    scale = np.max(np.abs(v), axis=(-2, -1), initial=0.0)
    w = v / np.where(scale > 0.0, scale, 1.0)[..., None, None]
    gram = w @ dagger(w) if v.shape[-2] <= v.shape[-1] else dagger(w) @ w
    lam = gram[..., 0].real if gram.shape[-1] == 1 else np.linalg.eigvalsh(gram)
    return scale * np.sqrt(np.max(lam, axis=-1, initial=0.0))


def tf_eval(g: StateSpaceTF, s: complex) -> np.ndarray:
    """Evaluate C (sI - A)^{-1} B + D at the point ``s`` from the Schur form ``g`` keeps.

    Raises
    ------
    DomainError
        When ``s`` is not finite.
    SingularityError
        When ``s`` sits within the spectral-gap guard of an eigenvalue of A.
    """
    if not np.isfinite(s):
        raise DomainError(f"evaluation point must be finite, got {s!r}")
    lam = g._schur[0]
    gap = float(np.min(np.abs(s - lam), initial=np.inf))
    if gap < SPECTRAL_GAP_TOL * _pole_scale(lam):
        raise SingularityError(
            f"evaluation point {s:.6g} is within {gap:.3e} of a pole",
            eigenvalue_pair=(complex(s), complex(lam[np.argmin(np.abs(s - lam))])),
        )
    return _freq_response(g._loops, np.array([[s]], dtype=complex))[0, 0]


def _unit_frequency_grid() -> np.ndarray:
    """The default grid at scale 1, sorted and without repeats: drawn once, since its seed is fixed."""
    base = np.logspace(-3.0, 3.0, _GRID_POINTS)
    rng = np.random.default_rng(_GRID_SEED)
    mags = 10.0 ** rng.uniform(-3.0, 3.0, _GRID_RANDOM_POINTS)
    signs = rng.choice([-1.0, 1.0], _GRID_RANDOM_POINTS)
    return np.unique(np.concatenate([-base[::-1], [0.0], base, mags * signs]))


_UNIT_GRID = _unit_frequency_grid()


def _scaled_grid(scale) -> np.ndarray:
    """The unit grid times ``scale`` (a scalar, or (L, 1) per loop), inf past the float range."""
    with np.errstate(over="ignore"):
        return _UNIT_GRID * scale


def default_frequency_grid(a=None) -> np.ndarray:
    """Frequency grid for sampled prongs: log-spaced, mirrored, zero, random.

    200 logarithmic points over [1e-3, 1e3], their negatives, omega = 0 and
    56 seeded random points with log-uniform magnitude and random sign,
    sorted, all scaled by the spectral radius of ``a`` when above 1.  The
    sampled prongs use this grid for each loop; a point scaled past the
    float range (a spectral radius above about 1.8e305) is inf here, and
    they mask it like a point at a pole.
    """
    lam = np.linalg.eigvals(as_square(a, "a")) if a is not None else np.zeros(0)
    return _scaled_grid(_pole_scale(lam))


def _sample_grid(g: _Loops, metric) -> tuple[np.ndarray, np.ndarray]:
    """``metric`` of the response stacks (..., p, m) on each loop's default grid, away from the
    loop's own poles: the values (L, k, ...) along the grid axis and the mask (L, k) of the
    points used.  A point past the float range, or within 1e-8 * scale of a pole of its loop,
    is evaluated at 2 * scale instead, which lies off every pole, and masked out."""
    lam = g.form[0]
    scale = _pole_scale(lam)[:, None]
    w = _scaled_grid(scale)
    s = 1j * np.where(np.isfinite(w), w, 0.0)
    used = np.isfinite(w) & (np.min(np.abs(s[:, None] - lam[:, :, None]), axis=1, initial=np.inf) > 1e-8 * scale)
    s = np.where(used, s, 2.0 * scale)
    n, m, p = g.a.shape[-1], g.b.shape[-1], g.c.shape[-2]
    step = max(1, _BLOCK_ENTRIES // max(1, n * min(m, p)))

    def sampled(points: np.ndarray) -> np.ndarray:  # the metric over one (L k, p, m) view
        v = _freq_response(g, points)
        x = metric(v.reshape(v.shape[0] * v.shape[1], *v.shape[2:]))
        return x.reshape(*v.shape[:2], *x.shape[1:])

    blocks = [sampled(s[:, i : i + step]) for i in range(0, s.shape[1], step)]
    return (blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=1)), used


def _controllable_basis(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the controllable subspace of (A, B).

    Orthogonal staircase (Van Dooren 1981): each step projects the new block
    off the basis so far (Gram-Schmidt twice), keeps its left singular
    vectors above the rank rule's cut at scale max(|A|, |B|) and dim n, and
    continues with A times them.  Every block multiplied by A is orthonormal,
    so no power of A is formed and the rank cut keeps its meaning at every n.
    """
    n = a.shape[0]
    cut = _rank_cut(max(max_abs(a), max_abs(b)), max(n, 1))
    basis = np.zeros((n, 0), dtype=complex)
    block = b
    while block.shape[1] and basis.shape[1] < n:
        for _ in range(2):
            block = block - basis @ (dagger(basis) @ block)
        u, svals, _ = np.linalg.svd(block, full_matrices=False)
        block = u[:, svals > cut]
        basis = np.hstack([basis, block])
        block = a @ block
    return basis


def minimal_realization(g: StateSpaceTF) -> StateSpaceTF:
    """Exact reduction to the controllable and observable part.

    Returns ``g`` itself when it is already minimal; otherwise projects onto
    the controllable subspace, then onto the observable subspace of the
    result (the controllable subspace of the dual).  The transfer function
    is unchanged.
    """
    v = _controllable_basis(g.a, g.b)
    if v.shape[1] == g.state_dim == _controllable_basis(dagger(g.a), dagger(g.c)).shape[1]:
        return g
    a1 = dagger(v) @ g.a @ v
    b1 = dagger(v) @ g.b
    c1 = g.c @ v
    w = _controllable_basis(dagger(a1), dagger(c1))
    return StateSpaceTF(
        a=dagger(w) @ a1 @ w, b=dagger(w) @ b1, c=c1 @ w, d=g.d.copy()
    )


def _signature_check(g, red, sig, tol, gate) -> tuple[str, str, dict[str, float]]:
    """Check Gamma~(s) S Gamma(s) = S: the core of both structure checks.

    Algebraic prong: D^dagger S D = S and, on the realization ``red`` of
    ``g``, the Hermitian X with A X + X A^dagger + B S B^dagger = 0 must
    satisfy X C^dagger = -B S D^dagger, which is the realizability check's
    coupling test with G = B S D^dagger.  An unsolvable certificate equation
    makes the prong indeterminate, and a non-None ``gate`` replaces it.
    Sampled prong: the identity on ``g`` at the grid frequencies, indeterminate where not finite.
    Returns (algebraic, sampled, residuals); a |D| whose square overflows is a DomainError.
    """
    require_tolerance(tol, "tol")
    feed_scale = 1.0 + _square(max_abs(g.d), "feedthrough")
    residuals = {"feedthrough": max_abs(dagger(g.d) @ sig @ g.d - sig)}
    feed_ok = residuals["feedthrough"] <= tol * feed_scale
    if gate is not None:
        algebraic = gate
    elif red.state_dim == 0:
        algebraic = "pass" if feed_ok else "fail"
    else:
        try:
            q = _noise_term(red.b, sig)
            x = solve_lyapunov_hermitian(red.a, q, red._schur[1:])
        except SingularityError:
            algebraic = "indeterminate"
        else:
            g_cpl = red.b @ sig @ dagger(red.d)
            coupled = not _coupling_defect(g_cpl, x, red.c, np.eye(red.output_dim), residuals, tol)
            algebraic = "pass" if feed_ok and coupled else "fail"
    with np.errstate(over="ignore", invalid="ignore"):  # a response too large to square decides nothing
        values, used = _sample_grid(g._loops, lambda v: np.abs(dagger(v) @ sig @ v - sig))
    worst = residuals["sampled"] = float(np.max(values, where=used[..., None, None], initial=0.0))
    sampled = "indeterminate" if not np.isfinite(worst) else "pass" if used.any() and worst <= FREQ_TOL else "fail"
    return algebraic, sampled, residuals


def jj_unitary_check(g: StateSpaceTF, half_io: int, tol: float = RESIDUAL_TOL) -> TransferCheck:
    """Check Gamma~(s) J Gamma(s) = J for a square doubled-dimension system.

    Algebraic prong: a Hermitian X with A X + X A^dagger + B J B^dagger = 0,
    X C^dagger = -B J D^dagger and D^dagger J D = J.  Sampled prong: the
    identity at grid frequencies.  When the eigenvalue-sum condition fails
    the certificate equation is non-unique: the Lyapunov solver's
    spectral-gap precheck says so, and the algebraic prong reports
    indeterminate; the sampled prong still runs.
    """
    if g.input_dim != 2 * half_io or g.output_dim != 2 * half_io:
        raise DimensionError(
            f"need square io of dimension {2 * half_io}, got "
            f"{g.output_dim} x {g.input_dim}"
        )
    algebraic, sampled, residuals = _signature_check(g, g, signature_matrix(half_io), tol, None)
    prongs = {"algebraic": algebraic, "sampled": sampled}
    return TransferCheck(algebraic == sampled == "pass", prongs, residuals)


def lossless_br_check(g: StateSpaceTF, tol: float = RESIDUAL_TOL) -> TransferCheck:
    """Check that Gamma is stable and all-pass (lossless bounded real).

    Non-minimal realizations are first reduced exactly, since the property
    belongs to the transfer function.  Prongs: (i) stability of the reduced
    state matrix, read off its Schur diagonal, (ii) algebraic: Hermitian X
    with A X + X A^dagger + B B^dagger = 0, X C^dagger = -B D^dagger and
    D^dagger D = I (X > 0 follows from minimality and stability), (iii)
    sampled unitarity on the frequency grid.
    """
    if g.input_dim != g.output_dim:
        raise DimensionError(
            f"lossless check needs square io, got {g.output_dim} x {g.input_dim}"
        )
    red = minimal_realization(g)
    stable = _hurwitz_spectrum(red._schur[0], red.a)
    algebraic, sampled, residuals = _signature_check(
        g, red, np.eye(g.input_dim), tol, None if stable else "fail"
    )
    prongs = {"stability": "pass" if stable else "fail", "algebraic": algebraic, "sampled": sampled}
    return TransferCheck(all(v == "pass" for v in prongs.values()), prongs, residuals)


def h2_norm(g: StateSpaceTF) -> NormResult:
    """H2 norm sqrt(trace(C P C^dagger)) with A P + P A^dagger + B B^dagger = 0.

    Raises
    ------
    InfiniteNormError
        When D is nonzero (the norm does not exist).
    InstabilityError
        When A is not Hurwitz.
    DomainError
        When the trace is not finite.
    """
    if max_abs(g.d) > RESIDUAL_TOL:
        raise InfiniteNormError("H2 norm needs a strictly proper system (D = 0)")
    if g.state_dim == 0:
        return NormResult(0.0, "lyapunov-gramian", {"gramian_trace": 0.0})
    if not _hurwitz_spectrum(g._schur[0], g.a):
        raise InstabilityError("H2 norm needs a Hurwitz state matrix")
    p = solve_lyapunov_hermitian(g.a, _noise_term(g.b), g._schur[1:])
    value, tr = _trace_cost(g.c, p)
    residual = max_abs(g.a @ p + p @ dagger(g.a) + g.b @ dagger(g.b))
    return NormResult(float(value), "lyapunov-gramian", {"gramian_trace": float(tr), "residual": residual})


# Levels within this relative band of the level-set bracket run the Hamiltonian
# test itself: near the norm, eigenvalue pairs coalesce on the imaginary axis
# and rounding moves them by about sqrt(eps), so the 1e-8 axis test there can
# disagree with the bracket.
_LEVEL_SET_BAND = 1e-8
_LEVEL_SET_STEP = 1e-10
_LEVEL_SET_MAX_STEPS = 50


def _axis_eigenvalues(one: _Loops, gamma: float) -> np.ndarray | None:
    """Imaginary-axis eigenvalues of the bounded-real Hamiltonian of the one-loop stack ``one``
    at level gamma, or None when R = gamma^2 I - D^dagger D is not positive definite.  A DomainError
    where gamma^2 leaves the normal float range (above it the square overflows, below it R^{-1}
    would) or the Hamiltonian overflows."""
    square = _square(gamma, "H-infinity level")
    if square < np.finfo(float).tiny:
        raise DomainError(f"H-infinity level {gamma:.3g} is too small: its square underflows")
    r = hermitian_part(square * np.eye(one.d.shape[-1]) - dagger(one.d) @ one.d)
    if r.shape[-1] and np.linalg.eigvalsh(r)[0, 0] <= 0.0:
        return None
    r_inv = np.linalg.inv(r)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed Hamiltonian is refused below
        a_hat = one.a + one.b @ r_inv @ dagger(one.d) @ one.c
        ham = _stacked_block(
            [
                [a_hat, one.b @ r_inv @ dagger(one.b)],
                [-dagger(one.c) @ (np.eye(one.c.shape[-2]) + one.d @ r_inv @ dagger(one.d)) @ one.c, -dagger(a_hat)],
            ]
        )
    if not np.all(np.isfinite(ham)):
        raise DomainError(f"H-infinity Hamiltonian at level {gamma:.3g} overflows")
    lam = np.linalg.eigvals(ham)[0]
    return lam[np.abs(lam.real) <= 1e-8 * _pole_scale(lam)]


def _level_set_bracket(one: _Loops, lo: float) -> tuple[tuple[float, float] | None, int]:
    """Level-set iteration (Boyd-Balakrishnan, Bruinsma-Steinbuch) upward from ``lo`` for the
    one-loop stack ``one``.

    Each step tests the level just above ``lo``: its imaginary-axis eigenvalues are the
    frequencies where a singular value of G crosses it, and the peak of sigma_max over the
    midpoints between them is the next ``lo``.  Returns the bracket (last ``lo``, first level
    without axis eigenvalues) and the number of Hamiltonian eigensolves; the bracket is None when
    R is not positive definite or the iteration does not close within _LEVEL_SET_MAX_STEPS steps.
    """
    for step in range(_LEVEL_SET_MAX_STEPS):
        gamma = lo + _LEVEL_SET_STEP * (lo or 1.0)
        axis = _axis_eigenvalues(one, gamma)
        if axis is None:
            return None, step
        if axis.size == 0:
            return (lo, gamma), step + 1
        w = np.sort(axis.imag)
        peak = _sigma_max(_freq_response(one, 0.5j * (w[:-1] + w[1:])[None]))
        lo = max(gamma, float(np.max(peak, initial=0.0)))
    return None, _LEVEL_SET_MAX_STEPS


def _hinf_loop(one: _Loops, lo: float, estimate: float, rel_tol: float) -> tuple[float, float, int, int]:
    """:func:`hinf_norm`'s level set, bracket search and bisection on the one-loop stack ``one``,
    from the lower end ``lo`` and the gain ``estimate``: (lo, hi, iterations, Hamiltonian solves)."""
    bracket, solves = _level_set_bracket(one, lo)

    def feasible(gamma: float) -> bool:  # no imaginary-axis eigenvalue at level gamma
        nonlocal solves
        if bracket is not None:
            band = _LEVEL_SET_BAND * (bracket[0] or 1.0)
            if gamma > bracket[1] + band:
                return True
            if gamma < bracket[0] - band:
                return False
        solves += 1
        axis = _axis_eigenvalues(one, gamma)
        return axis is not None and axis.size == 0

    hi = max(estimate, 2.0 * lo, 1e-8)
    for _ in range(100):
        if feasible(hi):
            break
        hi *= 2.0
    else:
        raise GenerationError("H-infinity upper bracket search failed to close")

    iterations = 0
    while hi - lo > rel_tol * (lo or 1.0):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if feasible(mid):
            hi = mid
        else:
            lo = mid
        iterations += 1
    return lo, hi, iterations, solves


def _hinf_norms(g: _Loops, rel_tol: float = 1e-6) -> list:
    """:func:`hinf_norm` of each loop of a stack of equal-shape loops: its NormResult, or the
    error that :func:`hinf_norm` raises on it.  The stack shares one Hurwitz rule, one
    sigma_max(D), one gain estimate and one grid pass; then each loop runs its own level set,
    bracket search and bisection on its one-loop stack."""
    require_tolerance(rel_tol, "rel_tol")
    count, p, m = g.d.shape
    sigma_d = np.linalg.svd(g.d, compute_uv=False)[:, 0] if p and m else np.zeros(count)
    stable = _hurwitz_spectrum(g.form[0], g.a)
    out: list = [None if ok else InstabilityError("H-infinity norm needs a Hurwitz state matrix") for ok in stable]
    live = np.flatnonzero(stable)
    if not g.a.shape[-1] or not m or not p:
        for l in live:
            out[l] = NormResult(float(sigma_d[l]), "static", {"sigma_max_d": float(sigma_d[l])})
        return out
    if not live.size:
        return out

    h, sigma_d = g.take(live), sigma_d[live]
    sigma, used = _sample_grid(h, _sigma_max)
    grid_max = np.max(sigma, axis=1, where=used, initial=0.0)
    gains = np.linalg.svd(h.c, compute_uv=False)[:, 0] * np.linalg.svd(h.b, compute_uv=False)[:, 0]  # |C|_2 |B|_2
    estimate = sigma_d + 2.0 * gains / np.maximum(np.abs(np.max(h.form[0].real, axis=1)), SPECTRAL_GAP_TOL)
    for j, l in enumerate(live):
        top = float(grid_max[j])
        lo = max(float(sigma_d[j]) * (1.0 + 1e-9), top * (1.0 - 1e-12))
        try:
            low, high, iterations, solves = _hinf_loop(h.take([j]), lo, float(estimate[j]), rel_tol)
        except (DomainError, GenerationError) as exc:
            out[l] = exc
            continue
        out[l] = NormResult(
            0.5 * (low + high),
            "bisection",
            {
                "bracket_low": low,
                "bracket_high": high,
                "iterations": float(iterations),
                "grid_lower_bound": top,
                "grid_min": float(np.min(sigma[j], where=used[j], initial=top)),
                "hamiltonian_solves": float(solves),
            },
        )
    return out


def hinf_norm(g: StateSpaceTF, rel_tol: float = 1e-6) -> NormResult:
    """H-infinity norm by bisection on the bounded-real Hamiltonian test.

    The lower bracket starts from the larger of the grid-sampled gain and
    sigma_max(D) inflated by 1e-9 (the all-pass degeneracy guard); the upper
    bracket doubles a gain estimate until the Hamiltonian test passes, and
    halving stops at width ``rel_tol`` times the lower end (``rel_tol`` while
    that end is 0), or when the midpoint no longer moves.  The feasibility
    questions of both searches are answered by comparison with one bracket
    on the norm, which the quadratically convergent level-set iteration
    closes in a few Hamiltonian eigensolves.  Levels within a 1e-8 relative
    band of that bracket, and every level when the iteration does not close,
    run the Hamiltonian test itself; away from the band the two answers
    agree, so the value and bracket are those of testing every level.  The
    certificate adds the grid's sigma_max range, ``grid_lower_bound`` and
    ``grid_min``, and the eigensolve count ``hamiltonian_solves``.  A
    Hurwitz (or empty) A with an empty B or C has the "static" norm
    sigma_max(D).  This is the one-loop case of the stacked norm core, whose
    level set and bisection run one loop at a time.

    Raises
    ------
    DomainError
        When ``rel_tol`` is not a finite positive number, or when a tested
        level's square overflows or underflows (a norm above about 1e154 or
        below about 1e-154), or its Hamiltonian overflows.
    InstabilityError
        When A is not Hurwitz.
    """
    norm = _hinf_norms(g._loops, rel_tol)[0]
    if isinstance(norm, Exception):
        raise norm
    return norm
