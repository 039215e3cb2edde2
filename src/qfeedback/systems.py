"""Linear quantum system models, construction and realizability checks.

A system is a quadruple (F, G, H, K) of QSDE coefficient matrices.  The
general form works on doubled-up matrices acting on stacked mode/creation
coordinates; the annihilation form uses plain complex matrices.  Both are
physically realizable exactly when a commutation matrix certificate exists,
and both directions (physical parameters -> matrices, matrices -> parameters)
live here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, ClassVar, NamedTuple

import numpy as np

from .errors import DimensionError, DomainError, GenerationError, NotRealizableError, SingularityError
from .linalg import (
    RANK_TOL,
    RESIDUAL_TOL,
    SPECTRAL_GAP_TOL,
    as_matrix,
    conj_swap,
    dagger,
    delta_build,
    hermitian_basis,
    hermitian_part,
    is_doubled,
    max_abs,
    min_eigenvalue_pair_gap,
    real_columns,
    require_hermitian,
    signature_matrix,
    solve_lyapunov_hermitian,
)


def _doubling(kind: str) -> int:
    """Coordinates per mode or field: 2 for the general kind, 1 for annihilation.

    The general kind doubles every mode and field into (annihilation,
    creation) coordinates; this is the one place that maps a kind to its
    factor.
    """
    if kind == "general":
        return 2
    if kind == "annihilation":
        return 1
    raise DomainError(f"unknown kind {kind!r}")


def _inertia(h: np.ndarray) -> tuple[int, int, int]:
    """Counts of (positive, negative, zero) eigenvalues of a Hermitian matrix."""
    if h.shape[0] == 0:
        return (0, 0, 0)
    lam = np.linalg.eigvalsh(h)
    cut = RANK_TOL * max(1.0, float(np.max(np.abs(lam))))
    return (int(np.sum(lam > cut)), int(np.sum(lam < -cut)), int(np.sum(np.abs(lam) <= cut)))


def is_positive_definite(h) -> bool:
    """True when the Hermitian matrix has all eigenvalues above the rank cutoff."""
    h = require_hermitian(h, "matrix")
    if h.shape[0] == 0:
        return True
    lam = np.linalg.eigvalsh(h)
    return bool(lam[0] > RANK_TOL * max(1.0, float(np.max(np.abs(lam)))))


def eig_sum_condition(f) -> bool:
    """True when no eigenvalue pair of F satisfies lambda_i + conj(lambda_j) = 0.

    Under this condition the Lyapunov certificate equation has a unique
    solution, which makes the realizability checks decisive.
    """
    f = as_matrix(f, "f")
    if f.shape[0] != f.shape[1]:
        raise DimensionError(f"f must be square, got {f.shape}")
    return min_eigenvalue_pair_gap(f) > SPECTRAL_GAP_TOL * max(1.0, max_abs(f))


def is_hurwitz(f, tol: float = SPECTRAL_GAP_TOL) -> bool:
    """True when every eigenvalue of ``f`` has real part below -tol * scale."""
    f = as_matrix(f, "f")
    if f.shape[0] == 0:
        return True
    lam = np.linalg.eigvals(f)
    return bool(np.max(lam.real) < -tol * max(1.0, max_abs(f)))


@dataclass(frozen=True)
class HamiltonianCoupling:
    """Physical parameters (Theta, M, N) of a linear quantum system.

    ``theta`` is the commutation matrix, ``m`` the quadratic Hamiltonian
    matrix and ``n_coupling`` the field coupling.  ``kind`` selects the
    doubled-up general form or the annihilation-only form; shapes and
    structure are validated on construction.
    """

    theta: np.ndarray
    m: np.ndarray
    n_coupling: np.ndarray
    kind: str

    def __post_init__(self):
        theta = require_hermitian(self.theta, "theta")
        m = require_hermitian(self.m, "m")
        n = as_matrix(self.n_coupling, "n_coupling")
        if _doubling(self.kind) == 2:
            if theta.shape[0] % 2 or n.shape[0] % 2:
                raise DimensionError("general-kind parameters need even dimensions")
            if not (is_doubled(m) and is_doubled(n)):
                raise DomainError("general-kind M and N must be doubled-up")
            pos, neg, zero = _inertia(theta)
            if zero or pos != neg:
                raise DomainError(
                    f"theta must have inertia (n, n), got ({pos}, {neg}, {zero} zero)"
                )
        else:
            if not is_positive_definite(theta):
                raise DomainError("annihilation-kind theta must be positive definite")
        if m.shape[0] != theta.shape[0] or n.shape[1] != theta.shape[0]:
            raise DimensionError(
                f"parameter shapes disagree: theta {theta.shape}, m {m.shape}, "
                f"n {n.shape}"
            )
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n_coupling", n)

    @property
    def n_modes(self) -> int:
        return self.theta.shape[0] // _doubling(self.kind)

    @property
    def m_fields(self) -> int:
        return self.n_coupling.shape[0] // _doubling(self.kind)


class _LayoutModel:
    """Model matrices validated against a class-level layout.

    ``_layout`` maps each matrix, in document order, to the names of the mode
    or field counts that size its rows and columns.  Every dimension is
    ``_doubling(kind)`` times its count, and the general kind also requires
    doubled-up structure of every matrix.  A count the caller does not fix
    is read from the first matrix whose rows it sizes, else from the first
    whose columns it sizes; every count then becomes an attribute.
    """

    _layout: ClassVar[dict[str, tuple[str, str]]]

    def __post_init__(self):
        self._check_layout({})

    def _check_layout(self, counts: dict[str, int]) -> None:
        d = _doubling(self.kind)
        mats = {name: as_matrix(getattr(self, name), name) for name in self._layout}
        for axis in (0, 1):
            for name, dims in self._layout.items():
                counts.setdefault(dims[axis], mats[name].shape[axis] // d)
        for name, (rows, cols) in self._layout.items():
            want = (d * counts[rows], d * counts[cols])
            if mats[name].shape != want:
                raise DimensionError(f"{name} must have shape {want}, got {mats[name].shape}")
            if d == 2 and not is_doubled(mats[name]):
                raise DomainError(f"general-kind {name} lacks doubled-up structure")
        for name, value in {**mats, **counts}.items():
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class _FieldSystem(_LayoutModel):
    """QSDE coefficients (F, G, H, K) with mode/field counts.

    ``n_modes`` and ``m_fields`` default to the values implied by the matrix
    shapes; pass them explicitly to cross-check an external dimension record.
    """

    _layout: ClassVar[dict[str, tuple[str, str]]] = {
        "f": ("n_modes", "n_modes"),
        "g": ("n_modes", "m_fields"),
        "h": ("m_fields", "n_modes"),
        "k": ("m_fields", "m_fields"),
    }

    f: np.ndarray
    g: np.ndarray
    h: np.ndarray
    k: np.ndarray
    n_modes: int = -1
    m_fields: int = -1

    def __post_init__(self):
        fixed = ("n_modes", "m_fields")
        self._check_layout({nm: getattr(self, nm) for nm in fixed if getattr(self, nm) >= 0})


@dataclass(frozen=True)
class GeneralQSys(_FieldSystem):
    """Doubled-up QSDE coefficients (F, G, H, K) with mode/field counts."""

    kind: ClassVar[str] = "general"


@dataclass(frozen=True)
class AnnihilationQSys(_FieldSystem):
    """Annihilation-operator QSDE coefficients (F, G, H, K), plain matrices."""

    kind: ClassVar[str] = "annihilation"


@dataclass(frozen=True)
class PrVerdict:
    """Outcome of a physical-realizability check.

    ``indeterminate`` marks the case where the certificate equation has a
    non-unique solution family that the checker could not decide; it is
    distinct from a definite failure.  ``realizable`` True requires all
    residuals within tolerance and ``theta`` present.
    """

    realizable: bool
    theta: np.ndarray | None
    residuals: dict[str, float] = field(default_factory=dict)
    failure_reason: str | None = None
    indeterminate: bool = False


def realize_general(p: HamiltonianCoupling) -> GeneralQSys:
    """Build the doubled-up system realizing the parameters (Theta, M, N).

    F = -i Theta M - (1/2) Theta N^dagger J N, G = -Theta N^dagger J, H = N,
    K = I.  The output always carries p.theta as its realizability
    certificate.
    """
    if p.kind != "general":
        raise DomainError(f"expected general-kind parameters, got {p.kind!r}")
    theta, m, n = p.theta, p.m, p.n_coupling
    j = signature_matrix(p.m_fields)
    f = -1j * theta @ m - 0.5 * theta @ dagger(n) @ j @ n
    g = -theta @ dagger(n) @ j
    k = np.eye(2 * p.m_fields, dtype=complex)
    return GeneralQSys(f=f, g=g, h=n.copy(), k=k, n_modes=p.n_modes, m_fields=p.m_fields)


def realize_annihilation(p: HamiltonianCoupling) -> AnnihilationQSys:
    """Build the annihilation-operator system realizing (Theta, M, N).

    F = Theta (-i M - (1/2) N^dagger N), G = -Theta N^dagger, H = N, K = I.
    """
    if p.kind != "annihilation":
        raise DomainError(f"expected annihilation-kind parameters, got {p.kind!r}")
    theta, m, n = p.theta, p.m, p.n_coupling
    f = theta @ (-1j * m - 0.5 * dagger(n) @ n)
    g = -theta @ dagger(n)
    k = np.eye(p.m_fields, dtype=complex)
    return AnnihilationQSys(f=f, g=g, h=n.copy(), k=k, n_modes=p.n_modes, m_fields=p.m_fields)


def _coupling_residual(g, theta, h, sig) -> float:
    """Residual of the coupling identity G = -Theta H^dagger S."""
    return max_abs(g + theta @ dagger(h) @ sig)


def _certificate_family_annihilation(f, g, h):
    """Affine family of Hermitian Theta solving both certificate equations.

    Stacks F Theta + Theta F^dagger = -G G^dagger and Theta H^dagger = -G as
    one real least-squares problem over the Hermitian parameterization.
    Returns (theta0, null_basis, residual); the family is
    theta0 + span(null_basis).
    """
    basis = hermitian_basis(f.shape[0])
    a_mat = real_columns(f @ basis + basis @ dagger(f), basis @ dagger(h))
    rhs_c = np.concatenate([(-(g @ dagger(g))).ravel(), (-g).ravel()])
    rhs = np.concatenate([rhs_c.real, rhs_c.imag])
    sol, *_ = np.linalg.lstsq(a_mat, rhs, rcond=None)
    theta0 = np.tensordot(sol, basis, 1)
    residual = float(np.max(np.abs(a_mat @ sol - rhs))) if rhs.size else 0.0

    _, svals, vt = np.linalg.svd(a_mat)
    smax = svals[0] if svals.size else 0.0
    null = []
    for idx in range(len(basis)):
        if idx >= svals.size or svals[idx] <= RANK_TOL * max(1.0, smax) * max(a_mat.shape):
            null.append(np.tensordot(vt[idx].conj(), basis, 1))
    return hermitian_part(theta0), [hermitian_part(b) for b in null], residual


def _search_positive_definite(theta0, null_basis):
    """Pick a positive definite member of the affine certificate family.

    Prefers the member closest to the identity (Frobenius projection), which
    makes the no-coupling degenerate case return the canonical Theta = I;
    falls back to a coarse grid over the family parameters.
    """
    if null_basis:
        n = theta0.shape[0]
        cols = real_columns(np.array(null_basis))
        gap = (np.eye(n, dtype=complex) - theta0).ravel()
        rhs = np.concatenate([gap.real, gap.imag])
        coeff, *_ = np.linalg.lstsq(cols, rhs, rcond=None)
        nearest = hermitian_part(
            theta0 + sum(c * b for c, b in zip(coeff, null_basis))
        )
        if is_positive_definite(nearest):
            return nearest
    if is_positive_definite(theta0):
        return theta0
    if not null_basis or len(null_basis) > 2:
        return None
    grids = [np.concatenate([np.linspace(-20.0, 20.0, 161)]) for _ in null_basis]
    if len(null_basis) == 1:
        for t in grids[0]:
            cand = theta0 + t * null_basis[0]
            if is_positive_definite(cand):
                return cand
    else:
        coarse = np.linspace(-10.0, 10.0, 41)
        for t1 in coarse:
            for t2 in coarse:
                cand = theta0 + t1 * null_basis[0] + t2 * null_basis[1]
                if is_positive_definite(cand):
                    return cand
    return None


def _indeterminate(residuals) -> PrVerdict:
    return PrVerdict(False, None, residuals, "eigenvalue-sum-degenerate", indeterminate=True)


def _check_certificate(s, sig, tol, form_defect, fallback=None) -> PrVerdict:
    """Realizability core shared by both system kinds.

    Requires K = I, then solves F Theta + Theta F^dagger + G S G^dagger = 0
    for the unique certificate and checks the coupling identity
    G = -Theta H^dagger S.  ``form_defect(theta)`` returns None for a
    certificate of the right form, else the residuals explaining the
    defect.  Systems failing the eigenvalue-sum condition are indeterminate
    unless ``fallback(s, q, residuals, tol)`` decides them.
    """
    f, g, h = s.f, s.g, s.h
    residuals: dict[str, float] = {}

    residuals["feedthrough"] = max_abs(s.k - np.eye(sig.shape[0]))
    if residuals["feedthrough"] > tol:
        return PrVerdict(False, None, residuals, "feedthrough")

    q = hermitian_part(g @ sig @ dagger(g))
    if not eig_sum_condition(f):
        return fallback(s, q, residuals, tol) if fallback else _indeterminate(residuals)
    try:
        theta = solve_lyapunov_hermitian(f, q)
    except SingularityError:
        return _indeterminate(residuals)

    residuals["lyapunov"] = max_abs(f @ theta + theta @ dagger(f) + q)
    if residuals["lyapunov"] > tol * (1.0 + max_abs(q)):
        return PrVerdict(False, None, residuals, "lyapunov")

    residuals["coupling"] = _coupling_residual(g, theta, h, sig)
    scale = 1.0 + max_abs(g) + max_abs(theta) * max_abs(h)
    if residuals["coupling"] > tol * scale:
        return PrVerdict(False, None, residuals, "coupling")

    defect = form_defect(theta)
    if defect is not None:
        residuals.update(defect)
        return PrVerdict(False, None, residuals, "theta-form")
    return PrVerdict(True, theta, residuals, None)


def _inertia_defect(theta) -> dict[str, float] | None:
    pos, neg, zero = _inertia(theta)
    if zero or pos != neg:
        return {"inertia_defect": float(zero + abs(pos - neg))}
    return None


def _definiteness_defect(theta) -> dict[str, float] | None:
    return None if is_positive_definite(theta) else {}


def _family_fallback(s, q, residuals, tol) -> PrVerdict:
    """Search the affine certificate family of a small degenerate system."""
    if s.n_modes > 2:
        return _indeterminate(residuals)
    f, g, h = s.f, s.g, s.h
    theta0, null_basis, family_residual = _certificate_family_annihilation(f, g, h)
    if family_residual > tol * (1.0 + max_abs(q) + max_abs(g)):
        residuals["certificate_family"] = family_residual
        return PrVerdict(False, None, residuals, "coupling")
    theta = _search_positive_definite(theta0, null_basis)
    if theta is None:
        residuals["certificate_family"] = family_residual
        return _indeterminate(residuals)
    residuals["lyapunov"] = max_abs(f @ theta + theta @ dagger(f) + q)
    residuals["coupling"] = _coupling_residual(g, theta, h, np.eye(s.m_fields))
    ok = residuals["lyapunov"] <= tol * (1.0 + max_abs(q)) and residuals[
        "coupling"
    ] <= tol * (1.0 + max_abs(g) + max_abs(theta) * max_abs(h))
    if not ok:
        return PrVerdict(False, None, residuals, "coupling")
    return PrVerdict(True, theta, residuals, None)


def check_pr_general(s: GeneralQSys, tol: float = RESIDUAL_TOL) -> PrVerdict:
    """Decide physical realizability of a doubled-up system.

    Requires K = I, a Hermitian certificate Theta solving
    F Theta + Theta F^dagger + G J G^dagger = 0 with inertia (n, n), and the
    coupling identity G = -Theta H^dagger J.  When the eigenvalue-sum
    condition fails the certificate is non-unique and the verdict is
    indeterminate.
    """
    return _check_certificate(s, signature_matrix(s.m_fields), tol, _inertia_defect)


def check_pr_annihilation(s: AnnihilationQSys, tol: float = RESIDUAL_TOL) -> PrVerdict:
    """Decide physical realizability of an annihilation-operator system.

    Same shape as the general check with J replaced by the identity and the
    certificate required positive definite.  When the eigenvalue-sum
    condition fails, small systems (n <= 2) fall back to a parameterized
    search of the affine certificate family; an undecided search reports
    indeterminate rather than false.
    """
    return _check_certificate(
        s, np.eye(s.m_fields), tol, _definiteness_defect, _family_fallback
    )


class _KindRules(NamedTuple):
    """What a representation kind selects besides its doubling factor."""

    system: type
    check: Callable[..., PrVerdict]
    realize: Callable[[HamiltonianCoupling], _FieldSystem]
    signature: Callable[[int], np.ndarray]  # J or I over a field count


def _kind_rules(kind: str) -> _KindRules:
    """The kind table: square class, realizability check, realization, J or I.

    Built on each call from the module's names, so that rebinding one of
    them (as ``bench/tracing.py`` does) takes effect here too.
    """
    if _doubling(kind) == 2:
        return _KindRules(GeneralQSys, check_pr_general, realize_general, signature_matrix)
    return _KindRules(AnnihilationQSys, check_pr_annihilation, realize_annihilation, np.eye)


def extract_params(s) -> HamiltonianCoupling:
    """Recover the physical parameters (Theta, M, N) from a realizable system.

    Inverts the construction formulas: N = H, Theta from the realizability
    certificate, M = i Theta^{-1} F + (i/2) N^dagger S N with S = J (general)
    or I (annihilation).  The recovered M must be Hermitian, and doubled-up
    for the general kind, before it is projected onto that structure
    (deviation <= 1e-6 relative), and re-substitution must reproduce the
    input within RESIDUAL_TOL.

    Raises
    ------
    NotRealizableError
        When the realizability check fails or is indeterminate.
    DomainError
        When the recovered M is materially off that structure or the round
        trip fails, which indicates an input outside the checker's tolerances.
    """
    if not isinstance(s, _FieldSystem):
        raise DomainError(f"expected a quantum system model, got {type(s).__name__}")
    rules = _kind_rules(s.kind)
    verdict = rules.check(s)
    if not verdict.realizable:
        reason = verdict.failure_reason or "unknown"
        raise NotRealizableError(
            f"cannot extract parameters: system is not physically realizable ({reason})",
            residuals=verdict.residuals,
        )

    theta = verdict.theta
    n = s.h.copy()
    sig = rules.signature(s.m_fields)
    m = 1j * np.linalg.inv(theta) @ s.f + 0.5j * dagger(n) @ sig @ n
    checks = [("Hermitian", dagger)] + ([("doubled-up", conj_swap)] if s.kind == "general" else [])
    for name, involution in checks:
        dev = max_abs(m - involution(m)) / (1.0 + max_abs(m))
        if dev > 1e-6:
            raise DomainError(f"recovered Hamiltonian matrix is not {name} (deviation {dev:.3e})")
        m = 0.5 * (m + involution(m))
    params = HamiltonianCoupling(theta=theta, m=m, n_coupling=n, kind=s.kind)

    rebuilt = rules.realize(params)
    scale = 1.0 + max_abs(s.f)
    round_trip = max(
        max_abs(rebuilt.f - s.f),
        max_abs(rebuilt.g - s.g),
        max_abs(rebuilt.h - s.h),
        max_abs(rebuilt.k - s.k),
    )
    if round_trip > RESIDUAL_TOL * scale * 10:
        raise DomainError(
            f"parameter extraction round trip failed (deviation {round_trip:.3e})"
        )
    return params


def _random_complex(rng, rows: int, cols: int) -> np.ndarray:
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def random_pr_system(
    n: int,
    m: int,
    seed: int,
    kind: str = "annihilation",
    hurwitz_required: bool = False,
):
    """Draw a seeded random physically realizable system.

    Parameters come from unit complex Gaussians, doubled up for the general
    kind: Hermitian M, coupling N and an invertible T giving
    Theta = T S T^dagger with S = J (general) or I (annihilation).  Draws
    failing the eigenvalue-sum condition, near-singular T, or (with
    ``hurwitz_required``) stability are rejected and redrawn, preserving
    exact realizability of the output.

    Raises
    ------
    GenerationError
        After 16 rejected draws.
    """
    if n < 1 or m < 1:
        raise DimensionError("need n >= 1 and m >= 1")
    rules = _kind_rules(kind)
    rng = np.random.default_rng(seed)
    sig = rules.signature(n)

    def draw(rows: int, cols: int) -> np.ndarray:
        if kind == "general":
            return delta_build(_random_complex(rng, rows, cols), _random_complex(rng, rows, cols))
        return _random_complex(rng, rows, cols)

    for _ in range(16):
        t = draw(n, n)
        svals = np.linalg.svd(t, compute_uv=False)
        if svals[-1] < 1e-3 * svals[0]:
            continue
        theta = hermitian_part(t @ sig @ dagger(t))
        m_mat = hermitian_part(draw(n, n))
        params = HamiltonianCoupling(theta=theta, m=m_mat, n_coupling=draw(m, n), kind=kind)
        sys = rules.realize(params)
        if not eig_sum_condition(sys.f):
            continue
        if hurwitz_required and not is_hurwitz(sys.f, tol=1e-6):
            continue
        return sys
    raise GenerationError(
        f"no acceptable random system in 16 draws (kind={kind}, n={n}, m={m}, seed={seed})"
    )
