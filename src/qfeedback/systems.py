"""Linear quantum system models, construction and realizability checks.

A system is a quadruple (F, G, H, K) of QSDE coefficient matrices.  The
general form works on doubled-up matrices acting on stacked mode/creation
coordinates; the annihilation form uses plain complex matrices.  Both are
physically realizable exactly when a commutation matrix certificate exists,
and both directions (physical parameters -> matrices, matrices -> parameters)
live here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, ClassVar, NamedTuple

import numpy as np
from scipy.linalg import eigvals

from .errors import DimensionError, DomainError, GenerationError, NotRealizableError, SingularityError
from .linalg import (
    RESIDUAL_TOL,
    SPECTRAL_GAP_TOL,
    STRUCTURE_TOL,
    _certificate_defect,
    _check_layout,
    _hurwitz_spectrum,
    _inertia,
    _noise_term,
    _rank_cut,
    _read_only,
    _sum_collision,
    as_square,
    conj_swap,
    dagger,
    delta_build,
    hermitian_basis,
    hermitian_part,
    max_abs,
    real_lstsq,
    require_hermitian,
    require_tolerance,
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


def _has_certificate_inertia(inertia, n: int, d: int):
    """The certificate rule of the kind with doubling ``d``: ``_inertia`` (n, (d - 1) n, 0);
    count arrays of a stack get one verdict each."""
    pos, neg, zero = inertia
    return (pos == n) & (neg == (d - 1) * n) & (zero == 0)


def is_positive_definite(h) -> bool:
    """True when the Hermitian matrix has all eigenvalues above the rank cutoff."""
    h = require_hermitian(h, "matrix")
    return _has_certificate_inertia(_inertia(h), h.shape[0], 1)


def eig_sum_condition(f) -> bool:
    """True when no eigenvalue pair of F satisfies lambda_i + conj(lambda_j) = 0.

    Under this condition the Lyapunov certificate equation has a unique
    solution.  The certificate paths let the spectral-gap precheck of
    ``solve_lyapunov_hermitian`` decide it; both apply ``_sum_collision``.
    This test serves the random generator's redraws.
    """
    f = as_square(f, "f")
    if f.shape[0] == 0:
        return True
    lam = eigvals(f)
    return _sum_collision(lam, lam.conj(), max(1.0, max_abs(f))) is None


def is_hurwitz(f, tol: float = SPECTRAL_GAP_TOL) -> bool:
    """True when every eigenvalue of ``f`` has real part below -tol * max(1, |f|)."""
    f = as_square(f, "f")
    return _hurwitz_spectrum(np.linalg.eigvals(f), f, tol)


def _commutation_matrix(theta, n: int, d: int) -> np.ndarray:
    """The commutation-matrix rule for n modes of the kind with doubling ``d``.

    Theta must be Hermitian, of size d n and of the kind's certificate
    inertia; for d = 2 it must also be antisymmetric under ``conj_swap``
    within STRUCTURE_TOL (relative).  Returns the symmetrized Theta.
    """
    theta = require_hermitian(theta, "theta")
    if theta.shape[0] != d * n:
        raise DimensionError(f"theta must have shape {(d * n, d * n)}, got {theta.shape}")
    inertia = _inertia(theta)
    if not _has_certificate_inertia(inertia, n, d):
        raise DomainError(
            "theta must have inertia (n, n), got ({}, {}, {} zero)".format(*inertia)
            if d == 2 else "annihilation-kind theta must be positive definite"
        )
    if d == 2 and max_abs(conj_swap(theta) + theta) > STRUCTURE_TOL * (1.0 + max_abs(theta)):
        raise DomainError("theta must be antisymmetric under the conjugation swap")
    return theta


class _LayoutModel:
    """Model matrices validated by ``linalg._check_layout`` against a class-level
    ``_layout``, every dimension ``_doubling(kind)`` times its count."""

    _layout: ClassVar[dict[str, tuple[str, str]]]

    def __post_init__(self):
        _check_layout(self, {}, _doubling(self.kind))


@dataclass(frozen=True)
class HamiltonianCoupling(_LayoutModel):
    """Physical parameters (Theta, M, N) of a linear quantum system.

    ``theta`` is the commutation matrix, ``m`` the quadratic Hamiltonian
    matrix and ``n_coupling`` the field coupling.  ``kind`` selects the
    doubled-up general form or the annihilation-only form.  Construction
    validates M and N against the layout, M as Hermitian and Theta by
    :func:`_commutation_matrix`, and sets the counts ``n_modes`` and
    ``m_fields``.
    """

    _layout: ClassVar[dict[str, tuple[str, str]]] = {
        "m": ("n_modes", "n_modes"),
        "n_coupling": ("m_fields", "n_modes"),
    }

    theta: np.ndarray
    m: np.ndarray
    n_coupling: np.ndarray
    kind: str

    def __post_init__(self):
        object.__setattr__(self, "m", require_hermitian(self.m, "m"))
        super().__post_init__()
        theta = _commutation_matrix(self.theta, self.n_modes, _doubling(self.kind))
        object.__setattr__(self, "theta", _read_only(theta))


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
        counts = {nm: getattr(self, nm) for nm in fixed if getattr(self, nm) >= 0}
        _check_layout(self, counts, _doubling(self.kind))


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
    return GeneralQSys(f=f, g=g, h=n, k=k, n_modes=p.n_modes, m_fields=p.m_fields)


def realize_annihilation(p: HamiltonianCoupling) -> AnnihilationQSys:
    """Build the annihilation-operator system realizing (Theta, M, N).

    F = Theta (-i M - (1/2) N^dagger N), G = -Theta N^dagger, H = N, K = I.
    """
    if p.kind != "annihilation":
        raise DomainError(f"expected annihilation-kind parameters, got {p.kind!r}")
    n = p.n_coupling
    f, g = _annihilation_fg(p.theta, p.m, n)
    k = np.eye(p.m_fields, dtype=complex)
    return AnnihilationQSys(f=f, g=g, h=n, k=k, n_modes=p.n_modes, m_fields=p.m_fields)


def _annihilation_fg(theta, m, n) -> tuple[np.ndarray, np.ndarray]:
    """F = Theta (-i M - (1/2) N^dagger N) and G = -Theta N^dagger, (Theta, M, N) unvalidated."""
    return theta @ (-1j * m - 0.5 * dagger(n) @ n), -theta @ dagger(n)


def _certificate_family_annihilation(f, g, h):
    """Affine family of Hermitian Theta solving both certificate equations.

    Stacks F Theta + Theta F^dagger = -G G^dagger and Theta H^dagger = -G as
    one real least-squares problem over the Hermitian parameterization.
    Returns (theta0, null_basis, residual); the family is
    theta0 + span(null_basis).
    """
    basis = hermitian_basis(f.shape[0])
    sol, residual, a_mat = real_lstsq(
        [f @ basis + basis @ dagger(f), basis @ dagger(h)], [-(g @ dagger(g)), -g]
    )
    theta0 = np.tensordot(sol, basis, 1)

    _, svals, vt = np.linalg.svd(a_mat)
    cut = _rank_cut(svals[0] if svals.size else 0.0, max(a_mat.shape))
    null = []
    for idx in range(len(basis)):
        if idx >= svals.size or svals[idx] <= cut:
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
        coeff, *_ = real_lstsq([np.array(null_basis)], [np.eye(n, dtype=complex) - theta0])
        nearest = hermitian_part(
            theta0 + sum(c * b for c, b in zip(coeff, null_basis))
        )
        if is_positive_definite(nearest):
            return nearest
    if is_positive_definite(theta0):
        return theta0
    if not null_basis or len(null_basis) > 2:
        return None
    grid = np.linspace(-20.0, 20.0, 161) if len(null_basis) == 1 else np.linspace(-10.0, 10.0, 41)
    for steps in itertools.product(grid, repeat=len(null_basis)):
        cand = theta0
        for t, direction in zip(steps, null_basis):
            cand = cand + t * direction
        if is_positive_definite(cand):
            return cand
    return None


def _solve_certificate(f, q, d: int) -> np.ndarray:
    """The unique Hermitian Theta with F Theta + Theta F^dagger + Q = 0, exactly antisymmetric
    under ``conj_swap`` for d = 2 (-conj_swap(Theta) solves the same equation for doubled-up F, Q)."""
    theta = solve_lyapunov_hermitian(f, q)
    return 0.5 * (theta - conj_swap(theta)) if d == 2 else theta


def _indeterminate(residuals) -> PrVerdict:
    return PrVerdict(False, None, residuals, "eigenvalue-sum-degenerate", indeterminate=True)


def _check_certificate(s, kind: str, tol) -> PrVerdict:
    """Realizability core of both system kinds, which reads all it varies off ``kind``.

    ``s`` must be of the kind's class.  Requires K = I, solves
    F Theta + Theta F^dagger + G S G^dagger = 0 (S = J or I) for the unique
    certificate, checks it with :func:`_certificate_defect`, then asks for
    the kind's inertia ("theta-form"; the general kind reports
    ``inertia_defect``).  The eigenvalue-sum condition is the Lyapunov
    solver's ``SingularityError``; such systems are indeterminate unless the
    annihilation kind's :func:`_family_fallback` decides them.
    """
    require_tolerance(tol, "tol")
    rules = _kind_rules(kind)
    if not isinstance(s, rules.system):
        raise DomainError(f"expected a system of kind {kind!r}, got {type(s).__name__}")
    d, sig = _doubling(kind), rules.signature(s.m_fields)
    f, g, h = s.f, s.g, s.h
    residuals: dict[str, float] = {}

    residuals["feedthrough"] = max_abs(s.k - np.eye(sig.shape[0]))
    if residuals["feedthrough"] > tol:
        return PrVerdict(False, None, residuals, "feedthrough")

    q = _noise_term(g, sig)
    try:
        theta = _solve_certificate(f, q, d)
    except SingularityError:
        return _family_fallback(s, q, residuals, tol) if d == 1 else _indeterminate(residuals)

    failed = _certificate_defect(f, g, h, sig, q, theta, residuals, tol)
    if failed:
        return PrVerdict(False, None, residuals, failed)

    pos, neg, zero = inertia = _inertia(theta)
    if not _has_certificate_inertia(inertia, s.n_modes, d):
        if d == 2:
            residuals["inertia_defect"] = float(zero + abs(pos - neg))
        return PrVerdict(False, None, residuals, "theta-form")
    return PrVerdict(True, theta, residuals, None)


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
    failed = _certificate_defect(f, g, h, np.eye(s.m_fields), q, theta, residuals, tol)
    if failed:
        return PrVerdict(False, None, residuals, failed)
    return PrVerdict(True, theta, residuals, None)


def check_pr_general(s: GeneralQSys, tol: float = RESIDUAL_TOL) -> PrVerdict:
    """Decide physical realizability of a doubled-up system.

    Requires K = I, a Hermitian certificate Theta solving
    F Theta + Theta F^dagger + G J G^dagger = 0 with inertia (n, n), and the
    coupling identity G = -Theta H^dagger J.  When the eigenvalue-sum
    condition fails the certificate is non-unique and the verdict is
    indeterminate.  An annihilation-kind system raises ``DomainError``.
    """
    return _check_certificate(s, "general", tol)


def check_pr_annihilation(s: AnnihilationQSys, tol: float = RESIDUAL_TOL) -> PrVerdict:
    """Decide physical realizability of an annihilation-operator system.

    Same shape as the general check with J replaced by the identity and the
    certificate required positive definite.  When the eigenvalue-sum
    condition fails, small systems (n <= 2) fall back to a parameterized
    search of the affine certificate family; an undecided search reports
    indeterminate rather than false.  A general-kind system raises
    ``DomainError``.
    """
    return _check_certificate(s, "annihilation", tol)


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
    n = s.h
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
