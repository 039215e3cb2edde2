"""Plant and controller models, loop composition and noise synthesis.

The plant exposes noise inputs W, control inputs U and measured-field
outputs Y; the controller consumes Y plus its own noise W-tilde and returns
U.  This module assembles the closed loop, the square augmented forms on
which realizability certificates live, the realizable completion of a
static controller, and the Riccati-based synthesis of controller noise
channels that makes an arbitrary controller triple physically realizable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import ClassVar

import numpy as np

from .errors import (
    DimensionError,
    DomainError,
    NotAugmentableError,
    NotRealizableError,
    SingularityError,
)
from .linalg import (
    RESIDUAL_TOL,
    _check_layout,
    _coupling_defect,
    _hurwitz_spectrum,
    _lyapunov_defect,
    _noise_term,
    _psd_factor,
    _sign_cut,
    _square,
    _stack_max_abs,
    _stacked_block,
    as_matrix,
    dagger,
    delta_build,
    doubling_permutation,
    hermitian_basis,
    hermitian_part,
    is_doubled,
    max_abs,
    psd_split,
    real_lstsq,
    solve_care_hermitian,
)
from .systems import (
    AnnihilationQSys,
    GeneralQSys,
    PrVerdict,
    _doubling,
    _has_certificate_inertia,
    _kind_rules,
    _LayoutModel,
    _commutation_matrix,
    _solve_certificate,
    is_positive_definite,
    random_pr_system,
)
from .transfer import StateSpaceTF, hinf_norm


def _stack_cols(blocks: list[np.ndarray], d: int) -> np.ndarray:
    """Concatenate field blocks along columns half by half (doubled order when d = 2), over leading axes."""
    widths = [b.shape[-1] // d for b in blocks]
    return np.concatenate([b[..., i * w : (i + 1) * w] for i in range(d) for b, w in zip(blocks, widths)], axis=-1)


def _field_index(m_tot: int, lo: int, hi: int, d: int) -> np.ndarray:
    """Positions of fields lo..hi-1 of m_tot in each of the d halves."""
    return np.concatenate([half * m_tot + np.arange(lo, hi) for half in range(d)])


def _identity_pad(rows: int, cols: int) -> np.ndarray:
    """The [I, 0] block of shape (rows, cols); DimensionError when cols < rows."""
    if cols < rows:
        raise DimensionError(f"[I, 0] block needs cols >= rows, got shape {(rows, cols)}")
    out = np.zeros((rows, cols), dtype=complex)
    out[:, :rows] = np.eye(rows)
    return out


def _identity_pattern(kind: str, rows: int, cols: int) -> np.ndarray:
    """The feedthrough [I, 0] over (rows, cols) fields, doubled for the general kind."""
    pad = _identity_pad(rows, cols)
    return delta_build(pad, np.zeros_like(pad)) if kind == "general" else pad


@dataclass(frozen=True)
class CostOutput:
    """Performance output Z = C x + D u over plant state and control, stored read-only.

    Construction checks the shapes against ``_layout`` and sets the counts
    ``output_dim``, ``state_dim`` and ``input_dim``.
    """

    _layout: ClassVar[dict[str, tuple[str, str]]] = {
        "c": ("output_dim", "state_dim"),
        "d": ("output_dim", "input_dim"),
    }

    c: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        _check_layout(self, {}, 1)


@dataclass(frozen=True)
class PlantModel(_LayoutModel):
    """Plant with split inputs (noise W, control U) and measured output Y.

    There is structurally no feedthrough from the control field into Y; the
    noise feedthrough ``k`` is m_y x m_w (doubled for the general kind).
    Construction sets the counts ``n_modes``, ``m_w``, ``m_u`` and ``m_y``.
    """

    _layout: ClassVar[dict[str, tuple[str, str]]] = {
        "f": ("n_modes", "n_modes"),
        "g_w": ("n_modes", "m_w"),
        "g_u": ("n_modes", "m_u"),
        "h": ("m_y", "n_modes"),
        "k": ("m_y", "m_w"),
    }

    kind: str
    f: np.ndarray
    g_w: np.ndarray
    g_u: np.ndarray
    h: np.ndarray
    k: np.ndarray
    cost: CostOutput | None = None

    def __post_init__(self):
        super().__post_init__()
        if self.cost is not None:  # the cost reads the plant's state and control coordinates
            _check_layout(self.cost, {"state_dim": self.f.shape[0], "input_dim": self.g_u.shape[1]}, 1)

    def with_cost(self, cost: CostOutput) -> "PlantModel":
        return replace(self, cost=cost)

    @property
    def _pattern_residuals(self) -> dict[str, float]:
        """A completion's pattern residuals: the noise feedthrough's deviation from [I, 0]."""
        return {"feedthrough": max_abs(self.k - _identity_pattern(self.kind, self.m_y, self.m_w))}

    @cached_property
    def _completion(self) -> "PlantAugmentation":
        """:func:`augment_plant`'s answer, computed once: the plant's matrices are read-only."""
        return _square_completion(
            self.kind, self.f, [self.g_w, self.g_u], self.h, "plant", self._pattern_residuals
        )


@dataclass(frozen=True)
class ControllerModel(_LayoutModel):
    """Controller with noise input W-tilde, measurement input Y, output U.

    Construction sets the counts ``n_modes``, ``m_wt``, ``m_y`` and ``m_u``.
    """

    _layout: ClassVar[dict[str, tuple[str, str]]] = {
        "f_c": ("n_modes", "n_modes"),
        "g_cw": ("n_modes", "m_wt"),
        "g_cy": ("n_modes", "m_y"),
        "h_c": ("m_u", "n_modes"),
        "k_cw": ("m_u", "m_wt"),
        "k_cy": ("m_u", "m_y"),
    }

    kind: str
    f_c: np.ndarray
    g_cw: np.ndarray
    g_cy: np.ndarray
    h_c: np.ndarray
    k_cw: np.ndarray
    k_cy: np.ndarray


def _canonical_controller(kind: str, f_c, g_cw, g_cy, h_c) -> ControllerModel:
    """A controller with the identity-pattern feedthrough K_cw = [I, 0], K_cy = 0."""
    d = _doubling(kind)
    k_cw = _identity_pattern(kind, h_c.shape[0] // d, g_cw.shape[1] // d)
    k_cy = np.zeros((h_c.shape[0], g_cy.shape[1]))
    return ControllerModel(kind=kind, f_c=f_c, g_cw=g_cw, g_cy=g_cy, h_c=h_c, k_cw=k_cw, k_cy=k_cy)


def trivial_controller(m_y: int, m_u: int) -> ControllerModel:
    """The static controller dU = dW-tilde (annihilation kind, n_c = 0)."""
    return static_controller(np.zeros((m_u, m_y)), _identity_pad(m_u, m_u))


def static_controller(k_cy, k_cw) -> ControllerModel:
    """A purely static annihilation-kind controller from its feedthroughs."""
    k_cy = as_matrix(k_cy, "k_cy")
    k_cw = as_matrix(k_cw, "k_cw")
    if k_cy.shape[0] != k_cw.shape[0]:
        raise DimensionError("k_cy and k_cw must agree on the output count")
    m_u = k_cy.shape[0]
    return ControllerModel(
        kind="annihilation",
        f_c=np.zeros((0, 0)),
        g_cw=np.zeros((0, k_cw.shape[1])),
        g_cy=np.zeros((0, k_cy.shape[1])),
        h_c=np.zeros((m_u, 0)),
        k_cw=k_cw,
        k_cy=k_cy,
    )


@dataclass(frozen=True)
class PlantAugmentation:
    """Square realizable completion of a plant, with its certificate."""

    system: AnnihilationQSys | GeneralQSys
    theta: np.ndarray
    h_tilde: np.ndarray
    verdict: PrVerdict


@dataclass(frozen=True)
class _Completions:
    """Square completions of a stack of equal-shape systems, from :func:`_square_completions`.

    ``done`` lists the positions of the items that completed, in order; ``g``, ``h_aug``,
    ``theta`` and ``h_tilde`` stack their matrices and ``verdicts`` holds their verdicts.
    ``errors`` maps every other position to the error that ended it.
    """

    done: list[int]
    g: np.ndarray
    h_aug: np.ndarray
    theta: np.ndarray
    h_tilde: np.ndarray
    verdicts: list[PrVerdict]
    errors: dict[int, Exception]


def _square_completions(kind, f, g_blocks, h_given, label, pattern_residuals, errors=None) -> _Completions:
    """Complete a stack of equal-shape (F, G, H_given) to square realizable systems with K = I.

    G stacks the input blocks ``g_blocks`` and ``h_given`` holds the
    existing output rows, both in doubled order for the general kind.  Each
    certificate Theta solves F Theta + Theta F^dagger + G S G^dagger = 0
    with S = J (general) or I (annihilation) in its own solve (SciPy has no
    batched Schur form), and must have the kind's certificate inertia; the
    Lyapunov solver's spectral-gap precheck decides whether that equation is
    degenerate.  The missing output rows are -S G^dagger Theta^{-1}.  The
    given rows are checked with the realizability check's own coupling test
    |G + Theta H_aug^dagger S|, which needs no Theta^{-1} and so stays
    accurate when Theta is ill-conditioned; ``pattern_residuals`` holds the
    caller's feedthrough deviations, which are reported with that check.  The
    verdict adds the Lyapunov test to that coupling test; the inertia gate is
    its form test, and K = I by construction.  The inertia, Theta^{-1}, the
    coupling test and the Lyapunov test each run once over the stack, whose
    survivors are selected once before Theta^{-1} and once after the rows.
    An item ends at its first failure: the caller's, held in ``errors``,
    then the solve's (or the solver's DomainError), the inertia's, the rows'.
    """
    d = _doubling(kind)
    g = _stack_cols(g_blocks, d)
    n, m_tot = f.shape[-1] // d, g.shape[-1] // d
    sig = _kind_rules(kind).signature(m_tot)
    q = _noise_term(g, sig)
    errors, theta = dict(errors or {}), np.zeros(f.shape, dtype=complex)  # a failed item keeps zeros
    for j in range(len(f)):
        try:
            if j not in errors:
                theta[j] = _solve_certificate(f[j], q[j], d)
        except SingularityError:
            errors[j] = NotAugmentableError("certificate equation is degenerate (eigenvalue-sum condition fails)")
        except DomainError as exc:
            errors[j] = exc
    lam = np.linalg.eigvalsh(theta) if n else np.zeros((len(f), 0))
    pos, neg = (np.count_nonzero(mask, axis=-1) for mask in _sign_cut(lam))
    for j in np.flatnonzero(~_has_certificate_inertia((pos, neg, d * n - pos - neg), n, d)):
        if d == 2:
            reason = "certificate lacks the required inertia"
            evidence = {"inertia_positive": float(pos[j]), "inertia_negative": float(neg[j])}
        else:
            reason = f"no positive definite certificate for the augmented {label}"
            evidence = {"theta_min_eig": float(np.min(lam[j]))}
        errors.setdefault(int(j), NotAugmentableError(reason, residuals=evidence))
    done = [j for j in range(len(f)) if j not in errors]
    g, q, f, h_given, theta = g[done], q[done], f[done], h_given[done], theta[done]
    h_full = -sig @ dagger(g) @ np.linalg.inv(theta)
    rows = h_given.shape[-2] // d
    h_aug = h_full.copy()
    h_aug[:, _field_index(m_tot, 0, rows, d)] = h_given
    found: dict = {}
    ok = ~_coupling_defect(g, theta, h_aug, sig, found, RESIDUAL_TOL)
    if any(dev > RESIDUAL_TOL for dev in pattern_residuals.values()):
        ok[:] = False
    mismatched = f"{label} output rows do not match the coupling identity"
    for j, good, mismatch in zip(done, ok, found["coupling"]):
        if not good:
            evidence = {"row_mismatch": float(mismatch), **pattern_residuals}
            errors.setdefault(j, NotAugmentableError(mismatched, residuals=evidence))
    done = [j for j, good in zip(done, ok) if good]
    g, f, q, theta, h_aug, h_full, coupling = (x[ok] for x in (g, f, q, theta, h_aug, h_full, found["coupling"]))
    failed = _lyapunov_defect(f, theta, q, found, RESIDUAL_TOL)
    verdicts = []
    for i, fails in enumerate(failed):
        residuals = {"feedthrough": 0.0, "lyapunov": float(found["lyapunov"][i])}
        if not fails:
            residuals["coupling"] = float(coupling[i])
        verdicts.append(PrVerdict(not fails, None if fails else theta[i], residuals, "lyapunov" if fails else None))
    h_tilde = h_full[:, _field_index(m_tot, rows, m_tot, d)]
    theta.flags.writeable = h_tilde.flags.writeable = False  # a plant caches its completion
    return _Completions(done, g, h_aug, theta, h_tilde, verdicts, errors)


def _one_completion(kind: str, f: np.ndarray, stack: _Completions) -> PlantAugmentation:
    """The completion of a stack of one system, with its square system, or its error raised."""
    if stack.errors:
        raise stack.errors[0]
    d, m_tot = _doubling(kind), stack.g.shape[-1] // _doubling(kind)
    system = _kind_rules(kind).system(
        f=f, g=stack.g[0], h=stack.h_aug[0], k=np.eye(d * m_tot), n_modes=f.shape[0] // d, m_fields=m_tot
    )
    return PlantAugmentation(system, stack.theta[0], stack.h_tilde[0], stack.verdicts[0])


def _square_completion(kind, f, g_blocks, h_given, label, pattern_residuals) -> PlantAugmentation:
    """Complete one (F, G, H_given) to a square realizable system with K = I: the one-system case
    of :func:`_square_completions`, whose error it raises."""
    stack = _square_completions(kind, f[None], [g[None] for g in g_blocks], h_given[None], label, pattern_residuals)
    return _one_completion(kind, f, stack)


def augment_plant(p: PlantModel) -> PlantAugmentation:
    """Complete the plant with unused outputs into a square realizable system.

    Solves the certificate equation over all inputs (W, U), checks that the
    given output rows and feedthrough match the coupling identity, and
    returns the augmented system together with the extra output rows.  The
    plant caches the completion, so every call on ``p`` returns one object.

    Raises
    ------
    NotAugmentableError
        When no valid certificate exists or the given rows mismatch; carries
        the offending residuals.
    """
    return p._completion


@dataclass(frozen=True)
class ClosedLoop:
    """Closed-loop interconnection from all noises (W, W-tilde) to the cost."""

    system: StateSpaceTF
    state_matrix: np.ndarray
    channel_map: dict[str, tuple[int, int]]
    internally_stable: bool


def _check_loop_dims(p: PlantModel, c: ControllerModel) -> None:
    if p.kind != c.kind:
        raise DimensionError(f"kind mismatch: plant {p.kind}, controller {c.kind}")
    if p.m_y != c.m_y or p.m_u != c.m_u:
        raise DimensionError(
            f"channel mismatch: plant (m_y={p.m_y}, m_u={p.m_u}), "
            f"controller (m_y={c.m_y}, m_u={c.m_u})"
        )


def _static_fold(p: PlantModel, k_cy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The plant's state and noise matrices under U = K_cy Y: F + G_u K_cy H, G_w + G_u K_cy K."""
    return p.f + p.g_u @ k_cy @ p.h, p.g_w + p.g_u @ k_cy @ p.k


def _loop_matrices(p: PlantModel, f_c, g_cw, g_cy, h_c, k_cw, k_cy):
    """State, noise, cost and cost-feedthrough matrices (A, B, C_z, D_z) of the loop around ``p``.

    States stack as (plant, controller) and noises as (W, W-tilde).  Any
    controller block may carry leading stack axes, which every loop matrix
    built from it then carries (A from F_c, B from G_cw, C_z from H_c, D_z
    only from K_cw or K_cy); its blocks that involve no stacked block are
    repeated along them.  Absent a cost block, C_z and D_z have no rows.
    """
    f_fold, g_fold = _static_fold(p, k_cy)
    a = _stacked_block([[f_fold, p.g_u @ h_c], [g_cy @ p.h, f_c]])
    b = _stacked_block([[g_fold, p.g_u @ k_cw], [g_cy @ p.k, g_cw]])
    if p.cost is None:
        return a, b, a[..., :0, :], b[..., :0, :]
    cz = _stacked_block([[p.cost.c + p.cost.d @ k_cy @ p.h, p.cost.d @ h_c]])
    dz = _stacked_block([[p.cost.d @ k_cy @ p.k, p.cost.d @ k_cw]])
    return a, b, cz, dz


def close_loop(p: PlantModel, c: ControllerModel) -> ClosedLoop:
    """Interconnect plant and controller.

    States stack as (plant, controller) and noises as (W, W-tilde); the
    plant has no control feedthrough into Y, so the loop is always well
    posed.  In the general kind the result is permuted to canonical
    doubled-up ordering.  Cost rows come from the plant's cost block through
    the controller output equation; absent a cost block the output is empty.
    """
    _check_loop_dims(p, c)
    a, b, cz, dz = _loop_matrices(p, c.f_c, c.g_cw, c.g_cy, c.h_c, c.k_cw, c.k_cy)

    if p.kind == "general":
        ps = doubling_permutation([p.n_modes, c.n_modes])
        pi = doubling_permutation([p.m_w, c.m_wt])
        a = a[np.ix_(ps, ps)]
        b = b[np.ix_(ps, pi)]
        cz = cz[:, ps]
        dz = dz[:, pi]
        channel_map = {
            "w": (0, p.m_w),
            "w_tilde": (p.m_w, p.m_w + c.m_wt),
            "w_conj": (p.m_w + c.m_wt, 2 * p.m_w + c.m_wt),
            "w_tilde_conj": (2 * p.m_w + c.m_wt, 2 * (p.m_w + c.m_wt)),
        }
    else:
        channel_map = {"w": (0, p.m_w), "w_tilde": (p.m_w, p.m_w + c.m_wt)}

    system = StateSpaceTF(a=a, b=b, c=cz, d=dz)
    return ClosedLoop(system, a, channel_map, _hurwitz_spectrum(system._schur[0], system.a))


def gamma_cl(p: PlantModel, c: ControllerModel) -> StateSpaceTF:
    """Closed-loop transfer function from all noises to the cost output."""
    if p.cost is None:
        raise DomainError("plant has no cost output block")
    return close_loop(p, c).system


@dataclass(frozen=True)
class SynthesisResult:
    """Outcome of controller noise synthesis."""

    controller: ControllerModel
    theta: np.ndarray
    extra_channels: int
    zero_noise: bool
    admissibility_norm: float | None = None


def synth_noise_annihilation(f_c, g_cy, h_c, rel_tol: float = 1e-6) -> SynthesisResult:
    """Make an annihilation-kind controller triple physically realizable.

    Admissibility requires F_c Hurwitz and the H-infinity norm of
    H_c (sI - F_c)^{-1} at most 1.  The bounded-real Riccati
    F_c Theta + Theta F_c^dagger + Theta H_c^dagger H_c Theta
    + G_cy G_cy^dagger = 0 is tried first; a positive definite solution
    means no extra noise.  Otherwise the inflated equation (constant term
    + I) supplies a positive certificate and the residual is factored into
    the fewest extra noise channels.

    Raises
    ------
    NotRealizableError
        When either admissibility prong fails.
    """
    f_c = as_matrix(f_c, "f_c")
    g_cy = as_matrix(g_cy, "g_cy")
    h_c = as_matrix(h_c, "h_c")
    n_c = f_c.shape[0]
    if f_c.shape != (n_c, n_c) or g_cy.shape[0] != n_c or h_c.shape[1] != n_c:
        raise DimensionError("controller triple shapes are inconsistent")
    m_u = h_c.shape[0]

    g_adm = StateSpaceTF(f_c, np.eye(n_c), h_c, np.zeros((m_u, n_c)))
    if not _hurwitz_spectrum(g_adm._schur[0], f_c):
        raise NotRealizableError("admissibility failed: state matrix is not Hurwitz")
    nu = hinf_norm(g_adm, rel_tol).value
    if nu > 1.0 + 2.0 * rel_tol:
        shown = f"{round(nu):.1f}" if abs(nu - round(nu)) < 1e-5 else f"{nu:.6g}"
        raise NotRealizableError(f"H∞ admissibility failed: {shown} > 1")

    r_mat = hermitian_part(dagger(h_c) @ h_c)
    q_mat = _noise_term(g_cy)
    care, g_cwb = solve_care_hermitian(f_c, r_mat, q_mat), np.zeros((n_c, 0), dtype=complex)
    if not (care.exists and is_positive_definite(care.x)):
        care = solve_care_hermitian(f_c, r_mat, q_mat + np.eye(n_c))
        if not care.exists or not is_positive_definite(care.x):
            raise NotRealizableError("no positive definite certificate found for an admissible triple")
        x = care.x
        g_cwb = _psd_factor(-hermitian_part(f_c @ x + x @ dagger(f_c) + x @ r_mat @ x + q_mat))
        if g_cwb is None:
            raise NotRealizableError("certificate slack is not positive semidefinite")

    theta, r = care.x, g_cwb.shape[1]
    g_cw = np.hstack([-theta @ dagger(h_c), g_cwb])
    controller = _canonical_controller("annihilation", f_c, g_cw, g_cy, h_c)
    return SynthesisResult(controller, theta, extra_channels=r, zero_noise=(r == 0), admissibility_norm=nu)


def synth_noise_general(f_c, g_cy, h_c, theta) -> SynthesisResult:
    """Make a general-kind controller triple physically realizable.

    Given a commutation matrix Theta (Hermitian, invertible, inertia
    (n_c, n_c), antisymmetric under the conjugation swap), the certificate
    defect M is split by sign into interlocked extra noise factors, and the
    structured coupling columns -Theta H_c1^dagger / +Theta H_c2^dagger
    complete the controller noise matrix.  Zero extra noise is reported when
    the sign split of M needs no extra channel, as in the annihilation-kind
    synthesis: Theta then satisfies the realizability Riccati.
    """
    f_c = as_matrix(f_c, "f_c")
    g_cy = as_matrix(g_cy, "g_cy")
    h_c = as_matrix(h_c, "h_c")
    if f_c.shape[0] % 2 or g_cy.shape[1] % 2 or h_c.shape[0] % 2:
        raise DimensionError("general-kind triple needs even dimensions")
    if not (is_doubled(f_c) and is_doubled(g_cy) and is_doubled(h_c)):
        raise DomainError("general-kind triple must be doubled-up")
    n_c = f_c.shape[0] // 2
    m_u, m_y = h_c.shape[0] // 2, g_cy.shape[1] // 2
    if g_cy.shape[0] != 2 * n_c or h_c.shape[1] != 2 * n_c:
        raise DimensionError("controller triple shapes are inconsistent")

    theta = _commutation_matrix(theta, n_c, 2)

    h_c1, h_c2 = h_c[:m_u], h_c[m_u:]
    g_cy1, g_cy2 = g_cy[:, :m_y], g_cy[:, m_y:]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed defect is refused below
        m_defect = hermitian_part(
            f_c @ theta + theta @ dagger(f_c) - theta @ (dagger(h_c2) @ h_c2 - dagger(h_c1) @ h_c1) @ theta
            + g_cy1 @ dagger(g_cy1) - g_cy2 @ dagger(g_cy2)
        )
    if not np.isfinite(m_defect).all():
        raise DomainError("certificate defect M is not finite: the controller triple or Theta is too large")
    split = psd_split(m_defect)
    g_cw1b = split.negative_factor
    r_pos = split.positive_factor.shape[1]
    r = max(g_cw1b.shape[1], r_pos)
    if g_cw1b.shape[1] < r:
        g_cw1b = np.hstack([g_cw1b, np.zeros((2 * n_c, r - g_cw1b.shape[1]), dtype=complex)])
    g_cw2b = np.vstack([g_cw1b[n_c:].conj(), g_cw1b[:n_c].conj()])

    g_cw1a = -theta @ dagger(h_c1)
    g_cw2a = theta @ dagger(h_c2)
    g_cw = np.hstack([g_cw1a, g_cw1b, g_cw2a, g_cw2b])
    controller = _canonical_controller("general", f_c, g_cw, g_cy, h_c)
    return SynthesisResult(
        controller=controller, theta=theta, extra_channels=r, zero_noise=(r == 0)
    )


def _controller_completions(kind, f_c, g_cw, g_cy, h_c, k_cw, k_cy) -> _Completions:
    """:func:`augment_controller` over a stack of equal-shape controller blocks (F_c, G_cw, G_cy,
    H_c, K_cw, K_cy): an item whose feedthrough is not the identity pattern ends as that error."""
    d = _doubling(kind)
    pattern = _identity_pattern(kind, k_cw.shape[-2] // d, k_cw.shape[-1] // d)
    feed_dev = np.maximum(_stack_max_abs(k_cw - pattern), _stack_max_abs(k_cy))
    errors = {
        j: NotAugmentableError(
            "controller feedthrough must be the identity pattern ([I, 0] on "
            "its own noise, zero on the measurement)",
            residuals={"feedthrough": float(dev)},
        )
        for j, dev in enumerate(feed_dev)
        if dev > RESIDUAL_TOL
    }
    return _square_completions(kind, f_c, [g_cw, g_cy], h_c, "controller", {}, errors)


def augment_controller(c: ControllerModel) -> PlantAugmentation:
    """Square realizable completion of a controller over inputs (W-tilde, Y).

    Requires the feedthrough to be the canonical identity pattern
    (K_cw = [I, 0], K_cy = 0); this is exactly the convention under which
    the augmented feedthrough can equal the identity.
    """
    blocks = (c.f_c, c.g_cw, c.g_cy, c.h_c, c.k_cw, c.k_cy)
    return _one_completion(c.kind, c.f_c, _controller_completions(c.kind, *(blk[None] for blk in blocks)))


@dataclass(frozen=True)
class AugmentedClosedLoop:
    """Square closed loop over free output fields with its certificate.

    Outputs stack the controller's replacement of the measured field, the
    plant's unused fields, and the controller's unused noise fields, so the
    first m_w + m_u outputs align with the trivial-controller (augmented
    plant) ordering.  The feedthrough is the identity both completions are
    certified with, and diag(theta_plant, theta_controller) certifies
    realizability; the trivial controller's loop is the plant's completion.
    """

    system: StateSpaceTF
    theta: np.ndarray
    channel_map: dict[str, tuple[int, int]]
    internally_stable: bool


def _check_augmented_loop(p: PlantModel, c: ControllerModel) -> None:
    if p.kind != "annihilation" or c.kind != "annihilation":
        raise DomainError("augmented loop composition is annihilation-kind only")
    _check_loop_dims(p, c)


def _augmented_loop(p: PlantModel, ap: PlantAugmentation, f_c, g_cw, g_cy, h_c, k_cw, k_cy, theta_c, h_tilde_c):
    """State, input, output and feedthrough matrices and certificate (A, B, C, D, Theta) of the
    augmented loop around ``p``, whose completion is ``ap``, from controller blocks and their
    completion's Theta_c and H_tilde.  As in :func:`_loop_matrices`, the controller's matrices
    may carry a leading stack axis, which every result then carries."""
    a, b, _, _ = _loop_matrices(p, f_c, g_cw, g_cy, h_c, k_cw, k_cy)
    n, n_c = p.n_modes, f_c.shape[-1]
    m_w, m_u, m_y, m_wt = p.m_w, p.m_u, p.m_y, k_cw.shape[-1]
    r = m_wt - m_u
    # the completion ap is certified with K = I, so the measured rows carry its [I, 0], not p.k
    eye = np.eye(m_w + m_u, dtype=complex)
    k_y, (k_t, k_bar) = eye[:m_y, :m_w], np.split(eye[m_y:], [m_w], axis=1)
    # h_tilde_c stacks the controller's rows for its r spare noise fields, then for its Y field
    c_rows = _stacked_block(
        [[p.h, h_tilde_c[..., r:, :]], [ap.h_tilde, k_bar @ h_c], [np.zeros((r, n)), h_tilde_c[..., :r, :]]]
    )
    d_rows = _stacked_block(
        [[k_y, np.zeros((m_y, m_wt))], [k_t, k_bar @ k_cw], [np.zeros((r, m_w)), np.eye(m_wt)[m_u:]]]
    )
    theta = _stacked_block([[ap.theta, np.zeros((n, n_c))], [np.zeros((n_c, n)), theta_c]])
    return a, b, c_rows, d_rows, theta


def close_augmented_loop(p: PlantModel, c: ControllerModel) -> AugmentedClosedLoop:
    """Interconnect the augmentations of plant and controller.

    Both subsystems are first completed to square realizable systems; the
    loop then maps the free input fields (W, W-tilde) to the free output
    fields.  The composite inherits realizability with certificate
    diag(theta_plant, theta_controller) and identity feedthrough, which is
    what makes every row-selected closed-loop transfer function all-pass.
    The augmentation needs K_cy = 0, so the state and input matrices are
    those of :func:`close_loop`; the measured rows' feedthrough is the
    completion's [I, 0], not the plant's K (within tolerance of it).
    """
    _check_augmented_loop(p, c)
    ap = augment_plant(p)
    ac = augment_controller(c)
    a, b, c_rows, d_rows, theta = _augmented_loop(
        p, ap, c.f_c, c.g_cw, c.g_cy, c.h_c, c.k_cw, c.k_cy, ac.theta, ac.h_tilde
    )
    m_w, m_u, m_y = p.m_w, p.m_u, p.m_y
    channel_map = {
        "replaced_output": (0, m_y),
        "plant_unused": (m_y, m_w + m_u),
        "controller_unused": (m_w + m_u, m_w + m_u + c.m_wt - m_u),
    }
    system = StateSpaceTF(a=a, b=b, c=c_rows, d=d_rows)
    return AugmentedClosedLoop(system, theta, channel_map, _hurwitz_spectrum(system._schur[0], system.a))


def complete_static_pr(p: PlantModel, k_cy) -> tuple[np.ndarray, np.ndarray] | None:
    """Find K_cw making a static controller's loop keep the plant realizable.

    Solves jointly for a Hermitian certificate Theta_a and a PSD Gram matrix
    S = K_cw K_cw^dagger such that the plant with U = K_cy Y folded in
    satisfies the coupling identity on the measured channels and the
    certificate equation over all noises.  Returns (k_cw, theta_a) or None
    when the affine system has no admissible solution; a folded noise
    matrix whose square overflows is a DomainError.  K_cy = 0 reads
    Theta_a off ``augment_plant(p)``.
    """
    if p.kind != "annihilation":
        raise DomainError("static completion is annihilation-kind only")
    k_cy = as_matrix(k_cy, "k_cy")
    if k_cy.shape != (p.m_u, p.m_y):
        raise DimensionError(f"k_cy must be {(p.m_u, p.m_y)}, got {k_cy.shape}")
    n, m_u = p.n_modes, p.m_u

    if max_abs(k_cy) == 0.0:
        return np.eye(m_u, dtype=complex), augment_plant(p).theta

    f_fold, g_fold = _static_fold(p, k_cy)
    target_coup = -(p.g_w[:, : p.m_y] + p.g_u @ k_cy)
    scale = 1.0 + _square(max_abs(g_fold), "folded noise matrix") + max_abs(target_coup)

    # unknowns: the Theta_a basis, then the S basis (which has no coupling image)
    basis_t = hermitian_basis(n)
    basis_s = hermitian_basis(m_u)
    sol, residual, _ = real_lstsq(
        [
            np.concatenate(
                [f_fold @ basis_t + basis_t @ dagger(f_fold), p.g_u @ basis_s @ dagger(p.g_u)]
            ),
            np.concatenate(
                [basis_t @ dagger(p.h), np.zeros((len(basis_s), n, p.m_y), dtype=complex)]
            ),
        ],
        [-(g_fold @ dagger(g_fold)), target_coup],
    )
    if residual > RESIDUAL_TOL * scale:
        return None
    theta = hermitian_part(np.tensordot(sol[: len(basis_t)], basis_t, 1))
    s_gram = hermitian_part(np.tensordot(sol[len(basis_t) :], basis_s, 1))
    k_cw = _psd_factor(s_gram) if is_positive_definite(theta) else None
    if k_cw is None:
        return None
    if k_cw.shape[1] < m_u:
        # pad ignored noise channels so the controller keeps m_wt >= m_u
        k_cw = np.hstack(
            [k_cw, np.zeros((m_u, m_u - k_cw.shape[1]), dtype=complex)]
        )
    return k_cw, theta


def _static_screen(p: PlantModel, k_stack: np.ndarray) -> np.ndarray:
    """Lower bounds on ``complete_static_pr``'s residual for stacked gains K_cy (N, m_u, m_y).

    Each bound is relative to that solve's scale, so a gain whose bound
    exceeds RESIDUAL_TOL cannot be accepted; K_cy = 0 (no solve) gets 0.
    The coupling rows Theta_a H^dagger = -(G_w[:, :m_y] + G_u K_cy) involve
    neither S nor the folded F, so their span over Hermitian Theta_a is fixed
    per plant.  A target's part off that span, in 2-norm over the square root
    of its real row count, is at most the largest residual entry of any fit.
    """
    n, m_y, count = p.n_modes, p.m_y, len(k_stack)
    gk = p.g_u @ k_stack.transpose(1, 0, 2).reshape(p.m_u, count * m_y)  # G_u K_cy, the gains side by side
    targets = -(p.g_w[:, :m_y] + gk.reshape(n, count, m_y).transpose(1, 0, 2))
    g_fold = p.g_w + (gk.reshape(n * count, m_y) @ p.k).reshape(n, count, p.m_w).transpose(1, 0, 2)
    scale = 1.0 + np.abs(g_fold).max(axis=(1, 2), initial=0.0) ** 2
    scale += np.abs(targets).max(axis=(1, 2), initial=0.0)
    images = (hermitian_basis(n) @ dagger(p.h)).reshape(n * n, n * p.m_y)
    u, sigma, _ = np.linalg.svd(np.concatenate([images.real, images.imag], axis=1).T)
    q = u[:, : np.count_nonzero(sigma > 0.0)]  # an extra direction only weakens the bound
    vec = targets.reshape(count, n * m_y)
    b = np.concatenate([vec.real, vec.imag], axis=1).T
    bound = np.linalg.norm(b - q @ (q.T @ b), axis=0) / np.sqrt(max(len(b), 1))
    return np.where(np.abs(k_stack).max(axis=(1, 2), initial=0.0) == 0.0, 0.0, bound / scale)


def random_pr_plant(
    n: int, m_w: int, m_u: int, m_y: int, seed: int, kind: str = "annihilation"
) -> PlantModel:
    """Draw a seeded random physically realizable plant.

    Splits a random realizable square system's fields into noise and control
    groups and keeps the first m_y output rows as the measured field.  Needs
    m_y <= m_w so the measured feedthrough can be [I, 0].  Annihilation-kind
    draws are Hurwitz so downstream certificates and costs exist.
    """
    if not (1 <= m_y <= m_w):
        raise DimensionError(f"need 1 <= m_y <= m_w, got m_y={m_y}, m_w={m_w}")
    if m_u < 1:
        raise DimensionError("need m_u >= 1")
    sys = random_pr_system(
        n, m_w + m_u, seed, kind=kind, hurwitz_required=(kind == "annihilation")
    )
    k = _identity_pattern(kind, m_y, m_w)
    d, m_tot = _doubling(kind), m_w + m_u
    g_w = sys.g[:, _field_index(m_tot, 0, m_w, d)]
    g_u = sys.g[:, _field_index(m_tot, m_w, m_tot, d)]
    h = sys.h[_field_index(m_tot, 0, m_y, d)]
    return PlantModel(kind=kind, f=sys.f, g_w=g_w, g_u=g_u, h=h, k=k)
