"""Plant and controller models, loop composition and noise synthesis.

The plant exposes noise inputs W, control inputs U and measured-field
outputs Y; the controller consumes Y plus its own noise W-tilde and returns
U.  This module assembles the closed loop, the square augmented forms on
which realizability certificates live, the modified (strictly proper)
plant/controller pair, and the Riccati-based synthesis of controller noise
channels that makes an arbitrary controller triple physically realizable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .errors import (
    DimensionError,
    DomainError,
    NotAugmentableError,
    NotRealizableError,
)
from .linalg import (
    RESIDUAL_TOL,
    STRUCTURE_TOL,
    as_matrix,
    conj_swap,
    dagger,
    delta_build,
    doubling_permutation,
    hermitian_basis,
    hermitian_part,
    is_doubled,
    max_abs,
    psd_split,
    real_columns,
    solve_care_hermitian,
    solve_lyapunov_hermitian,
)
from .systems import (
    AnnihilationQSys,
    GeneralQSys,
    PrVerdict,
    _coupling_residual,
    _doubling,
    _inertia,
    _kind_rules,
    _LayoutModel,
    eig_sum_condition,
    is_hurwitz,
    is_positive_definite,
    random_pr_system,
)
from .transfer import StateSpaceTF, hinf_norm


def _stack_cols(blocks: list[np.ndarray], d: int) -> np.ndarray:
    """Concatenate field blocks along columns half by half (doubled order when d = 2)."""
    widths = [b.shape[1] // d for b in blocks]
    return np.hstack([b[:, i * w : (i + 1) * w] for i in range(d) for b, w in zip(blocks, widths)])


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
    """Performance output Z = C x + D u over plant state and control."""

    c: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        c = as_matrix(self.c, "cost c")
        d = as_matrix(self.d, "cost d")
        if c.shape[0] != d.shape[0]:
            raise DimensionError(
                f"cost blocks disagree on output count: c {c.shape}, d {d.shape}"
            )
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)


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
        cost = self.cost
        if cost is not None and (
            cost.c.shape[1] != self.f.shape[0] or cost.d.shape[1] != self.g_u.shape[1]
        ):
            raise DimensionError(
                f"cost blocks do not match the plant: c {cost.c.shape}, d {cost.d.shape}"
            )

    def with_cost(self, cost: CostOutput) -> "PlantModel":
        return replace(self, cost=cost)


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


def _square_completion(kind, f, g_blocks, h_given, label, pattern_residuals) -> PlantAugmentation:
    """Complete (F, G, H_given) to a square realizable system with K = I.

    G stacks the input blocks ``g_blocks`` and ``h_given`` holds the
    existing output rows, both in doubled order for the general kind.  The
    certificate Theta solves F Theta + Theta F^dagger + G S G^dagger = 0
    with S = J (general) or I (annihilation) and must have inertia (n, n)
    or be positive definite.  The missing output rows are
    -S G^dagger Theta^{-1}.  The given rows are checked with the
    realizability check's own coupling residual |G + Theta H_aug^dagger S|,
    which needs no Theta^{-1} and so stays accurate when Theta is
    ill-conditioned; ``pattern_residuals`` holds the caller's feedthrough
    deviations, which are reported with that check.
    """
    d = _doubling(kind)
    rules = _kind_rules(kind)
    g = _stack_cols(g_blocks, d)
    n, m_tot = f.shape[0] // d, g.shape[1] // d
    sig = rules.signature(m_tot)
    if not eig_sum_condition(f):
        raise NotAugmentableError(
            "certificate equation is degenerate (eigenvalue-sum condition fails)"
        )
    theta = solve_lyapunov_hermitian(f, hermitian_part(g @ sig @ dagger(g)))
    pos, neg, _ = _inertia(theta)
    if d == 2 and (pos != n or neg != n):
        raise NotAugmentableError(
            "certificate lacks the required inertia",
            residuals={"inertia_positive": float(pos), "inertia_negative": float(neg)},
        )
    if d == 1 and pos != n:
        raise NotAugmentableError(
            f"no positive definite certificate for the augmented {label}",
            residuals={"theta_min_eig": float(np.min(np.linalg.eigvalsh(theta)))},
        )
    h_full = -sig @ dagger(g) @ np.linalg.inv(theta)
    given = _field_index(m_tot, 0, h_given.shape[0] // d, d)
    h_aug = h_full.copy()
    h_aug[given] = h_given
    row_dev = _coupling_residual(g, theta, h_aug, sig)
    scale = 1.0 + max_abs(g) + max_abs(theta) * max_abs(h_aug)
    if row_dev > RESIDUAL_TOL * scale or any(
        dev > RESIDUAL_TOL for dev in pattern_residuals.values()
    ):
        raise NotAugmentableError(
            f"{label} output rows do not match the coupling identity",
            residuals={"row_mismatch": row_dev, **pattern_residuals},
        )
    system = rules.system(f=f, g=g, h=h_aug, k=np.eye(d * m_tot), n_modes=n, m_fields=m_tot)
    return PlantAugmentation(
        system=system,
        theta=theta,
        h_tilde=np.delete(h_full, given, axis=0),
        verdict=rules.check(system),
    )


def augment_plant(p: PlantModel) -> PlantAugmentation:
    """Complete the plant with unused outputs into a square realizable system.

    Solves the certificate equation over all inputs (W, U), checks that the
    given output rows and feedthrough match the coupling identity, and
    returns the augmented system together with the extra output rows.

    Raises
    ------
    NotAugmentableError
        When no valid certificate exists or the given rows mismatch; carries
        the offending residuals.
    """
    k_dev = max_abs(p.k - _identity_pattern(p.kind, p.m_y, p.m_w))
    return _square_completion(
        p.kind, p.f, [p.g_w, p.g_u], p.h, "plant", {"feedthrough": k_dev}
    )


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


def close_loop(p: PlantModel, c: ControllerModel) -> ClosedLoop:
    """Interconnect plant and controller.

    States stack as (plant, controller) and noises as (W, W-tilde); the
    plant has no control feedthrough into Y, so the loop is always well
    posed.  In the general kind the result is permuted to canonical
    doubled-up ordering.  Cost rows come from the plant's cost block through
    the controller output equation; absent a cost block the output is empty.
    """
    _check_loop_dims(p, c)
    a = np.block(
        [
            [p.f + p.g_u @ c.k_cy @ p.h, p.g_u @ c.h_c],
            [c.g_cy @ p.h, c.f_c],
        ]
    )
    b = np.block(
        [
            [p.g_w + p.g_u @ c.k_cy @ p.k, p.g_u @ c.k_cw],
            [c.g_cy @ p.k, c.g_cw],
        ]
    )
    n_states = a.shape[0]
    if p.cost is not None:
        cz = np.hstack([p.cost.c + p.cost.d @ c.k_cy @ p.h, p.cost.d @ c.h_c])
        dz = np.hstack([p.cost.d @ c.k_cy @ p.k, p.cost.d @ c.k_cw])
    else:
        cz = np.zeros((0, n_states), dtype=complex)
        dz = np.zeros((0, b.shape[1]), dtype=complex)

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

    return ClosedLoop(
        system=StateSpaceTF(a=a, b=b, c=cz, d=dz),
        state_matrix=a,
        channel_map=channel_map,
        internally_stable=is_hurwitz(a),
    )


def gamma_cl(p: PlantModel, c: ControllerModel) -> StateSpaceTF:
    """Closed-loop transfer function from all noises to the cost output."""
    if p.cost is None:
        raise DomainError("plant has no cost output block")
    return close_loop(p, c).system


def modified_forms(p: PlantModel, c: ControllerModel) -> tuple[PlantModel, ControllerModel]:
    """Fold the controller feedthroughs into the plant.

    The returned plant absorbs K_cy through its state/noise matrices and
    takes the controller noise W-tilde as additional noise columns; the
    returned controller is strictly proper (zero feedthroughs).  Once the
    shared W-tilde channels of the pair are identified with each other, the
    loop's state and noise matrices are unchanged.  The plant keeps its cost
    block, so the cost terms that pass through the controller feedthroughs
    are dropped: D K_cy on the state and on W, and D K_cw on W-tilde.  The
    cost transfer is unchanged only when D K_cy = 0 and D K_cw = 0.
    """
    _check_loop_dims(p, c)
    if c.m_wt < c.m_u:
        raise DimensionError(
            f"need at least as many controller noises as controls "
            f"(m_wt={c.m_wt} < m_u={c.m_u})"
        )
    f_mod = p.f + p.g_u @ c.k_cy @ p.h
    folded = p.g_w + p.g_u @ c.k_cy @ p.k
    extra = p.g_u @ c.k_cw
    d = _doubling(p.kind)
    g_w_mod = _stack_cols([folded, extra], d)
    k_mod = _stack_cols([p.k, np.zeros((p.k.shape[0], extra.shape[1]), dtype=complex)], d)
    plant_mod = PlantModel(
        kind=p.kind, f=f_mod, g_w=g_w_mod, g_u=p.g_u, h=p.h, k=k_mod, cost=p.cost
    )
    ctrl_mod = ControllerModel(
        kind=c.kind,
        f_c=c.f_c,
        g_cw=c.g_cw,
        g_cy=c.g_cy,
        h_c=c.h_c,
        k_cw=np.zeros_like(c.k_cw),
        k_cy=np.zeros_like(c.k_cy),
    )
    return plant_mod, ctrl_mod


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
    m_u, m_y = h_c.shape[0], g_cy.shape[1]

    if n_c == 0:
        return SynthesisResult(
            controller=trivial_controller(m_y, m_u),
            theta=np.zeros((0, 0), dtype=complex),
            extra_channels=0,
            zero_noise=True,
            admissibility_norm=0.0,
        )

    if not is_hurwitz(f_c):
        raise NotRealizableError("admissibility failed: state matrix is not Hurwitz")
    nu = hinf_norm(
        StateSpaceTF(f_c, np.eye(n_c), h_c, np.zeros((m_u, n_c))), rel_tol
    ).value
    if nu > 1.0 + 2.0 * rel_tol:
        shown = f"{round(nu):.1f}" if abs(nu - round(nu)) < 1e-5 else f"{nu:.6g}"
        raise NotRealizableError(f"H∞ admissibility failed: {shown} > 1")

    r_mat = hermitian_part(dagger(h_c) @ h_c)
    q_mat = hermitian_part(g_cy @ dagger(g_cy))
    theta = None
    care = solve_care_hermitian(f_c, r_mat, q_mat)
    if care.exists and is_positive_definite(care.x):
        theta = care.x
        g_cwb = np.zeros((n_c, 0), dtype=complex)
    else:
        care = solve_care_hermitian(f_c, r_mat, q_mat + np.eye(n_c))
        if not care.exists or not is_positive_definite(care.x):
            raise NotRealizableError(
                "no positive definite certificate found for an admissible triple"
            )
        theta = care.x
        slack = -hermitian_part(
            f_c @ theta + theta @ dagger(f_c) + theta @ r_mat @ theta + q_mat
        )
        split = psd_split(slack)
        if max_abs(split.negative) > RESIDUAL_TOL * (1.0 + max_abs(slack)):
            raise NotRealizableError("certificate slack is not positive semidefinite")
        g_cwb = split.positive_factor

    r = g_cwb.shape[1]
    g_cwa = -theta @ dagger(h_c)
    controller = ControllerModel(
        kind="annihilation",
        f_c=f_c,
        g_cw=np.hstack([g_cwa, g_cwb]),
        g_cy=g_cy,
        h_c=h_c,
        k_cw=_identity_pad(m_u, m_u + r),
        k_cy=np.zeros((m_u, m_y)),
    )
    return SynthesisResult(
        controller=controller,
        theta=theta,
        extra_channels=r,
        zero_noise=(r == 0),
        admissibility_norm=nu,
    )


def synth_noise_general(f_c, g_cy, h_c, theta) -> SynthesisResult:
    """Make a general-kind controller triple physically realizable.

    Given a commutation matrix Theta (Hermitian, invertible, inertia
    (n_c, n_c), antisymmetric under the conjugation swap), the certificate
    defect M is split by sign into interlocked extra noise factors, and the
    structured coupling columns -Theta H_c1^dagger / +Theta H_c2^dagger
    complete the controller noise matrix.  Zero extra noise is reported when
    M vanishes, meaning Theta already satisfies the realizability Riccati.
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

    theta = as_matrix(theta, "theta")
    dev = max_abs(theta - dagger(theta))
    if dev > RESIDUAL_TOL * (1.0 + max_abs(theta)):
        raise DomainError("theta must be Hermitian")
    theta = hermitian_part(theta)
    pos, neg, _ = _inertia(theta)
    if pos != n_c or neg != n_c:
        raise DomainError("theta must be invertible with inertia (n_c, n_c)")
    if max_abs(conj_swap(theta) + theta) > STRUCTURE_TOL * (1.0 + max_abs(theta)):
        raise DomainError("theta must be antisymmetric under the conjugation swap")

    h_c1, h_c2 = h_c[:m_u], h_c[m_u:]
    g_cy1, g_cy2 = g_cy[:, :m_y], g_cy[:, m_y:]
    m_defect = hermitian_part(
        f_c @ theta
        + theta @ dagger(f_c)
        - theta @ (dagger(h_c2) @ h_c2 - dagger(h_c1) @ h_c1) @ theta
        + g_cy1 @ dagger(g_cy1)
        - g_cy2 @ dagger(g_cy2)
    )
    split = psd_split(m_defect)
    g_cw1b = split.negative_factor
    r_pos = split.positive_factor.shape[1]
    r = max(g_cw1b.shape[1], r_pos)
    if g_cw1b.shape[1] < r:
        g_cw1b = np.hstack([g_cw1b, np.zeros((2 * n_c, r - g_cw1b.shape[1]), dtype=complex)])
    swap = np.vstack([g_cw1b[n_c:].conj(), g_cw1b[:n_c].conj()])
    g_cw2b = swap

    g_cw1a = -theta @ dagger(h_c1)
    g_cw2a = theta @ dagger(h_c2)
    g_cw = np.hstack([g_cw1a, g_cw1b, g_cw2a, g_cw2b])
    m_wt = m_u + r

    controller = ControllerModel(
        kind="general",
        f_c=f_c,
        g_cw=g_cw,
        g_cy=g_cy,
        h_c=h_c,
        k_cw=_identity_pattern("general", m_u, m_wt),
        k_cy=np.zeros((2 * m_u, 2 * m_y)),
    )
    zero = max_abs(m_defect) <= RESIDUAL_TOL * (1.0 + max_abs(theta))
    return SynthesisResult(
        controller=controller, theta=theta, extra_channels=r, zero_noise=zero
    )


def augment_controller(c: ControllerModel) -> PlantAugmentation:
    """Square realizable completion of a controller over inputs (W-tilde, Y).

    Requires the feedthrough to be the canonical identity pattern
    (K_cw = [I, 0], K_cy = 0); this is exactly the convention under which
    the augmented feedthrough can equal the identity.
    """
    feed_dev = max(
        max_abs(c.k_cw - _identity_pattern(c.kind, c.m_u, c.m_wt)), max_abs(c.k_cy)
    )
    if feed_dev > RESIDUAL_TOL:
        raise NotAugmentableError(
            "controller feedthrough must be the identity pattern ([I, 0] on "
            "its own noise, zero on the measurement)",
            residuals={"feedthrough": feed_dev},
        )
    return _square_completion(
        c.kind, c.f_c, [c.g_cw, c.g_cy], c.h_c, "controller", {}
    )


@dataclass(frozen=True)
class AugmentedClosedLoop:
    """Square closed loop over free output fields with its certificate.

    Outputs stack the controller's replacement of the measured field, the
    plant's unused fields, and the controller's unused noise fields, so the
    first m_w + m_u outputs align with the trivial-controller (augmented
    plant) ordering.  The feedthrough is the identity and
    diag(theta_plant, theta_controller) certifies realizability.
    """

    system: StateSpaceTF
    theta: np.ndarray
    plant_theta: np.ndarray
    controller_theta: np.ndarray
    channel_map: dict[str, tuple[int, int]]
    internally_stable: bool


def close_augmented_loop(p: PlantModel, c: ControllerModel) -> AugmentedClosedLoop:
    """Interconnect the augmentations of plant and controller.

    Both subsystems are first completed to square realizable systems; the
    loop then maps the free input fields (W, W-tilde) to the free output
    fields.  The composite inherits realizability with certificate
    diag(theta_plant, theta_controller) and identity feedthrough, which is
    what makes every row-selected closed-loop transfer function all-pass.
    The augmentation needs K_cy = 0, so the state and input matrices are
    those of :func:`close_loop`.
    """
    if p.kind != "annihilation" or c.kind != "annihilation":
        raise DomainError("augmented loop composition is annihilation-kind only")
    loop = close_loop(p, c)
    ap = augment_plant(p)
    ac = augment_controller(c)
    n, n_c = p.n_modes, c.n_modes
    m_w, m_u, m_y, m_wt = p.m_w, p.m_u, p.m_y, c.m_wt
    r = m_wt - m_u
    h_tilde = ap.h_tilde
    h_caug = ac.system.h

    eye_py = np.eye(m_w + m_u, dtype=complex)
    k_t = eye_py[m_y:, :m_w]
    k_bar = eye_py[m_y:, m_w:]

    c_rows = np.block(
        [
            [p.h, h_caug[m_wt:]],
            [h_tilde, k_bar @ c.h_c],
            [np.zeros((r, n), dtype=complex), h_caug[m_u:m_wt]],
        ]
    )
    d_rows = np.block(
        [
            [p.k, np.zeros((m_y, m_wt), dtype=complex)],
            [k_t, k_bar @ c.k_cw],
            [np.zeros((r, m_w), dtype=complex), np.eye(m_wt)[m_u:, :]],
        ]
    )
    theta = np.block(
        [
            [ap.theta, np.zeros((n, n_c), dtype=complex)],
            [np.zeros((n_c, n), dtype=complex), ac.theta],
        ]
    )
    channel_map = {
        "replaced_output": (0, m_y),
        "plant_unused": (m_y, m_w + m_u),
        "controller_unused": (m_w + m_u, m_w + m_u + r),
    }
    return AugmentedClosedLoop(
        system=StateSpaceTF(a=loop.system.a, b=loop.system.b, c=c_rows, d=d_rows),
        theta=theta,
        plant_theta=ap.theta,
        controller_theta=ac.theta,
        channel_map=channel_map,
        internally_stable=loop.internally_stable,
    )


def complete_static_pr(p: PlantModel, k_cy) -> tuple[np.ndarray, np.ndarray] | None:
    """Find K_cw making a static controller's loop keep the plant realizable.

    Solves jointly for a Hermitian certificate Theta_a and a PSD Gram matrix
    S = K_cw K_cw^dagger such that the modified plant satisfies the coupling
    identity on the measured channels and the certificate equation over all
    noises.  Returns (k_cw, theta_a) or None when the affine system has no
    admissible solution.
    """
    if p.kind != "annihilation":
        raise DomainError("static completion is annihilation-kind only")
    k_cy = as_matrix(k_cy, "k_cy")
    if k_cy.shape != (p.m_u, p.m_y):
        raise DimensionError(f"k_cy must be {(p.m_u, p.m_y)}, got {k_cy.shape}")
    n, m_u = p.n_modes, p.m_u

    if max_abs(k_cy) == 0.0:
        theta = augment_plant(p).theta
        return np.eye(m_u, dtype=complex), theta

    f_mod = p.f + p.g_u @ k_cy @ p.h
    g_fold = p.g_w + p.g_u @ k_cy @ p.k
    target_coup = -(p.g_w[:, : p.m_y] + p.g_u @ k_cy)

    basis_t = hermitian_basis(n)
    basis_s = hermitian_basis(m_u)
    a_mat = np.hstack(
        [
            real_columns(f_mod @ basis_t + basis_t @ dagger(f_mod), basis_t @ dagger(p.h)),
            real_columns(
                p.g_u @ basis_s @ dagger(p.g_u),
                np.zeros((len(basis_s), n * p.m_y), dtype=complex),
            ),
        ]
    )
    rhs_c = np.concatenate([(-(g_fold @ dagger(g_fold))).ravel(), target_coup.ravel()])
    rhs = np.concatenate([rhs_c.real, rhs_c.imag])
    sol, *_ = np.linalg.lstsq(a_mat, rhs, rcond=None)
    residual = float(np.max(np.abs(a_mat @ sol - rhs))) if rhs.size else 0.0
    scale = 1.0 + max_abs(g_fold) ** 2 + max_abs(target_coup)
    if residual > RESIDUAL_TOL * scale:
        return None
    theta = hermitian_part(np.tensordot(sol[: len(basis_t)], basis_t, 1))
    s_gram = hermitian_part(np.tensordot(sol[len(basis_t) :], basis_s, 1))
    if not is_positive_definite(theta):
        return None
    split = psd_split(s_gram)
    if max_abs(split.negative) > RESIDUAL_TOL * (1.0 + max_abs(s_gram)):
        return None
    k_cw = split.positive_factor
    if k_cw.shape[1] < m_u:
        # pad ignored noise channels so the controller keeps m_wt >= m_u
        k_cw = np.hstack(
            [k_cw, np.zeros((m_u, m_u - k_cw.shape[1]), dtype=complex)]
        )
    return k_cw, theta


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
