"""Kalman filtering and the optimality checks for coherent feedback loops.

Three verifiable claims about annihilation-kind realizable plants live here:
the Kalman gain of the noise-augmented loop vanishes and the error
covariance equals the realizability certificate; the best LQG controller is
consequently static; and every realizable controller closes an all-pass
loop over the augmented fields, so the trivial controller is H-infinity
optimal.  Each verifier returns a report with named numeric evidence rather
than a bare boolean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DesignError,
    DimensionError,
    DomainError,
    InstabilityError,
    NotAugmentableError,
)
from .feedback import (
    ClosedLoop,
    ControllerModel,
    PlantAugmentation,
    PlantModel,
    _augmented_loop,
    _canonical_controller,
    _check_augmented_loop,
    _check_loop_dims,
    _controller_completions,
    _identity_pad,
    _loop_matrices,
    _square_completion,
    _static_screen,
    augment_plant,
    complete_static_pr,
    static_controller,
)
from .linalg import (
    RESIDUAL_TOL,
    _coupling_defect,
    _hurwitz_spectrum,
    _lyapunov_defect,
    _psd_factor,
    _rank_cut,
    _stack_max_abs,
    _stacked_block,
    _trace_cost,
    as_matrix,
    dagger,
    hermitian_part,
    max_abs,
    solve_care_hermitian,
)
from .systems import _annihilation_fg, is_positive_definite
from .transfer import NormResult, StateSpaceTF, _Loops, _sampled_gains, _schur_forms, h2_norm, hinf_norm

STATIC_GAIN_GRID = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)


@dataclass(frozen=True)
class KalmanResult:
    """Stationary filter covariance and gain for a field-driven system."""

    q: np.ndarray
    gain: np.ndarray
    riccati_residual: float
    gain_norm: float


@dataclass(frozen=True)
class TheoremReport:
    """Outcome of one verification claim with its numeric evidence."""

    theorem: str
    holds: bool
    evidence: dict[str, float]
    narrative: str

    @property
    def skipped(self) -> bool:
        return self.narrative.startswith("skipped:")


def _detectability_defect(f: np.ndarray, c: np.ndarray) -> float:
    """Smallest PBH singular value over the modes that the Hurwitz rule does not call stable."""
    n = f.shape[0]
    worst = np.inf
    for lam in np.linalg.eigvals(f):
        if _hurwitz_spectrum(np.atleast_1d(lam), f):
            continue
        pencil = np.vstack([lam * np.eye(n) - f, c])
        sv = np.linalg.svd(pencil, compute_uv=False)
        worst = min(worst, float(sv[-1]))
    return worst


def kalman_design(f_a, g_a, h_a, l_select) -> KalmanResult:
    """Stationary Kalman filter for dX = F X dt + G dW, dY = L(H X dt + dW).

    The error covariance solves
    F Q + Q F^dagger + G G^dagger
    - (G + Q H^dagger) L^dagger (L L^dagger)^{-1} L (G + Q H^dagger)^dagger = 0
    with unit-intensity field noise; the gain weights the innovation
    dY - L H X-hat dt.

    Raises
    ------
    DomainError
        When L L^dagger is singular.
    DesignError
        When the pair (F, L H) is not detectable, or no stabilizing PSD
        covariance exists.
    """
    f_a = as_matrix(f_a, "f_a")
    g_a = as_matrix(g_a, "g_a")
    h_a = as_matrix(h_a, "h_a")
    l_select = as_matrix(l_select, "l_select")
    n = f_a.shape[0]
    if g_a.shape[0] != n or h_a.shape[1] != n or l_select.shape[1] != h_a.shape[0]:
        raise DimensionError("filter blocks disagree on dimensions")

    v = hermitian_part(l_select @ dagger(l_select))
    if v.size == 0 or not is_positive_definite(v):
        raise DomainError("selector Gram matrix L L^dagger is singular")
    v_inv = np.linalg.inv(v)

    c_meas = l_select @ h_a
    defect = _detectability_defect(f_a, c_meas)
    if defect <= _rank_cut(max_abs(f_a)):
        raise DesignError(
            f"(state, measured output) pair is not detectable "
            f"(PBH defect {defect:.3g})"
        )

    s = g_a @ dagger(l_select)
    a_care = f_a - s @ v_inv @ c_meas
    r_care = hermitian_part(-dagger(c_meas) @ v_inv @ c_meas)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite q is the solver's DomainError
        q_care = hermitian_part(g_a @ dagger(g_a) - s @ v_inv @ dagger(s))
    care = solve_care_hermitian(a_care, r_care, q_care)
    if not care.exists or _psd_factor(care.x) is None:
        raise DesignError("no stabilizing positive semidefinite covariance found")
    q = care.x

    gain = (g_a + q @ dagger(h_a)) @ dagger(l_select) @ v_inv
    residual = max_abs(
        f_a @ q
        + q @ dagger(f_a)
        + g_a @ dagger(g_a)
        - gain @ v @ dagger(gain)
    )
    return KalmanResult(
        q=q,
        gain=gain,
        riccati_residual=residual,
        gain_norm=float(np.linalg.norm(gain, 2)) if gain.size else 0.0,
    )


def _zero_gain(p: PlantModel, k_cy, k_cw) -> tuple[TheoremReport, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`verify_zero_gain` on the static loop around ``p``, with the loop's certificate,
    state matrix A and cost rows C_z."""
    ctrl = static_controller(k_cy, k_cw)
    _check_loop_dims(p, ctrl)
    if ctrl.m_wt < ctrl.m_u:
        raise DimensionError(
            f"need at least as many controller noises as controls (m_wt={ctrl.m_wt} < m_u={ctrl.m_u})"
        )
    a, b, c, _ = _loop_matrices(p, ctrl.f_c, ctrl.g_cw, ctrl.g_cy, ctrl.h_c, ctrl.k_cw, ctrl.k_cy)
    if max_abs(ctrl.k_cy) == 0.0 and np.array_equal(ctrl.k_cw, np.eye(ctrl.m_u)):
        ap = p._completion  # the loop is the plant itself: A = F, B = [G_w, G_u]
    else:
        ap = _square_completion("annihilation", a, [b], p.h, "plant", p._pattern_residuals)
    l_select = _identity_pad(p.m_y, ap.system.m_fields)
    kr = kalman_design(ap.system.f, ap.system.g, ap.system.h, l_select)
    q_dev = max_abs(kr.q - ap.theta)
    return TheoremReport(
        theorem="C1",
        holds=kr.gain_norm <= 1e-8 and q_dev <= 1e-8,
        evidence={
            "gain_norm": kr.gain_norm,
            "covariance_vs_certificate": q_dev,
            "riccati_residual": kr.riccati_residual,
        },
        narrative=(
            f"Kalman gain norm {kr.gain_norm:.3g}; covariance matches the "
            f"realizability certificate within {q_dev:.3g}."
        ),
    ), ap.theta, a, c


def verify_zero_gain(p: PlantModel, k_cy, k_cw) -> TheoremReport:
    """Check that the loop with a static controller has zero Kalman gain.

    Folding U = K_cy Y + K_cw W-tilde into the plant gives the static
    loop's state and noise matrices (A, B) over (W, W-tilde).  With the
    plant's measurement rows they get a square realizable completion, and
    that completion a Kalman design with the measured rows selected.  The
    claim: the gain vanishes and the covariance equals the realizability
    certificate, so the estimator never uses the measurement record.

    Raises
    ------
    DimensionError
        When K_cw has fewer noise columns than controls.
    NotAugmentableError
        When the static loop has no square realizable completion, i.e. the
        hypothesis of the claim fails for this (k_cy, k_cw).
    """
    if p.kind != "annihilation":
        raise DomainError("zero-gain verification is annihilation-kind only")
    return _zero_gain(p, k_cy, k_cw)[0]


def lqg_cost(cl: ClosedLoop) -> NormResult:
    """LQG cost of a closed loop: the H2 norm of its noise-to-cost map.

    Equals the root sum of impulse-response energies over unit-intensity
    noise channels.  Requires internal stability and a strictly proper cost
    channel.
    """
    if not cl.internally_stable:
        raise InstabilityError("closed loop is not internally stable")
    return h2_norm(cl.system)


def _not_realizable(theorem: str, exc: NotAugmentableError) -> TheoremReport:
    """The skipped report of a theorem whose plant has no square realizable completion."""
    reason = f"skipped: plant not physically realizable ({exc})"
    return TheoremReport(theorem, False, {"hypothesis_ok": 0.0}, reason)


def _static_gain_candidates(m_u: int, m_y: int, seed: int) -> np.ndarray:
    """The documented static K_cy sweep, stacked (N, m_u, m_y).

    A grid for blocks up to 2 x 2, else K_cy = 0 (whose completion always
    exists) followed by 64 seeded uniform draws in [-2, 2].
    """
    if m_u <= 2 and m_y <= 2:
        size, count = m_u * m_y, len(STATIC_GAIN_GRID) ** (m_u * m_y)
        digits = np.indices((len(STATIC_GAIN_GRID),) * size).reshape(size, count).T  # last fastest
        return np.asarray(STATIC_GAIN_GRID, dtype=complex)[digits].reshape(count, m_u, m_y)
    draws = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(64, m_u, m_y))
    return np.concatenate([np.zeros((1, m_u, m_y)), draws]).astype(complex)


def random_admissible_triple(
    rng: np.random.Generator, n_c: int, m_y: int, m_u: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw (f_c, g_cy, h_c) passing the noise-synthesis admissibility test.

    The state matrix is shifted Hurwitz with margin at least 0.5, the output
    map is rescaled to put the strictly proper gain below 1, and the
    measurement column is drawn small enough that the certificate equation
    stays solvable for most draws.
    """
    f_c = rng.standard_normal((n_c, n_c)) + 1j * rng.standard_normal((n_c, n_c))
    shift = float(np.max(np.linalg.eigvals(f_c).real)) + 0.5 + rng.uniform(0.0, 1.0)
    f_c = f_c - shift * np.eye(n_c)
    h_c = rng.standard_normal((m_u, n_c)) + 1j * rng.standard_normal((m_u, n_c))
    nu = hinf_norm(StateSpaceTF(f_c, np.eye(n_c), h_c, np.zeros((m_u, n_c)))).value
    if nu > 0.0:
        h_c = h_c * (rng.uniform(0.3, 0.95) / nu)
    g_cy = 0.5 * (rng.standard_normal((n_c, m_y)) + 1j * rng.standard_normal((n_c, m_y)))
    return f_c, g_cy, h_c


def _challenger_draws(p: PlantModel, count: int, seed: int) -> list[tuple]:
    """The blocks (F_c, G_cw, G_cy, H_c) of :func:`random_challengers`, unvalidated.

    Each challenger draws its order n_c and then one run of normals, which
    holds in turn the real and imaginary parts of M, of H_c and of the
    measurement rows (a Generator fills normals in sequence, so separate
    draws of each part give the same numbers).  The draws of one order are
    built as C-contiguous stacks, returned with their positions, by increasing order.
    """
    rng, groups, normals = np.random.default_rng(seed), {}, []
    for i in range(count):
        groups.setdefault(n_c := int(rng.integers(1, 3)), []).append(i)
        normals.append(rng.standard_normal(2 * n_c * (n_c + p.m_u + p.m_y)))
    stacks = []
    for n_c, idx in sorted(groups.items()):
        rows = np.repeat([n_c, p.m_u, p.m_y], 2)  # each part's rows of n_c normals, in draw order
        z = np.stack([normals[i] for i in idx]).reshape(len(idx), rows.sum(), n_c)
        parts = np.split(z, np.cumsum(rows)[:-1], axis=1)
        m, h_c, y_rows = ((re + 1j * im) / np.sqrt(2.0) for re, im in zip(parts[::2], parts[1::2]))
        n_coupling = _stacked_block([[h_c], [-np.sqrt(2.0) * np.eye(n_c)], [y_rows]])
        f_c, g_c = _annihilation_fg(np.eye(n_c, dtype=complex), hermitian_part(m), n_coupling)
        g_cw, g_cy = (np.ascontiguousarray(x) for x in np.split(g_c, [p.m_u + n_c], axis=-1))
        stacks.append((idx, f_c, g_cw, g_cy, h_c))
    return stacks


def random_challengers(p: PlantModel, count: int, seed: int) -> list[ControllerModel]:
    """``count`` seeded realizable dynamic controllers (1 or 2 states) for a plant.

    Each realizes Theta_c = I, a random Hermitian M and a coupling N stacking
    random m_u rows (H_c), -sqrt(2) I on n_c extra noise channels and random
    m_y rows.  Then F_c + F_c^dagger + H_c^dagger H_c + G_cy G_cy^dagger + I
    = -I: each challenger is realizable, stabilizes every Hurwitz plant and
    is strictly admissible for ``synth_noise_annihilation``.  (I, M, N) is
    valid by construction and goes straight into the realization formula.
    """
    draws = {i: blocks for stack in _challenger_draws(p, count, seed) for i, *blocks in zip(*stack)}
    return [_canonical_controller("annihilation", *draws[i]) for i in range(count)]


def _challenger_loops(p: PlantModel, theta_p: np.ndarray, stacks) -> tuple[np.ndarray, ...]:
    """Close the loops of the order stacks of :func:`_challenger_draws` around ``p``.

    Each stack gets the canonical feedthrough K_cw = [I, 0], K_cy = 0, one
    loop assembly, one eigensolve, one Lyapunov residual test at the loop's
    state covariance Theta = diag(Theta_p, I) and one cost sqrt(tr(C Theta
    C^dagger)).  Returns, per draw position, internal stability, the
    residual, its verdict and the cost.
    """
    count = sum(len(idx) for idx, *_ in stacks)
    stable, defect = np.zeros(count, dtype=bool), np.zeros(count, dtype=bool)
    residual, cost = np.zeros(count), np.zeros(count)
    n, k_cy = p.n_modes, np.zeros((p.m_u, p.m_y), dtype=complex)
    for idx, f_c, g_cw, g_cy, h_c in stacks:
        n_c = f_c.shape[-1]
        a, b, c, _ = _loop_matrices(p, f_c, g_cw, g_cy, h_c, _identity_pad(p.m_u, p.m_u + n_c), k_cy)
        theta = np.eye(n + n_c, dtype=complex)
        theta[:n, :n] = theta_p
        found: dict[str, np.ndarray] = {}
        stable[idx] = _hurwitz_spectrum(np.linalg.eigvals(a), a)
        defect[idx] = _lyapunov_defect(a, theta, hermitian_part(b @ dagger(b)), found, RESIDUAL_TOL)
        residual[idx] = found["lyapunov"]
        cost[idx] = _trace_cost(c, theta)[0]
    return stable, residual, defect, cost


def verify_static_lqg(
    p: PlantModel, seed: int = 1729, dynamic_count: int = 20
) -> TheoremReport:
    """Check that no sampled dynamic controller beats the best static one.

    Sweeps the documented static gain candidates, keeping the gains whose
    loops admit a realizable completion (one coupling-row projection per
    plant first rejects gains the completion cannot accept), folds each kept
    gain in once to verify the zero-gain property, and compares against
    seeded realizable dynamic controllers.  Every stable loop costs
    sqrt(tr(C Theta C^dagger)) at its state covariance Theta: a static
    loop's is the certificate its zero-gain completion solved, a dynamic
    loop's (Theta_c = I) is diag(Theta_p, I), which must pass the Lyapunov
    residual test.  The dynamic controllers come from the draw behind
    ``random_challengers`` and are checked in stacks of equal order.  The
    zero-gain certificates carry the substance; the cost comparison is
    corroborating evidence.  A cost whose trace is not finite is a
    DomainError.
    """
    if p.kind != "annihilation":
        raise DomainError("static LQG verification is annihilation-kind only")
    if p.cost is None:
        raise DomainError("plant has no cost output block")
    if max_abs(p.cost.d) > 0.0:
        raise DomainError("cost block must be strictly proper")
    try:
        ap = augment_plant(p)
    except NotAugmentableError as exc:
        return _not_realizable("T5", exc)

    if p.m_u == 0:  # the loop is the plant, whose state covariance is its certificate
        if not _hurwitz_spectrum(np.linalg.eigvals(p.f), p.f):
            raise InstabilityError("closed loop is not internally stable")
        cost = float(_trace_cost(p.cost.c, ap.theta)[0])
        narrative = f"degenerate pass: no control channel, every controller yields cost {cost:.6g}"
        return TheoremReport("T5", True, {"constant_cost": cost}, narrative)

    max_gain = max_q_dev = 0.0
    zero_gain_ok = True
    static_costs = []
    candidates = _static_gain_candidates(p.m_u, p.m_y, seed)
    for k_cy in candidates[_static_screen(p, candidates) <= RESIDUAL_TOL]:
        if (completed := complete_static_pr(p, k_cy)) is None:
            continue
        report, theta, a, c = _zero_gain(p, k_cy, completed[0])
        max_gain = max(max_gain, report.evidence["gain_norm"])
        max_q_dev = max(max_q_dev, report.evidence["covariance_vs_certificate"])
        zero_gain_ok = zero_gain_ok and report.holds
        if _hurwitz_spectrum(np.linalg.eigvals(a), a):
            static_costs.append(float(_trace_cost(c, theta)[0]))
    best_static, used = min(static_costs, default=np.inf), len(static_costs)
    skipped = len(candidates) - used

    stable, _, defect, dynamic_cost = _challenger_loops(p, ap.theta, _challenger_draws(p, dynamic_count, seed + 1))
    invariant_ok = not defect[stable].any()
    best_dynamic = float(np.min(dynamic_cost[stable], initial=np.inf))
    dyn_used = int(np.count_nonzero(stable))
    dyn_skipped = stable.size - dyn_used

    cost_ok = best_static <= best_dynamic + 1e-6 * max(1.0, best_dynamic)
    holds = zero_gain_ok and cost_ok and invariant_ok
    return TheoremReport(
        theorem="T5",
        holds=holds,
        evidence={
            "max_gain_norm": max_gain,
            "max_covariance_dev": max_q_dev,
            "best_static_cost": best_static,
            "best_dynamic_cost": best_dynamic,
            "static_used": float(used),
            "static_skipped": float(skipped),
            "dynamic_used": float(dyn_used),
            "dynamic_skipped": float(dyn_skipped),
        },
        narrative=(
            f"best static cost {best_static:.6g} vs best dynamic "
            f"{best_dynamic:.6g} over {dyn_used} stable challengers; "
            f"max Kalman gain {max_gain:.3g} across {used + skipped} candidate gains."
        ),
    )


def _validate_selector(l_select: np.ndarray, width: int) -> None:
    if l_select.ndim != 2 or l_select.shape[1] != width:
        raise DimensionError(
            f"selector must have {width} columns, got shape {l_select.shape}"
        )
    if l_select.shape[0] == 0:
        raise DomainError("selector must select at least one output")
    ok = (
        np.all(np.isin(l_select.real, (0.0, 1.0)))
        and max_abs(l_select.imag) == 0.0
        and np.all(np.sum(l_select.real, axis=1) == 1.0)
        and np.all(np.sum(l_select.real, axis=0) <= 1.0)
    )
    if not ok:
        raise DomainError(
            "selector rows must be distinct standard unit vectors"
        )


def _augmented_loop_outcomes(p: PlantModel, ap: PlantAugmentation, ctrls: list, l_select) -> list:
    """Per challenger of a stack of equal order and noise count, for the rows of its augmented loop
    that ``l_select`` picks from the first m_w + m_u: (grid peak of sigma_max, max |sigma_max - 1| on
    the grid, lossless), or the error that ends it.  The stack gets one completion pass, loop
    assembly, Hurwitz rule, grid pass and lossless test (D^dagger D = I, and the Lyapunov and
    coupling tests of diag(Theta_p, Theta_c) with S = D), one Schur form per loop.  A lossless
    loop's norm is 1, so its grid peak is its norm reading; no loop here is bisected."""
    blocks = [np.stack([getattr(c, name) for c in ctrls]) for name in ("f_c", "g_cw", "g_cy", "h_c", "k_cw", "k_cy")]
    try:
        done = _controller_completions("annihilation", *blocks)
    except DimensionError as exc:  # fewer noises than controls: the identity pattern does not fit
        return [exc] * len(ctrls)
    outcomes: list = [done.errors.get(j) for j in range(len(ctrls))]
    if not done.done:
        return outcomes
    a, b, c, d, theta = _augmented_loop(p, ap, *(blk[done.done] for blk in blocks), done.theta, done.h_tilde)
    pad = np.zeros((l_select.shape[0], c.shape[-2]), dtype=complex)
    pad[:, : l_select.shape[1]] = l_select
    loops = _Loops(a, b, pad @ c, pad @ d, _schur_forms(a))
    stable = _hurwitz_spectrum(loops.form[0], a)
    sigma, used = _sampled_gains(loops)
    peak = np.max(sigma, axis=1, where=used, initial=0.0)
    dev = np.maximum(peak - 1.0, 1.0 - np.min(np.where(used, sigma, peak[:, None]), axis=1))
    q = hermitian_part(b @ dagger(b))
    feed_ok = _stack_max_abs(dagger(d) @ d - np.eye(d.shape[-1])) <= RESIDUAL_TOL
    lyapunov_off = _lyapunov_defect(a, theta, q, {}, RESIDUAL_TOL)
    lossless = feed_ok & ~lyapunov_off & ~_coupling_defect(b, theta, c, d, {}, RESIDUAL_TOL)
    for pos, j in enumerate(done.done):
        if not stable[pos]:
            outcomes[j] = InstabilityError("H-infinity norm needs a Hurwitz state matrix")
        elif not np.isfinite(dev[pos]):
            outcomes[j] = DomainError("sampled sigma_max range of the augmented loop is not finite")
        else:
            outcomes[j] = (float(peak[pos]), float(dev[pos]), bool(lossless[pos]))
    return outcomes


def verify_trivial_hinf(
    p: PlantModel, l_select, challengers: list[ControllerModel]
) -> TheoremReport:
    """Check that no realizable controller beats the trivial one in H-infinity.

    Every realizable controller closes an all-pass augmented loop, so the
    selected cost rows have H-infinity norm exactly 1 for the trivial
    controller and every challenger alike.  The trivial loop is the
    selected rows of the plant's own completion: ``trivial_norm`` is one
    :func:`hinf_norm` call on them, and the loop's lossless verdict is the
    completion's.  A challenger's loop is lossless when it is internally
    stable and diag(Theta_p, Theta_c) passes the realizability check's
    residual tests with S = D and D^dagger D = I (the lossless bounded-real
    lemma); the challengers are checked in stacks of equal order n_c and
    noise count m_wt, each sampled once.  ``worst_norm_dev`` is the worst
    |sigma_max peak - 1| and ``max_pointwise_dev`` the worst
    max |sigma_max - 1| over each loop's grid (a static loop's is
    sigma_max(D)).  Challengers that fail their own realizability
    completion, or whose channels do not fit the plant, are skipped, not
    refutations.  The trivial loop's error is raised first (an unstable
    plant's InstabilityError, a sampled range that is not finite), then the
    first challenger's in entry order (a general-kind challenger's
    DomainError, an unstable loop's InstabilityError, a sampled range that
    is not finite).
    """
    if p.kind != "annihilation":
        raise DomainError("trivial-controller verification is annihilation-kind only")
    l_select = as_matrix(l_select, "l_select")
    _validate_selector(l_select, p.m_w + p.m_u)
    try:
        ap = augment_plant(p)
    except NotAugmentableError as exc:
        return _not_realizable("T6", exc)

    trivial = hinf_norm(StateSpaceTF.from_system(ap.system)._rows(l_select))
    top, bottom = (trivial.certificate.get(key, trivial.value) for key in ("grid_lower_bound", "grid_min"))
    peaks, pointwise = [top], [float(np.maximum(top - 1.0, 1.0 - bottom))]  # keeps a NaN, as max() would not
    if not np.isfinite(pointwise[0]):
        raise DomainError("sampled sigma_max range of the augmented loop is not finite")
    outcomes: list = [None] * len(challengers)
    groups: dict[tuple[int, int], list[int]] = {}
    for i, ctrl in enumerate(challengers):
        try:
            _check_augmented_loop(p, ctrl)
        except (DomainError, DimensionError) as exc:
            outcomes[i] = exc
        else:
            groups.setdefault((ctrl.n_modes, ctrl.m_wt), []).append(i)
    for idx in groups.values():
        for i, outcome in zip(idx, _augmented_loop_outcomes(p, ap, [challengers[i] for i in idx], l_select)):
            outcomes[i] = outcome

    lossless_ok = ap.verdict.realizable
    skipped: list[str] = []
    for i, outcome in enumerate(outcomes):
        if isinstance(outcome, (NotAugmentableError, DimensionError)):
            skipped.append(f"challenger {i}: {outcome}")
            continue
        if isinstance(outcome, Exception):
            raise outcome
        peak, dev, lossless = outcome
        peaks.append(peak)
        pointwise.append(dev)
        lossless_ok &= lossless

    worst_norm = max(abs(v - 1.0) for v in peaks)
    return TheoremReport(
        theorem="T6",
        holds=worst_norm <= 1e-6 and lossless_ok,
        evidence={
            "trivial_norm": trivial.value,
            "worst_norm_dev": worst_norm,
            "max_pointwise_dev": max(pointwise),
            "loops_checked": float(len(peaks)),
            "challengers_skipped": float(len(skipped)),
            "lossless_all": float(lossless_ok),
        },
        narrative=(
            f"{len(peaks)} loops give closed-loop norms within {worst_norm:.3g} "
            f"of 1; all-pass verified pointwise to {max(pointwise):.3g}."
            + (f" Skipped: {'; '.join(skipped)}" if skipped else "")
        ),
    )
