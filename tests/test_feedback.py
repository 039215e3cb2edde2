"""Tests for plant/controller models, loop composition and noise synthesis.

The scalar cavity oracles are one-line computations recorded next to the
assertions; the frequency-domain equivalences compare two independent
composition paths (state-space blocks vs transfer-function loop algebra).
"""

from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfeedback import (
    ControllerModel,
    CostOutput,
    DimensionError,
    DomainError,
    HamiltonianCoupling,
    NotAugmentableError,
    NotRealizableError,
    PlantModel,
    StateSpaceTF,
    augment_controller,
    augment_plant,
    check_pr_annihilation,
    check_pr_general,
    close_augmented_loop,
    close_loop,
    complete_static_pr,
    delta_build,
    gamma_cl,
    hinf_norm,
    random_challengers,
    random_pr_plant,
    random_pr_system,
    signature_matrix,
    static_controller,
    synth_noise_annihilation,
    synth_noise_general,
    tf_eval,
    trivial_controller,
)
from qfeedback.coherent import _static_gain_candidates, random_admissible_triple, verify_trivial_hinf
from qfeedback.errors import SingularityError
from qfeedback.feedback import (
    _controller_completions,
    _field_index,
    _identity_pad,
    _identity_pattern,
    _loop_matrices,
    _stack_cols,
    _static_screen,
)
from qfeedback.linalg import (
    RESIDUAL_TOL,
    _coupling_defect,
    _inertia,
    _lyapunov_defect,
    _noise_term,
    dagger,
    doubling_permutation,
    hermitian_basis,
    is_doubled,
    max_abs,
    real_lstsq,
)
from qfeedback.systems import PrVerdict, _has_certificate_inertia, _kind_rules, _solve_certificate

from conftest import stateless_plant


ROOT2 = np.sqrt(2.0)


def loop_tf_oracle(p: PlantModel, c: ControllerModel, s: complex) -> np.ndarray:
    """Closed-loop cost response at ``s`` via transfer-function loop algebra.

    Noise columns stack as (W, W-tilde), each in the model's own layout, so
    a general-kind pair gives (W, W#, W-tilde, W-tilde#).
    """
    xp = np.linalg.inv(s * np.eye(p.f.shape[0]) - p.f)
    xc = np.linalg.inv(s * np.eye(c.f_c.shape[0]) - c.f_c)
    p_w = p.h @ xp @ p.g_w + p.k
    p_u = p.h @ xp @ p.g_u
    c_y = c.h_c @ xc @ c.g_cy + c.k_cy
    c_w = c.h_c @ xc @ c.g_cw + c.k_cw
    loop = np.eye(p.g_u.shape[1]) - c_y @ p_u
    u_from_w = np.linalg.solve(loop, c_y @ p_w)
    u_from_wt = np.linalg.solve(loop, c_w)
    z_w = p.cost.c @ xp @ (p.g_w + p.g_u @ u_from_w) + p.cost.d @ u_from_w
    z_wt = p.cost.c @ xp @ p.g_u @ u_from_wt + p.cost.d @ u_from_wt
    return np.hstack([z_w, z_wt])


# ---------------------------------------------------------------------------
# model validation


def test_plant_controller_and_cost_store_read_only_copies() -> None:
    arr = np.array([[-1.0 + 0j]])
    cost = CostOutput(c=arr, d=arr)
    p = PlantModel(kind="annihilation", f=arr, g_w=arr, g_u=arr, h=arr, k=arr, cost=cost)
    c = ControllerModel(
        kind="annihilation", f_c=arr, g_cw=arr, g_cy=arr, h_c=arr, k_cw=arr, k_cy=arr
    )
    arr[0, 0] = np.nan
    models = [
        (p, ("f", "g_w", "g_u", "h", "k")),
        (c, ("f_c", "g_cw", "g_cy", "h_c", "k_cw", "k_cy")),
        (p.cost, ("c", "d")),
    ]
    for model, names in models:
        for name in names:
            assert getattr(model, name)[0, 0] == -1.0, name
            with pytest.raises(ValueError):
                getattr(model, name)[0, 0] = 0.0


def test_transfer_function_cost_and_parameters_expose_their_layout_counts() -> None:
    g = StateSpaceTF(a=-np.eye(3), b=np.ones((3, 2)), c=np.ones((1, 3)), d=np.zeros((1, 2)))
    assert (g.state_dim, g.input_dim, g.output_dim) == (3, 2, 1)
    cost = CostOutput(c=np.ones((2, 3)), d=np.zeros((2, 1)))
    assert (cost.output_dim, cost.state_dim, cost.input_dim) == (2, 3, 1)
    n = delta_build(np.ones((3, 2)), np.zeros((3, 2)))
    p = HamiltonianCoupling(theta=signature_matrix(2), m=np.zeros((4, 4)), n_coupling=n, kind="general")
    assert (p.n_modes, p.m_fields) == (2, 3)


@pytest.mark.parametrize(
    "build",
    [
        lambda: StateSpaceTF(a=-np.ones((3, 2)), b=np.ones((3, 2)), c=np.ones((1, 2)), d=np.zeros((1, 2))),
        lambda: StateSpaceTF(a=-np.eye(3), b=np.ones((2, 2)), c=np.ones((1, 3)), d=np.zeros((1, 2))),
        lambda: StateSpaceTF(a=-np.eye(3), b=np.ones((3, 2)), c=np.ones((1, 2)), d=np.zeros((1, 2))),
        lambda: StateSpaceTF(a=-np.eye(3), b=np.ones((3, 2)), c=np.ones((1, 3)), d=np.zeros((2, 2))),
        lambda: CostOutput(c=np.ones((2, 3)), d=np.zeros((1, 1))),
        lambda: PlantModel(
            kind="annihilation", f=-np.eye(1), g_w=np.ones((1, 1)), g_u=np.ones((1, 1)), h=np.ones((1, 1)),
            k=np.eye(1), cost=CostOutput(c=np.ones((1, 2)), d=np.zeros((1, 1))),
        ),
        lambda: HamiltonianCoupling(theta=np.eye(1), m=np.zeros((1, 1)), n_coupling=np.ones((2, 3)), kind="annihilation"),
        lambda: HamiltonianCoupling(theta=np.eye(2), m=np.zeros((1, 1)), n_coupling=np.ones((2, 1)), kind="annihilation"),
        lambda: HamiltonianCoupling(
            theta=signature_matrix(1), m=np.zeros((2, 2)), n_coupling=np.zeros((3, 2)), kind="general"
        ),
    ],
)
def test_transfer_function_cost_and_parameters_reject_a_mismatched_matrix(build) -> None:
    with pytest.raises(DimensionError):
        build()


# ---------------------------------------------------------------------------
# plant and controller augmentation


def test_augment_two_port_cavity(cavity_plant) -> None:
    aug = augment_plant(cavity_plant)
    np.testing.assert_allclose(aug.theta, [[1.0]], atol=1e-10)
    np.testing.assert_allclose(aug.h_tilde, [[1.0]], atol=1e-10)
    np.testing.assert_array_equal(aug.system.k, np.eye(2))
    assert aug.verdict.realizable


def test_augment_rejects_mismatched_output_row() -> None:
    p = PlantModel(
        kind="annihilation",
        f=[[-1.0]],
        g_w=[[-1.0]],
        g_u=[[-1.0]],
        h=[[2.0]],
        k=np.eye(1),
    )
    for _ in range(2):  # a failed completion is not cached
        with pytest.raises(NotAugmentableError):
            augment_plant(p)


def test_augment_rejects_a_plant_without_a_definite_certificate() -> None:
    # F = 1 with G G^dagger = 2 gives the certificate Theta = -1
    p = PlantModel(kind="annihilation", f=[[1.0]], g_w=[[1.0]], g_u=[[1.0]], h=[[-1.0]], k=[[1.0]])
    with pytest.raises(NotAugmentableError, match="no positive definite certificate") as info:
        augment_plant(p)
    assert str(info.value) == "no positive definite certificate for the augmented plant"
    assert info.value.residuals == {"theta_min_eig": -1.0}
    assert verify_trivial_hinf(p, [[1.0, 0.0]], []).skipped


def test_augment_square_plant_returns_itself() -> None:
    p = PlantModel(
        kind="annihilation",
        f=[[-1.0]],
        g_w=[[-ROOT2]],
        g_u=np.zeros((1, 0)),
        h=[[ROOT2]],
        k=np.eye(1),
    )
    aug = augment_plant(p)
    assert aug.h_tilde.shape == (0, 1)
    np.testing.assert_allclose(aug.system.g, p.g_w, atol=0)


def test_augment_controller_synthesized_triple() -> None:
    result = synth_noise_annihilation([[-1.0]], [[0.5]], [[0.8]])
    aug = augment_controller(result.controller)
    assert aug.verdict.realizable
    s = aug.system
    theta = aug.theta
    assert max_abs(s.f @ theta + theta @ dagger(s.f) + s.g @ dagger(s.g)) <= 1e-8
    assert max_abs(s.g + theta @ dagger(s.h)) <= 1e-8
    assert max_abs(s.k - np.eye(s.m_fields)) == 0.0


def test_augment_controller_requires_identity_pattern() -> None:
    c = static_controller(k_cy=[[0.5]], k_cw=[[1.0]])
    with pytest.raises(NotAugmentableError):
        augment_controller(c)


def doubled(a1, a2) -> np.ndarray:
    return delta_build(a1, a2)


def test_augment_general_plant_rejects_wrong_inertia() -> None:
    # G J G^dagger vanishes for this squeezing coupling, so Theta = 0
    p = PlantModel(
        kind="general",
        f=-np.eye(2),
        g_w=doubled([[1.0]], [[1.0]]),
        g_u=np.zeros((2, 2)),
        h=np.zeros((2, 2)),
        k=np.eye(2),
    )
    with pytest.raises(NotAugmentableError) as info:
        augment_plant(p)
    assert str(info.value) == "certificate lacks the required inertia"
    assert list(info.value.residuals) == ["inertia_positive", "inertia_negative"]


def test_augment_general_plant_rejects_mismatched_rows() -> None:
    p = random_pr_plant(1, 1, 1, 1, seed=3, kind="general")
    bad = PlantModel(kind="general", f=p.f, g_w=p.g_w, g_u=p.g_u, h=2.0 * p.h, k=p.k)
    with pytest.raises(NotAugmentableError) as info:
        augment_plant(bad)
    assert str(info.value) == "plant output rows do not match the coupling identity"
    assert list(info.value.residuals) == ["row_mismatch", "feedthrough"]


def general_controller() -> ControllerModel:
    f_c = doubled([[-2.0 + 0.5j]], [[0.3]])
    g_cy = doubled([[0.4]], [[0.1]])
    h_c = doubled([[0.5]], [[-0.2]])
    return synth_noise_general(f_c, g_cy, h_c, signature_matrix(1)).controller


def test_augment_general_controller_requires_identity_pattern() -> None:
    c = general_controller()
    bad = ControllerModel(
        kind="general",
        f_c=c.f_c,
        g_cw=c.g_cw,
        g_cy=c.g_cy,
        h_c=c.h_c,
        k_cw=c.k_cw,
        k_cy=doubled([[0.5]], [[0.0]]),
    )
    with pytest.raises(NotAugmentableError) as info:
        augment_controller(bad)
    assert str(info.value) == (
        "controller feedthrough must be the identity pattern ([I, 0] on "
        "its own noise, zero on the measurement)"
    )
    assert list(info.value.residuals) == ["feedthrough"]


def test_augment_general_controller_rejects_mismatched_rows() -> None:
    c = general_controller()
    assert augment_controller(c).verdict.realizable
    bad = ControllerModel(
        kind="general",
        f_c=c.f_c,
        g_cw=c.g_cw,
        g_cy=c.g_cy,
        h_c=2.0 * c.h_c,
        k_cw=c.k_cw,
        k_cy=c.k_cy,
    )
    with pytest.raises(NotAugmentableError) as info:
        augment_controller(bad)
    assert str(info.value) == "controller output rows do not match the coupling identity"
    assert list(info.value.residuals) == ["row_mismatch"]


@pytest.mark.parametrize("seed", [18, 20, 29, 30, 36])
def test_augment_ill_conditioned_synthesized_controller(seed: int) -> None:
    # cond(Theta) reaches 3e9-9e9 at n_c = 16 for these draws; the given
    # rows must be judged by the coupling identity, not through Theta^{-1}
    f_c, g_cy, h_c = random_admissible_triple(np.random.default_rng(seed), 16, 2, 2)
    result = None
    for _ in range(6):
        try:
            result = synth_noise_annihilation(f_c, g_cy, h_c)
            break
        except NotRealizableError:
            g_cy = 0.5 * g_cy
    assert result is not None
    aug = augment_controller(result.controller)
    assert aug.verdict.realizable, aug.verdict.residuals
    assert max_abs(aug.theta - result.theta) <= 1e-8 * max_abs(result.theta)


def test_augment_degenerate_certificate_equation() -> None:
    # lambda = -1 and lambda = 1 cancel in lambda_i + conj(lambda_j)
    p = PlantModel(
        kind="annihilation",
        f=np.diag([-1.0, 1.0]),
        g_w=[[1.0], [1.0]],
        g_u=[[0.5], [-0.5]],
        h=[[1.0, 1.0]],
        k=np.eye(1),
    )
    with pytest.raises(NotAugmentableError) as info:
        augment_plant(p)
    assert str(info.value) == "certificate equation is degenerate (eigenvalue-sum condition fails)"


def completion_controllers(p: PlantModel, seed: int) -> list[ControllerModel]:
    """Challengers and synthesized controllers over the plant's channels."""
    rng = np.random.default_rng(seed)
    if p.kind == "annihilation":
        out = random_challengers(p, 3, seed)
        for n_c in (1, 3):
            # a small measurement gain keeps the certificate Riccati solvable
            f_c, g_cy, h_c = random_admissible_triple(rng, n_c, p.m_y, p.m_u)
            out.append(synth_noise_annihilation(f_c, 0.25 * g_cy, h_c).controller)
        return out

    def draw(rows: int, cols: int) -> np.ndarray:
        return delta_build(
            rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)),
            0.2 * (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))),
        )

    return [
        synth_noise_general(
            draw(n_c, n_c) - 4.0 * np.eye(2 * n_c), draw(n_c, p.m_y), draw(p.m_u, n_c), general_theta(n_c, seed)
        ).controller
        for n_c in (1, 2)
    ]


@pytest.mark.parametrize("kind", ["annihilation", "general"])
@pytest.mark.parametrize(
    "shape",
    [(1, 1, 1, 1), (2, 2, 1, 1), (2, 2, 2, 2), (1, 2, 1, 1), (2, 3, 1, 2), (4, 3, 3, 3), (8, 2, 2, 2)],
)
def test_completion_verdict_is_the_realizability_check(kind, shape) -> None:
    # the completion judges its own Theta; the full check must agree exactly
    rules = _kind_rules(kind)
    checked = 0
    for seed in range(3):
        p = random_pr_plant(*shape, seed=40 + seed, kind=kind)
        augs = [augment_plant(p)] + [augment_controller(c) for c in completion_controllers(p, seed)]
        for aug in augs:
            got, want = aug.verdict, rules.check(aug.system)
            assert (got.realizable, got.indeterminate, got.failure_reason) == (
                want.realizable,
                want.indeterminate,
                want.failure_reason,
            )
            assert list(got.residuals.items()) == list(want.residuals.items())
            assert np.array_equal(got.theta, want.theta)
            checked += got.realizable
    assert checked >= 9


def _completion_outcome(outcome) -> tuple:
    """A completion (its matrices, then its verdict), or the error that ended it, as comparable
    bytes and hex."""
    if isinstance(outcome, Exception):
        residuals = getattr(outcome, "residuals", {})
        return type(outcome).__name__, str(outcome), {k: float(v).hex() for k, v in residuals.items()}
    *matrices, verdict = outcome
    residuals = [(k, float(v).hex()) for k, v in verdict.residuals.items()]
    return [x.tobytes() for x in matrices], verdict.realizable, verdict.failure_reason, residuals


@pytest.mark.parametrize("kind", ["annihilation", "general"])
@pytest.mark.parametrize("shape", [(2, 2, 1, 1), (2, 3, 1, 2)])
def test_stacked_controller_completions_match_augment_controller(kind, shape) -> None:
    # one stack of equal-shape controllers, valid ones among ones that fail the feedthrough,
    # inertia, row or eigenvalue-sum test: each item ends as augment_controller ends on it
    for seed in range(3):
        p = random_pr_plant(*shape, seed=50 + seed, kind=kind)
        if kind == "annihilation":
            valid = [c for c in random_challengers(p, 20, seed) if c.n_modes == 1][:3]
            degenerate, nudge = np.array([[1j]]), 0.1
        else:
            valid = [c for c in completion_controllers(p, seed) if c.n_modes == 1] * 3
            degenerate, nudge = delta_build([[1j]], [[0.0]]), delta_build([[0.1]], [[0.0]])
        bent = [
            replace(valid[0], k_cy=valid[0].k_cy + 0.5),  # feedthrough
            replace(valid[1], f_c=-valid[1].f_c),  # inertia (annihilation kind)
            replace(valid[1], h_c=valid[1].h_c + nudge),  # rows
            replace(valid[2], f_c=degenerate),  # eigenvalue sum
        ]
        ctrls = [valid[0], *bent[:2], valid[1], *bent[2:], valid[2]]
        names = ("f_c", "g_cw", "g_cy", "h_c", "k_cw", "k_cy")
        done = _controller_completions(kind, *(np.stack([getattr(c, name) for c in ctrls]) for name in names))
        got = {j: done.errors[j] for j in done.errors}
        got.update({j: (done.theta[i], done.h_tilde[i], done.verdicts[i]) for i, j in enumerate(done.done)})
        for j, ctrl in enumerate(ctrls):
            try:
                aug = augment_controller(ctrl)
                want = (aug.theta, aug.h_tilde, aug.verdict)
            except NotAugmentableError as exc:
                want = exc
            assert _completion_outcome(got[j]) == _completion_outcome(want), (seed, j)
        reasons = {str(got[j]).split(" (")[0] for j in done.errors}
        assert len(done.done) == 3 and len(reasons) == (4 if kind == "annihilation" else 3), reasons


def reference_augment_controller(c: ControllerModel) -> tuple:
    """augment_controller on one controller, each stage raising its own error in turn: the
    feedthrough pattern, the certificate solve, the inertia, then the coupling rows."""
    feed_dev = max(max_abs(c.k_cw - _identity_pattern(c.kind, c.m_u, c.m_wt)), max_abs(c.k_cy))
    if feed_dev > RESIDUAL_TOL:
        raise NotAugmentableError(
            "controller feedthrough must be the identity pattern ([I, 0] on its own noise, zero on the measurement)",
            residuals={"feedthrough": feed_dev},
        )
    d = 2 if c.kind == "general" else 1
    g = _stack_cols([c.g_cw, c.g_cy], d)
    n, m_tot = c.f_c.shape[0] // d, g.shape[1] // d
    sig = _kind_rules(c.kind).signature(m_tot)
    q = _noise_term(g, sig)
    try:
        theta = _solve_certificate(c.f_c, q, d)
    except SingularityError:
        raise NotAugmentableError("certificate equation is degenerate (eigenvalue-sum condition fails)") from None
    pos, neg, _ = inertia = _inertia(theta)
    if not _has_certificate_inertia(inertia, n, d):
        if d == 2:
            raise NotAugmentableError(
                "certificate lacks the required inertia",
                residuals={"inertia_positive": float(pos), "inertia_negative": float(neg)},
            )
        raise NotAugmentableError(
            "no positive definite certificate for the augmented controller",
            residuals={"theta_min_eig": float(np.min(np.linalg.eigvalsh(theta)))},
        )
    h_full = -sig @ dagger(g) @ np.linalg.inv(theta)
    given = _field_index(m_tot, 0, c.h_c.shape[0] // d, d)
    h_aug = h_full.copy()
    h_aug[given] = c.h_c
    coupling: dict = {}
    if _coupling_defect(g, theta, h_aug, sig, coupling, RESIDUAL_TOL):
        raise NotAugmentableError(
            "controller output rows do not match the coupling identity",
            residuals={"row_mismatch": coupling["coupling"]},
        )
    residuals = {"feedthrough": 0.0}
    failed = "lyapunov" if _lyapunov_defect(c.f_c, theta, q, residuals, RESIDUAL_TOL) else None
    if failed is None:
        residuals.update(coupling)
    verdict = PrVerdict(failed is None, None if failed else theta, residuals, failed)
    return theta, np.delete(h_full, given, axis=0), verdict


def two_stage_failures(kind: str, seed: int) -> list[ControllerModel]:
    """Equal-shape controllers (n_c = 1) over a plant's channels: most fail two completion stages
    (feedthrough, solve, inertia, rows), one fails the rows only and the last one is valid."""
    p = random_pr_plant(2, 2, 1, 1, seed=70 + seed, kind=kind)
    if kind == "annihilation":
        c = [ctrl for ctrl in random_challengers(p, 20, seed) if ctrl.n_modes == 1][0]
        degenerate, nudge = np.array([[1j]]), 0.1
        inertia = {"f_c": -c.f_c}
    else:
        c = [ctrl for ctrl in completion_controllers(p, seed) if ctrl.n_modes == 1][0]
        degenerate, nudge = delta_build([[1j]], [[0.0]]), delta_build([[0.1]], [[0.0]])
        inertia = {"g_cw": np.zeros_like(c.g_cw), "g_cy": delta_build(np.ones((1, 1)), np.ones((1, 1)))}  # Theta = 0
    feedthrough, rows = {"k_cy": c.k_cy + 0.5}, {"h_c": c.h_c + nudge}
    return [
        replace(c, f_c=degenerate, **feedthrough),
        replace(c, **feedthrough, **rows),
        replace(c, f_c=degenerate, **rows),
        replace(c, **{**inertia, "g_cy": 1e200 * inertia.get("g_cy", c.g_cy)}),  # the solver's DomainError
        replace(c, **inertia, **rows),
        replace(c, **rows),
        c,
    ]


def _stack_outcomes(kind: str, ctrls: list[ControllerModel]) -> list:
    """Per controller of one stack: its completion (Theta, H_tilde, H_aug, G, verdict) or its error."""
    names = ("f_c", "g_cw", "g_cy", "h_c", "k_cw", "k_cy")
    done = _controller_completions(kind, *(np.stack([getattr(c, name) for c in ctrls]) for name in names))
    out = [done.errors.get(j) for j in range(len(ctrls))]
    for i, j in enumerate(done.done):
        out[j] = (done.theta[i], done.h_tilde[i], done.h_aug[i], done.g[i], done.verdicts[i])
    return out


@pytest.mark.parametrize("kind", ["annihilation", "general"])
def test_the_first_failed_stage_ends_each_stacked_completion(kind) -> None:
    # a stacked completion keeps each item's first failure, in the per-controller order:
    # feedthrough, solve, inertia, rows
    for seed in range(3):
        ctrls = two_stage_failures(kind, seed)
        for j, (ctrl, got) in enumerate(zip(ctrls, _stack_outcomes(kind, ctrls))):
            try:
                want = reference_augment_controller(ctrl)
            except (NotAugmentableError, DomainError) as exc:
                want = exc
            got = (got[0], got[1], got[-1]) if isinstance(got, tuple) else got
            assert _completion_outcome(got) == _completion_outcome(want), (seed, j)
        firsts = [str(out).split(" (")[0] for out in _stack_outcomes(kind, ctrls)[:6]]
        assert firsts == [
            "controller feedthrough must be the identity pattern",
            "controller feedthrough must be the identity pattern",
            "certificate equation is degenerate",
            "q has non-finite entries",
            "no positive definite certificate for the augmented controller"
            if kind == "annihilation"
            else "certificate lacks the required inertia",
            "controller output rows do not match the coupling identity",
        ]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(["annihilation", "general"]),
    seed=st.integers(0, 2),
    picks=st.lists(st.integers(0, 6), min_size=1, max_size=7),
    position=st.integers(0, 6),
)
def test_a_stacked_completion_does_not_depend_on_its_neighbours(kind, seed, picks, position) -> None:
    ctrls = [two_stage_failures(kind, seed)[i] for i in picks]
    j = position % len(ctrls)
    alone = _stack_outcomes(kind, ctrls[j : j + 1])[0]
    assert _completion_outcome(_stack_outcomes(kind, ctrls)[j]) == _completion_outcome(alone)


# ---------------------------------------------------------------------------
# loop composition


def test_close_loop_trivial_controller(cavity_plant) -> None:
    cl = close_loop(cavity_plant, trivial_controller(m_y=1, m_u=1))
    np.testing.assert_array_equal(cl.state_matrix, cavity_plant.f)
    np.testing.assert_array_equal(
        cl.system.b, np.hstack([cavity_plant.g_w, cavity_plant.g_u])
    )
    assert cl.internally_stable


def test_close_loop_static_gain_shifts_pole(cavity_plant) -> None:
    # f + g_u k_cy h = -1 + (-1) kappa (1)
    for kappa in (-0.5, 0.5, 2.0):
        cl = close_loop(cavity_plant, static_controller([[kappa]], [[1.0]]))
        np.testing.assert_allclose(cl.state_matrix, [[-1.0 - kappa]], atol=1e-14)


def test_close_loop_dimension_mismatch(cavity_plant) -> None:
    with pytest.raises(DimensionError):
        close_loop(cavity_plant, trivial_controller(m_y=2, m_u=1))


@pytest.mark.parametrize("with_cost", [True, False], ids=["cost", "no-cost"])
def test_stacked_loop_matrices_match_close_loop(with_cost) -> None:
    # slice i of a stacked assembly is close_loop's (A, B, C_z, D_z) for controller i,
    # bit for bit, whether every block is stacked or the feedthroughs are shared
    rng = np.random.default_rng(29)
    p = random_pr_plant(2, 3, 2, 2, seed=29)
    if with_cost:
        p = p.with_cost(CostOutput(c=rng.standard_normal((2, 2)), d=rng.standard_normal((2, 2))))
    for n_c in (1, 2):
        base = [c for c in random_challengers(p, 12, 29) if c.n_modes == n_c]
        varied = [
            replace(c, k_cy=rng.standard_normal((2, 2)), k_cw=rng.standard_normal(c.k_cw.shape)) for c in base
        ]
        for ctrls, shared in ((varied, False), (base, True)):
            names = ("f_c", "g_cw", "g_cy", "h_c", "k_cw", "k_cy")
            blocks = [np.stack([getattr(c, name) for c in ctrls]) for name in names]
            if shared:
                blocks[4:] = [blk[0] for blk in blocks[4:]]
            loop = _loop_matrices(p, *blocks)
            stacked = [np.broadcast_to(x, (len(ctrls), *x.shape[-2:])) for x in loop]
            for i, c in enumerate(ctrls):
                g = close_loop(p, c).system
                for got, want in zip(stacked, (g.a, g.b, g.c, g.d)):
                    assert got[i].shape == want.shape and got[i].tobytes() == want.tobytes()


def test_gamma_cl_trivial_controller_restriction(cavity_plant_with_cost) -> None:
    g = gamma_cl(cavity_plant_with_cost, trivial_controller(1, 1))
    p = cavity_plant_with_cost
    for s in (0.3, 1.0 + 1.0j, 5.0):
        xp = np.linalg.inv(s * np.eye(1) - p.f)
        want_w = p.cost.c @ xp @ p.g_w
        want_wt = p.cost.c @ xp @ p.g_u
        got = tf_eval(g, s)
        np.testing.assert_allclose(got[:, :1], want_w, atol=1e-12)
        np.testing.assert_allclose(got[:, 1:], want_wt, atol=1e-12)


@pytest.mark.parametrize(
    "cost_d, feedthrough, points",
    [
        (0.0, False, (1.0 + 1.0j,)),
        # D != 0 with K_cy and K_cw != 0 pins the cost terms D K_cy (state, W) and D K_cw (W-tilde)
        (0.5, True, (0.0, 1j, -3j, 10j, 0.5 + 2j)),
    ],
    ids=["synthesized", "feedthroughs-with-cost-d"],
)
def test_gamma_cl_matches_transfer_loop_algebra(cost_d, feedthrough, points) -> None:
    p = random_pr_plant(2, 2, 1, 1, seed=17).with_cost(
        CostOutput(c=np.array([[0.4, -0.2]]), d=[[cost_d]])
    )
    c = synth_noise_annihilation([[-2.0]], np.array([[0.3]]), np.array([[0.6]])).controller
    if feedthrough:
        c = replace(c, k_cw=0.7 * c.k_cw, k_cy=np.array([[0.3]]))
    g = gamma_cl(p, c)
    for s in points:
        np.testing.assert_allclose(tf_eval(g, s), loop_tf_oracle(p, c, s), atol=1e-9)


# ---------------------------------------------------------------------------
# general kind: closed loop

GENERAL_K_CY = [np.zeros((2, 2)), delta_build([[0.3]], [[0.1]])]


def general_pair(k_cy) -> tuple[PlantModel, ControllerModel]:
    """A doubled-up plant with a doubled-up cost and a synthesized controller."""
    rng = np.random.default_rng(29)
    p = random_pr_plant(2, 2, 1, 1, seed=21, kind="general").with_cost(
        CostOutput(
            c=delta_build(rng.standard_normal((1, 2)), rng.standard_normal((1, 2))),
            d=delta_build(rng.standard_normal((1, 1)), rng.standard_normal((1, 1))),
        )
    )
    c = general_controller()
    c = ControllerModel(
        kind="general", f_c=c.f_c, g_cw=c.g_cw, g_cy=c.g_cy, h_c=c.h_c, k_cw=c.k_cw, k_cy=k_cy
    )
    return p, c


@pytest.mark.parametrize("k_cy", GENERAL_K_CY)
def test_close_loop_general_kind_is_doubled_up(k_cy) -> None:
    p, c = general_pair(k_cy)
    loop = close_loop(p, c)
    n_states = 2 * (p.n_modes + c.n_modes)
    m_w, m_wt = p.m_w, c.m_wt
    assert loop.state_matrix.shape == (n_states, n_states)
    assert loop.system.b.shape == (n_states, 2 * (m_w + m_wt))
    for mat in (loop.system.a, loop.system.b, loop.system.c, loop.system.d):
        assert is_doubled(mat)
    assert loop.channel_map == {
        "w": (0, m_w),
        "w_tilde": (m_w, m_w + m_wt),
        "w_conj": (m_w + m_wt, 2 * m_w + m_wt),
        "w_tilde_conj": (2 * m_w + m_wt, 2 * (m_w + m_wt)),
    }


@pytest.mark.parametrize("k_cy", GENERAL_K_CY)
def test_close_loop_general_kind_matches_transfer_loop_algebra(k_cy) -> None:
    # the oracle stacks noises per subsystem; the loop orders them canonically
    p, c = general_pair(k_cy)
    canonical = doubling_permutation([p.m_w, c.m_wt])
    for s in (0.3 + 0.7j, -0.2j, 2.0):
        want = loop_tf_oracle(p, c, s)[:, canonical]
        np.testing.assert_allclose(tf_eval(gamma_cl(p, c), s), want, atol=1e-10)


# ---------------------------------------------------------------------------
# noise synthesis, annihilation kind


def test_synth_boundary_all_pass_triple() -> None:
    # theta = 1 solves -2 + 1 + g^2 = 0 with one extra channel g = 1
    result = synth_noise_annihilation([[-1.0]], [[0.0]], [[1.0]])
    np.testing.assert_allclose(result.theta, [[1.0]], atol=1e-6)
    assert result.extra_channels == 1
    assert not result.zero_noise
    np.testing.assert_allclose(result.controller.g_cw[0, 0], -1.0, atol=1e-6)
    np.testing.assert_allclose(abs(result.controller.g_cw[0, 1]), 1.0, atol=1e-6)
    np.testing.assert_allclose(result.admissibility_norm, 1.0, atol=1e-5)


def test_synth_rejects_gain_above_one() -> None:
    with pytest.raises(NotRealizableError, match="H∞ admissibility failed: 2.0 > 1"):
        synth_noise_annihilation([[-1.0]], [[0.0]], [[2.0]])


def test_synth_zero_extra_noise_branch() -> None:
    # -2 theta + 1 = 0 gives the certificate 1/2 with no extra channel
    result = synth_noise_annihilation([[-1.0]], [[1.0]], [[0.0]])
    np.testing.assert_allclose(result.theta, [[0.5]], atol=1e-10)
    assert result.extra_channels == 0
    assert result.zero_noise


@pytest.mark.parametrize("m_u, m_y", [(1, 1), (2, 1), (1, 3), (3, 2)])
def test_synth_without_states_is_the_trivial_controller(m_u: int, m_y: int) -> None:
    result = synth_noise_annihilation(np.zeros((0, 0)), np.zeros((0, m_y)), np.zeros((m_u, 0)))
    want = trivial_controller(m_y, m_u)
    assert result.controller.kind == want.kind
    for name in want._layout:
        got, expected = getattr(result.controller, name), getattr(want, name)
        assert got.dtype == expected.dtype and np.array_equal(got, expected), name
    assert result.theta.shape == (0, 0) and result.theta.dtype == complex
    assert (result.extra_channels, result.zero_noise, result.admissibility_norm) == (0, True, 0.0)


@pytest.mark.parametrize("triple", [([[-1.0]], [[0.5]], [[1e-200]]), ([[-1e160]], [[0.5]], [[1.0]])])
def test_synth_with_an_admissibility_norm_whose_square_underflows_raises_a_domain_error(triple) -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="its square underflows"):
            synth_noise_annihilation(*triple)


def test_synth_rejects_unstable_state_matrix() -> None:
    with pytest.raises(NotRealizableError, match="Hurwitz"):
        synth_noise_annihilation([[1.0]], [[0.0]], [[0.5]])


@pytest.mark.parametrize("alpha", [0.9, 0.99])
def test_synth_admissibility_below_boundary(alpha: float) -> None:
    result = synth_noise_annihilation([[-1.0]], [[0.0]], [[alpha]])
    assert result.admissibility_norm <= 1.0 + 1e-5


@pytest.mark.parametrize("alpha", [1.01, 1.1])
def test_synth_admissibility_above_boundary(alpha: float) -> None:
    with pytest.raises(NotRealizableError):
        synth_noise_annihilation([[-1.0]], [[0.0]], [[alpha]])


def test_synthesized_augmentations_satisfy_certificate_equations() -> None:
    rng = np.random.default_rng(71)
    checked = 0
    for _ in range(25):
        n_c = int(rng.integers(1, 4))
        m_u = int(rng.integers(1, 3))
        m_y = int(rng.integers(1, 3))
        f_c = rng.standard_normal((n_c, n_c)) + 1j * rng.standard_normal((n_c, n_c))
        f_c -= (np.max(np.abs(np.linalg.eigvals(f_c).real)) + 0.6) * np.eye(n_c)
        h_c = rng.standard_normal((m_u, n_c)) + 1j * rng.standard_normal((m_u, n_c))
        nu = hinf_norm(
            StateSpaceTF(f_c, np.eye(n_c), h_c, np.zeros((m_u, n_c)))
        ).value
        h_c = h_c * (0.8 / max(nu, 1e-6))
        g_cy = 0.5 * (rng.standard_normal((n_c, m_y)) + 1j * rng.standard_normal((n_c, m_y)))
        result = None
        for _ in range(6):
            # a large measurement gain can defeat the certificate Riccati even
            # for an admissible (F_c, H_c) pair, so shrink it until synthesis
            # goes through
            try:
                result = synth_noise_annihilation(f_c, g_cy, h_c)
                break
            except NotRealizableError:
                g_cy = g_cy / 2.0
        assert result is not None
        aug = augment_controller(result.controller)
        s = aug.system
        theta = aug.theta
        scale = 1.0 + max_abs(s.g) ** 2
        assert max_abs(s.f @ theta + theta @ dagger(s.f) + s.g @ dagger(s.g)) <= 1e-8 * scale
        assert max_abs(s.g + theta @ dagger(s.h)) <= 1e-8 * scale
        assert aug.verdict.realizable
        checked += 1
    assert checked == 25


# ---------------------------------------------------------------------------
# noise synthesis, general kind


def general_theta(n_c: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    t = delta_build(
        rng.standard_normal((n_c, n_c)) + 1j * rng.standard_normal((n_c, n_c)),
        rng.standard_normal((n_c, n_c)) + 1j * rng.standard_normal((n_c, n_c)),
    )
    return t @ signature_matrix(n_c) @ t.conj().T


def test_synth_general_random_triple_augments_realizably() -> None:
    rng = np.random.default_rng(73)
    f_c = delta_build(
        rng.standard_normal((1, 1)) + 1j * rng.standard_normal((1, 1)),
        rng.standard_normal((1, 1)) + 1j * rng.standard_normal((1, 1)),
    ) - 3.0 * np.eye(2)
    g_cy = delta_build([[0.4]], [[0.1]])
    h_c = delta_build([[0.5]], [[-0.2]])
    result = synth_noise_general(f_c, g_cy, h_c, general_theta(1, 5))
    aug = augment_controller(result.controller)
    assert aug.verdict.realizable, aug.verdict.residuals


def test_synth_general_sign_split_defect() -> None:
    # theta = J and F_c = I make the defect diag(2, -2): one channel per sign
    theta = signature_matrix(1)
    f_c = np.eye(2)
    zeros = np.zeros((2, 2))
    result = synth_noise_general(f_c, zeros, zeros, theta)
    assert result.extra_channels == 1
    assert not result.zero_noise
    g_cw = result.controller.g_cw
    # defect = G_cw2b G_cw2b^dagger - G_cw1b G_cw1b^dagger must equal diag(2, -2)
    g1b, g2b = g_cw[:, 1:2], g_cw[:, 3:4]
    np.testing.assert_allclose(
        g2b @ dagger(g2b) - g1b @ dagger(g1b), np.diag([2.0, -2.0]), atol=1e-10
    )


def test_synth_general_zero_defect_reports_zero_noise() -> None:
    # purely imaginary pole pair: F_c theta + theta F_c^dagger = 0
    theta = signature_matrix(1)
    f_c = np.diag([1j, -1j])
    zeros = np.zeros((2, 2))
    result = synth_noise_general(f_c, zeros, zeros, theta)
    assert result.zero_noise
    assert result.extra_channels == 0


@pytest.mark.parametrize("delta", [0.0, 1e-9, 1e-7])
def test_synth_general_zero_noise_means_no_extra_channel(delta: float) -> None:
    s = random_pr_system(2, 1, seed=3, kind="general")
    theta = check_pr_general(s).theta
    f_c = s.f + delta * delta_build(np.eye(2), np.zeros((2, 2)))
    result = synth_noise_general(f_c, np.zeros((4, 2)), s.h, theta)
    assert result.zero_noise == (result.extra_channels == 0)


def test_synth_general_rejects_bad_theta() -> None:
    f_c = -np.eye(2)
    zeros = np.zeros((2, 2))
    with pytest.raises(DomainError):
        synth_noise_general(f_c, zeros, zeros, np.eye(2))
    with pytest.raises(DomainError):
        synth_noise_general(f_c, zeros, zeros, np.diag([2.0, -1.0]))
    with pytest.raises(DomainError):
        synth_noise_general(f_c, zeros, zeros, [[0.0, 1.0], [0.0, 0.0]])


def test_synth_general_rejects_a_non_square_theta() -> None:
    s = random_pr_system(1, 1, 0, kind="general")
    with pytest.raises(DimensionError):
        synth_noise_general(s.f, s.g, s.h, np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# augmented loop composition and static completion


def test_close_augmented_loop_certificate_is_exact(cavity_plant) -> None:
    loop = close_augmented_loop(cavity_plant, trivial_controller(1, 1))
    s = loop.system
    theta = loop.theta
    assert max_abs(s.a @ theta + theta @ dagger(s.a) + s.b @ dagger(s.b)) <= 1e-12
    assert max_abs(s.b + theta @ dagger(s.c)) <= 1e-12
    np.testing.assert_array_equal(s.d, np.eye(2))
    assert loop.internally_stable


def test_close_augmented_loop_is_pointwise_all_pass(cavity_plant) -> None:
    loop = close_augmented_loop(cavity_plant, trivial_controller(1, 1))
    for omega in np.linspace(-30.0, 30.0, 41):
        gm = tf_eval(loop.system, 1j * omega)
        np.testing.assert_allclose(
            gm.conj().T @ gm, np.eye(gm.shape[1]), atol=1e-10
        )


def test_close_augmented_loop_channel_map(cavity_plant) -> None:
    c = static_controller(np.zeros((1, 1)), _identity_pad(1, 2))
    loop = close_augmented_loop(cavity_plant, c)
    assert loop.channel_map == {
        "replaced_output": (0, 1),
        "plant_unused": (1, 2),
        "controller_unused": (2, 3),
    }
    assert loop.system.d.shape == (3, 3)


def _augmented_rows_by_hand(p: PlantModel, c: ControllerModel) -> tuple[np.ndarray, np.ndarray]:
    """The augmented loop's output rows assembled from the controller's completed H."""
    m_w, m_u, m_y, m_wt = p.m_w, p.m_u, p.m_y, c.m_wt
    r = m_wt - m_u
    h_caug = augment_controller(c).system.h
    eye_py = np.eye(m_w + m_u, dtype=complex)
    k_t, k_bar = eye_py[m_y:, :m_w], eye_py[m_y:, m_w:]
    c_rows = np.vstack(
        [
            np.hstack([p.h, h_caug[m_wt:]]),
            np.hstack([augment_plant(p).h_tilde, k_bar @ c.h_c]),
            np.hstack([np.zeros((r, p.n_modes), dtype=complex), h_caug[m_u:m_wt]]),
        ]
    )
    d_rows = np.vstack(
        [
            np.hstack([p.k, np.zeros((m_y, m_wt), dtype=complex)]),
            np.hstack([k_t, k_bar @ c.k_cw]),
            np.hstack([np.zeros((r, m_w), dtype=complex), np.eye(m_wt)[m_u:, :]]),
        ]
    )
    return c_rows, d_rows


@pytest.mark.parametrize("shape", [(1, 1, 1, 1), (2, 2, 1, 1), (2, 2, 2, 2), (1, 2, 1, 1), (2, 3, 1, 2)])
def test_augmented_loop_rows_match_the_controller_completion_bit_for_bit(shape) -> None:
    # the loop reads the controller's rows off its completion's unused rows (h_tilde);
    # they are the rows of the completed H past the given ones, so nothing may move
    n, m_w, m_u, m_y = shape
    p = random_pr_plant(n, m_w, m_u, m_y, seed=7)
    for c in [trivial_controller(m_y, m_u), *random_challengers(p, count=2, seed=7)]:
        loop = close_augmented_loop(p, c)
        c_rows, d_rows = _augmented_rows_by_hand(p, c)
        assert loop.system.c.tobytes() == c_rows.tobytes() and loop.system.c.shape == c_rows.shape
        assert loop.system.d.tobytes() == d_rows.tobytes() and loop.system.d.shape == d_rows.shape


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 4),
    m_y=st.integers(1, 2),
    extra_noise=st.integers(0, 1),
    m_u=st.integers(1, 2),
)
def test_augmented_loop_certificate_holds_for_trivial_and_challengers(
    seed, n, m_y, extra_noise, m_u
) -> None:
    p = random_pr_plant(n, m_y + extra_noise, m_u, m_y, seed=seed)
    challengers = random_challengers(p, count=2, seed=seed)
    for c in [trivial_controller(m_y, m_u), *challengers]:
        loop = close_augmented_loop(p, c)
        a, b, c_out, d = loop.system.a, loop.system.b, loop.system.c, loop.system.d
        theta = loop.theta
        lyap = a @ theta + theta @ dagger(a) + b @ dagger(b)
        assert max_abs(lyap) <= 1e-10 * (1.0 + max_abs(a) * max_abs(theta) + max_abs(b) ** 2)
        coupling = b + theta @ dagger(c_out) @ d
        assert max_abs(coupling) <= 1e-10 * (1.0 + max_abs(b) + max_abs(theta) * max_abs(c_out))
        assert max_abs(dagger(d) @ d - np.eye(d.shape[1])) <= 1e-10


def test_complete_static_pr_zero_gain_fast_path(cavity_plant) -> None:
    k_cw, theta = complete_static_pr(cavity_plant, np.zeros((1, 1)))
    np.testing.assert_array_equal(k_cw, np.eye(1))
    np.testing.assert_allclose(theta, [[1.0]], atol=1e-10)


def test_complete_static_pr_cavity_grid(cavity_plant) -> None:
    # coupling forces theta = 1 + c; the Gram completion is (1 + c)^2
    for c_val in (-0.5, 0.0, 0.5, 1.0, 2.0):
        out = complete_static_pr(cavity_plant, [[c_val]])
        assert out is not None, c_val
        k_cw, theta = out
        np.testing.assert_allclose(theta, [[1.0 + c_val]], atol=1e-8)
        np.testing.assert_allclose(
            k_cw @ dagger(k_cw), [[(1.0 + c_val) ** 2]], atol=1e-8
        )


def test_complete_static_pr_rejects_a_gain_whose_fold_squares_past_the_float_range() -> None:
    p = random_pr_plant(1, 1, 1, 1, seed=0)
    with pytest.raises(DomainError, match="folded noise matrix .* its square overflows"):
        complete_static_pr(p, [[1e200]])


@pytest.mark.parametrize("c_val", [-1.0, -2.0])
def test_complete_static_pr_infeasible_below_boundary(cavity_plant, c_val) -> None:
    assert complete_static_pr(cavity_plant, [[c_val]]) is None


# the five acceptance shapes, a 64-draw random-gain shape (m_u = 3) and n = 0
@pytest.mark.parametrize(
    "shape",
    [(1, 1, 1, 1), (2, 2, 1, 1), (2, 2, 2, 2), (1, 2, 1, 1), (2, 3, 1, 2)]
    + [(1, 3, 3, 1), (0, 1, 1, 1)],
)
def test_static_screen_rejects_only_gains_the_completion_rejects(shape) -> None:
    n, m_w, m_u, m_y = shape
    for seed in range(3):
        p = stateless_plant() if n == 0 else random_pr_plant(n, m_w, m_u, m_y, seed=900 + seed)
        gains = _static_gain_candidates(m_u, m_y, 1729 + seed)
        bounds = _static_screen(p, gains)
        assert bounds.shape == (len(gains),)
        rejected = bounds > RESIDUAL_TOL
        for k_cy in gains[rejected]:
            assert complete_static_pr(p, k_cy) is None, (shape, seed, k_cy)
        assert not rejected[np.abs(gains).max(axis=(1, 2)) == 0.0].any()
        if n * n < 2 * n * m_y:
            # fewer Hermitian unknowns than real coupling rows: a random target is off the span
            assert rejected.any(), (shape, seed)
        if n == 0:
            assert not rejected.any()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 3),
    m_y=st.integers(1, 2),
    extra_noise=st.integers(0, 1),
    m_u=st.integers(1, 3),
    exponent=st.integers(-8, 0),
)
def test_static_screen_bound_is_below_the_full_residual(
    seed, n, m_y, extra_noise, m_u, exponent
) -> None:
    # off-grid complex gains of magnitude 10^exponent against the full
    # completion system, rebuilt here: Theta_a and S unknowns, certificate
    # and coupling equations
    p = random_pr_plant(n, m_y + extra_noise, m_u, m_y, seed=seed)
    rng = np.random.default_rng(seed)
    gains = 10.0**exponent * (
        rng.uniform(-2.0, 2.0, (4, m_u, m_y)) + 1j * rng.uniform(-2.0, 2.0, (4, m_u, m_y))
    )
    basis_t, basis_s = hermitian_basis(n), hermitian_basis(m_u)
    for k_cy, bound in zip(gains, _static_screen(p, gains)):
        f_fold = p.f + p.g_u @ k_cy @ p.h
        g_fold = p.g_w + p.g_u @ k_cy @ p.k
        target = -(p.g_w[:, :m_y] + p.g_u @ k_cy)
        _, residual, _ = real_lstsq(
            [
                np.concatenate(
                    [f_fold @ basis_t + basis_t @ dagger(f_fold), p.g_u @ basis_s @ dagger(p.g_u)]
                ),
                np.concatenate(
                    [basis_t @ dagger(p.h), np.zeros((m_u * m_u, n, m_y), dtype=complex)]
                ),
            ],
            [-(g_fold @ dagger(g_fold)), target],
        )
        scale = 1.0 + max_abs(g_fold) ** 2 + max_abs(target)
        assert bound * scale <= residual + 1e-12 * scale, (bound * scale, residual)


def test_random_pr_plant_is_augmentable() -> None:
    for seed in range(10):
        p = random_pr_plant(2, 2, 1, 1, seed=seed)
        aug = augment_plant(p)
        assert aug.verdict.realizable
        assert check_pr_annihilation(aug.system).realizable


def test_random_pr_plant_general_kind() -> None:
    p = random_pr_plant(2, 2, 1, 1, seed=3, kind="general")
    aug = augment_plant(p)
    assert check_pr_general(aug.system).realizable


def test_random_pr_plant_rejects_invalid_split() -> None:
    with pytest.raises(DimensionError):
        random_pr_plant(1, 1, 1, 2, seed=0)
