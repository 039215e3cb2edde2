"""Tests for plant/controller models, loop composition and noise synthesis.

The scalar cavity oracles are one-line computations recorded next to the
assertions; the frequency-domain equivalences compare two independent
composition paths (state-space blocks vs transfer-function loop algebra).
"""

from __future__ import annotations

import numpy as np
import pytest

from qfeedback import (
    ControllerModel,
    CostOutput,
    DimensionError,
    DomainError,
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
    modified_forms,
    random_pr_plant,
    signature_matrix,
    static_controller,
    synth_noise_annihilation,
    synth_noise_general,
    tf_eval,
    trivial_controller,
)
from qfeedback.coherent import random_admissible_triple
from qfeedback.feedback import _identity_pad
from qfeedback.linalg import dagger, doubling_permutation, is_doubled, max_abs


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
    with pytest.raises(NotAugmentableError):
        augment_plant(p)


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


def test_gamma_cl_matches_transfer_loop_algebra() -> None:
    p = random_pr_plant(2, 2, 1, 1, seed=17).with_cost(
        CostOutput(c=np.array([[0.4, -0.2]]), d=np.zeros((1, 1)))
    )
    synth = synth_noise_annihilation(
        [[-2.0]], np.array([[0.3]]), np.array([[0.6]])
    )
    g = gamma_cl(p, synth.controller)
    s = 1.0 + 1.0j
    np.testing.assert_allclose(
        tf_eval(g, s), loop_tf_oracle(p, synth.controller, s), atol=1e-9
    )


def test_modified_forms_widens_noise_with_control_columns(cavity_plant) -> None:
    p_mod, c_mod = modified_forms(cavity_plant, trivial_controller(1, 1))
    np.testing.assert_array_equal(p_mod.g_w[:, 1:], cavity_plant.g_u)
    assert max_abs(c_mod.k_cw) == 0.0
    assert max_abs(c_mod.k_cy) == 0.0


def test_modified_forms_state_matrix_shift(cavity_plant) -> None:
    # f + g_u k_cy h = -1 + (-1)(-1)(1) = 0
    p_mod, _ = modified_forms(cavity_plant, static_controller([[-1.0]], [[1.0]]))
    np.testing.assert_allclose(p_mod.f, [[0.0]], atol=1e-14)


def share_w_tilde(m_w: int, m_wt: int) -> np.ndarray:
    """Columns (W, plant's W-tilde, controller's W-tilde) -> (W, W-tilde), summing the copies."""
    share = np.zeros((m_w + 2 * m_wt, m_w + m_wt))
    share[:m_w, :m_w] = np.eye(m_w)
    share[m_w : m_w + m_wt, m_w:] = np.eye(m_wt)
    share[m_w + m_wt :, m_w:] = np.eye(m_wt)
    return share


def test_modified_forms_loop_equivalence_20_frequencies() -> None:
    rng = np.random.default_rng(67)
    for seed in range(10):
        p = random_pr_plant(2, 2, 1, 1, seed=400 + seed).with_cost(
            CostOutput(c=rng.standard_normal((1, 2)), d=np.zeros((1, 1)))
        )
        synth = synth_noise_annihilation([[-1.5]], [[0.4]], [[0.7]])
        base = synth.controller
        k_cw = np.full((1, base.m_wt), 0.5)
        k_cw[0, 0] = 1.0
        c = ControllerModel(
            kind="annihilation",
            f_c=base.f_c,
            g_cw=base.g_cw,
            g_cy=base.g_cy,
            h_c=base.h_c,
            k_cw=k_cw,
            k_cy=np.array([[0.3]]),
        )
        g_orig = gamma_cl(p, c)
        p_mod, c_mod = modified_forms(p, c)
        g_mod = gamma_cl(p_mod, c_mod)
        share = share_w_tilde(p.m_w, c.m_wt)
        for omega in np.linspace(-8.0, 8.0, 20):
            got = tf_eval(g_mod, 1j * omega) @ share
            want = tf_eval(g_orig, 1j * omega)
            assert max_abs(got - want) <= 1e-9, (seed, omega)


def test_modified_forms_drops_the_cost_feedthrough_through_k_cw() -> None:
    # the folded controller has K_cw = 0, so the direct term D K_cw from
    # W-tilde to the cost is lost when D != 0; adding it back restores the loop
    p = random_pr_plant(2, 2, 1, 1, seed=17).with_cost(
        CostOutput(c=[[0.4, -0.2]], d=[[0.5]])
    )
    c = synth_noise_annihilation([[-2.0]], [[0.3]], [[0.6]]).controller
    assert max_abs(c.k_cw) > 0.0 and max_abs(c.k_cy) == 0.0
    g_orig = gamma_cl(p, c)
    g_mod = gamma_cl(*modified_forms(p, c))
    share = share_w_tilde(p.m_w, c.m_wt)
    dropped = np.zeros((1, p.m_w + c.m_wt), dtype=complex)
    dropped[:, p.m_w :] = p.cost.d @ c.k_cw
    for s in (0.0, 1j, -3j, 10j, 0.5 + 2j):
        got = tf_eval(g_mod, s) @ share
        want = tf_eval(g_orig, s)
        assert max_abs(got + dropped - want) <= 1e-12, s
        assert max_abs(got - want) == pytest.approx(0.5, abs=1e-12), s


# ---------------------------------------------------------------------------
# general kind: closed loop and modified forms

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


@pytest.mark.parametrize("k_cy", GENERAL_K_CY)
def test_modified_forms_general_kind_keeps_doubled_stacking(k_cy) -> None:
    # the folded loop drops the cost feedthrough D K_cw, so the cost is strictly proper here
    p, c = general_pair(k_cy)
    p = p.with_cost(CostOutput(c=p.cost.c, d=np.zeros_like(p.cost.d)))
    p_mod, c_mod = modified_forms(p, c)
    m_w, m_wt = p.m_w, c.m_wt
    assert p_mod.m_w == m_w + m_wt
    assert is_doubled(p_mod.g_w) and is_doubled(p_mod.k)
    np.testing.assert_array_equal(p_mod.k[:, m_w : m_w + m_wt], 0.0)
    assert max_abs(c_mod.k_cw) == 0.0 and max_abs(c_mod.k_cy) == 0.0
    # identify the plant's copy of W-tilde with the controller's, per half
    half = np.zeros((m_w + 2 * m_wt, m_w + m_wt))
    half[:m_w, :m_w] = np.eye(m_w)
    half[m_w : m_w + m_wt, m_w:] = np.eye(m_wt)
    half[m_w + m_wt :, m_w:] = np.eye(m_wt)
    share = np.kron(np.eye(2), half)
    for omega in (-3.0, 0.0, 0.5, 4.0):
        got = tf_eval(gamma_cl(p_mod, c_mod), 1j * omega) @ share
        want = tf_eval(gamma_cl(p, c), 1j * omega)
        np.testing.assert_allclose(got, want, atol=1e-10)


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


def test_synth_general_rejects_bad_theta() -> None:
    f_c = -np.eye(2)
    zeros = np.zeros((2, 2))
    with pytest.raises(DomainError):
        synth_noise_general(f_c, zeros, zeros, np.eye(2))
    with pytest.raises(DomainError):
        synth_noise_general(f_c, zeros, zeros, np.diag([2.0, -1.0]))
    with pytest.raises(DomainError):
        synth_noise_general(f_c, zeros, zeros, [[0.0, 1.0], [0.0, 0.0]])


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


@pytest.mark.parametrize("c_val", [-1.0, -2.0])
def test_complete_static_pr_infeasible_below_boundary(cavity_plant, c_val) -> None:
    assert complete_static_pr(cavity_plant, [[c_val]]) is None


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
