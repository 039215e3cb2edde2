"""Tests for Kalman design and the coherent-feedback optimality checks.

The two-port cavity gives exact scalar oracles for the estimator claims;
a classical filter with nonzero innovation gain guards against the
zero-gain check passing vacuously.  The sampled theorem verifiers run on
seeded plant families.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from qfeedback import (
    AnnihilationQSys,
    ControllerModel,
    CostOutput,
    DesignError,
    DimensionError,
    DomainError,
    GeneralQSys,
    InstabilityError,
    NotAugmentableError,
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
    h2_norm,
    hinf_norm,
    jj_unitary_check,
    kalman_design,
    lossless_br_check,
    lqg_cost,
    random_challengers,
    random_pr_plant,
    random_pr_system,
    save_system,
    static_controller,
    synth_noise_annihilation,
    trivial_controller,
    verify_static_lqg,
    verify_trivial_hinf,
    verify_zero_gain,
)

from qfeedback import cli, coherent, feedback, linalg, systems, transfer
from qfeedback.linalg import RESIDUAL_TOL, _certificate_defect, _lyapunov_defect, dagger, hermitian_part, max_abs
from qfeedback.transfer import _sample_grid, _sigma_max

from conftest import freq_response, random_unitary, stateless_plant, two_port_cavity_plant

ROOT2 = np.sqrt(2.0)


# ---------------------------------------------------------------------------
# Kalman design


def test_kalman_two_port_cavity_exact() -> None:
    # -2Q + 2 = 0 at Q = 1 and G + Q H^dagger = [0, 0]: zero gain exactly
    res = kalman_design(
        [[-1.0]], [[-1.0, -1.0]], [[1.0], [1.0]], [[1.0, 0.0]]
    )
    np.testing.assert_allclose(res.q, [[1.0]], atol=1e-12)
    np.testing.assert_allclose(res.gain, [[0.0]], atol=1e-12)
    assert res.gain_norm <= 1e-12
    assert res.riccati_residual <= 1e-10


def test_kalman_classical_scalar_filter() -> None:
    # state noise on the second channel, measurement noise on the first:
    # -2Q + 1 - Q^2 = 0 gives Q = sqrt(2) - 1 and the same innovation gain
    res = kalman_design([[-1.0]], [[0.0, 1.0]], [[1.0], [0.0]], [[1.0, 0.0]])
    np.testing.assert_allclose(res.q, [[ROOT2 - 1.0]], atol=1e-10)
    np.testing.assert_allclose(res.gain, [[ROOT2 - 1.0]], atol=1e-10)
    assert res.gain_norm > 0.1


def test_kalman_noiseless_state() -> None:
    res = kalman_design([[-1.0]], [[0.0, 0.0]], [[1.0], [0.0]], [[1.0, 0.0]])
    np.testing.assert_allclose(res.q, [[0.0]], atol=1e-12)
    np.testing.assert_allclose(res.gain, [[0.0]], atol=1e-12)


def test_kalman_rejects_singular_measurement_noise() -> None:
    with pytest.raises(DomainError):
        kalman_design([[-1.0]], [[1.0, 0.0]], [[0.0], [1.0]], [[0.0, 0.0]])


def test_kalman_rejects_undetectable_pair() -> None:
    with pytest.raises(DesignError):
        kalman_design([[1.0]], [[1.0, 0.0]], [[0.0], [0.0]], [[1.0, 0.0]])


# ---------------------------------------------------------------------------
# zero Kalman gain on realizable plants


def test_zero_gain_cavity(cavity_plant) -> None:
    report = verify_zero_gain(cavity_plant, np.zeros((1, 1)), np.eye(1))
    assert report.theorem == "C1"
    assert report.holds
    assert report.evidence["gain_norm"] <= 1e-8
    assert report.evidence["covariance_vs_certificate"] <= 1e-8
    assert not report.skipped


def test_zero_gain_broken_plant_raises() -> None:
    p = two_port_cavity_plant()
    broken = PlantModel(
        kind="annihilation",
        f=p.f,
        g_w=p.g_w + 0.1,
        g_u=p.g_u,
        h=p.h,
        k=p.k,
    )
    with pytest.raises(NotAugmentableError):
        verify_zero_gain(broken, np.zeros((1, 1)), np.eye(1))


def reference_zero_gain(p: PlantModel, k_cy, k_cw) -> tuple:
    """C1's report, Theta, A and C_z with the static loop's own (A, B) completed."""
    ctrl = static_controller(k_cy, k_cw)
    a, b, c, _ = feedback._loop_matrices(p, ctrl.f_c, ctrl.g_cw, ctrl.g_cy, ctrl.h_c, ctrl.k_cw, ctrl.k_cy)
    ap = feedback._square_completion("annihilation", a, [b], p.h, "plant", p._pattern_residuals)
    kr = kalman_design(ap.system.f, ap.system.g, ap.system.h, feedback._identity_pad(p.m_y, ap.system.m_fields))
    q_dev = linalg.max_abs(kr.q - ap.theta)
    evidence = {"gain_norm": kr.gain_norm, "covariance_vs_certificate": q_dev,
                "riccati_residual": kr.riccati_residual}
    narrative = (f"Kalman gain norm {kr.gain_norm:.3g}; covariance matches the "
                 f"realizability certificate within {q_dev:.3g}.")
    return evidence, narrative, ap.theta, a, c


def zero_gain_bits(evidence, narrative, theta, a, c) -> tuple:
    return {k: float(v).hex() for k, v in evidence.items()}, narrative, theta.tobytes(), a.tobytes(), c.tobytes()


def test_zero_gain_at_the_identity_feedthrough_reads_the_plant_completion(cavity_plant_with_cost, monkeypatch) -> None:
    # with K_cy = 0 and K_cw = I the static loop is the plant (A = F, B = [G_w, G_u]), so the
    # plant's cached completion is the loop's, bit for bit; every other static loop solves its own
    rng = np.random.default_rng(71)
    cases = [(cavity_plant_with_cost, [[0.5]], complete_static_pr(cavity_plant_with_cost, [[0.5]])[0])]
    for seed, shape in enumerate([(1, 1, 1, 1), (2, 2, 1, 1), (2, 2, 2, 2), (1, 2, 1, 1), (2, 3, 1, 2)]):
        p = random_pr_plant(*shape, seed=670 + seed).with_cost(
            CostOutput(c=rng.standard_normal((2, shape[0])), d=np.zeros((2, shape[2])))
        )
        cases.append((p, np.zeros((p.m_u, p.m_y)), np.hstack([np.eye(p.m_u), np.zeros((p.m_u, 1))])))
    cases += [(p, np.zeros((p.m_u, p.m_y)), np.eye(p.m_u)) for p, _, _ in list(cases)]
    solves = []
    completion = coherent._square_completion
    monkeypatch.setattr(coherent, "_square_completion", lambda *args: solves.append(1) or completion(*args))
    for p, k_cy, k_cw in cases:
        augment_plant(p)
        solves.clear()
        report, theta, a, c = coherent._zero_gain(p, k_cy, k_cw)
        assert len(solves) == 1 or np.array_equal(k_cw, np.eye(p.m_u)) and not np.any(k_cy)
        got = zero_gain_bits(report.evidence, report.narrative, theta, a, c)
        assert got == zero_gain_bits(*reference_zero_gain(p, k_cy, k_cw))
        assert verify_zero_gain(p, k_cy, k_cw) == report


@pytest.mark.parametrize("bend", ["rows", "unstable"])
def test_zero_gain_without_a_plant_completion_raises_the_reference_error(bend) -> None:
    p = two_port_cavity_plant()
    p = replace(p, g_w=p.g_w + 0.1) if bend == "rows" else replace(p, f=-p.f)
    zero, eye = np.zeros((1, 1)), np.eye(1)
    with pytest.raises(NotAugmentableError) as got:
        verify_zero_gain(p, zero, eye)
    with pytest.raises(NotAugmentableError) as want:
        reference_zero_gain(p, zero, eye)
    assert (str(got.value), got.value.residuals) == (str(want.value), want.value.residuals)


def test_zero_gain_with_a_huge_finite_gain_raises_the_typed_error_without_a_warning() -> None:
    # K_cy = 1e300 leaves the loop finite, but B B^dagger overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="q has non-finite entries"):
            verify_zero_gain(random_pr_plant(1, 1, 1, 1, seed=0), [[1e300]], [[1.0]])


_BIG_ANN = AnnihilationQSys(f=[[-1.0]], g=[[1e200]], h=[[1.0]], k=[[1.0]])
_BIG_GEN = GeneralQSys(f=delta_build([[-1.0]], [[0.0]]), g=delta_build([[1e200]], [[0.0]]),
                       h=delta_build([[1.0]], [[0.0]]), k=delta_build([[1.0]], [[0.0]]))


@pytest.mark.parametrize(
    "call",
    [
        lambda: check_pr_annihilation(_BIG_ANN),
        lambda: check_pr_general(_BIG_GEN),
        lambda: lossless_br_check(StateSpaceTF(_BIG_ANN.f, _BIG_ANN.g, _BIG_ANN.h, _BIG_ANN.k)),
        lambda: jj_unitary_check(StateSpaceTF(_BIG_GEN.f, _BIG_GEN.g, _BIG_GEN.h, _BIG_GEN.k), 1),
        lambda: h2_norm(StateSpaceTF(_BIG_ANN.f, _BIG_ANN.g, _BIG_ANN.h, [[0.0]])),
        lambda: synth_noise_annihilation([[-1.0]], [[1e200]], [[0.5]]),
        lambda: kalman_design([[-1.0]], [[1e200, 0.0]], [[1.0], [0.0]], [[1.0, 0.0]]),
    ],
    ids=["check_pr_annihilation", "check_pr_general", "lossless", "jj_unitary", "h2", "synth", "kalman"],
)
def test_an_overflowing_noise_term_raises_the_solver_error_without_a_warning(call) -> None:
    # G = 1e200 is finite, but G S G^dagger is not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="q has non-finite entries"):
            call()


def _plant_with_huge_cost() -> PlantModel:
    return random_pr_plant(2, 2, 1, 1, 0).with_cost(CostOutput(c=1e200 * np.ones((1, 2)), d=np.zeros((1, 1))))


@pytest.mark.parametrize(
    "call",
    [
        lambda: h2_norm(close_loop(_plant_with_huge_cost(), trivial_controller(1, 1)).system),
        lambda: lqg_cost(close_loop(_plant_with_huge_cost(), random_challengers(_plant_with_huge_cost(), 1, 0)[0])),
        lambda: verify_static_lqg(_plant_with_huge_cost()),
        lambda: verify_static_lqg(
            PlantModel(kind="annihilation", f=[[-1.0]], g_w=[[-2**0.5]], g_u=np.zeros((1, 0)), h=[[2**0.5]],
                       k=[[1.0]], cost=CostOutput(c=[[1e200]], d=np.zeros((1, 0))))
        ),
    ],
    ids=["h2", "lqg", "T5", "T5-no-control"],
)
def test_a_cost_whose_trace_overflows_raises_a_domain_error_without_a_warning(call) -> None:
    # C = 1e200 is finite, but tr(C Theta C^dagger) is not: no NaN cost, and no wrong T5 refutation
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"cost tr\(C Theta C\^dagger\) is not finite"):
            call()


@pytest.mark.parametrize("scale", [1e160, 1e200, 1e300])
@pytest.mark.parametrize("kind", ["annihilation", "general"])
def test_a_sampled_prong_whose_deviation_overflows_is_indeterminate(kind, scale) -> None:
    # H scaled past the float range of Gamma~ S Gamma: the sampled prong decides nothing,
    # the verdict stays False and no numpy warning escapes
    s = random_pr_system(2, 2 if kind == "annihilation" else 1, seed=0, kind=kind,
                         hurwitz_required=kind == "annihilation")
    g = StateSpaceTF(s.f, s.g, scale * s.h, s.k)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        check = lossless_br_check(g) if kind == "annihilation" else jj_unitary_check(g, 1)
    assert check.prongs["sampled"] == "indeterminate" and not np.isfinite(check.residuals["sampled"])
    assert check.prongs["algebraic"] == "fail" and not check.verdict


def test_zero_gain_rejects_fewer_controller_noises_than_controls(cavity_plant) -> None:
    with pytest.raises(
        DimensionError,
        match=r"^need at least as many controller noises as controls \(m_wt=0 < m_u=1\)$",
    ):
        verify_zero_gain(cavity_plant, [[0.5]], np.zeros((1, 0)))


def test_zero_gain_suite_100_plants_3_feedthroughs() -> None:
    # with k_cy = 0 any co-isometric k_cw keeps the loop's noise-only plant
    # realizable, which gives three hypothesis-satisfying static feedthrough
    # choices per plant; nonzero k_cy needs the joint completion and is
    # covered separately
    shapes = [(1, 1, 1, 1), (2, 2, 1, 1), (2, 2, 2, 1), (3, 3, 2, 2), (2, 3, 1, 2)]
    rng = np.random.default_rng(89)
    count = 0
    for seed in range(100):
        n, m_w, m_u, m_y = shapes[seed % len(shapes)]
        p = random_pr_plant(n, m_w, m_u, m_y, seed=seed)
        zero = np.zeros((m_u, m_y))
        wide = np.hstack([np.eye(m_u), np.zeros((m_u, 1))])
        for k_cw in (np.eye(m_u), random_unitary(rng, m_u), wide):
            report = verify_zero_gain(p, zero, k_cw)
            assert report.holds, (seed, report.evidence)
            count += 1
    assert count == 300


def test_zero_gain_nonzero_feedthrough_on_completable_family(cavity_plant) -> None:
    for c_val in (-0.5, 0.5, 1.0, 2.0):
        k_cw, _ = complete_static_pr(cavity_plant, [[c_val]])
        report = verify_zero_gain(cavity_plant, [[c_val]], k_cw)
        assert report.holds, (c_val, report.evidence)


# ---------------------------------------------------------------------------
# LQG cost


def test_lqg_cost_cavity_trivial_controller(cavity_plant_with_cost) -> None:
    # b = [-1, -1] so the gramian is 1 and cost = sqrt(tr C P C^dagger) = 1
    loop = close_loop(cavity_plant_with_cost, trivial_controller(1, 1))
    np.testing.assert_allclose(lqg_cost(loop).value, 1.0, atol=1e-12)


def test_lqg_cost_zero_cost_block(cavity_plant) -> None:
    p = cavity_plant.with_cost(CostOutput(c=np.zeros((1, 1)), d=np.zeros((1, 1))))
    loop = close_loop(p, trivial_controller(1, 1))
    assert lqg_cost(loop).value == 0.0


def test_lqg_cost_rejects_unstable_loop(cavity_plant_with_cost) -> None:
    # k_cy = -2 moves the closed-loop pole to +1
    loop = close_loop(cavity_plant_with_cost, static_controller([[-2.0]], [[1.0]]))
    assert not loop.internally_stable
    with pytest.raises(InstabilityError):
        lqg_cost(loop)


def test_lqg_cost_static_sweep_varies(cavity_plant_with_cost) -> None:
    costs = []
    for kappa in (0.0, 0.5, 1.0):
        loop = close_loop(
            cavity_plant_with_cost, static_controller([[kappa]], [[1.0]])
        )
        costs.append(lqg_cost(loop).value)
    assert len({round(c, 6) for c in costs}) == 3


def test_lqg_cost_quadrature_oracle_30_loops() -> None:
    rng = np.random.default_rng(79)
    for seed in range(30):
        n = int(rng.integers(1, 4))
        m_w = int(rng.integers(1, 3))
        m_u = int(rng.integers(1, 3))
        p = random_pr_plant(n, m_w, m_u, 1, seed=500 + seed).with_cost(
            CostOutput(
                c=rng.standard_normal((1, n)) + 1j * rng.standard_normal((1, n)),
                d=np.zeros((1, m_u)),
            )
        )
        loop = close_loop(p, trivial_controller(1, m_u))
        value = lqg_cost(loop).value

        def integrand(omega: float) -> float:
            gm = freq_response(loop.system, 1j * omega)[0]
            return float(np.real(np.trace(gm @ gm.conj().T)))

        area, _ = quad(integrand, -np.inf, np.inf, limit=400)
        oracle = np.sqrt(area / (2 * np.pi))
        assert abs(value - oracle) <= 1e-5 * max(oracle, 1e-9), seed


# ---------------------------------------------------------------------------
# static optimality of the LQG problem


def test_static_lqg_cavity_holds(cavity_plant_with_cost) -> None:
    report = verify_static_lqg(cavity_plant_with_cost, seed=1729, dynamic_count=12)
    assert report.theorem == "T5"
    assert report.holds, report.narrative
    assert report.evidence["max_gain_norm"] <= 1e-8
    assert report.evidence["best_static_cost"] <= report.evidence["best_dynamic_cost"] + 1e-6


def test_static_lqg_no_control_degenerate_pass() -> None:
    p = PlantModel(
        kind="annihilation",
        f=[[-1.0]],
        g_w=[[-ROOT2]],
        g_u=np.zeros((1, 0)),
        h=[[ROOT2]],
        k=np.eye(1),
        cost=CostOutput(c=[[1.0]], d=np.zeros((1, 0))),
    )
    report = verify_static_lqg(p)
    assert report.holds
    assert "degenerate" in report.narrative


def test_static_lqg_without_control_prices_the_plant_as_its_closed_loop() -> None:
    # with m_u = 0 the loop is the plant, so the certificate's cost equals the H2 norm
    # of the loop that the trivial controller closes, bit for bit
    plants = [PlantModel(kind="annihilation", f=np.zeros((0, 0)), g_w=np.zeros((0, 1)), g_u=np.zeros((0, 0)),
                         h=np.zeros((1, 0)), k=np.eye(1), cost=CostOutput(c=np.zeros((1, 0)), d=np.zeros((1, 0))))]
    for seed, (n, m_w, m_y) in enumerate([(1, 1, 1), (2, 2, 1), (3, 2, 2), (2, 3, 2), (4, 2, 1), (3, 3, 1)]):
        s = systems.random_pr_system(n, m_w, seed=50 + seed, hurwitz_required=True)
        rng = np.random.default_rng(seed)
        c = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
        plants.append(
            PlantModel(kind="annihilation", f=s.f, g_w=s.g, g_u=np.zeros((n, 0)), h=s.h[:m_y],
                       k=np.eye(m_y, m_w), cost=CostOutput(c=c, d=np.zeros((2, 0))))
        )
    for p in plants:
        cost = verify_static_lqg(p).evidence["constant_cost"]
        expected = lqg_cost(close_loop(p, trivial_controller(p.m_y, 0))).value
        assert cost.hex() == expected.hex()
        assert cost > 0.0 or p.n_modes == 0


def test_theorems_on_a_stateless_plant() -> None:
    # n = 0: the Kalman covariance is 0 x 0, so there is no gain to speak of
    zero_gain = verify_zero_gain(stateless_plant(), [[0.0]], [[1.0]])
    assert zero_gain.holds
    assert zero_gain.evidence["gain_norm"] == 0.0
    static = verify_static_lqg(stateless_plant(), dynamic_count=2)
    assert static.holds
    assert static.evidence["best_static_cost"] == 0.0


def test_static_lqg_non_realizable_plant_is_skipped() -> None:
    p = PlantModel(
        kind="annihilation",
        f=[[-1.0]],
        g_w=[[-0.9]],
        g_u=[[-1.0]],
        h=[[2.0]],
        k=np.eye(1),
        cost=CostOutput(c=[[1.0]], d=np.zeros((1, 1))),
    )
    report = verify_static_lqg(p)
    assert report.skipped
    assert not report.holds
    assert report.narrative.startswith("skipped: plant not physically realizable")


def test_static_lqg_requires_cost(cavity_plant) -> None:
    with pytest.raises(DomainError):
        verify_static_lqg(cavity_plant)


def test_static_lqg_requires_strictly_proper_cost(cavity_plant) -> None:
    p = cavity_plant.with_cost(CostOutput(c=[[1.0]], d=[[1.0]]))
    with pytest.raises(DomainError):
        verify_static_lqg(p)


def test_static_lqg_20_seeded_plants() -> None:
    shapes = [(1, 1, 1, 1), (2, 2, 1, 1), (2, 2, 2, 1), (1, 2, 1, 1)]
    rng = np.random.default_rng(83)
    for seed in range(20):
        n, m_w, m_u, m_y = shapes[seed % len(shapes)]
        p = random_pr_plant(n, m_w, m_u, m_y, seed=700 + seed).with_cost(
            CostOutput(
                c=rng.standard_normal((1, n)),
                d=np.zeros((1, m_u)),
            )
        )
        report = verify_static_lqg(p, seed=1729 + seed, dynamic_count=20)
        assert report.holds, (seed, report.narrative)


def test_static_lqg_holds_at_a_large_cost_scale() -> None:
    # every stable realizable loop costs sqrt(tr(C Theta_p C^dagger)), so the
    # best static and dynamic costs agree only to rounding, here near 1e9
    rng = np.random.default_rng(83)
    for n, m_w, m_u, m_y in [(1, 1, 1, 1), (2, 2, 1, 1), (1, 2, 1, 1)]:
        for k in range(4):
            p = random_pr_plant(n, m_w, m_u, m_y, seed=700 + k).with_cost(
                CostOutput(c=1e9 * rng.standard_normal((1, n)), d=np.zeros((1, m_u)))
            )
            report = verify_static_lqg(p, seed=1729 + k, dynamic_count=20)
            assert report.holds, ((n, m_w, m_u, m_y), k, report.narrative)


def unscreened_static_lqg(p: PlantModel, seed: int, dynamic_count: int):
    """T5's sweep with the full completion run on every candidate gain.

    Returns (holds, evidence, narrative) for a realizable plant with controls.
    """
    if p.m_u <= 2 and p.m_y <= 2:
        grid = itertools.product((-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0), repeat=p.m_u * p.m_y)
        gains = [np.array(combo, dtype=complex).reshape(p.m_u, p.m_y) for combo in grid]
    else:
        rng = np.random.default_rng(seed)
        gains = [np.zeros((p.m_u, p.m_y), dtype=complex)]
        gains += [rng.uniform(-2.0, 2.0, size=(p.m_u, p.m_y)).astype(complex) for _ in range(64)]
    max_gain = max_q_dev = 0.0
    zero_gain_ok = True
    best_static = np.inf
    used = skipped = 0
    for k_cy in gains:
        completed = complete_static_pr(p, k_cy)
        if completed is None:
            skipped += 1
            continue
        k_cw, _ = completed
        report = verify_zero_gain(p, k_cy, k_cw)
        max_gain = max(max_gain, report.evidence["gain_norm"])
        max_q_dev = max(max_q_dev, report.evidence["covariance_vs_certificate"])
        zero_gain_ok = zero_gain_ok and report.holds
        loop = close_loop(p, static_controller(k_cy, k_cw))
        if loop.internally_stable:
            best_static = min(best_static, lqg_cost(loop).value)
            used += 1
        else:
            skipped += 1
    best_dynamic = np.inf
    dyn_used = dyn_skipped = 0
    for ctrl in random_challengers(p, dynamic_count, seed + 1):
        loop = close_loop(p, ctrl)
        if loop.internally_stable:
            best_dynamic = min(best_dynamic, lqg_cost(loop).value)
            dyn_used += 1
        else:
            dyn_skipped += 1
    evidence = {
        "max_gain_norm": max_gain,
        "max_covariance_dev": max_q_dev,
        "best_static_cost": best_static,
        "best_dynamic_cost": best_dynamic,
        "static_used": float(used),
        "static_skipped": float(skipped),
        "dynamic_used": float(dyn_used),
        "dynamic_skipped": float(dyn_skipped),
    }
    narrative = (
        f"best static cost {best_static:.6g} vs best dynamic "
        f"{best_dynamic:.6g} over {dyn_used} stable challengers; "
        f"max Kalman gain {max_gain:.3g} across {used + skipped} candidate gains."
    )
    return zero_gain_ok and best_static <= best_dynamic + 1e-6, evidence, narrative


def assert_matches_the_unscreened_evidence(got: dict, want: dict) -> None:
    """Bit-identical evidence, except the dynamic cost, which T5 reads off the loop
    invariant diag(Theta_p, I) while the oracle solves each loop's Lyapunov equation."""
    got, want = dict(got), dict(want)
    dynamic, expected = got.pop("best_dynamic_cost"), want.pop("best_dynamic_cost")
    assert got == want  # static_used/skipped included
    assert dynamic == pytest.approx(expected, rel=1e-12, abs=0.0)


# the five acceptance shapes and a 64-draw random-gain shape (m_u = 3)
@pytest.mark.parametrize(
    "shape", [(1, 1, 1, 1), (2, 2, 1, 1), (2, 2, 2, 2), (1, 2, 1, 1), (2, 3, 1, 2), (1, 3, 3, 1)]
)
def test_static_lqg_matches_the_unscreened_sweep(shape) -> None:
    n, m_w, m_u, m_y = shape
    rng = np.random.default_rng(29)
    for seed in range(2):
        p = random_pr_plant(n, m_w, m_u, m_y, seed=300 + seed).with_cost(
            CostOutput(c=rng.standard_normal((1, n)), d=np.zeros((1, m_u)))
        )
        report = verify_static_lqg(p, seed=1729 + seed, dynamic_count=4)
        holds, evidence, narrative = unscreened_static_lqg(p, 1729 + seed, 4)
        assert (report.holds, report.narrative) == (holds, narrative)
        assert_matches_the_unscreened_evidence(report.evidence, evidence)


@pytest.mark.parametrize("shape", [(1, 3, 3, 1), (2, 3, 1, 3), (3, 3, 3, 3), (1, 3, 1, 3)])
def test_static_lqg_holds_beyond_the_gain_grid(shape) -> None:
    # m_u or m_y above 2 sweeps random gains; K_cy = 0 leads them and always completes
    n, m_w, m_u, m_y = shape
    rng = np.random.default_rng(31)
    for seed in range(3):
        p = random_pr_plant(n, m_w, m_u, m_y, seed=400 + seed).with_cost(
            CostOutput(c=rng.standard_normal((1, n)), d=np.zeros((1, m_u)))
        )
        report = verify_static_lqg(p, seed=1729 + seed, dynamic_count=4)
        assert report.holds, (seed, report.narrative)
        assert report.evidence["static_used"] >= 1.0


def test_static_lqg_cavity_matches_the_unscreened_sweep(cavity_plant_with_cost) -> None:
    report = verify_static_lqg(cavity_plant_with_cost, seed=1729, dynamic_count=12)
    holds, evidence, narrative = unscreened_static_lqg(cavity_plant_with_cost, 1729, 12)
    assert (report.holds, report.narrative) == (holds, narrative)
    assert_matches_the_unscreened_evidence(report.evidence, evidence)
    assert evidence["static_used"] == 5.0  # c = -0.5 ... 2; c = -1, -2 admit no completion


def test_static_lqg_refutes_a_wrong_plant_certificate(cavity_plant_with_cost, monkeypatch) -> None:
    # every stable dynamic loop is checked at diag(Theta_p, I); a Theta_p 1% off
    # leaves the static costs winning, so only that residual test can refute it
    rng = np.random.default_rng(37)
    plants = [cavity_plant_with_cost]
    for n, m_w, m_u, m_y in [(1, 1, 1, 1), (2, 2, 1, 1), (2, 3, 1, 2)]:
        cost = CostOutput(c=rng.standard_normal((1, n)), d=np.zeros((1, m_u)))
        plants.append(random_pr_plant(n, m_w, m_u, m_y, seed=610).with_cost(cost))
    augment = coherent.augment_plant
    for p in plants:
        honest = verify_static_lqg(p, seed=1729, dynamic_count=8)

        def scaled(q, p=p):
            # only the plant's own completion is scaled; C1 completes each static loop's (A, B)
            # itself and keeps its exact certificate
            ap = augment(q)
            return replace(ap, theta=1.01 * ap.theta) if q is p else ap

        monkeypatch.setattr(coherent, "augment_plant", scaled)
        report = verify_static_lqg(p, seed=1729, dynamic_count=8)
        monkeypatch.setattr(coherent, "augment_plant", augment)
        assert honest.holds and not report.holds, report.narrative
        assert report.evidence["best_static_cost"] == honest.evidence["best_static_cost"]


# ---------------------------------------------------------------------------
# challengers and the loop-cost invariant


# the five acceptance shapes and one with three of every channel
@pytest.mark.parametrize(
    "shape", [(1, 1, 1, 1), (2, 2, 1, 1), (2, 2, 2, 2), (1, 2, 1, 1), (2, 3, 1, 2), (4, 3, 3, 3)]
)
def test_random_challengers_are_realizable_admissible_and_stabilizing(shape) -> None:
    for seed in range(4):
        p = random_pr_plant(*shape, seed=500 + seed)
        challengers = random_challengers(p, count=6, seed=seed)
        assert len(challengers) == 6
        for c in challengers:
            assert c.n_modes in (1, 2)
            # F_c + F_c^dagger + H_c^dagger H_c + G_cy G_cy^dagger + I = -I
            slack = c.f_c + c.f_c.conj().T + c.h_c.conj().T @ c.h_c + c.g_cy @ c.g_cy.conj().T
            np.testing.assert_allclose(slack, -2.0 * np.eye(c.n_modes), atol=1e-12)
            assert augment_controller(c).verdict.realizable
            synth = synth_noise_annihilation(c.f_c, c.g_cy, c.h_c)
            assert synth.admissibility_norm < 1.0
            assert augment_controller(synth.controller).verdict.realizable
            assert close_loop(p, c).internally_stable


@settings(max_examples=24, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 32),
    m_u=st.integers(1, 2),
    m_y=st.integers(1, 2),
)
def test_every_realizable_loop_costs_the_plant_certificate(seed, n, m_u, m_y) -> None:
    # diag(Theta_p, Theta_c) is every realizable loop's state covariance, so a
    # strictly proper cost row costs sqrt(tr(C Theta_p C^dagger)) whatever the controller
    rng = np.random.default_rng(seed)
    p = random_pr_plant(n, m_y, m_u, m_y, seed=seed).with_cost(
        CostOutput(c=rng.standard_normal((1, n)), d=np.zeros((1, m_u)))
    )
    theta_p = augment_plant(p).theta
    expected = float(np.sqrt(np.trace(p.cost.c @ theta_p @ p.cost.c.conj().T).real))
    for ctrl in [trivial_controller(m_y, m_u), *random_challengers(p, 5, seed)]:
        loop = close_loop(p, ctrl)
        assert loop.internally_stable
        assert abs(lqg_cost(loop).value - expected) <= 1e-10 * expected


def reference_challenger_loops(p: PlantModel, theta_p: np.ndarray, challengers) -> list[tuple]:
    """Per challenger: close_loop's stability, then the Lyapunov residual, its verdict
    and the cost sqrt(tr(C Theta C^dagger)) at Theta = diag(Theta_p, I), one loop at a time."""
    rows = []
    for ctrl in challengers:
        loop = close_loop(p, ctrl)
        g = loop.system
        theta = np.eye(g.state_dim, dtype=complex)
        theta[: p.n_modes, : p.n_modes] = theta_p
        found: dict[str, float] = {}
        defect = _lyapunov_defect(g.a, theta, hermitian_part(g.b @ dagger(g.b)), found, RESIDUAL_TOL)
        cost = float(np.sqrt(max(np.trace(g.c @ theta @ dagger(g.c)).real, 0.0)))
        rows.append((loop.internally_stable, found["lyapunov"].hex(), defect, cost.hex()))
    return rows


# the five acceptance shapes and two larger ones
@pytest.mark.parametrize(
    "shape", [(1, 1, 1, 1), (2, 2, 1, 1), (2, 2, 2, 2), (1, 2, 1, 1), (2, 3, 1, 2), (3, 2, 1, 1), (4, 3, 2, 2)]
)
@pytest.mark.parametrize("count", [0, 1, 20])
def test_stacked_challenger_loops_match_the_per_loop_reference(shape, count) -> None:
    # T5 closes its challengers in stacks of equal order; each challenger's outcome
    # is bit for bit that of its own loop, also when the draw holds one order only
    rng = np.random.default_rng(61)
    for seed in range(3):
        p = random_pr_plant(*shape, seed=640 + seed).with_cost(
            CostOutput(c=rng.standard_normal((2, shape[0])), d=np.zeros((2, shape[2])))
        )
        theta_p = augment_plant(p).theta
        stacks = coherent._challenger_draws(p, count, seed)
        challengers = random_challengers(p, count, seed)
        second = [i for i, ctrl in enumerate(challengers) if ctrl.n_modes == 2]
        # the n_c = 2 stack alone, its positions renumbered from 0
        only_second = [(list(range(len(idx))), *blocks) for idx, *blocks in stacks if blocks[0].shape[-1] == 2]
        assert [idx for idx, *blocks in stacks if blocks[0].shape[-1] == 2] == ([second] if second else [])
        for subset, given in ((range(count), stacks), (second, only_second)):
            outcomes = coherent._challenger_loops(p, theta_p, given)
            got = [(bool(s), float(r).hex(), bool(d), float(c).hex()) for s, r, d, c in zip(*outcomes)]
            assert got == reference_challenger_loops(p, theta_p, [challengers[i] for i in subset])


def reference_challenger_draws(p: PlantModel, count: int, seed: int) -> list[tuple]:
    """The challenger draw with one RNG call per block, one challenger at a time."""
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(count):
        n_c = int(rng.integers(1, 3))
        m = hermitian_part(systems._random_complex(rng, n_c, n_c))
        h_c = systems._random_complex(rng, p.m_u, n_c)
        n_coupling = np.vstack([h_c, -np.sqrt(2.0) * np.eye(n_c), systems._random_complex(rng, p.m_y, n_c)])
        f_c, g_c = systems._annihilation_fg(np.eye(n_c, dtype=complex), m, n_coupling)
        m_wt = p.m_u + n_c
        draws.append((f_c, g_c[:, :m_wt], g_c[:, m_wt:], h_c))
    return draws


def draw_bytes(draws) -> list[list[tuple]]:
    return [[(blk.shape, blk.dtype, blk.tobytes()) for blk in blocks] for blocks in draws]


def per_draw(stacks, count: int) -> list[tuple]:
    """The blocks of each draw, in draw order, from the order stacks; each stack block is C-contiguous."""
    draws: list[tuple] = [()] * count
    for idx, *blocks in stacks:
        assert all(blk.flags.c_contiguous for blk in blocks)
        for j, i in enumerate(idx):
            draws[i] = tuple(blk[j] for blk in blocks)
    return draws


# the five acceptance shapes, two larger ones, and plants without measured outputs or controls
@pytest.mark.parametrize(
    "plant",
    [
        *[lambda seed, shape=shape: random_pr_plant(*shape, seed=660 + seed)
          for shape in [(1, 1, 1, 1), (2, 2, 1, 1), (2, 2, 2, 2), (1, 2, 1, 1), (2, 3, 1, 2), (3, 2, 1, 1),
                        (4, 3, 2, 2)]],
        lambda seed: PlantModel(kind="annihilation", f=[[-1.0]], g_w=[[-ROOT2]], g_u=[[0.5]],
                                h=np.zeros((0, 1)), k=np.zeros((0, 1))),
        lambda seed: PlantModel(kind="annihilation", f=[[-1.0]], g_w=[[-ROOT2]], g_u=np.zeros((1, 0)),
                                h=[[ROOT2]], k=np.eye(1)),
    ],
    ids=["1111", "2211", "2222", "1211", "2312", "3211", "4322", "m_y=0", "m_u=0"],
)
@pytest.mark.parametrize("count", [0, 1, 20])
def test_challenger_draw_matches_the_per_block_reference(plant, count) -> None:
    # one normal run per challenger, built per order stack, gives the numbers and the
    # blocks of one RNG call per block, down to the sign of every zero
    for seed in range(3):
        p = plant(seed)
        assert draw_bytes(per_draw(coherent._challenger_draws(p, count, seed), count)) == draw_bytes(
            reference_challenger_draws(p, count, seed)
        )


# ---------------------------------------------------------------------------
# trivial-controller optimality in H-infinity


def test_trivial_hinf_cavity_with_challengers(cavity_plant) -> None:
    challengers = random_challengers(cavity_plant, count=5, seed=11)
    report = verify_trivial_hinf(cavity_plant, [[1.0, 0.0]], challengers)
    assert report.theorem == "T6"
    assert report.holds, report.narrative
    assert abs(report.evidence["trivial_norm"] - 1.0) <= 1e-6
    assert report.evidence["max_pointwise_dev"] <= 1e-7
    assert report.evidence["challengers_skipped"] == 0.0


def test_trivial_hinf_rejects_bad_selector(cavity_plant) -> None:
    with pytest.raises(DomainError):
        verify_trivial_hinf(cavity_plant, [[0.5, 0.5]], [])
    with pytest.raises(DomainError):
        verify_trivial_hinf(cavity_plant, [[1.0, 1.0]], [])


@pytest.mark.parametrize("selector", [[[1.0 + 1.0j, 0.0]], [[1.0, 0.5j]]])
def test_trivial_hinf_rejects_complex_selector(selector) -> None:
    p = random_pr_plant(1, 1, 1, 1, seed=3)
    with pytest.raises(DomainError):
        verify_trivial_hinf(p, selector, random_challengers(p, count=2, seed=3))


def test_trivial_hinf_non_realizable_plant_is_skipped() -> None:
    p = PlantModel(
        kind="annihilation",
        f=[[-1.0]],
        g_w=[[-0.9]],
        g_u=[[-1.0]],
        h=[[2.0]],
        k=np.eye(1),
    )
    report = verify_trivial_hinf(p, [[1.0, 0.0]], [])
    assert report.skipped
    assert report.narrative.startswith("skipped: plant not physically realizable")


def test_trivial_hinf_lists_unrealizable_challenger_as_skipped(cavity_plant) -> None:
    bad = static_controller(k_cy=[[0.5]], k_cw=[[1.0]])
    report = verify_trivial_hinf(cavity_plant, [[1.0, 0.0]], [bad])
    assert report.holds
    assert report.evidence["challengers_skipped"] == 1.0
    assert "challenger 0" in report.narrative


def test_trivial_hinf_suite_50_plants() -> None:
    shapes = [(1, 1, 1, 1), (2, 2, 1, 1), (2, 2, 2, 2), (1, 2, 1, 1), (2, 3, 1, 2)]
    for seed in range(50):
        n, m_w, m_u, m_y = shapes[seed % len(shapes)]
        p = random_pr_plant(n, m_w, m_u, m_y, seed=900 + seed)
        challengers = random_challengers(p, count=5, seed=900 + seed)
        selector = np.zeros((1, m_w + m_u))
        selector[0, 0] = 1.0
        report = verify_trivial_hinf(p, selector, challengers)
        assert report.holds, (seed, report.narrative)
        assert report.evidence["worst_norm_dev"] <= 1e-6
        assert report.evidence["max_pointwise_dev"] <= 1e-7


def _two_sampling_reference(p: PlantModel, l_select, challengers) -> tuple[float, float, float]:
    """T6's trivial norm, worst norm deviation and pointwise deviation, with each
    loop's norm and |sigma_max - 1| sampled by separate grid passes."""
    l_select = np.asarray(l_select, dtype=float)
    norms, pointwise = [], []
    for ctrl in [trivial_controller(p.m_y, p.m_u), *challengers]:
        full = feedback.close_augmented_loop(p, ctrl).system
        pad = np.zeros((l_select.shape[0], full.output_dim), dtype=complex)
        pad[:, : l_select.shape[1]] = l_select
        selected = StateSpaceTF(full.a, full.b, pad @ full.c, pad @ full.d)
        norms.append(hinf_norm(selected).value)
        values, used = _sample_grid(selected._loops, lambda v: np.abs(_sigma_max(v) - 1.0))
        pointwise.append(float(np.max(values, where=used, initial=0.0)))
    return norms[0], max(abs(v - 1.0) for v in norms), max(pointwise)


def test_trivial_hinf_samples_each_loop_once(monkeypatch) -> None:
    p = random_pr_plant(2, 3, 1, 2, seed=3)
    challengers = random_challengers(p, count=5, seed=3)
    grids = []  # the loops of each grid pass
    sample = transfer._sample_grid
    monkeypatch.setattr(transfer, "_sample_grid", lambda g, metric: grids.append(len(g.a)) or sample(g, metric))
    report = verify_trivial_hinf(p, [[1.0, 0.0, 0.0, 0.0]], challengers)
    assert report.evidence["loops_checked"] == 6.0
    assert sum(grids) == 6


def test_trivial_hinf_calls_the_public_norm_once_per_loop(monkeypatch) -> None:
    # T6 norms its loops in stacks through the one norm core that hinf_norm runs on one loop
    p = random_pr_plant(2, 3, 1, 2, seed=3)
    challengers = random_challengers(p, count=5, seed=3)
    calls = []
    norms = coherent._hinf_norms
    monkeypatch.setattr(coherent, "_hinf_norms", lambda g, *args: calls.append(len(g.a)) or norms(g, *args))
    report = verify_trivial_hinf(p, [[1.0, 0.0, 0.0, 0.0]], challengers)
    assert report.holds and report.evidence["loops_checked"] == 6.0
    assert sum(calls) == 6


def test_each_loop_is_factored_once(monkeypatch) -> None:
    # a loop's stability, H2 cost and selected-row H-infinity norm read one Schur form of
    # its A; only hinf_norm's 2k x 2k Hamiltonians (k the loop order) are eigensolved
    p = random_pr_plant(3, 2, 1, 1, seed=4).with_cost(CostOutput(c=np.ones((1, 3)), d=np.zeros((1, 1))))
    challengers = random_challengers(p, count=4, seed=4)
    ap = augment_plant(p)
    assert augment_plant(p) is ap and ap.theta.flags.writeable is False
    fresh = augment_plant(p.with_cost(p.cost))
    assert fresh is not ap and np.array_equal(fresh.theta, ap.theta)
    eig_shapes, schur_shapes = [], []
    eigvals, eig, schur = np.linalg.eigvals, np.linalg.eig, transfer.schur
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: eig_shapes.append(a.shape) or eigvals(a))
    monkeypatch.setattr(np.linalg, "eig", lambda a: eig_shapes.append(a.shape) or eig(a))
    monkeypatch.setattr(transfer, "schur", lambda a, **kw: schur_shapes.append(a.shape) or schur(a, **kw))

    def spied(call) -> tuple[list, list]:
        eig_shapes.clear()
        schur_shapes.clear()
        call()
        return list(eig_shapes), list(schur_shapes)

    c = challengers[0]
    k = p.n_modes + c.n_modes
    assert spied(lambda: lqg_cost(close_loop(p, c))) == ([], [(k, k)])
    select = np.eye(p.m_y, p.m_w + p.m_u + c.m_wt - c.m_u)
    rows = []
    eigs, factored = spied(lambda: rows.append(close_augmented_loop(p, c).system._rows(select)) or hinf_norm(rows[0]))
    assert {shape[-2:] for shape in eigs} <= {(2 * k, 2 * k)} and factored == [(k, k)]
    # the rows keep one one-loop stack, on the loop's Schur form, for every later call
    assert rows[0]._loops is rows[0]._loops
    assert spied(lambda: (hinf_norm(rows[0]), transfer.tf_eval(rows[0], 0.0))) == ([(1, 2 * k, 2 * k)] * len(eigs), [])
    orders = [p.n_modes + ctrl.n_modes for ctrl in [trivial_controller(p.m_y, p.m_u), *challengers]]
    eigs, factored = spied(lambda: verify_trivial_hinf(p, [[1.0, 0.0, 0.0]], challengers))
    # each loop's Hamiltonians are (1, 2k, 2k) stacks, and the Schur forms follow the stacks of
    # equal order, so compare multisets
    assert {shape[-2:] for shape in eigs} <= {(2 * k, 2 * k) for k in orders}
    assert sorted(factored) == sorted((k, k) for k in orders)


def test_each_static_loop_is_built_once(cavity_plant_with_cost, monkeypatch, tmp_path) -> None:
    # C1 folds the static loop without a plant model, and at K_cy = 0, K_cw = I that loop is
    # the plant, whose cached completion it reads; T5 folds each accepted gain once and costs
    # its loop from the certificate of its zero-gain check, so per gain it closes, factors and
    # solves nothing beyond C1's check, and its K_cy = 0 gain and augment_plant reuse C1's solve;
    # compose --h2 reads the loop it closed, so only --hinf assembles (and factors) a second one;
    # without a control channel T5 prices the plant by its own certificate
    p = cavity_plant_with_cost
    twin = replace(p)  # counts the accepted gains without caching p's own completion
    accepted = sum(complete_static_pr(twin, k) is not None for k in coherent._static_gain_candidates(1, 1, 1729))
    assert accepted == 5
    calls: dict[str, int] = {}
    schur_shapes, schur = [], transfer.schur

    def spy(owner, name: str, label: str) -> None:
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[label] = calls.get(label, 0) + 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for owner in (feedback, coherent):
        spy(owner, "_loop_matrices", "loop_matrices")
    for owner in (feedback, cli):
        spy(owner, "close_loop", "close_loop")
    for owner in (coherent, transfer):
        spy(owner, "h2_norm", "h2_norm")
    for owner in (linalg, systems, transfer):
        spy(owner, "solve_lyapunov_hermitian", "lyapunov")
    spy(coherent, "lqg_cost", "lqg_cost")
    spy(feedback, "gamma_cl", "gamma_cl")
    spy(PlantModel, "__post_init__", "plant")
    spy(ControllerModel, "__post_init__", "controller")
    monkeypatch.setattr(transfer, "schur", lambda a, **kw: schur_shapes.append(a.shape) or schur(a, **kw))

    assert verify_zero_gain(p, [[0.0]], [[1.0]]).holds
    assert calls == {"loop_matrices": 1, "controller": 1, "lyapunov": 1}
    calls.clear()
    schur_shapes.clear()
    assert verify_static_lqg(p).holds
    assert calls["controller"] == accepted and "plant" not in calls
    assert not {"close_loop", "lqg_cost", "h2_norm"} & calls.keys() and schur_shapes == []
    assert calls["lyapunov"] == accepted - 1  # one per nonzero gain's completion; the plant's is cached
    no_control = PlantModel(kind="annihilation", f=[[-1.0]], g_w=[[-ROOT2]], g_u=np.zeros((1, 0)), h=[[ROOT2]],
                            k=np.eye(1), cost=CostOutput(c=[[1.0]], d=np.zeros((1, 0))))
    calls.clear()
    assert verify_static_lqg(no_control).evidence.keys() == {"constant_cost"}
    assert calls == {"lyapunov": 1} and schur_shapes == []  # the plant's completion only

    plant, ctrl = tmp_path / "p.json", tmp_path / "c.json"
    save_system(plant, p)
    save_system(ctrl, trivial_controller(1, 1))
    calls.clear()
    schur_shapes.clear()
    assert cli.main(["compose", str(plant), str(ctrl), "--h2", "--hinf"]) == 0
    assert calls["close_loop"] == 1 and "gamma_cl" not in calls
    assert schur_shapes == [(p.n_modes, p.n_modes)] * 2


@pytest.mark.parametrize("shape", [(1, 1, 1, 1), (2, 2, 1, 1), (2, 2, 2, 2), (1, 2, 1, 1), (2, 3, 1, 2)])
def test_trivial_hinf_matches_the_two_sampling_reference(shape: tuple[int, int, int, int]) -> None:
    n, m_w, m_u, m_y = shape
    for seed in range(3):
        p = random_pr_plant(n, m_w, m_u, m_y, seed=40 + seed)
        challengers = random_challengers(p, count=5, seed=40 + seed)
        selector = np.zeros((1, m_w + m_u))
        selector[0, 0] = 1.0
        report = verify_trivial_hinf(p, selector, challengers)
        trivial, worst, pointwise = _two_sampling_reference(p, selector, challengers)
        assert report.evidence["trivial_norm"] == trivial
        assert report.evidence["worst_norm_dev"] == worst
        assert abs(report.evidence["max_pointwise_dev"] - pointwise) <= 1e-15


def reference_trivial_hinf(p: PlantModel, l_select, challengers) -> tuple:
    """T6 one loop at a time, as before the stacked pass: close_augmented_loop, the norm of the
    selected rows and the certificate tests per loop; (holds, evidence by hex, narrative)."""
    l_select = np.asarray(l_select, dtype=complex)
    try:
        augment_plant(p)
    except NotAugmentableError as exc:
        return False, {"hypothesis_ok": (0.0).hex()}, f"skipped: plant not physically realizable ({exc})"
    norms, pointwise, lossless_ok, skipped = [], [], True, []
    entries = [("trivial", trivial_controller(p.m_y, p.m_u))]
    entries += [(f"challenger {i}", c) for i, c in enumerate(challengers)]
    for label, ctrl in entries:
        try:
            acl = close_augmented_loop(p, ctrl)
        except (NotAugmentableError, DimensionError) as exc:
            skipped.append(f"{label}: {exc}")
            continue
        full = acl.system
        pad = np.zeros((l_select.shape[0], full.output_dim), dtype=complex)
        pad[:, : l_select.shape[1]] = l_select
        norm = hinf_norm(full._rows(pad))
        norms.append(norm.value)
        q = hermitian_part(full.b @ dagger(full.b))
        feed = max_abs(dagger(full.d) @ full.d - np.eye(full.input_dim))
        defect = _certificate_defect(full.a, full.b, full.c, full.d, q, acl.theta, {}, RESIDUAL_TOL)
        lossless_ok &= acl.internally_stable and feed <= RESIDUAL_TOL and defect is None
        top, bottom = (norm.certificate.get(k, norm.value) for k in ("grid_lower_bound", "grid_min"))
        pointwise.append(max(top - 1.0, 1.0 - bottom))
    worst = max(abs(v - 1.0) for v in norms) if norms else np.inf
    evidence = {
        "trivial_norm": norms[0] if norms else np.inf,
        "worst_norm_dev": worst,
        "max_pointwise_dev": max(pointwise) if pointwise else np.inf,
        "loops_checked": float(len(norms)),
        "challengers_skipped": float(len(skipped)),
        "lossless_all": float(lossless_ok),
    }
    narrative = (
        f"{len(norms)} loops give closed-loop norms within {worst:.3g} of 1; all-pass verified pointwise to "
        f"{max(pointwise) if pointwise else np.inf:.3g}." + (f" Skipped: {'; '.join(skipped)}" if skipped else "")
    )
    return bool(norms) and worst <= 1e-6 and lossless_ok, {k: float(v).hex() for k, v in evidence.items()}, narrative


def report_hex(report) -> tuple:
    return report.holds, {k: float(v).hex() for k, v in report.evidence.items()}, report.narrative


@pytest.mark.parametrize(
    "shape", [(1, 1, 1, 1), (2, 2, 1, 1), (2, 2, 2, 2), (1, 2, 1, 1), (2, 3, 1, 2), (3, 2, 1, 1), (4, 3, 2, 2)]
)
@pytest.mark.parametrize("count", [0, 1, 5, 20])
def test_stacked_trivial_hinf_matches_the_per_loop_reference(shape, count) -> None:
    # T6 completes, closes and norms its loops in stacks of equal order; each report is bit for
    # bit the one-loop-at-a-time report, with one measured row and with m_y = 2 rows selected
    n, m_w, m_u, m_y = shape
    for seed in range(3):
        p = random_pr_plant(*shape, seed=680 + seed)
        challengers = random_challengers(p, count, seed)
        for rows in {1, m_y}:
            selector = np.zeros((rows, m_w + m_u))
            selector[:, :rows] = np.eye(rows)
            got = report_hex(verify_trivial_hinf(p, selector, challengers))
            assert got == reference_trivial_hinf(p, selector, challengers), (seed, rows)


def test_stacked_trivial_hinf_keeps_the_per_loop_skips_and_errors(cavity_plant) -> None:
    # a challenger with other channels, a static one with K_cy != 0 and one with fewer noises
    # than controls are skipped with their own messages, in entry order; a general-kind
    # challenger raises the reference's DomainError; a non-realizable plant is skipped
    p, select = cavity_plant, [[1.0, 0.0]]
    challengers = random_challengers(p, 4, 5)
    other_channels = random_challengers(random_pr_plant(1, 2, 2, 1, seed=1), 1, 0)[0]
    static = static_controller(k_cy=[[0.5]], k_cw=[[1.0]])
    few_noises = ControllerModel(kind="annihilation", f_c=[[-1.0]], g_cw=np.zeros((1, 0)), g_cy=[[0.1]],
                                 h_c=[[0.1]], k_cw=np.zeros((1, 0)), k_cy=[[0.0]])
    general = ControllerModel(kind="general", f_c=delta_build([[-2.0 + 0.5j]], [[0.3]]), g_cw=np.zeros((2, 2)),
                              g_cy=delta_build([[0.4]], [[0.1]]), h_c=delta_build([[0.5]], [[-0.2]]),
                              k_cw=np.eye(2), k_cy=np.zeros((2, 2)))
    mixed = [challengers[0], other_channels, static, challengers[1], few_noises, challengers[2]]
    report = verify_trivial_hinf(p, select, mixed)
    assert report_hex(report) == reference_trivial_hinf(p, select, mixed)
    assert report.evidence["challengers_skipped"] == 3.0 and report.holds
    assert [part.split(":")[0] for part in report.narrative.split("Skipped: ")[1].split("; ")] == [
        "challenger 1", "challenger 2", "challenger 4"
    ]
    errored = [challengers[3], other_channels, general, challengers[0]]
    with pytest.raises(DomainError) as want:
        reference_trivial_hinf(p, select, errored)
    with pytest.raises(DomainError) as got:
        verify_trivial_hinf(p, select, errored)
    assert str(got.value) == str(want.value) == "augmented loop composition is annihilation-kind only"
    unrealizable = PlantModel(kind="annihilation", f=[[-1.0]], g_w=[[-0.9]], g_u=[[-1.0]], h=[[2.0]], k=np.eye(1))
    assert report_hex(verify_trivial_hinf(unrealizable, select, challengers)) == reference_trivial_hinf(
        unrealizable, select, challengers
    )


def test_trivial_hinf_refutes_one_wrong_certificate_in_a_stack(cavity_plant, monkeypatch) -> None:
    # only the last loop of each stack of several gets a scaled certificate; that loop alone
    # must make the lossless test fail, wherever it sits in its stack
    assemble, scaled_loops = coherent._augmented_loop, []

    def last_scaled(*args):
        a, b, c, d, theta = assemble(*args)
        if len(theta) > 1:
            theta = theta.copy()
            theta[-1] *= 1.01
            scaled_loops.append(len(theta))
        return a, b, c, d, theta

    challengers = random_challengers(cavity_plant, 6, 11)
    assert verify_trivial_hinf(cavity_plant, [[1.0, 0.0]], challengers).evidence["lossless_all"] == 1.0
    monkeypatch.setattr(coherent, "_augmented_loop", last_scaled)
    report = verify_trivial_hinf(cavity_plant, [[1.0, 0.0]], challengers)
    assert scaled_loops and report.evidence["lossless_all"] == 0.0 and not report.holds


def test_trivial_hinf_refutes_a_wrong_loop_certificate(cavity_plant, monkeypatch) -> None:
    # the loops stay all-pass; only their certificates are scaled off the identities
    assemble = coherent._augmented_loop

    def scaled(*args):
        a, b, c, d, theta = assemble(*args)
        return a, b, c, d, 1.01 * theta

    monkeypatch.setattr(coherent, "_augmented_loop", scaled)
    report = verify_trivial_hinf(cavity_plant, [[1.0, 0.0]], random_challengers(cavity_plant, 2, 11))
    assert report.evidence["lossless_all"] == 0.0
    assert not report.holds
    assert report.evidence["worst_norm_dev"] <= 1e-6
