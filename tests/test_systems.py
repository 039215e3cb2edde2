"""Tests for system construction, realizability checks and parameter recovery.

The exact oracles are scalar substitutions into the construction formulas
(single-mode cavity, detuned cavity, lossless oscillator); the seeded
families exercise the construct-then-check and perturbation contracts.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfeedback import (
    AnnihilationQSys,
    DomainError,
    GeneralQSys,
    HamiltonianCoupling,
    check_pr_annihilation,
    check_pr_general,
    delta_build,
    extract_params,
    is_doubled,
    random_pr_system,
    realize_annihilation,
    realize_general,
    signature_matrix,
)
from qfeedback.linalg import max_abs
from qfeedback.systems import eig_sum_condition, is_hurwitz

ROOT2 = np.sqrt(2.0)


def general_params(theta, m, n) -> HamiltonianCoupling:
    return HamiltonianCoupling(theta=theta, m=m, n_coupling=n, kind="general")


def annihilation_params(theta, m, n) -> HamiltonianCoupling:
    return HamiltonianCoupling(theta=theta, m=m, n_coupling=n, kind="annihilation")


# ---------------------------------------------------------------------------
# construction from physical parameters


def test_realize_general_zero_hamiltonian_no_coupling() -> None:
    s = realize_general(
        general_params(signature_matrix(1), np.zeros((2, 2)), np.zeros((0, 2)))
    )
    np.testing.assert_array_equal(s.f, np.zeros((2, 2)))
    assert s.g.shape == (2, 0)
    np.testing.assert_array_equal(s.k, np.zeros((0, 0)))


def test_realize_general_detuned_cavity() -> None:
    m = delta_build([[1.0]], [[0.0]])
    n = delta_build([[1.0]], [[0.0]])
    s = realize_general(general_params(signature_matrix(1), m, n))
    np.testing.assert_allclose(s.f, np.diag([-1j - 0.5, 1j - 0.5]), atol=1e-14)
    np.testing.assert_allclose(s.g, -np.eye(2), atol=1e-14)
    np.testing.assert_allclose(s.h, np.eye(2), atol=0)
    np.testing.assert_array_equal(s.k, np.eye(2))


def test_realize_general_feedthrough_is_exact_identity() -> None:
    rng = np.random.default_rng(2)
    t = delta_build(
        rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)),
        rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)),
    )
    theta = t @ signature_matrix(2) @ t.conj().T
    m_blocks = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    m = (delta_build(m_blocks, np.zeros((2, 2)))
         + delta_build(m_blocks, np.zeros((2, 2))).conj().T) / 2
    n = delta_build(
        rng.standard_normal((1, 2)) + 1j * rng.standard_normal((1, 2)),
        rng.standard_normal((1, 2)) + 1j * rng.standard_normal((1, 2)),
    )
    s = realize_general(general_params(theta, m, n))
    assert np.array_equal(s.k, np.eye(2))


def test_realize_annihilation_cavity() -> None:
    s = realize_annihilation(annihilation_params([[1.0]], [[0.0]], [[ROOT2]]))
    np.testing.assert_allclose(s.f, [[-1.0]], atol=1e-14)
    np.testing.assert_allclose(s.g, [[-ROOT2]], atol=1e-14)
    np.testing.assert_allclose(s.h, [[ROOT2]], atol=0)
    np.testing.assert_array_equal(s.k, np.eye(1))


def test_realize_annihilation_lossless_oscillator() -> None:
    omega = 0.7
    s = realize_annihilation(annihilation_params([[1.0]], [[omega]], np.zeros((0, 1))))
    np.testing.assert_allclose(s.f, [[-1j * omega]], atol=1e-14)
    assert s.g.shape == (1, 0)


def test_realize_annihilation_two_port_cavity() -> None:
    s = realize_annihilation(annihilation_params([[1.0]], [[0.0]], [[1.0], [1.0]]))
    np.testing.assert_allclose(s.f, [[-1.0]], atol=1e-14)
    np.testing.assert_allclose(s.g, [[-1.0, -1.0]], atol=1e-14)
    np.testing.assert_allclose(s.h, [[1.0], [1.0]], atol=0)
    np.testing.assert_array_equal(s.k, np.eye(2))


def test_realize_annihilation_rejects_indefinite_theta() -> None:
    with pytest.raises(DomainError):
        realize_annihilation(annihilation_params([[-1.0]], [[0.0]], [[1.0]]))


def test_general_params_reject_indefinite_inertia() -> None:
    with pytest.raises(DomainError):
        general_params(np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# realizability checks


def test_check_pr_general_accepts_construction_and_recovers_theta() -> None:
    m = delta_build([[1.0]], [[0.0]])
    n = delta_build([[1.0]], [[0.0]])
    s = realize_general(general_params(signature_matrix(1), m, n))
    verdict = check_pr_general(s)
    assert verdict.realizable
    np.testing.assert_allclose(verdict.theta, signature_matrix(1), atol=1e-8)


def test_check_pr_general_rejects_scaled_feedthrough() -> None:
    m = delta_build([[1.0]], [[0.0]])
    n = delta_build([[1.0]], [[0.0]])
    s = realize_general(general_params(signature_matrix(1), m, n))
    bad = GeneralQSys(f=s.f, g=s.g, h=s.h, k=2 * np.eye(2))
    verdict = check_pr_general(bad)
    assert not verdict.realizable
    assert verdict.failure_reason == "feedthrough"


def test_check_pr_annihilation_cavity() -> None:
    s = AnnihilationQSys(
        f=[[-1.0]], g=[[-ROOT2]], h=[[ROOT2]], k=np.eye(1)
    )
    verdict = check_pr_annihilation(s)
    assert verdict.realizable
    np.testing.assert_allclose(verdict.theta, [[1.0]], atol=1e-10)


def test_check_pr_annihilation_coupling_mismatch() -> None:
    # Lyapunov certificate is 1/2 but the coupling demands g = -theta h^dagger
    s = AnnihilationQSys(f=[[-1.0]], g=[[1.0]], h=[[1.0]], k=np.eye(1))
    verdict = check_pr_annihilation(s)
    assert not verdict.realizable
    assert verdict.failure_reason == "coupling"


def test_check_pr_annihilation_feedthrough() -> None:
    s = AnnihilationQSys(f=[[-1.0]], g=[[-ROOT2]], h=[[ROOT2]], k=[[-1.0]])
    verdict = check_pr_annihilation(s)
    assert not verdict.realizable
    assert verdict.failure_reason == "feedthrough"


# ---------------------------------------------------------------------------
# parameter recovery


def test_extract_params_cavity() -> None:
    s = AnnihilationQSys(f=[[-1.0]], g=[[-ROOT2]], h=[[ROOT2]], k=np.eye(1))
    p = extract_params(s)
    np.testing.assert_allclose(p.theta, [[1.0]], atol=1e-10)
    np.testing.assert_allclose(p.m, [[0.0]], atol=1e-10)
    np.testing.assert_allclose(p.n_coupling, [[ROOT2]], atol=0)


def test_extract_params_lossless_oscillator() -> None:
    omega = 0.7
    s = AnnihilationQSys(
        f=[[-1j * omega]], g=np.zeros((1, 0)), h=np.zeros((0, 1)), k=np.zeros((0, 0))
    )
    p = extract_params(s)
    np.testing.assert_allclose(p.m, [[omega]], atol=1e-10)


def test_extract_params_rejects_unrealizable() -> None:
    s = AnnihilationQSys(f=[[-1.0]], g=[[1.0]], h=[[1.0]], k=np.eye(1))
    with pytest.raises(DomainError):
        extract_params(s)


def test_round_trip_realize_extract_realize() -> None:
    for seed in range(20):
        kind = "general" if seed % 2 else "annihilation"
        s = random_pr_system(2, 2, seed=seed, kind=kind)
        p = extract_params(s)
        rebuilt = realize_general(p) if kind == "general" else realize_annihilation(p)
        for name in ("f", "g", "h", "k"):
            got = getattr(rebuilt, name)
            want = getattr(s, name)
            assert max_abs(got - want) <= 1e-8 * (1 + max_abs(want)), (kind, seed, name)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["annihilation", "general"]),
    n=st.integers(1, 5),
    m=st.integers(1, 3),
)
def test_realize_check_extract_realize_round_trips(seed, kind, n, m) -> None:
    s = random_pr_system(n, m, seed=seed, kind=kind)
    check = check_pr_general if kind == "general" else check_pr_annihilation
    realize = realize_general if kind == "general" else realize_annihilation
    verdict = check(s)
    assert verdict.realizable
    p = extract_params(s)
    assert p.kind == kind and (p.n_modes, p.m_fields) == (n, m)
    np.testing.assert_array_equal(p.theta, verdict.theta)
    np.testing.assert_array_equal(p.n_coupling, s.h)
    rebuilt = realize(p)
    assert type(rebuilt) is type(s) and (rebuilt.n_modes, rebuilt.m_fields) == (n, m)
    for name in ("f", "g", "h", "k"):
        got, want = getattr(rebuilt, name), getattr(s, name)
        assert max_abs(got - want) <= 1e-8 * (1 + max_abs(want)), name


def test_round_trip_keeps_doubled_structure_of_recovered_m() -> None:
    # The recovered M of this 16-mode draw is off doubled-up structure by
    # 1.6e-9 relative, just above STRUCTURE_TOL.
    s = random_pr_system(16, 2, seed=30, kind="general")
    p = extract_params(s)
    assert is_doubled(p.m, tol=0.0)
    rebuilt = realize_general(p)
    for name in ("f", "g", "h", "k"):
        got = getattr(rebuilt, name)
        want = getattr(s, name)
        assert max_abs(got - want) <= 1e-8 * (1 + max_abs(want)), name


# ---------------------------------------------------------------------------
# eigenvalue-sum condition and generators


def test_eig_sum_condition_examples() -> None:
    assert eig_sum_condition([[-1.0]])
    assert not eig_sum_condition([[1j]])
    assert not eig_sum_condition(np.diag([-1.0, 1.0]))


def test_random_pr_system_annihilation_is_realizable() -> None:
    s = random_pr_system(1, 1, seed=0, kind="annihilation")
    assert check_pr_annihilation(s).realizable


def test_random_pr_system_general_is_doubled() -> None:
    s = random_pr_system(2, 2, seed=7, kind="general")
    for mat in (s.f, s.g, s.h, s.k):
        assert is_doubled(mat)


def test_random_pr_system_hurwitz_flag() -> None:
    s = random_pr_system(3, 2, seed=1, kind="annihilation", hurwitz_required=True)
    assert is_hurwitz(s.f)


def test_construct_then_check_200_seeds() -> None:
    rng = np.random.default_rng(97)
    for seed in range(200):
        kind = "general" if seed % 2 else "annihilation"
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        s = random_pr_system(n, m, seed=seed, kind=kind)
        verdict = (
            check_pr_general(s) if kind == "general" else check_pr_annihilation(s)
        )
        assert verdict.realizable, (kind, seed, verdict.failure_reason)
        assert all(v <= 1e-8 * 10 for v in verdict.residuals.values()) or all(
            v <= 1e-8 * (1 + max_abs(s.g)) ** 2 for v in verdict.residuals.values()
        ), (kind, seed, verdict.residuals)


def test_single_entry_perturbation_flips_verdict_50_seeds() -> None:
    for seed in range(50):
        kind = "general" if seed % 2 else "annihilation"
        s = random_pr_system(2, 2, seed=1000 + seed, kind=kind)
        g = s.g.copy()
        g[0, 0] += 1e-3
        if kind == "general":
            # keep the doubled-up structure so the check reaches the coupling test
            g[s.n_modes, s.m_fields] += 1e-3
            bad = GeneralQSys(f=s.f, g=g, h=s.h, k=s.k)
            verdict = check_pr_general(bad)
        else:
            bad = AnnihilationQSys(f=s.f, g=g, h=s.h, k=s.k)
            verdict = check_pr_annihilation(bad)
        assert not verdict.realizable, (kind, seed)
