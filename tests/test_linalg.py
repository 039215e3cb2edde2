"""Tests for doubled-up structure helpers and dense matrix equation solvers.

Scalar oracles are worked by hand (each is a one-line algebraic identity,
recorded next to the assertion); structural properties run over seeded
random families.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from qfeedback import (
    CareSolution,
    DimensionError,
    DomainError,
    SingularityError,
    conj_swap,
    delta_build,
    doubling_permutation,
    is_doubled,
    psd_split,
    signature_matrix,
    solve_care_hermitian,
    solve_lyapunov_hermitian,
    solve_sylvester,
)
from qfeedback.linalg import (
    RESIDUAL_TOL,
    _coupling_defect,
    _hurwitz_spectrum,
    _lyapunov_defect,
    dagger,
    hermitian_basis,
    hermitian_part,
    max_abs,
    real_lstsq,
)


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (m + m.conj().T) / 2


def random_stable(rng: np.random.Generator, n: int) -> np.ndarray:
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    shift = np.max(np.abs(np.linalg.eigvals(m).real)) + 0.5
    return m - shift * np.eye(n)


# ---------------------------------------------------------------------------
# doubled-up structure


def test_delta_build_identity_case() -> None:
    d = delta_build([[1.0]], [[0.0]])
    np.testing.assert_array_equal(d, np.eye(2, dtype=complex))


def test_delta_build_conjugates_off_diagonal_block() -> None:
    d = delta_build([[0.0]], [[1j]])
    np.testing.assert_array_equal(d, np.array([[0, 1j], [-1j, 0]]))


def test_delta_build_general_entries() -> None:
    d = delta_build([[1 + 1j]], [[2.0]])
    expected = np.array([[1 + 1j, 2], [2, 1 - 1j]])
    np.testing.assert_array_equal(d, expected)


def test_is_doubled_accepts_identity() -> None:
    assert is_doubled(np.eye(2), tol=1e-12)


def test_is_doubled_accepts_conjugate_pattern() -> None:
    assert is_doubled(np.array([[0, 1j], [-1j, 0]]), tol=1e-12)


def test_is_doubled_rejects_wrong_conjugate() -> None:
    assert not is_doubled(np.array([[0, 1j], [1j, 0]]), tol=1e-12)


def test_is_doubled_rejects_odd_dimensions() -> None:
    with pytest.raises(DimensionError):
        is_doubled(np.eye(3))


def test_delta_build_then_is_doubled_exact() -> None:
    rng = np.random.default_rng(5)
    a1 = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    a2 = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    d = delta_build(a1, a2)
    assert is_doubled(d, tol=0.0)


def test_doubled_product_closure_100_pairs() -> None:
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        blocks = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(4)]
        prod = delta_build(blocks[0], blocks[1]) @ delta_build(blocks[2], blocks[3])
        top = prod[:n, :n]
        off = prod[:n, n:]
        rebuilt = delta_build(top, off)
        assert max_abs(prod - rebuilt) <= 1e-12 * (1 + max_abs(prod))


def test_conj_swap_is_an_involution_and_multiplicative() -> None:
    rng = np.random.default_rng(23)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    y = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    np.testing.assert_allclose(conj_swap(conj_swap(x)), x, atol=0)
    np.testing.assert_allclose(conj_swap(x @ y), conj_swap(x) @ conj_swap(y), atol=1e-12)


def test_commutation_matrix_is_conj_swap_antisymmetric() -> None:
    rng = np.random.default_rng(29)
    t = delta_build(
        rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)),
        rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)),
    )
    theta = t @ signature_matrix(2) @ t.conj().T
    np.testing.assert_allclose(conj_swap(theta), -theta, atol=1e-12)


def test_doubling_permutation_restores_doubled_order() -> None:
    rng = np.random.default_rng(31)
    d1 = delta_build(
        rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)),
        rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)),
    )
    d2 = delta_build(
        rng.standard_normal((1, 1)) + 1j * rng.standard_normal((1, 1)),
        rng.standard_normal((1, 1)) + 1j * rng.standard_normal((1, 1)),
    )
    stacked = np.block(
        [
            [d1, np.zeros((4, 2), dtype=complex)],
            [np.zeros((2, 4), dtype=complex), d2],
        ]
    )
    perm = doubling_permutation([2, 1])
    canonical = stacked[np.ix_(perm, perm)]
    assert is_doubled(canonical, tol=0.0)


# ---------------------------------------------------------------------------
# Sylvester and Lyapunov solvers


def test_sylvester_scalar() -> None:
    # -x - x + 2 = 0 -> x = 1
    x = solve_sylvester([[-1.0]], [[-1.0]], [[2.0]])
    np.testing.assert_allclose(x, [[1.0]], atol=1e-12)


def test_sylvester_singular_spectrum_pair() -> None:
    # eigenvalue sum -1 + 1 = 0: no unique solution
    with pytest.raises(SingularityError) as info:
        solve_sylvester([[-1.0]], [[1.0]], [[5.0]])
    assert info.value.eigenvalue_pair == (-1.0, 1.0)


def test_sylvester_scalar_distinct_rates() -> None:
    # -2x - x + 3 = 0 -> x = 1
    x = solve_sylvester([[-2.0]], [[-1.0]], [[3.0]])
    np.testing.assert_allclose(x, [[1.0]], atol=1e-12)


def test_sylvester_residual_on_random_instances() -> None:
    rng = np.random.default_rng(37)
    for _ in range(25):
        p, q = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        a = random_stable(rng, p)
        b = random_stable(rng, q)
        c = rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q))
        x = solve_sylvester(a, b, c)
        res = max_abs(a @ x + x @ b + c)
        assert res <= 1e-8 * (1 + max_abs(c))


@pytest.mark.parametrize("n, q", [(32, 32), (32, 7)])
def test_sylvester_residual_at_larger_sizes(n: int, q: int) -> None:
    rng = np.random.default_rng(41)
    a = random_stable(rng, n)
    b = random_stable(rng, q)
    c = rng.standard_normal((n, q)) + 1j * rng.standard_normal((n, q))
    x = solve_sylvester(a, b, c)
    assert x.shape == (n, q)
    assert max_abs(a @ x + x @ b + c) <= 1e-8 * (1 + max_abs(c))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 32, 64])
def test_lyapunov_matches_the_two_sided_sylvester_solve(n: int) -> None:
    rng = np.random.default_rng(300 + n)
    a = random_stable(rng, n)
    q = random_hermitian(rng, n)
    x = solve_lyapunov_hermitian(a, q)
    ref = solve_sylvester(a, a.conj().T, q)
    ref = (ref + ref.conj().T) / 2
    if n == 1:
        assert np.array_equal(x, ref)
    assert max_abs(x - ref) <= 1e-12 * max_abs(ref)


def test_lyapunov_collision_carries_the_sylvester_pair() -> None:
    # 2j + conj(2j) = 0; the other sums stay at least 1 away from 0
    a = np.array([[2j, 1.0], [0.0, -1.0]])
    q = np.eye(2)
    with pytest.raises(SingularityError) as lyap:
        solve_lyapunov_hermitian(a, q)
    with pytest.raises(SingularityError) as sylv:
        solve_sylvester(a, a.conj().T, q)
    assert lyap.value.eigenvalue_pair == (2j, -2j)
    assert sylv.value.eigenvalue_pair == lyap.value.eigenvalue_pair


def test_lyapunov_scalar() -> None:
    # -x - x + 2 = 0 -> x = 1
    x = solve_lyapunov_hermitian([[-1.0]], [[2.0]])
    np.testing.assert_allclose(x, [[1.0]], atol=1e-12)


def test_lyapunov_zero_rhs() -> None:
    x = solve_lyapunov_hermitian([[-1.0]], [[0.0]])
    np.testing.assert_allclose(x, [[0.0]], atol=0)


def test_lyapunov_scalar_rate_three() -> None:
    # -3x - 3x + 6 = 0 -> x = 1
    x = solve_lyapunov_hermitian([[-3.0]], [[6.0]])
    np.testing.assert_allclose(x, [[1.0]], atol=1e-12)


def test_lyapunov_eigenvalue_sum_zero_raises() -> None:
    # purely imaginary pole: lambda + conj(lambda) = 0
    with pytest.raises(SingularityError):
        solve_lyapunov_hermitian([[1j]], [[1.0]])


def test_lyapunov_rejects_non_hermitian_rhs() -> None:
    with pytest.raises(DomainError):
        solve_lyapunov_hermitian(np.diag([-1.0, -2.0]), [[0.0, 1.0], [0.0, 0.0]])


def test_lyapunov_hermitian_output_and_residual_100_seeds() -> None:
    rng = np.random.default_rng(41)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        a = random_stable(rng, n)
        q = random_hermitian(rng, n)
        x = solve_lyapunov_hermitian(a, q)
        assert np.array_equal(x, x.conj().T)
        assert max_abs(a @ x + x @ a.conj().T + q) <= 1e-8 * (1 + max_abs(q))


# ---------------------------------------------------------------------------
# continuous algebraic Riccati equation


def test_care_selects_stable_subspace_root() -> None:
    # -2x + x^2 = 0 has roots {0, 2}; the stabilizing one is 0
    sol = solve_care_hermitian([[-1.0]], [[1.0]], [[0.0]])
    assert sol.exists
    assert sol.selection == "stable-subspace"
    np.testing.assert_allclose(sol.x, [[0.0]], atol=1e-10)


def test_care_double_root() -> None:
    # x^2 - 2x + 1 = 0 -> x = 1 (double root)
    sol = solve_care_hermitian([[-1.0]], [[1.0]], [[1.0]])
    assert sol.exists
    np.testing.assert_allclose(sol.x, [[1.0]], atol=1e-6)
    assert sol.residual <= 1e-8


def test_care_quadratic_term_zero_reduces_to_lyapunov() -> None:
    # 2x + 1 = 0 -> x = -1/2
    sol = solve_care_hermitian([[1.0]], [[0.0]], [[1.0]])
    assert sol.exists
    assert sol.selection == "lyapunov-degenerate"
    np.testing.assert_allclose(sol.x, [[-0.5]], atol=1e-12)


def test_care_reports_nonexistence_without_raising() -> None:
    # x^2 + 1 = 0 has no Hermitian (real scalar) solution
    sol = solve_care_hermitian([[0.0]], [[1.0]], [[1.0]])
    assert isinstance(sol, CareSolution)
    assert not sol.exists
    assert sol.selection == "none"


def test_care_reverse_constructed_instances() -> None:
    rng = np.random.default_rng(43)
    for _ in range(40):
        n = int(rng.integers(1, 5))
        a = random_stable(rng, n)
        r = random_hermitian(rng, n)
        x0 = random_hermitian(rng, n)
        q = -(a @ x0 + x0 @ a.conj().T + x0 @ r @ x0)
        sol = solve_care_hermitian(a, r, q)
        assert sol.exists
        assert np.array_equal(sol.x, sol.x.conj().T)
        res = max_abs(a @ sol.x + sol.x @ a.conj().T + sol.x @ r @ sol.x + q)
        assert res <= 1e-7 * (1 + max_abs(q) + max_abs(sol.x) ** 2 * (1 + max_abs(r)))


# ---------------------------------------------------------------------------
# eigenvalue-sign splitting and rank helpers


def test_psd_split_positive_scalar() -> None:
    split = psd_split([[2.0]])
    np.testing.assert_allclose(split.positive, [[2.0]], atol=1e-14)
    np.testing.assert_allclose(split.negative, [[0.0]], atol=1e-14)
    assert split.positive_factor.shape == (1, 1)
    assert split.negative_factor.shape == (1, 0)


def test_psd_split_negative_scalar() -> None:
    split = psd_split([[-3.0]])
    np.testing.assert_allclose(split.positive, [[0.0]], atol=1e-14)
    np.testing.assert_allclose(split.negative, [[3.0]], atol=1e-14)


def test_psd_split_indefinite_diagonal() -> None:
    split = psd_split(np.diag([1.0, -4.0]))
    np.testing.assert_allclose(split.positive, np.diag([1.0, 0.0]), atol=1e-14)
    np.testing.assert_allclose(split.negative, np.diag([0.0, 4.0]), atol=1e-14)
    assert split.positive_factor.shape == (2, 1)
    assert split.negative_factor.shape == (2, 1)


def test_psd_split_rejects_non_hermitian() -> None:
    with pytest.raises(DomainError):
        psd_split([[0.0, 1.0], [0.0, 0.0]])


def test_psd_split_reconstruction_property() -> None:
    rng = np.random.default_rng(47)
    for _ in range(30):
        n = int(rng.integers(1, 7))
        m = random_hermitian(rng, n)
        split = psd_split(m)
        np.testing.assert_allclose(split.positive - split.negative, m, atol=1e-10)
        np.testing.assert_allclose(
            split.positive_factor @ split.positive_factor.conj().T,
            split.positive,
            atol=1e-10,
        )
        np.testing.assert_allclose(
            split.negative_factor @ split.negative_factor.conj().T,
            split.negative,
            atol=1e-10,
        )
        assert np.min(np.linalg.eigvalsh(split.positive)) >= -1e-10
        assert np.min(np.linalg.eigvalsh(split.negative)) >= -1e-10


def looped_hermitian_basis(n: int) -> list[np.ndarray]:
    """Reference: the Hermitian basis built one unit matrix at a time."""
    basis = []
    for i in range(n):
        e = np.zeros((n, n), dtype=complex)
        e[i, i] = 1.0
        basis.append(e)
    for i in range(n):
        for j in range(i + 1, n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = e[j, i] = 1.0
            basis.append(e)
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = 1j
            e[j, i] = -1j
            basis.append(e)
    return basis


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_hermitian_basis_matches_looped_reference(n: int) -> None:
    basis = hermitian_basis(n)
    assert basis.shape == (n * n, n, n)
    np.testing.assert_array_equal(basis, np.array(looped_hermitian_basis(n)).reshape(basis.shape))


def test_real_lstsq_recovers_hermitian_coefficients() -> None:
    basis = hermitian_basis(3)
    h = np.array([[1.0, 2j, -1.0], [0.5, 0.0, 1j]])
    coeffs = np.arange(9.0) - 4.0
    known = np.tensordot(coeffs, basis, 1)
    sol, residual, a_mat = real_lstsq(
        [basis, basis @ h.conj().T], [known, known @ h.conj().T]
    )
    for k, b in enumerate(basis):
        vec = np.concatenate([b.ravel(), (b @ h.conj().T).ravel()])
        np.testing.assert_array_equal(a_mat[:, k], np.concatenate([vec.real, vec.imag]))
    np.testing.assert_allclose(sol, coeffs, rtol=0, atol=1e-12)
    assert residual <= 1e-12
    sol, residual, a_mat = real_lstsq(
        [hermitian_basis(0), np.zeros((0, 3))], [np.zeros((0, 0)), np.ones(3)]
    )
    assert a_mat.shape == (6, 0) and sol.shape == (0,) and residual == 1.0


# ---------------------------------------------------------------------------
# rules over stacks


def test_dagger_and_hermitian_part_act_on_each_matrix_of_a_stack() -> None:
    rng = np.random.default_rng(53)
    x = rng.standard_normal((4, 2, 3)) + 1j * rng.standard_normal((4, 2, 3))
    sq = x @ x.swapaxes(1, 2)
    assert dagger(x).shape == (4, 3, 2)
    for i in range(4):
        np.testing.assert_array_equal(dagger(x)[i], dagger(x[i]))
        np.testing.assert_array_equal(dagger(x[i]), x[i].conj().T)
        np.testing.assert_array_equal(hermitian_part(sq)[i], hermitian_part(sq[i]))


def test_stacked_hurwitz_and_lyapunov_rules_match_their_2d_calls() -> None:
    # one verdict per slice: stable, unstable, and an eigenvalue 1e-12 left of the
    # axis (inside the rule's margin); the second residual slice fails
    rng = np.random.default_rng(47)
    a = np.stack(
        [random_stable(rng, 3), -random_stable(rng, 3), np.diag([-1.0, -1e-12 + 1j, -2.0]).astype(complex)]
    )
    theta = np.stack([random_hermitian(rng, 3) + 4.0 * np.eye(3) for _ in range(3)])
    q = -(a @ theta + theta @ dagger(a))
    q[1] += 1e-6 * random_hermitian(rng, 3)
    stable = _hurwitz_spectrum(np.linalg.eigvals(a), a)
    assert stable.tolist() == [True, False, False]
    for shared in (False, True):
        theta_s = theta[0] if shared else theta
        found: dict[str, np.ndarray] = {}
        defect = _lyapunov_defect(a, theta_s, q, found, RESIDUAL_TOL)
        assert found["lyapunov"].shape == defect.shape == (3,)
        for i in range(3):
            one: dict[str, float] = {}
            verdict = _lyapunov_defect(a[i], theta_s if shared else theta[i], q[i], one, RESIDUAL_TOL)
            assert type(verdict) is bool and type(one["lyapunov"]) is float
            assert verdict == defect[i] and one["lyapunov"].hex() == float(found["lyapunov"][i]).hex()
            hurwitz = _hurwitz_spectrum(np.linalg.eigvals(a[i]), a[i])
            assert type(hurwitz) is bool and hurwitz == stable[i]
        assert defect.tolist() == [False, True, shared]


def test_residual_tests_that_overflow_are_defects_without_a_warning() -> None:
    # in a stack, the slice whose residual overflows (inf, or NaN from inf - inf) fails its test
    # and its neighbour keeps its verdict; one matrix gets a bool, and numpy warns of nothing
    rng = np.random.default_rng(59)
    a = random_stable(rng, 2)
    theta = random_hermitian(rng, 2) + 4.0 * np.eye(2)
    q = -(a @ theta + theta @ dagger(a))
    h = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    g = -theta @ dagger(h)
    far, h_far = np.stack([theta, 1e307 * theta]), np.stack([h, 1e3 * h])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lyapunov, coupling = {}, {}
        assert _lyapunov_defect(a, far, q, lyapunov, RESIDUAL_TOL).tolist() == [False, True]
        assert _coupling_defect(g, far, h_far, np.eye(3), coupling, RESIDUAL_TOL).tolist() == [False, True]
        assert not np.isfinite(lyapunov["lyapunov"][1]) and not np.isfinite(coupling["coupling"][1])
        assert _coupling_defect(g, far[1], h_far[1], np.eye(3), {}, RESIDUAL_TOL) is True
        assert _lyapunov_defect(a, far[1], q, {}, RESIDUAL_TOL) is True
