"""Tests for transfer-function evaluation, structure checks and norms.

H2 values are cross-checked against direct frequency quadrature and the
H-infinity bisection against a dense-sampling peak search, so the two
norm paths never share code with their oracles.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from qfeedback import (
    DimensionError,
    DomainError,
    GeneralQSys,
    InfiniteNormError,
    InstabilityError,
    SingularityError,
    StateSpaceTF,
    check_pr_annihilation,
    check_pr_general,
    close_augmented_loop,
    default_frequency_grid,
    delta_build,
    h2_norm,
    hinf_norm,
    jj_unitary_check,
    lossless_br_check,
    minimal_realization,
    random_challengers,
    random_pr_plant,
    random_pr_system,
    signature_matrix,
    synth_noise_annihilation,
    tf_eval,
)
from qfeedback import linalg, transfer
from qfeedback.coherent import random_admissible_triple
from qfeedback.linalg import (
    FREQ_TOL,
    RESIDUAL_TOL,
    SPECTRAL_GAP_TOL,
    dagger,
    hermitian_part,
    max_abs,
    solve_lyapunov_hermitian,
)
from qfeedback.systems import eig_sum_condition, is_hurwitz
from qfeedback.transfer import (
    _BLOCK_ENTRIES,
    _axis_eigenvalues,
    _freq_response,
    _hinf_norms,
    _Loops,
    _sample_grid,
    _schur_forms,
    _sigma_max,
)

from conftest import (
    cavity_all_pass,
    dense_hinf_oracle,
    freq_response,
    random_stable_tf,
    random_unitary,
)

ROOT2 = np.sqrt(2.0)


# ---------------------------------------------------------------------------
# evaluation and minimality


def test_tf_eval_cavity_at_zero() -> None:
    np.testing.assert_allclose(tf_eval(cavity_all_pass(), 0.0), [[-1.0]], atol=1e-12)


def test_tf_eval_high_frequency_approaches_feedthrough() -> None:
    np.testing.assert_allclose(tf_eval(cavity_all_pass(), 1e9), [[1.0]], atol=1e-8)


def test_tf_eval_zero_system() -> None:
    g = StateSpaceTF(a=[[-1.0]], b=[[0.0]], c=[[0.0]], d=[[0.0]])
    np.testing.assert_array_equal(tf_eval(g, 3.0 + 2.0j), [[0.0]])


def _response_per_point(g: StateSpaceTF, s: complex) -> np.ndarray:
    """Reference evaluation: one dense solve at one point."""
    if g.state_dim == 0:
        return g.d
    return g.c @ np.linalg.solve(s * np.eye(g.state_dim) - g.a, g.b) + g.d


@pytest.mark.parametrize("n", [0, 1, 8, 32])
def test_stacked_responses_match_per_point_solves(n: int) -> None:
    rng = np.random.default_rng(100 + n)
    if n:
        g = random_stable_tf(rng, n, 2, 3, strictly_proper=False)
    else:
        g = StateSpaceTF(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((3, 0)), rng.standard_normal((3, 2)))
    grid = default_frequency_grid(g.a)
    # At n = 32 the sampled grid spans more than one block of points * n * min(m, p) entries.
    assert n < 32 or grid.size > _BLOCK_ENTRIES // (n * 2)
    ref = np.array([_response_per_point(g, 1j * w) for w in grid])
    got = _freq_response(g._loops, 1j * grid[None])[0]
    assert got.shape == (grid.size, 3, 2)
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * np.max(np.abs(ref)))
    sigma, used = _sample_grid(g._loops, _sigma_max)
    assert np.count_nonzero(used) == grid.size
    want = max(np.linalg.svd(r, compute_uv=False)[0] for r in ref)
    assert float(np.max(sigma, where=used, initial=0.0)) == pytest.approx(want, rel=1e-12)


def _jordan_tf(rng: np.random.Generator, n: int) -> StateSpaceTF:
    """One eigenvalue -0.5 with a unit superdiagonal, in a random unitary basis."""
    q = random_unitary(rng, n)
    a = q @ (-0.5 * np.eye(n) + np.eye(n, k=1)) @ dagger(q)
    b, c, d = rng.standard_normal((n, 2)), rng.standard_normal((3, n)), rng.standard_normal((3, 2))
    return StateSpaceTF(a, b, c, d)


@pytest.mark.parametrize(
    "kind, n",
    [("dense", 0), ("dense", 1), ("dense", 8), ("dense", 32), ("dense", 64), ("jordan", 8), ("jordan", 32)]
    + [("wide", 0), ("wide", 1), ("wide", 8), ("wide", 32)],
)
def test_schur_evaluator_matches_per_point_solves(kind: str, n: int) -> None:
    # "wide" has more inputs than outputs, which the evaluator solves as the transpose
    rng = np.random.default_rng(200 + n)
    m, p = (3, 2) if kind == "wide" else (2, 3)
    if kind == "jordan":
        g = _jordan_tf(rng, n)
    elif n:
        g = random_stable_tf(rng, n, m, p, strictly_proper=False)
    else:
        g = StateSpaceTF(np.zeros((0, 0)), np.zeros((0, m)), np.zeros((p, 0)), rng.standard_normal((p, m)))
    s = 1j * default_frequency_grid(g.a)
    if kind != "jordan" and n:
        lam = np.linalg.eigvals(g.a)
        s = np.append(s, lam[0] + 1e-6j * max(1.0, np.max(np.abs(lam))))
    assert _freq_response(g._loops, s[None, :0])[0].shape == (0, p, m)
    got = _freq_response(g._loops, s[None])[0]
    assert got.shape == (s.size, p, m)
    if n == 0:
        assert np.array_equal(got, np.broadcast_to(g.d, got.shape))
        return
    # Both evaluations are backward stable. The Schur form and the back-substitution
    # (refined once against A) perturb the pencil sI - A by E with
    # |E| <= c n eps (|A| + |s|), and the LU reference by no more, so to first order
    # each response moves by at most |C| R |E| R |B|, R = |(sI - A)^{-1}|: that is
    # c n eps kappa |C| R |B| with kappa = (|A| + |s|) R, the condition of sI - A
    # measured against the data. Forming C Z X + D adds rounding of order eps |D|.
    # c = 4 is about three times the worst ratio seen over these families and seeds.
    eps = np.finfo(float).eps
    norm_a, norm_b, norm_c, norm_d = (np.linalg.norm(mat, 2) for mat in (g.a, g.b, g.c, g.d))
    for k, sk in enumerate(s):
        r = 1.0 / np.linalg.svd(sk * np.eye(n) - g.a, compute_uv=False)[-1]
        kappa = (norm_a + abs(sk)) * r
        bound = 4.0 * eps * (n * kappa * norm_c * r * norm_b + norm_d)
        assert np.max(np.abs(got[k] - _response_per_point(g, sk))) <= bound


def test_schur_form_is_computed_once_per_system(monkeypatch) -> None:
    # the Lyapunov certificates of h2_norm and both structure checks reuse the cached form
    shapes, lyapunov_factored = [], []
    schur = transfer.schur
    monkeypatch.setattr(transfer, "schur", lambda a, **kw: shapes.append(a.shape) or schur(a, **kw))
    monkeypatch.setattr(linalg, "schur", lambda a, **kw: lyapunov_factored.append(a) or schur(a, **kw))
    s = random_pr_system(4, 2, seed=5, kind="annihilation", hurwitz_required=True)
    g = StateSpaceTF.from_system(s)
    assert hinf_norm(g).value == pytest.approx(1.0, rel=1e-6)
    assert lossless_br_check(g).verdict
    tf_eval(g, 0.3j)
    strictly_proper = StateSpaceTF(g.a, g.b, g.c, np.zeros_like(g.d))
    assert h2_norm(strictly_proper).value > 0.0
    doubled = StateSpaceTF.from_system(random_pr_system(2, 1, seed=3, kind="general"))
    assert jj_unitary_check(doubled, 1).verdict
    assert shapes == [(4, 4), (4, 4), (4, 4)]
    assert lyapunov_factored == []


def test_stability_gates_read_the_schur_form(monkeypatch) -> None:
    # no eigenvalue routine sees an n x n state matrix (hinf_norm's stacks of 2n x 2n
    # Hamiltonians may), and each system, a minimal part included, is factored once
    s = random_pr_system(4, 2, seed=5, kind="annihilation", hurwitz_required=True)

    def hidden() -> StateSpaceTF:
        return StateSpaceTF(
            a=np.block([[s.f, np.zeros((4, 1))], [np.zeros((1, 4)), -np.eye(1)]]),
            b=np.vstack([s.g, np.zeros((1, 2))]),
            c=np.hstack([s.h, np.ones((2, 1))]),
            d=s.k,
        )

    f_c, g_cy, h_c = random_admissible_triple(np.random.default_rng(11), 3, 2, 2)
    eig_shapes, schur_shapes = [], []
    eigvals, eig, schur = np.linalg.eigvals, np.linalg.eig, transfer.schur
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: eig_shapes.append(a.shape) or eigvals(a))
    monkeypatch.setattr(np.linalg, "eig", lambda a: eig_shapes.append(a.shape) or eig(a))
    monkeypatch.setattr(transfer, "schur", lambda a, **kw: schur_shapes.append(a.shape) or schur(a, **kw))
    runs = [
        (lambda: h2_norm(StateSpaceTF(s.f, s.g, s.h, np.zeros_like(s.k))), 4, [(4, 4)]),
        (lambda: hinf_norm(StateSpaceTF.from_system(s)), 4, [(4, 4)]),
        (lambda: lossless_br_check(StateSpaceTF.from_system(s)), 4, [(4, 4)]),
        (lambda: lossless_br_check(hidden()), 5, [(4, 4), (5, 5)]),
        (lambda: synth_noise_annihilation(f_c, g_cy, h_c), 3, [(3, 3)]),
    ]
    for call, n, factored in runs:
        eig_shapes.clear()
        schur_shapes.clear()
        call()
        assert {shape[-2:] for shape in eig_shapes} <= {(2 * n, 2 * n)}
        assert schur_shapes == factored
    assert eig_shapes  # the spy saw the synthesis norm's Hamiltonians
    assert lossless_br_check(hidden()).verdict


def test_realization_matrices_are_read_only_copies() -> None:
    a = np.array([[-1.0 + 0j]])
    g = StateSpaceTF(a=a, b=[[1.0]], c=[[1.0]], d=[[0.0]])
    a[0, 0] = -2.0
    assert g.a[0, 0] == -1.0
    for m in (g.a, g.b, g.c, g.d):
        with pytest.raises(ValueError):
            m[0, 0] = 3.0


def test_sampling_when_one_pencil_exceeds_the_block(monkeypatch) -> None:
    g = random_stable_tf(np.random.default_rng(7), 8, 2, 3, strictly_proper=False)
    want, want_used = _sample_grid(g._loops, _sigma_max)
    monkeypatch.setattr(transfer, "_BLOCK_ENTRIES", 16)
    sigma, used = _sample_grid(g._loops, _sigma_max)
    assert np.count_nonzero(used) == np.count_nonzero(want_used)
    worst = float(np.max(sigma, where=used, initial=0.0))
    assert worst == pytest.approx(float(np.max(want, where=want_used, initial=0.0)), rel=1e-12)


@pytest.mark.parametrize("shape", [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (2, 4), (3, 3), (8, 3)])
def test_sigma_max_matches_the_svd(shape: tuple[int, int]) -> None:
    rng = np.random.default_rng(100 * shape[0] + shape[1])
    k = 400
    v = rng.standard_normal((k, *shape)) + 1j * rng.standard_normal((k, *shape))
    # magnitudes 1e-12...1e12, every other point with columns graded down to 1e-8
    v *= 10.0 ** rng.uniform(-12.0, 12.0, size=(k, 1, 1))
    v[1::2] *= np.logspace(0.0, -8.0, shape[1])
    v[::9] = 0.0
    got = _sigma_max(v)
    want = np.linalg.svd(v, compute_uv=False)[:, 0]
    assert np.all(got[::9] == 0.0)
    assert np.all(np.abs(got - want) <= 8.0 * np.finfo(float).eps * want)


def test_sigma_max_of_empty_and_extreme_responses() -> None:
    assert np.array_equal(_sigma_max(np.zeros((3, 0, 2))), np.zeros(3))
    assert np.array_equal(_sigma_max(np.zeros((3, 2, 0))), np.zeros(3))
    assert _sigma_max(np.zeros((0, 2, 2))).shape == (0,)
    # 2**(+-500) is about 1e+-150; from 2**(+-600) the unscaled Gram matrix over- or underflows
    for s in (2.0**500, 2.0**-500, 2.0**600, 2.0**-600):
        row = np.array([[[3.0 * s, 4.0 * s]]])
        assert _sigma_max(row)[0] / s == 5.0
        assert _sigma_max(row.swapaxes(1, 2))[0] / s == 5.0


def test_grid_point_on_a_pole_is_skipped() -> None:
    grid = default_frequency_grid()
    w0 = grid[np.argmin(np.abs(grid - 0.5))]
    # Spectral radius below 1 keeps the unscaled grid, so 1j * w0 is a pole.
    g = StateSpaceTF(
        a=np.diag([1j * w0, -0.5]), b=np.ones((2, 2)), c=np.ones((2, 2)), d=np.zeros((2, 2))
    )
    _, used = _sample_grid(g._loops, _sigma_max)
    assert np.count_nonzero(used) == grid.size - 1
    with pytest.raises(SingularityError) as info:
        tf_eval(g, 1j * w0)
    assert info.value.eigenvalue_pair == (1j * w0, pytest.approx(1j * w0))


@pytest.mark.parametrize("point", [complex("nan"), complex("inf"), complex(0.0, float("-inf"))])
def test_tf_eval_rejects_a_non_finite_point(point: complex) -> None:
    with pytest.raises(DomainError):
        tf_eval(cavity_all_pass(), point)


def test_default_frequency_grid_rejects_a_non_square_matrix() -> None:
    with pytest.raises(DimensionError):
        default_frequency_grid([[1.0, 2.0, 3.0]])


def test_is_minimal_cavity() -> None:
    g = cavity_all_pass()
    assert minimal_realization(g) is g


def test_is_minimal_detects_unreachable_state() -> None:
    g = StateSpaceTF(
        a=np.diag([-1.0, -2.0]), b=[[1.0], [0.0]], c=[[1.0, 0.0]], d=[[0.0]]
    )
    assert minimal_realization(g) is not g


def test_is_minimal_zero_input_map() -> None:
    g = StateSpaceTF(a=[[-1.0]], b=[[0.0]], c=[[1.0]], d=[[0.0]])
    assert minimal_realization(g) is not g


def test_minimal_realization_strips_hidden_state() -> None:
    g = StateSpaceTF(
        a=np.diag([-1.0, -2.0]), b=[[1.0], [0.0]], c=[[1.0, 0.0]], d=[[0.0]]
    )
    reduced = minimal_realization(g)
    assert reduced.a.shape == (1, 1)
    np.testing.assert_allclose(
        tf_eval(reduced, 0.3 + 0.7j), tf_eval(g, 0.3 + 0.7j), atol=1e-10
    )


def test_minimal_realization_returns_a_minimal_input_itself() -> None:
    g = cavity_all_pass()
    assert minimal_realization(g) is g
    hidden = StateSpaceTF(a=np.diag([-1.0, -2.0]), b=[[1.0], [0.0]], c=[[1.0, 0.0]], d=[[0.0]])
    reduced = minimal_realization(hidden)
    assert reduced is not hidden and minimal_realization(reduced) is reduced


@pytest.mark.parametrize(
    "b, c, staircases",
    [
        ([[1.0], [1.0]], [[1.0, 1.0]], 2),  # minimal
        ([[1.0], [0.0]], [[1.0, 1.0]], 2),  # uncontrollable: the observable staircase runs once
        ([[1.0], [1.0]], [[1.0, 0.0]], 3),  # controllable, unobservable: it runs again after projecting
    ],
    ids=["minimal", "uncontrollable", "unobservable"],
)
def test_lossless_check_decides_minimality_once(b, c, staircases: int, monkeypatch) -> None:
    g = StateSpaceTF(a=np.diag([-1.0, -2.0]), b=b, c=c, d=[[0.0]])
    calls = []
    basis = transfer._controllable_basis
    monkeypatch.setattr(transfer, "_controllable_basis", lambda a, v: calls.append(a) or basis(a, v))
    lossless_br_check(g)
    assert len(calls) == staircases


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize(
    "kind,modes", [("annihilation", 6), ("annihilation", 16), ("annihilation", 32),
                   ("general", 4), ("general", 8), ("general", 16)]
)
def test_realizable_systems_are_minimal_at_large_n(kind: str, modes: int, seed: int) -> None:
    s = random_pr_system(
        modes, 2, seed=seed, kind=kind, hurwitz_required=kind == "annihilation"
    )
    g = StateSpaceTF.from_system(s)
    assert minimal_realization(g) is g
    if kind == "annihilation":
        assert check_pr_annihilation(s).realizable
        check = lossless_br_check(g)
    else:
        assert check_pr_general(s).realizable
        check = jj_unitary_check(g, half_io=s.m_fields)
    assert check.verdict, (check.prongs, check.residuals)


@pytest.mark.parametrize(
    "core,hidden_c,hidden_o,seed",
    [(2, 1, 1, 0), (6, 2, 1, 1), (6, 1, 3, 2), (12, 2, 2, 3),
     (16, 8, 8, 0), (24, 4, 4, 0), (24, 4, 4, 4), (30, 1, 1, 5)],
)
def test_minimal_realization_strips_hidden_blocks(
    core: int, hidden_c: int, hidden_o: int, seed: int
) -> None:
    # State order (core, uncontrollable, unobservable): nothing reaches the
    # second block from B, and nothing leaves the third block towards C.
    rng = np.random.default_rng(seed)
    g0 = StateSpaceTF.from_system(
        random_pr_system(core, 2, seed=seed, kind="annihilation", hurwitz_required=True)
    )
    n, m = core + hidden_c + hidden_o, g0.input_dim
    a = np.zeros((n, n), dtype=complex)
    c_end = core + hidden_c
    a[:core, :core] = g0.a
    a[core:c_end, core:c_end] = random_stable_tf(rng, hidden_c, 1, 1).a
    a[c_end:, c_end:] = random_stable_tf(rng, hidden_o, 1, 1).a
    a[:core, core:c_end] = rng.standard_normal((core, hidden_c))
    a[c_end:, :core] = rng.standard_normal((hidden_o, core))
    b = np.vstack([g0.b, np.zeros((hidden_c, m)), rng.standard_normal((hidden_o, m))])
    c = np.hstack([g0.c, rng.standard_normal((m, hidden_c)), np.zeros((m, hidden_o))])
    u = random_unitary(rng, n)
    g = StateSpaceTF(a=u @ a @ u.conj().T, b=u @ b, c=c @ u.conj().T, d=g0.d)

    assert minimal_realization(g) is not g
    reduced = minimal_realization(g)
    assert reduced.state_dim == core
    s = 1j * default_frequency_grid(g.a)
    assert np.max(np.abs(_freq_response(reduced._loops, s[None]) - _freq_response(g._loops, s[None]))) <= FREQ_TOL
    assert lossless_br_check(g).verdict


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), hidden=st.booleans())
def test_minimality_and_lossless_verdict_invariant_under_unitary_state_change(
    seed: int, hidden: bool
) -> None:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 17))
    g = StateSpaceTF.from_system(
        random_pr_system(n, 2, seed=seed, kind="annihilation", hurwitz_required=True)
    )
    if hidden:
        g = StateSpaceTF(a=g.a, b=np.zeros_like(g.b), c=g.c, d=g.d)
    u = random_unitary(rng, n)
    moved = StateSpaceTF(a=u.conj().T @ g.a @ u, b=u.conj().T @ g.b, c=g.c @ u, d=g.d)
    assert (minimal_realization(moved) is moved) == (minimal_realization(g) is g)
    assert lossless_br_check(moved).verdict == lossless_br_check(g).verdict


# ---------------------------------------------------------------------------
# signature-unitary and lossless checks


def test_jj_unitary_on_random_realizable_system() -> None:
    s = random_pr_system(2, 2, seed=3, kind="general")
    g = StateSpaceTF(a=s.f, b=s.g, c=s.h, d=s.k)
    check = jj_unitary_check(g, half_io=s.m_fields)
    assert check.verdict
    assert check.prongs["algebraic"] == "pass"
    assert check.prongs["sampled"] == "pass"


def test_jj_unitary_identity_feedthrough_only() -> None:
    g = StateSpaceTF(
        a=[[-1.0, 0.0], [0.0, -1.0]],
        b=np.zeros((2, 2)),
        c=np.zeros((2, 2)),
        d=np.eye(2),
    )
    assert jj_unitary_check(g, half_io=1).verdict


def test_jj_unitary_rejects_scaled_feedthrough() -> None:
    g = StateSpaceTF(
        a=[[-1.0, 0.0], [0.0, -1.0]],
        b=np.zeros((2, 2)),
        c=np.zeros((2, 2)),
        d=2 * np.eye(2),
    )
    check = jj_unitary_check(g, half_io=1)
    assert not check.verdict
    assert check.prongs["algebraic"] == "fail"


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0, 0.0])
def test_realizability_checks_reject_an_unusable_tol(tol: float) -> None:
    ann = random_pr_system(2, 1, seed=0, kind="annihilation", hurwitz_required=True)
    gen = random_pr_system(1, 1, seed=0, kind="general")
    checks = [
        lambda: check_pr_annihilation(ann, tol),
        lambda: check_pr_general(gen, tol),
        lambda: lossless_br_check(StateSpaceTF.from_system(ann), tol),
        lambda: jj_unitary_check(StateSpaceTF.from_system(gen), gen.m_fields, tol),
    ]
    for check in checks:
        with pytest.raises(DomainError, match="tol must be finite and positive"):
            check()


def test_lossless_cavity_all_pass() -> None:
    check = lossless_br_check(cavity_all_pass())
    assert check.verdict
    assert check.prongs["stability"] == "pass"
    assert check.prongs["algebraic"] == "pass"
    assert check.prongs["sampled"] == "pass"


def test_lossless_rejects_low_pass() -> None:
    g = StateSpaceTF(a=[[-1.0]], b=[[1.0]], c=[[1.0]], d=[[0.0]])
    check = lossless_br_check(g)
    assert not check.verdict
    assert check.prongs["algebraic"] == "fail"


def test_lossless_rejects_unstable_all_pass() -> None:
    # (s + 1)/(s - 1) = 1 + 2/(s - 1)
    g = StateSpaceTF(a=[[1.0]], b=[[1.0]], c=[[2.0]], d=[[1.0]])
    check = lossless_br_check(g)
    assert not check.verdict
    assert check.prongs["stability"] == "fail"


def test_jj_unitary_forward_family() -> None:
    for seed in range(100):
        n = 1 + seed % 3
        m = 1 + seed % 2
        s = random_pr_system(n, m, seed=seed, kind="general")
        g = StateSpaceTF(a=s.f, b=s.g, c=s.h, d=s.k)
        if minimal_realization(g) is not g:
            continue
        check = jj_unitary_check(g, half_io=s.m_fields)
        if check.prongs["algebraic"] == "indeterminate":
            assert check.prongs["sampled"] == "pass", (seed, check.residuals)
            continue
        assert check.verdict, (seed, check.prongs, check.residuals)


def test_jj_unitary_converse_family() -> None:
    # build systems from the defining algebraic relations with identity
    # feedthrough, then confirm they pass the realizability check
    rng = np.random.default_rng(53)
    j2 = signature_matrix(1)
    for _ in range(100):
        t = delta_build(
            rng.standard_normal((1, 1)) + 1j * rng.standard_normal((1, 1)),
            rng.standard_normal((1, 1)) + 1j * rng.standard_normal((1, 1)),
        )
        x = t @ j2 @ t.conj().T
        c = delta_build(
            rng.standard_normal((1, 1)) + 1j * rng.standard_normal((1, 1)),
            rng.standard_normal((1, 1)) + 1j * rng.standard_normal((1, 1)),
        )
        b = -x @ c.conj().T @ j2
        w_herm = delta_build(
            rng.standard_normal((1, 1)), np.zeros((1, 1))
        )
        a = (-0.5 * b @ j2 @ b.conj().T - 1j * w_herm) @ np.linalg.inv(x)
        s = GeneralQSys(f=a, g=b, h=c, k=np.eye(2))
        verdict = check_pr_general(s)
        if verdict.indeterminate:
            continue
        assert verdict.realizable, verdict.residuals


def test_lossless_forward_and_perturbed_families() -> None:
    passed = 0
    for seed in range(100):
        n = 1 + seed % 3
        m = 1 + seed % 2
        s = random_pr_system(
            n, m, seed=200 + seed, kind="annihilation", hurwitz_required=True
        )
        g = StateSpaceTF(a=s.f, b=s.g, c=s.h, d=s.k)
        if minimal_realization(g) is not g:
            continue
        assert lossless_br_check(g).verdict, seed
        passed += 1
    assert passed >= 80
    for seed in range(50):
        s = random_pr_system(
            2, 2, seed=300 + seed, kind="annihilation", hurwitz_required=True
        )
        b = s.g.copy()
        b[0, 0] += 1e-2
        g = StateSpaceTF(a=s.f, b=b, c=s.h, d=s.k)
        assert not lossless_br_check(g).verdict, seed


def test_jj_unitary_imaginary_axis_pair_is_indeterminate() -> None:
    # lambda = i and -i give lambda_1 + conj(lambda_2) = 0: the certificate is not unique
    g = StateSpaceTF(a=np.diag([1j, -1j]), b=np.zeros((2, 2)), c=np.zeros((2, 2)), d=np.eye(2))
    check = jj_unitary_check(g, half_io=1)
    assert check.prongs == {"algebraic": "indeterminate", "sampled": "pass"}
    assert not check.verdict
    assert "coupling" not in check.residuals


def _unitary_prong(g: StateSpaceTF, sig: np.ndarray) -> tuple[float, str]:
    values, used = _sample_grid(g._loops, lambda v: np.abs(v.conj().swapaxes(1, 2) @ sig @ v - sig))
    worst = float(np.max(values, where=used[..., None, None], initial=0.0))
    return worst, "pass" if used.any() and worst <= FREQ_TOL else "fail"


def _reference_jj(g: StateSpaceTF, half_io: int, tol: float = RESIDUAL_TOL):
    """The (J,J)-unitary check written out on its own, as before the shared core."""
    j = signature_matrix(half_io)
    prongs, residuals = {}, {}
    residuals["feedthrough"] = max_abs(dagger(g.d) @ j @ g.d - j)
    feed_ok = residuals["feedthrough"] <= tol * (1.0 + max_abs(g.d) ** 2)
    if g.state_dim == 0:
        prongs["algebraic"] = "pass" if feed_ok else "fail"
    elif not eig_sum_condition(g.a):
        prongs["algebraic"] = "indeterminate"
    else:
        try:
            x = solve_lyapunov_hermitian(g.a, hermitian_part(g.b @ j @ dagger(g.b)))
        except SingularityError:
            x = None
        if x is None:
            prongs["algebraic"] = "indeterminate"
        else:
            residuals["coupling"] = max_abs(x @ dagger(g.c) + g.b @ j @ dagger(g.d))
            scale = 1.0 + max_abs(g.b) + max_abs(x) * max_abs(g.c)
            ok = feed_ok and residuals["coupling"] <= tol * scale
            prongs["algebraic"] = "pass" if ok else "fail"
    residuals["sampled"], prongs["sampled"] = _unitary_prong(g, j)
    verdict = prongs["algebraic"] == "pass" and prongs["sampled"] == "pass"
    return verdict, prongs, residuals


def _reference_lossless(g: StateSpaceTF, tol: float = RESIDUAL_TOL):
    """The lossless bounded real check written out on its own, as before the shared core."""
    red = minimal_realization(g)
    prongs, residuals = {}, {}
    stable = red.state_dim == 0 or is_hurwitz(red.a)
    prongs["stability"] = "pass" if stable else "fail"
    residuals["feedthrough"] = max_abs(dagger(g.d) @ g.d - np.eye(g.input_dim))
    feed_ok = residuals["feedthrough"] <= tol * (1.0 + max_abs(g.d) ** 2)
    if not stable:
        prongs["algebraic"] = "fail"
    elif red.state_dim == 0:
        prongs["algebraic"] = "pass" if feed_ok else "fail"
    else:
        x = solve_lyapunov_hermitian(red.a, hermitian_part(red.b @ dagger(red.b)))
        residuals["coupling"] = max_abs(x @ dagger(red.c) + red.b @ dagger(g.d))
        scale = 1.0 + max_abs(red.b) + max_abs(x) * max_abs(red.c)
        ok = feed_ok and residuals["coupling"] <= tol * scale
        prongs["algebraic"] = "pass" if ok else "fail"
    residuals["sampled"], prongs["sampled"] = _unitary_prong(g, np.eye(g.input_dim))
    verdict = all(prongs[p] == "pass" for p in ("stability", "algebraic", "sampled"))
    return verdict, prongs, residuals


def _signature_family():
    """Systems reaching every gate of both checks: stable, unstable, perturbed B,
    hidden states, stateless, general with and without perturbation, an
    imaginary-axis eigenvalue pair and a near-singular certificate."""
    rng = np.random.default_rng(61)
    family = []
    for seed in range(4):
        n, m = 1 + seed % 3, 1 + seed % 2
        s = random_pr_system(n, m, seed=seed, kind="annihilation", hurwitz_required=True)
        b = s.g.copy()
        b[0, 0] += 1e-2
        k = 1 + seed % 2
        hidden = StateSpaceTF(
            np.block([[s.f, np.zeros((n, k))], [np.zeros((k, n)), -2.0 * np.eye(k)]]),
            np.vstack([s.g, np.zeros((k, m))]),
            np.hstack([s.h, rng.standard_normal((m, k))]),
            s.k,
        )
        q = random_unitary(rng, 2 * m)
        family += [
            StateSpaceTF.from_system(s),  # stable
            StateSpaceTF(-s.f, s.g, s.h, s.k),  # unstable
            StateSpaceTF(s.f, b, s.h, s.k),  # perturbed B
            hidden,  # hidden states
        ]
        for d in (q, 2 * q, signature_matrix(m)):  # stateless
            family.append(
                StateSpaceTF(np.zeros((0, 0)), np.zeros((0, 2 * m)), np.zeros((2 * m, 0)), d)
            )
        sg = random_pr_system(n, m, seed=seed, kind="general")
        bg = sg.g.copy()
        bg[0, 0] += 1e-2
        family += [StateSpaceTF.from_system(sg), StateSpaceTF(sg.f, bg, sg.h, sg.k)]
        b_axis = rng.standard_normal((2, 2)) * (seed % 2)  # imaginary-axis pair, coupled or not
        family.append(StateSpaceTF((1 + seed) * np.diag([1j, -1j]), b_axis, b_axis.T, np.eye(2)))
    # all-pass with a weakly controllable mode: minimal and stable, so a pass
    # although its Gramian X is ill-conditioned
    b_weak = np.diag([1.0, 1e-5])
    family.append(StateSpaceTF(-np.eye(2), b_weak, -np.diag([2.0, 2e5]), np.eye(2)))
    return family


def test_signature_checks_match_the_separate_references() -> None:
    gates = set()
    for g in _signature_family():
        check = lossless_br_check(g)
        assert (check.verdict, check.prongs, check.residuals) == _reference_lossless(g)
        gates.add(("lossless", *check.prongs.values(), "coupling" in check.residuals))
        if g.input_dim % 2 == 0:
            half = g.input_dim // 2
            check = jj_unitary_check(g, half_io=half)
            assert (check.verdict, check.prongs, check.residuals) == _reference_jj(g, half)
            gates.add(("jj", *check.prongs.values(), "coupling" in check.residuals))
    assert {
        ("lossless", "pass", "pass", "pass", True),  # stable all-pass
        ("lossless", "pass", "pass", "pass", False),  # stateless unitary
        ("lossless", "pass", "fail", "fail", True),  # perturbed B
        ("lossless", "fail", "fail", "fail", False),  # unstable gate
        ("jj", "pass", "pass", True),  # general realizable
        ("jj", "fail", "fail", True),  # perturbed B
        ("jj", "pass", "pass", False),  # stateless J-unitary
        ("jj", "indeterminate", "pass", False),  # eigenvalue-sum gate
        ("jj", "indeterminate", "fail", False),
    } <= gates


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(log_e=st.floats(-8.0, 0.0), seed=st.integers(0, 2**32 - 1))
def test_lossless_passes_weakly_controllable_all_pass(log_e: float, seed: int) -> None:
    # each channel is (s - 1)/(s + 1) whatever e; the Gramian diag(1, e^2)/2 is
    # as ill-conditioned as e is small
    e = 10.0**log_e
    u = random_unitary(np.random.default_rng(seed), 2)
    g = StateSpaceTF(
        -np.eye(2), u.conj().T @ np.diag([1.0, e]), -np.diag([2.0, 2.0 / e]) @ u, np.eye(2)
    )
    check = lossless_br_check(g)
    assert check.verdict, (e, check.prongs, check.residuals)


# ---------------------------------------------------------------------------
# norms


def test_h2_norm_first_order() -> None:
    g = StateSpaceTF(a=[[-1.0]], b=[[1.0]], c=[[1.0]], d=[[0.0]])
    np.testing.assert_allclose(h2_norm(g).value, 1.0 / ROOT2, atol=1e-12)


def test_h2_norm_zero_input_map() -> None:
    g = StateSpaceTF(a=[[-1.0]], b=[[0.0]], c=[[1.0]], d=[[0.0]])
    assert h2_norm(g).value == 0.0


def test_h2_norm_scaled_input() -> None:
    g = StateSpaceTF(a=[[-1.0]], b=[[-2.0]], c=[[1.0]], d=[[0.0]])
    np.testing.assert_allclose(h2_norm(g).value, ROOT2, atol=1e-12)


def test_h2_norm_rejects_feedthrough() -> None:
    g = StateSpaceTF(a=[[-1.0]], b=[[1.0]], c=[[1.0]], d=[[1.0]])
    with pytest.raises(InfiniteNormError):
        h2_norm(g)


def test_h2_norm_rejects_unstable() -> None:
    g = StateSpaceTF(a=[[1.0]], b=[[1.0]], c=[[1.0]], d=[[0.0]])
    with pytest.raises(InstabilityError):
        h2_norm(g)


def test_h2_norm_quadrature_oracle_50_systems() -> None:
    rng = np.random.default_rng(59)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 3))
        p = int(rng.integers(1, 3))
        g = random_stable_tf(rng, n, m, p)
        value = h2_norm(g).value

        def integrand(omega: float) -> float:
            gm = freq_response(g, 1j * omega)[0]
            return float(np.real(np.trace(gm @ gm.conj().T)))

        area, _ = quad(integrand, -np.inf, np.inf, limit=400)
        oracle = np.sqrt(area / (2 * np.pi))
        assert abs(value - oracle) <= 1e-4 * max(oracle, 1e-12)


def test_hinf_norm_low_pass() -> None:
    g = StateSpaceTF(a=[[-1.0]], b=[[1.0]], c=[[1.0]], d=[[0.0]])
    np.testing.assert_allclose(hinf_norm(g).value, 1.0, rtol=1e-5)


def test_hinf_norm_scaling() -> None:
    g = StateSpaceTF(a=[[-1.0]], b=[[1.0]], c=[[2.0]], d=[[0.0]])
    np.testing.assert_allclose(hinf_norm(g).value, 2.0, rtol=1e-5)


@pytest.mark.parametrize("c, d", [(1e200, 0.0), (1.0, 1e200)])
def test_hinf_norm_rejects_a_level_whose_square_overflows(c: float, d: float) -> None:
    # 1e150 still squares inside the float range; 1e200 does not
    assert hinf_norm(StateSpaceTF(a=[[-1.0]], b=[[1.0]], c=[[1e150]], d=[[0.0]])).value > 1e150
    with pytest.raises(DomainError, match="H-infinity level .* its square overflows"):
        hinf_norm(StateSpaceTF(a=[[-1.0]], b=[[1.0]], c=[[c]], d=[[d]]))


def test_hinf_norm_all_pass() -> None:
    np.testing.assert_allclose(hinf_norm(cavity_all_pass()).value, 1.0, rtol=1e-5)


def test_hinf_norm_rejects_unstable() -> None:
    g = StateSpaceTF(a=[[1.0]], b=[[1.0]], c=[[1.0]], d=[[0.0]])
    with pytest.raises(InstabilityError):
        hinf_norm(g)


@pytest.mark.parametrize(
    "b, c",
    [([[1.0]], np.zeros((0, 1))), (np.zeros((1, 0)), [[1.0]]), (np.zeros((1, 0)), np.zeros((0, 1)))],
    ids=["empty-c", "empty-b", "empty-both"],
)
def test_hinf_norm_gates_before_its_static_answer(b, c) -> None:
    # an empty B or C still needs a Hurwitz A, as h2_norm requires
    d = np.zeros((np.shape(c)[0], np.shape(b)[1]))
    unstable = StateSpaceTF([[1.0]], b, c, d)
    for norm in (h2_norm, hinf_norm):
        with pytest.raises(InstabilityError):
            norm(unstable)
    stable = StateSpaceTF([[-1.0]], b, c, d)
    assert hinf_norm(stable).value == h2_norm(stable).value == 0.0
    assert hinf_norm(stable).method == "static"


def test_hinf_norm_dense_sampling_oracle_50_systems() -> None:
    rng = np.random.default_rng(61)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 3))
        p = int(rng.integers(1, 3))
        g = random_stable_tf(rng, n, m, p, strictly_proper=bool(rng.integers(0, 2)))
        value = hinf_norm(g, rel_tol=1e-7).value
        oracle = dense_hinf_oracle(g)
        assert abs(value - oracle) <= 1e-4 * max(oracle, 1e-12)


def _reference_bisection(g: StateSpaceTF, rel_tol: float = 1e-6) -> dict[str, float]:
    """hinf_norm's bracket arithmetic with every level put to the Hamiltonian test."""

    def feasible(gamma: float) -> bool:  # no imaginary-axis eigenvalue at level gamma
        axis = _axis_eigenvalues(g._loops, gamma)
        return axis is not None and axis.size == 0

    sigma_d = float(np.linalg.svd(g.d, compute_uv=False)[0]) if g.d.size else 0.0
    sigma, used = _sample_grid(g._loops, _sigma_max)
    grid_max = float(np.max(sigma, where=used, initial=0.0))
    lo = max(sigma_d * (1.0 + 1e-9), grid_max * (1.0 - 1e-12))
    margin = abs(float(np.max(np.linalg.eigvals(g.a).real)))
    estimate = sigma_d + 2.0 * float(
        np.linalg.norm(g.c, 2) * np.linalg.norm(g.b, 2)
    ) / max(margin, SPECTRAL_GAP_TOL)
    hi = max(estimate, 2.0 * lo, 1e-8)
    while not feasible(hi):
        hi *= 2.0
    iterations = 0
    while hi - lo > rel_tol * (lo or 1.0):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
        iterations += 1
    return {
        "value": 0.5 * (lo + hi),
        "bracket_low": lo,
        "bracket_high": hi,
        "iterations": float(iterations),
        "grid_lower_bound": grid_max,
    }


def _as_reference(result) -> dict[str, float]:
    cert = result.certificate
    keys = ("bracket_low", "bracket_high", "iterations", "grid_lower_bound")
    return {"value": result.value, **{k: cert[k] for k in keys}}


@pytest.fixture(scope="module")
def hinf_family() -> list[StateSpaceTF]:
    """Random stable systems with and without D, the all-pass cavity,
    Hurwitz annihilation systems at n = 8, 16, 32, one T6 loop and a
    near-imaginary Jordan block whose norm (1e6) is far above its grid peak
    (about 1.2e3), so the first upper bracket is infeasible and doubles."""
    rng = np.random.default_rng(83)
    family = []
    for n in range(1, 7):
        for strictly_proper in (True, False):
            m, p = (int(k) for k in rng.integers(1, 3, size=2))
            family.append(random_stable_tf(rng, n, m, p, strictly_proper=strictly_proper))
    family.append(cavity_all_pass())
    for n in (8, 16, 32):
        s = random_pr_system(n, 2, seed=n, kind="annihilation", hurwitz_required=True)
        family.append(StateSpaceTF.from_system(s))
    plant = random_pr_plant(2, 2, 1, 1, seed=905)
    loop = close_augmented_loop(plant, random_challengers(plant, count=1, seed=905)[0]).system
    family.append(StateSpaceTF(loop.a, loop.b, loop.c[:1], loop.d[:1]))
    lam = -1e-3 + 1j
    family.append(StateSpaceTF([[lam, 1], [0, lam]], [[0], [1]], [[1, 0]], [[0]]))
    return family


def test_hinf_norm_matches_reference_bisection(hinf_family) -> None:
    solves = []
    for g in hinf_family:
        result = hinf_norm(g)
        assert result.method == "bisection"
        assert _as_reference(result) == _reference_bisection(g)
        solves.append(result.certificate["hamiltonian_solves"])
    assert np.mean(solves) <= 4.0


def test_hinf_norm_without_level_set_bracket_is_unchanged(hinf_family, monkeypatch) -> None:
    expected = [_as_reference(hinf_norm(g)) for g in hinf_family]
    monkeypatch.setattr(transfer, "_level_set_bracket", lambda one, lo: (None, 0))
    for g, want in zip(hinf_family, expected):
        result = hinf_norm(g)
        assert _as_reference(result) == want
        assert result.certificate["hamiltonian_solves"] >= result.certificate["iterations"]


@pytest.mark.parametrize("scale", [1e-6, 1e-4, 1e-2, 1.0, 1e2])
def test_level_set_step_is_relative_below_norm_one(scale: float) -> None:
    g = StateSpaceTF(a=[[-1.0]], b=[[1.0]], c=[[scale]], d=[[0.0]])
    result = hinf_norm(g)
    assert result.certificate["hamiltonian_solves"] == 1.0
    assert _as_reference(result) == _reference_bisection(g)


def test_hinf_norm_certificate_carries_the_grid_sigma_max_range(hinf_family) -> None:
    for g in hinf_family:
        sigma, used = transfer._sample_grid(g._loops, _sigma_max)
        cert = hinf_norm(g).certificate
        assert cert["grid_min"] == float(np.min(sigma, where=used, initial=np.inf))
        assert cert["grid_lower_bound"] == float(np.max(sigma, where=used, initial=0.0))
    assert not hasattr(transfer, "_hinf_norm")


@pytest.mark.parametrize("rel_tol", [0.0, -1.0, np.nan, np.inf])
def test_hinf_norm_rejects_bad_rel_tol(rel_tol: float) -> None:
    g = StateSpaceTF(a=[[-1.0]], b=[[1.0]], c=[[1.0]], d=[[0.0]])
    with pytest.raises(DomainError, match="rel_tol"):
        hinf_norm(g, rel_tol)


def test_hinf_norm_rel_tol_below_float_spacing_terminates() -> None:
    g = StateSpaceTF(a=[[-1.0]], b=[[1.0]], c=[[1.0]], d=[[0.0]])
    result = hinf_norm(g, 1e-20)
    cert = result.certificate
    assert np.nextafter(cert["bracket_low"], np.inf) == cert["bracket_high"]
    assert abs(result.value - 1.0) <= 1e-7


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), strictly_proper=st.booleans())
def test_hinf_norm_invariant_under_unitary_state_change(seed: int, strictly_proper: bool) -> None:
    rng = np.random.default_rng(seed)
    n, m, p = int(rng.integers(1, 6)), int(rng.integers(1, 3)), int(rng.integers(1, 3))
    g = random_stable_tf(rng, n, m, p, strictly_proper=strictly_proper)
    u = random_unitary(rng, n)
    moved = StateSpaceTF(a=u.conj().T @ g.a @ u, b=u.conj().T @ g.b, c=g.c @ u, d=g.d)
    value = hinf_norm(g).value
    assert abs(hinf_norm(moved).value - value) <= 2e-6 * max(1.0, value)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    strictly_proper=st.booleans(),
    alpha=st.floats(1e-3, 1e3),
)
def test_hinf_norm_is_homogeneous(seed: int, strictly_proper: bool, alpha: float) -> None:
    rng = np.random.default_rng(seed)
    n, m, p = int(rng.integers(1, 6)), int(rng.integers(1, 3)), int(rng.integers(1, 3))
    g = random_stable_tf(rng, n, m, p, strictly_proper=strictly_proper)
    base = hinf_norm(g).value
    scaled = hinf_norm(StateSpaceTF(a=g.a, b=g.b, c=alpha * g.c, d=alpha * g.d)).value
    # Each bisection is within rel_tol * value / 2 of its norm.
    assert abs(scaled - alpha * base) <= 2e-6 * alpha * base


@pytest.mark.parametrize("scale", [1e-6, 1e-4, 1e-2, 1.0, 1e2, 1e4, 1e6])
def test_hinf_norm_is_relatively_accurate_at_every_output_scale(scale: float) -> None:
    # scale / (s + 1) peaks at omega = 0; the scaled all-pass cavity is flat at scale
    low_pass = StateSpaceTF(a=[[-1.0]], b=[[1.0]], c=[[scale]], d=[[0.0]])
    g = cavity_all_pass()
    flat = StateSpaceTF(a=g.a, b=g.b, c=scale * g.c, d=scale * g.d)
    for system in (low_pass, flat):
        assert abs(hinf_norm(system).value - scale) <= 2e-6 * scale


def _stack(systems: list[StateSpaceTF]) -> tuple[_Loops, list[StateSpaceTF]]:
    """Equal-shape systems as one stack built the way T6 builds its loops (stacked matrices,
    one Schur form each), and each loop again as its own StateSpaceTF."""
    a, b, c, d = (np.stack([getattr(g, name) for g in systems]) for name in "abcd")
    return _Loops(a, b, c, d, _schur_forms(a)), [StateSpaceTF(*blocks) for blocks in zip(a, b, c, d)]


def _stacked_families() -> list[list[StateSpaceTF]]:
    """Stacks of stable loops (square, tall and wide, with and without D) and a stack whose
    middle loop has a pole on a grid point, so it drops that point and its neighbours do not."""
    rng = np.random.default_rng(97)
    families = []
    for n, m, p in [(1, 1, 1), (2, 2, 1), (3, 1, 2), (3, 2, 2), (4, 3, 1)]:
        for strictly_proper in (True, False):
            families.append([random_stable_tf(rng, n, m, p, strictly_proper) for _ in range(3)])
    grid = default_frequency_grid()
    w0 = grid[np.argmin(np.abs(grid - 0.5))]
    families.append(
        [StateSpaceTF(np.diag([pole, -0.5]), np.ones((2, 2)), np.ones((2, 2)), np.zeros((2, 2)))
         for pole in (-0.3 + 0.2j, 1j * w0, -0.4 - 0.1j)]
    )
    return families


def test_stacked_transfer_cores_match_their_one_loop_calls() -> None:
    # each loop of a stack gets the bytes of its own one-loop call: responses, grid samples
    # (with a point dropped at a pole of one loop only) and norms
    drops = 0
    for systems in _stacked_families():
        stack, loops = _stack(systems)
        s = 1j * np.stack([np.linspace(-3.0, 3.0, 7) * (1 + l) for l in range(len(loops))])
        responses = _freq_response(stack, s)
        values, used = _sample_grid(stack, _sigma_max)
        for l, g in enumerate(loops):
            assert responses[l].tobytes() == _freq_response(g._loops, s[l : l + 1])[0].tobytes()
            single, one = _sample_grid(g._loops, _sigma_max)
            assert values[l][used[l]].tobytes() == single[0][one[0]].tobytes() and np.array_equal(one[0], used[l])
            drops += not one[0].all()
        if not all(is_hurwitz(g.a) for g in loops):
            continue
        for norm, g in zip(_hinf_norms(stack), loops):
            want = hinf_norm(g)
            assert float(norm.value).hex() == float(want.value).hex()
            assert {k: v.hex() for k, v in norm.certificate.items()} == {k: v.hex() for k, v in want.certificate.items()}
    assert drops == 1


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**16),
    levels=st.lists(st.sampled_from(["below D", "between", "above norm"]), min_size=1, max_size=5),
    position=st.integers(0, 4),
)
def test_axis_eigenvalues_do_not_depend_on_stack_neighbours(seed, levels, position) -> None:
    # a level below sigma_max(D) leaves R indefinite (None), one between it and the norm has
    # axis eigenvalues and one above the norm has none; a loop taken out of a stack as the norm
    # core takes it gets the bytes of its own realization's one-loop call
    rng = np.random.default_rng(seed)
    n, m, p = (int(k) for k in rng.integers(1, 4, size=3))
    loops = [random_stable_tf(rng, n, m, p, strictly_proper=False) for _ in levels]
    stack, loops = _stack(loops)
    j = position % len(loops)
    g, level = loops[j], levels[j]
    sigma_d, norm = float(np.linalg.svd(g.d, compute_uv=False)[0]), hinf_norm(g).value
    gamma = {"below D": 0.5 * sigma_d, "between": 0.5 * (sigma_d + norm), "above norm": 2.0 * norm}[level]
    got, alone = _axis_eigenvalues(stack.take([j]), gamma), _axis_eigenvalues(g._loops, gamma)
    assert (got is None) == (alone is None) == (level == "below D")
    assert got is None or got.tobytes() == alone.tobytes()
    assert got is None or (got.size == 0) == (level == "above norm")


@pytest.mark.parametrize("c", [1e-155, 1e-160, 1e-200])
def test_hinf_norm_whose_level_square_underflows_raises_a_domain_error(c: float) -> None:
    # the bisection's level squares to a subnormal or to 0, where R^{-1} would overflow;
    # the typed error comes before any numpy warning
    g = StateSpaceTF(a=[[-1.0]], b=[[1.0]], c=[[c]], d=[[0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="its square underflows"):
            hinf_norm(g)


def test_hinf_norm_just_above_the_underflow_keeps_its_value() -> None:
    result = hinf_norm(StateSpaceTF(a=[[-1.0]], b=[[1.0]], c=[[1e-150]], d=[[0.0]]))
    assert result.value == float.fromhex("0x1.a2fe8160beebcp-499")  # its value at the parent commit


def test_hinf_norm_of_a_zero_response_stops_at_once() -> None:
    result = hinf_norm(StateSpaceTF(a=[[-1.0]], b=[[1.0]], c=[[0.0]], d=[[0.0]]))
    assert result.certificate["iterations"] == 0.0
    assert result.value <= 1e-8


def test_all_pass_pointwise_on_default_grid() -> None:
    g = cavity_all_pass()
    for omega in default_frequency_grid(g.a):
        gm = tf_eval(g, 1j * omega)
        sigma = np.linalg.svd(gm, compute_uv=False)
        np.testing.assert_allclose(sigma, 1.0, atol=1e-9)


def test_default_frequency_grid_contains_zero_and_negatives() -> None:
    grid = default_frequency_grid()
    assert 0.0 in grid
    assert np.any(grid < 0) and np.any(grid > 0)


@pytest.mark.parametrize("scale", [1e306, 1e307])
def test_default_grid_past_the_float_range_is_inf_without_a_warning(scale: float) -> None:
    # the points are each unit point times the pole scale, rounded once (Python floats), and inf
    # where that product leaves the float range; the sampled grid scales by the same rule
    unit = default_frequency_grid()
    want = np.array([w * scale for w in unit.tolist()])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = default_frequency_grid([[-scale]])
        _sample_grid(StateSpaceTF([[-scale]], [[1.0]], [[1.0]], [[0.0]])._loops, _sigma_max)
    assert grid.tobytes() == want.tobytes()
    assert np.isinf(grid).any() and np.isfinite(grid).any()


def _raw_unit_grid() -> np.ndarray:
    """The unit grid as drawn, unsorted and with any repeats: 200 log points over [1e-3, 1e3],
    their negatives, 0 and 56 seeded log-uniform points of random sign."""
    base = np.logspace(-3.0, 3.0, 200)
    rng = np.random.default_rng(1729)
    mags = 10.0 ** rng.uniform(-3.0, 3.0, 56)
    signs = rng.choice([-1.0, 1.0], 56)
    return np.concatenate([-base[::-1], [0.0], base, mags * signs])


def _reference_points(lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One loop's grid as each loop used to build its own: np.unique of the raw grid times the
    pole scale, with each point at a pole replaced by 2 * scale and masked."""
    scale = max(1.0, float(np.max(np.abs(lam))))
    s = 1j * np.unique(_raw_unit_grid() * scale)
    used = np.min(np.abs(s[None] - lam[:, None]), axis=0) > 1e-8 * scale
    return np.where(used, s, 2.0 * scale), used


def test_scaled_grid_matches_the_per_loop_reference(monkeypatch) -> None:
    # 200 log-uniform pole scales in [1, 1e305], below the scale where a point overflows; every
    # other loop also has a pole on a grid point, which its mask drops; alone and as one stack
    # that mixes every scale, each loop evaluates the reference's points and mask byte for byte
    rng = np.random.default_rng(4099)
    scales = 10.0 ** rng.uniform(0.0, 305.0, 200)
    w0 = _raw_unit_grid()[150]  # a point of modulus below 1, so the scale stays the real pole's
    poles = [[-scale, 1j * w0 * scale if l % 2 else -0.5 * scale] for l, scale in enumerate(scales)]
    systems = [StateSpaceTF(np.diag(lam), np.ones((2, 1)), np.ones((1, 2)), np.zeros((1, 1))) for lam in poles]
    points = []
    response = transfer._freq_response
    monkeypatch.setattr(transfer, "_freq_response", lambda g, s: points.append(s) or response(g, s))
    stack, loops = _stack(systems)
    for g in [loop._loops for loop in loops] + [stack]:
        points.clear()
        _, used = _sample_grid(g, lambda v: v[:, 0, 0])
        assert len(points) == 1
        for l, lam in enumerate(g.form[0]):
            want, want_used = _reference_points(lam)
            assert points[0][l].tobytes() == want.tobytes()
            assert used[l].tobytes() == want_used.tobytes()
    assert np.count_nonzero(~used.all(axis=1)) == 100  # the stack's loops with a pole on the grid


@pytest.mark.parametrize("b", [1.0, 1e300])
def test_hinf_norm_of_poles_past_the_grids_float_range_raises_a_domain_error(b: float) -> None:
    # at pole scale 1e306 the top of the grid overflows and is masked like a point at a pole; the
    # norm 1e-306 / (b = 1) has a level whose square underflows, and with B = 1e300 the norm 1e-6
    # has a Hamiltonian whose B R^{-1} B^dagger overflows: typed errors, before any numpy warning
    g = StateSpaceTF(a=[[-1e306]], b=[[b]], c=[[1.0]], d=[[0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sigma, used = _sample_grid(g._loops, _sigma_max)
        message = "its square underflows" if b == 1.0 else "Hamiltonian at level 1e-06 overflows"
        with pytest.raises(DomainError, match=message):
            hinf_norm(g)
    assert 0 < np.count_nonzero(used) < used.size and np.all(np.isfinite(sigma))
    assert float(np.max(sigma, where=used, initial=0.0)) == pytest.approx(b * 1e-306, rel=1e-12)


def test_an_all_pass_past_the_grids_float_range_passes_its_sampled_prong() -> None:
    # (s - 1e306) / (s + 1e306): the overflowed grid points are masked, not read as NaN deviations
    g = StateSpaceTF(a=[[-1e306]], b=[[1.0]], c=[[-2e306]], d=[[1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        check = lossless_br_check(g)
    assert check.verdict and check.prongs["sampled"] == "pass"


def test_an_overflowing_hamiltonian_ends_its_own_loop_only() -> None:
    # in one stack, the loop whose Hamiltonian overflows gets a DomainError and its neighbour
    # gets the bytes of its own one-loop norm
    stack, loops = _stack([StateSpaceTF([[-1.0]], [[1.0]], [[1.0]], [[0.0]]),
                           StateSpaceTF([[-1e306]], [[1e300]], [[1.0]], [[0.0]])])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norm, refused = _hinf_norms(stack)
        with pytest.raises(DomainError, match="Hamiltonian at level 2e-06 overflows"):
            _axis_eigenvalues(loops[1]._loops, 2e-6)
        assert _axis_eigenvalues(loops[0]._loops, 2.0).size == 0
    assert isinstance(refused, DomainError)
    want = hinf_norm(loops[0])
    assert float(norm.value).hex() == float(want.value).hex() and norm.certificate == want.certificate
