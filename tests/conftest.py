"""Shared builders for the test suite.

The single-mode cavity in its one-port (square) and two-port (split
noise/control) forms is the hand-checkable workhorse; most exact oracles
in the suite are scalar computations on these systems.
"""

from __future__ import annotations

import numpy as np
import pytest

from qfeedback import AnnihilationQSys, CostOutput, PlantModel, StateSpaceTF

ROOT2 = np.sqrt(2.0)


def one_port_cavity() -> AnnihilationQSys:
    """Single-mode cavity with total decay rate 2, one field channel."""
    return AnnihilationQSys(
        f=np.array([[-1.0]], dtype=complex),
        g=np.array([[-ROOT2]], dtype=complex),
        h=np.array([[ROOT2]], dtype=complex),
        k=np.eye(1, dtype=complex),
    )


def two_port_cavity_plant(with_cost: bool = False) -> PlantModel:
    """The same cavity with its two channels split into noise and control."""
    cost = None
    if with_cost:
        cost = CostOutput(c=np.array([[1.0]], dtype=complex), d=np.zeros((1, 1), dtype=complex))
    return PlantModel(
        kind="annihilation",
        f=np.array([[-1.0]], dtype=complex),
        g_w=np.array([[-1.0]], dtype=complex),
        g_u=np.array([[-1.0]], dtype=complex),
        h=np.array([[1.0]], dtype=complex),
        k=np.eye(1, dtype=complex),
        cost=cost,
    )


def stateless_plant() -> PlantModel:
    """A plant with no modes: the measurement is the noise field itself."""
    return PlantModel(
        kind="annihilation",
        f=np.zeros((0, 0)),
        g_w=np.zeros((0, 1)),
        g_u=np.zeros((0, 1)),
        h=np.zeros((1, 0)),
        k=np.eye(1),
        cost=CostOutput(c=np.zeros((1, 0)), d=np.zeros((1, 1))),
    )


def cavity_all_pass() -> StateSpaceTF:
    """State-space realization of the all-pass factor (s - 1)/(s + 1)."""
    return StateSpaceTF(
        a=np.array([[-1.0]], dtype=complex),
        b=np.array([[-ROOT2]], dtype=complex),
        c=np.array([[ROOT2]], dtype=complex),
        d=np.eye(1, dtype=complex),
    )


def random_stable_tf(
    rng: np.random.Generator, n: int, m: int, p: int, strictly_proper: bool = True
) -> StateSpaceTF:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a -= (np.max(np.abs(np.linalg.eigvals(a).real)) + 0.5) * np.eye(n)
    b = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    c = rng.standard_normal((p, n)) + 1j * rng.standard_normal((p, n))
    d = np.zeros((p, m), dtype=complex)
    if not strictly_proper:
        d = rng.standard_normal((p, m)) + 1j * rng.standard_normal((p, m))
    return StateSpaceTF(a=a, b=b, c=c, d=d)


def freq_response(g: StateSpaceTF, s) -> np.ndarray:
    """C (sI - A)^{-1} B + D at every point of ``s``, stacked as (k, p, m).

    One batched numpy solve, independent of the package's own evaluator.
    """
    s = np.atleast_1d(np.asarray(s, dtype=complex))
    pencil = s[:, None, None] * np.eye(g.a.shape[0]) - g.a
    return g.c @ np.linalg.solve(pencil, np.broadcast_to(g.b, (s.size, *g.b.shape))) + g.d


def dense_hinf_oracle(g: StateSpaceTF) -> float:
    """Peak singular value by dense sampling with three zoom stages."""

    def sigma_max(omegas: np.ndarray) -> np.ndarray:
        return np.linalg.svd(freq_response(g, 1j * omegas), compute_uv=False)[:, 0]

    coarse = np.concatenate([[0.0], np.logspace(-4, 5, 1200)])
    coarse = np.concatenate([-coarse[::-1], coarse])
    values = sigma_max(coarse)
    best = float(np.max(values))
    center = coarse[int(np.argmax(values))]
    width = 1.0 + abs(center) * 0.1
    for _ in range(3):
        local = np.linspace(center - width, center + width, 801)
        vals = sigma_max(local)
        idx = int(np.argmax(vals))
        if vals[idx] > best:
            best = float(vals[idx])
            center = local[idx]
        width /= 40.0
    return best


def random_unitary(rng: np.random.Generator, m: int) -> np.ndarray:
    z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.fixture
def cavity() -> AnnihilationQSys:
    return one_port_cavity()


@pytest.fixture
def cavity_plant() -> PlantModel:
    return two_port_cavity_plant()


@pytest.fixture
def cavity_plant_with_cost() -> PlantModel:
    return two_port_cavity_plant(with_cost=True)
