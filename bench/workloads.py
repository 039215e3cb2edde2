"""The three workloads: what one operation is, its inputs and its checks.

Each workload yields rounds of operations.  Inputs for a round are drawn
from the workload seed and the round index when the round is built, outside
every timed region.  An operation's ``run`` makes the program calls and
returns the checks of its answers; it holds no state, so it can run again.
A round covers every operation class of the workload once, so per-class
medians see the same mix in every run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import qfeedback as qf
import qfeedback.cli as qcli
import qfeedback.coherent as qcoherent

# The plant shapes (n, m_w, m_u, m_y) of the acceptance tests.
PLANT_SHAPES = [(1, 1, 1, 1), (2, 2, 1, 1), (2, 2, 2, 2), (1, 2, 1, 1), (2, 3, 1, 2)]
SCALING_SIZES = (8, 16, 32)
SUBCOMMANDS = ("check", "compose", "gen", "params", "synth", "verify")
SCALING_FIELDS = 2
HINF_ALLPASS_TOL = 1e-6
H2_REL_TOL = 1e-8

# Wrong answers the program is known to give.  They count in the failure
# ratios and in ``checks_ok_ratio``, but do not make a run incorrect; any
# other wrong answer does.
KNOWN_DEFECTS = {
    "lossless-minimality": (
        "lossless_br_check rejects realizable Hurwitz annihilation systems at "
        "n >= 8: the Krylov-matrix minimality test drops states"
    ),
    "augment-row-mismatch": (
        "augment_controller raises NotAugmentableError (output rows do not match "
        "the coupling identity) on synthesized controllers at n_c = 16"
    ),
    "params-doubling": (
        "params exits 2 ('general-kind M and N must be doubled-up') on about 1 in "
        "25 realizable 16-mode general systems: extract_params rejects its own "
        "recovered Hamiltonian"
    ),
}


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    known: str | None = None  # KNOWN_DEFECTS key explaining a wrong answer


@dataclass(frozen=True)
class Op:
    label: str  # operation class, e.g. "T5", "n16", "write"
    part: int  # index into the workload's PARTS
    run: Callable[[], list[Check]]


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng([int(k) for k in key])


def _sub_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31 - 1))


class Workload:
    """A seeded stream of rounds; ``PARTS`` names the operation classes.

    ``ROUND_S`` is about how long one round takes at the speed the benchmark
    scales its times to.  A run draws as many rounds as fit its time from it,
    so runs of one length do the same work whatever the program's speed.
    """

    name = ""
    PARTS: tuple[str, ...] = ()
    ROUND_S = 1.0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        """Write whatever inputs the rounds share."""

    def round(self, r: int) -> list[Op]:
        raise NotImplementedError


# --- suites -----------------------------------------------------------------


def _c1(p) -> list[Check]:
    rep = qf.verify_zero_gain(p, np.zeros((p.m_u, p.m_y)), np.eye(p.m_u))
    return [Check("C1.holds", bool(rep.holds))]


def _t5(p, seed: int) -> list[Check]:
    rep = qf.verify_static_lqg(p, seed=seed, dynamic_count=20)
    return [Check("T5.holds", bool(rep.holds) and not rep.skipped)]


def _t6(p, seed: int) -> list[Check]:
    challengers = qf.random_challengers(p, count=5, seed=seed)
    selector = np.zeros((p.m_y, p.m_w + p.m_u))
    selector[:, : p.m_y] = np.eye(p.m_y)
    rep = qf.verify_trivial_hinf(p, selector, challengers)
    return [Check("T6.holds", bool(rep.holds) and not rep.skipped)]


class Suites(Workload):
    """C1, T5 and T6 on plants of the acceptance shapes; one op = one plant under one theorem."""

    name = "suites"
    PARTS = ("C1", "T5", "T6")
    ROUND_S = 7.0

    def round(self, r: int) -> list[Op]:
        """One plant of each shape, so every run sees the shapes in equal numbers."""
        ops = []
        for i, (n, m_w, m_u, m_y) in enumerate(PLANT_SHAPES):
            rng = _rng(self.seed, r, i)
            plant_seed = _sub_seed(rng)
            p = qf.random_pr_plant(n, m_w, m_u, m_y, seed=plant_seed)
            cost = qf.CostOutput(c=rng.standard_normal((1, n)), d=np.zeros((1, m_u)))
            ops += [
                Op("C1", 0, partial(_c1, p)),
                Op("T5", 1, partial(_t5, p.with_cost(cost), plant_seed)),
                Op("T6", 2, partial(_t6, p, plant_seed)),
            ]
        return ops


# --- scaling ----------------------------------------------------------------


def _analysis(ann, gen, triple_seed: int, n: int) -> list[Check]:
    """The three pipelines of one scaling case, with every answer checked."""
    checks = []

    verdict = qf.check_pr_annihilation(ann)
    checks.append(Check("annihilation.realizable", bool(verdict.realizable)))
    g = qf.StateSpaceTF.from_system(ann)
    lossless = qf.lossless_br_check(g)
    checks.append(Check("annihilation.lossless", bool(lossless.verdict), "lossless-minimality"))
    h2 = qf.h2_norm(qf.StateSpaceTF(ann.f, ann.g, ann.h, np.zeros_like(ann.k)))
    if verdict.theta is not None:
        expected = float(np.sqrt(np.trace(ann.h @ verdict.theta @ ann.h.conj().T).real))
        h2_ok = abs(h2.value - expected) <= H2_REL_TOL * max(1.0, expected)
    else:
        h2_ok = False
    checks.append(Check("annihilation.h2_matches_theta", bool(h2_ok)))
    hinf = qf.hinf_norm(g)
    checks.append(Check("annihilation.hinf_allpass", abs(hinf.value - 1.0) <= HINF_ALLPASS_TOL))

    verdict_g = qf.check_pr_general(gen)
    checks.append(Check("general.realizable", bool(verdict_g.realizable)))
    jj = qf.jj_unitary_check(qf.StateSpaceTF.from_system(gen), gen.m_fields)
    checks.append(Check("general.jj_unitary", bool(jj.verdict)))

    # random_challengers' rule: draw an admissible triple, halve g_cy on refusal.
    f_c, g_cy, h_c = qcoherent.random_admissible_triple(
        np.random.default_rng(triple_seed), n, SCALING_FIELDS, SCALING_FIELDS
    )
    synth = None
    for _ in range(6):
        try:
            synth = qf.synth_noise_annihilation(f_c, g_cy, h_c)
            break
        except qf.NotRealizableError:
            g_cy = 0.5 * g_cy
    checks.append(Check("controller.synthesized", synth is not None))
    if synth is not None:
        try:
            aug_ok = bool(qf.augment_controller(synth.controller).verdict.realizable)
            known = None
        except qf.NotAugmentableError as exc:
            aug_ok = False
            known = "augment-row-mismatch" if n == 16 and "rows do not match" in str(exc) else None
        checks.append(Check("controller.augmentation_realizable", aug_ok, known))
    return checks


class Scaling(Workload):
    """Dense analysis at n = 8, 16, 32; one op = one (n, seed) case."""

    name = "scaling"
    PARTS = tuple(f"n{n}" for n in SCALING_SIZES)

    def round(self, r: int) -> list[Op]:
        ops = []
        for i, n in enumerate(SCALING_SIZES):
            rng = _rng(self.seed, r, n)
            ann = qf.random_pr_system(
                n, SCALING_FIELDS, seed=_sub_seed(rng), kind="annihilation", hurwitz_required=True
            )
            gen = qf.random_pr_system(n // 2, SCALING_FIELDS, seed=_sub_seed(rng), kind="general")
            ops.append(Op(f"n{n}", i, partial(_analysis, ann, gen, _sub_seed(rng), n)))
        return ops


# --- cli --------------------------------------------------------------------


@dataclass(frozen=True)
class CliCall:
    label: str  # "read", "write" or "large"
    argv: tuple[str, ...]
    known: tuple[str, str] | None = None  # (KNOWN_DEFECTS key, its error text)

    @property
    def command(self) -> str:
        return next(a for a in self.argv if a in SUBCOMMANDS)


def _cli_checks(call: CliCall, status: int, stdout: str) -> list[Check]:
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        report = None
    if not isinstance(report, dict):
        report = {}
    known = None
    if call.known is not None and call.known[1] in str(report.get("error", "")):
        known = call.known[0]
    return [
        Check(f"{call.command}.exit_status", status == 0, known),
        Check(f"{call.command}.json_exit_status", report.get("exit_status") == status),
    ]


def run_cli_subprocess(call: CliCall, env: dict[str, str], workdir: Path, rss: list[float]) -> list[Check]:
    """One ``python -m qfeedback.cli`` process; appends its peak RSS (MB) to ``rss``."""
    out_path = workdir / "stdout.txt"
    with open(out_path, "wb") as out, open(workdir / "stderr.txt", "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "qfeedback.cli", "--format", "json", *call.argv],
            stdout=out,
            stderr=err,
            stdin=subprocess.DEVNULL,
            env=env,
            cwd=workdir,
        )
        _, wait_status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(wait_status)
    rss.append(usage.ru_maxrss / 1024.0)
    return _cli_checks(call, proc.returncode, out_path.read_text())


def run_cli_inprocess(call: CliCall) -> list[Check]:
    """The same command through ``qfeedback.cli.main`` in this interpreter."""
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        status = qcli.main(["--format", "json", *call.argv])
    return _cli_checks(call, status, buf.getvalue())


class Cli(Workload):
    """All six subcommands as processes over a corpus written at set-up; one op = one process.

    With ``in_process`` each command runs through ``qfeedback.cli.main`` in
    this interpreter instead, which is how the traced run sees its layers.
    """

    name = "cli"
    PARTS = ("read", "write", "large")
    ROUND_S = 6.0
    LARGE_MODES = 16

    def __init__(self, seed: int, workdir: Path, in_process: bool = False):
        super().__init__(seed, workdir)
        self.in_process = in_process
        self.env = dict(os.environ, PYTHONPATH=str(Path(qf.__file__).resolve().parents[1]))
        self.rss: list[float] = []

    def setup(self) -> None:
        """Write the corpus: small documents and one 16-mode general system."""
        d, rng = self.workdir, _rng(self.seed, 0)
        (d / "out").mkdir(parents=True, exist_ok=True)
        plant = qf.random_pr_plant(2, 2, 2, 2, seed=_sub_seed(rng))
        cost = qf.CostOutput(c=rng.standard_normal((1, 2)), d=np.zeros((1, 2)))
        qf.save_system(d / "plant.json", plant.with_cost(cost))
        qf.save_system(d / "trivial.json", qf.trivial_controller(plant.m_y, plant.m_u))
        dynamic = qf.random_challengers(plant, count=1, seed=_sub_seed(rng))[0]
        qf.save_system(d / "dynamic.json", dynamic)
        qf.save_system(
            d / "annihilation.json",
            qf.random_pr_system(2, 2, seed=_sub_seed(rng), kind="annihilation", hurwitz_required=True),
        )
        qf.save_system(d / "general.json", qf.random_pr_system(2, 2, seed=_sub_seed(rng), kind="general"))
        qf.save_system(
            d / "large.json", qf.random_pr_system(self.LARGE_MODES, 2, seed=_sub_seed(rng), kind="general")
        )
        self.calls_seed = _sub_seed(rng)

    def calls(self, r: int) -> list[CliCall]:
        """Round r's commands; every one exits 0 on this corpus."""
        d = self.workdir
        seed = str(self.calls_seed + r)
        return [
            CliCall("read", ("check", str(d / "annihilation.json"), "--transfer")),
            CliCall("read", ("check", str(d / "general.json"), "--transfer")),
            CliCall("read", ("params", str(d / "annihilation.json"))),
            CliCall("read", ("--seed", seed, "verify", "C1", str(d / "plant.json"))),
            CliCall("read", ("--seed", seed, "verify", "T6", str(d / "plant.json"))),
            CliCall("write", ("--seed", seed, "gen", "plant", "--out", str(d / "out" / "gen.json"))),
            CliCall(
                "write",
                ("compose", str(d / "plant.json"), str(d / "trivial.json"),
                 "--h2", "--hinf", "--emit", str(d / "out" / "loop.json")),
            ),
            CliCall("write", ("synth", str(d / "dynamic.json"), "--emit", str(d / "out" / "synth.json"))),
            CliCall("large", ("check", str(d / "large.json"), "--transfer")),
            CliCall(
                "large",
                ("params", str(d / "large.json")),
                known=("params-doubling", "must be doubled-up"),
            ),
            CliCall(
                "large",
                ("--seed", seed, "gen", "general", "--modes", str(self.LARGE_MODES),
                 "--out", str(d / "out" / "large_gen.json")),
            ),
        ]

    def round(self, r: int) -> list[Op]:
        ops = []
        for call in self.calls(r):
            if self.in_process:
                run = partial(run_cli_inprocess, call)
            else:
                run = partial(run_cli_subprocess, call, self.env, self.workdir, self.rss)
            ops.append(Op(call.label, self.PARTS.index(call.label), run))
        return ops


WORKLOADS = {w.name: w for w in (Suites, Scaling, Cli)}
