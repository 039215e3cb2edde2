"""qfeedback benchmark: one closed-loop client, one operation in flight.

    python3 bench/run.py --workload {suites,scaling,cli} --seed N --seconds S --trace {0,1}

Run from a checkout: the package is imported from ``src/`` next to this
directory.  BLAS is pinned to one thread.  Inputs come from ``--seed``.
The ops of as many whole rounds as fit in ``--seconds`` are drawn first,
then run ``PASSES`` times over; an op's time is its fastest run, scaled to
a reference machine speed (``Gauge``).  Every answer of every run is
checked.  The last line of stdout is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Lines before it, prefixed ``#``, record the environment and
the failure counts.  The traced run keeps its spans in memory and writes
them to ``.bench_out/spans-<workload>.json`` when it ends.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads BLAS

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_work"
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
# Each op runs this many times, the passes spread over the run, and its time
# is the fastest: other tenants of a shared machine slow it for seconds at a
# time, and the fastest pass is the one they disturbed least.
PASSES = 2
REFERENCE_S = 0.022  # Gauge's computation takes this long at the speed times are scaled to


def _import_package():
    """Import qfeedback from this checkout's ``src/``, or exit with status 1."""
    if not (SRC / "qfeedback" / "__init__.py").is_file():
        sys.exit(f"bench: no qfeedback sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qfeedback

    if Path(qfeedback.__file__).resolve().parent != SRC / "qfeedback":
        sys.exit(f"bench: imported qfeedback from {qfeedback.__file__}, not {SRC}")
    return qfeedback


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("suites", "scaling", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true", help="import, write inputs, run one warm-up op, exit"
    )
    return parser.parse_args(argv)


# --- measurement ------------------------------------------------------------


def p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


@dataclass
class Record:
    """One timed run of an op: its class, wall time and checked answers."""

    label: str
    part: int
    wall: float
    checks: list
    error: str | None = None

    @property
    def wrong(self) -> bool:
        return self.error is not None or not all(c.ok for c in self.checks)

    @property
    def unexpected(self) -> bool:
        """Wrong in a way no known defect explains."""
        return self.error is not None or any(not c.ok and c.known is None for c in self.checks)


def run_op(op, tracer=None, op_index=-1) -> Record:
    error = None
    checks = []
    start = time.perf_counter()
    try:
        if tracer is None:
            checks = op.run()
        else:
            with tracer.op_span(op_index):
                checks = op.run()
    except Exception as exc:  # an op that raised is counted, and the run goes on
        error = f"{type(exc).__name__}: {exc}"
        print(f"# op {op.label} raised {error}", file=sys.stderr)
    wall = time.perf_counter() - start
    return Record(op.label, op.part, wall, checks, error)


class Gauge:
    """Times a fixed computation before every op to gauge the machine's speed.

    Other tenants of a shared machine slow everything on it by up to half for
    minutes at a time.  ``scale`` converts a run's times to the speed at which
    the computation takes ``REFERENCE_S``, using its median over the run.  The
    computation uses numpy alone, so no change to the package moves it.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._a = {n: rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for n in (3, 24, 64)}
        self.samples: list[float] = []

    def measure(self) -> None:
        """Small-matrix work where Python dominates, then dense LAPACK at n = 24 and 64.

        The three parts take about equal time; together they track the
        op classes of all three workloads better than any one of them.
        """
        import numpy as np

        small, mid, large = self._a[3], self._a[24], self._a[64]
        start = time.perf_counter()
        for _ in range(150):
            x = np.linalg.solve(small, small.conj().T)
            float(np.max(np.abs(np.linalg.eigvals(x @ small))))
        for _ in range(20):
            np.linalg.eigvals(mid)
            np.linalg.solve(mid, mid)
            sum(i * i for i in range(300))
        for _ in range(3):
            np.linalg.eigvals(large)
            np.linalg.solve(large, large)
        self.samples.append(time.perf_counter() - start)

    @property
    def scale(self) -> float:
        return REFERENCE_S / statistics.median(self.samples)


def draw_ops(workload, seconds: float) -> list:
    """The ops of as many whole rounds as fit in ``seconds``, at least one."""
    rounds = max(1, round(seconds / workload.ROUND_S))
    return [op for r in range(rounds) for op in workload.round(r)]


def run_pass(ops, gauge: Gauge, tracer=None) -> list[Record]:
    records = []
    for i, op in enumerate(ops):
        gauge.measure()
        records.append(run_op(op, tracer, i))
    return records


def fastest(passes: list[list[Record]]) -> list[float]:
    """Each op's fastest wall time over the passes."""
    return [min(recs) for recs in zip(*([r.wall for r in p] for p in passes))]


def timed_subprocess(args: list[str], env=None) -> float:
    start = time.perf_counter()
    subprocess.run(args, check=True, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def failure_summary(records: list[Record]) -> dict:
    wrong = [c for rec in records for c in rec.checks if not c.ok]
    return {
        "attempted": len(records),
        "failed_ratio": sum(r.wrong for r in records) / len(records),
        "unexpected_failures": sum(r.unexpected for r in records),
        "errors": sorted({r.error for r in records if r.error}),
        "checks": sum(len(r.checks) for r in records),
        "wrong_checks": dict(Counter(c.name for c in wrong)),
        "known_defect_checks": dict(Counter(c.known for c in wrong if c.known)),
    }


def checks_ok_ratio(records: list[Record]) -> float:
    made = sum(len(r.checks) + (r.error is not None) for r in records)
    ok = sum(c.ok for r in records for c in r.checks)
    return ok / made


# --- environment ------------------------------------------------------------


def blas_threads() -> dict[str, int]:
    """Threads each loaded OpenBLAS reports, found through this process's maps."""
    import ctypes

    found = {}
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return found
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(lib).name] = int(fn())
                break
    return found


def environment(seed: int) -> dict:
    import platform

    import numpy as np
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS for the thread query)

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "blas_threads": blas_threads(),
        "seed": seed,
        "held_out_seed": held_out_seed(seed),
        "src_lines": src_lines,
        "load": "closed loop, one process, one operation in flight",
    }


def held_out_seed(seed: int) -> int:
    """A second seed, kept out of tuning, on which later claims must also hold."""
    return (seed * 7919 + 104729) % (2**31 - 1)


# --- the two kinds of run ---------------------------------------------------


def part_metric_names() -> list[str]:
    """Per-class medians; slot i holds the workload's ``PARTS[i]``."""
    return ["c1-n8-read_s.p50", "t5-n16-write_s.p50", "t6-n32-large_s.p50"]


END_TO_END = [
    "setup_s", "op_s.p50", "op_s.p90", "ops_per_s", "checks_ok_ratio", "peak_rss_mb",
    *part_metric_names(),
]


def end_to_end(args, workload) -> tuple[dict, list[Record], dict]:
    setup_cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0",
    ]
    setup_gauge = Gauge()  # gauged next to the set-ups, which run before the ops
    setups = []
    for _ in range(SETUP_REPEATS):
        setup_gauge.measure()
        setups.append(timed_subprocess(setup_cmd))
    workload.setup()
    run_op(workload.round(0)[0])  # warm-up, not counted

    gauge = Gauge()
    ops = draw_ops(workload, args.seconds / PASSES)
    start = time.perf_counter()
    passes = [run_pass(ops, gauge) for _ in range(PASSES)]
    elapsed = time.perf_counter() - start
    best = fastest(passes)
    if args.workload == "cli":
        rss = max(workload.rss)
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw = {
        "setup_s": statistics.median(setups),
        "op_s.p50": statistics.median(best),
        "op_s.p90": p90(best),
    }
    raw.update({
        name: statistics.median(t for t, op in zip(best, ops) if op.part == i)
        for i, name in enumerate(part_metric_names())
    })
    scale = gauge.scale
    metrics = {name: (value * scale, "s") for name, value in raw.items()}
    metrics["setup_s"] = (raw["setup_s"] * setup_gauge.scale, "s")
    metrics.update({
        "ops_per_s": (len(best) / (sum(best) * scale), "1/s"),
        "checks_ok_ratio": (checks_ok_ratio([r for p in passes for r in p]), "ratio"),
        "peak_rss_mb": (rss, "MB"),
    })
    metrics = {m: metrics[m] for m in END_TO_END}
    detail = {
        "ops": len(ops),
        "passes": PASSES,
        "elapsed_s": elapsed,
        "samples": {p: sum(op.part == i for op in ops) for i, p in enumerate(workload.PARTS)},
        "setup_samples_s": setups,
        "gauge_median_s": statistics.median(gauge.samples),
        "unscaled_s": raw,
    }
    return metrics, [r for p in passes for r in p], detail


def per_layer(args, workload) -> tuple[dict, list[Record], dict]:
    """Untraced and traced passes over the same ops, alternating: A B A B."""
    import layers
    from tracing import Tracer

    import_cmd = [sys.executable, "-c", "import qfeedback.cli"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    import_s = statistics.median(timed_subprocess(import_cmd, env) for _ in range(IMPORT_REPEATS))
    workload.setup()
    run_op(workload.round(0)[0])  # warm-up, not counted

    gauge = Gauge()
    plain, traced = [], []
    tracer = Tracer(layers.OBSERVERS)
    for _ in range(2):
        plain.append(run_pass(draw_ops(workload, args.seconds / 4), gauge))
        with tracer:  # the inputs are drawn under the tracer too
            traced.append(run_pass(draw_ops(workload, args.seconds / 4), gauge, tracer))
    metrics = layers.metrics(tracer, traced, fastest(plain), fastest(traced), import_s, gauge.scale)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"spans-{args.workload}.json").write_text(json.dumps({
        "fields": ["name", "start", "end", "parent", "op"],
        "spans": tracer.spans,
    }))
    detail = {"ops": len(plain[0]), "spans": len(tracer.spans)}
    return metrics, [r for p in plain + traced for r in p], detail


def main(argv=None) -> int:
    args = parse_args(argv)
    _import_package()
    import workloads

    workdir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "cli":
            workload = workloads.Cli(args.seed, workdir, in_process=bool(args.trace))
        else:
            workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.setup_only:
            workload.setup()
            run_op(workload.round(0)[0])
            return 0
        run = per_layer if args.trace else end_to_end
        metrics, records, detail = run(args, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass

    failures = failure_summary(records)
    env = environment(args.seed)
    print("# env " + json.dumps(env))
    print("# failures " + json.dumps(failures))
    print("# detail " + json.dumps(detail))
    result = {
        "correct": failures["unexpected_failures"] == 0,
        "attempted": failures["attempted"],
        "failed": failures["unexpected_failures"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
