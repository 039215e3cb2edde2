"""Per-layer metrics from a traced run.

Every count and time is per traced execution of an operation.  Each traced
pass draws its inputs again under the tracer, so the program calls that
make an op's inputs (``random_pr_system`` and the checks it runs) count
once per execution too.  The closure check ``trace.sum_over_wall`` uses
only the spans inside operations.
"""

from __future__ import annotations

import os
from statistics import median

from tracing import LAYERS, OP_SPAN, self_times

# Traced functions whose calls and self time are reported.
FUNCTIONS = (
    "linalg.solve_lyapunov_hermitian",
    "linalg.solve_care_hermitian",
    "linalg.psd_split",
    "systems.check_pr_annihilation",
    "systems.check_pr_general",
    "systems.random_pr_system",
    "transfer.hinf_norm",
    "transfer.tf_eval",
    "transfer.lossless_br_check",
    "transfer.jj_unitary_check",
    "transfer.h2_norm",
    "feedback.synth_noise_annihilation",
    "feedback.close_augmented_loop",
    "feedback.augment_plant",
    "feedback.augment_controller",
    "feedback.complete_static_pr",
    "feedback.close_loop",
    "coherent.random_challengers",
    "coherent.kalman_design",
    "coherent.verify_zero_gain",
    "coherent.lqg_cost",
    "fileio.load_system",
    "fileio.save_system",
    "cli.main",
)

STABILIZING = ("stable-subspace", "lyapunov-degenerate")


def _returned(outcome) -> bool:
    return not isinstance(outcome, Exception)


def _care(c, args, kwargs, out):
    if _returned(out) and out.selection not in STABILIZING:
        c["fallback"] += 1


def _verdict(c, args, kwargs, out):
    if _returned(out) and out.indeterminate:
        c["indeterminate"] += 1


def _hinf(c, args, kwargs, out):
    if _returned(out) and "iterations" in out.certificate:
        c["bisections"] += 1
        c["iterations"] += out.certificate["iterations"]


def _raised(c, args, kwargs, out):
    if not _returned(out):
        c["raised"] += 1


def _none(c, args, kwargs, out):
    if out is None:
        c["none"] += 1


def _challengers(c, args, kwargs, out):
    c["requested"] += kwargs["count"] if "count" in kwargs else args[1]
    if _returned(out):
        c["returned"] += len(out)


def _file_bytes(c, args, kwargs, out):
    if _returned(out):
        c["bytes"] += os.path.getsize(args[0] if args else kwargs["path"])


OBSERVERS = {
    "linalg.solve_care_hermitian": _care,
    "systems.check_pr_annihilation": _verdict,
    "systems.check_pr_general": _verdict,
    "transfer.hinf_norm": _hinf,
    "feedback.synth_noise_annihilation": _raised,
    "feedback.complete_static_pr": _none,
    "coherent.random_challengers": _challengers,
    "fileio.load_system": _file_bytes,
    "fileio.save_system": _file_bytes,
}


def metric_names() -> list[str]:
    """Every per-layer metric, in the order printed."""
    names = []
    for fn in FUNCTIONS:
        names += [f"{fn}.calls", f"{fn}.self_s"]
    names += [
        "linalg.solve_care_hermitian.fallback_ratio",
        "systems.indeterminate_ratio",
        "transfer.hinf_norm.bisection_iters",
        "transfer.reduction_ratio",
        "feedback.synth_noise_annihilation.fail_ratio",
        "feedback.complete_static_pr.none_ratio",
        "coherent.challenger_yield",
        "fileio.load_system.bytes",
        "fileio.save_system.bytes",
        "cli.import_s",
    ]
    names += [f"{layer}.self_s" for layer in LAYERS]
    names += ["bench.other.self_s", "trace.overhead_s", "trace.sum_over_wall"]
    return names


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(
    tracer, traced, plain_best, traced_best, import_s: float, scale: float
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from ``tracer``'s spans over the ``traced`` passes.

    ``plain_best`` and ``traced_best`` are each op's fastest time untraced
    and traced, for the tracing overhead.  Times are multiplied by
    ``scale``, the run's machine-speed factor.
    """
    records = [r for p in traced for r in p]
    ops = len(records)
    selfs = self_times(tracer.spans)
    calls: dict[str, int] = {}
    own: dict[str, float] = {}
    in_ops = 0.0
    for (name, _, _, _, op), dt in zip(tracer.spans, selfs):
        calls[name] = calls.get(name, 0) + 1
        own[name] = own.get(name, 0.0) + dt
        if op >= 0:
            in_ops += dt
    c = tracer.counters

    per_op = scale / ops
    out: dict[str, tuple[float, str]] = {}
    for fn in FUNCTIONS:
        out[f"{fn}.calls"] = (calls.get(fn, 0) / ops, "count/op")
        out[f"{fn}.self_s"] = (own.get(fn, 0.0) * per_op, "s/op")
    checks = calls.get("systems.check_pr_annihilation", 0) + calls.get("systems.check_pr_general", 0)
    indeterminate = (
        c["systems.check_pr_annihilation"]["indeterminate"] + c["systems.check_pr_general"]["indeterminate"]
    )
    hinf = c["transfer.hinf_norm"]
    out.update({
        "linalg.solve_care_hermitian.fallback_ratio": (
            _ratio(c["linalg.solve_care_hermitian"]["fallback"], calls.get("linalg.solve_care_hermitian", 0)),
            "ratio",
        ),
        "systems.indeterminate_ratio": (_ratio(indeterminate, checks), "ratio"),
        "transfer.hinf_norm.bisection_iters": (_ratio(hinf["iterations"], hinf["bisections"]), "count"),
        "transfer.reduction_ratio": (
            _ratio(calls.get("transfer.minimal_realization", 0), calls.get("transfer.lossless_br_check", 0)),
            "ratio",
        ),
        "feedback.synth_noise_annihilation.fail_ratio": (
            _ratio(
                c["feedback.synth_noise_annihilation"]["raised"],
                calls.get("feedback.synth_noise_annihilation", 0),
            ),
            "ratio",
        ),
        "feedback.complete_static_pr.none_ratio": (
            _ratio(c["feedback.complete_static_pr"]["none"], calls.get("feedback.complete_static_pr", 0)),
            "ratio",
        ),
        "coherent.challenger_yield": (
            _ratio(c["coherent.random_challengers"]["returned"], c["coherent.random_challengers"]["requested"]),
            "ratio",
        ),
        "fileio.load_system.bytes": (c["fileio.load_system"]["bytes"] / ops, "B/op"),
        "fileio.save_system.bytes": (c["fileio.save_system"]["bytes"] / ops, "B/op"),
        "cli.import_s": (import_s * scale, "s"),
    })
    for layer in LAYERS:
        total = sum(v for k, v in own.items() if k.startswith(layer + "."))
        out[f"{layer}.self_s"] = (total * per_op, "s/op")
    out["bench.other.self_s"] = (own.get(OP_SPAN, 0.0) * per_op, "s/op")
    out["trace.overhead_s"] = ((median(traced_best) - median(plain_best)) * scale, "s")
    out["trace.sum_over_wall"] = (in_ops / sum(r.wall for r in records), "ratio")
    return out
