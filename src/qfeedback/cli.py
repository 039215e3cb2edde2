"""Command-line front end.

Subcommands: check (realizability verdicts), compose (closed-loop assembly
and norms), synth (controller noise synthesis), verify (the zero-gain,
static-LQG and trivial-controller claims), gen (seeded random systems) and
params (recover the physical parameters).  Exit status: 0 all requested
verdicts pass, 1 a verdict or admissibility failure, 2 input or usage
error.  Reports go to stdout; diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .coherent import (
    random_challengers,
    verify_static_lqg,
    verify_trivial_hinf,
    verify_zero_gain,
)
from .errors import (
    DesignError,
    DimensionError,
    DomainError,
    FileFormatError,
    GenerationError,
    InfiniteNormError,
    InstabilityError,
    NotAugmentableError,
    NotRealizableError,
    SingularityError,
)
from .feedback import (
    ControllerModel,
    CostOutput,
    PlantModel,
    _identity_pad,
    augment_controller,
    augment_plant,
    close_augmented_loop,
    close_loop,
    gamma_cl,
    random_pr_plant,
    synth_noise_annihilation,
    synth_noise_general,
)
from .fileio import (
    LoadedFile,
    load_system,
    matrix_to_entries,
    model_to_document,
    save_system,
)
from .linalg import RESIDUAL_TOL, dagger, delta_build, signature_matrix
from .systems import _kind_rules, extract_params, random_pr_system
from .transfer import StateSpaceTF, h2_norm, hinf_norm, jj_unitary_check, lossless_br_check

_FAILURE_ERRORS = (
    NotRealizableError,
    NotAugmentableError,
    InstabilityError,
    InfiniteNormError,
    DesignError,
    GenerationError,
    SingularityError,
)


def _residual_line(residuals: dict[str, float]) -> str:
    return " ".join(f"{k}={v:.2e}" for k, v in residuals.items())


def _load(path: str, expected: tuple[str, ...]) -> LoadedFile:
    loaded = load_system(path)
    if loaded.kind not in expected:
        raise FileFormatError(
            f"expected a file of kind {' or '.join(expected)}, got {loaded.kind!r}",
            "kind",
        )
    return loaded


def _attach_transfer(report: dict, lines: list[str], model, tol: float) -> bool:
    if model.kind == "general":
        chk = jj_unitary_check(StateSpaceTF.from_system(model), model.m_fields, tol)
        name = "jj_unitary"
    else:
        chk = lossless_br_check(StateSpaceTF.from_system(model), tol)
        name = "lossless_bounded_real"
    report["transfer"] = {
        "check": name,
        "verdict": chk.verdict,
        "prongs": chk.prongs,
        "residuals": chk.residuals,
    }
    lines.append(f"transfer check ({name}): {str(chk.verdict).lower()}")
    lines.append("  prongs: " + " ".join(f"{k}={v}" for k, v in chk.prongs.items()))
    if chk.residuals:
        lines.append("  residuals: " + _residual_line(chk.residuals))
    return bool(chk.verdict)


def cmd_check(args) -> tuple[dict, list[str], int]:
    loaded = _load(args.path, ("annihilation", "general", "plant", "controller"))
    report: dict = {"command": "check", "path": args.path, "kind": loaded.kind}
    lines = [f"command: check {args.path}", f"kind: {loaded.kind}"]
    tol = args.tol if args.tol is not None else RESIDUAL_TOL

    model = loaded.model
    if loaded.kind in ("annihilation", "general"):
        verdict = _kind_rules(model.kind).check(model, tol)
        square = model
    else:
        try:
            aug = augment_plant(model) if loaded.kind == "plant" else augment_controller(model)
        except NotAugmentableError as exc:
            report.update(
                {
                    "realizable": False,
                    "failure_reason": str(exc),
                    "residuals": exc.residuals,
                }
            )
            lines.append("realizable: false")
            lines.append(f"failure_reason: {exc}")
            if exc.residuals:
                lines.append("residuals: " + _residual_line(exc.residuals))
            return report, lines, 1
        verdict = aug.verdict
        square = aug.system

    report["realizable"] = verdict.realizable
    report["indeterminate"] = verdict.indeterminate
    report["residuals"] = verdict.residuals
    report["failure_reason"] = verdict.failure_reason
    report["theta"] = None if verdict.theta is None else matrix_to_entries(verdict.theta)
    lines.append(f"realizable: {str(verdict.realizable).lower()}")
    if verdict.indeterminate:
        lines.append("indeterminate: true")
    if verdict.failure_reason:
        lines.append(f"failure_reason: {verdict.failure_reason}")
    if verdict.theta is not None:
        lines.append(f"theta: {json.dumps(matrix_to_entries(verdict.theta))}")
    if verdict.residuals:
        lines.append("residuals: " + _residual_line(verdict.residuals))

    ok = verdict.realizable
    if args.transfer:
        ok = _attach_transfer(report, lines, square, tol) and ok
    return report, lines, 0 if ok else 1


def cmd_compose(args) -> tuple[dict, list[str], int]:
    plant = _load(args.plant, ("plant",)).model
    ctrl = _load(args.controller, ("controller",)).model
    loop = close_loop(plant, ctrl)
    spectrum = sorted(np.linalg.eigvals(loop.state_matrix), key=lambda z: (z.real, z.imag))
    report: dict = {
        "command": "compose",
        "plant": args.plant,
        "controller": args.controller,
        "spectrum": [[z.real, z.imag] for z in spectrum],
        "internally_stable": loop.internally_stable,
    }
    lines = [
        f"command: compose {args.plant} {args.controller}",
        "spectrum: " + ", ".join(f"{z.real:.6g}{z.imag:+.6g}j" for z in spectrum),
        f"internally stable: {str(loop.internally_stable).lower()}",
    ]
    status = 0
    if args.h2:
        value = h2_norm(gamma_cl(plant, ctrl)).value
        report["h2_norm"] = value
        lines.append(f"‖Γ_cl‖2 = {value:.6f}")
    if args.hinf:
        acl = close_augmented_loop(plant, ctrl)
        sel = _identity_pad(plant.m_y, acl.system.output_dim)
        gz = StateSpaceTF(
            acl.system.a, acl.system.b, sel @ acl.system.c, sel @ acl.system.d
        )
        value = hinf_norm(gz).value
        report["hinf_norm"] = value
        lines.append(f"‖Γ_Z‖∞ = {value:.6f}")
    if args.emit:
        emitted = PlantModel(
            kind=plant.kind,
            f=loop.system.a,
            g_w=loop.system.b,
            g_u=np.zeros((loop.system.a.shape[0], 0), dtype=complex),
            h=loop.system.c,
            k=loop.system.d,
        )
        save_system(args.emit, emitted, metadata={"label": "closed loop"})
        report["emitted"] = args.emit
        lines.append(f"emitted: {args.emit}")
    if args.require_stable and not loop.internally_stable:
        status = 1
    return report, lines, status


def cmd_synth(args) -> tuple[dict, list[str], int]:
    loaded = _load(args.path, ("controller",))
    ctrl_in: ControllerModel = loaded.model
    rel_tol = args.tol if args.tol is not None else 1e-6
    if ctrl_in.kind == "annihilation":
        result = synth_noise_annihilation(
            ctrl_in.f_c, ctrl_in.g_cy, ctrl_in.h_c, rel_tol
        )
    else:
        rng = np.random.default_rng(args.seed)
        n_c = ctrl_in.n_modes
        blk = rng.standard_normal((2, n_c, n_c)) + 1j * rng.standard_normal((2, n_c, n_c))
        t = delta_build(blk[0], blk[1])
        theta = t @ signature_matrix(n_c) @ dagger(t)
        result = synth_noise_general(ctrl_in.f_c, ctrl_in.g_cy, ctrl_in.h_c, theta)
    aug = augment_controller(result.controller)
    report: dict = {
        "command": "synth",
        "path": args.path,
        "kind": result.controller.kind,
        "extra_noise_channels": result.extra_channels,
        "zero_noise": result.zero_noise,
        "theta": matrix_to_entries(result.theta),
        "augmentation_realizable": aug.verdict.realizable,
        "augmentation_residuals": aug.verdict.residuals,
    }
    lines = [
        f"command: synth {args.path}",
        f"kind: {result.controller.kind}",
        f"extra noise channels: {result.extra_channels}",
        f"theta: {json.dumps(matrix_to_entries(result.theta))}",
        f"augmentation realizable: {str(aug.verdict.realizable).lower()}",
    ]
    if result.admissibility_norm is not None:
        report["admissibility_norm"] = result.admissibility_norm
        lines.insert(2, f"admissibility norm: {result.admissibility_norm:.7f}")
    if args.emit:
        save_system(args.emit, result.controller, metadata={"label": "synthesized controller"})
        report["emitted"] = args.emit
        lines.append(f"emitted: {args.emit}")
    return report, lines, 0 if aug.verdict.realizable else 1


def _verify_targets(args) -> list[tuple[str, PlantModel]]:
    if args.random is not None:
        n, m, count, seed = args.random
        return [
            (f"random[{i}] seed={seed + i}", random_pr_plant(n, m, m, m, seed + i))
            for i in range(count)
        ]
    if args.path is None:
        raise FileFormatError("verify needs a plant file or --random n m count seed")
    return [(args.path, _load(args.path, ("plant",)).model)]


def cmd_verify(args) -> tuple[dict, list[str], int]:
    theorem = args.theorem.upper()
    targets = _verify_targets(args)
    report: dict = {"command": "verify", "theorem": theorem, "instances": []}
    lines = [f"command: verify {theorem}"]
    failures = 0

    if theorem == "C1":
        gains = []
        held = 0
        for label, plant in targets:
            try:
                rep = verify_zero_gain(
                    plant,
                    np.zeros((plant.m_u, plant.m_y)),
                    np.eye(plant.m_u),
                )
            except NotAugmentableError as exc:
                report["instances"].append({"target": label, "skipped": str(exc)})
                lines.append(f"{label}: skipped: plant not physically realizable ({exc})")
                continue
            gains.append(rep.evidence["gain_norm"])
            held += int(rep.holds)
            failures += int(not rep.holds)
            report["instances"].append(
                {"target": label, "holds": rep.holds, "evidence": rep.evidence}
            )
        max_gain = max(gains) if gains else 0.0
        summary = (
            f"{held}/{len(gains)} zero Kalman gain "
            f"(max ‖K_g‖ = {max_gain:.0e})"
        )
        report["summary"] = summary
        lines.append(summary)
    else:
        for label, plant in targets:
            if theorem == "T5":
                if plant.cost is None:
                    plant = plant.with_cost(
                        CostOutput(c=plant.h, d=np.zeros((plant.m_y, plant.m_u)))
                    )
                rep = verify_static_lqg(plant, seed=args.seed)
            else:
                challengers = random_challengers(plant, args.challengers, args.seed)
                sel = _identity_pad(plant.m_y, plant.m_w + plant.m_u)
                rep = verify_trivial_hinf(plant, sel, challengers)
            entry = {
                "target": label,
                "holds": rep.holds,
                "evidence": rep.evidence,
                "narrative": rep.narrative,
            }
            report["instances"].append(entry)
            if rep.skipped:
                lines.append(f"{label}: {rep.narrative}")
            else:
                lines.append(
                    f"{label}: {theorem} holds: {str(rep.holds).lower()} ({rep.narrative})"
                )
                failures += int(not rep.holds)

    lines.append(f"verdict: {'pass' if failures == 0 else 'fail'}")
    report["failures"] = failures
    return report, lines, 0 if failures == 0 else 1


def cmd_gen(args) -> tuple[dict, list[str], int]:
    n, m, seed = args.modes, args.fields, args.seed
    if args.kind == "plant":
        model = random_pr_plant(n, m, m, m, seed)
    else:
        model = random_pr_system(n, m, seed, kind=args.kind)
    metadata = {"label": f"seeded random {args.kind}", "seed": seed}
    doc = model_to_document(model, metadata)
    report: dict = {"command": "gen", "kind": args.kind, "seed": seed, "document": doc}
    lines = [f"command: gen {args.kind}", f"modes: {n}", f"fields: {m}"]
    if args.out:
        save_system(args.out, model, metadata)
        report["emitted"] = args.out
        lines.append(f"emitted: {args.out}")
    else:
        lines.append(json.dumps(doc, indent=2))
    return report, lines, 0


def cmd_params(args) -> tuple[dict, list[str], int]:
    loaded = _load(args.path, ("annihilation", "general"))
    params = extract_params(loaded.model)
    report = {
        "command": "params",
        "path": args.path,
        "kind": params.kind,
        "theta": matrix_to_entries(params.theta),
        "hamiltonian": matrix_to_entries(params.m),
        "coupling": matrix_to_entries(params.n_coupling),
    }
    lines = [
        f"command: params {args.path}",
        f"kind: {params.kind}",
        f"theta: {json.dumps(matrix_to_entries(params.theta))}",
        f"hamiltonian: {json.dumps(matrix_to_entries(params.m))}",
        f"coupling: {json.dumps(matrix_to_entries(params.n_coupling))}",
    ]
    return report, lines, 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfeedback",
        description="Physical realizability and coherent feedback analysis "
        "for linear quantum systems.",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--tol", type=float, default=None, help="override the residual tolerance")
    parser.add_argument("--seed", type=int, default=1729)
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="physical realizability verdict")
    p_check.add_argument("path")
    p_check.add_argument("--transfer", action="store_true",
                         help="also run the frequency-domain characterization")

    p_comp = sub.add_parser("compose", help="close a plant/controller loop")
    p_comp.add_argument("plant")
    p_comp.add_argument("controller")
    p_comp.add_argument("--h2", action="store_true", help="H2 norm of the cost channel")
    p_comp.add_argument("--hinf", action="store_true",
                        help="H-infinity norm of the selected augmented outputs")
    p_comp.add_argument("--emit", metavar="PATH", default=None)
    p_comp.add_argument("--require-stable", action="store_true")

    p_synth = sub.add_parser("synth", help="synthesize controller noise for realizability")
    p_synth.add_argument("path", help="controller file providing the triple")
    p_synth.add_argument("--emit", metavar="PATH", default=None)

    p_verify = sub.add_parser("verify", help="run a theorem verification suite")
    p_verify.add_argument("theorem", choices=("C1", "T5", "T6", "c1", "t5", "t6"))
    p_verify.add_argument("path", nargs="?", default=None)
    p_verify.add_argument("--random", nargs=4, type=int, default=None,
                          metavar=("N", "M", "COUNT", "SEED"))
    p_verify.add_argument("--challengers", type=int, default=5)

    p_gen = sub.add_parser("gen", help="emit a seeded random realizable system")
    p_gen.add_argument("kind", choices=("annihilation", "general", "plant"))
    p_gen.add_argument("--modes", type=int, default=2)
    p_gen.add_argument("--fields", type=int, default=2)
    p_gen.add_argument("--out", metavar="PATH", default=None)

    p_params = sub.add_parser("params", help="recover physical parameters")
    p_params.add_argument("path")

    return parser


_DISPATCH = {
    "check": cmd_check,
    "compose": cmd_compose,
    "synth": cmd_synth,
    "verify": cmd_verify,
    "gen": cmd_gen,
    "params": cmd_params,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        report, lines, status = _DISPATCH[args.command](args)
    except FileFormatError as exc:
        if args.format == "json":
            print(json.dumps({"error": str(exc), "location": exc.location,
                              "seed": args.seed, "exit_status": 2}, indent=2))
        else:
            print(f"input error: {exc}", file=sys.stderr)
        return 2
    except _FAILURE_ERRORS as exc:
        if args.format == "json":
            print(json.dumps({"error": str(exc), "seed": args.seed,
                              "exit_status": 1}, indent=2))
        else:
            print(str(exc))
        return 1
    except (DomainError, DimensionError) as exc:
        if args.format == "json":
            print(json.dumps({"error": str(exc), "seed": args.seed,
                              "exit_status": 2}, indent=2))
        else:
            print(f"input error: {exc}", file=sys.stderr)
        return 2

    report["seed"] = args.seed
    report["exit_status"] = status
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        lines.append(f"seed: {args.seed}")
        for line in lines:
            print(line)
    return status


if __name__ == "__main__":
    sys.exit(main())
