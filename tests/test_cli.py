"""Command-line interface: golden outputs, exit codes, and JSON reports."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import qfeedback

from qfeedback import (
    AnnihilationQSys,
    ControllerModel,
    CostOutput,
    GeneralQSys,
    PlantModel,
    dagger,
    delta_build,
    load_system,
    random_pr_plant,
    random_pr_system,
    save_system,
    signature_matrix,
    trivial_controller,
)
from qfeedback.cli import main
from qfeedback.fileio import matrix_to_entries
from qfeedback.linalg import hermitian_part

from conftest import ROOT2, one_port_cavity, two_port_cavity_plant


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """System description files shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli_corpus")

    def put(name, model, **kwargs):
        path = root / name
        save_system(path, model, **kwargs)
        return path

    put("cavity_sys.json", one_port_cavity())
    put("cavity_plant.json", two_port_cavity_plant(with_cost=True))
    put("plant_nocost.json", two_port_cavity_plant())
    put("trivial_ctrl.json", trivial_controller(1, 1))
    put(
        "badk_sys.json",
        AnnihilationQSys(f=[[-1.0]], g=[[-ROOT2]], h=[[ROOT2]], k=[[2.0]]),
    )
    put(
        "nonpr_plant.json",
        PlantModel(
            kind="annihilation",
            f=[[-1.0]],
            g_w=[[-1.0]],
            g_u=[[-1.0]],
            h=[[1.0]],
            k=[[2.0]],
            cost=CostOutput(c=[[1.0]], d=[[0.0]]),
        ),
    )
    # static output feedback u = -2y, which destabilizes the cavity loop
    put(
        "static_neg2.json",
        ControllerModel(
            kind="annihilation",
            f_c=np.zeros((0, 0)),
            g_cw=np.zeros((0, 0)),
            g_cy=np.zeros((0, 1)),
            h_c=np.zeros((1, 0)),
            k_cw=np.zeros((1, 0)),
            k_cy=[[-2.0]],
        ),
    )

    def triple(name, f_c, g_cy, h_c):
        put(
            name,
            ControllerModel(
                kind="annihilation",
                f_c=f_c,
                g_cw=np.zeros((1, 1)),
                g_cy=g_cy,
                h_c=h_c,
                k_cw=np.eye(1),
                k_cy=np.zeros((1, 1)),
            ),
        )

    triple("triple_boundary.json", [[-1.0]], [[0.0]], [[1.0]])
    triple("triple_bad.json", [[-1.0]], [[0.0]], [[2.0]])
    triple("triple_min.json", [[-1.0]], [[1.0]], [[0.0]])

    malformed = root / "malformed.json"
    malformed.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "kind": "annihilation",
                "dimensions": {"n_modes": 1, "m_fields": 1},
                "matrices": {
                    "f": [[[1]]],
                    "g": [[[1, 0]]],
                    "h": [[[1, 0]]],
                    "k": [[[1, 0]]],
                },
            }
        )
    )
    return root


def _reject_constant(name: str):
    raise ValueError(f"not strict JSON: {name}")


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_realizable_cavity_golden_text(self, corpus, capsys):
        path = corpus / "cavity_sys.json"
        code, out, err = run(capsys, "check", path)
        assert code == 0 and err == ""
        assert out == (
            f"command: check {path}\n"
            "kind: annihilation\n"
            "realizable: true\n"
            "theta: [[[1.0000000000000002, 0.0]]]\n"
            "residuals: feedthrough=0.00e+00 lyapunov=0.00e+00 coupling=2.22e-16\n"
            "seed: 1729\n"
        )

    def test_transfer_flag_adds_frequency_domain_check(self, corpus, capsys):
        code, out, _ = run(capsys, "check", corpus / "cavity_sys.json", "--transfer")
        assert code == 0
        assert "transfer check (lossless_bounded_real): true" in out
        assert "prongs: stability=pass algebraic=pass sampled=pass" in out

    def test_unrealizable_system_exits_one_with_reason(self, corpus, capsys):
        code, out, _ = run(capsys, "check", corpus / "badk_sys.json")
        assert code == 1
        assert "realizable: false" in out
        assert "failure_reason: feedthrough" in out

    def test_tol_flag_loosens_the_verdict(self, corpus, capsys):
        code, out, _ = run(capsys, "--tol", "2.0", "check", corpus / "badk_sys.json")
        assert code == 0
        assert "realizable: true" in out
        assert "feedthrough=1.00e+00" in out

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
    def test_unusable_tol_exits_two(self, capsys, tmp_path, tol):
        # Theta = 0.5 leaves a coupling residual of 0.5: no finite positive tol passes it
        path = tmp_path / "coupling_off.json"
        save_system(path, AnnihilationQSys(f=[[-1.0]], g=[[-1.0]], h=[[3.0]], k=[[1.0]]))
        code, out, err = run(capsys, "--format", "json", "--tol", tol, "check", path, "--transfer")
        assert code == 2 and err == ""
        assert json.loads(out) == {
            "error": f"tol must be finite and positive, got {float(tol)!r}",
            "seed": 1729,
            "exit_status": 2,
        }
        code, out, err = run(capsys, "--tol", tol, "check", path)
        assert code == 2 and out == ""
        assert err.startswith("input error: tol must be finite and positive")

    def test_malformed_entry_exits_two_on_stderr(self, corpus, capsys):
        code, out, err = run(capsys, "check", corpus / "malformed.json")
        assert code == 2 and out == ""
        assert err == "input error: matrices.f[0][0]: entry must be [re, im]\n"

    def test_missing_file_exits_two(self, corpus, capsys):
        code, _, err = run(capsys, "check", corpus / "absent.json")
        assert code == 2
        assert err.startswith("input error: cannot read file")

    def test_json_report_schema(self, corpus, capsys):
        path = corpus / "cavity_sys.json"
        code, out, _ = run(capsys, "--format", "json", "check", path, "--transfer")
        assert code == 0
        report = json.loads(out)
        assert report["command"] == "check"
        assert report["path"] == str(path)
        assert report["realizable"] is True
        assert report["indeterminate"] is False
        assert report["failure_reason"] is None
        assert set(report["residuals"]) == {"feedthrough", "lyapunov", "coupling"}
        assert report["transfer"]["verdict"] is True
        assert report["transfer"]["prongs"] == {
            "stability": "pass",
            "algebraic": "pass",
            "sampled": "pass",
        }
        assert report["seed"] == 1729
        assert report["exit_status"] == 0

    def test_json_input_error_object(self, corpus, capsys):
        code, out, err = run(
            capsys, "--format", "json", "check", corpus / "malformed.json"
        )
        assert code == 2 and err == ""
        report = json.loads(out)
        assert report["location"] == "matrices.f[0][0]"
        assert report["exit_status"] == 2
        assert "entry must be [re, im]" in report["error"]

    def test_json_cost_block_fault_is_located_at_cost(self, corpus, capsys, tmp_path):
        doc = json.loads((corpus / "cavity_plant.json").read_text())
        doc["cost"]["d"] = [[[0, 0], [0, 0]]]
        path = tmp_path / "wide_cost.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "--format", "json", "check", path)
        assert code == 2 and err == ""
        report = json.loads(out)
        assert report["location"] == "cost"
        assert report["error"] == "cost: d must have shape (1, 1), got (1, 2)"


class TestParams:
    def test_cavity_parameters(self, corpus, capsys):
        code, out, _ = run(capsys, "params", corpus / "cavity_sys.json")
        assert code == 0
        assert "hamiltonian: [[[0.0, 0.0]]]" in out
        assert "coupling: [[[1.4142135623730951, 0.0]]]" in out

    def test_unrealizable_system_exits_one(self, corpus, capsys):
        code, out, _ = run(capsys, "params", corpus / "badk_sys.json")
        assert code == 1
        assert out == (
            "cannot extract parameters: system is not physically realizable"
            " (feedthrough)\n"
        )


class TestCompose:
    def test_cavity_with_trivial_controller_golden_text(self, corpus, capsys):
        plant = corpus / "cavity_plant.json"
        ctrl = corpus / "trivial_ctrl.json"
        code, out, _ = run(capsys, "compose", plant, ctrl, "--h2", "--hinf")
        assert code == 0
        assert out == (
            f"command: compose {plant} {ctrl}\n"
            "spectrum: -1+0j\n"
            "internally stable: true\n"
            "‖Γ_cl‖2 = 1.000000\n"
            "‖Γ_Z‖∞ = 1.000000\n"
            "seed: 1729\n"
        )

    def test_unstable_loop_reported_without_failing(self, corpus, capsys):
        code, out, _ = run(
            capsys, "compose", corpus / "cavity_plant.json", corpus / "static_neg2.json"
        )
        assert code == 0
        assert "spectrum: 1+0j" in out
        assert "internally stable: false" in out

    def test_require_stable_turns_instability_into_failure(self, corpus, capsys):
        code, out, _ = run(
            capsys,
            "compose",
            corpus / "cavity_plant.json",
            corpus / "static_neg2.json",
            "--require-stable",
        )
        assert code == 1
        assert "internally stable: false" in out

    def test_h2_needs_a_cost_block(self, corpus, capsys):
        code, _, err = run(
            capsys,
            "compose",
            corpus / "plant_nocost.json",
            corpus / "trivial_ctrl.json",
            "--h2",
        )
        assert code == 2
        assert err == "input error: plant has no cost output block\n"

    def test_channel_mismatch_is_unusable_input(self, corpus, tmp_path):
        ctrl = tmp_path / "wide_ctrl.json"
        save_system(ctrl, trivial_controller(2, 2))
        src = str(Path(qfeedback.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "qfeedback.cli", "--format", "json", "compose",
             str(corpus / "cavity_plant.json"), str(ctrl)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=120,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        report = json.loads(proc.stdout)
        assert report["exit_status"] == 2
        assert "channel mismatch" in report["error"]

    def test_emit_writes_a_loadable_closed_loop(self, corpus, capsys, tmp_path):
        target = tmp_path / "loop.json"
        code, out, _ = run(
            capsys,
            "compose",
            corpus / "cavity_plant.json",
            corpus / "trivial_ctrl.json",
            "--emit",
            target,
        )
        assert code == 0
        assert f"emitted: {target}" in out
        loaded = load_system(target)
        assert loaded.kind == "plant"
        assert loaded.model.m_u == 0
        assert loaded.metadata == {"label": "closed loop"}

    def test_json_report_carries_both_norms(self, corpus, capsys):
        code, out, _ = run(
            capsys,
            "--format",
            "json",
            "compose",
            corpus / "cavity_plant.json",
            corpus / "trivial_ctrl.json",
            "--h2",
            "--hinf",
        )
        assert code == 0
        report = json.loads(out)
        assert report["internally_stable"] is True
        assert report["h2_norm"] == pytest.approx(1.0, abs=1e-9)
        assert report["hinf_norm"] == pytest.approx(1.0, abs=1e-5)
        assert report["spectrum"] == [[-1.0, 0.0]]
        assert report["exit_status"] == 0


class TestSynth:
    def test_boundary_triple_needs_one_extra_channel(self, corpus, capsys):
        path = corpus / "triple_boundary.json"
        code, out, _ = run(capsys, "synth", path)
        assert code == 0
        assert out == (
            f"command: synth {path}\n"
            "kind: annihilation\n"
            "admissibility norm: 1.0000005\n"
            "extra noise channels: 1\n"
            "theta: [[[1.0, 0.0]]]\n"
            "augmentation realizable: true\n"
            "seed: 1729\n"
        )

    def test_minimal_triple_needs_no_extra_noise(self, corpus, capsys):
        code, out, _ = run(capsys, "synth", corpus / "triple_min.json")
        assert code == 0
        assert "extra noise channels: 0" in out
        assert "theta: [[[0.5, 0.0]]]" in out

    def test_inadmissible_triple_exits_one(self, corpus, capsys):
        code, out, _ = run(capsys, "synth", corpus / "triple_bad.json")
        assert code == 1
        assert out == "H∞ admissibility failed: 2.0 > 1\n"

    def test_json_failure_object(self, corpus, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "synth", corpus / "triple_bad.json"
        )
        assert code == 1
        report = json.loads(out)
        assert report["error"] == "H∞ admissibility failed: 2.0 > 1"
        assert report["exit_status"] == 1

    def test_json_report_schema(self, corpus, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "synth", corpus / "triple_min.json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["zero_noise"] is True
        assert report["extra_noise_channels"] == 0
        assert report["augmentation_realizable"] is True
        assert set(report["augmentation_residuals"]) == {
            "feedthrough",
            "lyapunov",
            "coupling",
        }

    @pytest.mark.parametrize("tol", ["0", "nan"])
    def test_unusable_tol_exits_two(self, corpus, tol):
        src = str(Path(qfeedback.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "qfeedback.cli", "--format", "json", "--tol", tol,
             "synth", str(corpus / "triple_boundary.json")],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=120,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        report = json.loads(proc.stdout)
        assert report["exit_status"] == 2
        assert "rel_tol" in report["error"]

    def test_emit_writes_the_augmented_controller(self, corpus, capsys, tmp_path):
        target = tmp_path / "aug.json"
        code, out, _ = run(
            capsys, "synth", corpus / "triple_boundary.json", "--emit", target
        )
        assert code == 0
        assert f"emitted: {target}" in out
        loaded = load_system(target)
        assert loaded.kind == "controller"
        assert loaded.model.m_wt == 2
        assert loaded.metadata == {"label": "synthesized controller"}


class TestVerify:
    def test_zero_gain_on_cavity_golden_text(self, corpus, capsys):
        code, out, _ = run(capsys, "verify", "C1", corpus / "cavity_plant.json")
        assert code == 0
        assert out == (
            "command: verify C1\n"
            "1/1 zero Kalman gain (max ‖K_g‖ = 0e+00)\n"
            "verdict: pass\n"
            "seed: 1729\n"
        )

    def test_zero_gain_random_batch(self, corpus, capsys):
        code, out, _ = run(capsys, "verify", "C1", "--random", "1", "1", "3", "7")
        assert code == 0
        assert "3/3 zero Kalman gain" in out
        assert "verdict: pass" in out

    def test_static_lqg_on_cavity(self, corpus, capsys):
        code, out, _ = run(capsys, "verify", "T5", corpus / "cavity_plant.json")
        assert code == 0
        assert "T5 holds: true" in out
        assert "best static cost 0.707107" in out
        assert "verdict: pass" in out

    def test_trivial_hinf_with_challenger_count(self, corpus, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "T6",
            corpus / "cavity_plant.json",
            "--challengers",
            "2",
        )
        assert code == 0
        assert "T6 holds: true" in out
        assert "3 loops give closed-loop norms" in out

    @pytest.mark.parametrize("theorem", ["C1", "T5"])
    def test_stateless_plant_exits_cleanly(self, theorem, tmp_path):
        path = tmp_path / "stateless_plant.json"
        save_system(
            path,
            PlantModel(
                kind="annihilation",
                f=np.zeros((0, 0)),
                g_w=np.zeros((0, 1)),
                g_u=np.zeros((0, 1)),
                h=np.zeros((1, 0)),
                k=np.eye(1),
                cost=CostOutput(c=np.zeros((1, 0)), d=np.zeros((1, 1))),
            ),
        )
        src = str(Path(qfeedback.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "qfeedback.cli", "verify", theorem, str(path)],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode in (0, 1, 2)
        assert "Traceback" not in proc.stderr

    def test_lowercase_selector_accepted(self, corpus, capsys):
        code, out, _ = run(capsys, "verify", "c1", corpus / "cavity_plant.json")
        assert code == 0
        assert "verdict: pass" in out

    def test_unrealizable_plant_is_skipped_not_failed(self, corpus, capsys):
        code, out, _ = run(capsys, "verify", "T5", corpus / "nonpr_plant.json")
        assert code == 0
        assert "skipped: plant not physically realizable" in out
        assert "verdict: pass" in out

    def test_json_report_carries_instance_evidence(self, corpus, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "verify", "T5", corpus / "cavity_plant.json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["theorem"] == "T5"
        assert report["failures"] == 0
        (instance,) = report["instances"]
        assert instance["holds"] is True
        assert set(instance["evidence"]) == {
            "max_gain_norm",
            "max_covariance_dev",
            "best_static_cost",
            "best_dynamic_cost",
            "static_used",
            "static_skipped",
            "dynamic_used",
            "dynamic_skipped",
        }
        assert instance["evidence"]["best_static_cost"] == pytest.approx(
            1 / ROOT2, abs=1e-9
        )


class TestGen:
    def test_generated_system_passes_check(self, corpus, capsys, tmp_path):
        target = tmp_path / "gen_sys.json"
        code, _, _ = run(capsys, "gen", "annihilation", "--out", target)
        assert code == 0
        assert load_system(target).kind == "annihilation"
        code, out, _ = run(capsys, "check", target)
        assert code == 0
        assert "realizable: true" in out

    def test_generated_general_system_passes_check(self, corpus, capsys, tmp_path):
        target = tmp_path / "gen_general.json"
        code, _, _ = run(
            capsys, "gen", "general", "--modes", "1", "--fields", "1", "--out", target
        )
        assert code == 0
        assert load_system(target).kind == "general"
        assert run(capsys, "check", target)[0] == 0

    def test_generated_plant_has_requested_shape(self, corpus, capsys, tmp_path):
        target = tmp_path / "gen_plant.json"
        code, _, _ = run(
            capsys, "gen", "plant", "--modes", "1", "--fields", "2", "--out", target
        )
        assert code == 0
        loaded = load_system(target)
        assert loaded.kind == "plant"
        assert loaded.model.n_modes == 1
        assert loaded.model.m_w == 2

    def test_without_out_prints_the_document(self, corpus, capsys):
        code, out, _ = run(
            capsys, "gen", "annihilation", "--modes", "1", "--fields", "1"
        )
        assert code == 0
        body = out[out.index("{") : out.rindex("}") + 1]
        doc = json.loads(body)
        assert doc["kind"] == "annihilation"
        assert doc["metadata"]["seed"] == 1729

    def test_seed_flag_controls_the_draw(self, corpus, capsys):
        first = run(capsys, "--seed", "7", "gen", "annihilation")[1]
        second = run(capsys, "--seed", "7", "gen", "annihilation")[1]
        third = run(capsys, "--seed", "8", "gen", "annihilation")[1]
        assert first == second
        assert first != third


class TestGeneralKind:
    def test_check_reports_an_indeterminate_verdict(self, capsys, tmp_path):
        # a doubled-up lossless mode: the eigenvalue-sum condition fails
        path = tmp_path / "lossless_mode.json"
        f = delta_build([[-1j]], [[0.0]])
        save_system(path, GeneralQSys(f=f, g=np.zeros((2, 2)), h=np.zeros((2, 2)), k=np.eye(2)))
        code, out, _ = run(capsys, "check", path)
        assert code == 1
        assert "realizable: false\nindeterminate: true\n" in out

    def test_check_transfer_runs_the_jj_unitary_test(self, capsys, tmp_path):
        path = tmp_path / "general.json"
        save_system(path, random_pr_system(2, 1, seed=5, kind="general"))
        code, out, _ = run(capsys, "check", path, "--transfer")
        assert code == 0
        assert "realizable: true" in out
        assert "transfer check (jj_unitary): true\n" in out

    def test_check_transfer_fails_a_perturbed_general_system(self, capsys, tmp_path):
        s = random_pr_system(2, 1, seed=5, kind="general")
        g = s.g.copy()
        # bump both blocks so the doubled-up shape survives
        g[0, 0] += 1e-2
        g[s.n_modes, s.m_fields] += 1e-2
        path = tmp_path / "bumped.json"
        save_system(path, type(s)(f=s.f, g=g, h=s.h, k=s.k))
        code, out, _ = run(capsys, "check", path, "--transfer")
        assert code == 1
        assert "transfer check (jj_unitary): false\n" in out

    def test_verify_t5_on_a_general_plant_reports_the_library_fault(self, capsys, tmp_path):
        # the CLI's default cost block is sized from the plant's doubled matrices
        path = tmp_path / "gp.json"
        save_system(path, random_pr_plant(1, 1, 1, 1, 0, kind="general"))
        code, out, err = run(capsys, "verify", "T5", path)
        assert code == 2 and out == ""
        assert err == "input error: static LQG verification is annihilation-kind only\n"

    def test_compose_text_ignores_the_plant_mode_order(self, capsys, tmp_path):
        # the same loop with its plant modes listed in reverse prints the same spectrum:
        # conjugate pairs -im first, real eigenvalues without rounding-noise imaginary parts
        ctrl = tmp_path / "gc.json"
        save_system(
            ctrl,
            ControllerModel(
                kind="general",
                f_c=delta_build([[-2.0 + 0.5j]], [[0.3]]),
                g_cw=np.zeros((2, 2)),
                g_cy=delta_build([[0.4]], [[0.1]]),
                h_c=delta_build([[0.5]], [[-0.2]]),
                k_cw=np.eye(2),
                k_cy=np.zeros((2, 2)),
            ),
        )
        for n, seed in [(2, 200), (3, 201), (4, 202), (2, 203), (3, 204), (4, 205)]:
            p = random_pr_plant(n, 2, 1, 1, seed=seed, kind="general")
            rev = np.r_[np.arange(n)[::-1], n + np.arange(n)[::-1]]
            q = PlantModel(
                kind="general", f=p.f[np.ix_(rev, rev)], g_w=p.g_w[rev], g_u=p.g_u[rev], h=p.h[:, rev], k=p.k
            )
            texts = []
            for model in (p, q):
                path = tmp_path / "gp.json"
                save_system(path, model)
                code, out, _ = run(capsys, "compose", path, ctrl)
                assert code == 0
                texts.append(out)
            assert texts[0] == texts[1]

    def test_synth_general_controller(self, capsys, tmp_path):
        path, target = tmp_path / "general_ctrl.json", tmp_path / "synth.json"
        save_system(
            path,
            ControllerModel(
                kind="general",
                f_c=delta_build([[-2.0 + 0.5j]], [[0.3]]),
                g_cw=np.zeros((2, 2)),
                g_cy=delta_build([[0.4]], [[0.1]]),
                h_c=delta_build([[0.5]], [[-0.2]]),
                k_cw=np.eye(2),
                k_cy=np.zeros((2, 2)),
            ),
        )
        code, out, _ = run(capsys, "--format", "json", "synth", path, "--emit", target)
        assert code == 0
        report = json.loads(out)
        assert report["kind"] == "general"
        assert report["augmentation_realizable"] is True
        assert "admissibility_norm" not in report
        # the certificate is T J T^dagger for the doubled-up T drawn from the seed
        rng = np.random.default_rng(1729)
        blk = rng.standard_normal((2, 1, 1)) + 1j * rng.standard_normal((2, 1, 1))
        t = delta_build(blk[0], blk[1])
        theta = hermitian_part(t @ signature_matrix(1) @ dagger(t))
        assert report["theta"] == matrix_to_entries(theta)
        emitted = load_system(target).model
        assert emitted.kind == "general"
        assert emitted.m_wt == 1 + report["extra_noise_channels"]


def _fuzz_document(rng: np.random.Generator) -> dict:
    """A schema-valid document: random kind, dimensions 0-3, scales 1e-12 to 1e12.

    Half the documents carry the [I, 0] feedthrough pattern so that they get
    past the feedthrough checks into the certificate and norm code.
    """
    kind = str(rng.choice(["annihilation", "general", "plant", "controller"]))
    square = kind in ("annihilation", "general")
    rep = kind if square else str(rng.choice(["annihilation", "general"]))
    if square:
        dims = dict(zip(("n_modes", "m_fields"), rng.integers(0, 4, 2).tolist()))
        layout = {"f": "nn", "g": "nm", "h": "mn", "k": "mm"}
        size = {"n": dims["n_modes"], "m": dims["m_fields"]}
    elif kind == "plant":
        dims = dict(zip(("n_modes", "m_w", "m_u", "m_y"), rng.integers(0, 4, 4).tolist()))
        layout = {"f": "nn", "g_w": "nw", "g_u": "nu", "h": "yn", "k": "yw"}
        size = {"n": dims["n_modes"], "w": dims["m_w"], "u": dims["m_u"], "y": dims["m_y"]}
    else:
        dims = dict(zip(("n_modes", "m_wt", "m_y", "m_u"), rng.integers(0, 4, 4).tolist()))
        layout = {"f_c": "nn", "g_cw": "nw", "g_cy": "ny", "h_c": "un", "k_cw": "uw", "k_cy": "uy"}
        size = {"n": dims["n_modes"], "w": dims["m_wt"], "u": dims["m_u"], "y": dims["m_y"]}
    scale = 10.0 ** rng.uniform(-12.0, 12.0)
    pattern = rng.random() < 0.5
    doc = {"schema_version": 1, "kind": kind, "dimensions": dims, "matrices": {}}
    if not square:
        doc["representation"] = rep
    for name, (r, c) in layout.items():
        shape = (size[r], size[c])
        blocks = [scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) for _ in "ab"]
        if r == c == "n":
            blocks[0] = blocks[0] - 2.0 * scale * np.eye(shape[0])
        if pattern and name in ("k", "k_cw"):
            blocks = [np.eye(*shape), np.zeros(shape)]
        if pattern and name == "k_cy":
            blocks = [np.zeros(shape)] * 2
        doc["matrices"][name] = matrix_to_entries(
            delta_build(*blocks) if rep == "general" else blocks[0]
        )
    if kind == "plant" and rng.random() < 0.5:
        d = 2 if rep == "general" else 1
        rows = int(rng.integers(0, 3))
        doc["cost"] = {
            "c": matrix_to_entries(rng.standard_normal((rows, d * dims["n_modes"]))),
            "d": matrix_to_entries(np.zeros((rows, d * dims["m_u"]))),
        }
    return doc


def _plant(n_modes, m_w, m_u, m_y) -> PlantModel:
    """An annihilation-kind plant with the given dimensions."""
    n = n_modes
    return PlantModel(
        kind="annihilation",
        f=-np.eye(n),
        g_w=-np.eye(n, m_w),
        g_u=-np.eye(n, m_u),
        h=np.eye(m_y, n),
        k=np.eye(m_y, m_w),
    )


class TestExitContract:
    def test_fuzzed_documents_keep_the_exit_contract(self, capsys, tmp_path):
        # every subcommand on 60 schema-valid documents: exit 0/1/2 and
        # exactly one strict JSON object on stdout (no NaN or Infinity),
        # never an escaping exception
        rng = np.random.default_rng(2029)
        paths = []
        for i in range(60):
            doc = _fuzz_document(rng)
            path = tmp_path / f"doc{i}.json"
            path.write_text(json.dumps(doc))
            paths.append((doc["kind"], path))
        controllers = [path for kind, path in paths if kind == "controller"]
        calls = []
        for i, (kind, path) in enumerate(paths):
            calls += [["check", path], ["check", path, "--transfer"]]
            if kind in ("annihilation", "general"):
                calls.append(["params", path])
            elif kind == "controller":
                calls.append(["synth", path])
            else:
                other = controllers[i % len(controllers)]
                emit = tmp_path / f"loop{i}.json"
                calls.append(["compose", path, other, "--h2", "--hinf", "--emit", emit])
                calls += [["verify", t, path, "--challengers", "1"] for t in ("C1", "T5", "T6")]
        statuses = set()
        for argv in calls:
            code, out, err = run(capsys, "--format", "json", *argv)
            assert code in (0, 1, 2), argv
            report = json.loads(out, parse_constant=_reject_constant)
            assert isinstance(report, dict) and report["exit_status"] == code, argv
            assert "Traceback" not in err, argv
            statuses.add(code)
        assert statuses == {0, 1, 2}

    @pytest.mark.parametrize(
        "argv_tail, dims",
        [
            # the [I, 0] feedthrough pattern does not fit: m_y > m_w
            (["check"], (1, 1, 1, 2)),
            # one measured row, no noise: the pattern used to be a silent 1 x 0 block
            (["check"], (1, 0, 1, 1)),
            # the T6 selector [I, 0] does not fit: m_y > m_w + m_u
            (["verify", "T6"], (1, 1, 1, 3)),
        ],
    )
    def test_identity_pattern_that_does_not_fit_exits_two(self, capsys, tmp_path, argv_tail, dims):
        path = tmp_path / "plant.json"
        save_system(path, _plant(*dims))
        code, out, err = run(capsys, *argv_tail, path)
        assert code == 2 and out == ""
        assert err.startswith("input error: [I, 0] block needs cols >= rows")

    def test_controller_with_fewer_noises_than_outputs_exits_two(self, capsys, tmp_path):
        path = tmp_path / "ctrl.json"
        save_system(path, ControllerModel(
            kind="annihilation", f_c=[[-1.0]], g_cw=np.zeros((1, 0)), g_cy=[[1.0]],
            h_c=[[1.0]], k_cw=np.zeros((1, 0)), k_cy=[[0.0]],
        ))
        code, _, err = run(capsys, "check", path)
        assert code == 2
        assert err.startswith("input error: [I, 0] block needs cols >= rows")

    def test_t6_without_measured_outputs_exits_two(self, capsys, tmp_path):
        path = tmp_path / "plant.json"
        save_system(path, _plant(1, 1, 1, 0))
        code, out, _ = run(capsys, "--format", "json", "verify", "T6", path)
        assert code == 2
        assert json.loads(out)["error"] == "selector must select at least one output"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_squares_beyond_the_float_range_end_in_an_input_error(self, tmp_path, fmt):
        # each document's check or synthesis squares a finite magnitude of 1e200 (the
        # transfer check's feedthrough scale, the H-infinity level); that ends in exit 2,
        # never in a traceback or a transfer prong that passes an unrepresentable identity
        docs = {
            "ann.json": (AnnihilationQSys(f=[[-1.0]], g=[[1.0]], h=[[1.0]], k=[[1e200]]), "--transfer"),
            "gen.json": (GeneralQSys(f=delta_build([[-1.0]], [[0.0]]), g=delta_build([[1.0]], [[0.0]]),
                                     h=delta_build([[1.0]], [[0.0]]), k=delta_build([[1e200]], [[0.0]])),
                         "--transfer"),
            "ctrl.json": (ControllerModel(kind="annihilation", f_c=[[-1.0]], g_cw=[[0.0, 0.0]], g_cy=[[1.0]],
                                          h_c=[[1e200]], k_cw=[[1.0, 0.0]], k_cy=[[0.0]]), None),
        }
        src = str(Path(qfeedback.__file__).resolve().parents[1])
        for name, (model, flag) in docs.items():
            save_system(tmp_path / name, model)
            argv = ["check", str(tmp_path / name), flag] if flag else ["synth", str(tmp_path / name)]
            proc = subprocess.run(
                [sys.executable, "-m", "qfeedback.cli", "--format", fmt, *argv],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONPATH": src},
                timeout=120,
            )
            assert proc.returncode == 2, (name, proc.stderr)
            assert "Traceback" not in proc.stderr and "=pass" not in proc.stdout
            error = json.loads(proc.stdout)["error"] if fmt == "json" else proc.stderr
            assert "is too large: its square overflows" in error

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_synth_whose_admissibility_level_underflows_exits_two(self, tmp_path, fmt):
        # H_c = 1e-200 puts the admissibility norm's bisection at levels whose squares underflow
        ctrl = ControllerModel(kind="annihilation", f_c=[[-1.0]], g_cw=[[0.0, 0.0]], g_cy=[[0.5]],
                               h_c=[[1e-200]], k_cw=[[1.0, 0.0]], k_cy=[[0.0]])
        save_system(tmp_path / "tiny.json", ctrl)
        proc = subprocess.run(
            [sys.executable, "-m", "qfeedback.cli", "--format", fmt, "synth", "tiny.json"],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(Path(qfeedback.__file__).resolve().parents[1])},
            timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr, proc.stderr
        error = json.loads(proc.stdout)["error"] if fmt == "json" else proc.stderr
        assert "is too small: its square underflows" in error

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("h_c, message", [(1.0, "its square underflows"), (1e300, "Hamiltonian at level")])
    def test_synth_with_a_pole_past_the_grids_float_range_exits_two(self, tmp_path, fmt, h_c, message):
        # F_c = -1e306 scales the top of the admissibility norm's grid past the float range; with
        # H_c = 1 the norm's level squares below it, and with H_c = 1e300 its Hamiltonian overflows
        ctrl = ControllerModel(kind="annihilation", f_c=[[-1e306]], g_cw=[[0.0, 0.0]], g_cy=[[0.5]],
                               h_c=[[h_c]], k_cw=[[1.0, 0.0]], k_cy=[[0.0]])
        save_system(tmp_path / "far.json", ctrl)
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "qfeedback.cli", "--format", fmt, "synth", "far.json"],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(Path(qfeedback.__file__).resolve().parents[1])},
            timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr, proc.stderr
        error = json.loads(proc.stdout, parse_constant=_reject_constant)["error"] if fmt == "json" else proc.stderr
        assert message in error

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_noise_terms_that_overflow_end_in_an_input_error_without_a_warning(self, tmp_path, fmt):
        # G = 1e200 is finite, but G S G^dagger is not: each command hands the overflowing
        # noise term to its solver, whose typed error is the only thing on stderr
        plant = random_pr_plant(2, 2, 1, 1, 0)
        docs = {
            "ann.json": AnnihilationQSys(f=[[-1.0]], g=[[1e200]], h=[[1.0]], k=[[1.0]]),
            "gen.json": GeneralQSys(f=delta_build([[-1.0]], [[0.0]]), g=delta_build([[1e200]], [[0.0]]),
                                    h=delta_build([[1.0]], [[0.0]]), k=delta_build([[1.0]], [[0.0]])),
            "ctrl.json": ControllerModel(kind="annihilation", f_c=[[-1.0]], g_cw=[[0.0, 0.0]], g_cy=[[1e200]],
                                         h_c=[[0.5]], k_cw=[[1.0, 0.0]], k_cy=[[0.0]]),
            "plant.json": PlantModel(kind="annihilation", f=plant.f, g_w=plant.g_w * 1e200, g_u=plant.g_u,
                                     h=plant.h, k=plant.k, cost=CostOutput(c=np.ones((1, 2)), d=np.zeros((1, 1)))),
            "t.json": trivial_controller(1, 1),
        }
        for name, model in docs.items():
            save_system(tmp_path / name, model)
        runs = [["check", "ann.json"], ["check", "ann.json", "--transfer"], ["check", "gen.json"],
                ["check", "gen.json", "--transfer"], ["params", "ann.json"], ["params", "gen.json"],
                ["synth", "ctrl.json"], ["compose", "plant.json", "t.json", "--h2"]]
        src = str(Path(qfeedback.__file__).resolve().parents[1])
        for argv in runs:
            proc = subprocess.run(
                [sys.executable, "-m", "qfeedback.cli", "--format", fmt, *argv],
                capture_output=True,
                text=True,
                cwd=tmp_path,
                env={**os.environ, "PYTHONPATH": src},
                timeout=120,
            )
            assert proc.returncode == 2, (argv, proc.stderr)
            assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr, (argv, proc.stderr)
            error = json.loads(proc.stdout)["error"] if fmt == "json" else proc.stderr
            assert error.strip() == ("q has non-finite entries" if fmt == "json" else "input error: q has non-finite entries")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_costs_and_responses_that_overflow_exit_without_a_warning(self, tmp_path, fmt):
        # a 1e200 cost row is finite, but tr(C Theta C^dagger) is not: compose --h2 and T5 end in
        # an input error, not a NaN cost; H x 1e200 overflows the sampled identity, whose prong is
        # then indeterminate, and check exits 1
        s = random_pr_system(2, 2, seed=0, kind="annihilation", hurwitz_required=True)
        gs = random_pr_system(2, 1, seed=0, kind="general")
        cost = CostOutput(c=np.full((1, 2), 1e200), d=np.zeros((1, 1)))
        docs = {
            "pc.json": random_pr_plant(2, 2, 1, 1, 0).with_cost(cost),
            "t.json": trivial_controller(1, 1),
            "hbig.json": AnnihilationQSys(f=s.f, g=s.g, h=1e200 * s.h, k=s.k),
            "ghbig.json": GeneralQSys(f=gs.f, g=gs.g, h=1e200 * gs.h, k=gs.k),
        }
        for name, model in docs.items():
            save_system(tmp_path / name, model)
        runs = [(["compose", "pc.json", "t.json", "--h2"], 2), (["verify", "T5", "pc.json"], 2),
                (["check", "hbig.json", "--transfer"], 1), (["check", "ghbig.json", "--transfer"], 1)]
        src = str(Path(qfeedback.__file__).resolve().parents[1])
        for argv, status in runs:
            proc = subprocess.run(
                [sys.executable, "-W", "error", "-m", "qfeedback.cli", "--format", fmt, *argv],
                capture_output=True,
                text=True,
                cwd=tmp_path,
                env={**os.environ, "PYTHONPATH": src},
                timeout=120,
            )
            assert proc.returncode == status, (argv, proc.stderr)
            assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr, (argv, proc.stderr)
            if status == 2:
                error = json.loads(proc.stdout)["error"] if fmt == "json" else proc.stderr
                assert "cost tr(C Theta C^dagger) is not finite" in error
            elif fmt == "json":  # strict JSON: the deviation that is not finite is null
                transfer = json.loads(proc.stdout, parse_constant=_reject_constant)["transfer"]
                assert transfer["prongs"]["sampled"] == "indeterminate" and transfer["residuals"]["sampled"] is None
            else:
                assert "sampled=indeterminate" in proc.stdout and "sampled=nan" in proc.stdout

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("kind", ["annihilation", "general"])
    def test_a_coupling_residual_that_overflows_is_not_realizable(self, tmp_path, capsys, kind, fmt):
        # H x 1e304 on F, G x 1e101: Theta H^dagger overflows, so the coupling residual is not
        # finite; that decides "not realizable" (exit 1), without a numpy warning
        s = random_pr_system(3, 2, seed=0, kind=kind)
        model = type(s)(f=1e101 * s.f, g=1e101 * s.g, h=1e304 * s.h, k=s.k)
        save_system(tmp_path / "far.json", model)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "--format", fmt, "check", tmp_path / "far.json")
        assert code == 1 and err == ""
        if fmt == "json":
            report = json.loads(out, parse_constant=_reject_constant)
            assert report["realizable"] is False and report["residuals"]["coupling"] is None
        else:
            assert "realizable: false" in out and "coupling=nan" in out

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_a_general_certificate_defect_that_overflows_is_an_input_error(self, tmp_path, capsys, fmt):
        # G_cy = 1e155 squares past the float range in the defect M that synth splits: exit 2
        ctrl = ControllerModel(kind="general", f_c=delta_build([[-1e282]], [[0.0]]), g_cw=np.zeros((2, 0)),
                               g_cy=delta_build([[1e155]], [[0.0]]), h_c=np.zeros((0, 2)), k_cw=np.zeros((0, 0)),
                               k_cy=np.zeros((0, 2)))
        save_system(tmp_path / "far.json", ctrl)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "--format", fmt, "synth", tmp_path / "far.json")
        assert code == 2
        error = json.loads(out, parse_constant=_reject_constant)["error"] if fmt == "json" else err
        assert "certificate defect M is not finite" in error
