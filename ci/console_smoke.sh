#!/usr/bin/env bash
# Smoke run of the installed `qfeedback` console script: every subcommand on
# small seeded documents, the input-error exit status 2, and compose on both
# kinds in both output formats, with its H2 and H∞ paths and the H2 path's
# cost-block error; synth on a stateless controller and T5 on a plant with
# its own cost block, and on one without a control channel, in both formats;
# T5 on seeded 2 x 2 plants (2,401 candidate gains, stacked challenger draws)
# and T6 with an empty challenger draw, in both formats; T6 on seeded plants
# with two measured rows and 20 challengers of both orders (stacked loops),
# whose JSON worst_norm_dev (every loop's grid peak against 1) must be below
# 1e-9; T6 with 0 and 3 challengers on a cavity whose measured feedthrough
# K = 1 + 6e-9 is within tolerance of the identity its completion is
# certified with, which must exit 0 and hold, in both formats;
# and documents whose magnitudes or noise terms square past the float range,
# or whose H-infinity levels square below it, or whose cost rows (compose
# --h2, T5) or sampled responses (check --transfer, both kinds) overflow
# their squares, which must exit 1 or 2 with no traceback and no warning;
# among them synth on controllers whose pole at -1e306 scales the grid past
# the float range (H_c = 1: the level squares below it; H_c = 1e300: the
# Hamiltonian overflows), which must exit 2. JSON output must be strict
# JSON: the sampled deviation that is not finite is written as null. Under
# `python -W error`, check on a general-kind system whose coupling residual
# overflows must say "realizable: false" and exit 1, and synth on a
# general-kind controller whose certificate defect overflows must exit 2,
# both formats, with no traceback and no warning.
# Run it from an empty scratch directory.
set -euo pipefail

qfeedback gen annihilation --out g.json
qfeedback check g.json --transfer
qfeedback params g.json
qfeedback gen general --out gg.json
qfeedback check gg.json --transfer
qfeedback params gg.json
status=0; qfeedback --tol nan check g.json || status=$?
test "$status" -eq 2
qfeedback gen plant --out p.json
qfeedback verify C1 p.json
qfeedback verify T5 p.json
qfeedback verify T6 p.json
python -c 'from qfeedback import random_pr_plant, save_system; save_system("gp.json", random_pr_plant(1, 1, 1, 1, 0, kind="general"))'
status=0; qfeedback verify T5 gp.json 2> gp.err || status=$?
test "$status" -eq 2
grep -q "annihilation-kind only" gp.err
python -c 'import numpy as np; from qfeedback import ControllerModel, delta_build, load_system, random_challengers, save_system; save_system("c.json", random_challengers(load_system("p.json").model, 1, 0)[0]); save_system("gc.json", ControllerModel(kind="general", f_c=delta_build([[-2.0 + 0.5j]], [[0.3]]), g_cw=np.zeros((2, 2)), g_cy=delta_build([[0.4]], [[0.1]]), h_c=delta_build([[0.5]], [[-0.2]]), k_cw=np.eye(2), k_cy=np.zeros((2, 2))))'
qfeedback compose p.json c.json --hinf
qfeedback --format json compose p.json c.json --hinf
qfeedback synth c.json
qfeedback synth gc.json
qfeedback compose gp.json gc.json
qfeedback --format json compose gp.json gc.json
python -c 'import numpy as np; from qfeedback import CostOutput, random_pr_plant, save_system, trivial_controller; save_system("pz.json", random_pr_plant(2, 2, 1, 1, 0).with_cost(CostOutput(c=np.ones((1, 2)), d=np.zeros((1, 1))))); save_system("t.json", trivial_controller(1, 1))'
qfeedback compose pz.json t.json --h2 --hinf
qfeedback --format json compose pz.json t.json --h2 --hinf
qfeedback synth t.json
qfeedback --format json synth t.json
qfeedback verify T5 pz.json
qfeedback --format json verify T5 pz.json
python -c 'import numpy as np; from qfeedback import CostOutput, PlantModel, save_system; save_system("p0.json", PlantModel(kind="annihilation", f=[[-1.0]], g_w=[[-2 ** 0.5]], g_u=np.zeros((1, 0)), h=[[2 ** 0.5]], k=[[1.0]], cost=CostOutput(c=[[1.0]], d=np.zeros((1, 0)))))'
qfeedback verify T5 p0.json
qfeedback --format json verify T5 p0.json
qfeedback verify T5 --random 2 2 3 7
qfeedback --format json verify T5 --random 2 2 3 7
qfeedback verify T6 --random 1 1 3 7 --challengers 0
qfeedback --format json verify T6 --random 1 1 3 7 --challengers 0
qfeedback verify T6 --random 2 2 3 7 --challengers 20
qfeedback --format json verify T6 --random 2 2 3 7 --challengers 20 > t6.out
python -c 'import json; worst = [i["evidence"]["worst_norm_dev"] for i in json.load(open("t6.out"))["instances"]]; assert len(worst) == 3 and max(worst) < 1e-9, worst'
python -c 'from qfeedback import PlantModel, save_system; save_system("kcav.json", PlantModel(kind="annihilation", f=[[-1.0]], g_w=[[-1.0]], g_u=[[-1.0]], h=[[1.0]], k=[[1.0 + 6e-9]]))'
for count in 0 3; do
  qfeedback verify T6 kcav.json --challengers "$count" > kcav.out
  grep -q "T6 holds: true" kcav.out
  qfeedback --format json verify T6 kcav.json --challengers "$count" > kcav.out
  python -c 'import json; report = json.load(open("kcav.out")); assert report["exit_status"] == 0 and report["instances"][0]["holds"] is True, report'
done
status=0; qfeedback compose p.json c.json --h2 2> h2.err || status=$?
test "$status" -eq 2
grep -q "plant has no cost output block" h2.err
python -c 'from qfeedback import ControllerModel, save_system; [save_system(name, ControllerModel(kind="annihilation", f_c=[[f]], g_cw=[[0.0, 0.0]], g_cy=[[0.5]], h_c=[[h]], k_cw=[[1.0, 0.0]], k_cy=[[0.0]])) for name, f, h in (("tiny.json", -1.0, 1e-200), ("far.json", -1e306, 1.0), ("farbig.json", -1e306, 1e300))]'
for doc in tiny.json far.json farbig.json; do
  for fmt in text json; do
    status=0; qfeedback --format "$fmt" synth "$doc" > tiny.out 2> tiny.err || status=$?
    test "$status" -eq 2
    if grep -q -e Traceback -e Warning tiny.err; then cat tiny.err; exit 1; fi
  done
done
python -c 'from qfeedback import AnnihilationQSys, ControllerModel, GeneralQSys, delta_build, save_system; save_system("big.json", AnnihilationQSys(f=[[-1.0]], g=[[1.0]], h=[[1.0]], k=[[1e200]])); save_system("gbig.json", GeneralQSys(f=delta_build([[-1.0]], [[0.0]]), g=delta_build([[1.0]], [[0.0]]), h=delta_build([[1.0]], [[0.0]]), k=delta_build([[1e200]], [[0.0]]))); save_system("cbig.json", ControllerModel(kind="annihilation", f_c=[[-1.0]], g_cw=[[0.0, 0.0]], g_cy=[[1.0]], h_c=[[1e200]], k_cw=[[1.0, 0.0]], k_cy=[[0.0]]))'
python -c 'import numpy as np; from qfeedback import AnnihilationQSys, ControllerModel, CostOutput, GeneralQSys, PlantModel, delta_build, random_pr_plant, save_system; p = random_pr_plant(2, 2, 1, 1, 0); save_system("qbig.json", AnnihilationQSys(f=[[-1.0]], g=[[1e200]], h=[[1.0]], k=[[1.0]])); save_system("qgbig.json", GeneralQSys(f=delta_build([[-1.0]], [[0.0]]), g=delta_build([[1e200]], [[0.0]]), h=delta_build([[1.0]], [[0.0]]), k=delta_build([[1.0]], [[0.0]]))); save_system("qcbig.json", ControllerModel(kind="annihilation", f_c=[[-1.0]], g_cw=[[0.0, 0.0]], g_cy=[[1e200]], h_c=[[0.5]], k_cw=[[1.0, 0.0]], k_cy=[[0.0]])); save_system("qpbig.json", PlantModel(kind="annihilation", f=p.f, g_w=p.g_w * 1e200, g_u=p.g_u, h=p.h, k=p.k, cost=CostOutput(c=np.ones((1, 2)), d=np.zeros((1, 1)))))'
python -c 'import numpy as np; from qfeedback import AnnihilationQSys, CostOutput, GeneralQSys, random_pr_plant, random_pr_system, save_system; s = random_pr_system(2, 2, 0, hurwitz_required=True); g = random_pr_system(2, 1, 0, kind="general"); save_system("hbig.json", AnnihilationQSys(f=s.f, g=s.g, h=1e200 * s.h, k=s.k)); save_system("ghbig.json", GeneralQSys(f=g.f, g=g.g, h=1e200 * g.h, k=g.k)); save_system("zbig.json", random_pr_plant(2, 2, 1, 1, 0).with_cost(CostOutput(c=1e200 * np.ones((1, 2)), d=np.zeros((1, 1)))))'
for argv in "check big.json --transfer" "check gbig.json --transfer" "synth cbig.json" \
    "check qbig.json" "check qbig.json --transfer" "check qgbig.json" "check qgbig.json --transfer" \
    "params qbig.json" "params qgbig.json" "synth qcbig.json" "compose qpbig.json t.json --h2" \
    "check hbig.json --transfer" "check ghbig.json --transfer" "compose zbig.json t.json --h2" "verify T5 zbig.json"; do
  for fmt in text json; do
    status=0; qfeedback --format "$fmt" $argv > big.out 2> big.err || status=$?
    test "$status" -ge 1 && test "$status" -le 2
    if grep -q -e Traceback -e Warning big.err; then cat big.err; exit 1; fi
  done
done
status=0; qfeedback --format json check hbig.json --transfer > hbig.out || status=$?
test "$status" -eq 1
python -c 'import json, sys; json.load(open("hbig.out"), parse_constant=lambda c: sys.exit(f"not strict JSON: {c}"))'
python -c 'import numpy as np; from dataclasses import replace; from qfeedback import ControllerModel, delta_build, random_pr_system, save_system; s = random_pr_system(3, 2, 0, kind="general"); save_system("cpl.json", replace(s, f=1e101 * s.f, g=1e101 * s.g, h=1e304 * s.h)); save_system("gsy.json", ControllerModel(kind="general", f_c=delta_build([[-1e282]], [[0.0]]), g_cw=np.zeros((2, 0)), g_cy=delta_build([[1e155]], [[0.0]]), h_c=np.zeros((0, 2)), k_cw=np.zeros((0, 0)), k_cy=np.zeros((0, 2))))'
for fmt in text json; do
  status=0; python -W error -m qfeedback.cli --format "$fmt" check cpl.json > cpl.out 2> cpl.err || status=$?
  test "$status" -eq 1
  if grep -q -e Traceback -e Warning cpl.err; then cat cpl.err; exit 1; fi
  grep -q -e "realizable: false" -e '"realizable": false' cpl.out
  status=0; python -W error -m qfeedback.cli --format "$fmt" synth gsy.json > gsy.out 2> gsy.err || status=$?
  test "$status" -eq 2
  if grep -q -e Traceback -e Warning gsy.err; then cat gsy.err; exit 1; fi
done
