"""Smoke test of the benchmark at tiny sizes; it has no timing gate.

Run from the root of the repository:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
from oracle import JointConfig

TINY = run.Sizes(sweep_n=400, fine_n=800, samples=200)
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_workload_runs_and_passes_every_check(workload, trace):
    result, report = run.run_workload(workload, seed=3, seconds=0, trace=trace, sizes=TINY)
    assert "FAILED" not in report
    assert result["correct"] is True
    assert result["failed"] == 0
    rounds = 2 if trace else 1  # a traced run times one untraced round too
    assert result["attempted"] == rounds * len(run.build_round(workload, 3, TINY))
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        if not trace:
            assert metric["value"] > 0.0, name


def test_seed_orders_the_cycle_and_fine_ignores_it():
    sweeps = [run.build_round("sweep", seed, TINY) for seed in (1, 2)]
    assert sweeps[0] != sweeps[1] and sorted(map(repr, sweeps[0])) == sorted(map(repr, sweeps[1]))
    assert run.build_round("fine", 1, TINY) == run.build_round("fine", 2, TINY)
    curves = run.build_round("curves", 1, TINY)
    assert len(curves) == 4 * len(run.CONFIGS)


def test_failed_checks_are_recorded_not_raised():
    cfg = JointConfig(1.0, 0)
    good = {"integral": cfg.norm_integral("ground"), "N": cfg.norm_integral("ground") ** -0.5}
    assert all(c.ok for c in checks.check_normalize(json.dumps(good), 0, cfg, "ground"))
    bad = checks.check_normalize(json.dumps(dict(good, N=1.0)), 0, cfg, "ground")
    (failed,) = [c for c in bad if not c.ok]
    assert failed.name == "normalize.N" and failed.value > failed.bound
    r = [0.1, 0.2, 0.3]
    curve = "r,R\n" + "".join(f"{x},{y}\n" for x, y in zip(r, [1.0, -1.0, 1.0]))
    (signs,) = [c for c in checks.check_eval(curve, 0, cfg, "ground", 3) if c.name == "curve.sign_changes"]
    assert (signs.ok, signs.value, signs.bound) == (False, 2, 0)
    assert not checks.check_verify("not json", 0, cfg, 400)[0].ok


def test_oracle_norms_match_quadrature():
    from scipy.integrate import quad

    for a, m in run.CONFIGS:
        cfg = JointConfig(a, m)
        for state in ("ground", "excited"):
            value = quad(lambda r: cfg.radial(state, r) ** 2, 0.5 * cfg.r_min, 2 * cfg.r_max,
                         limit=400, epsrel=1e-12, points=[cfg.node_radius])[0]
            assert value == pytest.approx(cfg.norm_integral(state), rel=1e-9)


def test_fails_without_program_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
