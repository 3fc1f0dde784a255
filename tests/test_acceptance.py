"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.special import kv

from anharm2d import cli
from anharm2d.closed_form import excited_solve, radial_eval
from anharm2d.numeric import (
    _extrapolate,
    assemble,
    build_grid,
    lowest_eigenvalues,
    node_count,
    overlap,
    quadrature,
    verify,
)
from tests.test_closed_form import rel_excited_residual, rel_ground_residual


def _announce(num, message):
    print(f"ACCEPTANCE {num} PASS: {message}")


def test_criterion_1_joint_parameter_reproduction(capsys):
    t0 = time.perf_counter()
    joint = excited_solve(1.0, 0)
    elapsed = time.perf_counter() - t0
    assert joint.params.c == 4.0
    assert joint.params.b == -12.0
    assert joint.ground.kappa == -1.5
    assert joint.excited.kappa == 0.5
    assert joint.excited.poly_c2 == 1.0
    assert joint.excited.poly_cm2 == -2.0
    assert joint.ground.energy == -2.0
    assert joint.excited.energy == 6.0
    assert elapsed < 1e-3

    code = cli.main(["solve", "--a", "1.0", "--m", "0"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert (doc["c"], doc["b"], doc["kappa"], doc["kappa1"]) == (4.0, -12.0, -1.5, 0.5)
    assert (doc["a2"], doc["a3"], doc["E0"], doc["E1"]) == (1.0, -2.0, -2.0, 6.0)
    with capsys.disabled():
        _announce(1, f"solve --a 1.0 --m 0 exact in {elapsed * 1e6:.0f} us")


def test_criterion_2_spectral_oracle(capsys):
    t0 = time.perf_counter()
    joint = excited_solve(1.0, 0)
    estimates = {}
    for n in (2000, 4000):
        grid = build_grid(joint.params, n)
        result = lowest_eigenvalues(assemble(joint.params, 0, grid), 2)
        estimates[n] = (result.eigenvalues, grid.h)
    exact = np.array([-2.0, 6.0])
    errs = np.abs(estimates[4000][0] - exact)
    assert np.all(errs <= 1e-3)

    (e1, h1), (e2, h2) = estimates[2000], estimates[4000]
    extrapolated = _extrapolate([h1, h2], [e1, e2], 0.0)
    rich_errs = np.abs(extrapolated - exact)
    assert np.all(rich_errs <= 1e-4)

    order = verify(1.0, 0, 4000).convergence_order  # grids [1000, 2000, 4000]
    assert 1.8 <= order <= 2.2
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    with capsys.disabled():
        _announce(
            2,
            f"|E_hat - E| = {errs.max():.2e}, Richardson {rich_errs.max():.2e}, "
            f"order {order:.3f}, {elapsed:.1f} s",
        )


def test_criterion_3_residual_suite(capsys):
    radii = np.logspace(-1, 1, 100)
    worst = 0.0
    for a in (0.25, 1.0, 4.0, 10.0):
        for m in (0, 1):
            joint = excited_solve(a, m)
            rg = rel_ground_residual(joint.ground, joint.params, m, radii)
            rx = rel_excited_residual(joint.excited, joint.params, m, radii)
            worst = max(worst, float(rg.max()), float(rx.max()))
    assert worst <= 1e-12
    with capsys.disabled():
        _announce(3, f"worst relative eigen-residual {worst:.2e} over 8 joint configs")


def test_criterion_4_orthogonality_and_nodes(capsys):
    joint = excited_solve(1.0, 0)
    grid = build_grid(joint.params, 4000)
    ov = overlap(joint.ground, joint.excited, grid)
    assert abs(ov) <= 1e-8

    result = lowest_eigenvalues(assemble(joint.params, 0, grid), 2)
    nodes = tuple(node_count(v) for v in result.eigenvectors)
    assert nodes == (0, 1)

    vec = result.eigenvectors[1]
    r = grid.points()
    kept = np.abs(vec) > 1e-12 * np.max(np.abs(vec))
    rk, vk = r[kept], vec[kept]
    idx = np.flatnonzero(np.sign(vk[:-1]) * np.sign(vk[1:]) < 0.0)
    node_exact = 2.0**0.25
    assert len(idx) == 1
    assert abs(rk[idx[0]] - node_exact) <= grid.h
    with capsys.disabled():
        _announce(
            4,
            f"overlap {ov:.1e}, nodes {nodes}, excited node at "
            f"{rk[idx[0]]:.5f} vs {node_exact:.5f} (h = {grid.h:.1e})",
        )


def test_criterion_5_normalization_oracle(capsys):
    # closed form: integral of r^(2k) exp(-sqrt(a) r^2 - sqrt(c) r^-2) dr
    #            = (sqrt(c)/sqrt(a))^((2k+1)/4) K_((2k+1)/2)(2 (ac)^(1/4)),
    # which for a=1, c=4, kappa=-3/2 is K_1(2 sqrt(2)) / sqrt(2)
    joint = excited_solve(1.0, 0)
    exact = kv(1.0, 2.0 * math.sqrt(2.0)) / math.sqrt(2.0)
    grid = build_grid(joint.params, 4000)
    got = quadrature(lambda r: radial_eval(joint.ground, r) ** 2, grid)
    assert got == pytest.approx(exact, rel=1e-8)
    with capsys.disabled():
        _announce(5, f"quadrature {got:.12f} vs Bessel-K closed form {exact:.12f}")


def test_criterion_6_figure_shape_properties(capsys):
    code = cli.main(["eval", "--state", "ground", "--a", "1", "--m", "0", "--samples", "2000"])
    ground_csv = capsys.readouterr().out
    assert code == 0
    code = cli.main(["eval", "--state", "excited", "--a", "1", "--m", "0", "--samples", "2000"])
    excited_csv = capsys.readouterr().out
    assert code == 0

    rows = [line.split(",") for line in ground_csv.strip().split("\n")[1:]]
    r = np.array([float(x) for x, _ in rows])
    v = np.array([float(y) for _, y in rows])
    peak_idx = int(np.argmax(np.abs(v)))
    assert 0 < peak_idx < len(r) - 1
    assert abs(r[peak_idx] - 0.9224) <= r[1] - r[0]
    # single interior maximum: |R| increases up to the peak, decreases after,
    # up to the flat underflowed tails
    live = np.abs(v) > 0.0
    mag = np.abs(v[live])
    k = int(np.argmax(mag))
    assert np.all(np.diff(mag[: k + 1]) >= 0.0)
    assert np.all(np.diff(mag[k:]) <= 0.0)

    rows = [line.split(",") for line in excited_csv.strip().split("\n")[1:]]
    xv = np.array([float(y) for _, y in rows])
    kept = np.abs(xv) > 1e-12 * np.max(np.abs(xv))
    vk = xv[kept]
    changes = int(np.sum(np.sign(vk[:-1]) * np.sign(vk[1:]) < 0.0))
    assert changes == 1
    with capsys.disabled():
        _announce(6, f"ground peak at r = {r[peak_idx]:.4f}, excited sign changes = {changes}")


def test_criterion_7_negative_controls(capsys):
    code = cli.main(["solve", "--a", "1.0", "--m", "2"])
    capsys.readouterr()
    assert code == 3

    code = cli.main(["eval", "--state", "ground", "--a", "1", "--c", "4", "--b", "0", "--m", "0"])
    capsys.readouterr()
    assert code == 3

    with pytest.raises(Exception):
        excited_solve(1.0, 2)
    with capsys.disabled():
        _announce(7, "m >= 2 joint solve and constraint-violating CLI inputs rejected (exit 3)")
