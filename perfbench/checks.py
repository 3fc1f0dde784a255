"""Checks of the program's outputs against the oracle and the method's properties.

Every check is recorded as a Check with its name, the value measured and the
bound it was held to; none raises, so a failed check never stops a run.
Tolerances scale with the quantity they guard (an energy, a norm, the peak of
a curve, the discretisation error), never with the operator's max|diag|.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from oracle import JointConfig, lowest_two_eigenvalues

# The one check that fails today for a known fault: at fine grids the
# eigenvectors carry tail noise above node_count's floor, so verify reports
# node counts other than (0, 1) and exits 5.
NAMED_FAULT = "nodes"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 5

REL_EXACT = 1e-12  # closed-form scalars the program prints with repr precision
REL_INTEGRAL = 1e-8  # Simpson quadrature converged to 1e-10 between doublings
REL_CURVE = 1e-8  # CSV values are printed to 9 significant digits
ORACLE_SHARE = 0.1  # solver error allowed, as a share of the h^2 error it measures
H2_MARGIN = 2.0  # allowed |E_h - E| in units of the first-order q h^2
ORDER_SLACK = 0.1  # fitted convergence order must be 2 within this
OVERLAP_BOUND = 1e-8
STATE_NODES = {"ground": 0, "excited": 1}  # oscillation theorem


@dataclass(frozen=True)
class Check:
    name: str
    value: object
    bound: object
    ok: bool


def at_most(name: str, value: float, bound: float) -> Check:
    value = float(value)
    return Check(name, value, bound, bool(value <= bound))  # NaN fails


def equals(name: str, value, expected) -> Check:
    return Check(name, value, expected, value == expected)


def _rel(x: float, ref: float) -> float:
    return abs(float(x) - ref) / abs(ref)


def check_verify(text: str, code, cfg: JointConfig, n: int) -> list[Check]:
    """Checks of one `anharm2d verify --out` report."""
    try:
        doc = json.loads(text)
        grid, params = doc["grid"], doc["params"]
        numeric = [float(x) for x in doc["numeric_energies"]]
    except (ValueError, KeyError, TypeError) as exc:
        return [equals("report", repr(exc), "a verify report")]
    checks = [
        equals("grid.n", grid["n"], n),
        at_most("grid.r_min", _rel(grid["r_min"], cfg.r_min), REL_EXACT),
        at_most("grid.r_max", _rel(grid["r_max"], cfg.r_max), REL_EXACT),
        at_most("params.a", _rel(params["a"], cfg.a), REL_EXACT),
        at_most("params.b", _rel(params["b"], cfg.b), REL_EXACT),
        at_most("params.c", _rel(params["c"], cfg.c), REL_EXACT),
    ]
    oracle = lowest_two_eigenvalues(
        cfg.r_min, cfg.r_max, n, cfg.a, cfg.b, cfg.c, cfg.m
    )
    h = oracle[2]
    for k in (0, 1):
        exact = cfg.energies[k]
        err = abs(numeric[k] - exact)
        checks += [
            at_most(f"exact.E{k}", _rel(doc["exact_energies"][k], exact), REL_EXACT),
            at_most(f"abs_error.E{k}", abs(doc["abs_errors"][k] - err), REL_EXACT * abs(exact)),
            at_most(
                f"oracle.E{k}",
                abs(numeric[k] - oracle[k]),
                ORACLE_SHARE * abs(oracle[k] - exact),
            ),
            at_most(f"h2.E{k}", err, H2_MARGIN * cfg.h2_coefficient(k) * h * h),
        ]
    nodes = list(doc["node_counts"])
    checks += [
        equals(NAMED_FAULT, nodes, [0, 1]),
        at_most("overlap", abs(doc["overlap_01"]), OVERLAP_BOUND),
        at_most("norm.N0", _rel(doc["norm_constants"][0], cfg.norm_integral("ground") ** -0.5), REL_INTEGRAL),
        at_most("norm.N1", _rel(doc["norm_constants"][1], cfg.norm_integral("excited") ** -0.5), REL_INTEGRAL),
        at_most("order", abs(doc["convergence_order"] - 2.0), ORDER_SLACK),
        # a report with wrong node counts must fail with exit 5, any other exits 0
        equals("exit", code, EXIT_OK if nodes == [0, 1] else EXIT_VERIFY_FAILED),
    ]
    return checks


def _parse_csv(text: str):
    header, _, body = text.partition("\n")
    values = np.array(body.replace("\n", ",").split(",")[:-1], dtype=float)
    return header, values[0::2], values[1::2]


def check_eval(text: str, code, cfg: JointConfig, state: str, samples: int) -> list[Check]:
    """Checks of one `anharm2d eval --normalize --out` curve."""
    checks = [equals("exit", code, EXIT_OK)]
    try:
        header, r, values = _parse_csv(text)
    except ValueError as exc:
        return checks + [equals("csv", repr(exc), "r,R rows")]
    checks += [equals("csv.header", header, "r,R"), equals("csv.rows", len(r), samples)]
    if len(r) != samples or len(values) != samples:
        return checks
    expected_r = np.linspace(cfg.r_min, cfg.r_max, samples)
    checks.append(at_most("curve.r", np.max(np.abs(r - expected_r)) / cfg.r_max, REL_CURVE))
    reference = cfg.radial(state, expected_r) * cfg.norm_integral(state) ** -0.5
    peak = float(np.max(np.abs(reference)))
    checks.append(at_most("curve.R", np.max(np.abs(values - reference)) / peak, REL_CURVE))
    nonzero = np.flatnonzero(values != 0.0)
    changes = nonzero[:-1][np.sign(values[nonzero[:-1]]) != np.sign(values[nonzero[1:]])]
    checks.append(equals("curve.sign_changes", len(changes), STATE_NODES[state]))
    if state == "excited" and len(changes) == 1:
        i = int(changes[0])
        j = int(nonzero[np.searchsorted(nonzero, i) + 1])
        crossing = r[i] - values[i] * (r[j] - r[i]) / (values[j] - values[i])
        spacing = (cfg.r_max - cfg.r_min) / (samples - 1)
        checks.append(at_most("curve.node_radius", abs(crossing - cfg.node_radius), spacing))
    return checks


def check_normalize(text: str, code, cfg: JointConfig, state: str) -> list[Check]:
    """Checks of one `anharm2d normalize --out` result."""
    checks = [equals("exit", code, EXIT_OK)]
    try:
        doc = json.loads(text)
        integral, norm = float(doc["integral"]), float(doc["N"])
    except (ValueError, KeyError, TypeError) as exc:
        return checks + [equals("normalize", repr(exc), "integral and N")]
    reference = cfg.norm_integral(state)
    return checks + [
        at_most("normalize.integral", _rel(integral, reference), REL_INTEGRAL),
        at_most("normalize.N", _rel(norm, reference**-0.5), REL_INTEGRAL),
    ]
