import json
import math
import os
import warnings

import numpy as np
import pytest

from anharm2d import cli
from anharm2d.closed_form import (
    Level,
    PotentialParams,
    SignBranch,
    constrained_state,
    ground_constraint_b,
    radial_eval,
)
from anharm2d.numeric import ConvergenceError, VerificationReport
from tests.test_numeric import bessel_norm_integral


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().split("\n")
    assert lines[0] == "r,R"
    rows = [tuple(float(x) for x in line.split(",")) for line in lines[1:]]
    r = np.array([row[0] for row in rows])
    v = np.array([row[1] for row in rows])
    return r, v


class TestSolve:
    def test_sec3_golden(self, capsys):
        code, out, _ = run(capsys, "solve", "--a", "1.0", "--m", "0")
        assert code == 0
        doc = json.loads(out)
        assert doc == {
            "a": 1.0, "m": 0, "c": 4.0, "b": -12.0, "kappa": -1.5,
            "kappa1": 0.5, "E0": -2.0, "E1": 6.0, "a1": 0.0, "a2": 1.0, "a3": -2.0,
        }

    def test_scaled(self, capsys):
        code, out, _ = run(capsys, "solve", "--a", "4.0", "--m", "0")
        assert code == 0
        doc = json.loads(out)
        assert (doc["c"], doc["b"]) == (1.0, -6.0)
        assert (doc["E0"], doc["E1"]) == (-4.0, 12.0)

    def test_unsolvable_m_exits_3(self, capsys):
        code, _, err = run(capsys, "solve", "--a", "1.0", "--m", "2")
        assert code == 3
        assert "m=2" in err

    def test_invalid_a_exits_2(self, capsys):
        code, _, _ = run(capsys, "solve", "--a", "-1.0", "--m", "0")
        assert code == 2

    def test_a_too_small_is_named(self, capsys):
        # c = 4/a overflows; the message used to blame the b derived from it
        code, out, err = run(capsys, "solve", "--a", "1e-320")
        assert (code, out) == (2, "")
        assert "error: a is too small" in err

    def test_deterministic(self, capsys):
        _, out1, _ = run(capsys, "solve", "--a", "1.0", "--m", "0")
        _, out2, _ = run(capsys, "solve", "--a", "1.0", "--m", "0")
        assert out1 == out2


class TestEval:
    def test_ground_curve_shape(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--state", "ground", "--a", "1", "--m", "0", "--samples", "1000"
        )
        assert code == 0
        r, v = parse_csv(out)
        assert len(r) == 1000
        assert np.all(np.diff(r) > 0.0)
        assert np.all(np.isfinite(v))
        # single interior maximum near the analytic stationary point
        peak = r[np.argmax(np.abs(v))]
        assert abs(peak - 0.9223779) <= r[1] - r[0]
        assert 0 < np.argmax(np.abs(v)) < len(r) - 1

    def test_excited_curve_single_node(self, capsys):
        code, out, _ = run(capsys, "eval", "--state", "excited", "--a", "1", "--m", "0")
        assert code == 0
        r, v = parse_csv(out)
        kept = np.abs(v) > 1e-12 * np.max(np.abs(v))
        rk, vk = r[kept], v[kept]
        idx = np.flatnonzero(np.sign(vk[:-1]) * np.sign(vk[1:]) < 0.0)
        assert len(idx) == 1
        assert abs(rk[idx[0]] - 2.0**0.25) <= r[1] - r[0]

    def test_constraint_gate_exits_3(self, capsys):
        code, _, err = run(
            capsys, "eval", "--state", "ground", "--a", "1", "--c", "4", "--b", "0", "--m", "0"
        )
        assert code == 3
        assert "constraint" in err

    @pytest.mark.parametrize(
        "command, a, c, b",
        [
            # 4c (m^2 + 2 sqrt(ac)) overflows, but the branch b, 8.7e154, does not
            ("eval", "1e-300", "1e306", "0"),
            ("normalize", "1e-300", "1e306", "0"),
            # (b + 2 sqrt(c))^2 overflows, but b itself does not
            ("normalize", "1", "4", "1e300"),
        ],
    )
    def test_overflowing_constraint_terms_exit_3(self, capsys, command, a, c, b):
        code, out, err = run(capsys, command, "--state", "ground", "--a", a, "--c", c, "--b", b)
        assert (code, out) == (3, "")
        assert "constraint needs b" in err

    def test_overflowing_branch_b_exits_3(self, capsys):
        # sqrt(ac) overflows, and with it the b of either branch
        code, out, err = run(
            capsys, "eval", "--state", "ground", "--a", "1e308", "--c", "1e308", "--b", "0"
        )
        assert (code, out) == (3, "")
        assert "constraint terms overflow" in err

    @pytest.mark.parametrize("state, a", [("ground", "1"), ("excited", "4e26")])
    def test_off_surface_small_c_exits_3(self, capsys, state, a):
        # the surface needs b = -2e-13 (ground) or -6e-13 (excited); an absolute floor let b = 0 by
        code, out, err = run(
            capsys, "eval", "--state", state, "--a", a, "--c", "1e-26", "--b", "0", "--samples", "3"
        )
        assert (code, out) == (3, "")
        assert err.startswith("error: ")

    def test_explicit_valid_params_pass_gate(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--state", "ground", "--a", "1", "--c", "4", "--b", "-12",
            "--m", "0", "--samples", "50",
        )
        assert code == 0
        r, v = parse_csv(out)
        assert len(r) == 50

    def test_plus_branch_inferred_from_b(self, capsys):
        # b = 4 puts (a, c, m) = (1, 4, 0) on the ground surface's PLUS branch, kappa = 2.5
        code, out, _ = run(
            capsys, "eval", "--state", "ground", "--a", "1", "--c", "4", "--b", "4", "--m", "0",
            "--r-min", "0.5", "--r-max", "3", "--samples", "200",
        )
        assert code == 0
        state = constrained_state(PotentialParams(a=1.0, b=4.0, c=4.0), 0, Level.GROUND)
        assert state.kappa == 2.5
        expected = radial_eval(state, np.linspace(0.5, 3.0, 200))
        got = [line.split(",")[1] for line in out.strip().split("\n")[1:]]
        assert got == [format(float(v), ".9g") for v in expected]

    def test_partial_explicit_params_exit_2(self, capsys):
        code, _, _ = run(capsys, "eval", "--state", "ground", "--a", "1", "--c", "4", "--m", "0")
        assert code == 2

    def test_bad_range_exits_2(self, capsys):
        code, _, _ = run(
            capsys, "eval", "--state", "ground", "--a", "1", "--m", "0",
            "--r-min", "2.0", "--r-max", "1.0",
        )
        assert code == 2

    @pytest.mark.parametrize("option, value", [("--r-max", "inf"), ("--r-min", "nan")])
    def test_non_finite_range_exits_2(self, capsys, option, value):
        code, out, err = run(capsys, "eval", "--a", "1", option, value, "--samples", "4")
        assert code == 2
        assert out == ""
        assert "must be finite" in err

    @pytest.mark.parametrize("value", ["3", "-1e1"])
    def test_abbreviated_option_exits_2(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "eval", "--a", "1", "--r-ma", value, "--samples", "3")
        assert exc.value.code == 2

    def test_exponent_negative_after_a_space(self, capsys):
        # solve --a 1e12 prints "b": -1.2e-05, which argparse alone takes for an option
        argv = ["eval", "--state", "ground", "--a", "1e12", "--c", "4e-12", "--samples", "3"]
        code, spaced, _ = run(capsys, *argv, "--b", "-1.2e-05")
        assert code == 0
        _, joined, _ = run(capsys, *argv, "--b=-1.2e-05")
        assert spaced == joined

    def test_normalized_output(self, capsys):
        _, raw, _ = run(capsys, "eval", "--a", "1", "--m", "0", "--samples", "200")
        _, normed, _ = run(capsys, "eval", "--a", "1", "--m", "0", "--samples", "200", "--normalize")
        vr = parse_csv(raw)[1]
        vn = parse_csv(normed)[1]
        i = np.argmax(np.abs(vr))
        expected_n = 0.034916868503823**-0.5
        assert vn[i] / vr[i] == pytest.approx(expected_n, rel=1e-6)

    def test_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "curve.csv"
        code, out, _ = run(
            capsys, "eval", "--a", "1", "--m", "0", "--samples", "10", "--out", str(out_path)
        )
        assert code == 0
        assert out == ""
        text = out_path.read_text()
        assert text.startswith("r,R\n")
        assert "\r" not in text

    def test_deterministic(self, capsys):
        _, out1, _ = run(capsys, "eval", "--a", "1", "--m", "0", "--samples", "100")
        _, out2, _ = run(capsys, "eval", "--a", "1", "--m", "0", "--samples", "100")
        assert out1 == out2


class TestNonFiniteInput:
    @pytest.mark.parametrize(
        "name, argv",
        [
            ("a", ["solve", "--a", "inf"]),
            ("a", ["verify", "--a", "nan", "--grid-n", "64"]),
            ("a", ["eval", "--a", "inf", "--c", "4", "--b", "-12"]),
            ("a", ["normalize", "--state", "excited", "--a=-inf", "--c", "4", "--b", "-12"]),
            ("c", ["eval", "--a", "1", "--c", "inf", "--b", "-12"]),
            ("b", ["normalize", "--a", "1", "--c", "4", "--b", "nan"]),
        ],
        ids=["solve-a", "verify-a", "eval-a", "normalize-a", "eval-c", "normalize-b"],
    )
    def test_names_the_parameter_and_exits_2(self, capsys, name, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert f"error: {name} must be finite" in err


class TestVerifyCommand:
    def test_sec3_report(self, capsys):
        code, out, _ = run(capsys, "verify", "--a", "1", "--m", "0", "--grid-n", "1000")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["exact_energies"] == [-2.0, 6.0]
        assert doc["node_counts"] == [0, 1]
        assert abs(doc["overlap_01"]) <= 1e-8
        assert all(e <= 1e-3 for e in doc["abs_errors"])

    def test_invalid_a_exits_2(self, capsys):
        code, _, _ = run(capsys, "verify", "--a", "-1", "--m", "0")
        assert code == 2

    @pytest.mark.parametrize("n", ["16", "63"])
    def test_grid_below_minimum_exits_2(self, capsys, n):
        # n // 4 must be a legal grid (16 points); smaller n used to collapse all three grids
        code, out, err = run(capsys, "verify", "--a", "1", "--grid-n", n)
        assert code == 2
        assert out == ""
        assert "64" in err

    def test_overflowing_operator_exits_with_message(self, capsys):
        # at a = 1e300 the discretized operator overflows double precision
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run(capsys, "verify", "--a", "1e300", "--grid-n", "64")
        assert code in {2, 3, 4, 5}
        assert err.startswith("error: ")
        assert code == 4
        assert "overflow" in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_opposite_infinities_in_the_operator_exit_4(self, capsys):
        # at a = 1e308, a r^2 overflows to inf where b r^-4 overflows to -inf;
        # their sum is NaN, which used to warn "invalid value" before exit 4
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "verify", "--a", "1e308", "--m", "0", "--grid-n", "64")
        assert (code, out) == (4, "")
        assert "overflows double precision" in err
        assert "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_zero_norm_integral_exits_4(self, capsys):
        # at m = 300 the ground state peaks at r = 0.55, past the grid
        # [0.0033, 0.3], where every Simpson sample of |R|^2 underflows to 0
        state = ["--state", "ground", "--a", "1e6", "--c", "1e-6", "--m", "300",
                 "--b", "0.59800666662963"]
        for argv in (["normalize", *state], ["eval", "--normalize", *state, "--samples", "3"]):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (4, "")
            assert "norm integral" in err and "is 0.0" in err

    def test_failed_report_exits_5(self, capsys, monkeypatch):
        real = cli.verify

        def failing(a, m, n):
            report = real(a, m, n)
            return VerificationReport(**{**report.__dict__, "passed": False})

        monkeypatch.setattr(cli, "verify", failing)
        code, out, _ = run(capsys, "verify", "--a", "1", "--m", "0", "--grid-n", "1000")
        assert code == 5
        assert json.loads(out)["passed"] is False

    def test_convergence_failure_exits_4(self, capsys, monkeypatch):
        def broken(a, m, n):
            raise ConvergenceError("synthetic failure")

        monkeypatch.setattr(cli, "verify", broken)
        code, _, err = run(capsys, "verify", "--a", "1", "--m", "0")
        assert code == 4
        assert "synthetic" in err


class TestNormalize:
    def test_sec3_ground(self, capsys):
        code, out, _ = run(capsys, "normalize", "--state", "ground", "--a", "1", "--m", "0")
        assert code == 0
        doc = json.loads(out)
        assert doc["integral"] == pytest.approx(0.034916868503823, rel=1e-8)
        assert doc["N"] == pytest.approx(doc["integral"] ** -0.5, rel=1e-12)

    def test_sec3_excited(self, capsys):
        code, out, _ = run(capsys, "normalize", "--state", "excited", "--a", "1", "--m", "0")
        assert code == 0
        doc = json.loads(out)
        assert doc["N"] > 0.0
        assert math.isfinite(doc["N"])

    def test_cancelling_minus_branch_b_is_accepted(self, capsys):
        # ground_constraint_b(1e-46, 1e14, 0, MINUS): b + 2 sqrt(c) = -0.28 against 2 sqrt(c) = 2e7
        code, out, _ = run(
            capsys, "normalize", "--state", "ground", "--a", "1e-46", "--c", "1e14",
            "--m", "0", "--b", "-20000000.28284271",
        )
        assert code == 0
        params = PotentialParams(1e-46, -20000000.28284271, 1e14)
        kappa = constrained_state(params, 0, Level.GROUND).kappa
        integral = json.loads(out)["integral"]
        assert integral == pytest.approx(bessel_norm_integral(1e-46, 1e14, kappa), rel=1e-8)
        assert integral == pytest.approx(5.0e22, rel=1e-5)

    @pytest.mark.parametrize("command", ["normalize", "eval"])
    @pytest.mark.parametrize("state", ["ground", "excited"])
    def test_negative_m_exits_2(self, capsys, command, state):
        # (1, -9, 9/4) is on the excited surface for |m| = 1: only the m check refuses it
        code, out, err = run(
            capsys, command, "--state", state, "--a", "1", "--c", "2.25", "--b", "-9", "--m", "-1",
        )
        assert (code, out) == (2, "")
        assert "angular momentum m must be a non-negative integer" in err

    def test_zero_norm_integral_exits_4(self, capsys):
        # the grid [4.9e-62, 1.3e-60] misses the state, so every sample underflows to 0
        a, c, m = 2.6034814692355e243, 4.657280431813428e-242, 2
        b = ground_constraint_b(a, c, m, SignBranch.PLUS)
        code, out, err = run(
            capsys, "normalize", "--state", "ground", "--a", repr(a), "--c", repr(c),
            "--m", str(m), "--b", repr(b),
        )
        assert (code, out) == (4, "")
        assert "norm integral" in err

    def test_overflowing_norm_integral_exits_4(self, capsys):
        # on the MINUS branch R is finite on the grid but R^2 overflows; the
        # quadrature used to warn, double 20 times and report non-convergence
        a, c, m = 2.6034814692355e243, 4.657280431813428e-242, 2
        b = ground_constraint_b(a, c, m, SignBranch.MINUS)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run(
                capsys, "normalize", "--state", "ground", "--a", repr(a), "--c", repr(c),
                "--m", str(m), "--b", repr(b),
            )
        assert (code, out) == (4, "")
        assert "norm integral" in err and "is inf" in err

    def test_quadrature_failure_exits_4(self, capsys, monkeypatch):
        def broken(state, grid):
            raise ConvergenceError("synthetic quadrature failure")

        monkeypatch.setattr(cli, "normalization_constant", broken)
        code, _, _ = run(capsys, "normalize", "--state", "ground", "--a", "1", "--m", "0")
        assert code == 4


class TestMain:
    def test_parser_built_once_and_dispatch_is_late(self, capsys, monkeypatch):
        run(capsys, "solve", "--a", "1")
        assert cli._build_parser() is cli._build_parser()
        seen = []
        monkeypatch.setattr(cli, "cmd_solve", lambda args: seen.append(args.a) or 0)
        code, _, _ = run(capsys, "solve", "--a", "2")
        assert (code, seen) == (0, [2.0])

    @pytest.mark.parametrize(
        "argv",
        [("eval", "--a", "1", "--samples", "1000000000000000"),
         ("verify", "--a", "1", "--grid-n", "10000000000000000")],
    )
    def test_size_too_large_to_allocate_exits_2(self, capsys, argv):
        # petabytes, past any 64-bit address space: the allocation fails at
        # once, and used to end in a numpy MemoryError traceback
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "command",
        [["solve"], ["eval", "--samples", "5"], ["verify", "--grid-n", "64"], ["normalize"]],
        ids=["solve", "eval", "verify", "normalize"],
    )
    @pytest.mark.parametrize("target", ["missing-directory", "directory", "full-device"])
    def test_unwritable_out_exits_2(self, capsys, tmp_path, command, target):
        # a path in a missing directory, a directory, or a full device: the
        # write's OSError used to end in a traceback and exit 1
        if target == "full-device" and not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this platform")
        out = {"missing-directory": tmp_path / "missing" / "x.json", "directory": tmp_path,
               "full-device": "/dev/full"}[target]
        code, stdout, err = run(capsys, *command, "--a", "1", "--out", str(out))
        assert (code, stdout) == (2, "")
        assert err.startswith("error: ")

    @pytest.mark.parametrize("command", ["solve", "verify", "eval", "normalize"])
    def test_m_too_large_for_a_float_exits_2(self, capsys, command):
        # m^2 overflows a float; it used to end in an OverflowError traceback
        code, out, err = run(capsys, command, "--a", "1", "--m", "1" + "0" * 160)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "m^2" in err


class TestPipelines:
    @pytest.mark.parametrize("a, m", [(0.3, 1), (2.0, 0), (7.0, 0), (7.0, 1), (1e6, 1)])
    def test_solve_parameters_reproduce_joint_excited_normalize(self, capsys, a, m):
        _, out, _ = run(capsys, "solve", "--a", str(a), "--m", str(m))
        doc = json.loads(out)
        argv = ["normalize", "--state", "excited", "--a", str(a), "--m", str(m)]
        _, joint, _ = run(capsys, *argv)
        code, explicit, _ = run(capsys, *argv, "--c", repr(doc["c"]), "--b", repr(doc["b"]))
        assert code == 0
        assert explicit == joint

    def test_solve_output_feeds_eval_gate(self, capsys):
        _, out, _ = run(capsys, "solve", "--a", "2.5", "--m", "1")
        doc = json.loads(out)
        code, out, _ = run(
            capsys, "eval", "--state", "ground", "--a", str(doc["a"]), "--m", str(doc["m"]),
            "--c", str(doc["c"]), "--b", str(doc["b"]), "--samples", "20",
        )
        assert code == 0
