import contextlib
import io
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anharm2d import cli, numeric
from anharm2d.closed_form import (
    Level,
    PotentialParams,
    SignBranch,
    constrained_state,
    excited_solve,
    ground_constraint_b,
    radial_eval,
)
from anharm2d.numeric import ConvergenceError, VerificationReport
from tests.test_numeric import bessel_norm_integral
from tests.test_scripts import load_script

OUTCOMES = load_script("same_outputs").OUTCOMES


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

    def test_failed_report_exits_5(self, capsys, monkeypatch):
        real = cli.verify

        def failing(a, m, n):
            report = real(a, m, n)
            return VerificationReport(**{**report.__dict__, "passed": False})

        monkeypatch.setattr(cli, "verify", failing)
        code, out, _ = run(capsys, "verify", "--a", "1", "--m", "0", "--grid-n", "1000")
        assert code == 5
        assert json.loads(out)["passed"] is False

    @pytest.mark.parametrize("overlap, code", [(5e-9, 0), (2e-8, 5), (-2e-8, 5)])
    def test_overlap_gate(self, capsys, monkeypatch, overlap, code):
        # |overlap_01| <= 1e-8 is a gate of its own: a report whose only
        # fault is an overlap over it fails, with exit 5
        real = numeric._cosine
        monkeypatch.setattr(numeric, "_cosine", lambda *args: (overlap, *real(*args)[1:]))
        report = numeric.verify(1.0, 0, 256)
        assert (report.overlap_01, report.passed) == (overlap, code == 0)
        code_got, out, _ = run(capsys, "verify", "--a", "1", "--m", "0", "--grid-n", "256")
        assert code_got == code
        assert json.loads(out)["passed"] is (code == 0)

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

    @pytest.mark.parametrize("branch", [SignBranch.PLUS, SignBranch.MINUS])
    def test_interval_holding_the_state_is_accepted(self, capsys, branch):
        # at m = 30 the interval drops < 1e-12 of the norm integral, so the
        # guard that refuses m = 40 (OUTCOMES) lets it through
        b = ground_constraint_b(1.0, 1.0, 30, branch)
        code, out, _ = run(
            capsys, "normalize", "--state", "ground", "--a", "1", "--c", "1", "--m", "30", "--b", repr(b),
        )
        assert code == 0
        kappa = constrained_state(PotentialParams(1.0, b, 1.0), 30, Level.GROUND).kappa
        integral = json.loads(out)["integral"]
        assert integral == pytest.approx(bessel_norm_integral(1.0, 1.0, kappa), rel=1e-10)

    @pytest.mark.parametrize("m", [0, 1])
    def test_scale_law_holds_across_the_a_axis(self, capsys, m):
        # on the joint line R at a is R at a = 1 in x = a^(1/4) r, times
        # r^kappa's a^(-kappa/4), so N(a) a^(-(2 kappa + 1)/8) is N(1), kappa
        # each state's own; the worst case here is 5.6e-15 relative
        def normalized(a, state):
            code, out, _ = run(capsys, "normalize", "--state", state, "--a", repr(a), "--m", str(m))
            assert code == 0
            return json.loads(out)["N"]

        for state in ("ground", "excited"):
            reference = normalized(1.0, state)
            for a in (1e-300, 1e-200, 1e-6, 1e6, 1e200, 1e300):
                kappa = getattr(excited_solve(a, m), state).kappa
                scaled = normalized(a, state) * a ** (-(2.0 * kappa + 1.0) / 8.0)
                assert scaled == pytest.approx(reference, rel=64 * np.finfo(float).eps, abs=0.0), (state, a)

    def test_quadrature_failure_exits_4(self, capsys, monkeypatch):
        def broken(state, grid):
            raise ConvergenceError("synthetic quadrature failure")

        monkeypatch.setattr(cli, "normalization_constant", broken)
        code, _, _ = run(capsys, "normalize", "--state", "ground", "--a", "1", "--m", "0")
        assert code == 4


LOG_UNIFORM = st.floats(-300.0, 300.0).map(lambda k: 10.0**k)


@st.composite
def command_lines(draw):
    """An argv of any of the four commands: log-uniform a and c, b on the
    ground surface of either branch or off it, m from 0 to 10^160, grids
    of up to 1024 points, and sample counts up to 2^64, past 2^50 only
    where no address space holds them, so that they fail at once."""
    command = draw(st.sampled_from(["solve", "eval", "verify", "normalize"]))
    a, m = draw(LOG_UNIFORM), draw(st.sampled_from([0, 1, 2, 100, 10**160]))
    argv = [command, "--a", repr(a), "--m", str(m)]
    if command in ("eval", "normalize"):
        argv += ["--state", draw(st.sampled_from(["ground", "excited"]))]
        if draw(st.booleans()):
            c = draw(LOG_UNIFORM)
            try:
                b = ground_constraint_b(a, c, m, draw(st.sampled_from(list(SignBranch))))
            except ValueError:  # m^2 is not a finite float
                b = 0.0
            b = draw(st.sampled_from([b, 0.0, -b * draw(LOG_UNIFORM)]))
            argv += ["--c", repr(c), "--b", repr(b)]
    if command == "eval":
        argv += ["--samples", str(draw(st.one_of(st.integers(0, 64), st.integers(2**50, 2**64),
                                                 st.sampled_from([2**63 - 1, 2**63]))))]
        argv += ["--normalize"] * draw(st.booleans())
    if command == "verify":
        argv += ["--grid-n", str(draw(st.integers(0, 1024)))]
    return argv


class TestMain:
    def test_parser_built_once_and_dispatch_is_late(self, capsys, monkeypatch):
        run(capsys, "solve", "--a", "1")
        assert cli._build_parser() is cli._build_parser()
        seen = []
        monkeypatch.setattr(cli, "cmd_solve", lambda args: seen.append(args.a) or 0)
        code, _, _ = run(capsys, "solve", "--a", "2")
        assert (code, seen) == (0, [2.0])

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

    @settings(max_examples=150, deadline=None)
    @given(argv=command_lines())
    def test_no_input_ends_in_a_traceback(self, argv):
        # every input ends in a documented exit code with a message, and
        # a normalize that exits 0 prints a finite positive N; a warning is
        # an error here too (pyproject.toml's filterwarnings)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code in (0, 2, 3, 4, 5), argv
        assert err.getvalue().startswith("error: ") == (code in (2, 3, 4)), argv
        if argv[0] == "normalize" and code == 0:
            n = json.loads(out.getvalue())["N"]
            assert math.isfinite(n) and n > 0.0, argv


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


def check_outcome(capsys, argv, code, phrase):
    """argv's documented outcome, one row of OUTCOMES: the exit code, empty
    stderr for exit 0, and for exits 2, 3 and 4 empty stdout and a stderr
    that holds the phrase and begins with "error: " when cli.main returns
    the code (argparse prints its usage first).  A RuntimeWarning is an
    error under pyproject.toml's filterwarnings."""
    try:
        got, returned = cli.main(list(argv)), True
    except SystemExit as exc:  # argparse, counted as same_outputs.py's CHILD counts it
        got, returned = exc.code, False
    out, err = capsys.readouterr()
    assert got == code, err
    if code == 0:
        assert err == ""
    else:
        assert out == ""
        assert err.startswith("error: ") or not returned
    assert phrase in err
    assert "RuntimeWarning" not in err


def _add_outcome_tests():
    """Each row of OUTCOMES runs as the test its id names, marked outcome:
    "Class::test" is one test over its rows, "Class::test[case]" one case
    of a parametrized test.  A class that holds nothing else is made here."""
    tests = {}
    for test_id, *row in OUTCOMES:
        name, _, case = test_id.rstrip("]").partition("[")
        tests.setdefault(name, []).append((case, row))
    for name, entries in tests.items():
        cls, method = name.split("::")
        cases, rows = zip(*entries)

        def one_case(self, capsys, row):
            check_outcome(capsys, *row)

        def every_row(self, capsys, rows=rows):
            for row in rows:
                check_outcome(capsys, *row)

        test = pytest.mark.parametrize("row", rows, ids=cases)(one_case) if cases[0] else every_row
        setattr(globals().setdefault(cls, type(cls, (), {})), method, pytest.mark.outcome(test))


_add_outcome_tests()
