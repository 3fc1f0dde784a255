import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anharm2d import cli, closed_form
from anharm2d.closed_form import (
    ClosedFormState,
    JointSolution,
    Level,
    PotentialParams,
    ConstraintViolation,
    SignBranch,
    SolvabilityError,
    constrained_state,
    eigen_residual,
    excited_solve,
    ground_constraint_b,
    ground_peak_radius,
    radial_eval,
)
from anharm2d.numeric import DiscreteHamiltonian, SpectrumResult

LOG_RADII = np.logspace(-1, 1, 100)


def ground_on_surface(a, c, m, branch):
    """The gated ground state of (a, c, m) at the b of `branch`."""
    params = PotentialParams(a, ground_constraint_b(a, c, m, branch), c)
    return constrained_state(params, m, Level.GROUND)


def paper_ground_state(params, m, branch):
    """The ground state written out from the paper's formulas, as an oracle:
    kappa = 1/2 +- sqrt(m^2 + 2 sqrt(ac)) and E0 = (2 kappa + 1) sqrt(a)."""
    root = math.sqrt(m * m + 2.0 * math.sqrt(params.a * params.c))
    kappa = 0.5 + root if branch is SignBranch.PLUS else 0.5 - root
    return ClosedFormState(
        kappa=kappa, alpha=-math.sqrt(params.a), beta=-math.sqrt(params.c), poly_c2=0.0,
        poly_c0=1.0, poly_cm2=0.0, energy=(2.0 * kappa + 1.0) * math.sqrt(params.a),
        level=Level.GROUND,
    )


def rel_ground_residual(state, params, m, r):
    """|residual| scaled by the magnitude of the terms that must cancel."""
    r = np.asarray(r, dtype=float)
    scale = np.maximum(abs(state.energy), np.abs(params.evaluate(r)) + abs(m * m - 0.25) / r**2)
    return np.abs(eigen_residual(state, params, m, r)) / scale


def rel_excited_residual(state, params, m, r):
    r = np.asarray(r, dtype=float)
    f = np.abs(state.poly_c2 * r**2 + state.poly_cm2 * r**-2)
    f1 = np.abs(2 * state.poly_c2 * r) + np.abs(2 * state.poly_cm2 * r**-3)
    f2 = np.abs(2 * state.poly_c2) + np.abs(6 * state.poly_cm2 * r**-4)
    p1 = np.abs(state.alpha * r) + np.abs(state.beta * r**-3) + np.abs(state.kappa / r)
    bracket = abs(state.energy) + np.abs(params.evaluate(r)) + abs(m * m - 0.25) / r**2
    scale = f * bracket + f2 + 2 * p1 * f1
    return np.abs(eigen_residual(state, params, m, r)) / scale


class TestPotentialParams:
    def test_rejects_nonpositive_a(self):
        with pytest.raises(ValueError):
            PotentialParams(a=0.0, b=1.0, c=1.0)
        with pytest.raises(ValueError):
            PotentialParams(a=-1.0, b=1.0, c=1.0)

    def test_rejects_nonpositive_c(self):
        with pytest.raises(ValueError):
            PotentialParams(a=1.0, b=1.0, c=0.0)

    def test_b_unrestricted(self):
        PotentialParams(a=1.0, b=-100.0, c=1.0)
        PotentialParams(a=1.0, b=100.0, c=1.0)

    def test_evaluate(self):
        p = PotentialParams(a=2.0, b=-3.0, c=5.0)
        assert p.evaluate(1.0) == pytest.approx(2.0 - 3.0 + 5.0)
        with pytest.raises(ValueError):
            p.evaluate(0.0)


class TestGroundKappa:
    def test_sec3_minus(self):
        assert ground_on_surface(1.0, 4.0, 0, SignBranch.MINUS).kappa == -1.5

    def test_sec3_plus(self):
        assert ground_on_surface(1.0, 4.0, 0, SignBranch.PLUS).kappa == 2.5

    def test_m1_unit(self):
        assert ground_on_surface(1.0, 1.0, 1, SignBranch.PLUS).kappa == pytest.approx(
            0.5 + math.sqrt(3.0), rel=1e-15
        )

    def test_rejects_negative_m(self):
        params = PotentialParams(1.0, ground_constraint_b(1.0, 1.0, 1, SignBranch.PLUS), 1.0)
        with pytest.raises(ValueError):
            constrained_state(params, -1, Level.GROUND)


class TestGroundConstraint:
    def test_b_sec3_minus(self):
        assert ground_constraint_b(1.0, 4.0, 0, SignBranch.MINUS) == -12.0

    def test_b_sec3_plus(self):
        assert ground_constraint_b(1.0, 4.0, 0, SignBranch.PLUS) == pytest.approx(4.0)

    def test_b_unit_plus(self):
        got = ground_constraint_b(1.0, 1.0, 0, SignBranch.PLUS)
        assert got == pytest.approx(-2.0 + 2.0 * math.sqrt(2.0), rel=1e-15)

    @pytest.mark.parametrize(
        "a, b, c",
        [
            (1.0, -12.0, 4.0),
            (4.0, -6.0, 1.0),
            # b + 2 sqrt(c) = -0.28 against 2 sqrt(c) = 2e7: squaring it lost b to cancellation
            (1e-46, -20000000.28284271, 1e14),
        ],
    )
    def test_gate_accepts_surface_points(self, a, b, c):
        assert ground_constraint_b(a, c, 0, SignBranch.MINUS) == pytest.approx(b, rel=1e-15)
        params = PotentialParams(a, b, c)
        expected = paper_ground_state(params, 0, SignBranch.MINUS)
        assert constrained_state(params, 0, Level.GROUND) == expected

    # at c = 1e-26 the surface needs b = -2e-13 (+- 9e-20); an absolute floor let both b by
    @pytest.mark.parametrize(
        "a, b, c", [(1.0, 0.0, 1.0), (1.0, 0.0, 1e-26), (1.0, -1.9e-13, 1e-26)]
    )
    def test_gate_rejects_off_surface(self, a, b, c):
        with pytest.raises(ConstraintViolation):
            constrained_state(PotentialParams(a, b, c), 0, Level.GROUND)

    @pytest.mark.parametrize("branch", list(SignBranch))
    def test_gate_infers_branch_of_nearly_equal_roots(self, branch):
        # kappa = 1/2 +- 4.5e-7: the two roots lie within 1e-6 of each other
        b = ground_constraint_b(1.0, 1e-26, 0, branch)
        params = PotentialParams(1.0, b, 1e-26)
        assert constrained_state(params, 0, Level.GROUND) == paper_ground_state(params, 0, branch)

    @given(
        log_a=st.floats(-300.0, 300.0),
        log_c=st.floats(-300.0, 300.0),
        m=st.sampled_from([0, 1, 2, 100]),
        branch=st.sampled_from(list(SignBranch)),
    )
    def test_gate_accepts_exactly_the_branch_b(self, log_a, log_c, m, branch):
        a, c = 10.0**log_a, 10.0**log_c
        b = ground_constraint_b(a, c, m, branch)
        if not math.isfinite(b):
            with pytest.raises(ConstraintViolation, match="overflow"):
                constrained_state(PotentialParams(a, 0.0, c), m, Level.GROUND)
            return
        constrained_state(PotentialParams(a, b, c), m, Level.GROUND)
        # moved away from -2 sqrt(c): a move toward it could land on the other branch's b
        step = 1e-8 * max(abs(b), 2.0 * math.sqrt(c))
        off = b + step if branch is SignBranch.PLUS else b - step
        with pytest.raises(ConstraintViolation, match="needs b"):
            constrained_state(PotentialParams(a, off, c), m, Level.GROUND)


class TestGroundEnergy:
    def test_sec3(self):
        assert constrained_state(PotentialParams(1.0, -12.0, 4.0), 0, Level.GROUND).energy == -2.0


class TestGroundEval:
    def test_at_unit_radius(self, sec3):
        assert radial_eval(sec3.ground, 1.0) == pytest.approx(math.exp(-1.5), rel=1e-14)

    def test_origin_limit(self, sec3):
        assert radial_eval(sec3.ground, 1e-300) == 0.0
        assert radial_eval(sec3.ground, 1e-8) == 0.0

    def test_infinity_limit(self, sec3):
        assert radial_eval(sec3.ground, 1e6) == 0.0

    def test_rejects_nonpositive_radius(self, sec3):
        with pytest.raises(ValueError):
            radial_eval(sec3.ground, 0.0)
        with pytest.raises(ValueError):
            radial_eval(sec3.ground, -1.0)

    def test_vectorized(self, sec3):
        r = np.array([0.5, 1.0, 2.0])
        vals = radial_eval(sec3.ground, r)
        assert vals.shape == (3,)
        assert np.all(np.isfinite(vals))

    @given(log_r=st.floats(-290.0, 290.0))
    def test_never_nan_or_inf(self, sec3, log_r):
        r = 10.0**log_r
        assert np.isfinite(radial_eval(sec3.ground, r))
        assert np.isfinite(radial_eval(sec3.excited, r))


class TestGroundResidual:
    def test_sec3_multiple_radii(self, sec3):
        for r in (0.5, 1.0, 3.0):
            assert rel_ground_residual(sec3.ground, sec3.params, 0, r) <= 1e-12

    def test_broken_constraint_is_nonzero(self, sec3):
        bad = PotentialParams(1.0, 0.0, 4.0)
        assert abs(eigen_residual(sec3.ground, bad, 0, 1.0)) > 1.0

    def test_both_branches_along_log_radii(self):
        for branch in SignBranch:
            for a, c, m in [(1.0, 4.0, 0), (0.5, 2.0, 1), (3.0, 0.7, 2)]:
                b = ground_constraint_b(a, c, m, branch)
                params = PotentialParams(a, b, c)
                state = constrained_state(params, m, Level.GROUND)
                assert state == paper_ground_state(params, m, branch)
                assert np.all(rel_ground_residual(state, params, m, LOG_RADII) <= 1e-12)


class TestExcited:
    def test_kappa1_sec3(self):
        assert constrained_state(PotentialParams(1.0, -12.0, 4.0), 0, Level.EXCITED).kappa == 0.5

    def test_kappa1_m1_family(self):
        x = constrained_state(PotentialParams(1.0, -9.0, 9.0 / 4.0), 1, Level.EXCITED)
        assert x.kappa == pytest.approx(0.5)

    def test_energy_sec3(self):
        assert constrained_state(PotentialParams(1.0, -12.0, 4.0), 0, Level.EXCITED).energy == 6.0

    def test_energy_scaled(self):
        x = constrained_state(PotentialParams(4.0, -6.0, 1.0), 0, Level.EXCITED)
        assert x.energy == pytest.approx(12.0)

    def test_rejects_negative_m(self):
        # (1, -9, 9/4) is on the excited surface for |m| = 1
        with pytest.raises(ValueError, match="non-negative integer"):
            constrained_state(PotentialParams(1.0, -9.0, 2.25), -1, Level.EXCITED)

    def test_gate_has_no_absolute_floor(self):
        # the surface needs b = -6e-13, with kappa1 = 1/2; b = 0 would give kappa1 = 3.5
        with pytest.raises(ConstraintViolation):
            constrained_state(PotentialParams(4e26, 0.0, 1e-26), 0, Level.EXCITED)

    def test_eval_node(self, sec3):
        node = (sec3.params.c / sec3.params.a) ** 0.125
        assert radial_eval(sec3.excited, node) == pytest.approx(0.0, abs=1e-14)

    def test_eval_origin(self, sec3):
        assert radial_eval(sec3.excited, 1e-200) == 0.0

    def test_eval_unit_radius(self, sec3):
        assert radial_eval(sec3.excited, 1.0) == pytest.approx(-math.exp(-1.5), rel=1e-14)

    def test_residual_sec3(self, sec3):
        assert rel_excited_residual(sec3.excited, sec3.params, 0, 1.0) <= 1e-12
        node = 2.0**0.25
        assert rel_excited_residual(sec3.excited, sec3.params, 0, node) <= 1e-12

    def test_residual_perturbed_b(self, sec3):
        bad = PotentialParams(1.0, -11.9, 4.0)
        assert abs(eigen_residual(sec3.excited, bad, 0, 1.0)) > 1e-3

    def test_prefactor_has_single_positive_root(self, sec3):
        r = np.linspace(0.05, 6.0, 5000)
        f = sec3.excited.poly_c2 * r**2 + sec3.excited.poly_cm2 * r**-2
        changes = np.sum(np.sign(f[:-1]) * np.sign(f[1:]) < 0)
        assert changes == 1
        node = (sec3.params.c / sec3.params.a) ** 0.125
        assert sec3.excited.poly_c2 * node**2 + sec3.excited.poly_cm2 * node**-2 == pytest.approx(
            0.0, abs=1e-12
        )


class TestExcitedSolve:
    def test_sec3_values(self):
        j = excited_solve(1.0, 0)
        assert (j.params.c, j.params.b) == (4.0, -12.0)
        assert (j.ground.kappa, j.excited.kappa) == (-1.5, 0.5)
        assert (j.ground.energy, j.excited.energy) == (-2.0, 6.0)
        assert (j.excited.poly_c0, j.excited.poly_c2, j.excited.poly_cm2) == (0.0, 1.0, -2.0)

    def test_m1_family(self):
        j = excited_solve(1.0, 1)
        assert j.params.c == pytest.approx(9.0 / 4.0)
        assert j.params.b == pytest.approx(-9.0)
        assert (j.ground.energy, j.excited.energy) == (-2.0, 6.0)
        assert np.all(rel_ground_residual(j.ground, j.params, 1, LOG_RADII) <= 1e-12)
        assert np.all(rel_excited_residual(j.excited, j.params, 1, LOG_RADII) <= 1e-12)

    def test_m2_unsolvable(self):
        with pytest.raises(SolvabilityError):
            excited_solve(1.0, 2)

    def test_rejects_nonpositive_a(self):
        with pytest.raises(ValueError):
            excited_solve(-1.0, 0)

    @pytest.mark.parametrize("a", [1e-307, 0.25, 7.0, 1e6, 1e300])
    @pytest.mark.parametrize("m", [0, 1])
    def test_gate_returns_the_joint_states(self, a, m):
        # at a = 1e-307, c = 4e307 and 16c would exceed the largest double
        j = excited_solve(a, m)
        assert constrained_state(j.params, m, Level.GROUND) == j.ground
        assert constrained_state(j.params, m, Level.EXCITED) == j.excited

    def test_each_value_has_one_owner(self, monkeypatch):
        # the joint states come through the gate, and no record copies a
        # value that its states, or the grid, already hold
        def names(cls):
            return tuple(field.name for field in dataclasses.fields(cls))

        assert names(JointSolution) == ("params", "m", "ground", "excited")
        assert names(DiscreteHamiltonian) == ("diag", "offdiag")
        assert names(SpectrumResult) == ("eigenvalues", "eigenvectors")
        levels = []
        real = closed_form.constrained_state

        def gate(params, m, level):
            levels.append(level)
            return real(params, m, level)

        monkeypatch.setattr(closed_form, "constrained_state", gate)
        excited_solve(1.0, 0)
        assert levels == [Level.GROUND, Level.EXCITED]

    @pytest.mark.parametrize(
        "argv",
        [
            ["normalize", "--a", "1", "--state", "ground"],
            ["eval", "--a", "1", "--state", "excited", "--samples", "3"],
        ],
    )
    def test_cli_takes_the_joint_state(self, monkeypatch, capsys, argv):
        # with only --a, eval and normalize use the state the joint solve gated
        levels = []
        real = closed_form.constrained_state

        def gate(params, m, level):
            levels.append(level)
            return real(params, m, level)

        monkeypatch.setattr(closed_form, "constrained_state", gate)
        monkeypatch.setattr(cli, "constrained_state", gate)
        assert cli.main(argv) == 0
        capsys.readouterr()
        assert levels == [Level.GROUND, Level.EXCITED]

    @pytest.mark.parametrize("a", [0.25, 1.0, 4.0, 10.0])
    @pytest.mark.parametrize("m", [0, 1])
    def test_joint_algebra(self, a, m):
        j = excited_solve(a, m)
        assert ground_constraint_b(a, j.params.c, m, SignBranch.MINUS) == pytest.approx(
            j.params.b, rel=1e-14
        )
        assert j.excited.kappa == 0.5
        assert j.excited.energy - j.ground.energy == pytest.approx(8.0 * math.sqrt(a), rel=1e-14)
        assert np.all(rel_ground_residual(j.ground, j.params, m, LOG_RADII) <= 1e-12)
        assert np.all(rel_excited_residual(j.excited, j.params, m, LOG_RADII) <= 1e-12)

    @given(a=st.floats(0.01, 100.0), m=st.integers(0, 1))
    @settings(max_examples=50)
    def test_scaling_covariance(self, a, m):
        j = excited_solve(a, m)
        assert j.ground.energy / math.sqrt(a) == pytest.approx(-2.0, rel=1e-12)
        assert j.excited.energy / math.sqrt(a) == pytest.approx(6.0, rel=1e-12)


class TestGroundPeakRadius:
    def test_sec3(self, sec3):
        assert ground_peak_radius(sec3.ground) == pytest.approx(0.922378, abs=1e-6)

    def test_symmetric_exponent(self):
        # kappa = 0 with a = c = 1 makes r^4 = 1 the stationary condition
        state = ClosedFormState(
            kappa=0.0, alpha=-1.0, beta=-1.0, poly_c2=0.0, poly_c0=1.0,
            poly_cm2=0.0, energy=1.0, level=Level.GROUND,
        )
        assert ground_peak_radius(state) == pytest.approx(1.0)

    def test_bisection_oracle(self, sec3):
        # positive root of sqrt(a) r^4 - kappa r^2 - sqrt(c) = 0
        def poly(r):
            return r**4 + 1.5 * r**2 - 2.0

        lo, hi = 0.1, 3.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if poly(mid) > 0:
                hi = mid
            else:
                lo = mid
        assert ground_peak_radius(sec3.ground) == pytest.approx(0.5 * (lo + hi), rel=1e-12)

    @pytest.mark.parametrize("c, m", [(1e-40, 5), (1e-20, 1)])
    def test_minus_branch_root_does_not_cancel(self, c, m):
        params = PotentialParams(1.0, ground_constraint_b(1.0, c, m, SignBranch.MINUS), c)
        state = constrained_state(params, m, Level.GROUND)
        r_sq = ground_peak_radius(state) ** 2
        # sqrt(a) r^4 - kappa r^2 - sqrt(c) = 0, to rounding of its largest term
        terms = (r_sq**2, -state.kappa * r_sq, -math.sqrt(c))
        assert abs(sum(terms)) <= 1e-14 * max(abs(t) for t in terms)

    def test_grid_scan_oracle(self, sec3):
        r = np.linspace(0.3, 3.0, 20001)
        vals = np.abs(radial_eval(sec3.ground, r))
        argmax = r[np.argmax(vals)]
        assert abs(argmax - ground_peak_radius(sec3.ground)) <= r[1] - r[0]


class TestStateConstruction:
    def test_ground_state_shape(self, sec3):
        g = sec3.ground
        assert g.level is Level.GROUND
        assert (g.poly_c2, g.poly_c0, g.poly_cm2) == (0.0, 1.0, 0.0)
        assert g.alpha < 0 and g.beta < 0

    def test_excited_state_shape(self, sec3):
        x = sec3.excited
        assert x.level is Level.EXCITED
        assert x.poly_c0 == 0.0
        assert x.kappa == 0.5

    def test_positive_alpha_rejected(self):
        with pytest.raises(ValueError):
            ClosedFormState(
                kappa=0.5, alpha=1.0, beta=-1.0, poly_c2=0.0, poly_c0=1.0,
                poly_cm2=0.0, energy=0.0, level=Level.GROUND,
            )

    def test_excited_state_from_params(self, sec3):
        x = constrained_state(PotentialParams(1.0, -12.0, 4.0), 0, Level.EXCITED)
        assert x == sec3.excited
