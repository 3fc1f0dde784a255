import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal
from scipy.sparse import diags
from scipy.special import kv

from anharm2d import numeric
from anharm2d.closed_form import PotentialParams, excited_solve, radial_eval
from anharm2d.numeric import (
    ConvergenceError,
    DiscreteHamiltonian,
    RadialGrid,
    _error_table,
    _gershgorin_bounds,
    _pivots,
    assemble,
    build_grid,
    convergence_study,
    lowest_eigenvalues,
    node_count,
    normalization_constant,
    overlap,
    quadrature,
    richardson,
    sturm_count,
    verify,
)


def bessel_norm_integral(a: float, c: float, kappa: float) -> float:
    """Closed form for integral of r^(2k) exp(-sqrt(a) r^2 - sqrt(c) r^-2) dr
    on (0, inf), via x = r^2 and the Bessel-K integral representation."""
    nu = (2.0 * kappa + 1.0) / 2.0
    return (math.sqrt(c) / math.sqrt(a)) ** (nu / 2.0) * kv(nu, 2.0 * (a * c) ** 0.25)


class TestRadialGrid:
    def test_build_grid_sec3(self, sec3):
        g = build_grid(sec3.params, 4000)
        assert g.r_min == pytest.approx(math.sqrt(1.0 / 45.0), rel=1e-12)
        assert g.r_max == pytest.approx(math.sqrt(90.0), rel=1e-12)

    def test_product_symmetry_unit_params(self):
        g = build_grid(PotentialParams(1.0, 0.0, 1.0), 100)
        assert g.r_min * g.r_max == pytest.approx(1.0, rel=1e-12)

    def test_rejects_small_n(self, sec3):
        with pytest.raises(ValueError):
            build_grid(sec3.params, 8)

    def test_points_and_spacing(self, sec3):
        g = build_grid(sec3.params, 100)
        r = g.points()
        assert len(r) == 100
        assert r[0] == pytest.approx(g.r_min + g.h)
        assert r[-1] == pytest.approx(g.r_max - g.h)
        assert np.allclose(np.diff(r), g.h)

    def test_env_threshold_override(self, sec3, monkeypatch):
        monkeypatch.setenv("ANHARM_TAIL_THRESHOLD", "90")
        g = build_grid(sec3.params, 100)
        assert g.r_max == pytest.approx(math.sqrt(180.0), rel=1e-12)

    @pytest.mark.parametrize("raw", ["0", "-3", "nan", "inf"])
    def test_env_threshold_rejects_nonpositive_or_nonfinite(self, sec3, monkeypatch, raw):
        monkeypatch.setenv("ANHARM_TAIL_THRESHOLD", raw)
        with pytest.raises(ValueError, match="ANHARM_TAIL_THRESHOLD"):
            build_grid(sec3.params, 100)

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            RadialGrid(r_min=2.0, r_max=1.0, n=100)
        with pytest.raises(ValueError):
            RadialGrid(r_min=0.0, r_max=1.0, n=100)


class TestAssemble:
    def test_diag_bounded_below_by_potential(self, sec3):
        g = build_grid(sec3.params, 128)
        ham = assemble(sec3.params, 0, g)
        r = g.points()
        w = sec3.params.evaluate(r) - 0.25 / r**2
        assert np.all(np.isfinite(ham.diag))
        assert np.all(ham.diag >= np.min(w))

    def test_offdiag_strictly_negative(self, sec3):
        g = build_grid(sec3.params, 64)
        ham = assemble(sec3.params, 0, g)
        assert type(ham.offdiag) is float
        assert ham.offdiag == -1.0 / g.h**2
        assert ham.offdiag < 0.0


def laplacian_hamiltonian(n: int, length: float) -> DiscreteHamiltonian:
    grid = RadialGrid(r_min=1e-9, r_max=length, n=n)
    h = grid.h
    return DiscreteHamiltonian(
        diag=np.full(n, 2.0 / h**2), offdiag=-1.0 / h**2, grid=grid
    )


def offdiag_entries(ham: DiscreteHamiltonian) -> np.ndarray:
    """The stencil's one coupling as the n - 1 off-diagonal entries scipy takes."""
    return np.full(ham.n - 1, ham.offdiag)


def apply(ham: DiscreteHamiltonian, v: np.ndarray) -> np.ndarray:
    """H v, with H built as a scipy sparse matrix."""
    e = offdiag_entries(ham)
    return diags([e, ham.diag, e], [-1, 0, 1]) @ v


def library_pair(ham: DiscreteHamiltonian) -> np.ndarray:
    """The two lowest eigenvalues from scipy's LAPACK tridiagonal solver."""
    return eigh_tridiagonal(
        ham.diag, offdiag_entries(ham), eigvals_only=True, select="i", select_range=(0, 1)
    )


def unit_stencil(tiny_pivot: float) -> DiscreteHamiltonian:
    """The unscaled 16-point stencil (2 on the diagonal, -1 off it), with
    diag[0] = tiny_pivot when that is nonzero."""
    diag = np.full(16, 2.0)
    if tiny_pivot:
        diag[0] = tiny_pivot
    return DiscreteHamiltonian(diag=diag, offdiag=-1.0, grid=RadialGrid(1.0, 2.0, 16))


def rounding_floor(ham: DiscreteHamiltonian) -> float:
    """eps * max|diag|, the rounding level of the matrix's eigenvalues."""
    return np.finfo(float).eps * float(np.max(np.abs(ham.diag)))


@functools.cache
def sec3_hamiltonian(n: int) -> DiscreteHamiltonian:
    params = excited_solve(1.0, 0).params
    return assemble(params, 0, build_grid(params, n))


class TestEigensolver:
    def test_laplacian_stencil_spectrum(self):
        # eigenvalues of the pure second-difference stencil are known exactly
        n, length = 16, 1.0
        ham = laplacian_hamiltonian(n, length)
        h = ham.grid.h
        result = lowest_eigenvalues(ham, 3)
        exact = [2.0 / h**2 * (1.0 - math.cos(j * math.pi / (n + 1))) for j in (1, 2, 3)]
        assert np.allclose(result.eigenvalues, exact, rtol=1e-12)

    def test_sec3_against_library_oracle(self, sec3):
        g = build_grid(sec3.params, 800)
        ham = assemble(sec3.params, 0, g)
        mine = lowest_eigenvalues(ham, 2)
        ref_vals, ref_vecs = eigh_tridiagonal(
            ham.diag, offdiag_entries(ham), select="i", select_range=(0, 1)
        )
        assert np.allclose(mine.eigenvalues, ref_vals, rtol=1e-12, atol=1e-10)
        for i in range(2):
            assert abs(abs(mine.eigenvectors[i] @ ref_vecs[:, i]) - 1.0) < 1e-10

    def test_eigenvector_residual_and_norm(self, sec3):
        g = build_grid(sec3.params, 500)
        ham = assemble(sec3.params, 0, g)
        result = lowest_eigenvalues(ham, 2)
        bound = 1e-8 * np.max(np.abs(ham.diag))
        for lam, vec in zip(result.eigenvalues, result.eigenvectors):
            assert np.linalg.norm(vec) == pytest.approx(1.0, rel=1e-12)
            assert np.linalg.norm(apply(ham, vec) - lam * vec) <= bound

    def test_sign_convention(self, sec3):
        g = build_grid(sec3.params, 500)
        result = lowest_eigenvalues(assemble(sec3.params, 0, g), 2)
        for vec in result.eigenvectors:
            first = np.flatnonzero(np.abs(vec) > 0.0)[0]
            assert vec[first] > 0.0

    def test_sturm_count_one_negative_eigenvalue(self, sec3):
        g = build_grid(sec3.params, 1000)
        ham = assemble(sec3.params, 0, g)
        assert sturm_count(ham, 0.0) == 1

    @pytest.mark.parametrize("tiny_pivot", [None, 0.0, 1e-310])
    def test_sturm_count_matches_pivots_and_library(self, tiny_pivot):
        # sec3 grid, or the unscaled stencil whose second pivot at shift 1
        # is exactly 0: 2 - 1 - 1/1 (no eigenvalue is 1, since 17 is not a
        # multiple of 3), or whose first pivot at shift diag[0] = 1e-310 is
        # exactly 0; both counts go through the guarded fallback
        ham = sec3_hamiltonian(400) if tiny_pivot is None else unit_stencil(tiny_pivot)
        every = eigh_tridiagonal(ham.diag, offdiag_entries(ham), eigvals_only=True)
        low = every[:4]
        step = 1e-6 * np.diff(every[:5])
        shifts = [*(low - step), *(low + step), *ham.diag[:3], ham.diag[-1], 1.0,
                  *_gershgorin_bounds(ham)]
        d, e2, pivmin = ham._recurrence
        for x in shifts:
            expected = int(np.sum(every < x))
            assert sturm_count(ham, x) == _pivots(d, e2, x, pivmin)[0] == expected, x

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("tiny_pivot", [None, 0.0, 1e-310])
    @pytest.mark.parametrize("as_shift", [float, np.float64])
    def test_pivots_match_a_guarded_loop_bit_for_bit(self, tiny_pivot, as_shift):
        # the sec3 grid, or a 16-point stencil whose pivot at one shift is
        # below pivmin: the second, exactly 0, at shift 1 (2 - 1 - 1/1), or
        # the first, subnormal, at shift 0 when diag[0] is 1e-310.  The
        # reference guards every element.
        ham = sec3_hamiltonian(400) if tiny_pivot is None else unit_stencil(tiny_pivot)
        every = eigh_tridiagonal(ham.diag, offdiag_entries(ham), eigvals_only=True)
        low = every[:4]
        step = 1e-6 * np.diff(every[:5])
        shifts = [*(low - step), *(low + step), *ham.diag[:3], ham.diag[-1], 0.0, 1.0,
                  *_gershgorin_bounds(ham)]
        d, e2, pivmin = ham._recurrence
        for x in shifts:
            reference, q = [], math.inf
            for di in d:
                q = di - float(x) - e2 / q
                if abs(q) < pivmin:
                    q = -pivmin
                reference.append(q)
            count, pivots = _pivots(d, e2, as_shift(x), pivmin)
            assert pivots.tobytes() == np.array(reference).tobytes(), x
            assert count == sum(q < 0.0 for q in reference), x
        if tiny_pivot is not None:
            # only the guarded fallback puts -pivmin where the sweep hit 0 or 1e-310
            at, index = (0.0, 0) if tiny_pivot else (1.0, 1)
            assert _pivots(d, e2, as_shift(at), pivmin)[1][index] == -pivmin

    @settings(max_examples=60, deadline=None)
    @given(
        factors=st.lists(
            st.one_of(
                st.sampled_from([1.0, 0.0, math.nan, math.inf, -math.inf]),
                st.floats(-9.0, 6.0).flatmap(
                    lambda u: st.sampled_from([1.0 + 10.0**u, 1.0 - 10.0**u])
                ),
            ),
            min_size=2, max_size=2,
        ),
        swap=st.booleans(),
    )
    def test_any_prediction_gives_the_certified_pair(self, factors, swap):
        # each prediction is the exact eigenvalue times a factor: exact, 0,
        # non-finite of either sign, or off by a relative 1e-9 .. 1e6
        ham = sec3_hamiltonian(1000)
        ref = library_pair(ham)
        predicted = [f * value for f, value in zip(factors, ref)]
        if swap:
            predicted.reverse()
        result = lowest_eigenvalues(ham, 2, predicted)
        assert np.all(np.abs(result.eigenvalues - ref) <= 2.0 * rounding_floor(ham))
        assert [node_count(v) for v in result.eigenvectors] == [0, 1]

    def test_exact_prediction_costs_two_passes_per_eigenvalue(self, monkeypatch):
        ham = sec3_hamiltonian(1000)
        ref = library_pair(ham)
        shifts = []
        real = numeric.sturm_count
        monkeypatch.setattr(numeric, "sturm_count", lambda h, x: shifts.append(x) or real(h, x))
        result = lowest_eigenvalues(ham, 2, ref)
        assert len(shifts) == 4
        assert np.all(np.abs(result.eigenvalues - ref) <= 2.0 * rounding_floor(ham))

    def test_ascending(self, sec3):
        g = build_grid(sec3.params, 400)
        result = lowest_eigenvalues(assemble(sec3.params, 0, g), 4)
        assert np.all(np.diff(result.eigenvalues) > 0.0)

    def test_k_out_of_range(self, sec3):
        g = build_grid(sec3.params, 100)
        ham = assemble(sec3.params, 0, g)
        with pytest.raises(ValueError):
            lowest_eigenvalues(ham, 0)
        with pytest.raises(ValueError):
            lowest_eigenvalues(ham, 101)


class TestNodeCount:
    def test_constant_vector(self):
        assert node_count(np.array([1.0, 1.0, 1.0])) == 0

    def test_single_change(self):
        assert node_count(np.array([1.0, 0.5, -0.5, -1.0])) == 1

    def test_ignores_tiny_entries(self):
        v = np.array([1.0, 1e-15, 1.0])
        assert node_count(v) == 0

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            node_count(np.zeros(5))

    @pytest.mark.parametrize("n,k", [(1000, 4), (32000, 2)])
    def test_oscillation_theorem_low_modes(self, sec3, n, k):
        # k-th eigenvector of a Jacobi matrix has exactly k sign changes,
        # down to its tails on fine grids
        g = build_grid(sec3.params, n)
        result = lowest_eigenvalues(assemble(sec3.params, 0, g), k)
        for k, vec in enumerate(result.eigenvectors):
            assert node_count(vec) == k


class TestQuadrature:
    def test_zero_function(self, sec3_grid):
        assert quadrature(lambda r: np.zeros_like(r), sec3_grid) == 0.0

    def test_gaussian_integral(self):
        grid = build_grid(PotentialParams(1.0, 0.0, 1e-40), 100)
        got = quadrature(lambda r: np.exp(-(r**2)), grid)
        assert got == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-9)

    def test_bessel_oracle_sec3(self, sec3, sec3_grid):
        got = quadrature(lambda r: radial_eval(sec3.ground, r) ** 2, sec3_grid)
        exact = bessel_norm_integral(1.0, 4.0, -1.5)
        assert got == pytest.approx(exact, rel=1e-8)

    def test_bessel_oracle_other_family(self):
        j = excited_solve(4.0, 1)
        grid = build_grid(j.params, 100)
        got = quadrature(lambda r: radial_eval(j.ground, r) ** 2, grid)
        exact = bessel_norm_integral(j.params.a, j.params.c, j.kappa)
        assert got == pytest.approx(exact, rel=1e-8)

    def test_nonconvergence_raises(self, sec3_grid):
        rng = np.random.default_rng(3)
        with pytest.raises(ConvergenceError):
            quadrature(lambda r: rng.standard_normal(len(np.atleast_1d(r))), sec3_grid)


class TestNormalizationAndOverlap:
    def test_ground_constant_sec3(self, sec3, sec3_grid):
        exact = bessel_norm_integral(1.0, 4.0, -1.5)
        assert normalization_constant(sec3.ground, sec3_grid) == pytest.approx(
            exact**-0.5, rel=1e-8
        )

    def test_idempotence(self, sec3, sec3_grid):
        n0 = normalization_constant(sec3.ground, sec3_grid)
        prenormalized = sec3.ground.scaled(n0)
        assert normalization_constant(prenormalized, sec3_grid) == pytest.approx(1.0, rel=1e-9)

    def test_homogeneity(self, sec3, sec3_grid):
        n = normalization_constant(sec3.excited, sec3_grid)
        assert normalization_constant(sec3.excited.scaled(2.0), sec3_grid) == pytest.approx(
            n / 2.0, rel=1e-10
        )

    def test_excited_unit_norm(self, sec3, sec3_grid):
        n1 = normalization_constant(sec3.excited, sec3_grid)
        assert n1 > 0.0
        integral = quadrature(lambda r: (n1 * _eval_excited(sec3, r)) ** 2, sec3_grid)
        assert integral == pytest.approx(1.0, rel=2e-10)

    def test_orthogonality(self, sec3, sec3_grid):
        assert abs(overlap(sec3.ground, sec3.excited, sec3_grid)) <= 1e-8

    def test_self_overlap(self, sec3, sec3_grid):
        assert overlap(sec3.ground, sec3.ground, sec3_grid) == pytest.approx(1.0, rel=1e-10)

    def test_flipped_sign(self, sec3, sec3_grid):
        flipped = sec3.ground.scaled(-1.0)
        assert overlap(sec3.ground, flipped, sec3_grid) == pytest.approx(-1.0, rel=1e-10)


def _eval_excited(sec3, r):
    return radial_eval(sec3.excited, r)


class TestConvergence:
    def test_order_near_two(self, sec3):
        q = convergence_study(sec3.params, 0, [500, 1000, 2000])
        assert 1.8 <= q <= 2.2

    def test_error_ratio_near_four(self, sec3):
        errs = []
        for n in (500, 1000):
            g = build_grid(sec3.params, n)
            result = lowest_eigenvalues(assemble(sec3.params, 0, g), 1)
            errs.append(abs(result.eigenvalues[0] + 2.0))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)

    def test_requires_three_resolutions(self, sec3):
        with pytest.raises(ValueError):
            convergence_study(sec3.params, 0, [500, 1000])

    def test_discrete_residual_of_exact_state(self, sec3):
        # sampling the closed form on the grid and applying H gives an
        # h^2-small residual that quarters when n doubles
        norms = []
        for n in (500, 1000):
            g = build_grid(sec3.params, n)
            ham = assemble(sec3.params, 0, g)
            rvec = radial_eval(sec3.ground, g.points())
            res = apply(ham, rvec) - sec3.e0 * rvec
            norms.append(np.max(np.abs(res)) / np.max(np.abs(rvec)))
        assert norms[0] / norms[1] == pytest.approx(4.0, rel=0.15)

    def test_richardson_improves(self, sec3):
        estimates = []
        for n in (1000, 2000):
            g = build_grid(sec3.params, n)
            result = lowest_eigenvalues(assemble(sec3.params, 0, g), 1)
            estimates.append((float(result.eigenvalues[0]), g.h))
        extrapolated = richardson(estimates[0][0], estimates[0][1], estimates[1][0], estimates[1][1])
        assert abs(extrapolated + 2.0) < 0.01 * abs(estimates[1][0] + 2.0)

    def test_truncation_negligible_vs_discretization(self, sec3, monkeypatch):
        # Richardson-extrapolated energies isolate the truncation error:
        # doubling T from 45 to 90 moves them by < 1e-8
        def extrapolated(threshold):
            monkeypatch.setenv("ANHARM_TAIL_THRESHOLD", str(threshold))
            out = []
            for n in (2000, 4000):
                g = build_grid(sec3.params, n)
                result = lowest_eigenvalues(assemble(sec3.params, 0, g), 2)
                out.append((result.eigenvalues, g.h))
            (e1, h1), (e2, h2) = out
            return np.array(
                [richardson(e1[i], h1, e2[i], h2) for i in range(2)]
            )

        diff = np.abs(extrapolated(45.0) - extrapolated(90.0))
        assert np.all(diff < 1e-8)


class TestVerify:
    def test_sec3_report(self):
        report = verify(1.0, 0, 2000)
        assert report.passed
        assert report.exact_energies == (-2.0, 6.0)
        assert report.node_counts == (0, 1)
        assert abs(report.overlap_01) <= 1e-8
        assert 1.8 <= report.convergence_order <= 2.2
        assert all(e < 1e-3 for e in report.abs_errors)

    def test_scaled_family(self):
        report = verify(4.0, 0, 1000)
        assert report.exact_energies == (-4.0, 12.0)
        assert report.passed

    def test_m1_family(self):
        report = verify(1.0, 1, 1000)
        assert report.exact_energies == (-2.0, 6.0)
        assert report.passed

    def test_unsolvable_m(self):
        from anharm2d.closed_form import SolvabilityError

        with pytest.raises(SolvabilityError):
            verify(1.0, 3, 1000)

    def test_predicted_brackets_save_sturm_passes(self, monkeypatch):
        # the 125- and 250-point scouts take the bisection, so each reported
        # grid costs two passes per eigenvalue; bisecting the 1000-point grid
        # took 39 passes and 63000 points of Sturm work in all
        sizes = []
        real = numeric.sturm_count
        monkeypatch.setattr(numeric, "sturm_count", lambda h, x: sizes.append(h.n) or real(h, x))
        assert verify(1.0, 0, 4000).passed
        assert all(sizes.count(n) <= 4 for n in (1000, 2000, 4000))
        assert sum(sizes) <= 50000

    def test_predictions_do_not_use_the_exact_energies(self, sec3):
        # the numeric side must not be steered by the values it checks
        ns = [250, 500, 1000]
        *_, right = _error_table(sec3.params, 0, (sec3.e0, sec3.e1), ns)
        *_, wrong = _error_table(sec3.params, 0, (1e3, -1e3), ns)
        assert np.array_equal(right.eigenvalues, wrong.eigenvalues)

    def test_every_grid_matches_library_eigenvalues(self, monkeypatch):
        solved = []
        real = numeric.lowest_eigenvalues

        def recording(ham, k, *rest):
            result = real(ham, k, *rest)
            solved.append((ham, result.eigenvalues))
            return result

        monkeypatch.setattr(numeric, "lowest_eigenvalues", recording)
        verify(1.0, 0, 32000)
        assert [ham.n for ham, _ in solved] == [1000, 2000, 8000, 16000, 32000]
        for ham, values in solved:
            ref = library_pair(ham)
            assert np.all(np.abs(values - ref) <= 2.0 * rounding_floor(ham))

    def test_rayleigh_steps_stop_at_rounding_level(self, monkeypatch):
        # three steps for each of the 2 pairs on 3 grids took 18 here; with
        # the n/4 grid bisected instead of predicted, the reported grids
        # took 12 steps and 176000 points of Rayleigh work
        sizes = []
        real = numeric._twisted_rayleigh
        monkeypatch.setattr(numeric, "_twisted_rayleigh", lambda h, x: sizes.append(h.n) or real(h, x))
        assert verify(1.0, 0, 32000).passed
        assert sum(sizes.count(n) for n in (8000, 16000, 32000)) <= 8
        assert sum(sizes) <= 160000

    @pytest.mark.parametrize("a, m", [(1.0, 0), (10.0, 1)])
    def test_every_grid_has_accurate_vectors(self, monkeypatch, a, m):
        # a refinement that stops early must still return the eigenvector
        solved = []
        real = numeric.lowest_eigenvalues

        def recording(ham, k, *rest):
            result = real(ham, k, *rest)
            solved.append((ham, result))
            return result

        monkeypatch.setattr(numeric, "lowest_eigenvalues", recording)
        verify(a, m, 32000)
        assert [ham.n for ham, _ in solved] == [1000, 2000, 8000, 16000, 32000]
        for ham, result in solved:
            scale = float(np.max(np.abs(ham.diag)))
            _, ref = eigh_tridiagonal(ham.diag, offdiag_entries(ham), select="i", select_range=(0, 1))
            for lam, v, u in zip(result.eigenvalues, result.eigenvectors, ref.T):
                assert np.linalg.norm(apply(ham, v) - lam * v) <= 1e-12 * scale
                assert 1.0 - abs(v @ u) <= 1e-12
            assert [node_count(v) for v in result.eigenvectors] == [0, 1]

    @pytest.mark.parametrize("a, m", [(1.0, 0), (10.0, 1)])
    @pytest.mark.parametrize(
        "n, grids",
        [(64, [16, 32, 64]), (511, [31, 127, 255, 511]), (512, [16, 32, 128, 256, 512])],
    )
    def test_scouts_below_the_grid_minimum_are_dropped(self, monkeypatch, a, m, n, grids):
        # scouts of n/32 and n/16 points precede the reported grids, each
        # only where it has the 16 points a grid needs
        sizes = []
        real = numeric.lowest_eigenvalues
        monkeypatch.setattr(
            numeric, "lowest_eigenvalues", lambda h, *rest: sizes.append(h.n) or real(h, *rest)
        )
        report = verify(a, m, n)
        assert sizes == grids
        assert report.passed
        assert report.node_counts == (0, 1)

    def test_report_dict_fields(self):
        report = verify(1.0, 0, 1000)
        doc = report.to_dict()
        assert set(doc) == {
            "exact_energies", "numeric_energies", "abs_errors", "node_counts",
            "overlap_01", "norm_constants", "convergence_order", "grid",
            "params", "m", "passed",
        }
        assert set(doc["grid"]) == {"r_min", "r_max", "n"}
        assert set(doc["params"]) == {"a", "b", "c"}

    def test_excited_node_location(self, sec3):
        g = build_grid(sec3.params, 2000)
        result = lowest_eigenvalues(assemble(sec3.params, 0, g), 2)
        vec = result.eigenvectors[1]
        r = g.points()
        kept = np.abs(vec) > 1e-12 * np.max(np.abs(vec))
        rk, vk = r[kept], vec[kept]
        idx = np.flatnonzero(np.sign(vk[:-1]) * np.sign(vk[1:]) < 0.0)
        assert len(idx) == 1
        node = 2.0**0.25
        assert abs(rk[idx[0]] - node) <= g.h
