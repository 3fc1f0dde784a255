import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal
from scipy.sparse import diags
from scipy.special import kv

from anharm2d import numeric
from anharm2d.closed_form import Level, PotentialParams, excited_solve, radial_eval
from anharm2d.numeric import (
    QUAD_INTERVALS,
    ConvergenceError,
    DiscreteHamiltonian,
    RadialGrid,
    _extrapolate,
    _gershgorin_bounds,
    _ladder,
    _pivots,
    assemble,
    build_grid,
    lowest_eigenvalues,
    node_count,
    normalization_constant,
    overlap,
    quadrature,
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


def laplacian_hamiltonian(grid: RadialGrid) -> DiscreteHamiltonian:
    h = grid.h
    return DiscreteHamiltonian(diag=np.full(grid.n, 2.0 / h**2), offdiag=-1.0 / h**2)


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
    return DiscreteHamiltonian(diag=diag, offdiag=-1.0)


def guarded_pivots(d: np.ndarray, e2: float, lam: float, pivmin: float,
                   start: float = math.inf) -> np.ndarray:
    """The pivots _pivots returns, by a loop over d as Python floats that
    replaces every pivot below pivmin in magnitude by -pivmin."""
    reference, q = [], start
    for di in d.tolist():
        q = di - float(lam) - e2 / q
        if abs(q) < pivmin:
            q = -pivmin
        reference.append(q)
    return np.array(reference)


def negatives(pivots: np.ndarray) -> int:
    """How many pivots are negative: the Sturm count of their shift."""
    return int(np.count_nonzero(pivots < 0.0))


def rounding_floor(ham: DiscreteHamiltonian) -> float:
    """eps * max|diag|, the rounding level of the matrix's eigenvalues."""
    return np.finfo(float).eps * float(np.max(np.abs(ham.diag)))


@functools.cache
def sec3_hamiltonian(n: int) -> DiscreteHamiltonian:
    params = excited_solve(1.0, 0).params
    return assemble(params, 0, build_grid(params, n))


def coarse_vectors(n: int) -> np.ndarray:
    """The two lowest unit eigenvectors of sec3_hamiltonian(n), as rows."""
    ham = sec3_hamiltonian(n)
    return eigh_tridiagonal(ham.diag, offdiag_entries(ham), select="i", select_range=(0, 1))[1].T


def spy(monkeypatch, name: str, note) -> list:
    """Patch numeric.<name> so that each call appends note(*args) to the
    returned list, then calls the real function."""
    log, real = [], getattr(numeric, name)
    monkeypatch.setattr(numeric, name, lambda *args, **kw: log.append(note(*args)) or real(*args, **kw))
    return log


def solved_ladder(a: float, m: int, n: int) -> list:
    """(ham, SpectrumResult) of every grid verify(a, m, n) solves, coarsest
    first, each ham rebuilt with assemble for the library reference."""
    params = excited_solve(a, m).params
    grids, spectra = _ladder(params, m, 2, n)
    return [(assemble(params, m, grid), spectrum) for grid, spectrum in zip(grids, spectra)]


def record_twist_sweeps(monkeypatch) -> list:
    """Patch numeric so that each _twisted_rayleigh call appends to the
    returned list the lengths of the _pivots sweeps it made and of the
    decaying tails it solved, in the order made: every row it touched."""
    twists, real_twisted = [], numeric._twisted_rayleigh
    sizes = spy(monkeypatch, "_pivots", lambda d, *rest: len(d))
    real_tail = numeric._decaying_tail
    monkeypatch.setattr(numeric, "_decaying_tail", lambda b, e: sizes.append(len(b)) or real_tail(b, e))

    def twisted(ham, sigma, window=None):
        start = len(sizes)
        result = real_twisted(ham, sigma, window)
        twists.append(sizes[start:])
        return result

    monkeypatch.setattr(numeric, "_twisted_rayleigh", twisted)
    return twists


class TestEigensolver:
    def test_laplacian_stencil_spectrum(self):
        # eigenvalues of the pure second-difference stencil are known exactly
        n, length = 16, 1.0
        grid = RadialGrid(r_min=1e-9, r_max=length, n=n)
        ham = laplacian_hamiltonian(grid)
        h = grid.h
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
            assert sturm_count(ham, x) == negatives(_pivots(d, e2, x, pivmin)) == expected, x

    @pytest.mark.parametrize("a", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("n", [16, 1000])
    def test_sturm_count_stopped_at_the_turning_point_is_exact(self, monkeypatch, a, n):
        # a count stops where d_i - lam >= 2|e| for the rest of the grid if
        # the pivot there is >= |e|, and sweeps the whole grid otherwise;
        # shifts just above lo leave a small last pivot and take the latter
        params = excited_solve(a, 0).params
        ham = assemble(params, 0, build_grid(params, n))
        lo, hi = _gershgorin_bounds(ham)
        rng = np.random.default_rng(16)
        shifts = [*rng.uniform(lo, hi, 300), *(lo + 1e-3 * (hi - lo) * rng.uniform(size=300))]
        d, e2, pivmin = ham._recurrence
        sweeps = spy(monkeypatch, "_pivots", lambda di, *rest: len(di))
        branches = set()
        for x in shifts:
            sweeps.clear()
            assert sturm_count(ham, x) == negatives(_pivots(d, e2, x, pivmin)), x
            branches.add("cut" if sweeps[-1] < n else "fallback" if len(sweeps) == 2 else "full")
        assert {"cut", "fallback"} <= branches

    @pytest.mark.parametrize("stencil", ["sec3", "first-rung", "inner-wall"])
    def test_turning_point_is_the_suffix_minimum_cut(self, stencil):
        # the one comparison pass cuts where searchsorted on the suffix
        # minima of diag does, which the count used to build for each grid:
        # on the sec3 stencil, the bisected first rung of verify(1, 0, 4000)
        # and the sec3 stencil behind a steep inner wall, where diag is not
        # monotone; shifts from below the Gershgorin interval to above it
        ham = sec3_hamiltonian(62 if stencil == "first-rung" else 1000)
        if stencil == "inner-wall":
            diag = ham.diag.copy()
            diag[:60] += 1e8 * abs(ham.offdiag)
            ham = DiscreteHamiltonian(diag=diag, offdiag=ham.offdiag)
        lo, hi = _gershgorin_bounds(ham)
        low = eigh_tridiagonal(ham.diag, offdiag_entries(ham), eigvals_only=True)[:8]
        shifts = [lo - 1.0, *np.linspace(lo, hi, 301), *(low * (1 - 1e-12)), *(low * (1 + 1e-12)),
                  *(ham.diag - 2.0 * abs(ham.offdiag))[::7]]
        tail_min = np.minimum.accumulate(ham.diag[::-1])[::-1]
        d, e2, pivmin = ham._recurrence
        cuts = set()
        for x in shifts:
            cut = numeric._turning_point(ham, x)
            assert cut == tail_min.searchsorted(x + 2.0 * abs(ham.offdiag)), x
            assert sturm_count(ham, x) == negatives(_pivots(d, e2, x, pivmin)), x
            cuts.add(0 if cut == 0 else ham.n if cut == ham.n else "inside")
        assert cuts == {0, "inside", ham.n}

    @pytest.mark.parametrize("tiny_pivot", [None, 0.0, 1e-310])
    @pytest.mark.parametrize("as_shift", [float, np.float64])
    def test_pivots_match_a_guarded_loop_bit_for_bit(self, tiny_pivot, as_shift):
        # the sec3 grid, or a 16-point stencil whose pivot at one shift is
        # below pivmin: the second, exactly 0, at shift 1 (2 - 1 - 1/1), or
        # the first, subnormal, at shift 0 when diag[0] is 1e-310.  Rows are
        # swept as _twisted_rayleigh sweeps them: diag itself; the reversed
        # view diag[t-1:lo-1:-1], here of the flipped diagonal with t = n and
        # lo = 1, so that it holds rows 0 .. n-2 in order; and rows 1 .. n-1
        # from the finite pivot of row 0.  The reference guards every
        # element of a loop over Python floats
        ham = sec3_hamiltonian(400) if tiny_pivot is None else unit_stencil(tiny_pivot)
        every = eigh_tridiagonal(ham.diag, offdiag_entries(ham), eigvals_only=True)
        low = every[:4]
        step = 1e-6 * np.diff(every[:5])
        shifts = [*(low - step), *(low + step), *ham.diag[:3], ham.diag[-1], 0.0, 1.0,
                  *_gershgorin_bounds(ham)]
        d, e2, pivmin = ham._recurrence
        flipped, t, lo = d[::-1].copy(), ham.n, 1

        def sweeps(x):
            """(first row, pivots, reference) of each of the three sweeps at x."""
            seed = float(guarded_pivots(d[:1], e2, x, pivmin)[0])
            for first, rows, start in ((0, d, math.inf), (0, flipped[t - 1:lo - 1:-1], math.inf),
                                       (1, d[1:], seed)):
                yield (first, _pivots(rows, e2, as_shift(x), pivmin, start),
                       guarded_pivots(rows, e2, x, pivmin, start))

        for x in shifts:
            for _, pivots, reference in sweeps(x):
                assert pivots.tobytes() == reference.tobytes(), x
                assert negatives(pivots) == negatives(reference), x
        if tiny_pivot is not None:
            # only the guarded fallback puts -pivmin where a sweep hit 0 or
            # 1e-310: row 1 at shift 1 or row 0 at shift 0, which the seeded
            # sweep begins past
            at, row = (0.0, 0) if tiny_pivot else (1.0, 1)
            hits = [pivots[row - first] for first, pivots, _ in sweeps(at) if row >= first]
            assert hits == [-pivmin] * (3 if row else 2)

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
    # each example fails one part of the one-count certificate and must be
    # bisected, else it would return a wrong pair (lambda = -2, 6, 11,
    # 15.6, ...): 12 refined to lambda_3, but top = 19 counts 4; both
    # refined to lambda_2, so the intervals overlap; 7 and 9 refined to
    # lambda_2 and lambda_3, above top = 10
    @example(factors=[1.0, 2.0], swap=False)
    @example(factors=[-3.0, 1.0], swap=True)
    @example(factors=[-3.5, 1.5], swap=False)
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

    def test_exact_prediction_costs_one_pass_per_grid(self, monkeypatch):
        # one count at top certifies both pairs; a separator probe above
        # each prediction took 2, probing p -+ delta took 4
        ham = sec3_hamiltonian(1000)
        ref = library_pair(ham)
        shifts = spy(monkeypatch, "sturm_count", lambda h, x: x)
        result = lowest_eigenvalues(ham, 2, ref)
        assert len(shifts) == 1
        assert np.all(np.abs(result.eigenvalues - ref) <= 2.0 * rounding_floor(ham))

    def test_twist_sweeps_forward_only_to_the_peak(self, monkeypatch, sec3):
        # both vectors peak in the first fifth of the grid, so the forward
        # sweep stops there; sweeping both ways over the grid passed 2n
        ham = sec3_hamiltonian(64000)
        twists = record_twist_sweeps(monkeypatch)
        for sigma, nodes in ((sec3.ground.energy, 0), (sec3.excited.energy, 1)):
            v, _, _ = numeric._twisted_rayleigh(ham, sigma)
            assert sum(twists[-1]) <= 1.3 * ham.n
            assert node_count(v) == nodes

    @pytest.mark.parametrize("wall", [False, True])
    def test_twist_vector_is_signed_by_its_first_nonzero_entry(self, wall):
        # the sign comes from z[0] unless z[0] underflowed to 0, as it does
        # behind a steep inner wall, where the first nonzero entry is sought;
        # either way it is the sign the search alone gave.  The excited
        # vector is negated, the ground vector is not
        ham = sec3_hamiltonian(1000)
        if wall:
            diag = ham.diag.copy()
            diag[:60] += 1e8 * abs(ham.offdiag)
            ham = DiscreteHamiltonian(diag=diag, offdiag=ham.offdiag)
        for sigma in library_pair(ham):
            v, _, _ = numeric._twisted_rayleigh(ham, sigma)
            first = np.flatnonzero(v)[0]
            assert (first > 0) == wall
            assert v[first] > 0.0

    @pytest.mark.parametrize("n", [1000, 64000])
    def test_twist_residual_is_the_vectors_own(self, sec3, n):
        # away from convergence the residual from gamma_r and |z| is the
        # one computed from the returned vector
        ham = sec3_hamiltonian(n)
        for sigma in (sec3.ground.energy * 1.01, sec3.excited.energy * 0.99):
            v, rho, res = numeric._twisted_rayleigh(ham, sigma)
            direct = float(np.linalg.norm(apply(ham, v) - rho * v))
            assert res == pytest.approx(direct, rel=1e-6)
            assert res > 1e3 * rounding_floor(ham)

    @pytest.mark.parametrize("n", [1000, 64000])
    def test_guided_twist_residual_includes_the_edge(self, monkeypatch, sec3, n):
        # windows from the n/4-point grid's vectors end the backward sweep
        # short of the grid, so (T - sigma) z gains e z_(stop-1) at stop; a
        # guide cut at 1e-3 of its peak makes that edge term count.  At
        # n = 64000 every step solves its tail past the turning point by
        # cyclic reduction, whose rows add their rounding w to the residual
        ham = sec3_hamiltonian(n)
        guides = coarse_vectors(n // 4)
        tails = spy(monkeypatch, "_decaying_tail", lambda b, e: len(b))
        for sigma, guide in zip((sec3.ground.energy * 1.01, sec3.excited.energy * 0.99), guides):
            cut = guide * (np.abs(guide) >= 1e-3 * np.max(np.abs(guide)))
            for window in (numeric._window(guide, n), numeric._window(cut, n)):
                assert window[2] < n
                tails.clear()
                v, rho, res = numeric._twisted_rayleigh(ham, sigma, window)
                lo, hi, stop = window
                tail = stop - max(numeric._turning_point(ham, sigma), hi + 1)
                assert tails == ([tail] if n == 64000 else [])
                assert not np.any(v[window[2]:])
                direct = float(np.linalg.norm(apply(ham, v) - rho * v))
                assert res == pytest.approx(direct, rel=1e-6)
                assert res > 1e3 * rounding_floor(ham)

    @pytest.mark.parametrize("level, factor", [(0, 1.0), (1, 1.0), (0, 1.01), (1, 0.99)])
    def test_tail_solve_matches_the_loop(self, level, factor):
        # from the turning point to the guided stop of a 64000-point step,
        # at the converged shifts and off them, cyclic reduction solves the
        # rows that the pivot loop, the reference, sweeps.  Both are
        # backward stable; y_0 is not well conditioned there, where D-/|e|
        # is 1 + 3e-4, and against a 34-digit sweep the loop's y_0 is off by
        # 2-5 eps and the solve's by 24-109 eps
        ham = sec3_hamiltonian(64000)
        sigma = factor * (library_pair(ham) if factor == 1.0 else (-2.0, 6.0))[level]
        lo, hi, stop = numeric._window(coarse_vectors(16000)[level], ham.n)
        t = max(numeric._turning_point(ham, sigma), hi + 1)
        assert stop - t >= numeric.TAIL_SOLVE_ROWS
        b = ham.diag[t:stop] - sigma
        y, pivot = numeric._decaying_tail(b, ham.offdiag)
        d, e2, pivmin = ham._recurrence
        loop = _pivots(d[stop - 1:t - 1:-1], e2, sigma, pivmin)[::-1]
        e = abs(ham.offdiag)
        ratios = np.cumprod(e / loop)  # the loop's z_i / z_(t-1) over the tail
        assert pivot == pytest.approx(loop[0], rel=256 * np.finfo(float).eps)
        assert y[0] == pytest.approx(ratios[0], rel=256 * np.finfo(float).eps)
        assert np.all(np.abs(y - ratios) <= 1e-10 * ratios)
        assert ratios[-1] < 1e-12  # the tail decays to the node floor and below
        rows = b * y  # (T - sigma I) z on the tail, z_(t-1) = 1
        rows[0] += ham.offdiag
        rows[1:] += ham.offdiag * y[:-1]
        rows[:-1] += ham.offdiag * y[1:]
        assert np.max(np.abs(rows)) <= 1e-13 * e

    def test_a_wrong_tail_only_makes_the_residual_large(self, monkeypatch):
        # the quotient and the residual carry w, the tail rows' own
        # residual: with the solve's y made 1e-4 too large, and its pivot
        # D-_t = |e| / y_0 with it, row t of (T - sigma I) z is
        # 1e-4 |e| z_(t-1), and both are still those of the returned vector,
        # as a window that cuts the vector short only makes the residual large
        ham = sec3_hamiltonian(64000)
        real_tail = numeric._decaying_tail

        def too_large(b, e):
            y, pivot = real_tail(b, e)
            return y * (1.0 + 1e-4), pivot / (1.0 + 1e-4)

        monkeypatch.setattr(numeric, "_decaying_tail", too_large)
        for sigma, guide in zip(library_pair(ham), coarse_vectors(16000)):
            v, rho, res = numeric._twisted_rayleigh(ham, sigma, numeric._window(guide, ham.n))
            hv = apply(ham, v)
            assert rho == pytest.approx(float(v @ hv), abs=10.0 * rounding_floor(ham))
            assert res == pytest.approx(float(np.linalg.norm(hv - rho * v)), rel=1e-6)
            assert res > 1e3 * rounding_floor(ham)

    @pytest.mark.parametrize("mislead", ["swapped", "reversed"])
    def test_misleading_guides_give_the_certified_pair(self, mislead):
        # each eigenvalue guided by the other level's vector, or by a vector
        # that peaks at the wrong end of the grid: the residual certificate
        # still holds, or its failure sends the pair to the unguided fallback
        ham = sec3_hamiltonian(1000)
        ref = library_pair(ham)
        guides = coarse_vectors(250)
        guides = guides[::-1] if mislead == "swapped" else guides[:, ::-1]
        result = lowest_eigenvalues(ham, 2, ref, guides)
        assert np.all(np.abs(result.eigenvalues - ref) <= 2.0 * rounding_floor(ham))
        assert [node_count(v) for v in result.eigenvectors] == [0, 1]

    @pytest.mark.parametrize("n", [43, 574])
    def test_twist_window_ends_at_the_peak(self, monkeypatch, n):
        # on these grids |gamma| is least one index past the backward vector's
        # peak; seeking the twist only up to the peak costs rounding, not a
        # second forward sweep over the grid
        ham = sec3_hamiltonian(n)
        twists = record_twist_sweeps(monkeypatch)
        result = lowest_eigenvalues(ham, 2)
        assert twists and all(len(sweeps) == 2 for sweeps in twists)
        ref_vals, ref_vecs = eigh_tridiagonal(
            ham.diag, offdiag_entries(ham), select="i", select_range=(0, 1)
        )
        assert np.all(np.abs(result.eigenvalues - ref_vals) <= 2.0 * rounding_floor(ham))
        for v, u in zip(result.eigenvectors, ref_vecs.T):
            assert 1.0 - abs(v @ u) <= 1e-12

    def test_failed_isolation_tier_is_bisected_on(self, monkeypatch):
        # the 62-point first rung of verify(1, 0, 4000) is certified from
        # its isolating brackets; here its first refinement reports a
        # residual of 1e3, so its interval covers both eigenvalues and the
        # certificate fails.  The brackets are then bisected to 1e-3
        # relative and refined afresh, unpatched
        ham = sec3_hamiltonian(62)
        real_twisted = numeric._twisted_rayleigh
        passes = spy(monkeypatch, "sturm_count", lambda h, x: x)
        lowest_eigenvalues(ham, 2)
        isolating = len(passes)
        passes.clear()
        last = []  # the quotient of the previous step of the first refinement

        def inflated(h, sigma, window=None):
            v, rho, res = real_twisted(h, sigma, window)
            if last == [] or last == [sigma]:  # still the first refinement
                last[:] = [rho]
                return v, rho, 1e3
            last[:] = [None]
            return v, rho, res

        monkeypatch.setattr(numeric, "_twisted_rayleigh", inflated)
        result = lowest_eigenvalues(ham, 2)
        assert len(passes) > isolating
        assert np.all(np.abs(result.eigenvalues - library_pair(ham)) <= 2.0 * rounding_floor(ham))
        assert [node_count(v) for v in result.eigenvectors] == [0, 1]

    def test_degenerate_stencil_fails_the_certificate(self):
        # cut at T = 1e6 instead of 45, 16 points have h = 83 and a^(1/4) h >> 1:
        # the excited vector has no interior peak, and no wrong pair is returned
        params = excited_solve(1.0, 0).params
        ham = assemble(params, 0, RadialGrid(r_min=1e-3, r_max=1414.2, n=16))
        with pytest.raises(ConvergenceError, match="isolating bracket"):
            lowest_eigenvalues(ham, 2)

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


def trapezoid_afresh(f, grid, abs_tol=0.0):
    """quadrature's trapezoid rule in s = ln r with every level sampled afresh,
    at s = ln r_min + i h, the first (128 intervals) compared with 64: the
    estimate and the intervals it stopped at."""
    lo, hi = math.log(grid.r_min), math.log(grid.r_max)

    def level(intervals):
        h = (hi - lo) / intervals
        r = np.exp(lo + np.arange(intervals + 1) * h)
        g = np.asarray(f(r), dtype=float) * r
        return h * float(0.5 * (g[0] + g[-1]) + np.sum(g[1:-1]))

    intervals, prev = 128, level(64)
    while True:
        cur = level(intervals)
        if abs(cur - prev) <= max(1e-10 * max(abs(cur), abs(prev)), abs_tol):
            return cur, intervals
        intervals, prev = 2 * intervals, cur


class TestQuadrature:
    @pytest.mark.parametrize("integrand", ["ground", "excited", "narrow"])
    def test_equals_sampling_each_level_afresh(self, sec3, sec3_grid, integrand):
        f = {
            "ground": lambda r: radial_eval(sec3.ground, r) ** 2,
            "excited": lambda r: radial_eval(sec3.excited, r) ** 2,
            # 0.01 wide at r = 3, 0.0033 in ln r: past QUAD_INTERVALS
            # intervals, so each later doubling calls it again
            "narrow": lambda r: np.exp(-(((r - 3.0) / 0.01) ** 2)),
        }[integrand]
        calls = []
        got = quadrature(lambda r: calls.append(len(r)) or f(r), sec3_grid)
        want, intervals = trapezoid_afresh(f, sec3_grid)
        assert got == want
        doublings = round(math.log2(intervals / QUAD_INTERVALS))
        assert calls == [QUAD_INTERVALS * 2**j + 1 for j in range(doublings + 1)]
        assert (intervals > QUAD_INTERVALS) == (integrand == "narrow")

    def test_non_finite_estimate_returns_at_once(self, sec3_grid):
        # doubling on, it swept 16 * 2^20 intervals and raised ConvergenceError
        calls = []
        got = quadrature(lambda r: calls.append(1) or np.full_like(r, np.inf), sec3_grid)
        assert got == math.inf and len(calls) == 1

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
        exact = bessel_norm_integral(j.params.a, j.params.c, j.ground.kappa)
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
        prenormalized = replace(sec3.ground, poly_c0=n0)
        assert normalization_constant(prenormalized, sec3_grid) == pytest.approx(1.0, rel=1e-9)

    def test_homogeneity(self, sec3, sec3_grid):
        n = normalization_constant(sec3.excited, sec3_grid)
        x = sec3.excited
        doubled = replace(x, poly_c2=2.0 * x.poly_c2, poly_cm2=2.0 * x.poly_cm2)
        assert normalization_constant(doubled, sec3_grid) == pytest.approx(
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
        flipped = replace(sec3.ground, poly_c0=-1.0)
        assert overlap(sec3.ground, flipped, sec3_grid) == pytest.approx(-1.0, rel=1e-10)


def _eval_excited(sec3, r):
    return radial_eval(sec3.excited, r)


# 0 or at least 1e-6 in magnitude, so that no term falls to subnormal
COEFFICIENTS = st.floats(-10.0, 10.0).filter(lambda c: c == 0.0 or abs(c) >= 1e-6)


class TestConvergence:
    @given(st.floats(1e-4, 0.1), COEFFICIENTS, COEFFICIENTS, COEFFICIENTS, st.floats(0.0, 4.0))
    def test_extrapolate_reproduces_a_quadratic_in_h2(self, h, c0, c1, c2, at):
        # through three points of a ladder the quadratic in h^2 is the polynomial itself
        def poly(x):
            return c0 + c1 * x**2 + c2 * x**4

        hs = [4.0 * h, 2.0 * h, h]
        values = [poly(x) for x in hs]
        want = poly(at * h)
        got = _extrapolate(hs, values, at * h)
        assert abs(got - want) <= 8 * math.ulp(max(map(abs, [*values, want])))

    @given(st.floats(1e-4, 0.1), st.sampled_from([2.0, 4.0]), COEFFICIENTS, COEFFICIENTS)
    def test_extrapolate_through_two_points_is_richardson(self, h_f, ratio, e_c, e_f):
        h_c = ratio * h_f
        rho = (h_c / h_f) ** 2
        richardson = (rho * e_f - e_c) / (rho - 1.0)
        got = _extrapolate([h_c, h_f], [e_c, e_f], 0.0)
        assert abs(got - richardson) <= 4 * math.ulp(max(abs(e_c), abs(e_f), abs(richardson)))

    def test_error_ratio_near_four(self, sec3):
        errs = []
        for n in (500, 1000):
            g = build_grid(sec3.params, n)
            result = lowest_eigenvalues(assemble(sec3.params, 0, g), 1)
            errs.append(abs(result.eigenvalues[0] + 2.0))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)

    def test_discrete_residual_of_exact_state(self, sec3):
        # sampling the closed form on the grid and applying H gives an
        # h^2-small residual that quarters when n doubles
        norms = []
        for n in (500, 1000):
            g = build_grid(sec3.params, n)
            ham = assemble(sec3.params, 0, g)
            rvec = radial_eval(sec3.ground, g.points())
            res = apply(ham, rvec) - sec3.ground.energy * rvec
            norms.append(np.max(np.abs(res)) / np.max(np.abs(rvec)))
        assert norms[0] / norms[1] == pytest.approx(4.0, rel=0.15)

    def test_richardson_improves(self, sec3):
        estimates = []
        for n in (1000, 2000):
            g = build_grid(sec3.params, n)
            result = lowest_eigenvalues(assemble(sec3.params, 0, g), 1)
            estimates.append((float(result.eigenvalues[0]), g.h))
        (e_c, h_c), (e_f, h_f) = estimates
        extrapolated = _extrapolate([h_c, h_f], [e_c, e_f], 0.0)
        assert abs(extrapolated + 2.0) < 0.01 * abs(estimates[1][0] + 2.0)

    def test_truncation_negligible_vs_discretization(self, sec3, monkeypatch):
        # Richardson-extrapolated energies isolate the truncation error:
        # doubling T from 45 to 90 moves them by < 1e-8
        def extrapolated(threshold):
            monkeypatch.setattr(numeric, "TAIL_THRESHOLD", threshold)
            out = []
            for n in (2000, 4000):
                g = build_grid(sec3.params, n)
                result = lowest_eigenvalues(assemble(sec3.params, 0, g), 2)
                out.append((result.eigenvalues, g.h))
            (e1, h1), (e2, h2) = out
            return _extrapolate([h1, h2], [e1, e2], 0.0)

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
        # the 62-point rung takes the bisection, only until each eigenvalue
        # is isolated (9 passes; bisecting on to 1e-3 relative took 33 and
        # 9296 points of Sturm work in all), so each later grid costs one
        # count at its top separator; one separator pass per eigenvalue
        # took 2, bisecting the 1000-point grid took 39 passes and 63000
        # points of Sturm work in all, bisecting a 125-point first scout
        # took 36 passes and 19000 points in all
        sizes = spy(monkeypatch, "sturm_count", lambda h, x: h.n)
        assert verify(1.0, 0, 4000).passed
        assert sizes.count(62) <= 12
        assert all(sizes.count(n) <= 1 for n in (250, 1000, 2000, 4000))
        assert sum(sizes) <= 8000

    def test_fine_verify_sweeps_few_elements(self, monkeypatch):
        # counts stop at the outer turning point, only the 62-point rung
        # is bisected, each later grid takes one count, and guided Rayleigh
        # steps stop where the coarser grid's vectors fall below the node
        # floor; full-grid counts and a bisected 2000-point first scout
        # swept 605,528 elements, unguided steps 342,947, a count per
        # eigenvalue 259,135.  Of the 237,361 rows touched, the pivot loop
        # sweeps 101,062 and cyclic reduction solves the 136,299 of the
        # long decaying tails; the loop swept them all
        sweeps = spy(monkeypatch, "_pivots", lambda d, *rest: len(d))
        tails = spy(monkeypatch, "_decaying_tail", lambda b, e: len(b))
        passes = spy(monkeypatch, "sturm_count", lambda h, x: h.n)
        verify(1.0, 0, 64000)
        assert sum(sweeps) + sum(tails) <= 250000
        assert sum(sweeps) <= 110000
        assert all(passes.count(n) <= 1 for n in set(passes) - {passes[0]})

    def test_tails_are_solved_only_where_they_are_long(self, monkeypatch):
        # a guided step solves its decaying tail by cyclic reduction only
        # when it has TAIL_SOLVE_ROWS rows: at n = 64000 on the 16000-,
        # 32000- and 64000-point grids, and never on the eight joint
        # configurations at n = 4000, whose grids have fewer points
        grids, real_twisted = [], numeric._twisted_rayleigh
        monkeypatch.setattr(numeric, "_twisted_rayleigh",
                            lambda ham, *rest: grids.append(ham.n) or real_twisted(ham, *rest))
        tails = spy(monkeypatch, "_decaying_tail", lambda b, e: (grids[-1], len(b)))
        assert verify(1.0, 0, 64000).passed
        assert {n for n, _ in tails} == {16000, 32000, 64000}
        assert all(rows >= numeric.TAIL_SOLVE_ROWS for _, rows in tails)
        tails.clear()
        for a in (0.25, 1.0, 4.0, 10.0):
            for m in (0, 1):
                assert verify(a, m, 4000).passed
        assert tails == []

    def test_guided_steps_stop_short_of_the_grid_end(self, monkeypatch):
        # each 64000-point step is guided by the 16000-point vectors and
        # sweeps or solves up to where they fall below the node floor;
        # sweeping backward over the whole grid cost 1.08 n and 1.19 n
        twists = record_twist_sweeps(monkeypatch)
        guided = spy(monkeypatch, "_twisted_rayleigh", lambda h, x, window: (h.n, window is not None))
        assert verify(1.0, 0, 64000).passed
        fine = [sum(sweeps) for (n, by_guide), sweeps in zip(guided, twists) if n == 64000]
        assert len(fine) == 2 and all(by_guide for n, by_guide in guided if n == 64000)
        assert all(swept <= 0.9 * 64000 for swept in fine)

    def test_extrapolated_predictions_take_one_rayleigh_step(self, monkeypatch):
        # the quadratic in h^2 through the 250-, 1000- and 4000-point grids
        # predicts the 16000-point grid to a fraction of its rounding floor;
        # the line through the last two missed by 3-6 floors, so each
        # eigenvalue took a second step
        sizes = spy(monkeypatch, "_twisted_rayleigh", lambda h, x, window: h.n)
        assert verify(1.0, 0, 64000).passed
        assert sizes.count(16000) <= 2

    def test_small_predicted_grids_take_one_pass_per_eigenvalue(self, monkeypatch):
        # predictions on these grids are tens of percent off, but one count
        # above the last of them still certifies both pairs; galloping out
        # from p and bisecting took 23 and 15 passes on 128 and 256 points
        sizes = spy(monkeypatch, "sturm_count", lambda h, x: h.n)
        assert verify(1.0, 0, 512).passed
        assert all(sizes.count(n) <= 1 for n in (128, 256, 512))

    def test_every_grid_matches_library_eigenvalues(self):
        solved = solved_ladder(1.0, 0, 32000)
        assert [ham.n for ham, _ in solved] == [31, 125, 500, 2000, 8000, 16000, 32000]
        for ham, result in solved:
            ref = library_pair(ham)
            assert np.all(np.abs(result.eigenvalues - ref) <= 2.0 * rounding_floor(ham))

    @pytest.mark.parametrize("a, m", [(1.0, 0), (1.0, 1), (10.0, 0), (10.0, 1)])
    @pytest.mark.parametrize("n", [64, 65, 71])
    def test_small_grids_match_library_eigenvalues(self, a, m, n):
        # predictions on 16- to 71-point grids are up to 40% off, so Rayleigh
        # steps started from them may not settle; a pair is kept only if its
        # last step was at rounding level, not merely inside the separators
        solved = solved_ladder(a, m, n)
        assert len(solved) >= 3
        for ham, result in solved:
            ref = library_pair(ham)
            assert np.all(np.abs(result.eigenvalues - ref) <= 2.0 * rounding_floor(ham)), ham.n

    def test_rayleigh_steps_stop_at_rounding_level(self, monkeypatch):
        # three steps for each of the 2 pairs on 3 grids took 18 here; with
        # the n/4 grid bisected instead of predicted, the reported grids
        # took 12 steps and 176000 points of Rayleigh work
        sizes = spy(monkeypatch, "_twisted_rayleigh", lambda h, x, window: h.n)
        assert verify(1.0, 0, 32000).passed
        assert sum(sizes.count(n) for n in (8000, 16000, 32000)) <= 8
        assert sum(sizes) <= 160000

    @pytest.mark.parametrize("m", [0, 1])
    def test_finest_grid_takes_one_step_per_eigenvalue(self, monkeypatch, m):
        # a step settles within the certificate's slack of 4 rounding; at
        # m = 1 the ground state's one step on the 4000-point grid moves the
        # quotient by 1.5 rounding, and settling at 1 rounding took a second
        sizes = spy(monkeypatch, "_twisted_rayleigh", lambda h, x, window: h.n)
        assert verify(1.0, m, 4000).passed
        assert sizes.count(4000) == 2

    @pytest.mark.parametrize("m", [0, 1])
    def test_scale_law_holds_across_the_a_axis(self, m):
        # on the joint line c = ((4 - m^2)/2)^2 / a and the grid's interval
        # scales as a^(-1/4), so the operator at a is sqrt(a) times the one
        # at a = 1, up to rounding: energies over sqrt(a) are a = 1's within
        # its rounding floor, eps * max|Gershgorin end|.  At n = 16000 the
        # 8000- and 16000-point grids solve their tails by cyclic reduction
        params = excited_solve(1.0, m).params
        floor = np.finfo(float).eps * max(map(abs, _gershgorin_bounds(
            assemble(params, m, build_grid(params, 16000)))))
        reference = verify(1.0, m, 16000)
        for a in (1e-200, 1e-6, 1e6, 1e200):
            report = verify(a, m, 16000)
            scaled = np.array(report.numeric_energies) / math.sqrt(a)
            assert np.all(np.abs(scaled - reference.numeric_energies) <= floor), a
            assert (report.passed, report.node_counts) == (reference.passed, reference.node_counts), a

    @pytest.mark.parametrize("a, m", [(1.0, 0), (10.0, 1)])
    def test_every_grid_has_accurate_vectors(self, a, m):
        # a refinement that stops early must still return the eigenvector
        solved = solved_ladder(a, m, 32000)
        assert [ham.n for ham, _ in solved] == [31, 125, 500, 2000, 8000, 16000, 32000]
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
        [(64, [16, 32, 64]), (511, [31, 127, 255, 511]), (512, [32, 128, 256, 512])],
    )
    def test_scouts_below_the_grid_minimum_are_dropped(self, a, m, n, grids):
        # scouts of n/16, n/64, ... points precede the reported grids, each
        # only where it has the 16 points a grid needs
        params = excited_solve(a, m).params
        ladder, _ = _ladder(params, m, 2, n)
        assert [grid.n for grid in ladder] == grids
        report = verify(a, m, n)
        assert report.passed
        assert report.node_counts == (0, 1)

    def test_each_norm_integral_is_computed_once(self, monkeypatch, sec3):
        # overlap and the two normalization constants share the two norm
        # integrals; computing them separately took 5 quadratures
        calls = spy(monkeypatch, "quadrature", lambda *args: 1)
        report = verify(1.0, 0, 1000)
        assert len(calls) == 3
        grid = report.grid
        assert report.overlap_01 == overlap(sec3.ground, sec3.excited, grid)
        assert report.norm_constants == tuple(
            normalization_constant(state, grid) for state in (sec3.ground, sec3.excited)
        )

    def test_each_state_is_evaluated_once(self, monkeypatch):
        # the two norm integrals and the cross integral share one sampling of
        # each state at quadrature's first 129 points; each sampled anew, they
        # evaluated the states four times
        calls = spy(monkeypatch, "radial_eval", lambda state, r: (state.level, len(r)))
        verify(1.0, 0, 1000)
        assert calls == [(Level.GROUND, QUAD_INTERVALS + 1), (Level.EXCITED, QUAD_INTERVALS + 1)]

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
