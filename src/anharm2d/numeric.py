"""Independent numerical check of the closed-form bound states.

assemble discretizes -d^2/dr^2 + V(r) + (m^2 - 1/4)/r^2 by central
differences on the grid of build_grid, and the low spectrum is extracted
from scratch, with no library eigensolver.  Each mechanism is told once,
where it is done: lowest_eigenvalues (the residual certificate, the
predicted path, the bisection tiers), _twisted_rayleigh (the Rayleigh step,
its window, its one shifted diagonal, its decaying tail and its residual),
_decaying_tail (the shallow cyclic reduction and the sweep that finishes
it), sturm_count (the turning-point cut), _ladder (the ladder of grids, the
predictions, the guides), quadrature (the trapezoid rule in ln r), _sampled
(the tails an interval cuts off) and verify (the report and when it fails).
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from anharm2d.closed_form import (
    ClosedFormState,
    PotentialParams,
    centrifugal_coefficient,
    excited_solve,
    radial_eval,
)

TAIL_THRESHOLD = 45.0  # T: build_grid cuts both tails of the states at exp(-T)
MIN_GRID_POINTS = 16  # fewest interior points a RadialGrid accepts
NODE_REL_FLOOR = 1e-12  # node_count ignores entries below this fraction of max|v|
QUAD_REL_TOL = 1e-10  # quadrature stops when two levels agree to this
QUAD_INTERVALS = 128  # intervals in ln r of quadrature's first level
QUAD_MAX_DOUBLINGS = 9  # so at most 65536 intervals
RAYLEIGH_STEPS = 6  # most Rayleigh steps per start; a start tens of percent off needs several
# shortest decaying tail solved by cyclic reduction: a whole guided step
# gains from 1,100-1,400 rows, the more the larger the grid
TAIL_SOLVE_ROWS = 1536
TAIL_FINISH_ROWS = 64  # cyclic reduction stops at this many rows or fewer, which one sweep solves


class ConvergenceError(RuntimeError):
    """An iterative numerical procedure failed to reach its tolerance."""


@dataclass(frozen=True)
class RadialGrid:
    """Uniform grid r_i = r_min + i*h, i = 1..n, h = (r_max - r_min)/(n+1),
    with Dirichlet zero endpoints r_min and r_max."""

    r_min: float
    r_max: float
    n: int

    def __post_init__(self):
        if not (0.0 < self.r_min < self.r_max):
            raise ValueError("need 0 < r_min < r_max")
        if self.n < MIN_GRID_POINTS:
            raise ValueError(f"grid needs at least {MIN_GRID_POINTS} interior points, got {self.n}")

    @property
    def h(self) -> float:
        return (self.r_max - self.r_min) / (self.n + 1)

    # quadrature's first level on this interval, (r, h) of _log_points: built
    # once for _sampled and every quadrature on the grid, whose integrands only read r
    _first_level = cached_property(lambda self: _log_points(self, QUAD_INTERVALS))

    def points(self) -> np.ndarray:
        # no more float64s fit in a 64-bit address space, and numpy's float
        # arange rounds a length near 2^63 to an empty array instead of raising
        if self.n > sys.maxsize // 8:
            raise ValueError(f"too many grid points to allocate: {self.n}")
        r = np.arange(1.0, self.n + 1)  # exact integers, so r_min + h * i as ever
        r *= self.h
        r += self.r_min
        return r


def build_grid(params: PotentialParams, n: int) -> RadialGrid:
    """Grid truncated where both exact-state tails are below exp(-T), so
    that its Dirichlet ends err far below the h^2 discretization error.

    The inner tail goes like exp(-sqrt(c)/(2 r^2)) and the outer like
    exp(-sqrt(a) r^2 / 2), giving r_min = sqrt(sqrt(c)/(2T)) and
    r_max = sqrt(2T/sqrt(a)).
    """
    r_min = math.sqrt(math.sqrt(params.c) / (2.0 * TAIL_THRESHOLD))
    r_max = math.sqrt(2.0 * TAIL_THRESHOLD / math.sqrt(params.a))
    return RadialGrid(r_min=r_min, r_max=r_max, n=n)


@dataclass(frozen=True)
class DiscreteHamiltonian:
    """Symmetric tridiagonal discretization of the radial operator.  The uniform
    stencil couples every pair of neighbours by one value, the float offdiag = -1/h^2;
    each pivot sweep reads a view of the ndarray diag."""

    diag: np.ndarray
    offdiag: float

    @property
    def n(self) -> int:
        return len(self.diag)


def assemble(params: PotentialParams, m: int, grid: RadialGrid) -> DiscreteHamiltonian:
    """Three-point stencil (-v[i-1] + 2 v[i] - v[i+1])/h^2 + W(r_i) v[i]
    with W = V + (m^2 - 1/4)/r^2 and Dirichlet closure; ConvergenceError if W
    overflows, or its terms overflow to infinities of opposite sign."""
    r = grid.points()
    h = grid.h
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is NaN, caught below
        # each term is added in place, the last one made in r itself: at
        # n = 64000 a new array costs more than the arithmetic done in it
        diag = params.evaluate(r)
        diag += 2.0 / h**2
        r *= r
        np.divide(centrifugal_coefficient(m), r, out=r)
        diag += r
    if not np.all(np.isfinite(diag)):
        raise ConvergenceError("the discretized operator overflows double precision")
    return DiscreteHamiltonian(diag=diag, offdiag=-1.0 / h**2)


def _sweep(shifted: memoryview, e2: float, q: float = math.inf):
    """The unguarded pivots of _pivots, one per element d_i - lam of
    shifted, after the start pivot q.  A generator function keeps q and e2
    in fast locals; a generator expression that binds q would keep them in
    closure cells, loaded per element."""
    for ai in shifted:
        q = ai - e2 / q
        yield q


def _pivots(shifted: np.ndarray, e: float, start: float = math.inf) -> np.ndarray:
    """Pivots q_i = s_i - e^2 / q_(i-1), q_0 = start, of T - lam I = L D L^T,
    T with diagonal d and every off-diagonal entry e, and shifted the
    diagonal s = d - lam of T - lam I; how many are negative is the Sturm
    count of lam.  The default start, inf, begins at a Dirichlet end; a
    finite one is the pivot of the rows that precede shifted, eliminated
    elsewhere (_decaying_tail).  A pivot smaller than pivmin = tiny * max(1,
    e^2) in magnitude, as in LAPACK's dstebz, is replaced by -pivmin, so it
    counts either way.

    The caller forms d - lam in NumPy, the IEEE subtraction the loop would
    make, and the sweep (_sweep) runs unguarded over a memoryview of it,
    which builds no list and yields Python floats: they iterate several
    times faster than numpy scalars, and division by a zero pivot raises
    instead of giving inf.  Only when it divides by an exact zero, or
    min|q_i| is not >= pivmin (NaN included), is it redone with the guard on
    every element; otherwise the guard would not have fired, so the pivots
    are the same bit for bit."""
    e2, pivmin = e * e, sys.float_info.min * max(1.0, e * e)
    shifted = memoryview(shifted)
    try:
        pivots = np.fromiter(_sweep(shifted, e2, start), float, len(shifted))
    except ZeroDivisionError:
        pivots = None
    if pivots is None or not abs(pivots).min() >= pivmin:
        guarded = []
        q = start
        for ai in shifted:
            q = ai - e2 / q
            if abs(q) < pivmin:
                q = -pivmin
            guarded.append(q)
        pivots = np.array(guarded)
    return pivots


def _turning_point(ham: DiscreteHamiltonian, lam: float) -> int:
    """The outer turning point i* of the shift lam: the first index with
    d_i - lam >= 2|e| for every i >= i*, found by one comparison pass as one
    past the last index below; 0 when no index is below."""
    below = ham.diag < lam + 2.0 * abs(ham.offdiag)
    last = int(below[::-1].argmax())  # 0 both when d_(n-1) is below and when none is
    return ham.n - last if below[-1 - last] else 0


def sturm_count(ham: DiscreteHamiltonian, lam: float) -> int:
    """Number of eigenvalues strictly below lam (Sturm sequence count): the
    negative pivots of the forward sweep of _pivots, counted here.

    The sweep stops at the outer turning point i* (_turning_point).  If the
    pivot before it is >= |e|, each later pivot is >= 2|e| - e^2/|e| = |e|
    > 0, so none of them counts and the count is exact; otherwise, and when
    i* is 0 or n, the whole grid is swept."""
    d, e = ham.diag, abs(ham.offdiag)
    cut = _turning_point(ham, lam)
    pivots = _pivots(d[:cut] - lam, e) if 0 < cut < ham.n else None
    if pivots is None or not pivots[-1] >= e:
        pivots = _pivots(d - lam, e)
    return int(np.count_nonzero(pivots < 0.0))


def _gershgorin_bounds(ham: DiscreteHamiltonian):
    # rounding is monotone, so min(d_i - 2|e|) is min(d_i) - 2|e| exactly
    d, e, inner = ham.diag, abs(ham.offdiag), ham.diag[1:-1]
    return (float(min(inner.min(initial=math.inf) - 2.0 * e, d[0] - e, d[-1] - e)),
            float(max(inner.max(initial=-math.inf) + 2.0 * e, d[0] + e, d[-1] + e)))


def _decaying_tail(b: np.ndarray, e: float) -> tuple[np.ndarray, float]:
    """y solving M y = |e| e_0, M the symmetric tridiagonal matrix with
    diagonal b and every off-diagonal entry e, by a shallow cyclic
    (odd-even) reduction finished with one pivot sweep; and D-_0 = |e| / y_0,
    the pivot at row 0 of M's elimination from its last row up.

    Past the outer turning point b_i >= 2|e|, so M is a diagonally dominant
    M-matrix, on which reduction is stable without pivoting (Heller, SIAM J.
    Numer. Anal. 13, 1976).  While more than TAIL_FINISH_ROWS rows remain,
    each level eliminates the odd rows: even row i takes b_i - c_(i-1) /
    b_(i-1) - c_i / b_(i+1), c_i the squared coupling of rows i and i + 1,
    and couples to row i + 2 by c_i c_(i+1) / b_(i+1)^2.  The couplings
    start at e^2 rounded as _pivots rounds it, so D-_0 is that of the same
    matrix as the pivot loop's.  The right-hand side, nonzero only in row 0,
    is never touched.  A level costs about a dozen NumPy calls however few
    rows it has, so the at most TAIL_FINISH_ROWS rows left are swept from the
    last up in Python floats instead, D_i = b_i - c_i / D_(i+1); that gives
    D-_0 and, from row 0 down, y_0 = |e| / D_0 and y_(i+1) = sqrt(c_i) y_i /
    D_(i+1).  Back substitution then gives each odd row of each level y_i =
    (sqrt(c_(i-1)) y_(i-1) + sqrt(c_i) y_(i+1)) / b_i, every entry positive.
    About log2(len(b) / TAIL_FINISH_ROWS) levels replace len(b) pivots swept
    one at a time."""
    levels = []
    c = np.full(len(b) - 1, e * e)
    while len(b) > TAIL_FINISH_ROWS:
        levels.append((b, c))
        odd = b[1::2]
        back, on = c[0::2] / odd, c[1::2] / odd[:len(c) // 2]  # each odd row's terms in its neighbours
        reduced = b[0::2].copy()
        reduced[:len(odd)] -= back
        reduced[1:] -= on
        b, c = reduced, back[:len(on)] * on
    rows, couplings = b.tolist(), c.tolist()
    pivots = [rows[-1]]
    for bi, ci in zip(rows[-2::-1], couplings[::-1]):
        pivots.append(bi - ci / pivots[-1])
    pivot = pivots[-1]
    y = [abs(e) / pivot]
    for ci, qi in zip(couplings, pivots[-2::-1]):
        y.append(math.sqrt(ci) * y[-1] / qi)
    y = np.array(y)
    for b, c in reversed(levels):
        odd, coupling = b[1::2], np.sqrt(c)
        full = np.empty(len(b))
        full[0::2] = y
        spill = coupling[0::2] * y[:len(odd)]
        spill[:len(c) // 2] += coupling[1::2] * y[1:]
        np.divide(spill, odd, out=full[1::2])
        y = full
    return y, pivot


def _twisted_rayleigh(ham: DiscreteHamiltonian, sigma: float, window=None):
    """One Rayleigh-quotient step on the twisted-factorization vector at sigma.

    With forward pivots D+ and backward pivots D- of T - sigma I, the twist
    index r minimises |gamma_r|, gamma_r = D+_r + D-_r - (d_r - sigma).  The
    vector z with z_r = 1, grown outward by products of -e/D+ and -e/D-,
    satisfies (T - sigma I) z = gamma_r e_r, so its Rayleigh quotient is
    rho = sigma + gamma_r / |z|^2, its unit vector v = z / |z| has the
    residual |T v - rho v| = |gamma_r| / |z| * sqrt(1 - 1/|z|^2), and every
    entry carries relative accuracy (Parlett & Dhillon, LAA 267, 1997).

    |gamma_r| is smallest where the eigenvector peaks, and r is sought in a
    window around the peak, as LAPACK's dlar1v seeks it.  window =
    (lo, hi, stop), from _window, places it: the forward sweep covers
    [0, hi], the backward sweep [lo, stop) with a Dirichlet end at stop, r
    lies in [lo, hi] and z is 0 from stop on.  Then (T - sigma I) z =
    gamma_r e_r + e z_(stop-1) e_stop exactly, and the residual carries that
    edge term: sqrt(gamma_r^2 (1 - 1/|z|^2) + e^2 z_(stop-1)^2) / |z|.  So it
    stays a true bound however the window was chosen; a window that cuts
    the vector where it is not small only makes the residual large.

    Past the outer turning point the vector only decays.  When the rows
    [t, stop), t = max(_turning_point(sigma), hi + 1), number at least
    TAIL_SOLVE_ROWS, they are not swept: _decaying_tail solves them by a
    shallow cyclic reduction for y = z[t:stop] / z_(t-1) and the pivot D-_t,
    which seeds the sweep over [lo, t).  Short tails and unwindowed steps
    stay on the sweep.  Both sweeps, gamma and the tail read one shifted
    diagonal, d[:stop] - sigma, formed once per step: each reads the same
    IEEE differences it would form itself.  The solve leaves w, the computed (T - sigma I) z on its
    rows, which are neither r nor stop, so (T - sigma I) z = gamma_r e_r + w
    + e z_(stop-1) e_stop.  Then rho = sigma + (gamma_r + w.z) / |z|^2, and
    the residual is |g - (g.z / |z|^2) z| / |z|, g that sum, with
    |g|^2 = gamma_r^2 + |w|^2 + e^2 z_(stop-1)^2: for w = 0, the formulas
    above.

    With no window the backward sweep covers the grid.  Its vector grows
    while |D-_i| < |e|, so it peaks at hi, the last such i (0 if none); the
    forward sweep stops there and r is sought in [0, hi].  On the grids
    build_grid makes, where |gamma| still falls past hi it does so by one
    index and by < 5e-5 relative, which moves the quotient only at rounding
    level; on a stencil too coarse for the vector to peak inside the grid
    the residual is large.  Returns the unit vector, signed so that its
    first nonzero entry, at or before r, is positive (division and negation
    are exact), its Rayleigh quotient and its residual.
    """
    e = abs(ham.offdiag)
    lo, hi, stop = window or (0, None, ham.n)
    shifted = ham.diag[:stop] - sigma  # formed once: both sweeps, gamma and the tail read it
    t, start = stop, math.inf  # rows [t, stop), if any, are the decaying tail
    if window and stop - hi - 1 >= TAIL_SOLVE_ROWS:  # else no tail is long enough: skip the pass
        cut = max(_turning_point(ham, sigma), hi + 1)
        if stop - cut >= TAIL_SOLVE_ROWS:
            t, b = cut, shifted[cut:]
            y, start = _decaying_tail(b, ham.offdiag)
    # one reversed view, rows t-1 down to lo; bwd is a view too, D-_i at bwd[i - lo]
    bwd = _pivots(shifted[t - 1:lo - 1 if lo else None:-1], e, start)[::-1]
    if window is None:
        grows = (abs(bwd) < e).nonzero()[0]
        hi = int(grows[-1]) if grows.size else 0
    fwd = _pivots(shifted[:hi + 1], e)
    gamma = fwd[lo:] + bwd[:hi + 1 - lo] - shifted[lo:hi + 1]
    r = lo + int(abs(gamma).argmin())
    z = np.zeros(ham.n)
    z[r] = 1.0
    # each half is written in place: its ratios -e/D, then their running products
    for half, pivots in ((z[:r][::-1], fwd[:r][::-1]), (z[r + 1:t], bwd[r + 1 - lo:])):
        np.divide(-ham.offdiag, pivots, out=half)
        np.multiply.accumulate(half, out=half)
    wz = ww = 0.0
    if t < stop:
        tail = np.multiply(y, z[t - 1], out=z[t:stop])
        # w, (T - sigma I) z on the tail's rows: zero but for the solve's rounding
        w = b * tail
        w[0] += ham.offdiag * z[t - 1]
        w[1:] += ham.offdiag * tail[:-1]
        w[:-1] += ham.offdiag * tail[1:]
        wz, ww = float(w @ tail), float(w @ w)
    norm2 = float(z @ z)
    norm = math.sqrt(norm2)
    gamma_r = float(gamma[r - lo])
    edge = e * z[stop - 1] if stop < ham.n else 0.0  # (T - sigma I) z at stop
    gz = gamma_r + wz  # z.g, g = (T - sigma I) z, whose three terms sit on disjoint rows
    g, along = math.hypot(gamma_r, edge, math.sqrt(ww)), abs(gz) / norm
    res = math.sqrt(max((g - along) * (g + along), 0.0)) / norm  # |g - (z.g / |z|^2) z| / |z|
    z /= norm
    # z[0], unless it underflowed, is the first nonzero entry
    if (z[0] if abs(z[0]) > 0.0 else z[(abs(z[:r + 1]) > 0.0).argmax()]) < 0.0:
        np.negative(z, out=z)
    return z, sigma + gz / norm2, res


def _window(guide: np.ndarray, n: int) -> tuple[int, int, int]:
    """The window (lo, hi, stop) of _twisted_rayleigh on an n-point grid of
    the interval that guide, a unit eigenvector on a coarser grid, spans.

    Index i of the guide's grid sits where index (i+1)(n+1)/(len+1) - 1 of
    this one does.  lo and hi are the guide's peak -+ margin, and stop is
    its last entry not below NODE_REL_FLOOR of the peak, + margin, where
    margin = ceil(n / len) + 2 covers one guide spacing and rounding."""
    size = len(guide)
    mags = np.abs(guide)
    peak = int(mags.argmax())
    last = int((mags >= NODE_REL_FLOOR * mags[peak]).nonzero()[0][-1])
    margin = -(-n // size) + 2

    def at(i):
        return round((i + 1) * (n + 1) / (size + 1)) - 1

    stop = min(at(last) + margin, n)
    return max(at(peak) - margin, 0), min(at(peak) + margin, stop - 1), stop


@dataclass(frozen=True)
class SpectrumResult:
    """Lowest eigenpairs of the discrete radial operator: eigenvalues ascending
    strictly, eigenvectors of unit norm with the first nonzero entry positive."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # shape (k, n)


def _certified(pairs, top: float, slack: float):
    """The SpectrumResult of pairs, each (v, rho, res, settled), if they
    pass the certificate of lowest_eigenvalues at top; None otherwise."""
    ends = [end for _, rho, res, _ in pairs for end in (rho - res - slack, rho + res + slack)]
    if not (all(settled for *_, settled in pairs) and all(map(float.__lt__, ends, [*ends[1:], top]))):
        return None
    return SpectrumResult(
        eigenvalues=np.array([rho for _, rho, _, _ in pairs]),
        eigenvectors=np.array([v for v, *_ in pairs]),
    )


def lowest_eigenvalues(
    ham: DiscreteHamiltonian,
    k: int,
    predicted: Sequence[float] = (),
    guides: Sequence[np.ndarray] = (),
) -> SpectrumResult:
    """k smallest eigenpairs: Rayleigh refinement on twisted factorizations
    from starting shifts, every returned pair accepted by one certificate.

    A refinement steps from its start until a step moves the quotient by at
    most the certificate's slack, 4 rounding, rounding = eps * max(|lo|,
    |hi|) with lo and hi the Gershgorin ends (it settles), or for
    RAYLEIGH_STEPS steps; its pair is the last step's vector and quotient.
    The certificate (_certified) takes the k pairs and a shift top whose
    Sturm count is k.  It holds if every refinement
    settled and the intervals rho_j -+ (res_j + 4 rounding), res_j the
    residual |T v - rho v|, ascend without overlap and end below top.  Each
    interval holds an eigenvalue (Parlett, The Symmetric Eigenvalue Problem,
    1980), and k disjoint ones below top, where only lambda_1 ... lambda_k
    lie, hold exactly those, in order.

    Finite predictions p_1 < ... < p_k, k >= 2, give one Sturm count, at
    top = p_k + (p_k - p_(k-1))/2.  If it counts k, refinements start from
    each p_j, windowed by guides, unit eigenvectors on a coarser grid of the
    same interval, one per eigenvalue (_window), and their pairs are
    returned if they pass the certificate at that top.  A misleading guide
    can make them fail it, never pass it wrongly.

    Otherwise bisection supplies the starts, as in MRRR (Dhillon, Parlett &
    Voemel, ACM TOMS 32, 2006).  Every Sturm probe made on the matrix, the
    Gershgorin ends and top included, goes into one table of (shift, count).
    The j-th eigenvalue is isolated by the bracket [a_j, b_j] of the largest
    shift with count <= j-1 and the smallest with count >= j, once those
    counts are j-1 and j, so probes made for one eigenvalue bound the next.
    Tier 1 bisects each bracket only until it is isolated, tier 2 on until
    b - a is within 1e-3 of max(|a|, |b|, floor).  Each tier refines from
    the brackets' midpoints, unguided, and returns the pairs if they pass
    the certificate at top = b_k; if tier 2's fail too, ConvergenceError.
    """
    n = ham.n
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n}, got {k}")
    lo, hi = _gershgorin_bounds(ham)
    slack = 4.0 * np.finfo(float).eps * max(abs(lo), abs(hi))  # 4 rounding: settles a step, widens a pair
    probes = [(lo, 0), (hi, n)]

    def refine(sigma, window=None):
        # Rayleigh-quotient iteration converges cubically; a step whose
        # correction is already within the certificate's slack made its
        # vector at rounding level
        for _ in range(RAYLEIGH_STEPS):
            v, rho, res = _twisted_rayleigh(ham, sigma, window)
            if abs(rho - sigma) <= slack:
                return v, rho, res, True
            sigma = rho
        return v, rho, res, False

    p = [float(x) for x in predicted[:k]]
    if k >= 2 and len(p) == k and all(map(math.isfinite, p)) and all(map(float.__lt__, p, p[1:])):
        top = p[-1] + 0.5 * (p[-1] - p[-2])
        count = sturm_count(ham, top)
        probes.append((top, count))
        if count == k:
            windows = [_window(g, n) for g in guides[:k]]
            pairs = [refine(pj, window) for pj, window in zip(p, windows + [None] * k)]
            if result := _certified(pairs, top, slack):
                return result

    def bracket(j):
        a, count_a = max(probe for probe in probes if probe[1] <= j - 1)
        b, count_b = min(probe for probe in probes if probe[1] >= j)
        return a, b, count_a == j - 1 and count_b == j

    floor = 1e-9 * (hi - lo)  # keeps an eigenvalue near 0 from bisecting to underflow

    def isolate(j, narrow):
        a, b, isolated = bracket(j)
        while not (isolated and (not narrow or b - a <= 1e-3 * max(abs(a), abs(b), floor))):
            shift = 0.5 * (a + b)
            if not a < shift < b:
                raise ConvergenceError(f"bisection could not isolate eigenvalue #{j} in [{a}, {b}]")
            probes.append((shift, sturm_count(ham, shift)))
            a, b, isolated = bracket(j)
        return a, b

    for narrow in (False, True):
        brackets = [isolate(j, narrow) for j in range(1, k + 1)]
        if result := _certified([refine(0.5 * (a + b)) for a, b in brackets], brackets[-1][1], slack):
            return result
    raise ConvergenceError("Rayleigh refinement from the isolating brackets failed the residual certificate")


def node_count(v: np.ndarray) -> int:
    """Strict sign changes in v, ignoring entries below NODE_REL_FLOOR * max|v|."""
    v = np.asarray(v, dtype=float)
    mags = np.abs(v)
    peak = float(mags.max())
    if peak == 0.0:
        raise ValueError("node_count needs a nonzero vector")
    negative = np.signbit(v[mags > NODE_REL_FLOOR * peak])  # kept entries are nonzero
    return int(np.count_nonzero(negative[:-1] != negative[1:]))


def _log_points(grid: RadialGrid, intervals: int) -> tuple[np.ndarray, float]:
    """The intervals + 1 radii exp(ln r_min + i h), i = 0 .. intervals, and
    h = (ln r_max - ln r_min) / intervals, their step in s = ln r.  Every
    second point of a level is the level of half as many intervals, bit for
    bit: (2i) h = i (2h) exactly."""
    h = (math.log(grid.r_max) - math.log(grid.r_min)) / intervals
    s = np.arange(intervals + 1.0)  # exact integers
    s *= h
    s += math.log(grid.r_min)
    return np.exp(s, out=s), h


def _trapezoid(g: np.ndarray, h: float) -> float:
    """Trapezoid sum of the samples g, spaced h apart; the ends are added, never
    subtracted, so an infinite sample gives inf, not NaN."""
    return h * float(0.5 * (g[0] + g[-1]) + np.add.reduce(g[1:-1]))


def quadrature(f, grid: RadialGrid, abs_tol: float = 0.0) -> float:
    """Integral of f(r) dr over [r_min, r_max] by the trapezoid rule in
    s = ln r, the integral of f(e^s) e^s ds.  For integrands that are smooth
    and decay steeply at both ends, as the states' |R|^2 do, the trapezoid
    rule converges geometrically (Trefethen & Weideman, SIAM Rev. 56, 2014),
    and in ln r the inner tail exp(-sqrt(c)/r^2) is a smooth one.

    f is called on the QUAD_INTERVALS + 1 = 129 points of the first level
    (the grid's _first_level), whose estimate is compared with the one from
    every second sample, the level of half as many intervals: those are its
    points bit for bit, so that estimate is that of sampling it afresh (each
    level from _log_points).  It returns
    when two levels agree to QUAD_REL_TOL (relative) or abs_tol, the floor
    for integrals that cancel to (near) zero, and returns the first estimate
    that is not finite: a non-finite sample stays in every finer level.
    Otherwise it doubles the intervals, calling f on the points of each new
    level, at most QUAD_MAX_DOUBLINGS times.
    """
    intervals, prev = QUAD_INTERVALS, None
    for doubling in range(QUAD_MAX_DOUBLINGS + 1):
        r, h = _log_points(grid, intervals) if doubling else grid._first_level
        g = np.asarray(f(r), dtype=float) * r
        cur = _trapezoid(g, h)
        if not math.isfinite(cur):
            return cur
        if prev is None:
            prev = _trapezoid(g[::2], 2.0 * h)
        if abs(cur - prev) <= max(QUAD_REL_TOL * max(abs(cur), abs(prev)), abs_tol):
            return cur
        intervals, prev = 2 * intervals, cur
    raise ConvergenceError("trapezoid quadrature in ln r did not converge")


def _sampled(state: ClosedFormState, grid: RadialGrid):
    """R(r) = radial_eval(state, r) for quadrature on the grid's interval.
    The state is evaluated once on quadrature's first level, the grid's
    _first_level, and that sampling is given again whenever quadrature hands
    R those points; every later level is evaluated afresh.

    Raises ConvergenceError when the interval cuts the state: when the tails
    past its ends, estimated from the first level's samples of |R|^2 r in
    ln r (_dropped_tail), exceed QUAD_REL_TOL of that level's estimate of the
    norm integral.  An estimate that is not finite and > 0, as when the
    interval misses the state, is left to _norm_integral to report.  Its
    callers hold np.errstate(over="ignore"), as _norm_integral's do."""
    r, h = grid._first_level
    y = radial_eval(state, r)
    g = y * y * r
    estimate = _trapezoid(g, h)
    if math.isfinite(estimate) and estimate > 0.0:
        share = (_dropped_tail(g[0], g[1], h) + _dropped_tail(g[-1], g[-2], h)) / estimate
        if not share <= QUAD_REL_TOL:
            raise ConvergenceError(
                f"the interval [{grid.r_min:.6g}, {grid.r_max:.6g}] cuts the {state.level.value} "
                f"state: an estimated {share:.2g} of its norm integral lies past the ends, over "
                f"the bound {QUAD_REL_TOL:g}"
            )
    return lambda x: y if x is r else radial_eval(state, x)


def _norm_integral(state: ClosedFormState, grid: RadialGrid, R) -> float:
    """Integral of |R|^2 dr over the grid's interval, R the state's _sampled.
    Raises ConvergenceError when it is not finite and > 0, as when the
    interval misses the state.  Its callers hold np.errstate(over="ignore"),
    so a square that overflows gives inf, which it reports."""
    integral = quadrature(lambda r: R(r) ** 2, grid)
    if not (math.isfinite(integral) and integral > 0.0):
        raise ConvergenceError(
            f"norm integral of the {state.level.value} state on [{grid.r_min:.6g}, {grid.r_max:.6g}] "
            f"is {integral}; it must be finite and > 0"
        )
    return integral


def _dropped_tail(y_end: float, y_in: float, h: float) -> float:
    """The integral past an end of the interval of an integrand sampled y_end
    there and y_in one step h inward, if it decays on exponentially at the
    rate between the two: y_end h / ln(y_in / y_end).  Infinite if the
    integrand does not fall toward the end."""
    if y_end == 0.0:
        return 0.0
    fall = math.log(y_in) - math.log(y_end) if y_in > y_end else 0.0
    # in Python floats, a quotient too large for a double is inf, not a warning
    return float(y_end) * h / fall if fall > 0.0 else math.inf


def normalization_constant(state: ClosedFormState, grid: RadialGrid) -> float:
    """N = (integral of |R|^2 dr)^(-1/2), so N*R has unit norm."""
    with np.errstate(over="ignore"):  # an overflowing square gives inf, which _norm_integral reports
        return _norm_integral(state, grid, _sampled(state, grid)) ** -0.5


def overlap(s1: ClosedFormState, s2: ClosedFormState, grid: RadialGrid) -> float:
    """Normalized overlap integral of two closed-form states (in [-1, 1])."""
    return _cosine(s1, s2, grid)[0]


def _cosine(s1: ClosedFormState, s2: ClosedFormState, grid: RadialGrid):
    """overlap(s1, s2, grid) and the norm integrals of s1 and s2.  Each state
    is sampled once (_sampled), and its norm integral and the cross integral
    share that sampling of quadrature's first level."""
    with np.errstate(over="ignore"):  # as in normalization_constant
        R1, R2 = _sampled(s1, grid), _sampled(s2, grid)
        i1, i2 = _norm_integral(s1, grid, R1), _norm_integral(s2, grid, R2)
    scale = math.sqrt(i1 * i2)
    # orthogonal pairs cancel to ~0; resolve the cosine itself to 1e-11
    cross = quadrature(lambda r: R1(r) * R2(r), grid, abs_tol=1e-11 * scale)
    return cross / scale, i1, i2


def _extrapolate(hs, values, h):
    """The polynomial in h^2 through the points (hs[i], values[i]), at h, by
    Neville's scheme in t = h^2: each pass raises the degree by one, so one
    point gives its own value and two their line (Richardson extrapolation,
    at h = 0).  values may be arrays, extrapolated entry by entry."""
    ts = [x**2 for x in hs]
    for d in range(1, len(values)):
        values = [
            q + (q - p) * (h**2 - ts[i + d]) / (ts[i + d] - ts[i])
            for i, (p, q) in enumerate(zip(values, values[1:]))
        ]
    return values[0]


def _ladder(params: PotentialParams, m: int, k: int, n: int):
    """Every grid of the ladder, coarsest first, and its k lowest eigenpairs.

    The ladder is the grids of n // 4^j points, j = ..., 2, 1, down to the
    last of at least MIN_GRID_POINTS, then n // 2 and n.  The first grid
    solved, under 64 points when there is a ladder, is bisected.  Every later
    one is given predictions: _extrapolate through the last three grids
    (fewer while fewer exist), whose quadratic in h^2 also cancels the h^4
    term, so on larger grids a prediction misses by less than the rounding
    floor and one Rayleigh step settles it; and guides, the previous grid's
    eigenvectors, which window those steps (lowest_eigenvalues)."""
    sizes = [n // 4, n // 2, n]
    while (rung := sizes[0] // 4) >= MIN_GRID_POINTS:
        sizes.insert(0, rung)
    grids = [build_grid(params, size) for size in sizes]
    # the finest operator first, so a grid too large to allocate fails at
    # once instead of after every rung below it
    finest = assemble(params, m, grids[-1])
    spectra, guides = [], ()
    for i, grid in enumerate(grids):
        prior = slice(max(i - 3, 0), i)  # the last three grids solved
        values = [s.eigenvalues for s in spectra[prior]]
        predicted = _extrapolate([g.h for g in grids[prior]], values, grid.h) if values else ()
        ham = finest if grid is grids[-1] else assemble(params, m, grid)
        spectra.append(lowest_eigenvalues(ham, k, predicted, guides))
        guides = spectra[-1].eigenvectors
    return grids, spectra


def _order(hs: np.ndarray, errs: np.ndarray) -> float:
    """Least-squares slope of log(err) against log(h), in closed form:
    sum(x y) / sum(x x) with x = log(h) - mean(log(h)), y = log(err)."""
    x = np.log(hs)
    x -= x.mean()
    return float(x @ np.log(errs) / (x @ x))


@dataclass(frozen=True)
class VerificationReport:
    """Full cross-check of one joint configuration."""

    exact_energies: tuple
    numeric_energies: tuple
    abs_errors: tuple
    node_counts: tuple
    overlap_01: float
    norm_constants: tuple
    convergence_order: float
    grid: RadialGrid
    params: PotentialParams
    m: int
    passed: bool

    def to_dict(self) -> dict:
        return asdict(self)


def verify(a: float, m: int, n: int = 4000) -> VerificationReport:
    """Cross-check the joint configuration of (a, m) on an n-point grid.

    Reports both states' exact and numeric energies and errors on that
    grid, the node counts, the ground/excited overlap, the normalization
    constants and the order of the h^2 error model fitted over the grids
    n/4, n/2 and n, the last three of the ladder (_ladder), which is solved
    without the exact energies.  The report fails if any |E_hat - E|
    exceeds 10x the model's prediction, the node counts are not (0, 1),
    |overlap| exceeds 1e-8, or a normalization constant, the overlap or the
    order is not finite.
    """
    if n < 4 * MIN_GRID_POINTS:
        raise ValueError(f"verify needs n >= {4 * MIN_GRID_POINTS} grid points "
                         f"(its coarsest grid has n // 4), got {n}")
    joint = excited_solve(a, m)
    exact = (joint.ground.energy, joint.excited.energy)
    grids, spectra = _ladder(joint.params, m, len(exact), n)
    hs = np.array([g.h for g in grids[-3:]])
    errs = np.abs(np.array([s.eigenvalues for s in spectra[-3:]]) - np.array(exact)).T
    order = _order(hs, errs[0])
    # least-squares fit of err = C h^2, one constant per level
    c = np.sum(errs * hs**2, axis=1) / np.sum(hs**4)

    grid, spectrum, errs_fine = grids[-1], spectra[-1], errs[:, -1]
    nodes = tuple(node_count(vec) for vec in spectrum.eigenvectors)
    ov, *integrals = _cosine(joint.ground, joint.excited, grid)
    norms = tuple(integral**-0.5 for integral in integrals)
    passed = (
        np.all(errs_fine <= 10.0 * c * grid.h**2)
        and nodes == (0, 1)
        and abs(ov) <= 1e-8
        and all(np.isfinite(x) for x in (*norms, ov, order))
    )
    return VerificationReport(
        exact_energies=exact,
        numeric_energies=tuple(float(x) for x in spectrum.eigenvalues),
        abs_errors=tuple(float(x) for x in errs_fine),
        node_counts=nodes,
        overlap_01=float(ov),
        norm_constants=norms,
        convergence_order=order,
        grid=grid,
        params=joint.params,
        m=m,
        passed=bool(passed),
    )
