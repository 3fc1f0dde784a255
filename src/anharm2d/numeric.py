"""Independent numerical verification of the closed-form bound states.

Discretizes the radial operator -d^2/dr^2 + V(r) + (m^2 - 1/4)/r^2 with
second-order central differences on a truncated uniform grid, extracts the
low spectrum from scratch (no library eigensolver) and provides Simpson
quadrature for normalization, overlaps and convergence diagnostics.  Each
eigenvalue is isolated by Sturm counts, first around a prediction from
coarser grids (never from the closed form) and by bisection only where the
prediction misses, then refined by at most three Rayleigh-quotient steps
on twisted-factorization eigenvectors, the last being the first whose
correction is at rounding level.  Two small scout grids ahead of the
convergence grids supply the first predictions, so bisection from the
Gershgorin bounds runs only on the smallest of them.

The half-line domain is truncated where both exponential tails of the exact
states fall below exp(-T) of their peak scale (T = 45 by default, or the
ANHARM_TAIL_THRESHOLD environment variable), so Dirichlet endpoints
introduce error far below the h^2 discretization error.
"""

from __future__ import annotations

import math
import os
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from anharm2d.closed_form import (
    ClosedFormState,
    Level,
    PotentialParams,
    centrifugal_coefficient,
    constrained_state,
    excited_solve,
    radial_eval,
)

DEFAULT_TAIL_THRESHOLD = 45.0
MIN_GRID_POINTS = 16  # fewest interior points a RadialGrid accepts
NODE_REL_FLOOR = 1e-12  # node_count ignores entries below this fraction of max|v|
QUAD_REL_TOL = 1e-10  # quadrature stops when two doublings agree to this
QUAD_MAX_DOUBLINGS = 20


class ConvergenceError(RuntimeError):
    """An iterative numerical procedure failed to reach its tolerance."""


def tail_threshold() -> float:
    """Truncation threshold T, overridable via ANHARM_TAIL_THRESHOLD.

    Raises ValueError unless T is finite and positive."""
    raw = os.environ.get("ANHARM_TAIL_THRESHOLD")
    t = float(raw) if raw else DEFAULT_TAIL_THRESHOLD
    if not (math.isfinite(t) and t > 0.0):
        raise ValueError(f"ANHARM_TAIL_THRESHOLD must be finite and > 0, got {raw!r}")
    return t


@dataclass(frozen=True)
class RadialGrid:
    """Uniform interior grid on [r_min, r_max] with Dirichlet zero endpoints.

    Interior points are r_i = r_min + i*h, i = 1..n, h = (r_max - r_min)/(n+1).
    """

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

    def points(self) -> np.ndarray:
        return self.r_min + self.h * np.arange(1, self.n + 1)


def build_grid(params: PotentialParams, n: int) -> RadialGrid:
    """Grid truncated where both exact-state tails are below exp(-T).

    The inner tail goes like exp(-sqrt(c)/(2 r^2)) and the outer like
    exp(-sqrt(a) r^2 / 2), giving r_min = sqrt(sqrt(c)/(2T)) and
    r_max = sqrt(2T/sqrt(a)).
    """
    t = tail_threshold()
    r_min = math.sqrt(math.sqrt(params.c) / (2.0 * t))
    r_max = math.sqrt(2.0 * t / math.sqrt(params.a))
    return RadialGrid(r_min=r_min, r_max=r_max, n=n)


@dataclass(frozen=True)
class DiscreteHamiltonian:
    """Symmetric tridiagonal discretization of the radial operator.  The uniform
    stencil couples every pair of neighbours by one value, the float offdiag = -1/h^2."""

    diag: np.ndarray
    offdiag: float
    grid: RadialGrid

    @property
    def n(self) -> int:
        return len(self.diag)

    @cached_property
    def _recurrence(self) -> tuple[list, float, float]:
        """(diag as Python floats, offdiag^2, pivmin), the inputs of every
        pivot recurrence on this matrix."""
        e2 = self.offdiag * self.offdiag
        pivmin = np.finfo(float).tiny * max(1.0, e2)  # as LAPACK dstebz
        return self.diag.tolist(), e2, pivmin


def assemble(params: PotentialParams, m: int, grid: RadialGrid) -> DiscreteHamiltonian:
    """Three-point stencil (-v[i-1] + 2 v[i] - v[i+1])/h^2 + W(r_i) v[i]
    with W = V + (m^2 - 1/4)/r^2 and Dirichlet closure."""
    r = grid.points()
    h = grid.h
    diag = 2.0 / h**2 + params.evaluate(r) + centrifugal_coefficient(m) / r**2
    return DiscreteHamiltonian(diag=diag, offdiag=-1.0 / h**2, grid=grid)


# ---------------------------------------------------------------------------
# Sturm-count isolation + twisted-factorization Rayleigh refinement
# ---------------------------------------------------------------------------

def _pivots(d: list, e2: float, lam: float, pivmin: float) -> tuple[int, np.ndarray]:
    """Pivots q_i = d_i - lam - e2 / q_(i-1), q_0 = inf, of T - lam I = L D L^T,
    and how many are negative: the Sturm count of lam.  A pivot smaller than
    pivmin in magnitude is replaced by -pivmin, so it counts either way.

    The sweep runs unguarded over Python floats, several times faster than
    indexing numpy arrays element by element.  Only when it divides by an
    exact zero, or leaves a pivot that is not >= pivmin in magnitude, is it
    redone with the guard on every element; otherwise the guard would not
    have fired, so the pivots are the same bit for bit.  lam is made a
    Python float so that a zero pivot raises instead of giving inf."""
    lam = float(lam)
    q = math.inf
    try:
        pivots = np.array([q := di - lam - e2 / q for di in d])
    except ZeroDivisionError:
        pivots = None
    if pivots is None or not np.all(np.abs(pivots) >= pivmin):
        guarded = []
        q = math.inf
        for di in d:
            q = di - lam - e2 / q
            if abs(q) < pivmin:
                q = -pivmin
            guarded.append(q)
        pivots = np.array(guarded)
    return int(np.count_nonzero(pivots < 0.0)), pivots


def sturm_count(ham: DiscreteHamiltonian, lam: float) -> int:
    """Number of eigenvalues strictly below lam (Sturm sequence count): the
    negative pivots of the forward sweep of _pivots."""
    d, e2, pivmin = ham._recurrence
    return _pivots(d, e2, lam, pivmin)[0]


def _gershgorin_bounds(ham: DiscreteHamiltonian):
    d = ham.diag
    radius = np.full_like(d, 2.0 * abs(ham.offdiag))
    radius[[0, -1]] = abs(ham.offdiag)
    return float(np.min(d - radius)), float(np.max(d + radius))


def _twisted_rayleigh(ham: DiscreteHamiltonian, sigma: float):
    """One Rayleigh-quotient step on the twisted-factorization vector at sigma.

    With forward pivots D+ and backward pivots D- of T - sigma I, the twist
    index r minimises |gamma_r|, gamma_r = D+_r + D-_r - (d_r - sigma).  The
    vector z with z_r = 1, grown outward by products of -e/D+ and -e/D-,
    satisfies (T - sigma I) z = gamma_r e_r, so its Rayleigh quotient is
    sigma + gamma_r / |z|^2, and every entry, tails included, carries
    relative accuracy (Parlett & Dhillon, LAA 267, 1997).
    Returns the unit vector and its Rayleigh quotient.
    """
    d, e2, pivmin = ham._recurrence
    fwd = _pivots(d, e2, sigma, pivmin)[1]
    bwd = _pivots(d[::-1], e2, sigma, pivmin)[1][::-1]
    gamma = fwd + bwd - (ham.diag - sigma)
    r = int(np.argmin(np.abs(gamma)))
    z = np.ones(ham.n)
    z[:r] = np.cumprod((-ham.offdiag / fwd[:r])[::-1])[::-1]
    z[r + 1:] = np.cumprod(-ham.offdiag / bwd[r + 1:])
    norm2 = float(z @ z)
    return z / math.sqrt(norm2), sigma + float(gamma[r]) / norm2


@dataclass(frozen=True)
class SpectrumResult:
    """Lowest eigenpairs of the discrete radial operator.

    Eigenvalues ascend strictly; eigenvectors are unit Euclidean norm with
    the first nonzero component positive.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # shape (k, n)
    grid: RadialGrid


def lowest_eigenvalues(
    ham: DiscreteHamiltonian, k: int, predicted: Sequence[float] = ()
) -> SpectrumResult:
    """k smallest eigenpairs via Sturm-count isolation then
    twisted-factorization Rayleigh refinement.

    Every Sturm probe made on the matrix, the two Gershgorin ends included,
    goes into one table of (shift, count).  The j-th eigenvalue starts from
    the bracket [a, b] of the largest shift with count <= j-1 and the
    smallest with count >= j, so probes made for earlier eigenvalues bound
    it too.  When predicted[j-1] = p is given, the shifts
    p -+ 5e-4*max(|p|, floor) inside the bracket are probed first: if their
    counts are (j-1, j), that bracket already passes the test below.
    Otherwise (no, a non-finite or a wrong prediction) bisection
    narrows the bracket until sturm_count(a) = j-1, sturm_count(b) = j and
    b - a is within 1e-3 of its endpoints.  Rayleigh-quotient steps on
    twisted-factorization vectors then refine the pair from the bracket
    midpoint, stopping after the first step that moves the quotient by at
    most eps * max(|lo|, |hi|), lo and hi the Gershgorin ends, or after
    three; the pair is that step's vector and quotient.  The result is
    certified by its Rayleigh quotient lying inside
    the isolating bracket, whatever produced the bracket, which also makes
    the eigenvalues ascend with none skipped; otherwise ConvergenceError is
    raised.
    """
    n = ham.n
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n}, got {k}")
    lo, hi = _gershgorin_bounds(ham)
    floor = 1e-9 * (hi - lo)  # keeps an eigenvalue near 0 from bisecting to underflow
    rounding = np.finfo(float).eps * max(abs(lo), abs(hi))  # a Rayleigh step this small ends refinement
    probes = [(lo, 0), (hi, n)]

    values = []
    vectors = []
    for j in range(1, k + 1):
        p = float(predicted[j - 1]) if j <= len(predicted) else math.nan
        delta = 5e-4 * max(abs(p), floor)
        guesses = [p - delta, p + delta]  # dropped once outside the bracket, as NaN always is
        while True:
            a, count_a = max(probe for probe in probes if probe[1] <= j - 1)
            b, count_b = min(probe for probe in probes if probe[1] >= j)
            if count_a == j - 1 and count_b == j and b - a <= 1e-3 * max(abs(a), abs(b), floor):
                break
            guesses = [x for x in guesses if a < x < b]
            shift = guesses.pop(0) if guesses else 0.5 * (a + b)
            if not a < shift < b:
                raise ConvergenceError(f"bisection could not isolate eigenvalue #{j} in [{a}, {b}]")
            probes.append((shift, sturm_count(ham, shift)))
        # Rayleigh-quotient iteration converges cubically: from a bracket
        # 1e-3 wide relative to the eigenvalue, at most two steps reach
        # rounding level and a third makes the vector at that shift.  A step
        # whose correction is already at rounding level made its vector
        # there, so it is the last.
        rho = 0.5 * (a + b)
        for _ in range(3):
            sigma = rho
            v, rho = _twisted_rayleigh(ham, sigma)
            if abs(rho - sigma) <= rounding:
                break
        if not a <= rho <= b:
            raise ConvergenceError(
                f"Rayleigh refinement of eigenvalue #{j} left its isolating bracket"
            )
        first = np.flatnonzero(np.abs(v) > 0.0)[0]
        if v[first] < 0.0:
            v = -v
        values.append(rho)
        vectors.append(v)
    return SpectrumResult(eigenvalues=np.array(values), eigenvectors=np.array(vectors), grid=ham.grid)


def node_count(v: np.ndarray) -> int:
    """Strict sign changes in v, ignoring entries below NODE_REL_FLOOR * max|v|."""
    v = np.asarray(v, dtype=float)
    peak = float(np.max(np.abs(v)))
    if peak == 0.0:
        raise ValueError("node_count needs a nonzero vector")
    kept = v[np.abs(v) > NODE_REL_FLOOR * peak]
    return int(np.sum(np.sign(kept[:-1]) * np.sign(kept[1:]) < 0.0))


# ---------------------------------------------------------------------------
# Quadrature, normalization, overlaps
# ---------------------------------------------------------------------------

def _simpson(f, a: float, b: float, intervals: int) -> float:
    x = np.linspace(a, b, intervals + 1)
    y = np.asarray(f(x), dtype=float)
    h = (b - a) / intervals
    return h / 3.0 * float(y[0] + y[-1] + 4.0 * np.sum(y[1:-1:2]) + 2.0 * np.sum(y[2:-1:2]))


def quadrature(f, grid: RadialGrid, abs_tol: float = 0.0) -> float:
    """Composite Simpson over [r_min, r_max], doubling the resolution until
    two successive estimates agree to QUAD_REL_TOL (relative).

    abs_tol gives an absolute convergence floor for integrals that cancel to
    (near) zero, where a purely relative criterion can never trigger.
    """
    intervals = 16
    prev = _simpson(f, grid.r_min, grid.r_max, intervals)
    for _ in range(QUAD_MAX_DOUBLINGS):
        intervals *= 2
        cur = _simpson(f, grid.r_min, grid.r_max, intervals)
        if abs(cur - prev) <= max(QUAD_REL_TOL * max(abs(cur), abs(prev)), abs_tol):
            return cur
        prev = cur
    raise ConvergenceError("Simpson quadrature did not converge")


def _norm_integral(state: ClosedFormState, grid: RadialGrid) -> float:
    """Integral of |R|^2 dr over the grid's interval.  Raises ConvergenceError
    unless it is finite and > 0, as it is not when the interval misses the state."""
    integral = quadrature(lambda r: radial_eval(state, r) ** 2, grid)
    if not (math.isfinite(integral) and integral > 0.0):
        raise ConvergenceError(
            f"norm integral of the {state.level.value} state on [{grid.r_min:.6g}, "
            f"{grid.r_max:.6g}] is {integral}; it must be finite and > 0"
        )
    return integral


def normalization_constant(state: ClosedFormState, grid: RadialGrid) -> float:
    """N = (integral of |R|^2 dr)^(-1/2), so N*R has unit norm."""
    return _norm_integral(state, grid) ** -0.5


def overlap(s1: ClosedFormState, s2: ClosedFormState, grid: RadialGrid) -> float:
    """Normalized overlap integral of two closed-form states (in [-1, 1])."""
    scale = math.sqrt(_norm_integral(s1, grid) * _norm_integral(s2, grid))
    # orthogonal pairs cancel to ~0; resolve the cosine itself to 1e-11
    cross = quadrature(
        lambda r: radial_eval(s1, r) * radial_eval(s2, r), grid, abs_tol=1e-11 * scale
    )
    return cross / scale


# ---------------------------------------------------------------------------
# Convergence diagnostics and orchestration
# ---------------------------------------------------------------------------

def _error_table(params: PotentialParams, m: int, exact: tuple, n_list):
    """Spacings h over the ascending n_list, |eigenvalue - exact| per level
    (one row per entry of exact) and the spectrum on the finest grid.

    Two scout grids of n_list[0] // 8 and n_list[0] // 4 points, each kept
    only if it has MIN_GRID_POINTS, are solved first; their eigenvalues
    only feed predictions and get no row.  Each grid's eigensolve is given
    predicted eigenvalues from the grids before it, never from exact: the
    previous grid's eigenvalues, or, after two grids, their h^2
    extrapolation to this grid's h.  A good prediction costs two Sturm
    passes per eigenvalue; a poor one falls back to bisection, as the
    first grid solved, having none, always does."""
    scouts = [s for s in (n_list[0] // 8, n_list[0] // 4) if s >= MIN_GRID_POINTS]
    hs, found = [], []
    for n in [*scouts, *n_list]:
        grid = build_grid(params, n)
        h = grid.h
        if len(found) >= 2:
            (h1, h2), (l1, l2) = hs[-2:], found[-2:]
            predicted = l2 + (l2 - l1) * (h**2 - h2**2) / (h2**2 - h1**2)
        else:
            predicted = found[-1] if found else ()
        spectrum = lowest_eigenvalues(assemble(params, m, grid), len(exact), predicted)
        hs.append(h)
        found.append(spectrum.eigenvalues)
    reported = slice(len(scouts), None)
    return np.array(hs[reported]), np.abs(np.array(found[reported]) - np.array(exact)).T, spectrum


def _order(hs: np.ndarray, errs: np.ndarray) -> float:
    """Least-squares slope of log(err) against log(h)."""
    return float(np.polyfit(np.log(hs), np.log(errs), 1)[0])


def convergence_study(params: PotentialParams, m: int, n_list) -> float:
    """Empirical order q of |E0_hat(h) - E0| ~ h^q across the resolutions,
    with E0 the energy of constrained_state's ground state for (params, m)."""
    n_list = sorted(n_list)
    if len(n_list) < 3:
        raise ValueError("convergence study needs at least 3 resolutions")
    e0 = constrained_state(params, m, Level.GROUND).energy
    hs, errs, _ = _error_table(params, m, (e0,), n_list)
    return _order(hs, errs[0])


def richardson(e_coarse: float, h_coarse: float, e_fine: float, h_fine: float) -> float:
    """Second-order Richardson extrapolation of two eigenvalue estimates."""
    rho = (h_coarse / h_fine) ** 2
    return (rho * e_fine - e_coarse) / (rho - 1.0)


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
    """Reproduce the joint configuration numerically and cross-check everything.

    Solves the closed form, discretizes, extracts the two lowest eigenpairs,
    counts nodes, measures the ground/excited overlap and normalization
    constants, and fits the h^2 error model across {n/4, n/2, n}; n >= 64
    keeps the coarsest of those grids at its 16-point minimum or above.
    Scout grids of n/32 and n/16 points, where they reach that minimum, are
    solved first.  The first grid solved has no prediction and is bisected
    from Gershgorin; every later grid, n/4 included once a scout precedes it,
    is predicted from the grids before it (see _error_table) and certified
    by Sturm counts, with bisection only where a prediction misses.  The
    report fails if any |E_hat - E| exceeds 10x the fitted model prediction,
    the node counts differ from (0, 1), or the overlap exceeds 1e-8.
    """
    if n < 64:
        raise ValueError(f"verify needs n >= 64 grid points (its coarsest grid has n // 4), got {n}")
    joint = excited_solve(a, m)
    exact = (joint.e0, joint.e1)
    hs, errs, spectrum = _error_table(joint.params, m, exact, [n // 4, n // 2, n])
    order = _order(hs, errs[0])
    # least-squares fit of err = C h^2, one constant per level
    c = np.sum(errs * hs**2, axis=1) / np.sum(hs**4)

    grid = spectrum.grid
    h_fine, errs_fine = grid.h, errs[:, -1]
    nodes = tuple(node_count(vec) for vec in spectrum.eigenvectors)
    ov = overlap(joint.ground, joint.excited, grid)
    norms = tuple(normalization_constant(state, grid) for state in (joint.ground, joint.excited))
    passed = (
        np.all(errs_fine <= 10.0 * c * h_fine**2)
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
