"""Closed-form bound states for V(r) = a r^2 + b r^-4 + c r^-6 in two dimensions.

Units: hbar = 1, mu = 1/2, so the radial problem after separating the angular
part exp(+-i m phi) and pulling out r^(-1/2) is

    -R'' + [V(r) + (m^2 - 1/4)/r^2] R = E R.

Exact states exist only on a constrained parameter surface: the ground
state's b is ground_constraint_b, constrained_state is the only constructor
of a state (ClosedFormState, the one form of both levels) for any
(a, b, c, m), and excited_solve gives the joint configuration where both
levels are exact.  radial_eval and eigen_residual serve both levels.  All
functions here are pure and accept scalars or numpy arrays for r.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

# Natural-log threshold below which exp() underflows even subnormal doubles;
# evaluators return exactly 0 past it instead of subnormal noise.
UNDERFLOW_LOG = -745.0

# Relative tolerance of the solvability gate in constrained_state.
CONSTRAINT_REL_TOL = 1e-9


class SolvabilityError(ValueError):
    """No closed-form solution exists for the request."""


class ConstraintViolation(SolvabilityError):
    """Supplied (a, b, c, m) are off the exact-solvability surface."""


class SignBranch(enum.Enum):
    """Sign choice in kappa = 1/2 +- sqrt(m^2 + 2 sqrt(ac))."""

    PLUS = "plus"
    MINUS = "minus"


class Level(enum.Enum):
    GROUND = "ground"
    EXCITED = "excited"


@dataclass(frozen=True)
class PotentialParams:
    """Coefficients of V(r) = a r^2 + b r^-4 + c r^-6; a > 0 and c > 0."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        for name, value in (("a", self.a), ("b", self.b), ("c", self.c)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not (self.a > 0.0):
            raise ValueError(f"harmonic coefficient a must be > 0, got {self.a}")
        if not (self.c > 0.0):
            raise ValueError(f"r^-6 coefficient c must be > 0, got {self.c}")

    def evaluate(self, r):
        """V(r) for r > 0 (scalar or array), a new array for an array r.
        r^-4 and r^-6 are u^2 and u^2 u from the one reciprocal u = (1/r)^2,
        which overflows to inf rather than dividing by an underflowed r^2.
        The products are taken in place, so that no more than three arrays
        of len(r) are made."""
        r = _check_positive_radius(r)
        u = 1.0 / r
        u *= u
        out = r * r
        out *= self.a
        v = u * u
        u *= v  # r^-6
        v *= self.b
        out += v
        u *= self.c
        out += u
        return out


def centrifugal_coefficient(m: int) -> float:
    """2D centrifugal coefficient m^2 - 1/4 for angular momentum m >= 0."""
    if not isinstance(m, (int, np.integer)) or m < 0:
        raise ValueError(f"angular momentum m must be a non-negative integer, got {m}")
    try:
        return m * m - 0.25
    except OverflowError:
        raise ValueError("angular momentum m is too large: m^2 is not a finite float") from None


@dataclass(frozen=True)
class ClosedFormState:
    """One exact radial bound state.

    The wavefunction is

        R(r) = (poly_c2 r^2 + poly_c0 + poly_cm2 r^-2)
               * r^kappa * exp[(alpha r^2 + beta r^-2)/2],

    with alpha = -sqrt(a) and beta = -sqrt(c) (both strictly negative so the
    state decays at infinity and at the origin).  The overall scale of the
    polynomial prefactor is free (unnormalized by default).
    """

    kappa: float
    alpha: float
    beta: float
    poly_c2: float
    poly_c0: float
    poly_cm2: float
    energy: float
    level: Level

    def __post_init__(self):
        if not (self.alpha < 0.0 and self.beta < 0.0):
            raise ValueError("alpha and beta must both be negative for a bound state")
        if self.level is Level.GROUND and (self.poly_c2 != 0.0 or self.poly_cm2 != 0.0):
            raise ValueError("ground state must have a constant prefactor")
        if self.level is Level.EXCITED and self.poly_c0 != 0.0:
            raise ValueError("excited state prefactor has no constant term")


def _check_positive_radius(r):
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("radius must be strictly positive")
    return r


def _like(r, out):
    """out, computed at np.atleast_1d(r), as a float when r is a scalar."""
    return float(out[0]) if r.ndim == 0 else out


def ground_constraint_b(a: float, c: float, m: int, branch: SignBranch) -> float:
    """The b that makes the ground ansatz exact for the given kappa branch.

    From 3*beta - 2*beta*kappa = b with beta = -sqrt(c) and
    kappa = 1/2 +- s, s = sqrt(m^2 + 2 sqrt(ac)):

        b = sqrt(c) * (2*kappa - 3) = -2 sqrt(c) +- 2 sqrt(c) * s.

    The product form on the right stays finite wherever b itself is; the
    kappa round-trip would lose a digit.
    """
    centrifugal_coefficient(m)
    two_sqrt_c = 2.0 * math.sqrt(c)
    root = two_sqrt_c * math.sqrt(m * m + 2.0 * math.sqrt(a * c))
    return -two_sqrt_c + (root if branch is SignBranch.PLUS else -root)


def ground_peak_radius(state: ClosedFormState) -> float:
    """Unique stationary point of |R0|: the positive root of
    sqrt(a) r^4 - kappa r^2 - sqrt(c) = 0.  For kappa < 0 the root comes
    from the conjugate form 2 sqrt(c) / (root - kappa), which does not cancel."""
    if state.level is not Level.GROUND:
        raise ValueError("state is not a ground state")
    sqrt_a = -state.alpha
    sqrt_c = -state.beta
    kappa = state.kappa
    root = math.sqrt(kappa**2 + 4.0 * sqrt_a * sqrt_c)
    r_sq = 2.0 * sqrt_c / (root - kappa) if kappa < 0.0 else (kappa + root) / (2.0 * sqrt_a)
    return math.sqrt(r_sq)


def radial_eval(state: ClosedFormState, r):
    """Unnormalized radial wavefunction of either level at r > 0.

    Exactly 0 where the log of r^kappa exp[(alpha r^2 + beta r^-2)/2] is
    below the underflow threshold, so the tails never produce
    NaN/inf/subnormals; the prefactor grows only algebraically, so the
    product is finite everywhere on (0, inf).
    """
    rr = _check_positive_radius(r)
    x = np.atleast_1d(rr)
    # r^2 or r^-2 may overflow to inf for extreme radii; the log-envelope is
    # then -inf (alpha, beta < 0) and the point is clamped to 0, whatever
    # inf or nan the prefactor took there
    with np.errstate(over="ignore", invalid="ignore"):
        x2, xm2 = x**2, x**-2
        t = state.kappa * np.log(x) + 0.5 * (state.alpha * x2 + state.beta * xm2)
        pref = state.poly_c2 * x2 + state.poly_c0 + state.poly_cm2 * xm2
        return _like(rr, np.where(t > UNDERFLOW_LOG, pref * np.exp(t), 0.0))


def eigen_residual(state: ClosedFormState, params: PotentialParams, m: int, r):
    """Node-safe eigen-residual of either level, R = f exp(p):

        f * [p'' + (p')^2 + E - V - (m^2-1/4)/r^2] + f'' + 2 p' f'

    with p = (alpha r^2 + beta r^-2)/2 + kappa ln r and the prefactor
    f = poly_c2 r^2 + poly_c0 + poly_cm2 r^-2.  Identically zero (to
    roundoff) exactly when the ansatz matches (params, m); unlike the
    logarithmic-derivative identity it never divides by f, so it is defined
    at the excited node as well.
    """
    rr = _check_positive_radius(r)
    x = np.atleast_1d(rr)
    p1 = state.alpha * x - state.beta * x**-3 + state.kappa / x
    p2 = state.alpha + 3.0 * state.beta * x**-4 - state.kappa * x**-2
    f = state.poly_c2 * x**2 + state.poly_c0 + state.poly_cm2 * x**-2
    f1 = 2.0 * state.poly_c2 * x - 2.0 * state.poly_cm2 * x**-3
    f2 = 2.0 * state.poly_c2 + 6.0 * state.poly_cm2 * x**-4
    bracket = p2 + p1**2 + state.energy - params.evaluate(x) - centrifugal_coefficient(m) / x**2
    return _like(rr, f * bracket + f2 + 2.0 * p1 * f1)


def constrained_state(params: PotentialParams, m: int, level: Level) -> ClosedFormState:
    """The closed-form state of `level` for explicit parameters: the only
    constructor of a state, with the only kappa and E formulas.

    Raises ValueError, on either level, unless m is a non-negative integer,
    and ConstraintViolation unless b equals the b its level needs to
    CONSTRAINT_REL_TOL, with no absolute term: the ground level compares b
    with ground_constraint_b's b for its kappa branch, relative to
    max(|b|, |that b|, 2 sqrt(c)), or raises if that b overflows; the
    excited level compares b + 6 sqrt(c) with 6 sqrt(c).  The ground branch
    is the sign of b + 2 sqrt(c), which is the +- in ground_constraint_b.
    """
    centrifugal_coefficient(m)  # validates m
    a, b, c = params.a, params.b, params.c
    sqrt_a, sqrt_c = math.sqrt(a), math.sqrt(c)
    s = m * m + 2.0 * math.sqrt(a * c)
    if level is Level.GROUND:
        branch = SignBranch.PLUS if b + 2.0 * sqrt_c >= 0.0 else SignBranch.MINUS
        b_branch = ground_constraint_b(a, c, m, branch)
        if not math.isfinite(b_branch):
            raise ConstraintViolation("the ground-state constraint terms overflow")
        if abs(b - b_branch) > CONSTRAINT_REL_TOL * max(abs(b), abs(b_branch), 2.0 * sqrt_c):
            raise ConstraintViolation(f"ground-state constraint needs b = {b_branch!r}; got b = {b!r}")
        kappa = 0.5 + math.sqrt(s) if branch is SignBranch.PLUS else 0.5 - math.sqrt(s)
        return ClosedFormState(kappa=kappa, alpha=-sqrt_a, beta=-sqrt_c, poly_c2=0.0,
                               poly_c0=1.0, poly_cm2=0.0,
                               energy=(2.0 * kappa + 1.0) * sqrt_a, level=Level.GROUND)
    if abs(b + 6.0 * sqrt_c) > CONSTRAINT_REL_TOL * 6.0 * sqrt_c:
        raise ConstraintViolation(f"excited state requires b = -6*sqrt(c); got b = {b}")
    if abs(s - 4.0) > CONSTRAINT_REL_TOL * 4.0:
        raise ConstraintViolation(f"excited state requires m^2 + 2*sqrt(ac) = 4; got {s:.6g}")
    kappa1 = 0.5 + (b + 6.0 * sqrt_c) / (2.0 * sqrt_c)
    return ClosedFormState(kappa=kappa1, alpha=-sqrt_a, beta=-sqrt_c, poly_c2=sqrt_a,
                           poly_c0=0.0, poly_cm2=-sqrt_c,
                           energy=(2.0 * kappa1 + 5.0) * sqrt_a, level=Level.EXCITED)


@dataclass(frozen=True)
class JointSolution:
    """Parameter set for which both closed-form states are simultaneously exact.

    Every derived value lives on the states: kappa and E0 on ground, kappa1,
    E1 and the prefactor coefficients on excited."""

    params: PotentialParams
    m: int
    ground: ClosedFormState
    excited: ClosedFormState


def excited_solve(a: float, m: int) -> JointSolution:
    """Unique joint configuration with both states exact, given a > 0.

    Combining the excited-state condition b = -6 sqrt(c) with the ground
    constraint forces m^2 + 2 sqrt(ac) = 4, hence

        c = ((4 - m^2) / 2)^2 / a,   b = -6 sqrt(c),
        kappa = -3/2 (Minus branch), kappa1 = 1/2,
        E0 = -2 sqrt(a),             E1 = 6 sqrt(a).

    Only m in {0, 1} is solvable.  Both states come from constrained_state,
    so the pair passes the same gate as an explicit (a, b, c, m).
    """
    if not math.isfinite(a):
        raise ValueError(f"a must be finite, got {a}")
    if not a > 0.0:
        raise ValueError(f"a must be > 0, got {a}")
    centrifugal_coefficient(m)
    if m >= 2:
        raise SolvabilityError(
            f"no joint ground+excited solution for m={m}: "
            "m^2 + 2*sqrt(ac) = 4 would require sqrt(ac) <= 0"
        )
    sqrt_ac = (4.0 - m * m) / 2.0
    c = sqrt_ac**2 / a
    if math.isinf(c):
        raise ValueError(f"a is too small: c = {sqrt_ac**2}/a overflows at a = {a}")
    params = PotentialParams(a=a, b=-6.0 * math.sqrt(c), c=c)
    return JointSolution(
        params=params,
        m=m,
        ground=constrained_state(params, m, Level.GROUND),
        excited=constrained_state(params, m, Level.EXCITED),
    )
