"""Reference values for the anharm2d benchmark, computed apart from the program.

This module imports nothing from anharm2d. Every value comes from the paper's
formulas, evaluated with numpy and scipy:

- the joint configuration c = ((4 - m^2)/2)^2 / a, b = -6 sqrt(c), with
  exact energies E0 = -2 sqrt(a) and E1 = 6 sqrt(a);
- R0 = r^(-3/2) exp[-(sqrt(a) r^2 + sqrt(c) r^-2)/2] and
  R1 = (sqrt(a) r^2 - sqrt(c) r^-2) r^(1/2) exp[...], in plain numpy;
- the norms of R0 and R1 in Bessel-K closed form;
- the lowest two eigenvalues of the three-point finite-difference operator,
  assembled here and diagonalised by scipy.linalg.eigh_tridiagonal.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.linalg import eigh_tridiagonal
from scipy.special import kv

# Truncation threshold of the program's grid: both tails of the exact states
# are below exp(-T) of their peak scale at r_min and r_max.
TAIL_THRESHOLD = 45.0

STATES = ("ground", "excited")


class JointConfig:
    """The joint ground + excited configuration for given a > 0, m in {0, 1}."""

    def __init__(self, a: float, m: int):
        self.a = a
        self.m = m
        self.c = ((4.0 - m * m) / 2.0) ** 2 / a
        self.b = -6.0 * math.sqrt(self.c)
        self.sqrt_a = math.sqrt(a)
        self.sqrt_c = math.sqrt(self.c)
        self.energies = (-2.0 * self.sqrt_a, 6.0 * self.sqrt_a)
        # r^kappa exponents of R0 and R1: 2 kappa = -3 and 2 kappa1 = 1
        self.kappas = (-1.5, 0.5)
        self.r_min = math.sqrt(self.sqrt_c / (2.0 * TAIL_THRESHOLD))
        self.r_max = math.sqrt(2.0 * TAIL_THRESHOLD / self.sqrt_a)
        # the excited prefactor sqrt(a) r^2 - sqrt(c) r^-2 vanishes here
        self.node_radius = (self.c / a) ** 0.125
        self._norm_integrals = {}
        self._h2_coefficients = {}

    def potential(self, r):
        """V(r) + (m^2 - 1/4)/r^2, the full radial potential."""
        return (
            self.a * r**2 + self.b * r**-4 + self.c * r**-6 + (self.m * self.m - 0.25) / r**2
        )

    def radial(self, state: str, r):
        """Unnormalised R0 or R1 at r > 0."""
        level = STATES.index(state)
        r = np.asarray(r, dtype=float)
        with np.errstate(under="ignore"):
            envelope = np.exp(
                self.kappas[level] * np.log(r) - 0.5 * (self.sqrt_a * r**2 + self.sqrt_c / r**2)
            )
        if level == 0:
            return envelope
        return (self.sqrt_a * r**2 - self.sqrt_c / r**2) * envelope

    def _moment(self, k: float) -> float:
        """Integral over (0, inf) of r^(2k) exp[-(sqrt(a) r^2 + sqrt(c) r^-2)] dr.

        With u = r^2 this is (1/2) int u^(nu-1) exp(-beta u - gamma/u) du,
        nu = k + 1/2, which equals (gamma/beta)^(nu/2) K_nu(2 sqrt(beta gamma)).
        """
        nu = k + 0.5
        return (self.sqrt_c / self.sqrt_a) ** (nu / 2.0) * float(
            kv(nu, 2.0 * math.sqrt(self.sqrt_a * self.sqrt_c))
        )

    def norm_integral(self, state: str) -> float:
        """Integral of R^2 over (0, inf), in Bessel-K closed form.

        The excited square expands to a r^4 - 2 sqrt(ac) + c r^-4 times the
        ground-type envelope with kappa1 = 1/2, three moments with
        2k in {5, 1, -3}.
        """
        if state not in self._norm_integrals:
            if state == "ground":
                value = self._moment(-1.5)
            else:
                value = (
                    self.a * self._moment(2.5)
                    - 2.0 * self.sqrt_a * self.sqrt_c * self._moment(0.5)
                    + self.c * self._moment(-1.5)
                )
            self._norm_integrals[state] = value
        return self._norm_integrals[state]

    def h2_coefficient(self, level: int) -> float:
        """Leading coefficient q of the discretisation error |E_h - E| ~ q h^2.

        The three-point Laplacian misses h^2/12 of the fourth derivative, so
        first-order perturbation theory gives q = <R''^2> / (12 <R^2>), and
        R'' = (W - E) R from the radial equation itself.
        """
        if level not in self._h2_coefficients:
            state = STATES[level]
            energy = self.energies[level]
            span = (0.5 * self.r_min, 2.0 * self.r_max)
            # the states are concentrated around node_radius; quad is told so
            opts = {"limit": 400, "epsrel": 1e-10, "points": [self.node_radius]}
            num = quad(
                lambda r: ((self.potential(r) - energy) * self.radial(state, r)) ** 2, *span, **opts
            )[0]
            den = quad(lambda r: self.radial(state, r) ** 2, *span, **opts)[0]
            self._h2_coefficients[level] = num / den / 12.0
        return self._h2_coefficients[level]


def lowest_two_eigenvalues(r_min: float, r_max: float, n: int, a: float, b: float, c: float, m: int):
    """Two smallest eigenvalues of the Dirichlet three-point operator on the
    uniform grid r_i = r_min + i h, i = 1..n, h = (r_max - r_min)/(n + 1).

    Bisection runs to machine precision (the smallest positive tolerance), not
    to LAPACK's default eps * ||T||, which would grow with 1/h^2.
    """
    h = (r_max - r_min) / (n + 1)
    r = r_min + h * np.arange(1, n + 1)
    diag = 2.0 / h**2 + a * r**2 + b * r**-4 + c * r**-6 + (m * m - 0.25) / r**2
    off = np.full(n - 1, -1.0 / h**2)
    values = eigh_tridiagonal(
        diag,
        off,
        eigvals_only=True,
        select="i",
        select_range=(0, 1),
        tol=np.finfo(float).tiny,
    )
    return float(values[0]), float(values[1]), h
