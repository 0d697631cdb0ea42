"""Independent reference implementations that only the tests use: the
classical quadratic relations of the Gauss and Kummer series by direct
truncated summation, a cofactor-expansion determinant, the Pochhammer
reflection identity, and the lifting criterion in Fraction arithmetic."""

import cmath
import math
from fractions import Fraction
from itertools import combinations

from gkzeuler import intlinalg, specfun
from gkzeuler.errors import DegenerateLifting, SingularMatrix


def _hyp2f1(a, b, c, w, M):
    val = 0j
    term = 1.0 + 0j
    for m in range(M + 1):
        val += term
        term *= (a + m) * (b + m) / ((c + m) * (m + 1)) * w
    return val


def _hyp1f1(a, c, w, M):
    val = 0j
    term = 1.0 + 0j
    for m in range(M + 1):
        val += term
        term *= (a + m) / ((c + m) * (m + 1)) * w
    return val


def gauss_relation_residual(alpha, beta, gamma, w, M=60):
    """Residual of the classical quadratic relation between products of
    Gauss series evaluated by direct truncated summation."""
    lhs = ((1 - gamma + alpha) * (1 - gamma + beta)
           * _hyp2f1(alpha, beta, gamma, w, M)
           * _hyp2f1(-alpha, -beta, 2 - gamma, w, M)
           - alpha * beta
           * _hyp2f1(gamma - alpha - 1, gamma - beta - 1, gamma, w, M)
           * _hyp2f1(1 - gamma + alpha, 1 - gamma + beta, 2 - gamma, w, M))
    rhs = (1 - gamma + alpha + beta) * (1 - gamma)
    return abs(lhs - rhs) / max(abs(rhs), 1.0)


def kummer_relation_residual(alpha, gamma, w, M=60):
    """Residual of the classical quadratic relation between products of
    confluent series evaluated by direct truncated summation."""
    lhs = ((gamma - alpha - 1) * _hyp1f1(alpha, gamma, w, M)
           * _hyp1f1(-alpha, 2 - gamma, -w, M)
           + alpha * _hyp1f1(1 + alpha - gamma, 2 - gamma, w, M)
           * _hyp1f1(gamma - alpha - 1, gamma, -w, M))
    rhs = gamma - 1
    return abs(lhs - rhs) / max(abs(rhs), 1.0)


def det_cofactor(M):
    """Determinant by cofactor expansion."""
    n = len(M)
    if n == 0:
        return 1
    if n == 1:
        return M[0][0]
    total = 0
    for j in range(n):
        if M[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in M[1:]]
        total += (-1) ** j * M[0][j] * det_cofactor(minor)
    return total


def pochhammer_reflection_check(gamma_val, m):
    """Residual of the reflection identity
    (g)_m = 2 pi i e^{-pi i g} (-1)^m / (Gamma(g) Gamma(1-g-m) (1-e^{-2 pi i g})).
    """
    g = complex(gamma_val)
    lhs = specfun.pochhammer(g, m)
    rhs = (2j * math.pi * cmath.exp(-1j * math.pi * g) * (-1) ** m
           / (specfun.gamma(g) * specfun.gamma(1 - g - m)
              * (1 - cmath.exp(-2j * math.pi * g))))
    return abs(lhs - rhs)


def regular_cells(cfg, omega):
    """Index sets of the cells of T(omega): sigma is a cell iff the row
    m = omega_sigma A_sigma^{-1} gives m a(j) < omega_j for every column
    a(j) outside sigma.  Raises DegenerateLifting at the first equality met,
    scanning sigma in lex order and j outside it in ascending order."""
    omega = [Fraction(w) for w in omega]
    cells = set()
    for sigma in combinations(range(1, cfg.N + 1), cfg.d):
        try:
            inv, _ = intlinalg.rat_inverse(cfg.submatrix(sigma))
        except SingularMatrix:
            continue
        m = intlinalg.mat_vec(list(zip(*inv)), [omega[i - 1] for i in sigma])
        for j in range(1, cfg.N + 1):
            if j in sigma:
                continue
            val = sum(m[r] * cfg.matrix[r][j - 1] for r in range(cfg.d))
            if val == omega[j - 1]:
                raise DegenerateLifting(f"equality at sigma={sigma}, j={j}")
            if val > omega[j - 1]:
                break
        else:
            cells.add(sigma)
    return frozenset(cells)
