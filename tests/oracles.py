"""Independent reference implementations that only the tests use: the
classical quadratic relations of the Gauss and Kummer series by direct
truncated summation, a cofactor-expansion determinant, the Pochhammer
reflection identity, the lifting criterion in Fraction arithmetic, a
recursive graded-lex enumerator and the Gamma-series summed one shell at a
time."""

import cmath
import math
from fractions import Fraction
from itertools import combinations

import numpy as np
from scipy.special import gammaln, loggamma

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


def graded_lex_recursive(dim, degree):
    """All nonnegative integer vectors of length dim and the given degree,
    as tuples in lexicographically decreasing order, by recursion on the
    first coordinate."""
    if dim == 0:
        if degree == 0:
            yield ()
        return
    if dim == 1:
        yield (degree,)
        return
    for first in range(degree, -1, -1):
        for rest in graded_lex_recursive(dim - 1, degree - first):
            yield (first,) + rest


def series_by_shell(cfg, simplex, kvec, z, delta, M, dual):
    """The truncated Gamma-series (or its dual) of a simplex, evaluated one
    shell of graded degree at a time, with log-Gamma taken on every entry of
    the Gamma arguments E.  Returns (value, shell_maxes, terms_summed,
    series_abs) as gkzeuler.series computes them; inputs are not checked."""
    sigma, sigma_bar, C = simplex.indices, simplex.bar, simplex.C_float
    q = len(sigma_bar)
    z = np.asarray([complex(x) for x in z])
    delta_c = np.asarray([complex(x) for x in delta])
    logz = np.log(z)
    u0 = (simplex.inv_float @ delta_c[:, None]).ravel()
    logz_sigma = np.array([logz[j - 1] for j in sigma])
    if q:
        logx = np.array([logz[j - 1] for j in sigma_bar]) \
            - (C.T @ logz_sigma[:, None]).ravel()
    else:
        logx = np.zeros(0, dtype=complex)
    sign = -1.0 if not dual else 1.0
    log_prefactor = sign * complex(u0 @ logz_sigma)
    if dual:
        bar0 = [p for p, j in enumerate(sigma_bar) if j in cfg.blocks[0]]
        srow = C[simplex.pos0, :].sum(axis=0)
    kvec = np.array(kvec if kvec is not None else [0] * q, dtype=object)
    total = 0j
    comp = 0j
    terms = 0
    shell_maxes = []
    for deg in range(M + 1):
        rows = list(graded_lex_recursive(q, deg))
        W = np.array(rows, dtype=np.int64).reshape(len(rows), q)
        if simplex.r > 1:
            W = W[((W - kvec) @ simplex.C_int.T % simplex.r == 0).all(axis=1)]
        if len(W) == 0:
            shell_maxes.append(0.0)
            continue
        Wf = W.astype(float)
        if dual:
            E = 1.0 + u0[None, :] - Wf @ C.T
        else:
            E = 1.0 - u0[None, :] - Wf @ C.T
        logt = Wf @ logx - gammaln(Wf + 1.0).sum(axis=1)
        logt = logt.astype(complex)
        near = np.abs(E.real - np.rint(E.real)) <= 1e-12
        pole = near & (np.abs(E.imag) <= 1e-12) & (np.rint(E.real) <= 0)
        dead = pole.any(axis=1)
        logt -= loggamma(np.where(pole, 1.0, E)).sum(axis=1)
        if dual:
            logt += 1j * math.pi * (Wf[:, bar0].sum(axis=1) if bar0 else 0.0)
            logt += 1j * math.pi * (Wf @ srow)
        t = np.exp(logt)
        t[dead] = 0.0
        shell_sum = complex(t.sum())
        shell_maxes.append(float(np.max(np.abs(t))))
        terms += len(t)
        y = shell_sum - comp
        new_total = total + y
        comp = (new_total - total) - y
        total = new_total
    value = cmath.exp(log_prefactor) * total
    return value, tuple(shell_maxes), terms, abs(total)
