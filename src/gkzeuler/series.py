"""Truncated evaluation of the Gamma-series and dual Gamma-series attached
to a simplex, convergence-domain point sampling, and the simplex
transformation matrices.

Terms are evaluated in log-space (complex log-Gamma, once per distinct
argument) over blocks of consecutive shells of the graded-lex order, and
summed shell by shell with compensated accumulation, so results are
deterministic.  All complex powers use the principal logarithm.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, loggamma

from .errors import (BadDimensions, DivergentTail, NonGenericParameter,
                     ScaleTooSmall)
from . import intlinalg
from .config import is_very_generic
from .specfun import gamma
from .triangulation import Simplex, make_simplex

_POLE_TOL = 1e-12
_BLOCK_ROWS = 4096   # rows of W evaluated in one vectorised pass


@dataclass(frozen=True)
class SeriesValue:
    value: complex
    order: int
    terms_summed: int
    last_shell_max: float
    shell_maxes: tuple      # max |term| per shell (diagnostic)
    exponent: tuple         # prefactor exponent on z_sigma, aligned with sigma
    series_abs: float       # |sum of the terms|, before the z_sigma prefactor

    @property
    def trusted(self):
        # the shells are compared with the sum they add to: the prefactor
        # z_sigma^(-+u0) scales the value, not the convergence of the terms
        return self.last_shell_max < 1e-3 * max(self.series_abs, 1e-300)


def _as_simplex(cfg, sigma):
    if isinstance(sigma, Simplex):
        return sigma
    return make_simplex(cfg, sigma)


def lattice_shells(cfg, sigma, kvec, M):
    """All w = k + m in Lambda_k with |w| <= M, grouped by graded degree.

    Yields (degree, ndarray of shape (count, |sigma_bar|)) with rows in lex
    order; rows satisfy the exact congruence A_sigma_bar (w - k) in Z A_sigma.
    """
    simplex = _as_simplex(cfg, sigma)
    q, r, C_int = len(simplex.bar), simplex.r, simplex.C_int
    kvec = np.array(kvec if kvec is not None else [0] * q, dtype=object)
    for deg, W in intlinalg.graded_lex_shells(q, M):
        if r > 1:
            W = W[((W - kvec) @ C_int.T % r == 0).all(axis=1)]
        yield deg, W


def _blocks(shells):
    """Consecutive shells in lists of at most _BLOCK_ROWS rows; a larger
    shell forms a list alone."""
    block = []
    for _, W in shells:
        if block and sum(map(len, block)) + len(W) > _BLOCK_ROWS:
            yield block
            block = []
        block.append(W)
    if block:
        yield block


@np.errstate(over="ignore", invalid="ignore")   # checked: value is finite
def _sum_series(cfg, simplex, kvec, z, delta, M, dual):
    sigma, sigma_bar, C = simplex.indices, simplex.bar, simplex.C_float
    q = len(sigma_bar)
    if M < 0:
        raise BadDimensions(f"order must be >= 0, got {M}")
    if kvec is not None and len(kvec) != q:
        raise BadDimensions(f"kvec needs {q} entries, one per column "
                            f"outside sigma={sigma}, got {len(kvec)}")
    if any(x == 0 for x in z):
        raise BadDimensions("z lies in (C*)^N: no entry may be zero")
    if not all(cmath.isfinite(x) for x in (*z, *delta)):
        raise BadDimensions("z and delta need finite entries")
    if not is_very_generic(simplex, delta):
        raise NonGenericParameter(
            f"delta={delta} hits an integer entry for sigma={sigma}")
    z = np.asarray([complex(x) for x in z])
    delta_c = np.asarray([complex(x) for x in delta])
    logz = np.log(z)
    u0 = (simplex.inv_float @ delta_c[:, None]).ravel()  # A_sigma^{-1} delta
    logz_sigma = np.array([logz[j - 1] for j in sigma])
    logx = np.array([logz[j - 1] for j in sigma_bar]) \
        - (C.T @ logz_sigma[:, None]).ravel()
    sign = -1.0 if not dual else 1.0
    prefactor_exponent = tuple(sign * u0)
    log_prefactor = sign * complex(u0 @ logz_sigma)

    if dual:
        # positions of sigma_bar cap I_0 inside sigma_bar
        bar0 = [p for p, j in enumerate(sigma_bar) if j in cfg.blocks[0]]
        srow = C[simplex.pos0, :].sum(axis=0)
    c = 1.0 + u0 if dual else 1.0 - u0
    log_factorial = gammaln(np.arange(M + 1) + 1.0)

    total = 0j
    comp = 0j     # Kahan compensation across shells
    terms = 0
    shell_maxes = []
    for block in _blocks(lattice_shells(cfg, simplex, kvec, M)):
        W = np.concatenate(block)
        Wf = W.astype(float)
        WC = Wf @ C.T
        logt = Wf @ logx - log_factorial[W].sum(axis=1)
        # The Gamma arguments E = c - WC take one log-Gamma per distinct entry
        # of a column of WC; terms that land on a Gamma pole are snapped to 0
        lg, dead = [], False
        for i in range(len(c)):
            wc, inv = np.unique(WC[:, i], return_inverse=True)
            E = c[i] - wc
            pole = (np.abs(E.real - np.rint(E.real)) <= _POLE_TOL) \
                & (np.abs(E.imag) <= _POLE_TOL) & (np.rint(E.real) <= 0)
            lg.append(loggamma(np.where(pole, 1.0, E))[inv])
            dead = dead | pole[inv]
        logt -= np.column_stack(lg).sum(axis=1)
        if dual:
            logt += 1j * math.pi * (Wf[:, bar0].sum(axis=1) if bar0 else 0.0)
            logt += 1j * math.pi * (Wf @ srow)
        t = np.exp(logt)
        t[dead] = 0.0
        ends = np.cumsum([len(shell) for shell in block])
        for ts in np.split(t, ends[:-1]):
            if len(ts) == 0:
                shell_maxes.append(0.0)
                continue
            shell_sum = complex(ts.sum())
            shell_maxes.append(float(np.max(np.abs(ts))))
            terms += len(ts)
            y = shell_sum - comp
            new_total = total + y
            comp = (new_total - total) - y
            total = new_total
    value = cmath.exp(log_prefactor) * total
    if not cmath.isfinite(value):
        raise DivergentTail(f"a term or the sum is not finite at "
                            f"sigma={sigma}")
    tail = [x for x in shell_maxes if x > 0][-3:]
    if len(tail) == 3 and tail[0] < tail[1] < tail[2]:
        raise DivergentTail(
            f"shell maxima increasing at sigma={sigma}: {tail}")
    return SeriesValue(value=value, order=M, terms_summed=terms,
                       last_shell_max=shell_maxes[-1] if shell_maxes else 0.0,
                       shell_maxes=tuple(shell_maxes),
                       exponent=prefactor_exponent, series_abs=abs(total))


def gamma_series(cfg, sigma, kvec, z, delta, M):
    """phi_{sigma,k}(z; delta) truncated at graded degree M."""
    return _sum_series(cfg, _as_simplex(cfg, sigma), kvec, z, delta, M,
                       dual=False)


def dual_gamma_series(cfg, sigma, kvec, z, delta, M):
    """phi^vee_{sigma,k}(z; delta) truncated at graded degree M."""
    return _sum_series(cfg, _as_simplex(cfg, sigma), kvec, z, delta, M,
                       dual=True)


def sample_point_in_UT(cfg, tri, t=5.0):
    """z_j = exp(-t * omega_j / max|omega|) for the triangulation's lifting;
    verifies that every series ratio magnitude is below 0.1."""
    omega = tri.omega
    if not omega:
        raise ScaleTooSmall("triangulation carries no lifting vector")
    scale = max(abs(w) for w in omega) or 1
    z = [math.exp(-t * w / scale) for w in omega]
    logz = [math.log(x) for x in z]
    for s in tri.simplices:
        for p, j in enumerate(s.bar):
            lr = logz[j - 1] - sum(s.C_float[i][p] * logz[s.indices[i] - 1]
                                   for i in range(cfg.d))
            if math.exp(lr) >= 0.1:
                raise ScaleTooSmall(
                    f"ratio {math.exp(lr):.3g} at sigma={s.indices}, j={j}; "
                    f"increase t")
    return tuple(z)


# ---------------------------------------------------------------------------
# Simplex transformation data.
# ---------------------------------------------------------------------------

def sgn_A_sigma(cfg, sigma):
    """(-1)^{k|s^(0)| + (k-1)|s^(1)| + ... + |s^(k-1)| + k(k-1)/2}."""
    simplex = _as_simplex(cfg, sigma)
    k = cfg.k
    expo = sum((k - l) * len(simplex.blocks[l]) for l in range(k)) \
        + k * (k - 1) // 2
    return -1 if expo % 2 else 1


def _sigma0_rowsum(simplex):
    """sum_{i in sigma^(0)} e_i^T A_sigma^{-1} as a float row vector."""
    return simplex.inv_float[simplex.pos0, :].sum(axis=0)


def epsilon_sigma(cfg, sigma, delta, kvec=None):
    """1 when |sigma^(0)| <= 1, else
    1 - exp(-2 pi i sum_{i in sigma^(0)} e_i^T A_sigma^{-1}(delta + A_bar k))."""
    simplex = _as_simplex(cfg, sigma)
    if len(simplex.blocks[0]) <= 1:
        return 1.0 + 0j
    dvec = np.asarray([complex(x) for x in delta])
    if kvec is not None and any(kvec):
        Abar = np.array(cfg.submatrix(simplex.bar), dtype=float)
        dvec = dvec + Abar @ np.asarray(kvec, dtype=float)
    row = _sigma0_rowsum(simplex)
    return 1.0 - cmath.exp(-2j * math.pi * complex(row @ dvec))


def _scalar_prefactor(cfg, simplex, delta, dual):
    k = cfg.k
    gam = [complex(delta[l]) for l in range(k)]
    sgn = sgn_A_sigma(cfg, simplex)
    num = complex(sgn)
    den = complex(simplex.det)
    for l in range(1, k + 1):
        g = gam[l - 1]
        single = len(simplex.blocks[l]) == 1
        if dual:
            num *= cmath.exp(1j * math.pi * g) if single \
                else cmath.exp(-1j * math.pi * (1 + g))
            den *= gamma(-g)
            if single:
                den *= (1 - cmath.exp(2j * math.pi * g))
        else:
            num *= cmath.exp(-1j * math.pi * g) if single \
                else cmath.exp(-1j * math.pi * (1 - g))
            den *= gamma(g)
            if single:
                den *= (1 - cmath.exp(-2j * math.pi * g))
    if dual:
        row = _sigma0_rowsum(simplex)
        dvec = np.asarray([complex(x) for x in delta])
        num *= cmath.exp(-1j * math.pi * complex(row @ dvec))
    return num / den


def transformation_matrix(cfg, sigma, delta):
    """The r x r matrix T_sigma relating the cycle values f_{sigma,k~} to
    the Gamma-series phi_{sigma,k}."""
    return _transformation(cfg, sigma, delta, dual=False)


def transformation_matrix_dual(cfg, sigma, delta):
    return _transformation(cfg, sigma, delta, dual=True)


def _transformation(cfg, sigma, delta, dual):
    simplex = _as_simplex(cfg, sigma)
    if not is_very_generic(simplex, delta):
        raise NonGenericParameter(
            f"delta={delta} is not very generic for sigma={simplex.indices}")
    r, C = simplex.r, simplex.C_float
    kreps = intlinalg.coset_representatives(simplex.C, r)
    ktreps = intlinalg.coset_representatives(
        [list(col) for col in zip(*simplex.inv)], r)
    u0 = simplex.inv_float @ np.asarray([complex(x) for x in delta])
    sgn_phase = -1.0 if dual else 1.0
    diag1 = [cmath.exp(sgn_phase * 2j * math.pi
                       * complex(np.asarray(kt, dtype=float) @ u0))
             for kt in ktreps]
    X = [[cmath.exp(2j * math.pi
                    * float(np.asarray(kt, dtype=float) @ (C @ np.asarray(kv, dtype=float))))
          for kv in kreps] for kt in ktreps]
    sdelta = [-x for x in delta] if dual else delta
    diag2 = [epsilon_sigma(cfg, simplex, sdelta, kv) for kv in kreps]
    scal = _scalar_prefactor(cfg, simplex, delta, dual)
    return [[scal * diag1[i] * X[i][j] * diag2[j] for j in range(r)]
            for i in range(r)]
