"""Intersection pairings and quadratic relations.

This module computes homology intersection numbers of the cycle basis
attached to a unimodular simplex, the closed-form cohomology intersection
numbers of logarithmic forms in general position, and the resulting
quadratic relations between a Gamma-series and its dual.  The ``verify``
entry points evaluate both sides of a relation numerically and report the
residual.
"""

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (DegenerateParameter, DivergentTail, NotConvergent,
                     NotUnimodular, ZeroDenominator)
from .config import aomoto_gelfand_config, confluent_config, get_config
from .triangulation import (staircase_triangulation,
                            triangulation_from_simplices)
from .series import (_as_simplex, _gamma0, gamma_series_pairs,
                     transformation_matrix, transformation_matrix_dual)
from .specfun import pochhammer, sin_pi_product

_TWO_PI_I = 2j * math.pi


def hankel_intersection(gamma0):
    """Self-pairing factor contributed by an unbounded direction carrying
    the exponential factor: 1 - e^{-2 pi i gamma0}."""
    return 1.0 - cmath.exp(-_TWO_PI_I * complex(gamma0))


def homology_intersection(cfg, sigma, delta):
    """<Gamma_{sigma,0}, dual Gamma_{sigma,0}>_h for a unimodular simplex:
    one product of hankel_intersection factors, each 1 - e^{2 pi i x} taken
    as hankel_intersection(-x)."""
    simplex = _as_simplex(cfg, sigma)
    if abs(simplex.det) != 1:
        raise NotUnimodular(f"sigma={simplex.indices} has |det|="
                            f"{abs(simplex.det)}")
    rows = simplex.inv_float @ np.asarray([complex(x) for x in delta])
    xs = [rows[p] for p in simplex.pos0]
    if len(xs) > 1:
        gamma0 = _gamma0(simplex, delta)
        xs += [gamma0, -gamma0]
    for l in range(1, cfg.k + 1):
        if len(simplex.blocks[l]) > 1:
            xs += [-complex(delta[l - 1])] + [
                rows[p] for p, j in enumerate(simplex.indices)
                if j in simplex.blocks[l]]
    return math.prod(map(hankel_intersection, xs))


# ---------------------------------------------------------------------------
# Cohomology intersection numbers of logarithmic forms.
# ---------------------------------------------------------------------------

def _exponent_product(ctilde, label, J):
    """prod ctilde[j] over sorted J, from the int 1; raises ZeroDenominator
    naming label=J when it vanishes."""
    den = math.prod(ctilde[j] for j in sorted(J))
    if den == 0:
        raise ZeroDenominator(f"vanishing exponent in {label}={J}")
    return den


def matsumoto_ag(J, Jp, ctilde):
    """<omega_J, omega_J'>_ch / (2 pi i)^k for hyperplanes in general
    position with exponents ctilde (index 0 is the hyperplane at infinity)."""
    J = tuple(sorted(J))
    Jp = tuple(sorted(Jp))
    if J == Jp:
        return sum(ctilde[j] for j in J) / _exponent_product(ctilde, "J", J)
    common = set(J) & set(Jp)
    if len(common) == len(J) - 1:
        q = next(p for p, j in enumerate(J) if j not in common)
        p = next(p for p, j in enumerate(Jp) if j not in common)
        return (-1) ** (p + q) / _exponent_product(ctilde, "J cap J'", common)
    return 0.0


def matsumoto_confluent(J, Jp, ctilde):
    """Diagonal cohomology pairing in the presence of an exponential factor;
    the hyperplane at infinity does not contribute."""
    J = tuple(sorted(J))
    Jp = tuple(sorted(Jp))
    if J != Jp:
        return 0.0
    return 1.0 / _exponent_product(ctilde, "J", J)


def ag_ctilde(cfg, delta):
    """Hyperplane exponents (ctilde_0, ..., ctilde_n) from the parameter
    vector delta = (gamma_1..gamma_k, c_1..c_n) of a hyperplane-block
    configuration; ctilde_0 makes the total vanish."""
    gam = tuple(delta[:cfg.k])
    c = tuple(delta[cfg.k:])
    c0 = sum(gam) - sum(c)
    return (c0,) + c + tuple(-g for g in gam)


def ag_zmatrix(cfg, z):
    """The (n_t+1) x (n_t+k+1) coefficient matrix of the linear forms, with
    an identity block in columns 0..n_t.  n_t = cfg.n is the torus rank."""
    nt = cfg.n
    ncols = nt + cfg.k + 1
    mat = np.zeros((nt + 1, ncols), dtype=complex)
    for i in range(nt + 1):
        mat[i][i] = 1.0
    for col, (i, j) in enumerate(cfg.pairs):
        mat[i][j] = complex(z[col])
    return mat


def ag_det_zJ(cfg, z, J):
    mat = ag_zmatrix(cfg, z)
    sub = mat[:, sorted(J)]
    return complex(np.linalg.det(sub))


@dataclass(frozen=True)
class TwistVector:
    """Integer twists (b, a) for the first cocycle and (bp, ap) for the
    second one; the twisted parameters are (gamma - b, c + a) and
    (gamma + bp, c - ap)."""
    b: tuple
    a: tuple
    bp: tuple
    ap: tuple


def zero_twist(cfg):
    return TwistVector(b=(0,) * cfg.k, a=(0,) * cfg.n,
                       bp=(0,) * cfg.k, ap=(0,) * cfg.n)


def ag_twist(cfg, J, Jp):
    """Twist vector realizing the cocycle pair (omega_J / det z_J,
    omega_J' / det z_J') as monomial twists of dx/x."""
    nt = cfg.n
    a = tuple(1 - (1 if i in J else 0) for i in range(1, nt + 1))
    b = tuple(-(1 if nt + l in J else 0) for l in range(1, cfg.k + 1))
    ap = tuple(1 - (1 if i in Jp else 0) for i in range(1, nt + 1))
    bp = tuple(-(1 if nt + l in Jp else 0) for l in range(1, cfg.k + 1))
    return TwistVector(b=b, a=a, bp=bp, ap=ap)


def twisted_deltas(cfg, delta, twist):
    k = cfg.k
    gam = tuple(delta[:k])
    c = tuple(delta[k:])
    dplus = tuple(g - b for g, b in zip(gam, twist.b)) \
        + tuple(x + a for x, a in zip(c, twist.a))
    dminus = tuple(g + b for g, b in zip(gam, twist.bp)) \
        + tuple(x - a for x, a in zip(c, twist.ap))
    return dplus, dminus


def quadratic_prefactor(cfg, delta, twist):
    gam = tuple(complex(delta[l]) for l in range(cfg.k))
    pref = (-1.0) ** ((sum(twist.b) + sum(twist.bp)) % 2)
    for l in range(cfg.k):
        pref *= gam[l]
        pref *= pochhammer(gam[l] - twist.b[l], twist.b[l])
        pref *= pochhammer(-gam[l] - twist.bp[l], twist.bp[l])
    return pref


def condensed_weight(cfg, sigma, delta):
    """pi^d / prod sin(pi * A_sigma^{-1} delta)."""
    simplex = _as_simplex(cfg, sigma)
    v = simplex.inv_float @ np.asarray([complex(x) for x in delta])
    return math.pi ** cfg.d / sin_pi_product(list(v))


def assembled_weight(cfg, sigma, delta, twist):
    """The same per-simplex weight built from the transformation matrices
    and the homology intersection number instead of the closed sine form:

        (2 pi i)^{2 d - n} T_sigma(delta+) T_sigma_dual(delta-) / <G, G'>_h

    divided by the global prefactor of the condensed relation.  For a
    unimodular simplex times the prefactor it must agree with
    condensed_weight."""
    simplex = _as_simplex(cfg, sigma)
    h = homology_intersection(cfg, simplex, delta)
    if abs(h) == 0:
        raise DegenerateParameter("vanishing homology intersection number")
    dplus, dminus = twisted_deltas(cfg, delta, twist)
    t = transformation_matrix(cfg, simplex, dplus)[0][0]
    td = transformation_matrix_dual(cfg, simplex, dminus)[0][0]
    return (_TWO_PI_I) ** (2 * cfg.d - cfg.n) * t * td / h


def _relation_sum(cfg, tri, delta, twist, z, M, weight):
    """sum over simplices of weight(simplex) phi(delta+) phi_dual(delta-).
    The series of all simplices share one pass; each simplex's weight, then
    its pair or the error of its own pass, is taken in turn, so the first
    failure in simplex order is raised."""
    dplus, dminus = twisted_deltas(cfg, delta, twist)
    pairs = gamma_series_pairs(cfg, tri.simplices, z, dplus, dminus, M)
    total = 0j
    for s, pair in zip(tri.simplices, pairs):
        w = weight(s)
        if isinstance(pair, Exception):
            raise pair
        f, fd = pair
        if not (f.trusted and fd.trusted):
            raise DivergentTail(f"untrusted series: sigma={s.indices}, M={M}")
        total += w * f.value * fd.value
    return total


def quadratic_lhs(cfg, tri, delta, twist, z, M):
    """Left hand side of the quadratic relation: prefactor times the sum
    over simplices of pi^d / sin(pi A_sigma^{-1} delta) phi phi_dual with
    twisted parameters."""
    if not tri.unimodular:
        raise NotUnimodular("triangulation is not unimodular")
    if not tri.convergent:
        raise NotConvergent("triangulation is not convergent")
    total = _relation_sum(cfg, tri, delta, twist, z, M,
                          lambda s: condensed_weight(cfg, s, delta))
    return quadratic_prefactor(cfg, delta, twist) * total


def quadratic_lhs_assembled(cfg, tri, delta, twist, z, M):
    """Same quantity computed through the transformation matrices and the
    homology intersection numbers; an independent route used for
    cross-checking."""
    if not tri.unimodular:
        raise NotUnimodular("triangulation is not unimodular")
    return _relation_sum(cfg, tri, delta, twist, z, M,
                         lambda s: assembled_weight(cfg, s, delta, twist))


# ---------------------------------------------------------------------------
# Named verification cases.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RelationReport:
    case: str
    delta: tuple
    z: tuple
    order: int
    lhs: complex
    rhs: complex
    residual: float
    tol: float
    ok: bool


def _uniform(rng, lo, hi):
    return lo + (hi - lo) * float(rng.random())


def _ag_grid_z(cfg, xi):
    """z aligned with cfg.pairs: z_{ij} = prod_{p<=i, q<=j-nt-1} xi[p][q]."""
    nt = cfg.n
    z = []
    for (i, j) in cfg.pairs:
        val = 1.0
        for p in range(1, i + 1):
            for q in range(1, j - nt):
                val *= xi[p - 1][q - 1]
        z.append(val)
    return tuple(z)


def _case_gauss(rng):
    cfg = get_config("gauss")
    alpha = _uniform(rng, 0.15, 0.45)
    beta = _uniform(rng, 0.55, 0.85)
    gamma = _uniform(rng, 1.15, 1.45)
    w = _uniform(rng, 0.25, 0.45)
    delta = (1 + beta - gamma, alpha, beta)
    ct0 = 1 - gamma + alpha
    rhs = (ct0 + beta) / (ct0 * beta)
    tri = staircase_triangulation(cfg)
    return dict(cfg=cfg, tri=tri, delta=delta, twist=zero_twist(cfg),
                z=(1.0, 1.0, -1.0, -w), rhs=rhs, order=60, tol=1e-10)


def _case_kummer(rng):
    cfg = get_config("kummer")
    alpha = _uniform(rng, 0.15, 0.45)
    gamma = _uniform(rng, 1.55, 1.85)
    w = _uniform(rng, 0.25, 0.45)
    delta = (1 + alpha - gamma, alpha)
    tri = staircase_triangulation(cfg)
    return dict(cfg=cfg, tri=tri, delta=delta, twist=zero_twist(cfg),
                z=(1.0, -1.0, w), rhs=1.0 / alpha, order=60, tol=1e-10)


def _case_f1(rng):
    cfg = get_config("f1")
    c1 = _uniform(rng, 0.15, 0.3)
    c2 = _uniform(rng, 0.35, 0.5)
    c3 = _uniform(rng, 0.55, 0.7)
    c4 = _uniform(rng, 0.15, 0.45)
    x = _uniform(rng, 0.1, 0.3)
    y = _uniform(rng, 0.1, 0.3)
    delta = (c1, c2, c3, c4)
    rhs = (c1 + c2 + c3) / (c4 * (c1 + c2 + c3 - c4))
    tri = triangulation_from_simplices(cfg, [(1, 2, 3, 4), (2, 3, 4, 6),
                                             (2, 4, 5, 6)])
    return dict(cfg=cfg, tri=tri, delta=delta, twist=zero_twist(cfg),
                z=(x, 1.0, 1.0, 1.0, y, 1.0), rhs=rhs, order=40, tol=1e-9)


# the residual of phi1 grows as c nears a non-generic value: measured over
# 300 draws, it stays below tol / 100 from a distance of 5e-4 on
_PHI1_MARGIN = 5e-4


def _case_phi1(rng):
    cfg = get_config("phi1")
    g1 = _uniform(rng, 0.15, 0.45)
    g2 = _uniform(rng, 0.55, 0.85)
    # c near g1, g1 + g2 or g1 + g2 - 1 puts an entry of A_sigma^{-1} delta
    # near an integer on (1,3,5), (2,3,4) or (3,4,5): redraw it there
    c = _uniform(rng, 0.15, 0.85)
    while min(abs(c - t) for t in (g1, g1 + g2, g1 + g2 - 1)) < _PHI1_MARGIN:
        c = _uniform(rng, 0.15, 0.85)
    x = _uniform(rng, 0.1, 0.3)
    y = _uniform(rng, 0.1, 0.3)
    delta = (g1, g2, c)
    tri = triangulation_from_simplices(cfg, [(1, 3, 5), (2, 3, 4),
                                             (3, 4, 5)])
    return dict(cfg=cfg, tri=tri, delta=delta, twist=zero_twist(cfg),
                z=(x, 1.0, 1.0, 1.0, y), rhs=1.0 / c, order=40, tol=1e-9)


def _small_params(rng, count, lo=0.1, hi=0.9):
    vals = []
    while len(vals) < count:
        v = _uniform(rng, lo, hi)
        if all(abs(v - u) > 0.04 for u in vals):
            vals.append(v)
    return vals


def _case_e36(rng):
    cfg = get_config("e36")
    c1, c2, c3, c4, c5 = _small_params(rng, 5, 0.12, 0.88)
    delta = (c3, c4, c5, c1, c2)
    xi = [[_uniform(rng, 0.04, 0.06) for _ in range(2)] for _ in range(2)]
    z = _ag_grid_z(cfg, xi)
    c0 = c3 + c4 + c5 - c1 - c2
    if abs(c0) < 0.03:
        return _case_e36(rng)
    rhs = (c0 + c1 + c2) / (c0 * c1 * c2)
    tri = staircase_triangulation(cfg)
    return dict(cfg=cfg, tri=tri, delta=delta, twist=zero_twist(cfg),
                z=z, rhs=rhs, order=24, tol=1e-8)


def _case_e36c(rng):
    cfg = get_config("e36c")
    c1, c2, c3, c4 = _small_params(rng, 4, 0.12, 0.88)
    delta = (c3, c4, c1, c2)
    xi = [[_uniform(rng, 0.04, 0.06) for _ in range(2)] for _ in range(2)]
    z = _ag_grid_z(cfg, xi)
    tri = staircase_triangulation(cfg)
    return dict(cfg=cfg, tri=tri, delta=delta, twist=zero_twist(cfg),
                z=z, rhs=1.0 / (c1 * c2), order=24, tol=1e-8)


def _case_ag(rng):
    k, n = 1, 4
    cfg = aomoto_gelfand_config(k, n)
    ctail = _small_params(rng, n, 0.12, 0.88)
    c = ctail[:k]
    gam = [-x for x in ctail[k:]]
    delta = tuple(gam) + tuple(c)
    # pick a random pair of index sets for the cocycles
    idx = list(range(n + 1))
    J = tuple(sorted(rng.choice(idx, size=k + 1, replace=False).tolist()))
    Jp = tuple(sorted(rng.choice(idx, size=k + 1, replace=False).tolist()))
    xi = [[_uniform(rng, 0.04, 0.08) for _ in range(n - k - 1)]
          for _ in range(k)]
    z = _ag_grid_z(cfg, xi)
    ct = ag_ctilde(cfg, delta)
    rhs = matsumoto_ag(J, Jp, ct) / (ag_det_zJ(cfg, z, J)
                                     * ag_det_zJ(cfg, z, Jp))
    tri = staircase_triangulation(cfg)
    return dict(cfg=cfg, tri=tri, delta=delta, twist=ag_twist(cfg, J, Jp),
                z=z, rhs=rhs, order=30, tol=1e-8)


def _case_confluent(rng):
    k, n = 1, 4
    cfg = confluent_config(k, n)
    ctail = _small_params(rng, n - 1, 0.12, 0.88)
    c = ctail[:k]
    gam = [-x for x in ctail[k:]]
    delta = tuple(gam) + tuple(c)
    xi = [[_uniform(rng, 0.04, 0.08) for _ in range(n - k - 1)]
          for _ in range(k)]
    z = _ag_grid_z(cfg, xi)
    den = 1.0
    for x in c:
        den *= x
    tri = staircase_triangulation(cfg)
    return dict(cfg=cfg, tri=tri, delta=delta, twist=zero_twist(cfg),
                z=z, rhs=1.0 / den, order=30, tol=1e-8)


CASES = {
    "gauss": _case_gauss,
    "kummer": _case_kummer,
    "f1": _case_f1,
    "phi1": _case_phi1,
    "e36": _case_e36,
    "e36c": _case_e36c,
    "ag": _case_ag,
    "confluent": _case_confluent,
}


def case_names():
    return sorted(CASES)


def verify_case(name, seed=0, order=None):
    """Draw generic parameters, evaluate both sides of the quadratic
    relation of the named case, and report the residual."""
    if name not in CASES:
        raise KeyError(f"unknown case {name!r}; choices: {case_names()}")
    rng = np.random.default_rng(seed)
    data = CASES[name](rng)
    M = order if order is not None else data["order"]
    lhs = quadratic_lhs(data["cfg"], data["tri"], data["delta"],
                        data["twist"], data["z"], M)
    rhs = complex(data["rhs"])
    residual = abs(lhs - rhs) / max(abs(rhs), 1.0)
    return RelationReport(case=name, delta=tuple(data["delta"]),
                          z=tuple(map(complex, data["z"])), order=M, lhs=lhs,
                          rhs=rhs, residual=residual, tol=data["tol"],
                          ok=residual < data["tol"])


# ---------------------------------------------------------------------------
# Exact rational coefficient identities.
# ---------------------------------------------------------------------------

def _rising_products(x, n):
    """[(x)_0, (x)_1, ..., (x)_n] for a Fraction x, each from the one
    before: (x)_l = (x)_{l-1} (x + l - 1)."""
    out = [Fraction(1)]
    for i in range(n):
        out.append(out[-1] * (x + i))
    return out


def exact_coefficient_identity(kind, degree, alpha, beta=None, gamma=None):
    """Exact rational check of the degree-n coefficient identity implied by
    the quadratic relation of a classical series; returns LHS - RHS as a
    Fraction (zero when the identity holds).  Term l pairs rising products
    of length l and m = n - l, read off one table per base."""
    n = degree
    if kind == "gauss":
        a, b, g = Fraction(alpha), Fraction(beta), Fraction(gamma)
        (pa, pb, pg, p1, pna, pnb, p2g, pga, pgb, pa1, pb1) = (
            _rising_products(x, n)
            for x in (a, b, g, Fraction(1), -a, -b, 2 - g, g - a - 1,
                      g - b - 1, 1 - g + a, 1 - g + b))
        lhs = Fraction(0)
        rhs = Fraction(0)
        for l in range(n + 1):
            m = n - l
            lhs += (pa[l] * pb[l] / (pg[l] * p1[l])
                    * pna[m] * pnb[m] / (p2g[m] * p1[m]))
            rhs += (pga[l] * pgb[l] / (pg[l] * p1[l])
                    * pa1[m] * pb1[m] / (p2g[m] * p1[m]))
        return (1 - g + a) * (1 - g + b) * lhs - a * b * rhs
    if kind == "kummer":
        a, g = Fraction(alpha), Fraction(gamma)
        (pa, pna, pg, p2g, p1, pag, pga) = (
            _rising_products(x, n)
            for x in (a, -a, g, 2 - g, Fraction(1), 1 + a - g, g - a - 1))
        s1 = Fraction(0)
        s2 = Fraction(0)
        for l in range(n + 1):
            m = n - l
            sign = -1 if m % 2 else 1
            s1 += (sign * pa[l] * pna[m]
                   / (pg[l] * p1[l] * p2g[m] * p1[m]))
            s2 += (sign * pag[l] * pga[m]
                   / (p2g[l] * p1[l] * pg[m] * p1[m]))
        return (g - a - 1) * s1 + a * s2
    raise KeyError(f"unknown identity kind {kind!r}")


# ---------------------------------------------------------------------------
# Period matrix check.
# ---------------------------------------------------------------------------

def period_relation_matrix_check(cfg, tri, delta, Jlist, z, M):
    """For a hyperplane-block configuration, check the full matrix of
    quadratic relations over all pairs of cocycles omega_J / det(z_J) with
    J in Jlist; returns the maximum entrywise residual."""
    ct = ag_ctilde(cfg, delta)
    worst = 0.0
    for J in Jlist:
        for Jp in Jlist:
            twist = ag_twist(cfg, J, Jp)
            lhs = quadratic_lhs(cfg, tri, delta, twist, z, M)
            rhs = matsumoto_ag(J, Jp, ct) / (ag_det_zJ(cfg, z, J)
                                             * ag_det_zJ(cfg, z, Jp))
            worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1.0))
    return worst
