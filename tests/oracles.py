"""Independent reference implementations that only the tests use: the
classical quadratic relations of the Gauss and Kummer series by direct
truncated summation, the exact rational rising product, a cofactor-expansion
determinant, the Pochhammer reflection identity, the Aomoto-Gelfand and
confluent configurations built in the full basis e(0), ..., e(n), the
lifting criterion in Fraction arithmetic, the secondary-fan scan with one
validation per lifting, the random-ray test one ray and one simplex at a
time, a recursive graded-lex enumerator and the coset search over it, the
recursive ladder walk and the staircase index sets built from it, the
Gamma-series summed one shell at a time and the Gamma-series summed term by
term in mpmath with exact Gamma arguments; series_pair, the pair of series
of one simplex read off the stacked series pass, and the relation sum one
simplex at a time; the complex Gamma function behind the pole test; and the
assembled route to the relation weight, which the library computes only in
its condensed sine form: the transformation matrices T_sigma and
T_sigma^vee, the homology intersection number and their product."""

import cmath
import math
import random
from fractions import Fraction
from itertools import combinations, product

import mpmath
import numpy as np
import scipy.special
from scipy.special import gammaln, loggamma

from gkzeuler import intersection, intlinalg, series, specfun, triangulation
from gkzeuler.config import is_very_generic
from gkzeuler.errors import (DegenerateLifting, DegenerateParameter,
                             DivergentTail, ExhaustedRetries,
                             NonGenericParameter, NotATriangulation,
                             NotUnimodular, PoleAtNonpositiveInteger,
                             SingularMatrix)


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


def pochhammer_exact(alpha, m):
    """Exact rational rising product (alpha)_m for Fraction alpha and
    integer m (m may be negative), by the product specfun.pochhammer takes
    for an integer shift."""
    return specfun._rising(Fraction(alpha), m)


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


def gamma(z):
    """Gamma(z) for complex z: scipy's complex Gamma behind the pole test
    of the series pass (specfun._poles), as scipy returns nan at a pole.
    Raises PoleAtNonpositiveInteger at the poles."""
    z = complex(z)
    if specfun._poles(np.array([z]))[0]:
        raise PoleAtNonpositiveInteger(f"Gamma pole at z={z}")
    return complex(scipy.special.gamma(z))


def pochhammer_reflection_check(gamma_val, m):
    """Residual of the reflection identity
    (g)_m = 2 pi i e^{-pi i g} (-1)^m / (Gamma(g) Gamma(1-g-m) (1-e^{-2 pi i g})).
    """
    g = complex(gamma_val)
    lhs = specfun.pochhammer(g, m)
    rhs = (2j * math.pi * cmath.exp(-1j * math.pi * g) * (-1) ** m
           / (gamma(g) * gamma(1 - g - m)
              * (1 - cmath.exp(-2j * math.pi * g))))
    return abs(lhs - rhs)


def pair_config_oracle(k, n, confluent):
    """(matrix, blocks, pairs, name) of aomoto_gelfand_config(k, n), or of
    confluent_config(k, n), as their docstrings define them.  Each column is
    built in the full basis e(0), ..., e(n): e(i) + e(j) for 0 <= i <= k <
    j <= n (j <= n - 1 when confluent), i outer and j inner, then, when
    confluent, -e(0) + e(i) labelled (i, n) for i = 1..k.  The rows kept
    are e_{k+1}, ..., e_top, then e_1, ..., e_k, top = n (n - 1 when
    confluent); e(0) and, when confluent, e(n) are projected away.  Block
    l >= 1 holds the columns with j = k + l, block 0 the columns (i, n) of
    the confluent family."""
    top = n - 1 if confluent else n
    pairs = [(i, j) for i in range(k + 1) for j in range(k + 1, top + 1)]
    if confluent:
        pairs += [(i, n) for i in range(1, k + 1)]
    full = np.zeros((n + 1, len(pairs)), dtype=int)
    for c, (i, j) in enumerate(pairs):
        if confluent and j == n:
            full[0, c] -= 1
            full[i, c] += 1
        else:
            full[i, c] += 1
            full[j, c] += 1
    rows = [*range(k + 1, top + 1), *range(1, k + 1)]
    matrix = tuple(tuple(int(x) for x in full[r]) for r in rows)
    blocks = tuple(tuple(c + 1 for c, (_, j) in enumerate(pairs) if j == b)
                   for b in [n if confluent else None, *range(k + 1, top + 1)])
    name = f"confluent({k},{n})" if confluent else f"ag({k},{n})"
    return matrix, blocks, tuple(pairs), name


def ladders_recursive(k, n):
    """The monotone staircase paths from (k, k+1) to (0, n), by a depth-first
    walk that tries the decrement of i before the increment of j."""
    out = []

    def walk(path):
        i, j = path[-1]
        if (i, j) == (0, n):
            out.append(tuple(path))
            return
        if i > 0:
            walk(path + [(i - 1, j)])
        if j < n:
            walk(path + [(i, j + 1)])

    walk([(k, k + 1)])
    return out


def staircase_index_sets(cfg, k, n, confluent):
    """The 1-based column index sets of the ladders of ladders_recursive(k,
    n) in cfg, whose column c carries the label cfg.pairs[c - 1]; a
    confluent ladder leaves out its (0, n) cell."""
    pos = {p: c + 1 for c, p in enumerate(cfg.pairs)}
    return sorted(tuple(sorted(pos[c] for c in lad
                               if not (confluent and c == (0, n))))
                  for lad in ladders_recursive(k, n))


def series_pair(cfg, simplex, z, delta_plus, delta_minus, M):
    """(phi_{sigma,0}(z; delta_plus), phi^vee_{sigma,0}(z; delta_minus)) of
    one simplex, from series.gamma_series_pairs; raises the simplex's
    error."""
    pair, = series.gamma_series_pairs(cfg, [simplex], z, delta_plus,
                                      delta_minus, M)
    if isinstance(pair, Exception):
        raise pair
    return tuple(pair)


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
        m = np.array(inv, dtype=object).T \
            @ np.array([omega[i - 1] for i in sigma], dtype=object)
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


def scan_by_triangulate(cfg, samples, seed):
    """The secondary-fan scan as one validated triangulate call per random
    lifting, keeping the first triangulation seen of each index set."""
    rng = random.Random(seed)
    seen = {}
    for _ in range(samples):
        omega = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(cfg.N)]
        try:
            tri = triangulation.triangulate(cfg, omega)
        except (DegenerateLifting, NotATriangulation):
            continue
        seen.setdefault(tri.index_sets(), tri)
    return list(seen.values())


def ray_test_sequential(cfg, simplices, rng):
    """The random-ray multiplicity test one ray and one simplex at a time:
    each of 200 random rays A lambda, lambda > 0, must lie strictly inside
    exactly one simplicial cone.  In cone(A_sigma) the ray has coordinates
    lambda_sigma + C lambda_sigma-bar; r times them are integers.  A ray on
    a cone's boundary is drawn again, up to 2000 draws in all."""
    done = 0
    for _ in range(2000):
        # lambda_j = p / q with q <= 7, scaled by 420 = lcm(1..7)
        lam = [rng.randint(1, 1000) * (420 // rng.randint(1, 7))
               for _ in range(cfg.N)]
        hits = 0
        boundary = False
        for s in simplices:
            lam_bar = np.array([lam[j - 1] for j in s.bar], dtype=object)
            x = s.C_int @ lam_bar + [s.r * lam[j - 1] for j in s.indices]
            if (x == 0).any():
                boundary = True
                break
            if (x > 0).all():
                hits += 1
        if boundary:
            continue
        if hits != 1:
            return False
        done += 1
        if done == 200:
            return True
    raise ExhaustedRetries(f"{done} of 200 rays off the cone boundaries")


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


def coset_representatives_by_search(M, r):
    """The first r distinct residues (M k) mod r over k in
    graded_lex_recursive order, each with the first k that gives it, for an
    integer d x q matrix M.  As M k mod r depends on k mod r only, every
    class that appears at all appears with each k_j <= r - 1, so by degree
    q (r - 1); raises ExhaustedRetries when fewer than r appear by then.

    A simplex needs two such sets, with r = |det A_sigma|: M = C_int =
    r A_sigma^{-1} A_{sigma-bar} gives the classes [A_{sigma-bar} k] of
    Z^d / Z A_sigma, and M = r A_sigma^{-T} those of Z^sigma / Z A_sigma^T;
    both have r classes."""
    reps, seen = [], set()
    for degree in range(len(M[0]) * (r - 1) + 1):
        for k in graded_lex_recursive(len(M[0]), degree):
            residue = tuple(sum(a * b for a, b in zip(row, k)) % r
                            for row in M)
            if residue not in seen:
                seen.add(residue)
                reps.append(list(k))
                if len(reps) == r:
                    return reps
    raise ExhaustedRetries(f"found {len(reps)} of {r} classes")


def split_shells(W, bounds):
    """The shells W[bounds[deg]:bounds[deg + 1]] of a graded-lex array, as a
    list indexed by degree."""
    return [W[a:b] for a, b in zip(bounds, bounds[1:])]


def series_by_shell(cfg, simplex, kvec, z, delta, M, dual):
    """The truncated Gamma-series (or its dual) of a simplex, evaluated one
    shell of graded degree at a time, with log-Gamma taken on every entry of
    the Gamma arguments E = c - K / r, K = C_int w in integers.  Returns (value, shell_maxes, terms_summed,
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
        K = W @ simplex.C_int.astype(np.int64).T
        if dual:
            E = 1.0 + u0[None, :] - K / simplex.r
        else:
            E = 1.0 - u0[None, :] - K / simplex.r
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


def series_by_direct_sum(cfg, simplex, kvec, z, delta, M, dual):
    """The truncated Gamma-series (or its dual) of a simplex, term by term in
    30-digit mpmath over w in the box [0, M]^q with |w| <= M.  C = A_sigma^{-1}
    A_sigma_bar, the congruence C (w - k) in Z^d and the parts C w of the
    Gamma arguments 1 -+ u0 - C w are exact Fractions."""
    sigma_bar = [j for j in range(1, cfg.N + 1) if j not in simplex.indices]
    q, d = len(sigma_bar), cfg.d
    inv, _ = intlinalg.rat_inverse(cfg.submatrix(simplex.indices))
    C = np.array(inv, dtype=object) \
        @ np.array(cfg.submatrix(sigma_bar), dtype=object)
    kvec = list(kvec) if kvec is not None else [0] * q
    bar0 = [p for p, j in enumerate(sigma_bar) if j in cfg.blocks[0]]
    idx0 = [i for i, j in enumerate(simplex.indices) if j in cfg.blocks[0]]
    sgn = 1 if dual else -1
    with mpmath.workdps(30):
        def mp(x):
            return mpmath.mpf(x.numerator) / x.denominator

        zc = [mpmath.mpc(complex(x)) for x in z]
        u0 = [sum(mp(inv[i][c]) * mpmath.mpc(complex(delta[c]))
                  for c in range(d)) for i in range(d)]
        total = mpmath.mpc(0)
        for w in product(range(M + 1), repeat=q):
            if sum(w) > M:
                continue
            m = [wi - ki for wi, ki in zip(w, kvec)]
            if any(x.denominator != 1
                   for x in C @ np.array(m, dtype=object)):
                continue
            cw = C @ np.array(w, dtype=object)
            term = mpmath.mpc(1)
            for p, j in enumerate(sigma_bar):
                term *= mpmath.power(zc[j - 1], w[p]) / mpmath.factorial(w[p])
            for i in range(d):
                arg = 1 + sgn * u0[i] - mp(cw[i])
                if abs(arg.imag) < 1e-12 and abs(arg.real - mpmath.nint(
                        arg.real)) < 1e-12 and mpmath.nint(arg.real) <= 0:
                    term = mpmath.mpc(0)
                    break
                # 1 / Gamma(arg), with the summand pulled back to z
                term *= mpmath.power(zc[simplex.indices[i] - 1], -mp(cw[i])) \
                    * mpmath.rgamma(arg)
            if dual:
                phase = sum(w[p] for p in bar0) + sum(cw[i] for i in idx0)
                term *= mpmath.expjpi(mp(Fraction(phase)))
            total += term
        for i, j in enumerate(simplex.indices):
            total *= mpmath.power(zc[j - 1], sgn * u0[i])
        return complex(total)


def relation_sum_per_simplex(cfg, tri, delta, twist, z, M, weight):
    """The relation sum one simplex at a time: its weight(simplex), then
    its own one-simplex series pass, then the trust check."""
    dplus, dminus = intersection.twisted_deltas(cfg, delta, twist)
    total = 0j
    for s in tri.simplices:
        w = weight(s)
        f, fd = series_pair(cfg, s, z, dplus, dminus, M)
        if not (f.trusted and fd.trusted):
            raise DivergentTail(f"untrusted series: sigma={s.indices}, M={M}")
        total += w * f.value * fd.value
    return total


# ---------------------------------------------------------------------------
# The assembled route to the relation weight: the transformation matrices,
# the homology intersection number and their product.
# ---------------------------------------------------------------------------

_TWO_PI_I = 2j * math.pi


def sgn_A_sigma(cfg, sigma):
    """(-1)^{k|s^(0)| + (k-1)|s^(1)| + ... + |s^(k-1)| + k(k-1)/2}."""
    simplex = series._as_simplex(cfg, sigma)
    k = cfg.k
    expo = sum((k - l) * len(simplex.blocks[l]) for l in range(k)) \
        + k * (k - 1) // 2
    return -1 if expo % 2 else 1


def _gamma0(simplex, delta, kvec=None):
    """gamma_0 = sum_{i in sigma^(0)} e_i^T A_sigma^{-1}(delta + A_bar k),
    k = 0 when kvec is None; the A_bar k part exact, as
    sum_{i in sigma^(0)} (C_int k)_i / r."""
    g = complex(simplex.coords(delta)[simplex.pos0].sum())
    if kvec is not None:
        g += (simplex.C_int[simplex.pos0]
              @ np.array(kvec, dtype=object)).sum() / simplex.r
    return g


def epsilon_sigma(cfg, sigma, delta, kvec=None):
    """1 when |sigma^(0)| <= 1, else 1 - exp(-2 pi i gamma_0), gamma_0 =
    sum_{i in sigma^(0)} e_i^T A_sigma^{-1}(delta + A_bar k) (_gamma0)."""
    simplex = series._as_simplex(cfg, sigma)
    if len(simplex.blocks[0]) <= 1:
        return 1.0 + 0j
    return 1.0 - cmath.exp(-2j * math.pi * _gamma0(simplex, delta, kvec))


def _scalar_prefactor(cfg, simplex, delta):
    num = complex(sgn_A_sigma(cfg, simplex))
    den = complex(simplex.det)
    for l in range(1, cfg.k + 1):
        g = complex(delta[l - 1])
        den *= gamma(g)
        if len(simplex.blocks[l]) == 1:
            num *= cmath.exp(-1j * math.pi * g)
            den *= 1 - cmath.exp(-2j * math.pi * g)
        else:
            num *= cmath.exp(-1j * math.pi * (1 - g))
    return num / den


def transformation_matrix(cfg, sigma, delta):
    """The r x r matrix T_sigma relating the cycle values f_{sigma,k~} to
    the Gamma-series phi_{sigma,k}."""
    return _transformation(cfg, sigma, delta, dual=False)


def transformation_matrix_dual(cfg, sigma, delta):
    """T_sigma^vee(delta) = e^{-i pi gamma_0(delta)} T_sigma(-delta), gamma_0
    at k = 0 (_gamma0); delta itself is checked very generic."""
    return _transformation(cfg, sigma, delta, dual=True)


def _transformation(cfg, sigma, delta, dual):
    """T_sigma(delta), or T_sigma^vee(delta) when dual.  Entry (i, j) is
    scal e^{2 pi i k~_i . A_sigma^{-1} delta} X_ij epsilon_sigma(delta, k_j),
    X_ij = e^{2 pi i (k~_i . C_int k_j mod r) / r} from exact integers."""
    simplex = series._as_simplex(cfg, sigma)
    if not is_very_generic(simplex, delta):
        raise NonGenericParameter(
            f"delta={delta} is not very generic for sigma={simplex.indices}")
    phase = cmath.exp(-1j * math.pi * _gamma0(simplex, delta)) if dual else 1
    if dual:
        delta = [-x for x in delta]
    r = simplex.r
    kreps = coset_representatives_by_search(simplex.C_int, r)
    # the classes of r A_sigma^{-T} = +-adj^T: the sign leaves them alone
    ktreps = coset_representatives_by_search(list(zip(*simplex.adj)), r)
    u0 = simplex.coords(delta)
    diag1 = [cmath.exp(2j * math.pi * x)
             for x in (np.array(ktreps, dtype=float) @ u0).tolist()]
    # X_ij from k~_i . C_int k_j mod r, exact
    K = np.array(ktreps, dtype=object) @ simplex.C_int \
        @ np.array(kreps, dtype=object).T % r
    diag2 = [epsilon_sigma(cfg, simplex, delta, kv) for kv in kreps]
    scal = phase * _scalar_prefactor(cfg, simplex, delta)
    return [[scal * d1 * cmath.exp(2j * math.pi * (x / r)) * d2
             for x, d2 in zip(row, diag2)]
            for d1, row in zip(diag1, K.tolist())]


def hankel_intersection(gamma0):
    """Self-pairing factor contributed by an unbounded direction carrying
    the exponential factor: 1 - e^{-2 pi i gamma0}."""
    return 1.0 - cmath.exp(-_TWO_PI_I * complex(gamma0))


def homology_intersection(cfg, sigma, delta):
    """<Gamma_{sigma,0}, dual Gamma_{sigma,0}>_h for a unimodular simplex:
    one product of hankel_intersection factors, each 1 - e^{2 pi i x} taken
    as hankel_intersection(-x)."""
    simplex = series._as_simplex(cfg, sigma)
    if abs(simplex.det) != 1:
        raise NotUnimodular(f"sigma={simplex.indices} has |det|="
                            f"{abs(simplex.det)}")
    rows = simplex.coords(delta)
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


def assembled_weight(cfg, sigma, delta, twist):
    """The per-simplex weight built from the transformation matrices and
    the homology intersection number instead of the closed sine form:

        (2 pi i)^{2 d - n} T_sigma(delta+) T_sigma_dual(delta-) / <G, G'>_h

    divided by the global prefactor of the condensed relation.  For a
    unimodular simplex it must agree with intersection.condensed_weight
    times that prefactor."""
    simplex = series._as_simplex(cfg, sigma)
    h = homology_intersection(cfg, simplex, delta)
    if abs(h) == 0:
        raise DegenerateParameter("vanishing homology intersection number")
    dplus, dminus = intersection.twisted_deltas(cfg, delta, twist)
    t = transformation_matrix(cfg, simplex, dplus)[0][0]
    td = transformation_matrix_dual(cfg, simplex, dminus)[0][0]
    return _TWO_PI_I ** (2 * cfg.d - cfg.n) * t * td / h


def quadratic_lhs_assembled(cfg, tri, delta, twist, z, M):
    """intersection.quadratic_lhs through the assembled weight: the
    relation sum one simplex at a time, each weighted by
    assembled_weight."""
    if not tri.unimodular:
        raise NotUnimodular("triangulation is not unimodular")
    return relation_sum_per_simplex(
        cfg, tri, delta, twist, z, M,
        lambda s: assembled_weight(cfg, s, delta, twist))
