"""Truncated evaluation of the Gamma-series and dual Gamma-series attached to
a simplex, convergence-domain point sampling, and the simplex
transformation matrices.

The lattice points of a series are one int64 array in graded-lex order and
its shell bounds.  They depend only on (q, M), q = |sigma-bar| and M the
order, so a cache holds them once per (q, M), read-only, with their float
view and the row sums of log(w_i!); a coset filter masks all three.  Terms
are evaluated in log-space over blocks of whole shells, and summed shell by
shell with compensated accumulation, so results are deterministic.  The
Gamma arguments of a term w are c - (C_int w) / r, with C_int w exact
integers, read off a float product that is exact below _EXACT_MAX.  Each
series tables its arguments at the integers of each K_i's range that its
coset reaches (K_i = (C_int k)_i mod r, every r-th), and a pass takes the
complex log-Gamma of the tables of all its series in one call; a term sums
its entries column by column in the order numpy sums a short row (_rowsum).
The series a quadratic relation pairs, phi and phi^vee on every simplex of
a unimodular triangulation, share one pass over the shells: their terms
fill the rows of one (series x rows) array per block, and the shell maxima
and sums are taken over that array, each row bit for bit as its series
alone.  What a pass derives from a simplex, the order and the coset alone
(the table layout and, when the rows fit one block, each row's table
entries and dual phases) is a _Layout, kept per (simplex with its C_int,
I_0 positions, M, coset residues); a later pass of that key builds only
what delta and z change: the genericity checks, the prefactors and Gamma
constants, the log-monomials, the log-Gamma call and the terms.  The shells
and the layouts share one cache (_cache), bounded by the bytes of their
arrays (_CACHE_BYTES) and evicted least recently used first.  All complex
powers use the principal logarithm.  The Gamma pole test (_poles) and
scipy.special (_special, imported by the first series evaluated, not by
this module) come from specfun, as gamma()'s do.
"""

import cmath
import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import (BadDimensions, DivergentTail, GkzError,
                     NonGenericParameter, ScaleTooSmall)
from . import intlinalg
from .config import is_very_generic
from .specfun import _poles, _special, gamma
from .triangulation import Simplex, make_simplex

_BLOCK_ROWS = 4096   # rows of W evaluated in one vectorised pass
_TABLE_MAX = 2 ** 22  # log-Gamma entries of one pass
_EXACT_MAX = 2 ** 53  # bounds |C_int w|, so that K is exact in float
_CACHE_BYTES = 2 ** 25  # bytes of arrays _cache may hold
# what the pass of one simplex raises on its inputs and results; a stacked
# pass returns it for that simplex (cmath.exp may overflow the prefactor)
_SERIES_ERRORS = (GkzError, ArithmeticError, ValueError)


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


def _build_shells(q, M):
    """(W, bounds, Wf, log_factorials) for graded_lex_shells(q, M): the rows,
    their shell bounds, the rows as floats and the row sums of log(w_i!), all
    read-only."""
    W, bounds = intlinalg.graded_lex_shells(q, M)
    Wf = W.astype(float)
    log_factorials = _special().gammaln(np.arange(M + 1) + 1.0)[W].sum(axis=1)
    for a in (W, Wf, log_factorials):
        a.setflags(write=False)
    return W, tuple(bounds), Wf, log_factorials


class _Cache:
    """What series passes keep across calls: the shells of each (q, M)
    (_build_shells), keyed (q, M) and shared by every simplex and pass of
    that (q, M), and the _Layout of each simplex, order and coset
    (_layout_key).  The arrays of the entries held take at most max_bytes
    in all; the least recently used entries are evicted first, and an entry
    larger than max_bytes is not kept."""

    def __init__(self, max_bytes):
        self.max_bytes = max_bytes
        self.nbytes = 0
        self._entries = {}      # key -> (value, bytes), oldest use first

    def get(self, key):
        """The value kept under key, now the most recently used, or None."""
        hit = self._entries.pop(key, None)
        if hit is None:
            return None
        self._entries[key] = hit
        return hit[0]

    def put(self, key, value, size):
        """Keeps value, whose arrays take size bytes, under key."""
        old = self._entries.pop(key, None)
        if old is not None:
            self.nbytes -= old[1]
        if size > self.max_bytes:
            return
        self._entries[key] = (value, size)
        self.nbytes += size
        while self.nbytes > self.max_bytes:
            self.nbytes -= self._entries.pop(next(iter(self._entries)))[1]

    def cache_clear(self):
        self._entries.clear()
        self.nbytes = 0


_cache = _Cache(_CACHE_BYTES)


def _shells(q, M):
    """_build_shells(q, M), kept in _cache."""
    shells = _cache.get((q, M))
    if shells is None:
        shells = _build_shells(q, M)
        _cache.put((q, M), shells, shells[0].nbytes + shells[2].nbytes
                   + shells[3].nbytes)
    return shells


def _residues(simplex, kvec):
    """C_int k mod r, Python ints; k = 0 when kvec is None."""
    if kvec is None:
        return np.zeros(len(simplex.indices), dtype=object)
    return simplex.C_int @ np.array(kvec, dtype=object) % simplex.r


def _coset_shells(simplex, kvec, M):
    """The rows of _shells(q, M) in Lambda_k, as (W, bounds, Wf,
    log_factorials), read-only: C_int (w - k) = 0 mod r, tested as
    W @ C_int^T - (C_int k mod r) in int64 when no entry can overflow it,
    in Python ints otherwise."""
    q, r, C = len(simplex.bar), simplex.r, simplex.C_int
    W, bounds, Wf, log_factorials = _shells(q, M)
    if r == 1:
        return W, list(bounds), Wf, log_factorials
    t = _residues(simplex, kvec)
    if M * q * np.abs(C).max(initial=0) + r < 2 ** 63:
        C, t = C.astype(np.int64), t.astype(np.int64)
    keep = ((W @ C.T - t) % r == 0).all(axis=1)
    bounds = np.r_[0, np.cumsum(keep)][list(bounds)].tolist()
    W, Wf, log_factorials = W[keep], Wf[keep], log_factorials[keep]
    for a in (W, Wf, log_factorials):
        a.setflags(write=False)
    return W, bounds, Wf, log_factorials


def _rowsum(cols):
    """The row sums of the (rows, len(cols)) array with columns `cols`, bit
    for bit as numpy's sum(axis=1) takes them: a row of fewer than 8 scalars
    left to right from +0.0; a longer one into 8 scalars of accumulators
    (8 float or 4 complex) by strides, combined as a pairwise tree, then the
    remainder left to right, and added to +0.0."""
    step = 4 if np.iscomplexobj(cols[0]) else 8
    if len(cols) < step:
        return sum(cols, 0.0)
    full = len(cols) - len(cols) % step
    acc = [sum(cols[j + step:full:step], cols[j]) for j in range(step)]
    while len(acc) > 1:
        acc = [a + b for a, b in zip(acc[::2], acc[1::2])]
    return 0.0 + sum(cols[full:], acc[0])


def _compensated_sum(values):
    """The Kahan sum of `values`, left to right."""
    total = comp = 0j
    for x in values:
        y = x - comp
        new_total = total + y
        comp = (new_total - total) - y
        total = new_total
    return total


class _Job:
    """One series of a `_sum_series` pass: the constants c of its Gamma
    arguments and the prefactor z_sigma^(-+u0)."""

    def __init__(self, simplex, logz_sigma, delta, dual):
        u0 = (simplex.inv_float     # A_sigma^{-1} delta
              @ np.asarray([complex(x) for x in delta])[:, None]).ravel()
        sign = 1.0 if dual else -1.0
        self.dual = dual
        self.c = 1.0 + u0 if dual else 1.0 - u0
        self.exponent = tuple(sign * u0)
        self.log_prefactor = sign * complex(u0 @ logz_sigma)

    def result(self, sigma, M, total, shell_maxes, terms):
        value = cmath.exp(self.log_prefactor) * total
        if not cmath.isfinite(value):
            raise DivergentTail(f"a term or the sum is not finite at "
                                f"sigma={sigma}")
        tail = [x for x in shell_maxes if x > 0][-3:]
        if len(tail) == 3 and tail[0] < tail[1] < tail[2]:
            raise DivergentTail(
                f"shell maxima increasing at sigma={sigma}: {tail}")
        # one entry per shell of degree 0..M, so never empty
        return SeriesValue(value=value, order=M, terms_summed=terms,
                           last_shell_max=shell_maxes[-1],
                           shell_maxes=tuple(shell_maxes),
                           exponent=self.exponent, series_abs=abs(total))


class _Layout:
    """What a pass reads of one simplex that depends only on the simplex,
    the order M and the coset residues t = C_int k mod r.  A pass builds it
    on a miss and keeps it in _cache under _layout_key; every later pass of
    that key reads it.

    Row i of the log-Gamma table holds K_i = first_i + r j at entry
    offset_i + j, for the sizes[i] integers of K_i's range congruent to
    t_i mod r; K_r holds every K_i / r in entry order.  When the coset's
    rows fit one block (keep_rows), `at` holds each row's table entry per
    column and `phases` the two dual phases of each row; otherwise a pass
    computes them block by block (entries, dual_phases), as keeping them
    for the 20,475 rows of e36 at order 24 would hold megabytes.  Built
    from its key (_layout_key); raises BadDimensions, before it allocates
    anything, for a table above _TABLE_MAX entries or a range of K_i as
    wide as _EXACT_MAX, both counted in Python ints."""

    def __init__(self, key):
        simplex, _, bar0, M, residues = key
        r, C = simplex.r, simplex.C_int
        # as w >= 0 and |w| <= M, K_i and each partial sum of C_int w lie in
        # [lo_i, hi_i], lo_i <= 0 <= hi_i; Python ints, so the bounds hold
        # exactly at any M
        lo = [M * x for x in C.min(axis=1, initial=0).tolist()]
        hi = [M * x for x in C.max(axis=1, initial=0).tolist()]
        first = [x + (t - x) % r for x, t in zip(lo, residues)]
        size = sum((y - x) // r + 1 for x, y in zip(first, hi))
        if size > _TABLE_MAX:
            raise BadDimensions(f"order {M} at sigma={simplex.indices} needs "
                                f"a log-Gamma table of {size} > "
                                f"{_TABLE_MAX} entries")
        # K, and K - first_i in [0, hi_i - lo_i], are exact in float
        span = max(y - x for x, y in zip(lo, hi))
        if span >= _EXACT_MAX:
            raise BadDimensions(f"order {M} at sigma={simplex.indices} lets "
                                f"C_int w span {span} >= {_EXACT_MAX}")
        K = [np.arange(x, y + 1, r, dtype=np.int64) for x, y in zip(first, hi)]
        self.sizes = np.array([len(k) for k in K])
        base = list(accumulate(self.sizes.tolist(), initial=0))
        self.K_r = np.concatenate(K) / r
        self.r = r
        self.first = np.array(first, dtype=float)[:, None]
        self.offset = np.array(base[:-1])[:, None]
        # as (K_i - first_i) / r + base_i = K_i + shift_i when r = 1
        self.shift = np.array([b - x for b, x in zip(base, first)])[:, None]
        self.bar0 = list(bar0)
        # sum_{i in sigma^(0)} e_i^T C, for the dual phases
        self.srow = simplex.C_float[simplex.pos0, :].sum(axis=0)
        self.C_int = C.astype(float)    # exact on each partial sum
        self.at = self.phases = None

    def entries(self, Wf):
        """Each term's table entry per column for the rows Wf, a (d x rows)
        intp array, from K = C_int @ Wf^T."""
        if self.r > 1:      # exact: K_i - first_i = r j
            return ((self.C_int @ Wf.T - self.first) / self.r) \
                .astype(np.intp) + self.offset
        # the same entries without two passes over K: 1-6% faster
        return (self.C_int @ Wf.T).astype(np.intp) + self.shift

    def dual_phases(self, Wf):
        """The two phases a dual term adds to its log, in this order, for
        the rows Wf, as a (2 x rows) complex array."""
        return np.array([1j * math.pi * Wf[:, self.bar0].sum(axis=1),
                         1j * math.pi * (Wf @ self.srow)])

    def keep_rows(self, Wf):
        """Sets at and phases for the rows Wf of the coset, one block."""
        self.at = self.entries(Wf)
        self.phases = self.dual_phases(Wf)

    @property
    def nbytes(self):
        return sum(a.nbytes for a in vars(self).values()
                   if isinstance(a, np.ndarray))


def _layout_key(cfg, simplex, M, kvec):
    """The key of a simplex's _Layout in _cache.  It holds the simplex with
    its C_int, since Simplex equality ignores C_int and two configurations
    can have equal simplices with different C_int; the positions of I_0 in
    sigma-bar; M; and the coset residues.  All exact, so equal keys build
    equal layouts."""
    bar0 = tuple(p for p, j in enumerate(simplex.bar) if j in cfg.blocks[0])
    return (simplex, tuple(simplex.C_int.ravel().tolist()), bar0, M,
            tuple(_residues(simplex, kvec).tolist()))


class _Part:
    """The jobs of one simplex in a `_sum_series` pass, with its _Layout
    and the log-monomial exponents its blocks share.  The pass fills the
    tables (gamma_args) and sets log_gamma, their log-Gamma values, one row
    per job, and pole, their pole flags when any entry is a pole.  `key` is
    the layout's _cache key when this pass built it, else None.  Raises the
    simplex's own errors: those of building its _Layout, then a delta that
    is not very generic, checked once per distinct delta in the order of
    `jobs`."""

    def __init__(self, cfg, simplex, logz, M, jobs, kvec):
        sigma = simplex.indices
        key = _layout_key(cfg, simplex, M, kvec)
        self.layout = _cache.get(key)
        self.key = None
        if self.layout is None:
            self.layout, self.key = _Layout(key), key
        checked = set()
        for delta, _ in jobs:
            if tuple(delta) in checked:
                continue
            if not is_very_generic(simplex, delta):
                raise NonGenericParameter(
                    f"delta={delta} hits an integer entry for sigma={sigma}")
            checked.add(tuple(delta))
        logz_sigma = np.array([logz[j - 1] for j in sigma])
        self.logx = np.array([logz[j - 1] for j in simplex.bar]) \
            - (simplex.C_float.T @ logz_sigma[:, None]).ravel()
        self.jobs = [_Job(simplex, logz_sigma, delta, dual)
                     for delta, dual in jobs]
        self.log_gamma = self.pole = None
        self.sigma = sigma

    def gamma_args(self, out):
        """Writes c_i - K_i / r of each job at every table entry into its
        row of `out`, a (jobs x table entries) array."""
        for job, row in zip(self.jobs, out):
            np.subtract(np.repeat(job.c, self.layout.sizes), self.layout.K_r,
                        out=row)

    def fill(self, T, Wf, log_factorials, a0, a1):
        """Writes the terms of job j at the rows Wf[a0:a1] into T[j]."""
        layout, Wf = self.layout, Wf[a0:a1]
        logmono = Wf @ self.logx - log_factorials[a0:a1]
        if layout.at is not None:
            at = layout.at[:, a0:a1]
            phases = layout.phases[:, a0:a1]
        else:
            at = layout.entries(Wf)
            phases = layout.dual_phases(Wf) \
                if any(job.dual for job in self.jobs) else None
        for job, log_gamma, t in zip(self.jobs, self.log_gamma, T):
            logt = logmono - _rowsum([log_gamma[a] for a in at])
            if job.dual:
                logt += phases[0]
                logt += phases[1]
            np.exp(logt, out=t)
        if self.pole is not None:
            for pole, t in zip(self.pole, T):
                t[pole[at].any(axis=0)] = 0.0


@np.errstate(over="ignore", invalid="ignore")   # checked: value is finite
def _sum_series(cfg, simplices, kvec, z, M, jobs):
    """The series (delta, dual) of `jobs` on each of `simplices`, in one
    pass over the shells they share.

    `simplices` is a sequence of simplices that share one row set: one
    simplex, or unimodular ones with kvec None.  The result is, per
    simplex, its list of SeriesValues, one per job, or the exception the
    simplex's own pass would raise, so that a caller can raise each in its
    turn.

    The Gamma argument of column i of a term w is c_i - K_i / r, K = C_int w
    in exact integers.  Each series tables c_i - K_i / r at every r-th
    integer of the range of K_i, those congruent to (C_int k)_i mod r; the
    pole test and the complex log-Gamma of the tables of all series are one
    call each, elementwise, so each series reads the values its own call
    would give.  A block of whole shells reads them at the entries
    (K_i - first_i) / r of K = C_int @ W^T, a float product that is exact
    as every partial sum is an integer below _EXACT_MAX, and sums each
    term's d entries column by column in numpy's order (_rowsum).  The
    rows, their float view and the log-factorial sums come from the (q, M)
    shells in _cache.  Each simplex's table layout, and for a pass of one
    block its rows' table entries and dual phases, come from its _Layout:
    read from _cache, or built by this pass and kept there once its shells
    are built, so that a pass stopped by its order, a delta that is not
    very generic or too many rows keeps no layout.  Per block, each
    simplex takes its log-monomials, each series its terms, exponentiated
    into its row of one (series x rows) array; the shell maxima, the shell
    sums and their compensated accumulation are then taken for all rows of
    that array at once.  Each row comes out bit for bit as a pass of its
    series alone.
    """
    if len(simplices) > 1 and (kvec is not None
                               or any(s.r != 1 for s in simplices)):
        raise ValueError("simplices of one pass must share their rows: "
                         "unimodular, with kvec None")
    q = len(simplices[0].bar)
    try:
        if any(len(delta) != cfg.d for delta, _ in jobs):
            raise BadDimensions(f"delta needs {cfg.d} entries")
        if len(z) != cfg.N:
            raise BadDimensions(f"z needs {cfg.N} entries")
        if M < 0:
            raise BadDimensions(f"order must be >= 0, got {M}")
        if kvec is not None and len(kvec) != q:
            raise BadDimensions(f"kvec needs {q} entries, one per column "
                                f"outside sigma={simplices[0].indices}, "
                                f"got {len(kvec)}")
        if any(x == 0 for x in z):
            raise BadDimensions("z lies in (C*)^N: no entry may be zero")
        if not all(cmath.isfinite(x) for delta, _ in jobs
                   for x in (*z, *delta)):
            raise BadDimensions("z and delta need finite entries")
        logz = np.log(np.asarray([complex(x) for x in z]))
    except _SERIES_ERRORS as exc:
        return [exc] * len(simplices)
    outs, parts = [], []
    for s in simplices:
        try:
            parts.append(_Part(cfg, s, logz, M, jobs, kvec))
            outs.append(parts[-1])
        except _SERIES_ERRORS as exc:
            outs.append(exc)
    if not parts:
        return outs
    # one pole test and one log-Gamma call for the tables of every series;
    # both are elementwise, so each series reads the values of its own call.
    # The call runs in place on the arguments, each part's log_gamma a view
    # of them.  Terms that land on a Gamma pole are snapped to 0.
    log_gamma = np.empty(sum(len(part.jobs) * part.layout.K_r.size
                             for part in parts), dtype=complex)
    a = 0
    for part in parts:
        n = len(part.jobs) * part.layout.K_r.size
        part.log_gamma = log_gamma[a:a + n].reshape(len(part.jobs), -1)
        part.gamma_args(part.log_gamma)
        a += n
    pole = _poles(log_gamma)
    log_gamma[pole] = 1.0
    _special().loggamma(log_gamma, out=log_gamma)
    a = 0
    for part in parts:
        n = part.log_gamma.size
        if pole[a:a + n].any():
            part.pole = pole[a:a + n].reshape(part.log_gamma.shape).copy()
        a += n
    del pole

    _, bounds, rows_f, log_factorials = _coset_shells(simplices[0], kvec, M)
    for part in parts:
        if part.key is not None:    # a layout this pass built: keep it
            if bounds[M + 1] <= _BLOCK_ROWS:
                part.layout.keep_rows(rows_f)
            _cache.put(part.key, part.layout, part.layout.nbytes)
    rows = len(parts) * len(jobs)
    maxes = np.zeros((rows, M + 1))     # max |term| per series and shell
    sums = np.zeros((M + 1, rows), dtype=complex)   # per shell and series
    # blocks: runs of whole shells of at most _BLOCK_ROWS rows, a larger shell
    # alone (other cuts change bits: numpy takes a 1-row product another way)
    cuts = [0]
    for deg in range(1, M + 1):
        if bounds[deg + 1] - bounds[cuts[-1]] > _BLOCK_ROWS:
            cuts.append(deg)
    for first, last in zip(cuts, cuts[1:] + [M + 1]):
        a0, a1 = bounds[first], bounds[last]
        T = np.empty((rows, a1 - a0), dtype=complex)
        for i, part in enumerate(parts):
            part.fill(T[i * len(jobs):(i + 1) * len(jobs)], rows_f,
                      log_factorials, a0, a1)
        # the non-empty shells: each segment ends where the next begins
        filled = [deg for deg in range(first, last)
                  if bounds[deg + 1] > bounds[deg]]
        if filled:
            starts = [bounds[deg] - a0 for deg in filled]
            maxes[:, filled] = np.maximum.reduceat(np.abs(T), starts, axis=1)
        for deg in filled:      # T[...].sum(axis=1) without its wrapper
            np.add.reduce(T[:, bounds[deg] - a0:bounds[deg + 1] - a0], 1,
                          out=sums[deg])
    filled = [deg for deg in range(M + 1) if bounds[deg + 1] > bounds[deg]]
    totals = [_compensated_sum(col) for col in sums[filled].T.tolist()]
    shell_maxes = maxes.tolist()
    terms = bounds[M + 1]
    j = 0
    for i, part in enumerate(outs):
        if not isinstance(part, _Part):
            continue
        try:
            outs[i] = [job.result(part.sigma, M, totals[j + n],
                                  shell_maxes[j + n], terms)
                       for n, job in enumerate(part.jobs)]
        except _SERIES_ERRORS as exc:
            outs[i] = exc
        j += len(jobs)
    return outs


def _one_series(cfg, sigma, kvec, z, M, job):
    """The SeriesValue of job = (delta, dual) on sigma; raises its error."""
    out, = _sum_series(cfg, [_as_simplex(cfg, sigma)], kvec, z, M, [job])
    if isinstance(out, Exception):
        raise out
    return out[0]


def gamma_series(cfg, sigma, kvec, z, delta, M):
    """phi_{sigma,k}(z; delta) truncated at graded degree M."""
    return _one_series(cfg, sigma, kvec, z, M, (delta, False))


def dual_gamma_series(cfg, sigma, kvec, z, delta, M):
    """phi^vee_{sigma,k}(z; delta) truncated at graded degree M."""
    return _one_series(cfg, sigma, kvec, z, M, (delta, True))


def gamma_series_pairs(cfg, simplices, z, delta_plus, delta_minus, M):
    """For each of `simplices`, unimodular simplices of one configuration,
    (phi_{sigma,0}(z; delta_plus), phi^vee_{sigma,0}(z; delta_minus)) to
    graded degree M, each bit for bit its single-series call, or the error
    its own pass would raise; all share one pass over the shells."""
    return _sum_series(cfg, simplices, None, z, M,
                       [(delta_plus, False), (delta_minus, True)])


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


def _gamma0(simplex, delta, kvec=None):
    """gamma_0 = sum_{i in sigma^(0)} e_i^T A_sigma^{-1}(delta + A_bar k),
    k = 0 when kvec is None; the A_bar k part exact, as
    sum_{i in sigma^(0)} (C_int k)_i / r."""
    row = simplex.inv_float[simplex.pos0, :].sum(axis=0)
    g = complex(row @ np.asarray([complex(x) for x in delta]))
    if kvec is not None:
        g += sum(intlinalg.mat_vec(simplex.C_int[simplex.pos0], kvec)) \
            / simplex.r
    return g


def epsilon_sigma(cfg, sigma, delta, kvec=None):
    """1 when |sigma^(0)| <= 1, else 1 - exp(-2 pi i gamma_0), gamma_0 =
    sum_{i in sigma^(0)} e_i^T A_sigma^{-1}(delta + A_bar k) (_gamma0)."""
    simplex = _as_simplex(cfg, sigma)
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
    simplex = _as_simplex(cfg, sigma)
    if not is_very_generic(simplex, delta):
        raise NonGenericParameter(
            f"delta={delta} is not very generic for sigma={simplex.indices}")
    phase = cmath.exp(-1j * math.pi * _gamma0(simplex, delta)) if dual else 1
    if dual:
        delta = [-x for x in delta]
    r = simplex.r
    kreps = intlinalg.coset_representatives(simplex.C_int, r)
    # the classes of r A_sigma^{-T} = +-adj^T: the sign leaves them alone
    ktreps = intlinalg.coset_representatives(list(zip(*simplex.adj)), r)
    u0 = simplex.inv_float @ np.asarray([complex(x) for x in delta])
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
