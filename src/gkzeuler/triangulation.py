"""Regular triangulations from lifting vectors, convergence/unimodularity
classification, staircase (ladder) triangulations and the bipartite-graph
exponent formula.

Simplices carry 1-based column indices matching the usual labels (e.g.
"235").  A candidate triangulation is validated by a volume sum against an
independently computed normalized volume plus a random-ray multiplicity
test; failures raise NotATriangulation instead of proceeding silently.  The
ray test stacks the simplicial cones in one integer array and tests each
round of rays against all of them with one product, in int64 when a bound
on its entries allows and in Python ints otherwise.

A Simplex holds exact integers only: det A_sigma, its adjugate
adj = det A_sigma^{-1} from one fraction-free elimination, and
C_int = r A_sigma^{-1} A_sigma-bar; its float views are correctly rounded
quotients of them by r = |det|, and the genericity lattice a series pass
reads is an exact function of them; each view is computed on first use.
What depends on the configuration alone is computed once per configuration
and kept by functools.cache: every nonsingular d-subset as a Simplex
(_simplices), against which a lifting is tested with integer products only,
and the normalized volume; the first simplex's C_int decides whether the
configuration is homogeneous.  A secondary-fan scan validates each distinct
index set once, and a triangulation given by explicit index sets is built
and validated once per (configuration, index sets).
"""

import math
import random
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import combinations, combinations_with_replacement

import numpy as np

from .config import genericity_lattice
from .errors import (BadDimensions, DegenerateLifting, ExhaustedRetries,
                     NotATriangulation, SingularMatrix)
from . import intlinalg

_CELLS_MAX = 2_000_000   # ladder cells one call lists, ctilde terms it sums
_LAMBDA_MAX = 420_000    # the largest entry of a random ray lambda
_SAMPLES_MAX = 100_000   # liftings one secondary-fan scan may draw


@dataclass(frozen=True)
class Simplex:
    """A d-subset sigma of the columns with det A_sigma != 0, held in exact
    integers.  Its numeric views are lazy and kept once computed: inv_float
    and C_float, the correctly rounded quotients by r; pos0; and the
    genericity_lattice every series pass reads.  Commands that sum no series
    (triangulate, fan-scan) never build the genericity lattice."""

    indices: tuple          # sorted 1-based column indices, length d
    det: int                # det A_sigma
    adj: tuple              # adj A_sigma = det * A_sigma^{-1}, tuples of ints
    blocks: tuple           # sigma^(0), ..., sigma^(k)
    bar: tuple              # sigma-bar: the 1-based columns outside sigma
    # r A_sigma^{-1} A_sigma-bar = sign(det) adj A_sigma-bar, d x |bar|, an
    # object array of Python ints; fixed by the fields above
    C_int: np.ndarray = field(compare=False)

    @property
    def r(self):
        return abs(self.det)

    @cached_property
    def inv_float(self):
        """A_sigma^{-1} = sign(det) adj / r as a float array, read by coords;
        each entry is one correctly rounded division, and a zero entry is
        +0.0."""
        sign = 1 if self.det > 0 else -1
        return np.array([[sign * a / self.r for a in row]
                         for row in self.adj])

    def coords(self, delta):
        """A_sigma^{-1} delta as a complex array: the exponents every series,
        sine weight and homology factor reads."""
        return self.inv_float @ np.asarray([complex(x) for x in delta])

    @cached_property
    def C_float(self):
        """C = A_sigma^{-1} A_sigma-bar = C_int / r as a float array of shape
        (d, |bar|), each entry one correctly rounded division."""
        return np.array([[x / self.r for x in row] for row in self.C_int])

    @cached_property
    def pos0(self):
        """Positions of sigma^(0) inside sigma."""
        return [p for p, j in enumerate(self.indices) if j in self.blocks[0]]

    @cached_property
    def genericity_lattice(self):
        """config.genericity_lattice of this simplex."""
        return genericity_lattice(self)


@dataclass(frozen=True)
class Triangulation:
    simplices: tuple        # tuple of Simplex, sorted by indices
    omega: tuple            # the lifting vector; () for explicit index sets
    convergent: bool
    unimodular: bool

    def index_sets(self):
        return frozenset(s.indices for s in self.simplices)


def make_simplex(cfg, indices):
    """The simplex on d distinct 1-based column indices of cfg, with its
    exact integer data; raises SingularMatrix when det A_sigma = 0."""
    indices = tuple(sorted(indices))
    if len(indices) != cfg.d or len(set(indices)) != cfg.d \
            or not all(1 <= j <= cfg.N for j in indices):
        raise BadDimensions(f"a simplex needs {cfg.d} distinct column "
                            f"indices in 1..{cfg.N}, got {indices}")
    adj, det = intlinalg.adjugate(cfg.submatrix(indices))
    blocks = tuple(tuple(j for j in indices if j in blk) for blk in cfg.blocks)
    bar = tuple(j for j in range(1, cfg.N + 1) if j not in indices)
    C_int = (1 if det > 0 else -1) * np.array(adj, dtype=object) \
        @ np.array(cfg.submatrix(bar), dtype=object)
    return Simplex(indices=indices, det=det,
                   adj=tuple(tuple(row) for row in adj), blocks=blocks,
                   bar=bar, C_int=C_int)


def _triangulate_raw(cfg, omega):
    """Simplices of T(omega) without validation, in _simplices order.  sigma
    is a cell iff omega_sigma C < omega_j for every column j outside sigma;
    both sides are scaled by r so the test reads the integers C_int.  omega
    holds integers or rationals."""
    if len(omega) != cfg.N:
        raise BadDimensions(f"omega needs {cfg.N} entries, got {len(omega)}")
    out = []
    for s in _simplices(cfg):
        w_sigma = np.array([omega[i - 1] for i in s.indices], dtype=object)
        for v, j in zip(w_sigma @ s.C_int, s.bar):
            if v == s.r * omega[j - 1]:
                raise DegenerateLifting(f"lifting is non-generic: equality "
                                        f"at sigma={s.indices}, j={j}")
            if v > s.r * omega[j - 1]:
                break
        else:
            out.append(s)
    return out


def _draw_rays(rng, n, N):
    """n rays lambda > 0, as n * N integers ray by ray: lambda_j = p / q with
    p <= 1000 and q <= 7, scaled by 420 = lcm(1..7)."""
    randint = rng.randint
    return [randint(1, 1000) * (420 // randint(1, 7)) for _ in range(n * N)]


def _stacked_cones(cfg, simplices):
    """The (S, d, N) array whose block s maps lambda to r times the
    coordinates lambda_sigma + C lambda_sigma-bar of A lambda in
    cone(A_sigma): r on the columns of sigma, C_int on those of sigma-bar.
    int64 when no product with a drawn ray can overflow it, Python ints
    otherwise."""
    M = np.zeros((len(simplices), cfg.d, cfg.N), dtype=object)
    for block, s in zip(M, simplices):
        block[range(cfg.d), [j - 1 for j in s.indices]] = s.r
        block[:, [j - 1 for j in s.bar]] = s.C_int
    if np.abs(M).max(initial=0) * cfg.N * _LAMBDA_MAX < 2 ** 63:
        M = M.astype(np.int64)
    return M


def _ray_test(cfg, simplices, rng):
    """Each of 200 random rays A lambda, lambda > 0, must lie strictly inside
    exactly one simplicial cone; a ray with a zero coordinate in some cone is
    on a boundary and is drawn again, up to 2000 draws in all.  Each round
    draws one ray per good ray still needed and tests them against every
    simplex at once, in one product with _stacked_cones.  rng ends where
    drawing and testing one ray at a time would leave it: after a failing
    ray, the round is drawn again from its saved state up to that ray."""
    M = _stacked_cones(cfg, simplices)
    done = drawn = 0
    while drawn < 2000:
        n = min(200 - done, 2000 - drawn)
        state = rng.getstate()
        lam = np.array(_draw_rays(rng, n, cfg.N), dtype=M.dtype)
        X = M @ lam.reshape(n, cfg.N).T         # (S, d, n)
        off = ~(X == 0).any(axis=(0, 1))
        hits = (X > 0).all(axis=1).sum(axis=0)
        failed = np.flatnonzero(off & (hits != 1))
        if failed.size:
            rng.setstate(state)
            _draw_rays(rng, int(failed[0]) + 1, cfg.N)
            return False
        done += int(off.sum())
        drawn += n
        if done == 200:
            return True
    raise ExhaustedRetries(f"{done} of 200 rays off the cone boundaries")


def is_homogeneous(cfg):
    """True when yA = 1 for some rational row vector y, i.e. all columns lie
    on a common affine hyperplane.  For a nonsingular sigma, y must be
    1 A_sigma^{-1}, so this holds iff every column of C sums to 1, i.e. every
    column of C_int sums to r; the first of _simplices(cfg) decides.  The
    sum of simplex volumes is a triangulation invariant only in this case."""
    return all((s.C_int.sum(axis=0) == s.r).all()
               for s in _simplices(cfg)[:1])


@cache
def _simplices(cfg):
    """Every nonsingular d-subset of cfg as a Simplex, in combinations
    order."""
    out = []
    for sigma in combinations(range(1, cfg.N + 1), cfg.d):
        try:
            out.append(make_simplex(cfg, sigma))
        except SingularMatrix:
            continue
    return tuple(out)


@cache
def normalized_volume(cfg):
    """Normalized volume of the configuration: sum of |det A_sigma| over a
    reference regular triangulation obtained from a fixed pseudo-random
    lifting, validated by the random-ray test."""
    rng = random.Random(20240 + cfg.N)
    for _ in range(200):
        omega = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(cfg.N)]
        try:
            simplices = _triangulate_raw(cfg, omega)
        except DegenerateLifting:
            continue
        if simplices and _ray_test(cfg, simplices, rng):
            return sum(s.r for s in simplices)
    raise ExhaustedRetries("could not build a reference triangulation")


def is_convergent(simplices):
    """Exact check: for every sigma and j outside it, the entry sum of
    A_sigma^{-1} a(j), a column of C, is <= 1, i.e. that of C_int is <= r."""
    return all((s.C_int.sum(axis=0) <= s.r).all() for s in simplices)


def is_unimodular(simplices):
    return all(s.r == 1 for s in simplices)


def _validate(cfg, simplices):
    """Raise NotATriangulation unless the simplices pass the volume sum (for
    a homogeneous configuration) and the random-ray multiplicity test, its
    rays drawn from random.Random(0)."""
    if is_homogeneous(cfg):
        vol = sum(s.r for s in simplices)
        if vol != normalized_volume(cfg):
            raise NotATriangulation(
                f"volume sum {vol} != normalized volume "
                f"{normalized_volume(cfg)}")
    if not _ray_test(cfg, simplices, random.Random(0)):
        raise NotATriangulation("random-ray multiplicity test failed")


def _validated(cfg, simplices, omega):
    """The simplices sorted by indices, validated and classified."""
    simplices = sorted(simplices, key=lambda s: s.indices)
    _validate(cfg, simplices)
    return Triangulation(simplices=tuple(simplices), omega=tuple(omega),
                         convergent=is_convergent(simplices),
                         unimodular=is_unimodular(simplices))


def triangulate(cfg, omega):
    """Regular triangulation T(omega), validated."""
    return _validated(cfg, _triangulate_raw(cfg, omega), omega)


def triangulation_from_simplices(cfg, index_sets):
    """Build a Triangulation from explicit index sets (e.g. a staircase
    triangulation known in closed form); validated like triangulate.  The
    result is kept, so equal index sets in any order give the same object."""
    key = tuple(sorted(tuple(sorted(s)) for s in index_sets))
    return _from_simplices(cfg, key)


@cache
def _from_simplices(cfg, index_sets):
    # a raised NotATriangulation is not cached: the next call raises again
    return _validated(cfg, [make_simplex(cfg, s) for s in index_sets], ())


def enumerate_regular_triangulations(cfg, samples=500, seed=0):
    """Sampling-based scan of the secondary fan: the distinct T(omega) over
    random liftings, in discovery order, each with the first omega that gave
    it.  Not guaranteed exhaustive.  Each distinct index set is validated
    once; the verdict is the same every time, and the same as triangulate's,
    because _validate draws its rays from a fixed seed.  Raises
    BadDimensions beyond _SAMPLES_MAX samples."""
    if samples < 1:
        raise BadDimensions(f"need at least 1 sample, got {samples}")
    if samples > _SAMPLES_MAX:
        raise BadDimensions(f"{samples} samples exceed {_SAMPLES_MAX}")
    rng = random.Random(seed)
    verdicts = {}           # index set -> Triangulation, or None if rejected
    for _ in range(samples):
        omega = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(cfg.N)]
        try:
            simplices = _triangulate_raw(cfg, omega)
        except DegenerateLifting:
            continue
        key = frozenset(s.indices for s in simplices)
        if key in verdicts:
            continue
        try:
            verdicts[key] = _validated(cfg, simplices, omega)
        except NotATriangulation:
            # liftings outside the support of the secondary fan (possible
            # for non-homogeneous configurations) do not subdivide cone(A)
            verdicts[key] = None
    return [t for t in verdicts.values() if t is not None]


# ---------------------------------------------------------------------------
# Ladders (staircase triangulations).
# ---------------------------------------------------------------------------

def enumerate_ladders(k, n):
    """All monotone staircase paths from (k, k+1) to (0, n): each step
    decrements i or increments j by one.  The ambient index set is
    {0..k} x {k+1..n}; there are C(n-1, k) ladders of n cells each.  A
    ladder is fixed by the k columns j at which it steps down a row; listing
    those in combinations order puts a decrement before an increment at the
    first step where two ladders differ.  The ladders share one tuple per
    cell.  Raises BadDimensions beyond _CELLS_MAX cells in all."""
    if not 0 <= k < n:
        raise BadDimensions(f"need 0 <= k < n, got k={k}, n={n}")
    # C(n-1, min(k, n-1-k, 21)) is exact below the cap and > 10^12 at it, so
    # the test builds no huge integer (C(2*10^6, 10^6) takes half a minute)
    if math.comb(n - 1, min(k, n - 1 - k, 21)) * n > _CELLS_MAX:
        raise BadDimensions(f"C({n - 1}, {k}) ladders of {n} cells exceed "
                            f"{_CELLS_MAX} cells")
    grid = [[(i, j) for j in range(k + 1, n + 1)] for i in range(k + 1)]
    out = []
    for steps in combinations_with_replacement(range(k + 1, n + 1), k):
        cols = (k + 1, *steps, n)       # row k - m runs over cols[m..m+1]
        ladder = []
        for m in range(k + 1):
            ladder += grid[k - m][cols[m] - k - 1:cols[m + 1] - k]
        out.append(tuple(ladder))
    return out


def ladder_exponents(ladder, ctilde, confluent=False):
    """Exponent map (i,j) -> v_{ij} from the spanning-tree formula: remove
    the edge (i,j) from the ladder's tree (vertices 0..n) and sum ctilde
    over the component of j.  The components of one ladder in {0..k} x
    {k+1..n} hold n(k+1) vertices: one per cell, n more per row step.

    In the confluent case the ladder omits the (0, n) cell; the component is
    computed in the completed tree (with (0, n) restored) and vertex n is
    excluded from the sum.  ctilde is indexed 0..n (0..n-1 when confluent).
    """
    cells = list(ladder)
    n = max(j for _, j in cells) if not confluent else len(ctilde)
    if confluent:
        tree = cells + [(0, n)]
    else:
        tree = cells
    adj = {}
    for (i, j) in tree:
        adj.setdefault(i, set()).add(j)
        adj.setdefault(j, set()).add(i)
    out = {}
    for (i, j) in cells:
        # component of j with edge (i,j) removed
        comp = {j}
        stack = [j]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if (v, w) in ((i, j), (j, i)):
                    continue
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        verts = comp - {n} if confluent else comp
        out[(i, j)] = sum(ctilde[l] for l in verts)
    return out


def ladder_to_simplex(ladder, cfg):
    """1-based column indices of a ladder inside a configuration that
    carries (i, j) column labels."""
    if cfg.pairs is None:
        raise BadDimensions("configuration has no (i,j) column labels")
    pos = {p: c + 1 for c, p in enumerate(cfg.pairs)}
    cells = [c for c in ladder if c in pos]   # confluent ladders drop (0,n)
    return tuple(sorted(pos[c] for c in cells))


def staircase_triangulation(cfg):
    """The staircase triangulation of an Aomoto-Gelfand (or confluent)
    configuration, as explicit ladder simplices; k and n are the largest
    labels i and j of its columns.  A confluent configuration lacks the
    (0, n) column, which ladder_to_simplex leaves out."""
    if cfg.pairs is None:
        raise BadDimensions("configuration has no (i,j) column labels")
    k, n = (max(labels) for labels in zip(*cfg.pairs))
    return triangulation_from_simplices(
        cfg, [ladder_to_simplex(lad, cfg) for lad in enumerate_ladders(k, n)])
