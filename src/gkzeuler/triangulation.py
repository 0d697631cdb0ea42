"""Regular triangulations from lifting vectors, convergence/unimodularity
classification, staircase (ladder) triangulations and the bipartite-graph
exponent formula.

Simplices carry 1-based column indices matching the usual labels (e.g.
"235").  A candidate triangulation is validated by a volume sum against an
independently computed normalized volume plus a random-ray multiplicity
test; failures raise NotATriangulation instead of proceeding silently.
"""

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .errors import (BadDimensions, DegenerateLifting, ExhaustedRetries,
                     NotATriangulation, SingularMatrix)
from . import intlinalg


@dataclass(frozen=True)
class Simplex:
    indices: tuple          # sorted 1-based column indices, length d
    det: int                # det A_sigma
    inv: tuple              # A_sigma^{-1}, tuple of tuples of Fractions
    blocks: tuple           # sigma^(0), ..., sigma^(k)
    bar: tuple              # sigma-bar: the 1-based columns outside sigma
    C: tuple                # A_sigma^{-1} A_sigma-bar, d x |bar| Fractions

    @property
    def r(self):
        return abs(self.det)

    @cached_property
    def inv_float(self):
        """A_sigma^{-1} as a float array, the numeric view every series and
        weight evaluation reads."""
        return np.array([[float(x) for x in row] for row in self.inv])

    @cached_property
    def C_float(self):
        """C as a float array of shape (d, |bar|)."""
        return np.array([[float(x) for x in row] for row in self.C])

    @cached_property
    def C_int(self):
        """The integer matrix r * C, for the exact congruence mod r."""
        return np.array([[int(x * self.r) for x in row] for row in self.C],
                        dtype=object)

    @cached_property
    def pos0(self):
        """Positions of sigma^(0) inside sigma."""
        return [p for p, j in enumerate(self.indices) if j in self.blocks[0]]


@dataclass(frozen=True)
class Triangulation:
    simplices: tuple        # tuple of Simplex, sorted by indices
    omega: tuple            # lifting vector (may be None entries-free tuple)
    convergent: bool
    unimodular: bool

    def index_sets(self):
        return frozenset(s.indices for s in self.simplices)


def make_simplex(cfg, indices):
    """The simplex on d distinct 1-based column indices of cfg, with its
    derived view filled in; raises SingularMatrix when det A_sigma = 0."""
    indices = tuple(sorted(indices))
    if len(indices) != cfg.d or len(set(indices)) != cfg.d \
            or not all(1 <= j <= cfg.N for j in indices):
        raise BadDimensions(f"a simplex needs {cfg.d} distinct column "
                            f"indices in 1..{cfg.N}, got {indices}")
    inv, det = intlinalg.rat_inverse(cfg.submatrix(indices))
    blocks = tuple(tuple(j for j in indices if j in blk) for blk in cfg.blocks)
    bar = tuple(j for j in range(1, cfg.N + 1) if j not in indices)
    C = intlinalg.mat_mul(inv, cfg.submatrix(bar))
    return Simplex(indices=indices, det=det,
                   inv=tuple(tuple(row) for row in inv), blocks=blocks,
                   bar=bar, C=tuple(tuple(row) for row in C))


def _triangulate_raw(cfg, omega):
    """Simplices of T(omega) without validation.  sigma is a cell iff
    omega_sigma C < omega_j for every column j outside sigma; both sides are
    scaled by r so the test reads the integers C_int.  omega holds ints or
    Fractions."""
    if len(omega) != cfg.N:
        raise BadDimensions(f"omega length {len(omega)} != {cfg.N}")
    out = []
    for sigma in combinations(range(1, cfg.N + 1), cfg.d):
        try:
            s = make_simplex(cfg, sigma)
        except SingularMatrix:
            continue
        w_sigma = np.array([omega[i - 1] for i in sigma], dtype=object)
        for v, j in zip(w_sigma @ s.C_int, s.bar):
            if v == s.r * omega[j - 1]:
                raise DegenerateLifting(
                    f"lifting is non-generic: equality at sigma={sigma}, j={j}")
            if v > s.r * omega[j - 1]:
                break
        else:
            out.append(s)
    return out


def _ray_test(cfg, simplices, rng):
    """Each of 200 random rays A lambda, lambda > 0, must lie strictly inside
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


def is_homogeneous(cfg):
    """True when the all-ones vector lies in the rational row span of the
    configuration matrix, i.e. all columns lie on a common affine
    hyperplane.  The sum of simplex volumes is a triangulation invariant
    only in this case."""
    rows = [list(r) for r in cfg.matrix]
    return len(intlinalg.snf_divisors(rows)) \
        == len(intlinalg.snf_divisors(rows + [[1] * cfg.N]))


_volume_cache = {}


def normalized_volume(cfg):
    """Normalized volume of the configuration: sum of |det A_sigma| over a
    reference regular triangulation obtained from a fixed pseudo-random
    lifting, validated by the random-ray test."""
    key = cfg.matrix
    if key in _volume_cache:
        return _volume_cache[key]
    rng = random.Random(20240 + cfg.N)
    for _ in range(200):
        omega = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(cfg.N)]
        try:
            simplices = _triangulate_raw(cfg, omega)
        except DegenerateLifting:
            continue
        if simplices and _ray_test(cfg, simplices, rng):
            vol = sum(s.r for s in simplices)
            _volume_cache[key] = vol
            return vol
    raise ExhaustedRetries("could not build a reference triangulation")


def is_convergent(simplices):
    """Exact check: for every sigma and j outside it, the entry sum of
    A_sigma^{-1} a(j), a column of C, is <= 1, i.e. that of C_int is <= r."""
    return all((s.C_int.sum(axis=0) <= s.r).all() for s in simplices)


def is_unimodular(simplices):
    return all(s.r == 1 for s in simplices)


def _validate(cfg, simplices, seed):
    """Raise NotATriangulation unless the simplices pass the volume sum (for
    a homogeneous configuration) and the random-ray multiplicity test."""
    if is_homogeneous(cfg):
        vol = sum(s.r for s in simplices)
        if vol != normalized_volume(cfg):
            raise NotATriangulation(
                f"volume sum {vol} != normalized volume "
                f"{normalized_volume(cfg)}")
    if not _ray_test(cfg, simplices, random.Random(seed)):
        raise NotATriangulation("random-ray multiplicity test failed")


def _triangulation(simplices, omega):
    return Triangulation(simplices=tuple(simplices), omega=tuple(omega),
                         convergent=is_convergent(simplices),
                         unimodular=is_unimodular(simplices))


def triangulate(cfg, omega, seed=0):
    """Regular triangulation T(omega), validated."""
    simplices = _triangulate_raw(cfg, omega)
    simplices.sort(key=lambda s: s.indices)
    _validate(cfg, simplices, seed)
    return _triangulation(simplices, omega)


def triangulation_from_simplices(cfg, index_sets, seed=0):
    """Build a Triangulation from explicit index sets (e.g. a staircase
    triangulation known in closed form); validated like triangulate."""
    simplices = sorted((make_simplex(cfg, s) for s in index_sets),
                       key=lambda s: s.indices)
    _validate(cfg, simplices, seed)
    return _triangulation(simplices, ())


def sample_interior_lifting(cfg, seed=0):
    """A random integer lifting for which triangulate succeeds without
    degeneracy."""
    rng = random.Random(seed)
    for _ in range(1000):
        omega = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(cfg.N)]
        try:
            _triangulate_raw(cfg, omega)
        except DegenerateLifting:
            continue
        return omega
    raise ExhaustedRetries("no generic lifting found in 1000 tries")


def enumerate_regular_triangulations(cfg, samples=500, seed=0):
    """Sampling-based scan of the secondary fan: deduplicated set of T(omega)
    over random liftings.  Not guaranteed exhaustive."""
    if samples < 1:
        raise BadDimensions(f"need at least 1 sample, got {samples}")
    rng = random.Random(seed)
    seen = {}
    for _ in range(samples):
        omega = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(cfg.N)]
        try:
            tri = triangulate(cfg, omega)
        except (DegenerateLifting, NotATriangulation):
            # liftings outside the support of the secondary fan (possible
            # for non-homogeneous configurations) do not subdivide cone(A)
            continue
        key = tri.index_sets()
        if key not in seen:
            seen[key] = tri
    return list(seen.values())


# ---------------------------------------------------------------------------
# Ladders (staircase triangulations).
# ---------------------------------------------------------------------------

def enumerate_ladders(k, n):
    """All monotone staircase paths from (k, k+1) to (0, n): each step
    decrements i or increments j by one.  The ambient index set is
    {0..k} x {k+1..n}; there are C(n-1, k) ladders."""
    if not 0 <= k < n:
        raise BadDimensions(f"need 0 <= k < n, got k={k}, n={n}")
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


def ladder_exponents(ladder, ctilde, confluent=False):
    """Exponent map (i,j) -> v_{ij} from the spanning-tree formula: remove
    the edge (i,j) from the ladder's tree (vertices 0..n) and sum ctilde
    over the component of j.

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


def staircase_triangulation(cfg, k, n, confluent=False):
    """The staircase triangulation of an Aomoto-Gelfand (or confluent)
    configuration, as explicit ladder simplices."""
    ladders = enumerate_ladders(k, n)
    if confluent:
        sets = [ladder_to_simplex([c for c in lad if c != (0, n)], cfg)
                for lad in ladders]
    else:
        sets = [ladder_to_simplex(lad, cfg) for lad in ladders]
    return triangulation_from_simplices(cfg, sets)
