"""Configuration matrices: Cayley-type block configurations, the
Aomoto-Gelfand family and its confluent variant, plus parameter vectors.

Column indices are 1-based throughout the public API, matching the labels
used for simplices (e.g. "235").  A configuration carries the partition of
its columns into blocks I_0, I_1, ..., I_k: I_0 holds the exponent columns of
the exponential factor (may be empty), I_l (l >= 1) the columns of the l-th
polynomial factor.

Very-genericity of a parameter vector is only checkable up to a finite scan
bound (the defining condition quantifies over all of Z_{>=0}^{sigma-bar});
we scan graded degrees up to a configurable bound, which catches accidental
integrality for the random parameters used in verification.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BadDimensions, LatticeNotFull
from . import intlinalg


@dataclass(frozen=True)
class Config:
    """A d x N integer configuration matrix with block structure."""
    matrix: tuple          # tuple of rows (tuples of ints)
    blocks: tuple          # blocks[l] = tuple of 1-based column indices of I_l
    name: str = ""
    pairs: tuple = None    # optional (i, j) label per column (ladder families)

    @property
    def d(self):
        return len(self.matrix)

    @property
    def N(self):
        return len(self.matrix[0])

    @property
    def k(self):
        return len(self.blocks) - 1

    @property
    def n(self):
        return self.d - self.k

    def submatrix(self, cols):
        """Columns (1-based) as a row-major list of lists."""
        return [[row[j - 1] for j in cols] for row in self.matrix]


def _freeze(rows):
    return tuple(tuple(int(x) for x in row) for row in rows)


def check_full_lattice(matrix):
    """True iff the columns span Z^d (all Smith divisors are 1)."""
    rows = [list(r) for r in matrix]
    divisors = intlinalg.snf_divisors(rows)
    return len(divisors) == len(rows) and all(x == 1 for x in divisors)


def build_cayley(k, n, block_matrices, name=""):
    """Assemble the (n+k) x N Cayley-type matrix from exponent blocks.

    block_matrices[l] is the n x N_l integer matrix A_l whose columns are the
    exponent vectors of the l-th factor (l = 0 is the exponential factor and
    may have zero columns).  Output rows: k indicator rows over I_1..I_k,
    then the n rows of A_0 | A_1 | ... | A_k.
    """
    if len(block_matrices) != k + 1:
        raise BadDimensions(f"expected {k + 1} blocks, got {len(block_matrices)}")
    widths = []
    for l, blk in enumerate(block_matrices):
        ncols = len(blk[0]) if blk else 0
        if blk and len(blk) != n:
            raise BadDimensions(f"block {l} has {len(blk)} rows, expected {n}")
        if l >= 1 and ncols < 2:
            warnings.warn(f"block {l} has fewer than 2 columns", stacklevel=2)
        widths.append(ncols)
    N = sum(widths)
    rows = []
    for l in range(1, k + 1):
        start = sum(widths[:l])
        rows.append([1 if start <= j < start + widths[l] else 0
                     for j in range(N)])
    for i in range(n):
        row = []
        for blk in block_matrices:
            if blk:
                row.extend(blk[i])
        rows.append(row)
    blocks = []
    pos = 1
    for w in widths:
        blocks.append(tuple(range(pos, pos + w)))
        pos += w
    cfg = Config(matrix=_freeze(rows), blocks=tuple(blocks), name=name)
    if not check_full_lattice(cfg.matrix):
        raise LatticeNotFull("columns do not span the full lattice")
    return cfg


def aomoto_gelfand_config(k, n):
    """Reduced configuration for the E(k+1, n+1) family.

    Columns are indexed by (i, j) with 0 <= i <= k < j <= n (i outer, j
    inner), each housing e(i) + e(j) with e(0) projected away.  Rows are
    ordered e_{k+1}, ..., e_n, e_1, ..., e_k, so the first n-k rows are the
    block indicators of the n-k linear factors.
    """
    if not 1 <= k < n:
        raise BadDimensions(f"need 1 <= k < n, got k={k}, n={n}")
    pairs = [(i, j) for i in range(k + 1) for j in range(k + 1, n + 1)]
    row_index = {("e", j): r for r, j in enumerate(range(k + 1, n + 1))}
    for r, i in enumerate(range(1, k + 1)):
        row_index[("e", i)] = (n - k) + r
    d = n
    cols = []
    for (i, j) in pairs:
        col = [0] * d
        col[row_index[("e", j)]] += 1
        if i >= 1:
            col[row_index[("e", i)]] += 1
        cols.append(col)
    rows = [[cols[c][r] for c in range(len(cols))] for r in range(d)]
    blocks = [()]  # no exponential block
    for j in range(k + 1, n + 1):
        blocks.append(tuple(c + 1 for c, (i2, j2) in enumerate(pairs) if j2 == j))
    return Config(matrix=_freeze(rows), blocks=tuple(blocks),
                  name=f"ag({k},{n})", pairs=tuple(pairs))


def confluent_config(k, n):
    """Reduced configuration for the confluent family: columns
    e(i)+e(j) for j <= n-1 plus -e(0)+e(i) for i = 1..k (the (0,n) column is
    removed), with e(0) projected away.  Rows: e_{k+1},...,e_{n-1}, then
    e_1,...,e_k."""
    if not 1 <= k < n - 1:
        raise BadDimensions(f"need 1 <= k < n-1, got k={k}, n={n}")
    finite_pairs = [(i, j) for i in range(k + 1) for j in range(k + 1, n)]
    irr_pairs = [(i, n) for i in range(1, k + 1)]
    pairs = finite_pairs + irr_pairs
    row_index = {("e", j): r for r, j in enumerate(range(k + 1, n))}
    for r, i in enumerate(range(1, k + 1)):
        row_index[("e", i)] = (n - 1 - k) + r
    d = n - 1
    cols = []
    for (i, j) in pairs:
        col = [0] * d
        if j <= n - 1:
            col[row_index[("e", j)]] += 1
        if i >= 1:
            col[row_index[("e", i)]] += 1
        cols.append(col)
    rows = [[cols[c][r] for c in range(len(cols))] for r in range(d)]
    blocks = [tuple(c + 1 for c, (i2, j2) in enumerate(pairs) if j2 == n)]
    for j in range(k + 1, n):
        blocks.append(tuple(c + 1 for c, (i2, j2) in enumerate(pairs) if j2 == j))
    return Config(matrix=_freeze(rows), blocks=tuple(blocks),
                  name=f"confluent({k},{n})", pairs=tuple(pairs))


def is_very_generic(simplex, delta, bound=2):
    """Bounded check that A_sigma^{-1}(delta + A_{sigma-bar} m) has no entry
    within 1e-9 of an integer for all m >= 0 with |m| <= bound."""
    u0 = simplex.inv_float @ np.asarray([complex(x) for x in delta])
    for _, W in intlinalg.graded_lex_shells(len(simplex.bar), bound):
        ent = u0[None, :] + W.astype(float) @ simplex.C_float.T
        near = (np.abs(ent.real - np.round(ent.real)) < 1e-9) \
            & (np.abs(ent.imag) < 1e-9)
        if np.any(near):
            return False
    return True


def load_block_config_json(doc):
    """Build (Config, delta) from {"k":..,"n":..,"blocks":[[[..]]],
    "gamma":[[re,im]..], "c":[[re,im]..]}."""
    k, n = doc["k"], doc["n"]
    cfg = build_cayley(k, n, doc["blocks"])
    gamma_v = [complex(re, im) for re, im in doc.get("gamma", [])]
    c_v = [complex(re, im) for re, im in doc.get("c", [])]
    if gamma_v and len(gamma_v) != k:
        raise BadDimensions("gamma length mismatch")
    if c_v and len(c_v) != n:
        raise BadDimensions("c length mismatch")
    return cfg, gamma_v + c_v


# ---------------------------------------------------------------------------
# Built-in registry of example configurations.
# ---------------------------------------------------------------------------

def _horn_g1():
    return build_cayley(2, 1, [[], [[0, 1, -1]], [[0, 1]]], name="g1")


def _horn_gamma2():
    return build_cayley(1, 1, [[[1, -1]], [[0, 1]]], name="gamma2")


def _horn_h4():
    return build_cayley(1, 2, [[[1, 0], [0, 1]], [[0, 1, 1], [0, 0, 1]]],
                        name="h4")


def _appell_f1():
    # three linear factors in one torus variable; columns ordered so the
    # matrix matches the classical presentation with I_1={1,4}, I_2={2,5},
    # I_3={3,6}
    rows = [[1, 0, 0, 1, 0, 0],
            [0, 1, 0, 0, 1, 0],
            [0, 0, 1, 0, 0, 1],
            [0, 0, 0, 1, 1, 1]]
    return Config(matrix=_freeze(rows), blocks=((), (1, 4), (2, 5), (3, 6)),
                  name="f1")


def _horn_phi1():
    # one exponential column, two linear factors, one torus variable
    rows = [[0, 1, 1, 0, 0],
            [0, 0, 0, 1, 1],
            [1, 0, 1, 0, 1]]
    return Config(matrix=_freeze(rows), blocks=((1,), (2, 3), (4, 5)),
                  name="phi1")


_REGISTRY_BUILDERS = {
    "g1": _horn_g1,
    "gamma2": _horn_gamma2,
    "h4": _horn_h4,
    "f1": _appell_f1,
    "phi1": _horn_phi1,
    "gauss": lambda: aomoto_gelfand_config(1, 3),
    "e36": lambda: aomoto_gelfand_config(2, 5),
    "kummer": lambda: confluent_config(1, 3),
    "e36c": lambda: confluent_config(2, 5),
}


def registry_names():
    return sorted(_REGISTRY_BUILDERS)


def get_config(name):
    try:
        return _REGISTRY_BUILDERS[name]()
    except KeyError:
        raise KeyError(f"unknown configuration {name!r}; "
                       f"known: {', '.join(registry_names())}") from None
