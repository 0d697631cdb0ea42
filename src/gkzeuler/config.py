"""Configuration matrices: Cayley-type block configurations, the
Aomoto-Gelfand family and its confluent variant, plus parameter vectors.

Column indices are 1-based throughout the public API, matching the labels
used for simplices (e.g. "235").  A configuration carries the partition of
its columns into blocks I_0, I_1, ..., I_k: I_0 holds the exponent columns of
the exponential factor (may be empty), I_l (l >= 1) the columns of the l-th
polynomial factor.

Very-genericity of a parameter vector is only checkable up to a finite scan
bound (the defining condition quantifies over all of Z_{>=0}^{sigma-bar});
we scan graded degrees up to GENERICITY_DEGREE = 2, which catches accidental
integrality for the random parameters used in verification.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BadDimensions, LatticeNotFull
from . import intlinalg

GENERICITY_DEGREE = 2   # the very-genericity scan covers |m| <= this


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


def build_cayley(k, n, block_matrices, name=""):
    """Assemble the (n+k) x N Cayley-type matrix from exponent blocks.

    block_matrices[l] is the n x N_l integer matrix A_l whose columns are the
    exponent vectors of the l-th factor (l = 0 is the exponential factor and
    may have zero columns).  Output rows: k indicator rows over I_1..I_k,
    then the n rows of A_0 | A_1 | ... | A_k.
    """
    if k < 0 or n < 1:
        raise BadDimensions(f"need k >= 0 and n >= 1, got k={k}, n={n}")
    if len(block_matrices) != k + 1:
        raise BadDimensions(f"expected {k + 1} blocks, got {len(block_matrices)}")
    widths = []
    for l, blk in enumerate(block_matrices):
        ncols = len(blk[0]) if blk else 0
        if blk and len(blk) != n:
            raise BadDimensions(f"block {l} has {len(blk)} rows, expected {n}")
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
    if intlinalg.lattice_index(cfg.matrix) != 1:
        raise LatticeNotFull("columns do not span the full lattice")
    return cfg


def _pair_config(k, factors, pairs, name):
    """The configuration with one column e(i) + e(j) per (i, j) of pairs,
    projected onto the rows e_j for j in factors, then e_1, ..., e_k (e(0)
    and any other e(j) are projected away).  Block 0 holds the columns of
    no factor, block l those of the l-th factor."""
    rows = [*factors, *range(1, k + 1)]
    matrix = [[(i == x) + (j == x) for i, j in pairs] for x in rows]
    blocks = [tuple(c + 1 for c, (_, j) in enumerate(pairs)
                    if j not in factors)]
    blocks += [tuple(c + 1 for c, (_, j) in enumerate(pairs) if j == f)
               for f in factors]
    return Config(matrix=_freeze(matrix), blocks=tuple(blocks), name=name,
                  pairs=tuple(pairs))


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
    return _pair_config(k, range(k + 1, n + 1), pairs, f"ag({k},{n})")


def confluent_config(k, n):
    """Reduced configuration for the confluent family: columns
    e(i)+e(j) for j <= n-1 plus -e(0)+e(i) for i = 1..k (the (0,n) column is
    removed), with e(0) projected away.  Rows: e_{k+1},...,e_{n-1}, then
    e_1,...,e_k."""
    if not 1 <= k < n - 1:
        raise BadDimensions(f"need 1 <= k < n-1, got k={k}, n={n}")
    pairs = [(i, j) for i in range(k + 1) for j in range(k + 1, n)] \
        + [(i, n) for i in range(1, k + 1)]
    return _pair_config(k, range(k + 1, n), pairs, f"confluent({k},{n})")


def genericity_lattice(simplex):
    """A_sigma^{-1} A_{sigma-bar} m for the m >= 0 with
    |m| <= GENERICITY_DEGREE, one row per m in graded-lex order: the shifts
    is_very_generic adds to A_sigma^{-1} delta.  A Simplex keeps it as its
    genericity_lattice."""
    W, _ = intlinalg.graded_lex_shells(len(simplex.bar), GENERICITY_DEGREE)
    return W.astype(float) @ simplex.C_float.T


def is_very_generic(simplex, delta):
    """Bounded check that A_sigma^{-1}(delta + A_{sigma-bar} m) has no entry
    within 1e-9 of an integer for all m >= 0 with |m| <= GENERICITY_DEGREE."""
    u0 = simplex.inv_float @ np.asarray([complex(x) for x in delta])
    ent = u0[None, :] + simplex.genericity_lattice
    return not ((np.abs(ent.real - ent.real.round()) < 1e-9)
                & (np.abs(ent.imag) < 1e-9)).any()


def _is_matrix(rows, kinds):
    """True iff rows is a list of equally long lists of instances of kinds,
    booleans excluded: JSON true would read as 1."""
    return isinstance(rows, list) and all(
        isinstance(row, list) and len(row) == len(rows[0])
        and all(isinstance(x, kinds) and not isinstance(x, bool) for x in row)
        for row in rows)


def load_block_config_json(doc):
    """Build (Config, delta) from {"k":..,"n":..,"blocks":[[[..]]],
    "gamma":[[re,im]..], "c":[[re,im]..]}.  k, n and the block entries must
    be JSON integers; a document of another shape raises BadDimensions."""
    if not isinstance(doc, dict):
        raise BadDimensions("config must be a JSON object")
    k, n, blocks = doc.get("k"), doc.get("n"), doc.get("blocks")
    pairs = doc.get("gamma", []), doc.get("c", [])
    if not (_is_matrix([[k, n]], int) and isinstance(blocks, list)
            and all(_is_matrix(blk, int) for blk in blocks)
            and all(_is_matrix(v, (int, float))
                    and all(len(pair) == 2 for pair in v) for v in pairs)):
        raise BadDimensions('config needs integers "k" and "n", integer '
                            'matrices "blocks" and [re, im] pairs "gamma" '
                            'and "c"')
    cfg = build_cayley(k, n, blocks)
    gamma_v, c_v = ([complex(re, im) for re, im in v] for v in pairs)
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
