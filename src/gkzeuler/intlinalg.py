"""Exact integer linear algebra.

Entries are Python ints, which are arbitrary precision, so no swell can
overflow; products are taken over numpy object arrays.  One fraction-free
elimination (adjugate) gives the determinant, the adjugate and, as
Fractions adj / det, the inverse; one column reduction (lattice_index)
gives the index of the lattice spanned by the columns.  The vectors of
Z_{>=0}^q up to a degree are one int64 array in graded-lex order with its
shell bounds (graded_lex_shells).
"""

import math
from fractions import Fraction

import numpy as np

from .errors import BadDimensions, SingularMatrix

_ROWS_MAX = 2 ** 20   # rows of one graded-lex array


def lattice_index(M):
    """[Z^d : Z M] for an integer d x N matrix M, 0 when its rank is below
    d.  A column Hermite reduction, one row at a time: Euclid steps reduce
    every other live column by the live column with the smallest nonzero
    |entry| in the row, until one live column is left nonzero there.  That
    column is the pivot and leaves; the index is the product of |pivots|."""
    cols = [list(col) for col in zip(*M)]
    index = 1
    for i in range(len(M)):
        live = [col for col in cols if col[i] != 0]
        while len(live) > 1:
            p = min(live, key=lambda col: abs(col[i]))
            for col in live:
                if col is not p:
                    q = col[i] // p[i]
                    col[i:] = [a - q * b for a, b in zip(col[i:], p[i:])]
            live = [col for col in live if col[i] != 0]
        if not live:
            return 0
        index *= abs(live[0][i])
        cols.remove(live[0])
    return index


def adjugate(M):
    """(adj M, det M) of a square integer matrix M, where adj M = det M *
    M^{-1}, by one fraction-free (Bareiss) Gauss-Jordan elimination of
    [M | I]: every division is exact, so every entry stays an integer.
    Raises SingularMatrix when det M = 0."""
    n = len(M)
    assert all(len(row) == n for row in M), "adjugate needs a square matrix"
    A = [list(row) + e for row, e in zip(M, np.eye(n, dtype=int).tolist())]
    sign = 1
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if A[i][k] != 0), None)
        if piv is None:
            raise SingularMatrix("matrix is singular")
        if piv != k:
            A[k], A[piv] = A[piv], A[k]
            sign = -sign
        p = A[k][k]
        for i in range(n):
            if i != k:
                a = A[i][k]
                A[i] = [(p * x - a * y) // prev for x, y in zip(A[i], A[k])]
        prev = p
    # A is now [prev I | prev M^{-1}], with prev = sign * det M
    return [[sign * x for x in row[n:]] for row in A], sign * prev


def det_bareiss(M):
    """Exact integer determinant of a square integer matrix, 0 when
    singular; see adjugate."""
    try:
        return adjugate(M)[1]
    except SingularMatrix:
        return 0


def rat_inverse(M):
    """(M^{-1}, det M) for a square integer matrix M: the inverse has
    Fraction entries adj M / det M; see adjugate.  Raises SingularMatrix
    when det M = 0."""
    adj, det = adjugate(M)
    return [[Fraction(a, det) for a in row] for row in adj], det


def graded_lex_shells(q, M):
    """(W, bounds): the rows of the int64 array W are the nonnegative vectors
    of length q and degree <= M, by degree, each degree in decreasing lex
    order; shell deg is W[bounds[deg]:bounds[deg + 1]].  Those of length k
    and degree deg are (deg - e, v), v of length k - 1 and degree e = 0..deg;
    each length is built in one array, all degrees at once.  Raises
    BadDimensions beyond _ROWS_MAX rows or, as q = 0 has one row at any M,
    beyond _ROWS_MAX shells."""
    if M < 0:
        return np.zeros((0, q), dtype=np.int64), [0]
    if math.comb(M + q, q) > _ROWS_MAX:
        raise BadDimensions(f"{math.comb(M + q, q)} vectors of length {q} "
                            f"and degree <= {M} exceed {_ROWS_MAX}")
    if M + 1 > _ROWS_MAX:       # q = 0, as C(M + q, q) >= M + 1
        raise BadDimensions(f"order {M}: {M + 1} shells exceed {_ROWS_MAX}")
    rows = np.zeros((1, 0), dtype=np.int64)   # length 0: (), of degree 0
    degree = np.zeros(1, dtype=np.int64)      # the degree of each row
    counts = [1] + [0] * M                    # the rows of each degree
    degrees = np.arange(M + 1)
    for _ in range(q):
        # shell deg takes the first counts[deg] rows, those of degree <= deg
        counts = np.searchsorted(degree, degrees, side="right").tolist()
        new_degree = np.repeat(degrees, counts)
        longer = np.empty((len(new_degree), rows.shape[1] + 1),
                          dtype=np.int64)
        longer[:, 0] = new_degree - np.concatenate([degree[:n]
                                                    for n in counts])
        longer[:, 1:] = np.concatenate([rows[:n] for n in counts])
        rows, degree = longer, new_degree
    return rows, [0] + np.cumsum(counts).tolist()


def graded_lex_vectors(dim, degree):
    """The last shell of graded_lex_shells(dim, degree), as int tuples."""
    W, bounds = graded_lex_shells(dim, degree)     # W is empty if degree < 0
    yield from map(tuple, W[bounds[max(degree, 0)]:].tolist())

