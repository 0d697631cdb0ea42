"""Exact integer linear algebra.

Matrices are plain lists of lists (row-major) of Python ints, which are
arbitrary precision, so no intermediate swell can overflow.  One
fraction-free elimination (adjugate) gives the determinant, the adjugate
and, as Fractions adj / det, the inverse.
"""

from fractions import Fraction

import numpy as np

from .errors import ExhaustedRetries, SingularMatrix


def _copy(M):
    return [list(row) for row in M]


def shape(M):
    return len(M), len(M[0]) if M else 0


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    n, m = shape(A)
    m2, p = shape(B)
    assert m == m2, "dimension mismatch"
    return [[sum(A[i][k] * B[k][j] for k in range(m)) for j in range(p)]
            for i in range(n)]


def mat_vec(A, v):
    return [sum(row[j] * v[j] for j in range(len(v))) for row in A]


def smith_normal_form(M):
    """Smith normal form: returns (S, U, V) with U*M*V = S diagonal,
    divisors d_1 | d_2 | ... , U and V unimodular."""
    S = _copy(M)
    nrows, ncols = shape(S)
    U = identity(nrows)
    V = identity(ncols)

    def swap_rows(i, j):
        S[i], S[j] = S[j], S[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in S:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        S[dst] = [a + q * b for a, b in zip(S[dst], S[src])]
        U[dst] = [a + q * b for a, b in zip(U[dst], U[src])]

    def add_col(dst, src, q):
        for row in S:
            row[dst] += q * row[src]
        for row in V:
            row[dst] += q * row[src]

    t = 0
    while t < min(nrows, ncols):
        # locate a nonzero pivot in the remaining block
        pivot = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if S[i][j] != 0:
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        # clear row and column t by euclidean steps; restart if a remainder
        # reappears (standard worklist loop, always terminates since |S[t][t]|
        # strictly decreases)
        while True:
            again = False
            for i in range(t + 1, nrows):
                if S[i][t] != 0:
                    q = S[i][t] // S[t][t]
                    add_row(i, t, -q)
                    if S[i][t] != 0:
                        swap_rows(t, i)
                        again = True
            for j in range(t + 1, ncols):
                if S[t][j] != 0:
                    q = S[t][j] // S[t][t]
                    add_col(j, t, -q)
                    if S[t][j] != 0:
                        swap_cols(t, j)
                        again = True
            if not again:
                break
        # enforce divisibility d_t | d_{t+1}...: fold any bad entry into col t
        bad = None
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if S[i][j] % S[t][t] != 0:
                    bad = (i, j)
                    break
            if bad:
                break
        if bad is not None:
            add_row(t, bad[0], 1)
            continue
        if S[t][t] < 0:
            S[t] = [-a for a in S[t]]
            U[t] = [-a for a in U[t]]
        t += 1
    return S, U, V


def snf_divisors(M):
    S, _, _ = smith_normal_form(M)
    n = min(shape(S))
    return [S[i][i] for i in range(n) if S[i][i] != 0]


def adjugate(M):
    """(adj M, det M) of a square integer matrix M, where adj M = det M *
    M^{-1}, by one fraction-free (Bareiss) Gauss-Jordan elimination of
    [M | I]: every division is exact, so every entry stays an integer.
    Raises SingularMatrix when det M = 0."""
    n, m = shape(M)
    assert n == m, "adjugate needs a square matrix"
    A = [list(row) + e for row, e in zip(M, identity(n))]
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
    """Yields (deg, W) for deg = 0..M: the rows of the int64 array W are the
    nonnegative vectors of length q and degree deg, in decreasing lex order.
    Those of length k and degree deg are (deg - e, v), v of length k - 1 and
    degree e = 0..deg; each length is built in one array, all degrees at
    once, and the shells of length q are views into it."""
    if M < 0:
        return
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
    ends = np.cumsum(counts).tolist()
    for deg, (start, end) in enumerate(zip([0] + ends[:-1], ends)):
        yield deg, rows[start:end]


def graded_lex_vectors(dim, degree):
    """The last shell of graded_lex_shells(dim, degree), as int tuples."""
    for deg, W in graded_lex_shells(dim, degree):
        if deg == degree:
            yield from map(tuple, W.tolist())


def coset_representatives(M, r):
    """The first member, in graded-lex order over k in Z_{>=0}^q, of each of
    the r classes of (M k) mod r, for an integer d x q matrix M.

    A simplex needs two such sets, with r = |det A_sigma|: M = C_int =
    r A_sigma^{-1} A_{sigma-bar} gives the classes [A_{sigma-bar} k] of
    Z^d / Z A_sigma, and M = r A_sigma^{-T} those of Z^sigma / Z A_sigma^T;
    both have r classes.  Each class is hit by small k, so the search stops
    after a few degrees; it raises ExhaustedRetries if it does not.
    """
    q = shape(M)[1]
    reps = []
    seen = set()
    degree = 0
    while len(reps) < r:
        if degree > 4 * r + 4:
            raise ExhaustedRetries(
                f"coset search found {len(reps)} of {r} classes")
        for k in graded_lex_vectors(q, degree):
            residue = tuple(x % r for x in mat_vec(M, list(k)))
            if residue not in seen:
                seen.add(residue)
                reps.append(list(k))
                if len(reps) == r:
                    break
        degree += 1
    return reps
