"""Exact integer and rational linear algebra.

Matrices are plain lists of lists (row-major).  Integer matrices hold Python
ints, rational ones hold fractions.Fraction; both are arbitrary precision so
no intermediate swell can overflow.
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


def det_bareiss(M):
    """Exact integer determinant via fraction-free (Bareiss) elimination."""
    n, m = shape(M)
    assert n == m, "determinant needs a square matrix"
    if n == 0:
        return 1
    A = _copy(M)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            for r in range(k + 1, n):
                if A[r][k] != 0:
                    A[k], A[r] = A[r], A[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
            A[i][k] = 0
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


def rat_inverse(M):
    """Exact inverse of a square integer (or rational) matrix.

    Returns (inv, det) where det is the exact integer determinant (computed
    fraction-free) and inv has Fraction entries.  Raises SingularMatrix when
    det = 0.
    """
    n, m = shape(M)
    assert n == m
    det = det_bareiss(M)
    if det == 0:
        raise SingularMatrix("matrix is singular")
    A = [[Fraction(x) for x in row] for row in M]
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if A[r][col] != 0)
        if piv != col:
            A[col], A[piv] = A[piv], A[col]
            inv[col], inv[piv] = inv[piv], inv[col]
        p = A[col][col]
        A[col] = [x / p for x in A[col]]
        inv[col] = [x / p for x in inv[col]]
        for r in range(n):
            if r != col and A[r][col] != 0:
                f = A[r][col]
                A[r] = [x - f * y for x, y in zip(A[r], A[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return inv, det


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


def coset_representatives(M, count):
    """The first member, in graded-lex order over k in Z_{>=0}^q, of each of
    the `count` classes of (M k) mod 1, for a rational d x q matrix M.

    A simplex needs two such sets: M = A_sigma^{-1} A_{sigma-bar} gives the
    classes [A_{sigma-bar} k] of Z^d / Z A_sigma, and M = A_sigma^{-T} those
    of Z^sigma / Z A_sigma^T; both have |det A_sigma| classes.  Each class
    is hit by small k, so the search stops after a few degrees; it raises
    ExhaustedRetries if it does not.
    """
    q = shape(M)[1]
    reps = []
    seen = set()
    degree = 0
    while len(reps) < count:
        if degree > 4 * count + 4:
            raise ExhaustedRetries(
                f"coset search found {len(reps)} of {count} classes")
        for k in graded_lex_vectors(q, degree):
            frac = tuple(x % 1 for x in mat_vec(M, list(k)))
            if frac not in seen:
                seen.add(frac)
                reps.append(list(k))
                if len(reps) == count:
                    break
        degree += 1
    return reps
