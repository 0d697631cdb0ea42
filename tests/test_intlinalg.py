"""Exact integer and rational linear algebra, and the coset search of the
oracles."""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (coset_representatives_by_search, det_cofactor,
                     graded_lex_recursive, split_shells)

from gkzeuler import intlinalg
from gkzeuler.errors import BadDimensions, ExhaustedRetries, SingularMatrix

small_matrices = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r, max_size=r)))

square_matrices = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n),
        min_size=n, max_size=n))


@given(small_matrices)
@settings(max_examples=150, deadline=None)
def test_lattice_index_is_the_gcd_of_maximal_minors(M):
    # [Z^d : Z M] is the gcd of the d x d minors, and 0 (the gcd of none,
    # or of zeros only) below full rank
    minors = [det_cofactor([[row[j] for j in cols] for row in M])
              for cols in combinations(range(len(M[0])), len(M))]
    assert intlinalg.lattice_index(M) == math.gcd(*minors)


@given(square_matrices)
@settings(max_examples=150, deadline=None)
def test_det_bareiss_matches_cofactor_expansion(M):
    assert intlinalg.det_bareiss(M) == det_cofactor(M)


@given(square_matrices)
@settings(max_examples=100, deadline=None)
def test_rat_inverse_roundtrip(M):
    n = len(M)
    det = intlinalg.det_bareiss(M)
    if det == 0:
        with pytest.raises(SingularMatrix):
            intlinalg.rat_inverse(M)
        return
    inv, d = intlinalg.rat_inverse(M)
    assert d == det
    prod = np.array(inv, dtype=object) \
        @ np.array([[Fraction(x) for x in row] for row in M], dtype=object)
    assert prod.tolist() == [[int(i == j) for j in range(n)]
                             for i in range(n)]


def test_graded_lex_vectors_order_and_count():
    vs = list(intlinalg.graded_lex_vectors(3, 2))
    assert len(vs) == 6
    assert all(sum(v) == 2 for v in vs)
    assert vs == sorted(vs, reverse=True)
    assert len(set(vs)) == len(vs)
    assert vs == list(graded_lex_recursive(3, 2))


def test_graded_lex_vectors_degree_zero_and_empty_dim():
    assert list(intlinalg.graded_lex_vectors(2, 0)) == [(0, 0)]
    assert list(intlinalg.graded_lex_vectors(0, 0)) == [()]
    assert list(intlinalg.graded_lex_vectors(0, 1)) == []


def test_graded_lex_shells_match_recursive_oracle():
    for q in range(6):
        for M in range(11):
            W, bounds = intlinalg.graded_lex_shells(q, M)
            assert W.dtype == np.int64 and W.shape[1] == q
            assert len(bounds) == M + 2 and bounds[-1] == len(W)
            for deg, shell in enumerate(split_shells(W, bounds)):
                assert list(map(tuple, shell.tolist())) == \
                    list(graded_lex_recursive(q, deg)), (q, M, deg)
        W, bounds = intlinalg.graded_lex_shells(q, -1)
        assert W.shape == (0, q) and W.dtype == np.int64 and bounds == [0]


def test_graded_lex_shells_bound_rows_and_shells():
    # length 0 has one row at every degree, but M + 1 shells
    W, bounds = intlinalg.graded_lex_shells(0, intlinalg._ROWS_MAX - 1)
    assert W.shape == (1, 0) and len(bounds) == intlinalg._ROWS_MAX + 1
    for q, M in ((0, intlinalg._ROWS_MAX), (0, 10 ** 20), (2, 1500)):
        with pytest.raises(BadDimensions):
            intlinalg.graded_lex_shells(q, M)


def test_coset_search_raises_when_classes_run_out():
    # the cut-off q (r - 1) is tight: with q = 1, k -> k mod r meets its
    # last class, k = r - 1, exactly at the cut-off degree r - 1
    for r in range(1, 7):
        assert coset_representatives_by_search([[1]], r) == \
            [[j] for j in range(r)]
    # 2k mod 4 takes two of the four values, so a third class never appears
    with pytest.raises(ExhaustedRetries):
        coset_representatives_by_search([[2]], 4)
