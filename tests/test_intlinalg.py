"""Exact integer and rational linear algebra."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import det_cofactor, graded_lex_recursive

from gkzeuler import intlinalg
from gkzeuler.errors import ExhaustedRetries, SingularMatrix

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
def test_snf_transform_and_divisibility(M):
    S, U, V = intlinalg.smith_normal_form(M)
    assert intlinalg.mat_mul(intlinalg.mat_mul(U, M), V) == S
    diag = [S[i][i] for i in range(min(len(S), len(S[0])))]
    for i in range(len(S)):
        for j in range(len(S[0])):
            if i != j:
                assert S[i][j] == 0
    for a, b in zip(diag, diag[1:]):
        if a != 0:
            assert b % a == 0
        else:
            assert b == 0
    assert all(x >= 0 for x in diag)


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
    prod = intlinalg.mat_mul(inv, [[Fraction(x) for x in row] for row in M])
    assert prod == intlinalg.identity(n)


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
            shells = list(intlinalg.graded_lex_shells(q, M))
            assert [deg for deg, _ in shells] == list(range(M + 1))
            for deg, W in shells:
                assert W.dtype == np.int64 and W.shape[1] == q
                assert list(map(tuple, W.tolist())) == \
                    list(graded_lex_recursive(q, deg)), (q, M, deg)


def test_coset_search_raises_when_classes_run_out():
    assert intlinalg.coset_representatives([[1]], 2) == [[0], [1]]
    # 2k mod 4 takes two of the four values, so a third class never appears
    with pytest.raises(ExhaustedRetries):
        intlinalg.coset_representatives([[2]], 4)
