"""Gamma-series evaluation: lattice coset structure, an independent
direct-summation oracle, the dual-series sign rule, convergence guards and
transformation matrices."""

import cmath
import math
from fractions import Fraction
from itertools import product

import mpmath
import numpy as np
import pytest
from oracles import graded_lex_recursive, series_by_shell

from gkzeuler import config, intersection, intlinalg, series, triangulation
from gkzeuler.errors import DivergentTail, NonGenericParameter, ScaleTooSmall


def _nonunimodular_simplex(cfg):
    for sigma in [(2, 3, 4), (2, 4, 5), (2, 3, 5), (3, 4, 5)]:
        s = triangulation.make_simplex(cfg, sigma)
        if s.r > 1:
            return s
    raise AssertionError("no non-unimodular simplex found")


def _coset_reps(cfg, s):
    """Representatives k of Z^d / Z A_sigma, read off A_sigma^{-1} A_bar."""
    sigma_bar = [j for j in range(1, cfg.N + 1) if j not in s.indices]
    C = intlinalg.mat_mul([list(r) for r in s.inv], cfg.submatrix(sigma_bar))
    return intlinalg.coset_representatives(C, s.r)


def test_lattice_cosets_partition_the_orthant():
    # the shifted lattices Lambda_k over a complete set of coset
    # representatives partition Z_{>=0}^{sigma_bar}, degree by degree
    cfg = config.get_config("g1")
    s = _nonunimodular_simplex(cfg)
    kreps = _coset_reps(cfg, s)
    assert len(kreps) == s.r
    q = cfg.N - cfg.d
    maxdeg = 20
    shells = {tuple(k): dict(series.lattice_shells(cfg, s, k, maxdeg))
              for k in kreps}
    for deg in range(maxdeg + 1):
        everything = list(graded_lex_recursive(q, deg))
        covered = []
        for k in kreps:
            covered.extend(tuple(w) for w in shells[tuple(k)][deg])
        assert sorted(covered) == sorted(everything)
        assert len(set(covered)) == len(covered)


def test_lattice_shell_congruence_is_exact():
    cfg = config.get_config("g1")
    s = _nonunimodular_simplex(cfg)
    inv = [[Fraction(x) for x in row] for row in s.inv]
    sigma_bar = [j for j in range(1, cfg.N + 1) if j not in s.indices]
    C = intlinalg.mat_mul(inv, cfg.submatrix(sigma_bar))
    kvec = intlinalg.coset_representatives(C, s.r)[1]
    for deg, W in series.lattice_shells(cfg, s, kvec, 12):
        for w in W:
            m = [int(wi) - ki for wi, ki in zip(w, kvec)]
            img = intlinalg.mat_vec(C, m)
            assert all(x.denominator == 1 for x in img)


def _direct_series(cfg, sigma, kvec, z, delta, M, dual):
    """Brute-force reference evaluation with mpmath, term by term."""
    s = sigma if isinstance(sigma, triangulation.Simplex) \
        else triangulation.make_simplex(cfg, sigma)
    inv = [[Fraction(x) for x in row] for row in s.inv]
    sigma_bar = [j for j in range(1, cfg.N + 1) if j not in s.indices]
    q = len(sigma_bar)
    C = intlinalg.mat_mul(inv, cfg.submatrix(sigma_bar))
    u0 = [sum(complex(inv[r][c]) * complex(delta[c]) for c in range(cfg.d))
          for r in range(cfg.d)]
    kvec = list(kvec) if kvec is not None else [0] * q
    sgn = 1.0 if dual else -1.0
    pref = 1.0 + 0j
    for p, j in enumerate(s.indices):
        pref *= complex(mpmath.power(complex(z[j - 1]), sgn * u0[p]))
    bar0 = [p for p, j in enumerate(sigma_bar) if j in cfg.blocks[0]]
    idx0 = [p for p, j in enumerate(s.indices) if j in cfg.blocks[0]]
    total = mpmath.mpc(0)
    for w in product(range(M + 1), repeat=q):
        if sum(w) > M:
            continue
        m = [wi - ki for wi, ki in zip(w, kvec)]
        img = intlinalg.mat_vec(C, m)
        if any(x.denominator != 1 for x in img):
            continue
        term = mpmath.mpc(1)
        for p, j in enumerate(sigma_bar):
            term *= mpmath.power(complex(z[j - 1]), w[p])
            term /= mpmath.factorial(w[p])
        for r in range(cfg.d):
            cw = sum(complex(C[r][p]) * w[p] for p in range(q))
            arg = 1.0 + sgn * u0[r] - cw
            if abs(arg.imag) < 1e-12 and abs(arg.real - round(arg.real)) < 1e-12 \
                    and round(arg.real) <= 0:
                term = mpmath.mpc(0)
                break
            term /= mpmath.gamma(arg)
        if dual and term != 0:
            phase = sum(w[p] for p in bar0)
            for p0 in idx0:
                phase += sum(complex(C[p0][p]).real * w[p] for p in range(q))
            term *= mpmath.exp(1j * mpmath.pi * phase)
        if term != 0:
            # pull the summand coordinates back to the z variables
            for r in range(cfg.d):
                cw = sum(complex(C[r][p]) * w[p] for p in range(q))
                term *= mpmath.power(complex(z[s.indices[r] - 1]), -cw)
        total += term
    return pref * complex(total)


@pytest.mark.parametrize("dual", [False, True])
def test_series_matches_direct_summation_unimodular(dual):
    cfg = config.get_config("gauss")
    sigma = (1, 2, 3)
    delta = [0.377, 0.211, 0.613]
    z = [1.0, 1.0, 1.0, 0.21]
    fn = series.dual_gamma_series if dual else series.gamma_series
    got = fn(cfg, sigma, None, z, delta, 18)
    want = _direct_series(cfg, sigma, None, z, delta, 18, dual)
    assert abs(got.value - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("dual", [False, True])
def test_series_matches_direct_summation_with_cosets(dual):
    cfg = config.get_config("g1")
    s = _nonunimodular_simplex(cfg)
    kreps = _coset_reps(cfg, s)
    delta = [0.313, 0.577, 0.239]
    tri = next(t for t in triangulation.enumerate_regular_triangulations(
        cfg, samples=200, seed=1) if s.indices in t.index_sets())
    z = series.sample_point_in_UT(cfg, tri, t=8.0)
    fn = series.dual_gamma_series if dual else series.gamma_series
    for kvec in kreps:
        got = fn(cfg, s, kvec, z, delta, 16)
        want = _direct_series(cfg, s, kvec, z, delta, 16, dual)
        assert abs(got.value - want) <= 1e-11 * max(abs(want), 1e-30)


def _block_reference_inputs():
    """(cfg, simplex, kvec, z, delta, M, dual) for the block-evaluation test:
    gauss at order 40, a g1 simplex with r = 2 and a coset shift, all six
    e36 staircase simplices and one e36c simplex at order 24, the last two
    at the twisted parameters of their quadratic relation."""
    out = []
    gauss = config.get_config("gauss")
    g1 = config.get_config("g1")
    for dual in (False, True):
        out.append((gauss, triangulation.make_simplex(gauss, (1, 2, 3)), None,
                    (1.0, 1.0, 1.0, 0.21), (0.377, 0.211, 0.613), 40, dual))
        out.append((g1, triangulation.make_simplex(g1, (2, 3, 4)), (1, 0),
                    (0.05, 0.5, 1.0, 2.0, 0.02), (0.313, 0.577, 0.239), 30,
                    dual))
    for name, count in (("e36", 6), ("e36c", 1)):
        data = intersection.CASES[name](np.random.default_rng(0))
        dplus, dminus = intersection.twisted_deltas(
            data["cfg"], data["delta"], data["twist"])
        assert len(data["tri"].simplices) >= count
        for s in data["tri"].simplices[:count]:
            out.append((data["cfg"], s, None, data["z"], dplus, 24, False))
            out.append((data["cfg"], s, None, data["z"], dminus, 24, True))
    return out


def test_block_evaluation_matches_shell_by_shell_reference():
    # blocks of shells share one pass over W and one log-Gamma per distinct
    # argument; every number must come out bit for bit as shell by shell
    def bits(x):
        return np.asarray(x, dtype=complex).tobytes()

    for cfg, s, kvec, z, delta, M, dual in _block_reference_inputs():
        fn = series.dual_gamma_series if dual else series.gamma_series
        got = fn(cfg, s, kvec, z, delta, M)
        value, shell_maxes, terms, series_abs = series_by_shell(
            cfg, s, kvec, z, delta, M, dual)
        where = (cfg.name, s.indices, dual)
        assert bits(got.value) == bits(value), where
        assert bits(got.shell_maxes) == bits(shell_maxes), where
        assert got.terms_summed == terms, where
        assert bits(got.series_abs) == bits(series_abs), where


def test_series_exponent_is_signed_u0():
    cfg = config.get_config("gauss")
    sigma = (1, 2, 3)
    delta = [0.377, 0.211, 0.613]
    s = triangulation.make_simplex(cfg, sigma)
    u0 = [sum(float(s.inv[r][c]) * delta[c] for c in range(cfg.d))
          for r in range(cfg.d)]
    z = [1.0, 1.0, 1.0, 0.1]
    g = series.gamma_series(cfg, sigma, None, z, delta, 6)
    d = series.dual_gamma_series(cfg, sigma, None, z, delta, 6)
    assert np.allclose([complex(x) for x in g.exponent],
                       [-u for u in u0], atol=1e-12)
    assert np.allclose([complex(x) for x in d.exponent], u0, atol=1e-12)


def test_dual_series_sign_flip_rule_on_confluent_grid():
    # on simplices avoiding the exponential block, the dual series equals
    # the plain series with delta negated and the exponential-block
    # coordinates of z negated
    cfg = config.get_config("e36c")
    tri = triangulation.staircase_triangulation(cfg, 2, 5, confluent=True)
    delta = [0.23, 0.31, 0.13, 0.17]
    z1, z2, z3, z4 = 0.05, 0.045, 0.055, 0.06
    zmap = {(0, 3): 1.0, (0, 4): 1.0,
            (1, 3): 1.0, (1, 4): z1, (1, 5): z1 * z2,
            (2, 3): 1.0, (2, 4): z1 * z3, (2, 5): z1 * z2 * z3 * z4}
    z = [zmap[p] for p in cfg.pairs]
    flipped = [-zj if j + 1 in cfg.blocks[0] else zj
               for j, zj in enumerate(z)]
    checked = 0
    for s in tri.simplices:
        if s.blocks[0]:
            continue
        dv = series.dual_gamma_series(cfg, s, None, z, delta, 14)
        gv = series.gamma_series(cfg, s, None, flipped,
                                 [-x for x in delta], 14)
        assert abs(dv.value - gv.value) <= 1e-13 * abs(dv.value)
        checked += 1
    assert checked == 3


def test_trusted_flag_and_divergent_tail():
    cfg = config.get_config("gauss")
    sigma = (1, 2, 3)
    delta = [0.377, 0.211, 0.613]
    good = series.gamma_series(cfg, sigma, None, [1, 1, 1, 0.01], delta, 10)
    assert good.trusted
    shallow = series.gamma_series(cfg, sigma, None, [1, 1, 1, 0.8], delta, 2)
    assert not shallow.trusted
    with pytest.raises(DivergentTail):
        series.gamma_series(cfg, sigma, None, [1, 1, 1, 2.5], delta, 30)


def test_non_generic_parameter_rejected():
    cfg = config.get_config("gauss")
    with pytest.raises(NonGenericParameter):
        series.gamma_series(cfg, (1, 2, 3), None, [1, 1, 1, 0.1],
                            [1.0, 2.0, 3.0], 6)
    with pytest.raises(NonGenericParameter):
        series.transformation_matrix(cfg, (1, 2, 3), [1.0, 2.0, 3.0])


def test_sample_point_in_ut():
    cfg = config.get_config("gauss")
    omega = triangulation.sample_interior_lifting(cfg, seed=2)
    tri = triangulation.triangulate(cfg, omega)
    z = series.sample_point_in_UT(cfg, tri, t=12.0)
    assert len(z) == cfg.N
    assert all(x > 0 for x in z)
    with pytest.raises(ScaleTooSmall):
        series.sample_point_in_UT(cfg, tri, t=1e-9)


def test_sgn_and_epsilon_basics():
    cfg = config.get_config("gauss")
    for sigma in [(1, 2, 3), (1, 2, 4), (2, 3, 4)]:
        assert series.sgn_A_sigma(cfg, sigma) in (-1, 1)
        assert series.epsilon_sigma(cfg, sigma, [0.3, 0.5, 0.7]) == 1.0 + 0j
    cfgc = config.get_config("e36c")
    s = triangulation.make_simplex(cfgc, (5, 6, 7, 8))
    assert len(s.blocks[0]) == 2
    eps = series.epsilon_sigma(cfgc, s, [0.23, 0.31, 0.13, 0.17])
    assert abs(eps) > 0 and eps != 1.0 + 0j


def test_transformation_matrix_shape_and_unimodular_scalar():
    cfg = config.get_config("g1")
    delta = [0.313, 0.577, 0.239]
    s = _nonunimodular_simplex(cfg)
    T = series.transformation_matrix(cfg, s, delta)
    assert len(T) == s.r and all(len(row) == s.r for row in T)
    s1 = triangulation.make_simplex(cfg, (1, 2, 5))
    T1 = series.transformation_matrix(cfg, s1, delta)
    assert len(T1) == 1 and len(T1[0]) == 1
