"""Acceptance suite: end-to-end numerical and exact checks with pinned
tolerances and time budgets."""

import json
import math
import random
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from oracles import (graded_lex_recursive, pochhammer_reflection_check,
                     split_shells)

from gkzeuler import cli, config, intersection, intlinalg, series, specfun, \
    triangulation


# -- 1, 2: one-variable quadratic relations ---------------------------------

def test_gauss_relation_ten_random_draws():
    for seed in range(10):
        t0 = time.perf_counter()
        rep = intersection.verify_case("gauss", seed=seed, order=60)
        assert time.perf_counter() - t0 < 1.0
        assert rep.residual < 1e-10, (seed, rep.residual)


def test_kummer_relation_ten_random_draws():
    for seed in range(10):
        t0 = time.perf_counter()
        rep = intersection.verify_case("kummer", seed=seed, order=60)
        assert time.perf_counter() - t0 < 1.0
        assert rep.residual < 1e-10, (seed, rep.residual)


# -- 3, 4: two-block relations in one torus variable ------------------------

def test_f1_relation_five_draws():
    t0 = time.perf_counter()
    for seed in range(5):
        rep = intersection.verify_case("f1", seed=seed, order=40)
        assert rep.residual < 1e-9, (seed, rep.residual)
    assert time.perf_counter() - t0 < 5.0


def test_phi1_relation_five_draws():
    t0 = time.perf_counter()
    for seed in range(5):
        rep = intersection.verify_case("phi1", seed=seed, order=40)
        assert rep.residual < 1e-9, (seed, rep.residual)
    assert time.perf_counter() - t0 < 5.0


# -- 5, 6: two torus variables, six-term relations --------------------------

def test_e36_relation():
    t0 = time.perf_counter()
    rep = intersection.verify_case("e36", seed=0, order=24)
    assert time.perf_counter() - t0 < 60.0
    assert rep.residual < 1e-8, rep.residual
    # each of the six per-simplex contributions is individually finite
    rng = np.random.default_rng(0)
    data = intersection.CASES["e36"](rng)
    cfg, tri, delta, z = data["cfg"], data["tri"], data["delta"], data["z"]
    assert len(tri.simplices) == 6
    for s in tri.simplices:
        w = intersection.condensed_weight(cfg, s, delta)
        f = series.gamma_series(cfg, s, None, z, delta, 12)
        fd = series.dual_gamma_series(cfg, s, None, z,
                                      [-x for x in delta], 12)
        contrib = w * f.value * fd.value
        assert np.isfinite(contrib.real) and np.isfinite(contrib.imag)


def test_e36c_relation():
    t0 = time.perf_counter()
    rep = intersection.verify_case("e36c", seed=0, order=24)
    assert time.perf_counter() - t0 < 60.0
    assert rep.residual < 1e-8, rep.residual


# -- 7: exact rational coefficient identities -------------------------------

def test_exact_identities_through_degree_twelve():
    rng = random.Random(123)
    for n in range(1, 13):
        a = Fraction(rng.randint(1, 40), 41)
        b = Fraction(rng.randint(1, 40), 43)
        g = Fraction(rng.randint(43, 80), 41)
        assert intersection.exact_coefficient_identity(
            "gauss", n, a, beta=b, gamma=g) == 0
        assert intersection.exact_coefficient_identity(
            "kummer", n, a, gamma=g) == 0


# -- 8: secondary-fan scans --------------------------------------------------

def test_fan_scan_counts_and_flags():
    expected = {
        "g1": (5, None),
        "gamma2": (3, frozenset({(1, 4), (2, 3), (3, 4)})),
        "h4": (4, frozenset({(1, 2, 5), (1, 4, 5), (2, 3, 5), (3, 4, 5)})),
    }
    for name, (count, conv_key) in expected.items():
        cfg = config.get_config(name)
        tris = triangulation.enumerate_regular_triangulations(
            cfg, samples=500, seed=0)
        assert len(tris) == count, name
        if conv_key is None:
            assert all(t.convergent for t in tris)
        else:
            for t in tris:
                assert t.convergent == (frozenset(t.index_sets()) == conv_key)
    # specific flags: the scan of the first family contains a
    # non-unimodular triangulation through the simplex (2,3,5) of volume 2
    cfg = config.get_config("g1")
    s235 = triangulation.make_simplex(cfg, (2, 3, 5))
    assert s235.r == 2
    tris = triangulation.enumerate_regular_triangulations(cfg, samples=500,
                                                          seed=0)
    with_235 = [t for t in tris if (2, 3, 5) in t.index_sets()]
    assert with_235 and all(not t.unimodular for t in with_235)
    # every scanned triangulation of the third family is unimodular
    cfg = config.get_config("h4")
    tris = triangulation.enumerate_regular_triangulations(cfg, samples=500,
                                                          seed=0)
    assert all(t.unimodular for t in tris)


def test_fan_scan_e36_two_hundred_samples(capsys):
    t0 = time.perf_counter()
    code = cli.main(["fan-scan", "--config", "e36", "--samples", "200",
                     "--seed", "0"])
    assert time.perf_counter() - t0 < 3.0
    assert code == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["count"] == 90


# -- 9: staircase ladders and exponent vectors -------------------------------

def test_ladder_counts_up_to_nine():
    for n in range(2, 10):
        for k in range(1, n):
            assert len(triangulation.enumerate_ladders(k, n)) \
                == math.comb(n - 1, k)


def test_ladder_exponents_match_matrix_inverse():
    for k, n in [(1, 3), (1, 4), (2, 4), (2, 5)]:
        cfg = config.aomoto_gelfand_config(k, n)
        rng = random.Random(k * 10 + n)
        delta = [Fraction(rng.randint(1, 97), 101) for _ in range(cfg.d)]
        ctilde = intersection.ag_ctilde(cfg, delta)
        for lad in triangulation.enumerate_ladders(k, n):
            sigma = triangulation.ladder_to_simplex(lad, cfg)
            s = triangulation.make_simplex(cfg, sigma)
            assert s.r == 1
            v = [-sum(Fraction(s.adj[r][c], s.det) * delta[c]
                      for c in range(cfg.d)) for r in range(cfg.d)]
            ex = triangulation.ladder_exponents(lad, ctilde)
            assert v == [ex[cfg.pairs[j - 1]] for j in s.indices]


def _sorted_multiset(vectors):
    return sorted(tuple(sorted(v)) for v in vectors)


def _staircase_exponent_vectors(cfg, delta):
    tri = triangulation.staircase_triangulation(cfg)
    out = []
    for s in tri.simplices:
        out.append(tuple(-sum(Fraction(s.adj[r][c], s.det) * delta[c]
                              for c in range(cfg.d))
                         for r in range(cfg.d)))
    return out


def test_staircase_exponent_vectors_match_reference_e36():
    cfg = config.get_config("e36")
    c1, c2, c3, c4, c5 = (Fraction(p, 101) for p in (13, 17, 23, 31, 41))
    c0 = c3 + c4 + c5 - c1 - c2
    got = _staircase_exponent_vectors(cfg, [c3, c4, c5, c1, c2])
    reference = [
        (-c3, -c4, c0 + c1 - c5, -c1, -c0),
        (-c3, -c2 + c3, -c0 - c1 + c5, c0 - c5, -c0),
        (-c3, -c2 + c3, -c1, c5 - c0, -c5),
        (-c2, c2 - c3, -c4, c0 - c5, -c0),
        (-c2, c2 - c3, c0 - c4 - c5, c5 - c0, -c5),
        (-c2, -c1, -c0 + c4 + c5, -c4, -c5),
    ]
    assert _sorted_multiset(got) == _sorted_multiset(reference)


def test_staircase_exponent_vectors_match_reference_e36c():
    cfg = config.get_config("e36c")
    c1, c2, c3, c4 = (Fraction(p, 101) for p in (13, 17, 23, 31))
    c0 = c3 + c4 - c1 - c2
    got = _staircase_exponent_vectors(cfg, [c3, c4, c1, c2])
    reference = [
        (-c3, -c4, c0 + c1, -c1),
        (-c3, -c2 + c3, -c0 - c1, c0),
        (-c3, -c2 + c3, -c1, -c0),
        (-c2, c2 - c3, -c4, c0),
        (-c2, c2 - c3, c0 - c4, -c0),
        (-c2, -c1, -c0 + c4, -c4),
    ]
    assert _sorted_multiset(got) == _sorted_multiset(reference)


# -- 10: property suites ------------------------------------------------------

def test_lattice_coset_partition_to_degree_twenty():
    cfg = config.get_config("g1")
    s = triangulation.make_simplex(cfg, (2, 3, 4))
    assert s.r == 2
    sigma_bar = [j for j in range(1, cfg.N + 1) if j not in s.indices]
    inv, _ = intlinalg.rat_inverse(cfg.submatrix(s.indices))
    C = intlinalg.mat_mul(inv, cfg.submatrix(sigma_bar))
    kreps = intlinalg.coset_representatives(
        [[int(x * s.r) for x in row] for row in C], s.r)
    q = cfg.N - cfg.d
    shells = {tuple(k): split_shells(*series._coset_shells(s, k, 20)[:2])
              for k in kreps}
    for deg in range(21):
        everything = sorted(graded_lex_recursive(q, deg))
        covered = sorted(tuple(w) for k in kreps
                         for w in shells[tuple(k)][deg])
        assert covered == everything


def test_pochhammer_reflection_hundred_draws():
    rng = random.Random(77)
    checked = 0
    while checked < 100:
        g = complex(rng.uniform(-3.0, 3.0), rng.uniform(-1.5, 1.5))
        if abs(g.imag) < 0.05 and abs(g.real - round(g.real)) < 0.05:
            continue
        m = rng.randrange(0, 15)
        scale = max(abs(specfun.pochhammer(g, m)), 1.0)
        assert pochhammer_reflection_check(g, m) < 1e-11 * scale
        checked += 1


def test_gamma_suite_against_mpmath():
    rng = random.Random(55)
    for _ in range(200):
        z = complex(rng.uniform(-12.0, 12.0), rng.uniform(-8.0, 8.0))
        if abs(z.imag) < 1e-3 and abs(z.real - round(z.real)) < 1e-3:
            continue
        want = complex(mpmath.gamma(z))
        assert abs(specfun.gamma(z) - want) <= 1e-10 * max(abs(want), 1.0)


def test_gamma_identity_suite():
    import cmath
    rng = random.Random(321)
    for _ in range(100):
        z = complex(rng.uniform(0.1, 6.0), rng.uniform(-3.0, 3.0))
        # recurrence
        rec = specfun.gamma(z + 1) - z * specfun.gamma(z)
        assert abs(rec) <= 1e-11 * abs(specfun.gamma(z + 1))
        # reflection
        refl = specfun.gamma(z) * specfun.gamma(1 - z) \
            - math.pi / cmath.sin(math.pi * z)
        assert abs(refl) <= 1e-10 * abs(specfun.gamma(z)
                                        * specfun.gamma(1 - z))
        # Pochhammer additivity over integer shifts
        a = complex(rng.uniform(0.1, 2.0), rng.uniform(-1.0, 1.0))
        m, n = rng.randrange(0, 8), rng.randrange(0, 8)
        add = specfun.pochhammer(a, m + n) \
            - specfun.pochhammer(a, m) * specfun.pochhammer(a + m, n)
        assert abs(add) <= 1e-11 * max(abs(specfun.pochhammer(a, m + n)), 1.0)


def test_monodromy_weights_are_exact():
    # the congruence defining each shifted lattice holds exactly over Q
    cfg = config.get_config("g1")
    s = triangulation.make_simplex(cfg, (2, 3, 4))
    inv, _ = intlinalg.rat_inverse(cfg.submatrix(s.indices))
    sigma_bar = [j for j in range(1, cfg.N + 1) if j not in s.indices]
    C = intlinalg.mat_mul(inv, cfg.submatrix(sigma_bar))
    kreps = intlinalg.coset_representatives(
        [[int(x * s.r) for x in row] for row in C], s.r)
    for kvec in kreps:
        W, _ = series._coset_shells(s, kvec, 15)[:2]
        for w in W:
            m = [int(wi) - ki for wi, ki in zip(w, kvec)]
            assert all(x.denominator == 1 for x in intlinalg.mat_vec(C, m))


# -- 11: full period matrix for the smallest hyperplane family ---------------

def test_period_relation_matrix_e24():
    # the parameters the "ag" case draws, taken on E(2, 4)
    rng = np.random.default_rng(0)
    cfg = config.aomoto_gelfand_config(1, 3)
    c, g1, g2 = intersection._small_params(rng, 3, 0.12, 0.88)
    delta = (-g1, -g2, c)
    for _ in range(2):      # the case's two cocycle index sets, unused here
        rng.choice(4, size=2, replace=False)
    z = intersection._ag_grid_z(
        cfg, [[intersection._uniform(rng, 0.04, 0.08)]])
    tri = triangulation.staircase_triangulation(cfg)
    worst = intersection.period_relation_matrix_check(
        cfg, tri, delta, [(0, 1), (0, 2)], z, 40)
    assert worst < 1e-8, worst
