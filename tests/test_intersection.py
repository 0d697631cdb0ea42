"""Homology and cohomology intersection numbers, the cross-check of the
condensed relation weight against the assembled route of the oracles,
exact coefficient identities and classical residuals."""

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from oracles import (assembled_weight, gauss_relation_residual,
                     hankel_intersection, homology_intersection,
                     kummer_relation_residual, quadratic_lhs_assembled,
                     relation_sum_per_simplex)

from gkzeuler import config, intersection, series, triangulation
from gkzeuler.errors import (BadDimensions, DivergentTail,
                             NonGenericParameter, NotUnimodular, SineZero,
                             ZeroDenominator)


def test_hankel_intersection_value():
    g = 0.3
    assert abs(hankel_intersection(g)
               - (1 - cmath.exp(-2j * math.pi * g))) < 1e-15


def test_matsumoto_diagonal_and_offdiagonal():
    ct = [Fraction(-17, 12), Fraction(1, 3), Fraction(1, 4),
          Fraction(1, 2), Fraction(1, 4)]
    # diagonal: (sum over J) / (product over J)
    assert intersection.matsumoto_ag((0, 1), (0, 1), ct) == \
        (ct[0] + ct[1]) / (ct[0] * ct[1])
    # adjacent: +-1 / product over the common part
    v = intersection.matsumoto_ag((0, 1), (0, 2), ct)
    assert v == (-1) ** (1 + 1) / ct[0]
    v = intersection.matsumoto_ag((0, 1), (1, 2), ct)
    assert v == (-1) ** (0 + 1) / ct[1]
    # disjoint enough: zero
    assert intersection.matsumoto_ag((0, 1), (2, 3), ct) == 0.0
    with pytest.raises(ZeroDenominator):
        intersection.matsumoto_ag((0, 1), (0, 1), [0, 1, 1, 1, 1])


def test_matsumoto_confluent_is_diagonal_only():
    ct = [Fraction(-1), Fraction(1, 3), Fraction(1, 4), Fraction(5, 12)]
    assert intersection.matsumoto_confluent((1, 2), (1, 2), ct) == \
        1 / (ct[1] * ct[2])
    assert intersection.matsumoto_confluent((1, 2), (1, 3), ct) == 0.0


def test_ag_ctilde_sums_to_zero():
    cfg = config.get_config("e36")
    delta = [Fraction(p, 101) for p in (13, 17, 23, 31, 41)]
    ct = intersection.ag_ctilde(cfg, delta)
    assert sum(ct) == 0
    assert len(ct) == cfg.n + cfg.k + 1


def test_ag_zmatrix_and_det():
    cfg = config.get_config("gauss")
    z = (1.0, 1.0, 2.0, 3.0)
    mat = intersection.ag_zmatrix(cfg, z)
    assert mat.shape == (cfg.n + 1, cfg.n + cfg.k + 1)
    assert np.allclose(mat[:, :cfg.n + 1], np.eye(cfg.n + 1))
    # det over columns J = (0, 2): the identity column and the z column
    d = intersection.ag_det_zJ(cfg, z, (0, 2))
    assert abs(d - np.linalg.det(mat[:, [0, 2]])) < 1e-13


def test_homology_intersection_rejects_non_unimodular():
    cfg = config.get_config("g1")
    with pytest.raises(NotUnimodular):
        homology_intersection(cfg, (2, 3, 4), [0.3, 0.5, 0.7])


@pytest.mark.parametrize("name", ["gauss", "kummer", "f1", "phi1",
                                  "e36", "e36c"])
def test_assembled_route_matches_condensed_route(name):
    # per-simplex: (2 pi i)^{2d-n} T T_dual / <G,G'>_h must equal the
    # sine-form weight times the scalar prefactor of the relation
    rng = np.random.default_rng(11)
    data = intersection.CASES[name](rng)
    cfg, tri, delta, twist = (data["cfg"], data["tri"], data["delta"],
                              data["twist"])
    pref = intersection.quadratic_prefactor(cfg, delta, twist)
    for s in tri.simplices:
        condensed = pref * intersection.condensed_weight(cfg, s, delta)
        assembled = assembled_weight(cfg, s, delta, twist)
        assert abs(condensed - assembled) <= 1e-11 * abs(condensed), s.indices


@pytest.mark.parametrize("name", ["gauss", "kummer", "f1", "phi1"])
def test_quadratic_lhs_two_routes_agree(name):
    rng = np.random.default_rng(4)
    data = intersection.CASES[name](rng)
    a = intersection.quadratic_lhs(data["cfg"], data["tri"], data["delta"],
                                   data["twist"], data["z"], 20)
    b = quadratic_lhs_assembled(data["cfg"], data["tri"], data["delta"],
                                data["twist"], data["z"], 20)
    assert abs(a - b) <= 1e-11 * max(abs(a), 1.0)


def _outcome(fn, *args):
    try:
        return "ok", complex(fn(*args))
    except Exception as exc:          # compared by type and message
        return type(exc), str(exc)


def test_relation_sum_raises_the_first_failure_in_simplex_order(monkeypatch):
    # the stacked pass evaluates every simplex at once, yet the error raised
    # is the one the per-simplex loop meets first: a simplex's weight, then
    # its series, then their trust, before any later simplex.  A failing
    # weight is injected through intersection.condensed_weight, which both
    # sides read
    data = intersection.CASES["phi1"](np.random.default_rng(0))
    cfg, tri, delta, twist, z = (data["cfg"], data["tri"], data["delta"],
                                 data["twist"], data["z"])
    first, middle, last = (s.indices for s in tri.simplices)
    non_generic = set()

    def generic(simplex, d):
        return (simplex.indices not in non_generic
                and config.is_very_generic(simplex, d))

    condensed_weight = intersection.condensed_weight
    bad_weight = set()

    def weight(cfg, s, delta):
        if s.indices in bad_weight:
            raise SineZero(f"sin(pi z) vanishes at sigma={s.indices}")
        return condensed_weight(cfg, s, delta)

    monkeypatch.setattr(series, "is_very_generic", generic)
    monkeypatch.setattr(intersection, "condensed_weight", weight)
    cases = [
        # (non-generic simplices, simplices whose weight raises, M, expected)
        ({last}, (), 0, DivergentTail),          # untrusted first simplex
        ({last}, (first,), 40, SineZero),
        ({middle}, (last,), 40, NonGenericParameter),
        ({first}, (first,), 40, SineZero),
        ((), (first,), -1, SineZero),
        ((), (middle,), -1, BadDimensions),
        ((), (), 40, "ok"),
    ]
    for bad_delta, bad_weights, M, expected in cases:
        non_generic.clear()
        non_generic.update(bad_delta)
        bad_weight.clear()
        bad_weight.update(bad_weights)
        got = _outcome(intersection._relation_sum, cfg, tri, delta, twist, z,
                       M)
        want = _outcome(relation_sum_per_simplex, cfg, tri, delta, twist, z,
                        M, lambda s: intersection.condensed_weight(cfg, s,
                                                                   delta))
        assert got == want, (bad_delta, bad_weights, M)
        assert got[0] == expected, (bad_delta, bad_weights, M)


@pytest.mark.parametrize("name", ["phi1", "ag"])
def test_relation_sum_checks_genericity_once_per_distinct_delta(monkeypatch,
                                                                name):
    data = intersection.CASES[name](np.random.default_rng(0))
    cfg, tri = data["cfg"], data["tri"]
    dplus, dminus = intersection.twisted_deltas(cfg, data["delta"],
                                                data["twist"])
    seen = []

    def counted(simplex, d):
        seen.append((simplex.indices, tuple(d)))
        return config.is_very_generic(simplex, d)

    monkeypatch.setattr(series, "is_very_generic", counted)
    intersection.quadratic_lhs(cfg, tri, data["delta"], data["twist"],
                               data["z"], 8)
    deltas = [dplus] if dplus == dminus else [dplus, dminus]
    assert (name == "ag") == (len(deltas) == 2)
    assert seen == [(s.indices, d) for s in tri.simplices for d in deltas]


def test_verify_case_all_names_pass():
    for name in intersection.case_names():
        rep = intersection.verify_case(name, seed=3)
        assert rep.ok, (name, rep.residual)
        assert rep.residual < rep.tol


def test_ag_offdiagonal_cocycle_pairs():
    # several random cocycle pairs, including non-diagonal ones
    for seed in range(5):
        rep = intersection.verify_case("ag", seed=seed)
        assert rep.ok, (seed, rep.residual)


def test_exact_coefficient_identities_vanish():
    a, b, g = Fraction(1, 3), Fraction(1, 5), Fraction(3, 7)
    # degree zero carries the constant term of the relation
    assert intersection.exact_coefficient_identity(
        "gauss", 0, a, beta=b, gamma=g) == (1 - g) * (1 - g + a + b)
    assert intersection.exact_coefficient_identity(
        "kummer", 0, a, gamma=g) == g - 1
    for n in range(1, 9):
        assert intersection.exact_coefficient_identity(
            "gauss", n, a, beta=b, gamma=g) == 0
        assert intersection.exact_coefficient_identity(
            "kummer", n, a, gamma=g) == 0
    with pytest.raises(KeyError):
        intersection.exact_coefficient_identity("nope", 1, a)


def test_classical_residuals_small():
    rng = random.Random(9)
    for _ in range(10):
        a = rng.uniform(0.1, 0.9)
        b = rng.uniform(0.1, 0.9)
        g = rng.uniform(1.1, 1.9)
        w = rng.uniform(0.05, 0.3)
        assert gauss_relation_residual(a, b, g, w) < 1e-10
        assert kummer_relation_residual(a, g, w) < 1e-10


def test_period_relation_matrix_small_case():
    rng = np.random.default_rng(8)
    data = intersection.CASES["ag"](rng)
    cfg, tri, delta, z = data["cfg"], data["tri"], data["delta"], data["z"]
    Jlist = [(0, 1), (0, 2), (1, 2)]
    worst = intersection.period_relation_matrix_check(
        cfg, tri, delta, Jlist, z, 30)
    assert worst < 1e-8
