"""Regular triangulations, secondary-fan scans, staircase ladders and their
exponent vectors."""

import math
import random
from fractions import Fraction

import pytest

from gkzeuler import cli, config, intersection, intlinalg, triangulation
from gkzeuler.errors import (BadDimensions, DegenerateLifting,
                             ExhaustedRetries, NotATriangulation)
from oracles import regular_cells


def _sets(tri):
    return frozenset(tri.index_sets())


def test_is_homogeneous_on_registry():
    homogeneous = {"g1", "f1", "gauss", "e36"}
    for name in config.registry_names():
        cfg = config.get_config(name)
        assert triangulation.is_homogeneous(cfg) == (name in homogeneous), name


def test_triangulate_gauss_validated():
    cfg = config.get_config("gauss")
    omega = triangulation.sample_interior_lifting(cfg, seed=1)
    tri = triangulation.triangulate(cfg, omega)
    assert sum(s.r for s in tri.simplices) == triangulation.normalized_volume(cfg)
    for s in tri.simplices:
        assert len(s.indices) == cfg.d
        assert s.det != 0


def test_volume_sum_is_invariant_for_homogeneous_configs():
    cfg = config.get_config("f1")
    vols = set()
    rng = random.Random(5)
    built = 0
    while built < 5:
        omega = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(cfg.N)]
        try:
            tri = triangulation.triangulate(cfg, omega)
        except (DegenerateLifting, NotATriangulation):
            continue
        vols.add(sum(s.r for s in tri.simplices))
        built += 1
    assert vols == {triangulation.normalized_volume(cfg)}


def test_volume_sum_varies_for_confluent_config():
    # cone triangulations of a non-homogeneous configuration can have
    # different volume sums; the ray test still validates each of them
    cfg = config.get_config("e36c")
    tris = triangulation.enumerate_regular_triangulations(cfg, samples=80,
                                                          seed=0)
    vols = {sum(s.r for s in tri.simplices) for tri in tris}
    assert len(vols) > 1


def test_triangulation_from_simplices_rejects_overlap():
    cfg = config.get_config("gauss")
    with pytest.raises(NotATriangulation):
        triangulation.triangulation_from_simplices(
            cfg, [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)])


def _confluent_staircase_gap():
    cfg = config.get_config("e36c")
    tri = triangulation.staircase_triangulation(cfg, 2, 5, confluent=True)
    return [s.indices for s in tri.simplices[1:]]


@pytest.mark.parametrize("name,index_sets", [
    # every nonsingular subset: the cones overlap
    ("gamma2", [(1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]),
    ("kummer", [(1, 2), (1, 3), (2, 3)]),
    # the staircase without its first simplex leaves a gap
    ("e36c", None),
])
def test_ray_test_rejects_overlaps_and_gaps(name, index_sets):
    # non-homogeneous configurations skip the volume sum, so the random-ray
    # multiplicity test is the one that must reject these
    cfg = config.get_config(name)
    assert not triangulation.is_homogeneous(cfg)
    with pytest.raises(NotATriangulation, match="random-ray"):
        triangulation.triangulation_from_simplices(
            cfg, index_sets or _confluent_staircase_gap())


def test_ray_test_caps_boundary_redraws():
    # when every draw is equal, each ray is A(1, ..., 1), which lies on the
    # boundary of the cone of kummer's simplex (1, 2); it is drawn again
    # only up to the cap
    class SameDraw:
        def randint(self, a, b):
            return a

    cfg = config.get_config("kummer")
    s = triangulation.make_simplex(cfg, (1, 2))
    assert s.C_int.tolist() == [[-1], [1]]
    with pytest.raises(ExhaustedRetries):
        triangulation._ray_test(cfg, [s], SameDraw())


@pytest.mark.parametrize("name", config.registry_names())
def test_lifting_test_matches_fraction_oracle(name):
    # small integer and rational liftings hit both generic and degenerate
    # liftings; the integer test on C_int must agree with the Fraction
    # lifting criterion on the cells and on where it raises
    cfg = config.get_config(name)
    rng = random.Random(sum(map(ord, name)))
    outcomes = set()
    for trial in range(18):
        if trial % 3 == 2:
            omega = [Fraction(rng.randint(-6, 6), rng.randint(1, 5))
                     for _ in range(cfg.N)]
        else:
            span = 1 + 3 * (trial % 3)
            omega = [rng.randint(-span, span) for _ in range(cfg.N)]
        try:
            want = regular_cells(cfg, omega)
        except DegenerateLifting:
            with pytest.raises(DegenerateLifting):
                triangulation._triangulate_raw(cfg, omega)
            outcomes.add("degenerate")
            continue
        got = triangulation._triangulate_raw(cfg, omega)
        assert frozenset(s.indices for s in got) == want, omega
        outcomes.add("cells")
    assert outcomes == {"cells", "degenerate"}


def test_degenerate_lifting_raises():
    cfg = config.get_config("gauss")
    with pytest.raises(DegenerateLifting):
        triangulation.triangulate(cfg, [0, 0, 0, 0])


def test_fan_scan_g1():
    cfg = config.get_config("g1")
    tris = triangulation.enumerate_regular_triangulations(cfg, samples=500,
                                                          seed=0)
    got = {_sets(t) for t in tris}
    want = {
        frozenset({(2, 3, 5), (3, 4, 5)}),
        frozenset({(1, 2, 5), (1, 3, 4), (1, 4, 5)}),
        frozenset({(2, 3, 4), (2, 4, 5)}),
        frozenset({(1, 2, 5), (1, 3, 5), (3, 4, 5)}),
        frozenset({(1, 2, 4), (1, 3, 4), (2, 4, 5)}),
    }
    assert got == want
    assert all(t.convergent for t in tris)
    assert {t.unimodular for t in tris} == {True, False}


def test_fan_scan_gamma2():
    cfg = config.get_config("gamma2")
    tris = triangulation.enumerate_regular_triangulations(cfg, samples=500,
                                                          seed=0)
    got = {_sets(t): t for t in tris}
    want = {
        frozenset({(1, 4), (2, 3), (3, 4)}),
        frozenset({(1, 4), (2, 4)}),
        frozenset({(1, 3), (2, 3)}),
    }
    assert set(got) == want
    conv = frozenset({(1, 4), (2, 3), (3, 4)})
    assert got[conv].convergent
    assert all(not t.convergent for key, t in got.items() if key != conv)
    assert all(t.unimodular for t in tris)


def test_fan_scan_h4():
    cfg = config.get_config("h4")
    tris = triangulation.enumerate_regular_triangulations(cfg, samples=500,
                                                          seed=0)
    got = {_sets(t): t for t in tris}
    want = {
        frozenset({(1, 2, 5), (1, 4, 5), (2, 3, 5), (3, 4, 5)}),
        frozenset({(1, 2, 3)}),
        frozenset({(1, 2, 5), (1, 3, 5), (2, 3, 5)}),
        frozenset({(1, 2, 4), (2, 3, 4)}),
    }
    assert set(got) == want
    conv = frozenset({(1, 2, 5), (1, 4, 5), (2, 3, 5), (3, 4, 5)})
    assert got[conv].convergent
    assert all(not t.convergent for key, t in got.items() if key != conv)
    assert all(t.unimodular for t in tris)


def test_ladder_counts():
    for n in range(2, 10):
        for k in range(1, n):
            ladders = triangulation.enumerate_ladders(k, n)
            assert len(ladders) == math.comb(n - 1, k)
            assert len(set(ladders)) == len(ladders)
            for lad in ladders:
                assert lad[0] == (k, k + 1)
                assert lad[-1] == (0, n)
                for (a, b), (c, d) in zip(lad, lad[1:]):
                    assert (c, d) in ((a - 1, b), (a, b + 1))


def test_enumerate_ladders_rejects_bad_input():
    with pytest.raises(BadDimensions):
        triangulation.enumerate_ladders(3, 3)


@pytest.mark.parametrize("k,n", [(1, 3), (1, 4), (2, 4), (2, 5)])
def test_staircase_is_a_unimodular_triangulation(k, n):
    cfg = config.aomoto_gelfand_config(k, n)
    tri = triangulation.staircase_triangulation(cfg, k, n)
    assert len(tri.simplices) == math.comb(n - 1, k)
    assert tri.unimodular


@pytest.mark.parametrize("k,n", [(1, 3), (2, 4), (2, 5)])
def test_confluent_staircase_is_a_triangulation(k, n):
    cfg = config.confluent_config(k, n)
    tri = triangulation.staircase_triangulation(cfg, k, n, confluent=True)
    assert len(tri.simplices) == math.comb(n - 1, k)
    assert tri.unimodular


@pytest.mark.parametrize("k,n", [(1, 3), (2, 5), (1, 4), (3, 6)])
def test_ladder_exponent_formula_matches_exact_inverse(k, n):
    cfg = config.aomoto_gelfand_config(k, n)
    rng = random.Random(k * 100 + n)
    delta = [Fraction(rng.randint(1, 97), 101) for _ in range(cfg.d)]
    ctilde = intersection.ag_ctilde(cfg, delta)
    for lad in triangulation.enumerate_ladders(k, n):
        sigma = triangulation.ladder_to_simplex(lad, cfg)
        s = triangulation.make_simplex(cfg, sigma)
        v = [-sum(Fraction(s.inv[r][c]) * delta[c] for c in range(cfg.d))
             for r in range(cfg.d)]
        ex = triangulation.ladder_exponents(lad, ctilde)
        assert v == [ex[cfg.pairs[j - 1]] for j in s.indices]


@pytest.mark.parametrize("k,n", [(1, 3), (2, 5), (2, 4)])
def test_confluent_ladder_exponent_formula_matches_exact_inverse(k, n):
    cfg = config.confluent_config(k, n)
    rng = random.Random(k * 100 + n)
    delta = [Fraction(rng.randint(1, 97), 101) for _ in range(cfg.d)]
    ctilde = intersection.ag_ctilde(cfg, delta)[:n]
    for lad in triangulation.enumerate_ladders(k, n):
        sigma = triangulation.ladder_to_simplex(
            [c for c in lad if c != (0, n)], cfg)
        s = triangulation.make_simplex(cfg, sigma)
        v = [-sum(Fraction(s.inv[r][c]) * delta[c] for c in range(cfg.d))
             for r in range(cfg.d)]
        ex = triangulation.ladder_exponents(lad, ctilde, confluent=True)
        assert v == [ex[cfg.pairs[j - 1]] for j in s.indices]


def _sorted_multiset(vectors):
    return sorted(tuple(sorted(v)) for v in vectors)


def test_e36_staircase_exponent_vectors_match_reference():
    # reference prefactor exponents for the six staircase series of the
    # E(3,6) family, as functions of c_0..c_5 with c_0+c_1+c_2 = c_3+c_4+c_5
    cfg = config.get_config("e36")
    c1, c2, c3, c4, c5 = (Fraction(p, 101) for p in (13, 17, 23, 31, 41))
    c0 = c3 + c4 + c5 - c1 - c2
    delta = [c3, c4, c5, c1, c2]
    reference = [
        (-c3, -c4, c0 + c1 - c5, -c1, -c0),
        (-c3, -c2 + c3, -c0 - c1 + c5, c0 - c5, -c0),
        (-c3, -c2 + c3, -c1, c5 - c0, -c5),
        (-c2, c2 - c3, -c4, c0 - c5, -c0),
        (-c2, c2 - c3, c0 - c4 - c5, c5 - c0, -c5),
        (-c2, -c1, -c0 + c4 + c5, -c4, -c5),
    ]
    tri = triangulation.staircase_triangulation(cfg, 2, 5)
    got = []
    for s in tri.simplices:
        got.append(tuple(-sum(Fraction(s.inv[r][c]) * delta[c]
                              for c in range(cfg.d)) for r in range(cfg.d)))
    assert _sorted_multiset(got) == _sorted_multiset(reference)


def test_e36c_staircase_exponent_vectors_match_reference():
    # confluent analogue: c_0+c_1+c_2 = c_3+c_4
    cfg = config.get_config("e36c")
    c1, c2, c3, c4 = (Fraction(p, 101) for p in (13, 17, 23, 31))
    c0 = c3 + c4 - c1 - c2
    delta = [c3, c4, c1, c2]
    reference = [
        (-c3, -c4, c0 + c1, -c1),
        (-c3, -c2 + c3, -c0 - c1, c0),
        (-c3, -c2 + c3, -c1, -c0),
        (-c2, c2 - c3, -c4, c0),
        (-c2, c2 - c3, c0 - c4, -c0),
        (-c2, -c1, -c0 + c4, -c4),
    ]
    tri = triangulation.staircase_triangulation(cfg, 2, 5, confluent=True)
    got = []
    for s in tri.simplices:
        got.append(tuple(-sum(Fraction(s.inv[r][c]) * delta[c]
                              for c in range(cfg.d)) for r in range(cfg.d)))
    assert _sorted_multiset(got) == _sorted_multiset(reference)


def test_triangulation_to_json_shape():
    cfg = config.get_config("gamma2")
    tri = triangulation.triangulate(cfg, [7, 1, 2, 5])
    doc = cli._tri_payload(cfg, tri)
    assert doc["omega"] == [7, 1, 2, 5]
    assert all(isinstance(s, list) for s in doc["simplices"])
    assert {"convergent", "unimodular"} <= set(doc)


def _registry_triangulation(name):
    cfg = config.get_config(name)
    if name in ("gauss", "e36", "kummer", "e36c"):
        k, n = (1, 3) if name in ("gauss", "kummer") else (2, 5)
        return cfg, triangulation.staircase_triangulation(
            cfg, k, n, confluent=name in ("kummer", "e36c"))
    tris = triangulation.enumerate_regular_triangulations(cfg, samples=4,
                                                          seed=0)
    assert tris, name
    return cfg, tris[0]


@pytest.mark.parametrize("name", config.registry_names())
def test_simplex_view_matches_exact_products(name):
    cfg, tri = _registry_triangulation(name)
    convergent = True
    for s in tri.simplices:
        sigma_bar = tuple(j for j in range(1, cfg.N + 1) if j not in s.indices)
        C = intlinalg.mat_mul([list(r) for r in s.inv],
                              cfg.submatrix(sigma_bar))
        assert s.bar == sigma_bar
        assert [list(row) for row in s.C] == C
        assert all((x * s.det).denominator == 1 for row in C for x in row)
        assert s.C_int.tolist() == [[int(x * s.r) for x in row] for row in C]
        assert s.C_float.shape == (cfg.d, len(sigma_bar))
        assert s.C_float.tolist() == [[float(x) for x in row] for row in C]
        assert [s.indices[p] for p in s.pos0] == list(s.blocks[0])
        convergent = convergent and all(
            sum(intlinalg.mat_vec([list(r) for r in s.inv],
                                  [row[j - 1] for row in cfg.matrix])) <= 1
            for j in sigma_bar)
    assert tri.convergent == convergent
