"""Regular triangulations, secondary-fan scans, staircase ladders and their
exponent vectors."""

import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from gkzeuler import cli, config, intersection, intlinalg, triangulation
from gkzeuler.errors import (BadDimensions, DegenerateLifting,
                             ExhaustedRetries, NotATriangulation,
                             SingularMatrix)
from oracles import (ladders_recursive, ray_test_sequential, regular_cells,
                     scan_by_triangulate, staircase_index_sets)


def _sets(tri):
    return frozenset(tri.index_sets())


def test_is_homogeneous_on_registry():
    homogeneous = {"g1", "f1", "gauss", "e36"}
    for name in config.registry_names():
        cfg = config.get_config(name)
        assert triangulation.is_homogeneous(cfg) == (name in homogeneous), name


def test_triangulate_gauss_validated():
    cfg = config.get_config("gauss")
    omega = triangulation.enumerate_regular_triangulations(
        cfg, samples=1, seed=1)[0].omega
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
    tri = triangulation.staircase_triangulation(cfg)
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

        def getstate(self):
            return None

        def setstate(self, state):
            pass

    cfg = config.get_config("kummer")
    s = triangulation.make_simplex(cfg, (1, 2))
    assert s.C_int.tolist() == [[-1], [1]]
    with pytest.raises(ExhaustedRetries):
        triangulation._ray_test(cfg, [s], SameDraw())


def _ray_test_inputs(cfg, samples):
    """Every distinct cell set of a scan, and each with its first simplex
    dropped and with the first table simplex outside it added."""
    rng = random.Random(0)
    found = {}
    for _ in range(samples):
        omega = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(cfg.N)]
        try:
            simplices = triangulation._triangulate_raw(cfg, omega)
        except DegenerateLifting:
            continue
        found.setdefault(frozenset(s.indices for s in simplices), simplices)
    table = triangulation._simplices(cfg)
    inputs = []
    for simplices in found.values():
        extra = next(s for s in table if s not in simplices)
        inputs += [simplices, simplices[1:], simplices + [extra]]
    return inputs


def _ray_test_outcome(test, cfg, simplices, seed):
    rng = random.Random(seed)
    try:
        verdict = test(cfg, simplices, rng)
    except ExhaustedRetries as exc:
        verdict = str(exc)
    return verdict, rng.getstate()


def _ray_test_verdicts_checked_by_oracle(cfg, samples):
    verdicts = set()
    for seed, simplices in enumerate(_ray_test_inputs(cfg, samples)):
        got = _ray_test_outcome(triangulation._ray_test, cfg, simplices, seed)
        assert got == _ray_test_outcome(ray_test_sequential, cfg, simplices,
                                        seed), [s.indices for s in simplices]
        verdicts.add(got[0])
    return verdicts


@pytest.mark.parametrize("name", config.registry_names())
def test_ray_test_matches_sequential_oracle(name):
    # the same verdict, or the same ExhaustedRetries, as one ray and one
    # simplex at a time, with the rng left where the oracle leaves it, also
    # when a round holds rays beyond the first failing one
    cfg = config.get_config(name)
    assert triangulation._stacked_cones(
        cfg, triangulation._simplices(cfg)).dtype == np.int64
    assert _ray_test_verdicts_checked_by_oracle(cfg, 60) == {True, False}


def test_ray_test_of_huge_volumes_takes_python_ints():
    # simplex (1, 2) has volume 2^70, beyond int64
    cfg, _ = config.load_block_config_json(
        {"k": 1, "n": 1, "blocks": [[], [[0, 2 ** 70, 1]]]})
    assert triangulation._stacked_cones(
        cfg, triangulation._simplices(cfg)).dtype == object
    assert _ray_test_verdicts_checked_by_oracle(cfg, 20) == {True, False}


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


@pytest.mark.parametrize("name", config.registry_names())
def test_table_matches_fresh_simplices(name):
    # every nonsingular d-subset, in combinations order, equal to a simplex
    # built afresh, with the integer view computed when the table is built
    triangulation._simplices.cache_clear()
    triangulation.normalized_volume.cache_clear()
    cfg = config.get_config(name)
    fresh = []
    for sigma in combinations(range(1, cfg.N + 1), cfg.d):
        try:
            fresh.append(triangulation.make_simplex(cfg, sigma))
        except SingularMatrix:
            continue
    table = triangulation._simplices(cfg)
    assert table == tuple(fresh)
    assert all("C_int" in vars(s) for s in table)
    assert [s.C_int.tolist() for s in table] \
        == [s.C_int.tolist() for s in fresh]


def test_sorting_a_raw_triangulation_leaves_the_table():
    cfg = config.get_config("e36")
    before = triangulation._simplices(cfg)
    omega = triangulation.enumerate_regular_triangulations(
        cfg, samples=1, seed=3)[0].omega
    raw = triangulation._triangulate_raw(cfg, omega)
    raw.sort(key=lambda s: s.indices, reverse=True)
    assert raw[0].indices > raw[-1].indices
    assert triangulation._simplices(cfg) == before


@pytest.mark.parametrize("name", config.registry_names())
def test_scan_matches_one_triangulate_per_lifting(name):
    # same triangulations, first omega, flags and discovery order as
    # validating every lifting
    cfg = config.get_config(name)
    for seed in (0, 7):
        got = triangulation.enumerate_regular_triangulations(
            cfg, samples=40, seed=seed)
        assert got == scan_by_triangulate(cfg, 40, seed), seed


@pytest.mark.parametrize("name", ["g1", "gamma2"])
def test_scan_validates_each_index_set_once(monkeypatch, name):
    # gamma2 also meets an index set that the ray test rejects
    cfg = config.get_config(name)
    triangulation.normalized_volume(cfg)     # the volume reference's rays
    seen = []
    ray_test = triangulation._ray_test

    def counting(cfg, simplices, rng):
        seen.append(frozenset(s.indices for s in simplices))
        return ray_test(cfg, simplices, rng)

    monkeypatch.setattr(triangulation, "_ray_test", counting)
    triangulation.enumerate_regular_triangulations(cfg, samples=60, seed=0)
    rng = random.Random(0)
    raw = []
    for _ in range(60):
        omega = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(cfg.N)]
        try:
            raw.append(frozenset(s.indices for s in
                                 triangulation._triangulate_raw(cfg, omega)))
        except DegenerateLifting:
            pass
    assert len(seen) == len(set(raw)) < len(raw)
    assert set(seen) == set(raw)


def test_explicit_triangulation_is_built_once():
    cfg = config.get_config("e36")
    tri = triangulation.staircase_triangulation(cfg)
    permuted = [tuple(reversed(s.indices)) for s in reversed(tri.simplices)]
    assert triangulation.triangulation_from_simplices(cfg, permuted) is tri


def test_rejected_explicit_triangulation_raises_every_time():
    cfg = config.get_config("e36c")
    for _ in range(2):
        with pytest.raises(NotATriangulation):
            triangulation.triangulation_from_simplices(
                cfg, _confluent_staircase_gap())


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


def test_enumerate_ladders_matches_the_recursive_walk():
    for n in range(1, 14):
        for k in range(n):
            assert triangulation.enumerate_ladders(k, n) \
                == ladders_recursive(k, n), (k, n)


def test_enumerate_ladders_bounds_cells_not_ladders():
    # one ladder of 2,000 cells is within the bound; 1,399 ladders of 1,400
    # cells (1,958,600) are too, 1,415 of 1,416 (2,003,640) are not
    assert triangulation.enumerate_ladders(0, 2000)[0][-1] == (0, 2000)
    assert len(triangulation.enumerate_ladders(1, 1400)) == 1399
    # one column of 200,000 cells: a grid over all of {0..k} x {0..n} would
    # hold 4 * 10^10 cells
    lad, = triangulation.enumerate_ladders(199_999, 200_000)
    assert lad == tuple((i, 200_000) for i in range(199_999, -1, -1))
    for k, n in [(1, 1416), (2, 448), (0, 2_000_001), (10 ** 6, 2 * 10 ** 6),
                 (5, 10 ** 100)]:
        with pytest.raises(BadDimensions):
            triangulation.enumerate_ladders(k, n)


@pytest.mark.parametrize("confluent", [False, True])
def test_staircase_reads_k_and_n_off_the_configuration(monkeypatch,
                                                       confluent):
    # every Aomoto-Gelfand and confluent (k, n) with n <= 7: the index sets
    # handed on for validation are the ladders of the explicit (k, n)
    monkeypatch.setattr(triangulation, "triangulation_from_simplices",
                        lambda cfg, sets: sorted(sets))
    build = config.confluent_config if confluent \
        else config.aomoto_gelfand_config
    for n in range(2, 8):
        for k in range(1, n - 1 if confluent else n):
            cfg = build(k, n)
            assert triangulation.staircase_triangulation(cfg) \
                == staircase_index_sets(cfg, k, n, confluent), (k, n)


def test_staircase_needs_column_labels():
    with pytest.raises(BadDimensions):
        triangulation.staircase_triangulation(config.get_config("g1"))


@pytest.mark.parametrize("k,n", [(1, 3), (1, 4), (2, 4), (2, 5)])
def test_staircase_is_a_unimodular_triangulation(k, n):
    cfg = config.aomoto_gelfand_config(k, n)
    tri = triangulation.staircase_triangulation(cfg)
    assert len(tri.simplices) == math.comb(n - 1, k)
    assert tri.unimodular


@pytest.mark.parametrize("k,n", [(1, 3), (2, 4), (2, 5)])
def test_confluent_staircase_is_a_triangulation(k, n):
    cfg = config.confluent_config(k, n)
    tri = triangulation.staircase_triangulation(cfg)
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
        v = [-sum(Fraction(s.adj[r][c], s.det) * delta[c]
                  for c in range(cfg.d))
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
        v = [-sum(Fraction(s.adj[r][c], s.det) * delta[c]
                  for c in range(cfg.d))
             for r in range(cfg.d)]
        ex = triangulation.ladder_exponents(lad, ctilde, confluent=True)
        assert v == [ex[cfg.pairs[j - 1]] for j in s.indices]


def test_ladder_components_hold_n_times_k_plus_one_vertices():
    # the count the ladders command bounds before it sums ctilde
    for n in range(1, 10):
        for k in range(n):
            for lad in triangulation.enumerate_ladders(k, n):
                ex = triangulation.ladder_exponents(lad, [1] * (n + 1))
                assert sum(ex.values()) == n * (k + 1), (k, n, lad)


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
    tri = triangulation.staircase_triangulation(cfg)
    got = []
    for s in tri.simplices:
        got.append(tuple(-sum(Fraction(s.adj[r][c], s.det) * delta[c]
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
    tri = triangulation.staircase_triangulation(cfg)
    got = []
    for s in tri.simplices:
        got.append(tuple(-sum(Fraction(s.adj[r][c], s.det) * delta[c]
                              for c in range(cfg.d)) for r in range(cfg.d)))
    assert _sorted_multiset(got) == _sorted_multiset(reference)


def test_triangulation_to_json_shape():
    cfg = config.get_config("gamma2")
    tri = triangulation.triangulate(cfg, [7, 1, 2, 5])
    doc = cli._tri_payload(tri)
    assert doc["omega"] == [7, 1, 2, 5]
    assert all(isinstance(s, list) for s in doc["simplices"])
    assert {"convergent", "unimodular"} <= set(doc)


def _registry_triangulation(name):
    cfg = config.get_config(name)
    if name in ("gauss", "e36", "kummer", "e36c"):
        return cfg, triangulation.staircase_triangulation(cfg)
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
        inv, _ = intlinalg.rat_inverse(cfg.submatrix(s.indices))
        C = intlinalg.mat_mul(inv, cfg.submatrix(sigma_bar))
        assert s.bar == sigma_bar
        assert all((x * s.det).denominator == 1 for row in C for x in row)
        assert s.C_int.tolist() == [[int(x * s.r) for x in row] for row in C]
        assert s.C_float.shape == (cfg.d, len(sigma_bar))
        assert s.C_float.tolist() == [[float(x) for x in row] for row in C]
        assert [s.indices[p] for p in s.pos0] == list(s.blocks[0])
        convergent = convergent and all(
            sum(intlinalg.mat_vec(inv,
                                  [row[j - 1] for row in cfg.matrix])) <= 1
            for j in sigma_bar)
    assert tri.convergent == convergent


def _bits(a):
    # tobytes tells -0.0 from 0.0, which tolist and == do not
    return a.shape, a.dtype.str, a.tobytes()


@pytest.mark.parametrize("name", config.registry_names())
def test_table_simplex_views_are_exact_bit_for_bit(name):
    # adj A_sigma = det I exactly, and each float view is the correctly
    # rounded value of the exact rational reference, signed zeros included
    cfg = config.get_config(name)
    for s in triangulation._simplices(cfg):
        A = cfg.submatrix(s.indices)
        assert intlinalg.mat_mul([list(row) for row in s.adj], A) \
            == [[s.det * (i == j) for j in range(cfg.d)] for i in range(cfg.d)]
        inv, det = intlinalg.rat_inverse(A)
        assert det == s.det
        C = intlinalg.mat_mul(inv, cfg.submatrix(s.bar))
        assert _bits(s.inv_float) \
            == _bits(np.array([[float(x) for x in row] for row in inv]))
        assert _bits(s.C_float) \
            == _bits(np.array([[float(x) for x in row] for row in C]))


_SERIES_VIEWS = ("genericity_lattice",)


@pytest.mark.parametrize("name", config.registry_names())
def test_series_views_equal_their_definitions(name):
    # the view a series pass reads, against the expression the genericity
    # scan computed before it was kept on the simplex, signed zeros included
    cfg = config.get_config(name)
    simplices = list(triangulation._simplices(cfg))
    simplices.append(triangulation.make_simplex(
        config.build_cayley(1, 1, [[], [[0, 3, 1]]]), (1, 2)))
    for s in simplices:
        W, _ = intlinalg.graded_lex_shells(len(s.bar),
                                           config.GENERICITY_DEGREE)
        assert _bits(s.genericity_lattice) \
            == _bits(W.astype(float) @ s.C_float.T)


def test_fan_scan_and_triangulate_leave_the_series_views_uncomputed(capsys):
    # the views are lazy: commands that never sum a series never build them
    triangulation._simplices.cache_clear()
    triangulation.normalized_volume.cache_clear()
    for argv in (["fan-scan", "--config", "g1", "--samples", "20"],
                 ["fan-scan", "--config", "e36", "--samples", "3"],
                 ["triangulate", "--config", "gauss", "--omega", "7,1,2,5"]):
        assert cli.main(argv) == cli.EXIT_OK
    capsys.readouterr()
    for name in ("g1", "e36", "gauss"):
        for s in triangulation._simplices(config.get_config(name)):
            assert not set(_SERIES_VIEWS) & set(vars(s)), (name, s.indices)
