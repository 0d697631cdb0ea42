"""Gamma-series evaluation: lattice coset structure, an independent
direct-summation oracle, the dual-series sign rule, convergence guards,
and the transformation matrices of the oracles' assembled route."""

import cmath
import dataclasses
import json
import math
import pathlib
import re
import time
from fractions import Fraction

import numpy as np
import pytest
from oracles import (coset_representatives_by_search, epsilon_sigma,
                     graded_lex_recursive, series_by_direct_sum,
                     series_by_shell, series_pair, sgn_A_sigma, split_shells,
                     transformation_matrix, transformation_matrix_dual)

from gkzeuler import (cli, config, intersection, intlinalg, series,
                      triangulation)
from gkzeuler.errors import (BadDimensions, DivergentTail,
                             NonGenericParameter, ScaleTooSmall)


def _nonunimodular_simplex(cfg):
    for sigma in [(2, 3, 4), (2, 4, 5), (2, 3, 5), (3, 4, 5)]:
        s = triangulation.make_simplex(cfg, sigma)
        if s.r > 1:
            return s
    raise AssertionError("no non-unimodular simplex found")


def _coset_reps(cfg, s):
    """Representatives k of Z^d / Z A_sigma, read off A_sigma^{-1} A_bar."""
    sigma_bar = [j for j in range(1, cfg.N + 1) if j not in s.indices]
    inv, _ = intlinalg.rat_inverse(cfg.submatrix(s.indices))
    C = np.array(inv, dtype=object) \
        @ np.array(cfg.submatrix(sigma_bar), dtype=object)
    return coset_representatives_by_search(
        [[int(x * s.r) for x in row] for row in C], s.r)


def test_lattice_cosets_partition_the_orthant():
    # the shifted lattices Lambda_k over a complete set of coset
    # representatives partition Z_{>=0}^{sigma_bar}, degree by degree
    cfg = config.get_config("g1")
    s = _nonunimodular_simplex(cfg)
    kreps = _coset_reps(cfg, s)
    assert len(kreps) == s.r
    q = cfg.N - cfg.d
    maxdeg = 20
    shells = {tuple(k): split_shells(*series._coset_shells(s, k, maxdeg)[:2])
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
    inv, _ = intlinalg.rat_inverse(cfg.submatrix(s.indices))
    sigma_bar = [j for j in range(1, cfg.N + 1) if j not in s.indices]
    C = np.array(inv, dtype=object) \
        @ np.array(cfg.submatrix(sigma_bar), dtype=object)
    kvec = coset_representatives_by_search(
        [[int(x * s.r) for x in row] for row in C], s.r)[1]
    W, _ = series._coset_shells(s, kvec, 12)[:2]
    for w in W:
        m = [int(wi) - ki for wi, ki in zip(w, kvec)]
        img = C @ np.array(m, dtype=object)
        assert all(x.denominator == 1 for x in img)


@pytest.mark.parametrize("dual", [False, True])
def test_series_matches_direct_summation_unimodular(dual):
    cfg = config.get_config("gauss")
    sigma = (1, 2, 3)
    delta = [0.377, 0.211, 0.613]
    z = [1.0, 1.0, 1.0, 0.21]
    fn = series.dual_gamma_series if dual else series.gamma_series
    got = fn(cfg, sigma, None, z, delta, 18)
    want = series_by_direct_sum(
        cfg, triangulation.make_simplex(cfg, sigma), None, z, delta, 18, dual)
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
        want = series_by_direct_sum(cfg, s, kvec, z, delta, 16, dual)
        assert abs(got.value - want) <= 1e-11 * max(abs(want), 1e-30)


def _volume_three_simplex():
    cfg = config.build_cayley(1, 1, [[], [[0, 3, 1]]])
    s = triangulation.make_simplex(cfg, (1, 2))
    assert s.r == 3
    return cfg, s


@pytest.mark.parametrize("dual", [False, True])
def test_series_at_volume_three_matches_exact_arguments(dual):
    # sigma = (1, 2) has volume 3 and C = (2/3, 1/3), so no float grid
    # W @ C^T is exact; the Gamma arguments c - K / 3 are read from the
    # integers K = W @ C_int^T, on every coset
    cfg, s = _volume_three_simplex()
    z = (1.0, 1.0, 0.5)
    fn = series.dual_gamma_series if dual else series.gamma_series
    for delta in [(0.313, 0.577), (0.313 + 0.25j, -0.577)]:
        for kvec in coset_representatives_by_search(s.C_int, s.r):
            got = fn(cfg, s, kvec, z, delta, 30)
            want = series_by_direct_sum(cfg, s, kvec, z, delta, 30, dual)
            assert abs(got.value - want) <= 1e-12 * abs(want), (delta, kvec)


@pytest.mark.parametrize("dual", [False, True])
def test_series_at_volume_three_is_bit_for_bit_the_shell_reference(dual):
    # on coset k the table holds only the K_i = (C_int k)_i mod 3 of each
    # column's range, read at (K_i - first_i) / 3; every field must still
    # equal the shell-by-shell sum over the exact arguments c - K / 3
    cfg, s = _volume_three_simplex()
    z = (1.0, 1.0, 0.5)
    fn = series.dual_gamma_series if dual else series.gamma_series

    def bits(x):
        return np.asarray(x, dtype=complex).tobytes()

    for delta in [(0.313, 0.577), (0.313 + 0.25j, -0.577)]:
        for kvec in coset_representatives_by_search(s.C_int, s.r):
            for M in (0, 1, 5, 30):
                got = fn(cfg, s, kvec, z, delta, M)
                value, shell_maxes, terms, series_abs = series_by_shell(
                    cfg, s, kvec, z, delta, M, dual)
                where = (delta, kvec, M)
                assert bits(got.value) == bits(value), where
                assert bits(got.shell_maxes) == bits(shell_maxes), where
                assert got.terms_summed == terms, where
                assert bits(got.series_abs) == bits(series_abs), where


def test_coset_table_holds_one_entry_in_r():
    # K_i = 2 w ranges over [0, 2M] and K_2 = w over [0, M]; on coset k
    # only K = k mod 3 (column 1: 2k mod 3) is tabled
    cfg, s = _volume_three_simplex()
    assert s.C_int.tolist() == [[2], [1]]
    logz = np.log([1.0, 1.0, 0.5 + 0j])
    M = 30
    for k in range(3):
        part = series._Part(cfg, s, logz, M, [((0.313, 0.577), False)], (k,))
        want = sum(len(range(t % 3, hi + 1, 3))
                   for t, hi in ((2 * k, 2 * M), (k, M)))
        assert sum(part.layout.sizes) == want
        assert want <= (3 * M + 2) // 3 + 2


def test_registry_gamma_grid_is_exact_in_floats():
    # every registry simplex has volume 1 or 2, so K / r with K = W @ C_int^T
    # equals the float product W @ C_float^T bit for bit: the log-Gamma table
    # gives registry series the arguments a float grid gives them
    for name in config.registry_names():
        cfg = config.get_config(name)
        for s in triangulation._simplices(cfg):
            W, _ = intlinalg.graded_lex_shells(len(s.bar), 12)
            K = W @ s.C_int.astype(np.int64).T
            assert (K / s.r).tobytes() \
                == (W.astype(float) @ s.C_float.T).tobytes(), \
                (name, s.indices)


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


@pytest.mark.parametrize("block_rows", [1, 5, 64, 4096])
def test_block_evaluation_matches_shell_by_shell_reference(monkeypatch,
                                                           block_rows):
    # blocks of shells share one pass over W and one log-Gamma per distinct
    # argument; every number must come out bit for bit as shell by shell,
    # whatever the block size
    monkeypatch.setattr(series, "_BLOCK_ROWS", block_rows)

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


@pytest.mark.parametrize("which", ["g1", "volume three"])
def test_coset_filter_matches_python_int_filter(which):
    # the congruence C_int (w - k) = 0 mod r, tested in Python ints on every
    # row, keeps the rows and shell bounds _coset_shells returns, for every
    # k in {0, 1, 2}^q and for a k beyond int64
    if which == "g1":
        cfg = config.get_config("g1")
        s, M = _nonunimodular_simplex(cfg), 20
    else:
        (cfg, s), M = _volume_three_simplex(), 30
    q = len(s.bar)
    W, bounds = intlinalg.graded_lex_shells(q, M)
    for kvec in [*np.ndindex(*[3] * q), (10 ** 20 + 1,) + (0,) * (q - 1)]:
        keep = ((W.astype(object) - np.array(kvec, dtype=object))
                @ s.C_int.T % s.r == 0).all(axis=1)
        want = [W[a:b][keep[a:b]].tolist() for a, b in zip(bounds, bounds[1:])]
        got = [shell.tolist() for shell in
               split_shells(*series._coset_shells(s, kvec, M)[:2])]
        assert got == want, kvec


@pytest.mark.parametrize("width", range(1, 13))
@pytest.mark.parametrize("dtype", [float, complex])
def test_rowsum_matches_numpy_row_sum_bit_for_bit(dtype, width):
    # the column-wise sum must round as numpy's sum(axis=1) does: left to
    # right below 8 scalars a row, pairwise over 8 scalars of accumulators
    # from there on, and -0.0 + -0.0 read as +0.0
    rng = np.random.default_rng(width)

    def draw(shape):
        return 10 ** rng.uniform(-3, 3, shape) * rng.choice([-1, 1], shape)

    for rows in (1, 7, 2000):
        a = draw((rows, width)).astype(dtype)
        zeros = rng.choice([-0.0, 0.0], (64, width)).astype(dtype)
        if dtype is complex:
            a += 1j * draw((rows, width))
            zeros += 1j * rng.choice([-0.0, 0.0], (64, width))
        zeros[0] = complex(-0.0, -0.0) if dtype is complex else -0.0
        for x in (a, zeros):
            got = series._rowsum([x[:, j] for j in range(width)])
            assert got.tobytes() == x.sum(axis=1).tobytes(), rows


def test_shell_cache_is_read_only_and_cold_equals_warm():
    # the cached shells are shared by every pass of a (q, M): no caller may
    # write into them, and a pass gives the same bits on a cold cache as on
    # a warm one
    gauss, g1 = config.get_config("gauss"), config.get_config("g1")
    for cfg, s in ((gauss, triangulation.make_simplex(gauss, (1, 2, 3))),
                   (g1, _nonunimodular_simplex(g1))):
        W, _ = series._coset_shells(s, None, 10)[:2]
        with pytest.raises(ValueError):
            W[0, 0] = 7
    data = intersection.CASES["e36"](np.random.default_rng(0))
    cfg, s, z = data["cfg"], data["tri"].simplices[0], data["z"]
    dplus, dminus = intersection.twisted_deltas(cfg, data["delta"],
                                                data["twist"])
    runs = []
    for clear in (True, False, True):
        if clear:
            series._cache.cache_clear()
        pair = series_pair(cfg, s, z, dplus, dminus, data["order"])
        runs.append(list(map(_bits, pair)))
    assert runs[0] == runs[1] == runs[2]


def test_shell_cache_holds_at_most_its_byte_bound(monkeypatch):
    # a sweep of large keys evicts the least recently used entries and keeps
    # the arrays held under the bound; an entry above the bound is built and
    # not kept; every entry equals a fresh build
    def nbytes(shells):
        return shells[0].nbytes + shells[2].nbytes + shells[3].nbytes

    bound = 3 * nbytes(series._build_shells(2, 216))
    cache = series._Cache(bound)
    monkeypatch.setattr(series, "_cache", cache)
    for M in range(200, 216):
        shells = series._shells(2, M)
        fresh = series._build_shells(2, M)
        assert shells[1] == fresh[1]
        for a, b in zip(shells[::2] + shells[3:], fresh[::2] + fresh[3:]):
            assert a.tobytes() == b.tobytes()
        assert cache.nbytes <= bound
    assert list(cache._entries) == [(2, 213), (2, 214), (2, 215)]
    series._shells(2, 213)       # now used more recently than 214 and 215
    series._shells(2, 216)
    held = dict(cache._entries)
    assert list(held) == [(2, 215), (2, 213), (2, 216)]
    assert cache.nbytes == sum(nbytes(s) for s, _ in held.values()) <= bound
    assert series._shells(2, 215) is held[2, 215][0]
    big = series._shells(3, 120)
    assert nbytes(big) > bound and (3, 120) not in cache._entries
    assert series._shells(2, 100) is series._shells(2, 100)


def test_shell_cache_keeps_every_key_of_the_named_relations(monkeypatch):
    # the warm requests of every named relation find all their shells held
    series._cache.cache_clear()
    for name in intersection.case_names():
        intersection.verify_case(name, seed=0)

    def rebuild(q, M):
        raise AssertionError(f"shells ({q}, {M}) were evicted")

    monkeypatch.setattr(series, "_build_shells", rebuild)
    for name in intersection.case_names():
        intersection.verify_case(name, seed=1)
    assert series._cache.nbytes <= series._CACHE_BYTES


def _bits(value):
    """Every field of a SeriesValue as raw bytes, so that -0.0 != 0.0."""
    return tuple(np.asarray(x, dtype=complex).tobytes()
                 for x in dataclasses.astuple(value))


@pytest.mark.parametrize("name", sorted(intersection.CASES))
def test_series_pair_matches_single_series_bit_for_bit(name):
    # phi and phi^vee of a simplex share one pass over the shells; each must
    # equal its own single-series call in every field, on every simplex of
    # the case's triangulation, at the case's order and at shallow ones
    twisted = False
    for seed in range(5):
        data = intersection.CASES[name](np.random.default_rng(seed))
        cfg, z = data["cfg"], data["z"]
        dplus, dminus = intersection.twisted_deltas(cfg, data["delta"],
                                                    data["twist"])
        twisted |= dplus != dminus
        for M in (data["order"], 0, 2, 8):
            for s in data["tri"].simplices:
                pair = series_pair(cfg, s, z, dplus, dminus, M)
                single = (series.gamma_series(cfg, s, None, z, dplus, M),
                          series.dual_gamma_series(cfg, s, None, z, dminus,
                                                   M))
                assert list(map(_bits, pair)) == list(map(_bits, single)), \
                    (seed, M, s.indices)
    # the ag cocycles twist delta+ and delta- apart
    assert twisted == (name == "ag")


@pytest.mark.parametrize("block_rows", [1, 5, 64, 4096])
@pytest.mark.parametrize("name", sorted(intersection.CASES))
def test_stacked_relation_pass_matches_per_simplex_pairs(monkeypatch, name,
                                                         block_rows):
    # the series of all simplices of a relation share one pass and one
    # (series x rows) array per block; every field of every SeriesValue must
    # equal the simplex's own one-simplex pass, whatever the block size
    monkeypatch.setattr(series, "_BLOCK_ROWS", block_rows)
    for seed in range(5):
        data = intersection.CASES[name](np.random.default_rng(seed))
        cfg, tri, z = data["cfg"], data["tri"], data["z"]
        dplus, dminus = intersection.twisted_deltas(cfg, data["delta"],
                                                    data["twist"])
        for M in (data["order"], 0, 2, 8):
            got = series.gamma_series_pairs(cfg, tri.simplices, z, dplus,
                                            dminus, M)
            assert len(got) == len(tri.simplices)
            for s, pair in zip(tri.simplices, got):
                want = series_pair(cfg, s, z, dplus, dminus, M)
                assert list(map(_bits, pair)) == list(map(_bits, want)), \
                    (seed, M, s.indices)


def test_series_pass_through_gamma_poles_matches_single_series():
    # sigma = (1, 2) has volume 4 and C = (3/4, 1/4).  On Lambda_3 (w = 3
    # mod 4), delta+ gives (u0 + C w)_2 = (w - 7) / 4: an integer on every
    # shell, so Gamma(1 - (u0 + C w)_2) has a pole from w = 11 on, though no
    # w with |w| <= 2 makes an entry integral and delta+ passes the bounded
    # genericity scan.  The dual series at delta- keeps all its terms.
    cfg = config.build_cayley(1, 1, [[], [[0, 4, 1]]])
    s = triangulation.make_simplex(cfg, (1, 2))
    z = (1.0, 1.0, 0.5)
    dplus, dminus = (-1.45, -7.0), (-1.34, -7.0)
    got, = series._sum_series(cfg, [s], (3,), z, 24,
                              [(dplus, False), (dminus, True)])
    want = (series.gamma_series(cfg, s, (3,), z, dplus, 24),
            series.dual_gamma_series(cfg, s, (3,), z, dminus, 24))
    assert list(map(_bits, got)) == list(map(_bits, want))
    alive = [[deg for deg, x in enumerate(v.shell_maxes) if x > 0]
             for v in got]
    assert alive == [[3, 7], [3, 7, 11, 15, 19, 23]]
    assert got[0].terms_summed == got[1].terms_summed == 6


def test_stacked_pass_takes_one_log_gamma_call(monkeypatch):
    # the Gamma arguments of every series of every simplex go to scipy in
    # one loggamma call (and one pole test) per pass
    calls = []
    special = series._special()

    class Counting:
        def __getattr__(self, name):
            return getattr(special, name)

        def loggamma(self, x, **kwargs):
            calls.append(x.shape)
            return special.loggamma(x, **kwargs)

    monkeypatch.setattr(series, "_special", Counting)
    for name in ("phi1", "e36"):
        data = intersection.CASES[name](np.random.default_rng(0))
        cfg, tri = data["cfg"], data["tri"]
        dplus, dminus = intersection.twisted_deltas(cfg, data["delta"],
                                                    data["twist"])
        calls.clear()
        got = series.gamma_series_pairs(cfg, tri.simplices, data["z"], dplus,
                                        dminus, data["order"])
        assert all(not isinstance(pair, Exception) for pair in got)
        assert len(calls) == 1, name


def test_verify_after_other_orders_equals_a_cold_run(monkeypatch, capsys):
    # the per-simplex views and the shell cache outlive a request; e36 at
    # orders 8, 24 and 8 in one process must print what each order prints
    # with every cache cleared first
    def run(order):
        assert cli.main(["verify", "--case", "e36", "--seed", "3",
                         "--order", str(order)]) == cli.EXIT_OK
        return capsys.readouterr().out

    def clear():
        triangulation._simplices.cache_clear()
        triangulation.normalized_volume.cache_clear()
        triangulation._from_simplices.cache_clear()
        series._cache.cache_clear()

    cold = {}
    for order in (8, 24):
        clear()
        cold[order] = run(order)
    clear()
    assert [run(order) for order in (8, 24, 8)] \
        == [cold[8], cold[24], cold[8]]


def test_series_pair_checks_genericity_once_per_distinct_delta(monkeypatch):
    cfg = config.get_config("gauss")
    s = triangulation.make_simplex(cfg, (1, 2, 3))
    z = (1.0, 1.0, 1.0, 0.1)
    delta, other = (0.377, 0.211, 0.613), (1.377, 0.211, 0.613)
    seen = []

    def counted(simplex, d):
        seen.append(tuple(d))
        return config.is_very_generic(simplex, d)

    monkeypatch.setattr(series, "is_very_generic", counted)
    series_pair(cfg, s, z, delta, delta, 6)
    assert seen == [delta]
    seen.clear()
    series_pair(cfg, s, z, delta, other, 6)
    assert seen == [delta, other]


@pytest.mark.parametrize("z, delta, message", [
    ((1.0, 1.0, 0.1), (0.377, 0.211, 0.613), "z needs 4 entries"),
    ((1.0, 1.0, 1.0, 0.1, 1.0), (0.377, 0.211, 0.613), "z needs 4 entries"),
    ((1.0, 1.0, 1.0, 0.1), (0.377, 0.211), "delta needs 3 entries"),
    ((1.0, 1.0, 1.0, 0.1), (0.377, 0.211, 0.613, 0.5),
     "delta needs 3 entries"),
    # delta is checked first
    ((1.0, 1.0, 0.1), (0.377, 0.211), "delta needs 3 entries"),
])
def test_series_checks_the_lengths_of_z_and_delta(z, delta, message):
    # a short z once ended in an IndexError, and a long one lost its extra
    # entries without a word
    cfg = config.get_config("gauss")
    for fn in (series.gamma_series, series.dual_gamma_series):
        with pytest.raises(BadDimensions, match=f"^{message}$"):
            fn(cfg, (1, 2, 3), None, z, delta, 6)


def test_series_pair_error_precedence():
    # input checks first, then delta+, then delta-; each message is the one
    # the single-series call raises
    cfg = config.get_config("gauss")
    s = triangulation.make_simplex(cfg, (1, 2, 3))
    z = (1.0, 1.0, 1.0, 0.1)
    good, bad, worse = (0.377, 0.211, 0.613), (1.0, 2.0, 3.0), (2.0, 2.0, 3.0)
    with pytest.raises(BadDimensions):
        series_pair(cfg, s, (0.0, 1.0, 1.0, 0.1), bad, worse, 6)
    with pytest.raises(BadDimensions):
        series_pair(cfg, s, z, bad, (math.nan, 0.2, 0.6), 6)
    with pytest.raises(NonGenericParameter,
                       match=re.escape(f"delta={bad} ")) as plus:
        series_pair(cfg, s, z, bad, worse, 6)
    with pytest.raises(NonGenericParameter) as single:
        series.gamma_series(cfg, s, None, z, bad, 6)
    assert str(plus.value) == str(single.value)
    with pytest.raises(NonGenericParameter,
                       match=re.escape(f"delta={worse} ")) as minus:
        series_pair(cfg, s, z, good, worse, 6)
    with pytest.raises(NonGenericParameter) as single:
        series.dual_gamma_series(cfg, s, None, z, worse, 6)
    assert str(minus.value) == str(single.value)


def test_simplex_coords_are_the_exact_inverse_product():
    # coords(delta) = A_sigma^{-1} delta, against the exact products of the
    # Fractions of rat_inverse with the real and imaginary parts of delta
    gauss = config.get_config("gauss")
    for cfg, s, deltas in [
            (gauss, triangulation.make_simplex(gauss, (1, 2, 3)),
             ([0.377, 0.211, 0.613], [0.377 + 0.05j, 0.211, 0.613 - 0.02j])),
            (*_volume_three_simplex(),
             ([0.3137, 0.2719], [0.3137 + 0.05j, 0.2719 - 0.03j]))]:
        inv = np.array(intlinalg.rat_inverse(cfg.submatrix(s.indices))[0],
                       dtype=object)
        for delta in deltas:
            z = [complex(x) for x in delta]
            re_ = inv @ np.array([Fraction(x.real) for x in z], dtype=object)
            im = inv @ np.array([Fraction(x.imag) for x in z], dtype=object)
            want = [complex(float(a), float(b)) for a, b in zip(re_, im)]
            assert np.abs(s.coords(delta) - want).max() <= 1e-12, delta


def test_dual_series_sign_flip_rule_on_confluent_grid():
    # on simplices avoiding the exponential block, the dual series equals
    # the plain series with delta negated and the exponential-block
    # coordinates of z negated
    cfg = config.get_config("e36c")
    tri = triangulation.staircase_triangulation(cfg)
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
        transformation_matrix(cfg, (1, 2, 3), [1.0, 2.0, 3.0])


def test_sample_point_in_ut():
    cfg = config.get_config("gauss")
    omega = triangulation.enumerate_regular_triangulations(
        cfg, samples=1, seed=2)[0].omega
    tri = triangulation.triangulate(cfg, omega)
    z = series.sample_point_in_UT(cfg, tri, t=12.0)
    assert len(z) == cfg.N
    assert all(x > 0 for x in z)
    with pytest.raises(ScaleTooSmall):
        series.sample_point_in_UT(cfg, tri, t=1e-9)


def test_sgn_and_epsilon_basics():
    cfg = config.get_config("gauss")
    for sigma in [(1, 2, 3), (1, 2, 4), (2, 3, 4)]:
        assert sgn_A_sigma(cfg, sigma) in (-1, 1)
        assert epsilon_sigma(cfg, sigma, [0.3, 0.5, 0.7]) == 1.0 + 0j
    cfgc = config.get_config("e36c")
    s = triangulation.make_simplex(cfgc, (5, 6, 7, 8))
    assert len(s.blocks[0]) == 2
    eps = epsilon_sigma(cfgc, s, [0.23, 0.31, 0.13, 0.17])
    assert abs(eps) > 0 and eps != 1.0 + 0j


def test_transformation_matrix_shape_and_unimodular_scalar():
    cfg = config.get_config("g1")
    delta = [0.313, 0.577, 0.239]
    s = _nonunimodular_simplex(cfg)
    T = transformation_matrix(cfg, s, delta)
    assert len(T) == s.r and all(len(row) == s.r for row in T)
    s1 = triangulation.make_simplex(cfg, (1, 2, 5))
    T1 = transformation_matrix(cfg, s1, delta)
    assert len(T1) == 1 and len(T1[0]) == 1


def test_coset_search_takes_the_numpy_c_int():
    _, s = _volume_three_simplex()
    assert coset_representatives_by_search(s.C_int, 3) == [[0], [1], [2]]


def test_transformation_matrix_rows_carry_the_dual_coset_phases():
    # T[i][j] = scal * exp(2 pi i kt_i . u0) X[i][j] eps_j with kreps[0] = 0,
    # so T[i][0] / T[0][0] = exp(2 pi i kt_i . A_sigma^{-1} delta), where
    # kt_i is the first graded-lex member of the i-th class of
    # Z^2 / A_sigma^T Z^2: k ~ k' iff A_sigma^{-T} (k - k') is integral
    cfg, s = _volume_three_simplex()
    delta = (0.3137 + 0.05j, 0.2719)
    inv, _ = intlinalg.rat_inverse(cfg.submatrix(s.indices))
    inv_t = np.array(inv, dtype=object).T
    reps = []
    degree = 0
    while len(reps) < s.r:
        for k in graded_lex_recursive(2, degree):
            if all(any(x.denominator != 1 for x in inv_t @ np.array(
                    [a - b for a, b in zip(k, rep)], dtype=object))
                   for rep in reps):
                reps.append(k)
        degree += 1
    assert reps == [(0, 0), (1, 0), (0, 1)]
    u0 = [sum(complex(a) * x for a, x in zip(row, delta)) for row in inv]
    T = transformation_matrix(cfg, s, delta)
    for i, kt in enumerate(reps):
        want = cmath.exp(2j * math.pi * sum(k * u for k, u in zip(kt, u0)))
        assert abs(T[i][0] / T[0][0] - want) <= 1e-12, (i, kt)


# pinned entries of T_sigma and T_sigma^vee, one record per simplex and
# delta: every simplex of g1 (r = 1 and 2; (1, 2, 3) is singular), of the
# volume-three configuration (r = 1, 2, 3) and of "exp3", a k = 0
# configuration whose sigma^(0) holds both columns of (1, 2) (r = 3) and of
# (2, 3) (r = 2, det < 0), so epsilon_sigma and the dual sigma^(0) phase are
# not 1; each at one real and one complex delta.  The values were computed
# by the earlier derivation, which built the dual branch by branch and the
# coset phases X_ij and A_bar k from float products
_PIN_CONFIGS = {
    "g1": lambda: config.get_config("g1"),
    "volume3": lambda: _volume_three_simplex()[0],
    "exp3": lambda: config.build_cayley(0, 2, [[[2, 1, 1], [1, 2, 0]]]),
}
_PINS = json.loads(
    (pathlib.Path(__file__).parent / "transformation_pins.json").read_text())


@pytest.mark.parametrize("pin", _PINS, ids=lambda pin: "{}-{}-{}".format(
    pin["config"], "".join(map(str, pin["sigma"])),
    "complex" if any(im for _, im in pin["delta"]) else "real"))
def test_transformation_matrices_match_their_pins(pin):
    cfg = _PIN_CONFIGS[pin["config"]]()
    s = triangulation.make_simplex(cfg, pin["sigma"])
    assert s.r == pin["r"]
    delta = [complex(*x) for x in pin["delta"]]
    for key, fn in (("T", transformation_matrix),
                    ("T_dual", transformation_matrix_dual)):
        got = fn(cfg, s, delta)
        want = [[complex(*x) for x in row] for row in pin[key]]
        assert len(got) == len(want) == s.r
        for i, (row, want_row) in enumerate(zip(got, want)):
            assert len(row) == s.r
            for j, (x, y) in enumerate(zip(row, want_row)):
                assert abs(x - y) <= 1e-12 * abs(y), (key, i, j)


def _pairs_bits(cfg, simplices, z, dplus, dminus, M):
    return [list(map(_bits, pair)) for pair in series.gamma_series_pairs(
        cfg, simplices, z, dplus, dminus, M)]


@pytest.mark.parametrize("name", sorted(intersection.CASES))
def test_kept_layouts_give_a_warm_pass_the_bits_of_a_cold_one(name):
    # a pass that reads the layouts an earlier pass kept, at the same order
    # or after another one, equals a pass on an empty cache in every field
    data = intersection.CASES[name](np.random.default_rng(0))
    cfg, tri, z, M = data["cfg"], data["tri"], data["z"], data["order"]
    dplus, dminus = intersection.twisted_deltas(cfg, data["delta"],
                                                data["twist"])
    series._cache.cache_clear()
    cold = _pairs_bits(cfg, tri.simplices, z, dplus, dminus, M)
    layouts = [v for v, _ in series._cache._entries.values()
               if isinstance(v, series._Layout)]
    assert len(layouts) == len(tri.simplices)
    assert _pairs_bits(cfg, tri.simplices, z, dplus, dminus, M) == cold
    _pairs_bits(cfg, tri.simplices, z, dplus, dminus, 8)
    assert _pairs_bits(cfg, tri.simplices, z, dplus, dminus, M) == cold


def test_kept_coset_layouts_give_warm_series_the_bits_of_cold_ones():
    # r = 2: each coset k keeps its own layout; every coset's phi and
    # phi^vee, warm and in any order, equal their cold values
    cfg = config.get_config("g1")
    s = _nonunimodular_simplex(cfg)
    z, delta = (0.05, 0.5, 1.0, 2.0, 0.02), (0.313, 0.577, 0.239)
    kreps = _coset_reps(cfg, s)

    def run(k):
        return [_bits(fn(cfg, s, k, z, delta, 30))
                for fn in (series.gamma_series, series.dual_gamma_series)]

    cold = {}
    for k in kreps:
        series._cache.cache_clear()
        cold[tuple(k)] = run(k)
    assert len(set(map(str, cold.values()))) == len(kreps)
    for k in [*kreps, *reversed(kreps)]:
        assert run(k) == cold[tuple(k)], k


def test_equal_simplices_with_other_C_int_keep_their_own_layouts():
    # sigma = (1, 2) is the same Simplex in both configurations (equality
    # ignores C_int), but the third column, and so C_int, differ
    cfgs = [config.build_cayley(1, 1, [[], [[0, 1, c]]]) for c in (2, 3)]
    simplices = [triangulation.make_simplex(cfg, (1, 2)) for cfg in cfgs]
    assert simplices[0] == simplices[1]
    assert simplices[0].C_int.tolist() != simplices[1].C_int.tolist()
    z, delta = (1.0, 1.0, 0.05), (0.313, 0.577)

    def run(i):
        return [_bits(fn(cfgs[i], simplices[i], None, z, delta, 20))
                for fn in (series.gamma_series, series.dual_gamma_series)]

    cold = []
    for i in (0, 1):
        series._cache.cache_clear()
        cold.append(run(i))
    assert cold[0] != cold[1]
    for i in (0, 1, 0, 1):
        assert run(i) == cold[i], i


def test_kept_layouts_and_shells_share_one_byte_bound(monkeypatch):
    # a bound one byte short of what a phi1 pass keeps evicts the least
    # recently used entry, its shells; every pass still equals a cold one
    data = intersection.CASES["phi1"](np.random.default_rng(0))
    cfg, tri, z, M = data["cfg"], data["tri"], data["z"], data["order"]
    dplus, dminus = intersection.twisted_deltas(cfg, data["delta"],
                                                data["twist"])
    cache = series._Cache(series._CACHE_BYTES)
    monkeypatch.setattr(series, "_cache", cache)
    cold = _pairs_bits(cfg, tri.simplices, z, dplus, dminus, M)
    held = dict(cache._entries)
    assert list(held)[0] == (2, M) and len(held) == 1 + len(tri.simplices)
    assert cache.nbytes == sum(size for _, size in held.values())
    cache = series._Cache(cache.nbytes - 1)
    monkeypatch.setattr(series, "_cache", cache)
    for i in range(3):
        assert _pairs_bits(cfg, tri.simplices, z, dplus, dminus, M) == cold
        assert cache.nbytes == sum(size for _, size in
                                   cache._entries.values()) <= cache.max_bytes
        assert len(cache._entries) == len(tri.simplices)
        if i == 0:      # kept first, so used least recently
            assert list(cache._entries) == list(held)[1:]


def test_oversized_order_keeps_nothing(capsys):
    # the table bound is checked in Python ints before a layout exists: the
    # request exits 2 promptly and the cache holds what it held before
    series._cache.cache_clear()
    assert cli.main(["verify", "--case", "phi1", "--seed", "0"]) \
        == cli.EXIT_OK
    before = dict(series._cache._entries)
    t0 = time.perf_counter()
    code = cli.main(["verify", "--case", "phi1", "--order", str(10 ** 20)])
    assert time.perf_counter() - t0 < 1.0
    assert code == cli.EXIT_BAD_INPUT
    assert capsys.readouterr().err.startswith("bad input")
    assert series._cache._entries == before
