"""Configuration matrices: block structure, Cayley assembly, the built-in
registry and genericity checking."""

import numpy as np
import pytest
from oracles import pair_config_oracle

from gkzeuler import config, intlinalg, triangulation
from gkzeuler.errors import BadDimensions, LatticeNotFull


def test_registry_names_are_stable():
    assert config.registry_names() == sorted(
        ["g1", "gamma2", "h4", "f1", "phi1", "gauss", "e36", "kummer", "e36c"])


@pytest.mark.parametrize("name", config.registry_names())
def test_registry_shapes_and_blocks(name):
    cfg = config.get_config(name)
    assert cfg.d == len(cfg.matrix)
    assert cfg.N == len(cfg.matrix[0])
    assert cfg.k == len(cfg.blocks) - 1
    assert cfg.n == cfg.d - cfg.k
    # blocks partition 1..N
    seen = sorted(j for blk in cfg.blocks for j in blk)
    assert seen == list(range(1, cfg.N + 1))
    # indicator rows: row l-1 is 1 exactly on I_l
    for l in range(1, cfg.k + 1):
        row = cfg.matrix[l - 1]
        assert all((row[j - 1] == 1) == (j in cfg.blocks[l])
                   for j in range(1, cfg.N + 1))
    # columns span the full lattice
    assert intlinalg.lattice_index(cfg.matrix) == 1


def test_get_config_unknown_name():
    with pytest.raises(KeyError):
        config.get_config("nope")


def test_gauss_matrix_frozen():
    cfg = config.get_config("gauss")
    assert cfg.name == "ag(1,3)"
    assert cfg.matrix == (
        (1, 0, 1, 0),
        (0, 1, 0, 1),
        (0, 0, 1, 1),
    )
    assert cfg.blocks == ((), (1, 3), (2, 4))
    assert cfg.pairs == ((0, 2), (0, 3), (1, 2), (1, 3))


def test_kummer_matrix_frozen():
    cfg = config.get_config("kummer")
    assert cfg.name == "confluent(1,3)"
    assert cfg.matrix == (
        (1, 1, 0),
        (0, 1, 1),
    )
    assert cfg.blocks == ((3,), (1, 2))
    assert cfg.pairs == ((0, 2), (1, 2), (1, 3))


def test_e36_shape():
    cfg = config.get_config("e36")
    # ag(2, 5): three linear blocks in two torus variables, nine columns
    assert (cfg.k, cfg.n, cfg.d, cfg.N) == (3, 2, 5, 9)
    assert cfg.blocks[0] == ()


def test_e36c_shape():
    cfg = config.get_config("e36c")
    # confluent(2, 5): two linear blocks, two exponential columns
    assert (cfg.k, cfg.n, cfg.d, cfg.N) == (2, 2, 4, 8)
    assert len(cfg.blocks[0]) == 2


def test_build_cayley_rejects_bad_blocks():
    with pytest.raises(BadDimensions):
        config.build_cayley(2, 1, [[], [[0, 1]]])
    with pytest.raises(BadDimensions):
        config.build_cayley(1, 2, [[], [[0, 1]]])


def test_build_cayley_rejects_non_full_lattice():
    with pytest.raises(LatticeNotFull):
        config.build_cayley(1, 1, [[], [[0, 2]]])


def test_aomoto_gelfand_column_count():
    for k, n in [(1, 3), (1, 4), (2, 4), (2, 5), (3, 6)]:
        cfg = config.aomoto_gelfand_config(k, n)
        assert cfg.N == (k + 1) * (n - k)
        assert cfg.d == n
        assert cfg.k == n - k
    with pytest.raises(BadDimensions):
        config.aomoto_gelfand_config(3, 3)


def test_confluent_column_count():
    for k, n in [(1, 3), (1, 4), (2, 4), (2, 5)]:
        cfg = config.confluent_config(k, n)
        assert cfg.N == (k + 1) * (n - 1 - k) + k
        assert cfg.d == n - 1
        assert len(cfg.blocks[0]) == k
    with pytest.raises(BadDimensions):
        config.confluent_config(2, 3)


@pytest.mark.parametrize("confluent", [False, True])
def test_pair_configs_match_their_definitions(confluent):
    # every valid (k, n) with n <= 9: matrix, blocks, pairs and name as the
    # docstrings define them, and BadDimensions just outside the valid range
    build = config.confluent_config if confluent \
        else config.aomoto_gelfand_config
    built = 0
    for n in range(10):
        for k in range(-1, n + 2):
            if not 1 <= k < (n - 1 if confluent else n):
                with pytest.raises(BadDimensions):
                    build(k, n)
                continue
            cfg = build(k, n)
            assert (cfg.matrix, cfg.blocks, cfg.pairs, cfg.name) \
                == pair_config_oracle(k, n, confluent), (k, n)
            built += 1
    assert built == (28 if confluent else 36)


def test_is_very_generic_accepts_irrational_like_and_rejects_integral():
    cfg = config.get_config("gauss")
    sigma = (1, 2, 3)
    simplex = triangulation.make_simplex(cfg, sigma)
    good = [0.3141, 0.2718, 0.5772]
    assert config.is_very_generic(simplex, good)
    inv, _ = intlinalg.rat_inverse(cfg.submatrix(list(sigma)))
    # delta = A_sigma * (integer vector) makes u0 integral
    bad = (np.array(cfg.submatrix(list(sigma)), dtype=object)
           @ np.array([1.0, 2.0, 3.0], dtype=object)).tolist()
    assert not config.is_very_generic(simplex, bad)


def test_load_block_config_json():
    doc = {
        "k": 1, "n": 1,
        "blocks": [[], [[0, 1]]],
        "gamma": [[0.5, 0.0]],
        "c": [[0.25, 0.1]],
    }
    cfg, delta = config.load_block_config_json(doc)
    assert (cfg.k, cfg.n, cfg.N) == (1, 1, 2)
    assert delta == [0.5 + 0j, 0.25 + 0.1j]
    bad = dict(doc, gamma=[[0.5, 0.0], [0.5, 0.0]])
    with pytest.raises(BadDimensions):
        config.load_block_config_json(bad)
