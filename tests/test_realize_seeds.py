"""``realize_space`` builds each catalog seed once per process.

The earlier route, which fetched a fresh catalog seed and lifted its tree on
every call, stays here as the oracle: repeated calls on the cached seeds
must give the same complexes and logs as calls on fresh seeds.
"""

from __future__ import annotations

import importlib

import pytest

import faceenum as fe
from faceenum.constructions import _bistellar_step, _subdivide_facets, realize_g_pair
from faceenum.errors import UnknownSpace
from faceenum.trees import _lift_tree

fcat = importlib.import_module("faceenum.catalog")  # the package attribute is the function


def _fresh_route(space, g1, g2, log):
    """realize_space for cp2 and s2xs2_sum2 from seeds built for this call."""
    a, b = g1 + 1, g1 + 1 + g2
    if space == "s2xs2_sum2" and g2 < 21:
        K = fe.SimplicialComplex(fcat.S2XS2_FACETS)
        for move in fe.catalog("s2xs2_moves").payload[: g2 - 18]:
            K = _bistellar_step(K, move, log)
        return _subdivide_facets(K, g1 - 6, log)
    if space == "cp2":
        seed = fe.catalog("cp2_9").payload
        tree = _lift_tree(seed, (1, 2), fe.catalog("cp2_tree").payload.facets)
    else:
        seed = fcat.s2xs2_two_neighborly()
        tree = _lift_tree(seed, (1, 2), fe.catalog("s2xs2_tree").payload.facets)
    return realize_g_pair(seed, tree, a, b, log=log, verify_seed=False)


PAIRS = [("cp2", 5, 9), ("cp2", 8, 30), ("s2xs2_sum2", 10, 40), ("s2xs2_sum2", 11, 21),
         ("s2xs2_sum2", 7, 19), ("s2xs2_sum2", 9, 20)]


@pytest.fixture(scope="module")
def fresh():
    """The oracle's complexes and logs, made before any counter is installed."""
    out = {}
    for pair in PAIRS:
        log = fe.MoveLog()
        out[pair] = _fresh_route(*pair, log), log.steps
    return out


@pytest.fixture
def builds(monkeypatch):
    """The seeds built (cp2_9 and s2xs2_sum fetched from the catalog, the
    2-neighborly s2xs2 seed made), from an empty seed cache."""
    seen = []
    catalog, two_neighborly = fcat.catalog, fcat.s2xs2_two_neighborly

    def counted_catalog(name, *args):
        if name in ("cp2_9", "s2xs2_sum"):
            seen.append(name)
        return catalog(name, *args)

    def counted_two_neighborly():
        seen.append("s2xs2_two_neighborly")
        return two_neighborly()

    fcat._seed.cache_clear()
    monkeypatch.setattr(fcat, "catalog", counted_catalog)
    monkeypatch.setattr(fcat, "s2xs2_two_neighborly", counted_two_neighborly)
    yield seen
    fcat._seed.cache_clear()


def test_repeated_realizations_build_each_seed_once(fresh, builds):
    for _ in range(3):
        for pair in PAIRS:
            log = fe.MoveLog()
            K = fe.realize_space(*pair, log=log, verify_seed=True)
            want, steps = fresh[pair]
            assert K == want and K.f_vector == want.f_vector, pair
            assert log.steps == steps, pair
    assert sorted(builds) == ["cp2_9", "s2xs2_sum", "s2xs2_two_neighborly"]
    assert fcat._seed.cache_info().currsize == 3


def test_a_supplied_k3_seed_is_not_cached(builds, monkeypatch):
    """The K3 branch reads its tree from the supplied seed on every call."""
    seed, searched = fe.kuhnel_lassmann(11, 2), []
    monkeypatch.setattr(fcat, "h_vector", lambda K: (1, 11, 66))
    monkeypatch.setattr(fcat, "_codim3_tree", lambda K, node_budget: searched.append(K) or ((), "tree"))
    monkeypatch.setattr(fcat, "realize_g_pair", lambda K, tree, a, b, log, verify_seed: (K, tree, a, b))
    for _ in range(2):
        assert fe.realize_space("k3", 10, 55, k3_seed=seed) == (seed, "tree", 11, 66)
    assert searched == [seed, seed] and builds == []
    assert fcat._seed.cache_info().currsize == 0
    with pytest.raises(UnknownSpace):
        fe.realize_space("k3", 10, 55)
