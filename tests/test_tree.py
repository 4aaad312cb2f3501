import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmckde.tree import Population, TreeSample, tree_size


def make_sample(n: int, seed: int = 0) -> TreeSample:
    rng = np.random.default_rng(seed)
    return TreeSample([rng.standard_normal(1 << k) for k in range(n + 2)])


def test_tree_size_values():
    assert tree_size(0) == 1
    assert tree_size(3) == 15
    assert tree_size(11) == 4095


def test_size_overflow_guards():
    with pytest.raises(OverflowError):
        tree_size(63)
    with pytest.raises(ValueError):
        tree_size(-1)


def test_levels_must_be_powers_of_two():
    with pytest.raises(ValueError):
        TreeSample([np.zeros(1), np.zeros(3)])
    with pytest.raises(ValueError):
        TreeSample([np.zeros(1)])


def test_triangle_counts():
    s0 = make_sample(0)
    assert all(a.size == 1 for a in s0.triangle_arrays(Population.GEN_N))
    s2 = make_sample(2)
    assert all(a.size == 7 for a in s2.triangle_arrays(Population.TREE_N))
    gen = s2.triangle_arrays(Population.GEN_N)
    assert all(a.size == 4 for a in gen)
    assert np.array_equal(gen[0], s2.level(2))


def test_triangles_match_node_addressing():
    # triangle r of generation 3 is node (3, r) with daughters (4, 2r), (4, 2r+1)
    s = make_sample(3, seed=5)
    parents, c0, c1 = s.triangle_arrays(Population.GEN_N)
    for r in range(8):
        assert (parents[r], c0[r], c1[r]) == (s.level(3)[r], s.level(4)[2 * r], s.level(4)[2 * r + 1])


def test_tree_population_is_union_of_generations():
    s = make_sample(3, seed=2)
    per_gen = [TreeSample([s.level(j) for j in range(k + 2)]).triangle_arrays(Population.GEN_N) for k in range(4)]
    whole = s.triangle_arrays(Population.TREE_N)
    for col in range(3):
        assert np.array_equal(np.concatenate([t[col] for t in per_gen]), whole[col])


@given(st.integers(0, 6))
@settings(max_examples=20)
def test_children_enumerate_next_generation(k):
    # the daughters of generation k, interleaved, are exactly level k+1
    s = make_sample(k, seed=k)
    _, c0, c1 = s.triangle_arrays(Population.GEN_N)
    assert np.array_equal(np.column_stack([c0, c1]).ravel(), s.level(k + 1))


def test_csv_roundtrip(tmp_path):
    s = make_sample(3, seed=9)
    path = str(tmp_path / "tree.csv")
    s.to_csv(path)
    assert TreeSample.from_csv(path) == s


def test_raw_roundtrip(tmp_path):
    s = make_sample(4, seed=11)
    path = str(tmp_path / "tree.f64")
    s.to_raw(path)
    assert TreeSample.from_raw(path) == s


def test_levels_are_immutable():
    s = make_sample(2)
    with pytest.raises(ValueError):
        s.level(1)[0] = 3.0
