import os
import tracemalloc
import warnings
from pathlib import Path

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
    # in level order node (k, r) is flat index i = 2^k - 1 + r, its daughters 2i+1 and 2i+2
    flat = np.concatenate([s.level(k) for k in range(5)])
    parents, c0, c1 = s.triangle_arrays(Population.TREE_N)
    for i in range(15):
        assert (parents[i], c0[i], c1[i]) == (flat[i], flat[2 * i + 1], flat[2 * i + 2])


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
    # the file is the stored array as it is, levels back to back
    assert Path(path).read_bytes() == s._values.astype("<f8").tobytes()
    assert Path(path).read_bytes() == np.concatenate([s.level(k) for k in range(6)]).astype("<f8").tobytes()


# finite doubles, with the ones a text or byte round trip can lose weighted in
EDGE_VALUES = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1e308, -1e308, 1.7976931348623157e308]
)


@st.composite
def edge_trees(draw) -> TreeSample:
    n = draw(st.integers(0, 4))
    return TreeSample([np.array(draw(st.lists(EDGE_VALUES, min_size=1 << k, max_size=1 << k))) for k in range(n + 2)])


@given(edge_trees())
@settings(max_examples=50, deadline=None)
def test_file_round_trips_keep_every_bit(tmp_path_factory, sample):
    # compared as bytes: TreeSample equality (np.array_equal) takes -0.0 for 0.0
    base = tmp_path_factory.mktemp("roundtrip")
    for suffix, write, read in (("csv", TreeSample.to_csv, TreeSample.from_csv), ("f64", TreeSample.to_raw, TreeSample.from_raw)):
        path = str(base / f"tree.{suffix}")
        write(sample, path)
        back = read(path)
        assert back.depth == sample.depth
        assert all(back.level(k).tobytes() == sample.level(k).tobytes() for k in range(sample.depth + 2))


def test_csv_rejects_duplicate_rows_and_nonfinite_values(tmp_path):
    path = str(tmp_path / "tree.csv")
    make_sample(2, seed=5).to_csv(path)
    lines = Path(path).read_text().splitlines()
    for bad in (
        lines + ["2,1,0.25"],
        lines[:-1] + ["3,7,nan"],
        lines[:-1] + ["3,7,-inf"],
        lines[:3] + [lines[4], lines[3]] + lines[5:],  # two rows swapped
        lines[:6] + lines[7:],  # a row missing
        lines[:-1] + ["99,7,0.25"],
        lines[:1],  # the header alone
    ):
        Path(path).write_text("\n".join(bad) + "\n")
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a numpy warning fails the read
                with pytest.raises(ValueError):
                    TreeSample.from_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # generation 99 is rejected, not allocated


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_raw_rejects_nonfinite_values(tmp_path, value):
    path = str(tmp_path / "tree.f64")
    flat = np.zeros(7)
    flat[4] = value
    flat.astype("<f8").tofile(path)
    with pytest.raises(ValueError):
        TreeSample.from_raw(path)


def test_raw_read_keeps_the_array_it_reads(tmp_path):
    # depth 14: 2^16 - 1 doubles (512 KiB); the array read from the file is
    # the stored array, with no per-level slices and no second copy
    s = make_sample(14, seed=3)
    path = str(tmp_path / "tree.f64")
    s.to_raw(path)
    tracemalloc.start()
    try:
        back = TreeSample.from_raw(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back == s
    assert peak < 1.5 * os.path.getsize(path)
    assert not back._values.flags.writeable


def test_levels_are_immutable():
    s = make_sample(2)
    with pytest.raises(ValueError):
        s.level(1)[0] = 3.0
    # triangle columns are read-only views of the stored array, not copies
    for population in Population:
        for col in s.triangle_arrays(population):
            assert np.shares_memory(col, s._values)
            assert not col.flags.writeable
    # the constructor copies its input, which stays the caller's to change
    level = np.zeros(2)
    t = TreeSample([np.zeros(1), level])
    level[0] = 1.0
    assert t.level(1)[0] == 0.0
