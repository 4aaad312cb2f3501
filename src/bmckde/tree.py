"""Heap-ordered storage of tree-indexed real samples.

A node is located by (generation, rank): rank is the integer whose bit j is
the j-th branching choice on the path from the root, so the children of
(k, r) are (k+1, 2r) and (k+1, 2r+1).  All values live in one array in level
order: node (k, r) sits at flat index i = 2^k - 1 + r, and its daughters at
2i + 1 and 2i + 2.  Generation k is the slice [2^k - 1, 2^(k+1) - 1), and
the mothers of one generation or of the whole tree, with their first and
second daughters, are three slices of the same array, so index sets are
views and nothing is copied to form them; ``triangle_columns`` forms them
the same way for a stack of same-depth trees, one per row.  ``TreeSample``
has one constructor, which adopts such an array and makes every check a
tree gets, whether it was simulated or read.  The ``.f64`` file format is
this array written as it is, and it is read back without a copy; the CSV
format adds each index's generation and rank to it, and is read in one
parse.
"""

from __future__ import annotations

import enum
import itertools
import os
import warnings

import numpy as np

from .table import atomic_write, write_csv

MAX_DEPTH = 62  # rank of the deepest stored level must fit in an int64
_CSV_HEADER = ("generation", "rank", "value")
_CSV_BLOCK = 1 << 12  # rows held as Python objects at a time while writing


class Population(enum.Enum):
    """Index set over which estimators sum: one generation or the whole tree."""

    GEN_N = "gen"
    TREE_N = "tree"


def tree_size(n: int) -> int:
    """Number of nodes in the whole tree up to generation n (2^(n+1) - 1)."""
    if n < 0:
        raise ValueError("depth must be >= 0")
    if n > MAX_DEPTH:
        raise OverflowError(f"depth {n} exceeds the 64-bit rank limit ({MAX_DEPTH})")
    return (1 << (n + 1)) - 1


def level_slice(k: int) -> slice:
    """Flat indices of generation k in a heap-ordered array."""
    return slice((1 << k) - 1, (1 << (k + 1)) - 1)


def triangle_columns(values: np.ndarray, population: Population) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(parents, children0, children1) of the index set, along the last axis of ``values``.

    ``values`` holds one heap-ordered tree of levels 0..depth+1 per row along
    its last axis (a 1-D array is one tree); the columns are views of it.
    """
    n = values.shape[-1].bit_length() - 2
    lo = (1 << n) - 1 if population is Population.GEN_N else 0
    hi = (1 << (n + 1)) - 1
    return values[..., lo:hi], values[..., 2 * lo + 1 : 2 * hi + 1 : 2], values[..., 2 * lo + 2 : 2 * hi + 2 : 2]


def _index_columns(size: int) -> tuple[np.ndarray, np.ndarray]:
    """(generation, rank) of flat indices 0..size-1: index 2^k - 1 + r is node (k, r)."""
    levels = np.arange(size.bit_length())
    k = np.repeat(levels, 1 << levels)[:size]
    return k, np.arange(size) - (1 << k) + 1


class TreeSample:
    """All realized values of a tree sample, levels 0..depth+1, in heap order.

    One level past the nominal depth is stored so every node up to
    generation ``depth`` has both children available, i.e. every
    mother-daughters triangle with parent in the observed index set is
    complete.  Levels and index sets are read-only views of the stored
    array, so instances are immutable and safe to share across workers.
    """

    def __init__(self, values: np.ndarray):
        """A sample over ``values``, 2^m - 1 finite values in heap order.

        A float64 array is adopted, not copied: it is made read-only, and
        the caller must not keep a writable alias of it.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 1 or values.size != (1 << values.size.bit_length()) - 1:
            raise ValueError("need a 1-d array of 2^m - 1 values in heap order")
        m = values.size.bit_length()
        if m < 2:
            raise ValueError("need levels 0..depth+1, so at least two levels")
        if m - 2 > MAX_DEPTH:
            raise OverflowError(f"depth {m - 2} exceeds limit ({MAX_DEPTH})")
        if not np.isfinite(values).all():
            raise ValueError("tree values must be finite (NaN or infinity found)")
        values.flags.writeable = False
        self._values = values

    @property
    def depth(self) -> int:
        return self._values.size.bit_length() - 2

    def level(self, k: int) -> np.ndarray:
        if not 0 <= k <= self.depth + 1:
            raise ValueError(f"level {k} not stored (have 0..{self.depth + 1})")
        return self._values[level_slice(k)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TreeSample):
            return NotImplemented
        return np.array_equal(self._values, other._values)

    # -- index sets ---------------------------------------------------------

    def triangle_arrays(self, population: Population) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(parents, children0, children1) over the chosen index set, in level/rank order.

        The three columns are read-only views of the stored array (the
        daughter columns strided), not copies.
        """
        return triangle_columns(self._values, population)

    # -- serialization ------------------------------------------------------

    def to_csv(self, path: str) -> None:
        k, r = _index_columns(self._values.size)
        v = self._values
        blocks = (
            zip(k[i : i + _CSV_BLOCK].tolist(), r[i : i + _CSV_BLOCK].tolist(), v[i : i + _CSV_BLOCK].tolist())
            for i in range(0, v.size, _CSV_BLOCK)
        )
        write_csv(path, _CSV_HEADER, itertools.chain.from_iterable(blocks))

    @classmethod
    def from_csv(cls, path: str) -> "TreeSample":
        """Read a table ``to_csv`` wrote; its rows must be in that order, blank lines aside."""
        with open(path) as fh:
            header = fh.readline().strip()
            if header != ",".join(_CSV_HEADER):
                raise ValueError(f"unexpected header {header!r}")
            with warnings.catch_warnings():
                # a file of no rows reads as no levels, which the constructor rejects
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                rows = np.loadtxt(fh, delimiter=",", dtype=[("k", "i8"), ("r", "i8"), ("v", "f8")], ndmin=1, comments=None)
        k, r = _index_columns(rows.size)
        if not (np.array_equal(rows["k"], k) and np.array_equal(rows["r"], r)):
            raise ValueError("rows must run through generations 0, 1, ... in full, each in rank order, once")
        return cls(np.ascontiguousarray(rows["v"]))

    def to_raw(self, path: str) -> None:
        """The stored array as little-endian float64, node (k, r) at index 2^k - 1 + r, written atomically."""
        atomic_write(path, self._values.astype("<f8", copy=False).tofile)

    @classmethod
    def from_raw(cls, path: str) -> "TreeSample":
        if os.path.getsize(path) % 8:
            raise ValueError("file length is not a whole number of float64 values")
        return cls(np.fromfile(path, dtype="<f8"))
