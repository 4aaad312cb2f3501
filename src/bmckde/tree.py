"""Heap-ordered storage of tree-indexed real samples.

A node is located by (generation, rank): rank is the integer whose bit j is
the j-th branching choice on the path from the root, so the children of
(k, r) are (k+1, 2r) and (k+1, 2r+1).  All values live in one array in level
order: node (k, r) sits at flat index i = 2^k - 1 + r, and its daughters at
2i + 1 and 2i + 2.  Generation k is the slice [2^k - 1, 2^(k+1) - 1), and
the mothers of one generation or of the whole tree, with their first and
second daughters, are three slices of the same array, so index sets are
views and nothing is copied to form them.  The ``.f64`` file format is this
array written as it is, and it is read back without a copy; the CSV format
adds each index's generation and rank to it, and is read in one parse.
"""

from __future__ import annotations

import enum
import os
import warnings
from typing import Sequence

import numpy as np

from .table import atomic_write, write_csv

MAX_DEPTH = 62  # rank of the deepest stored level must fit in an int64
_CSV_HEADER = ("generation", "rank", "value")


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


def _level(k: int) -> slice:
    """Flat indices of generation k."""
    return slice((1 << k) - 1, (1 << (k + 1)) - 1)


def _index_columns(size: int) -> tuple[np.ndarray, np.ndarray]:
    """(generation, rank) of flat indices 0..size-1: index 2^k - 1 + r is node (k, r)."""
    levels = np.arange(size.bit_length())
    k = np.repeat(levels, 1 << levels)[:size]
    return k, np.arange(size) - (1 << k) + 1


def _check_level_count(m: int) -> None:
    if m < 2:
        raise ValueError("need levels 0..depth+1, so at least two levels")
    if m - 2 > MAX_DEPTH:
        raise OverflowError(f"depth {m - 2} exceeds limit ({MAX_DEPTH})")


class TreeSample:
    """All realized values of a tree sample, levels 0..depth+1, in heap order.

    ``levels[k]`` holds the 2^k generation-k values in rank order; the
    constructor copies them once into one read-only array, node (k, r) at
    flat index 2^k - 1 + r.  One level past the nominal depth is stored so
    every node up to generation ``depth`` has both children available, i.e.
    every mother-daughters triangle with parent in the observed index set is
    complete.  Levels and index sets are read-only views of that array, so
    instances are immutable and safe to share across workers.
    """

    def __init__(self, levels: Sequence[np.ndarray]):
        _check_level_count(len(levels))
        values = np.empty((1 << len(levels)) - 1)
        for k, lv in enumerate(levels):
            arr = np.asarray(lv, dtype=np.float64)
            if arr.ndim != 1 or arr.shape[0] != (1 << k):
                raise ValueError(f"level {k} must hold exactly 2^{k} values")
            values[_level(k)] = arr
        values.flags.writeable = False
        self._values = values

    @classmethod
    def _adopt(cls, values: np.ndarray) -> "TreeSample":
        """A sample over ``values``, 2^m - 1 float64 values in heap order, not copied.

        ``values`` is made read-only; the caller must not keep a writable
        alias of it.
        """
        sample = cls.__new__(cls)
        values.flags.writeable = False
        sample._values = values
        return sample

    @property
    def depth(self) -> int:
        return self._values.size.bit_length() - 2

    def level(self, k: int) -> np.ndarray:
        if not 0 <= k <= self.depth + 1:
            raise ValueError(f"level {k} not stored (have 0..{self.depth + 1})")
        return self._values[_level(k)]

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
        n = self.depth
        lo = (1 << n) - 1 if population is Population.GEN_N else 0
        hi = (1 << (n + 1)) - 1
        f = self._values
        return f[lo:hi], f[2 * lo + 1 : 2 * hi + 1 : 2], f[2 * lo + 2 : 2 * hi + 2 : 2]

    # -- serialization ------------------------------------------------------

    def to_csv(self, path: str) -> None:
        k, r = _index_columns(self._values.size)
        write_csv(path, _CSV_HEADER, zip(k.tolist(), r.tolist(), self._values.tolist()))

    @classmethod
    def from_csv(cls, path: str) -> "TreeSample":
        """Read a table ``to_csv`` wrote; its rows must be in that order, blank lines aside."""
        with open(path) as fh:
            header = fh.readline().strip()
            if header != ",".join(_CSV_HEADER):
                raise ValueError(f"unexpected header {header!r}")
            with warnings.catch_warnings():
                # a file of no rows reads as no levels, which _from_file rejects
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                rows = np.loadtxt(fh, delimiter=",", dtype=[("k", "i8"), ("r", "i8"), ("v", "f8")], ndmin=1, comments=None)
        k, r = _index_columns(rows.size)
        if not (np.array_equal(rows["k"], k) and np.array_equal(rows["r"], r)):
            raise ValueError("rows must run through generations 0, 1, ... in full, each in rank order, once")
        return cls._from_file(np.ascontiguousarray(rows["v"]))

    def to_raw(self, path: str) -> None:
        """The stored array as little-endian float64, node (k, r) at index 2^k - 1 + r, written atomically."""
        atomic_write(path, self._values.astype("<f8", copy=False).tofile)

    @classmethod
    def from_raw(cls, path: str) -> "TreeSample":
        if os.path.getsize(path) % 8:
            raise ValueError("file length is not a whole number of float64 values")
        return cls._from_file(np.fromfile(path, dtype="<f8").astype(np.float64, copy=False))

    @classmethod
    def _from_file(cls, values: np.ndarray) -> "TreeSample":
        """A sample adopting ``values``, 2^m - 1 float64 values read in heap order.

        Every check on a tree read from a file is here: 2^m - 1 values, the
        constructor's level-count check, and finite values, which the
        constructor does not check, so trees built in memory are not scanned.
        """
        if values.size != (1 << values.size.bit_length()) - 1:
            raise ValueError("file length is not 2^m - 1 values")
        _check_level_count(values.size.bit_length())
        if not np.isfinite(values).all():
            raise ValueError("tree values must be finite (NaN or infinity found)")
        return cls._adopt(values)
