"""Heap-ordered storage of tree-indexed real samples.

A node is located by (generation, rank): rank is the integer whose bit j is
the j-th branching choice on the path from the root, so the children of
(k, r) are (k+1, 2r) and (k+1, 2r+1).  All values live in one array in level
order: node (k, r) sits at flat index i = 2^k - 1 + r, and its daughters at
2i + 1 and 2i + 2.  Generation k is the slice [2^k - 1, 2^(k+1) - 1), and
the mothers of one generation or of the whole tree, with their first and
second daughters, are three slices of the same array, so index sets are
views and nothing is copied to form them.  The ``.f64`` file format is this
array written as it is, and it is read back without a copy.
"""

from __future__ import annotations

import enum
from typing import Sequence

import numpy as np

MAX_DEPTH = 62  # rank of the deepest stored level must fit in an int64


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
        with open(path, "w", newline="") as fh:
            fh.write("generation,rank,value\n")
            for k in range(self.depth + 2):
                for r, v in enumerate(self.level(k)):
                    fh.write(f"{k},{r},{float(v)!r}\n")

    @classmethod
    def from_csv(cls, path: str) -> "TreeSample":
        levels: dict[int, dict[int, float]] = {}
        with open(path) as fh:
            header = fh.readline().strip()
            if header != "generation,rank,value":
                raise ValueError(f"unexpected header {header!r}")
            for line in fh:
                if not line.strip():
                    continue
                k_s, r_s, v_s = line.split(",")
                k, r = int(k_s), int(r_s)
                level = levels.setdefault(k, {})
                if r in level:
                    raise ValueError(f"duplicate row for generation {k}, rank {r}")
                level[r] = float(v_s)
        if not levels or sorted(levels) != list(range(len(levels))):
            raise ValueError("levels must be contiguous from 0")
        out = []
        for k in range(len(levels)):
            lv = levels[k]
            if sorted(lv) != list(range(1 << k)):
                raise ValueError(f"level {k} incomplete")
            out.append(np.array([lv[r] for r in range(1 << k)]))
        return cls._from_file(np.concatenate(out))

    def to_raw(self, path: str) -> None:
        """The stored array as little-endian float64, node (k, r) at index 2^k - 1 + r."""
        self._values.astype("<f8", copy=False).tofile(path)

    @classmethod
    def from_raw(cls, path: str) -> "TreeSample":
        flat = np.fromfile(path, dtype="<f8").astype(np.float64, copy=False)
        if flat.size != (1 << flat.size.bit_length()) - 1:
            raise ValueError("file length is not 2^m - 1 values")
        return cls._from_file(flat)

    @classmethod
    def _from_file(cls, values: np.ndarray) -> "TreeSample":
        """A sample adopting ``values``, 2^m - 1 float64 values read in heap order.

        The level count is checked as the constructor checks it.  Values read
        from outside must also be finite; the constructor does not check
        this, so trees built in memory are not scanned.
        """
        _check_level_count(values.size.bit_length())
        if not np.isfinite(values).all():
            raise ValueError("tree values must be finite (NaN or infinity found)")
        return cls._adopt(values)
