"""Level-order storage of tree-indexed real samples.

A node is located by (generation, rank): rank is the integer whose bit j is
the j-th branching choice on the path from the root, so the children of
(k, r) are (k+1, 2r) and (k+1, 2r+1).  Values are stored level by level in
rank order, so the daughters of generation k are the even and odd entries of
level k+1 and scans over a generation stay contiguous.
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


class TreeSample:
    """All realized values of a tree sample, levels 0..depth+1.

    Level k holds the 2^k generation-k values in rank order.  One level past
    the nominal depth is stored so every node up to generation ``depth`` has
    both children available, i.e. every mother-daughters triangle with parent
    in the observed index set is complete.  Instances are immutable after
    construction and safe to share across workers.
    """

    def __init__(self, levels: Sequence[np.ndarray]):
        if len(levels) < 2:
            raise ValueError("need levels 0..depth+1, so at least two levels")
        if len(levels) - 2 > MAX_DEPTH:
            raise OverflowError(f"depth {len(levels) - 2} exceeds limit ({MAX_DEPTH})")
        frozen = []
        for k, lv in enumerate(levels):
            arr = np.ascontiguousarray(np.asarray(lv, dtype=np.float64))
            if arr.ndim != 1 or arr.shape[0] != (1 << k):
                raise ValueError(f"level {k} must hold exactly 2^{k} values")
            arr.flags.writeable = False
            frozen.append(arr)
        self._levels = tuple(frozen)

    @property
    def depth(self) -> int:
        return len(self._levels) - 2

    def level(self, k: int) -> np.ndarray:
        if not 0 <= k <= self.depth + 1:
            raise ValueError(f"level {k} not stored (have 0..{self.depth + 1})")
        return self._levels[k]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TreeSample):
            return NotImplemented
        return len(self._levels) == len(other._levels) and all(
            np.array_equal(a, b) for a, b in zip(self._levels, other._levels)
        )

    # -- index sets ---------------------------------------------------------

    def population_parents(self, population: Population) -> np.ndarray:
        """Values X_u for u in the chosen index set, in level/rank order."""
        n = self.depth
        if population is Population.GEN_N:
            return self.level(n)
        return np.concatenate([self.level(k) for k in range(n + 1)])

    def triangle_arrays(self, population: Population) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(parents, children0, children1) arrays over the chosen index set."""
        n = self.depth
        ks = [n] if population is Population.GEN_N else list(range(n + 1))
        parents = np.concatenate([self.level(k) for k in ks])
        c0 = np.concatenate([self.level(k + 1)[0::2] for k in ks])
        c1 = np.concatenate([self.level(k + 1)[1::2] for k in ks])
        return parents, c0, c1

    # -- serialization ------------------------------------------------------

    def to_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("generation,rank,value\n")
            for k, lv in enumerate(self._levels):
                for r, v in enumerate(lv):
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
                levels.setdefault(int(k_s), {})[int(r_s)] = float(v_s)
        if not levels or sorted(levels) != list(range(len(levels))):
            raise ValueError("levels must be contiguous from 0")
        out = []
        for k in range(len(levels)):
            lv = levels[k]
            if sorted(lv) != list(range(1 << k)):
                raise ValueError(f"level {k} incomplete")
            out.append(np.array([lv[r] for r in range(1 << k)]))
        return cls(out)

    def to_raw(self, path: str) -> None:
        """Little-endian float64 dump, levels concatenated in order."""
        np.concatenate(self._levels).astype("<f8").tofile(path)

    @classmethod
    def from_raw(cls, path: str) -> "TreeSample":
        flat = np.fromfile(path, dtype="<f8")
        total, n_levels = len(flat), 0
        while total > 0:
            total -= 1 << n_levels
            n_levels += 1
        if total != 0:
            raise ValueError("file length is not 2^m - 1 values")
        levels, off = [], 0
        for k in range(n_levels):
            levels.append(flat[off : off + (1 << k)])
            off += 1 << k
        return cls(levels)

