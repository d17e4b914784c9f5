"""The ranking forest produced by DRR / Local-DRR (Phase I output).

Both ranking schemes produce the same object: every node either points to a
parent of strictly higher rank or is a root, so the parent pointers form a
forest of disjoint trees.  :class:`Forest` stores the parent array together
with the ranks, derives children lists / tree ids / sizes / heights, and
validates the structural invariants that the analysis of Theorems 2-4 and
11-13 relies on:

* acyclicity (guaranteed by the rank-increase property, checked anyway),
* every non-root's parent has strictly higher rank,
* tree ids partition the node set.

The convergecast, broadcast, and gossip phases all consume a ``Forest``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

__all__ = ["Forest", "ForestInvariantError", "stable_argsort"]

NO_PARENT = -1


def stable_argsort(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for integer keys, via radix passes.

    NumPy radix-sorts only keys of 16 bits or fewer; wider keys go through
    a comparison sort.  The keys are shifted to start at 0 and sorted least
    significant digit first, in stable passes of 16 bits (8 when at most 8
    bits remain): one uint8 pass for depths, two passes for parent ids
    below 2^24.
    """
    keys = np.asarray(keys)
    if keys.size == 0:
        return np.zeros(0, dtype=np.intp)
    # exact in wrapping uint64 arithmetic: 0 <= key - min < 2^64
    offset = keys.astype(np.uint64) - np.asarray(keys.min()).astype(np.uint64)
    bits = int(offset.max()).bit_length()
    for shift in range(0, max(bits, 1), 16):
        digit = (offset >> np.uint64(shift)).astype(np.uint8 if bits - shift <= 8 else np.uint16)
        if shift:
            order = order[np.argsort(digit[order], kind="stable")]
        else:
            order = np.argsort(digit, kind="stable")
    return order


class ForestInvariantError(ValueError):
    """Raised when a claimed forest violates a structural invariant."""


@dataclass(frozen=True)
class Forest:
    """A forest over nodes ``0 .. n-1`` defined by parent pointers.

    Parameters
    ----------
    parent:
        ``parent[i]`` is the parent node of ``i`` or ``-1`` when ``i`` is a
        root.
    rank:
        The random rank each node drew in Phase I.  Only used for invariant
        checking and analysis; the later phases never look at ranks.
    alive:
        Optional liveness mask; crashed nodes are recorded as isolated roots
        so downstream phases can skip them uniformly.
    """

    parent: np.ndarray
    rank: np.ndarray
    alive: np.ndarray | None = None

    def __post_init__(self) -> None:
        parent = np.asarray(self.parent, dtype=np.int64)
        rank = np.asarray(self.rank, dtype=float)
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "rank", rank)
        if parent.ndim != 1 or rank.ndim != 1 or parent.size != rank.size:
            raise ForestInvariantError("parent and rank must be 1-D arrays of equal length")
        if self.alive is not None:
            alive = np.asarray(self.alive, dtype=bool)
            if alive.shape != parent.shape:
                raise ForestInvariantError("alive mask must match parent length")
            object.__setattr__(self, "alive", alive)

    # ------------------------------------------------------------------ #
    # basic queries
    # ------------------------------------------------------------------ #
    @property
    def n(self) -> int:
        return int(self.parent.size)

    @cached_property
    def roots(self) -> np.ndarray:
        """Node ids that have no parent (the set V-tilde of the paper)."""
        return np.flatnonzero(self.parent == NO_PARENT)

    @cached_property
    def alive_mask(self) -> np.ndarray:
        """``alive``, or all True when no liveness mask was given."""
        return self.alive if self.alive is not None else np.ones(self.n, dtype=bool)

    @property
    def root_count(self) -> int:
        return int(self.roots.size)

    def is_root(self, node_id: int) -> bool:
        return self.parent[node_id] == NO_PARENT

    @cached_property
    def children(self) -> tuple[tuple[int, ...], ...]:
        """Children lists, index-aligned with node ids."""
        kids: list[list[int]] = [[] for _ in range(self.n)]
        for child, par in enumerate(self.parent):
            if par != NO_PARENT:
                kids[par].append(child)
        return tuple(tuple(c) for c in kids)

    @cached_property
    def child_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Columnar children view: ``(children_sorted, child_start)``.

        ``children_sorted`` holds all non-root node ids grouped by parent
        (ascending parent, ascending child id within a parent);
        ``child_start`` has length ``n + 1`` and delimits each parent's
        slice CSR-style: the children of ``p`` are
        ``children_sorted[child_start[p]:child_start[p + 1]]``.  This is the
        representation the vectorized substrate uses; :attr:`children` stays
        available for per-node (engine) code and small-n tests.
        """
        non_roots = np.flatnonzero(self.parent != NO_PARENT)
        order = non_roots[stable_argsort(self.parent[non_roots])]
        counts = np.bincount(self.parent[non_roots], minlength=self.n)
        start = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(counts, out=start[1:])
        return order.astype(np.int64), start

    def is_leaf(self, node_id: int) -> bool:
        return self.parent[node_id] != NO_PARENT and not self.children[node_id]

    # ------------------------------------------------------------------ #
    # derived structure
    # ------------------------------------------------------------------ #
    @cached_property
    def tree_id(self) -> np.ndarray:
        """``tree_id[i]`` is the root of the tree containing node ``i``.

        Computed by iterative pointer-jumping so deep trees (Local-DRR on a
        ring can produce Theta(log n) depth) never hit the recursion limit.
        """
        roots = self.parent.copy()
        roots[roots == NO_PARENT] = np.flatnonzero(self.parent == NO_PARENT)
        # Pointer jumping: after k iterations every pointer has jumped 2^k
        # levels, so ceil(log2(max depth)) + 1 iterations suffice.
        for _ in range(max(1, int(np.ceil(np.log2(max(2, self.n)))) + 1)):
            new_roots = roots[roots]
            if np.array_equal(new_roots, roots):
                break
            roots = new_roots
        else:  # pragma: no cover - only reachable on a cyclic "forest"
            raise ForestInvariantError("parent pointers contain a cycle")
        return roots

    @cached_property
    def depth(self) -> np.ndarray:
        """``depth[i]`` = number of edges from node ``i`` up to its root.

        Computed by a vectorised simultaneous walk of all parent pointers
        (``O(n)`` work per level, max-depth iterations), so it stays cheap
        at the million-node scale the vectorized substrate targets.
        """
        # Pointer doubling: after k iterations every pointer has jumped
        # 2^k levels and `depth` holds the number of levels jumped, so
        # ceil(log2(max depth)) + 1 iterations suffice -- even a
        # chain-shaped forest (max depth n) costs only O(n log n) total.
        # The walk runs over the compacted index set of still-walking nodes
        # (typical DRR forests are shallow, so the set collapses after a
        # few iterations instead of scanning n-sized masks every time).
        depth = (self.parent != NO_PARENT).astype(np.int64)
        ptr = self.parent.copy()
        idx = np.flatnonzero(ptr != NO_PARENT)
        for _ in range(max(1, int(np.ceil(np.log2(max(2, self.n)))) + 1)):
            if idx.size == 0:
                return depth
            hop = ptr[idx]
            depth[idx] += depth[hop]
            ptr[idx] = ptr[hop]
            idx = idx[ptr[idx] != NO_PARENT]
        if idx.size:
            raise ForestInvariantError("parent pointers contain a cycle")
        return depth

    @cached_property
    def _root_sizes(self) -> np.ndarray:
        """Tree sizes aligned with :attr:`roots`."""
        return np.bincount(self.tree_id, minlength=self.n)[self.roots]

    @cached_property
    def tree_sizes(self) -> dict[int, int]:
        """Mapping root id -> number of nodes in its tree (Theorem 3 quantity)."""
        return dict(zip(self.roots.tolist(), self._root_sizes.tolist()))

    @cached_property
    def tree_heights(self) -> dict[int, int]:
        """Mapping root id -> height (max depth) of its tree (Theorem 11 quantity)."""
        heights = np.zeros(self.n, dtype=np.int64)
        np.maximum.at(heights, self.tree_id, self.depth)
        return dict(zip(self.roots.tolist(), heights[self.roots].tolist()))

    @property
    def max_tree_size(self) -> int:
        return max(self.tree_sizes.values())

    @property
    def max_tree_height(self) -> int:
        return max(self.tree_heights.values())

    def tree_members(self, root: int) -> np.ndarray:
        """All node ids in the tree rooted at ``root`` (including the root)."""
        if not self.is_root(root):
            raise ValueError(f"node {root} is not a root")
        return np.flatnonzero(self.tree_id == root)

    def size_of(self, root: int) -> int:
        return self.tree_sizes[int(root)]

    def largest_root(self) -> int:
        """Root of the largest tree; ties broken by smaller node id.

        DRR-gossip-ave needs this node: only the largest tree's root is
        guaranteed (Theorem 7) to converge, and it then Data-spreads the
        answer to the other roots.
        """
        # roots ascend and argmax returns the first maximum
        return int(self.roots[np.argmax(self._root_sizes)])

    # ------------------------------------------------------------------ #
    # traversal
    # ------------------------------------------------------------------ #
    def topological_order(self) -> np.ndarray:
        """Nodes ordered so parents precede children (roots first)."""
        return stable_argsort(self.depth)

    def depth_by_bfs(self) -> np.ndarray:
        """Depths computed by a level-synchronous sweep from the roots.

        Unlike :attr:`depth` (which trusts the pointers), this raises on a
        cyclic "forest": a node inside a cycle is never reached from any
        root, so its depth stays unassigned.
        """
        depth = np.full(self.n, -1, dtype=np.int64)
        depth[self.parent == NO_PARENT] = 0
        unassigned = np.flatnonzero(depth < 0)
        level = 0
        while unassigned.size:
            level += 1
            reached = depth[self.parent[unassigned]] == level - 1
            if not reached.any():
                raise ForestInvariantError(
                    "parent pointers contain a cycle or dangling reference"
                )
            depth[unassigned[reached]] = level
            unassigned = unassigned[~reached]
        return depth

    def leaves(self) -> Iterator[int]:
        for node in range(self.n):
            if self.is_leaf(node):
                yield node

    # ------------------------------------------------------------------ #
    # validation
    # ------------------------------------------------------------------ #
    def validate(self, require_rank_increase: bool = True) -> None:
        """Check all structural invariants, raising on the first violation."""
        if ((self.parent < NO_PARENT) | (self.parent >= self.n)).any():
            raise ForestInvariantError("parent pointer out of range")
        if (self.parent == np.arange(self.n)).any():
            raise ForestInvariantError("a node cannot be its own parent")
        # the pointer-doubling depth walk raises if there is a cycle.
        self.depth
        if require_rank_increase:
            non_roots = np.flatnonzero(self.parent != NO_PARENT)
            parents = self.parent[non_roots]
            bad = ~(self.rank[parents] > self.rank[non_roots])
            if bad.any():
                offender = int(non_roots[np.argmax(bad)])
                raise ForestInvariantError(
                    f"node {offender} has rank {self.rank[offender]} but its parent "
                    f"{int(self.parent[offender])} has rank {self.rank[int(self.parent[offender])]}"
                )
        if self.root_count == 0:
            raise ForestInvariantError("a forest must contain at least one root")

    # ------------------------------------------------------------------ #
    # summaries
    # ------------------------------------------------------------------ #
    def summary(self) -> dict:
        sizes = np.array(list(self.tree_sizes.values()), dtype=float)
        heights = np.array(list(self.tree_heights.values()), dtype=float)
        return {
            "n": self.n,
            "roots": self.root_count,
            "max_tree_size": int(sizes.max()),
            "mean_tree_size": float(sizes.mean()),
            "max_tree_height": int(heights.max()),
            "mean_tree_height": float(heights.mean()),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Forest(n={self.n}, roots={self.root_count}, "
            f"max_size={self.max_tree_size}, max_height={self.max_tree_height})"
        )
