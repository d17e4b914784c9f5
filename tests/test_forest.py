"""Unit and property tests for the Forest data structure."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.forest import Forest, ForestInvariantError, stable_argsort


def make_forest(parent, rank=None):
    parent = np.asarray(parent, dtype=np.int64)
    if rank is None:
        # assign ranks consistent with the parent pointers: rank = -depth noise
        rank = np.zeros(parent.size)
        # simple increasing rank along ancestry: use depth via repeated walk
        for i in range(parent.size):
            depth = 0
            j = i
            while parent[j] != -1:
                j = parent[j]
                depth += 1
                if depth > parent.size:
                    break
            rank[i] = 1.0 - depth * (1.0 / (parent.size + 1)) - i * 1e-6
    return Forest(parent=parent, rank=np.asarray(rank, dtype=float))


class TestBasicStructure:
    def test_single_root(self):
        f = make_forest([-1, 0, 0, 1])
        assert f.root_count == 1
        assert f.roots.tolist() == [0]
        assert f.children[0] == (1, 2)
        assert f.is_leaf(3)
        assert not f.is_leaf(1)

    def test_tree_id_assignment(self):
        f = make_forest([-1, 0, -1, 2, 3])
        assert f.tree_id[1] == 0
        assert f.tree_id[4] == 2
        assert f.tree_sizes == {0: 2, 2: 3}

    def test_depth_and_height(self):
        f = make_forest([-1, 0, 1, 2])
        assert f.depth.tolist() == [0, 1, 2, 3]
        assert f.max_tree_height == 3
        assert f.tree_heights == {0: 3}

    def test_depth_matches_bfs_reference(self):
        # `depth` is computed by pointer doubling; `depth_by_bfs` is the
        # independent level-sweep reference the doubling is checked against.
        rng = np.random.default_rng(7)
        for _ in range(5):
            n = 500
            ranks = rng.random(n)
            parent = np.full(n, -1, dtype=np.int64)
            for i in range(n):
                candidate = int(rng.integers(0, n))
                if ranks[candidate] > ranks[i]:
                    parent[i] = candidate
            f = Forest(parent=parent, rank=ranks)
            assert np.array_equal(f.depth, f.depth_by_bfs())

    def test_bfs_reference_rejects_cycle(self):
        f = Forest(parent=np.array([1, 2, 0]), rank=np.array([0.1, 0.2, 0.3]))
        with pytest.raises(ForestInvariantError):
            f.depth_by_bfs()

    def test_largest_root_breaks_ties_by_id(self):
        f = make_forest([-1, 0, -1, 2])
        assert f.largest_root() == 0  # both size 2, smaller id wins

    def test_tree_members(self):
        f = make_forest([-1, 0, -1, 2, 2])
        assert f.tree_members(2).tolist() == [2, 3, 4]
        with pytest.raises(ValueError):
            f.tree_members(1)

    def test_leaves_iteration(self):
        f = make_forest([-1, 0, 0, 1])
        assert sorted(f.leaves()) == [2, 3]

    def test_summary_fields(self):
        f = make_forest([-1, 0, 0])
        s = f.summary()
        assert s["n"] == 3
        assert s["roots"] == 1
        assert s["max_tree_size"] == 3


class TestValidation:
    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ForestInvariantError):
            Forest(parent=np.array([-1, 0]), rank=np.array([0.5]))

    def test_rejects_self_parent(self):
        f = Forest(parent=np.array([0]), rank=np.array([0.5]))
        with pytest.raises(ForestInvariantError):
            f.validate()

    def test_rejects_out_of_range_parent(self):
        f = Forest(parent=np.array([5, -1]), rank=np.array([0.5, 0.6]))
        with pytest.raises(ForestInvariantError):
            f.validate()

    def test_rejects_cycle(self):
        f = Forest(parent=np.array([1, 2, 0]), rank=np.array([0.1, 0.2, 0.3]))
        with pytest.raises(ForestInvariantError):
            f.validate(require_rank_increase=False)

    def test_rejects_rank_inversion(self):
        f = Forest(parent=np.array([-1, 0]), rank=np.array([0.2, 0.9]))
        with pytest.raises(ForestInvariantError):
            f.validate()

    def test_accepts_valid_forest(self):
        f = Forest(parent=np.array([-1, 0, 0]), rank=np.array([0.9, 0.5, 0.2]))
        f.validate()

    def test_alive_mask_shape_checked(self):
        with pytest.raises(ForestInvariantError):
            Forest(parent=np.array([-1, 0]), rank=np.array([0.9, 0.1]), alive=np.array([True]))


@st.composite
def random_forest(draw):
    """Generate a random valid forest by attaching each node to a higher-ranked one."""
    n = draw(st.integers(min_value=1, max_value=60))
    ranks = draw(
        st.lists(
            st.floats(min_value=0, max_value=1, exclude_min=True, allow_nan=False),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    ranks = np.array(ranks)
    order = np.argsort(ranks)
    parent = np.full(n, -1, dtype=np.int64)
    for position, node in enumerate(order[:-1]):  # all but the highest-ranked
        # choose a parent among strictly higher-ranked nodes, or stay a root
        higher = order[position + 1 :]
        choice = draw(st.integers(min_value=-1, max_value=len(higher) - 1))
        if choice >= 0:
            parent[node] = higher[choice]
    return Forest(parent=parent, rank=ranks)


class TestForestProperties:
    @given(random_forest())
    @settings(max_examples=60, deadline=None)
    def test_invariants_hold_for_generated_forests(self, forest):
        forest.validate()
        # tree ids partition the node set and every tree id is a root
        assert set(np.unique(forest.tree_id)) == set(forest.roots.tolist())
        # sizes sum to n
        assert sum(forest.tree_sizes.values()) == forest.n
        # depth of a root is zero, depth of a child is parent depth + 1
        for node in range(forest.n):
            p = forest.parent[node]
            if p == -1:
                assert forest.depth[node] == 0
            else:
                assert forest.depth[node] == forest.depth[p] + 1

    @given(random_forest())
    @settings(max_examples=60, deadline=None)
    def test_height_bounded_by_size(self, forest):
        for root, height in forest.tree_heights.items():
            assert height <= forest.tree_sizes[root] - 1 if forest.tree_sizes[root] > 0 else height == 0

    @given(random_forest())
    @settings(max_examples=40, deadline=None)
    def test_topological_order_parents_first(self, forest):
        order = forest.topological_order()
        seen = set()
        for node in order:
            p = forest.parent[node]
            if p != -1:
                assert int(p) in seen
            seen.add(int(node))


class TestStableArgsort:
    """The radix-pass helper must reproduce NumPy's stable order exactly."""

    @given(
        st.lists(st.integers(min_value=-(2**63), max_value=2**63 - 1), max_size=200),
        st.sampled_from([2**8, 2**16, 2**17, 2**32, 2**40, 2**64]),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_numpy_stable_argsort_on_int64_keys(self, raw, span):
        # fold the keys into a span so runs of equal keys (stability) and
        # every pass count (one uint8 pass up to four 16-bit passes) occur
        keys = np.array([k % span for k in raw] if span < 2**64 else raw, dtype=np.int64)
        expected = np.argsort(keys, kind="stable")
        assert np.array_equal(stable_argsort(keys), expected)

    @pytest.mark.parametrize(
        "keys",
        [
            [],
            [7],
            [2**16, 3, 2**16 + 1, 3, 0, 2**16],
            [2**32 + 5, 2**32, 1, 2**32 + 5, 2**40, 0],
            [-(2**63), 2**63 - 1, -1, 0, -(2**63)],
        ],
        ids=["empty", "single", "ge-2^16", "ge-2^32", "int64-extremes"],
    )
    def test_edge_cases(self, keys):
        keys = np.array(keys, dtype=np.int64)
        assert np.array_equal(stable_argsort(keys), np.argsort(keys, kind="stable"))
