"""Tests for Phase II: convergecast and broadcast (fast and engine paths)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DRRResult, Forest, run_broadcast, run_convergecast, run_drr
from repro.simulator import FailureModel, MetricsCollector
from repro.substrate.compiled import python_fallback


@pytest.fixture
def drr_256():
    return run_drr(256, rng=11)


@pytest.fixture
def values_256(rng):
    return rng.normal(10.0, 5.0, size=256)


class TestConvergecastFast:
    def test_max_local_aggregates_exact(self, drr_256, values_256):
        cov = run_convergecast(drr_256, values_256, op="max", rng=1)
        forest = drr_256.forest
        for root, value in cov.local_value.items():
            members = forest.tree_members(root)
            assert value == pytest.approx(values_256[members].max())

    def test_min_local_aggregates_exact(self, drr_256, values_256):
        cov = run_convergecast(drr_256, values_256, op="min", rng=1)
        forest = drr_256.forest
        for root, value in cov.local_value.items():
            members = forest.tree_members(root)
            assert value == pytest.approx(values_256[members].min())

    def test_sum_local_aggregates_and_weights_exact(self, drr_256, values_256):
        cov = run_convergecast(drr_256, values_256, op="sum", rng=1)
        forest = drr_256.forest
        for root in cov.local_value:
            members = forest.tree_members(root)
            assert cov.local_value[root] == pytest.approx(values_256[members].sum())
            assert cov.local_weight[root] == members.size
        # weights over all roots sum to n
        assert sum(cov.local_weight.values()) == 256

    def test_message_count_one_per_non_root(self, drr_256, values_256):
        cov = run_convergecast(drr_256, values_256, op="max", rng=1)
        non_roots = int((drr_256.forest.parent >= 0).sum())
        assert cov.metrics.total_messages == non_roots

    def test_rounds_at_most_max_tree_size(self, drr_256, values_256):
        cov = run_convergecast(drr_256, values_256, op="max", rng=1)
        assert 1 <= cov.rounds <= drr_256.forest.max_tree_size

    def test_value_vector_alignment(self, drr_256, values_256):
        cov = run_convergecast(drr_256, values_256, op="sum", rng=1)
        roots = drr_256.forest.roots
        vec = cov.value_vector(roots)
        assert vec.shape == roots.shape
        assert vec[0] == pytest.approx(cov.local_value[int(roots[0])])

    def test_invalid_op_rejected(self, drr_256, values_256):
        with pytest.raises(ValueError):
            run_convergecast(drr_256, values_256, op="median", rng=1)

    def test_shape_mismatch_rejected(self, drr_256):
        with pytest.raises(ValueError):
            run_convergecast(drr_256, np.zeros(5), op="max", rng=1)

    def test_loss_drops_contributions_but_not_correct_structure(self, drr_256, values_256):
        cov = run_convergecast(
            drr_256, values_256, op="sum", failure_model=FailureModel(loss_probability=0.3), rng=2
        )
        # lost contributions mean the total accounted weight is below n ...
        assert sum(cov.local_weight.values()) < 256
        # ... but each root's local sum never exceeds what its tree holds
        forest = drr_256.forest
        for root, value in cov.local_value.items():
            members = forest.tree_members(root)
            assert value <= values_256[members].sum() + abs(values_256[members]).sum()


class TestBroadcastFast:
    def test_root_address_reaches_whole_tree(self, drr_256):
        forest = drr_256.forest
        payload = {int(r): float(r) for r in forest.roots}
        out = run_broadcast(drr_256, payload, rng=1)
        assert out.received.all()
        for node in range(forest.n):
            assert out.payload[node] == forest.tree_id[node]

    def test_messages_one_per_tree_edge(self, drr_256):
        payload = {int(r): 1.0 for r in drr_256.forest.roots}
        out = run_broadcast(drr_256, payload, rng=1)
        non_roots = int((drr_256.forest.parent >= 0).sum())
        assert out.metrics.total_messages == non_roots

    def test_partial_payload_only_reaches_that_tree(self, drr_256):
        forest = drr_256.forest
        root = int(forest.roots[0])
        out = run_broadcast(drr_256, {root: 7.0}, rng=1)
        members = set(forest.tree_members(root).tolist())
        assert set(np.flatnonzero(out.received).tolist()) == members

    def test_non_root_payload_rejected(self, drr_256):
        forest = drr_256.forest
        non_root = int(np.flatnonzero(forest.parent >= 0)[0])
        with pytest.raises(ValueError):
            run_broadcast(drr_256, {non_root: 1.0}, rng=1)

    def test_loss_reduces_coverage(self, drr_256):
        payload = {int(r): float(r) for r in drr_256.forest.roots}
        out = run_broadcast(drr_256, payload, failure_model=FailureModel(loss_probability=0.5), rng=3)
        assert 0.0 < out.coverage < 1.0


class TestEngineParity:
    def test_convergecast_engine_matches_fast_on_reliable_network(self, values_256):
        drr = run_drr(256, rng=21)
        fast = run_convergecast(drr, values_256, op="sum", rng=1)
        engine = run_convergecast(drr, values_256, op="sum", rng=1, backend="engine")
        assert set(fast.local_value) == set(engine.local_value)
        for root in fast.local_value:
            assert fast.local_value[root] == pytest.approx(engine.local_value[root])
            assert fast.local_weight[root] == engine.local_weight[root]
        assert fast.rounds == engine.rounds
        assert fast.metrics.total_messages == engine.metrics.total_messages

    def test_broadcast_engine_matches_fast_on_reliable_network(self):
        drr = run_drr(128, rng=22)
        payload = {int(r): float(r) * 2 for r in drr.forest.roots}
        fast = run_broadcast(drr, payload, rng=1)
        engine = run_broadcast(drr, payload, rng=1, backend="engine")
        assert np.array_equal(fast.received, engine.received)
        assert np.allclose(fast.payload[fast.received], engine.payload[engine.received])
        assert fast.rounds == engine.rounds

    def test_convergecast_engine_message_count(self, values_256):
        drr = run_drr(256, rng=23)
        engine = run_convergecast(drr, values_256, op="max", rng=1, backend="engine")
        non_roots = int((drr.forest.parent >= 0).sum())
        assert engine.metrics.total_messages == non_roots

    def test_convergecast_engine_survives_loss(self, values_256):
        drr = run_drr(128, rng=24, failure_model=FailureModel(loss_probability=0.2))
        engine = run_convergecast(
            drr,
            values_256[:128],
            op="sum",
            failure_model=FailureModel(loss_probability=0.2),
            rng=2,
            backend="engine",
        )
        assert sum(engine.local_weight.values()) <= 128


def chain_drr(length: int = 300, extra: int = 60, lost_connects=(5, 310)) -> DRRResult:
    """A hand-built forest: one chain of ``length`` nodes (depth ``length - 1``),
    then a star of 19 children with a level of grandchildren below it, then
    isolated roots; the CONNECT messages of ``lost_connects`` were lost."""
    n = length + extra
    parent = np.full(n, -1, dtype=np.int64)
    parent[1:length] = np.arange(length - 1)
    star = length
    parent[star + 1 : star + 20] = star  # 19 siblings of one parent
    parent[star + 20 : star + 40] = np.arange(star + 1, star + 21)  # grandchildren
    forest = Forest(parent=parent, rank=np.zeros(n))
    rank = 1.0 - forest.depth / (n + 1) - np.arange(n) * 1e-9
    forest = Forest(parent=parent, rank=rank)
    forest.validate()
    connect = parent >= 0
    connect[list(lost_connects)] = False
    return DRRResult(
        forest=forest,
        connect_delivered=connect,
        probes=np.zeros(n, dtype=np.int64),
        rounds=0,
        metrics=MetricsCollector(n=n),
    )


class TestForestPlan:
    def test_plan_is_built_once_per_drr_result(self, drr_256):
        assert drr_256.plan is drr_256.plan

    def test_layer_orders_match_argsort_reference(self):
        drr = chain_drr()
        plan = drr.plan
        depth, parent = drr.forest.depth, drr.forest.parent
        assert depth.max() > 255  # depth keys need the 16-bit path
        senders = np.flatnonzero(parent >= 0)
        expected_up = senders[np.argsort(depth[senders], kind="stable")]
        assert np.array_equal(plan.up_order, expected_up)
        kids = np.flatnonzero(drr.known_child_mask)
        assert np.array_equal(plan.down_order, kids[np.argsort(depth[kids], kind="stable")])
        assert plan.up_bounds.size == depth.max() + 2
        assert plan.up_order.dtype == np.int32 and plan.send_round.dtype == np.int32
        # the star root's known children (310's CONNECT was lost) are
        # served in id order
        star_kids = np.isin(plan.down_order, np.arange(301, 320))
        assert plan.down_order[star_kids].tolist() == [k for k in range(301, 320) if k != 310]
        assert plan.sibling_rank[star_kids].tolist() == list(range(1, 19))

    @pytest.mark.parametrize("backend", ["vectorized", "compiled"])
    @pytest.mark.parametrize("loss", [0.0, 0.1], ids=["reliable", "lossy"])
    def test_deep_chain_matches_engine(self, backend, loss):
        drr = chain_drr()
        n = drr.forest.n
        fm = FailureModel(loss_probability=loss)
        values = np.random.default_rng(3).normal(size=n)
        with python_fallback():
            for op in ("sum", "max"):
                fast = run_convergecast(drr, values, op=op, failure_model=fm, rng=1, backend=backend)
                engine = run_convergecast(drr, values, op=op, failure_model=fm, rng=1, backend="engine")
                assert fast.local_weight == engine.local_weight
                assert fast.local_value.keys() == engine.local_value.keys()
                for root, value in engine.local_value.items():
                    assert fast.local_value[root] == pytest.approx(value, rel=1e-12)
                assert fast.rounds == engine.rounds
                assert fast.metrics.total_messages == engine.metrics.total_messages
                assert fast.metrics.total_messages_lost == engine.metrics.total_messages_lost
            payload = {int(r): float(r) + 0.5 for r in drr.forest.roots}
            fast = run_broadcast(drr, payload, failure_model=fm, rng=4, backend=backend)
            engine = run_broadcast(drr, payload, failure_model=fm, rng=4, backend="engine")
        assert np.array_equal(fast.received, engine.received)
        assert np.array_equal(fast.payload, engine.payload, equal_nan=True)
        assert fast.rounds == engine.rounds
        assert fast.metrics.total_messages == engine.metrics.total_messages
        assert fast.metrics.total_messages_lost == engine.metrics.total_messages_lost
        if loss == 0.0:
            # node 4 never learned of child 5, so the broadcast stops there
            assert fast.received[:5].all() and not fast.received[5:300].any()

    def test_value_vector_rejects_non_roots(self, drr_256, values_256):
        cov = run_convergecast(drr_256, values_256, op="sum", rng=1)
        non_root = int(np.flatnonzero(drr_256.forest.parent >= 0)[0])
        with pytest.raises(KeyError):
            cov.value_vector(np.array([non_root]))
