"""Phase II -- Convergecast and Broadcast (Algorithms 2 and 3).

After Phase I every node knows its parent and (if its connection message
arrived) its parent knows it.  Phase II computes the *local* aggregate of
every tree at its root:

* **Convergecast-max** (Algorithm 2): leaves send their value to their
  parent; intermediate nodes wait for their children, take the max of the
  received values and their own, and forward it; the root ends up with the
  tree's maximum.
* **Convergecast-sum** (Algorithm 3): identical structure, but nodes forward
  a pair ``(sum of values, count of nodes)`` so the root learns the tree's
  local sum and its size -- the size is the weight Gossip-ave needs.
* **Broadcast**: the root pushes a payload (its own address after Phase II,
  the global aggregate after Phase III) down the tree.  A node can call only
  one node per round, so a parent serves its children one per round; this is
  why the paper bounds Phase II time by the tree *size* rather than height.

:func:`run_convergecast` and :func:`run_broadcast` are the entry points; the
``backend`` argument selects the substrate kernel.  All they need from the
forest's shape is a :class:`ForestPlan`, built once per DRR result (lazily,
as ``drr.plan``, under the ``core.forest_plan`` telemetry span) and shared
by convergecast and both broadcasts: the alive roots, the depth-layer order
of the alive non-roots (upward sweep) and of the known children (downward
sweep), the send schedule and the sibling service ranks.  One depth sort
serves both sweeps and one parent sort gives the ranks, on radix-sortable
keys (:func:`~repro.core.forest.stable_argsort`); index and round arrays
are int32 below 2^31 nodes, since a finished run keeps its plan alive.
The vectorized kernel sweeps the plan one depth layer per batch; the engine
kernel runs the :class:`ConvergecastNode` / :class:`BroadcastNode` state
machines on the same schedule, with identical aggregates, rounds, and
message counts for the same seed.

Semantics under failures (both backends):

* A parent only waits for, and only incorporates, the children whose
  CONNECT message it actually received in Phase I ("known children").
* If a convergecast message is lost, that child's whole subtree contribution
  is missing from the root's local aggregate; there are no retransmissions,
  matching the paper's model.  Transmission times follow the *send
  schedule*: a node transmits one round after the last scheduled send of
  its known children, whether or not those messages survived (silence past
  the scheduled round means loss; synchronous rounds make the schedule
  locally computable).  The schedule is a pure function of the forest, so
  loss changes which contributions arrive but never when anything is sent —
  both backends run the identical schedule, rounds included.
* If a broadcast message is lost, the child's subtree never learns the
  payload (such nodes cannot forward Phase III gossip to their root).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Literal, Mapping

import numpy as np

from ..observability.telemetry import current_telemetry
from ..simulator.failures import FailureModel, LossOracle
from ..simulator.message import Message, MessageKind, Send
from ..simulator.metrics import MetricsCollector
from ..simulator.node import ProtocolNode, RoundContext
from ..simulator.rng import make_rng
from ..substrate import EngineKernel, VectorizedKernel, run_on
from .drr import DRRResult
from .forest import stable_argsort

__all__ = [
    "ConvergecastResult",
    "BroadcastResult",
    "ForestPlan",
    "ConvergecastNode",
    "BroadcastNode",
    "run_convergecast",
    "run_broadcast",
]

Op = Literal["max", "min", "sum"]


@dataclass
class ConvergecastResult:
    """Per-root local aggregates computed by a convergecast pass.

    ``root_value[k]`` is the local Max/Min (op="max"/"min") or local Sum
    (op="sum") of the tree rooted at ``roots[k]`` (the alive roots,
    ascending); ``root_weight[k]`` is the number of nodes whose value
    actually reached that root (equal to the tree size on a reliable
    network).  ``local_value`` / ``local_weight`` are the same data as
    dictionaries keyed by root id.
    """

    op: str
    roots: np.ndarray
    root_value: np.ndarray
    root_weight: np.ndarray
    rounds: int
    metrics: MetricsCollector

    @cached_property
    def local_value(self) -> dict[int, float]:
        return dict(zip(self.roots.tolist(), self.root_value.tolist()))

    @cached_property
    def local_weight(self) -> dict[int, int]:
        return dict(zip(self.roots.tolist(), self.root_weight.tolist()))

    def value_vector(self, roots: np.ndarray) -> np.ndarray:
        return np.array([self.local_value[int(r)] for r in roots], dtype=float)

    def weight_vector(self, roots: np.ndarray) -> np.ndarray:
        return np.array([self.local_weight[int(r)] for r in roots], dtype=float)


@dataclass
class BroadcastResult:
    """Outcome of a root-to-tree broadcast.

    ``received[i]`` is True when node ``i`` got the payload;
    ``payload[i]`` is the delivered value (NaN / -1 when not received).
    """

    received: np.ndarray
    payload: np.ndarray
    rounds: int
    metrics: MetricsCollector

    @property
    def coverage(self) -> float:
        return float(self.received.mean())


def _reduce(op: str, a: float, b: float) -> float:
    if op == "max":
        return max(a, b)
    if op == "min":
        return min(a, b)
    if op == "sum":
        return a + b
    raise ValueError(f"unknown convergecast op {op!r}")


#: the ufunc whose ``.at`` folds a layer's arrivals into their parents
_FOLD = {"max": np.maximum, "min": np.minimum, "sum": np.add}


def _layer_bounds(order: np.ndarray, depth: np.ndarray) -> np.ndarray:
    """``order[bounds[d]:bounds[d + 1]]`` is depth layer ``d`` of a depth-sorted ``order``."""
    depths = depth[order]
    max_depth = int(depths[-1]) if depths.size else 0
    return np.searchsorted(depths, np.arange(max_depth + 2))


@dataclass(frozen=True)
class ForestPlan:
    """The static Phase II structure of one DRR forest (see module docstring).

    Depth layer ``d`` of the upward sweep is
    ``up_order[up_bounds[d]:up_bounds[d + 1]]``, likewise downward; a layer
    lists ids in ascending order.  ``send_round`` (aligned with ``up_order``)
    is the 1-based round in which a node sends to its parent: leaves in
    round 1, a parent one round after the last scheduled send of its known
    alive children, arrived or not.  ``root_done`` (aligned with ``roots``)
    is that last send for a root, after which its aggregate is final.
    ``sibling_rank`` (aligned with ``down_order``) is a child's 1-based
    position in its parent's service order (known children by id), alive or
    not: a parent cannot learn that a child died after tree construction
    (mid-run churn), so it wastes that round, as the engine does.
    """

    roots: np.ndarray  # alive roots, ascending
    up_order: np.ndarray  # alive non-roots by depth: the convergecast senders
    up_bounds: np.ndarray
    send_round: np.ndarray
    root_done: np.ndarray
    down_order: np.ndarray  # known children by depth: the broadcast recipients
    down_bounds: np.ndarray
    sibling_rank: np.ndarray

    @property
    def convergecast_rounds(self) -> int:
        return int(self.send_round.max(initial=0))

    @classmethod
    def build(cls, drr: DRRResult) -> "ForestPlan":
        with current_telemetry().span("core.forest_plan"):
            forest = drr.forest
            n, parent, depth = forest.n, forest.parent, forest.depth
            index = np.int32 if n < 2**31 else np.int64
            alive = forest.alive_mask
            known = drr.known_child_mask
            senders = alive & (parent >= 0)
            roots = forest.roots[alive[forest.roots]]

            # One stable depth sort serves both sweeps; filtering it keeps
            # each layer in ascending id order.
            members = np.flatnonzero(senders | known)
            members = members[stable_argsort(depth[members])]
            up_order = members[senders[members]].astype(index)
            up_bounds = _layer_bounds(up_order, depth)
            if np.array_equal(senders, known):
                down_order, down_bounds = up_order, up_bounds
            else:
                down_order = members[known[members]].astype(index)
                down_bounds = _layer_bounds(down_order, depth)

            send_round = np.zeros(up_order.size, dtype=index)
            last_child_round = np.zeros(n, dtype=index)
            for d in range(up_bounds.size - 2, 0, -1):
                lo, hi = up_bounds[d], up_bounds[d + 1]
                layer = up_order[lo:hi]
                send_round[lo:hi] = sends = last_child_round[layer] + 1
                waiting = known[layer]
                np.maximum.at(last_child_round, parent[layer[waiting]], sends[waiting])

            # Group the known children by parent (stable: ascending id within
            # a group) and number each group from 1.
            kids = np.flatnonzero(known)
            kids = kids[stable_argsort(parent[kids])]
            rank = np.zeros(n, dtype=index)
            if kids.size:
                new_group = np.r_[True, parent[kids[1:]] != parent[kids[:-1]]]
                position = np.arange(kids.size, dtype=index)
                rank[kids] = position - np.maximum.accumulate(np.where(new_group, position, 0)) + 1
            return cls(
                roots, up_order, up_bounds, send_round, last_child_round[roots],
                down_order, down_bounds, rank[down_order],
            )


# --------------------------------------------------------------------------- #
# convergecast
# --------------------------------------------------------------------------- #
def run_convergecast(
    drr: DRRResult,
    values: np.ndarray,
    op: Op = "max",
    failure_model: FailureModel | None = None,
    rng: np.random.Generator | int | None = None,
    metrics: MetricsCollector | None = None,
    backend: str = "vectorized",
) -> ConvergecastResult:
    """Compute local per-tree aggregates at the roots (Algorithms 2 / 3)."""
    forest = drr.forest
    n = forest.n
    values = np.asarray(values, dtype=float)
    if values.shape != (n,):
        raise ValueError(f"values must have shape ({n},), got {values.shape}")
    if op not in ("max", "min", "sum"):
        raise ValueError(f"unknown convergecast op {op!r}")
    rng = make_rng(rng)
    failure_model = failure_model or FailureModel()
    metrics = metrics if metrics is not None else MetricsCollector(n=n)
    metrics.begin_phase("convergecast")
    oracle = LossOracle.for_run(failure_model, rng)

    return run_on(
        backend,
        vectorized=lambda kernel: _convergecast_vectorized(
            kernel, drr, values, op, oracle, rng, metrics
        ),
        engine=lambda kernel: _convergecast_engine(
            kernel, drr, values, op, failure_model, oracle, rng, metrics
        ),
    )


def _convergecast_vectorized(
    kernel: VectorizedKernel,
    drr: DRRResult,
    values: np.ndarray,
    op: str,
    oracle: LossOracle,
    rng: np.random.Generator,
    metrics: MetricsCollector,
) -> ConvergecastResult:
    forest, plan = drr.forest, drr.plan
    alive = forest.alive_mask
    known = drr.known_child_mask  # child side: my parent knows me
    payload_words = 1 if op in ("max", "min") else 2
    alive_arg = None if alive.all() else alive

    # Accumulators: every alive node starts with its own value and weight 1.
    acc_value = values.copy()
    acc_weight = alive.astype(np.int64)

    # Sweep the forest bottom-up, one depth layer per batch: a layer's
    # upward transmissions are charged, lossed, and folded as arrays.  The
    # loss oracle keys each transmission by its scheduled send round, so
    # batching by depth instead of by round changes nothing.
    with current_telemetry().span("substrate.convergecast_layers"):
        for d in range(plan.up_bounds.size - 2, 0, -1):
            lo, hi = plan.up_bounds[d], plan.up_bounds[d + 1]
            if lo == hi:
                continue
            layer = plan.up_order[lo:hi].astype(np.intp)
            parents = forest.parent[layer]
            delivered = kernel.deliver(
                metrics, oracle, MessageKind.CONVERGECAST, parents, senders=layer,
                round_index=plan.send_round[lo:hi].astype(np.int64) - 1,
                alive=alive_arg, payload_words=payload_words,
            )
            fold = delivered & known[layer]
            src, dst = layer[fold], parents[fold]
            _FOLD[op].at(acc_value, dst, acc_value[src])
            np.add.at(acc_weight, dst, acc_weight[src])

    rounds = plan.convergecast_rounds
    metrics.record_round(rounds)
    roots = plan.roots
    return ConvergecastResult(op, roots, acc_value[roots], acc_weight[roots], rounds, metrics)


class ConvergecastNode(ProtocolNode):
    """Per-node convergecast state machine (Algorithms 2 and 3).

    Transmissions follow the precomputed send schedule (see
    :class:`ForestPlan`): the node sends in round ``send_at`` whether or
    not every known child's message arrived — a lost message means a missing
    contribution, never a delay, matching the vectorized backend exactly.
    """

    def __init__(
        self,
        node_id: int,
        value: float,
        parent: int | None,
        known_children: tuple[int, ...],
        op: str,
        send_at: int,
        done_at: int,
    ) -> None:
        super().__init__(node_id)
        self.value = float(value)
        self.weight = 1
        self.parent = parent
        self.known = set(known_children)
        self.op = op
        #: 0-based round in which this node transmits to its parent
        self.send_at = int(send_at)
        #: 0-based round after which a root's aggregate is final
        self.done_at = int(done_at)
        self.sent = False
        self._rounds_seen = -1

    def begin_round(self, ctx: RoundContext) -> list[Send]:
        self._rounds_seen = ctx.round_index
        if self.parent is None or self.sent or ctx.round_index < self.send_at:
            return []
        self.sent = True
        return [
            Send(
                recipient=self.parent,
                kind=MessageKind.CONVERGECAST,
                payload={"value": self.value, "weight": self.weight, "child": self.node_id},
                payload_words=1 if self.op in ("max", "min") else 2,
            )
        ]

    def on_messages(self, ctx: RoundContext, messages: list[Message]) -> list[Send]:
        for message in messages:
            if message.kind != MessageKind.CONVERGECAST.value:
                continue
            child = int(message.get("child", message.sender))
            if child not in self.known:
                # Unknown child (its CONNECT was lost): ignore, see module
                # docstring for the rationale.
                continue
            self.known.discard(child)
            self.value = _reduce(self.op, self.value, float(message.get("value")))
            self.weight += int(message.get("weight", 1))
        return []

    def is_complete(self) -> bool:
        if self.parent is None:
            return self._rounds_seen >= self.done_at - 1
        return self.sent

    def result(self) -> dict:
        return {"value": self.value, "weight": self.weight}


def _convergecast_engine(
    kernel: EngineKernel,
    drr: DRRResult,
    values: np.ndarray,
    op: str,
    failure_model: FailureModel,
    oracle: LossOracle,
    rng: np.random.Generator,
    metrics: MetricsCollector,
) -> ConvergecastResult:
    forest, plan = drr.forest, drr.plan
    n, alive = forest.n, forest.alive_mask
    known = drr.known_children
    send_round = np.zeros(n, dtype=np.int64)
    send_round[plan.up_order] = plan.send_round
    done_round = np.zeros(n, dtype=np.int64)
    done_round[plan.roots] = plan.root_done
    nodes = [
        ConvergecastNode(
            node_id=i,
            value=float(values[i]),
            parent=(int(forest.parent[i]) if forest.parent[i] >= 0 else None),
            known_children=known[i],
            op=op,
            send_at=int(send_round[i]) - 1,
            done_at=int(done_round[i]),
        )
        for i in range(n)
    ]
    outcome = kernel.run(
        nodes,
        rng=rng,
        metrics=metrics,
        failure_model=failure_model,
        alive=alive,
        loss_oracle=oracle,
        max_substeps=2,
        max_rounds=plan.convergecast_rounds + 4,
        strict=False,
    )

    root_nodes = [nodes[r] for r in plan.roots.tolist()]
    value = np.array([node.value for node in root_nodes], dtype=float)
    weight = np.array([node.weight for node in root_nodes], dtype=np.int64)
    return ConvergecastResult(op, plan.roots, value, weight, outcome.rounds, metrics)


# --------------------------------------------------------------------------- #
# broadcast
# --------------------------------------------------------------------------- #
def run_broadcast(
    drr: DRRResult,
    root_payload: Mapping[int, float],
    failure_model: FailureModel | None = None,
    rng: np.random.Generator | int | None = None,
    metrics: MetricsCollector | None = None,
    phase_name: str = "broadcast",
    backend: str = "vectorized",
) -> BroadcastResult:
    """Push a per-root payload down every tree (one child served per round)."""
    forest = drr.forest
    rng = make_rng(rng)
    failure_model = failure_model or FailureModel()
    metrics = metrics if metrics is not None else MetricsCollector(n=forest.n)
    metrics.begin_phase(phase_name)
    oracle = LossOracle.for_run(failure_model, rng)
    seeds = np.fromiter(root_payload, dtype=np.int64, count=len(root_payload))
    not_root = forest.parent[seeds] >= 0
    if not_root.any():
        raise ValueError(f"node {int(seeds[np.argmax(not_root)])} is not a root")
    seed_values = np.fromiter(root_payload.values(), dtype=float, count=seeds.size)

    return run_on(
        backend,
        vectorized=lambda kernel: _broadcast_vectorized(
            kernel, drr, seeds, seed_values, oracle, rng, metrics
        ),
        engine=lambda kernel: _broadcast_engine(
            kernel, drr, root_payload, failure_model, oracle, rng, metrics
        ),
    )


def _broadcast_vectorized(
    kernel: VectorizedKernel,
    drr: DRRResult,
    seeds: np.ndarray,
    seed_values: np.ndarray,
    oracle: LossOracle,
    rng: np.random.Generator,
    metrics: MetricsCollector,
) -> BroadcastResult:
    forest, plan = drr.forest, drr.plan
    n, alive = forest.n, forest.alive_mask
    alive_arg = None if alive.all() else alive

    received = np.zeros(n, dtype=bool)
    payload = np.full(n, np.nan, dtype=float)
    receive_round = np.full(n, -1, dtype=np.int64)
    live = alive[seeds]
    received[seeds[live]] = True
    payload[seeds[live]] = seed_values[live]
    receive_round[seeds[live]] = 0

    # Sweep the trees top-down one depth layer per batch; a child's arrival
    # round is its parent's receive round plus its sibling rank, and the
    # transmission is charged whether or not it survives.
    max_round = 0
    with current_telemetry().span("substrate.broadcast_layers"):
        for d in range(1, plan.down_bounds.size - 1):
            lo, hi = plan.down_bounds[d], plan.down_bounds[d + 1]
            layer = plan.down_order[lo:hi].astype(np.intp)
            parents = forest.parent[layer]
            reached = received[parents]
            if not reached.any():
                continue
            layer, parents = layer[reached], parents[reached]
            arrival = receive_round[parents] + plan.sibling_rank[lo:hi][reached]
            max_round = max(max_round, int(arrival.max()))
            # A transmission to a depth-d child is sent in the round before
            # its arrival (its parent's serving round), which is the round
            # the engine stamps on the same message.
            delivered = kernel.deliver(
                metrics, oracle, MessageKind.BROADCAST, layer,
                senders=parents, round_index=arrival - 1, alive=alive_arg,
            )
            got = layer[delivered]
            received[got] = True
            payload[got] = payload[parents[delivered]]
            receive_round[got] = arrival[delivered]

    metrics.record_round(max_round)
    return BroadcastResult(received=received, payload=payload, rounds=max_round, metrics=metrics)


class BroadcastNode(ProtocolNode):
    """Per-node broadcast state machine (root address / final aggregate)."""

    def __init__(self, node_id: int, known_children: tuple[int, ...], payload: float | None) -> None:
        super().__init__(node_id)
        self.pending_children = sorted(known_children)
        self.payload = payload
        self.received = payload is not None

    def begin_round(self, ctx: RoundContext) -> list[Send]:
        if not self.received or not self.pending_children:
            return []
        child = self.pending_children.pop(0)
        return [
            Send(recipient=child, kind=MessageKind.BROADCAST, payload={"value": self.payload})
        ]

    def on_messages(self, ctx: RoundContext, messages: list[Message]) -> list[Send]:
        for message in messages:
            if message.kind == MessageKind.BROADCAST.value and not self.received:
                self.received = True
                self.payload = float(message.get("value"))
        return []

    def is_complete(self) -> bool:
        # A node that never receives the payload (lost broadcast upstream, or
        # simply not in any seeded tree) cannot forward; it is "complete" in
        # the sense that it will never act again.
        return not self.received or not self.pending_children

    def result(self) -> dict:
        return {"received": self.received, "payload": self.payload}


def _broadcast_engine(
    kernel: EngineKernel,
    drr: DRRResult,
    root_payload: Mapping[int, float],
    failure_model: FailureModel,
    oracle: LossOracle,
    rng: np.random.Generator,
    metrics: MetricsCollector,
) -> BroadcastResult:
    forest = drr.forest
    n, alive = forest.n, forest.alive_mask
    known = drr.known_children
    nodes = [
        BroadcastNode(
            node_id=i,
            known_children=known[i],
            payload=(float(root_payload[i]) if i in root_payload else None),
        )
        for i in range(n)
    ]
    outcome = kernel.run(
        nodes,
        rng=rng,
        metrics=metrics,
        failure_model=failure_model,
        alive=alive,
        loss_oracle=oracle,
        max_substeps=2,
        max_rounds=4 * n + 16,
        strict=False,
    )

    received = np.array([node.received for node in nodes], dtype=bool)
    received &= alive
    payload = np.array(
        [node.payload if node.payload is not None else np.nan for node in nodes], dtype=float
    )
    payload[~alive] = np.nan
    return BroadcastResult(received=received, payload=payload, rounds=outcome.rounds, metrics=metrics)
