"""Which program functions the traced runs wrap, and the per-layer metrics.

Every wrap names a public function of one ``repro`` layer, by the attribute
the calling layer looks it up through (the pipelines call the phase
functions as globals of ``repro.core.drr_gossip``; the core calls the
substrate through the ``VectorizedKernel`` static methods).  A span's name
is ``<layer>.<thing>``, and the per-layer metrics are derived from those
names, so the table below is the whole definition of what a layer is.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass

import numpy as np

from spans import Patcher, Recorder, Span

#: the pipeline phases in execution order (Algorithm 8; Algorithm 7 skips
#: gossip-ave and data-spread)
PHASES = (
    "drr",
    "convergecast",
    "broadcast-root",
    "gossip-max",
    "gossip-ave",
    "data-spread",
    "broadcast-final",
)

#: the program's phase labels that differ from the benchmark's: the average
#: pipeline runs Gossip-max on the tree sizes under its own label
PROGRAM_PHASE = {"gossip-max-sizes": "gossip-max"}

SUBSTRATE_PRIMITIVES = (
    "deliver",
    "probe_exchange",
    "relay_to_roots",
    "sample_uniform",
    "fold_pushes",
    "compact_frontier",
    "occurrence_index",
)

STORE_OPS = (
    "enqueue_cells",
    "claim_cell",
    "record_result",
    "get_by_spec_hash",
    "completed_cells",
)

ROUTES = {
    ("POST", "/v1/runs"): "post_runs",
    ("GET", "/v1/runs/{id}"): "get_run",
    ("GET", "/v1/runs/{id}/result"): "get_result",
}


#: what a span's work count is called where it is not "items"
ITEMS_NAME = {"simulator.loss_oracle": "keys"}


def _size_of(position: int, keyword: str):
    def items(args: tuple, kwargs: dict) -> int:
        return int(np.size(args[position] if len(args) > position else kwargs[keyword]))

    return items


def _count_delivered(rec: Recorder, args, kwargs, delivered) -> None:
    rec.count("substrate.deliver.delivered", int(np.count_nonzero(delivered)))


def _count_claim(rec: Recorder, args, kwargs, claim) -> None:
    rec.count("orchestration.claim.attempts")
    if claim is not None:
        rec.count("orchestration.claim.hits")


def _count_backoff(rec: Recorder, args, kwargs, sleep_s) -> None:
    rec.count("orchestration.worker.idle_s", float(sleep_s))


def _count_status(rec: Recorder, args, kwargs, response) -> None:
    if response[0] == 503:
        rec.count("service.status_503")


def _route_name(args: tuple, kwargs: dict) -> str:
    from repro.service.routers import Router

    label = Router._route_label(args[2])
    return "service.route." + ROUTES.get((args[1], label), "other")


def install(patcher: Patcher) -> None:
    """Wrap every layer boundary the benchmark measures."""
    # import_module, not "import a.b as x": repro.core re-exports a
    # function named drr_gossip that shadows the submodule attribute
    import repro

    (api, pipeline, store, worker, client, manager, routers, delivery) = (
        importlib.import_module(f"repro.{name}")
        for name in (
            "api", "core.drr_gossip", "orchestration.store", "orchestration.worker",
            "service.client", "service.manager", "service.routers", "substrate.delivery",
        )
    )
    from repro.api import RunSpec
    from repro.core.forest import Forest
    from repro.simulator.failures import LossOracle
    from repro.substrate.kernel import VectorizedKernel

    wrap = patcher.wrap

    # api: the run entry point and spec validation / hashing
    wrap(repro, "run", "api.run")
    wrap(api, "run", "api.run")
    wrap(RunSpec, "from_dict", "api.spec")
    wrap(RunSpec, "spec_hash", "api.spec")
    for module in (manager, worker):
        wrap(module, "cell_spec_hash", "api.spec")

    # core: the pipeline phases and the Forest array methods
    wrap(pipeline, "run_drr", "core.drr")
    wrap(pipeline, "run_convergecast", "core.convergecast")
    wrap(pipeline, "run_broadcast", lambda a, k: "core." + k["phase_name"])
    wrap(pipeline, "run_gossip_max", "core.gossip-max")
    wrap(pipeline, "run_gossip_ave", "core.gossip-ave")
    wrap(pipeline, "run_data_spread", "core.data-spread")
    for attr in (
        "roots", "children", "child_arrays", "tree_id", "depth", "tree_sizes",
        "tree_heights", "tree_members", "largest_root", "topological_order",
        "depth_by_bfs", "validate",
    ):
        wrap(Forest, attr, "core.forest")

    # substrate: the kernel primitives, plus the two module globals other
    # primitives call directly (probe_exchange -> deliver_batch, the lossy
    # relay -> occurrence_index) and the reliable relay's fast path
    items = {
        "deliver": _size_of(3, "targets"),
        "probe_exchange": _size_of(2, "targets"),
        "relay_to_roots": _size_of(2, "targets"),
        "sample_uniform": lambda a, k: a[2] if len(a) > 2 else k["size"],
        "fold_pushes": _size_of(0, "receiver"),
        "compact_frontier": _size_of(0, "active"),
        "occurrence_index": _size_of(0, "keys"),
    }
    for prim in SUBSTRATE_PRIMITIVES:
        after = _count_delivered if prim == "deliver" else None
        wrap(VectorizedKernel, prim, f"substrate.{prim}", items=items[prim], after=after)
    wrap(delivery, "deliver_batch", "substrate.deliver",
         items=items["deliver"], after=_count_delivered)
    wrap(delivery, "occurrence_index", "substrate.occurrence_index",
         items=items["occurrence_index"])
    wrap(delivery, "_relay_reliable", "substrate.relay_reliable")

    # simulator: identity-keyed loss hashing
    for attr in ("sample", "sample_salted"):
        wrap(LossOracle, attr, "simulator.loss_oracle", items=_size_of(4, "recipients"))

    # orchestration: the store's queue/result surface and the worker loop
    for op in STORE_OPS:
        after = _count_claim if op == "claim_cell" else None
        wrap(store.ResultStore, op, f"orchestration.store.{op}", after=after)
    wrap(worker.QueueWorker, "idle_backoff_s", "orchestration.worker.backoff",
         after=_count_backoff)

    # service: routing, and the client's view of each request
    wrap(routers.Router, "route", _route_name, after=_count_status)
    wrap(client.ServiceClient, "request", "service.client")


@dataclass
class Stats:
    calls: int = 0
    #: summed duration of the spans with no ancestor of the same name
    s: float = 0.0
    #: summed duration minus the time each span's direct children cover
    self_s: float = 0.0
    items: int = 0


def span_stats(spans: list[Span]) -> dict[str, Stats]:
    by_id = {s.id: s for s in spans}
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent in by_id:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    stats: dict[str, Stats] = {}
    for s in spans:
        st = stats.setdefault(s.name, Stats())
        st.calls += 1
        st.items += s.items
        st.self_s += s.duration - child_time.get(s.id, 0.0)
        parent = by_id.get(s.parent)
        while parent is not None and parent.name != s.name:
            parent = by_id.get(parent.parent)
        if parent is None:
            st.s += s.duration
    return stats


def layer_metrics(
    spans: list[Span], counters: dict[str, float], per: float = 1.0
) -> dict[str, float]:
    """Calls, items, seconds and self seconds of every span name, over ``per``.

    ``per`` is the number of runs the trace covers when the workload reports
    per-run figures (the pipelines); counters are divided the same way.
    """
    out: dict[str, float] = {}
    stats = span_stats(spans)
    for name, st in stats.items():
        out[f"{name}.calls"] = st.calls / per
        out[f"{name}.s"] = st.s / per
        out[f"{name}.self_s"] = st.self_s / per
        out[f"{name}.{ITEMS_NAME.get(name, 'items')}"] = st.items / per
    for name, amount in counters.items():
        out[name] = amount / per

    deliver = stats.get("substrate.deliver")
    if deliver is not None and deliver.items:
        out["substrate.deliver.delivered_frac"] = (
            counters.get("substrate.deliver.delivered", 0) / deliver.items
        )
    relay = stats.get("substrate.relay_to_roots")
    if relay is not None and relay.calls:
        reliable = stats.get("substrate.relay_reliable", Stats()).calls
        out["substrate.relay_to_roots.reliable_frac"] = reliable / relay.calls
    attempts = counters.get("orchestration.claim.attempts", 0)
    if attempts:
        out["orchestration.claim.hit_frac"] = (
            counters.get("orchestration.claim.hits", 0) / attempts
        )
    return out
