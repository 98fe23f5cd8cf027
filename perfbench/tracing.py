"""Per-layer spans and counters for the traced benchmark run.

The tracer installs wrappers around public functions and methods of each
layer of ``repro`` (engine, flow solver, device model, workflow runner,
observation, campaign store, service queue/cache/pool, recommender) and
removes them again afterwards, so nothing under ``src/`` changes.  Each
wrapped call appends one span ``[name, start, end, parent]`` to an
in-memory list; the spans are written out only when the benchmark ends.

A layer's *self* time is the duration of its spans minus the time covered
by their direct child spans (:func:`summarize`).  Work counters are read
from the objects the layers already expose (``Engine.events_executed``,
``FlowNetwork.memo_hits``, ``RecommendationEngine.cache_info()``, ...)
when the wrapped call returns.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: One span: [name, start, end, parent index or -1].
Span = List[Any]

#: Counters that must repeat exactly across two traced passes of one
#: workload (they count simulated work, never host time).
DETERMINISTIC_COUNTERS: Tuple[str, ...] = (
    "engine.events",
    "engine.timers_scheduled",
    "engine.timers_cancelled",
    "engine.peak_queue_depth",
    "flow.recomputes",
    "flow.solves",
    "flow.solver_iterations",
    "flow.solver_classes",
    "flow.memo_hits",
    "flow.recomputes_coalesced",
    "flow.components_skipped",
    "flow.vector_batches",
    "flow.solves_at_cap",
    "device.share_calls",
    "runner.runs",
    "store.appends",
    "queue.submits",
    "queue.loads",
    "cache.gets",
    "cache.puts",
    "recommend.calls",
)

#: Per-layer metrics reported by ``--trace 1``: name -> unit.  The order is
#: the order of BENCHMARK.json's ``per_layer`` list.
LAYER_METRICS: Dict[str, str] = {
    "engine.events": "count",
    "engine.timers_scheduled": "count",
    "engine.timers_cancelled": "count",
    "engine.timer_waste_ratio": "ratio",
    "engine.peak_queue_depth": "count",
    "engine.self_s": "s",
    "engine.us_per_event": "us",
    "flow.recomputes": "count",
    "flow.solves": "count",
    "flow.solver_iterations": "count",
    "flow.solver_classes": "count",
    "flow.memo_hits": "count",
    "flow.memo_hit_ratio": "ratio",
    "flow.recomputes_coalesced": "count",
    "flow.coalesced_ratio": "ratio",
    "flow.components_skipped": "count",
    "flow.vector_batches": "count",
    "flow.solves_at_cap": "count",
    "flow.solve_self_s": "s",
    "flow.us_per_iteration": "us",
    "device.share_calls": "count",
    "device.share_s": "s",
    "runner.runs": "count",
    "runner.testbed_s": "s",
    "runner.validate_s": "s",
    "runner.self_s": "s",
    "obs.observe_s": "s",
    "obs.explain_s": "s",
    "obs.manifest_s": "s",
    "obs.hostmeter_peak_bytes": "bytes",
    "store.appends": "count",
    "store.append_s": "s",
    "queue.submits": "count",
    "queue.submit_s": "s",
    "queue.loads": "count",
    "queue.load_s": "s",
    "queue.transition_s": "s",
    "cache.gets": "count",
    "cache.hit_ratio": "ratio",
    "cache.get_s": "s",
    "cache.puts": "count",
    "cache.put_s": "s",
    "service.cell_id_s": "s",
    "pool.run_s": "s",
    "recommend.calls": "count",
    "recommend.s": "s",
    "recommend.feature_cache_hit_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
    "trace.seed_counter_mismatches": "count",
}


def summarize(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: call ``count``, inclusive ``total`` and ``self`` time.

    Parents always precede their children in *spans* (a span is appended
    when its call starts), and a child's duration is charged against its
    direct parent only.
    """
    child_time = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    summary: Dict[str, Dict[str, float]] = {}
    for index, (name, start, end, _parent) in enumerate(spans):
        entry = summary.setdefault(name, {"count": 0, "total": 0.0, "self": 0.0})
        entry["count"] += 1
        entry["total"] += end - start
        entry["self"] += end - start - child_time[index]
    return summary


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class Tracer:
    """Installs span wrappers around the layers and accumulates counters."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        self._stack: List[int] = []
        self._networks: List[Any] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------
    def reset(self) -> None:
        """Drop recorded spans and counters (wrappers stay installed)."""
        self.spans = []
        self.counters = {}
        self._stack = []
        self._networks = []

    def _add(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _wrap(
        self,
        fn: Callable,
        name: Optional[str],
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            token = before(args) if before is not None else None
            if name is None:
                result = fn(*args, **kwargs)
            else:
                spans, stack = tracer.spans, tracer._stack
                index = len(spans)
                spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
                stack.append(index)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    stack.pop()
                    spans[index][2] = clock()
            if after is not None:
                after(args, result, token)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_method(self, cls: type, attr: str, name: Optional[str], **hooks) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self._wrap(original, name, **hooks))
        self._undo.append((cls, attr, original))

    def wrap_function(self, module: str, attr: str, name: str, **hooks) -> None:
        """Wrap a module-level function everywhere it was imported by name."""
        original = getattr(importlib.import_module(module), attr)
        wrapper = self._wrap(original, name, **hooks)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "repro" and getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapper)
                self._undo.append((mod, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- the layers -----------------------------------------------------
    def install(self) -> None:
        """Wrap every layer's public entry points (idempotent per install)."""
        from repro.core.recommend import RecommendationEngine
        from repro.obs.hostmetrics import HostMeter
        from repro.obs.store import CampaignStore
        from repro.pmem.device import OptaneDeviceResource
        from repro.service.cache import ResultCache
        from repro.service.pool import WorkerPool
        from repro.service.queue import JobQueue
        from repro.service.scheduler import ServiceScheduler
        from repro.sim.engine import Engine
        from repro.sim.flow import DUTY_ITERATIONS, FlowNetwork

        # Importing these makes every later ``from x import f`` see the
        # wrapper too; the modules are already loaded by the workload.
        import repro.analysis.validate  # noqa: F401
        import repro.obs.capture  # noqa: F401
        import repro.obs.explain  # noqa: F401

        def network_created(args, _result, _token):
            self._networks.append(args[0])

        def engine_ran(args, _result, _token):
            engine = args[0]
            self._add("engine.events", engine.events_executed)
            self._add("engine.timers_scheduled", engine.timers_scheduled)
            self._add("engine.timers_cancelled", engine.timers_cancelled_skipped)
            self.counters["engine.peak_queue_depth"] = max(
                self.counters.get("engine.peak_queue_depth", 0),
                engine.peak_queue_depth,
            )
            for network in [n for n in self._networks if n.engine is engine]:
                self._networks.remove(network)
                self._add("flow.recomputes", network.recompute_count)
                self._add("flow.solver_iterations", network.solver_iterations)
                self._add("flow.solver_classes", network.solver_classes)
                self._add("flow.memo_hits", network.memo_hits)
                self._add("flow.recomputes_coalesced", network.recomputes_coalesced)
                self._add("flow.components_skipped", network.solver_components_skipped)
                self._add("flow.vector_batches", network.vector_batches)

        def solved(_args, result, _token):
            if result.iterations >= DUTY_ITERATIONS:
                self._add("flow.solves_at_cap")

        def metered(args, _result, _token):
            self.counters["obs.hostmeter_peak_bytes"] = max(
                self.counters.get("obs.hostmeter_peak_bytes", 0),
                args[0].peak_tracemalloc_bytes,
            )

        def cache_looked_up(_args, result, _token):
            self._add("cache.hits" if result is not None else "cache.misses")

        def features_before(args):
            return args[0].cache_info()["hits"]

        def features_after(args, _result, hits_before):
            hit = args[0].cache_info()["hits"] > hits_before
            self._add("recommend.feature_hits" if hit else "recommend.feature_misses")

        self.wrap_method(FlowNetwork, "__init__", None, after=network_created)
        self.wrap_method(Engine, "run", "engine.run", after=engine_ran)
        self.wrap_function("repro.sim.flow", "solve_flow_set", "flow.solve", after=solved)
        self.wrap_method(OptaneDeviceResource, "share", "device.share")
        self.wrap_function("repro.workflow.runner", "run_workflow", "runner.run_workflow")
        self.wrap_function("repro.platform.builder", "paper_testbed", "runner.testbed")
        self.wrap_function("repro.analysis.validate", "validate_run", "runner.validate")
        self.wrap_function("repro.obs.capture", "observe_workflow", "obs.observe")
        self.wrap_function("repro.obs.explain", "explain_observation", "obs.explain")
        self.wrap_function("repro.obs.manifest", "build_manifest", "obs.manifest")
        self.wrap_function("repro.obs.store", "cell_id_from_manifests", "obs.manifest")
        self.wrap_method(HostMeter, "__exit__", None, after=metered)
        self.wrap_method(CampaignStore, "append_cell", "store.append")
        self.wrap_method(JobQueue, "submit", "queue.submit")
        self.wrap_method(JobQueue, "load", "queue.load")
        for transition in ("claim", "mark_done", "mark_failed", "retry", "release"):
            self.wrap_method(JobQueue, transition, "queue.transition")
        self.wrap_method(ResultCache, "get", "cache.get", after=cache_looked_up)
        self.wrap_method(ResultCache, "put", "cache.put")
        self.wrap_function("repro.service.cache", "cell_id_for_spec", "service.cell_id")
        self.wrap_method(WorkerPool, "run", "pool.run")
        self.wrap_method(ServiceScheduler, "submit_suite", "service.submit_suite")
        self.wrap_method(ServiceScheduler, "run", "service.pass")
        self.wrap_method(RecommendationEngine, "recommend", "recommend")
        self.wrap_method(RecommendationEngine, "estimate_makespan", "recommend")
        self.wrap_method(
            RecommendationEngine,
            "features_of",
            None,
            before=features_before,
            after=features_after,
        )

    # -- results --------------------------------------------------------
    def deterministic_counters(self) -> Dict[str, float]:
        metrics = self.layer_metrics()
        return {name: metrics[name] for name in DETERMINISTIC_COUNTERS}

    def layer_metrics(self) -> Dict[str, float]:
        """Every per-layer metric except the ``trace.*`` ones."""
        spans = summarize(self.spans)
        c = self.counters

        def count(name: str) -> float:
            return spans.get(name, {}).get("count", 0)

        def total(name: str) -> float:
            return spans.get(name, {}).get("total", 0.0)

        def own(name: str) -> float:
            return spans.get(name, {}).get("self", 0.0)

        events = c.get("engine.events", 0)
        iterations = c.get("flow.solver_iterations", 0)
        solves = count("flow.solve")
        recomputes = c.get("flow.recomputes", 0)
        coalesced = c.get("flow.recomputes_coalesced", 0)
        feature_hits = c.get("recommend.feature_hits", 0)
        return {
            "engine.events": events,
            "engine.timers_scheduled": c.get("engine.timers_scheduled", 0),
            "engine.timers_cancelled": c.get("engine.timers_cancelled", 0),
            "engine.timer_waste_ratio": _ratio(
                c.get("engine.timers_cancelled", 0), c.get("engine.timers_scheduled", 0)
            ),
            "engine.peak_queue_depth": c.get("engine.peak_queue_depth", 0),
            "engine.self_s": own("engine.run"),
            "engine.us_per_event": _ratio(own("engine.run") * 1e6, events),
            "flow.recomputes": recomputes,
            "flow.solves": solves,
            "flow.solver_iterations": iterations,
            "flow.solver_classes": c.get("flow.solver_classes", 0),
            "flow.memo_hits": c.get("flow.memo_hits", 0),
            "flow.memo_hit_ratio": _ratio(c.get("flow.memo_hits", 0), solves),
            "flow.recomputes_coalesced": coalesced,
            "flow.coalesced_ratio": _ratio(coalesced, coalesced + recomputes),
            "flow.components_skipped": c.get("flow.components_skipped", 0),
            "flow.vector_batches": c.get("flow.vector_batches", 0),
            "flow.solves_at_cap": c.get("flow.solves_at_cap", 0),
            "flow.solve_self_s": own("flow.solve"),
            "flow.us_per_iteration": _ratio(own("flow.solve") * 1e6, iterations),
            "device.share_calls": count("device.share"),
            "device.share_s": total("device.share"),
            "runner.runs": count("runner.run_workflow"),
            "runner.testbed_s": total("runner.testbed"),
            "runner.validate_s": total("runner.validate"),
            "runner.self_s": own("runner.run_workflow"),
            "obs.observe_s": total("obs.observe"),
            "obs.explain_s": total("obs.explain"),
            "obs.manifest_s": total("obs.manifest"),
            "obs.hostmeter_peak_bytes": c.get("obs.hostmeter_peak_bytes", 0),
            "store.appends": count("store.append"),
            "store.append_s": total("store.append"),
            "queue.submits": count("queue.submit"),
            "queue.submit_s": total("queue.submit"),
            "queue.loads": count("queue.load"),
            "queue.load_s": total("queue.load"),
            "queue.transition_s": total("queue.transition"),
            "cache.gets": count("cache.get"),
            "cache.hit_ratio": _ratio(c.get("cache.hits", 0), count("cache.get")),
            "cache.get_s": total("cache.get"),
            "cache.puts": count("cache.put"),
            "cache.put_s": total("cache.put"),
            "service.cell_id_s": total("service.cell_id"),
            "pool.run_s": total("pool.run"),
            "recommend.calls": count("recommend"),
            "recommend.s": total("recommend"),
            "recommend.feature_cache_hit_ratio": _ratio(
                feature_hits, feature_hits + c.get("recommend.feature_misses", 0)
            ),
        }

    def write_chrome_trace(self, path: str, metadata: Dict[str, Any]) -> None:
        """Write the spans as a Chrome trace; ``args.request`` is the index
        of the outermost span, which all spans of one request share."""
        if not self.spans:
            origin = 0.0
        else:
            origin = self.spans[0][1]
        root: List[int] = []
        events = []
        for index, (name, start, end, parent) in enumerate(self.spans):
            root.append(index if parent < 0 else root[parent])
            events.append(
                {
                    "name": name,
                    "ph": "X",
                    "ts": round((start - origin) * 1e6, 3),
                    "dur": round((end - start) * 1e6, 3),
                    "pid": 0,
                    "tid": 0,
                    "args": {"span": index, "parent": parent, "request": root[index]},
                }
            )
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "metadata": metadata}, handle)
