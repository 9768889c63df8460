"""Layer-attributed tracing of ``repro`` from outside the program.

:class:`LayerTracer` wraps the public functions of each layer (the table
:data:`TARGETS`) and keeps, per layer, aggregated counters and self time.
No object is stored per call: a wrapped call pushes one frame on a call
stack, and on return adds its duration minus the time of its wrapped
children to its layer's self time.  Self time that no layer claims is
reported as ``unattributed``.

Events are counted through a duck-typed ``Engine.tracer``
(:class:`EventCounter`) installed on every engine; engines that already
carry a ``repro.obs`` tracer (the chaos scenarios attach one) keep it, and
the counter forwards every hook to it.

Nothing under ``src/`` is changed; :meth:`LayerTracer.uninstall` puts
every original function back.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Tuple

from repro.obs.trace import NULL_SPAN

#: layer -> [(module, "Class.method" or "function")].  Chaos injector
#: subclasses that override ``inject``/``restore`` are added at install.
TARGETS: Dict[str, List[Tuple[str, str]]] = {
    "events": [("repro.events.engine", "Engine.run"),
               ("repro.events.engine", "Engine.run_until_complete"),
               ("repro.events.engine", "Engine.step")],
    "cluster": [("repro.cluster.node", "ComputeNode.advance"),
                ("repro.cluster.node", "ComputeNode.sync_to"),
                ("repro.cluster.cluster", "MonteCimoneCluster.boot_all")],
    "hardware": [("repro.hardware.cores", "U74Core.advance"),
                 ("repro.hardware.cores", "U74Core.idle"),
                 ("repro.hardware.hpm", "PerfEventsInterface.read"),
                 ("repro.hardware.rails", "RailSet.set_powers")],
    "power": [("repro.power.model", "RailPowerModel.rail_powers_w"),
              ("repro.power.traces", "activity_modulation")],
    "thermal": [("repro.thermal.model", "NodeThermalModel.step"),
                ("repro.thermal.runaway", "ThermalWatchdog.observe")],
    "slurm": [("repro.slurm.scheduler", "SlurmController.submit"),
              ("repro.slurm.scheduler", "SlurmController.schedule_pass"),
              ("repro.slurm.scheduler", "SlurmController.node_failed")],
    "network": [("repro.network.mpi", f"MPICostModel.{name}")
                for name in ("point_to_point", "broadcast", "allreduce",
                             "ring_exchange", "scatter")]
               + [("repro.network.mpi", "run_collective_with_retry"),
                  ("repro.network.link", "Link.transfer_time")],
    "examon.plugins": [
        ("repro.examon.plugins.base", "SamplingPlugin.sample_and_publish"),
        ("repro.examon.plugins.pmu_pub", "PmuPubPlugin.sample"),
        ("repro.examon.plugins.stats_pub", "StatsPubPlugin.sample")],
    "examon.payload": [("repro.examon.payload", "encode_payload"),
                       ("repro.examon.payload", "decode_payload")],
    "examon.broker": [("repro.examon.broker", "MQTTBroker.publish")],
    "examon.tsdb": [("repro.examon.tsdb", f"TimeSeriesDB.{name}")
                    for name in ("ingest", "insert", "query", "aggregate",
                                 "rate", "latest", "topics")],
    "examon.query": [("repro.examon.rest", "ExamonRestAPI.get")]
                    + [("repro.examon.dashboard", f"Dashboard.{name}")
                       for name in ("instructions_heatmap", "network_heatmap",
                                    "memory_heatmap", "peak_temperatures")],
    "chaos": [("repro.chaos.check", "run_checks")],
}

LAYERS = tuple(TARGETS)

#: Classes whose instances are collected while tracing, to read the
#: counters the program already keeps (cache hits, backfills, trips...).
_REGISTERED = (("repro.examon.broker", "MQTTBroker"),
               ("repro.examon.tsdb", "TimeSeriesDB"),
               ("repro.examon.plugins.base", "SamplingPlugin"),
               ("repro.thermal.runaway", "ThermalWatchdog"))

_TSDB_READS = ("query", "aggregate", "rate", "latest", "topics")


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    _ABSENT = object()

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, vars(owner).get(name, self._ABSENT)))
        setattr(owner, name, value)

    def undo(self) -> None:
        while self._undo:
            owner, name, old = self._undo.pop()
            if old is self._ABSENT:
                delattr(owner, name)
            else:
                setattr(owner, name, old)


def after_init(patches: Patches, cls: type, hook: Callable[[Any], Any]) -> None:
    """Call ``hook(obj)`` on every new ``cls`` once its ``__init__`` returns."""
    init = cls.__init__

    def hooked_init(obj: Any, *args: Any, **kwargs: Any) -> None:
        init(obj, *args, **kwargs)
        hook(obj)

    patches.set(cls, "__init__", hooked_init)


def rebind(patches: Patches, name: str, original: Any, replacement: Any) -> None:
    """Replace a function at every ``repro`` module that holds it as ``name``.

    ``from x import f`` copies ``f`` into the importing module, so patching
    the defining module alone would miss those call sites.
    """
    for module_name, module in sorted(sys.modules.items()):
        if ((module_name == "repro" or module_name.startswith("repro."))
                and vars(module).get(name) is original):
            patches.set(module, name, replacement)


@contextmanager
def instances_of(cls: type) -> Iterator[List[Any]]:
    """Collect the instances of ``cls`` constructed inside the block."""
    made: List[Any] = []
    patches = Patches()
    after_init(patches, cls, made.append)
    try:
        yield made
    finally:
        patches.undo()


class EventCounter:
    """Duck-typed ``Engine.tracer`` that counts processed events.

    ``inner`` is the engine's own ``repro.obs`` tracer, if it has one;
    every hook is forwarded to it, so the program behaves as untraced.
    """

    def __init__(self, owner: "LayerTracer", inner: Any = None) -> None:
        self._owner = owner
        self.inner = inner

    def on_event_processed(self) -> None:
        self._owner.events_processed += 1
        if self.inner is not None:
            self.inner.on_event_processed()

    def on_event_scheduled(self, queue_depth: int) -> None:
        if self.inner is not None:
            self.inner.on_event_scheduled(queue_depth)

    def on_failure_ledgered(self) -> None:
        if self.inner is not None:
            self.inner.on_failure_ledgered()

    def on_failure_defused(self) -> None:
        if self.inner is not None:
            self.inner.on_failure_defused()

    def on_process_spawn(self, process: Any) -> None:
        if self.inner is not None:
            self.inner.on_process_spawn(process)

    def on_process_resume(self, process: Any) -> None:
        if self.inner is not None:
            self.inner.on_process_resume(process)

    def on_process_suspend(self, process: Any, finished: bool) -> None:
        if self.inner is not None:
            self.inner.on_process_suspend(process, finished)

    def begin(self, *args: Any, **kwargs: Any) -> Any:
        if self.inner is not None:
            return self.inner.begin(*args, **kwargs)
        return NULL_SPAN

    def record(self, *args: Any, **kwargs: Any) -> Any:
        if self.inner is not None:
            return self.inner.record(*args, **kwargs)
        return NULL_SPAN


class LayerTracer:
    """Per-layer call counts and self time for one traced run."""

    def __init__(self) -> None:
        self.events_processed = 0
        #: key ("Class.method") -> [calls, entries, raises].  An entry is a
        #: call not made from inside the same layer.
        self.stats: Dict[str, List[int]] = defaultdict(lambda: [0, 0, 0])
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.tally: Dict[str, float] = defaultdict(float)
        self.instances: Dict[str, List[Any]] = defaultdict(list)
        #: Host seconds of each ``examon.query`` call made from outside it.
        self.query_latencies_s: List[float] = []
        self._stack: List[List[Any]] = [["unattributed", 0.0]]
        self._patches = Patches()

    # -- install / uninstall --------------------------------------------------
    def install(self) -> None:
        """Wrap every target until :meth:`uninstall`."""
        importlib.import_module("repro.chaos.scenarios")
        importlib.import_module("repro.analysis.experiments")
        targets = {layer: list(entries) for layer, entries in TARGETS.items()}
        injectors = importlib.import_module("repro.chaos.injectors")
        for cls_name, cls in sorted(vars(injectors).items()):
            if (inspect.isclass(cls) and issubclass(cls, injectors.FaultInjector)
                    and cls.__module__ == injectors.__name__):
                targets["chaos"] += [(injectors.__name__, f"{cls_name}.{name}")
                                     for name in ("inject", "restore")
                                     if name in vars(cls)]
        for layer, entries in targets.items():
            for module_name, qualname in entries:
                self._wrap(layer, module_name, qualname)
        for module_name, cls_name in _REGISTERED:
            cls = getattr(importlib.import_module(module_name), cls_name)
            after_init(self._patches, cls, self.instances[cls_name].append)
        self._install_event_counter()

    def uninstall(self) -> None:
        self._patches.undo()

    def _wrap(self, layer: str, module_name: str, qualname: str) -> None:
        module = importlib.import_module(module_name)
        if "." in qualname:
            cls_name, name = qualname.split(".")
            owner = getattr(module, cls_name)
            original = vars(owner)[name]
            self._patches.set(owner, name, self._wrapper(layer, qualname,
                                                         original))
            return
        original = getattr(module, qualname)
        rebind(self._patches, qualname, original,
               self._wrapper(layer, qualname, original))

    def _wrapper(self, layer: str, key: str, fn: Callable) -> Callable:
        stat = self.stats[key]
        on_result = _RESULT_HOOKS.get(key)
        tally = self.tally
        if inspect.isgeneratorfunction(fn):
            # A generator's body runs inside the engine's resumptions, so
            # only its calls (and results) are counted, not timed.
            def generator_wrapper(*args: Any, **kwargs: Any) -> Any:
                stat[0] += 1
                stat[1] += 1
                result = yield from fn(*args, **kwargs)
                if on_result is not None:
                    on_result(tally, result, True)
                return result
            return generator_wrapper

        stack = self._stack
        self_s = self.self_s
        latencies = (self.query_latencies_s if layer == "examon.query"
                     else None)

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1]
            entry = parent[0] != layer
            stat[0] += 1
            if entry:
                stat[1] += 1
            frame = [layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat[2] += 1
                raise
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self_s[layer] += elapsed - frame[1]
                parent[1] += elapsed
                if entry and latencies is not None:
                    latencies.append(elapsed)
            if on_result is not None:
                on_result(tally, result, entry)
            return result
        return wrapper

    def _install_event_counter(self) -> None:
        """Count events on every engine, keeping any ``repro.obs`` tracer."""
        engine_cls = importlib.import_module("repro.events.engine").Engine
        after_init(self._patches, engine_cls,
                   lambda engine: setattr(engine, "tracer", EventCounter(self)))
        attach = importlib.import_module("repro.obs.instrument").attach_tracer

        def attach_tracer(engine: Any, *args: Any, **kwargs: Any) -> Any:
            real = attach(engine, *args, **kwargs)
            engine.tracer = EventCounter(self, inner=real)
            return real

        rebind(self._patches, "attach_tracer", attach, attach_tracer)

    # -- metrics ----------------------------------------------------------------
    def calls(self, *keys: str) -> int:
        return sum(self.stats[key][0] for key in keys)

    def entries(self, *keys: str) -> int:
        return sum(self.stats[key][1] for key in keys)

    def raises(self, *keys: str) -> int:
        return sum(self.stats[key][2] for key in keys)

    def metrics(self, traced_wall_s: float,
                untraced_wall_s: float) -> Dict[str, Tuple[float, str]]:
        """Every per-layer metric as ``name -> (value, unit)``."""
        attributed = sum(self.self_s.values())
        unattributed = traced_wall_s - attributed

        def share(layer: str) -> float:
            return self.self_s[layer] / traced_wall_s

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        inst = self.instances
        brokers, dbs = inst["MQTTBroker"], inst["TimeSeriesDB"]
        plugins = inst["SamplingPlugin"]
        fast = sum(db.fast_appends for db in dbs)
        slow = sum(db.sorted_inserts for db in dbs)
        events = self.events_processed
        m: Dict[str, Tuple[float, str]] = {
            "events.processed": (events, "count"),
            "events.host_us_per_event": (
                ratio(untraced_wall_s * 1e6, events), "us"),
            "cluster.node_advances": (self.calls("ComputeNode.advance"),
                                      "count"),
            "hardware.core_advances": (
                self.calls("U74Core.advance", "U74Core.idle"), "count"),
            "hardware.hpm_reads": (self.calls("PerfEventsInterface.read"),
                                   "count"),
            "hardware.rail_updates": (self.calls("RailSet.set_powers"),
                                      "count"),
            "power.calls": (self.calls("RailPowerModel.rail_powers_w",
                                       "activity_modulation"), "count"),
            "thermal.steps": (self.calls("NodeThermalModel.step"), "count"),
            "thermal.trips": (sum(e.kind == "trip" for w in
                                  inst["ThermalWatchdog"] for e in w.events),
                              "count"),
            "slurm.submits": (self.calls("SlurmController.submit"), "count"),
            "slurm.schedule_passes": (
                self.calls("SlurmController.schedule_pass"), "count"),
            "network.collectives": (self.entries(*(
                f"MPICostModel.{n}" for n in ("point_to_point", "broadcast",
                                              "allreduce", "ring_exchange",
                                              "scatter"))), "count"),
            "network.retries": (self.tally["network.retries"], "count"),
            "network.transfers_refused": (self.raises("Link.transfer_time"),
                                          "count"),
            "examon.plugins.instants": (
                self.calls("SamplingPlugin.sample_and_publish"), "count"),
            "examon.plugins.metrics_sampled": (
                self.tally["plugins.metrics_sampled"], "count"),
            "examon.plugins.delivered_ratio": (ratio(
                self.tally["plugins.delivered"],
                self.tally["plugins.metrics_sampled"]), "ratio"),
            "examon.plugins.backfilled": (
                sum(p.samples_backfilled for p in plugins), "count"),
            "examon.plugins.dropped": (
                sum(p.samples_dropped for p in plugins), "count"),
            "examon.payload.encodes": (self.calls("encode_payload"), "count"),
            "examon.payload.decodes": (self.calls("decode_payload"), "count"),
            "examon.payload.decode_errors": (self.raises("decode_payload"),
                                             "count"),
            "examon.broker.publishes": (self.calls("MQTTBroker.publish"),
                                        "count"),
            "examon.broker.deliveries": (self.tally["broker.deliveries"],
                                         "count"),
            "examon.broker.rejects": (self.raises("MQTTBroker.publish"),
                                      "count"),
            "examon.broker.match_cache_hit_ratio": (ratio(
                sum(b.match_cache_hits for b in brokers),
                sum(b.messages_published for b in brokers)), "ratio"),
            "examon.tsdb.inserts": (self.calls("TimeSeriesDB.insert"),
                                    "count"),
            "examon.tsdb.fast_append_ratio": (ratio(fast, fast + slow),
                                              "ratio"),
            "examon.tsdb.sorted_inserts": (slow, "count"),
            "examon.tsdb.queries": (self.entries(*(
                f"TimeSeriesDB.{n}" for n in _TSDB_READS)), "count"),
            "examon.tsdb.points_returned": (
                self.tally["tsdb.points_returned"], "count"),
            "examon.query.requests": (self.entries(
                *(key for key in self.stats
                  if key.startswith(("ExamonRestAPI.", "Dashboard.")))),
                "count"),
            "chaos.faults": (self.entries(*(
                key for key in self.stats if key.endswith(".inject"))),
                "count"),
            "chaos.recoveries": (self.entries(*(
                key for key in self.stats if key.endswith(".restore"))),
                "count"),
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = (self.self_s[layer], "s")
            m[f"{layer}.self_share"] = (share(layer), "ratio")
        m["unattributed.self_share"] = (unattributed / traced_wall_s, "ratio")
        m["tracing.traced_wall_s"] = (traced_wall_s, "s")
        m["tracing.untraced_wall_s"] = (untraced_wall_s, "s")
        m["tracing.overhead_s"] = (traced_wall_s - untraced_wall_s, "s")
        return m


def _count_len(name: str, entries_only: bool = False) -> Callable:
    def hook(tally: Dict[str, float], result: Any, entry: bool) -> None:
        if entry or not entries_only:
            tally[name] += len(result)
    return hook


def _add(name: str) -> Callable:
    def hook(tally: Dict[str, float], result: Any, _entry: bool) -> None:
        tally[name] += result
    return hook


def _latest(tally: Dict[str, float], result: Any, entry: bool) -> None:
    if entry and result is not None:
        tally["tsdb.points_returned"] += 1


def _retries(tally: Dict[str, float], result: Any, _entry: bool) -> None:
    tally["network.retries"] += result["retries"]


#: Counters read from a wrapped call's return value.
_RESULT_HOOKS: Dict[str, Callable] = {
    "PmuPubPlugin.sample": _count_len("plugins.metrics_sampled"),
    "StatsPubPlugin.sample": _count_len("plugins.metrics_sampled"),
    "SamplingPlugin.sample_and_publish": _add("plugins.delivered"),
    "MQTTBroker.publish": _add("broker.deliveries"),
    "TimeSeriesDB.query": _count_len("tsdb.points_returned", True),
    "TimeSeriesDB.aggregate": _count_len("tsdb.points_returned", True),
    "TimeSeriesDB.rate": _count_len("tsdb.points_returned", True),
    "TimeSeriesDB.latest": _latest,
    "run_collective_with_retry": _retries,
}
