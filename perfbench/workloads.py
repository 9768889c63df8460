"""The four benchmark workloads, each built from a paper experiment.

A workload turns the benchmark seed into inputs, sets up the system it
needs (timed as ``setup_s``), runs units of measured work (timed as
``wall_s``) and checks every simulated output against ``references.json``,
recorded with ``python3 perfbench/record.py``.  ``fig6_runaway`` and
``chaos_campaign`` call program functions that build their own cluster;
:class:`SetupBoundary` times that in-call set-up and takes it out of
``wall_s``.  Why each workload exists is in ``perfbench/README.md``.

Seeds: ``--seed n`` selects input set ``n mod INPUT_POOL`` for
``job_trace`` and ``chaos_campaign``, whose references are recorded per
input set, and seeds the query mix of ``examon_query`` directly (its
references are recorded per query of a fixed catalog).  ``fig6_runaway``
has no random input.  Each input set does the same amount of work, so
runs with different seeds measure the same thing.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

import repro.chaos.check
from repro.analysis.experiments import fig6_thermal_runaway
from repro.chaos.scenarios import SCENARIOS
from repro.cluster.cluster import MonteCimoneCluster
from repro.events.engine import Engine
from repro.examon.deployment import ExamonDeployment
from repro.power.model import HPL_PROFILE
from repro.slurm.api import SlurmAPI
from repro.slurm.trace import TraceEntry, generate_trace, replay_trace
from repro.thermal.enclosure import EnclosureConfig

from perfbench.hostspeed import clock
from perfbench.layers import Patches, instances_of

REFERENCES = Path(__file__).with_name("references.json")

#: Input sets with recorded references; a seed selects ``seed % INPUT_POOL``.
INPUT_POOL = 64
#: Never used while tuning a change: quote a claimed gain on it as well.
HELD_OUT_SEED = 63

#: job_trace: a fixed job list (``generate_trace`` at this seed) whose
#: arrival times the benchmark seed jitters, one arrival per slot of
#: ``horizon / TRACE_JOBS``, offered at TRACE_LOAD of the cluster.
TRACE_JOBS = 10
TRACE_MIX_SEED = 2022
TRACE_LOAD = 0.6
CLUSTER_NODES = 8

#: examon_query: simulated seconds of 8-node HPL that populate ExaMon.
POPULATE_S = 600.0
CATALOG_SEED = 2022
#: Catalog size and per-batch draw of each query kind.  A batch takes
#: every costly query (topic scans, dashboards), so its cost does not
#: depend on the seed, and samples the cheap ones.
QUERY_KINDS = {
    "query": (600, 150),
    "aggregate": (400, 100),
    "latest": (480, 100),
    "topics": (20, 20),
    "heatmap": (30, 30),
    "peak": (20, 20),
}

#: chaos_campaign: chaos seeds per input set, each run in every scenario.
CHAOS_SEEDS = 2


@dataclass
class UnitResult:
    """One unit of measured work."""

    wall_s: float
    work: Dict[str, float]
    attempted: int
    failed: int
    #: Set-up done inside the unit's program calls; not in ``wall_s``.
    setup_s: float = 0.0
    #: Per-query host seconds, for workloads that issue queries.
    latencies_s: List[float] = field(default_factory=list)


def digest(obj: Any) -> str:
    """Short exact fingerprint of a JSON-able output (floats by repr)."""
    text = json.dumps(obj, sort_keys=True, allow_nan=False)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def canonical(obj: Any) -> Any:
    """``obj`` as it reads back from references.json (tuples -> lists)."""
    return json.loads(json.dumps(obj, allow_nan=False))


def load_references() -> Dict[str, Any]:
    with REFERENCES.open() as handle:
        return json.load(handle)


def timed(fn: Callable[[], Any]) -> Tuple[Any, float]:
    start = clock()
    result = fn()
    return result, clock() - start


class SetupDone(BaseException):
    """Stops a program call where its set-up ends (not an ``Exception``,
    so no handler inside the program swallows it)."""


class SetupBoundary:
    """Splits a program call into the set-up it does itself and the rest.

    The set-up is everything the call does before it first enters
    ``owner.name``.  Both halves are the program's own code, timed inside
    the real call; with ``setup_only`` the call is stopped at the
    boundary, so the set-up can be timed many times without the rest.
    """

    def __init__(self, owner: type, name: str) -> None:
        self.owner = owner
        self.name = name

    def call(self, fn: Callable[..., Any], *args: Any,
             setup_only: bool = False) -> Tuple[Any, float, float]:
        """``fn(*args)`` -> (result, set-up seconds, seconds after it)."""
        original = vars(self.owner)[self.name]
        reached: List[float] = []

        def at_boundary(*inner: Any, **kwargs: Any) -> Any:
            if not reached:
                reached.append(clock())
                if setup_only:
                    raise SetupDone
            return original(*inner, **kwargs)

        patches = Patches()
        patches.set(self.owner, self.name, at_boundary)
        start = clock()
        try:
            result = fn(*args)
        except SetupDone:
            result = None
        finally:
            end = clock()
            patches.undo()
        if not reached:
            raise RuntimeError(f"{fn.__name__} never entered "
                               f"{self.owner.__name__}.{self.name}")
        return result, reached[0] - start, end - reached[0]


class Workload:
    """Interface: ``setup`` -> (state, seconds), ``run(state)`` -> unit."""

    name = ""
    #: Set-ups timed before each unit (``setup_s`` is their median).
    setup_reps = 25
    #: Whether ``run`` builds its own system, so ``setup`` only times it.
    setup_in_call = False
    #: Units in one traced run (counts are per traced run).
    trace_units = 1

    def setup(self) -> Tuple[Any, float]:
        """Build what ``run`` needs: (state, host seconds of the set-up)."""
        raise NotImplementedError

    def check_setup(self, state: Any) -> Tuple[int, int]:
        """(attempted, failed) checks of a set-up's outputs."""
        return 0, 0

    def run(self, state: Any) -> UnitResult:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# fig6_runaway
# ---------------------------------------------------------------------------
def fig6_outputs(result: Any) -> Any:
    return canonical(dataclasses.asdict(result))


class Fig6Runaway(Workload):
    """Fig. 6: lids on, HPL on 8 nodes until node 7 trips, then the retry.

    Its set-up is the cluster build, boot and ExaMon start that
    ``fig6_thermal_runaway`` does before its first ``SlurmAPI.srun``.
    """

    name = "fig6_runaway"
    setup_reps = 50
    setup_in_call = True
    boundary = SetupBoundary(SlurmAPI, "srun")

    def __init__(self, seed: int, references: Dict[str, Any]) -> None:
        self.reference = references[self.name]

    def setup(self) -> Tuple[None, float]:
        _, setup_s, _ = self.boundary.call(fig6_thermal_runaway,
                                           setup_only=True)
        return None, setup_s

    def run(self, state: Any) -> UnitResult:
        with instances_of(Engine) as engines:
            result, setup_s, wall_s = self.boundary.call(fig6_thermal_runaway)
        failed = int(fig6_outputs(result) != self.reference)
        return UnitResult(wall_s, {"sim_s": engines[0].now}, 1, failed,
                          setup_s)


# ---------------------------------------------------------------------------
# job_trace
# ---------------------------------------------------------------------------
def job_trace_input(index: int) -> List[TraceEntry]:
    """Input set ``index``: the fixed job list with seeded arrival jitter."""
    jobs = generate_trace(TRACE_JOBS, 3600.0, seed=TRACE_MIX_SEED)
    work = sum(job.n_nodes * job.duration_s for job in jobs)
    horizon = work / (CLUSTER_NODES * TRACE_LOAD)
    rng = np.random.default_rng(index)
    slots = (np.arange(TRACE_JOBS) + rng.uniform(0.0, 1.0, TRACE_JOBS)) \
        * horizon / TRACE_JOBS
    return [dataclasses.replace(job, submit_time_s=float(t))
            for job, t in zip(jobs, slots)]


def mitigated_cluster() -> MonteCimoneCluster:
    cluster = MonteCimoneCluster(enclosure_config=EnclosureConfig.mitigated())
    cluster.boot_all()
    return cluster


class JobTrace(Workload):
    """A seeded job stream replayed on the mitigated cluster, no ExaMon."""

    name = "job_trace"

    def __init__(self, seed: int, references: Dict[str, Any]) -> None:
        index = seed % INPUT_POOL
        self.trace = job_trace_input(index)
        self.reference = references[self.name][str(index)]

    def setup(self) -> Tuple[MonteCimoneCluster, float]:
        return timed(mitigated_cluster)

    def run(self, cluster: MonteCimoneCluster) -> UnitResult:
        start = clock()
        report = replay_trace(cluster.slurm, self.trace)
        wall_s = clock() - start
        failed = int(canonical(dataclasses.asdict(report)) != self.reference)
        return UnitResult(wall_s, {"node_s": report.node_seconds_available},
                          1, failed)


# ---------------------------------------------------------------------------
# examon_query
# ---------------------------------------------------------------------------
@dataclass
class Populated:
    deployment: ExamonDeployment
    start_s: float
    end_s: float


def populate() -> Populated:
    """Fig. 5's set-up: ExaMon monitoring 8-node HPL for POPULATE_S."""
    cluster = mitigated_cluster()
    deployment = ExamonDeployment(cluster)
    deployment.start()
    start_s = cluster.engine.now
    SlurmAPI(cluster.slurm).srun("hpl", "bench", 8, duration_s=POPULATE_S,
                                 profile=HPL_PROFILE)
    return Populated(deployment, start_s, cluster.engine.now)


def store_digest(populated: Populated) -> str:
    """Fingerprint of every stored point, read back through the REST API."""
    rest = populated.deployment.rest
    return digest({topic: rest.get("/api/query", {"topic": topic})
                   for topic in rest.get("/api/topics")})


def query_catalog(populated: Populated) -> Dict[str, List[Any]]:
    """The fixed catalog every query batch draws from."""
    rng = np.random.default_rng(CATALOG_SEED)
    topics = populated.deployment.db.topics()
    start, end = populated.start_s, populated.end_s

    def window(lengths: Tuple[float, ...]) -> Tuple[float, float]:
        begin = float(rng.uniform(start, end))
        return begin, begin + float(rng.choice(lengths))

    def topic() -> str:
        return topics[int(rng.integers(len(topics)))]

    def pattern() -> str:
        parts = topic().split("/")
        cut = int(rng.integers(1, len(parts)))
        if rng.random() < 0.5:
            return "/".join(parts[:cut]) + "/#"
        parts[cut] = "+"
        return "/".join(parts)

    catalog: Dict[str, List[Any]] = {"query": [], "aggregate": [],
                                     "latest": [], "topics": [],
                                     "heatmap": [], "peak": []}
    for _ in range(QUERY_KINDS["query"][0]):
        begin, finish = window((10.0, 60.0, 300.0, 600.0))
        catalog["query"].append({"topic": topic(), "start": begin,
                                 "end": finish})
    for _ in range(QUERY_KINDS["aggregate"][0]):
        begin, finish = window((60.0, 300.0, 600.0))
        catalog["aggregate"].append({
            "topic": topic(), "start": begin, "end": finish,
            "window": float(rng.choice((5.0, 10.0, 30.0))),
            "how": str(rng.choice(("mean", "max", "min", "sum", "last")))})
    catalog["latest"] = [{"topic": name} for name in topics]
    catalog["topics"] = [{"pattern": pattern()}
                         for _ in range(QUERY_KINDS["topics"][0])]
    for _ in range(QUERY_KINDS["heatmap"][0]):
        begin, finish = window((120.0, 300.0, 600.0))
        catalog["heatmap"].append({
            "metric": str(rng.choice(("instructions", "network", "memory"))),
            "start": begin, "end": finish,
            "window": float(rng.choice((10.0, 20.0, 30.0)))})
    for _ in range(QUERY_KINDS["peak"][0]):
        begin, finish = window((120.0, 300.0, 600.0))
        catalog["peak"].append({"start": begin, "end": finish})
    return catalog


def execute(populated: Populated, kind: str, params: Dict[str, Any]) -> Any:
    """Issue one catalog query."""
    deployment = populated.deployment
    if kind in ("query", "aggregate", "latest", "topics"):
        return deployment.rest.get(f"/api/{kind}", params)
    dashboard = deployment.dashboard
    if kind == "heatmap":
        return getattr(dashboard, f"{params['metric']}_heatmap")(
            params["start"], params["end"], params["window"])
    return dashboard.peak_temperatures(params["start"], params["end"])


def query_digest(kind: str, result: Any) -> str:
    if kind == "heatmap":
        result = dataclasses.asdict(result)
    return digest(result)


def query_batch(seed: int) -> List[Tuple[str, int]]:
    """The seeded batch: a fixed count of each kind, shuffled."""
    rng = np.random.default_rng(seed)
    batch = [(kind, int(index))
             for kind, (size, draw) in QUERY_KINDS.items()
             for index in rng.choice(size, draw, replace=False)]
    return [batch[i] for i in rng.permutation(len(batch))]


class ExamonQuery(Workload):
    """A closed loop of one client querying a populated ExaMon."""

    name = "examon_query"
    setup_reps = 1
    trace_units = 10

    def __init__(self, seed: int, references: Dict[str, Any]) -> None:
        self.reference = references[self.name]
        self.batch = query_batch(seed)
        self.catalog: Dict[str, List[Any]] = {}

    def setup(self) -> Tuple[Populated, float]:
        return timed(populate)

    def check_setup(self, populated: Populated) -> Tuple[int, int]:
        """Check the stored points; the first check also builds the catalog."""
        if not self.catalog:
            self.catalog = query_catalog(populated)
        return 1, int(store_digest(populated) != self.reference["store"])

    def run(self, populated: Populated) -> UnitResult:
        expected = self.reference["catalog"]
        latencies, failed = [], 0
        for kind, index in self.batch:
            start = clock()
            result = execute(populated, kind, self.catalog[kind][index])
            latencies.append(clock() - start)
            failed += query_digest(kind, result) != expected[kind][index]
        return UnitResult(sum(latencies), {"queries": len(self.batch)},
                          len(self.batch), failed, latencies_s=latencies)


# ---------------------------------------------------------------------------
# chaos_campaign
# ---------------------------------------------------------------------------
def chaos_seeds(index: int) -> range:
    return range(index * CHAOS_SEEDS, (index + 1) * CHAOS_SEEDS)


def chaos_outputs(result: Any, problems: List[str]) -> Dict[str, Any]:
    return {"log": digest(result.log.dumps()), "problems": problems}


class ChaosCampaign(Workload):
    """All five chaos scenarios over a seeded range of chaos seeds.

    A scenario's set-up is all it builds before its engine first runs;
    the unit's set-up is that of its scenario runs together.
    """

    name = "chaos_campaign"
    setup_reps = 5
    setup_in_call = True
    boundary = SetupBoundary(Engine, "run")

    def __init__(self, seed: int, references: Dict[str, Any]) -> None:
        self.seeds = chaos_seeds(seed % INPUT_POOL)
        self.reference = references[self.name]

    def setup(self) -> Tuple[None, float]:
        return None, sum(self.boundary.call(scenario, chaos_seed,
                                            setup_only=True)[1]
                         for scenario in SCENARIOS.values()
                         for chaos_seed in self.seeds)

    def run(self, state: Any) -> UnitResult:
        setup_s, wall_s, failed, sim_s = 0.0, 0.0, 0, 0.0
        for name, scenario in SCENARIOS.items():
            for chaos_seed in self.seeds:
                result, in_call_setup_s, run_s = self.boundary.call(
                    scenario, chaos_seed)
                start = clock()
                problems = repro.chaos.check.run_checks(result)
                setup_s += in_call_setup_s
                wall_s += run_s + clock() - start
                sim_s += result.engine.now
                failed += (chaos_outputs(result, problems)
                           != self.reference[name][str(chaos_seed)])
        runs = len(SCENARIOS) * len(self.seeds)
        return UnitResult(wall_s, {"scenario_runs": runs, "sim_s": sim_s},
                          runs, failed, setup_s)


WORKLOADS = {cls.name: cls for cls in (Fig6Runaway, JobTrace, ExamonQuery,
                                       ChaosCampaign)}
