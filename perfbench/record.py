"""Record the simulated outputs every benchmark run is checked against.

    python3 perfbench/record.py

Writes ``perfbench/references.json``: the Fig. 6 result, the TraceReport
of each job_trace input set, the populated ExaMon store and a digest of
every catalog query, and each chaos scenario's log digest and invariant
result for every chaos seed of every input set.  Re-record only when a
change is meant to alter simulated outputs, and say so in CHANGES.md.
Takes several minutes.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import repro.chaos.check  # noqa: E402
from repro.analysis.experiments import fig6_thermal_runaway  # noqa: E402
from repro.chaos.scenarios import SCENARIOS  # noqa: E402
from repro.slurm.trace import replay_trace  # noqa: E402

from perfbench import workloads as w  # noqa: E402


def record_fig6() -> object:
    return w.fig6_outputs(fig6_thermal_runaway())


def record_job_trace() -> object:
    out = {}
    for index in range(w.INPUT_POOL):
        report = replay_trace(w.mitigated_cluster().slurm,
                              w.job_trace_input(index))
        out[str(index)] = w.canonical(dataclasses.asdict(report))
    return out


def record_examon_query() -> object:
    populated = w.populate()
    catalog = w.query_catalog(populated)
    return {
        "store": w.store_digest(populated),
        "catalog": {kind: [w.query_digest(kind, w.execute(populated, kind,
                                                          params))
                           for params in entries]
                    for kind, entries in catalog.items()},
    }


def record_chaos_campaign() -> object:
    out = {}
    for name, scenario in SCENARIOS.items():
        out[name] = {}
        for chaos_seed in range(w.INPUT_POOL * w.CHAOS_SEEDS):
            result = scenario(chaos_seed)
            problems = repro.chaos.check.run_checks(result)
            out[name][str(chaos_seed)] = w.chaos_outputs(result, problems)
    return out


RECORDERS = {"fig6_runaway": record_fig6, "job_trace": record_job_trace,
             "examon_query": record_examon_query,
             "chaos_campaign": record_chaos_campaign}


def main() -> int:
    references = {}
    for name, recorder in RECORDERS.items():
        print(f"recording {name}", flush=True)
        references[name] = recorder()
    w.REFERENCES.write_text(json.dumps(references, sort_keys=True,
                                       allow_nan=False) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
