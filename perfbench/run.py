"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fig6_runaway --seed 0 --seconds 45 --trace 0

With ``--trace 0`` it times the workload untraced and prints the
end-to-end metrics (``wall_s``, ``setup_s``, ``peak_rss_mb``), each time
the median of the run's repetitions, scaled to the reference host speed
(see ``hostspeed.py``).  With ``--trace 1`` it adds one run traced
layer by layer and prints the per-layer metrics.  Every simulated output is checked against
``references.json``; the last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Run it from the
root of a checkout: it imports ``repro`` from ``src/`` there.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.hostspeed import SpeedSampler  # noqa: E402
from perfbench.layers import LayerTracer  # noqa: E402
from perfbench.workloads import (WORKLOADS, UnitResult, Workload,  # noqa: E402
                                 load_references)


class Tally:
    """Checked outputs of one benchmark run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


def timed_setup(workload: Workload, tally: Tally) -> Tuple[Any, float]:
    gc.collect()
    state, elapsed = workload.setup()
    tally.add(*workload.check_setup(state))
    return state, elapsed


@dataclass
class Measured:
    """One untraced run: its units and times scaled to reference speed."""

    units: List[UnitResult] = field(default_factory=list)
    walls: List[float] = field(default_factory=list)
    setups: List[float] = field(default_factory=list)
    #: Host speed scale of each unit and the set-ups before it.
    scales: List[float] = field(default_factory=list)


def measure(workload: Workload, seconds: float, tally: Tally) -> Measured:
    """Run units for ``seconds``, each after ``setup_reps`` timed set-ups.

    The unit runs on the last set-up.  Spreading the set-ups over the run
    exposes them to the same phases of host load as the units.  The host
    speed sampled meanwhile scales the set-ups' and the unit's times.
    """
    run = Measured()
    start = perf_counter()
    while not run.units or perf_counter() - start < seconds:
        setups = []
        with SpeedSampler() as speed:
            for _ in range(workload.setup_reps):
                state = None  # free the previous set-up before the next
                state, elapsed = timed_setup(workload, tally)
                setups.append(elapsed)
            gc.collect()
            unit = workload.run(state)
        tally.add(unit.attempted, unit.failed)
        scale = speed.scale()
        run.units.append(unit)
        run.walls.append(unit.wall_s * scale)
        run.setups += [elapsed * scale for elapsed in setups]
        run.scales.append(scale)
    return run


def one_pass(workload: Workload, tally: Tally,
             tracer: LayerTracer | None = None) -> float:
    """Set-up plus ``trace_units`` units; returns their host seconds.

    A workload that sets up inside its units gets no separate set-up.
    With a tracer, it is installed for the pass and removed before the
    set-up's outputs are checked, so checking adds no counts.
    """
    if tracer is not None:
        tracer.install()
    try:
        gc.collect()
        state, wall_s = (None, 0.0) if workload.setup_in_call \
            else workload.setup()
        if tracer is None:
            tally.add(*workload.check_setup(state))
        for _ in range(workload.trace_units):
            result = workload.run(state)
            tally.add(result.attempted, result.failed)
            wall_s += result.setup_s + result.wall_s
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        tally.add(*workload.check_setup(state))
    return wall_s


def percentile_ms(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] * 1e3


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload: Workload, seconds: float,
               tally: Tally) -> Dict[str, Tuple[float, str]]:
    run = measure(workload, seconds, tally)
    units = run.units
    work = ", ".join(f"{key}={value:.6g}" for key, value
                     in units[0].work.items())
    print(f"{workload.name}: {len(units)} units, {len(run.setups)} set-ups; "
          f"work per unit: {work}")
    print(f"  unscaled unit wall: median "
          f"{statistics.median(u.wall_s for u in units):.6g} s; host speed "
          f"scale: median {statistics.median(run.scales):.4g}, min "
          f"{min(run.scales):.4g}, max {max(run.scales):.4g}")
    print(f"  unit wall: median {statistics.median(run.walls):.6g} s, min "
          f"{min(run.walls):.6g} s; set-up: median "
          f"{statistics.median(run.setups):.6g} s, min {min(run.setups):.6g} s")
    queries = [lat for unit in units for lat in unit.latencies_s]
    if queries:
        print(f"  query_p50_ms = {percentile_ms(queries, 0.50):.4f} ms, "
              f"query_p99_ms = {percentile_ms(queries, 0.99):.4f} ms "
              f"over {len(queries)} queries")
    print(f"  failed_frac = {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted} checked outputs)")
    return {"wall_s": (statistics.median(run.walls), "s"),
            "setup_s": (statistics.median(run.setups), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB")}


def per_layer(workload: Workload, seconds: float,
              tally: Tally) -> Dict[str, Tuple[float, str]]:
    untraced: List[float] = []
    start = perf_counter()
    while not untraced or perf_counter() - start < seconds:
        untraced.append(one_pass(workload, tally))
    tracer = LayerTracer()
    traced_wall_s = one_pass(workload, tally, tracer)
    metrics = tracer.metrics(traced_wall_s, statistics.median(untraced))
    latencies = tracer.query_latencies_s
    metrics["examon.query.p50_ms"] = (percentile_ms(latencies, 0.50), "ms")
    metrics["examon.query.p99_ms"] = (percentile_ms(latencies, 0.99), "ms")
    metrics = dict(sorted(metrics.items()))
    print(f"{workload.name}: traced {traced_wall_s:.3f} s vs untraced "
          f"median {statistics.median(untraced):.3f} s over {len(untraced)} "
          f"passes; failed {tally.failed} of {tally.attempted}")
    return metrics


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workload = WORKLOADS[args.workload](args.seed, load_references())
    tally = Tally()
    collect = per_layer if args.trace else end_to_end
    metrics = collect(workload, args.seconds, tally)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
