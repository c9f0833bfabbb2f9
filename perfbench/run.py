"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload sweep3d-rvma --seed 1 --seconds 40 --trace 0

With ``--trace 0`` the run repeats set-up and run phases for
``--seconds`` seconds with tracing off and reports the end-to-end
metrics: medians of ``run_s`` (host wall of the run phase), ``cpu_s``
(process CPU of the run phase) and ``setup_s`` (host wall of the
set-up), and the process's ``peak_rss_mb``.  The three times are
normalised to the host's speed: a calibration loop (``calibrate.py``)
is timed just before and just after each repetition, and the
repetition's times are scaled by ``REFERENCE_S / calibration``, so they
read as seconds on the reference host.  The raw wall times are printed
in the readable table.

With ``--trace 1`` it spends half of ``--seconds`` on untraced
repetitions, then profiles one more repetition and reports the
per-layer metrics (see ``layers.py``), the layer counters, the failed
share of operations and ``trace_overhead``, the traced ``run_s`` over
the median untraced one.

Every repetition's simulated outputs are checked: against the pinned
reference when ``reference.json`` has the seed, otherwise against the
workload's invariants and the first repetition of the run.  A
repetition whose outputs are wrong counts all of its operations as
failed.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is 0 only when every output was correct.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

from calibrate import REFERENCE_S, around, calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
REFERENCE = os.path.join(HERE, "reference.json")

#: Set-ups timed on their own before each repetition: one set-up lasts
#: a few milliseconds, so ``setup_s`` needs many samples, spread over
#: the run like the repetitions, for a steady median.
SETUPS_PER_REP = 5

E2E_UNITS = {"run_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def load_reference(path: str = REFERENCE) -> dict:
    with open(path) as f:
        return json.load(f)


def canonical(outputs: dict) -> dict:
    """Outputs as they read back from JSON, so they compare with pins."""
    return json.loads(json.dumps(outputs))


@dataclass
class Measurement:
    """Everything one benchmark run measured."""

    workload: str
    seed: int
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    #: Normalised times (see the module doc), one per set-up or run.
    setup_s: list = field(default_factory=list)
    run_s: list = field(default_factory=list)
    cpu_s: list = field(default_factory=list)
    #: Raw wall time of each run phase and the calibration around it.
    run_wall_s: list = field(default_factory=list)
    calibration_s: list = field(default_factory=list)
    outputs: Optional[dict] = None
    traced_run_s: Optional[float] = None
    layer_metrics: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    def end_to_end(self) -> dict:
        return {
            "run_s": statistics.median(self.run_s),
            "cpu_s": statistics.median(self.cpu_s),
            "setup_s": statistics.median(self.setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def per_layer(self) -> dict:
        out = dict(self.layer_metrics)
        out["failed_frac"] = self.failed_frac
        out["trace_overhead"] = self.traced_run_s / statistics.median(self.run_s)
        return out


def per_layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    return {
        "failed_frac": "ratio",
        "trace_overhead": "ratio",
        "rdma.pred_calls_per_entry": "calls/entry",
        "reliability.tx_attempts_mean": "tx/msg",
        "services.reply_batch_mean": "replies/batch",
    }.get(name, "count")


class Runner:
    """Repeats one workload's set-up and run phases and checks outputs."""

    def __init__(self, workload, seed: int, reference: dict) -> None:
        self.workload = workload
        self.seed = seed
        self.pinned = reference["workloads"].get(workload.name, {}).get(str(seed))
        self.m = Measurement(workload.name, seed)
        #: Wall time of each whole repetition: set-up, run and checks.
        self.rep_s: list = []

    def setup(self) -> tuple:
        """A prepared run and the wall seconds its set-up took."""
        gc.collect()
        t0 = time.perf_counter()
        prepared = self.workload.setup(self.seed)
        return prepared, time.perf_counter() - t0

    def check(self, prepared, ran: bool, error: Optional[str]) -> None:
        """Account one repetition's operations and check its outputs."""
        planned = prepared.planned_ops()
        self.m.attempted += planned
        if not ran:
            self.m.failed += planned
            self.m.problems.append(f"run raised: {error}")
            return
        outputs = canonical(prepared.outputs())
        expected = self.pinned if self.pinned is not None else self.m.outputs
        if expected is not None and outputs != expected:
            self.m.failed += planned
            source = "pinned reference" if self.pinned is not None else "first repetition"
            self.m.problems.append(f"outputs {outputs} differ from the {source} {expected}")
            return
        if self.m.outputs is None:
            self.m.outputs = outputs
        self.m.failed += prepared.failed_ops()

    def repetition(self) -> None:
        t0 = time.perf_counter()
        before = calibrate()
        setups = [self.setup() for _ in range(SETUPS_PER_REP + 1)]
        prepared = setups[-1][0]
        gc.collect()
        w0, c0 = time.perf_counter(), time.process_time()
        ran, error = self._run(prepared)
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        cal = around(before, calibrate())
        self.m.setup_s.extend(s * REFERENCE_S / cal.wall_s for _, s in setups)
        self.m.run_s.append(wall * REFERENCE_S / cal.wall_s)
        self.m.cpu_s.append(cpu * REFERENCE_S / cal.cpu_s)
        self.m.run_wall_s.append(wall)
        self.m.calibration_s.append(cal.wall_s)
        self.check(prepared, ran, error)
        self.rep_s.append(time.perf_counter() - t0)

    def traced_repetition(self, src_dir: str) -> None:
        from layers import LayerProfile

        before = calibrate()
        prepared, _ = self.setup()
        gc.collect()
        w0 = time.perf_counter()
        with LayerProfile(src_dir) as profile:
            ran, error = self._run(prepared)
        wall = time.perf_counter() - w0
        cal = around(before, calibrate())
        self.m.traced_run_s = wall * REFERENCE_S / cal.wall_s
        self.check(prepared, ran, error)
        self.m.layer_metrics = profile.metrics()
        if ran:
            self.m.layer_metrics.update(prepared.counters(profile))

    @staticmethod
    def _run(prepared) -> tuple[bool, Optional[str]]:
        try:
            prepared.run()
        except RuntimeError as exc:  # a deadlock or a data-loss check in the program
            return False, str(exc)
        return True, None


def measure(workload, seed: int, seconds: float, trace: bool,
            reference: Optional[dict] = None, src_dir: str = SRC) -> Measurement:
    """Run *workload* for about *seconds* seconds; see the module doc."""
    runner = Runner(workload, seed, reference if reference is not None else load_reference())
    budget = seconds / 2 if trace else seconds
    start = time.perf_counter()
    runner.repetition()
    # Start another repetition only if a typical one still ends within
    # the budget, so a run lasts about --seconds.
    while time.perf_counter() - start + statistics.median(runner.rep_s) <= budget:
        runner.repetition()
    if trace:
        runner.traced_repetition(src_dir)
    return runner.m


def report(m: Measurement, trace: bool, reference: dict) -> dict:
    """Print a readable table and return the result object."""
    e2e = m.end_to_end()
    pinned = str(m.seed) in reference["workloads"].get(m.workload, {})
    print(f"workload {m.workload}  seed {m.seed}  repetitions {len(m.run_s)}"
          f"  set-ups {len(m.setup_s)}  pinned seed {pinned}")
    print(f"checked outputs: {m.outputs}")
    base = reference.get("rvma_elapsed_ns", {}).get(m.workload, {}).get(str(m.seed))
    if base and m.outputs:
        print(f"RDMA/RVMA simulated elapsed ratio: {m.outputs['elapsed_ns'] / base:.3f}")
    for problem in m.problems:
        print(f"FAILED: {problem}")
    print(f"{'failed_frac':32s} {m.failed_frac:.6g} ratio  ({m.failed}/{m.attempted} operations)")
    print(f"{'run_s samples':32s} " + " ".join(f"{v:.3f}" for v in m.run_s))
    print(f"{'raw run wall samples':32s} " + " ".join(f"{v:.3f}" for v in m.run_wall_s))
    print(f"{'calibration median':32s} {statistics.median(m.calibration_s):.6g} s"
          f"  (reference {REFERENCE_S} s; {len(m.run_s)} repetitions)")
    for name, value in e2e.items():
        print(f"{name:32s} {value:.6g} {E2E_UNITS[name]}")
    if trace:
        layer = m.per_layer()
        total = sum(v for k, v in layer.items() if k.endswith(".self_s")) or 1.0
        for name, value in layer.items():
            if name == "failed_frac":
                continue  # printed above with its counts
            share = f"  ({value / total:6.1%} of traced self time)" if name.endswith(".self_s") else ""
            print(f"{name:32s} {value:.6g} {per_layer_unit(name)}{share}")
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in layer.items()}
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}
    return {"correct": m.correct, "attempted": m.attempted, "failed": m.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: the program's source ({SRC}/repro) is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    reference = load_reference()
    m = measure(workload, args.seed, args.seconds, bool(args.trace), reference)
    result = report(m, bool(args.trace), reference)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
