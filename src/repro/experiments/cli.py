"""Command-line driver: regenerate any paper figure or ablation.

Usage::

    rvma-experiments fig4
    rvma-experiments fig7 --nodes 512
    rvma-experiments all --nodes 64 --out results.md
    rvma-experiments fig7 --paper-scale     # 8,192 nodes, slow

Each command prints the regenerated table and the paper's headline
claims next to the measured ones.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable

from .active_flash import run_flash_sweep
from .ablations import (
    run_ablation_completion,
    run_ablation_lut,
    run_ablation_pcie,
    run_ablation_threshold,
    run_ablation_write_imm,
)
from .chaos import run_chaos, run_crash_restart
from .charts import chart_for_result
from .fault_recovery import run_fault_recovery
from .fig45 import run_fig4, run_fig5
from .fig6 import run_fig6
from .kv_churn import run_kv_churn
from .motif_sweep import run_fig7, run_fig8
from .qos_noisy import run_noisy_sweep
from .report import ExperimentResult, seeds_of as _seeds_of

PAPER_NODES = 8192


def _fig7_runner(args) -> ExperimentResult:
    return run_fig7(n_nodes=args.nodes, jobs=args.jobs)


def _fig8_runner(args) -> ExperimentResult:
    return run_fig8(n_nodes=args.nodes, jobs=args.jobs)


def _motifs_of(args) -> tuple:
    """Motif subset from ``--motifs``, or the full default set."""
    if args.motifs:
        return tuple(m.strip() for m in args.motifs.split(",") if m.strip())
    return ("allreduce", "incast", "halo3d")


def _chaos_runner(args) -> ExperimentResult:
    return run_chaos(
        seeds=_seeds_of(args),
        motifs=_motifs_of(args),
        observe=bool(args.metrics_out),
        trace=args.trace,
    )


def _chaos_crash_runner(args) -> ExperimentResult:
    return run_crash_restart(
        seeds=_seeds_of(args),
        motifs=_motifs_of(args),
        observe=bool(args.metrics_out),
        trace=args.trace,
    )


def _kv_churn_runner(args) -> ExperimentResult:
    return run_kv_churn(
        seeds=_seeds_of(args),
        observe=bool(args.metrics_out),
        trace=args.trace,
    )


def _qos_noisy_runner(args) -> ExperimentResult:
    return run_noisy_sweep(seeds=_seeds_of(args))


def _active_flash_runner(args) -> ExperimentResult:
    return run_flash_sweep(seeds=_seeds_of(args))


RUNNERS: dict[str, Callable] = {
    "fig4": lambda args: run_fig4(),
    "fig5": lambda args: run_fig5(),
    "fig6": lambda args: run_fig6(),
    "fig7": _fig7_runner,
    "fig8": _fig8_runner,
    "ablation-lut": lambda args: run_ablation_lut(),
    "ablation-completion": lambda args: run_ablation_completion(),
    "ablation-threshold": lambda args: run_ablation_threshold(),
    "ablation-write-imm": lambda args: run_ablation_write_imm(),
    "fault-recovery": lambda args: run_fault_recovery(),
    "ablation-pcie": lambda args: run_ablation_pcie(),
    "chaos": _chaos_runner,
    "chaos-crash": _chaos_crash_runner,
    "kv-churn": _kv_churn_runner,
    "qos-noisy": _qos_noisy_runner,
    "active-flash": _active_flash_runner,
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "bench":
        # Delegate to the benchmark harness, which owns its own flags
        # (`rvma-experiments bench --suite smoke` == `python -m
        # repro.experiments.bench --suite smoke`).
        from .bench import main as bench_main

        return bench_main(argv[1:])
    if argv and argv[0] == "services":
        # Same delegation pattern: the KV service driver owns its flags
        # (`rvma-experiments services --mode open --zipf 1.1 ...`).
        from .kv_churn import services_main

        return services_main(argv[1:])
    if argv and argv[0] == "fuzz":
        # The scenario fuzzer owns its own subcommands
        # (`rvma-experiments fuzz run --seed-start 1 --count 20`).
        from repro.scenarios.cli import fuzz_main

        return fuzz_main(argv[1:])
    if argv and argv[0] == "qos":
        # Noisy-neighbor QoS cell: owns its flags (`rvma-experiments
        # qos --sweep --engine plain`).
        from .qos_noisy import qos_main

        return qos_main(argv[1:])
    if argv and argv[0] == "active":
        # Active-mailbox flash-crowd cell: owns its flags
        # (`rvma-experiments active --sweep --engine plain`).
        from .active_flash import active_main

        return active_main(argv[1:])
    if argv and argv[0] == "trace":
        # Trace-driven workload record/replay: owns its subcommands
        # (`rvma-experiments trace replay steady-mix --seed 2`).
        from .trace_replay import trace_main

        return trace_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="rvma-experiments",
        description="Regenerate the RVMA paper's tables and figures",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(RUNNERS) + ["all"],
        help="which figure/ablation to regenerate",
    )
    parser.add_argument(
        "--nodes", type=int, default=64,
        help="node count for the motif sweeps (paper used 8192)",
    )
    parser.add_argument(
        "--paper-scale", action="store_true",
        help=f"run motif sweeps at the paper's {PAPER_NODES} nodes (slow)",
    )
    parser.add_argument("--out", type=str, default="", help="append markdown to this file")
    parser.add_argument("--chart", action="store_true", help="render a terminal bar chart per result")
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the motif grids (each cell is an independent simulation)",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="pin the chaos/chaos-crash/kv-churn sweeps to a single seed "
        "(default: the fixed 3-seed matrix); lets CI shard seeds "
        "and failures replay exactly",
    )
    parser.add_argument(
        "--motifs", type=str, default="",
        help="comma-separated motif subset for the chaos sweeps "
        "(default: allreduce,incast,halo3d)",
    )
    parser.add_argument(
        "--metrics-out", type=str, default="",
        help="write the observability RunReport (JSON) to this path; a "
        "markdown rendering goes to <path>.md (chaos/chaos-crash only)",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="enable span tracing during the run (adds span categories, "
        "hottest-span profiles to the --metrics-out report)",
    )
    args = parser.parse_args(argv)
    if args.paper_scale:
        args.nodes = PAPER_NODES

    names = sorted(RUNNERS) if args.experiment == "all" else [args.experiment]
    results: list[ExperimentResult] = []
    for name in names:
        t0 = time.time()
        result = RUNNERS[name](args)
        elapsed = time.time() - t0
        print(result.to_text())
        if args.chart:
            print()
            print(chart_for_result(result))
        for key, value in result.summary.items():
            claim = result.paper_claims.get(key)
            note = f"   (paper: {claim})" if claim is not None else ""
            print(f"  {key}: {value}{note}")
        for key, claim in result.paper_claims.items():
            if key not in result.summary:
                print(f"  paper {key}: {claim}")
        print(f"  [{name} regenerated in {elapsed:.1f}s]\n")
        results.append(result)

    if args.metrics_out:
        reports = [r.run_report for r in results if r.run_report is not None]
        if not reports:
            print(
                "--metrics-out: no observability report produced "
                "(only chaos/chaos-crash runs collect one)",
                file=sys.stderr,
            )
        else:
            from repro.observability import RunReport

            merged = reports[0] if len(reports) == 1 else RunReport.merge(reports)
            merged.save(args.metrics_out)
            md_path = args.metrics_out + ".md"
            with open(md_path, "w", encoding="utf-8") as fh:
                fh.write(merged.to_markdown())
                fh.write("\n")
            print(f"observability report: {args.metrics_out} (markdown: {md_path})")

    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            for result in results:
                fh.write(result.to_markdown())
                fh.write("\n")
        print(f"appended {len(results)} result table(s) to {args.out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
