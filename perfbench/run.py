"""spingate benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload compile-toffoli --seed 10 --seconds 40 --trace 0

Every workload is driven through `spingate.harness.run_experiment`, the
entry point the CLI uses, writing into a temporary directory under
perfbench/out/.

--trace 0  calls the workload untraced again and again for --seconds
           seconds, each call with its own master seed derived from --seed
           (the first is --seed itself), measures set-up time in fresh
           interpreters between the calls, and reports the medians as the
           end-to-end metrics.
--trace 1  calls the workload at master seed --seed once untraced and once
           traced, times the cost kernels at several depths, and reports
           the per-layer metrics.

Every call's outputs are checked outside the timed region (see
workloads.OutputChecker); in --trace 1 the traced outputs must also equal
the untraced ones bit for bit.  The last line of stdout is
{"correct", "attempted", "failed", "metrics"}; the line before it gives
the sample count of each median.  A checkout without
src/spingate exits with status 2 before printing a result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

import benchenv

# Set-up probes run before the first call and after every call, so their
# median spans the whole run rather than the few seconds a burst of probes
# would: the host's speed drifts.
SETUP_PROBES_PER_CALL = 2
KERNEL_BUDGET_S = 0.1
SMOKE_KERNEL_BUDGET_S = 0.002
STOP_REASONS = ("cost-tolerance", "gradient-tolerance", "max-iterations",
                "line-search-failure", "spread-tolerance")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
COST_ROUTES = ("grad", "exact", "density")
COUNTED_SPANS = ("ansatz.circuit_unitary", "ansatz.layer_unitary", "ansatz.gate_matrices",
                 "linalg.hs_overlap", "noise.perturb", "seeding.derive_rng")


def per_layer_units() -> dict[str, str]:
    """Name -> unit of every metric --trace 1 reports."""
    from kernels import DEPTHS, KERNELS

    units = {
        "optimize.cost_evals": "count", "optimize.grad_evals": "count",
        "optimize.iterations": "count", "optimize.accept_ratio": "ratio",
        "optimize.self_s": "s", "optimize.nelder_mead.cost_evals": "count",
    }
    units.update({f"optimize.stop.{r}": "count" for r in STOP_REASONS + ("other",)})
    for route in COST_ROUTES:
        units.update({f"cost.{route}.calls": "count", f"cost.{route}.busy_s": "s",
                      f"cost.{route}.us_p50": "us"})
    units["cost.density.setup_ms"] = "ms"
    units.update({f"cost.{k}.us_m{m}": "us" for m in DEPTHS for k in KERNELS})
    for name in COUNTED_SPANS:
        units.update({f"{name}.calls": "count", f"{name}.busy_s": "s"})
    units.update({
        "noise.sweep.busy_s": "s", "noise.self_s": "s",
        "simulator.calls": "count", "simulator.busy_s": "s",
        "harness.self_s": "s", "harness.write_s": "s", "harness.bytes_written": "B",
        "trace.overhead_s": "s",
        "converged_fraction": "fraction", "best_infidelity": "1",
        "retrained_fidelity": "1", "failed_fraction": "fraction",
    })
    return units


class Tally:
    """Attempted and failed run_experiment calls; a call fails if it raises or a check fails."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, problems: list[str]) -> None:
        self.failed += 1
        self.problems.extend(problems)
        for p in problems:
            print(f"check failed: {p}", file=sys.stderr)


def call_workload(cfg, checker, tally: Tally, instrument=None, rerun_of: Path | None = None):
    """One timed run_experiment call, then its checks; None if it raised.

    `instrument` is a context manager held around the call only, so the
    checks never run traced.  With `rerun_of`, the outputs must also equal
    that earlier run's outputs at the same config.
    """
    from spingate import harness
    import workloads

    tally.attempted += 1
    summaries = []
    try:
        with instrument or contextlib.nullcontext(), \
                workloads.capture_compile_summaries(summaries):
            t0 = time.perf_counter()
            record = harness.run_experiment(cfg)
            wall = time.perf_counter() - t0
    except Exception:  # a raising call is a failed run, reported and counted
        traceback.print_exc()
        tally.fail([f"run_experiment raised at master seed {cfg.master_seed}"])
        return None
    run_dir = Path(record.run_dir)
    problems = checker.problems(cfg, run_dir, summaries[-1].best.final_theta)
    if rerun_of is not None and (workloads.canonical_outputs(rerun_of)
                                 != workloads.canonical_outputs(run_dir)):
        problems.append("rerun at the same seed changed the outputs")
    if problems:
        tally.fail(problems)
    return wall, run_dir, summaries[-1], record


def setup_times(args, n: int) -> list[float]:
    """Set-up seconds of `n` fresh interpreters, one after another (see setup_probe.py)."""
    cmd = [sys.executable, str(Path(__file__).with_name("setup_probe.py")),
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    return [float(subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120,
                                 cwd=benchenv.ROOT).stdout.split()[-1])
            for _ in range(n)]


def end_to_end(args, out_dir: Path, tally: Tally) -> tuple[dict, dict]:
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    per_call = 1 if args.smoke else SETUP_PROBES_PER_CALL
    deadline = time.perf_counter() + args.seconds
    setup_times(args, 1)  # fills the bytecode cache, which users pay once
    setups = setup_times(args, per_call)
    checker = None
    seeds, walls, cycles = [], [], []
    while True:
        cycle_start = time.perf_counter()
        seeds.append(workloads.master_seed(args.seed, len(seeds)))
        cfg = workload.config(seeds[-1], out_dir, args.smoke)
        checker = checker or workloads.OutputChecker(cfg)
        done = call_workload(cfg, checker, tally)
        if done is not None:
            walls.append(done[0])
            shutil.rmtree(done[1])
        setups += setup_times(args, per_call)
        cycles.append(time.perf_counter() - cycle_start)
        # stop when a typical call, with its checks and probes, would overrun
        if args.smoke or time.perf_counter() + statistics.median(cycles) > deadline:
            break
    if not walls:
        raise RuntimeError("every call failed; no wall time to report")
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {"wall_s": statistics.median(walls), "setup_s": statistics.median(setups),
               "peak_rss_mb": peak_kib / 1024.0}
    samples = {"wall_s": len(walls), "setup_s": len(setups)}
    return metrics, {"samples": samples, "master_seeds": seeds, "walls_s": walls,
                     "setup_s": setups}


def per_layer(args, out_dir: Path, tally: Tally) -> tuple[dict, dict]:
    import kernels
    import tracer as tr
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    cfg = workload.config(args.seed, out_dir, args.smoke)
    checker = workloads.OutputChecker(cfg)
    plain = call_workload(cfg, checker, tally)
    if plain is None:
        raise RuntimeError("untraced call failed; nothing to compare the traced run with")

    tracer = tr.Tracer()
    opt_traces = []
    layers = tr.traced_layers(tracer, lambda _args, trace: opt_traces.append(trace))
    wall_u, dir_u, _, _ = plain
    traced = call_workload(cfg, checker, tally, instrument=layers, rerun_of=dir_u)
    if traced is None:
        raise RuntimeError("traced call failed")
    wall_t, dir_t, summary, record = traced
    bytes_written = sum(p.stat().st_size for p in dir_t.iterdir())
    tracer.save(benchenv.OUT / f"spans-{args.workload}.npz")

    t = tr.SpanTable(tracer)
    evals = sum(x.n_evals for x in opt_traces)
    iterations = sum(x.iterations for x in opt_traces)
    reasons = Counter(x.stop_reason if x.stop_reason in STOP_REASONS else "other"
                      for x in opt_traces)
    m = {
        "optimize.cost_evals": evals,
        "optimize.grad_evals": t.calls("cost.grad"),
        "optimize.iterations": iterations,
        "optimize.accept_ratio": iterations / evals if evals else 0.0,
        "optimize.self_s": t.layer_self_s("optimize"),
        "optimize.nelder_mead.cost_evals": sum(x.n_evals for x in opt_traces
                                               if x.algorithm == "nelder-mead"),
    }
    m.update({f"optimize.stop.{r}": reasons[r] for r in STOP_REASONS + ("other",)})
    for route in COST_ROUTES:
        name = f"cost.{route}"
        m.update({f"{name}.calls": t.calls(name), f"{name}.busy_s": t.busy_s(name),
                  f"{name}.us_p50": t.p50_us(name)})
    m["cost.density.setup_ms"] = t.p50_us("cost.density.setup") / 1e3
    for name in COUNTED_SPANS:
        m.update({f"{name}.calls": t.calls(name), f"{name}.busy_s": t.busy_s(name)})
    per_point = record.results.get("per_point", {})
    m.update({
        "noise.sweep.busy_s": t.busy_s("noise.sweep"),
        "noise.self_s": t.layer_self_s("noise"),
        "simulator.calls": t.layer_calls("simulator"),
        "simulator.busy_s": t.layer_busy_s("simulator"),
        "harness.self_s": t.self_s("harness.run_experiment"),
        "harness.write_s": t.busy_s("harness.write"),
        "harness.bytes_written": bytes_written,
        "trace.overhead_s": wall_t - wall_u,
        "converged_fraction": sum(x.converged for x in summary.traces) / len(summary.traces),
        "best_infidelity": summary.best.final_cost,
        "retrained_fidelity": (statistics.fmean(p["mean_fidelity"] for p in per_point.values())
                               if per_point else 0.0),
    })
    budget = SMOKE_KERNEL_BUDGET_S if args.smoke else KERNEL_BUDGET_S
    m.update(kernels.depth_table(args.seed, budget))
    m["failed_fraction"] = tally.failed / tally.attempted
    return m, {"samples": {"spans": len(t.dur)},
               "wall_untraced_s": wall_u, "wall_traced_s": wall_t}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="spingate benchmark (one workload, one run)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: checks that every metric is emitted, measures nothing")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    load_at_start = os.getloadavg()
    benchenv.pin_blas_threads()
    try:
        benchenv.use_source_tree()
    except benchenv.SourceTreeMissing as exc:
        print(f"cannot benchmark: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    env = benchenv.environment_record(load_at_start)
    print("environment: " + json.dumps(env, sort_keys=True))
    benchenv.OUT.mkdir(parents=True, exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix="runs-", dir=benchenv.OUT))
    tally = Tally()
    try:
        if args.trace:
            values, details = per_layer(args, out_dir, tally)
            units = per_layer_units()
        else:
            values, details = end_to_end(args, out_dir, tally)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record_path = benchenv.OUT / f"result-{args.workload}-trace{args.trace}-seed{args.seed}.json"
    record_path.write_text(json.dumps({"args": vars(args), "environment": env, "details": details,
                                       "problems": tally.problems, "result": result},
                                      indent=2, sort_keys=True) + "\n")
    print("samples: " + json.dumps(details["samples"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
