"""Every benchmark workload, shrunk to smoke size, passes the benchmark's own output checks.

`perfbench/workloads.py` checks each call's outputs: one delta=0 row per
noise kind equal to 1 - compiled_cost, no non-finite number, the three
cost routes agreeing at the compiled parameters, and byte-identical
reruns.  Running those checks here makes a change that breaks one fail
in the test suite rather than only in a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from spingate import harness

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
        spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
        module = importlib.util.module_from_spec(spec)
        patch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up here
        spec.loader.exec_module(module)
    return module


def smoke_run(workloads, workload, output_dir):
    cfg = workload.config(10, output_dir, smoke=True)
    summaries = []
    with workloads.capture_compile_summaries(summaries):
        record = harness.run_experiment(cfg)
    return cfg, Path(record.run_dir), summaries[-1].best.final_theta


@pytest.mark.parametrize("name", ["compile-toffoli", "noise-sampled", "damping-retrain"])
def test_smoke_workload_passes_output_checks(workloads, name, tmp_path):
    workload = workloads.WORKLOADS[name]
    cfg, run_dir, theta_star = smoke_run(workloads, workload, tmp_path)
    assert workloads.OutputChecker(cfg).problems(cfg, run_dir, theta_star) == []
    _, rerun_dir, _ = smoke_run(workloads, workload, tmp_path)
    assert workloads.canonical_outputs(rerun_dir) == workloads.canonical_outputs(run_dir)
