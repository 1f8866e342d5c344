"""Print every metric of every workload, and check it against BENCHMARK.json.

    python3 perfbench/report.py              # full size, about 3 minutes
    python3 perfbench/report.py --smoke      # reduced sizes, the smoke test

Runs perfbench/run.py once per workload with --trace 0 and once with
--trace 1, prints each metric by name with its value and unit, and exits
with status 1 unless every run is correct and emits exactly the metrics
BENCHMARK.json names under --trace 0 (end_to_end) and --trace 1
(per_layer), each with the unit BENCHMARK.json gives it.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 10  # the master seed of the README quick start and the acceptance tests


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}

    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(SEED),
                                     "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
            if args.smoke:
                cmd.append("--smoke")
            out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
            label = f"{workload} --trace {trace}"
            if out.returncode != 0:
                errors.append(f"{label}: exit status {out.returncode}\n{out.stderr[-2000:]}")
                continue
            result = json.loads(out.stdout.strip().splitlines()[-1])
            print(f"== {label}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}")
            if not result["correct"]:
                errors.append(f"{label}: outputs failed their checks\n{out.stderr[-2000:]}")
            got = result["metrics"]
            for name, metric in got.items():
                print(f"{name:40s} {metric['value']:>16.6g} {metric['unit']}")
            missing = sorted(set(expected[trace]) - set(got))
            extra = sorted(set(got) - set(expected[trace]))
            wrong_unit = sorted(n for n in set(got) & set(expected[trace])
                                if got[n]["unit"] != expected[trace][n])
            for kind, names in (("missing", missing), ("not in BENCHMARK.json", extra),
                                ("unit differs from BENCHMARK.json", wrong_unit)):
                if names:
                    errors.append(f"{label}: {kind}: {names}")
    for error in errors:
        print(f"FAIL {error}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
