"""Set-up time of one workload in a fresh interpreter.

Times importing spingate, building the workload's target, spec, circuit
and evaluators (density set-up included) and one cost call, then prints
the seconds.  run.py starts this script several times and reports the
median as `setup_s`.

    python3 perfbench/setup_probe.py --workload compile-toffoli --seed 10
"""

import argparse
import time

import benchenv


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    benchenv.pin_blas_threads()

    t0 = time.perf_counter()
    benchenv.use_source_tree()
    import numpy as np
    import workloads

    cfg = workloads.WORKLOADS[args.workload].config(args.seed, benchenv.OUT, args.smoke)
    evaluators = workloads.build_evaluators(cfg)
    theta = cfg.init.sample(np.random.default_rng(args.seed), evaluators[0].circuit.q)
    evaluators[0].cost(theta)
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()
