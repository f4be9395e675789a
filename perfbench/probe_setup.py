"""Set-up probe: import the library, build a workload's config, run its first trial.

    python3 perfbench/probe_setup.py <workload> <root seed>

Prints one JSON line with ``setup_s``, the seconds from the top of this file
(before numpy or gapcomm load) to the end of the first run_experiment call,
and ``yard_s``, the host-speed yardstick timed right after in this process.
perfbench/run.py starts several and reports their median at reference speed.
"""
import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from gapcomm.harness import ExperimentConfig, run_experiment  # noqa: E402
from workloads import EPSILON, WORKLOADS  # noqa: E402


def main() -> None:
    wl = WORKLOADS[sys.argv[1]]
    cfg = ExperimentConfig(
        protocol=wl.protocol,
        qubits=wl.qubits,
        epsilon=EPSILON,
        trials=1,
        root_seed=int(sys.argv[2]),
        oracle_model=wl.oracle_model,
        workers=wl.workers,
    )
    report = run_experiment(cfg)
    elapsed = time.perf_counter() - T0
    from hostspeed import Yardstick  # after the clock stops: not part of set-up

    print(json.dumps({
        "setup_s": elapsed,
        "yard_s": Yardstick().seconds(),
        "trials": report.results["trials"],
    }))


if __name__ == "__main__":
    main()
