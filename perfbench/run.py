#!/usr/bin/env python3
"""Benchmark of the Alice -> wire -> Bob round trip, driven through run_experiment.

Run from the repository root:

    python3 perfbench/run.py --workload dense-state --seed 1 --seconds 25 --trace 0

``--trace 0`` times untraced batches of trials for ``--seconds`` and reports
the end-to-end metrics of BENCHMARK.json; ``--trace 1`` alternates untraced
and traced batches and reports the per-layer metrics. Every report is checked;
the last line of standard output is one JSON object with the result, and the
exit code is 1 when a check failed. perfbench/README.md has the details.
"""
import os

# One BLAS thread per process keeps the compute threads of a two-worker run
# within two cores; a second BLAS thread doubled CPU time for the same
# throughput. It must be set before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import ctypes
import glob
import json
import math
import multiprocessing
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from hostspeed import REFERENCE_S, Yardstick  # noqa: E402
from workloads import EPSILON, WORKLOADS, expected_message_bits  # noqa: E402

SETUP_PROBES = 7
# Trials that run before the clock starts, so lazy set-up is finished.
WARMUP_TRIALS = 8
# observable-general ships a fixed-point Gram matrix (48 fractional bits), so
# even the exact oracle reconstructs the distance with rounding of about 1e-9;
# the other exact-oracle kinds must reconstruct it exactly.
FIXED_POINT_DELTA_TOLERANCE = 1e-6
RECOVERY_FLOOR = 0.80
DETERMINISM_TRIALS = 120
# Batch numbers, and so root seeds, of the runs outside the timed window; the
# timed batches count up from 0 and stay far below these.
WARMUP_BATCH, DETERMINISM_BATCH, SETUP_BATCH = 900_000, 900_001, 910_000
# Root seed of batch b under --seed s; distinct for every (s, b) with b < SEED_STRIDE.
SEED_STRIDE = 1_000_003


def load_library():
    src = ROOT / "src"
    if not (src / "gapcomm" / "__init__.py").is_file():
        raise SystemExit(f"error: gapcomm sources not found under {src}")
    sys.path.insert(0, str(src))
    import gapcomm

    if Path(gapcomm.__file__).resolve().parent != src / "gapcomm":
        raise SystemExit(f"error: imported gapcomm from {gapcomm.__file__}, not {src}")
    return gapcomm


def git_revision() -> str:
    """HEAD read from .git without running git, which would search parent dirs."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_notes(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    notes = {"blas": f"{blas.get('name')} {blas.get('version')}", "blas_thread_cap": BLAS_THREADS}
    # read back the thread count from the OpenBLAS numpy bundles, when it is one
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.argtypes, func.restype = [], ctypes.c_int
                notes["blas_threads_active"] = func()
                return notes
    return notes


def machine_notes(np, kernels) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **blas_notes(np),
        "kernel_backend": kernels.backend_name(),
        "git_revision": git_revision(),
        "platform": platform.platform(),
    }


class Checker:
    """Checks every report of one workload and totals its trials."""

    def __init__(self, wl):
        self.wl = wl
        self.expected_bits = expected_message_bits(wl.protocol, wl.qubits)
        self.trials = self.successes = self.protocol_errors = 0
        self.problems: list[str] = []

    def check(self, report, trials: int) -> None:
        res, msg = report.results, report.message
        self.trials += res["trials"]
        self.successes += res["successes"]
        self.protocol_errors += res["protocol_errors"]
        if res["trials"] != trials:
            self.problems.append(f"report counts {res['trials']} trials, ran {trials}")
        bits = (msg["main_bits"], msg["side_bits"])
        if bits != self.expected_bits:
            self.problems.append(f"message bits {bits} != closed form {self.expected_bits}")
        if self.wl.oracle_model != "exact":
            tolerance = report.derived["delta_error_budget"]
        elif self.wl.protocol == "observable-general":
            tolerance = FIXED_POINT_DELTA_TOLERANCE
        else:
            tolerance = 0.0
        worst = res["max_delta_error"]
        if worst is None or not worst <= tolerance:
            self.problems.append(f"max_delta_error {worst} exceeds {tolerance}")

    def finish(self) -> None:
        rate = self.recovery_rate
        if not rate >= RECOVERY_FLOOR:
            self.problems.append(f"recovery rate {rate:.4f} below {RECOVERY_FLOOR}")

    @property
    def recovery_rate(self) -> float:
        return self.successes / self.trials if self.trials else 0.0


class Bench:
    """One workload and seed: builds configs, runs and checks experiments, and
    samples the host's speed between them."""

    def __init__(self, wl, seed: int, harness):
        self.wl, self.seed, self.harness = wl, seed, harness
        self.checker = Checker(wl)
        self.yardstick = Yardstick()
        self.yard_s: list[float] = []

    def sample_host(self) -> None:
        self.yard_s.append(self.yardstick.seconds())

    def time_scale(self) -> float:
        """One factor that turns this run's times into times at reference host speed."""
        scale = REFERENCE_S / statistics.median(self.yard_s)
        print(f"host: yardstick median {statistics.median(self.yard_s) * 1e3:.4f} ms over "
              f"{len(self.yard_s)} samples, reference {REFERENCE_S * 1e3:.4f} ms; "
              f"times scaled by {scale:.4f}, rates divided by it")
        return scale

    def batch_scales(self) -> list[float]:
        """Factor of each batch: reference over the mean of the yardsticks around it."""
        yard = self.yard_s
        return [2 * REFERENCE_S / (before + after) for before, after in zip(yard, yard[1:])]

    def config(self, batch: int, trials: int, workers: int, records: bool = False):
        # each batch gets its own root seed, a pure function of --seed
        return self.harness.ExperimentConfig(
            protocol=self.wl.protocol,
            qubits=self.wl.qubits,
            epsilon=EPSILON,
            trials=trials,
            root_seed=self.seed * SEED_STRIDE + batch,
            oracle_model=self.wl.oracle_model,
            workers=workers,
            per_trial_records=records,
        )

    def run(self, batch: int, workers: int, trials: int | None = None, records: bool = False):
        """Run and check one batch; returns (report, wall s, CPU s incl. children)."""
        trials = self.wl.batch if trials is None else trials
        cfg = self.config(batch, trials, workers, records)
        c0, t0 = cpu_seconds(), time.perf_counter()
        report = self.harness.run_experiment(cfg)
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
        self.checker.check(report, trials)
        return report, wall, cpu

    def warm_up(self) -> None:
        self.run(WARMUP_BATCH, self.wl.workers, trials=WARMUP_TRIALS)


def cpu_seconds() -> float:
    """CPU seconds of this process and its waited-for children (pool workers)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mib() -> float:
    """Peak RSS of this process; pool workers are forks of it, probes are not counted."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_probe(wl, seed: int, k: int) -> tuple[float, float]:
    """Import, config and first trial in a fresh interpreter: (raw seconds,
    factor to reference host speed from the yardstick the probe timed after)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe_setup.py"), wl.name,
         str(seed * SEED_STRIDE + SETUP_BATCH + k)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    return probe["setup_s"], REFERENCE_S / probe["yard_s"]


def factor_range(factors: list[float]) -> list[float]:
    return [min(factors), statistics.median(factors), max(factors)]


def end_to_end(bench: Bench, seconds: int, layers) -> tuple[dict, dict]:
    """Untraced batches for ``seconds``, with the set-up probes spread among
    them so that their median sees the same host as the batches. Each batch
    is scaled to reference host speed by the yardstick timed on either side.

    Returns the scaled metrics and, for each time metric, its raw value and
    the [min, median, max] of the factors applied to it."""
    wl = bench.wl
    bench.warm_up()
    batches, setups = [], []
    batch = 0
    start = time.perf_counter()
    bench.sample_host()
    with layers.trial_timer():
        while batch == 0 or time.perf_counter() - start < seconds:
            report, wall, cpu = bench.run(batch, wl.workers, records=True)
            batches.append((wall, cpu, [rec["_trial_ms"] for rec in report.per_trial]))
            batch += 1
            bench.sample_host()
            due = len(setups) < SETUP_PROBES and (
                time.perf_counter() - start >= len(setups) * seconds / SETUP_PROBES)
            if due:
                setups.append(setup_probe(wl, bench.seed, len(setups)))
    rss = peak_rss_mib()
    while len(setups) < SETUP_PROBES:
        setups.append(setup_probe(wl, bench.seed, len(setups)))

    if wl.workers > 1:
        # determinism contract: the pool's report equals the in-process one
        pooled, _, _ = bench.run(DETERMINISM_BATCH, wl.workers, trials=DETERMINISM_TRIALS)
        single, _, _ = bench.run(DETERMINISM_BATCH, 1, trials=DETERMINISM_TRIALS)
        if pooled.to_json() != single.to_json():
            bench.checker.problems.append(f"workers={wl.workers} report differs from workers=1")

    scales = bench.batch_scales()
    raw = {
        "trials_per_s": [wl.batch / wall for wall, _, _ in batches],
        "trial_ms": [times for _, _, times in batches],
        "cpu_s_per_trial": [cpu / wl.batch for _, cpu, _ in batches],
        "setup_s": [s for s, _ in setups],
    }
    rates = [r / k for r, k in zip(raw["trials_per_s"], scales)]
    cpu_per_trial = [c * k for c, k in zip(raw["cpu_s_per_trial"], scales)]
    trial_ms = [t * k for times, k in zip(raw["trial_ms"], scales) for t in times]
    raw_trial_ms = [t for times in raw["trial_ms"] for t in times]
    pct, raw_pct = (statistics.quantiles(v, n=100) for v in (trial_ms, raw_trial_ms))
    setup_scaled = [s * k for s, k in setups]
    batch_factors = factor_range(scales)
    probe_factors = factor_range([k for _, k in setups])
    main_bits, side_bits = bench.checker.expected_bits
    print(f"batches {batch} of {wl.batch} trials; trial_ms samples {len(trial_ms)}; "
          f"setup_s probes {[round(s, 4) for s in setup_scaled]}")
    print(f"host: reference {REFERENCE_S * 1e3:.4f} ms; batch factors min/median/max "
          f"{'/'.join(f'{k:.4f}' for k in batch_factors)}; probe factors "
          f"{'/'.join(f'{k:.4f}' for k in probe_factors)}; "
          "times multiplied by them, rates divided")
    if len(trial_ms) < 1000:
        print(f"warning: p99 rests on {len(trial_ms)} samples, fewer than 1000")
    scaling = {
        "trials_per_s": (statistics.median(raw["trials_per_s"]), batch_factors),
        "trial_ms.p50": (raw_pct[49], batch_factors),
        "trial_ms.p99": (raw_pct[98], batch_factors),
        "setup_s": (statistics.median(raw["setup_s"]), probe_factors),
        "cpu_s_per_trial": (statistics.median(raw["cpu_s_per_trial"]), batch_factors),
    }
    return {
        "trials_per_s": statistics.median(rates),
        "trial_ms.p50": pct[49],
        "trial_ms.p99": pct[98],
        "setup_s": statistics.median(setup_scaled),
        "cpu_s_per_trial": statistics.median(cpu_per_trial),
        "peak_rss_mb": rss,
        "message_bits": main_bits + side_bits,
    }, scaling


def per_layer(bench: Bench, seconds: int, layers) -> tuple[dict, dict]:
    """Rounds of three batches on one root seed: untraced and traced at
    workers=1 (in alternating order, so neither always follows the pool) and
    untraced at workers=2. All three reports must be byte-identical.

    Returns the metrics and, for each time metric, its raw value and the one
    factor of the run that scaled it."""
    micro = layers.kernel_micro(bench.seed)
    bench.warm_up()
    tracer = layers.Tracer()
    rates = {"plain": [], "traced": [], "pooled": []}
    batch = 0
    start = time.perf_counter()
    bench.sample_host()
    while batch == 0 or time.perf_counter() - start < seconds:
        reports = {}
        order = ("plain", "traced") if batch % 2 == 0 else ("traced", "plain")
        for variant in order + ("pooled",):
            workers = 2 if variant == "pooled" else 1
            if variant == "traced":
                with tracer.traced():
                    reports[variant], wall, _ = bench.run(batch, workers)
            else:
                reports[variant], wall, _ = bench.run(batch, workers)
            rates[variant].append(bench.wl.batch / wall)
        if len({r.to_json() for r in reports.values()}) != 1:
            bench.checker.problems.append(f"batch {batch}: traced or pooled report differs")
        batch += 1
        bench.sample_host()
    plain, traced, pooled = (statistics.median(rates[v]) for v in ("plain", "traced", "pooled"))
    print(f"rounds {batch} of 3 x {bench.wl.batch} trials; untraced {plain:.2f}/s, "
          f"traced {traced:.2f}/s, workers=2 {pooled:.2f}/s")
    scale = bench.time_scale()
    times = {**tracer.time_metrics(), **micro["times"]}
    return {
        **{name: value * scale for name, value in times.items()},
        **tracer.count_metrics(),
        **micro["counts"],
        "harness.parallel_efficiency": pooled / (2 * plain),
        "trace.overhead_pct": 100.0 * (plain / traced - 1.0),
    }, {name: (value, [scale] * 3) for name, value in times.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    load_library()
    import numpy as np

    from gapcomm import _kernels, harness

    import layers

    print("machine " + json.dumps(machine_notes(np, _kernels), sort_keys=True))
    wl = WORKLOADS[args.workload]
    if not args.trace and wl.workers > 1 and multiprocessing.get_start_method() != "fork":
        # layers.trial_timer reaches pool workers only by being forked into them
        print(f"CHECK FAILED: trial timing needs the fork start method for pool workers, "
              f"not {multiprocessing.get_start_method()}")
        return 1
    bench = Bench(wl, args.seed, harness)
    if args.trace:
        values, scaling = per_layer(bench, args.seconds, layers)
    else:
        values, scaling = end_to_end(bench, args.seconds, layers)
    checker = bench.checker
    checker.finish()
    if not args.trace:
        values["recovery_rate"] = checker.recovery_rate

    mismatch = {m["name"] for m in wanted} ^ set(values)
    if mismatch:
        checker.problems.append(f"metrics differ from BENCHMARK.json: {sorted(mismatch)}")
    metrics = {}
    for m in wanted:
        value = values.get(m["name"], math.nan)
        if not math.isfinite(value):
            checker.problems.append(f"{m['name']} is not finite")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:<44} {value:>16.6g} {m['unit']}")
    print(f"{'failed_fraction':<44} {checker.protocol_errors / checker.trials:>16.6g} ratio")
    for problem in checker.problems:
        print(f"CHECK FAILED: {problem}")
    # The metrics above are at reference host speed; this line keeps what was
    # measured: each time metric's raw value and [min, median, max] factor.
    print("scaling " + json.dumps({
        "reference_s": REFERENCE_S,
        "metrics": {name: {"raw": r, "factor": f} for name, (r, f) in scaling.items()},
    }, sort_keys=True))

    correct = not checker.problems
    print(json.dumps({
        "correct": correct,
        "attempted": checker.trials,
        "failed": checker.protocol_errors,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
