#!/usr/bin/env python3
"""Times every hot kernel on protocol-scale inputs.

Run from the repository root:

    PYTHONPATH=src python3 benchmarks/bench_kernels.py

Each row is the best of seven runs after one warm-up call.
"""
import time

import numpy as np

from gapcomm import _kernels
from gapcomm.ghd import sample_sources


def best_of(fn, *args, reps: int = 7) -> float:
    fn(*args)
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def row(name: str, fn, *args) -> None:
    print(f"{name:<34} {best_of(fn, *args) * 1e3:9.3f} ms")


def main() -> None:
    rng = np.random.default_rng(0)
    print(f"kernel backend: {_kernels.backend_name()}")
    print()

    for n in (12, 16, 18):
        vec = rng.integers(-1000, 1000, size=1 << n).astype(np.int64)
        row(f"walsh-hadamard transform 2^{n}", _kernels.fwht, vec)

    for n in (13, 17):
        nums = rng.integers(-500, 500, size=1 << n).astype(np.int64)
        z = int(rng.integers(0, 1 << n))
        x = int(rng.integers(0, 1 << n))
        row(f"mask quadratic form 2^{n}", _kernels.pauli_quad, nums, z, x)

    pads = rng.integers(0, 2, size=(720, 12), dtype=np.uint8)
    selected = np.array([0, 3, 5, 7, 9], dtype=np.int64)

    def majority_many(p, s):
        for _ in range(1000):
            _kernels.majority_rows(p, s)

    row("majority encode 720x12 (x1000)", majority_many, pads, selected)

    # one trial of observable-general n=8 at epsilon 0.3: 244 blocks of 12 bits
    gen = np.random.default_rng(1)
    row("odd-weight sampling 244x12", sample_sources, gen, 244, 12, True)
    blocks = sample_sources(gen, 244, 12, True)
    row("block majority 244x12 vs 720x12", _kernels.majority_blocks, pads, blocks)


if __name__ == "__main__":
    main()
