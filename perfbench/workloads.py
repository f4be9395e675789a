"""The benchmark's workloads and the closed-form message sizes they must produce.

Every workload is one acceptance configuration at epsilon 0.3. Each leans on
a different layer of the round trip; perfbench/README.md says which and why.
This module imports nothing heavy, so the set-up probe can read it before its
clock covers the library import.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

EPSILON = 0.3
# ghd.DEFAULT_BIAS_C, restated so a change of the library default shows up as
# a message-size mismatch instead of silently moving the expected sizes.
BIAS_C = 0.39


@dataclass(frozen=True)
class Workload:
    name: str
    protocol: str
    qubits: int
    oracle_model: str
    workers: int
    # Trials per run_experiment call: about half a second of work at workers=1.
    # The pool batch is larger because each call forks fresh workers whose
    # first trial is ~8x slower; at 600 trials those stay under 1% of the
    # samples, so trial_ms.p99 is not set by where pool start-up lands.
    batch: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("dense-state", "general-state", 12, "exact", 1, 48),
        Workload("encode-heavy", "observable-general", 8, "exact", 1, 40),
        Workload("long-mask", "observable-pauli", 256, "exact", 1, 120),
        Workload("parallel-noisy", "pauli-state", 12, "relative-uniform", 2, 600),
    )
}


def expected_message_bits(protocol: str, qubits: int) -> tuple[int, int]:
    """(main_bits, side_bits) from the wire formats, independent of the encoders.

    Dense states carry an 80-bit header (u8 layout, u8 qubits, u64 norm) and
    64 bits per amplitude; weight side info is u64 + u32 count + u32 per block.
    """
    gamma = math.ceil(EPSILON**-2)
    amp_factor = math.ceil(9.0 / BIAS_C**2)
    code_len = amp_factor * gamma
    pad_exponent = (amp_factor - 1).bit_length()

    def weight_side(blocks: int) -> int:
        return 64 + 32 + 32 * (blocks - gamma)

    if protocol == "general-state":
        return 80 + 64 * 2 ** (qubits + pad_exponent), weight_side(math.isqrt(2**qubits))
    if protocol == "pauli-state":
        return 80 + 64 * 2 ** (qubits + 1), weight_side(math.isqrt(2**qubits))
    if protocol == "observable-general":
        # u32 qubit count, then the 2^n x 2^n fixed-point Gram matrix
        return 32 + 64 * 4**qubits, weight_side(2**qubits)
    if protocol == "observable-pauli":
        # u64 length, one Z bit per codeword bit, one marked last qubit
        return 64 + code_len * math.isqrt(qubits) + 1, 64
    raise ValueError(f"no closed form for {protocol!r}")
