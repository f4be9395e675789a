#!/usr/bin/env python3
"""Times every hot kernel on protocol-scale inputs.

Run from the repository root:

    PYTHONPATH=src python3 benchmarks/bench_kernels.py

Each row is the best of seven runs after one warm-up call, except the
rows that also print minor page faults (``ru_minflt``): those are means
over 20 calls after one warm-up call, since a fault-free best run would
hide the faults.

BLAS and OpenMP run one thread unless the environment says otherwise, as
in ``perfbench/run.py`` and the test suite: on a small host a second BLAS
thread makes the small float32 matmuls many times slower.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import resource
import time

import numpy as np

from gapcomm import _kernels
from gapcomm import ghd
from gapcomm import harness
from gapcomm import protocols as proto
from gapcomm.bits import STREAM_INDEX, STREAM_INSTANCE, SharedRandomness
from gapcomm.ghd import GhdParams, sample_sources
from gapcomm.messages import ProtocolMessage
from gapcomm.states import ExactState, dense_wire_parts, exact_sq_sum
from gapcomm.verify import _subset_state_target


def best_of(fn, *args, reps: int = 7) -> float:
    fn(*args)
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def row(name: str, fn, *args) -> None:
    print(f"{name:<50} {best_of(fn, *args) * 1e3:9.3f} ms")


def faults_row(name: str, fn, *args, calls: int = 20) -> None:
    fn(*args)
    f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = time.perf_counter()
    for _ in range(calls):
        fn(*args)
    ms = (time.perf_counter() - t0) / calls * 1e3
    faults = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0) / calls
    print(f"{name:<50} {ms:9.3f} ms {faults:7.0f} minflt")


def main() -> None:
    rng = np.random.default_rng(0)
    print(f"kernel backend: {_kernels.backend_name()}")
    print()

    # one observable-general n=8 message at epsilon 0.3: the Gram matrix of
    # 256 rows of 720 bits, normalized and joined into its 512 KiB wire.
    # It runs first: once a larger buffer has been freed, glibc raises the
    # threshold at which it trims the heap, and fresh buffers of this size
    # would stop faulting here while they still fault in a trial loop.
    oc = proto.ProtocolConfig("observable-general", 8, GhdParams(epsilon=0.3))
    osr = SharedRandomness(3)
    ox = harness.sample_instance(osr.substream(STREAM_INSTANCE), oc, True)
    faults_row(
        "observable-general n=8 alice+to_wire",
        lambda: proto.ALICE["observable-general"](ox, oc, osr).to_wire(),
    )

    for n in (12, 16, 18):
        vec = rng.integers(-1000, 1000, size=1 << n).astype(np.int64)
        row(f"walsh-hadamard transform 2^{n}", _kernels.fwht, vec)

    # pauli-state n=12 transforms a sum-norm table: entries 0..4 * 720
    vec = rng.integers(-2880, 2881, size=1 << 12).astype(np.int64)
    row("walsh-hadamard transform 2^12, |v| <= 2880", _kernels.fwht, vec)
    # its solve at epsilon 0.3: 52 x 12 table entries, zero-padded to 2^12
    row("walsh-hadamard transform 624 entries into 2^12", _kernels.fwht, vec[:624], 12)
    # 43-bit entries: 43 + 12 > 53 bits, so two float64 limbs of 41 bits run
    vec = rng.integers(-(1 << 42), 1 << 42, size=1 << 12).astype(np.int64)
    row("walsh-hadamard transform 2^12, two limbs", _kernels.fwht, vec)

    for n in (13, 17):
        nums = rng.integers(-500, 500, size=1 << n).astype(np.int64)
        z = int(rng.integers(0, 1 << n))
        x = int(rng.integers(0, 1 << n))
        row(f"mask quadratic form 2^{n}", _kernels.pauli_quad, nums, z, x)
    # pauli-state n=12: Bob's X on the top qubit of 13, Z-string below it
    nums = rng.integers(-500, 500, size=1 << 13).astype(np.int64)
    z = int(rng.integers(0, 1 << 12))
    row("mask quadratic form 2^13, x = 2^12", _kernels.pauli_quad, nums, z, 1 << 12)
    # 24-bit entries: 2 * 24 + 18 > 63 bits, so two limbs of 22 bits run
    nums = rng.integers(-(1 << 23), 1 << 23, size=1 << 17).astype(np.int64)
    z = int(rng.integers(0, 1 << 16))
    row("mask quadratic form 2^17, 24-bit entries", _kernels.pauli_quad, nums, z, 1 << 16)

    # wide entries: chunks of the sum of squares split into limbs (two at 40
    # bits, three at 63)
    for bits in (40, 63):
        top = (1 << (bits - 1)) - 1
        amps = rng.integers(-top, top, size=1 << 18, endpoint=True).astype(np.int64)
        amps[0] = -(1 << (bits - 1))
        row(f"exact_sq_sum 2^18, {bits}-bit entries", exact_sq_sum, amps)

    # a dense general-state n=12 message read in place: the amplitudes Bob's
    # norm check reads, a view over the wire that to_wire and from_wire
    # carry them through
    def wire_amplitudes(amps):
        parts = dense_wire_parts(amps, 18, exact_sq_sum(amps))
        main_bits = 8 * sum(memoryview(part).nbytes for part in parts)
        wire = ProtocolMessage("general-state", parts, main_bits).to_wire()
        state, _ = ExactState.deserialize(ProtocolMessage.from_wire(wire).main_payload)
        return state.numerators

    amps = rng.integers(0, 2, size=1 << 18).astype("<i8")
    row("exact_sq_sum 2^18 wire view", exact_sq_sum, wire_amplitudes(amps))
    # the general-state layout at epsilon 0.3: 64 blocks of 720 occupied
    # (46080 amplitudes), then a zero tail the norm check proves and skips
    amps[46080:] = 0
    row("exact_sq_sum 2^18 wire view, general-state layout", exact_sq_sum, wire_amplitudes(amps))
    # Alice's side of that layout: the occupied 0/1 prefix, as uint8 rows the
    # encoder stacks, written as wire parts; its squared norm is its weight
    occupied = amps[:46080].astype(np.uint8)
    row(
        "dense_wire_parts general-state n=12",
        lambda: dense_wire_parts(occupied, 18, int(np.count_nonzero(occupied))),
    )

    # one general-state n=12 message at epsilon 0.3, written by Alice and
    # joined into its 2 MiB wire: the page faults count the fresh buffers
    gc = proto.ProtocolConfig("general-state", 12, GhdParams(epsilon=0.3))
    gsr = SharedRandomness(3)
    gx = harness.sample_instance(gsr.substream(STREAM_INSTANCE), gc, True)
    faults_row("general-state n=12 alice+to_wire", lambda: proto.ALICE["general-state"](gx, gc, gsr).to_wire())

    # Bob's read of one pauli-state n=12 message at epsilon 0.3: the norm
    # check over its 2^13 amplitudes, then the X-string form on the top qubit
    sc = proto.ProtocolConfig("pauli-state", 12, GhdParams(epsilon=0.3))
    ssr = SharedRandomness(3)
    sx = harness.sample_instance(ssr.substream(STREAM_INSTANCE), sc, True)
    main = ProtocolMessage.from_wire(proto.ALICE["pauli-state"](sx, sc, ssr).to_wire()).main_payload

    def pauli_state_read():
        state, _ = ExactState.deserialize(main)
        return _kernels.pauli_quad(state.numerators, 0b101101, 1 << 12)

    row("pauli-state n=12 read: deserialize + pauli_quad", pauli_state_read)

    # pauli-state n=12 at epsilon 0.3: 52 Alice rows and 12 Bob rows of 720 bits
    a_rows = rng.integers(0, 2, size=(52, 720), dtype=np.uint8)
    b_rows = rng.integers(0, 2, size=(12, 720), dtype=np.uint8)
    row("pairwise sum-norms and weights 52x720x12", proto._pairwise_sum_norms, a_rows, b_rows)

    pads = rng.integers(0, 2, size=(720, 12), dtype=np.uint8)
    selected = np.array([0, 3, 5, 7, 9], dtype=np.int64)

    def majority_many(p, s):
        for _ in range(1000):
            _kernels.majority_rows(p, s)

    row("majority encode 720x12 (x1000)", majority_many, pads, selected)

    # the public randomness of one trial at epsilon 0.3: the 720x12 pad
    # matrix and the index draw
    psr = SharedRandomness(4).substream(1)

    def many(draw):
        for _ in range(1000):
            draw()

    row("pads bit_matrix 720x12 (x1000)", many, lambda: psr.bit_matrix(720, 12))
    row("index draw integer(1, 8641) (x1000)", many, lambda: psr.integer(1, 8641))

    # one trial of observable-general n=8 at epsilon 0.3: 244 blocks of 12 bits
    bsr = SharedRandomness(1)
    row("odd-weight sampling 244x12", sample_sources, bsr, 244, 12, True)
    # its row filter on the 2 * 244 + 8 rows it draws
    drawn = bsr.bit_matrix(496, 12)
    row("odd-weight filter 496x12", ghd._odd_rows, drawn)
    blocks = sample_sources(bsr, 244, 12, True)
    row("block majority 244x12 vs 720x12", _kernels.majority_blocks, pads, blocks)
    # its Gram matrix: 256 codeword rows of 720 bits; at n=10 the norm runs
    # on the smaller side, the Gram matrix of the 720 columns of 1024 rows
    gram_rows = rng.integers(0, 2, size=(1024, 720)).astype(np.float32)
    row("gram 256x720 (observable-general n=8)", proto._gram, gram_rows[:256], "bench-n8")
    row("gram 720x1024 small side (n=10)", proto._gram, gram_rows.T, "bench-n10")
    # the certified norm bound Alice ships, on those two Gram matrices, and
    # at n=10 also on the shipped 1024x1024 side, which the encoder skips
    gram_n8 = proto._gram(gram_rows[:256], "bench-n8").copy()
    gram_n10 = proto._gram(gram_rows.T, "bench-n10").copy()
    gram_n10_shipped = proto._gram(gram_rows, "bench-n10-shipped").copy()
    row("certified norm 256x256 (observable-general n=8)", proto._norm_fp, gram_n8, 256)
    row("certified norm 720x720 small side (n=10)", proto._norm_fp, gram_n10, 1024)
    row("certified norm 1024x1024 (n=10)", proto._norm_fp, gram_n10_shipped, 1024)

    # one observable-pauli n=256 message at epsilon 0.3 (11649 wire bits):
    # Bob's reader against the two-hot subset-state route verify keeps
    pc = proto.ProtocolConfig("observable-pauli", 256, GhdParams(epsilon=0.3))
    sr = SharedRandomness(2)
    x = harness.sample_instance(sr.substream(STREAM_INSTANCE), pc, True)
    l = sr.substream(STREAM_INDEX).integer(1, pc.capacity + 1)
    msg = proto.ALICE["observable-pauli"](x, pc, sr)
    i, j = proto.decompose_index(l, pc.ghd.gamma)
    row("observable-pauli read n=256", proto.SPECS["observable-pauli"].read, msg, i, j, pc, sr)
    row("two-hot subset state n=256", _subset_state_target, x, l, pc, sr, msg)

    # the rest of that trial's fixed cost (4 blocks of 12 bits, 720x12 pads):
    # its odd-weight filter on the 2 * 4 + 8 rows the sampler draws, Alice's
    # block majority, her Z-string build from the codeword rows, and Bob's
    # read of the 11521-bit Z-string as one int
    gamma = pc.ghd.gamma
    lm_pads = ghd.public_pads(pc.ghd, sr)
    lm_blocks = x.reshape(-1, gamma)
    row("odd-weight filter 16x12 (x1000)", many, lambda: ghd._odd_rows(lm_pads[:16]))
    row("block majority 4x12 vs 720x12 (x1000)", many, lambda: _kernels.majority_blocks(lm_pads, lm_blocks))
    a_rows, b_rows = proto.encode_block_matrices(x, pc, sr)
    row(
        "observable-pauli Z-string build n=256 (x1000)",
        many,
        lambda: proto.SPECS["observable-pauli"].encode(a_rows, b_rows, pc),
    )
    main = bytes(msg.main_payload)
    row("Z-string read n=256, one int (x1000)", many, lambda: int.from_bytes(main[8:], "little"))

    # run_trial's ground-truth distance on the same trial (720x12 pads),
    # from the per-block encoder
    def ground_truth():
        a = ghd.encode_alice(x[(j - 1) * gamma : j * gamma], pc.ghd, sr)
        return int(np.count_nonzero(a ^ ghd.encode_bob(i, pc.ghd, sr)))

    row("ground truth 720x12 pads (x1000)", many, ground_truth)


if __name__ == "__main__":
    main()
