"""Exact-identity verification suite, run by ``gapcomm verify``.

Each check recomputes an identity the protocols rely on, or a protocol's
oracle target, by a second route and compares exactly (or within a stated
tolerance). The run path never imports this module, so a run does not pay
for compiling it.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import ghd as ghd_mod
from . import protocols as proto
from .bits import STREAM_INDEX, STREAM_INSTANCE, SharedRandomness
from .fwht import character_matrix, fwht
from .ghd import GhdParams
from .harness import sample_instance
from .observables import _power_norm, operator_norm
from .oracle import OracleSpec
from .pauli import PauliMask, subset_state_expectation
from .states import ExactState


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _check_transform_involution(max_qubits: int) -> CheckResult:
    top = max(10, max_qubits)
    for n in range(1, top + 1):
        dim = 1 << n
        if n <= 10:
            basis = np.eye(dim, dtype=np.int64)
            for k in range(dim):
                if not np.array_equal(fwht(fwht(basis[k])), dim * basis[k]):
                    return CheckResult("transform-involution", False, f"basis {k} at n={n}")
        # five vectors of entries in [-1024, 1024): the top 11 bits of each
        # word of substream n, less 1024
        words = SharedRandomness(11).substream(n).words(5 * dim)
        for v in (words >> 53).astype(np.int64).reshape(5, dim) - 1024:
            if not np.array_equal(fwht(fwht(v)), dim * v):
                return CheckResult("transform-involution", False, f"random vector at n={n}")
    return CheckResult("transform-involution", True, f"n <= {top}, exact")


def _check_row_orthogonality(max_qubits: int) -> CheckResult:
    top = min(6, max_qubits)
    for n in range(1, top + 1):
        dim = 1 << n
        rows = character_matrix(n)
        # second route: per-entry signs from the mask's own popcount path
        for k in range(dim):
            mask = PauliMask(z=k, x=0, qubits=n)
            alt = np.array([mask.diagonal_sign(y) for y in range(dim)], dtype=np.int64)
            if not np.array_equal(rows[k], alt):
                return CheckResult("row-orthogonality", False, f"row {k} mismatch at n={n}")
        gram = rows @ rows.T
        if not np.array_equal(gram, dim * np.eye(dim, dtype=np.int64)):
            return CheckResult("row-orthogonality", False, f"gram != 2^n I at n={n}")
    return CheckResult("row-orthogonality", True, f"n <= {top}, exact")


def _check_distance_identity(longest: int = 10) -> CheckResult:
    for length in range(1, longest + 1):
        # every string of this length, row k holding the bits of k
        codes = np.arange(1 << length)
        strings = (codes[:, None] >> np.arange(length)) & 1
        # nnz(x) + nnz(y) - 2<x, y> against popcount(x ^ y), for every pair
        nnz = strings.sum(axis=1)
        via_identity = nnz[:, None] + nnz[None, :] - 2 * (strings @ strings.T)
        if not np.array_equal(via_identity, np.bitwise_count(codes[:, None] ^ codes[None, :])):
            return CheckResult("distance-identity", False, f"violation at length {length}")
    return CheckResult(
        "distance-identity", True, f"every pair of strings up to length {longest}, zero violations"
    )


def _feasible_config(kind: str, qubits: int, epsilon: float) -> proto.ProtocolConfig:
    return proto.ProtocolConfig(kind=kind, qubits=qubits, ghd=GhdParams(epsilon=epsilon))


# Second routes to each protocol's oracle target, independent of Bob's
# decoder: each returns the value the target must equal, from the instance,
# the query index, the config, the randomness and Alice's message.

def _dense_contraction_target(x, l, pc, sr, msg) -> Fraction:
    state, _ = ExactState.deserialize(msg.main_payload)
    strip = proto.general_state_ml_strip(pc, l)
    int_strip = np.round(strip * math.sqrt(2.0)).astype(np.int64)
    w = int_strip @ state.numerators
    return Fraction(int(np.dot(w, w)), 2 * state.norm_sq)


def _codewords_at(x, l, pc, sr) -> tuple[np.ndarray, np.ndarray]:
    """Alice's codeword of the queried block and Bob's codeword for l."""
    gamma = pc.ghd.gamma
    i, j = proto.decompose_index(l, gamma)
    block = x[(j - 1) * gamma : j * gamma]
    return ghd_mod.encode_alice(block, pc.ghd, sr), ghd_mod.encode_bob(i, pc.ghd, sr)


def _sum_norm_formula_target(x, l, pc, sr, msg) -> Fraction:
    a, b = _codewords_at(x, l, pc, sr)
    summed = a.astype(np.int64) + b
    state, _ = ExactState.deserialize(msg.main_payload)
    return Fraction(2 * int(np.dot(summed, summed)) * (1 << (2 * pc.qubits)), state.norm_sq)


def _eigensolver_target(x, l, pc, sr, msg) -> float:
    # brute force: rebuild the Gram matrix and use an eigensolver norm
    a_rows, b_rows = proto.encode_block_matrices(x, pc, sr)
    m = np.concatenate([a_rows, b_rows], axis=0).astype(np.float64).T
    gram = m.T @ m
    norm = float(np.linalg.eigvalsh(gram)[-1])
    i, j = proto.decompose_index(l, pc.ghd.gamma)
    col_a, col_b = j - 1, pc.alice_blocks + i - 1
    sum_norm = gram[col_a, col_a] + 2 * gram[col_a, col_b] + gram[col_b, col_b]
    return sum_norm / (2.0 * norm)


def _scaled_distance_target(x, l, pc, sr, msg) -> Fraction:
    a, b = _codewords_at(x, l, pc, sr)
    return Fraction(-int(np.count_nonzero(a ^ b)), pc.ghd.code_len)


def _subset_state_target(x, l, pc, sr, msg) -> Fraction:
    # the paper's construction on the wire Z-string: one two-hot basis index
    # per code position over Alice's block j and Bob's block, then the marked
    # last-qubit point of squared weight code_len (half the norm)
    (count,) = struct.unpack_from("<Q", msg.main_payload)
    z = int.from_bytes(msg.main_payload[8:], "little")
    i, j = proto.decompose_index(l, pc.ghd.gamma)
    code_len = pc.ghd.code_len
    col = pc.alice_blocks + i
    support = [
        ((1 << ((j - 1) * code_len + k)) | (1 << ((col - 1) * code_len + k)), 1)
        for k in range(code_len)
    ]
    marked = [(1 << (count - 1), 1)]
    return subset_state_expectation(z, support, 2 * code_len) + subset_state_expectation(z, marked, 2)


def _dense_overlap_target(x, l, pc, sr, msg) -> float:
    i, j = proto.decompose_index(l, pc.ghd.gamma)
    state, _ = ExactState.deserialize(msg.main_payload)
    b = ghd_mod.encode_bob(i, pc.ghd, sr)
    dense_other = np.zeros(state.numerators.shape[0], dtype=np.int64)
    start = (j - 1) * pc.ghd.code_len
    dense_other[start : start + pc.ghd.code_len] = b
    cross = int(np.dot(state.numerators, dense_other))
    return cross / math.sqrt(state.norm_sq * int(np.count_nonzero(b)))


@dataclass(frozen=True)
class _TargetCheck:
    """How verify_suite checks one kind's target: against every route,
    exactly unless a ``tolerance`` is set, at every verify size unless
    ``qubits`` is fixed."""

    routes: tuple[Callable, ...]
    detail: str
    tolerance: float | None = None
    epsilon: float = 0.5
    qubits: int | None = None


_TARGET_CHECKS = {
    "general-state": _TargetCheck((_dense_contraction_target,), ", exact"),
    "pauli-state": _TargetCheck((_sum_norm_formula_target,), ", exact"),
    "observable-general": _TargetCheck((_eigensolver_target,), " within 1e-9", 1e-9),
    # this protocol's qubit count is the classical string budget; the
    # smallest feasible sizes are perfect squares past the source length
    "observable-pauli": _TargetCheck(
        (_scaled_distance_target, _subset_state_target), ", exact", epsilon=0.75, qubits=16
    ),
    "inner-product": _TargetCheck((_dense_overlap_target,), ", exact cross terms", 1e-12),
}


def _verify_targets(kind: str, instances: int, seed: int, qubits: int) -> CheckResult:
    check = _TARGET_CHECKS[kind]
    pc = _feasible_config(kind, qubits, check.epsilon)
    name = f"target-{kind}-n{qubits}"
    for k in range(instances):
        sr = SharedRandomness(seed).substream(k)
        x = sample_instance(sr.substream(STREAM_INSTANCE), pc, True)
        l = sr.substream(STREAM_INDEX).integer(1, pc.capacity + 1)
        msg = proto.ALICE[kind](x, pc, sr)
        target = proto.BOB[kind](msg, l, pc, sr, OracleSpec()).target
        for route in check.routes:
            expected = route(x, l, pc, sr, msg)
            if check.tolerance is None:
                if target != expected:
                    return CheckResult(name, False, f"instance {k}: {target} != {expected}")
            elif abs(float(target) - expected) > check.tolerance:
                return CheckResult(name, False, f"instance {k}: |{float(target)} - {expected}|")
    return CheckResult(name, True, f"{instances} instances{check.detail}")


def _check_norm_bounds(instances: int, seed: int) -> CheckResult:
    pc = _feasible_config("general-state", 6, 0.5)
    for k in range(instances):
        sr = SharedRandomness(seed).substream(k)
        l = sr.substream(STREAM_INDEX).integer(1, pc.capacity + 1)
        strip = proto.general_state_ml_strip(pc, l)
        eig_small = np.linalg.eigvalsh(strip @ strip.T)
        if eig_small.min() < -1e-9 or eig_small.max() > 1 + 1e-9:
            return CheckResult("norm-bounds", False, f"contraction spectrum at instance {k}")
    # the norm observable-general's Alice ships, against the eigensolver, on
    # 0/1 rows of stream k: she iterates on rows @ rows.T while there are no
    # more rows than columns (64 x 240 is n=6 at epsilon 0.5), and on
    # rows.T @ rows past that
    for k in range(instances):
        sr = SharedRandomness(seed, k)
        for count, length in ((64, 240), (240, 64)):
            rows = sr.substream(count).bit_matrix(count, length).astype(np.float64)
            gram = rows @ rows.T if count <= length else rows.T @ rows
            reference = operator_norm(gram)
            if abs(_power_norm(gram) - reference) > 1e-9 * reference:
                return CheckResult(
                    "norm-bounds", False, f"power norm of {count}x{length} rows {k} drifted from eigensolver"
                )
    return CheckResult("norm-bounds", True, "contractions in [0,1], power norms match eigensolver")


def verify_suite(max_qubits: int = 8, instances: int = 20, seed: int = 715) -> list[CheckResult]:
    """All exact algebraic checks; any failure flips the exit status.

    The protocol target checks need at least 6 qubits of room (the block
    count must exceed the gadget's source length), so below that only the
    core identities run.
    """
    if max_qubits > 12:
        raise proto.ConfigError("verify suite capped at 12 qubits")
    # with no instances or no qubits the checks would pass without checking
    if max_qubits < 1:
        raise proto.ConfigError("max_qubits must be >= 1")
    if instances < 1:
        raise proto.ConfigError("instances must be >= 1")
    checks = [
        _check_transform_involution(max_qubits),
        _check_row_orthogonality(max_qubits),
        _check_distance_identity(),
    ]
    sizes = [n for n in (6, 8) if n <= max_qubits]
    for n in sizes:
        checks += [
            _verify_targets(kind, instances, seed, n)
            for kind, check in _TARGET_CHECKS.items()
            if check.qubits is None
        ]
    if sizes:
        checks += [
            _verify_targets(kind, instances, seed, check.qubits)
            for kind, check in _TARGET_CHECKS.items()
            if check.qubits is not None
        ]
        checks.append(_check_norm_bounds(instances, seed))
    return checks
