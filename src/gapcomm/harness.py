"""Monte Carlo experiment runner, exact-identity verification suite, reports.

Trials are pure functions of (config, trial index): every random draw comes
from a counter-based stream keyed by the root seed and the trial index, so
reports are byte-identical for any worker count and trial order.
"""
from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import ghd as ghd_mod
from . import protocols as proto
from .bits import (
    STREAM_INDEX,
    STREAM_INSTANCE,
    BitVector,
    SharedRandomness,
    hamming,
    hamming_via_identity,
    inner_product,
)
from .fwht import character_matrix, fwht
from .ghd import GhdParams, decision_threshold, sample_sources
from .messages import ProtocolMessage
from .observables import operator_norm
from .oracle import MODELS, OracleSpec
from .pauli import PauliMask
from .states import ExactState

SAMPLING_MODES = ("odd-weight", "unrestricted")
_WILSON_Z = 1.959963984540054  # two-sided 95%


def wilson95(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion at 95% confidence."""
    if trials <= 0:
        return 0.0, 0.0
    if not 0 <= successes <= trials:
        raise ValueError(f"successes {successes} outside [0, {trials}]")
    z2 = _WILSON_Z * _WILSON_Z
    p = successes / trials
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    spread = (
        _WILSON_Z
        * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials))
        / denom
    )
    # at the boundaries the exact endpoints are 0 and 1; don't let float
    # rounding of the radical pull them inward
    lo = 0.0 if successes == 0 else max(0.0, center - spread)
    hi = 1.0 if successes == trials else min(1.0, center + spread)
    return lo, hi


@dataclass(frozen=True)
class ExperimentConfig:
    protocol: str
    qubits: int
    epsilon: float
    trials: int
    root_seed: int
    bias_c: float = ghd_mod.DEFAULT_BIAS_C
    slack_d: float = ghd_mod.DEFAULT_SLACK_D
    oracle_model: str = "exact"
    oracle_accuracy: float | None = None  # None -> derived budget
    failure_prob: float = 0.0
    sampling: str = "odd-weight"
    oracle_slack: float = 1.0
    workers: int = 1
    per_trial_records: bool = False

    def __post_init__(self):
        if self.trials < 1:
            raise proto.ConfigError("trials must be >= 1")
        if self.sampling not in SAMPLING_MODES:
            raise proto.ConfigError(f"unknown sampling mode {self.sampling!r}")
        if self.oracle_model not in MODELS:
            raise proto.ConfigError(f"unknown oracle model {self.oracle_model!r}")
        if self.workers < 1:
            raise proto.ConfigError("workers must be >= 1")

    def protocol_config(self) -> proto.ProtocolConfig:
        params = GhdParams(epsilon=self.epsilon, bias_c=self.bias_c, slack_d=self.slack_d)
        return proto.ProtocolConfig(
            kind=self.protocol,
            qubits=self.qubits,
            ghd=params,
            oracle_slack=self.oracle_slack,
        )

    def resolved_accuracy(self, pc: proto.ProtocolConfig) -> float:
        if self.oracle_model == "exact":
            return 0.0
        if self.oracle_accuracy is not None:
            return self.oracle_accuracy
        return pc.oracle_accuracy


def sample_instance(
    gen: np.random.Generator, pc: proto.ProtocolConfig, odd_weight: bool
) -> BitVector:
    """Draw Alice's string; odd-weight mode keeps every block's weight odd."""
    gamma = pc.ghd.gamma
    return BitVector(sample_sources(gen, pc.block_count - gamma, gamma, odd_weight).reshape(-1))


def _queried_codewords(x, l, pc, sr) -> tuple[BitVector, BitVector]:
    """Re-encode the queried block and Bob's column directly."""
    i, j = proto.decompose_index(l, pc.ghd.gamma)
    gamma = pc.ghd.gamma
    block = BitVector(x.bits[(j - 1) * gamma : j * gamma])
    return ghd_mod.encode_alice(block, pc.ghd, sr), ghd_mod.encode_bob(i, pc.ghd, sr)


def run_trial(cfg: ExperimentConfig, pc: proto.ProtocolConfig, trial: int) -> dict:
    """One full Alice -> wire -> Bob round trip plus independent diagnostics."""
    sr = SharedRandomness(cfg.root_seed).substream(trial)
    inst_gen = sr.substream(STREAM_INSTANCE).generator()
    x = sample_instance(inst_gen, pc, cfg.sampling == "odd-weight")
    l = int(sr.substream(STREAM_INDEX).generator().integers(1, pc.capacity + 1))
    spec = OracleSpec(
        model=cfg.oracle_model,
        accuracy=cfg.resolved_accuracy(pc),
        failure_prob=cfg.failure_prob,
        rng=sr,
    )

    record = {"trial": trial, "l": l, "x_l": x.bit(l)}
    try:
        msg = proto.ALICE[cfg.protocol](x, pc, sr)
        msg = ProtocolMessage.from_wire(msg.to_wire())
        result = proto.BOB[cfg.protocol](msg, l, pc, sr, spec)
    except proto.ProtocolError as exc:
        record.update(
            bit=None, success=False, error=str(exc), delta_exact=None,
            delta_estimate=None, delta_error=None, main_bits=None, side_bits=None,
        )
        return record

    delta_exact = hamming(*_queried_codewords(x, l, pc, sr))  # independent ground truth

    record.update(
        bit=result.bit,
        success=result.bit == x.bit(l),
        error=None,
        delta_exact=delta_exact,
        delta_estimate=float(result.delta_estimate),
        delta_error=abs(float(result.delta_estimate) - delta_exact),
        main_bits=msg.main_bits,
        side_bits=msg.side_bits,
    )
    return record


def _trial_chunk(args: tuple) -> list[dict]:
    cfg, start, stop = args
    pc = cfg.protocol_config()
    return [run_trial(cfg, pc, t) for t in range(start, stop)]


@dataclass
class ExperimentReport:
    config: dict
    derived: dict
    results: dict
    message: dict
    per_trial: list[dict] | None = None

    def to_json(self) -> str:
        doc = {
            "config": self.config,
            "derived": self.derived,
            "results": self.results,
            "message": self.message,
        }
        return json.dumps(doc, sort_keys=True, indent=2)

    def write_csv(self, path: str) -> None:
        import csv

        if self.per_trial is None:
            raise ValueError("per-trial records were not collected")
        fields = [
            "trial", "l", "x_l", "bit", "success", "delta_exact",
            "delta_estimate", "delta_error", "error",
        ]
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fields, extrasaction="ignore")
            writer.writeheader()
            writer.writerows(self.per_trial)


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run all trials, reduce order-independently, and assemble the report."""
    pc = cfg.protocol_config()
    chunk = max(1, math.ceil(cfg.trials / (cfg.workers * 4)))
    spans = [
        (cfg, start, min(start + chunk, cfg.trials))
        for start in range(0, cfg.trials, chunk)
    ]
    if cfg.workers == 1:
        chunks = [_trial_chunk(span) for span in spans]
    else:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            chunks = list(pool.map(_trial_chunk, spans))
    records = [rec for chunk_recs in chunks for rec in chunk_recs]

    successes = sum(1 for r in records if r["success"])
    errors = [r["error"] for r in records if r["error"]]
    delta_errors = [r["delta_error"] for r in records if r["delta_error"] is not None]
    main_bits = {r["main_bits"] for r in records if r["main_bits"] is not None}
    side_bits = {r["side_bits"] for r in records if r["side_bits"] is not None}
    if len(main_bits) > 1 or len(side_bits) > 1:
        raise RuntimeError("message sizes varied across trials of one config")

    report = ExperimentReport(
        config={
            "protocol": cfg.protocol,
            "qubits": cfg.qubits,
            "epsilon": cfg.epsilon,
            "trials": cfg.trials,
            "root_seed": cfg.root_seed,
            "bias_c": cfg.bias_c,
            "slack_d": cfg.slack_d,
            "oracle_model": cfg.oracle_model,
            "oracle_accuracy": cfg.resolved_accuracy(pc),
            "failure_prob": cfg.failure_prob,
            "sampling": cfg.sampling,
            "oracle_slack": cfg.oracle_slack,
        },
        derived={
            "gamma": pc.ghd.gamma,
            "amp_factor": pc.ghd.amp_factor,
            "code_len": pc.ghd.code_len,
            "block_count": pc.block_count,
            "capacity": pc.capacity,
            "pad_exponent": pc.pad_exponent,
            "decision_threshold": decision_threshold(pc.ghd),
            "derived_oracle_accuracy": pc.oracle_accuracy,
            "delta_error_budget": pc.ghd.slack_d * math.sqrt(pc.ghd.code_len),
        },
        results={
            "trials": cfg.trials,
            "successes": successes,
            "success_rate": successes / cfg.trials,
            "wilson95": list(wilson95(successes, cfg.trials)),
            "protocol_errors": len(errors),
            "error_samples": errors[:5],
            "max_delta_error": max(delta_errors) if delta_errors else None,
        },
        message={
            "main_bits": main_bits.pop() if main_bits else None,
            "side_bits": side_bits.pop() if side_bits else None,
        },
        per_trial=records if cfg.per_trial_records else None,
    )
    return report


# ---------------------------------------------------------------------------
# exact-identity verification suite
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _check_transform_involution(max_qubits: int) -> CheckResult:
    top = max(10, max_qubits)
    rng = np.random.default_rng(11)
    for n in range(1, top + 1):
        dim = 1 << n
        if n <= 10:
            basis = np.eye(dim, dtype=np.int64)
            for k in range(dim):
                if not np.array_equal(fwht(fwht(basis[k])), dim * basis[k]):
                    return CheckResult("transform-involution", False, f"basis {k} at n={n}")
        for _ in range(5):
            v = rng.integers(-1000, 1000, size=dim).astype(np.int64)
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
            mask = PauliMask.from_ints(z=k, x=0, qubits=n)
            alt = np.array([mask.diagonal_sign(y) for y in range(dim)], dtype=np.int64)
            if not np.array_equal(rows[k], alt):
                return CheckResult("row-orthogonality", False, f"row {k} mismatch at n={n}")
        gram = rows @ rows.T
        if not np.array_equal(gram, dim * np.eye(dim, dtype=np.int64)):
            return CheckResult("row-orthogonality", False, f"gram != 2^n I at n={n}")
    return CheckResult("row-orthogonality", True, f"n <= {top}, exact")


def _check_distance_identity(pairs: int = 10_000) -> CheckResult:
    rng = np.random.default_rng(12)
    for k in range(pairs):
        length = int(rng.integers(1, 96))
        x = BitVector(rng.integers(0, 2, size=length, dtype=np.uint8))
        y = BitVector(rng.integers(0, 2, size=length, dtype=np.uint8))
        if hamming_via_identity(x.nnz, y.nnz, inner_product(x, y)) != hamming(x, y):
            return CheckResult("distance-identity", False, f"violation at pair {k}")
    return CheckResult("distance-identity", True, f"{pairs} random pairs, zero violations")


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


def _sum_norm_formula_target(x, l, pc, sr, msg) -> Fraction:
    a, b = _queried_codewords(x, l, pc, sr)
    summed = a.bits.astype(np.int64) + b.bits.astype(np.int64)
    state, _ = ExactState.deserialize(msg.main_payload)
    return Fraction(2 * int(np.dot(summed, summed)) * (1 << (2 * pc.qubits)), state.norm_sq)


def _eigensolver_target(x, l, pc, sr, msg) -> float:
    # brute force: rebuild the Gram matrix and use an eigensolver norm
    a_rows, b_rows = proto.encode_block_matrices(x, pc, sr)
    m = np.concatenate([a_rows, b_rows], axis=0).astype(np.float64).T
    gram = m.T @ m
    norm = float(np.linalg.eigvalsh(gram)[-1])
    i, j = proto.decompose_index(l, pc.ghd.gamma)
    col_a, col_b = j - 1, (1 << pc.qubits) - pc.ghd.gamma + i - 1
    sum_norm = gram[col_a, col_a] + 2 * gram[col_a, col_b] + gram[col_b, col_b]
    return sum_norm / (2.0 * norm)


def _scaled_distance_target(x, l, pc, sr, msg) -> Fraction:
    a, b = _queried_codewords(x, l, pc, sr)
    return Fraction(-hamming(a, b), pc.ghd.code_len)


def _dense_overlap_target(x, l, pc, sr, msg) -> float:
    i, j = proto.decompose_index(l, pc.ghd.gamma)
    state, _ = ExactState.deserialize(msg.main_payload)
    b = ghd_mod.encode_bob(i, pc.ghd, sr)
    dense_other = np.zeros(state.numerators.shape[0], dtype=np.int64)
    start = (j - 1) * pc.ghd.code_len
    dense_other[start : start + pc.ghd.code_len] = b.bits
    cross = int(np.dot(state.numerators, dense_other))
    return cross / math.sqrt(state.norm_sq * b.nnz)


@dataclass(frozen=True)
class _TargetCheck:
    """How verify_suite checks one kind's target: exactly unless a
    ``tolerance`` is set, at every verify size unless ``qubits`` is fixed."""

    route: Callable
    detail: str
    tolerance: float | None = None
    epsilon: float = 0.5
    qubits: int | None = None


_TARGET_CHECKS = {
    "general-state": _TargetCheck(_dense_contraction_target, ", exact"),
    "pauli-state": _TargetCheck(_sum_norm_formula_target, ", exact"),
    "observable-general": _TargetCheck(_eigensolver_target, " within 1e-9", 1e-9),
    # this protocol's qubit count is the classical string budget; the
    # smallest feasible sizes are perfect squares past the source length
    "observable-pauli": _TargetCheck(_scaled_distance_target, ", exact", epsilon=0.75, qubits=16),
    "inner-product": _TargetCheck(_dense_overlap_target, ", exact cross terms", 1e-12),
}


def _verify_targets(kind: str, instances: int, seed: int, qubits: int) -> CheckResult:
    check = _TARGET_CHECKS[kind]
    pc = _feasible_config(kind, qubits, check.epsilon)
    name = f"target-{kind}-n{qubits}"
    for k in range(instances):
        sr = SharedRandomness(seed).substream(k)
        gen = sr.substream(STREAM_INSTANCE).generator()
        x = sample_instance(gen, pc, True)
        l = int(sr.substream(STREAM_INDEX).generator().integers(1, pc.capacity + 1))
        msg = proto.ALICE[kind](x, pc, sr)
        target = proto.BOB[kind](msg, l, pc, sr, OracleSpec()).target
        expected = check.route(x, l, pc, sr, msg)
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
        l = int(sr.substream(STREAM_INDEX).generator().integers(1, pc.capacity + 1))
        strip = proto.general_state_ml_strip(pc, l)
        eig_small = np.linalg.eigvalsh(strip @ strip.T)
        if eig_small.min() < -1e-9 or eig_small.max() > 1 + 1e-9:
            return CheckResult("norm-bounds", False, f"contraction spectrum at instance {k}")
    rng = np.random.default_rng(seed + 1)
    for _ in range(10):
        sym = rng.standard_normal((64, 64))
        sym = sym + sym.T
        reference = float(np.abs(np.linalg.eigvalsh(sym)).max())
        if abs(operator_norm(sym) - reference) > 1e-9 * max(1.0, reference):
            return CheckResult("norm-bounds", False, "power iteration drifted from eigensolver")
    return CheckResult("norm-bounds", True, "contractions in [0,1], norms match eigensolver")


def verify_suite(max_qubits: int = 8, instances: int = 20, seed: int = 715) -> list[CheckResult]:
    """All exact algebraic checks; any failure flips the exit status.

    The protocol target checks need at least 6 qubits of room (the block
    count must exceed the gadget's source length), so below that only the
    core identities run.
    """
    if max_qubits > 12:
        raise proto.ConfigError("verify suite capped at 12 qubits")
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
