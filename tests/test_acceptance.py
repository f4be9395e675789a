"""Acceptance gate: every release criterion at its pinned tolerance.

Each criterion prints one [PASS]/[FAIL] line (visible under ``pytest -s``
or in captured output on failure) and then asserts.

Known red: criterion 4 pins the majority-bias constant at 0.75, which
exceeds the floor 1/sqrt(2*pi) ~ 0.3989 that an odd majority vote actually
delivers, so the one-sided gap event concentrates near 0.71 instead of the
required 0.80. The check runs exactly as pinned and fails honestly; the
companion run at the shipped default constant passes both floors. See the
docstring on gapcomm.ghd.DEFAULT_BIAS_C.
"""
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import gapcomm.protocols as proto
from gapcomm.bits import SharedRandomness
from gapcomm.ghd import GhdParams, encode_alice, encode_bob, gap_statistics
from gapcomm.harness import ExperimentConfig, run_experiment, sample_instance
from gapcomm.oracle import OracleSpec
from gapcomm.pauli import PauliMask
from gapcomm.shadows import (
    ClassicalDensityMatrix,
    reference_shadow_pair,
    to_one_way_protocol,
)
from gapcomm.states import ExactState
from gapcomm.verify import verify_suite

ACCEPT_SEED = 20240601

END_TO_END = (
    ("general-state", 12),
    ("pauli-state", 12),
    ("observable-pauli", 256),
    ("observable-general", 8),
    ("inner-product", 12),
)


def announce(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def run_cfg(kind, qubits, **kw):
    base = dict(
        protocol=kind,
        qubits=qubits,
        epsilon=0.3,
        trials=2000,
        root_seed=ACCEPT_SEED,
        per_trial_records=True,
    )
    base.update(kw)
    return run_experiment(ExperimentConfig(**base))


@pytest.fixture(scope="module")
def exact_runs():
    t0 = time.monotonic()
    runs = {kind: run_cfg(kind, qubits) for kind, qubits in END_TO_END}
    runs["_elapsed"] = time.monotonic() - t0
    return runs


@pytest.fixture(scope="module")
def adversarial_runs():
    return {
        kind: run_cfg(kind, qubits, oracle_model="relative-adversarial")
        for kind, qubits in END_TO_END
    }


# -- helpers shared by the target-equivalence criterion ---------------------

I2 = np.eye(2, dtype=np.int64)
Z2 = np.array([[1, 0], [0, -1]], dtype=np.int64)
X2 = np.array([[0, 1], [1, 0]], dtype=np.int64)


def kron_oracle(mask: PauliMask) -> np.ndarray:
    singles = [{"I": I2, "Z": Z2, "X": X2}[mask.letter(q)] for q in range(1, mask.qubits + 1)]
    out = singles[-1]
    for mat in reversed(singles[:-1]):
        out = np.kron(out, mat)
    return out


def draw(pc, seed):
    sr = SharedRandomness(seed)
    x = sample_instance(sr.substream(3), pc, True)  # STREAM_INSTANCE
    l = sr.substream(4).integer(1, pc.capacity + 1)
    return sr, x, l


def queried_codewords(x, l, pc, sr):
    i, j = proto.decompose_index(l, pc.ghd.gamma)
    gamma = pc.ghd.gamma
    block = x[(j - 1) * gamma : j * gamma]
    return encode_alice(block, pc.ghd, sr), encode_bob(i, pc.ghd, sr), i, j


def doubled_contraction(pc, l, dim):
    """sqrt(2) * (Bob's contraction rows), built by hand from the definition."""
    i, j = proto.decompose_index(l, pc.ghd.gamma)
    code_len = pc.ghd.code_len
    col = pc.block_count - pc.ghd.gamma + i
    strip = np.zeros((code_len, dim), dtype=np.int64)
    for k in range(code_len):
        strip[k, (j - 1) * code_len + k] = 1
        strip[k, (col - 1) * code_len + k] = 1
    return strip


def test_criterion_1_exact_algebra_suite():
    t0 = time.monotonic()
    checks = verify_suite(max_qubits=8, instances=20, seed=ACCEPT_SEED)
    elapsed = time.monotonic() - t0
    bad = [c.name for c in checks if not c.passed]
    ok = not bad and elapsed < 60.0
    announce(
        "criterion-1 exact-algebra-suite",
        ok,
        f"{len(checks)} checks, failures={bad}, {elapsed:.1f}s (budget 60s)",
    )
    assert ok


def test_criterion_2_target_value_equivalence():
    t0 = time.monotonic()
    violations = []

    for qubits in (6, 8):
        pc = proto.ProtocolConfig(kind="general-state", qubits=qubits, ghd=GhdParams(epsilon=0.5))
        for k in range(50):
            sr, x, l = draw(pc, ACCEPT_SEED + k)
            msg = proto.ALICE["general-state"](x, pc, sr)
            res = proto.BOB["general-state"](msg, l, pc, sr, OracleSpec())
            state, _ = ExactState.deserialize(msg.main_payload)
            w = doubled_contraction(pc, l, state.numerators.shape[0]) @ state.numerators
            if res.target != Fraction(int(w @ w), 2 * state.norm_sq):
                violations.append(("general-state", qubits, k))

    for qubits in (6, 8):
        pc = proto.ProtocolConfig(kind="pauli-state", qubits=qubits, ghd=GhdParams(epsilon=0.5))
        for k in range(50):
            sr, x, l = draw(pc, ACCEPT_SEED + k)
            msg = proto.ALICE["pauli-state"](x, pc, sr)
            res = proto.BOB["pauli-state"](msg, l, pc, sr, OracleSpec())
            state, _ = ExactState.deserialize(msg.main_payload)
            mask = PauliMask(z=l - 1, x=1 << qubits, qubits=qubits + 1)
            dense = kron_oracle(mask)
            nums = state.numerators
            if res.target != Fraction(int(nums @ (dense @ nums)), state.norm_sq):
                violations.append(("pauli-state", qubits, k))

    for qubits in (6, 8):
        pc = proto.ProtocolConfig(
            kind="observable-general", qubits=qubits, ghd=GhdParams(epsilon=0.5)
        )
        for k in range(50):
            sr, x, l = draw(pc, ACCEPT_SEED + k)
            msg = proto.ALICE["observable-general"](x, pc, sr)
            res = proto.BOB["observable-general"](msg, l, pc, sr, OracleSpec())
            a, b, i, j = queried_codewords(x, l, pc, sr)
            summed = a.astype(np.int64) + b.astype(np.int64)
            a_rows, b_rows = proto.encode_block_matrices(x, pc, sr)
            cols = np.concatenate([a_rows, b_rows], axis=0).T.astype(np.float64)
            norm = float(np.abs(np.linalg.eigvalsh(cols.T @ cols)).max())
            if abs(float(res.target) - int(summed @ summed) / (2 * norm)) > 1e-9:
                violations.append(("observable-general", qubits, k))

    for qubits in (64, 100):  # classical string budget; smallest feasible scales
        pc = proto.ProtocolConfig(
            kind="observable-pauli", qubits=qubits, ghd=GhdParams(epsilon=0.5)
        )
        for k in range(50):
            sr, x, l = draw(pc, ACCEPT_SEED + k)
            msg = proto.ALICE["observable-pauli"](x, pc, sr)
            res = proto.BOB["observable-pauli"](msg, l, pc, sr, OracleSpec())
            a, b, _, _ = queried_codewords(x, l, pc, sr)
            delta = sum(1 for t in range(len(a)) if a[t] != b[t])
            if res.target != Fraction(-delta, pc.ghd.code_len):
                violations.append(("observable-pauli", qubits, k))

    for qubits in (6, 8):
        pc = proto.ProtocolConfig(kind="inner-product", qubits=qubits, ghd=GhdParams(epsilon=0.5))
        for k in range(50):
            sr, x, l = draw(pc, ACCEPT_SEED + k)
            msg = proto.ALICE["inner-product"](x, pc, sr)
            res = proto.BOB["inner-product"](msg, l, pc, sr, OracleSpec())
            state, _ = ExactState.deserialize(msg.main_payload)
            i, j = proto.decompose_index(l, pc.ghd.gamma)
            b = encode_bob(i, pc.ghd, sr)
            other = np.zeros(state.numerators.shape[0], dtype=np.int64)
            start = (j - 1) * pc.ghd.code_len
            other[start : start + pc.ghd.code_len] = b
            brute = int(state.numerators @ other) / math.sqrt(state.norm_sq * int(np.count_nonzero(b)))
            if abs(float(res.target) - brute) > 1e-12 * max(1.0, abs(brute)):
                violations.append(("inner-product", qubits, k))

    elapsed = time.monotonic() - t0
    ok = not violations and elapsed < 300.0
    announce(
        "criterion-2 target-value-equivalence",
        ok,
        f"500 instances across 5 protocols, violations={violations[:3]}, "
        f"{elapsed:.1f}s (budget 300s)",
    )
    assert ok


def test_criterion_3_contraction_norm_bounds():
    worst_low, worst_high = 0.0, 1.0
    for qubits in (6, 8):
        pc = proto.ProtocolConfig(kind="general-state", qubits=qubits, ghd=GhdParams(epsilon=0.5))
        dim = 1 << (qubits + pc.pad_exponent)
        rng = np.random.default_rng(ACCEPT_SEED + qubits)
        for _ in range(50):
            l = int(rng.integers(1, pc.capacity + 1))
            doubled = doubled_contraction(pc, l, dim).astype(np.float64)
            strip = doubled / math.sqrt(2.0)
            # nonzero spectrum of the contraction observable; the remaining
            # eigenvalues are structural zeros
            eigs = np.linalg.eigvalsh(strip @ strip.T)
            worst_low = min(worst_low, float(eigs.min()))
            worst_high = max(worst_high, float(eigs.max()))
    ok = worst_low >= -1e-9 and worst_high <= 1 + 1e-9
    announce(
        "criterion-3 contraction-norm-bounds",
        ok,
        f"100 instances, spectrum within [{worst_low:.2e}, {worst_high:.12f}]",
    )
    assert ok


def test_criterion_4_gap_events_at_pinned_legacy_constant():
    """Pinned configuration: epsilon 0.3, bias constant 0.75, 2000 trials.

    Expected to fail: 0.75 is above the odd-majority bias floor, so the
    one-sided event cannot reach the 0.80 floor (it concentrates ~0.71).
    """
    t0 = time.monotonic()
    params = GhdParams(epsilon=0.3, bias_c=0.75)
    stats = gap_statistics(params, trials=2000, sr=SharedRandomness(ACCEPT_SEED))
    elapsed = time.monotonic() - t0
    ok = (
        stats["zero_event_freq"] >= 0.80
        and stats["one_event_freq"] >= 0.80
        and elapsed < 120.0
    )
    announce(
        "criterion-4 gap-events (bias_c=0.75, as pinned)",
        ok,
        f"zero-side {stats['zero_event_freq']:.4f}, one-side {stats['one_event_freq']:.4f}, "
        f"floors 0.80, {elapsed:.1f}s (budget 120s)",
    )
    assert ok


def test_criterion_4_gap_events_at_default_constant():
    t0 = time.monotonic()
    stats = gap_statistics(
        GhdParams(epsilon=0.3), trials=2000, sr=SharedRandomness(ACCEPT_SEED)
    )
    elapsed = time.monotonic() - t0
    ok = (
        stats["zero_event_freq"] >= 0.80
        and stats["one_event_freq"] >= 0.80
        and elapsed < 120.0
    )
    announce(
        "criterion-4 gap-events (default bias_c)",
        ok,
        f"zero-side {stats['zero_event_freq']:.4f}, one-side {stats['one_event_freq']:.4f}, "
        f"floors 0.80, {elapsed:.1f}s (budget 120s)",
    )
    assert ok


def test_criterion_5_end_to_end_recovery(exact_runs):
    rates = {
        kind: exact_runs[kind].results["success_rate"] for kind, _ in END_TO_END
    }
    elapsed = exact_runs["_elapsed"]
    side_ok = all(
        exact_runs[kind].message["side_bits"] < exact_runs[kind].message["main_bits"]
        for kind, _ in END_TO_END
    )
    ok = all(rate >= 0.80 for rate in rates.values()) and elapsed < 600.0 and side_ok
    announce(
        "criterion-5 end-to-end-recovery",
        ok,
        f"rates {rates}, side<main={side_ok}, {elapsed:.0f}s (budget 600s)",
    )
    assert ok


def test_criterion_6_adversarial_budget_determinism(exact_runs, adversarial_runs):
    problems = []
    for kind, qubits in END_TO_END:
        adv = adversarial_runs[kind]
        budget = adv.derived["delta_error_budget"]
        if adv.results["protocol_errors"]:
            problems.append(f"{kind}: protocol errors")
        if adv.results["max_delta_error"] > budget + 1e-9:
            problems.append(
                f"{kind}: delta error {adv.results['max_delta_error']:.3f} > {budget:.3f}"
            )
        # decode flips must be confined to the open gap band, so recovery is
        # bit-identical to the exact run outside it
        n = adv.derived["code_len"]
        lower, upper = n / 2 - 2 * math.sqrt(n), n / 2 - math.sqrt(n)
        for exact_rec, adv_rec in zip(exact_runs[kind].per_trial, adv.per_trial):
            if exact_rec["bit"] != adv_rec["bit"]:
                if not lower < adv_rec["delta_exact"] < upper:
                    problems.append(f"{kind}: out-of-band flip at trial {adv_rec['trial']}")
                    break

        # statistical compatibility: the two runs' sampling intervals must
        # overlap (a point-in-interval test is vacuous here: both rates sit
        # within a trial or two of 1, so the exact interval is narrower than
        # the legitimate in-band flip mass)
        ex_lo, ex_hi = exact_runs[kind].results["wilson95"]
        ad_lo, ad_hi = adv.results["wilson95"]
        if max(ex_lo, ad_lo) > min(ex_hi, ad_hi):
            problems.append(
                f"{kind}: intervals disjoint [{ex_lo:.4f},{ex_hi:.4f}] vs "
                f"[{ad_lo:.4f},{ad_hi:.4f}]"
            )
        if adv.results["success_rate"] < 0.80:
            problems.append(f"{kind}: adversarial rate below the recovery floor")

    ok = not problems
    announce("criterion-6 adversarial-budget-determinism", ok, f"problems={problems or 'none'}")
    assert ok


def test_criterion_7_degradation_sanity(adversarial_runs):
    budget_rate = adversarial_runs["pauli-state"].results["success_rate"]
    literal = run_cfg(
        "pauli-state", 12, oracle_model="relative-adversarial", oracle_accuracy=0.3
    )
    literal_rate = literal.results["success_rate"]
    ok = (budget_rate - literal_rate >= 0.02) or (
        budget_rate >= 0.95 and literal_rate >= 0.95
    )
    announce(
        "criterion-7 degradation-sanity",
        ok,
        f"budgeted accuracy {budget_rate:.4f} vs full-epsilon accuracy {literal_rate:.4f}",
    )
    assert ok


def test_criterion_8_shadow_reference_accuracy():
    copies = 10_000
    qubits = 3
    pair = reference_shadow_pair(copies)
    adapter = to_one_way_protocol(pair)
    rng = np.random.default_rng(ACCEPT_SEED)
    hits = 0
    draws = 0
    bits_ok = True
    while draws < 200:
        psi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        psi /= np.linalg.norm(psi)
        z = int(rng.integers(0, 8))
        x = int(rng.integers(0, 8))
        if z & x:
            continue
        mask = PauliMask(z=z, x=x, qubits=qubits)
        exact = float(np.real(psi.conj() @ kron_oracle(mask).astype(complex) @ psi))
        if abs(exact) < 0.5:
            continue
        draws += 1
        rho = ClassicalDensityMatrix.from_pure(psi)
        msg = adapter.alice(rho, SharedRandomness(ACCEPT_SEED, draws))
        if msg.main_bits != copies * 3 * qubits:
            bits_ok = False
        estimate = adapter.bob(msg, mask)
        if abs(estimate - exact) <= 0.2 * abs(exact):
            hits += 1
    ok = hits >= 180 and bits_ok
    announce(
        "criterion-8 shadow-reference-accuracy",
        ok,
        f"{hits}/200 draws within 20% relative error, message bits exact={bits_ok}",
    )
    assert ok


def test_criterion_9_report_determinism():
    base = dict(
        protocol="pauli-state",
        qubits=10,
        epsilon=0.3,
        trials=100,
        root_seed=ACCEPT_SEED,
    )
    serial = run_experiment(ExperimentConfig(**base, workers=1)).to_json()
    parallel = run_experiment(ExperimentConfig(**base, workers=2)).to_json()
    repeat = run_experiment(ExperimentConfig(**base, workers=1)).to_json()
    gap_a = gap_statistics(GhdParams(epsilon=0.3), 200, SharedRandomness(ACCEPT_SEED))
    gap_b = gap_statistics(GhdParams(epsilon=0.3), 200, SharedRandomness(ACCEPT_SEED))
    ok = serial == parallel == repeat and gap_a == gap_b
    announce(
        "criterion-9 report-determinism",
        ok,
        f"worker counts byte-identical={serial == parallel}, reruns identical={serial == repeat}",
    )
    assert ok
    json.loads(serial)  # well-formed JSON document
