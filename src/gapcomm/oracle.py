"""Simulated estimators standing in for Bob's expectation-value oracle.

The simulator always knows the exact value being estimated; the oracle
models how a real estimator with a relative-error contract (or a flat
additive one) would perturb it, including an out-of-band failure event
fired with a configurable probability.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .bits import STREAM_ORACLE, SharedRandomness

MODELS = ("exact", "relative-uniform", "relative-adversarial", "additive")

PUSH_UP = 1
PUSH_DOWN = -1


@dataclass(frozen=True)
class OracleSpec:
    """Noise model plus accuracy for one simulated estimator.

    ``accuracy`` is the relative (or additive) error bound the estimator
    honors on every non-failure draw; the exact model ignores it there, but
    it must still be finite and nonnegative. With probability
    ``failure_prob`` a draw instead returns the out-of-band value
    v * (1 + 10 * accuracy), simulating an estimator blowing its contract in
    a reproducible way. The spec holds no randomness: each ``estimate`` call
    is handed its stream, so one spec serves every trial of a run.
    """

    model: str = "exact"
    accuracy: float = 0.0
    failure_prob: float = 0.0

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown oracle model {self.model!r}")
        if not 0.0 <= self.accuracy < math.inf:  # NaN or inf would make NaN estimates
            raise ValueError("accuracy must be finite and >= 0")
        if not 0.0 <= self.failure_prob <= 1.0:
            raise ValueError("failure_prob must be in [0, 1]")


def estimate(
    true_value,
    spec: OracleSpec,
    push: int | None = None,
    draw: int = 0,
    rng: SharedRandomness = SharedRandomness(0, 0),
):
    """One simulated estimate of ``true_value``.

    ``push`` (PUSH_UP / PUSH_DOWN) tells the adversarial model which
    direction in value space hurts the consumer most; without a hint it
    pushes up. The noise and the failure event are read from ``rng``'s
    oracle substream at position ``draw`` (Bob passes his trial's stream),
    so repeated queries are pure. The exact model returns the value
    unchanged (Fractions stay exact); all noisy paths return floats.
    """
    if spec.model == "exact" and spec.failure_prob == 0.0:
        return true_value

    # the stream's first double decides a failure when one can happen; the
    # next one drives the noise
    draws = rng.substream(STREAM_ORACLE).substream(draw).doubles(2)
    can_fail = spec.failure_prob > 0.0
    failed = can_fail and draws[0] < spec.failure_prob
    u = draws[1] if can_fail else draws[0]
    v = float(true_value)
    if failed:
        return v * (1.0 + 10.0 * spec.accuracy)
    if spec.model == "exact":
        return true_value
    if spec.model == "relative-uniform":
        # numpy's uniform(low, high) is low + (high - low) * next double
        low, high = -spec.accuracy, spec.accuracy
        return v + (low + (high - low) * u) * abs(v)
    if spec.model == "relative-adversarial":
        direction = PUSH_UP if push is None else push
        return v + direction * spec.accuracy * abs(v)
    # additive: full-magnitude shift, hint-directed or coin-flipped
    direction = push if push is not None else (1 if u < 0.5 else -1)
    return v + direction * spec.accuracy


__all__ = [
    "MODELS",
    "PUSH_UP",
    "PUSH_DOWN",
    "OracleSpec",
    "estimate",
]
