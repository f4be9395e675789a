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
    honors on every non-failure draw; the exact model ignores it, but it
    must still be finite and nonnegative. With probability ``failure_prob``
    a noisy draw instead returns the out-of-band value
    v * (1 + 10 * accuracy), simulating an estimator blowing its contract in
    a reproducible way. The exact model never fails, so it takes no
    ``failure_prob`` above 0. The spec holds no randomness: each
    ``estimate`` call is handed its stream, so one spec serves every trial
    of a run.
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
        if self.model == "exact" and self.failure_prob > 0.0:
            raise ValueError("the exact oracle never fails: failure_prob must be 0")


def estimate(true_value, spec: OracleSpec, push: int, rng: SharedRandomness, draw: int = 0):
    """One simulated estimate of ``true_value``.

    ``push`` (PUSH_UP / PUSH_DOWN) is the direction in value space that
    hurts the consumer most: the adversarial and additive models shift that
    way. The noise and the failure event are read from ``rng``'s oracle
    substream at position ``draw`` (Bob passes his trial's stream), so
    repeated queries are pure. The exact model returns the value unchanged
    (Fractions stay exact); all noisy paths return floats.
    """
    if spec.model == "exact":
        return true_value

    # the stream's first double decides a failure when one can happen; the
    # next one drives the noise
    draws = rng.substream(STREAM_ORACLE).substream(draw).doubles(2)
    can_fail = spec.failure_prob > 0.0
    v = float(true_value)
    if can_fail and draws[0] < spec.failure_prob:
        return v * (1.0 + 10.0 * spec.accuracy)
    if spec.model == "relative-uniform":
        # numpy's uniform(low, high) is low + (high - low) * next double
        u = draws[1] if can_fail else draws[0]
        low, high = -spec.accuracy, spec.accuracy
        return v + (low + (high - low) * u) * abs(v)
    if spec.model == "relative-adversarial":
        return v + push * spec.accuracy * abs(v)
    # additive: a full-magnitude shift in the hinted direction
    return v + push * spec.accuracy


__all__ = [
    "MODELS",
    "PUSH_UP",
    "PUSH_DOWN",
    "OracleSpec",
    "estimate",
]
