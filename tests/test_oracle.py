"""Simulated estimator contracts."""
from fractions import Fraction
from functools import partial

import pytest

from gapcomm.bits import SharedRandomness
from gapcomm.oracle import PUSH_DOWN, PUSH_UP, OracleSpec, estimate


def estimator(model, accuracy=0.0, failure=0.0, seed=0):
    """``estimate`` bound to one spec and one randomness stream."""
    spec = OracleSpec(model=model, accuracy=accuracy, failure_prob=failure)
    return partial(estimate, spec=spec, rng=SharedRandomness(seed))


class TestExact:
    def test_passthrough(self):
        assert estimate(0.5, OracleSpec(), PUSH_UP, SharedRandomness(0, 0)) == 0.5

    def test_fractions_stay_exact(self):
        value = Fraction(3, 7)
        out = estimate(value, OracleSpec(), PUSH_UP, SharedRandomness(0, 0))
        assert out == value and isinstance(out, Fraction)


class TestRelativeModels:
    def test_adversarial_of_zero_is_zero(self):
        assert estimator("relative-adversarial", 0.1)(0.0, push=PUSH_UP) == 0.0

    def test_adversarial_direction(self):
        est = estimator("relative-adversarial", 0.25)
        assert est(2.0, push=PUSH_UP) == pytest.approx(2.5)
        assert est(2.0, push=PUSH_DOWN) == pytest.approx(1.5)
        # a negative value still moves in plain value space
        assert est(-2.0, push=PUSH_UP) == pytest.approx(-1.5)

    def test_uniform_draws_honor_the_band(self):
        est = estimator("relative-uniform", 0.2, seed=42)
        value = 1.75
        deviations = []
        for draw in range(10_000):
            out = est(value, push=PUSH_UP, draw=draw)
            rel = abs(out - value) / value
            assert rel <= 0.2 + 1e-12
            deviations.append(rel)
        worst = max(deviations)
        assert 0.19 <= worst <= 0.20

    def test_draws_are_pure_in_the_stream_position(self):
        est = estimator("relative-uniform", 0.3, seed=5)
        assert est(1.0, push=PUSH_UP, draw=3) == est(1.0, push=PUSH_UP, draw=3)
        assert est(1.0, push=PUSH_UP, draw=3) != est(1.0, push=PUSH_UP, draw=4)


class TestAdditive:
    def test_full_magnitude_shift(self):
        est = estimator("additive", 0.125)
        assert est(1.0, push=PUSH_UP) == pytest.approx(1.125)
        assert est(1.0, push=PUSH_DOWN) == pytest.approx(0.875)


class TestFailureInjection:
    def test_certain_failure_is_out_of_band(self):
        est = estimator("relative-uniform", 0.1, failure=1.0, seed=1)
        assert est(2.0, push=PUSH_UP) == pytest.approx(2.0 * (1.0 + 10.0 * 0.1))

    def test_no_failure_at_probability_zero(self):
        est = estimator("relative-uniform", 0.1, failure=0.0, seed=1)
        for draw in range(100):
            out = est(3.0, push=PUSH_UP, draw=draw)
            assert abs(out - 3.0) <= 0.3 + 1e-12

    def test_failure_rate_tracks_probability(self):
        est = estimator("relative-uniform", 0.05, failure=1 / 3, seed=7)
        fails = sum(
            1 for d in range(3000) if abs(est(1.0, push=PUSH_UP, draw=d) - 1.0) > 0.05 + 1e-9
        )
        assert abs(fails / 3000 - 1 / 3) < 0.05


class TestValidation:
    def test_unknown_model(self):
        with pytest.raises(ValueError):
            OracleSpec(model="psychic")

    def test_negative_accuracy(self):
        with pytest.raises(ValueError):
            OracleSpec(model="additive", accuracy=-0.1)

    @pytest.mark.parametrize("accuracy", [float("nan"), float("inf"), float("-inf")])
    def test_accuracy_must_be_finite(self, accuracy):
        # a NaN or infinite accuracy turns every noisy estimate into NaN
        with pytest.raises(ValueError, match="finite"):
            OracleSpec(model="relative-uniform", accuracy=accuracy)

    def test_failure_prob_range(self):
        with pytest.raises(ValueError):
            OracleSpec(failure_prob=1.5)

    def test_exact_model_takes_no_failure_prob(self):
        # a failed exact draw would return v * (1 + 10 * 0) = v: the setting did nothing
        with pytest.raises(ValueError, match="exact oracle never fails"):
            OracleSpec("exact", failure_prob=0.5)
