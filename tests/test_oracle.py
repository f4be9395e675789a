"""Simulated estimator contracts."""
from fractions import Fraction

import pytest

from gapcomm.bits import SharedRandomness
from gapcomm.oracle import PUSH_DOWN, PUSH_UP, OracleSpec, estimate


def spec(model, accuracy=0.0, failure=0.0, seed=0):
    return OracleSpec(
        model=model, accuracy=accuracy, failure_prob=failure, rng=SharedRandomness(seed)
    )


class TestExact:
    def test_passthrough(self):
        assert estimate(0.5, OracleSpec()) == 0.5

    # the second spec can fail, but its draw does not
    @pytest.mark.parametrize("oracle", [OracleSpec(), spec("exact", 0.1, failure=1e-12, seed=1)])
    def test_fractions_stay_exact(self, oracle):
        value = Fraction(3, 7)
        out = estimate(value, oracle)
        assert out == value and isinstance(out, Fraction)


class TestRelativeModels:
    def test_adversarial_of_zero_is_zero(self):
        assert estimate(0.0, spec("relative-adversarial", 0.1)) == 0.0

    def test_adversarial_direction(self):
        s = spec("relative-adversarial", 0.25)
        assert estimate(2.0, s, push=PUSH_UP) == pytest.approx(2.5)
        assert estimate(2.0, s, push=PUSH_DOWN) == pytest.approx(1.5)
        # a negative value still moves in plain value space
        assert estimate(-2.0, s, push=PUSH_UP) == pytest.approx(-1.5)

    def test_uniform_draws_honor_the_band(self):
        s = spec("relative-uniform", 0.2, seed=42)
        value = 1.75
        deviations = []
        for draw in range(10_000):
            out = estimate(value, s, draw=draw)
            rel = abs(out - value) / value
            assert rel <= 0.2 + 1e-12
            deviations.append(rel)
        worst = max(deviations)
        assert 0.19 <= worst <= 0.20

    def test_draws_are_pure_in_the_stream_position(self):
        s = spec("relative-uniform", 0.3, seed=5)
        assert estimate(1.0, s, draw=3) == estimate(1.0, s, draw=3)
        assert estimate(1.0, s, draw=3) != estimate(1.0, s, draw=4)


class TestAdditive:
    def test_full_magnitude_shift(self):
        s = spec("additive", 0.125)
        assert estimate(1.0, s, push=PUSH_UP) == pytest.approx(1.125)
        assert estimate(1.0, s, push=PUSH_DOWN) == pytest.approx(0.875)

    def test_unhinted_shift_is_a_coin_flip(self):
        s = spec("additive", 1.0, seed=9)
        outs = {round(estimate(5.0, s, draw=d), 6) for d in range(64)}
        assert outs == {4.0, 6.0}


class TestFailureInjection:
    def test_certain_failure_is_out_of_band(self):
        s = spec("relative-uniform", 0.1, failure=1.0, seed=1)
        assert estimate(2.0, s) == pytest.approx(2.0 * (1.0 + 10.0 * 0.1))

    def test_no_failure_at_probability_zero(self):
        s = spec("relative-uniform", 0.1, failure=0.0, seed=1)
        for draw in range(100):
            out = estimate(3.0, s, draw=draw)
            assert abs(out - 3.0) <= 0.3 + 1e-12

    def test_failure_rate_tracks_probability(self):
        s = spec("relative-uniform", 0.05, failure=1 / 3, seed=7)
        fails = sum(
            1 for d in range(3000) if abs(estimate(1.0, s, draw=d) - 1.0) > 0.05 + 1e-9
        )
        assert abs(fails / 3000 - 1 / 3) < 0.05


class TestValidation:
    def test_unknown_model(self):
        with pytest.raises(ValueError):
            OracleSpec(model="psychic")

    def test_negative_accuracy(self):
        with pytest.raises(ValueError):
            OracleSpec(model="additive", accuracy=-0.1)

    def test_failure_prob_range(self):
        with pytest.raises(ValueError):
            OracleSpec(failure_prob=1.5)
