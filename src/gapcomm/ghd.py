"""Index-query-to-gap-Hamming gadget: majority encoder, pad strings, threshold decoder.

Alice holds a string x of ``gamma`` bits; both parties see ``code_len``
public random pad strings of ``gamma`` bits each. Alice's codeword takes,
per code position, the majority of the pad bits at her one-positions;
Bob's codeword for a queried position i is the i-th column of the pad
matrix. Whether x_i is 0 or 1 then separates the codeword Hamming
distance by a sqrt(code_len)-wide gap around code_len/2, so a threshold
test on any estimate of that distance to within ``slack_d * sqrt(code_len)``
recovers the bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from . import _kernels
from .bits import STREAM_INDEX, STREAM_INSTANCE, STREAM_PADS, SharedRandomness, read_only

# Largest majority-bias constant that the odd-vote margin actually delivers:
# for an odd committee of m voters, P(majority agrees with a fixed voter)
# is 1/2 + binom(m-1, (m-1)/2) / 2^m, and that excess times sqrt(m)
# decreases toward 1/sqrt(2*pi) ~ 0.3989. Any bias_c at or below that floor
# keeps the mean-separation argument valid for every odd committee size;
# larger values (up to the sqrt(2/pi) validity cap) overstate the gap and
# the distance concentration visibly degrades. 0.39 leaves a small margin.
DEFAULT_BIAS_C = 0.39
DEFAULT_SLACK_D = 0.49
BIAS_C_SUP = math.sqrt(2.0 / math.pi)


@dataclass(frozen=True)
class GhdParams:
    """Gadget parameters derived from the accuracy target epsilon.

    gamma = ceil(epsilon^-2) source bits are encoded into
    code_len = amp_factor * gamma codeword bits with
    amp_factor = ceil(9 / bias_c^2). ``slack_d`` bounds the tolerated
    additive error on the distance estimate as a fraction of
    sqrt(code_len). Success rates are measured, not proved.
    """

    epsilon: float
    bias_c: float = DEFAULT_BIAS_C
    slack_d: float = DEFAULT_SLACK_D

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")
        try:
            self.gamma
        except OverflowError:
            raise ValueError(
                f"epsilon {self.epsilon} too small: gamma = ceil(epsilon^-2) overflows a float"
            ) from None
        if not 0.0 < self.bias_c < BIAS_C_SUP:
            raise ValueError(
                f"bias_c must be in (0, sqrt(2/pi) = {BIAS_C_SUP:.4f}), got {self.bias_c}"
            )
        try:
            self.code_len
        except ArithmeticError:  # bias_c^2 underflows to 0, or 9 / bias_c^2 to inf
            raise ValueError(
                f"bias_c {self.bias_c} too small: amp_factor = ceil(9 / bias_c^2) overflows a float"
            ) from None
        if not 0.0 <= self.slack_d < 0.5:
            raise ValueError(f"slack_d must be in [0, 1/2), got {self.slack_d}")

    @cached_property
    def gamma(self) -> int:
        return math.ceil(self.epsilon**-2)

    @cached_property
    def amp_factor(self) -> int:
        return math.ceil(9.0 / self.bias_c**2)

    @cached_property
    def code_len(self) -> int:
        return self.amp_factor * self.gamma

    @cached_property
    def exact_threshold(self) -> Fraction:
        """``decision_threshold`` as the exact rational value of that float."""
        return Fraction(decision_threshold(self))


@lru_cache(maxsize=4)
def public_pads(params: GhdParams, sr: SharedRandomness) -> np.ndarray:
    """The shared pad matrix, one gamma-bit public string per code position.

    Row j holds the pad string for code position j+1; column i-1 is Bob's
    codeword for query position i. Derived from the STREAM_PADS substream
    so Alice- and Bob-side calls agree bit for bit. The matrix is a pure
    function of (params, sr), so it is derived once and handed out
    read-only to every later caller with the same key (a trial's Alice,
    Bob and ground truth all share it).
    """
    return read_only(sr.substream(STREAM_PADS).bit_matrix(params.code_len, params.gamma))


def encode_alice(source: np.ndarray, params: GhdParams, sr: SharedRandomness) -> np.ndarray:
    """Majority codeword of Alice's 0/1 source string, as a uint8 array.

    Position j gets the majority of the pad bits r_k^j over Alice's
    one-positions k. An all-zero source encodes to the all-zero codeword
    and even-split majorities resolve to 0 (fixed conventions; the
    analysis-facing sampling mode keeps the selection odd so ties never
    arise there).
    """
    if len(source) != params.gamma:
        raise ValueError(f"source length {len(source)} != gamma {params.gamma}")
    return _kernels.majority_rows(public_pads(params, sr), source.nonzero()[0])


def encode_bob(i: int, params: GhdParams, sr: SharedRandomness) -> np.ndarray:
    """Bob's codeword for query position i: column i of the pads, as a
    read-only uint8 view of them."""
    if not 1 <= i <= params.gamma:
        raise IndexError(f"query position {i} out of range [1, {params.gamma}]")
    return public_pads(params, sr)[:, i - 1]


def decision_threshold(params: GhdParams) -> float:
    """Midpoint of the distance gap: code_len/2 - 1.5*sqrt(code_len)."""
    return params.code_len / 2.0 - 1.5 * math.sqrt(params.code_len)


def threshold_for(value, params: GhdParams):
    """The decision threshold in the form ``value`` compares with cheapest.

    Python compares a Fraction with a float exactly, but converts the float
    to a Fraction on every comparison; a Fraction gets the threshold
    converted once per ``GhdParams``, anything else the float. Every
    comparison gives the same result either way.
    """
    return params.exact_threshold if isinstance(value, Fraction) else decision_threshold(params)


def decode_bit(delta_estimate, params: GhdParams) -> int:
    """0 if the distance estimate clears the threshold, else 1."""
    return 0 if delta_estimate >= threshold_for(delta_estimate, params) else 1


def delta_from_sum_norm(sum_norm_sq, nnz_a, nnz_b):
    """Distance from ||a+b||^2 and the two weights: 2*nnz_a + 2*nnz_b - ||a+b||^2.

    Exact for 0/1 vectors, where squared norms equal weights and the cross
    term collapses via the distance identity. Preserves the input
    arithmetic type (int/Fraction in, exact out).
    """
    if nnz_a < 0 or nnz_b < 0 or sum_norm_sq < 0:
        raise ValueError("inputs must be nonnegative")
    return 2 * nnz_a + 2 * nnz_b - sum_norm_sq


def sample_sources(
    sr: SharedRandomness, count: int, length: int, odd_weight: bool
) -> np.ndarray:
    """``count`` source strings of ``length`` bits, one per row of a uint8 matrix.

    Unrestricted rows are the first ``count * length`` bits of ``sr``'s
    stream. Odd-weight rows are uniform over the odd-weight strings: the
    stream is read as consecutive ``length``-bit rows and the result is the
    first ``count`` of them whose weight is odd, as a per-row rejection loop
    would draw them. A draw that holds too few is repeated from the start of
    the stream at twice the rows.
    """
    if not odd_weight:
        return sr.bit_matrix(count, length)
    drawn = 2 * count + 8
    while True:
        odd = _odd_rows(sr.bit_matrix(drawn, length))
        if odd.shape[0] >= count:
            return odd[:count]
        drawn *= 2


def _odd_rows(rows: np.ndarray) -> np.ndarray:
    """The odd-weight rows of a 0/1 uint8 matrix, in order.

    A uint8 row sum wraps modulo 256, which keeps its parity.
    """
    return rows.compress((rows @ _ones_row(rows.shape[1])) & 1, axis=0)


@lru_cache(maxsize=None)
def _ones_row(length: int) -> np.ndarray:
    """A read-only uint8 row of ``length`` ones; one per source length."""
    ones = np.ones(length, dtype=np.uint8)
    ones.setflags(write=False)
    return ones


def gap_statistics(
    params: GhdParams,
    trials: int,
    sr: SharedRandomness,
    odd_weight: bool = True,
) -> dict:
    """Monte Carlo frequencies of the two gap events and of threshold decoding.

    Per trial: draw a source string (odd-weight by default) and a query
    position, build both codewords from fresh pads, and record where the
    exact distance falls relative to code_len/2 - sqrt(code_len) (source
    bit 0) and code_len/2 - 2*sqrt(code_len) (source bit 1).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n = params.code_len
    upper = n / 2.0 - math.sqrt(n)
    lower = n / 2.0 - 2.0 * math.sqrt(n)
    zero_total = zero_hit = one_total = one_hit = decoded = 0
    for t in range(trials):
        sr_t = sr.substream(t)
        x = sample_sources(sr_t.substream(STREAM_INSTANCE), 1, params.gamma, odd_weight)[0]
        i = sr_t.substream(STREAM_INDEX).integer(1, params.gamma + 1)
        a = encode_alice(x, params, sr_t)
        b = encode_bob(i, params, sr_t)
        delta = int(np.count_nonzero(a ^ b))
        x_i = int(x[i - 1])
        if decode_bit(delta, params) == x_i:
            decoded += 1
        if x_i == 0:
            zero_total += 1
            if delta >= upper:
                zero_hit += 1
        else:
            one_total += 1
            if delta <= lower:
                one_hit += 1
    return {
        "trials": trials,
        "odd_weight": odd_weight,
        "gamma": params.gamma,
        "amp_factor": params.amp_factor,
        "code_len": n,
        "zero_trials": zero_total,
        "zero_event_hits": zero_hit,
        "zero_event_freq": zero_hit / zero_total if zero_total else None,
        "one_trials": one_total,
        "one_event_hits": one_hit,
        "one_event_freq": one_hit / one_total if one_total else None,
        "decode_hits": decoded,
        "decode_freq": decoded / trials,
        "upper_threshold": upper,
        "lower_threshold": lower,
        "decision_threshold": decision_threshold(params),
    }
