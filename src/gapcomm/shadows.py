"""Measure-then-estimate compression schemes and their one-way protocol adapter.

The two phases are strictly separated: a measurement algorithm turns a full
classical state description into a bitstring by simulating the quantum
measurements, and an estimation algorithm later computes observable values
from that bitstring alone. Packaging the bitstring as a one-way message
makes the scheme's compression size directly measurable.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Callable

import numpy as np

from .bits import STREAM_SHADOW, SharedRandomness
from .messages import MessageError, ProtocolMessage
from .pauli import ObservableError, PauliMask

MAX_SIM_QUBITS = 10

# rounds per mean in the reference estimator's median of means
GROUP_SIZE = 2000

# basis letter codes packed into the shadow (2 bits per qubit per round)
LETTERS = "XYZ"
_CODE = {"X": 0, "Y": 1, "Z": 2}

_H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / np.sqrt(2.0)
_SDG = np.array([[1.0, 0.0], [0.0, -1.0j]], dtype=np.complex128)
_ROTATION = {
    "X": _H,
    "Y": _H @ _SDG,
    "Z": np.eye(2, dtype=np.complex128),
}


@dataclass(frozen=True, eq=False)
class ClassicalDensityMatrix:
    """Full classical description of a mixed state, validated on construction."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.entries, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("density matrix must be square")
        dim = arr.shape[0]
        if dim < 2 or (dim & (dim - 1)) != 0:
            raise ValueError("dimension must be a power of two")
        if not np.allclose(arr, arr.conj().T, atol=1e-9):
            raise ValueError("density matrix must be Hermitian")
        if abs(np.trace(arr).real - 1.0) > 1e-9 or abs(np.trace(arr).imag) > 1e-9:
            raise ValueError("density matrix must have unit trace")
        if np.linalg.eigvalsh(arr).min() < -1e-9:
            raise ValueError("density matrix must be positive semidefinite")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @staticmethod
    def from_pure(amplitudes) -> "ClassicalDensityMatrix":
        psi = np.ascontiguousarray(amplitudes, dtype=np.complex128)
        psi = psi / np.linalg.norm(psi)
        return ClassicalDensityMatrix(np.outer(psi, psi.conj()))

    @property
    def qubits(self) -> int:
        return int(self.entries.shape[0]).bit_length() - 1


def born_vector(rho: ClassicalDensityMatrix, letters: str) -> np.ndarray:
    """Computational-basis outcome distribution after per-qubit basis rotation."""
    n = rho.qubits
    if len(letters) != n:
        raise ValueError(f"need {n} basis letters, got {len(letters)}")
    if n > MAX_SIM_QUBITS:
        raise ValueError(f"dense simulation capped at {MAX_SIM_QUBITS} qubits")
    for ch in letters:
        if ch not in _ROTATION:
            raise ValueError(f"invalid basis letter {ch!r}")
    # qubit t reads index bit t-1, so the last letter sits on the high factor
    unitary = reduce(np.kron, [_ROTATION[ch] for ch in reversed(letters)])
    probs = np.einsum("ij,jk,ik->i", unitary, rho.entries, unitary.conj()).real
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum()


@dataclass(frozen=True)
class ShadowPair:
    """A measurement algorithm and an estimation algorithm.

    ``measure(rho, sr)`` takes the run's ``SharedRandomness``, may simulate
    the state at will and returns the shadow, a one-dimensional 0/1 uint8
    array;
    ``estimate(observable, shadow) -> float`` sees only the bitstring.
    The adapter below relies on exactly that separation.
    """

    copies: int
    measure: Callable[[ClassicalDensityMatrix, SharedRandomness], np.ndarray]
    estimate: Callable[[PauliMask, np.ndarray], float]


def _pack_rounds(codes: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
    s, n = codes.shape
    round_bits = np.empty((s, 3 * n), dtype=np.uint8)
    round_bits[:, 0 : 2 * n : 2] = codes & 1
    round_bits[:, 1 : 2 * n : 2] = codes >> 1
    round_bits[:, 2 * n :] = outcomes
    return round_bits.reshape(-1)


def _unpack_rounds(shadow: np.ndarray, qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """Basis codes and outcomes per round; a shadow no ``measure`` could have
    written raises MessageError."""
    per_round = 3 * qubits
    if len(shadow) == 0 or len(shadow) % per_round != 0:
        raise MessageError(f"shadow length {len(shadow)} is not a positive multiple of {per_round}")
    rounds = shadow.reshape(-1, per_round)
    codes = rounds[:, 0 : 2 * qubits : 2] + 2 * rounds[:, 1 : 2 * qubits : 2]
    if (codes == 3).any():
        raise MessageError("shadow holds basis code 3")
    return codes.astype(np.int64), rounds[:, 2 * qubits :].astype(np.int64)


def reference_shadow_pair(copies: int) -> ShadowPair:
    """Random-basis single-qubit measurements with a median-of-means estimator.

    Per round each qubit is measured in a uniformly random X/Y/Z basis
    (each letter's probability is within 2^-53 of 1/3), and the outcome is
    drawn from the Born rule by inverse CDF; the shadow records 2 basis bits
    plus 1 outcome bit per qubit per round.
    Estimation inverts the single-qubit depolarizing channel (factor 3 per
    matched qubit) and takes a median over means of ``GROUP_SIZE`` rounds.
    Only mask-type observables (I/Z/X factors) are supported.
    """
    if copies < 1:
        raise ValueError("copies must be >= 1")

    def measure(rho: ClassicalDensityMatrix, sr: SharedRandomness) -> np.ndarray:
        n = rho.qubits
        # n + 1 words of the shadow stream per round, each read as the double
        # u = (w >> 11) 2^-53: qubit t's basis code is floor(3u), taken in
        # integers so it is exact, and the last u picks the outcome
        top = (sr.substream(STREAM_SHADOW).words(copies * (n + 1)) >> 11).reshape(copies, n + 1)
        codes = ((top[:, :n] * 3) >> 53).astype(np.int64)
        u = top[:, n] * 2.0**-53
        outcomes = np.empty((copies, n), dtype=np.uint8)
        # group identical basis rows so each distribution is built once
        keys = codes @ (3 ** np.arange(n, dtype=np.int64))
        for key in np.unique(keys):
            rows = np.nonzero(keys == key)[0]
            letters = "".join(LETTERS[c] for c in codes[rows[0]])
            cdf = np.cumsum(born_vector(rho, letters))
            idx = np.searchsorted(cdf, u[rows], side="right")
            idx = np.minimum(idx, cdf.shape[0] - 1)
            for t in range(n):
                outcomes[rows, t] = (idx >> t) & 1
        return _pack_rounds(codes, outcomes)

    def estimate(observable: PauliMask, shadow: np.ndarray) -> float:
        if not isinstance(observable, PauliMask):
            raise ObservableError("reference estimator supports mask observables only")
        n = observable.qubits
        codes, outcomes = _unpack_rounds(shadow, n)
        support = [t for t in range(n) if observable.letter(t + 1) != "I"]
        if not support:
            return 1.0
        want = np.array([_CODE[observable.letter(t + 1)] for t in support])
        matched = np.all(codes[:, support] == want, axis=1)
        signs = np.prod(1 - 2 * outcomes[:, support], axis=1)
        values = np.where(matched, (3.0 ** len(support)) * signs, 0.0)
        groups = max(1, values.shape[0] // GROUP_SIZE)
        means = [float(chunk.mean()) for chunk in np.array_split(values, groups)]
        return float(np.median(means))

    return ShadowPair(copies=copies, measure=measure, estimate=estimate)


@dataclass(frozen=True)
class OneWayShadowProtocol:
    """Runs a measure/estimate pair as Alice -> Bob with bit-exact accounting."""

    pair: ShadowPair

    def alice(self, state, sr: SharedRandomness) -> ProtocolMessage:
        """Measurement side; accepts a density matrix or a pure-state vector.

        A ``measure`` that returns anything but a one-dimensional 0/1 array
        raises ValueError.
        """
        rho = (
            state
            if isinstance(state, ClassicalDensityMatrix)
            else ClassicalDensityMatrix.from_pure(state)
        )
        # check the values before any cast, which would truncate 0.5 to 0
        # and overflow on 256
        shadow = np.asarray(self.pair.measure(rho, sr))
        if shadow.ndim != 1 or not ((shadow == 0) | (shadow == 1)).all():
            raise ValueError("measure must return a one-dimensional 0/1 array")
        packed = np.packbits(shadow.astype(np.uint8), bitorder="little").tobytes()
        # the message is the raw shadow: its bit count IS the compression size
        return ProtocolMessage("shadow-adapter", packed, len(shadow))

    def bob(self, msg: ProtocolMessage, observable: PauliMask) -> float:
        """Estimate from the shadow alone; a malformed message raises MessageError."""
        if msg.protocol != "shadow-adapter":
            raise MessageError(f"expected a shadow-adapter message, got {msg.protocol!r}")
        raw = np.frombuffer(msg.main_payload, dtype=np.uint8)
        if msg.main_bits % 8 and int(raw[-1]) >> (msg.main_bits % 8):
            raise MessageError("shadow padding bits are not zero")
        bits = np.unpackbits(raw, count=msg.main_bits, bitorder="little")
        return self.pair.estimate(observable, bits)


def to_one_way_protocol(pair: ShadowPair) -> OneWayShadowProtocol:
    return OneWayShadowProtocol(pair)
