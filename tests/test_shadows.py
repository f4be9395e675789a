"""Measurement simulation, the reference pair, and the one-way adapter."""
import numpy as np
import pytest

from gapcomm.bits import STREAM_SHADOW, SharedRandomness
from gapcomm.messages import MessageError, ProtocolMessage
from gapcomm.pauli import ObservableError, PauliMask
from gapcomm.shadows import (
    LETTERS,
    ClassicalDensityMatrix,
    ShadowPair,
    _unpack_rounds,
    born_vector,
    reference_shadow_pair,
    to_one_way_protocol,
)
from shake_stream import shake_doubles

I2 = np.eye(2, dtype=complex)
PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def projector_born_oracle(rho: ClassicalDensityMatrix, letters: str) -> np.ndarray:
    """Independent oracle: outcome probabilities via explicit projectors."""
    n = rho.qubits
    probs = np.empty(1 << n)
    for outcome in range(1 << n):
        factors = []
        for t in range(n):  # qubit t+1 reads index bit t
            sign = -1 if (outcome >> t) & 1 else 1
            factors.append((I2 + sign * PAULI[letters[t]]) / 2)
        full = factors[-1]
        for mat in reversed(factors[:-1]):
            full = np.kron(full, mat)
        probs[outcome] = np.trace(full @ rho.entries).real
    return probs


def random_pure(rng, qubits: int) -> ClassicalDensityMatrix:
    dim = 1 << qubits
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return ClassicalDensityMatrix.from_pure(psi)


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            ClassicalDensityMatrix(np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            ClassicalDensityMatrix(np.eye(2, dtype=complex))

    def test_rejects_negative_eigenvalues(self):
        with pytest.raises(ValueError):
            ClassicalDensityMatrix(np.diag([1.5, -0.5]).astype(complex))

    @pytest.mark.parametrize("entries", [np.ones((2, 3)) / 2, np.eye(1), np.eye(3) / 3])
    def test_rejects_bad_shape(self, entries):
        with pytest.raises(ValueError):
            ClassicalDensityMatrix(entries.astype(complex))

    def test_pure_state_construction(self):
        rho = ClassicalDensityMatrix.from_pure([1.0, 1.0])
        assert rho.qubits == 1
        assert rho.entries[0, 1] == pytest.approx(0.5)


def measured_rounds(rho, copies, stream):
    """Per round of ``reference_shadow_pair(copies).measure``: the basis
    letters, qubit 1 first, and the outcome as a basis index."""
    shadow = reference_shadow_pair(copies).measure(rho, SharedRandomness(stream))
    codes, outcomes = _unpack_rounds(shadow, rho.qubits)
    letters = np.array(["".join(LETTERS[c] for c in row) for row in codes])
    return letters, outcomes @ (1 << np.arange(rho.qubits))


class TestMeasure:
    def test_ground_state_in_z_basis_is_deterministic(self):
        rho = ClassicalDensityMatrix.from_pure([1.0, 0.0])
        letters, index = measured_rounds(rho, 600, 73)
        in_z = letters == "Z"
        assert in_z.sum() > 100
        assert not index[in_z].any()

    def test_ground_state_in_x_basis_is_balanced(self):
        rho = ClassicalDensityMatrix.from_pure([1.0, 0.0])
        letters, index = measured_rounds(rho, 30_000, 74)
        in_x = letters == "X"
        assert abs(index[in_x].mean() - 0.5) < 0.02

    def test_basis_letters_are_uniform(self):
        rho = ClassicalDensityMatrix.from_pure([1.0, 0.0, 0.0, 0.0])
        shadow = reference_shadow_pair(30_000).measure(rho, SharedRandomness(75))
        codes, _ = _unpack_rounds(shadow, 2)
        for qubit in range(2):
            freq = np.bincount(codes[:, qubit], minlength=3) / codes.shape[0]
            assert np.abs(freq - 1 / 3).max() < 0.01, (qubit, freq)

    def test_rounds_follow_the_stream_rule(self):
        # round r reads doubles r(n+1) .. r(n+1)+n of the shadow substream:
        # floor(3u) per qubit, then the Born-rule inverse CDF at the last u
        rng = np.random.default_rng(98)
        rho, sr, copies = random_pure(rng, 2), SharedRandomness(99), 200
        codes, outcomes = _unpack_rounds(reference_shadow_pair(copies).measure(rho, sr), 2)
        u = np.array(shake_doubles(sr.substream(STREAM_SHADOW), copies * 3)).reshape(copies, 3)
        assert np.array_equal(codes, np.floor(3 * u[:, :2]))
        for r in range(copies):
            letters = "".join(LETTERS[c] for c in codes[r])
            index = np.searchsorted(np.cumsum(born_vector(rho, letters)), u[r, 2], side="right")
            assert outcomes[r] @ [1, 2] == index, r

    def test_invalid_basis_letter(self):
        rho = ClassicalDensityMatrix.from_pure([1.0, 0.0])
        with pytest.raises(ValueError):
            born_vector(rho, "Q")

    def test_distribution_matches_projector_oracle(self):
        rng = np.random.default_rng(76)
        rho = random_pure(rng, 2)
        for letters in ("ZZ", "XY", "YX", "XZ"):
            assert np.allclose(
                born_vector(rho, letters), projector_born_oracle(rho, letters), atol=1e-12
            )

    def test_empirical_total_variation_small(self):
        # about 10000 rounds in each of the 9 two-qubit bases
        rng = np.random.default_rng(77)
        rho = random_pure(rng, 2)
        letters, index = measured_rounds(rho, 90_000, 78)
        for basis in sorted(set(letters)):
            outcomes = index[letters == basis]
            empirical = np.bincount(outcomes, minlength=4) / outcomes.size
            tv = 0.5 * np.abs(empirical - projector_born_oracle(rho, basis)).sum()
            assert tv <= 0.02, basis


class TestReferencePair:
    def test_identity_estimates_one_from_any_shadow(self):
        pair = reference_shadow_pair(copies=32)
        rho = ClassicalDensityMatrix.from_pure([1.0, 0.0])
        shadow = pair.measure(rho, SharedRandomness(79))
        identity = PauliMask(z=0, x=0, qubits=1)
        assert pair.estimate(identity, shadow) == 1.0

    def test_z_on_ground_state(self):
        pair = reference_shadow_pair(copies=10_000)
        rho = ClassicalDensityMatrix.from_pure([1.0, 0.0])
        shadow = pair.measure(rho, SharedRandomness(80))
        z = PauliMask(z=1, x=0, qubits=1)
        assert abs(pair.estimate(z, shadow) - 1.0) <= 0.1

    def test_z_on_maximally_mixed(self):
        pair = reference_shadow_pair(copies=10_000)
        rho = ClassicalDensityMatrix(np.eye(2, dtype=complex) / 2)
        shadow = pair.measure(rho, SharedRandomness(81))
        z = PauliMask(z=1, x=0, qubits=1)
        assert abs(pair.estimate(z, shadow)) <= 0.1

    def test_shadow_length_accounting(self):
        pair = reference_shadow_pair(copies=500)
        rng = np.random.default_rng(82)
        rho = random_pure(rng, 3)
        shadow = pair.measure(rho, SharedRandomness(83))
        assert len(shadow) == 500 * 3 * 3  # 2 basis bits + 1 outcome bit per qubit

    def test_rejects_non_mask_observables(self):
        pair = reference_shadow_pair(copies=8)
        rho = ClassicalDensityMatrix.from_pure([1.0, 0.0])
        shadow = pair.measure(rho, SharedRandomness(84))
        with pytest.raises(ObservableError):
            pair.estimate(np.eye(2), shadow)

    def test_measure_is_deterministic_given_stream(self):
        pair = reference_shadow_pair(copies=64)
        rng = np.random.default_rng(85)
        rho = random_pure(rng, 2)
        first, second = (pair.measure(rho, SharedRandomness(86)) for _ in range(2))
        assert np.array_equal(first, second)


class _RecordingRho:
    """Duck-typed density matrix that counts attribute reads."""

    def __init__(self, rho: ClassicalDensityMatrix):
        object.__setattr__(self, "_rho", rho)
        object.__setattr__(self, "reads", 0)

    @property
    def entries(self):
        object.__setattr__(self, "reads", self.reads + 1)
        return self._rho.entries

    @property
    def qubits(self):
        object.__setattr__(self, "reads", self.reads + 1)
        return self._rho.qubits


class TestTwoPhaseIsolation:
    def test_estimation_never_touches_the_state(self):
        pair = reference_shadow_pair(copies=128)
        rng = np.random.default_rng(87)
        poisoned = _RecordingRho(random_pure(rng, 2))
        shadow = pair.measure(poisoned, SharedRandomness(88))
        reads_after_measure = poisoned.reads
        assert reads_after_measure > 0
        mask = PauliMask(z=1, x=0, qubits=2)
        pair.estimate(mask, shadow)
        assert poisoned.reads == reads_after_measure


class TestAdapter:
    def test_message_bits_equal_shadow_length(self):
        pair = reference_shadow_pair(copies=777)
        protocol = to_one_way_protocol(pair)
        rng = np.random.default_rng(89)
        rho = random_pure(rng, 3)
        msg = protocol.alice(rho, SharedRandomness(90))
        assert msg.main_bits == 777 * 3 * 3
        assert msg.side_bits == 0

    def test_accepts_pure_state_vectors(self):
        pair = reference_shadow_pair(copies=16)
        protocol = to_one_way_protocol(pair)
        msg = protocol.alice(np.array([1.0, 0.0]), SharedRandomness(91))
        assert msg.main_bits == 16 * 3

    def test_adapter_matches_direct_run_bit_for_bit(self):
        pair = reference_shadow_pair(copies=512)
        protocol = to_one_way_protocol(pair)
        rng = np.random.default_rng(92)
        rho = random_pure(rng, 2)
        mask = PauliMask(z=2, x=1, qubits=2)

        direct_shadow = pair.measure(rho, SharedRandomness(93))
        direct = pair.estimate(mask, direct_shadow)
        via_adapter = protocol.bob(protocol.alice(rho, SharedRandomness(93)), mask)
        assert via_adapter == direct

    @pytest.mark.parametrize(
        "shadow",
        [
            np.zeros((2, 3), dtype=np.uint8),
            np.array([0, 1, 2, 1, 0, 0], dtype=np.uint8),
            np.array([0, 1, -1, 1, 0, 0], dtype=np.int64),
            np.array([0.5, 1.0, 1, 0, 1, 0]),
            [0, 1, 256, 1, 0, 0],
        ],
        ids=["two-dimensional", "value-2", "negative", "fraction", "list-256"],
    )
    def test_rejects_a_measure_that_returns_no_bit_string(self, shadow):
        honest = reference_shadow_pair(copies=2)
        pair = ShadowPair(honest.copies, lambda rho, rng: shadow, honest.estimate)
        with pytest.raises(ValueError, match="one-dimensional 0/1"):
            to_one_way_protocol(pair).alice(np.array([1.0, 0.0]), SharedRandomness(95))

    @pytest.mark.parametrize(
        "as_returned",
        [lambda bits: bits.tolist(), lambda bits: bits.astype(bool), lambda bits: bits.astype(np.int64)],
        ids=["list", "bool", "int64"],
    )
    def test_accepts_any_integer_bit_string_from_measure(self, as_returned):
        # the message is the one a uint8 array of the same bits gives
        bits = np.array([0, 1, 1, 0, 1, 0], dtype=np.uint8)
        honest = reference_shadow_pair(copies=2)
        rho = np.array([1.0, 0.0])
        expected = to_one_way_protocol(ShadowPair(2, lambda rho, rng: bits, honest.estimate))
        given = to_one_way_protocol(ShadowPair(2, lambda rho, rng: as_returned(bits), honest.estimate))
        msg = given.alice(rho, SharedRandomness(96))
        assert msg.to_wire() == expected.alice(rho, SharedRandomness(96)).to_wire()
        assert msg.main_bits == len(bits)


class TestAdapterRejectsMalformedMessages:
    """Bob's side of the adapter raises MessageError, never a bare ValueError."""

    MASK = PauliMask(z=1, x=2, qubits=2)

    def honest(self) -> tuple:
        # 7 rounds of 6 bits leave 6 padding bits in the last byte
        protocol = to_one_way_protocol(reference_shadow_pair(copies=7))
        msg = protocol.alice(np.array([1.0, 0.0, 0.0, 0.0]), SharedRandomness(94))
        return protocol, bytes(msg.main_payload), msg.main_bits

    def test_other_protocol_tag(self):
        protocol, payload, bits = self.honest()
        with pytest.raises(MessageError, match="shadow-adapter"):
            protocol.bob(ProtocolMessage("observable-pauli", payload, bits), self.MASK)

    @pytest.mark.parametrize("rounds_bits", [0, 6 * 7 - 1, 6 * 6 + 3])
    def test_length_not_a_whole_number_of_rounds(self, rounds_bits):
        protocol, payload, _ = self.honest()
        bits = np.unpackbits(np.frombuffer(payload, np.uint8), bitorder="little")[:rounds_bits]
        short = np.packbits(bits, bitorder="little").tobytes()
        with pytest.raises(MessageError, match="multiple of 6"):
            protocol.bob(ProtocolMessage("shadow-adapter", short, rounds_bits), self.MASK)

    def test_basis_code_three(self):
        protocol, payload, bits = self.honest()
        # qubit 1's two basis bits of round 1 are bits 0 and 1: code 3
        forged = bytes([payload[0] | 0b11]) + payload[1:]
        with pytest.raises(MessageError, match="basis code 3"):
            protocol.bob(ProtocolMessage("shadow-adapter", forged, bits), self.MASK)

    def test_set_padding_bit(self):
        protocol, payload, bits = self.honest()
        forged = payload[:-1] + bytes([payload[-1] | 1 << (bits % 8)])
        with pytest.raises(MessageError, match="padding"):
            protocol.bob(ProtocolMessage("shadow-adapter", forged, bits), self.MASK)
