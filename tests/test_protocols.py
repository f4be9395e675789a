"""Protocol encoders/decoders against brute-force constructions."""
import math
import struct
from fractions import Fraction

import numpy as np
import pytest

import gapcomm.protocols as proto
from gapcomm import _kernels
from gapcomm.bits import STREAM_INDEX, STREAM_INSTANCE, BitVector, SharedRandomness, hamming
from gapcomm.ghd import GhdParams, encode_alice, encode_bob, public_pads
from gapcomm.harness import sample_instance
from gapcomm.messages import MessageError, ProtocolMessage
from gapcomm.oracle import OracleSpec
from gapcomm.pauli import PauliMask
from gapcomm.states import ExactState


def make_config(kind, qubits, epsilon, **kw) -> proto.ProtocolConfig:
    return proto.ProtocolConfig(kind=kind, qubits=qubits, ghd=GhdParams(epsilon=epsilon), **kw)


def draw_instance(pc, seed, odd=True):
    sr = SharedRandomness(seed)
    gen = sr.substream(STREAM_INSTANCE).generator()
    x = sample_instance(gen, pc, odd)
    l = int(sr.substream(STREAM_INDEX).generator().integers(1, pc.capacity + 1))
    return sr, x, l


def queried_codewords(x, l, pc, sr):
    i, j = proto.decompose_index(l, pc.ghd.gamma)
    gamma = pc.ghd.gamma
    block = BitVector(x.bits[(j - 1) * gamma : j * gamma])
    return encode_alice(block, pc.ghd, sr), encode_bob(i, pc.ghd, sr), i, j


class TestConfig:
    def test_epsilon_validity_windows(self):
        make_config("general-state", 8, 0.5)
        with pytest.raises(proto.ConfigError):
            make_config("general-state", 8, 0.2)  # below 2^-2
        make_config("observable-general", 4, 0.3)
        with pytest.raises(proto.ConfigError):
            make_config("observable-general", 4, 0.2)  # below 2^-2
        make_config("observable-pauli", 256, 0.3)
        with pytest.raises(proto.ConfigError):
            make_config("observable-pauli", 256, 0.24)  # below 256^-0.25

    def test_capacity_requires_blocks_beyond_gamma(self):
        with pytest.raises(proto.ConfigError):
            make_config("general-state", 4, 0.5)  # 4 blocks, gamma 4

    def test_observable_general_dense_cap(self):
        with pytest.raises(proto.ConfigError):
            make_config("observable-general", 11, 0.5)

    def test_pauli_state_dense_cap_counts_the_extra_qubit(self):
        # the payload state lives on n+1 qubits
        make_config("pauli-state", proto.MAX_STATE_QUBITS - 1, 0.5)
        for n in (proto.MAX_STATE_QUBITS, 40):
            with pytest.raises(proto.ConfigError):
                make_config("pauli-state", n, 0.5)

    def test_kinds_and_cli_choices_come_from_the_spec_table(self):
        from gapcomm.cli import build_parser
        from gapcomm.messages import PROTOCOL_TAGS

        assert proto.PROTOCOL_KINDS == tuple(proto.SPECS)
        assert set(proto.ALICE) == set(proto.BOB) == set(proto.SPECS)
        assert set(proto.SPECS) <= set(PROTOCOL_TAGS)
        base = ["run", "--qubits", "8", "--epsilon", "0.5", "--trials", "1", "--seed", "1"]
        for kind in proto.PROTOCOL_KINDS:
            assert build_parser().parse_args(base + ["--protocol", kind]).protocol == kind
        with pytest.raises(SystemExit):
            build_parser().parse_args(base + ["--protocol", "shadow-adapter"])

    def test_pad_exponent_covers_amplification(self):
        pc = make_config("general-state", 8, 0.5)
        assert pc.ghd.amp_factor <= 1 << pc.pad_exponent
        assert pc.ghd.amp_factor > 1 << (pc.pad_exponent - 1)

    def test_block_counts(self):
        assert make_config("general-state", 8, 0.5).block_count == 16
        assert make_config("observable-general", 6, 0.5).block_count == 64
        assert make_config("observable-pauli", 64, 0.5).block_count == 8

    def test_code_length_stays_exact_in_float32(self):
        # code_len = 60 * 308642 >= 2^24; every other check passes at this size
        with pytest.raises(proto.ConfigError, match="2\\^24"):
            make_config("observable-pauli", 10**11, 0.0018)

    def test_oracle_budget_shrinks_with_slack(self):
        tight = make_config("pauli-state", 8, 0.5)
        slack = make_config("pauli-state", 8, 0.5, oracle_slack=2.0)
        assert slack.oracle_accuracy == pytest.approx(tight.oracle_accuracy / 2.0)


class TestIndexDecomposition:
    def test_round_trip_is_a_bijection(self):
        for gamma in (1, 3, 4, 7):
            blocks = 5
            seen = set()
            for l in range(1, blocks * gamma + 1):
                i, j = proto.decompose_index(l, gamma)
                assert 1 <= i <= gamma
                assert l == i + (j - 1) * gamma
                seen.add((i, j))
            assert len(seen) == blocks * gamma


class TestPartitionAndEncode:
    def test_block_count_arithmetic(self):
        pc = make_config("general-state", 8, 0.5)
        x = BitVector.zeros(pc.capacity)
        a_vectors, b_vectors = proto.partition_and_encode(x, pc, SharedRandomness(31))
        assert len(a_vectors) == pc.block_count - pc.ghd.gamma
        assert len(b_vectors) == pc.ghd.gamma

    def test_all_zero_source_gives_zero_codewords(self):
        pc = make_config("general-state", 8, 0.5)
        a_vectors, _ = proto.partition_and_encode(
            BitVector.zeros(pc.capacity), pc, SharedRandomness(32)
        )
        assert all(a.nnz == 0 for a in a_vectors)

    def test_blockwise_agreement_with_single_encoder(self):
        pc = make_config("general-state", 8, 0.5)
        sr, x, _ = draw_instance(pc, 33)
        a_vectors, b_vectors = proto.partition_and_encode(x, pc, sr)
        gamma = pc.ghd.gamma
        for j, a in enumerate(a_vectors, start=1):
            block = BitVector(x.bits[(j - 1) * gamma : j * gamma])
            assert a == encode_alice(block, pc.ghd, sr)
        for i, b in enumerate(b_vectors, start=1):
            assert b == encode_bob(i, pc.ghd, sr)

    def test_matrix_encoding_matches_per_block_majority(self):
        # unrestricted instances hold even-weight blocks (majority ties) and,
        # forced below, an all-zero and a full block
        for kind, qubits in (("general-state", 8), ("observable-general", 6)):
            pc = make_config(kind, qubits, 0.5)
            gamma = pc.ghd.gamma
            for seed in range(35, 41):
                sr, x, _ = draw_instance(pc, seed, odd=False)
                bits = x.bits.copy()
                bits[:gamma] = 0
                bits[gamma : 2 * gamma] = 1
                blocks = bits.reshape(-1, gamma)
                assert (blocks.sum(axis=1) % 2 == 0).sum() > 2
                a_rows, b_rows = proto.encode_block_matrices(BitVector(bits), pc, sr)
                pads = public_pads(pc.ghd, sr)
                for j, block in enumerate(blocks):
                    selected = np.nonzero(block)[0].astype(np.int64)
                    assert np.array_equal(a_rows[j], _kernels.majority_rows(pads, selected))
                assert not a_rows[0].any()
                assert np.array_equal(b_rows, pads.T)

    def test_length_mismatch_rejected(self):
        pc = make_config("general-state", 8, 0.5)
        with pytest.raises(proto.ConfigError):
            proto.partition_and_encode(BitVector.zeros(3), pc, SharedRandomness(34))


class TestGeneralState:
    def test_message_round_trips_and_norm_is_total_weight(self):
        pc = make_config("general-state", 6, 0.5)
        sr, x, _ = draw_instance(pc, 35)
        msg = ProtocolMessage.from_wire(proto.ALICE["general-state"](x, pc, sr).to_wire())
        state, _ = ExactState.deserialize(msg.main_payload)
        a_vectors, b_vectors = proto.partition_and_encode(x, pc, sr)
        assert state.norm_sq == sum(v.nnz for v in a_vectors) + sum(v.nnz for v in b_vectors)
        assert msg.side_bits < msg.main_bits

    def test_target_matches_brute_force_quadratic(self):
        pc = make_config("general-state", 6, 0.5)
        for seed in range(36, 44):
            sr, x, l = draw_instance(pc, seed)
            msg = proto.ALICE["general-state"](x, pc, sr)
            res = proto.BOB["general-state"](msg, l, pc, sr, OracleSpec())
            # brute force: place the averaging blocks by hand, contract densely
            state, _ = ExactState.deserialize(msg.main_payload)
            i, j = proto.decompose_index(l, pc.ghd.gamma)
            code_len = pc.ghd.code_len
            dim = 1 << (pc.qubits + pc.pad_exponent)
            col = pc.block_count - pc.ghd.gamma + i
            doubled = np.zeros((code_len, dim), dtype=np.int64)  # sqrt(2) * M_l
            for k in range(code_len):
                doubled[k, (j - 1) * code_len + k] = 1
                doubled[k, (col - 1) * code_len + k] = 1
            w = doubled @ state.numerators
            assert res.target == Fraction(int(w @ w), 2 * state.norm_sq)

    def test_recovers_bit_with_exact_oracle(self):
        pc = make_config("general-state", 8, 0.5)
        hits = 0
        for seed in range(200):
            sr, x, l = draw_instance(pc, 1000 + seed)
            msg = proto.ALICE["general-state"](x, pc, sr)
            res = proto.BOB["general-state"](msg, l, pc, sr, OracleSpec())
            hits += res.bit == x.bit(l)
        assert hits / 200 >= 0.8

    def test_contraction_norm_bounded(self):
        pc = make_config("general-state", 6, 0.5)
        rng = np.random.default_rng(45)
        for _ in range(10):
            l = int(rng.integers(1, pc.capacity + 1))
            strip = proto.general_state_ml_strip(pc, l)
            eigs = np.linalg.eigvalsh(strip @ strip.T)
            assert eigs.min() >= -1e-9 and eigs.max() <= 1 + 1e-9


class TestPauliState:
    def test_solution_round_trips_to_stacked_norms(self):
        from gapcomm.fwht import fwht

        pc = make_config("pauli-state", 6, 0.5)
        sr, x, _ = draw_instance(pc, 46)
        msg = proto.ALICE["pauli-state"](x, pc, sr)
        state, _ = ExactState.deserialize(msg.main_payload)
        dim = 1 << pc.qubits
        v_half = state.numerators[:dim]
        ones_half = state.numerators[dim:]
        assert np.array_equal(ones_half, np.full(dim, dim))
        # independent recomputation of every pairwise sum-norm
        a_vectors, b_vectors = proto.partition_and_encode(x, pc, sr)
        stacked = np.zeros(dim, dtype=np.int64)
        gamma = pc.ghd.gamma
        for j, a in enumerate(a_vectors, start=1):
            for i, b in enumerate(b_vectors, start=1):
                summed = a.bits.astype(np.int64) + b.bits.astype(np.int64)
                stacked[(j - 1) * gamma + i - 1] = summed @ summed
        assert np.array_equal(fwht(v_half), dim * stacked)

    def test_all_zero_source_stacks_bob_weights(self):
        pc = make_config("pauli-state", 6, 0.5)
        sr = SharedRandomness(47)
        from gapcomm.fwht import fwht

        msg = proto.ALICE["pauli-state"](BitVector.zeros(pc.capacity), pc, sr)
        state, _ = ExactState.deserialize(msg.main_payload)
        dim = 1 << pc.qubits
        recovered = fwht(state.numerators[:dim]) // dim
        gamma = pc.ghd.gamma
        for i in range(1, gamma + 1):
            b = encode_bob(i, pc.ghd, sr)
            for j in range(pc.block_count - gamma):
                assert recovered[j * gamma + i - 1] == b.nnz

    def test_observable_is_a_valid_mask(self):
        pc = make_config("pauli-state", 6, 0.5)
        sr, x, l = draw_instance(pc, 48)
        n = pc.qubits
        mask = PauliMask.from_ints(z=l - 1, x=1 << n, qubits=n + 1)
        assert not np.any(mask.z_mask.bits & mask.x_mask.bits)

    def test_target_formula_and_dense_agreement(self):
        pc = make_config("pauli-state", 6, 0.5)
        for seed in (49, 50, 51):
            sr, x, l = draw_instance(pc, seed)
            msg = proto.ALICE["pauli-state"](x, pc, sr)
            res = proto.BOB["pauli-state"](msg, l, pc, sr, OracleSpec())
            state, _ = ExactState.deserialize(msg.main_payload)
            a, b, i, j = queried_codewords(x, l, pc, sr)
            summed = a.bits.astype(np.int64) + b.bits.astype(np.int64)
            sum_norm = int(summed @ summed)
            n = pc.qubits
            assert res.target == Fraction(2 * sum_norm * (1 << (2 * n)), state.norm_sq)
            # dense route: explicit matrix on n+1 qubits
            mask = PauliMask.from_ints(z=l - 1, x=1 << n, qubits=n + 1)
            dense = mask.to_dense()
            nums = state.numerators
            assert res.target == Fraction(int(nums @ dense @ nums), state.norm_sq)

    def test_recovers_bit_with_exact_oracle(self):
        pc = make_config("pauli-state", 8, 0.5)
        hits = 0
        for seed in range(200):
            sr, x, l = draw_instance(pc, 2000 + seed)
            msg = proto.ALICE["pauli-state"](x, pc, sr)
            res = proto.BOB["pauli-state"](msg, l, pc, sr, OracleSpec())
            hits += res.bit == x.bit(l)
        assert hits / 200 >= 0.8


class TestObservableGeneral:
    def test_payload_is_symmetric_psd_with_unit_norm(self):
        pc = make_config("observable-general", 6, 0.5)
        sr, x, _ = draw_instance(pc, 52)
        msg = proto.ALICE["observable-general"](x, pc, sr)
        dim = 1 << pc.qubits
        entries = np.frombuffer(msg.main_payload, dtype="<i8", offset=4).reshape(dim, dim)
        entries = entries / float(1 << proto.ENTRY_FRAC_BITS)
        assert np.array_equal(entries, entries.T)
        eigs = np.linalg.eigvalsh(entries)
        assert eigs.min() >= -1e-9
        assert abs(eigs.max() - 1.0) <= 1e-9

    def test_entries_match_brute_force_gram(self):
        pc = make_config("observable-general", 6, 0.5)
        sr, x, _ = draw_instance(pc, 53)
        msg = proto.ALICE["observable-general"](x, pc, sr)
        dim = 1 << pc.qubits
        entries = np.frombuffer(msg.main_payload, dtype="<i8", offset=4).reshape(dim, dim)
        a_vectors, b_vectors = proto.partition_and_encode(x, pc, sr)
        cols = np.stack([v.bits for v in list(a_vectors) + list(b_vectors)]).T.astype(float)
        gram = cols.T @ cols
        norm = float(np.abs(np.linalg.eigvalsh(gram)).max())
        assert np.abs(entries / float(1 << proto.ENTRY_FRAC_BITS) - gram / norm).max() < 2**-31

    def test_target_matches_brute_force(self):
        pc = make_config("observable-general", 6, 0.5)
        for seed in (54, 55, 56):
            sr, x, l = draw_instance(pc, seed)
            msg = proto.ALICE["observable-general"](x, pc, sr)
            res = proto.BOB["observable-general"](msg, l, pc, sr, OracleSpec())
            a, b, i, j = queried_codewords(x, l, pc, sr)
            summed = a.bits.astype(np.int64) + b.bits.astype(np.int64)
            a_vectors, b_vectors = proto.partition_and_encode(x, pc, sr)
            cols = np.stack([v.bits for v in list(a_vectors) + list(b_vectors)]).T.astype(float)
            norm = float(np.abs(np.linalg.eigvalsh(cols.T @ cols)).max())
            assert abs(float(res.target) - int(summed @ summed) / (2 * norm)) <= 1e-9

    def test_all_zero_matrix_is_sent_unnormalized(self, monkeypatch):
        import gapcomm.ghd as ghd_mod

        pc = make_config("observable-general", 6, 0.5)
        zero_pads = lambda params, sr: np.zeros(
            (params.code_len, params.gamma), dtype=np.uint8
        )
        # both parties must see the same (degenerate) public pads
        monkeypatch.setattr(proto, "public_pads", zero_pads)
        monkeypatch.setattr(ghd_mod, "public_pads", zero_pads)
        sr = SharedRandomness(57)
        msg = proto.ALICE["observable-general"](BitVector.zeros(pc.capacity), pc, sr)
        res = proto.BOB["observable-general"](msg, 1, pc, sr, OracleSpec())
        assert res.target == 0
        assert res.bit == 1  # zero distance estimate decodes below threshold

    def test_recovers_bit_with_exact_oracle(self):
        pc = make_config("observable-general", 6, 0.5)
        hits = 0
        for seed in range(200):
            sr, x, l = draw_instance(pc, 3000 + seed)
            msg = proto.ALICE["observable-general"](x, pc, sr)
            res = proto.BOB["observable-general"](msg, l, pc, sr, OracleSpec())
            hits += res.bit == x.bit(l)
        assert hits / 200 >= 0.8


class TestObservablePauli:
    def test_mask_is_the_concatenated_codewords(self):
        pc = make_config("observable-pauli", 64, 0.5)
        sr, x, _ = draw_instance(pc, 58)
        msg = proto.ALICE["observable-pauli"](x, pc, sr)
        z_vector, _ = BitVector.deserialize(msg.main_payload)
        a_vectors, b_vectors = proto.partition_and_encode(x, pc, sr)
        rebuilt = np.concatenate(
            [v.bits for v in list(a_vectors) + list(b_vectors)] + [np.ones(1, dtype=np.uint8)]
        )
        assert np.array_equal(z_vector.bits, rebuilt)
        assert len(z_vector) == pc.ghd.code_len * pc.block_count + 1

    def test_message_bits_accounting(self):
        pc = make_config("observable-pauli", 64, 0.5)
        sr, x, _ = draw_instance(pc, 59)
        msg = proto.ALICE["observable-pauli"](x, pc, sr)
        mask_len = pc.ghd.code_len * pc.block_count + 1
        assert msg.main_bits == 64 + mask_len
        assert msg.side_bits == 64
        assert msg.side_bits < msg.main_bits

    def test_identical_codewords_give_zero_target(self):
        # a one-hot block copies a pad column, so querying that column
        # compares two identical codewords
        pc = make_config("observable-pauli", 64, 0.5)
        sr = SharedRandomness(60)
        gamma = pc.ghd.gamma
        nblocks = pc.block_count - gamma
        x = BitVector(np.tile(BitVector.from_int(1, gamma).bits, nblocks))
        msg = proto.ALICE["observable-pauli"](x, pc, sr)
        res = proto.BOB["observable-pauli"](msg, 1, pc, sr, OracleSpec())  # l=1 -> i=1, j=1
        assert res.target == 0
        assert float(res.delta_estimate) == 0.0

    def test_target_is_negative_scaled_distance(self):
        pc = make_config("observable-pauli", 64, 0.5)
        for seed in (61, 62, 63):
            sr, x, l = draw_instance(pc, seed)
            msg = proto.ALICE["observable-pauli"](x, pc, sr)
            res = proto.BOB["observable-pauli"](msg, l, pc, sr, OracleSpec())
            a, b, _, _ = queried_codewords(x, l, pc, sr)
            assert res.target == Fraction(-hamming(a, b), pc.ghd.code_len)

    def test_recovers_bit_with_exact_oracle(self):
        pc = make_config("observable-pauli", 64, 0.5)
        hits = 0
        for seed in range(200):
            sr, x, l = draw_instance(pc, 4000 + seed)
            msg = proto.ALICE["observable-pauli"](x, pc, sr)
            res = proto.BOB["observable-pauli"](msg, l, pc, sr, OracleSpec())
            hits += res.bit == x.bit(l)
        assert hits / 200 >= 0.8


class TestInnerProduct:
    def test_disjoint_supports_give_zero_target(self):
        pc = make_config("inner-product", 6, 0.5)
        sr = SharedRandomness(64)
        gamma = pc.ghd.gamma
        nblocks = pc.block_count - gamma
        # first block empty (encodes to zero), others one-hot to keep D > 0
        blocks = [np.zeros(gamma, dtype=np.uint8)]
        blocks += [BitVector.from_int(1, gamma).bits for _ in range(nblocks - 1)]
        x = BitVector(np.concatenate(blocks))
        msg = proto.ALICE["inner-product"](x, pc, sr)
        res = proto.BOB["inner-product"](msg, 1, pc, sr, OracleSpec())  # block 1, i=1
        assert float(res.target) == 0.0

    def test_identical_codewords_give_full_overlap(self):
        pc = make_config("inner-product", 6, 0.5)
        sr = SharedRandomness(65)
        gamma = pc.ghd.gamma
        nblocks = pc.block_count - gamma
        x = BitVector(np.tile(BitVector.from_int(1, gamma).bits, nblocks))
        msg = proto.ALICE["inner-product"](x, pc, sr)
        res = proto.BOB["inner-product"](msg, 1, pc, sr, OracleSpec())
        b = encode_bob(1, pc.ghd, sr)
        state, _ = ExactState.deserialize(msg.main_payload)
        expected = b.nnz / math.sqrt(state.norm_sq * b.nnz)
        assert float(res.target) == pytest.approx(expected, rel=1e-12)

    def test_target_matches_dense_dot_product(self):
        pc = make_config("inner-product", 8, 0.5)
        for seed in (66, 67, 68):
            sr, x, l = draw_instance(pc, seed)
            msg = proto.ALICE["inner-product"](x, pc, sr)
            res = proto.BOB["inner-product"](msg, l, pc, sr, OracleSpec())
            state, _ = ExactState.deserialize(msg.main_payload)
            i, j = proto.decompose_index(l, pc.ghd.gamma)
            b = encode_bob(i, pc.ghd, sr)
            other = np.zeros(state.numerators.shape[0], dtype=np.int64)
            start = (j - 1) * pc.ghd.code_len
            other[start : start + pc.ghd.code_len] = b.bits
            expected = int(state.numerators @ other) / math.sqrt(state.norm_sq * b.nnz)
            assert float(res.target) == pytest.approx(expected, rel=1e-12)

    def test_all_zero_instance_is_a_protocol_error(self):
        pc = make_config("inner-product", 6, 0.5)
        with pytest.raises(proto.ProtocolError):
            proto.ALICE["inner-product"](BitVector.zeros(pc.capacity), pc, SharedRandomness(69))

    def test_recovers_bit_with_exact_oracle(self):
        pc = make_config("inner-product", 8, 0.5)
        hits = 0
        for seed in range(200):
            sr, x, l = draw_instance(pc, 5000 + seed)
            msg = proto.ALICE["inner-product"](x, pc, sr)
            res = proto.BOB["inner-product"](msg, l, pc, sr, OracleSpec())
            hits += res.bit == x.bit(l)
        assert hits / 200 >= 0.8


class TestAdversarialBudget:
    @pytest.mark.parametrize(
        "kind,qubits",
        [
            ("general-state", 8),
            ("pauli-state", 8),
            ("observable-general", 6),
            ("observable-pauli", 64),
            ("inner-product", 8),
        ],
    )
    def test_distance_error_within_budget_every_trial(self, kind, qubits):
        pc = make_config(kind, qubits, 0.5)
        budget = pc.ghd.slack_d * math.sqrt(pc.ghd.code_len)
        for seed in range(60):
            sr, x, l = draw_instance(pc, 6000 + seed)
            spec = OracleSpec(
                model="relative-adversarial", accuracy=pc.oracle_accuracy, rng=sr
            )
            msg = proto.ALICE[kind](x, pc, sr)
            res = proto.BOB[kind](msg, l, pc, sr, spec)
            a, b, _, _ = queried_codewords(x, l, pc, sr)
            assert abs(float(res.delta_estimate) - hamming(a, b)) <= budget + 1e-9


class TestBobValidation:
    def test_index_out_of_range(self):
        pc = make_config("pauli-state", 6, 0.5)
        sr, x, _ = draw_instance(pc, 70)
        msg = proto.ALICE["pauli-state"](x, pc, sr)
        with pytest.raises(IndexError):
            proto.BOB["pauli-state"](msg, pc.capacity + 1, pc, sr, OracleSpec())

    def test_wrong_message_kind(self):
        pc = make_config("pauli-state", 6, 0.5)
        sr, x, l = draw_instance(pc, 71)
        msg = proto.ALICE["pauli-state"](x, pc, sr)
        with pytest.raises(Exception):
            proto.BOB["general-state"](msg, l, pc, sr, OracleSpec())

    def test_message_built_for_another_size_is_rejected(self):
        big = make_config("observable-general", 6, 0.5)
        small = make_config("observable-general", 5, 0.5)
        sr, x, _ = draw_instance(big, 72)
        msg = proto.ALICE["observable-general"](x, big, sr)
        with pytest.raises(MessageError, match="payload qubit count"):
            proto.BOB["observable-general"](msg, 1, small, sr, OracleSpec())

    @pytest.mark.parametrize(
        "kind,offset,fmt",
        [("observable-general", 0, "<I"), ("general-state", 1, "<B"), ("pauli-state", 1, "<B")],
    )
    def test_inflated_qubit_field_is_rejected(self, kind, offset, fmt):
        pc = make_config(kind, 6, 0.5)
        sr, x, l = draw_instance(pc, 73)
        msg = proto.ALICE[kind](x, pc, sr)
        main = bytearray(msg.main_payload)
        struct.pack_into(fmt, main, offset, 40)
        bad = ProtocolMessage(kind, bytes(main), msg.main_bits, msg.side_payload, msg.side_bits)
        with pytest.raises(MessageError, match="payload qubit count 40"):
            proto.BOB[kind](bad, l, pc, sr, OracleSpec())

    def test_side_info_block_count_must_match(self):
        pc = make_config("general-state", 6, 0.5)
        sr, x, _ = draw_instance(pc, 74)
        msg = proto.ALICE["general-state"](x, pc, sr)
        side = bytearray(msg.side_payload)
        struct.pack_into("<I", side, 8, 1)  # count 1, but the query sits in block 3
        bad = ProtocolMessage("general-state", msg.main_payload, msg.main_bits, bytes(side), msg.side_bits)
        l = 2 * pc.ghd.gamma + 1
        with pytest.raises(MessageError, match="side-info block count 1"):
            proto.BOB["general-state"](bad, l, pc, sr, OracleSpec())

    @pytest.mark.parametrize("kind", ["general-state", "inner-product", "pauli-state"])
    @pytest.mark.parametrize("shift", ["zero", -1, 1])
    def test_side_info_norm_must_match_the_state(self, kind, shift):
        pc = make_config(kind, 6, 0.5)
        sr, x, l = draw_instance(pc, 75)
        msg = proto.ALICE[kind](x, pc, sr)
        side = bytearray(msg.side_payload)
        (norm_sq,) = struct.unpack_from("<Q", side, 0)
        struct.pack_into("<Q", side, 0, 0 if shift == "zero" else norm_sq + shift)
        bad = ProtocolMessage(kind, msg.main_payload, msg.main_bits, bytes(side), msg.side_bits)
        with pytest.raises(MessageError, match="side-info squared norm"):
            proto.BOB[kind](bad, l, pc, sr, OracleSpec())

    @pytest.mark.parametrize(
        "kind,qubits",
        [("general-state", 6), ("inner-product", 6), ("observable-general", 5), ("pauli-state", 6),
         ("observable-pauli", 64)],
    )
    @pytest.mark.parametrize("change", [-8, 8])
    def test_main_payload_length_must_match_the_config(self, kind, qubits, change):
        pc = make_config(kind, qubits, 0.5)
        sr, x, l = draw_instance(pc, 76)
        msg = proto.ALICE[kind](x, pc, sr)
        main = msg.main_payload[:change] if change < 0 else msg.main_payload + bytes(change)
        bad = ProtocolMessage(kind, main, msg.main_bits + 8 * change, msg.side_payload, msg.side_bits)
        with pytest.raises(MessageError, match="main-payload length"):
            proto.BOB[kind](bad, l, pc, sr, OracleSpec())

    def test_sparse_state_payload_is_rejected(self):
        pc = make_config("general-state", 6, 0.5)
        sr, x, l = draw_instance(pc, 77)
        msg = proto.ALICE["general-state"](x, pc, sr)
        state, _ = ExactState.deserialize(msg.main_payload)
        support = [(int(k), int(v)) for k, v in enumerate(state.numerators) if v]
        sparse, _ = ExactState.from_support(support, state.qubits).serialize()
        main = sparse + bytes(len(msg.main_payload) - len(sparse))
        bad = ProtocolMessage("general-state", main, 8 * len(main), msg.side_payload, msg.side_bits)
        with pytest.raises(MessageError, match="dense layout"):
            proto.BOB["general-state"](bad, l, pc, sr, OracleSpec())
