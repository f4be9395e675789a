"""Protocol encoders/decoders against brute-force constructions."""
import dataclasses
import math
import os
import struct
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import gapcomm.protocols as proto
from gapcomm import _kernels
from gapcomm.bits import STREAM_INDEX, STREAM_INSTANCE, SharedRandomness, pack_bits
from gapcomm.ghd import GhdParams, decision_threshold, encode_alice, encode_bob, public_pads
from gapcomm.harness import sample_instance
from gapcomm.messages import MessageError, ProtocolMessage
from gapcomm.oracle import PUSH_DOWN, PUSH_UP, OracleSpec
from gapcomm.pauli import PauliMask
from gapcomm.states import TAIL_CHUNK, ExactState, StateError, dense_wire_parts
from gapcomm.verify import _subset_state_target, _sum_norm_formula_target

from dense_states import dense_wire


def make_config(kind, qubits, epsilon, **kw) -> proto.ProtocolConfig:
    return proto.ProtocolConfig(kind=kind, qubits=qubits, ghd=GhdParams(epsilon=epsilon), **kw)


def draw_instance(pc, seed, odd=True):
    sr = SharedRandomness(seed)
    x = sample_instance(sr.substream(STREAM_INSTANCE), pc, odd)
    l = sr.substream(STREAM_INDEX).integer(1, pc.capacity + 1)
    return sr, x, l


def queried_codewords(x, l, pc, sr):
    i, j = proto.decompose_index(l, pc.ghd.gamma)
    gamma = pc.ghd.gamma
    block = x[(j - 1) * gamma : j * gamma]
    return encode_alice(block, pc.ghd, sr), encode_bob(i, pc.ghd, sr), i, j


def distance(a: np.ndarray, b: np.ndarray) -> int:
    return int(np.count_nonzero(a != b))


def z_string(payload: bytes) -> np.ndarray:
    """The bits of an observable-pauli main payload: a u64 count, then the
    bits packed LSB-first."""
    (count,) = struct.unpack_from("<Q", payload)
    packed = np.frombuffer(payload, dtype=np.uint8, offset=8)
    return np.unpackbits(packed, count=count, bitorder="little")


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

    def test_epsilon_interval_is_checked_before_the_code_length(self):
        # gamma = ceil(epsilon^-2) is about 1e308 here, far past the 2^24
        # code-length cap, yet the message names the epsilon interval
        with pytest.raises(proto.ConfigError, match=r"epsilon 1e-154 outside validity interval \(0\.25, 1\)"):
            make_config("pauli-state", 8, 1e-154)

    def test_an_epsilon_floor_that_overflows_is_a_config_error(self):
        # observable-pauli's floor n^(-1/4) cannot take n = 10^1300 as a float
        with pytest.raises(proto.ConfigError, match="qubits too large for observable-pauli"):
            make_config("observable-pauli", 10**1300, 0.3)

    @pytest.mark.parametrize(
        "kind, qubits",
        [("general-state", 8), ("pauli-state", 6), ("observable-general", 6),
         ("observable-pauli", 64), ("inner-product", 6)],
    )
    def test_bob_blocks_follow_alice_blocks(self, kind, qubits):
        pc = make_config(kind, qubits, 0.5)
        gamma = pc.ghd.gamma
        assert pc.alice_blocks == pc.block_count - gamma >= 1
        assert pc.capacity == pc.alice_blocks * gamma
        # the last index is Alice's last block and Bob's last query position,
        # whose codeword fills the last stacked block
        i, j = proto.decompose_index(pc.capacity, gamma)
        assert (i, j) == (gamma, pc.alice_blocks)
        assert pc.alice_blocks + i == pc.block_count

    def test_capacity_requires_blocks_beyond_gamma(self):
        with pytest.raises(proto.ConfigError, match="no index capacity"):
            make_config("general-state", 2, 0.8)  # 2 blocks, gamma 2

    @pytest.mark.parametrize(
        "kind, qubits, match",
        [("shadow-adapter", 8, "unknown protocol kind"),
         ("general-state", 0, "qubits must be >= 1")],
    )
    def test_rejects_kind_and_qubits(self, kind, qubits, match):
        with pytest.raises(proto.ConfigError, match=match):
            make_config(kind, qubits, 0.5)

    def test_alice_and_bob_reject_another_kinds_config(self):
        pc = make_config("general-state", 8, 0.5)
        sr, x, l = draw_instance(pc, 53)
        msg = proto.ALICE["general-state"](x, pc, sr)
        with pytest.raises(proto.ConfigError, match="config kind mismatch"):
            proto.alice("pauli-state", x, pc, sr)
        foreign = dataclasses.replace(msg, protocol="pauli-state")
        with pytest.raises(proto.ConfigError, match="config kind mismatch"):
            proto.bob("pauli-state", foreign, l, pc, sr, OracleSpec())

    def test_observable_general_dense_cap(self):
        with pytest.raises(proto.ConfigError):
            make_config("observable-general", 11, 0.5)

    def test_observable_pauli_z_string_cap(self):
        # 379473168 instance bits would need a 22768398721-bit Z-string,
        # about 22.8 GB of Alice's codeword bytes
        with pytest.raises(proto.ConfigError, match="Z-string bits"):
            make_config("observable-pauli", 10**15, 0.3)

    def test_codeword_cap_is_shared_by_every_kind(self):
        # observable-general at n=10: 1024 blocks of 24600 code bits fit the
        # cap, 30360 (epsilon 0.0445) and 49860 (0.0347) do not
        make_config("observable-general", 10, 0.0494)
        for epsilon in (0.0347, 0.0396, 0.0445):
            with pytest.raises(proto.ConfigError, match="codeword bits"):
                make_config("observable-general", 10, epsilon)

    def test_pauli_state_cap_is_the_u64_norm_field(self):
        # Alice's squared norm is at least 2^(3n), past u64 from n=22 on
        make_config("pauli-state", 21, 0.5)
        for n in (22, 23, 40):
            with pytest.raises(proto.ConfigError, match="u64 squared-norm field"):
                make_config("pauli-state", n, 0.5)

    @pytest.mark.parametrize("qubits, epsilon", [(19, 0.038), (20, 0.04)])
    def test_pauli_state_worst_case_norm_past_u64_is_a_config_error(self, qubits, epsilon):
        # both clear the 2^(3n) floor, but the squared norm of some instances
        # overflows the u64 field, which Alice would find only in
        # dense_wire_parts, after building the whole state
        with pytest.raises(proto.ConfigError, match="u64 squared-norm field"):
            make_config("pauli-state", qubits, epsilon)

    @pytest.mark.parametrize(
        "kind, qubits, epsilon, main_bits",
        [("pauli-state", 21, 0.5, 80 + 64 * (1 << 22)),
         ("general-state", 18, 0.3, 80 + 64 * (1 << 24)),
         ("inner-product", 18, 0.3, 80 + 64 * (1 << 24)),
         ("observable-general", 10, 0.3, 32 + 64 * (1 << 20)),
         # 40777 blocks of 720 code bits; n + 1 = 40778^2 adds a block
         ("observable-pauli", 40778**2 - 1, 0.3, 64 + 720 * 40777 + 1)],
        ids=["pauli-state", "general-state", "inner-product", "observable-general", "observable-pauli"],
    )
    def test_each_kind_runs_at_its_largest_size(self, kind, qubits, epsilon, main_bits):
        with pytest.raises(proto.ConfigError):
            make_config(kind, qubits + 1, epsilon)
        pc = make_config(kind, qubits, epsilon)
        sr, x, l = draw_instance(pc, 88)
        msg = proto.ALICE[kind](x, pc, sr)
        assert msg.main_bits == main_bits
        res = proto.BOB[kind](ProtocolMessage.from_wire(msg.to_wire()), l, pc, sr, OracleSpec())
        assert res.bit == x[l - 1]

    def test_every_accepted_config_keeps_every_wire_bound(self):
        # Config-only: each config is rejected or keeps every bound its
        # trial relies on, including those no spec entry states.
        epsilons = [0.0249 + 0.0049 * k for k in range(0, 199, 3)]
        sizes = {
            "general-state": range(1, 26), "inner-product": range(1, 26),
            "pauli-state": range(1, 24), "observable-general": range(1, 12),
            "observable-pauli": [4**k for k in range(1, 32, 2)] + [10**11, 10**15],
        }
        for kind, qubit_counts in sizes.items():
            outcomes = set()
            for n in qubit_counts:
                for eps in epsilons:
                    try:
                        pc = make_config(kind, n, eps)
                    except proto.ConfigError:
                        outcomes.add("rejected")
                        continue
                    outcomes.add("accepted")
                    for what, value, bound in wire_bounds(pc):
                        assert value < bound, (kind, n, eps, what)
            assert outcomes == {"accepted", "rejected"}, kind

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


def wire_bounds(pc) -> list:
    """(what, value, exclusive bound) for every field and count a trial of
    ``pc`` writes, each value the worst case over all instances."""
    n, code_len = pc.qubits, pc.ghd.code_len
    bounds = [("float32-exact counts", code_len, 1 << 24)]
    if pc.kind != "observable-pauli":
        # the side info's u32 block count and its u32 nnz(a^j) counts
        bounds += [("u32 block count", pc.alice_blocks, 1 << 32), ("u32 nnz", code_len, 1 << 32)]
    if pc.kind in ("general-state", "inner-product"):
        # a 0/1 state's squared norm is its weight, at most every stacked entry
        bounds += [("desk cap", n + pc.pad_exponent, 25),
                   ("u64 weight", pc.block_count * code_len, 1 << 64)]
    elif pc.kind == "pauli-state":
        # Parseval over the sum-norm table, each entry at most 4 * code_len;
        # fwht's int64 sums stay below 2^bits(4 * code_len) * dim
        dim = 1 << n
        norm_sq = dim * (pc.capacity * (4 * code_len) ** 2 + dim * dim)
        bounds += [("u64 squared norm", norm_sq, 1 << 64),
                   ("fwht int64 headroom", (4 * code_len).bit_length() + n, 63)]
    elif pc.kind == "observable-general":
        # the Gram matrix's operator norm is at most dim * code_len, and its
        # 32-bit fixed point must fit the u64 side-info field
        bounds += [("desk cap", n, 11), ("u64 norm_fp", (1 << n) * code_len, 1 << 32)]
    else:
        bounds.append(("u64 Z-string bit count", code_len * pc.block_count + 1, 1 << 64))
    return bounds


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

    def test_index_zero_is_rejected(self):
        with pytest.raises(IndexError):
            proto.decompose_index(0, 4)


class TestPartitionAndEncode:
    def test_block_count_arithmetic(self):
        pc = make_config("general-state", 8, 0.5)
        x = np.zeros(pc.capacity, np.uint8)
        a_rows, b_rows = proto.encode_block_matrices(x, pc, SharedRandomness(31))
        assert a_rows.shape == (pc.block_count - pc.ghd.gamma, pc.ghd.code_len)
        assert b_rows.shape == (pc.ghd.gamma, pc.ghd.code_len)

    def test_all_zero_source_gives_zero_codewords(self):
        pc = make_config("general-state", 8, 0.5)
        a_rows, _ = proto.encode_block_matrices(
            np.zeros(pc.capacity, np.uint8), pc, SharedRandomness(32)
        )
        assert not a_rows.any()

    def test_blockwise_agreement_with_single_encoder(self):
        pc = make_config("general-state", 8, 0.5)
        sr, x, _ = draw_instance(pc, 33)
        a_rows, b_rows = proto.encode_block_matrices(x, pc, sr)
        gamma = pc.ghd.gamma
        for j, a in enumerate(a_rows, start=1):
            block = x[(j - 1) * gamma : j * gamma]
            assert np.array_equal(a, encode_alice(block, pc.ghd, sr))
        for i, b in enumerate(b_rows, start=1):
            assert np.array_equal(b, encode_bob(i, pc.ghd, sr))

    def test_matrix_encoding_matches_per_block_majority(self):
        # unrestricted instances hold even-weight blocks (majority ties) and,
        # forced below, an all-zero and a full block
        for kind, qubits in (("general-state", 8), ("observable-general", 6)):
            pc = make_config(kind, qubits, 0.5)
            gamma = pc.ghd.gamma
            for seed in range(35, 41):
                sr, x, _ = draw_instance(pc, seed, odd=False)
                bits = x.copy()
                bits[:gamma] = 0
                bits[gamma : 2 * gamma] = 1
                blocks = bits.reshape(-1, gamma)
                assert (blocks.sum(axis=1) % 2 == 0).sum() > 2
                a_rows, b_rows = proto.encode_block_matrices(bits, pc, sr)
                pads = public_pads(pc.ghd, sr)
                for j, block in enumerate(blocks):
                    selected = np.nonzero(block)[0].astype(np.int64)
                    assert np.array_equal(a_rows[j], _kernels.majority_rows(pads, selected))
                assert not a_rows[0].any()
                assert np.array_equal(b_rows, pads.T)

    def test_length_mismatch_rejected(self):
        pc = make_config("general-state", 8, 0.5)
        with pytest.raises(proto.ConfigError):
            proto.encode_block_matrices(np.zeros(3, np.uint8), pc, SharedRandomness(34))

    def test_bob_rows_are_a_read_only_view_of_the_cached_pads(self):
        pc = make_config("general-state", 8, 0.5)
        sr, x, _ = draw_instance(pc, 41)
        _, b_rows = proto.encode_block_matrices(x, pc, sr)
        pads = public_pads(pc.ghd, sr)
        before = pads.copy()
        assert np.shares_memory(b_rows, pads)
        assert not b_rows.flags.writeable
        with pytest.raises(ValueError):
            b_rows[0, 0] ^= 1
        assert np.array_equal(public_pads(pc.ghd, sr), before)


class TestGeneralState:
    def test_message_round_trips_and_norm_is_total_weight(self):
        pc = make_config("general-state", 6, 0.5)
        sr, x, _ = draw_instance(pc, 35)
        msg = ProtocolMessage.from_wire(proto.ALICE["general-state"](x, pc, sr).to_wire())
        state, _ = ExactState.deserialize(msg.main_payload)
        a_rows, b_rows = proto.encode_block_matrices(x, pc, sr)
        assert state.norm_sq == int(a_rows.sum()) + int(b_rows.sum())
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
            hits += res.bit == x[l - 1]
        assert hits / 200 >= 0.8

    def test_contraction_norm_bounded(self):
        pc = make_config("general-state", 6, 0.5)
        rng = np.random.default_rng(45)
        for _ in range(10):
            l = int(rng.integers(1, pc.capacity + 1))
            strip = proto.general_state_ml_strip(pc, l)
            eigs = np.linalg.eigvalsh(strip @ strip.T)
            assert eigs.min() >= -1e-9 and eigs.max() <= 1 + 1e-9


class TestDenseWirePath:
    """The 2 MiB general-state n=12 message is written once on Alice's side
    and read in place on Bob's."""

    @staticmethod
    def peak_bytes(fn):
        tracemalloc.start()
        try:
            result = fn()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, peak

    def test_allocation_peaks(self):
        pc = make_config("general-state", 12, 0.3)
        sr, x, l = draw_instance(pc, 46)
        alice, bob = proto.ALICE["general-state"], proto.BOB["general-state"]
        bob(ProtocolMessage.from_wire(alice(x, pc, sr).to_wire()), l, pc, sr, OracleSpec())  # warm caches
        wire, alice_peak = self.peak_bytes(lambda: alice(x, pc, sr).to_wire())
        main_bytes = len(ProtocolMessage.from_wire(wire).main_payload)
        assert main_bytes == 10 + 8 * (1 << 18)
        # at most two copies live at once: the array and its payload, then
        # the payload and the wire
        assert alice_peak < 2.5 * main_bytes
        res, bob_peak = self.peak_bytes(
            lambda: bob(ProtocolMessage.from_wire(wire), l, pc, sr, OracleSpec())
        )
        # the norm check reads the wire in place, with no copy of the amplitudes
        assert bob_peak < 256 * 1024
        assert res.bit == x[l - 1]

    def test_corrupted_numerator_on_the_wire_fails_the_norm_check(self):
        pc = make_config("general-state", 6, 0.5)
        sr, x, l = draw_instance(pc, 47)
        wire = bytearray(proto.ALICE["general-state"](x, pc, sr).to_wire())
        wire[32] ^= 0x01  # first amplitude: 22-byte message header, 10-byte state header
        with pytest.raises(MessageError, match="norm_sq"):
            proto.BOB["general-state"](ProtocolMessage.from_wire(wire), l, pc, sr, OracleSpec())

    @pytest.mark.parametrize("kind", ["general-state", "inner-product", "pauli-state"])
    def test_amplitudes_read_off_the_wire_are_aligned(self, kind):
        pc = make_config(kind, 6, 0.5)
        sr, x, l = draw_instance(pc, 48)
        msg = proto.ALICE[kind](x, pc, sr)
        state, _ = ExactState.deserialize(ProtocolMessage.from_wire(msg.to_wire()).main_payload)
        assert state.numerators.flags.aligned
        # alignment is a speed property only: the same state read at an odd
        # offset, through an unaligned view of bytes, gives the same norm and form
        shifted, _ = ExactState.deserialize(memoryview(b"\xff" * 3 + bytes(msg.main_payload))[3:])
        assert not shifted.numerators.flags.aligned
        assert shifted.norm_sq == state.norm_sq
        z, x_mask = 0b1011, 1 << (state.qubits - 1)
        quad = _kernels.pauli_quad(state.numerators, z, x_mask)
        assert _kernels.pauli_quad(shifted.numerators, z, x_mask) == quad


def stacked_reference_wire(kind, x, pc, sr) -> bytes:
    """Alice's stacked-state wire rebuilt from the full padded array by a
    writer of its own: the state header, then every amplitude as int64."""
    a_rows, b_rows = proto.encode_block_matrices(x, pc, sr)
    rows = a_rows if kind == "inner-product" else np.concatenate([a_rows, b_rows])
    qubits = pc.qubits + pc.pad_exponent
    full = np.zeros(1 << qubits, dtype=np.int64)
    full[: rows.size] = rows.reshape(-1)
    norm_sq = int(np.dot(full, full))
    main = struct.pack("<BBQ", 0, qubits, norm_sq) + full.astype("<i8").tobytes()
    counts = a_rows.sum(axis=1)
    side = struct.pack("<QI", norm_sq, len(counts)) + counts.astype("<u4").tobytes()
    return ProtocolMessage(kind, main, 8 * len(main), side, 8 * len(side)).to_wire()


class TestDenseWireParts:
    """Alice writes her stacked state as parts (header, occupied amplitudes,
    shared zero tail); ``to_wire`` is the one join of the 2 MiB message."""

    @pytest.mark.parametrize("kind", ["general-state", "inner-product"])
    @pytest.mark.parametrize("qubits,epsilon", [(6, 0.5), (8, 0.4), (12, 0.3)])
    def test_wire_equals_the_serialized_full_state(self, kind, qubits, epsilon):
        pc = make_config(kind, qubits, epsilon)
        for seed in (80, 81):
            sr, x, _ = draw_instance(pc, seed)
            wire = proto.ALICE[kind](x, pc, sr).to_wire()
            assert wire == stacked_reference_wire(kind, x, pc, sr)

    def test_alice_and_to_wire_hold_little_beyond_the_wire(self):
        pc = make_config("general-state", 12, 0.3)
        sr, x, _ = draw_instance(pc, 82)
        alice = proto.ALICE["general-state"]
        alice(x, pc, sr).to_wire()  # warm the pad and zero-tail caches
        wire, peak = TestDenseWirePath.peak_bytes(lambda: alice(x, pc, sr).to_wire())
        main_bytes = 10 + 8 * (1 << 18)
        assert len(wire) > main_bytes
        # the wire plus the occupied amplitudes, never a second full copy
        assert peak < 1.3 * main_bytes

    def test_unwired_message_reads_like_the_wired_one(self):
        pc = make_config("inner-product", 8, 0.4)
        sr, x, l = draw_instance(pc, 83)
        msg = proto.ALICE["inner-product"](x, pc, sr)
        assert len(msg.main_parts) == 3
        wired = ProtocolMessage.from_wire(msg.to_wire())
        assert bytes(msg.main_payload) == bytes(wired.main_payload)
        assert msg.main_payload is msg.main_payload  # joined once, then cached
        assert wired.to_wire() == msg.to_wire()
        res = proto.BOB["inner-product"](msg, l, pc, sr, OracleSpec())
        assert res == proto.BOB["inner-product"](wired, l, pc, sr, OracleSpec())

    @pytest.mark.parametrize("kind", ["general-state", "inner-product", "pauli-state"])
    @pytest.mark.parametrize("odd", [True, False])
    def test_header_norm_is_the_sum_of_squares(self, kind, odd):
        # Alice takes her norm from her own weights (stacked kinds) or by
        # Parseval (pauli-state); both header fields must be the plain sum
        for qubits, epsilon in [(6, 0.5), (8, 0.4), (12, 0.3)]:
            pc = make_config(kind, qubits, epsilon)
            sr, x, _ = draw_instance(pc, 84, odd)
            msg = proto.ALICE[kind](x, pc, sr)
            amps = np.frombuffer(msg.main_payload, dtype="<i8", offset=10)
            reference = sum(int(v) ** 2 for v in amps[np.flatnonzero(amps)])
            assert struct.unpack_from("<Q", msg.main_payload, 2)[0] == reference
            assert struct.unpack_from("<Q", msg.side_payload)[0] == reference

    @pytest.mark.parametrize("kind", ["general-state", "inner-product"])
    def test_bob_reads_the_norm_of_an_amplitude_planted_in_the_zero_tail(self, kind):
        # a hostile stacked state with one amplitude in its zero tail and both
        # norm fields fixed up: the norm check must count it, wherever its
        # nonzero bytes sit
        pc = make_config(kind, 10, 0.5)
        sr, x, l = draw_instance(pc, 85)
        msg = proto.ALICE[kind](x, pc, sr)
        i, j = proto.decompose_index(l, pc.ghd.gamma)
        honest = proto.SPECS[kind].read(msg, i, j, pc, sr)
        amps = np.frombuffer(msg.main_payload, dtype="<i8", offset=10)
        # the occupied prefix ends where the layout says, not at the last
        # nonzero amplitude, which depends on the draw
        blocks = pc.alice_blocks + (pc.ghd.gamma if kind == "general-state" else 0)
        tail = blocks * pc.ghd.code_len
        dim = amps.size
        planted = [
            (tail, 1),  # byte 0, in the chunk the prefix ends in
            (tail + TAIL_CHUNK, 1 << 8),  # byte 1
            ((tail + dim) // 2, 1 << 16),  # byte 2
            (dim - TAIL_CHUNK - 1, 1 << 24),  # byte 3, last entry of its chunk
            (dim - TAIL_CHUNK // 2, -1),  # every byte, in the last chunk
            (dim - 1, -(1 << 31)),  # bytes 3-7, the last entry
        ]
        own_norm = int(np.count_nonzero(public_pads(pc.ghd, sr)[:, i - 1]))
        for index, value in planted:
            bad = amps.copy()
            bad[index] = value
            norm_sq = sum(int(v) ** 2 for v in bad[np.flatnonzero(bad)])
            main = msg.main_payload[:2] + struct.pack("<Q", norm_sq) + bad.tobytes()
            side = struct.pack("<Q", norm_sq) + msg.side_payload[8:]
            wire = ProtocolMessage(kind, main, msg.main_bits, side, msg.side_bits).to_wire()
            reading = proto.SPECS[kind].read(ProtocolMessage.from_wire(wire), i, j, pc, sr)
            assert reading.delta == honest.delta
            if kind == "general-state":
                assert reading.rescale == 2 * norm_sq, index
            else:
                assert reading.rescale == 2.0 * math.sqrt(norm_sq * own_norm), index

    def test_writer_rejects_a_prefix_longer_than_the_state(self):
        with pytest.raises(StateError, match="does not fit"):
            dense_wire_parts(np.ones(9, dtype=np.int64), 3, 9)

    @pytest.mark.parametrize("prefix", [np.zeros(5, dtype=np.int64), np.zeros(0, dtype=np.int64)])
    def test_writer_rejects_an_all_zero_prefix(self, prefix):
        with pytest.raises(StateError, match="nonzero"):
            dense_wire_parts(prefix, 3, 0)

    def test_writer_keeps_the_wire_limits(self):
        with pytest.raises(StateError, match="norm_sq too large"):
            dense_wire_parts(np.full(4, 1 << 31, dtype=np.int64), 2, 4 << 62)
        with pytest.raises(StateError, match="qubit count"):
            dense_wire_parts(np.ones(1, dtype=np.int64), 256, 1)


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
        a_rows, b_rows = proto.encode_block_matrices(x, pc, sr)
        stacked = np.zeros(dim, dtype=np.int64)
        gamma = pc.ghd.gamma
        for j, a in enumerate(a_rows, start=1):
            for i, b in enumerate(b_rows, start=1):
                summed = a.astype(np.int64) + b.astype(np.int64)
                stacked[(j - 1) * gamma + i - 1] = summed @ summed
        assert np.array_equal(fwht(v_half), dim * stacked)

    def test_all_zero_source_stacks_bob_weights(self):
        pc = make_config("pauli-state", 6, 0.5)
        sr = SharedRandomness(47)
        from gapcomm.fwht import fwht

        msg = proto.ALICE["pauli-state"](np.zeros(pc.capacity, np.uint8), pc, sr)
        state, _ = ExactState.deserialize(msg.main_payload)
        dim = 1 << pc.qubits
        recovered = fwht(state.numerators[:dim]) // dim
        gamma = pc.ghd.gamma
        for i in range(1, gamma + 1):
            b = encode_bob(i, pc.ghd, sr)
            for j in range(pc.block_count - gamma):
                assert recovered[j * gamma + i - 1] == np.count_nonzero(b)

    def test_observable_is_a_valid_mask(self):
        pc = make_config("pauli-state", 6, 0.5)
        sr, x, l = draw_instance(pc, 48)
        n = pc.qubits
        mask = PauliMask(z=l - 1, x=1 << n, qubits=n + 1)
        assert not mask.z & mask.x

    def test_target_formula_and_dense_agreement(self):
        pc = make_config("pauli-state", 6, 0.5)
        for seed in (49, 50, 51):
            sr, x, l = draw_instance(pc, seed)
            msg = proto.ALICE["pauli-state"](x, pc, sr)
            res = proto.BOB["pauli-state"](msg, l, pc, sr, OracleSpec())
            state, _ = ExactState.deserialize(msg.main_payload)
            a, b, i, j = queried_codewords(x, l, pc, sr)
            summed = a.astype(np.int64) + b.astype(np.int64)
            sum_norm = int(summed @ summed)
            n = pc.qubits
            assert res.target == Fraction(2 * sum_norm * (1 << (2 * n)), state.norm_sq)
            # dense route: explicit matrix on n+1 qubits
            mask = PauliMask(z=l - 1, x=1 << n, qubits=n + 1)
            dense = mask.to_dense()
            nums = state.numerators
            assert res.target == Fraction(int(nums @ dense @ nums), state.norm_sq)

    @pytest.mark.parametrize("fill", ["random", "ones", "zeros"])
    def test_pairwise_sum_norms_match_an_int64_reference(self, fill):
        # pauli-state n=12 at epsilon 0.3: 52 Alice rows, 12 Bob rows of 720 bits
        rng = np.random.default_rng(60)
        if fill == "random":
            a_rows = rng.integers(0, 2, size=(52, 720), dtype=np.uint8)
            b_rows = rng.integers(0, 2, size=(12, 720), dtype=np.uint8)
        else:
            a_rows = np.full((52, 720), fill == "ones", dtype=np.uint8)
            b_rows = np.full((12, 720), fill == "ones", dtype=np.uint8)
        expected = [
            int((a + b) @ (a + b)) for a in a_rows.astype(np.int64) for b in b_rows.astype(np.int64)
        ]
        norms, nnz_a = proto._pairwise_sum_norms(a_rows, b_rows)
        assert norms.dtype == np.int64
        assert norms.tolist() == expected
        assert nnz_a.dtype == np.int64
        assert nnz_a.tolist() == a_rows.sum(axis=1, dtype=np.int64).tolist()

    @pytest.mark.parametrize("qubits, epsilon, limbs", [(14, 0.2, 1), (16, 0.3, 1), (18, 0.3, 2)])
    def test_target_is_exact_where_the_int64_guard_used_to_fail(self, qubits, epsilon, limbs):
        # sizes where the norm check and the quadratic form once looped per
        # entry in Python, under the old guard 2 * bits + len bits < 62
        pc = make_config("pauli-state", qubits, epsilon)
        sr, x, l = draw_instance(pc, 52)
        msg = proto.ALICE["pauli-state"](x, pc, sr)
        nums = ExactState.deserialize(msg.main_payload)[0].numerators
        bound = _kernels.abs_bound(nums)
        assert 2 * bound.bit_length() + nums.size.bit_length() >= 62
        assert len(_kernels.limbs(nums, bound, _kernels.product_width(nums.size))) == limbs
        res = proto.BOB["pauli-state"](msg, l, pc, sr, OracleSpec())
        assert res.target == _sum_norm_formula_target(x, l, pc, sr, msg)

    def test_recovers_bit_with_exact_oracle(self):
        pc = make_config("pauli-state", 8, 0.5)
        hits = 0
        for seed in range(200):
            sr, x, l = draw_instance(pc, 2000 + seed)
            msg = proto.ALICE["pauli-state"](x, pc, sr)
            res = proto.BOB["pauli-state"](msg, l, pc, sr, OracleSpec())
            hits += res.bit == x[l - 1]
        assert hits / 200 >= 0.8


class TestPackedGram:
    @staticmethod
    def rows(side, inner, seed) -> np.ndarray:
        """Random 0/1 float32 rows with every seventh row all ones, so that
        some packed entries reach the bound inner * (2^s + 1)."""
        rows = np.random.default_rng(seed).integers(0, 2, size=(side, inner)).astype(np.float32)
        rows[::7] = 1
        return rows

    @staticmethod
    def int64_gram(rows) -> np.ndarray:
        # float64 sums of 0/1 products below 2^53 are exact, so this is the
        # int64 product, at BLAS speed
        wide = rows.astype(np.float64)
        return (wide @ wide.T).astype(np.int64)

    def test_packed_inner_bound_is_the_largest_exact_one(self):
        exact = lambda inner: inner * ((1 << inner.bit_length()) + 1) < proto.FLOAT32_EXACT
        assert exact(proto.PACKED_INNER) and not exact(proto.PACKED_INNER + 1)

    @pytest.mark.parametrize("side", [255, 256, 720])
    @pytest.mark.parametrize("inner", [1, 720, 4095, 4096, 9000])
    def test_gram_equals_the_int64_product(self, side, inner):
        # inner 4096 and 9000 run in chunks; odd sides split unevenly
        rows = self.rows(side, inner, side + inner)
        gram = proto._gram(rows, "test-gram")
        assert gram.dtype == np.float64 and gram.shape == (side, side)
        assert np.array_equal(gram, self.int64_gram(rows))

    @pytest.mark.parametrize("side, inner", [(720, 1024), (255, 9000)])
    def test_gram_of_a_transposed_view(self, side, inner):
        # the 2^n > code_len branch passes rows.T, a column-major view
        rows = np.asfortranarray(self.rows(side, inner, 7))
        assert not rows.flags.c_contiguous
        assert np.array_equal(proto._gram(rows, "test-gram-t"), self.int64_gram(rows))


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
        a_rows, b_rows = proto.encode_block_matrices(x, pc, sr)
        cols = np.concatenate([a_rows, b_rows]).T.astype(float)
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
            summed = a.astype(np.int64) + b.astype(np.int64)
            a_rows, b_rows = proto.encode_block_matrices(x, pc, sr)
            cols = np.concatenate([a_rows, b_rows]).T.astype(float)
            norm = float(np.abs(np.linalg.eigvalsh(cols.T @ cols)).max())
            assert abs(float(res.target) - int(summed @ summed) / (2 * norm)) <= 1e-9

    @staticmethod
    def byte_writer_main(a_rows, b_rows, pc) -> bytes:
        """The main payload as first written: a float64 Gram matrix rounded
        and joined to its u32 qubit count in one buffer, before ``to_wire``."""
        columns = np.concatenate([a_rows, b_rows], axis=0).astype(np.float32).T
        dim = 1 << pc.qubits
        gram = (columns.T @ columns).astype(np.float64)
        small = gram if dim <= pc.ghd.code_len else (columns @ columns.T).astype(np.float64)
        norm_fp = proto._norm_fp(small, dim)
        entries = np.round(gram / (norm_fp / (1 << proto.NORM_FRAC_BITS)) * (1 << proto.ENTRY_FRAC_BITS))
        return struct.pack("<I", pc.qubits) + entries.astype("<i8").tobytes()

    @pytest.mark.parametrize("qubits,epsilon", [(4, 0.5), (6, 0.5), (8, 0.3), (8, 0.5), (8, 0.07)])
    def test_main_payload_is_two_parts_with_the_byte_writer_wire(self, qubits, epsilon):
        # (8, 0.5) has 2^n > code_len, so the norm comes from the smaller Gram
        # side; (8, 0.07) has code_len 12300, so the Gram products run in chunks
        pc = make_config("observable-general", qubits, epsilon)
        sr, x, _ = draw_instance(pc, 61)
        msg = proto.ALICE["observable-general"](x, pc, sr)
        assert len(msg.main_parts) == 2
        a_rows, b_rows = proto.encode_block_matrices(x, pc, sr)
        old = ProtocolMessage(
            "observable-general", self.byte_writer_main(a_rows, b_rows, pc), msg.main_bits,
            msg.side_payload, msg.side_bits,
        )
        assert msg.to_wire() == old.to_wire()

    @staticmethod
    def wire_on_new_thread(pc, sr, x) -> bytes:
        """The wire Alice writes on a thread with no work arrays yet."""
        out = []
        t = threading.Thread(target=lambda: out.append(proto.ALICE["observable-general"](x, pc, sr).to_wire()))
        t.start()
        t.join(timeout=60)
        return out[0]

    @pytest.mark.parametrize("qubits", [6, 8])
    def test_reused_work_arrays_never_back_a_message(self, qubits):
        # at n=8, epsilon 0.5 the norm comes from the smaller Gram side
        pc = make_config("observable-general", qubits, 0.5)
        sr_a, x_a, _ = draw_instance(pc, 62)
        sr_b, x_b, _ = draw_instance(pc, 63)
        alone = self.wire_on_new_thread(pc, sr_a, x_a)
        msg_a = proto.ALICE["observable-general"](x_a, pc, sr_a)
        msg_b = proto.ALICE["observable-general"](x_b, pc, sr_b)
        assert msg_a.to_wire() == alone
        assert msg_b.to_wire() != alone

    def test_threads_encoding_at_once_give_the_serial_bytes(self):
        pc = make_config("observable-general", 6, 0.5)
        draws = [draw_instance(pc, 64 + k)[:2] for k in range(4)]
        serial = [proto.ALICE["observable-general"](x, pc, sr).to_wire() for sr, x in draws]
        bad = []
        start = threading.Barrier(8)

        def work(k):
            sr, x = draws[k % len(draws)]
            start.wait(timeout=60)
            for _ in range(10):
                if proto.ALICE["observable-general"](x, pc, sr).to_wire() != serial[k % len(draws)]:
                    bad.append(k)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert bad == []

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
        msg = proto.ALICE["observable-general"](np.zeros(pc.capacity, np.uint8), pc, sr)
        res = proto.BOB["observable-general"](msg, 1, pc, sr, OracleSpec())
        assert res.target == 0
        assert res.bit == 1  # zero distance estimate decodes below threshold

    @staticmethod
    def read_entries(pc, l):
        """Byte offsets of the four matrix entries Bob reads for index l."""
        i, j = proto.decompose_index(l, pc.ghd.gamma)
        dim = 1 << pc.qubits
        a, b = j - 1, dim - pc.ghd.gamma + i - 1
        return {name: 4 + 8 * (r * dim + c) for name, (r, c) in
                {"aa": (a, a), "ab": (a, b), "ba": (b, a), "bb": (b, b)}.items()}

    def bob_on(self, pc, sr, l, msg, main):
        bad = ProtocolMessage("observable-general", bytes(main), msg.main_bits, msg.side_payload, msg.side_bits)
        return proto.BOB["observable-general"](bad, l, pc, sr, OracleSpec())

    @pytest.mark.parametrize(
        "entry,match",
        [("aa", "negative diagonal"), ("bb", "negative diagonal"), ("ab", "not symmetric"),
         ("ba", "not symmetric")],
    )
    def test_each_read_entry_is_checked(self, entry, match):
        pc = make_config("observable-general", 6, 0.5)
        sr, x, l = draw_instance(pc, 58)
        msg = proto.ALICE["observable-general"](x, pc, sr)
        self.bob_on(pc, sr, l, msg, msg.main_payload)  # the honest entries pass
        main = bytearray(msg.main_payload)
        offset = self.read_entries(pc, l)[entry]
        (value,) = struct.unpack_from("<q", main, offset)
        # a diagonal entry turned negative, an off-diagonal one moved by one unit
        struct.pack_into("<q", main, offset, -1 - value if entry in ("aa", "bb") else value + 1)
        with pytest.raises(MessageError, match=match):
            self.bob_on(pc, sr, l, msg, main)

    def test_minor_must_be_positive_semidefinite(self):
        pc = make_config("observable-general", 6, 0.5)
        sr, x, l = draw_instance(pc, 59)
        msg = proto.ALICE["observable-general"](x, pc, sr)
        main = bytearray(msg.main_payload)
        offsets = self.read_entries(pc, l)
        aa, bb = (struct.unpack_from("<q", main, offsets[k])[0] for k in ("aa", "bb"))
        for k in ("ab", "ba"):
            struct.pack_into("<q", main, offsets[k], math.isqrt(aa * bb) + 1)
        with pytest.raises(MessageError, match="positive semidefinite"):
            self.bob_on(pc, sr, l, msg, main)

    def test_two_point_value_must_stay_within_the_unit_norm(self):
        pc = make_config("observable-general", 6, 0.5)
        sr, x, l = draw_instance(pc, 60)
        msg = proto.ALICE["observable-general"](x, pc, sr)
        main = bytearray(msg.main_payload)
        # one queried diagonal entry raised to 2^50: the minor stays symmetric
        # and positive semidefinite, but <psi|M|psi> is above 1
        struct.pack_into("<q", main, self.read_entries(pc, l)["aa"], 1 << 50)
        with pytest.raises(MessageError, match="unit norm"):
            self.bob_on(pc, sr, l, msg, main)

    def test_wire_bytes_do_not_depend_on_the_blas_kernel(self):
        # 40 trials of n=8 at epsilon 0.3 under the oldest x86-64 kernel
        # OpenBLAS ships and under the one it picks for this host: the norm
        # bound is exact whatever order a kernel sums in
        script = (
            "import hashlib\n"
            "from gapcomm import protocols as proto\n"
            "from gapcomm.bits import STREAM_INSTANCE, SharedRandomness\n"
            "from gapcomm.ghd import GhdParams\n"
            "from gapcomm.harness import sample_instance\n"
            "pc = proto.ProtocolConfig('observable-general', 8, GhdParams(epsilon=0.3))\n"
            "for k in range(40):\n"
            "    sr = SharedRandomness(9).substream(k)\n"
            "    x = sample_instance(sr.substream(STREAM_INSTANCE), pc, True)\n"
            "    print(hashlib.sha256(proto.ALICE['observable-general'](x, pc, sr).to_wire()).hexdigest())\n"
        )
        src = os.path.dirname(os.path.dirname(proto.__file__))
        env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = src

        def digests(**extra):
            done = subprocess.run(
                [sys.executable, "-c", script], env={**env, **extra}, capture_output=True,
                text=True, timeout=120, check=True,
            )
            return done.stdout.split()

        default = digests()
        assert len(default) == 40
        assert digests(OPENBLAS_CORETYPE="Prescott") == default

    def test_recovers_bit_with_exact_oracle(self):
        pc = make_config("observable-general", 6, 0.5)
        hits = 0
        for seed in range(200):
            sr, x, l = draw_instance(pc, 3000 + seed)
            msg = proto.ALICE["observable-general"](x, pc, sr)
            res = proto.BOB["observable-general"](msg, l, pc, sr, OracleSpec())
            hits += res.bit == x[l - 1]
        assert hits / 200 >= 0.8


def pauli_wire_message(z_bits, code_len) -> ProtocolMessage:
    """An observable-pauli message carrying ``z_bits``, through the wire."""
    side = struct.pack("<Q", code_len)
    main = pack_bits(np.asarray(z_bits, dtype=np.uint8))
    msg = ProtocolMessage("observable-pauli", *main, side, 8 * len(side))
    return ProtocolMessage.from_wire(msg.to_wire())


class TestObservablePauli:
    def test_mask_is_the_concatenated_codewords(self):
        pc = make_config("observable-pauli", 64, 0.5)
        sr, x, _ = draw_instance(pc, 58)
        msg = proto.ALICE["observable-pauli"](x, pc, sr)
        z_bits = z_string(msg.main_payload)
        a_rows, b_rows = proto.encode_block_matrices(x, pc, sr)
        rebuilt = np.concatenate([a_rows.reshape(-1), b_rows.reshape(-1), np.ones(1, dtype=np.uint8)])
        assert np.array_equal(z_bits, rebuilt)
        assert len(z_bits) == pc.ghd.code_len * pc.block_count + 1

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
        x = np.tile(np.eye(gamma, dtype=np.uint8)[0], nblocks)
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
            assert res.target == Fraction(-distance(a, b), pc.ghd.code_len)

    def test_recovers_bit_with_exact_oracle(self):
        pc = make_config("observable-pauli", 64, 0.5)
        hits = 0
        for seed in range(200):
            sr, x, l = draw_instance(pc, 4000 + seed)
            msg = proto.ALICE["observable-pauli"](x, pc, sr)
            res = proto.BOB["observable-pauli"](msg, l, pc, sr, OracleSpec())
            hits += res.bit == x[l - 1]
        assert hits / 200 >= 0.8

    @pytest.mark.parametrize("odd", [True, False])
    def test_matches_two_hot_formula_at_the_index_extremes(self, odd):
        pc = make_config("observable-pauli", 64, 0.5)
        gamma = pc.ghd.gamma
        for seed in (80, 81):
            sr, x, _ = draw_instance(pc, seed, odd)
            msg = proto.ALICE["observable-pauli"](x, pc, sr)
            # l=1 is (i=1, j=1); l=gamma is i=gamma; l=capacity is the last block
            for l in (1, gamma, gamma + 1, pc.capacity):
                res = proto.BOB["observable-pauli"](msg, l, pc, sr, OracleSpec())
                # the two-hot subset state over the wire Z-string
                assert res.target == _subset_state_target(x, l, pc, sr, msg)

    @pytest.mark.parametrize("marked", [0, 1])
    def test_matches_two_hot_formula_on_arbitrary_wire_strings(self, marked):
        pc = make_config("observable-pauli", 64, 0.5)
        c = pc.ghd.code_len
        rng = np.random.default_rng(82 + marked)
        length = c * pc.block_count + 1
        sr = SharedRandomness(82)
        for _ in range(10):
            z_bits = rng.integers(0, 2, size=length, dtype=np.uint8)
            z_bits[-1] = marked
            msg = pauli_wire_message(z_bits, c)
            for l in rng.integers(1, pc.capacity + 1, size=4).tolist() + [1, pc.capacity]:
                target = proto.BOB["observable-pauli"](msg, l, pc, sr, OracleSpec()).target
                assert target == _subset_state_target(None, l, pc, sr, msg)
                i, j = proto.decompose_index(l, pc.ghd.gamma)
                col = pc.block_count - pc.ghd.gamma + i
                dist = distance(z_bits[(j - 1) * c : j * c], z_bits[(col - 1) * c : col * c])
                assert target == (1 - Fraction(dist, c) if marked == 0 else Fraction(-dist, c))

    @pytest.mark.parametrize("bit", range(1, 8))
    def test_set_padding_bit_is_rejected(self, bit):
        pc = make_config("observable-pauli", 256, 0.3)
        sr, x, l = draw_instance(pc, 84)
        msg = proto.ALICE["observable-pauli"](x, pc, sr)
        assert msg.main_bits % 8 == 1  # 11521 Z-string bits: 7 padding bits in the last byte
        main = bytearray(msg.main_payload)
        main[-1] |= 1 << bit
        bad = ProtocolMessage("observable-pauli", bytes(main), msg.main_bits, msg.side_payload, msg.side_bits)
        with pytest.raises(MessageError, match="padding bits"):
            proto.BOB["observable-pauli"](ProtocolMessage.from_wire(bad.to_wire()), l, pc, sr, OracleSpec())

    @pytest.mark.parametrize(
        "main",
        [b"\x00\x01", struct.pack("<Q", 16), struct.pack("<Q", 16) + b"\x01", struct.pack("<Q", 1 << 60)],
        ids=["short-header", "count-only", "one-of-two-bytes", "huge-count"],
    )
    def test_short_z_string_raises_message_error_without_allocating(self, main):
        # a payload too short for the Z-string its header names is rejected
        # before anything sized by that header is allocated
        pc = make_config("observable-pauli", 64, 0.5)
        sr, x, l = draw_instance(pc, 85)
        honest = proto.ALICE["observable-pauli"](x, pc, sr)
        bad = ProtocolMessage("observable-pauli", main, 8 * len(main), honest.side_payload, honest.side_bits)
        wire = bad.to_wire()
        tracemalloc.start()
        try:
            with pytest.raises(MessageError):
                proto.BOB["observable-pauli"](ProtocolMessage.from_wire(wire), l, pc, sr, OracleSpec())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_wrong_side_info_length_is_rejected(self):
        pc = make_config("observable-pauli", 64, 0.5)
        sr, x, l = draw_instance(pc, 84)
        msg = proto.ALICE["observable-pauli"](x, pc, sr)
        side = msg.side_payload + bytes(4)
        bad = ProtocolMessage("observable-pauli", msg.main_payload, msg.main_bits, side, 96)
        with pytest.raises(MessageError, match="side-info length 12"):
            proto.BOB["observable-pauli"](bad, l, pc, sr, OracleSpec())

    def test_wrong_codeword_length_is_rejected(self):
        pc = make_config("observable-pauli", 64, 0.5)
        sr, x, l = draw_instance(pc, 85)
        msg = proto.ALICE["observable-pauli"](x, pc, sr)
        side = struct.pack("<Q", pc.ghd.code_len + 1)
        bad = ProtocolMessage("observable-pauli", msg.main_payload, msg.main_bits, side, 64)
        with pytest.raises(MessageError, match="codeword length"):
            proto.BOB["observable-pauli"](bad, l, pc, sr, OracleSpec())

    def test_wrong_bit_count_is_rejected(self):
        pc = make_config("observable-pauli", 64, 0.5)
        length = pc.ghd.code_len * pc.block_count
        msg = pauli_wire_message(np.ones(length, dtype=np.uint8), pc.ghd.code_len)
        with pytest.raises(MessageError, match="payload qubit count"):
            proto.BOB["observable-pauli"](msg, 1, pc, SharedRandomness(86), OracleSpec())

    @staticmethod
    def hostile_mains(main: bytes, main_bits: int) -> dict:
        """(payload, declared main bits) a hostile sender could ship in place
        of an honest Z-string ``main`` of ``main_bits`` bits."""
        count = main_bits - 64
        padded = bytearray(main)
        padded[-1] |= 0x80

        def recount(value):
            return struct.pack("<Q", value) + main[8:]

        return {
            "padding bit": (bytes(padded), main_bits),
            "truncated": (main[:-1], main_bits - 8),
            "header only": (main[:8], 64),
            "short header": (main[:5], 40),
            "zero count": (recount(0), main_bits),
            "count one less": (recount(count - 1), main_bits),
            "count one more": (recount(count + 1), main_bits),
            # the same byte length, with the bit count declared to match
            "count one more, declared": (recount(count + 1), main_bits + 1),
            "count 2^64 - 1": (recount((1 << 64) - 1), main_bits),
        }

    @pytest.mark.parametrize(
        "case",
        ["padding bit", "truncated", "header only", "short header", "zero count", "count one less",
         "count one more", "count one more, declared", "count 2^64 - 1"],
    )
    def test_hostile_z_strings_raise_only_message_errors(self, case):
        pc = make_config("observable-pauli", 256, 0.3)
        sr, x, l = draw_instance(pc, 87)
        msg = proto.ALICE["observable-pauli"](x, pc, sr)
        main, main_bits = self.hostile_mains(bytes(msg.main_payload), msg.main_bits)[case]
        bad = ProtocolMessage("observable-pauli", main, main_bits, msg.side_payload, msg.side_bits)
        with pytest.raises(MessageError):
            proto.BOB["observable-pauli"](bad, l, pc, sr, OracleSpec())

    def test_int_read_distance_matches_the_unpacked_blocks(self):
        pc = make_config("observable-pauli", 256, 0.3)
        c = pc.ghd.code_len
        for seed in range(20):
            sr, x, l = draw_instance(pc, 88 + seed)
            msg = proto.ALICE["observable-pauli"](x, pc, sr)
            z = z_string(msg.main_payload)
            for l in {l, 1, pc.capacity}:
                i, j = proto.decompose_index(l, pc.ghd.gamma)
                col = pc.block_count - pc.ghd.gamma + i
                dist = distance(z[(j - 1) * c : j * c], z[(col - 1) * c : col * c])
                reading = proto.SPECS["observable-pauli"].read(msg, i, j, pc, sr)
                # an honest message marks its last bit: target = -distance / code_len
                assert reading.delta == dist
                assert reading.target == Fraction(-dist, c)


class TestInnerProduct:
    def test_disjoint_supports_give_zero_target(self):
        pc = make_config("inner-product", 6, 0.5)
        sr = SharedRandomness(64)
        gamma = pc.ghd.gamma
        nblocks = pc.block_count - gamma
        # first block empty (encodes to zero), others one-hot to keep D > 0
        blocks = [np.zeros(gamma, dtype=np.uint8)]
        blocks += [np.eye(gamma, dtype=np.uint8)[0] for _ in range(nblocks - 1)]
        x = np.concatenate(blocks)
        msg = proto.ALICE["inner-product"](x, pc, sr)
        res = proto.BOB["inner-product"](msg, 1, pc, sr, OracleSpec())  # block 1, i=1
        assert float(res.target) == 0.0

    def test_identical_codewords_give_full_overlap(self):
        pc = make_config("inner-product", 6, 0.5)
        sr = SharedRandomness(65)
        gamma = pc.ghd.gamma
        nblocks = pc.block_count - gamma
        x = np.tile(np.eye(gamma, dtype=np.uint8)[0], nblocks)
        msg = proto.ALICE["inner-product"](x, pc, sr)
        res = proto.BOB["inner-product"](msg, 1, pc, sr, OracleSpec())
        b = encode_bob(1, pc.ghd, sr)
        state, _ = ExactState.deserialize(msg.main_payload)
        nnz_b = int(np.count_nonzero(b))
        expected = nnz_b / math.sqrt(state.norm_sq * nnz_b)
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
            other[start : start + pc.ghd.code_len] = b
            expected = int(state.numerators @ other) / math.sqrt(state.norm_sq * int(np.count_nonzero(b)))
            assert float(res.target) == pytest.approx(expected, rel=1e-12)

    def test_all_zero_instance_is_a_protocol_error(self):
        pc = make_config("inner-product", 6, 0.5)
        with pytest.raises(proto.ProtocolError):
            proto.ALICE["inner-product"](np.zeros(pc.capacity, np.uint8), pc, SharedRandomness(69))

    def test_recovers_bit_with_exact_oracle(self):
        pc = make_config("inner-product", 8, 0.5)
        hits = 0
        for seed in range(200):
            sr, x, l = draw_instance(pc, 5000 + seed)
            msg = proto.ALICE["inner-product"](x, pc, sr)
            res = proto.BOB["inner-product"](msg, l, pc, sr, OracleSpec())
            hits += res.bit == x[l - 1]
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
            spec = OracleSpec(model="relative-adversarial", accuracy=pc.oracle_accuracy)
            msg = proto.ALICE[kind](x, pc, sr)
            res = proto.BOB[kind](msg, l, pc, sr, spec)
            a, b, _, _ = queried_codewords(x, l, pc, sr)
            assert abs(float(res.delta_estimate) - distance(a, b)) <= budget + 1e-9


class TestBobThreshold:
    @pytest.mark.parametrize("epsilon", [0.5, 0.75])
    def test_push_and_bit_for_distances_around_the_threshold(self, monkeypatch, epsilon):
        # a reader that reports a chosen distance and the target 0, so Bob's
        # push and threshold comparisons see that distance, exact or float
        pc = make_config("observable-pauli", 64, epsilon)
        sr, x, l = draw_instance(pc, 76)
        msg = proto.ALICE["observable-pauli"](x, pc, sr)
        t = decision_threshold(pc.ghd)
        at, tiny = Fraction(t), Fraction(1, 1 << 80)
        values = [at - tiny, at, at + tiny, math.nextafter(t, -math.inf), t, math.nextafter(t, math.inf)]
        for delta in values:
            reading = proto.Reading(Fraction(0), delta, delta, 1)
            spec = dataclasses.replace(proto.SPECS["observable-pauli"], read=lambda *args: reading)
            monkeypatch.setitem(proto.SPECS, "observable-pauli", spec)
            res = proto.BOB["observable-pauli"](msg, l, pc, sr, OracleSpec())
            # the exact oracle returns the target, so the estimate is delta itself
            assert res.delta_estimate == delta
            assert res.push == (PUSH_UP if delta > t else PUSH_DOWN), delta
            assert res.bit == (0 if delta >= t else 1), delta


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

    def test_pauli_state_reading_a_negative_squared_norm_is_rejected(self):
        # +1 on the solution half and -1 on the flat half pass every size,
        # norm and count check, but at l = 1 the X on the top qubit pairs
        # each +1 with a -1, so the target, a squared norm, reads -1
        pc = make_config("pauli-state", 6, 0.5)
        sr, x, _ = draw_instance(pc, 75)
        msg = proto.ALICE["pauli-state"](x, pc, sr)
        half = 1 << pc.qubits
        nums = np.repeat(np.array([1, -1], dtype=np.int64), half)
        main = dense_wire(nums)
        side = bytearray(msg.side_payload)
        struct.pack_into("<Q", side, 0, 2 * half)
        bad = ProtocolMessage("pauli-state", main, 8 * len(main), bytes(side), msg.side_bits)
        with pytest.raises(MessageError, match="negative sum-norm"):
            proto.BOB["pauli-state"](bad, 1, pc, sr, OracleSpec())

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

    @pytest.mark.parametrize(
        "kind,qubits,field",
        [(kind, qubits, field)
         for kind, qubits in [("general-state", 6), ("inner-product", 6), ("observable-general", 5),
                              ("pauli-state", 6), ("observable-pauli", 64)]
         # observable-pauli's main bits end one bit into their last byte, so
         # no drop keeps its byte length
         for field in (["side"] if kind == "observable-pauli" else ["main", "side"])],
    )
    @pytest.mark.parametrize("drop", [1, 7])
    def test_declared_bits_below_the_config_are_rejected(self, kind, qubits, field, drop):
        # only the wire header's bit count drops; the payload bytes stay as they are
        pc = make_config(kind, qubits, 0.5)
        sr, x, l = draw_instance(pc, 76)
        wire = bytearray(proto.ALICE[kind](x, pc, sr).to_wire())
        offset = {"main": 4, "side": 12}[field]
        (bits,) = struct.unpack_from("<Q", wire, offset)
        struct.pack_into("<Q", wire, offset, bits - drop)
        match = {"main": "main-payload length", "side": "side_bits"}[field]
        with pytest.raises(MessageError, match=match):
            proto.BOB[kind](ProtocolMessage.from_wire(bytes(wire)), l, pc, sr, OracleSpec())

    @pytest.mark.parametrize(
        "kind,qubits",
        [("general-state", 6), ("inner-product", 6), ("observable-general", 5), ("pauli-state", 6),
         ("observable-pauli", 64)],
    )
    def test_honest_messages_round_trip(self, kind, qubits):
        pc = make_config(kind, qubits, 0.5)
        for seed in (78, 79):
            sr, x, l = draw_instance(pc, seed)
            msg = proto.ALICE[kind](x, pc, sr)
            if kind == "observable-pauli":
                written = 64 + struct.unpack_from("<Q", msg.main_payload)[0]
            else:
                written = 8 * len(msg.main_payload)
            assert msg.main_bits == written
            wire = msg.to_wire()
            back = ProtocolMessage.from_wire(wire)
            assert back.to_wire() == wire
            res = proto.BOB[kind](back, l, pc, sr, OracleSpec())
            assert res == proto.BOB[kind](msg, l, pc, sr, OracleSpec())

    @pytest.mark.parametrize(
        "kind,qubits",
        [("general-state", 6), ("observable-general", 5), ("pauli-state", 6), ("observable-pauli", 64)],
    )
    def test_exact_target_maps_to_the_reader_distance(self, kind, qubits):
        # Bob takes an exact oracle's rational answer straight to the reader's
        # distance; the rescaling a noisy estimate goes through agrees there
        pc = make_config(kind, qubits, 0.5)
        for seed in (80, 81, 82):
            sr, x, l = draw_instance(pc, seed)
            msg = proto.ALICE[kind](x, pc, sr)
            reading = proto.SPECS[kind].read(msg, *proto.decompose_index(l, pc.ghd.gamma), pc, sr)
            assert isinstance(reading.target, Fraction)
            assert reading.offset - reading.target * reading.rescale == reading.delta
            res = proto.BOB[kind](msg, l, pc, sr, OracleSpec())
            assert res.delta_estimate == reading.delta

    def test_sparse_state_payload_is_rejected(self):
        pc = make_config("general-state", 6, 0.5)
        sr, x, l = draw_instance(pc, 77)
        msg = proto.ALICE["general-state"](x, pc, sr)
        state, _ = ExactState.deserialize(msg.main_payload)
        # a header with layout tag 1, padded to the honest payload length
        header = struct.pack("<BBQ", 1, state.qubits, state.norm_sq)
        main = header + bytes(len(msg.main_payload) - len(header))
        bad = ProtocolMessage("general-state", main, 8 * len(main), msg.side_payload, msg.side_bits)
        with pytest.raises(MessageError, match="layout tag"):
            proto.BOB["general-state"](bad, l, pc, sr, OracleSpec())
