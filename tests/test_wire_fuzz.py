"""Seeded hostile-input fuzz over the wire: mutated messages of all five kinds.

Each honest message is truncated, extended, or has one bit of its 20-byte
wire header, its main payload or its side info flipped, and then goes
through ``ProtocolMessage.from_wire`` and Bob. Whatever the bytes, the only
error that may escape is ``MessageError``, and the traced allocation peak
stays within the wire length plus ``FIXED_BYTES``: nothing a message field
declares may size an allocation.

Which mutations a kind can detect at all:

* Truncation, extension and every header bit flip: all five kinds. The tag,
  the bit counts and the payload lengths leave no slack (observable-pauli's
  header bit count is checked against its Z-string, since it alone ends
  inside a byte).
* Main-payload bit flips: the dense kinds (general-state, pauli-state,
  inner-product) reject every one, because a flipped amplitude changes the
  exact sum of squares the state header and the side info both carry.
  observable-general cannot: Bob reads four matrix entries and checks only
  those. observable-pauli cannot: every bit of its Z-string is information.
* Side-info bit flips: no kind rejects all of them. Bob reads the leading
  field, the block count and one block weight, nnz(a^j); a flip in another
  block's weight is never read. general-state and inner-product compare the
  weight he reads with ||a^j||^2 over the state block he already reads, so
  they reject every flip of it; pauli-state and observable-general cannot
  check it, and a flip there moves the decoded distance (observable-general's
  leading field, the quantized norm, is not checkable either).
  observable-pauli's side info is one u64 that must equal the code length,
  so it rejects every side flip.
* The shadow adapter (no side info): truncation, extension and every
  header bit flip, like the five kinds. Of main-payload flips it rejects
  those that make a basis code 3 or set a padding bit; every other bit of
  a shadow is information.
* The zero tail of a stacked state (general-state, inner-product): the norm
  check proves it zero rather than skipping it, so a flipped tail bit is
  rejected like any other main-payload flip.
"""
import struct
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import gapcomm.protocols as proto
from gapcomm import _kernels
from gapcomm.bits import STREAM_INDEX, STREAM_INSTANCE, SharedRandomness
from gapcomm.ghd import GhdParams
from gapcomm.harness import sample_instance
from gapcomm.messages import MessageError, ProtocolMessage
from gapcomm.oracle import OracleSpec
from gapcomm.pauli import PauliMask
from gapcomm.shadows import reference_shadow_pair, to_one_way_protocol
from gapcomm.states import ExactState

# (qubits, epsilon) per kind: the dense states are 2^12 (general-state,
# inner-product) and 2^7 (pauli-state) amplitudes
CASES = {
    "general-state": (6, 0.5),
    "pauli-state": (6, 0.5),
    "observable-general": (4, 0.5),
    "observable-pauli": (64, 0.5),
    "inner-product": (6, 0.5),
}
# Bob's own work at these sizes: at most the two buffers einsum takes for the
# dense norm check (2 x 32 KiB for a 2^12-amplitude state), a few KiB else.
FIXED_BYTES = 64 << 10
# kinds that reject every single-bit flip of the main payload
DETECTS_MAIN_FLIPS = {
    "general-state": True,
    "pauli-state": True,
    "observable-general": False,
    "observable-pauli": False,
    "inner-product": True,
}
DETECTS_SIDE_FLIPS = {kind: kind == "observable-pauli" for kind in CASES}
SAMPLES = 40


def flipped(wire: bytes, bit: int) -> bytes:
    out = bytearray(wire)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


def mutations(wire: bytes, side_len: int, rng) -> dict[str, list[bytes]]:
    main_end = len(wire) - side_len
    return {
        "truncate": [wire[:n] for n in rng.integers(0, len(wire), size=SAMPLES)],
        "extend": [wire + rng.bytes(int(n)) for n in rng.integers(1, 17, size=SAMPLES)],
        "header": [flipped(wire, bit) for bit in range(20 * 8)],
        "main": [flipped(wire, int(b)) for b in rng.integers(20 * 8, 8 * main_end, size=SAMPLES)],
        "side": [flipped(wire, int(b)) for b in rng.integers(8 * main_end, 8 * len(wire), size=SAMPLES)]
        if side_len
        else [],
    }


def accepted_by(decode, wire: bytes, kind: str) -> bool:
    """True if ``decode`` reads ``wire``; only ``MessageError`` may reject it."""
    tracemalloc.start()
    try:
        decode(ProtocolMessage.from_wire(wire))
        return True
    except MessageError:
        return False
    finally:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak <= len(wire) + FIXED_BYTES, f"{kind}: peak {peak} B on a {len(wire)}-byte wire"


def accepted_by_bob(wire: bytes, kind, l, pc, sr) -> bool:
    """True if Bob decodes ``wire``; only ``MessageError`` may reject it."""
    return accepted_by(lambda msg: proto.BOB[kind](msg, l, pc, sr, OracleSpec()), wire, kind)


def honest_message(kind: str, qubits: int, epsilon: float):
    """Alice's message for one seeded instance, with Bob's index and config."""
    pc = proto.ProtocolConfig(kind, qubits, GhdParams(epsilon=epsilon))
    sr = SharedRandomness(11)
    x = sample_instance(sr.substream(STREAM_INSTANCE), pc, True)
    l = sr.substream(STREAM_INDEX).integer(1, pc.capacity + 1)
    return proto.ALICE[kind](x, pc, sr), l, pc, sr


@pytest.mark.parametrize("kind", sorted(CASES))
def test_mutated_wire_raises_only_message_error_and_allocates_little(kind):
    msg, l, pc, sr = honest_message(kind, *CASES[kind])
    wire = msg.to_wire()
    assert accepted_by_bob(wire, kind, l, pc, sr)

    accepted = {
        how: sum(accepted_by_bob(bad, kind, l, pc, sr) for bad in batch)
        for how, batch in mutations(wire, len(msg.side_payload), np.random.default_rng(5)).items()
    }
    assert accepted["truncate"] == accepted["extend"] == accepted["header"] == 0
    assert (accepted["main"] == 0) == DETECTS_MAIN_FLIPS[kind]
    assert (accepted["side"] == 0) == DETECTS_SIDE_FLIPS[kind]


@pytest.mark.parametrize("kind", sorted(CASES))
def test_honest_message_decodes_within_the_bound_on_cold_kernel_caches(kind):
    # the kernels' caches are built on first use, which may fall inside
    # Bob's traced decode: what they hold must fit the fixed allowance
    msg, l, pc, sr = honest_message(kind, *CASES[kind])
    wire = msg.to_wire()
    for cached in vars(_kernels).values():
        if hasattr(cached, "cache_clear"):
            cached.cache_clear()
    assert accepted_by_bob(wire, kind, l, pc, sr)


def test_mutated_shadow_wire_raises_only_message_error_and_allocates_little():
    # 50 rounds of 3 qubits: 450 bits, so the last byte holds 6 padding bits
    protocol = to_one_way_protocol(reference_shadow_pair(copies=50))
    wire = protocol.alice(np.full(8, 8**-0.5), SharedRandomness(12)).to_wire()
    mask = PauliMask(z=1, x=6, qubits=3)

    def decode(msg):
        return protocol.bob(msg, mask)

    assert accepted_by(decode, wire, "shadow-adapter")
    accepted = {
        how: sum(accepted_by(decode, bad, "shadow-adapter") for bad in batch)
        for how, batch in mutations(wire, 0, np.random.default_rng(5)).items()
    }
    assert accepted["truncate"] == accepted["extend"] == accepted["header"] == 0
    # a basis flip that makes code 3 and a padding flip are rejected; the
    # other main bits are all information
    assert 0 < accepted["main"] < SAMPLES


@pytest.mark.parametrize("kind", ["general-state", "inner-product"])
def test_every_flip_of_the_block_weight_bob_reads_is_rejected(kind):
    msg, l, pc, sr = honest_message(kind, *CASES[kind])
    wire = msg.to_wire()
    _, j = proto.decompose_index(l, pc.ghd.gamma)
    weight_at = len(wire) - len(msg.side_payload) + 12 + 4 * (j - 1)
    assert accepted_by_bob(wire, kind, l, pc, sr)
    for bit in range(8 * weight_at, 8 * (weight_at + 4)):
        assert not accepted_by_bob(flipped(wire, bit), kind, l, pc, sr), bit


@pytest.mark.parametrize("kind", ["general-state", "inner-product"])
def test_flips_in_the_zero_tail_of_a_stacked_state_are_rejected(kind):
    # n=10 stacks a few thousand amplitudes into a 2^16 state: the tail
    # starts inside a 4096-amplitude chunk and fills every later one
    msg, l, pc, sr = honest_message(kind, 10, 0.5)
    wire = msg.to_wire()
    # general-state stacks Alice's and Bob's blocks, inner-product Alice's only
    blocks = pc.block_count - (pc.ghd.gamma if kind == "inner-product" else 0)
    occupied = blocks * pc.ghd.code_len
    first = 20 + 10 + 8 * occupied
    last = len(wire) - len(msg.side_payload) - 1
    assert not any(wire[first : last + 1])
    assert accepted_by_bob(wire, kind, l, pc, sr)
    for byte in (first, (first + last) // 2, last):
        assert not accepted_by_bob(flipped(wire, 8 * byte), kind, l, pc, sr), byte


@pytest.mark.parametrize("fix_norms", [False, True])
@pytest.mark.parametrize("kind", ["general-state", "inner-product", "pauli-state"])
def test_a_planted_large_amplitude_is_rejected_within_the_bound(kind, fix_norms):
    # amplitude 0 at 2^40 and a nonzero last amplitude: no zero tail to cut,
    # and one chunk of the norm check needs several limbs
    msg, l, pc, sr = honest_message(kind, *CASES[kind])
    amps = np.frombuffer(msg.main_payload, dtype="<i8", offset=10).copy()
    amps[0] = 1 << 40
    amps[-1] = 1
    main, side = msg.main_payload[:10] + amps.tobytes(), msg.side_payload
    if fix_norms:
        # the squared norm passes 2^80, past both u64 norm fields; their
        # closest fix-up is its low 64 bits, which a wrapping int64 sum
        # would match
        norm_sq = sum(int(v) ** 2 for v in amps) % (1 << 64)
        main = main[:2] + struct.pack("<Q", norm_sq) + main[10:]
        side = struct.pack("<Q", norm_sq) + side[8:]
    wire = ProtocolMessage(msg.protocol, main, msg.main_bits, side, msg.side_bits).to_wire()
    assert not accepted_by_bob(wire, kind, l, pc, sr)


def test_general_state_sum_norm_past_int64_is_exact():
    # a hostile state whose two blocks Bob adds square-sum past 2^63 while
    # the whole norm still fits the u64 header: an int64 dot would wrap
    msg, l, pc, sr = honest_message("general-state", *CASES["general-state"])
    i, j = proto.decompose_index(l, pc.ghd.gamma)
    code_len = pc.ghd.code_len
    col = pc.block_count - pc.ghd.gamma + i
    amps = ExactState.deserialize(msg.main_payload)[0].numerators.copy()
    amps[(col - 1) * code_len : col * code_len] = 3 << 26
    norm_sq = sum(int(v) ** 2 for v in amps)
    blk = amps[(j - 1) * code_len : j * code_len] + amps[(col - 1) * code_len : col * code_len]
    sum_norm = sum(int(v) ** 2 for v in blk)
    assert sum_norm >= 1 << 63 and norm_sq < 1 << 64
    side = struct.pack("<Q", norm_sq) + msg.side_payload[8:]
    main = struct.pack("<BBQ", 0, pc.qubits + pc.pad_exponent, norm_sq) + amps.astype("<i8").tobytes()
    wire = ProtocolMessage(msg.protocol, main, msg.main_bits, side, msg.side_bits).to_wire()
    reading = proto.SPECS["general-state"].read(ProtocolMessage.from_wire(wire), i, j, pc, sr)
    assert reading.target == Fraction(sum_norm, 2 * norm_sq)
