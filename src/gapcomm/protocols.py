"""The five one-way protocols: one spec table, one Alice path, one Bob path.

Every protocol reduces an index query to reading a gap-Hamming distance off
an expectation value. Alice partitions her string into blocks, encodes each
block with the majority gadget, and ships some exact-arithmetic object; Bob
turns his index into an observable (or state), asks the estimation oracle
for one value, rescales with the integer side information, and thresholds
the reconstructed distance.

A protocol kind is one ``ProtocolSpec`` in ``SPECS`` (plus its wire tag in
``messages.PROTOCOL_TAGS``). The spec's encoder builds Alice's payloads from
the block codewords; its reader turns Bob's message into the oracle target
and the affine map ``offset - rescale * value`` that takes an estimate back
to a distance. ``ALICE`` and ``BOB`` run every kind through ``alice`` and
``bob``. The spec's ``main_bits`` is the one closed form for the size of the
main payload: ``alice`` declares it, and ``bob`` checks a message against it
before he reads anything the message sizes. Side info is whole bytes.

Side-info formats (all little-endian):
  general-state       u64 D | u32 count | count * u32 nnz(a^j)
  pauli-state         u64 scaled norm | u32 count | count * u32 nnz(a^j)
  observable-general  u64 norm (32-bit fixed point) | u32 count | count * u32 nnz(a^j)
  observable-pauli    u64 codeword length
  inner-product       u64 D | u32 count | count * u32 nnz(a^j)
"""
from __future__ import annotations

import math
import struct
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from typing import Callable

import numpy as np

from . import oracle as oracle_mod
from .bits import SharedRandomness, pack_bits
from .fwht import fwht
from .ghd import (
    GhdParams,
    decode_bit,
    delta_from_sum_norm,
    encode_bob,
    public_pads,
    threshold_for,
)
from .messages import MessageError, ProtocolMessage
from .observables import certified_norm
from .pauli import PauliMask, pauli_expectation
from .states import ExactState, StateError, dense_wire_parts, exact_sq_sum
from . import _kernels

# Desk-scale guards on stacked states, observable-general's dense matrix and
# every kind's codeword bits. One exact-oracle trial at each kind's largest
# accepted size peaks between 160 and 195 MiB RSS (ru_maxrss, numpy 2.4):
# the stacked states at 24 payload qubits, pauli-state at n = 21 (its u64
# norm field), and observable-general at n = 10 and observable-pauli at the
# codeword cap, where Alice holds about 5 bytes per codeword bit.
MAX_STATE_QUBITS = 24
MAX_OBSERVABLE_QUBITS = 10
MAX_PAULI_STRING_BITS = 28 << 20
# Every kind's codewords, block_count * code_len bits, fit the longest
# Z-string, which adds one marker bit to them.
MAX_CODEWORD_BITS = MAX_PAULI_STRING_BITS - 1

# Fixed-point scales for the observable-general payload.
ENTRY_FRAC_BITS = 48
NORM_FRAC_BITS = 32

# Block encoding and pauli-state's sum-norm table count 0/1 products in
# float32, which is exact for integers below 2^24; every count is at most
# code_len (>= gamma).
FLOAT32_EXACT = 1 << 24
# The Gram matrix packs two 0/1 products into one float32 sum, G_lo + 2^s G_hi
# with s the inner length's bit length: exact while inner * (2^s + 1) stays
# below FLOAT32_EXACT, so for inner axes up to this length.
PACKED_INNER = 4095


class ConfigError(ValueError):
    pass


class ProtocolError(RuntimeError):
    """A degenerate instance the protocol cannot decode (counted, not fatal)."""


@dataclass(frozen=True)
class ProtocolSpec:
    """Everything that sets one protocol kind apart from the others.

    ``kappa``: a relative oracle error eps_o becomes a distance error of at
    most kappa * eps_o * code_len (general/pauli/observable-general rescale
    a squared norm bounded by 4*code_len, inner-product doubles an inner
    product bounded by code_len, observable-pauli rescales the distance
    itself), so the budget eps_o = slack_d / (kappa * sqrt(code_len)) caps
    the distance error at slack_d * sqrt(code_len) on every draw.

    ``payload_qubits``: the size of what Alice ships (for observable-pauli,
    its Pauli string length), read back from the main payload at
    ``qubit_field`` = (struct format, offset). ``limits(cfg)``: the kind's own
    bounds as (what, worst case over every instance, largest allowed) triples,
    which ``ProtocolConfig`` checks with the code-length and codeword-bit
    bounds all kinds share.
    ``main_bits(payload_qubits)`` is the exact main-payload bit count, the
    only size the spec states: Alice declares it and Bob checks it.
    ``encode(a_rows, b_rows, cfg)`` gives (main, side), main being one
    buffer or a tuple of parts that ``to_wire`` joins and side whole bytes;
    ``read(msg, i, j, cfg, sr)`` gives a ``Reading``.
    """

    kappa: float
    block_count: Callable[[int], int]
    epsilon_floor: Callable[[int], float]
    payload_qubits: Callable[["ProtocolConfig"], int]
    qubit_field: tuple[str, int]
    main_bits: Callable[[int], int]
    encode: Callable
    read: Callable
    limits: Callable[["ProtocolConfig"], tuple] = lambda cfg: ()


@dataclass(frozen=True)
class ProtocolConfig:
    """One protocol kind pinned to a qubit count and gadget parameters.

    ``qubits`` is the state size n for the state-sending protocols and the
    classical string budget for observable-pauli (whose simulated state is
    tiny).
    """

    kind: str
    qubits: int
    ghd: GhdParams

    def __post_init__(self):
        if self.kind not in SPECS:
            raise ConfigError(f"unknown protocol kind {self.kind!r}")
        if self.qubits < 1:
            raise ConfigError("qubits must be >= 1")
        # before the code length, so a too-small epsilon is named as such
        try:
            lo = self.epsilon_floor
        except OverflowError:
            raise ConfigError(
                f"qubits too large for {self.kind}: its epsilon floor overflows a float"
            ) from None
        if not lo < self.ghd.epsilon < 1.0:
            raise ConfigError(
                f"epsilon {self.ghd.epsilon} outside validity interval ({lo:.6g}, 1) "
                f"for {self.kind} at n={self.qubits}"
            )
        if self.capacity < 1:
            raise ConfigError(
                f"no index capacity: block count {self.block_count} must exceed "
                f"gamma {self.ghd.gamma}"
            )
        float32 = ("code_len, exact in float32 counts below 2^24,", self.ghd.code_len, FLOAT32_EXACT - 1)
        codewords = (
            "codeword bits (observable-pauli's Z-string bits less its marker), under the desk cap,",
            self.block_count * self.ghd.code_len, MAX_CODEWORD_BITS,
        )
        for what, worst, largest in (float32, *self.spec.limits(self), codewords):
            if worst > largest:
                raise ConfigError(
                    f"{self.kind} at n={self.qubits}, epsilon {self.ghd.epsilon}: {what} "
                    f"reaches {worst}, past the largest allowed {largest}"
                )

    @property
    def spec(self) -> ProtocolSpec:
        return SPECS[self.kind]

    @property
    def epsilon_floor(self) -> float:
        return self.spec.epsilon_floor(self.qubits)

    @cached_property
    def pad_exponent(self) -> int:
        """Smallest q with amp_factor <= 2**q."""
        return max(0, (self.ghd.amp_factor - 1).bit_length())

    @cached_property
    def block_count(self) -> int:
        return self.spec.block_count(self.qubits)

    @cached_property
    def alice_blocks(self) -> int:
        """How many of the stacked blocks are Alice's; Bob's codeword for
        query position i sits in block ``alice_blocks + i``."""
        return self.block_count - self.ghd.gamma

    @cached_property
    def capacity(self) -> int:
        """Length of the index string the reduction can serve."""
        return self.alice_blocks * self.ghd.gamma

    @property
    def oracle_accuracy(self) -> float:
        g = self.ghd
        return g.slack_d / (self.spec.kappa * math.sqrt(g.code_len))


def decompose_index(l: int, gamma: int) -> tuple[int, int]:
    """Split l = i + (j-1)*gamma into (i, j), both 1-based."""
    if l < 1:
        raise IndexError(f"index {l} must be >= 1")
    return (l - 1) % gamma + 1, (l - 1) // gamma + 1


def _require_index(l: int, cfg: ProtocolConfig) -> tuple[int, int]:
    if not 1 <= l <= cfg.capacity:
        raise IndexError(f"index {l} out of range [1, {cfg.capacity}]")
    return decompose_index(l, cfg.ghd.gamma)


def encode_block_matrices(
    x: np.ndarray, cfg: ProtocolConfig, sr: SharedRandomness
) -> tuple[np.ndarray, np.ndarray]:
    """All Alice codewords (rows) and all Bob codewords (rows), as 0/1 matrices.

    Uses one shared pad matrix for every block, exactly as both parties
    derive it; ``encode_alice``/``encode_bob`` applied block by block agree
    bit for bit. All blocks are encoded by one matmul (ties and empty blocks
    give 0). Bob's rows are a read-only, non-contiguous view of the cached
    pads; an encoder that needs them flat copies them once.
    """
    params = cfg.ghd
    if len(x) != cfg.capacity:
        raise ConfigError(f"instance length {len(x)} != capacity {cfg.capacity}")
    pads = public_pads(params, sr)
    # float32 counts are exact: ProtocolConfig keeps gamma below 2^24
    a_rows = _kernels.majority_blocks(pads, x.reshape(-1, params.gamma))
    return a_rows, pads.T


@dataclass(frozen=True)
class BobResult:
    """Decoded bit plus the quantities the decoder actually handled."""

    bit: int
    target: object  # exact oracle input: Fraction where exactness is possible
    estimate: object
    delta_estimate: object
    push: int


@dataclass(frozen=True)
class Reading:
    """Bob's oracle target and the map from an estimate back to a distance.

    An estimate v of ``target`` gives the distance ``offset - rescale * v``.
    ``delta`` is the exact distance the target encodes; it stays exact even
    where the target itself is a float (inner-product).
    """

    target: object
    delta: object
    offset: object
    rescale: object


def alice(kind: str, x: np.ndarray, cfg: ProtocolConfig, sr: SharedRandomness) -> ProtocolMessage:
    """Alice's side of every protocol: block-encode, then the kind's encoder.

    The message declares the spec's closed-form main-payload bit count and
    its side info's length in bits.
    """
    if cfg.kind != kind:
        raise ConfigError("config kind mismatch")
    a_rows, b_rows = encode_block_matrices(x, cfg, sr)
    spec = SPECS[kind]
    main, side = spec.encode(a_rows, b_rows, cfg)
    return ProtocolMessage(kind, main, spec.main_bits(spec.payload_qubits(cfg)), side, 8 * len(side))


def bob(
    kind: str,
    msg: ProtocolMessage,
    l: int,
    cfg: ProtocolConfig,
    sr: SharedRandomness,
    oracle: oracle_mod.OracleSpec,
) -> BobResult:
    """Bob's side of every protocol: one oracle query, rescaled and thresholded.

    The message must match the config: its kind, its payload qubit count,
    its declared main-payload bit count (which pins the payload's byte
    length) and (in the kind's reader) its side-info length and block count
    are checked before anything sized by the message is read.
    """
    if msg.protocol != kind:
        raise MessageError(f"wrong message for {kind} decoder")
    if cfg.kind != kind:
        raise ConfigError("config kind mismatch")
    i, j = _require_index(l, cfg)
    spec = SPECS[kind]
    fmt, offset = spec.qubit_field
    if len(msg.main_payload) < offset + struct.calcsize(fmt):
        raise MessageError("main payload shorter than its header")
    (qubits,) = struct.unpack_from(fmt, msg.main_payload, offset)
    expected_qubits = spec.payload_qubits(cfg)
    _expect("payload qubit count", qubits, expected_qubits)
    _expect("main-payload length in bits", msg.main_bits, spec.main_bits(expected_qubits))
    reading = spec.read(msg, i, j, cfg, sr)

    # The reconstructed distance decreases in the estimate for every
    # protocol here, so pushing the ESTIMATE up drags the distance toward
    # a threshold sitting below it, and vice versa.
    threshold = threshold_for(reading.delta, cfg.ghd)
    push = oracle_mod.PUSH_UP if reading.delta > threshold else oracle_mod.PUSH_DOWN
    est = oracle_mod.estimate(reading.target, oracle, push, sr)
    # only the exact oracle hands a Fraction back, and then it is the target
    # itself, whose distance the reader already holds; a noisy float may
    # undershoot zero and still maps to a (poor) distance estimate
    if isinstance(est, Fraction):
        delta_est = reading.delta
    else:
        delta_est = reading.offset - float(est) * float(reading.rescale)
    return BobResult(decode_bit(delta_est, cfg.ghd), reading.target, est, delta_est, push)


def _expect(what: str, found: int, expected: int) -> None:
    if found != expected:
        raise MessageError(f"message {what} {found} does not match the config's {expected}")


def _row_weights(rows: np.ndarray) -> np.ndarray:
    """Each 0/1 row's weight as int64: one float32 matvec with ones, exact
    since every weight is at most code_len < FLOAT32_EXACT."""
    rows32 = rows.astype(np.float32, copy=False)
    return (rows32 @ np.ones(rows32.shape[1], dtype=np.float32)).astype(np.int64)


def _write_weight_side(first_field: int, nnz_list) -> bytes:
    # each count is at most code_len < 2^24, so u32 holds it
    counts = np.asarray(nnz_list, dtype="<u4")
    return struct.pack("<QI", first_field, len(counts)) + counts.tobytes()


def _read_weight_side(side: bytes, j: int, cfg: ProtocolConfig) -> tuple[int, int]:
    """The leading side-info field and nnz(a^j), once the block count checks out."""
    _expect("side-info length", len(side), 12 + 4 * cfg.alice_blocks)
    first, count = struct.unpack_from("<QI", side)
    _expect("side-info block count", count, cfg.alice_blocks)
    (nnz_a,) = struct.unpack_from("<I", side, 12 + 4 * (j - 1))
    return first, nnz_a


def _read_state(msg, j: int, cfg: ProtocolConfig) -> tuple[ExactState, int]:
    """Alice's dense state and nnz(a^j); the side info's leading field must
    be the squared norm that the state itself checked."""
    norm_sq, nnz_a = _read_weight_side(msg.side_payload, j, cfg)
    try:
        state, _ = ExactState.deserialize(msg.main_payload)
    except StateError as exc:
        raise MessageError(f"malformed state payload: {exc}") from exc
    _expect("side-info squared norm", norm_sq, state.norm_sq)
    return state, nnz_a


def _sum_norm_reading(target, rescale, nnz_a: int, i: int, cfg, sr) -> Reading:
    """``target`` is ||a^j + b^i||^2 / rescale; distance = 2 nnz_a + 2 nnz_b - ||a+b||^2."""
    nnz_b = int(np.count_nonzero(encode_bob(i, cfg.ghd, sr)))
    sum_norm = target * rescale
    # a squared norm: only a crafted message (such as a pauli-state whose
    # X string pairs opposite signs) reads below zero
    if sum_norm < 0:
        raise MessageError(f"negative sum-norm reading {sum_norm}")
    delta = delta_from_sum_norm(sum_norm, nnz_a, nnz_b)
    return Reading(target, delta, 2 * nnz_a + 2 * nnz_b, rescale)


# ---------------------------------------------------------------------------
# general-state and inner-product: Alice ships a stacked codeword state.
# general-state stacks every codeword and Bob contracts with a two-block
# averaging observable; inner-product stacks Alice's blocks only and Bob
# estimates the overlap with his own codeword at the queried block.
# ---------------------------------------------------------------------------

def _encode_stacked(occupied: np.ndarray, a_rows: np.ndarray, cfg: ProtocolConfig) -> tuple:
    # the stacked state is ``occupied`` padded with zeros; its wire parts are
    # written straight from the occupied prefix, never as a full array. A 0/1
    # vector's squared norm is its weight.
    norm_sq = int(np.count_nonzero(occupied))
    if norm_sq == 0:
        raise ProtocolError("all-zero instance produced the zero vector")
    parts = dense_wire_parts(occupied, _stacked_qubits(cfg), norm_sq)
    return parts, _write_weight_side(norm_sq, _row_weights(a_rows))


def _flat_codewords(a_rows: np.ndarray, b_rows: np.ndarray, tail: int = 0) -> np.ndarray:
    """Alice's rows, then Bob's, in one fresh uint8 array with ``tail`` more
    entries left unset: the one copy ever made of Bob's strided rows."""
    flat = np.empty(a_rows.size + b_rows.size + tail, dtype=np.uint8)
    np.concatenate([a_rows, b_rows], out=flat[: flat.size - tail].reshape(-1, a_rows.shape[1]))
    return flat


def _encode_general_state(a_rows, b_rows, cfg: ProtocolConfig) -> tuple:
    return _encode_stacked(_flat_codewords(a_rows, b_rows), a_rows, cfg)


def _read_stacked(msg, j: int, cfg: ProtocolConfig) -> tuple[ExactState, np.ndarray, int]:
    """Alice's stacked state, her block a^j and nnz(a^j), which must be
    ||a^j||^2: the weight of an honest 0/1 block, as the decoder assumes."""
    state, nnz_a = _read_state(msg, j, cfg)
    code_len = cfg.ghd.code_len
    blk_a = state.numerators[(j - 1) * code_len : j * code_len]
    # exact: the checked norm_sq < 2^64 bounds the block's squares, so a
    # wrapped int64 sum is negative and never equals the u32 weight
    _expect("side-info block weight", nnz_a, int(np.dot(blk_a, blk_a)))
    return state, blk_a, nnz_a


def _read_general_state(msg, i: int, j: int, cfg: ProtocolConfig, sr) -> Reading:
    state, blk_a, nnz_a = _read_stacked(msg, j, cfg)
    code_len = cfg.ghd.code_len
    col = cfg.alice_blocks + i
    blk_b = state.numerators[(col - 1) * code_len : col * code_len]
    # each amplitude is below 2^32 (its square is at most norm_sq < 2^64), so
    # the sum cannot wrap; its squares can overflow int64, which exact_sq_sum takes
    sum_norm = exact_sq_sum(blk_a + blk_b)
    rescale = 2 * state.norm_sq
    return _sum_norm_reading(Fraction(sum_norm, rescale), rescale, nnz_a, i, cfg, sr)


def general_state_ml_strip(cfg: ProtocolConfig, l: int) -> np.ndarray:
    """The nonzero rows of Bob's contraction operator, as a dense strip.

    Row k has 1/sqrt(2) at the two columns the decoder averages; the full
    operator is this strip padded with zero rows, and the observable Bob
    queries is strip^T @ strip.
    """
    i, j = _require_index(l, cfg)
    code_len = cfg.ghd.code_len
    dim = 1 << (cfg.qubits + cfg.pad_exponent)
    col = cfg.alice_blocks + i
    strip = np.zeros((code_len, dim), dtype=np.float64)
    amp = 1.0 / math.sqrt(2.0)
    for k in range(code_len):
        strip[k, (j - 1) * code_len + k] = amp
        strip[k, (col - 1) * code_len + k] += amp
    return strip


def _encode_inner_product(a_rows, b_rows, cfg: ProtocolConfig) -> tuple:
    return _encode_stacked(a_rows.reshape(-1), a_rows, cfg)


def _read_inner_product(msg, i: int, j: int, cfg: ProtocolConfig, sr) -> Reading:
    state, blk_a, nnz_a = _read_stacked(msg, j, cfg)
    b = encode_bob(i, cfg.ghd, sr)
    own_norm = int(np.count_nonzero(b))
    if own_norm == 0:
        raise ProtocolError("Bob's codeword is the zero vector")
    cross = int(np.dot(blk_a, b.astype(np.int64)))
    scale = math.sqrt(state.norm_sq * own_norm)
    return Reading(cross / scale, nnz_a + own_norm - 2 * cross, nnz_a + own_norm, 2.0 * scale)


# ---------------------------------------------------------------------------
# pauli-state: Alice solves the character system over all pairwise sum-norms
# and ships the solution stacked against a flat reference half; Bob reads
# one sum-norm back off a single Z-string (tensored with a final X).
# ---------------------------------------------------------------------------

def _pairwise_sum_norms(a_rows: np.ndarray, b_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All ||a^j + b^i||^2 in index-major order ((j-1)*gamma + i - 1), and
    Alice's int64 row weights nnz(a^j)."""
    # float32 counts are exact: each is at most code_len < FLOAT32_EXACT.
    # Bob's rows are cast as columns, which is contiguous when they are the
    # transposed pad matrix.
    a32 = a_rows.astype(np.float32)
    b_cols = b_rows.T.astype(np.float32)
    nnz_a = _row_weights(a32)
    nnz_b = _row_weights(b_cols.T)
    cross = (a32 @ b_cols).astype(np.int64)
    return (nnz_a[:, None] + nnz_b[None, :] + 2 * cross).reshape(-1), nnz_a


def _encode_pauli_state(a_rows, b_rows, cfg: ProtocolConfig) -> tuple:
    n = cfg.qubits
    dim = 1 << n
    norms, nnz_a = _pairwise_sum_norms(a_rows, b_rows)
    # The table, zero-padded to 2^n entries, is the right-hand side: solving
    # transform(v) = table gives v in 2^-n increments, and scaling all
    # amplitudes by 2^n keeps the whole state integral. The transform of the
    # occupied prefix fills the first half; the flat half holds dim.
    numerators = np.empty(2 * dim, dtype=np.int64)
    numerators[:dim] = fwht(norms, n)
    numerators[dim:] = dim
    # Parseval: the unnormalized transform scales squared norms by dim, and
    # the flat half adds dim entries of dim^2
    norm_sq = dim * (exact_sq_sum(norms) + dim * dim)
    return dense_wire_parts(numerators, n + 1, norm_sq), _write_weight_side(norm_sq, nnz_a)


def _read_pauli_state(msg, i: int, j: int, cfg: ProtocolConfig, sr) -> Reading:
    state, nnz_a = _read_state(msg, j, cfg)
    n = cfg.qubits
    # the Z-string picks the pair's table entry; the X on the top qubit pairs
    # the solution half with the flat half
    target = pauli_expectation(state, PauliMask((j - 1) * cfg.ghd.gamma + i - 1, 1 << n, n + 1))
    # target = 2 * sum_norm / D with D = norm_sq / 2^{2n}; undoing the
    # scale turns the estimate back into a sum-norm estimate.
    rescale = Fraction(state.norm_sq, 1 << (2 * n + 1))
    return _sum_norm_reading(target, rescale, nnz_a, i, cfg, sr)


# ---------------------------------------------------------------------------
# observable-general: Alice ships the normalized Gram matrix of all her
# codeword columns; Bob contracts it with a two-point state.
# ---------------------------------------------------------------------------

# Alice's float work arrays, one per role per thread, reused while their
# shape holds. Fresh ones would cost page faults every trial, since glibc
# gives the freed heap top back to the OS between trials. No message ever
# holds one: the payload is rounded into a fresh int64 array.
_work = threading.local()


def _work_array(role: str, shape: tuple, dtype) -> np.ndarray:
    arr = getattr(_work, role, None)
    if arr is None or arr.shape != shape:
        arr = np.empty(shape, dtype)
        setattr(_work, role, arr)
    return arr


def _packed_product(left: np.ndarray, right: np.ndarray, out: np.ndarray, role: str) -> None:
    """``out[:] = left @ right.T`` for 0/1 float32 operands, exactly.

    The rows of ``right`` split into a low half R_lo and a high half R_hi
    (one row short when their count is odd), packed as P = R_lo + 2^s R_hi
    with 2^s above the inner length. Each entry of one float32 product
    ``left @ P.T`` is then G_lo + 2^s G_hi, a nonnegative integer below
    ``FLOAT32_EXACT`` while the inner length is at most ``PACKED_INNER``,
    so every partial sum is exact; an int32 ``&`` and ``>>`` split it.
    Longer inner axes go in chunks whose splits are summed.
    """
    inner = left.shape[1]
    chunks = -(-inner // PACKED_INNER)
    step = -(-inner // chunks)
    shift = step.bit_length()
    half = (right.shape[0] + 1) // 2
    high = right.shape[0] - half
    packed = _work_array(role + "packed", (half, step), np.float32)
    product = _work_array(role + "product", (left.shape[0], half), np.float32)
    ints = _work_array(role + "ints", product.shape, np.int32)
    for start in range(0, inner, step):
        cols = slice(start, start + step)
        part = packed[:, : min(step, inner - start)]
        np.multiply(right[half:, cols], float(1 << shift), out=part[:high])
        part[high:] = 0.0
        part += right[:half, cols]
        np.matmul(left[:, cols], part.T, out=product)
        np.copyto(ints, product, casting="unsafe")
        if start == 0:
            np.bitwise_and(ints, (1 << shift) - 1, out=out[:, :half], casting="unsafe")
            np.right_shift(ints[:, :high], shift, out=out[:, half:], casting="unsafe")
        else:
            out[:, :half] += ints & ((1 << shift) - 1)
            out[:, half:] += ints[:, :high] >> shift


def _gram(rows: np.ndarray, role: str) -> np.ndarray:
    """``rows @ rows.T`` for 0/1 float32 rows, exactly, in a float64 work array.

    The matrix is symmetric, so two packed products fill its left column
    half and its lower-right block, and the upper-right block is the mirror
    of the lower-left one: 3/8 of a full product's multiply-adds, in
    general matmuls, which OpenBLAS ran at 41-47 GFMA/s on one AVX-512
    core at n=8 against 34 for its syrk.
    """
    side = rows.shape[0]
    half = (side + 1) // 2
    gram = _work_array(role, (side, side), np.float64)
    _packed_product(rows, rows[:half], gram[:, :half], role + "-left")
    _packed_product(rows[half:], rows[half:], gram[half:, half:], role + "-low")
    gram[:half, half:] = gram[half:, :half].T
    return gram


def _norm_fp(gram: np.ndarray, dim: int) -> int:
    """The norm q Alice ships, in 32-bit fixed point: ceil(2^32 * hi * (1 +
    dim * 2^-47)) for ``certified_norm``'s bound hi on ``gram``'s norm, so q
    is never below the norm. The factor absorbs the rounding of the shipped
    dim x dim matrix: each entry lands within 2^-48 * (1/2 + 2^-6) of
    G_jk / q, which adds at most dim * 2^-49 * (1 + 2^-5) to the norm, so
    the matrix Bob reads has norm at most 1."""
    num, den = certified_norm(gram).as_integer_ratio()
    pad = ENTRY_FRAC_BITS - 1
    # hi * (2^47 + dim) * 2^32 / 2^47 in integers, rounded up
    return -(-(num * ((1 << pad) + dim)) // (den << (pad - NORM_FRAC_BITS)))


def _encode_observable_general(a_rows, b_rows, cfg: ProtocolConfig) -> tuple:
    dim = 1 << cfg.qubits
    rows = _work_array("rows", (dim, cfg.ghd.code_len), np.float32)
    np.concatenate([a_rows, b_rows], axis=0, out=rows)
    gram = _gram(rows, "gram")
    # the diagonal holds the row weights, so nnz(a^j) for Alice's rows, and
    # is all zero only for an all-zero matrix; copied before the scaling
    weights = gram.diagonal().copy()
    if np.any(weights):
        # both Gram sides share the nonzero spectrum; bound it on the smaller
        small = gram if dim <= cfg.ghd.code_len else _gram(rows.T, "small")
        norm_fp = _norm_fp(small, dim)
        quantized_norm = norm_fp / (1 << NORM_FRAC_BITS)
        # dividing by q * 2^-f rounds as round(gram / q * 2^f) does: scaling
        # by a power of two is exact
        gram /= quantized_norm * 2.0**-ENTRY_FRAC_BITS
        # rounded in place, then cast once into the array the message owns
        entries_fp = np.rint(gram, out=gram).astype("<i8")
    else:
        # all-zero matrix is sent unnormalized
        norm_fp = 0
        entries_fp = np.zeros((dim, dim), dtype="<i8")
    # the u32 qubit count and the matrix stay two parts until to_wire joins them
    main = (struct.pack("<I", cfg.qubits), entries_fp)
    return main, _write_weight_side(norm_fp, weights[: len(a_rows)])


def _read_observable_general(msg, i: int, j: int, cfg: ProtocolConfig, sr) -> Reading:
    norm_fp, nnz_a = _read_weight_side(msg.side_payload, j, cfg)
    dim = 1 << cfg.qubits
    entries_fp = np.frombuffer(
        msg.main_payload, dtype="<i8", count=dim * dim, offset=4
    ).reshape(dim, dim)
    col_a = j - 1
    col_b = cfg.alice_blocks + i - 1
    m_aa, m_ab = int(entries_fp[col_a, col_a]), int(entries_fp[col_a, col_b])
    m_ba, m_bb = int(entries_fp[col_b, col_a]), int(entries_fp[col_b, col_b])
    # The entries come from a Gram matrix, so its 2x2 minor is symmetric and
    # positive semidefinite. Rounding keeps it so: two distinct nonzero 0/1
    # columns give an exact minor of at least half the larger diagonal, and
    # the scale 2^48 / norm >= 2^14 makes that outweigh half-unit roundings.
    if m_ab != m_ba:
        raise MessageError(f"observable entries ({col_a}, {col_b}) are not symmetric")
    if m_aa < 0 or m_bb < 0:
        raise MessageError("observable has a negative diagonal entry")
    if m_aa * m_bb < m_ab * m_ab:
        raise MessageError("observable's 2x2 minor is not positive semidefinite")
    # quad / 2^49 is the two-point value <psi|M|psi>, at most the norm of M,
    # which Alice's rounded norm keeps at most 1
    quad = m_aa + 2 * m_ab + m_bb
    if quad > 1 << (ENTRY_FRAC_BITS + 1):
        raise MessageError("observable's two-point value exceeds its unit norm bound")
    target = Fraction(quad, 1 << (ENTRY_FRAC_BITS + 1))
    rescale = 2 * Fraction(norm_fp, 1 << NORM_FRAC_BITS)
    return _sum_norm_reading(target, rescale, nnz_a, i, cfg, sr)


# ---------------------------------------------------------------------------
# observable-pauli: Alice ships one long Z-string spelled by all codewords;
# Bob reads the distance off a two-hot subset state. Its expectation is a
# Hamming distance between two slices of the Z-string, so Bob computes it
# on the packed wire bits read as one int and never builds the long basis
# indices.
# ---------------------------------------------------------------------------

def _encode_observable_pauli(a_rows, b_rows, cfg: ProtocolConfig) -> tuple:
    z_bits = _flat_codewords(a_rows, b_rows, tail=1)
    z_bits[-1] = 1
    # the Z-string IS the message; the x-mask is structurally zero here
    return pack_bits(z_bits)[0], struct.pack("<Q", cfg.ghd.code_len)


def _read_observable_pauli(msg, i: int, j: int, cfg: ProtocolConfig, sr) -> Reading:
    _expect("side-info length", len(msg.side_payload), 8)
    (code_len,) = struct.unpack("<Q", msg.side_payload)
    _expect("codeword length", code_len, cfg.ghd.code_len)
    # ``bob`` has matched the u64 bit count and the declared main bits with
    # the config, so the Z-string is main_bits - 64 bits long
    count = msg.main_bits - 64
    # the whole Z-string as one int, bit k at 2**k: set bits past ``count``
    # would give one string two wire forms
    z = int.from_bytes(msg.main_payload[8:], "little")
    if z >> count:
        raise MessageError("Z-string padding bits are not zero")

    # Subset state: one two-hot string per code position, pairing Alice's
    # block-j bit with Bob's block bit, each of sign -1 exactly where the two
    # bits differ, so together they give (code_len - 2 * distance) / (2 * code_len).
    # The marked last-qubit point carries squared weight code_len and the
    # sign of the last bit, which Alice sets but a hostile message need not.
    col = cfg.alice_blocks + i
    diff = (z >> ((j - 1) * code_len)) ^ (z >> ((col - 1) * code_len))
    dist = (diff & ((1 << code_len) - 1)).bit_count()
    marked = -1 if z >> (count - 1) else 1
    num = code_len - 2 * dist + marked * code_len
    return Reading(Fraction(num, 2 * code_len), Fraction(-num, 2), 0, code_len)


def _stacked_qubits(cfg: ProtocolConfig) -> int:
    return cfg.qubits + cfg.pad_exponent


def _stacked_limits(cfg: ProtocolConfig) -> tuple:
    return (("payload qubits, under the desk cap,", _stacked_qubits(cfg), MAX_STATE_QUBITS),)


def _pauli_state_limits(cfg: ProtocolConfig) -> tuple:
    # Parseval: Alice's squared norm is dim * (sum of squared sum-norms +
    # dim^2), and each of the capacity sum-norms ||a^j + b^i||^2 is at most
    # 4 * code_len
    dim = 1 << cfg.qubits
    worst = dim * (cfg.capacity * (4 * cfg.ghd.code_len) ** 2 + dim * dim)
    return (("the worst-case squared norm, in its u64 squared-norm field,", worst, (1 << 64) - 1),)


# What the three dense-state kinds share: sqrt(2^n) blocks, the 2^(-n/4)
# epsilon floor, and the ExactState wire form (u8 layout tag, u8 qubits,
# u64 squared norm, then one i64 per amplitude).
_DENSE_STATE = dict(
    block_count=lambda n: math.isqrt(1 << n),
    epsilon_floor=lambda n: 2.0 ** (-n / 4.0),
    qubit_field=("<B", 1),
    main_bits=lambda qubits: 80 + 64 * (1 << qubits),
)

SPECS = {
    "general-state": ProtocolSpec(
        kappa=4.0, payload_qubits=_stacked_qubits,
        encode=_encode_general_state, read=_read_general_state,
        limits=_stacked_limits, **_DENSE_STATE,
    ),
    "pauli-state": ProtocolSpec(
        kappa=4.0, payload_qubits=lambda cfg: cfg.qubits + 1,
        encode=_encode_pauli_state, read=_read_pauli_state,
        limits=_pauli_state_limits, **_DENSE_STATE,
    ),
    "observable-general": ProtocolSpec(
        kappa=4.0, block_count=lambda n: 1 << n, epsilon_floor=lambda n: 2.0 ** (-n / 2.0),
        payload_qubits=lambda cfg: cfg.qubits, qubit_field=("<I", 0),
        # u32 qubit count, then the 2^n x 2^n i64 matrix
        main_bits=lambda n: 32 + 64 * (1 << (2 * n)),
        encode=_encode_observable_general, read=_read_observable_general,
        limits=lambda cfg: (("qubits, under the desk cap,", cfg.qubits, MAX_OBSERVABLE_QUBITS),),
    ),
    "observable-pauli": ProtocolSpec(
        kappa=1.0, block_count=math.isqrt, epsilon_floor=lambda n: n ** (-1.0 / 4.0),
        # the payload is a Pauli string; its pack_bits header is a u64 bit count
        payload_qubits=lambda cfg: cfg.ghd.code_len * cfg.block_count + 1, qubit_field=("<Q", 0),
        main_bits=lambda bits: 64 + bits,
        encode=_encode_observable_pauli, read=_read_observable_pauli,
    ),
    "inner-product": ProtocolSpec(
        kappa=2.0, payload_qubits=_stacked_qubits,
        encode=_encode_inner_product, read=_read_inner_product,
        limits=_stacked_limits, **_DENSE_STATE,
    ),
}

PROTOCOL_KINDS = tuple(SPECS)
ALICE = {kind: partial(alice, kind) for kind in SPECS}
BOB = {kind: partial(bob, kind) for kind in SPECS}
