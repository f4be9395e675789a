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
``bob``.

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
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from typing import Callable

import numpy as np

from . import oracle as oracle_mod
from .bits import BitVector, IndexingInstance, SharedRandomness
from .fwht import fwht
from .ghd import (
    GhdParams,
    decision_threshold,
    decode_bit,
    delta_from_sum_norm,
    encode_bob,
    public_pads,
)
from .messages import ByteReader, ByteWriter, MessageError, ProtocolMessage
from .observables import operator_norm
from .pauli import PauliMask, pauli_expectation, subset_state_expectation
from .states import ExactState, StateError
from . import _kernels

# Desk-scale guards: dense state messages and dense observable payloads.
MAX_STATE_QUBITS = 24
MAX_OBSERVABLE_QUBITS = 10

# Fixed-point scales for the observable-general payload.
ENTRY_FRAC_BITS = 48
NORM_FRAC_BITS = 32

# Block encoding and the Gram matrix count 0/1 products in float32, which is
# exact for integers below 2^24; every count is at most code_len (>= gamma).
FLOAT32_EXACT = 1 << 24


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
    ``qubit_field`` = (struct format, offset); capped at ``max_payload_qubits``.
    ``main_bytes(payload_qubits)`` is the exact main-payload length.
    ``encode(a_rows, b_rows, cfg)`` gives (main, main_bits, side, side_bits);
    ``read(msg, i, j, cfg, sr)`` gives a ``Reading``.
    """

    kappa: float
    block_count: Callable[[int], int]
    epsilon_floor: Callable[[int], float]
    payload_qubits: Callable[["ProtocolConfig"], int]
    qubit_field: tuple[str, int]
    main_bytes: Callable[[int], int]
    encode: Callable
    read: Callable
    max_payload_qubits: float = math.inf


@dataclass(frozen=True)
class ProtocolConfig:
    """One protocol kind pinned to a qubit count and gadget parameters.

    ``qubits`` is the state size n for the state-sending protocols and the
    classical string budget for observable-pauli (whose simulated state is
    tiny). ``oracle_slack`` >= 1 divides the derived oracle accuracy budget
    for extra safety margin.
    """

    kind: str
    qubits: int
    ghd: GhdParams
    oracle_slack: float = 1.0

    def __post_init__(self):
        if self.kind not in SPECS:
            raise ConfigError(f"unknown protocol kind {self.kind!r}")
        if self.qubits < 1:
            raise ConfigError("qubits must be >= 1")
        if self.oracle_slack < 1.0:
            raise ConfigError("oracle_slack must be >= 1")
        if self.ghd.code_len >= FLOAT32_EXACT:
            raise ConfigError(
                f"code_len {self.ghd.code_len} (and so gamma {self.ghd.gamma}) must stay "
                f"below 2^24 for exact float32 block encoding"
            )
        lo = self.epsilon_floor
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
        payload = self.spec.payload_qubits(self)
        if payload > self.spec.max_payload_qubits:
            raise ConfigError(
                f"{self.kind} payload on {payload} qubits exceeds the desk-scale cap "
                f"of {self.spec.max_payload_qubits}"
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
    def capacity(self) -> int:
        """Length of the index string the reduction can serve."""
        return (self.block_count - self.ghd.gamma) * self.ghd.gamma

    @property
    def oracle_accuracy(self) -> float:
        g = self.ghd
        return g.slack_d / (self.spec.kappa * math.sqrt(g.code_len) * self.oracle_slack)


def decompose_index(l: int, gamma: int) -> tuple[int, int]:
    """Split l = i + (j-1)*gamma into (i, j), both 1-based."""
    if l < 1:
        raise IndexError(f"index {l} must be >= 1")
    return (l - 1) % gamma + 1, (l - 1) // gamma + 1


def _require_index(l: int, cfg: ProtocolConfig) -> tuple[int, int]:
    if not 1 <= l <= cfg.capacity:
        raise IndexError(f"index {l} out of range [1, {cfg.capacity}]")
    return decompose_index(l, cfg.ghd.gamma)


def _source_bits(inst) -> BitVector:
    return inst.x if isinstance(inst, IndexingInstance) else inst


def encode_block_matrices(
    x: BitVector, cfg: ProtocolConfig, sr: SharedRandomness
) -> tuple[np.ndarray, np.ndarray]:
    """All Alice codewords (rows) and all Bob codewords (rows), as 0/1 matrices.

    Uses one shared pad matrix for every block, exactly as both parties
    derive it; ``encode_alice``/``encode_bob`` applied block by block agree
    bit for bit. All blocks are encoded by one matmul (ties and empty blocks
    give 0).
    """
    params = cfg.ghd
    if len(x) != cfg.capacity:
        raise ConfigError(f"instance length {len(x)} != capacity {cfg.capacity}")
    pads = public_pads(params, sr)
    # float32 counts are exact: ProtocolConfig keeps gamma below 2^24
    a_rows = _kernels.majority_blocks(pads, x.bits.reshape(-1, params.gamma))
    b_rows = np.ascontiguousarray(pads.T)
    return a_rows, b_rows


def partition_and_encode(
    inst, cfg: ProtocolConfig, sr: SharedRandomness
) -> tuple[tuple[BitVector, ...], tuple[BitVector, ...]]:
    """Block-encoded codewords as BitVector tuples."""
    a_rows, b_rows = encode_block_matrices(_source_bits(inst), cfg, sr)
    return (
        tuple(BitVector(row) for row in a_rows),
        tuple(BitVector(row) for row in b_rows),
    )


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


def alice(kind: str, inst, cfg: ProtocolConfig, sr: SharedRandomness) -> ProtocolMessage:
    """Alice's side of every protocol: block-encode, then the kind's encoder."""
    if cfg.kind != kind:
        raise ConfigError("config kind mismatch")
    a_rows, b_rows = encode_block_matrices(_source_bits(inst), cfg, sr)
    return ProtocolMessage(kind, *SPECS[kind].encode(a_rows, b_rows, cfg))


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
    its main-payload length and (in the kind's reader) its side-info block
    count are checked before anything sized by the message is read.
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
    _expect("main-payload length", len(msg.main_payload), spec.main_bytes(expected_qubits))
    reading = spec.read(msg, i, j, cfg, sr)

    # The reconstructed distance decreases in the estimate for every
    # protocol here, so pushing the ESTIMATE up drags the distance toward
    # a threshold sitting below it, and vice versa.
    threshold = decision_threshold(cfg.ghd)
    push = oracle_mod.PUSH_UP if reading.delta > threshold else oracle_mod.PUSH_DOWN
    est = oracle_mod.estimate(reading.target, oracle, push)
    # Exact estimates stay exact; a noisy float may undershoot zero and
    # still maps to a (poor) distance estimate rather than an error.
    r = reading.rescale
    delta_est = reading.offset - (est * r if isinstance(est, Fraction) else float(est) * float(r))
    return BobResult(decode_bit(delta_est, cfg.ghd), reading.target, est, delta_est, push)


def _expect(what: str, found: int, expected: int) -> None:
    if found != expected:
        raise MessageError(f"message {what} {found} does not match the config's {expected}")


def _write_weight_side(first_field: int, nnz_list) -> tuple[bytes, int]:
    w = ByteWriter()
    w.put_u64(first_field)
    w.put_u32(len(nnz_list))
    for v in nnz_list:
        w.put_u32(int(v))
    return w.getvalue(), w.bits


def _read_weight_side(side: bytes, j: int, cfg: ProtocolConfig) -> tuple[int, int]:
    """The leading side-info field and nnz(a^j), once the block count checks out."""
    blocks = cfg.block_count - cfg.ghd.gamma
    _expect("side-info length", len(side), 12 + 4 * blocks)
    r = ByteReader(side)
    first = r.take_u64()
    _expect("side-info block count", r.take_u32(), blocks)
    r.offset += 4 * (j - 1)
    return first, r.take_u32()


def _read_state(msg, j: int, cfg: ProtocolConfig) -> tuple[ExactState, int]:
    """Alice's dense state and nnz(a^j); the side info's leading field must
    be the squared norm that the state itself checked."""
    norm_sq, nnz_a = _read_weight_side(msg.side_payload, j, cfg)
    try:
        state, _ = ExactState.deserialize(msg.main_payload)
    except StateError as exc:
        raise MessageError(f"malformed state payload: {exc}") from exc
    if not state.is_dense:
        raise MessageError("state payload is not in the dense layout")
    _expect("side-info squared norm", norm_sq, state.norm_sq)
    return state, nnz_a


def _sum_norm_reading(target, rescale, nnz_a: int, i: int, cfg, sr) -> Reading:
    """``target`` is ||a^j + b^i||^2 / rescale; distance = 2 nnz_a + 2 nnz_b - ||a+b||^2."""
    nnz_b = encode_bob(i, cfg.ghd, sr).nnz
    delta = delta_from_sum_norm(target * rescale, nnz_a, nnz_b)
    return Reading(target, delta, 2 * nnz_a + 2 * nnz_b, rescale)


# ---------------------------------------------------------------------------
# general-state and inner-product: Alice ships a stacked codeword state.
# general-state stacks every codeword and Bob contracts with a two-block
# averaging observable; inner-product stacks Alice's blocks only and Bob
# estimates the overlap with his own codeword at the queried block.
# ---------------------------------------------------------------------------

def _encode_stacked(occupied: np.ndarray, a_rows: np.ndarray, cfg: ProtocolConfig) -> tuple:
    dim = 1 << (cfg.qubits + cfg.pad_exponent)
    stacked = np.zeros(dim, dtype=np.int64)
    stacked[: occupied.shape[0]] = occupied
    total = int(occupied.sum(dtype=np.int64))
    if total == 0:
        raise ProtocolError("all-zero instance produced the zero vector")
    state = ExactState(qubits=cfg.qubits + cfg.pad_exponent, norm_sq=total, numerators=stacked)
    return (*state.serialize(), *_write_weight_side(total, a_rows.sum(axis=1)))


def _encode_general_state(a_rows, b_rows, cfg: ProtocolConfig) -> tuple:
    return _encode_stacked(np.concatenate([a_rows.reshape(-1), b_rows.reshape(-1)]), a_rows, cfg)


def _read_general_state(msg, i: int, j: int, cfg: ProtocolConfig, sr) -> Reading:
    state, nnz_a = _read_state(msg, j, cfg)
    code_len = cfg.ghd.code_len
    blk_a = state.numerators[(j - 1) * code_len : j * code_len]
    col = cfg.block_count - cfg.ghd.gamma + i
    blk_b = state.numerators[(col - 1) * code_len : col * code_len]
    sum_norm = int(np.dot(blk_a + blk_b, blk_a + blk_b))
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
    col = cfg.block_count - cfg.ghd.gamma + i
    strip = np.zeros((code_len, dim), dtype=np.float64)
    amp = 1.0 / math.sqrt(2.0)
    for k in range(code_len):
        strip[k, (j - 1) * code_len + k] = amp
        strip[k, (col - 1) * code_len + k] += amp
    return strip


def _encode_inner_product(a_rows, b_rows, cfg: ProtocolConfig) -> tuple:
    return _encode_stacked(a_rows.reshape(-1), a_rows, cfg)


def _read_inner_product(msg, i: int, j: int, cfg: ProtocolConfig, sr) -> Reading:
    state, nnz_a = _read_state(msg, j, cfg)
    code_len = cfg.ghd.code_len
    b = encode_bob(i, cfg.ghd, sr)
    own_norm = b.nnz
    if own_norm == 0:
        raise ProtocolError("Bob's codeword is the zero vector")
    blk = state.numerators[(j - 1) * code_len : j * code_len]
    cross = int(np.dot(blk, b.bits.astype(np.int64)))
    scale = math.sqrt(state.norm_sq * own_norm)
    return Reading(cross / scale, nnz_a + own_norm - 2 * cross, nnz_a + own_norm, 2.0 * scale)


# ---------------------------------------------------------------------------
# pauli-state: Alice solves the character system over all pairwise sum-norms
# and ships the solution stacked against a flat reference half; Bob reads
# one sum-norm back off a single Z-string (tensored with a final X).
# ---------------------------------------------------------------------------

def _pairwise_sum_norms(a_rows: np.ndarray, b_rows: np.ndarray) -> np.ndarray:
    """All ||a^j + b^i||^2 in index-major order ((j-1)*gamma + i - 1)."""
    a64 = a_rows.astype(np.int64)
    b64 = b_rows.astype(np.int64)
    cross = a64 @ b64.T
    nnz_a = a64.sum(axis=1)
    nnz_b = b64.sum(axis=1)
    return (nnz_a[:, None] + nnz_b[None, :] + 2 * cross).reshape(-1)


def _encode_pauli_state(a_rows, b_rows, cfg: ProtocolConfig) -> tuple:
    n = cfg.qubits
    dim = 1 << n
    stacked = np.zeros(dim, dtype=np.int64)
    norms = _pairwise_sum_norms(a_rows, b_rows)
    stacked[: norms.shape[0]] = norms
    # Solving transform(v) = stacked gives v in 2^-n increments; scaling all
    # amplitudes by 2^n keeps the whole state integral.
    tilde_v = fwht(stacked)
    numerators = np.concatenate([tilde_v, np.full(dim, dim, dtype=np.int64)])
    state = ExactState.dense(numerators, qubits=n + 1)
    return (*state.serialize(), *_write_weight_side(state.norm_sq, a_rows.sum(axis=1)))


def _read_pauli_state(msg, i: int, j: int, cfg: ProtocolConfig, sr) -> Reading:
    state, nnz_a = _read_state(msg, j, cfg)
    n = cfg.qubits
    mask = PauliMask.from_ints(z=(j - 1) * cfg.ghd.gamma + i - 1, x=1 << n, qubits=n + 1)
    # target = 2 * sum_norm / D with D = norm_sq / 2^{2n}; undoing the
    # scale turns the estimate back into a sum-norm estimate.
    rescale = Fraction(state.norm_sq, 1 << (2 * n + 1))
    return _sum_norm_reading(pauli_expectation(state, mask), rescale, nnz_a, i, cfg, sr)


# ---------------------------------------------------------------------------
# observable-general: Alice ships the normalized Gram matrix of all her
# codeword columns; Bob contracts it with a two-point state.
# ---------------------------------------------------------------------------

def _encode_observable_general(a_rows, b_rows, cfg: ProtocolConfig) -> tuple:
    columns = np.concatenate([a_rows, b_rows], axis=0).astype(np.float32).T  # (code_len, 2^n)
    dim = 1 << cfg.qubits
    # integer entries at most max(code_len, 2^n) < 2^24: exact in float32
    gram = (columns.T @ columns).astype(np.float64)
    if np.any(columns):
        # both Gram sides share the nonzero spectrum; iterate on the smaller
        small = gram if dim <= cfg.ghd.code_len else (columns @ columns.T).astype(np.float64)
        norm_fp = round(operator_norm(small) * (1 << NORM_FRAC_BITS))
        quantized_norm = norm_fp / (1 << NORM_FRAC_BITS)
        entries_fp = np.round(gram / quantized_norm * (1 << ENTRY_FRAC_BITS))
    else:
        # all-zero matrix is sent unnormalized
        norm_fp = 0
        entries_fp = np.zeros((dim, dim))
    w = ByteWriter()
    w.put_u32(cfg.qubits)
    w.put_payload(entries_fp.astype("<i8").tobytes(), 64 * dim * dim)
    return (w.getvalue(), w.bits, *_write_weight_side(norm_fp, a_rows.sum(axis=1)))


def _read_observable_general(msg, i: int, j: int, cfg: ProtocolConfig, sr) -> Reading:
    norm_fp, nnz_a = _read_weight_side(msg.side_payload, j, cfg)
    dim = 1 << cfg.qubits
    entries_fp = np.frombuffer(
        msg.main_payload, dtype="<i8", count=dim * dim, offset=4
    ).reshape(dim, dim)
    col_a = j - 1
    col_b = (dim - cfg.ghd.gamma) + i - 1
    quad = int(entries_fp[col_a, col_a]) + 2 * int(entries_fp[col_a, col_b]) + int(
        entries_fp[col_b, col_b]
    )
    target = Fraction(quad, 1 << (ENTRY_FRAC_BITS + 1))
    rescale = 2 * Fraction(norm_fp, 1 << NORM_FRAC_BITS)
    return _sum_norm_reading(target, rescale, nnz_a, i, cfg, sr)


# ---------------------------------------------------------------------------
# observable-pauli: Alice ships one long Z-string spelled by all codewords;
# Bob reads the distance off a two-hot subset state. The simulated state is
# tiny (codeword-many support points) while the mask is long, so basis
# indices are arbitrary-precision integers here.
# ---------------------------------------------------------------------------

def _encode_observable_pauli(a_rows, b_rows, cfg: ProtocolConfig) -> tuple:
    z_bits = np.concatenate(
        [a_rows.reshape(-1), b_rows.reshape(-1), np.ones(1, dtype=np.uint8)]
    )
    # the Z-string IS the message; the x-mask is structurally zero here
    w = ByteWriter()
    w.put_u64(cfg.ghd.code_len)
    return (*BitVector(z_bits).serialize(), w.getvalue(), w.bits)


def _read_observable_pauli(msg, i: int, j: int, cfg: ProtocolConfig, sr) -> Reading:
    _expect("side-info length", len(msg.side_payload), 8)
    code_len = ByteReader(msg.side_payload).take_u64()
    _expect("codeword length", code_len, cfg.ghd.code_len)
    z_vector, _ = BitVector.deserialize(msg.main_payload)
    mask = PauliMask(z_vector, BitVector.zeros(len(z_vector)))

    # Subset state: one two-hot string per code position, pairing Alice's
    # block-j bit with Bob's block bit, plus the marked last-qubit point
    # carrying squared weight code_len.
    col = cfg.block_count - cfg.ghd.gamma + i
    support = [
        ((1 << ((j - 1) * code_len + k)) | (1 << ((col - 1) * code_len + k)), 1)
        for k in range(code_len)
    ]
    subset_part = subset_state_expectation(mask.z_int, support, 2 * code_len)
    marked_sign = mask.diagonal_sign(1 << (mask.qubits - 1))
    target = subset_part + Fraction(marked_sign * code_len, 2 * code_len)
    return Reading(target, -code_len * target, 0, code_len)


def _state_blocks(n: int) -> int:
    return math.isqrt(1 << n)


def _state_floor(n: int) -> float:
    return 2.0 ** (-n / 4.0)


def _stacked_qubits(cfg: ProtocolConfig) -> int:
    return cfg.qubits + cfg.pad_exponent


_STATE_QUBITS = ("<B", 1)  # ExactState wire header: u8 layout tag, u8 qubits, ...


def _dense_state_bytes(qubits: int) -> int:
    """ExactState dense wire length: 10-byte header, one i64 per amplitude."""
    return 10 + 8 * (1 << qubits)


SPECS = {
    "general-state": ProtocolSpec(
        kappa=4.0, block_count=_state_blocks, epsilon_floor=_state_floor,
        payload_qubits=_stacked_qubits, qubit_field=_STATE_QUBITS,
        main_bytes=_dense_state_bytes, encode=_encode_general_state, read=_read_general_state,
        max_payload_qubits=MAX_STATE_QUBITS,
    ),
    "pauli-state": ProtocolSpec(
        kappa=4.0, block_count=_state_blocks, epsilon_floor=_state_floor,
        payload_qubits=lambda cfg: cfg.qubits + 1, qubit_field=_STATE_QUBITS,
        main_bytes=_dense_state_bytes, encode=_encode_pauli_state, read=_read_pauli_state,
        max_payload_qubits=MAX_STATE_QUBITS,
    ),
    "observable-general": ProtocolSpec(
        kappa=4.0, block_count=lambda n: 1 << n, epsilon_floor=lambda n: 2.0 ** (-n / 2.0),
        payload_qubits=lambda cfg: cfg.qubits, qubit_field=("<I", 0),
        # u32 qubit count, then the 2^n x 2^n i64 matrix
        main_bytes=lambda n: 4 + 8 * (1 << (2 * n)),
        encode=_encode_observable_general, read=_read_observable_general,
        max_payload_qubits=MAX_OBSERVABLE_QUBITS,
    ),
    "observable-pauli": ProtocolSpec(
        kappa=1.0, block_count=math.isqrt, epsilon_floor=lambda n: n ** (-1.0 / 4.0),
        # the payload is a Pauli string; its BitVector header is a u64 bit count
        payload_qubits=lambda cfg: cfg.ghd.code_len * cfg.block_count + 1, qubit_field=("<Q", 0),
        main_bytes=lambda bits: 8 + (bits + 7) // 8,
        encode=_encode_observable_pauli, read=_read_observable_pauli,
    ),
    "inner-product": ProtocolSpec(
        kappa=2.0, block_count=_state_blocks, epsilon_floor=_state_floor,
        payload_qubits=_stacked_qubits, qubit_field=_STATE_QUBITS,
        main_bytes=_dense_state_bytes, encode=_encode_inner_product, read=_read_inner_product,
        max_payload_qubits=MAX_STATE_QUBITS,
    ),
}

PROTOCOL_KINDS = tuple(SPECS)
ALICE = {kind: partial(alice, kind) for kind in SPECS}
BOB = {kind: partial(bob, kind) for kind in SPECS}
