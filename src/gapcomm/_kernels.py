"""Hot numeric kernels, vectorized in numpy; the exact ones run on ``limbs``.
``benchmarks/bench_kernels.py`` times each of them on protocol-scale inputs."""
from __future__ import annotations

from functools import lru_cache

import numpy as np

# Largest Walsh-Hadamard factor, in qubits: a 2^7 x 2^7 float64 matrix is 128 KiB.
MAX_FACTOR_QUBITS = 7
# Integers up to 2^53 in size are exact in float64; below 2^63, in int64.
FLOAT64_EXACT_BITS = 53
INT64_BITS = 63
# Entries per chunk when ``sq_sum`` splits a wide array into limbs.
LIMB_CHUNK = 1024


def abs_bound(values: np.ndarray) -> int:
    """Largest |entry| as a Python int, from ``max``/``min``: no ``abs``
    temporary, and -2**63 gives 2**63 where ``np.abs`` would wrap."""
    if values.size == 0:
        return 0
    return max(int(values.max()), -int(values.min()))


def limbs(arr: np.ndarray, bound: int, width: int) -> list[np.ndarray]:
    """``arr`` == sum(limb_s << (width * s)), given ``bound`` >= every |arr[i]|.

    Every limb but the signed top one lies in [0, 2^width), so none exceeds
    2^width in size; an ``arr`` below 2^width is its own single limb, uncopied.
    """
    if bound.bit_length() <= width:
        return [arr]
    count, low = -(-bound.bit_length() // width), (1 << width) - 1
    return [(arr >> (width * s)) & low for s in range(count - 1)] + [arr >> (width * (count - 1))]


def product_width(count: int) -> int:
    """Limb width at which an int64 sum of ``count`` limb products is exact."""
    return (INT64_BITS - count.bit_length()) // 2


def product_form(form, arr: np.ndarray, bound: int, symmetric: bool = False) -> int:
    """``form(arr, arr)`` exactly, for an int64 kernel ``form(u, v)`` linear in
    each argument whose partial sums are signed subset sums of len(arr) products
    u[i] * v[j]. It runs on every ordered pair of limbs, or, when ``symmetric``
    says form(u, v) == form(v, u), once per unordered pair with the cross
    pairs doubled; the results add up as Python ints."""
    width = product_width(arr.size)
    parts = limbs(arr, bound, width)
    if len(parts) == 1:
        return form(arr, arr)
    total = 0
    for s, u in enumerate(parts):
        for t in range(s if symmetric else 0, len(parts)):
            term = form(u, parts[t]) << (width * (s + t))
            total += 2 * term if symmetric and t != s else term
    return total


def _dot(u: np.ndarray, v: np.ndarray) -> int:
    # einsum reads unaligned views through a small buffer; np.dot would copy them
    return int(np.einsum("i,i->", u, v))


def sq_sum(arr: np.ndarray, bound: int) -> int:
    """Exact sum of squares of an int64 array, given ``bound`` >= every |entry|.

    An array too wide for one limb goes in chunks, halved until ``bound`` fits
    one limb or down to ``LIMB_CHUNK``, each split by its own bound: one large
    hostile entry splits only its chunk, into small limbs."""
    step = arr.size
    while step > LIMB_CHUNK and bound.bit_length() > product_width(step):
        step = -(-step // 2)
    if step == arr.size:
        return product_form(_dot, arr, bound, symmetric=True)
    chunks = (arr[i : i + step] for i in range(0, arr.size, step))
    return sum(product_form(_dot, chunk, abs_bound(chunk), symmetric=True) for chunk in chunks)


def factor_qubits(qubits: int) -> list[int]:
    """Split ``qubits`` into as few parts of at most ``MAX_FACTOR_QUBITS`` as
    possible, as even as possible, largest (most significant axis) first."""
    parts = max(1, -(-qubits // MAX_FACTOR_QUBITS))
    base, extra = divmod(qubits, parts)
    return [base + 1] * extra + [base] * (parts - extra)


@lru_cache(maxsize=None)
def hadamard_factor(qubits: int) -> np.ndarray:
    """Read-only float64 character matrix H[k, y] = (-1)^popcount(k & y) of one factor."""
    idx = np.arange(1 << qubits, dtype=np.uint64)
    h = (1 - 2 * parity_u64(idx[:, None] & idx)).astype(np.float64)
    h.setflags(write=False)
    return h


# One entry per (factor bits, z part): at most 2^7 parts of each of 7 factor
# sizes, 1 KiB each, so the cache stays bounded without an eviction limit.
@lru_cache(maxsize=None)
def sign_row(qubits: int, z_part: int) -> np.ndarray:
    """Read-only int64 row z_part of one factor's character matrix:
    s[y] = (-1)^popcount(z_part & y), built without the matrix."""
    idx = np.arange(1 << qubits, dtype=np.uint64)
    row = (1 - 2 * parity_u64(idx & np.uint64(z_part))).astype(np.int64)
    row.setflags(write=False)
    return row


def fwht(prefix: np.ndarray, qubits: int | None = None) -> np.ndarray:
    """Walsh-Hadamard transform of an int64 ``prefix`` zero-padded to length
    2^qubits, as a fresh int64 array; ``qubits`` defaults to the prefix's own
    log2 length. OverflowError once max|v|.bit_length() + n reaches 63.

    H_{2^n} is the Kronecker product of one factor per part of
    ``factor_qubits(n)``, so the transform is one small float64 matmul per
    factor. Every partial sum is a signed subset sum of the input, so on
    limbs of 53 - n bits it stays exact in float64, in any summation order.
    """
    arr = np.asarray(prefix, dtype=np.int64)
    if qubits is None:
        qubits = arr.shape[0].bit_length() - 1
    if qubits < 0 or arr.shape[0] > 1 << qubits:
        raise ValueError(f"cannot pad length {arr.shape[0]} to 2^{qubits}")
    bound = abs_bound(arr)
    if bound.bit_length() + qubits >= INT64_BITS:
        raise OverflowError("transform would overflow int64")
    width = FLOAT64_EXACT_BITS - qubits
    parts = limbs(arr, bound, width)
    # Horner's rule from the top limb; int64 holds every step, since each is
    # the transform of arr >> (width * s)
    out = _fwht_float(parts.pop(), qubits)
    while parts:
        out = (out << width) + _fwht_float(parts.pop(), qubits)
    return out


def _fwht_float(prefix: np.ndarray, qubits: int) -> np.ndarray:
    # The padded vector is a tensor with one axis per factor, the first most
    # significant. The prefix fills only its leading ``rows`` slices along
    # the first axis, so every other axis is transformed on those alone, each
    # by one matmul that leaves the axes in order; the first axis then
    # expands from ``rows`` entries to its full size.
    first, *rest = factor_qubits(qubits)
    tail = 1 << (qubits - first)
    rows = -(-prefix.shape[0] // tail)
    t = np.empty(rows * tail, dtype=np.float64)
    t[: prefix.shape[0]] = prefix
    t[prefix.shape[0] :] = 0.0
    lead = rows
    for bits in rest[:-1]:
        t = np.matmul(hadamard_factor(bits), t.reshape(lead, 1 << bits, -1))
        lead <<= bits
    if rest:
        # each factor is symmetric, so the last axis is t's rows times it
        t = t.reshape(-1, 1 << rest[-1]) @ hadamard_factor(rest[-1])
    t = hadamard_factor(first)[:, :rows] @ t.reshape(rows, tail)
    return t.astype(np.int64).reshape(-1)


def parity_u64(values: np.ndarray) -> np.ndarray:
    """Per-element parity of the set bits of a uint64 array, as int8 0 or 1.

    Signed, so that ``1 - 2 * parity`` gives the +-1 signs without wrapping.
    """
    return (np.bitwise_count(values) & 1).view(np.int8)


def pauli_quad(nums: np.ndarray, z_mask: int, x_mask: int) -> int:
    """Quadratic form sum(s_y * nums[y] * nums[y ^ x]) with s_y = (-1)^|y & z|, exactly.

    For z & x == 0 the bilinear form is symmetric (y -> y ^ x keeps every
    sign), so two limbs take three forms, not four.
    """
    bound = abs_bound(nums)
    return product_form(
        lambda u, v: _pauli_bilinear(u, v, z_mask, x_mask), nums, bound, symmetric=not z_mask & x_mask
    )


def _pauli_bilinear(u: np.ndarray, v: np.ndarray, z_mask: int, x_mask: int) -> int:
    """Bilinear form sum(s_y * u[y] * v[y ^ x]) in int64.

    ``u`` and ``v`` are viewed as tensors with one axis per part of
    ``factor_qubits``. The partner y ^ x is one gather along each axis where
    x has bits, and the signs factor into one row of a character matrix per
    axis, contracted last axis first.
    """
    qubits = u.shape[0].bit_length() - 1
    parts = factor_qubits(qubits)
    shape = [1 << bits for bits in parts]
    partner = v.reshape(shape)
    shift = qubits
    for axis, bits in enumerate(parts):
        shift -= bits
        x_part = (x_mask >> shift) & ((1 << bits) - 1)
        if x_part:
            perm = np.arange(1 << bits) ^ x_part
            partner = partner[(slice(None),) * axis + (perm,)]
    w = u.reshape(shape) * partner
    shift = 0
    for bits in reversed(parts):
        w = w @ sign_row(bits, (z_mask >> shift) & ((1 << bits) - 1))
        shift += bits
    return int(w)


def majority_rows(pads: np.ndarray, selected: np.ndarray) -> np.ndarray:
    """Row-wise strict majority of the selected columns of a 0/1 matrix.

    Ties (possible only for even selection counts) resolve to 0, as does an
    empty selection.
    """
    if selected.size == 0:
        return np.zeros(pads.shape[0], dtype=np.uint8)
    # 2 * count > size exactly when count > size // 2, for odd and even sizes
    counts = pads[:, selected].sum(axis=1, dtype=np.intp)
    return np.greater(counts, selected.size // 2).view(np.uint8)


def majority_blocks(pads: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """``majority_rows`` for every row of a 0/1 selection matrix, in one matmul.

    Row j of the result is ``majority_rows(pads, nonzero(blocks[j]))``.
    Against the pads shifted by -1/2, each entry of the product is
    count - weight / 2: positive exactly on a strict majority, 0 on a tie or
    an empty block. While ``pads`` has fewer than 2^24 columns, every partial
    sum is half an integer below 2^24 in size, which float32 holds exactly.
    """
    # one pass over the contiguous pads; the matmul takes the transposed view
    signs = np.subtract(pads, 0.5, dtype=np.float32)
    return np.greater(blocks.astype(np.float32) @ signs.T, 0.0).view(np.uint8)


def backend_name() -> str:
    return "numpy"
