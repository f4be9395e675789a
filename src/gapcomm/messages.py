"""Bit-accounted one-way message container and its wire format."""
from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property

PROTOCOL_TAGS = {
    "general-state": b"GSTA",
    "pauli-state": b"PSTA",
    "observable-general": b"OGEN",
    "observable-pauli": b"OPAU",
    "inner-product": b"INNP",
    "shadow-adapter": b"SHDW",
}
_TAG_TO_PROTOCOL = {v: k for k, v in PROTOCOL_TAGS.items()}
# Wire envelope: 4-byte tag, u64 main_bits, u64 side_bits, two zero pad bytes.
# The pad starts the main payload at byte 22, so a dense state's int64
# amplitudes, after its 10-byte header, start at byte 32: CPython keeps a
# ``bytes`` object's data 16-byte aligned, so Bob's views of them are aligned.
_HEADER = struct.Struct("<4sQQ2x")
HEADER_LEN = _HEADER.size  # 22


class MessageError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class ProtocolMessage:
    """Alice's serialized payload, split into main and side-info sections.

    ``main_bits``/``side_bits`` are the exact information bit counts of the
    two sections. The main payload may carry up to 7 bits of padding beyond
    its count, never more; the side info is whole bytes, so ``side_bits``
    is 8 times its length. The main payload is given as one buffer or as a
    tuple of buffers (``main_parts``) whose concatenation it is, so that
    ``to_wire`` is the one place a large payload is joined; ``main_payload``
    reads it as one bytes-like object, joining the parts on first use. A
    message read by ``from_wire`` holds its main payload as a read-only
    memoryview over the wire bytes. The wire envelope, ``HEADER_LEN``
    bytes, is framing: neither bit count includes it.
    """

    protocol: str
    main_parts: tuple
    main_bits: int
    side_payload: bytes = b""
    side_bits: int = 0

    def __post_init__(self):
        if not isinstance(self.main_parts, tuple):
            object.__setattr__(self, "main_parts", (self.main_parts,))
        if len(self.main_parts) == 1:
            # one buffer is the payload itself, with no join to defer
            object.__setattr__(self, "main_payload", self.main_parts[0])
        if self.protocol not in PROTOCOL_TAGS:
            raise MessageError(f"unknown protocol {self.protocol!r}")
        main_len = 0
        for part in self.main_parts:
            main_len += memoryview(part).nbytes
        for name, nbytes, bits, max_padding in (
            ("main", main_len, self.main_bits, 7),
            ("side", len(self.side_payload), self.side_bits, 0),
        ):
            if bits < 0:
                raise MessageError(f"{name}_bits must be nonnegative")
            if not 0 <= 8 * nbytes - bits <= max_padding:
                raise MessageError(
                    f"{name}_bits {bits} inconsistent with {nbytes} payload bytes"
                )

    @cached_property
    def main_payload(self) -> bytes | memoryview:
        return b"".join(self.main_parts)

    def to_wire(self) -> bytes:
        """4-byte protocol tag, u64 main_bits, u64 side_bits, two zero pad
        bytes, then the payloads."""
        return b"".join((
            _HEADER.pack(PROTOCOL_TAGS[self.protocol], self.main_bits, self.side_bits),
            *self.main_parts,
            self.side_payload,
        ))

    @staticmethod
    def from_wire(buf: bytes) -> "ProtocolMessage":
        """Parse a wire message without copying its main payload.

        The main payload is a read-only memoryview slice of ``buf``; input
        that is not ``bytes`` is copied to ``bytes`` first, so later writes
        to the caller's buffer cannot reach the message. A nonzero pad byte
        is a ``MessageError``, so each message has one wire form.
        """
        if not isinstance(buf, bytes):
            buf = bytes(buf)
        if len(buf) < HEADER_LEN:
            raise MessageError("truncated message header")
        tag, main_bits, side_bits = _HEADER.unpack_from(buf)
        protocol = _TAG_TO_PROTOCOL.get(tag)
        if protocol is None:
            raise MessageError(f"unknown protocol tag {tag!r}")
        if buf[HEADER_LEN - 2 : HEADER_LEN] != b"\0\0":
            raise MessageError("nonzero pad byte in the message header")
        main_len = (main_bits + 7) // 8
        side_len = (side_bits + 7) // 8
        main_end = HEADER_LEN + main_len
        if len(buf) != main_end + side_len:
            raise MessageError("message length inconsistent with declared bit counts")
        main = memoryview(buf)[HEADER_LEN:main_end]
        side = buf[main_end:]
        return ProtocolMessage(protocol, (main,), main_bits, side, side_bits)

