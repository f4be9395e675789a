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
    memoryview over the wire bytes.
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
        """4-byte protocol tag, u64 main_bits, u64 side_bits, then payloads."""
        return b"".join((
            PROTOCOL_TAGS[self.protocol],
            struct.pack("<QQ", self.main_bits, self.side_bits),
            *self.main_parts,
            self.side_payload,
        ))

    @staticmethod
    def from_wire(buf: bytes) -> "ProtocolMessage":
        """Parse a wire message without copying its main payload.

        The main payload is a read-only memoryview slice of ``buf``; input
        that is not ``bytes`` is copied to ``bytes`` first, so later writes
        to the caller's buffer cannot reach the message.
        """
        if not isinstance(buf, bytes):
            buf = bytes(buf)
        if len(buf) < 20:
            raise MessageError("truncated message header")
        tag = buf[:4]
        protocol = _TAG_TO_PROTOCOL.get(tag)
        if protocol is None:
            raise MessageError(f"unknown protocol tag {tag!r}")
        main_bits, side_bits = struct.unpack_from("<QQ", buf, 4)
        main_len = (main_bits + 7) // 8
        side_len = (side_bits + 7) // 8
        if len(buf) != 20 + main_len + side_len:
            raise MessageError("message length inconsistent with declared bit counts")
        main = memoryview(buf)[20 : 20 + main_len]
        side = buf[20 + main_len :]
        return ProtocolMessage(protocol, (main,), main_bits, side, side_bits)

