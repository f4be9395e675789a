"""Wire format and bit accounting of the one-way message container."""
import pytest

from gapcomm.messages import MessageError, ProtocolMessage


class TestProtocolMessage:
    def test_wire_round_trip(self):
        msg = ProtocolMessage("pauli-state", b"\xab\xcd", 16, b"\x01", 8)
        back = ProtocolMessage.from_wire(msg.to_wire())
        assert back.to_wire() == msg.to_wire()
        assert (back.main_bits, back.side_bits) == (16, 8)

    def test_wire_header_layout(self):
        msg = ProtocolMessage("general-state", b"\x00" * 4, 32)
        wire = msg.to_wire()
        assert wire[:4] == b"GSTA"
        assert int.from_bytes(wire[4:12], "little") == 32
        assert int.from_bytes(wire[12:20], "little") == 0

    def test_ragged_bit_counts_allowed_within_a_byte(self):
        # raw-bit payloads (e.g. packed shadows) may pad up to 7 bits
        msg = ProtocolMessage("shadow-adapter", b"\x07", 3)
        assert ProtocolMessage.from_wire(msg.to_wire()).to_wire() == msg.to_wire()

    def test_padding_overflow_rejected(self):
        with pytest.raises(MessageError):
            ProtocolMessage("pauli-state", b"\x00\x00", 3)

    @pytest.mark.parametrize("side_bits", [1, 7, 9])
    def test_side_info_is_whole_bytes(self, side_bits):
        with pytest.raises(MessageError, match=f"side_bits {side_bits} inconsistent"):
            ProtocolMessage("general-state", b"\x00", 8, b"\x01", side_bits)
        wire = bytearray(ProtocolMessage("general-state", b"\x00", 8, b"\x01", 8).to_wire())
        wire[12] = side_bits
        with pytest.raises(MessageError):
            ProtocolMessage.from_wire(bytes(wire))

    @pytest.mark.parametrize("field", ["main", "side"])
    def test_negative_bit_count_rejected(self, field):
        bits = {"main_bits": 0, "side_bits": 0, f"{field}_bits": -1}
        with pytest.raises(MessageError, match="nonnegative"):
            ProtocolMessage("pauli-state", b"", bits["main_bits"], b"", bits["side_bits"])

    def test_main_payload_given_as_parts(self):
        msg = ProtocolMessage("general-state", (b"\x01", memoryview(b"\x02\x03"), b""), 24, b"\x09", 8)
        assert msg.main_payload == b"\x01\x02\x03"
        assert msg.to_wire() == ProtocolMessage("general-state", b"\x01\x02\x03", 24, b"\x09", 8).to_wire()
        assert ProtocolMessage.from_wire(msg.to_wire()).main_payload == b"\x01\x02\x03"
        with pytest.raises(MessageError, match="main_bits 32 inconsistent with 3"):
            ProtocolMessage("general-state", (b"\x01", b"\x02\x03"), 32)

    def test_unknown_protocol_rejected(self):
        with pytest.raises(MessageError):
            ProtocolMessage("carrier-pigeon", b"", 0)

    def test_unknown_tag_rejected(self):
        wire = b"XXXX" + bytes(16)
        with pytest.raises(MessageError):
            ProtocolMessage.from_wire(wire)

    def test_main_payload_is_a_read_only_view_of_wire_bytes(self):
        wire = ProtocolMessage("general-state", b"\x01\x02\x03", 24, b"\x09", 8).to_wire()
        back = ProtocolMessage.from_wire(wire)
        assert isinstance(back.main_payload, memoryview)
        assert back.main_payload.readonly and back.main_payload.obj is wire
        assert back.main_payload == b"\x01\x02\x03"
        assert back.to_wire() == wire

    def test_mutable_wire_buffer_is_copied(self):
        msg = ProtocolMessage("general-state", b"\x01\x02\x03", 24, b"\x09", 8)
        wire = bytearray(msg.to_wire())
        back = ProtocolMessage.from_wire(wire)
        wire[20:] = bytes(len(wire) - 20)
        assert back.to_wire() == msg.to_wire()

    def test_truncated_wire_rejected(self):
        msg = ProtocolMessage("inner-product", b"\x01\x02", 16)
        with pytest.raises(MessageError):
            ProtocolMessage.from_wire(msg.to_wire()[:-1])

