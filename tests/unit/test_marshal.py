"""Unit tests for the marshalling layer."""

from array import array

import numpy as np
import pytest

from repro.errors import MarshalError
from repro.marshal import (
    Marshallable,
    marshal_args,
    pack_object,
    register_serializer,
    unmarshal_args,
    unpack_object,
)
from repro.marshal.packer import Packer, Unpacker


class TestPacker:
    def test_scalar_roundtrip(self):
        p = Packer()
        p.put_u8(200).put_u32(1 << 30).put_i64(-12345).put_f64(3.25)
        u = Unpacker(p.getvalue())
        assert u.get_u8() == 200
        assert u.get_u32() == 1 << 30
        assert u.get_i64() == -12345
        assert u.get_f64() == 3.25
        assert u.done()

    def test_bytes_and_str_roundtrip(self):
        p = Packer()
        p.put_bytes(b"\x00\x01payload").put_str("méthode::f")
        u = Unpacker(p.getvalue())
        assert u.get_bytes() == b"\x00\x01payload"
        assert u.get_str() == "méthode::f"

    def test_ndarray_roundtrip_shapes(self):
        for arr in (
            np.arange(6, dtype=np.float64),
            np.arange(6, dtype=np.int32).reshape(2, 3),
            np.zeros((0,), dtype=np.float64),
        ):
            p = Packer()
            p.put_ndarray(arr)
            out = Unpacker(p.getvalue()).get_ndarray()
            assert out.dtype == arr.dtype
            assert out.shape == arr.shape
            assert np.array_equal(out, arr)

    @pytest.mark.parametrize("nbytes", [16, 3], ids=["two-elements", "partial-element"])
    def test_malformed_0d_payload_raises_marshal_error(self, nbytes):
        """A 0-d array holds one element: any other payload length is a
        MarshalError, not NumPy's reshape / buffer-size ValueError."""
        p = Packer().put_str("<f8").put_u8(0).put_bytes(b"\x00" * nbytes)
        with pytest.raises(MarshalError, match=f"payload is {nbytes} bytes, expected 8"):
            Unpacker(p.getvalue()).get_ndarray()

    def test_0d_ndarray_roundtrip(self):
        p = Packer().put_ndarray(np.array(2.5))
        out = Unpacker(p.getvalue()).get_ndarray()
        assert out.shape == () and out == 2.5

    def test_word_array_packs_as_the_ndarray_of_its_values(self):
        words = array("d", [1.5, -0.0, 3.0])
        packed = Packer().put_array(words).getvalue()
        assert packed == Packer().put_ndarray(np.asarray(words)).getvalue()
        assert Unpacker(packed).get_array() == words
        assert np.array_equal(Unpacker(packed).get_ndarray(), np.asarray(words))

    @pytest.mark.parametrize("payload, match", [
        (Packer().put_ndarray(np.zeros((2, 2))).getvalue(), "2 dimensions"),
        (Packer().put_ndarray(np.zeros(2, dtype=np.complex128)).getvalue(), "no array typecode"),
        (Packer().put_str("<f8").put_u8(1).put_u32(2).put_bytes(b"\x00" * 8).getvalue(),
         "payload is 8 bytes, expected 16"),
    ], ids=["2-d", "complex", "short"])
    def test_get_array_rejects_what_it_cannot_hold(self, payload, match):
        with pytest.raises(MarshalError, match=match):
            Unpacker(payload).get_array()

    def test_put_array_rejects_a_typecode_without_dtype(self):
        with pytest.raises(MarshalError, match="no dtype"):
            Packer().put_array(array("l", [1, 2]))

    def test_u8_range_checked(self):
        with pytest.raises(MarshalError):
            Packer().put_u8(256)

    def test_u32_range_checked(self):
        with pytest.raises(MarshalError):
            Packer().put_u32(-1)

    def test_underrun_raises(self):
        u = Unpacker(b"\x01")
        with pytest.raises(MarshalError, match="underrun"):
            u.get_u32()

    def test_remaining_tracks_position(self):
        u = Unpacker(b"\x01\x02\x03")
        assert u.remaining == 3
        u.get_u8()
        assert u.remaining == 2
        assert not u.done()


class TestObjectSerialization:
    @pytest.mark.parametrize(
        "obj",
        [
            None,
            True,
            False,
            0,
            -(2**40),
            3.14159,
            "string",
            b"bytes",
            (1, "two", 3.0),
            [1, [2, [3]]],
            {"k": 1, 2: "v"},
            (),
        ],
    )
    def test_builtin_roundtrip(self, obj):
        p = Packer()
        pack_object(p, obj)
        assert unpack_object(Unpacker(p.getvalue())) == obj

    def test_bool_is_not_int_after_roundtrip(self):
        p = Packer()
        pack_object(p, True)
        out = unpack_object(Unpacker(p.getvalue()))
        assert out is True

    def test_ndarray_roundtrip(self):
        arr = np.linspace(0, 1, 20)
        p = Packer()
        pack_object(p, arr)
        out = unpack_object(Unpacker(p.getvalue()))
        assert np.array_equal(out, arr)

    def test_unmarshalable_type_rejected(self):
        class Opaque:
            pass

        with pytest.raises(MarshalError, match="register a serializer"):
            pack_object(Packer(), Opaque())

    def test_marshallable_roundtrip(self):
        class Point(Marshallable):
            def __init__(self, x, y):
                self.x, self.y = x, y

            def cc_pack(self, p):
                p.put_f64(self.x).put_f64(self.y)

            @classmethod
            def cc_unpack(cls, u):
                return cls(u.get_f64(), u.get_f64())

        p = Packer()
        pack_object(p, Point(1.5, -2.5))
        out = unpack_object(Unpacker(p.getvalue()))
        assert (out.x, out.y) == (1.5, -2.5)

    def test_register_serializer_conflict(self):
        register_serializer("test.conflict", lambda o, p: None, lambda u: None)
        with pytest.raises(MarshalError):
            register_serializer("test.conflict", lambda o, p: None, lambda u: None)
        register_serializer(
            "test.conflict", lambda o, p: None, lambda u: None, replace=True
        )


class TestArgsMarshalling:
    def test_empty_args_is_empty_payload(self):
        payload, n = marshal_args(())
        assert payload == b""
        assert n == 0
        assert unmarshal_args(payload) == ()

    def test_roundtrip_mixed_args(self):
        args = (1, "two", 3.0, [4, 5], None)
        payload, n = marshal_args(args)
        assert n == 5
        assert unmarshal_args(payload) == args

    def test_ndarray_arg_roundtrip(self):
        arr = np.arange(20, dtype=np.float64)
        payload, _ = marshal_args((arr,))
        (out,) = unmarshal_args(payload)
        assert np.array_equal(out, arr)

    def test_trailing_bytes_rejected(self):
        payload, _ = marshal_args((1,))
        with pytest.raises(MarshalError, match="trailing"):
            unmarshal_args(payload + b"\x00")

    def test_payload_sizes_scale_with_content(self):
        small, _ = marshal_args((1.0,))
        large, _ = marshal_args((np.zeros(100),))
        assert len(large) > len(small) + 700  # 100 doubles dominate
