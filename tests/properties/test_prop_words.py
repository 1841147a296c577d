"""Property tests: the word path is bit-for-bit the NumPy path.

Split-C and CC++ regions are ``array("d")`` words and a 1-D double buffer
packs without NumPy.  NumPy is only the oracle here: packing words must
yield the bytes ``put_ndarray`` writes for the same values, decoding must
give the values back bit for bit, and region accesses must agree with the
same accesses on an ``ndarray``.  The floats include NaNs with payloads,
±inf, −0.0 and subnormals.
"""

import struct
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GlobalPointerError
from repro.experiments.microbench import ArrayOfDouble
from repro.machine.cluster import Cluster
from repro.marshal import marshal_args, unmarshal_args
from repro.marshal.packer import Packer, Unpacker
from repro.splitc import GlobalPtr, SplitCRuntime


def _from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


#: NaNs of either sign with every payload (quiet and signalling)
_nans = st.builds(
    lambda sign, payload: _from_bits(sign << 63 | 0x7FF << 52 | payload),
    st.integers(0, 1),
    st.integers(1, 2**52 - 1),
)
doubles = st.one_of(
    st.floats(),  # ±inf, −0.0, subnormals, the default NaN
    st.sampled_from([float("inf"), -float("inf"), -0.0, 5e-324, -2.2250738585072e-308]),
    _nans,
    st.integers(0, 2**64 - 1).map(_from_bits),  # any bit pattern
)
float_lists = st.lists(doubles, max_size=24)


def _bits(xs) -> bytes:
    """The values' exact bytes, as the float64 ndarray of them holds them."""
    return np.asarray(xs, dtype=np.float64).tobytes()


@settings(max_examples=200)
@given(float_lists)
def test_words_pack_to_the_bytes_of_put_ndarray(xs):
    words = Packer().put_array(array("d", xs)).getvalue()
    assert words == Packer().put_ndarray(np.asarray(xs, dtype=np.float64)).getvalue()


@settings(max_examples=200)
@given(float_lists)
def test_numpy_free_decode_roundtrips_bitwise(xs):
    payload = Packer().put_array(array("d", xs)).getvalue()
    u = Unpacker(payload)
    assert u.get_array().tobytes() == _bits(xs)
    assert u.done()
    # and through the RMI argument path, as Table 4's ARRAYOFDOUBLE
    (back,) = unmarshal_args(marshal_args((ArrayOfDouble(array("d", xs)),))[0])
    assert back.values.tobytes() == _bits(xs)


def _memory(size: int):
    mem = SplitCRuntime(Cluster(1)).memory(0)
    mem.alloc("r", size)
    return mem


_ops = st.sampled_from(["load", "store", "load_block", "store_block"])


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 16), st.data())
def test_region_accesses_agree_with_a_numpy_oracle(size, data):
    mem = _memory(size)
    oracle = np.zeros(size)
    for _ in range(data.draw(st.integers(1, 12), label="n_ops")):
        op = data.draw(_ops, label="op")
        off = data.draw(st.integers(0, size - 1), label="offset")
        gp = GlobalPtr(0, "r", off)
        if op == "load":
            assert struct.pack("<d", mem.load(gp)) == oracle[off].tobytes()
        elif op == "store":
            x = data.draw(doubles, label="value")
            mem.store(gp, x)
            oracle[off] = x
        else:
            count = data.draw(st.integers(0, size - off), label="count")
            if op == "load_block":
                assert mem.load_block(gp, count).tobytes() == oracle[off : off + count].tobytes()
            else:
                xs = data.draw(st.lists(doubles, min_size=count, max_size=count), label="block")
                mem.store_block(gp, array("d", xs))
                oracle[off : off + count] = xs
        assert mem.words("r").tobytes() == oracle.tobytes()
    # the NumPy view apps get is the same storage
    assert mem.region("r").tobytes() == oracle.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 16), st.data())
def test_out_of_bounds_offsets_raise(size, data):
    mem = _memory(size)
    off = data.draw(st.one_of(st.integers(-8, -1), st.integers(size, size + 8)), label="offset")
    # (a negative offset is refused by the pointer itself)
    with pytest.raises(GlobalPointerError):
        mem.load(GlobalPtr(0, "r", off))
    with pytest.raises(GlobalPointerError):
        mem.store(GlobalPtr(0, "r", off), 1.0)
    # a block that starts in bounds but runs past the end
    start = data.draw(st.integers(0, size - 1), label="start")
    count = data.draw(st.integers(size - start + 1, size - start + 8), label="count")
    inside = GlobalPtr(0, "r", start)
    with pytest.raises(GlobalPointerError):
        mem.load_block(inside, count)
    with pytest.raises(GlobalPointerError):
        mem.store_block(inside, array("d", [0.0] * count))
    assert mem.words("r").tobytes() == bytes(8 * size)
