"""Argument marshalling.

CC++ RMI arguments are passed **by value** between address spaces; this
package provides the real byte-level serialization the simulated runtimes
use (so unmarshalling bugs are actual bugs, not cost-model artifacts),
plus size metadata the runtimes use to charge per-byte marshalling costs.

* :mod:`repro.marshal.packer` — typed little-endian byte streams.
* :mod:`repro.marshal.pool` — per-node freelists of marshalling buffers
  (the paper's persistent buffers, applied to wall-clock allocations).
* :mod:`repro.marshal.serialize` — tagged object serialization with a
  registry for user classes (the paper's "each object defines its own
  serialization methods").

The names below resolve lazily (:mod:`repro._lazy`): every ``Node`` holds
a :class:`BufferPool`, so the simulator core loads ``packer`` /
``serialize`` only where a runtime marshals.  None of the three imports
NumPy: an ``ndarray`` is packed with NumPy's help only when a caller
hands one over.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "Packer": "repro.marshal.packer",
    "Unpacker": "repro.marshal.packer",
    "BufferPool": "repro.marshal.pool",
    "Marshallable": "repro.marshal.serialize",
    "pack_object": "repro.marshal.serialize",
    "unpack_object": "repro.marshal.serialize",
    "marshal_args": "repro.marshal.serialize",
    "unmarshal_args": "repro.marshal.serialize",
    "register_serializer": "repro.marshal.serialize",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
