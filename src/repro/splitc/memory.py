"""Per-node memory regions and spread arrays.

A region is a named run of typed words living on one node, stored as an
:class:`array.array` in the typecode of its dtype (``float64`` regions
are ``array("d")``); global pointers name ``(node, region, offset)``.
Regions allocated with the same name on every node model Split-C's
statics/heap symmetry: the same "address" is valid everywhere, which is
what makes global-pointer node arithmetic meaningful.

Every access the runtimes make — scalar loads and stores, block copies,
the AM bulk handlers — goes through the words and the buffer protocol,
so a program that only moves words never imports NumPy.  A caller that
wants arrays asks :meth:`Memory.region` (an app's ``proc.local``): it
returns a NumPy view of the same storage, built once per region on
first use.

:class:`SpreadArray` implements Split-C spread arrays — one logical array
laid out across all processors cyclically or in contiguous blocks.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Any

from repro.errors import GlobalPointerError, RuntimeStateError
from repro.splitc.gptr import GlobalPtr
from repro.util.words import DTYPE_NAMES, typecode

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

__all__ = ["Memory", "SpreadArray"]


class Memory:
    """The memory of one node: named typed regions."""

    SERVICE = "sc_mem"

    def __init__(self, node) -> None:
        self.node = node
        self._regions: dict[str, array] = {}
        #: NumPy views of regions, built by :meth:`region` on first use
        self._views: dict[str, np.ndarray] = {}
        node.attach(self.SERVICE, self)

    # ----------------------------------------------------------- allocation

    def alloc(self, region: str, size: int, dtype: Any = "float64") -> None:
        """Allocate a zero-initialized region of ``size`` words of
        ``dtype``; :meth:`region` views it as an array."""
        if region in self._regions:
            raise RuntimeStateError(f"region {region!r} already allocated on node {self.node.nid}")
        if size < 0:
            raise RuntimeStateError(f"negative region size {size}")
        self._regions[region] = array(typecode(dtype), [0]) * size

    def alloc_like(self, region: str, data: Any) -> None:
        """Allocate a region initialized with a copy of ``data`` (read by
        NumPy, flattened in C order)."""
        import numpy as np

        arr = np.asarray(data)
        self.alloc(region, arr.size, arr.dtype)
        self.region(region)[:] = arr.ravel()

    def words(self, name: str) -> array:
        """The region's storage: its words, in place."""
        try:
            return self._regions[name]
        except KeyError:
            raise GlobalPointerError(
                f"region {name!r} not allocated on node {self.node.nid}"
            ) from None

    def region(self, name: str) -> np.ndarray:
        """A NumPy view of the region (writes through to the words); built
        on first use and kept, so apps index it at NumPy's price."""
        view = self._views.get(name)
        if view is None:
            import numpy as np

            words = self.words(name)
            view = np.frombuffer(words, dtype=DTYPE_NAMES[words.typecode])
            self._views[name] = view
        return view

    def has_region(self, name: str) -> bool:
        return name in self._regions

    # -------------------------------------------------------------- accesses

    def _check(self, gp: GlobalPtr, count: int = 1) -> array:
        if gp.node != self.node.nid:
            raise GlobalPointerError(
                f"{gp!r} dereferenced on node {self.node.nid} (not local)"
            )
        words = self.words(gp.region)
        if not 0 <= gp.offset <= gp.offset + count <= len(words):
            raise GlobalPointerError(
                f"{gp!r} (+{count}) out of bounds for region of {len(words)}"
            )
        return words

    def load(self, gp: GlobalPtr):
        """Read one element (local access only)."""
        return self._check(gp)[gp.offset]

    def store(self, gp: GlobalPtr, value) -> None:
        """Write one element (local access only)."""
        self._check(gp)[gp.offset] = value

    def load_block(self, gp: GlobalPtr, count: int) -> array:
        """Copy ``count`` contiguous elements out, as an ``array`` of the
        region's typecode (local access only)."""
        words = self._check(gp, count)
        return words[gp.offset : gp.offset + count]

    def store_block(self, gp: GlobalPtr, values) -> None:
        """Write a contiguous block (local access only).  Words of the
        region's typecode are copied as they are; any other block (an
        ``ndarray``, a list, another typecode) is assigned through the
        NumPy view, which converts it as NumPy does."""
        words = self._check(gp, len(values))
        end = gp.offset + len(values)
        if type(values) is array and values.typecode == words.typecode:
            words[gp.offset : end] = values
        else:
            self.region(gp.region)[gp.offset : end] = values

    def add_block(self, gp: GlobalPtr, values) -> None:
        """Accumulate a contiguous block: ``region[k] += values[k]``, one
        element at a time (local access only)."""
        words = self._check(gp, len(values))
        off = gp.offset
        for k, v in enumerate(values):
            words[off + k] += v

    # --------------------------------------------- handler-side conveniences
    # AM handlers address this node's memory by (region, offset) directly;
    # these wrappers build the (always-local) pointer and bounds-check.

    def load_gp(self, region: str, offset: int):
        return self.load(GlobalPtr(self.node.nid, region, offset))

    def store_gp(self, region: str, offset: int, value) -> None:
        self.store(GlobalPtr(self.node.nid, region, offset), value)

    def load_block_gp(self, region: str, offset: int, count: int) -> array:
        return self.load_block(GlobalPtr(self.node.nid, region, offset), count)

    def store_block_gp(self, region: str, offset: int, values) -> None:
        self.store_block(GlobalPtr(self.node.nid, region, offset), values)

    def add_block_gp(self, region: str, offset: int, values) -> None:
        self.add_block(GlobalPtr(self.node.nid, region, offset), values)


class SpreadArray:
    """A logical global array spread across ``n_nodes`` processors.

    ``layout='cyclic'`` places element *i* on node ``i % P`` at offset
    ``i // P`` (Split-C's default spreader); ``layout='block'`` gives each
    node one contiguous chunk.  Use :meth:`alloc_on` once per node, then
    :meth:`ptr` to address any element from anywhere.
    """

    def __init__(
        self,
        region: str,
        total: int,
        n_nodes: int,
        *,
        layout: str = "cyclic",
        dtype: Any = "float64",
    ):
        if layout not in ("cyclic", "block"):
            raise RuntimeStateError(f"unknown spread layout {layout!r}")
        if n_nodes < 1 or total < 0:
            raise RuntimeStateError(f"bad spread shape total={total} nodes={n_nodes}")
        self.region = region
        self.total = total
        self.n_nodes = n_nodes
        self.layout = layout
        #: the element type's NumPy name (``"float64"``)
        self.dtype = DTYPE_NAMES[typecode(dtype)]

    # ------------------------------------------------------------- geometry

    def local_size(self, node: int) -> int:
        """How many elements land on ``node``."""
        if self.layout == "cyclic":
            return (self.total - node + self.n_nodes - 1) // self.n_nodes
        base, extra = divmod(self.total, self.n_nodes)
        return base + (1 if node < extra else 0)

    def locate(self, i: int) -> tuple[int, int]:
        """Map global index -> (node, local offset)."""
        if not 0 <= i < self.total:
            raise GlobalPointerError(f"spread index {i} out of [0, {self.total})")
        if self.layout == "cyclic":
            return i % self.n_nodes, i // self.n_nodes
        base, extra = divmod(self.total, self.n_nodes)
        # first `extra` nodes hold (base+1) elements
        boundary = extra * (base + 1)
        if i < boundary:
            return i // (base + 1), i % (base + 1)
        j = i - boundary
        return extra + j // base if base else extra, j % base if base else 0

    def ptr(self, i: int) -> GlobalPtr:
        """Global pointer to element ``i``."""
        node, off = self.locate(i)
        return GlobalPtr(node, self.region, off)

    # ------------------------------------------------------------ allocation

    def alloc_on(self, mem: Memory, node: int) -> None:
        """Allocate this node's slice of the spread array."""
        mem.alloc(self.region, self.local_size(node), self.dtype)
