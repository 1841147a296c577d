"""What building a machine and a runtime costs per processor.

Every node of one ``Cluster`` shares its ``CostModel``, so the fixed
``Charge``s and the ``{name: handler}`` tables are built once per
cluster, not once per node.  The counts read ``gc.get_objects()`` before
and after one build; the first list is held across the build, so no
object alive before it can be freed and counted against it, and no
collector setting is touched.
"""

import gc
import types

import pytest

from repro.ccpp import make_tham_runtime
from repro.machine.cluster import Cluster
from repro.sim.effects import Charge
from repro.splitc import SplitCRuntime


def _splitc(n):
    return SplitCRuntime(Cluster(n))


#: build -> GC-tracked objects per node allowed (measured 20.7 / 46.7 at
#: n = 64, 20.2 / 46.2 at n = 256; one Charge set and one handler table
#: per node read 54 / 73)
BUILDS = {"splitc": (_splitc, 22), "tham": (make_tham_runtime, 49)}


def _built(build, n):
    """The runtime and every tracked object its build left alive."""
    before = gc.get_objects()
    rt = build(n)
    after = gc.get_objects()
    old = {id(o) for o in before}
    new = [o for o in after if id(o) not in old and o is not before]
    return rt, new


def _is_handler(o):
    return type(o) is types.MethodType and o.__func__.__name__.startswith("_h_")


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_build_cost_per_node_is_bounded(name):
    build, per_node = BUILDS[name]
    for n in (64, 256):
        _rt, new = _built(build, n)
        assert len(new) / n <= per_node, (n, len(new) / n)


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_charges_and_handler_methods_do_not_grow_with_nodes(name):
    build, _ = BUILDS[name]
    seen = []
    for n in (64, 256):
        _rt, new = _built(build, n)
        seen.append((
            sum(type(o) is Charge for o in new),
            sum(_is_handler(o) for o in new),
        ))
    assert seen[0] == seen[1], seen
    charges, handlers = seen[0]
    assert 0 < charges < 64 and 0 < handlers < 64
