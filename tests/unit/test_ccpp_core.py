"""Unit tests for CC++ building blocks: names, stubs, buffers, registry,
processor objects, global pointers."""

import pytest

from repro.ccpp.buffers import BufferManager
from repro.ccpp.gp import DataGlobalPtr, ObjectGlobalPtr
from repro.ccpp.names import MethodName, method_hash
from repro.ccpp.procobj import ProcessorObject, remote, remote_methods_of
from repro.ccpp.registry import processor_class, registered_class, registered_names
from repro.ccpp.stubs import CacheEntry, StubTable
from repro.errors import GlobalPointerError, RuntimeStateError
from repro.machine.cluster import Cluster


class TestNames:
    def test_hash_is_deterministic(self):
        assert method_hash("Foo::bar") == method_hash("Foo::bar")

    def test_hash_differs_across_names(self):
        names = [f"Cls{i}::method{j}" for i in range(10) for j in range(10)]
        hashes = {method_hash(n) for n in names}
        assert len(hashes) == len(names)

    def test_hash_is_64_bit(self):
        assert 0 <= method_hash("x") < 2**64

    def test_method_name_composition(self):
        assert MethodName.of("Counter", "add") == "Counter::add"


class TestGlobalPtrs:
    def test_object_ptr_typed(self):
        gp = ObjectGlobalPtr(1, 2, "Counter")
        assert gp.as_type("Base").cls == "Base"
        assert gp.as_type("Base").obj_id == 2

    def test_object_ptr_validation(self):
        with pytest.raises(GlobalPointerError):
            ObjectGlobalPtr(-1, 0)
        with pytest.raises(GlobalPointerError):
            ObjectGlobalPtr(0, -1)

    def test_data_ptr_element_arithmetic_only(self):
        gp = DataGlobalPtr(1, "r", 5)
        assert (gp + 2).offset == 7
        assert (gp - 1).offset == 4
        # no node-hopping: the Split-C trick CC++ pointers don't have
        assert not hasattr(gp, "on_node")

    def test_data_ptr_validation(self):
        with pytest.raises(GlobalPointerError):
            DataGlobalPtr(0, "r", -1)


class TestStubTable:
    def _table(self):
        return StubTable(Cluster(1).nodes[0])

    def test_register_and_resolve(self):
        st = self._table()
        stub = st.register_local("C::m", threaded=True, atomic=False)
        assert st.resolve_name("C::m") is stub
        assert st.by_id(stub.stub_id) is stub

    def test_register_idempotent_same_mode(self):
        st = self._table()
        a = st.register_local("C::m", threaded=False, atomic=False)
        b = st.register_local("C::m", threaded=False, atomic=False)
        assert a is b
        assert st.local_count == 1

    def test_register_conflicting_mode_rejected(self):
        st = self._table()
        st.register_local("C::m", threaded=False, atomic=False)
        with pytest.raises(RuntimeStateError):
            st.register_local("C::m", threaded=True, atomic=False)

    def test_unknown_name_rejected(self):
        with pytest.raises(RuntimeStateError):
            self._table().resolve_name("ghost::m")

    def test_bad_stub_id_rejected(self):
        with pytest.raises(RuntimeStateError):
            self._table().by_id(99)

    def test_cache_probe_install_invalidate(self):
        st = self._table()
        assert st.probe(1, "C::m") is None
        st.install(1, "C::m", CacheEntry(stub_id=7, rbuf_id=3))
        entry = st.probe(1, "C::m")
        assert entry.stub_id == 7 and entry.rbuf_id == 3
        # same method on a different node is a separate entry
        assert st.probe(2, "C::m") is None
        st.invalidate(1, "C::m")
        assert st.probe(1, "C::m") is None


class TestBufferManager:
    def _mgr(self):
        return BufferManager(Cluster(1).nodes[0])

    def test_alloc_and_deposit(self):
        mgr = self._mgr()
        rbuf = mgr.alloc_rbuf("C::m", sender=1, capacity=64)
        out = mgr.deposit(rbuf.rbuf_id, b"\x01" * 32)
        assert out is rbuf
        assert bytes(rbuf.data) == b"\x01" * 32
        assert rbuf.uses == 1

    def test_keyed_per_sender(self):
        mgr = self._mgr()
        a = mgr.alloc_rbuf("C::m", sender=1, capacity=16)
        b = mgr.alloc_rbuf("C::m", sender=2, capacity=16)
        assert a.rbuf_id != b.rbuf_id
        assert (a.sender, b.sender) == (1, 2)
        assert mgr.deposit(a.rbuf_id, b"") is a
        assert mgr.deposit(b.rbuf_id, b"") is b

    def test_realloc_keeps_rbuf_id_stable(self):
        """Re-allocating an attached key must keep the id: a stub update
        advertising the first id may still be in flight (overlapping cold
        invocations), and warm deposits through it must keep resolving."""
        mgr = self._mgr()
        a = mgr.alloc_rbuf("C::m", sender=1, capacity=16)
        b = mgr.alloc_rbuf("C::m", sender=1, capacity=32)
        assert b is a
        assert a.capacity == 32  # grown, never shrunk
        assert mgr.alloc_rbuf("C::m", sender=1, capacity=8).capacity == 32
        assert mgr.deposit(a.rbuf_id, b"x") is a
        assert mgr.allocated == 1

    def test_deposit_grows_capacity(self):
        mgr = self._mgr()
        rbuf = mgr.alloc_rbuf("C::m", sender=0, capacity=4)
        mgr.deposit(rbuf.rbuf_id, b"\x00" * 100)
        assert rbuf.capacity == 100

    def test_unknown_rbuf_rejected(self):
        with pytest.raises(RuntimeStateError):
            self._mgr().deposit(123, b"")

    def test_capacity_bounds(self):
        with pytest.raises(RuntimeStateError):
            self._mgr().alloc_rbuf("C::m", sender=0, capacity=-1)


class TestRemoteDecorator:
    def test_modes_recorded(self):
        class T(ProcessorObject):
            @remote
            def plain(self):
                pass

            @remote(threaded=True)
            def threaded(self):
                pass

            @remote(atomic=True)
            def atomic(self):
                pass

            def not_remote(self):
                pass

        specs = remote_methods_of(T)
        assert set(specs) >= {"plain", "threaded", "atomic"}
        assert "not_remote" not in specs
        assert not specs["plain"].threaded
        assert specs["threaded"].threaded and not specs["threaded"].atomic
        assert specs["atomic"].atomic and specs["atomic"].needs_thread

    def test_inherited_methods_visible(self):
        class Base(ProcessorObject):
            @remote(threaded=True)
            def ping(self):
                pass

        class Derived(Base):
            @remote
            def extra(self):
                pass

        specs = remote_methods_of(Derived)
        assert "ping" in specs and "extra" in specs


class TestRegistry:
    def test_register_and_lookup(self):
        @processor_class
        class RegTestClass(ProcessorObject):
            pass

        assert registered_class("RegTestClass") is RegTestClass
        assert "RegTestClass" in registered_names()

    def test_reregister_same_class_ok(self):
        @processor_class
        class RegTestTwice(ProcessorObject):
            pass

        processor_class(RegTestTwice)  # idempotent

    def test_non_processor_class_rejected(self):
        with pytest.raises(RuntimeStateError):
            processor_class(int)  # type: ignore[arg-type]

    def test_unknown_class_rejected(self):
        with pytest.raises(RuntimeStateError):
            registered_class("NoSuchClass")

    def test_unbound_object_has_no_node(self):
        class Loose(ProcessorObject):
            pass

        with pytest.raises(RuntimeStateError):
            _ = Loose().my_node
