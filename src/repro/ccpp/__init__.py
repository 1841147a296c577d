"""CC++ over ThAM: the paper's contribution (§4).

CC++ (Chandy & Kesselman) is a task-parallel extension of C++ using
**processor objects** to abstract address spaces and **remote method
invocation** as the only communication primitive.  This package implements
the new lean runtime the paper builds — layered directly on Active
Messages and the non-preemptive threads package — including its three
headline optimizations:

* **Method stub caching** (:mod:`repro.ccpp.stubs`): a per-node table
  keyed by (processor, method-hash).  Valid entries let the initiator
  ship a compact stub id; invalid ones ship the method *name* and are
  back-filled by a stub-update reply.
* **Persistent buffers** (:mod:`repro.ccpp.buffers`): cold invocations
  land in a per-node static area and pay an extra copy into a freshly
  allocated R-buffer; warm invocations deposit straight into the
  persistent R-buffer attached to the method.
* **Polling thread** (:mod:`repro.ccpp.polling`): software interrupts on
  the SP are too expensive, so reception polls on every send, plus a
  dedicated thread that polls whenever nothing else is runnable.

RMI variants (:mod:`repro.ccpp.rmi`) match the micro-benchmarks of
Table 4: *simple* (spin-wait, no thread switches), *normal* (the caller
parks; one context switch at the sender), *threaded* (a new thread runs
the method at the receiver) and *atomic* (threaded + the object's
atomicity lock).
"""

from repro.ccpp.future import RMIFuture, rmi_future
from repro.ccpp.gp import DataGlobalPtr, ObjectGlobalPtr
from repro.ccpp.par import par, parfor, spawn_thread
from repro.ccpp.procobj import ProcessorObject, remote
from repro.ccpp.registry import processor_class, registered_class
from repro.ccpp.rmi import WaitMode
from repro.ccpp.runtime import CCContext, CCppRuntime, make_tham_runtime

__all__ = [
    "CCppRuntime",
    "make_tham_runtime",
    "CCContext",
    "ProcessorObject",
    "processor_class",
    "registered_class",
    "remote",
    "ObjectGlobalPtr",
    "DataGlobalPtr",
    "WaitMode",
    "RMIFuture",
    "rmi_future",
    "par",
    "parfor",
    "spawn_thread",
]
