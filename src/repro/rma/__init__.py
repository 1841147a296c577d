"""One-sided RMA over the AM layer, plus tree collectives.

The modern comparison point the paper could not measure: pMR-style
remote memory access (``put``/``get``/``accumulate`` against registered
memory windows) with *separate* local- and remote-completion
notification, the runtimes' one collective library (radix-``k`` trees;
radix P−1 is the flat root-to-every-peer shape), and a
multithreaded-injection mode (N sender threads sharing one NIC).
"""

from repro.rma.runtime import RMAHandle, RMAProcess, RMARuntime, RMAWindow, install_rma
from repro.rma.tree import TreeComm
from repro.rma.inject import run_injection

__all__ = [
    "RMAHandle",
    "RMAProcess",
    "RMARuntime",
    "RMAWindow",
    "TreeComm",
    "install_rma",
    "run_injection",
]
