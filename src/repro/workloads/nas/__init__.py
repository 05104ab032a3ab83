"""NAS Parallel Benchmark communication skeletons (paper Sec. 5.2).

The paper runs ProActive implementations of NAS CG, EP and FT (class C,
256 active objects, round-robin on 128 Grid'5000 nodes).  For the DGC the
numerics are irrelevant; what matters is:

* the reference graph — a **complete graph** over the workers, because of
  global barriers ("every active object has a reference to every other
  active object"), static for the whole run;
* the communication *volume* profile — CG and FT communicate heavily,
  EP barely at all, so the relative DGC bandwidth overhead differs by
  orders of magnitude (Fig. 8);
* the run lengths — CG is long, FT medium, EP seconds (Fig. 9).

Each kernel is therefore modelled by an iteration count, a per-iteration
compute time and a partner/payload pattern.
"""

from repro.workloads.nas.common import (
    KERNELS,
    PAPER_AO_COUNT,
    NasKernelSpec,
    NasRunResult,
    NasWorker,
    kernel_spec,
    run_nas_kernel,
)

__all__ = [
    "KERNELS",
    "PAPER_AO_COUNT",
    "NasKernelSpec",
    "NasRunResult",
    "NasWorker",
    "kernel_spec",
    "run_nas_kernel",
]
