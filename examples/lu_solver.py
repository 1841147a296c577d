#!/usr/bin/env python3
"""Distributed blocked LU factorization + solve (Figure 6's LU workload).

Factors a diagonally dominant matrix on the simulated 4-node machine in
both languages, verifies L·U against the original matrix, and uses the
factors to solve a linear system — i.e. the simulated run produces a
numerically *useful* result, not just timing.

Run:  python examples/lu_solver.py
"""

import numpy as np

from repro.apps.lu import (
    LuParams,
    LuWorkload,
    check_factorization,
    run_ccpp_lu,
    run_splitc_lu,
)
from repro.apps.lu.reference import assemble
from repro.util.units import us_to_ms


def main() -> None:
    work = LuWorkload(LuParams(n=128, block=16, n_procs=4, seed=3))
    rhs = np.arange(1.0, work.params.n + 1.0)

    for lang, runner in (("split-c (sc-lu)", run_splitc_lu), ("cc++ (cc-lu)", run_ccpp_lu)):
        res = runner(work)
        assert check_factorization(work, res.packed), f"{lang}: L@U != A"
        lower, upper = assemble(res.packed)
        x = np.linalg.solve(upper, np.linalg.solve(lower, rhs))
        residual = np.linalg.norm(work.matrix @ x - rhs) / np.linalg.norm(rhs)
        print(
            f"{lang:18s} factored {work.params.n}x{work.params.n} in "
            f"{us_to_ms(res.elapsed_us):8.2f} virtual ms | solve residual {residual:.2e}"
        )

    print("\nBoth factorizations verified against the original matrix;")
    print("the CC++ version pays marshalling + extra copies per block RMI,")
    print("the sources of the paper's 3.6x LU gap.")


if __name__ == "__main__":
    main()
