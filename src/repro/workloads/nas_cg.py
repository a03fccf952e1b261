"""NAS CG (Conjugate Gradient) — extension workload.

CG completes the communication-pattern coverage: where FT is
bandwidth-bound (huge all-to-alls) and EP is compute-bound, CG's inner
loop is *latency*-bound — every iteration needs an allgather of the
search direction and two 8-byte allreduce dot-products, so per-message
software overhead (which scales with CPU frequency) shows up directly in
its crescendo.

Verification mode runs the real algorithm: a 2-D five-point Laplacian
(SPD) partitioned by rows, local sparse matvecs against the allgathered
vector, and the solution checked against ``scipy`` — real distributed
numerics through the simulated MPI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from repro.dvs.controller import DvsController
from repro.hardware.memory import AccessCost
from repro.workloads.base import Workload, WorkGen, execute_cost

if TYPE_CHECKING:  # pragma: no cover - static analysis only
    import scipy.sparse as sp

__all__ = ["CGClass", "CG_CLASSES", "NasCG", "verify_cg"]

FLOAT_BYTES = 8


@dataclass(frozen=True)
class CGClass:
    """One CG problem class (unknowns and iteration count, as in NPB)."""

    name: str
    n: int
    iterations: int
    nonzeros_per_row: int = 11


CG_CLASSES: Dict[str, CGClass] = {
    "S": CGClass("S", 1_400, 15),
    "W": CGClass("W", 7_000, 15),
    "A": CGClass("A", 14_000, 15),
    "B": CGClass("B", 75_000, 75),
    "C": CGClass("C", 150_000, 75),
}


def laplacian_2d(grid: int) -> sp.csr_matrix:
    """The 2-D five-point Laplacian on a ``grid × grid`` mesh (SPD)."""
    import scipy.sparse as sp  # only the verification path needs scipy

    main = 4.0 * np.ones(grid * grid)
    side = -1.0 * np.ones(grid * grid - 1)
    side[np.arange(1, grid * grid) % grid == 0] = 0.0  # row boundaries
    updown = -1.0 * np.ones(grid * grid - grid)
    return sp.diags(
        [main, side, side, updown, updown],
        [0, 1, -1, grid, -grid],
        format="csr",
    )


class NasCG(Workload):
    """CG on ``n_ranks`` ranks with 1-D row partitioning.

    In verification mode the unknown count is ``grid²`` for the Laplacian
    test problem (``grid`` must divide by ``n_ranks``); in synthetic mode
    the NPB class sizes drive the cost model.
    """

    def __init__(
        self,
        problem_class: str = "S",
        n_ranks: int = 8,
        verify: bool = False,
        grid: int = 32,
        iterations: Optional[int] = None,
        cycles_per_nonzero: float = 8.0,
    ):
        if problem_class not in CG_CLASSES:
            raise ValueError(
                f"unknown CG class {problem_class!r}; pick from {sorted(CG_CLASSES)}"
            )
        if n_ranks < 1:
            raise ValueError(f"n_ranks must be positive, got {n_ranks}")
        self.problem = CG_CLASSES[problem_class]
        self.verify = verify
        self.grid = grid
        self.n_ranks = n_ranks
        self.cycles_per_nonzero = cycles_per_nonzero
        if verify:
            self.n = grid * grid
            if self.n % n_ranks:
                raise ValueError(
                    f"grid²={self.n} must divide over {n_ranks} ranks"
                )
        else:
            self.n = (self.problem.n // n_ranks) * n_ranks
        self.iterations = (
            int(iterations) if iterations is not None else self.problem.iterations
        )
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {iterations}")
        self.name = f"cg.{self.problem.name}"

    # ------------------------------------------------------------------
    @property
    def rows_local(self) -> int:
        return self.n // self.n_ranks

    @property
    def allgather_block_bytes(self) -> int:
        return self.rows_local * FLOAT_BYTES

    def matvec_cost(self, memory) -> AccessCost:
        """Local sparse matvec: nnz-driven cycles + streaming stalls."""
        nnz_local = self.rows_local * self.problem.nonzeros_per_row
        cycles = nnz_local * self.cycles_per_nonzero
        # stream the local matrix (values+indices ~12 B/nnz) and vectors
        bytes_touched = nnz_local * 12 + 3 * self.rows_local * FLOAT_BYTES
        stream = memory.stream_copy_cost(bytes_touched)
        return AccessCost(cycles, 0.0) + stream

    # ------------------------------------------------------------------
    def program(self, comm, dvs: DvsController) -> WorkGen:
        if comm.size != self.n_ranks:
            raise ValueError(
                f"{self.name} built for {self.n_ranks} ranks, launched on "
                f"{comm.size}"
            )
        rank = comm.rank
        rows = self.rows_local
        cost = self.matvec_cost(comm.memory)

        if self.verify:
            full = laplacian_2d(self.grid)
            a_local = full[rank * rows : (rank + 1) * rows]
            b_local = np.ones(rows)
            x_local = np.zeros(rows)
            r_local = b_local.copy()
            p_local = r_local.copy()
            rho = None
        else:
            a_local = b_local = x_local = r_local = p_local = None
            rho = None

        residuals: List[float] = []
        for _ in range(self.iterations):
            # rho = r·r (allreduce of a scalar)
            local_dot = float(r_local @ r_local) if r_local is not None else 0.0
            rho_new = yield from comm.allreduce(local_dot, nbytes=8)

            if rho is not None and self.verify:
                beta = rho_new / rho
                p_local = r_local + beta * p_local
            rho = rho_new

            # q = A p — needs the whole p vector (allgather), marked as
            # the communication region
            yield from dvs.region_enter("exchange")
            if self.verify:
                blocks = yield from comm.allgather(p_local)
                p_full = np.concatenate(blocks)
            else:
                yield from comm.allgather(
                    None, nbytes=self.allgather_block_bytes
                )
                p_full = None
            yield from dvs.region_exit("exchange")

            yield from execute_cost(comm, cost)
            if self.verify:
                q_local = a_local @ p_full

            # alpha = rho / (p·q)
            local_pq = float(p_local @ q_local) if self.verify else 0.0
            pq = yield from comm.allreduce(local_pq, nbytes=8)
            if self.verify:
                alpha = rho / pq
                x_local = x_local + alpha * p_local
                r_local = r_local - alpha * q_local
            residuals.append(rho)
        return {"x": x_local, "residuals": residuals}


def verify_cg(workload: NasCG, returns: List[dict]) -> None:
    """Distributed CG must converge toward scipy's solution."""
    import scipy.sparse.linalg as spla

    if not workload.verify:
        raise ValueError("verification requires verify=True mode")
    full = laplacian_2d(workload.grid)
    b = np.ones(workload.n)
    reference = spla.spsolve(full.tocsc(), b)
    x = np.concatenate([r["x"] for r in returns])
    n_iter = workload.iterations

    # Residual must decrease monotonically-ish and substantially.
    residuals = returns[0]["residuals"]
    assert residuals[-1] < residuals[0] * 0.5, (
        f"CG failed to reduce the residual: {residuals[0]} -> {residuals[-1]}"
    )
    # With enough iterations the solution approaches the direct solve.
    if n_iter >= workload.grid:
        err = np.linalg.norm(x - reference) / np.linalg.norm(reference)
        assert err < 1e-6, f"CG solution error {err}"
    # Every rank saw identical residual history (reductions are global).
    for other in returns[1:]:
        np.testing.assert_allclose(other["residuals"], residuals)
