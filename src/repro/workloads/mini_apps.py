"""Mini-application kernels.

The authors' companion evaluation (Gharachorloo, Gupta & Hennessy,
ASPLOS 1991 — reference [7]) measured the techniques on parallel
applications.  These are miniature kernels in that spirit, written in
the repository's ISA and fully checkable against the reference
interpreter:

* **grid relaxation** — each CPU sweeps a strip of a 1-D grid,
  averaging neighbours, with barrier-separated phases (the boundary
  exchange makes consistency visible);
* **work queue** — a lock-protected shared queue: a producer enqueues
  task indices, consumers dequeue and process them (lock hand-off +
  irregular sharing).
"""

from __future__ import annotations

from typing import Dict, List

from ..isa.program import Program, ProgramBuilder
from .synthetic import MultiprocessorWorkload

GRID_BASE = 0x2000
GRID_SCRATCH = 0x3000
QUEUE_BASE = 0x4000
SYNC_BASE = 0x6000


# ----------------------------------------------------------------------
# Grid relaxation
# ----------------------------------------------------------------------

def grid_relaxation_workload(
    num_cpus: int = 2,
    cells_per_cpu: int = 3,
    phases: int = 2,
) -> MultiprocessorWorkload:
    """Jacobi-style averaging over a shared 1-D grid.

    Each phase: every CPU reads its strip plus the neighbouring halo
    cells, writes ``(left + right) // 1`` (sum, to stay integral) into
    a scratch strip, crosses a barrier, copies scratch back, and
    crosses a second barrier.  Expected results are computed with the
    same arithmetic in plain Python.
    """
    n = num_cpus * cells_per_cpu

    def cell(i: int) -> int:
        return GRID_BASE + 4 * i

    def scratch(i: int) -> int:
        return GRID_SCRATCH + 4 * i

    count_addr, gen_addr = SYNC_BASE, SYNC_BASE + 4

    programs: List[Program] = []
    for cpu in range(num_cpus):
        lo = cpu * cells_per_cpu
        hi = lo + cells_per_cpu
        b = ProgramBuilder()
        for _phase in range(phases):
            for i in range(lo, hi):
                left = cell((i - 1) % n)
                right = cell((i + 1) % n)
                b.load("r1", addr=left, tag=f"ld L{i}")
                b.load("r2", addr=right, tag=f"ld R{i}")
                b.add("r3", "r1", "r2")
                b.store("r3", addr=scratch(i), tag=f"st S{i}")
            b.barrier(count_addr=count_addr, gen_addr=gen_addr,
                      num_cpus=num_cpus)
            for i in range(lo, hi):
                b.load("r1", addr=scratch(i))
                b.store("r1", addr=cell(i), tag=f"st G{i}")
            b.barrier(count_addr=count_addr, gen_addr=gen_addr,
                      num_cpus=num_cpus)
        programs.append(b.build())

    # reference computation
    grid = [i + 1 for i in range(n)]
    memory: Dict[int, int] = {cell(i): grid[i] for i in range(n)}
    memory[count_addr] = 0
    memory[gen_addr] = 0
    ref = list(grid)
    for _ in range(phases):
        ref = [ref[(i - 1) % n] + ref[(i + 1) % n] for i in range(n)]
    return MultiprocessorWorkload(
        name=f"grid-{num_cpus}x{cells_per_cpu}x{phases}",
        programs=programs,
        initial_memory=memory,
        expectations=[(cell(i), ref[i]) for i in range(n)],
    )


# ----------------------------------------------------------------------
# Work queue
# ----------------------------------------------------------------------

def work_queue_workload(
    num_consumers: int = 2,
    num_tasks: int = 4,
) -> MultiprocessorWorkload:
    """A lock-protected shared work queue.

    The queue is pre-filled with task values; ``head`` indexes the next
    task.  Each consumer loops: lock; ``i = head``; if ``i >= tasks``
    unlock and exit, else ``head = i + 1``; unlock; process task ``i``
    (write ``task_value * 2`` into the result slot).  Every task must
    be processed exactly once, whichever consumer wins it.
    """
    lock = QUEUE_BASE
    head = QUEUE_BASE + 4
    task = lambda i: QUEUE_BASE + 8 + 4 * i
    result = lambda i: QUEUE_BASE + 8 + 4 * (num_tasks + i)

    programs: List[Program] = []
    for _cpu in range(num_consumers):
        b = ProgramBuilder()
        b.label("loop")
        b.lock(addr=lock)
        b.load("r1", addr=head, tag="head")
        b.alu("slt", "r2", "r1", imm=num_tasks)   # r2 = head < tasks
        b.branch_zero("r2", "drained", predict_taken=False)
        b.add_imm("r3", "r1", 1)
        b.store("r3", addr=head, tag="bump head")
        b.unlock(addr=lock)
        # process task r1: result[r1] = task[r1] * 2
        b.alu("mul", "r4", "r1", imm=4)
        b.load("r5", base="r4", addr=task(0), tag="task")
        b.alu("mul", "r5", "r5", imm=2)
        b.store("r5", base="r4", addr=result(0), tag="result")
        b.jump("loop")
        b.label("drained")
        b.unlock(addr=lock)
        programs.append(b.build())

    memory: Dict[int, int] = {lock: 0, head: 0}
    for i in range(num_tasks):
        memory[task(i)] = 10 + i
        memory[result(i)] = 0
    return MultiprocessorWorkload(
        name=f"workqueue-{num_consumers}x{num_tasks}",
        programs=programs,
        initial_memory=memory,
        expectations=[(result(i), 2 * (10 + i)) for i in range(num_tasks)]
                     + [(head, num_tasks)],
    )

