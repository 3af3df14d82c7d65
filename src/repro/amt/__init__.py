"""HPX-like asynchronous many-task (AMT) runtime.

A Python reproduction of the HPX programming surface the paper uses
(HPX 1.10, §II-A):

* :class:`~repro.amt.future.Future` — the state/result handle of an
  asynchronous operation, with ``then`` continuations;
* :class:`~repro.amt.runtime.AmtRuntime` — ``async_``, ``when_all``
  (non-blocking barrier future), ``wait_all`` (blocking barrier),
  ``dataflow``, graph pre-creation and execution on the simulated machine;
* :mod:`~repro.amt.algorithms` — ``for_each`` / ``for_loop`` parallel
  algorithms (used by the naive prior-work port [16]);
* :mod:`~repro.amt.graph` — graph capture & replay: record one iteration's
  task graph as an immutable template and re-fire it every cycle with zero
  graph-construction allocations (the CUDA-Graphs trick).

Tasks execute on :class:`repro.simcore.pool.SimWorkerPool`, which implements
the *priority local scheduling policy* mechanics (per-worker queues, LIFO
local access, FIFO work stealing).  Task bodies are real Python callables —
the LULESH NumPy kernels — executed in a valid linearization of the
dependency graph, so physics results are exact while timing is simulated.
"""

from repro.amt.errors import AmtError, FutureError, DeadlockError
from repro.amt.future import Future, SharedFuture
from repro.amt.graph import CapturedSegment, GraphStats, GraphTemplate
from repro.amt.runtime import AmtRuntime, RunStats
from repro.amt.algorithms import for_each, for_loop, parallel_reduce

__all__ = [
    "AmtError",
    "FutureError",
    "DeadlockError",
    "Future",
    "SharedFuture",
    "CapturedSegment",
    "GraphStats",
    "GraphTemplate",
    "AmtRuntime",
    "RunStats",
    "for_each",
    "for_loop",
    "parallel_reduce",
]
