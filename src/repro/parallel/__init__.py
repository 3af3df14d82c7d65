"""Real-parallel shared-memory execution of the captured task graph.

The simulated runtime proves the paper's task decomposition is good; this
package makes it *fast*: the captured cycle-1
:class:`~repro.amt.graph.GraphTemplate` is lowered to a topological wave
schedule (:mod:`repro.parallel.plan`) and executed on real cores by a
persistent fork-server worker pool (:mod:`repro.parallel.pool`) against
shared-memory views of the Domain's fields (:mod:`repro.parallel.shm`) —
bit-identical to the single-process arena path, selected with
``--backend process --workers N``.

The backend is self-healing: a :mod:`repro.parallel.supervisor` watchdog
detects dead/hung/garbling workers in bounded time, respawns them, and
retries the failed wave after rewinding non-idempotent write slices from
shadow buffers (:mod:`repro.parallel.shadow`); exhausted budgets degrade
the run to the serial simulated path instead of killing it.
"""

from repro.parallel.backend import ParallelHpxBackend, ParallelStats
from repro.parallel.errors import (
    GarbledReplyError,
    ParallelBackendError,
    PlanLoweringError,
    SupervisionExhausted,
    WorkerDiedError,
    WorkerFailure,
    WorkerHangError,
)
from repro.parallel.plan import (
    ParallelSchedule,
    TaskSpec,
    Wave,
    assign_waves,
    execute_spec,
    lower_template,
    spec_is_idempotent,
)
from repro.parallel.pool import (
    ProcessWorkerPool,
    pick_start_method,
    process_backend_supported,
)
from repro.parallel.shadow import WaveShadow
from repro.parallel.shm import SharedDomainArena, domain_field_layout
from repro.parallel.supervisor import (
    SupervisionConfig,
    SupervisionStats,
    WorkerSupervisor,
)

__all__ = [
    "GarbledReplyError",
    "ParallelBackendError",
    "ParallelHpxBackend",
    "ParallelSchedule",
    "ParallelStats",
    "PlanLoweringError",
    "ProcessWorkerPool",
    "SharedDomainArena",
    "SupervisionConfig",
    "SupervisionExhausted",
    "SupervisionStats",
    "TaskSpec",
    "Wave",
    "WaveShadow",
    "WorkerDiedError",
    "WorkerFailure",
    "WorkerHangError",
    "WorkerSupervisor",
    "assign_waves",
    "domain_field_layout",
    "execute_spec",
    "lower_template",
    "pick_start_method",
    "process_backend_supported",
    "spec_is_idempotent",
]
