"""Content-addressed fingerprints of campaign jobs.

The cache key must identify everything the deterministic result depends
on — and nothing else.  Two jobs that *resolve* to the same computation
must collide (that is the deduplication), so the fingerprint is taken over
the **resolved** configuration, not the raw spec:

* partition sizes are resolved through the precedence chain every run
  uses (:func:`repro.core.partitioning.resolve_partition_sizes`: explicit
  -> tuning DB -> Table I), so ``nodal_partition=None`` under a tuning DB
  that answers ``(500, 32768)`` fingerprints identically to an explicit
  ``nodal_partition=500``;
* knobs that an impl ignores are normalized out (``omp`` has no partition
  sizes, graph replay, or variant ladder; only the process backend has a
  worker count), so irrelevant spec noise cannot cause spurious misses;
* the simulated machine (:class:`~repro.simcore.machine.MachineConfig`)
  and the kernel cost table (:class:`~repro.lulesh.costs.KernelCosts`) are
  folded in whole — they parameterize the DES, so a recalibrated cost
  model is a different result space, not a stale cache hit.

Scheduling attributes (priority/timeout/retries) and fault injection never
appear: the former cannot change the result, and injected jobs bypass the
cache entirely (:attr:`repro.serve.job.JobSpec.cacheable`).

The key is the sha256 hex digest of the canonical (sorted-key, compact)
JSON encoding, prefixed inside the payload with a schema version so a
future layout change invalidates old entries instead of misreading them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict

from repro.core.partitioning import resolve_partition_sizes
from repro.lulesh.costs import DEFAULT_COSTS, KernelCosts
from repro.serve.job import JobSpec
from repro.simcore.machine import MachineConfig

__all__ = ["FINGERPRINT_SCHEMA", "resolve_spec", "job_fingerprint", "canonical_json"]

#: Bump when the resolved-config layout (or result payload semantics) changes.
FINGERPRINT_SCHEMA = "lulesh-hpx-serve-fp/2"


def canonical_json(obj: object) -> str:
    """Deterministic JSON: sorted keys, compact separators, no NaN."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def resolve_spec(
    spec: JobSpec,
    machine: MachineConfig | None = None,
    costs: KernelCosts = DEFAULT_COSTS,
    tuning=None,
) -> dict:
    """Resolve *spec* into the canonical fingerprint document.

    *tuning* is a :class:`~repro.tuning.database.TuningDatabase` (duck-
    typed; only consulted when ``spec.tuned`` and a partition override is
    missing).  The returned dict is JSON-ready and stable across processes.
    """
    machine = machine or MachineConfig()
    nodal = spec.nodal_partition
    elems = spec.elements_partition
    variant = spec.variant
    replay = spec.replay_graph
    backend = spec.backend
    workers = spec.workers
    if spec.impl == "hpx":
        nodal, elems, _ = resolve_partition_sizes(
            spec.s, spec.r, spec.threads, nodal, elems,
            tuning if spec.tuned else None, machine,
        )
        workers = (workers or 2) if backend == "process" else None
    else:
        # The naive port and the OpenMP reference take no partition knobs;
        # omp additionally has no variant ladder, graph capture, or backend.
        nodal = elems = None
        workers = None
        backend = "sim"
        if spec.impl == "omp":
            variant = None
            replay = None
    return {
        "schema": FINGERPRINT_SCHEMA,
        "shape": {
            "nx": spec.s,
            "numReg": spec.r,
            "iterations": spec.i,
            "threads": spec.threads,
        },
        "impl": spec.impl,
        "execute": spec.execute,
        "variant": variant,
        "knobs": {
            "nodal_partition": nodal,
            "elements_partition": elems,
            "balanced": spec.balanced if spec.impl == "hpx" else False,
            "replay_graph": replay,
            "backend": backend,
            "workers": workers,
        },
        "machine": asdict(machine),
        "code": asdict(costs),
    }


def job_fingerprint(resolved: dict) -> str:
    """sha256 hex digest of the canonical encoding of *resolved*."""
    return hashlib.sha256(canonical_json(resolved).encode("utf-8")).hexdigest()
