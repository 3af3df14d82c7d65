"""The row schema of the committed ``BENCH_*.json`` timing tables.

Every timed quantity is one row: what was timed (``layer``) under which
``config``, in which ``unit``, over how many repetitions, with their
minimum, median and median absolute deviation, and the host's CPU count.
"""

import os
import statistics


def timing_row(layer, config, unit, samples):
    """The row of *samples*, each already in *unit*."""
    median = statistics.median(samples)
    return {
        "layer": layer,
        "config": config,
        "unit": unit,
        "reps": len(samples),
        "min": min(samples),
        "median": median,
        "mad": statistics.median(abs(v - median) for v in samples),
        "host_cpus": os.cpu_count(),
    }
