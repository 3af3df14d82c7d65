"""Golden regression values: the simulated clock must not drift.

The simulated nanoseconds are the reproduction's result (Figs. 9-11), so
they only move on purpose.  These exact numbers were produced by this
implementation and are pinned to catch any unintended change to the
discrete-event scheduler, the OpenMP loop model or the orchestrations:
a refactor or speed-up of those engines must keep them verbatim.  An
intentional timing-model change must update them consciously and note it
in EXPERIMENTS.md.

Per AMT run: ``(runtime_ns, n_tasks, utilization, steals, steal_attempts,
overhead_ns)``, the last three summed over the merged per-worker trace.
Per OpenMP run: ``(runtime_ns, n_loops, utilization)``.
"""

import pytest

from repro.core.driver import run_hpx, run_naive_hpx, run_omp
from repro.core.hpx_lulesh import HpxVariant
from repro.lulesh.options import LuleshOptions
from repro.simcore.policy import SchedulerPolicy

ITERATIONS = 3  # cycle 1 is captured, cycles 2-3 replay the graph

POLICIES = {
    "fifo-local": SchedulerPolicy(local_order="fifo"),
    "lifo-steal": SchedulerPolicy(steal_order="lifo"),
    "steal-half": SchedulerPolicy(steal_half=True),
    "priorities": SchedulerPolicy(use_priorities=True),
}

CONFIGS = (
    [
        (10, impl, setting, threads)
        for threads in (1, 2, 24, 48)
        for impl, setting in (
            ("hpx", "fig5"), ("hpx", "fig6"), ("hpx", "fig7"),
            ("hpx", "full"), ("naive", "-"),
            ("omp", "static"), ("omp", "dynamic"),
        )
    ]
    + [(10, "hpx-policy", name, 24) for name in POLICIES]
    + [(45, "hpx", "full", 24), (45, "hpx", "full", 48)]
    + [(45, "hpx-policy", name, 24) for name in POLICIES]
    + [(45, "omp", "static", 24), (45, "omp", "dynamic", 48)]
)


def measure(key):
    """Run one configuration and return its pinned tuple."""
    s, impl, setting, threads = key
    opts = LuleshOptions(nx=s, numReg=11)
    if impl == "omp":
        res = run_omp(opts, threads, ITERATIONS, omp_schedule=setting)
        return (res.runtime_ns, res.n_loops, res.utilization)
    if impl == "naive":
        res = run_naive_hpx(opts, threads, ITERATIONS, record_spans=True)
    elif impl == "hpx":
        res = run_hpx(opts, threads, ITERATIONS,
                      variant=getattr(HpxVariant, setting)(),
                      record_spans=True)
    else:
        # The priority lane only matters when the program assigns
        # priorities, so that policy runs the prioritized-EOS variant.
        variant = HpxVariant(
            prioritize_expensive_regions=(setting == "priorities")
        )
        res = run_hpx(opts, threads, ITERATIONS, variant=variant,
                      policy=POLICIES[setting], record_spans=True)
    workers = res.trace.workers
    return (
        res.runtime_ns,
        res.n_tasks,
        res.utilization,
        sum(w.steals for w in workers),
        sum(w.steal_attempts for w in workers),
        sum(w.overhead_ns for w in workers),
    )


GOLDEN = {
    (10, "hpx", "fig5", 1): (3050286, 153, 0.946349293148249, 0, 0, 163650),
    (10, "hpx", "fig6", 1): (3180126, 201, 0.9303518162487902, 0, 0, 221490),
    (10, "hpx", "fig7", 1): (3024726, 141, 0.9483953257253714, 0, 0, 156090),
    (10, "hpx", "full", 1): (2937936, 108, 0.9595634486251573, 0, 0, 118800),
    (10, "naive", "-", 1): (7480362, 1902, 0.7330209420346234, 0, 0, 1997100),
    (10, "omp", "static", 1): (2636262, 1836, 1.0),
    (10, "omp", "dynamic", 1): (2688486, 1836, 1.0),
    (10, "hpx", "fig5", 2): (
        3018936, 153, 0.47808830660868595, 153, 384, 301530,
    ),
    (10, "hpx", "fig6", 2): (
        2940126, 201, 0.5031478242769187, 189, 381, 380610,
    ),
    (10, "hpx", "fig7", 2): (
        2856786, 141, 0.5020740090437296, 135, 273, 269850,
    ),
    (10, "hpx", "full", 2): (
        2167446, 108, 0.6503359253240911, 72, 120, 176400,
    ),
    (10, "naive", "-", 2): (
        7972038, 1902, 0.343911933184463, 1848, 5520, 3768300,
    ),
    (10, "omp", "static", 2): (8681919, 1836, 0.15158129069669737),
    (10, "omp", "dynamic", 2): (9103068, 1836, 0.14748664075062426),
    (10, "hpx", "fig5", 24): (
        3319656, 153, 0.036231615564986254, 153, 7974, 1212330,
    ),
    (10, "hpx", "fig6", 24): (
        3213846, 201, 0.038357936254568514, 201, 7143, 1199250,
    ),
    (10, "hpx", "fig7", 24): (
        3040806, 141, 0.03930750597045652, 141, 5037, 845130,
    ),
    (10, "hpx", "full", 24): (
        2080116, 108, 0.05646992763865092, 108, 3987, 662040,
    ),
    (10, "naive", "-", 24): (
        12755001, 1902, 0.017912444695221897, 1902, 129636, 18694620,
    ),
    (10, "omp", "static", 24): (28399242, 1836, 0.003864572774042499),
    (10, "omp", "dynamic", 24): (28425879, 1836, 0.003934367560115228),
    (10, "hpx", "fig5", 48): (
        7445352, 153, 0.01648416857926932, 153, 16254, 4503531,
    ),
    (10, "hpx", "fig6", 48): (
        7158867, 201, 0.017571417027303343, 201, 14487, 4247472,
    ),
    (10, "hpx", "fig7", 48): (
        6611598, 141, 0.018447128818176787, 141, 10221, 2995362,
    ),
    (10, "hpx", "full", 48): (
        4386309, 108, 0.027326064465590546, 108, 8091, 2356989,
    ),
    (10, "naive", "-", 48): (
        36830244, 1902, 0.006330169506886786, 1902, 264996, 71328054,
    ),
    (10, "omp", "static", 48): (33936996, 1836, 0.0033049377666747727),
    (10, "omp", "dynamic", 48): (33944856, 1836, 0.0033472318368672495),
    (10, "hpx-policy", "fifo-local", 24): (
        2080116, 108, 0.05646992763865092, 108, 3987, 662040,
    ),
    (10, "hpx-policy", "lifo-steal", 24): (
        2080116, 108, 0.05646992763865092, 108, 3987, 662040,
    ),
    (10, "hpx-policy", "steal-half", 24): (
        2080116, 108, 0.05646992763865092, 108, 3987, 662040,
    ),
    (10, "hpx-policy", "priorities", 24): (
        2080116, 108, 0.05646992763865092, 108, 3987, 662040,
    ),
    (45, "hpx", "full", 24): (
        17240409, 1152, 0.6046652663518598, 1035, 24207, 4809120,
    ),
    (45, "hpx", "full", 48): (
        26687796, 1152, 0.3985880615619214, 1134, 76002, 22628034,
    ),
    (45, "hpx-policy", "fifo-local", 24): (
        17053785, 1152, 0.6112822754596707, 1035, 24222, 4810920,
    ),
    (45, "hpx-policy", "lifo-steal", 24): (
        16637205, 1152, 0.6265882099787795, 1023, 23589, 4727760,
    ),
    (45, "hpx-policy", "steal-half", 24): (
        17097525, 1152, 0.6097184534018812, 1005, 21285, 4849080,
    ),
    (45, "hpx-policy", "priorities", 24): (
        16630365, 1152, 0.6268459231051152, 1023, 23523, 4719840,
    ),
    (45, "omp", "static", 24): (39310953, 1836, 0.26436953123948526),
    (45, "omp", "dynamic", 48): (45836667, 1836, 0.2364452433561572),
}


@pytest.mark.parametrize("key", CONFIGS, ids=lambda k: "-".join(map(str, k)))
def test_simulated_clock_pinned(key):
    assert measure(key) == GOLDEN[key]


def test_every_config_is_pinned():
    assert sorted(GOLDEN, key=str) == sorted(CONFIGS, key=str)
