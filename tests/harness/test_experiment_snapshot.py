"""Snapshot of every ``--experiment``'s records at reduced sizes.

Each experiment's records are serialized with ``json.dumps(records,
sort_keys=True)`` and pinned by their sha256.  The experiments are
timing-only and deterministic, so any change to set-up, graph building,
scheduling or the cost model that moves a single figure shows here.
``multinode`` and ``scheduler`` run exactly as the CLI runs them; the
others run the sweeps below (about 4 s in total).

Print the current hashes (only for an intended change of the simulated
results) with::

    PYTHONPATH=src:. python tests/harness/test_experiment_snapshot.py
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.harness import cli
from repro.harness import experiments as exp

SWEEPS = {
    "fig9": lambda: exp.fig9_experiment(
        sizes=(8, 12), threads=(1, 4, 24), iterations=3),
    "fig10": lambda: exp.fig10_experiment(
        sizes=(8, 12), regions=(3, 11), iterations=3),
    "fig11": lambda: exp.fig11_experiment(sizes=(8, 12), iterations=3),
    "table1": lambda: exp.table1_experiment(
        sizes=(8, 12), partitions=(64, 512), iterations=3),
    "ablation": lambda: exp.ablation_experiment(sizes=(8,), iterations=3),
    "tuning": lambda: exp.tuning_experiment(
        sizes=(12,), ladder=(64, 512), iterations=2),
    "multinode": cli._multinode_experiment,
    "scheduler": cli._scheduler_experiment,
}

EXPECTED = {
    "ablation": "30d88869d45464962083c7f0253a0e65f1936bb838a51f7e986745d51434c962",
    "fig10": "306acdab9ea155701db7ab139a4e01175a0b5f29cc6b32c0f8b37dfb94bf941a",
    "fig11": "876cead46360f37c910403dd254d5878e59aeec561e87af1d1e657a264a448b2",
    "fig9": "833b5f8f28fbbd03f8525cd63a38d1dcf04cc90ef20ef87414cccedb59f3cb59",
    "multinode": "f2156264d75d3b90ada09584f6ba60e41549bd0a0351452b2e9e6e30df0d216d",
    "scheduler": "e640d4d376041a324be7a75bc690a025adaf03f28b6eb16cc99c15748a99aad9",
    "table1": "6dabc8983f3db9e99c7dead7be8411993a8d91744cd00503aaed5a927e8e91ad",
    "tuning": "9c2dbfb15d608d6476b6e68a688a346f0db5356c9872faa34c53938a5d9677d1",
}


def records_sha256(records: list[dict]) -> str:
    return hashlib.sha256(
        json.dumps(records, sort_keys=True).encode()
    ).hexdigest()


def test_every_cli_experiment_is_pinned():
    assert set(SWEEPS) == set(cli._EXPERIMENTS)


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_experiment_records_unchanged(name):
    assert records_sha256(SWEEPS[name]()) == EXPECTED[name]


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    for name in sorted(SWEEPS):
        print(f'    "{name}": "{records_sha256(SWEEPS[name]())}",')
