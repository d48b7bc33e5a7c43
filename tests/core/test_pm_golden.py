"""Golden pin for the power-management pass and the schedules built on it.

For every circuit below at its critical path ``cp`` and at
``cp + ceil(cp/4)``, four PM configurations (``output_first`` and
``savings`` orderings, ``partial=True``, and allocation-aware with the
baseline's minimum allocation) each run the pass and then the ``list``,
``force_directed`` and ``pipeline`` schedulers on the augmented graph.
The whole outcome — every decision with its reason, cones, added edges
and gated set, the gating guards, the graph's control edges, and each
schedule's start steps, allocation and II — is hashed per configuration.

The digests pin the pass's output bit for bit, so a change to how the
pass computes its timing cannot change what it decides.  If a change is
*meant* to alter decisions, print the new table with

    PYTHONPATH=src python tests/core/test_pm_golden.py

and review the difference before replacing ``GOLDEN``.
"""

from __future__ import annotations

import hashlib
import json
import math

import pytest

from repro.circuits import build
from repro.core.pm_pass import PMOptions, apply_power_management
from repro.pipeline.config import FlowConfig
from repro.pipeline.registry import get_scheduler
from repro.sched.minimize import minimize_resources
from repro.sched.timing import critical_path_length

CIRCUITS = (
    "dealer", "gcd", "vender", "cordic",
    "chstone:adpcm", "chstone:jpeg", "chstone:mips",
    *(f"gen:{preset}:{seed}" for preset in ("large", "branchy", "deep")
      for seed in (1, 2, 3)),
)
SLACKS = ("cp", "cp+")
VARIANTS = ("output_first", "savings", "partial", "allocation")
SCHEDULERS = ("list", "force_directed", "pipeline")


def budget_for(graph, slack: str) -> int:
    cp = critical_path_length(graph)
    return cp if slack == "cp" else cp + math.ceil(cp / 4)


def pm_options(variant: str, graph, budget: int) -> PMOptions:
    if variant == "output_first":
        return PMOptions()
    if variant == "savings":
        return PMOptions(ordering="savings")
    if variant == "partial":
        return PMOptions(partial=True)
    return PMOptions(allocation=minimize_resources(graph, budget).allocation)


def outcome(graph, budget: int, variant: str) -> dict:
    """Everything the pass and the schedulers produce, as plain JSON."""
    pm = apply_power_management(graph, budget,
                                pm_options(variant, graph, budget))
    decisions = [{
        "mux": d.mux,
        "selected": d.selected,
        "reason": d.reason,
        "control": sorted(d.cones.control),
        "shutdown": [sorted(side) for side in d.cones.shutdown],
        "added_edges": [list(e) for e in d.added_edges],
        "gated": sorted(d.gated),
    } for d in pm.decisions]
    schedules = {}
    for name in SCHEDULERS:
        schedule, allocation = get_scheduler(name)(
            pm.graph, FlowConfig(n_steps=budget))
        schedules[name] = {
            "start": sorted(schedule.start.items()),
            "ii": schedule.initiation_interval,
            "allocation": sorted((cls.value, n) for cls, n
                                 in allocation.counts.items()),
        }
    return {
        "decisions": decisions,
        "gating": sorted((nid, [list(g) for g in guards])
                         for nid, guards in pm.gating.items()),
        "control_edges": [list(e) for e in pm.graph.control_edges()],
        "schedules": schedules,
    }


def digests(circuit: str, slack: str) -> tuple[int, dict[str, str]]:
    graph = build(circuit)
    budget = budget_for(graph, slack)
    table = {}
    for variant in VARIANTS:
        blob = json.dumps(outcome(graph, budget, variant), sort_keys=True,
                          separators=(",", ":"))
        table[variant] = hashlib.sha256(blob.encode()).hexdigest()[:16]
    return budget, table


GOLDEN: dict[str, dict[str, str]] = {
    'dealer@4': {
        'output_first': '7de60c235cc5f715',
        'savings': '26e18565419e8c3e',
        'partial': '7de60c235cc5f715',
        'allocation': 'af09500654c94fbd',
    },
    'dealer@5': {
        'output_first': '106a037584d11c22',
        'savings': '1e7b3dfd60d88a96',
        'partial': '106a037584d11c22',
        'allocation': '1ea44e34aa942220',
    },
    'gcd@5': {
        'output_first': '75456277cd4349f4',
        'savings': '82e43124000f8c18',
        'partial': '75456277cd4349f4',
        'allocation': '75456277cd4349f4',
    },
    'gcd@7': {
        'output_first': '529e652dc85126d5',
        'savings': 'ac450f0f0cd75b42',
        'partial': '529e652dc85126d5',
        'allocation': '529e652dc85126d5',
    },
    'vender@5': {
        'output_first': 'abbea52d0c70d145',
        'savings': 'd4f91e4727bee7e2',
        'partial': 'abbea52d0c70d145',
        'allocation': 'e7fdaf987fa3c4e7',
    },
    'vender@7': {
        'output_first': '5a390e4af5a16dd7',
        'savings': 'bc1e1f80d58aaea1',
        'partial': '5a390e4af5a16dd7',
        'allocation': '2fae3a332d82b07f',
    },
    'cordic@32': {
        'output_first': 'c615591a3b2bc9f8',
        'savings': '9c993f27c3a3d0ad',
        'partial': 'c615591a3b2bc9f8',
        'allocation': 'c615591a3b2bc9f8',
    },
    'cordic@40': {
        'output_first': '3518b4706e661206',
        'savings': '6cbe944a9e33a316',
        'partial': '3518b4706e661206',
        'allocation': '3518b4706e661206',
    },
    'chstone:adpcm@10': {
        'output_first': '75860406f371664b',
        'savings': '6d21a51162f969c0',
        'partial': '75860406f371664b',
        'allocation': '75860406f371664b',
    },
    'chstone:adpcm@13': {
        'output_first': 'd3db63362cc4fedc',
        'savings': 'e6f60c71baebd776',
        'partial': 'd3db63362cc4fedc',
        'allocation': '5451077daacfbdbf',
    },
    'chstone:jpeg@5': {
        'output_first': 'b88299e46e648b5c',
        'savings': 'b88299e46e648b5c',
        'partial': 'b88299e46e648b5c',
        'allocation': 'b88299e46e648b5c',
    },
    'chstone:jpeg@7': {
        'output_first': '2549f4754b9aed18',
        'savings': '2549f4754b9aed18',
        'partial': '2549f4754b9aed18',
        'allocation': '2549f4754b9aed18',
    },
    'chstone:mips@7': {
        'output_first': '473763a985e95db2',
        'savings': '473763a985e95db2',
        'partial': '41d4fe6d7b36adf9',
        'allocation': '473763a985e95db2',
    },
    'chstone:mips@9': {
        'output_first': '8326b850a4ac99e0',
        'savings': '8326b850a4ac99e0',
        'partial': '36e02efdc2352a67',
        'allocation': '8326b850a4ac99e0',
    },
    'gen:large:1@12': {
        'output_first': 'bd9808247e617db8',
        'savings': 'abf889aae5f3f19b',
        'partial': 'cc82271377eb4d88',
        'allocation': '49223cb7dc162b9a',
    },
    'gen:large:1@15': {
        'output_first': '93bb94db2661dd46',
        'savings': 'c8a40b8a4ce2afab',
        'partial': 'd63bf36202a8237e',
        'allocation': 'bf6ece5837f8e4ed',
    },
    'gen:large:2@9': {
        'output_first': '7de67024f582d651',
        'savings': '8bf45f8c06d3699f',
        'partial': '7de67024f582d651',
        'allocation': '2860859e0bfba48e',
    },
    'gen:large:2@12': {
        'output_first': '4f46723ff1d8e411',
        'savings': '5e22f2f1274d999d',
        'partial': '4f46723ff1d8e411',
        'allocation': '4f46723ff1d8e411',
    },
    'gen:large:3@11': {
        'output_first': 'aa8e8615a5740950',
        'savings': '78ec93e87534867d',
        'partial': '9ffc575664fe2805',
        'allocation': 'aa8e8615a5740950',
    },
    'gen:large:3@14': {
        'output_first': '51fb5ea89fe381db',
        'savings': '099357a6d65a05bb',
        'partial': 'fd4f78764350dcac',
        'allocation': '51fb5ea89fe381db',
    },
    'gen:branchy:1@11': {
        'output_first': 'bdeb564bd9035c37',
        'savings': 'a73bdeb16b9a52d4',
        'partial': '200b289a5ccdd632',
        'allocation': 'bdeb564bd9035c37',
    },
    'gen:branchy:1@14': {
        'output_first': '4423c018df2c4063',
        'savings': 'b23d185048d07f54',
        'partial': '76864d25fd38228a',
        'allocation': 'f59c8920905e6d51',
    },
    'gen:branchy:2@11': {
        'output_first': '1b45e38b40ede058',
        'savings': '17db33299fa380a7',
        'partial': '84066d796c6e27ef',
        'allocation': '1b45e38b40ede058',
    },
    'gen:branchy:2@14': {
        'output_first': '8547a6aa40adecc1',
        'savings': '5382af92bca53c2a',
        'partial': '2b1bad2c317e6b52',
        'allocation': '8547a6aa40adecc1',
    },
    'gen:branchy:3@10': {
        'output_first': '89c68544e75aa805',
        'savings': '7c5b077f53c42d42',
        'partial': '22bde26c8ef8f686',
        'allocation': '89c68544e75aa805',
    },
    'gen:branchy:3@13': {
        'output_first': 'fadbb867182d35d7',
        'savings': 'd412b72aa3c793ed',
        'partial': '19683e5b34b4b328',
        'allocation': 'fadbb867182d35d7',
    },
    'gen:deep:1@16': {
        'output_first': 'd8dd9c3ec71e92e8',
        'savings': '0466d385e787b5d6',
        'partial': 'f4a3352bd07aed7c',
        'allocation': 'd8dd9c3ec71e92e8',
    },
    'gen:deep:1@20': {
        'output_first': '68f432119b763e8d',
        'savings': '9afb11adee78f616',
        'partial': '68f432119b763e8d',
        'allocation': '3ee5d5d084f45b6d',
    },
    'gen:deep:2@18': {
        'output_first': '5c34e0f6023e3da0',
        'savings': 'deabbe0e15f2093a',
        'partial': '0100cc1f98b40bf0',
        'allocation': '5c34e0f6023e3da0',
    },
    'gen:deep:2@23': {
        'output_first': '07101ba8fa72e4eb',
        'savings': '3cb0512c61b53ad7',
        'partial': '07101ba8fa72e4eb',
        'allocation': '07101ba8fa72e4eb',
    },
    'gen:deep:3@17': {
        'output_first': 'ba8668aae62eef2f',
        'savings': '384b94bfd53fe9b1',
        'partial': '4e0bcdb06f679746',
        'allocation': '81449a0926dfaf46',
    },
    'gen:deep:3@22': {
        'output_first': '2b75784df3b4f6c7',
        'savings': 'c027e3243dd305b6',
        'partial': '2b75784df3b4f6c7',
        'allocation': '8f984ad9f3adaab6',
    },
}


@pytest.mark.parametrize("circuit", CIRCUITS)
@pytest.mark.parametrize("slack", SLACKS)
def test_pm_outcome_matches_golden(circuit, slack):
    budget, table = digests(circuit, slack)
    key = f"{circuit}@{budget}"
    assert key in GOLDEN, f"no golden digests for {key}"
    assert table == GOLDEN[key]


if __name__ == "__main__":
    print("GOLDEN: dict[str, dict[str, str]] = {")
    for circuit in CIRCUITS:
        for slack in SLACKS:
            budget, table = digests(circuit, slack)
            print(f"    {f'{circuit}@{budget}'!r}: {{")
            for variant, digest in table.items():
                print(f"        {variant!r}: {digest!r},")
            print("    },")
    print("}")
