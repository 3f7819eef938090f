"""Seeded inputs of the three workloads, as plain JSON values.

Models come from the program's own workload families
(``repro.workloads``) and are handed to the program only as their
serialized JSON.  Case ``i`` of a workload depends on ``(seed, i)`` alone,
so a longer case list extends a shorter one and the committed reference
(``reference.json``) can pin a prefix of it.

Cases cycle through fixed strata of ``(family, size)`` pairs; only the
instance drawn inside each stratum depends on the seed.  Keeping the mix of
sizes fixed is what keeps whole-pass throughput comparable across seeds.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Sequence, Tuple

from repro.attacktree import serialization
from repro.workloads import ScenarioSpec, expand


Case = Dict[str, Any]

#: Deterministic DAG strata.  One analysis takes 30-250 ms, mostly in
#: HiGHS, so a run holds a few hundred distinct cases.  The random family,
#: whose per-model time spreads most, is one stratum of eleven.
DAG_STRATA: Tuple[Tuple[str, int], ...] = (
    ("shared-bas", 4), ("shared-bas", 5), ("shared-bas", 6), ("shared-bas", 7),
    ("wide-fan", 4), ("wide-fan", 5), ("wide-fan", 6), ("wide-fan", 7),
    ("deep-chain", 4), ("deep-chain", 5),
    ("random", 8),
)

#: Probabilistic treelike strata.  Random trees of 28 or more nodes include
#: single models that take 0.3-1.5 s, so one or two draws would decide a
#: run's throughput; these sizes keep thousands of analyses in every run.
PROB_STRATA: Tuple[Tuple[str, int], ...] = (
    ("random", 16), ("random", 20), ("random", 24),
    ("deep-chain", 10), ("deep-chain", 12), ("deep-chain", 14),
    ("deep-chain", 16), ("deep-chain", 18),
)

#: Small deterministic treelike models for the service: the solve is a
#: sliver of a job's time, so the job measures the service path.
SERVICE_SIZES: Tuple[int, ...] = (10, 12, 14, 16)
#: Jobs per service pass; every second job resubmits an earlier model.
SERVICE_PASS_JOBS = 20


def _stratum_models(
    family: str, size: int, shape: str, setting: str, seed: int, count: int
) -> List[Any]:
    """The first ``count`` models of one stratum (true DAGs for ``dag``)."""
    drawn = count
    while True:
        spec = ScenarioSpec(
            family=family, shape=shape, setting=setting, sizes=(size,),
            cases_per_size=drawn, seed=seed,
        )
        models = [case.model for case in expand(spec)]
        if shape == "dag":
            # The random-DAG regime emits some treelike models, which the
            # engine solves bottom-up in about a millisecond; keeping them
            # would make the latency distribution bimodal.
            models = [model for model in models if not model.tree.is_treelike]
        if len(models) >= count:
            return models[:count]
        drawn *= 2


def _budget(rng: random.Random, payload: Dict[str, Any]) -> int:
    """A seeded integer budget between one cheapest step and half the total."""
    costs = [node["cost"] for node in payload["nodes"] if "cost" in node]
    low = int(min(costs))
    high = max(low, int(sum(costs) // 2))
    return rng.randint(low, high)


def _front_cases(
    workload: str, strata: Sequence[Tuple[str, int]], shape: str, setting: str,
    problems: Tuple[str, str], seed: int, count: int,
) -> List[Case]:
    per_stratum = -(-count // len(strata))
    columns = [
        _stratum_models(family, size, shape, setting, seed, per_stratum)
        for family, size in strata
    ]
    cases = []
    for index in range(count):
        stratum = index % len(strata)
        family, size = strata[stratum]
        payload = serialization.to_dict(columns[stratum][index // len(strata)])
        rng = random.Random(f"perfbench:{workload}:{seed}:{index}")
        front, single = problems
        cases.append({
            "id": f"{workload}-s{seed}-{index}-{family}-n{size}",
            "model": payload,
            "requests": [
                {"problem": front},
                {"problem": single, "budget": _budget(rng, payload)},
            ],
        })
    return cases


def dag_cases(seed: int, count: int) -> List[Case]:
    """``dag-det-front``: CDPF plus one DgC on true deterministic DAGs."""
    return _front_cases(
        "dag-det-front", DAG_STRATA, "dag", "deterministic", ("cdpf", "dgc"),
        seed, count,
    )


def prob_cases(seed: int, count: int) -> List[Case]:
    """``prob-tree-front``: CEDPF plus one EDgC on probabilistic trees."""
    return _front_cases(
        "prob-tree-front", PROB_STRATA, "treelike", "probabilistic",
        ("cedpf", "edgc"), seed, count,
    )


def service_pass(seed: int, pass_index: int) -> List[Case]:
    """One pass of ``service-jobs``: fresh models, each resubmitted once.

    Odd jobs resubmit a model (and requests) sent earlier in the same
    pass, so the worker answers them from the result store.
    """
    fresh_count = SERVICE_PASS_JOBS // 2
    specs = [
        ScenarioSpec(
            family="random", shape="treelike", setting="deterministic",
            sizes=(size,), cases_per_size=-(-fresh_count // len(SERVICE_SIZES)),
            seed=seed * 1000 + pass_index,
        )
        for size in SERVICE_SIZES
    ]
    columns = [[case.model for case in expand(spec)] for spec in specs]
    rng = random.Random(f"perfbench:service-jobs:{seed}:{pass_index}")
    fresh: List[Case] = []
    jobs: List[Case] = []
    for index in range(fresh_count):
        column = columns[index % len(columns)]
        payload = serialization.to_dict(column[index // len(columns)])
        case = {
            "id": f"service-jobs-s{seed}-p{pass_index}-{index}",
            "model": payload,
            "requests": [
                {"problem": "cdpf"},
                {"problem": "dgc", "budget": _budget(rng, payload)},
            ],
        }
        fresh.append(case)
        jobs.append(case)
        jobs.append(rng.choice(fresh))
    return jobs


#: The warm-up model of each workload's set-up: the smallest model of
#: its cell, drawn with a fixed seed, so set-up time does not depend on
#: the workload's seed.
WARMUP = {
    "dag-det-front": ("shared-bas", 4, "dag", "deterministic", ("cdpf", "dgc")),
    "prob-tree-front": (
        "deep-chain", 4, "treelike", "probabilistic", ("cedpf", "edgc"),
    ),
    "service-jobs": ("deep-chain", 4, "treelike", "deterministic", ("cdpf", "dgc")),
}
WARMUP_SEED = 0


def warmup_case(workload: str) -> Case:
    """A small model of the workload's cell, analysed once during set-up."""
    family, size, shape, setting, problems = WARMUP[workload]
    return _front_cases(
        f"{workload}-warmup", ((family, size),), shape, setting, problems,
        WARMUP_SEED, 1,
    )[0]
