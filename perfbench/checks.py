"""Output checks that hold for any seed, with an evaluator of their own.

Witnesses are re-evaluated on the JSON model by this module's own
structure-function code, not the program's, so a kernel that returns a
wrong witness cannot also vouch for it.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

#: Absolute tolerance for comparing costs and (expected) damages.
TOLERANCE = 1e-6
#: Cases of the default seed whose inputs, fronts and backends are pinned
#: in ``reference.json``.
PINNED_CASES = 32


def _nodes(model: Mapping[str, Any]) -> Dict[str, Mapping[str, Any]]:
    return {node["name"]: node for node in model["nodes"]}


def _reach(nodes: Mapping[str, Mapping[str, Any]], attack: frozenset,
           probabilistic: bool) -> Dict[str, float]:
    """Reach probability of every node (0/1 without probabilities).

    The probabilistic recursion is exact only for treelike models, which is
    the only probabilistic cell the workloads use.
    """
    reach: Dict[str, float] = {}

    def visit(name: str) -> float:
        if name in reach:
            return reach[name]
        node = nodes[name]
        if node["type"] == "BAS":
            if name not in attack:
                value = 0.0
            else:
                value = float(node.get("probability", 1.0)) if probabilistic else 1.0
        elif node["type"] == "AND":
            value = 1.0
            for child in node["children"]:
                value *= visit(child)
        else:
            miss = 1.0
            for child in node["children"]:
                miss *= 1.0 - visit(child)
            value = 1.0 - miss
        reach[name] = value
        return value

    for name in nodes:
        visit(name)
    return reach


def evaluate(model: Mapping[str, Any], attack: Iterable[str],
             probabilistic: bool) -> Tuple[float, float]:
    """``(cost, damage)`` of an attack; damage is expected when probabilistic."""
    nodes = _nodes(model)
    chosen = frozenset(attack)
    unknown = [name for name in chosen if nodes.get(name, {}).get("type") != "BAS"]
    if unknown:
        raise ValueError(f"witness names non-BAS nodes {sorted(unknown)!r}")
    reach = _reach(nodes, chosen, probabilistic)
    cost = sum(float(nodes[name].get("cost", 0.0)) for name in chosen)
    damage = sum(reach[name] * float(node.get("damage", 0.0))
                 for name, node in nodes.items())
    return cost, damage


def front_values(result: Mapping[str, Any]) -> List[Tuple[float, float]]:
    return [(point["cost"], point["damage"]) for point in result.get("front", [])]


def check_case(case: Mapping[str, Any], results: List[Mapping[str, Any]]) -> List[str]:
    """Every problem found with one case's results (empty when correct).

    ``results`` holds ``AnalysisResult.to_dict`` rows in request order: a
    front problem (CDPF/CEDPF) followed by its single-budget problem.
    """
    problems: List[str] = []
    model = case["model"]
    if len(results) != len(case["requests"]):
        return [f"expected {len(case['requests'])} results, got {len(results)}"]
    front_result, single_result = results
    probabilistic = front_result.get("setting") == "probabilistic"
    front = front_result.get("front")
    if not front:
        return ["front problem returned no front"]
    previous: Optional[Tuple[float, float]] = None
    for point in front:
        cost, damage = point["cost"], point["damage"]
        if previous is not None and not (
            cost > previous[0] + TOLERANCE and damage > previous[1] + TOLERANCE
        ):
            problems.append(f"front is not a strict staircase at {(cost, damage)}")
        previous = (cost, damage)
        if "attack" not in point:
            problems.append(f"front point {(cost, damage)} has no witness")
            continue
        got = evaluate(model, point["attack"], probabilistic)
        if abs(got[0] - cost) > TOLERANCE or abs(got[1] - damage) > TOLERANCE:
            problems.append(
                f"witness of {(cost, damage)} evaluates to {got}"
            )
    budget = single_result["request"]["budget"]
    best = max(damage for cost, damage in front_values(front_result)
               if cost <= budget + TOLERANCE)
    value = single_result.get("value")
    if value is None or abs(value - best) > TOLERANCE:
        problems.append(
            f"budget {budget}: value {value} but the front's best is {best}"
        )
    witness = single_result.get("witness")
    if witness is not None:
        cost, damage = evaluate(model, witness, probabilistic)
        if cost > budget + TOLERANCE or abs(damage - best) > TOLERANCE:
            problems.append(
                f"budget {budget}: witness evaluates to {(cost, damage)}"
            )
    return problems


def front_signature(result: Mapping[str, Any]) -> List[List[float]]:
    """Front values rounded for a reference digest (platform-stable)."""
    return [[round(cost, 9), round(damage, 9)] for cost, damage in front_values(result)]


#: Result fields that legitimately differ between two runs of a request.
VOLATILE_FIELDS = ("wall_time_seconds", "cache_hit")


def same_result(left: Mapping[str, Any], right: Mapping[str, Any]) -> bool:
    """Equal results, ignoring timing and cache provenance."""
    def strip(row: Mapping[str, Any]) -> Dict[str, Any]:
        return {key: value for key, value in row.items() if key not in VOLATILE_FIELDS}
    return strip(left) == strip(right)


def digest(value: Any) -> str:
    """A short content hash of a JSON value (sorted keys)."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def case_digest(case: Mapping[str, Any]) -> str:
    """The digest of a case's inputs: its JSON model and its requests."""
    return digest({"model": case["model"], "requests": case["requests"]})
