"""One process of a library workload: cold start, warm-up, timed window.

Run by ``run.py``, never by hand:

    python3 perfbench/libchild.py WORKDIR WORKLOAD setup
    python3 perfbench/libchild.py WORKDIR WORKLOAD run ROUND SECONDS MIN_SAMPLES TRACE

It imports the program, runs the warm-up case of ``WORKDIR/warmup.json``
and prints ``ready``.  In ``run`` mode it then analyses the cases of
``WORKDIR/cases.ndjson`` in whole rounds of ROUND cases until both SECONDS
of analysis time and MIN_SAMPLES analyses are reached, and writes
``WORKDIR/child.json``.  Each analysis is timed from
decoding its JSON model until the last ``session.run`` returns; the output
checks run between analyses, outside that interval, so no result has to be
kept and peak memory is the program's own.  With TRACE=1 a second, traced
window follows, whose spans wrap the program's layer entry points from
outside.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from repro.attacktree import serialization  # noqa: E402
from repro.engine import AnalysisRequest, AnalysisSession  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402

#: Seconds of analysis between two yardstick samples.
YARDSTICK_EVERY = 0.1


def analyse(case, decode):
    session = AnalysisSession(decode(case["model"]))
    return [
        session.run(AnalysisRequest.from_dict(request))
        for request in case["requests"]
    ]


def problems_with(workload, case, rows):
    found = checks.check_case(case, rows)
    if workload == "dag-det-front":
        for row in rows:
            # A treelike kernel on this workload means the inputs no longer
            # exercise the DAG cell the workload exists for.
            if row.get("shape") != "dag" or row["backend"].startswith("bottom-up"):
                found.append(f"resolved to {row['backend']} on a {row.get('shape')} model")
    return found


def window(workload, path, round_size, seconds, min_samples, decode, after=None):
    """Whole rounds of cases until ``seconds`` of analysis and ``min_samples``.

    A round is one case of each stratum, so a window of whole rounds keeps
    the workload's mix of families and sizes.  Cases are read one at a time
    from the NDJSON file, outside the timing; past its end a new pass
    repeats them and must reproduce the first pass's results.
    """
    yardstick, reference = tracing.YARDSTICKS[workload]
    signatures = {}
    latencies = []
    cpus = []
    marks = []
    yardsticks = []
    failures = []
    failed = 0
    broken = set()
    pins = {"fronts": [], "backends": []}
    busy = 0.0
    analyses = passes = front_points = 0
    with open(path, encoding="utf-8") as source:
        index = 0
        while True:
            line = source.readline()
            if not line:
                passes += 1
                source.seek(0)
                index = 0
                continue
            case = json.loads(line)
            cpu_start = time.process_time()
            begin = time.perf_counter()
            try:
                results = analyse(case, decode)
            # The workload must survive a failing analysis to count it.
            except Exception as error:  # noqa: BLE001
                results = None
                message = f"{type(error).__name__}: {error}"
            end = time.perf_counter()
            cpus.append(time.process_time() - cpu_start)
            latencies.append(end - begin)
            busy += end - begin
            analyses += 1
            if after is not None:
                after()
            if busy >= YARDSTICK_EVERY * len(yardsticks):
                started = time.perf_counter()
                yardstick()
                yardsticks.append(time.perf_counter() - started)
                marks.append(analyses - 1)
            if results is None:
                failed += 1
                failures.append(f"{case['id']}: raised {message}")
            else:
                rows = [result.to_dict() for result in results]
                signature = checks.digest([
                    {key: value for key, value in row.items()
                     if key not in checks.VOLATILE_FIELDS}
                    for row in rows
                ])
                if index not in signatures:
                    signatures[index] = signature
                    found = problems_with(workload, case, rows)
                    failures.extend(f"{case['id']}: {text}" for text in found)
                    if found:
                        broken.add(index)
                    if index < min_samples:
                        front_points += len(rows[0]["front"])
                    if index < checks.PINNED_CASES:
                        pins["fronts"].append(
                            checks.digest(checks.front_signature(rows[0])))
                        pins["backends"].append([row["backend"] for row in rows])
                elif signature != signatures[index]:
                    broken.add(index)
                    failures.append(f"{case['id']}: pass {passes} differs from pass 0")
                failed += index in broken
            index += 1
            if index % round_size == 0 and busy >= seconds and analyses >= min_samples:
                break
    factors = tracing.slowdowns(marks, yardsticks, analyses, reference)
    return {
        "seconds": busy,
        "cpu_seconds": sum(cpus),
        "latencies_ms": [value * 1000.0 for value in latencies],
        "reference_seconds": sum(value / f for value, f in zip(latencies, factors)),
        "reference_cpu_seconds": sum(value / f for value, f in zip(cpus, factors)),
        "reference_latencies_ms": [
            value * 1000.0 / f for value, f in zip(latencies, factors)
        ],
        "slowdown_median": statistics.median(factors),
        "peak_rss_mb": tracing.peak_rss_mb(os.getpid()),
        "passes": passes + 1,
        "analyses": analyses,
        "distinct": len(signatures),
        "failed": failed,
        "failures": failures[:50],
        "pins": pins,
        "front_points": front_points,
    }


class LayerTrace:
    """Spans around the program's layer entry points, folded per analysis."""

    def __init__(self):
        self.recorder = tracing.SpanRecorder()
        self.selfs = defaultdict(float)
        self.totals = defaultdict(float)
        self.calls = defaultdict(int)

    def install(self):
        """Wrap the layer entry points; returns the wrapped decoder."""
        from repro.core import bottom_up, bottom_up_prob
        from repro.engine import registry, session
        from repro.milp import biobjective, highs
        from repro.pareto import front

        recorder = self.recorder

        def patch(owner, attribute, name):
            setattr(owner, attribute, recorder.wrap(name, getattr(owner, attribute)))

        patch(session.AnalysisSession, "run", "session_run")
        patch(session, "model_fingerprint", "fingerprint")
        patch(registry.BackendRegistry, "resolve", "resolve")
        shared = registry.shared_registry()
        for backend_class in {type(shared.get(name)) for name in shared.names()}:
            patch(backend_class, "solve", "kernel")
        patch(highs.HighsSolver, "solve", "highs")
        patch(biobjective.EpsilonConstraintSolver, "solve", "eps_loop")
        for module in (bottom_up, bottom_up_prob, front):
            for attribute in ("pareto_minimal_pairs", "pareto_minimal_triples"):
                if hasattr(module, attribute):
                    setattr(module, attribute,
                            self._counted(recorder.wrap("filter", getattr(module, attribute))))
        return recorder.wrap("decode", serialization.from_dict)

    def _counted(self, filtered):
        def counted(items, *args, **kwargs):
            items = list(items)
            kept = filtered(items, *args, **kwargs)
            self.calls["filter_in"] += len(items)
            self.calls["filter_out"] += len(kept)
            return kept
        return counted

    def fold(self):
        """Add the last analysis's spans to the totals and drop them."""
        spans = self.recorder.spans
        for name, value in tracing.self_times(spans).items():
            self.selfs[name] += value
        for name, value in tracing.durations(spans).items():
            self.totals[name] += value
        for item in spans:
            self.calls[item["name"]] += 1
        spans.clear()

    def metrics(self, analyses):
        def per(value, scale=1000.0):
            return value * scale / analyses

        run_total = self.totals["session_run"]
        return {
            "attacktree.decode_ms": per(self.selfs["decode"]),
            "engine.resolve_ms": per(self.selfs["resolve"]),
            "engine.fingerprint_ms": per(self.selfs["fingerprint"]),
            "engine.session_run_ms": per(run_total),
            "engine.session_self_ms": per(self.selfs["session_run"]),
            "milp.solves_per_analysis": per(self.calls["highs"], 1.0),
            "milp.solve_ms": per(self.selfs["highs"]),
            "milp.eps_loop_ms": per(self.selfs["eps_loop"]),
            "core.kernel_self_ms": per(self.selfs["kernel"]),
            "pareto.filter_ms": per(self.selfs["filter"]),
            "pareto.filter_in_points": per(self.calls["filter_in"], 1.0),
            "pareto.filter_out_points": per(self.calls["filter_out"], 1.0),
            # The self times of the spans inside session.run partition its
            # duration, so they always add up to it; what tells is the share
            # that the named layers, not session.run's own code, account for.
            "trace.instrumented_share":
                1.0 - self.selfs["session_run"] / run_total if run_total else 0.0,
        }


def main(argv) -> int:
    workdir, workload, mode = argv[0], argv[1], argv[2]
    with open(os.path.join(workdir, "warmup.json"), encoding="utf-8") as handle:
        analyse(json.load(handle), serialization.from_dict)
    print("ready", flush=True)
    if mode == "setup":
        return 0
    round_size, seconds = int(argv[3]), float(argv[4])
    min_samples, trace = int(argv[5]), argv[6] == "1"
    cases = os.path.join(workdir, "cases.ndjson")
    output = window(workload, cases, round_size, seconds, min_samples,
                    serialization.from_dict)
    if trace:
        layers = LayerTrace()
        decode = layers.install()
        traced = window(workload, cases, round_size, seconds, min_samples, decode,
                        after=layers.fold)
        output["layers"] = layers.metrics(traced["analyses"])
        output["traced"] = {
            key: traced[key] for key in ("reference_seconds", "analyses", "failed")
        }
    with open(os.path.join(workdir, "child.json"), "w", encoding="utf-8") as handle:
        json.dump(output, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
