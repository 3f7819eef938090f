"""End-to-end benchmark of the cost-damage analysis engine and service.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (the reasons and layer predictions are in ``perfbench/README.md``):

* ``dag-det-front``   CDPF + DgC on deterministic DAGs (BILP / HiGHS).
* ``prob-tree-front`` CEDPF + EDgC on probabilistic trees (bottom-up).
* ``service-jobs``    CDPF + DgC jobs through ``atcd api --workers 1``.

Run from the repository root.  The program is imported from ``src/`` and
receives only generated JSON models.  Human-readable lines come first; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``).  Any failed output
check makes the exit code nonzero.  ``--write-reference`` re-pins the
default seed's inputs and fronts in ``perfbench/reference.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")

WORKLOADS = ("dag-det-front", "prob-tree-front", "service-jobs")
DEFAULT_SEED = 1
#: Counted cold starts per run, the measured one included; ``setup_s`` is
#: the median of their times at the reference host speed.  A service cold
#: start takes two processes and a job, about 2 s, so it gets fewer.
SETUP_STARTS = {"dag-det-front": 7, "prob-tree-front": 7, "service-jobs": 5}
#: The cold-start yardstick: a fresh interpreter, isolated from the program,
#: importing a fixed set of standard-library modules, some of them C
#: extensions.  A cold start of the program is mostly importing and loading
#: extension modules, and its time swung with this one's.
SPAWN_YARDSTICK = (
    "-I", "-c",
    "import argparse, asyncio, decimal, email.mime.multipart, http.server, "
    "json, logging.handlers, sqlite3, unittest, xml.etree.ElementTree; "
    "print('ready', flush=True)",
)
#: The cold-start yardstick's median time on the reference box (a 2-vCPU
#: x86-64 VM), and how many times it runs before each cold start.
SPAWN_REFERENCE_SECONDS = 0.13
SPAWN_SAMPLES = 3
#: Analyses a window needs at least, so that its p90 has ten beyond it.
MIN_SAMPLES = 100
#: Cases generated per second of ``--seconds``: about 1.6 times what a
#: 2-core x86-64 box analyses, so a window rarely repeats a case.
CASES_PER_SECOND = {"dag-det-front": 16.0, "prob-tree-front": 170.0}
#: Wall-clock limit for one child process.
CHILD_TIMEOUT = 170.0

#: One cold start: its seconds as timed and the host's cold-start slowdown
#: measured just before it.
Setup = Tuple[float, float]

END_TO_END = (
    ("setup_s", "s"),
    ("analyses_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("cpu_ms_per_analysis", "ms"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "fraction"),
)

PER_LAYER = (
    ("attacktree.decode_ms", "ms"),
    ("engine.resolve_ms", "ms"),
    ("engine.fingerprint_ms", "ms"),
    ("engine.session_run_ms", "ms"),
    ("engine.session_self_ms", "ms"),
    ("milp.solves_per_analysis", "count"),
    ("milp.solve_ms", "ms"),
    ("milp.eps_loop_ms", "ms"),
    ("core.kernel_self_ms", "ms"),
    ("pareto.filter_ms", "ms"),
    ("pareto.filter_in_points", "count"),
    ("pareto.filter_out_points", "count"),
    ("core.front_points", "count"),
    ("service.submit_ms", "ms"),
    ("service.stream_wait_ms", "ms"),
    ("service.results_ms", "ms"),
    ("queue.wait_ms", "ms"),
    ("worker.task_ms", "ms"),
    ("worker.self_ms", "ms"),
    ("service.api_cpu_ms_per_job", "ms"),
    ("worker.cpu_ms_per_job", "ms"),
    ("http.requests_per_job", "count"),
    ("store.hit_ratio", "fraction"),
    ("store.writes_per_job", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.instrumented_share", "fraction"),
)


class Run:
    """What one workload run measured and what its checks found."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.metrics: Dict[str, float] = {}
        self.notes: List[str] = []

    def problem(self, text: str) -> None:
        self.problems.append(text)
        print(f"CHECK FAILED: {text}", file=sys.stderr)


def environment(seed: int) -> Dict[str, Any]:
    """What the numbers depend on; printed with every run."""
    from importlib import metadata

    def version(package: str) -> str:
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return "absent"

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "seed": seed,
    }


def setup_split(args: argparse.Namespace) -> Tuple[int, int]:
    """Extra cold starts to make before and after the measured window.

    The host's speed drifts over tens of seconds, so the starts are split
    around the window rather than made in one block.  A traced run reports
    no ``setup_s`` and makes none.  An untraced run first makes one more,
    uncounted, start that reads the program's files into the page cache.
    """
    if args.trace:
        return 0, 0
    extra = SETUP_STARTS[args.workload] - 1
    return extra // 2, extra - extra // 2


def spawn_slowdown() -> float:
    """The host's cold-start slowdown now: the cold-start yardstick's
    median time over its time on the reference box."""
    times = [time_to_ready([sys.executable, *SPAWN_YARDSTICK])
             for _ in range(SPAWN_SAMPLES)]
    return statistics.median(times) / SPAWN_REFERENCE_SECONDS


def spawn_child(workdir: str, workload: str, arguments: List[str]) -> float:
    """Run one library child to its end; returns its cold-start seconds."""
    return time_to_ready([sys.executable, os.path.join(HERE, "libchild.py"),
                          workdir, workload] + arguments)


def time_to_ready(command: List[str]) -> float:
    """Run a child to its end; returns the seconds until it printed ``ready``.

    The line is awaited with ``select``: ``Popen.wait`` with a timeout
    polls at up to 50 ms, too coarse for a start of 0.15 s.
    """
    import service

    started = time.perf_counter()
    deadline = time.monotonic() + CHILD_TIMEOUT
    process = subprocess.Popen(command, stdout=subprocess.PIPE)
    try:
        if service.read_line(process, deadline).strip() != b"ready":
            raise RuntimeError("child process printed something other than ready")
        ready = time.perf_counter() - started
        process.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
        process.stdout.close()
    if process.returncode != 0:
        raise RuntimeError(f"child process exited with {process.returncode}")
    return ready


def load_reference() -> Dict[str, Any]:
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)


def model_pins(cases: List[Dict[str, Any]]) -> List[str]:
    """Digests of the pinned cases' inputs."""
    import checks

    return [checks.case_digest(case) for case in cases[:checks.PINNED_CASES]]


def compare_pins(run: Run, workload: str, seed: int, found: Dict[str, List[Any]],
                 cases: List[Dict[str, Any]], write: bool) -> None:
    """Check the default seed's inputs, fronts and backends against the reference."""
    if seed != DEFAULT_SEED:
        return
    reference = load_reference() if os.path.exists(REFERENCE) else {"workloads": {}}
    if write:
        reference["seed"] = DEFAULT_SEED
        reference["environment"] = {
            key: value for key, value in environment(seed).items() if key != "seed"
        }
        reference["workloads"][workload] = found
        with open(REFERENCE, "w", encoding="utf-8") as handle:
            json.dump(reference, handle, indent=1, sort_keys=True)
            handle.write("\n")
        return
    pinned = reference["workloads"].get(workload)
    if pinned is None:
        run.problem(f"{REFERENCE} has no pins for {workload}")
        return
    for key in ("models", "fronts", "backends"):
        if len(found[key]) < min(len(pinned[key]), len(cases)):
            run.problem(f"{workload}: only {len(found[key])} pinned {key} to compare")
        for index, (want, got) in enumerate(zip(pinned[key], found[key])):
            if want != got:
                what = "inputs (repro.workloads changed them)" if key == "models" else key
                run.problem(f"{cases[index]['id']}: {what} differ from the reference")


def run_library(run: Run, args: argparse.Namespace, workdir: str) -> None:
    import checks
    import inputs
    import tracing

    if args.workload == "dag-det-front":
        make, strata = inputs.dag_cases, inputs.DAG_STRATA
    else:
        make, strata = inputs.prob_cases, inputs.PROB_STRATA
    count = len(strata) * max(1, math.ceil(
        CASES_PER_SECOND[args.workload] * args.seconds / len(strata)))
    cases = make(args.seed, count)
    with open(os.path.join(workdir, "warmup.json"), "w", encoding="utf-8") as handle:
        json.dump(inputs.warmup_case(args.workload), handle)
    with open(os.path.join(workdir, "cases.ndjson"), "w", encoding="utf-8") as handle:
        for case in cases:
            handle.write(json.dumps(case) + "\n")
    # Only the pinned head stays in memory, so this process holds little
    # while its children are timed.
    cases = cases[:checks.PINNED_CASES]
    gc.collect()

    def cold_start(arguments: List[str]) -> Setup:
        slowdown = spawn_slowdown()
        return spawn_child(workdir, args.workload, arguments), slowdown

    before, after = setup_split(args)
    if not args.trace:
        spawn_child(workdir, args.workload, ["setup"])
    setups = [cold_start(["setup"]) for _ in range(before)]
    setups.append(cold_start([
        "run", str(len(strata)), str(args.seconds), str(MIN_SAMPLES), str(args.trace),
    ]))
    setups += [cold_start(["setup"]) for _ in range(after)]
    with open(os.path.join(workdir, "child.json"), encoding="utf-8") as handle:
        output = json.load(handle)
    for text in output["failures"]:
        run.problem(text)
    compare_pins(run, args.workload, args.seed,
                 dict(output["pins"], models=model_pins(cases)), cases,
                 args.write_reference)
    run.attempted = output["analyses"]
    run.failed = output["failed"]
    run.notes.append(
        f"{output['analyses']} analyses of {output['distinct']} distinct cases in "
        f"whole rounds of {len(strata)} strata, {output['seconds']:.2f} s of "
        f"analysis time ({count} cases generated)"
    )
    raw = tracing.latency_summary(output["latencies_ms"])
    run.notes.append(
        f"host slowdown {output['slowdown_median']:.3f} (median); as timed: "
        f"{output['analyses'] / output['seconds']:.4f} analyses/s, "
        f"p50 {raw['p50']:.4f} ms, p90 {raw['p90']:.4f} ms, "
        f"{output['cpu_seconds'] * 1000.0 / output['analyses']:.4f} CPU ms/analysis"
    )
    record_end_to_end(run, setups, output["analyses"], output["reference_seconds"],
                      output["reference_latencies_ms"],
                      output["reference_cpu_seconds"], output["peak_rss_mb"])
    if args.trace:
        traced = output["traced"]
        run.attempted += traced["analyses"]
        run.failed += traced["failed"]
        layers = dict(output["layers"])
        layers["trace.overhead_ratio"] = (
            (traced["analyses"] / traced["reference_seconds"])
            / run.metrics["analyses_per_s"]
        )
        layers["core.front_points"] = float(output["front_points"])
        run.metrics = layers


def record_end_to_end(run: Run, setups: List[Setup], analyses: int, seconds: float,
                      latencies: List[float], cpu_seconds: float,
                      peak_rss_mb: float) -> None:
    import tracing

    summary = tracing.latency_summary(latencies)
    if summary["p90"] is None:
        raise RuntimeError(
            f"only {summary['n']} latency samples; a p90 needs "
            f"{tracing.MIN_P90_SAMPLES}"
        )
    run.notes.append(
        f"latency samples n={summary['n']}; setup_s is the median of "
        f"{len(setups)} cold starts over their slowdowns, as timed: "
        + ", ".join(f"{timed:.3f} s / {slowdown:.3f}" for timed, slowdown in setups)
    )
    run.metrics = {
        "setup_s": statistics.median(timed / slowdown for timed, slowdown in setups),
        "analyses_per_s": analyses / seconds,
        "latency_p50_ms": summary["p50"],
        "latency_p90_ms": summary["p90"],
        "cpu_ms_per_analysis": cpu_seconds * 1000.0 / analyses,
        "peak_rss_mb": peak_rss_mb,
        "success_rate": (run.attempted - run.failed) / run.attempted,
    }


def service_reference(cases: List[Dict[str, Any]]) -> Dict[str, List[Dict[str, Any]]]:
    """In-process ``AnalysisSession`` rows per distinct job, outside the window."""
    import checks
    from repro.attacktree import serialization
    from repro.engine import AnalysisRequest, AnalysisSession

    expected = {}
    for case in cases:
        key = checks.case_digest(case)
        if key not in expected:
            session = AnalysisSession(serialization.from_dict(case["model"]))
            expected[key] = [
                session.run(AnalysisRequest.from_dict(request)).to_dict()
                for request in case["requests"]
            ]
    return expected


def check_jobs(run: Run, jobs: List[Dict[str, Any]]) -> int:
    """Check every job's rows; returns how many jobs failed a check."""
    import checks

    expected = service_reference([job["case"] for job in jobs])
    failed = 0
    for job in jobs:
        case = job["case"]
        key = checks.case_digest(case)
        if None in job["rows"]:
            found = ["a request of the job has no result"]
        else:
            found = checks.check_case(case, job["rows"])
            found += [
                f"row {index} differs from an in-process AnalysisSession run"
                for index, (row, want) in enumerate(zip(job["rows"], expected[key]))
                if not checks.same_result(row, want)
            ]
        for text in found:
            run.problem(f"{case['id']}: {text}")
        failed += bool(found)
    return failed


def service_layers(window: Dict[str, Any], trace_file: str) -> Dict[str, float]:
    """Per-job layer metrics of the traced service window."""
    import tracing
    from repro.obs.promtext import parse

    jobs = window["jobs"]
    count = len(jobs)
    rids = {job["rid"] for job in jobs}
    spans = []
    with open(trace_file, encoding="utf-8") as handle:
        for line in handle:
            item = json.loads(line)
            if item["trace_id"] in rids:
                spans.append({
                    "id": item["span_id"], "parent": item["parent_id"],
                    "name": item["name"], "trace": item["trace_id"],
                    "start": item["start_unix"],
                    "end": item["start_unix"] + item["duration_seconds"],
                })
    submitted: Dict[str, float] = {}
    picked: Dict[str, float] = {}
    for item in spans:
        if item["name"] == "job.submit":
            submitted[item["trace"]] = item["end"]
        elif item["name"] == "worker.task":
            picked[item["trace"]] = min(picked.get(item["trace"], math.inf), item["start"])
    waits = [picked[rid] - submitted[rid] for rid in rids if rid in picked and rid in submitted]
    workers = [item for item in spans if item["name"] in ("worker.task", "solve")]
    selfs = tracing.self_times(workers)
    before, after = window["metrics_before"], window["metrics_after"]

    def delta(name: str, **labels: str) -> float:
        return tracing.counter_delta(parse, before, after, name, **labels)

    lookups = delta("atcd_store_lookups_total")
    # The closing scrape counts itself before it replies.
    requests = delta("atcd_http_requests_total", server="service") - 1

    def mean(key: str) -> float:
        return sum(job[key] for job in jobs) / count

    return {
        "service.submit_ms": mean("submit_ms"),
        "service.stream_wait_ms": mean("stream_wait_ms"),
        "service.results_ms": mean("results_ms"),
        "queue.wait_ms": 1000.0 * sum(waits) / len(waits) if waits else 0.0,
        "worker.task_ms": 1000.0 * tracing.durations(workers).get("worker.task", 0.0) / count,
        "worker.self_ms": 1000.0 * selfs.get("worker.task", 0.0) / count,
        "service.api_cpu_ms_per_job": window["api_cpu_seconds"] * 1000.0 / count,
        "worker.cpu_ms_per_job": window["worker_cpu_seconds"] * 1000.0 / count,
        "http.requests_per_job": requests / count,
        "store.hit_ratio": delta("atcd_store_lookups_total", result="hit") / lookups
        if lookups else 0.0,
        "store.writes_per_job": delta("atcd_store_writes_total") / count,
    }


def run_service(run: Run, args: argparse.Namespace, workdir: str) -> None:
    import checks
    import inputs
    import service

    def make_pass(index: int) -> List[Dict[str, Any]]:
        return inputs.service_pass(args.seed, index)

    warmup = inputs.warmup_case("service-jobs")

    def cold_start(name: str) -> Setup:
        slowdown = spawn_slowdown()
        started, seconds = service.cold_start(ROOT, workdir, name, warmup, args.seed)
        started.stop()
        return seconds, slowdown

    before, after = setup_split(args)
    if not args.trace:
        service.cold_start(ROOT, workdir, "uncounted", warmup, args.seed)[0].stop()
    setups = [cold_start(f"before{start}") for start in range(before)]
    slowdown = spawn_slowdown()
    api, seconds = service.cold_start(ROOT, workdir, "plain", warmup, args.seed)
    setups.append((seconds, slowdown))
    try:
        plain = service.window(api, make_pass, args.seconds, MIN_SAMPLES, args.seed,
                               "plain")
    finally:
        api.stop()
    setups += [cold_start(f"after{start}") for start in range(after)]
    jobs = plain["jobs"]
    run.attempted = len(jobs) + plain["failed"]
    run.failed = plain["failed"] + check_jobs(run, jobs)
    first = jobs[:inputs.SERVICE_PASS_JOBS]
    head = first[:checks.PINNED_CASES]
    compare_pins(run, args.workload, args.seed, {
        "models": model_pins([job["case"] for job in head]),
        "fronts": [checks.digest(checks.front_signature(job["rows"][0])) for job in head],
        "backends": [[row["backend"] for row in job["rows"]] for job in head],
    }, [job["case"] for job in head], args.write_reference)
    run.notes.append(
        f"{len(jobs)} jobs in {plain['passes']} whole passes of "
        f"{inputs.SERVICE_PASS_JOBS}, {plain['seconds']:.2f} s window without "
        f"think time, {plain['worker_count']} worker process(es)"
    )
    record_end_to_end(
        run, setups, len(jobs), plain["seconds"], [job["latency_ms"] for job in jobs],
        plain["api_cpu_seconds"] + plain["worker_cpu_seconds"], plain["peak_rss_mb"],
    )
    if args.trace:
        trace_file = os.path.join(workdir, "spans.ndjson")
        api, _ = service.cold_start(ROOT, workdir, "traced", warmup, args.seed,
                                    trace_out=trace_file)
        try:
            traced = service.window(api, make_pass, args.seconds, MIN_SAMPLES,
                                    args.seed, "traced")
        finally:
            api.stop()
        run.attempted += len(traced["jobs"]) + traced["failed"]
        run.failed += traced["failed"] + check_jobs(run, traced["jobs"])
        layers = service_layers(traced, trace_file)
        layers["trace.overhead_ratio"] = (
            (len(traced["jobs"]) / traced["seconds"]) / run.metrics["analyses_per_s"]
        )
        layers["core.front_points"] = float(sum(
            len(job["rows"][0].get("front", [])) for job in first
        ))
        run.metrics = layers


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="re-pin the default seed's inputs and fronts")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: the program's sources are missing ({SRC})", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    env = environment(args.seed)
    print("environment: " + json.dumps(env, sort_keys=True))
    if os.path.exists(REFERENCE):
        measured = load_reference().get("environment", {})
        differing = sorted(key for key in measured
                           if key != "seed" and measured[key] != env.get(key))
        if differing:
            print("perfbench: WARNING: environment differs from the one the bounds "
                  f"were measured on in {differing}: {measured}", file=sys.stderr)
    run = Run()
    workdir = os.path.join(ROOT, ".perfbench_work",
                           f"{args.workload}-s{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.workload == "service-jobs":
            run_service(run, args, workdir)
        else:
            run_library(run, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    names = PER_LAYER if args.trace else END_TO_END
    print(f"{args.workload} (seed {args.seed}, trace {args.trace}):")
    for note in run.notes:
        print(f"  {note}")
    for name, unit in names:
        print(f"  {name:<28} {run.metrics.get(name, 0.0):>14.4f} {unit}")
    correct = not run.problems and run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": run.metrics.get(name, 0.0), "unit": unit}
                    for name, unit in names},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
