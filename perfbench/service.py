"""The ``service-jobs`` workload: a real ``atcd api`` and one HTTP caller.

The caller is a closed loop: it submits a job, waits on the job's
``/stream`` until its ``end`` line, fetches ``/results`` and only then
submits the next job.  Waiting on the stream instead of polling the job
status keeps the caller's own requests from being charged to the service's
CPU.  CPU and peak memory of the api process and its worker come from
``/proc``.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import select
import random
import signal
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import tracing

API_KEY = "perfbench-key-0123456789"
#: The poll period of the api's job stream and of its worker.
POLL_SECONDS = 0.2
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def request_id(seed: int, tag: str) -> str:
    """A hex ``X-Request-Id``; the service seeds the job's trace with it."""
    return hashlib.sha256(f"{seed}:{tag}".encode("utf-8")).hexdigest()[:32]


def _stat(pid: int) -> List[str]:
    """The fields of ``/proc/<pid>/stat`` after the command name."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        return handle.read().rsplit(")", 1)[1].split()


def child_pids(pid: int) -> List[int]:
    """Direct children of ``pid``, read from ``/proc``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            parent = int(_stat(int(entry))[1])
        except OSError:
            continue
        if parent == pid:
            found.append(int(entry))
    return found


def cpu_seconds(pid: int) -> float:
    fields = _stat(pid)
    return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS


class Service:
    """One ``atcd api --workers 1`` over fresh sqlite queue and store files."""

    def __init__(self, root: str, workdir: str, name: str,
                 trace_out: Optional[str] = None) -> None:
        self.started = time.perf_counter()
        directory = os.path.join(workdir, name)
        os.makedirs(directory)
        keys = os.path.join(directory, "keys.json")
        with open(keys, "w", encoding="utf-8") as handle:
            json.dump({"tenants": [{"name": "bench", "key": API_KEY}]}, handle)
        command = [
            sys.executable, "-m", "repro.cli", "api",
            "--queue", os.path.join(directory, "jobs.queue"),
            "--store", os.path.join(directory, "results.store"),
            "--keys", keys, "--port", "0", "--workers", "1",
            "--access-log", os.path.join(directory, "access.log"),
        ]
        if trace_out:
            command += ["--trace-out", trace_out]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        with open(os.path.join(directory, "stderr.log"), "wb") as stderr:
            self.process = subprocess.Popen(
                command, cwd=directory, env=env, stdout=subprocess.PIPE,
                stderr=stderr, start_new_session=True,
            )
        self.connection: Optional[http.client.HTTPConnection] = None
        try:
            self.host, self.port = self._address()
        except BaseException:
            self.stop()
            raise
        self.connection = http.client.HTTPConnection(self.host, self.port, timeout=60)

    def _address(self) -> Tuple[str, int]:
        line = read_line(self.process, time.monotonic() + 60)
        url = line.split(b" at ", 1)[1].split()[0].decode("ascii")
        host, port = url.split("//", 1)[1].rsplit(":", 1)
        return host, int(port.rstrip("/"))

    def _call(self, method: str, path: str, rid: str,
              body: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        payload = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"X-Api-Key": API_KEY, "X-Request-Id": rid}
        if payload is not None:
            headers["Content-Type"] = "application/json"
        self.connection.request(method, path, body=payload, headers=headers)
        response = self.connection.getresponse()
        data = response.read()
        if response.status >= 300:
            raise RuntimeError(f"{method} {path}: {response.status} {data[:200]!r}")
        return json.loads(data)

    def _stream(self, job_id: str, rid: str) -> Dict[str, Any]:
        connection = http.client.HTTPConnection(self.host, self.port, timeout=120)
        try:
            connection.request("GET", f"/v1/jobs/{job_id}/stream", headers={
                "X-Api-Key": API_KEY, "X-Request-Id": rid,
            })
            response = connection.getresponse()
            for line in response:
                event = json.loads(line)
                if event["event"] != "result":
                    return event
        finally:
            connection.close()
        raise RuntimeError(f"stream of job {job_id} ended without an end line")

    def job(self, case: Dict[str, Any], rid: str) -> Dict[str, Any]:
        """Submit, stream to the end, fetch results; client-side timings."""
        begin = time.perf_counter()
        submitted = self._call("POST", "/v1/jobs", rid, {
            "model": case["model"], "requests": case["requests"],
        })
        job_id = submitted["job"]["job_id"]
        streamed = time.perf_counter()
        end = self._stream(job_id, rid)
        waited = time.perf_counter()
        results = self._call("GET", f"/v1/jobs/{job_id}/results", rid)
        done = time.perf_counter()
        if end.get("state") != "done":
            raise RuntimeError(f"job {job_id} ended {end.get('state')!r}")
        return {
            "rows": [row.get("result") for row in results["results"]],
            "latency_ms": (done - begin) * 1000.0,
            "submit_ms": (streamed - begin) * 1000.0,
            "stream_wait_ms": (waited - streamed) * 1000.0,
            "results_ms": (done - waited) * 1000.0,
        }

    def metrics_text(self) -> str:
        self.connection.request("GET", "/metrics")
        response = self.connection.getresponse()
        return response.read().decode("utf-8")

    def pids(self) -> List[int]:
        """The api process and its worker."""
        return [self.process.pid] + child_pids(self.process.pid)

    def stop(self) -> None:
        """Stop the api and its worker, and wait until both have ended."""
        if self.connection is not None:
            self.connection.close()
        members = self.pids() if self.process.poll() is None else []
        try:
            os.killpg(self.process.pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
        try:
            self.process.wait(timeout=20)
        except subprocess.TimeoutExpired:
            os.killpg(self.process.pid, signal.SIGKILL)
            self.process.wait(timeout=20)
        self.process.stdout.close()
        deadline = time.monotonic() + 20
        for pid in members[1:]:
            # The worker is reaped by whoever adopted it; wait until it is
            # gone or a zombie, and kill it if it outlives the deadline.
            while _alive(pid):
                if time.monotonic() >= deadline:
                    os.kill(pid, signal.SIGKILL)
                    break
                time.sleep(0.05)


def _alive(pid: int) -> bool:
    try:
        return _stat(pid)[0] != "Z"
    except OSError:
        return False


def read_line(process: subprocess.Popen, deadline: float) -> bytes:
    """The first line a child process prints, or an error past ``deadline``."""
    line = b""
    while not line.endswith(b"\n"):
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise RuntimeError(f"{process.args[:4]} printed no line in time")
        ready, _, _ = select.select([process.stdout], [], [], remaining)
        if ready:
            chunk = os.read(process.stdout.fileno(), 1)
            if not chunk:
                raise RuntimeError(f"{process.args[:4]} exited before printing a line")
            line += chunk
    return line


def cold_start(root: str, workdir: str, name: str, warmup: Dict[str, Any],
               seed: int, trace_out: Optional[str] = None) -> Tuple[Service, float]:
    """Start a service and run the warm-up job; returns it and the set-up time."""
    service = Service(root, workdir, name, trace_out)
    try:
        service.job(warmup, request_id(seed, f"warmup:{name}"))
    except BaseException:
        service.stop()
        raise
    return service, time.perf_counter() - service.started


def window(service: Service, make_pass: Callable[[int], List[Dict[str, Any]]],
           seconds: float, min_samples: int, seed: int, tag: str) -> Dict[str, Any]:
    """Whole passes of jobs until ``seconds`` and ``min_samples`` are reached.

    ``make_pass(index)`` generates pass ``index`` when the previous one has
    ended, outside the window, so the window's length never depends on how
    many passes were made in advance.  Before each job the caller thinks for
    a seeded time drawn uniformly over one poll period, also outside the
    window.  Without it each submission lands at nearly the same phase of
    the worker's and the stream's 200 ms poll loops as the previous one, and
    that phase, drifting slowly, set a run's latency and per-job CPU.
    """
    think = random.Random(f"perfbench:think:{seed}:{tag}")
    pids = service.pids()
    cpu_before = [cpu_seconds(pid) for pid in pids]
    metrics_before = service.metrics_text()
    jobs: List[Dict[str, Any]] = []
    failed = 0
    excluded = 0.0
    started = time.perf_counter()
    pass_index = 0
    while True:
        generating = time.perf_counter()
        cases = make_pass(pass_index)
        excluded += time.perf_counter() - generating
        for index, case in enumerate(cases):
            pause = think.uniform(0.0, POLL_SECONDS)
            time.sleep(pause)
            excluded += pause
            rid = request_id(seed, f"{tag}:{pass_index}:{index}")
            try:
                outcome = service.job(case, rid)
            except (OSError, RuntimeError, ValueError, http.client.HTTPException) as error:
                failed += 1
                print(f"{case['id']}: {error}", file=sys.stderr)
                service.connection.close()
                continue
            outcome.update(case=case, rid=rid)
            jobs.append(outcome)
        pass_index += 1
        elapsed = time.perf_counter() - started - excluded
        if elapsed >= seconds and len(jobs) + failed >= min_samples:
            break
    cpu_after = [cpu_seconds(pid) for pid in pids]
    return {
        "seconds": elapsed,
        "jobs": jobs,
        "failed": failed,
        "passes": pass_index,
        "api_cpu_seconds": cpu_after[0] - cpu_before[0],
        "worker_cpu_seconds": sum(cpu_after[1:]) - sum(cpu_before[1:]),
        "peak_rss_mb": sum(tracing.peak_rss_mb(pid) for pid in pids),
        "worker_count": len(pids) - 1,
        "metrics_before": metrics_before,
        "metrics_after": service.metrics_text(),
    }
