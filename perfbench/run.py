"""Service benchmark: boots the compilation service and drives one workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold_paper --seed 1 --seconds 20 --trace 0

Each run boots the real service, ``python -m repro.frontend --serve --port
0 --workers 2``, as a fresh process tree, and drives it with a closed loop
of two client threads, each holding one persistent HTTP/1.1 connection and
sending its next request only after the previous reply arrived (the callers
are build tools and code generators that wait for each reply).  Requests
come from :mod:`workloads`, seeded by ``--seed``; every response is checked
after the timed window (:class:`workloads.ReferenceChecker`).

``--trace 0`` boots the service several times to time its set-up, measures
the last boot for ``--seconds`` and prints the end-to-end metrics.
``--trace 1`` measures one untraced boot (for the tracing overhead and the
CPU per request) and then the same inputs against
:mod:`traced_server`, and prints the per-layer metrics.

Before the last line the run prints a report with every metric, its unit
and its sample count, plus the tail latency (``latency_p99_ms``) and the
``error_rate``; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (the metrics
``BENCHMARK.json`` declares for the mode).  The exit code is
non-zero when any response was refused, failed, or disagreed with its
reference, and when the repository's ``src/`` is missing.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import re
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
#: Scratch space of a run (server temp files, span files), inside the checkout.
SCRATCH = BENCH / ".run"

sys.path.insert(0, str(BENCH))

import procfs  # noqa: E402
import tracing  # noqa: E402
from stats import median, self_times, tail_percentile  # noqa: E402
from workloads import WORKLOADS, ReferenceChecker, Request, request_stream  # noqa: E402

#: Closed-loop clients (one persistent connection each) and service workers.
CLIENTS = 2
WORKERS = 2
#: Timed boots per ``--trace 0`` run besides the measured one, after one
#: discarded warm-up boot (page cache, bytecode).  All of them run before
#: the measured window, so the workload's load does not slow them, and
#: ``setup_s`` is the median of these and the measured boot.
SETUP_BOOTS = 8
BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
#: Every ``/execute`` response whose index is a multiple of this is
#: re-evaluated by the benchmark itself.
RECHECK_EVERY = 4
#: Thread-count overrides that are NOT passed to the service: it runs with
#: its libraries' default threading, as users get it.
THREAD_OVERRIDES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# ---------------------------------------------------------------------------
# The service process tree.
# ---------------------------------------------------------------------------

class Server:
    """One booted service process tree, stopped with SIGINT like a user's
    Ctrl-C (the CLI then closes its worker pool)."""

    def __init__(self, command: List[str]) -> None:
        env = {k: v for k, v in os.environ.items() if k not in THREAD_OVERRIDES}
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        # The execution tier writes emitted modules under the temp dir;
        # keep them inside the checkout.
        env["TMPDIR"] = str(SCRATCH / "tmp")
        (SCRATCH / "tmp").mkdir(parents=True, exist_ok=True)
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command,
            cwd=str(ROOT),
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        try:
            self.port = self._read_port(started + BOOT_TIMEOUT_S)
            self._wait_healthy(started + BOOT_TIMEOUT_S)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def _read_port(self, deadline: float) -> int:
        stdout = self.process.stdout
        remaining = deadline - time.perf_counter()
        ready, _, _ = select.select([stdout], [], [], max(0.0, remaining))
        banner = stdout.readline().decode("utf-8", "replace") if ready else ""
        match = re.search(r"http://[\d.]+:(\d+)", banner)
        if not match:
            raise RuntimeError(f"service did not start (banner {banner!r})")
        return int(match.group(1))

    def _wait_healthy(self, deadline: float) -> None:
        while True:
            try:
                status, _ = request_json(self.port, "GET", "/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            if time.perf_counter() > deadline or self.process.poll() is not None:
                raise RuntimeError("service never answered GET /healthz with 200")
            time.sleep(0.005)

    def tree(self) -> List[int]:
        return procfs.tree(self.process.pid)

    def stop(self) -> None:
        """SIGINT the server, then wait until every process of its tree has
        ended (SIGKILL to the whole session after a timeout)."""
        members = self.tree()
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
        deadline = time.perf_counter() + STOP_TIMEOUT_S
        try:
            self.process.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass
        while any(procfs.alive(pid) for pid in members):
            if time.perf_counter() > deadline:
                try:
                    os.killpg(self.process.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                self.process.wait()
                deadline = float("inf")
            time.sleep(0.01)
        self.process.stdout.close()


def service_command() -> List[str]:
    return [
        sys.executable, "-m", "repro.frontend", "--serve",
        "--port", "0", "--workers", str(WORKERS),
    ]


def boot_times(count: int) -> List[float]:
    """Set-up times of *count* boots, each stopped before the next."""
    times = []
    for _ in range(count):
        server = Server(service_command())
        times.append(server.setup_s)
        server.stop()
    return times


def traced_command(out_dir: Path) -> List[str]:
    return [
        sys.executable, str(BENCH / "traced_server.py"), "--out", str(out_dir),
    ]


def request_json(port: int, method: str, path: str):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request(method, path)
        response = connection.getresponse()
        return response.status, json.loads(response.read() or b"null")
    finally:
        connection.close()


# ---------------------------------------------------------------------------
# The closed loop.
# ---------------------------------------------------------------------------

@dataclass
class Sample:
    request: Request
    status: int
    body: bytes
    start: float
    end: float

    @property
    def latency_s(self) -> float:
        return self.end - self.start


@dataclass
class Run:
    samples: List[Sample]
    elapsed_s: float
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    setup_s: float = 0.0
    #: Match-cache hit/miss deltas over the window (``GET /stats``).
    match_delta: Dict[str, int] = field(default_factory=dict)
    responses: Dict[int, dict] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)


def drive(server: Server, stream: Iterator[Request], seconds: float) -> Run:
    """Closed loop: CLIENTS threads, one keep-alive connection each, for
    *seconds*; a request started before the deadline runs to completion."""
    lock = threading.Lock()
    samples: List[Sample] = []
    pids = server.tree()
    cpu_before = procfs.cpu_seconds(pids)
    started = time.perf_counter()
    deadline = started + seconds

    def client() -> None:
        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=120)
        try:
            while True:
                with lock:
                    if time.perf_counter() >= deadline:
                        return
                    request = next(stream)
                begin = time.perf_counter()
                try:
                    connection.request(
                        "POST", request.path, body=request.body,
                        headers={"Content-Type": "application/json"},
                    )
                    response = connection.getresponse()
                    status, body = response.status, response.read()
                except (OSError, http.client.HTTPException) as exc:
                    connection.close()
                    status, body = 0, repr(exc).encode()
                samples.append(Sample(request, status, body, begin, time.perf_counter()))
        finally:
            connection.close()

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    finished = max((s.end for s in samples), default=time.perf_counter())
    pids = server.tree()
    return Run(
        samples=sorted(samples, key=lambda s: s.request.index),
        elapsed_s=finished - started,
        cpu_s=procfs.cpu_seconds(pids) - cpu_before,
        peak_rss_mb=procfs.peak_rss_mb(pids),
    )


def check(run: Run, checker: ReferenceChecker) -> None:
    """Parse and check every response (outside the timed window)."""
    for sample in run.samples:
        request = sample.request
        if sample.status != 200:
            run.errors.append(f"{request.request_id}: HTTP {sample.status}")
            continue
        try:
            response = json.loads(sample.body)
        except ValueError:
            run.errors.append(f"{request.request_id}: response is not JSON")
            continue
        run.responses[request.index] = response
        if request.path == "/execute":
            problem = checker.check_execute(
                request, response, recheck=request.index % RECHECK_EVERY == 0
            )
        else:
            problem = checker.check_compile(request, response)
        if problem:
            run.errors.append(f"{request.request_id}: {problem}")


def measure(command: List[str], workload: str, seed: int, seconds: float,
            checker: ReferenceChecker, match_stats: bool = False) -> Run:
    """Boot *command*, drive *workload* for *seconds*, stop, check."""
    server = Server(command)
    try:
        before = match_cache_counts(server) if match_stats else None
        run = drive(server, request_stream(workload, seed), seconds)
        run.setup_s = server.setup_s
        if before is not None:
            after = match_cache_counts(server)
            run.match_delta = {key: after[key] - before[key] for key in after}
    finally:
        server.stop()
    check(run, checker)
    return run


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------

def latencies_ms(run: Run) -> List[float]:
    return [s.latency_s * 1e3 for s in run.samples if s.status == 200]


def end_to_end(run: Run, setups: List[float]) -> Dict[str, tuple]:
    """``{name: (value, unit, note)}`` of the end-to-end metrics."""
    latency = latencies_ms(run)
    ok = [r for r in run.responses.values() if r.get("ok")]
    flops = [float(r["total_flops"]) for r in ok]
    return {
        "latency_p50_ms": (median(latency), "ms", f"n={len(latency)}"),
        "throughput_rps": (len(ok) / run.elapsed_s, "req/s",
                           f"{len(ok)} ok in {run.elapsed_s:.3f} s"),
        "plan_flops_mean": (sum(flops) / len(flops), "flops", f"n={len(flops)}"),
        "setup_s": (median(setups), "s", f"median of {len(setups)} boots"),
        "peak_rss_mb": (run.peak_rss_mb, "MB", "server + workers, VmHWM"),
    }


def tail_latency(run: Run) -> Dict[str, tuple]:
    """The tail latency, printed but not in the final JSON: with 10 samples
    beyond it, it is the 10th-slowest request, whose spread across seeds
    (6-23% measured) is too wide to bound."""
    latency = latencies_ms(run)
    p99, used = tail_percentile(latency)
    return {"latency_p99_ms": (p99, "ms", f"p{used:.2f} of n={len(latency)}")}


def load_spans(out_dir: Path) -> List[dict]:
    """Every span of the traced run, with its process and self time."""
    spans: List[dict] = []
    for path in sorted(out_dir.glob("spans-*.json")):
        data = json.loads(path.read_text())
        pid = data["pid"]
        raw = data["spans"]
        selfs = self_times([((pid, s[0]), None if s[1] is None else (pid, s[1]), s[3], s[4])
                            for s in raw])
        for sid, parent, name, start, end, rid, value in raw:
            spans.append({
                "pid": pid, "parent": parent,
                "name": name, "duration": end - start,
                "self": selfs[(pid, sid)], "rid": rid, "value": value,
            })
    return spans


def per_layer(untraced: Run, traced: Run, spans: List[dict]) -> Dict[str, tuple]:
    """``{name: (value, unit, note)}`` of the per-layer metrics.

    Each traced request gets one row of per-layer self times (summed over
    the layer's spans of that request, in every process) and counts; the
    ``_ms`` metrics are medians over requests.  Three rows are not plain
    self times: ``http`` is the client round trip minus the server-side
    spans below the HTTP handler; ``route`` is the inclusive
    ``worker_for`` time (it contains the parent's parse); ``ipc`` is the
    dispatch span's self time minus the worker's top-level spans.
    """
    by_request: Dict[str, List[dict]] = defaultdict(list)
    for span in spans:
        if span["rid"] is not None:
            by_request[span["rid"]].append(span)
    parent_pids = {s["pid"] for s in spans if s["name"] == tracing.HTTP}

    ok = [s for s in traced.samples if s.status == 200]
    rows = []
    for sample in ok:
        mine = by_request.get(sample.request.request_id, [])
        selfs: Dict[str, float] = defaultdict(float)
        counts: Counter = Counter()
        values: Dict[str, List[int]] = defaultdict(list)
        for span in mine:
            selfs[span["name"]] += span["self"]
            counts[span["name"]] += 1
            if span["value"] is not None:
                values[span["name"]].append(span["value"])
        handler = [s for s in mine if s["name"] == tracing.HTTP]
        worker_top = sum(
            s["duration"] for s in mine
            if s["pid"] not in parent_pids and s["parent"] is None
        )
        selfs["http"] = (sample.latency_s - sum(s["duration"] for s in handler)
                         + sum(s["self"] for s in handler))
        selfs["route"] = sum(s["duration"] for s in mine if s["name"] == tracing.ROUTE)
        selfs["ipc"] = selfs[tracing.DISPATCH] - worker_top
        rows.append((selfs, counts, values, traced.responses[sample.request.index]))
    n = len(rows)

    def self_ms(name: str, only_where_run: bool = False) -> tuple:
        """Median per-request self time; *only_where_run* restricts it to
        the requests on which the layer ran (cache-miss-only layers)."""
        times = [selfs[name] * 1e3 for selfs, counts, _, _ in rows
                 if counts[name] or not only_where_run]
        return median(times), "ms", f"median of n={len(times)}"

    def mean_count(count) -> tuple:
        return sum(count(row) for row in rows) / n, "count", f"mean of n={n}"

    def ratio(hits: int, attempts: int) -> tuple:
        return (hits / attempts if attempts else 0.0), "ratio", f"{hits}/{attempts}"

    lookups = [v for _, _, values, _ in rows for v in values[tracing.PLAN_LOOKUP]]
    modules = [v for _, _, values, _ in rows for v in values[tracing.MODULE_LOOKUP]]
    full_hits = sum(
        1 for _, counts, values, _ in rows
        if values[tracing.PLAN_LOOKUP] and all(values[tracing.PLAN_LOOKUP])
        and not counts[tracing.SOLVE]
    )
    solve_p99, solve_used = tail_percentile([selfs[tracing.SOLVE] * 1e3 for selfs, *_ in rows])
    workers = Counter(response.get("worker") for *_, response in rows)
    match = traced.match_delta
    untraced_ok = len(latencies_ms(untraced))
    overhead = median(latencies_ms(traced)) - median(latencies_ms(untraced))

    return {
        "http.self_ms": self_ms("http"),
        "http.response_bytes": (sum(len(s.body) for s in ok) / len(ok), "bytes",
                                f"mean of n={len(ok)}"),
        "pool.route_ms": self_ms("route"),
        "pool.ipc_ms": self_ms("ipc"),
        "pool.worker_share_max": ratio(max(workers.values()), n),
        "pool.rejected_ratio": ratio(
            sum(1 for s in traced.samples if s.status == 429), len(traced.samples)
        ),
        "api.self_ms": self_ms(tracing.API),
        "compiler.self_ms": self_ms(tracing.COMPILE),
        "analytics.record_ms": self_ms(tracing.ANALYTICS),
        "dsl.parse_ms": self_ms(tracing.PARSE),
        "dsl.parses_per_request": mean_count(lambda row: row[1][tracing.PARSE]),
        "segments.decompose_ms": self_ms(tracing.DECOMPOSE),
        "segments.per_request": mean_count(lambda row: sum(row[2][tracing.DECOMPOSE])),
        "plan_cache.lookup_ms": self_ms(tracing.PLAN_LOOKUP),
        "plan_cache.store_ms": self_ms(tracing.PLAN_STORE),
        "plan_cache.hit_ratio": ratio(sum(lookups), len(lookups)),
        "plan_cache.full_hit_share": ratio(full_hits, n),
        "gmc.solve_ms": self_ms(tracing.SOLVE),
        "gmc.solve_p99_ms": (solve_p99, "ms", f"p{solve_used:.2f} of n={n}"),
        "gmc.solves_per_request": mean_count(lambda row: row[1][tracing.SOLVE]),
        "match_cache.hit_ratio": ratio(match["hits"], match["hits"] + match["misses"]),
        "codegen.emit_ms": self_ms(tracing.EMIT),
        "wire.serialize_ms": self_ms(tracing.WIRE),
        "exec.operands_ms": self_ms(tracing.OPERANDS),
        "exec.module_emit_ms": self_ms(tracing.MODULE_EMIT, only_where_run=True),
        "exec.import_ms": self_ms(tracing.IMPORT, only_where_run=True),
        "exec.module_hit_ratio": ratio(sum(modules), len(modules)),
        "exec.run_ms": self_ms(tracing.RUN),
        "exec.validate_ms": self_ms(tracing.VALIDATE),
        "proc.cpu_ms_per_request": (untraced.cpu_s * 1e3 / untraced_ok, "ms",
                                    f"untraced run, {untraced_ok} requests"),
        "trace.overhead_p50_ms": (overhead, "ms", "traced p50 - untraced p50"),
    }


def match_cache_counts(server: Server) -> Dict[str, int]:
    status, stats = request_json(server.port, "GET", "/stats")
    if status != 200:
        raise RuntimeError(f"GET /stats returned {status}")
    layer = stats["caches"]["match_cache"]
    return {"hits": int(layer["hits"]), "misses": int(layer["misses"])}


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------

def report(workload: str, seed: int, metrics: Dict[str, tuple],
           printed: Dict[str, tuple], runs: List[Run]) -> None:
    """Print every metric with its unit and sample count, then the result
    line: a JSON object holding *metrics* (the ones ``BENCHMARK.json``
    declares); *printed* appear only in the report."""
    attempted = sum(len(r.samples) for r in runs)
    failed = sum(len(r.errors) for r in runs)
    printed = dict(printed, error_rate=(failed / attempted, "ratio", f"{failed}/{attempted}"))
    print(f"workload {workload}  seed {seed}  clients {CLIENTS}  workers {WORKERS}")
    for name, (value, unit, note) in {**metrics, **printed}.items():
        print(f"  {name:28s} {value:14.6g} {unit:8s} {note}")
    for error in [e for r in runs for e in r.errors][:10]:
        print(f"  ERROR {error}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="compilation-service benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        checker = ReferenceChecker()
        if args.trace == 0:
            boot_times(1)
            setups = boot_times(SETUP_BOOTS)
            run = measure(service_command(), args.workload, args.seed,
                          args.seconds, checker)
            setups.append(run.setup_s)
            metrics, printed = end_to_end(run, setups), tail_latency(run)
            runs = [run]
        else:
            untraced = measure(service_command(), args.workload, args.seed,
                               args.seconds, checker)
            spans_dir = SCRATCH / "spans"
            spans_dir.mkdir(parents=True)
            traced = measure(traced_command(spans_dir), args.workload, args.seed,
                             args.seconds, checker, match_stats=True)
            metrics, printed = per_layer(untraced, traced, load_spans(spans_dir)), {}
            runs = [untraced, traced]
        report(args.workload, args.seed, metrics, printed, runs)
        return 0 if all(not r.errors for r in runs) else 1
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
