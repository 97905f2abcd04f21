"""Tests for the compilation service (API, executors, pool, HTTP)."""

from __future__ import annotations

import http.client
import io
import json
import multiprocessing
import os
import re
import statistics
import time
import urllib.error
import urllib.request
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from urllib.parse import urlparse

import pytest

from repro.algebra.dsl import abstract_operand_names
from repro.experiments.workload import jacobian_workload
from repro.frontend import compile_source
from repro.options import CompileOptions
from repro.service import (
    CompileRequest,
    CompileResponse,
    InProcessExecutor,
    RequestError,
    WorkerPool,
    create_executor,
    execute_request,
)
from repro.runtime import blas_threads as blas_threads_module
from repro.runtime.blas_threads import blas_threads, set_blas_threads, thread_budget
from repro.service.http import _ServiceRequestHandler, start_server

#: Template for structurally similar chains: same shapes/properties/structure,
#: different operand names per tag (so identity/equality caches miss but the
#: signature-keyed match cache hits).
TEMPLATE = """
Matrix A{t} (200, 200) <spd>
Matrix B{t} (200, 100) <>
Matrix C{t} (100, 100) <lower_triangular, non_singular>
X := A{t}^-1 * B{t} * C{t}^T
"""


def similar_sources(count: int, prefix: str = "S"):
    return [TEMPLATE.replace("{t}", f"{prefix}{index}") for index in range(count)]


# ---------------------------------------------------------------------------
# Request/response model
# ---------------------------------------------------------------------------

class TestApi:
    def test_request_roundtrips_through_dict(self):
        request = CompileRequest(
            source="Matrix A (4, 4) <>\nX := A * A\n",
            options=CompileOptions(
                metric="flops",
                solver="topdown",
                emit=("julia",),
                prune=False,
                match_cache=False,
            ),
        )
        clone = CompileRequest.from_dict(json.loads(json.dumps(request.to_dict())))
        assert clone == request

    def test_structured_spec_equals_source(self):
        structured = CompileRequest(
            operands={
                "A": {"rows": 200, "columns": 200, "properties": ["spd"]},
                "B": {"rows": 200, "columns": 100},
            },
            assignments=[{"target": "X", "expression": "A^-1 * B"}],
        )
        textual = CompileRequest(
            source="Matrix A (200, 200) <spd>\nMatrix B (200, 100) <>\nX := A^-1 * B\n"
        )
        left = execute_request(structured)
        right = execute_request(textual)
        assert left.ok and right.ok
        assert left.kernel_sequences == right.kernel_sequences == {"X": ["POSV"]}

    @pytest.mark.parametrize(
        "payload",
        [
            {},  # neither source nor spec
            {"source": "X := A\n", "metric": "nonsense"},
            {"source": "X := A\n", "solver": "nonsense"},
            {"source": "X := A\n", "emit": ["fortran"]},
            {"source": "X := A\n", "bogus_field": 1},
            # Options travel only as a nested "options" object.
            {"source": "Matrix A (4, 4) <>\nX := A * A\n", "metric": "flops"},
        ],
    )
    def test_malformed_requests_raise(self, payload):
        with pytest.raises(RequestError):
            CompileRequest.from_dict(payload)

    def test_execution_errors_fold_into_response(self):
        response = execute_request(CompileRequest(source="this is not DSL"))
        assert not response.ok
        assert response.error
        assert response.assignments == []

    def test_response_roundtrips_through_dict(self):
        response = execute_request(CompileRequest(source=similar_sources(1)[0]))
        clone = CompileResponse.from_dict(json.loads(json.dumps(response.to_dict())))
        assert clone.kernel_sequences == response.kernel_sequences
        assert clone.ok and clone.total_flops == response.total_flops

    def test_program_key_is_name_abstracted(self):
        a, b = similar_sources(2)
        key_a, names_a = abstract_operand_names(a)
        key_b, names_b = abstract_operand_names(b)
        assert key_a == key_b and names_a != names_b
        different = "Matrix A (7, 7) <>\nX := A * A * A\n"
        assert abstract_operand_names(different)[0] != key_a


# ---------------------------------------------------------------------------
# In-process executor (the tier-1 path: no processes are spawned)
# ---------------------------------------------------------------------------

class TestInProcessExecutor:
    def test_create_executor_fallback_spawns_nothing(self):
        before = multiprocessing.active_children()
        executor = create_executor(in_process=True)
        assert isinstance(executor, InProcessExecutor)
        assert executor.workers == 0
        executor.submit(CompileRequest(source=similar_sources(1)[0]))
        assert multiprocessing.active_children() == before
        executor.close()
        assert isinstance(create_executor(workers=0), InProcessExecutor)

    def test_batch_matches_compile_source(self):
        sources = similar_sources(20, prefix="InP")
        with create_executor(in_process=True) as executor:
            responses = executor.compile_batch(
                [CompileRequest(source=source) for source in sources]
            )
        assert all(response.ok for response in responses)
        for source, response in zip(sources, responses):
            direct = compile_source(source)
            assert response.assignment("X").kernels == direct.assignment(
                "X"
            ).kernel_sequence
            assert response.assignment("X").flops == pytest.approx(
                direct.assignment("X").flops
            )

    def test_emitted_code_matches_frontend(self):
        # Emitters number temporaries per program, so the code is identical
        # byte for byte, whatever either process compiled before.
        source = similar_sources(1, prefix="Code")[0]
        with create_executor(in_process=True) as executor:
            response = executor.submit(
                CompileRequest(
                    source=source, options=CompileOptions(emit=("julia", "numpy"))
                )
            )
        direct = compile_source(source)
        assert response.assignment("X").code["julia"] == direct.assignment("X").julia()
        assert response.assignment("X").code["numpy"] == direct.assignment("X").numpy()

    def test_stats_reflect_real_hits_and_reset(self):
        with create_executor(in_process=True) as executor:
            executor.reset_stats()
            sources = similar_sources(6, prefix="Stats")
            executor.compile_batch([CompileRequest(source=s) for s in sources])
            stats = executor.stats()
            assert stats["mode"] == "in-process"
            assert stats["pool"]["requests"] == 6
            # Requests 2..6 are renamed copies of request 1: the program
            # cache answers them before anything is parsed.
            program = stats["caches"]["program_cache"]
            assert (program["hits"], program["misses"]) == (5, 1)
            for layer in (
                "program_cache",
                "plan_cache",
                "match_cache",
                "inference",
                "kernel_cost",
            ):
                entry = stats["caches"][layer]
                for key in ("hits", "misses", "hit_rate", "size", "evictions"):
                    assert key in entry, (layer, key)
            # A program sharing the X segment but with an extra assignment
            # misses the program cache; the plan cache answers the shared
            # segment.
            extended = TEMPLATE.replace("{t}", "Ext") + "Y := BExt^T * BExt\n"
            assert executor.submit(CompileRequest(source=extended)).ok
            caches = executor.stats()["caches"]
            assert caches["program_cache"]["misses"] == 2
            assert caches["plan_cache"]["hits"] >= 1
            executor.reset_stats()
            after = executor.stats()
            assert after["pool"]["requests"] == 0
            assert after["caches"]["program_cache"]["hits"] == 0
            assert after["caches"]["match_cache"]["hits"] == 0

    def test_bad_request_is_error_response(self):
        with create_executor(in_process=True) as executor:
            response = executor.submit(CompileRequest(source="garbage ::= input"))
        assert not response.ok
        assert "Error" in (response.error or "")

    def test_concurrent_requests_stay_consistent(self):
        """Concurrent submits through the shared caches corrupt nothing."""
        sources = similar_sources(8, prefix="Thr") + [
            "Matrix D (60, 60) <diagonal, non_singular>\n"
            "Matrix E (60, 30) <>\nY := D^-1 * E\n"
        ] * 4
        expected = {
            source: compile_source(source).assignments[0].kernel_sequence
            for source in set(sources)
        }
        with create_executor(in_process=True) as executor:
            with ThreadPoolExecutor(max_workers=6) as clients:
                responses = list(
                    clients.map(
                        lambda source: executor.submit(CompileRequest(source=source)),
                        sources * 3,
                    )
                )
        for source, response in zip(sources * 3, responses):
            assert response.ok, response.error
            assert response.assignments[0].kernels == expected[source]


# ---------------------------------------------------------------------------
# Worker pool (persistent warm-cache processes)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="class")
def pool():
    pool = WorkerPool(workers=2, request_timeout=120.0)
    yield pool
    pool.close()


class TestWorkerPool:
    def test_batch_matches_compile_source(self, pool):
        sources = similar_sources(10, prefix="Pool")
        responses = pool.compile_batch(
            [CompileRequest(source=source) for source in sources]
        )
        assert all(response.ok for response in responses)
        direct = compile_source(sources[0])
        for response in responses:
            assert response.assignment("X").kernels == direct.assignment(
                "X"
            ).kernel_sequence

    def test_batch_spreads_evenly_over_workers(self, pool):
        # Load routing: a batch of 2N requests puts N on each of 2 workers,
        # whatever their structure.
        requests = [CompileRequest(source=s) for s in similar_sources(8, prefix="Even")]
        responses = pool.compile_batch(requests)
        assert all(response.ok for response in responses)
        assert Counter(response.worker for response in responses) == {0: 4, 1: 4}

    def test_concurrent_routing_balances_and_releases_every_slot(self, pool):
        import sys

        sources = similar_sources(32, prefix="Conc")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=8) as clients:
                futures = [
                    clients.submit(pool.submit, CompileRequest(source=source), 60.0)
                    for source in sources
                ]
                responses = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(response.ok for response in responses)
        assert {response.worker for response in responses} == {0, 1}
        with pool._lock:
            assert pool._request_load == [0, 0]

    def test_pooled_stats_reflect_hits(self, pool):
        pool.reset_stats()
        sources = similar_sources(8, prefix="PStats")
        pool.compile_batch([CompileRequest(source=source) for source in sources])
        stats = pool.stats()
        assert stats["mode"] == "pool"
        assert stats["workers"] == 2
        assert stats["pool"]["requests"] == 8
        # Each worker's program cache answers renamed repeats: at most one
        # miss per worker (none when earlier tests already warmed it).
        assert stats["caches"]["program_cache"]["hits"] >= 6
        assert stats["caches"]["program_cache"]["hit_rate"] > 0.5
        assert len(stats["per_worker"]) == 2

    def test_worker_crash_restarts_and_recovers(self, pool):
        requests = [
            CompileRequest(source=s) for s in similar_sources(4, prefix="Crash")
        ]
        target = 0
        restarts_before = pool.restarts
        pool.crash_worker(target)
        assert not pool._procs[target].is_alive()
        responses = pool.compile_batch(requests, timeout=60.0)
        assert all(response.ok for response in responses)
        assert pool.restarts == restarts_before + 1
        assert pool.ping()["status"] == "ok"

    def test_ping_reports_all_workers(self, pool):
        health = pool.ping()
        assert health["alive"] == health["workers"] == 2

    def test_workers_run_their_share_of_blas_threads(self, pool):
        for entry in pool.stats()["per_worker"]:
            assert entry["blas_threads"] == _pool_share(workers=2)

    def test_restarted_worker_gets_the_same_blas_budget(self, pool):
        before = pool.stats()["per_worker"][0]["pid"]
        pool.crash_worker(0)
        assert pool.ping()["status"] == "ok"
        after = pool.stats()["per_worker"][0]
        assert after["pid"] != before
        assert after["blas_threads"] == _pool_share(workers=2)


# ---------------------------------------------------------------------------
# BLAS thread budget
# ---------------------------------------------------------------------------

def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _pool_share(workers: int) -> dict:
    """Every OpenBLAS this process maps, at one worker's share of the CPUs."""
    share = max(1, _usable_cpus() // workers)
    return {name: share for name in blas_threads()}


def test_user_thread_setting_leaves_worker_blas_alone(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    parent = blas_threads()
    with WorkerPool(workers=2, request_timeout=120.0) as pool:
        assert pool.blas_budget is None
        for entry in pool.stats()["per_worker"]:
            assert entry["blas_threads"] == parent


@pytest.mark.parametrize("variable", blas_threads_module.THREAD_ENV_VARS)
def test_thread_budget_defers_to_user_settings(monkeypatch, variable):
    for name in blas_threads_module.THREAD_ENV_VARS:
        monkeypatch.delenv(name, raising=False)
    assert thread_budget(2) == max(1, _usable_cpus() // 2)
    assert thread_budget(10 * _usable_cpus()) == 1
    monkeypatch.setenv(variable, "3")
    assert thread_budget(2) is None


@pytest.mark.parametrize(
    "maps",
    [
        None,  # no /proc (non-Linux)
        "",
        "7f00-7f01 r-xp 00000000 08:01 42 /usr/lib/libmkl_rt.so.2\n",
    ],
    ids=["missing", "empty", "no-openblas"],
)
def test_blas_helper_is_a_noop_without_openblas(tmp_path, monkeypatch, maps):
    path = tmp_path / "maps"
    if maps is not None:
        path.write_text(maps)
    monkeypatch.setattr(blas_threads_module, "MAPS_PATH", str(path))
    assert blas_threads() == {}
    assert set_blas_threads(1) == {}


# ---------------------------------------------------------------------------
# Name-keyed memos are per-request scratch in both executors
# ---------------------------------------------------------------------------

#: Jacobian sibling models (fresh operand names per model, one structure);
#: each executor gets its own slice so no name was seen before.
JACOBIAN_MODELS = jacobian_workload(60, 6)

#: Segment-level plan-cache hit rate of 30 models sharing two segment
#: signatures (one Gram, one block) across 7 segments each.
JACOBIAN_PLAN_HIT_RATE = 1 - 2 / (30 * 7)


def _own_targets(source, index):
    """*source* with its targets (``G``, ``J<k>``) suffixed by *index*:
    target names stay verbatim in the program-cache key, so models renamed
    this way miss the program cache but still share plan segments."""
    return re.sub(r"\b(G|J\d+)\b", rf"\g<1>_{index}", source)


EXECUTOR_MODELS = pytest.mark.parametrize(
    "make_executor, models",
    [
        (InProcessExecutor, JACOBIAN_MODELS[:30]),
        (lambda: WorkerPool(workers=1, request_timeout=120.0), JACOBIAN_MODELS[30:]),
    ],
    ids=["in-process", "pool"],
)


@EXECUTOR_MODELS
def test_name_keyed_memos_do_not_grow_across_requests(make_executor, models):
    memos = ("inference", "kernel_cost")
    served = {}
    with make_executor() as executor:
        executor.reset_stats()
        sizes = {}
        for index, model in enumerate(models, start=1):
            # Every request misses the program cache, so each one is
            # parsed, decomposed and rebound and fills the memos afresh.
            source = _own_targets(model.source, index)
            response = executor.submit(CompileRequest(source=source))
            assert response.ok
            served[source] = [a.kernels for a in response.assignments]
            if index in (5, 30):
                caches = executor.stats()["caches"]
                sizes[index] = {memo: caches[memo]["size"] for memo in memos}
        caches = executor.stats()["caches"]
    for memo in memos:
        assert sizes[30][memo] <= sizes[5][memo], (memo, sizes)
    assert caches["program_cache"]["hits"] == 0
    assert caches["program_cache"]["misses"] == 30
    # Warmth across requests lives in the name-abstracted plan cache.
    assert caches["plan_cache"]["hit_rate"] == pytest.approx(JACOBIAN_PLAN_HIT_RATE)
    # Plan-cache hits must equal a plan-cache-disabled compile.
    uncached = CompileOptions(plan_cache=False)
    for source, kernels in served.items():
        reference = compile_source(source, options=uncached)
        assert kernels == [a.kernel_sequence for a in reference.assignments]


@EXECUTOR_MODELS
def test_renamed_repeats_are_program_cache_hits(make_executor, models):
    with make_executor() as executor:
        executor.reset_stats()
        for model in models:
            assert executor.submit(CompileRequest(source=model.source)).ok
        caches = executor.stats()["caches"]
    # The models share one program key: only the first reaches the plan
    # cache, which misses on its two distinct segment signatures.
    assert caches["program_cache"]["hit_rate"] == pytest.approx(29 / 30)
    assert caches["plan_cache"]["misses"] == 2


# ---------------------------------------------------------------------------
# HTTP front-end
# ---------------------------------------------------------------------------

@pytest.fixture(scope="class")
def http_service():
    executor = InProcessExecutor()
    server, thread = start_server(executor, port=0)
    base = f"http://127.0.0.1:{server.server_address[1]}"
    yield base
    server.shutdown()
    thread.join(timeout=5.0)
    executor.close()


def _get(url):
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.status, json.loads(response.read())


def _post(url, payload):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        return response.status, json.loads(response.read())


class TestHTTP:
    def test_compile_endpoint_matches_direct(self, http_service):
        source = similar_sources(1, prefix="Http")[0]
        status, body = _post(f"{http_service}/compile", {"source": source})
        assert status == 200 and body["ok"]
        direct = compile_source(source)
        assert body["assignments"][0]["kernels"] == direct.assignment(
            "X"
        ).kernel_sequence

    def test_batch_endpoint(self, http_service):
        sources = similar_sources(5, prefix="HBatch")
        status, body = _post(
            f"{http_service}/batch",
            {"requests": [{"source": source} for source in sources]},
        )
        assert status == 200
        assert body["count"] == 5 and body["failed"] == 0
        kernels = {
            tuple(response["assignments"][0]["kernels"])
            for response in body["responses"]
        }
        assert len(kernels) == 1

    def test_stats_reflect_real_hit_counts(self, http_service):
        _, before = _get(f"{http_service}/stats")
        sources = similar_sources(4, prefix="HStats")
        _post(
            f"{http_service}/batch",
            {"requests": [{"source": source} for source in sources]},
        )
        _, after = _get(f"{http_service}/stats")
        # Renamed repeats are answered by the program cache, before the
        # plan and match caches are consulted.
        layer_before = before["caches"]["program_cache"]
        layer_after = after["caches"]["program_cache"]
        assert layer_after["hits"] > layer_before["hits"]
        new_lookups = (
            layer_after["hits"]
            + layer_after["misses"]
            - layer_before["hits"]
            - layer_before["misses"]
        )
        new_hits = layer_after["hits"] - layer_before["hits"]
        assert new_lookups > 0
        assert new_hits / new_lookups > 0.5

    def test_healthz(self, http_service):
        status, body = _get(f"{http_service}/healthz")
        assert status == 200 and body["status"] == "ok"

    def test_malformed_json_is_400(self, http_service):
        request = urllib.request.Request(
            f"{http_service}/compile",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400

    def test_unknown_field_is_400(self, http_service):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(f"{http_service}/compile", {"sauce": "typo"})
        assert excinfo.value.code == 400

    def test_flat_option_key_is_400(self, http_service):
        """Options travel only under ``options``; a flat key is an unknown field."""
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(
                f"{http_service}/compile",
                {"source": similar_sources(1, prefix="Flat")[0], "metric": "flops"},
            )
        assert excinfo.value.code == 400
        assert "metric" in json.loads(excinfo.value.read())["error"]

    def test_compile_error_is_400_with_error_body(self, http_service):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(f"{http_service}/compile", {"source": "garbage ::= input"})
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read())
        assert body["ok"] is False and body["error"]

    def test_unknown_path_is_404(self, http_service):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(f"{http_service}/nope")
        assert excinfo.value.code == 404

    def test_keep_alive_requests_do_not_stall(self, http_service):
        """Sequential requests on one persistent connection answer in
        milliseconds: no response waits out the client's delayed ACK."""
        url = urlparse(http_service)
        connection = http.client.HTTPConnection(url.hostname, url.port, timeout=60)
        round_trips = []
        try:
            for source in similar_sources(20, prefix="KeepAlive"):
                started = time.perf_counter()
                connection.request(
                    "POST",
                    "/compile",
                    body=json.dumps({"source": source}),
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                body = json.loads(response.read())
                round_trips.append(time.perf_counter() - started)
                assert response.status == 200 and body["ok"]
        finally:
            connection.close()
        assert statistics.median(round_trips) < 0.015, round_trips

    @pytest.mark.parametrize("size", [10, 200_000])
    def test_response_is_one_socket_write(self, size):
        handler = _bare_handler("HTTP/1.1")
        handler._send_json(200, {"ok": True, "pad": "x" * size})
        assert handler.wfile.writes == 1
        head, _, body = handler.wfile.getvalue().partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 ")
        assert f"Content-Length: {len(body)}".encode() in head
        assert json.loads(body)["pad"] == "x" * size

    def test_http09_response_is_the_bare_body(self):
        handler = _bare_handler("HTTP/0.9")
        handler._send_json(200, {"ok": True})
        assert handler.wfile.writes == 1
        assert json.loads(handler.wfile.getvalue()) == {"ok": True}


class _CountingWriter(io.BytesIO):
    writes = 0

    def write(self, data):
        self.writes += 1
        return super().write(data)


def _bare_handler(version):
    """A request handler without a socket, writing into a _CountingWriter."""
    handler = _ServiceRequestHandler.__new__(_ServiceRequestHandler)
    handler.request_version = version
    handler.requestline = f"GET /healthz {version}"
    handler.wfile = _CountingWriter()
    return handler


# ---------------------------------------------------------------------------
# CLI (--serve boots a working server)
# ---------------------------------------------------------------------------

def _boot_cli(*flags):
    """Start ``python -m repro.frontend --serve --port 0 *flags``; return the
    process and its base URL once ``/healthz`` answers 200."""
    import re
    import subprocess
    import sys
    import time

    process = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro.frontend", "--serve", *flags,
         "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        banner = process.stdout.readline()
        match = re.search(r"http://127\.0\.0\.1:(\d+)", banner)
        assert match, f"no address in banner: {banner!r}"
        base = f"http://127.0.0.1:{match.group(1)}"
        deadline = time.time() + 30
        while True:
            try:
                status, body = _get(f"{base}/healthz")
                break
            except OSError:
                assert time.time() < deadline, "server never became healthy"
                time.sleep(0.2)
        assert status == 200 and body["status"] == "ok"
    except BaseException:
        process.kill()
        process.wait(timeout=10)
        raise
    return process, base


def _proc_stat(pid):
    """``(state, ppid)`` of a live process from ``/proc``, else ``None``."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return fields[0], int(fields[1])


def _children(pid):
    return [
        int(entry)
        for entry in os.listdir("/proc")
        if entry.isdigit() and (_proc_stat(entry) or ("", -1))[1] == pid
    ]


def _alive(pid):
    stat = _proc_stat(pid)
    return stat is not None and stat[0] != "Z"


class TestServeCLI:
    def test_serve_flag_boots_http_server(self):
        process, base = _boot_cli("--in-process")
        try:
            status, body = _post(
                f"{base}/compile", {"source": similar_sources(1, "Cli")[0]}
            )
            assert status == 200 and body["ok"]
        finally:
            process.terminate()
            process.wait(timeout=10)

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
    def test_sigterm_shuts_the_pool_workers_down(self):
        """SIGTERM takes the same clean-shutdown path as Ctrl-C: the server
        exits 0 and no pool worker outlives it."""
        import signal
        import time

        process, _ = _boot_cli("--workers", "2")
        workers = []
        try:
            workers = _children(process.pid)
            assert len(workers) >= 2, workers
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 0
            deadline = time.time() + 10
            while any(_alive(pid) for pid in workers) and time.time() < deadline:
                time.sleep(0.1)
            assert not [pid for pid in workers if _alive(pid)]
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)
            for pid in workers:  # never leak orphans from a failed run
                if _alive(pid):
                    os.kill(pid, signal.SIGKILL)
