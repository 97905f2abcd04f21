"""Span recording around the service's layers, installed from outside.

:func:`install` wraps the public entry points of each layer (HTTP handler,
pool routing and dispatch, request execution, DSL parse, segment
decomposition, plan cache, DP solvers, code generation, execution tier)
with recorders that append ``(span_id, parent_id, name, start, end,
request_id, value)`` tuples to an in-memory list.  Nothing inside ``src/``
changes: the wrappers replace attributes at the names the service looks
them up by.

Spans nest per thread.  A span's request id is the one current on its
thread when it ends: the dispatch and request-execution wrappers set it
from the request object, the HTTP handler wrapper clears it when a new
request starts.  Worker processes handle one message at a time, so spans a
worker records after its request's root span (the response ``to_dict``)
still carry that request's id.

Install before the worker pool forks, so the workers inherit the wrappers;
each worker writes its spans to ``<out_dir>/spans-<pid>.json`` when its
main loop returns at pool shutdown, and the serving process writes its own
with :meth:`SpanRecorder.dump`.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from typing import Callable, List, Optional

#: Span names, one per layer boundary (the per-layer metrics aggregate by
#: these names).
HTTP = "http"
ROUTE = "pool.route"
DISPATCH = "pool.dispatch"
API = "api"
COMPILE = "compiler.compile"
ANALYTICS = "analytics.record"
PARSE = "dsl.parse"
DECOMPOSE = "segments.decompose"
PLAN_LOOKUP = "plan_cache.lookup"
PLAN_STORE = "plan_cache.store"
SOLVE = "gmc.solve"
EMIT = "codegen.emit"
WIRE = "wire.serialize"
OPERANDS = "exec.operands"
MODULE_LOOKUP = "exec.module_lookup"
MODULE_EMIT = "exec.module_emit"
IMPORT = "exec.import"
RUN = "exec.run"
VALIDATE = "exec.validate"


class SpanRecorder:
    """In-memory span store with a per-thread stack of open spans."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def reset(self) -> None:
        """Forget inherited spans (a freshly forked worker starts empty)."""
        self.spans = []
        self._local = threading.local()

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.request_id = None
        return local

    def wrap(
        self,
        fn: Callable,
        name: str,
        *,
        request_id: Optional[Callable] = None,
        new_request: bool = False,
        value: Optional[Callable] = None,
    ) -> Callable:
        """*fn* recording one span named *name* per call.

        *request_id(args)* names the request the call serves; *new_request*
        clears the thread's request id first; *value(result)* attaches a
        number (a hit flag, a segment count) to the span.
        """
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local = recorder._state()
            if new_request:
                local.request_id = None
            if request_id is not None:
                local.request_id = request_id(args)
            sid = next(recorder._ids)
            parent = local.stack[-1] if local.stack else None
            local.stack.append(sid)
            number = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if value is not None:
                    number = value(result)
                return result
            finally:
                end = time.perf_counter()
                local.stack.pop()
                recorder.spans.append(
                    (sid, parent, name, start, end, local.request_id, number)
                )

        return wrapper

    def patch(self, owner, attr: str, name: str, **options) -> None:
        """Replace ``owner.attr`` (a module function, a method or a
        classmethod) with its recording wrapper."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self.wrap(raw.__func__, name, **options)))
        else:
            setattr(owner, attr, self.wrap(raw, name, **options))

    def dump(self, out_dir: str) -> str:
        path = os.path.join(out_dir, f"spans-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"pid": os.getpid(), "spans": self.spans}, handle)
        return path


class _TimedJson:
    """Stands in for the ``json`` module inside ``repro.service.http`` so
    that its ``json.dumps`` calls are timed; everything else passes through."""

    def __init__(self, module, dumps) -> None:
        self._module = module
        self.dumps = dumps

    def __getattr__(self, attr):
        return getattr(self._module, attr)


def install(recorder: SpanRecorder, out_dir: str) -> None:
    """Wrap every traced layer; workers forked afterwards dump on exit."""
    import repro.exec.api as exec_api
    import repro.frontend.compiler as compiler_module
    import repro.service.api as service_api
    import repro.service.http as service_http
    import repro.service.pool as pool_module
    from repro.core.gmc import GMCAlgorithm
    from repro.core.topdown import TopDownGMC
    from repro.exec.loader import LoadedModule, ModuleLoader
    from repro.frontend.compiler import CompilationResult, CompiledAssignment, Compiler
    from repro.obs.analytics import WorkloadAnalytics
    from repro.persist.plan_cache import CachedPlanSolution, PlanCache

    recorder.patch(service_http._ServiceRequestHandler, "do_POST", HTTP, new_request=True)
    pool = pool_module.WorkerPool
    recorder.patch(pool, "worker_for", ROUTE)
    recorder.patch(pool, "submit", DISPATCH, request_id=lambda a: a[1].request_id)
    recorder.patch(pool, "execute", DISPATCH, request_id=lambda a: a[1].request_id)
    recorder.patch(
        pool_module, "execute_request", API, request_id=lambda a: a[0].request_id
    )
    recorder.patch(
        exec_api, "run_execute_request", API, request_id=lambda a: a[0].request_id
    )
    recorder.patch(Compiler, "compile", COMPILE)
    recorder.patch(WorkloadAnalytics, "record_request", ANALYTICS)
    recorder.patch(service_api, "parse_program", PARSE)
    recorder.patch(compiler_module, "parse_program", PARSE)
    recorder.patch(
        compiler_module, "decompose_program", DECOMPOSE, value=lambda plan: len(plan)
    )
    recorder.patch(
        PlanCache, "lookup", PLAN_LOOKUP, value=lambda hit: int(hit is not None)
    )
    recorder.patch(CachedPlanSolution, "kernel_calls", PLAN_LOOKUP)
    recorder.patch(PlanCache, "store", PLAN_STORE)
    recorder.patch(GMCAlgorithm, "solve", SOLVE)
    recorder.patch(TopDownGMC, "solve", SOLVE)
    recorder.patch(CompiledAssignment, "emit", EMIT)
    for cls in (service_api.CompileResponse, exec_api.ExecuteResponse):
        recorder.patch(cls, "to_dict", WIRE)
        recorder.patch(cls, "from_dict", WIRE)
    service_http.json = _TimedJson(json, recorder.wrap(json.dumps, WIRE))
    recorder.patch(exec_api, "random_environment", OPERANDS)
    recorder.patch(
        ModuleLoader, "lookup", MODULE_LOOKUP, value=lambda hit: int(hit is not None)
    )
    recorder.patch(CompilationResult, "emit_stitched", MODULE_EMIT)
    recorder.patch(ModuleLoader, "load", IMPORT)
    recorder.patch(LoadedModule, "run", RUN)
    recorder.patch(exec_api, "reference_evaluate", VALIDATE)
    recorder.patch(exec_api, "_compare", VALIDATE)

    worker_main = pool_module._worker_main

    @functools.wraps(worker_main)
    def traced_worker_main(*args, **kwargs):
        recorder.reset()
        try:
            return worker_main(*args, **kwargs)
        finally:
            recorder.dump(out_dir)

    pool_module._worker_main = traced_worker_main

