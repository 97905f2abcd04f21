"""Tests of the service benchmark's own helpers.

Run with ``python -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import itertools
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import procfs  # noqa: E402
import tracing  # noqa: E402
from stats import self_times, tail_percentile  # noqa: E402
from workloads import WORKLOADS, rename_operands, request_stream  # noqa: E402


# ------------------------------------------------------------- percentiles
def test_tail_percentile_is_p99_when_enough_samples_lie_beyond():
    values = list(range(1, 2001))  # 2000 samples: p99 has 20 beyond it
    value, used = tail_percentile(values)
    assert value == 1980
    assert used == pytest.approx(99.0)


def test_tail_percentile_lowers_the_rank_to_keep_ten_beyond():
    values = list(range(1, 201))  # 200 samples: p99 would leave 2 beyond
    value, used = tail_percentile(values)
    assert sum(1 for v in values if v > value) == 10
    assert used == pytest.approx(95.0)


def test_tail_percentile_of_exactly_eleven_samples_is_the_minimum():
    value, used = tail_percentile([5.0, 1.0] + [9.0] * 9)
    assert value == 1.0
    assert used == pytest.approx(100.0 / 11)


def test_tail_percentile_refuses_samples_without_a_tail():
    with pytest.raises(ValueError):
        tail_percentile(list(range(10)))


# --------------------------------------------------------------- self time
def test_self_time_subtracts_the_children():
    spans = [
        ("root", None, 0.0, 10.0),
        ("a", "root", 1.0, 3.0),
        ("b", "root", 4.0, 5.0),
        ("a1", "a", 1.5, 2.5),
    ]
    result = self_times(spans)
    assert result["root"] == pytest.approx(10.0 - 2.0 - 1.0)
    assert result["a"] == pytest.approx(1.0)
    assert result["a1"] == pytest.approx(1.0)
    assert result["b"] == pytest.approx(1.0)


def test_recorded_spans_nest_and_carry_the_request_id():
    recorder = tracing.SpanRecorder()

    class Request:
        request_id = "r1"

    def inner():
        time.sleep(0.002)

    def outer(request):
        time.sleep(0.002)
        traced_inner()
        return "done"

    traced_inner = recorder.wrap(inner, "inner")
    traced_outer = recorder.wrap(
        outer, "outer", request_id=lambda args: args[0].request_id, value=len
    )
    assert traced_outer(Request()) == "done"
    by_name = {span[2]: span for span in recorder.spans}
    inner_span, outer_span = by_name["inner"], by_name["outer"]
    assert inner_span[1] == outer_span[0]
    assert inner_span[5] == outer_span[5] == "r1"
    assert outer_span[6] == 4
    selfs = self_times([(s[0], s[1], s[3], s[4]) for s in recorder.spans])
    inner_duration = inner_span[4] - inner_span[3]
    outer_duration = outer_span[4] - outer_span[3]
    assert selfs[outer_span[0]] == pytest.approx(outer_duration - inner_duration)


# --------------------------------------------------------------- workloads
@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_seed_gives_byte_identical_request_bodies(workload):
    first = [r.body for r in itertools.islice(request_stream(workload, 7), 25)]
    again = [r.body for r in itertools.islice(request_stream(workload, 7), 25)]
    other = [r.body for r in itertools.islice(request_stream(workload, 8), 25)]
    assert first == again
    assert first != other
    assert len(set(first)) == len(first)  # operands renamed per request


def test_renamed_operands_keep_the_signature():
    from repro.algebra.dsl import parse_program

    source = "Matrix A (4, 4) <SPD>\nMatrix AB (4, 3) <>\nX := A^-1 * AB\n"
    renamed = rename_operands(source, "r1")
    assert "A_r1" in renamed and "AB_r1" in renamed and "X :=" in renamed

    def signature(text):
        return [expr.signature() for _, expr in parse_program(text).assignments]

    assert signature(renamed) == signature(source)


# ------------------------------------------------------------------ procfs
def test_process_tree_is_read_from_proc():
    child = subprocess.Popen(
        [sys.executable, "-c", "import time; time.sleep(30)"],
        stdin=subprocess.DEVNULL,
    )
    try:
        members = procfs.tree(procfs.os.getpid())
        assert child.pid in members
        assert procfs.alive(child.pid)
        assert procfs.peak_rss_mb([child.pid]) > 0
        assert procfs.cpu_seconds(members) > 0
    finally:
        child.kill()
        child.wait(timeout=10)
    assert not procfs.alive(child.pid)
