"""Arithmetic, spans and cold-process timing shared by the benchmark runner.

Nothing here imports the program under test, so the arithmetic can be
tested on its own (see ``test_perfbench_stats.py``).
"""

from __future__ import annotations

import os
import re
import statistics
import subprocess
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def valid_metric_name(name: str) -> bool:
    """Metric names start with a letter or digit and use only [A-Za-z0-9_.-]."""
    return METRIC_NAME.fullmatch(name) is not None


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """First quartile, median and third quartile, as statistics.quantiles gives them."""
    values = list(values)
    if len(values) < 2:
        raise ValueError("quartiles need at least two values")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def line_fit(xs, ys) -> tuple[float, float]:
    """Least-squares intercept and slope of ys against xs."""
    xs, ys = list(map(float, xs)), list(map(float, ys))
    if len(xs) != len(ys) or len(set(xs)) < 2:
        raise ValueError("a line fit needs two or more distinct x values")
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    return my - slope * mx, slope


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


class Tracer:
    """In-memory span recorder: name, start, end, parent and a run id per span."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part of it covered by its child spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = 0.0
        reach = s["start"]
        for start, end in sorted(children.get(s["id"], [])):
            start, end = max(start, reach), min(end, s["end"])
            if end > start:
                covered += end - start
                reach = end
        out[s["id"]] = duration(s) - covered
    return out


def self_time_by_name(spans: list[dict]) -> dict[str, float]:
    """Total self time per span name."""
    own = self_times(spans)
    totals: dict[str, float] = {}
    for s in spans:
        totals[s["name"]] = totals.get(s["name"], 0.0) + own[s["id"]]
    return totals


# ---------------------------------------------------------------------------
# cold processes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChildResult:
    argv: tuple[str, ...]
    exit_code: int
    seconds: float
    max_rss_kb: int
    stdout: str
    stderr: str


def run_child(argv, env, cwd, log_prefix, timeout=150.0) -> ChildResult:
    """Run one child to completion, timing it and reading its own max RSS.

    Output goes to files rather than pipes, so ``os.wait4`` can reap the
    child directly and report its resource usage; a timer kills a child
    that overruns ``timeout``.
    """
    out_path, err_path = log_prefix + ".out", log_prefix + ".err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=out, stderr=err)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return ChildResult(tuple(argv), proc.returncode, seconds, usage.ru_maxrss, stdout, stderr)
