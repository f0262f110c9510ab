"""Times and checks the benchmark's calls into lupi.

``Runner.op`` is the only place a call into the library is timed. It counts
the operation as attempted, records its duration (and a span, while a
traced sample runs), then runs the check outside the timed interval. A call
that raises or a check that reports a problem is a failed operation; the
run goes on.

A task sample's time is its wall time minus the time spent in checks, so it
includes the benchmark's own bookkeeping, and in a traced sample the cost
of recording spans: the difference between traced and untraced samples of
the same task is the tracing overhead.

Times are calibrated. The speed of a shared machine drifts by 20% and more
over tens of seconds, and that drift, not lupi, would dominate the spread
between runs. So a fixed reference loop that uses no lupi code is timed
five times right before and five times right after every task (or every op
outside a task), and each sample is scaled by ``CAL_REF_S`` over the mean
of the fastest timing on each side. Taking both sides follows a drift
during the task; taking the fastest of five drops timings that an
interruption stretched. ``CAL_REF_S`` is the loop's fastest time on the
2-CPU x86-64 box the benchmark was tuned on; it only fixes the scale, so
that calibrated seconds read close to wall seconds there. The loop tracks
interpreter-bound and small-array code well and memory-bound code (the
simulator) less well. Raw wall times are kept beside the calibrated ones.
"""

from __future__ import annotations

import math
import time
import traceback
from collections import defaultdict

import numpy as np

from spans import Tracer
from stats import median

MAX_FAILURES_KEPT = 20
CAL_REF_S = 0.0025


def reference_loop() -> float:
    """Interpreter-bound arithmetic plus many small numpy calls, as lupi's kernels make."""
    acc = 0.0
    for k in range(15000):
        acc += (k % 13) * 0.5
    x = np.linspace(0.0, 1.0, 64)
    for _ in range(150):
        x = np.cumsum(x)
        x = x / x[-1]
        acc += math.fsum(x[:8])
    return acc


def calibration_s() -> float:
    """Fastest of five timings of the reference loop, which shrugs off interrupted timings."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - start)
    return min(times)


def calibrated(fn):
    """Run ``fn()``; return its result and the factor that turns its wall time into calibrated time."""
    before = calibration_s()
    result = fn()
    return result, CAL_REF_S / (0.5 * (before + calibration_s()))


class Runner:
    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self._tracing = False
        self._check_s = 0.0
        self._in_task = False
        self._pending: list[tuple[str, float]] = []  # ops of the running task, raw seconds
        self.task_times: dict[str, tuple[list, list]] = defaultdict(lambda: ([], []))  # untraced, traced
        self.task_raw: dict[str, tuple[list, list]] = defaultdict(lambda: ([], []))
        self.task_spans: dict[str, list[tuple[int, float]]] = defaultdict(list)  # span, calibration factor
        self.op_times: dict[str, list[float]] = defaultdict(list)
        self.op_raw: dict[str, list[float]] = defaultdict(list)
        self.calibrations: list[float] = []  # reference-loop seconds, one per settled sample
        self.counts: dict[str, int] = {}
        self.errors: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    # -- operations ---------------------------------------------------------

    def op(self, name: str, fn, *args, check=None, **kwargs):
        """Call ``fn``, time it under ``name``, check the result; None if it raised."""
        if not self._in_task:
            result, factor = calibrated(lambda: self._op(name, fn, args, kwargs, check))
            self._settle(factor)
            return result
        return self._op(name, fn, args, kwargs, check)

    def _op(self, name: str, fn, args, kwargs, check):
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:  # a failing call is a failed operation, not an abort
            self._timed(name, start)
            self.fail(name, traceback.format_exc(limit=3))
            return None
        self._timed(name, start)
        if check is not None:
            check_start = time.perf_counter()
            try:
                problem = check(result)
            except Exception:
                problem = "check raised: " + traceback.format_exc(limit=3)
            self._check_s += time.perf_counter() - check_start
            if problem:
                self.fail(name, problem)
        return result

    def _timed(self, name: str, start: float) -> None:
        end = time.perf_counter()
        self._pending.append((name, end - start))
        if self._tracing:
            self.tracer.record(name, start, end)

    def _settle(self, factor: float) -> None:
        self.calibrations.append(CAL_REF_S / factor)
        for name, seconds in self._pending:
            self.op_raw[name].append(seconds)
            self.op_times[name].append(seconds * factor)
        self._pending.clear()

    def fail(self, name: str, problem: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_FAILURES_KEPT:
            self.failures.append(f"{name}: {problem.strip()}")

    def count(self, name: str, value: int) -> None:
        """Record a deterministic work count; a repeat that disagrees is a failure."""
        if name in self.counts and self.counts[name] != value:
            self.fail(name, f"work count changed between repeats: {self.counts[name]} then {value}")
        self.counts.setdefault(name, value)

    def error(self, name: str, value: float) -> None:
        """Keep the largest numerical error seen under ``name``."""
        self.errors[name] = max(self.errors.get(name, 0.0), value)

    # -- tasks --------------------------------------------------------------

    def run_task(self, task, traced: bool) -> None:
        self._tracing = traced
        self._in_task = True
        if traced:
            span = self.tracer.open("task." + task.name)
        self._check_s = 0.0

        def body() -> float:
            start = time.perf_counter()
            task.fn(self)
            return time.perf_counter() - start - self._check_s

        elapsed, factor = calibrated(body)
        if traced:
            self.tracer.close()
            self.task_spans[task.name].append((span, factor))
        self._settle(factor)
        self.task_raw[task.name][traced].append(elapsed)
        self.task_times[task.name][traced].append(elapsed * factor)
        self._in_task = False
        self._tracing = False

    def run_for(self, tasks: list, seconds: float, *, min_passes: int = 1, tracing: str = "off") -> int:
        """Cycle through ``tasks`` until ``seconds`` have passed and ``min_passes`` are done.

        ``tracing`` is ``off``, ``on``, or ``alternate``: every second sample of
        each task traced, with neighbouring tasks out of phase so that drift
        over the run falls on traced and untraced samples alike. Returns the
        number of whole passes completed.
        """
        phase = {t.name: i for i, t in reversed(list(enumerate(tasks)))}
        start = time.perf_counter()
        passes = 0
        while True:
            for task in tasks:
                if passes >= min_passes and time.perf_counter() - start >= seconds:
                    return passes
                untraced, traced = self.task_times[task.name]
                sample = len(untraced) + len(traced) + phase[task.name]
                self.run_task(task, tracing == "on" or (tracing == "alternate" and sample % 2 == 1))
            passes += 1
            if passes >= min_passes and time.perf_counter() - start >= seconds:
                return passes

    def traced(self, name: str, body) -> None:
        """Run ``body(self)`` with tracing on, under one span."""
        self._tracing = True
        self.tracer.open(name)
        try:
            body(self)
        finally:
            self.tracer.close()
            self._tracing = False

    # -- summaries ----------------------------------------------------------

    def pass_seconds(self, tasks: list, traced: bool = False, raw: bool = False) -> float:
        """One pass over ``tasks``: the sum of each entry's median sample."""
        times = self.task_raw if raw else self.task_times
        return sum(median(times[t.name][traced]) for t in tasks)

    def group_metrics(self, tasks: list) -> dict[str, float]:
        """Per end-to-end group: the sum of its distinct tasks' medians, or
        units per second for groups whose tasks carry units."""
        seconds: dict[str, float] = defaultdict(float)
        units: dict[str, int] = defaultdict(int)
        for task in {t.name: t for t in tasks if t.group}.values():
            seconds[task.group] += median(self.task_times[task.name][False])
            units[task.group] += task.units
        return {g: (units[g] / s if units[g] else s) for g, s in seconds.items()}

    def self_seconds(self, tasks: list) -> dict[str, float]:
        """Per layer: calibrated self time in one pass, summing each entry's median over traced samples."""
        per_task: dict[str, dict[str, float]] = {}
        for name in {t.name for t in tasks}:
            spans, factors = zip(*self.task_spans[name])
            samples = self.tracer.layer_self_times(list(spans))
            layers = {layer for sample in samples for layer in sample}
            per_task[name] = {layer: median([s.get(layer, 0.0) * f for s, f in zip(samples, factors)])
                              for layer in layers}
        out: dict[str, float] = defaultdict(float)
        for task in tasks:
            for layer, seconds in per_task[task.name].items():
                out[layer] += seconds
        return dict(out)
