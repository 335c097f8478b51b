"""In-memory span tracing for the benchmark, applied from outside the program.

A Tracer replaces a module attribute (for example ``mosuq.trainer.forward_batch``,
the name under which the trainer imported ``net.forward_batch``) with a wrapper
that records one span per call: name, start, end and the index of the enclosing
span. Counters can be attached to a wrapped name to record work done, such as
rows or bytes. ``restore()`` puts every original attribute back. Nothing under
``src/`` is edited; the spans describe calls made across module boundaries.

The helpers below reduce a span list to call counts, inclusive time and self
time (a span's duration minus the part of it covered by its direct children).
"""

from __future__ import annotations

import importlib
import json
import math
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import wraps
from typing import Callable, Iterator

# Span record layout: [name, start, end, parent index or -1].
NAME, START, END, PARENT = range(4)

# Candidate tail percentiles in tenths of a percent, highest first.
_TAIL_PERMILLE = (999, 990, 900, 500)
MIN_BEYOND_TAIL = 10


class Tracer:
    """Records spans and counts in memory; wraps and restores module attributes."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        record = [name, self.clock(), None, self._stack[-1] if self._stack else -1]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        except BaseException:
            self.counts[f"{layer_of(name)}.failed"] += 1
            raise
        finally:
            record[END] = self.clock()
            self._stack.pop()

    def parent_name(self) -> str | None:
        """Name of the innermost open span, i.e. the caller of the current call."""
        return self.spans[self._stack[-1]][NAME] if self._stack else None

    def wrap(self, module_name: str, attr: str, span_name: str, count=None) -> None:
        """Trace calls made through ``module_name.attr`` as spans named span_name.

        count(tracer, args, kwargs, result) runs after each successful call. A
        name the program no longer has is skipped and listed in ``missing``, so
        its metrics read zero calls instead of crashing the benchmark.
        """
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if not callable(fn):
            self.missing.append(f"{module_name}.{attr}")
            return

        @wraps(fn)
        def traced(*args, **kwargs):
            with self.span(span_name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self, args, kwargs, result)
            return result

        setattr(module, attr, traced)
        self._originals.append((module, attr, fn))

    def restore(self) -> None:
        while self._originals:
            module, attr, fn = self._originals.pop()
            setattr(module, attr, fn)


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the union of its direct children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for record in spans:
        if record[PARENT] >= 0:
            children[record[PARENT]].append((record[START], record[END]))
    out = []
    for i, record in enumerate(spans):
        start, end = record[START], record[END]
        covered = 0.0
        run_start = run_end = None
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, start), min(c_end, end)
            if c_end <= c_start:
                continue
            if run_end is None or c_start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = c_start, c_end
            else:
                run_end = max(run_end, c_end)
        if run_end is not None:
            covered += run_end - run_start
        out.append((end - start) - covered)
    return out


def summarize(spans: list[list]) -> tuple[Counter, Counter, Counter]:
    """(calls per name, inclusive seconds per name, self seconds per layer)."""
    calls: Counter = Counter()
    total: Counter = Counter()
    layer_self: Counter = Counter()
    for record, own in zip(spans, self_times(spans)):
        calls[record[NAME]] += 1
        total[record[NAME]] += record[END] - record[START]
        layer_self[layer_of(record[NAME])] += own
    return calls, total, layer_self


def count_children(spans: list[list], child: str, parent_prefix: str) -> int:
    """Number of spans named child whose direct parent's name starts with parent_prefix."""
    return sum(
        1
        for record in spans
        if record[NAME] == child
        and record[PARENT] >= 0
        and spans[record[PARENT]][NAME].startswith(parent_prefix)
    )


def tail_percentile(n: int) -> float | None:
    """Highest of p99.9, p99, p90, p50 with at least ten samples beyond it."""
    for permille in _TAIL_PERMILLE:
        if n * (1000 - permille) >= MIN_BEYOND_TAIL * 1000:
            return permille / 10.0
    return None


def strict_json(text: str):
    """json.loads that rejects the NaN, Infinity and -Infinity tokens."""

    def reject(token: str):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def all_finite_nonnegative(values) -> bool:
    return all(math.isfinite(v) and v >= 0.0 for v in values)
