"""Outside-in instrumentation: unit clocks, attribute patching and spans.

Nothing here edits the program. Every hook replaces a module or class
attribute in the namespace where the caller looks it up, and
:class:`Patcher` puts every original back when the run ends.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter, defaultdict

now = time.perf_counter
cpu_now = time.process_time  # CPU seconds of every thread of this process

_MISSING = object()


class Patcher:
    """Replace attributes for the duration of a ``with`` block."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def replace(self, owner, attr: str, make) -> bool:
        """Set ``owner.attr = make(original)``; record a miss if absent."""
        # vars() gives the raw class entry, so restoring keeps its exact kind
        original = vars(owner).get(attr, _MISSING)
        if original is _MISSING:
            self.missing.append(f"{getattr(owner, '__name__', type(owner).__name__)}.{attr}")
            return False
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(getattr(owner, attr)))
        return True

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


class UnitClock:
    """Wall and CPU times of the units of work (sample, pass, subject).

    ``begin`` may be called again before ``end``; the unfinished unit is
    then dropped, which is how a mask built for validation (never followed
    by a training tape) is told apart from a training sample.
    """

    def __init__(self):
        self._ids = itertools.count()
        self._start: float | None = None
        self._cpu_start = 0.0
        self.current: int | None = None
        self.intervals: list[tuple[int, float, float]] = []  # (id, start, end)
        self.cpu: list[float] = []  # CPU seconds of each finished unit
        self.on_begin = None
        self.on_end = None

    def begin(self) -> None:
        self.current = next(self._ids)
        self._start = now()
        self._cpu_start = cpu_now()
        if self.on_begin is not None:
            self.on_begin(self.current)

    def end(self) -> None:
        if self._start is None:
            return
        self.intervals.append((self.current, self._start, now()))
        self.cpu.append(cpu_now() - self._cpu_start)
        if self.on_end is not None:
            self.on_end(self.current)
        self._start = None
        self.current = None

    def durations(self) -> list[float]:
        return [t1 - t0 for _, t0, t1 in self.intervals]


def begin_before(clock: UnitClock, fn, when=None):
    """Wrap ``fn`` so that a unit begins just before it runs."""

    def hooked(*args, **kwargs):
        if when is None or when(*args, **kwargs):
            clock.begin()
        return fn(*args, **kwargs)

    return hooked


def end_after(clock: UnitClock, fn):
    """Wrap ``fn`` so that the open unit ends when it returns."""

    def hooked(*args, **kwargs):
        out = fn(*args, **kwargs)
        clock.end()
        return out

    return hooked


def clocked_tape(clock: UnitClock, tape_cls, begin: bool):
    """A ``Tape`` subclass whose scope ends (and optionally begins) a unit."""

    class ClockedTape(tape_cls):
        def __enter__(self):
            if begin:
                clock.begin()
            return super().__enter__()

        def __exit__(self, *exc):
            super().__exit__(*exc)
            clock.end()

    return ClockedTape


class Tracer:
    """Spans kept in memory: ``[name, start, end, parent, unit]``.

    ``parent`` is the index of the enclosing span (-1 for none) and
    ``unit`` the id of the unit that was open when the span started.
    """

    def __init__(self, clock: UnitClock):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.values: defaultdict = defaultdict(float)  # counts and byte totals

    def wrap(self, name, fn, after=None):
        """Time every call of ``fn`` as a span.

        ``name`` is a string or a function of the call's arguments;
        ``after(result, *args, **kwargs)`` may record values once it returns.
        """
        spans, stack, clock = self.spans, self._stack, self.clock
        fixed = name if isinstance(name, str) else None

        def traced(*args, **kwargs):
            rec = [fixed or name(*args, **kwargs), 0.0, 0.0,
                   stack[-1] if stack else -1, clock.current]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = now()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = now()
                stack.pop()
            if after is not None:
                after(out, *args, **kwargs)
            return out

        return traced


def summarize(spans):
    """Per-name totals, self times and call counts."""
    total: defaultdict = defaultdict(float)
    self_time: defaultdict = defaultdict(float)
    calls: Counter = Counter()
    child_time: defaultdict = defaultdict(float)
    for _, t0, t1, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    for i, (name, t0, t1, _, _) in enumerate(spans):
        total[name] += t1 - t0
        self_time[name] += (t1 - t0) - child_time[i]
        calls[name] += 1
    return total, self_time, calls


def unit_coverage(spans, intervals) -> list[float]:
    """Share of each unit's wall time that its top-level spans cover.

    The self times of a unit's spans add up to the time its top-level
    spans cover, so this is also the share the named spans account for.
    """
    walls = {uid: t1 - t0 for uid, t0, t1 in intervals}
    covered: defaultdict = defaultdict(float)
    for _, t0, t1, parent, unit in spans:
        if unit in walls and (parent < 0 or spans[parent][4] != unit):
            covered[unit] += t1 - t0
    return [covered[uid] / walls[uid] for uid in walls if walls[uid] > 0]
