"""Metrics registry: labeled counter/gauge/histogram/timer families.

The observability layer the rest of the package reports into.  Design
constraints, in order:

1. **Zero overhead when disabled.**  The module-level *current*
   registry defaults to a :class:`NullRegistry` whose lookups hand back
   shared no-op instruments — instrumented hot paths pay one function
   call and one dictionary-free method dispatch, nothing else.  No
   timestamps are read, no locks taken, nothing allocated per call.
2. **No dependencies.**  Plain stdlib (``threading``, ``time``); the
   exporters in :mod:`repro.obs.export` turn a registry into
   JSON-lines, CSV or Prometheus text.
3. **Thread safety.**  Monitors may be driven from worker threads;
   every instrument child carries its own lock, so two threads updating
   different instruments never contend, and two threads updating the
   same counter serialize on that counter alone.  The registry-wide
   lock guards only family creation, span recording and the snapshot
   series.
4. **Per-window records cost O(observations).**  A counter, histogram
   or timer child's first update after a window record appends the
   child to the registry's change log, without any registry lock; a
   histogram or timer child also keeps a sparse ``{bucket: n}`` tally
   of the observations since that record.  The next record is built
   from that log (:mod:`repro.obs.snapshots`).
5. **Repeat lookups are one dict probe.**  A lookup whose label values
   are all strings is remembered under ``(kind, name, *labels.items())``,
   so a hot call site that asks for the same child every window skips
   sorting and stringifying its labels.

Instrument kinds follow the conventional semantics:

* :class:`Counter` — monotonically nondecreasing (``inc`` rejects
  negative deltas); e.g. ``channel.upstream.bytes``.
* :class:`Gauge` — a value that goes both ways; e.g. the last window's
  drift score.
* :class:`HistogramInstrument` — distribution of observations with
  count/sum/min/max plus cumulative buckets (Prometheus-style
  ``le`` bounds); e.g. per-window error.
* :class:`Timer` — a histogram of durations measured on the monotonic
  clock (:func:`time.perf_counter`), with a ``time()`` context
  manager.

Families are keyed by ``(kind, name)``; children by their sorted label
items, so ``reg.counter("x", a="1", b="2")`` and
``reg.counter("x", b="2", a="1")`` are the same child.  Every child
carries its flat series key (:func:`instrument_key`) as ``key``.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from contextlib import contextmanager, nullcontext
from typing import Callable, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "HistogramInstrument",
    "Timer",
    "SpanRecord",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "get_registry",
    "set_registry",
    "use_registry",
]

#: Default histogram bucket upper bounds — a decade-spanning log grid
#: that covers both sub-millisecond timings and multi-megabyte sizes.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0,
    1e3, 1e4, 1e5, 1e6, 1e7,
)

LabelItems = Tuple[Tuple[str, str], ...]


def _label_items(labels: Dict[str, object]) -> LabelItems:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def instrument_key(name: str, labels: LabelItems) -> str:
    """Flat series key for one instrument child:
    ``name`` or ``name{k=v,...}`` (labels already sorted)."""
    if not labels:
        return name
    body = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{body}}}"


class Counter:
    """A monotonically nondecreasing count."""

    __slots__ = ("name", "labels", "key", "value", "_lock", "_note", "_base")

    def __init__(
        self,
        name: str,
        labels: LabelItems,
        lock: threading.Lock,
        note: Optional[Callable[[object], None]] = None,
    ):
        self.name = name
        self.labels = labels
        self.key = instrument_key(name, labels)
        self.value = 0.0
        self._lock = lock
        #: Enters this child in its registry's change log.
        self._note = note
        #: The value at the last window record; ``None`` until the
        #: first change after it.
        self._base: Optional[float] = None

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(
                f"counter {self.name!r} cannot decrease (inc by {amount})"
            )
        with self._lock:
            if self._base is None and self._note is not None:
                self._base = self.value
                self._note(self)
            self.value += amount


class Gauge:
    """A value that can move in either direction."""

    __slots__ = ("name", "labels", "key", "value", "_lock")

    def __init__(self, name: str, labels: LabelItems, lock: threading.Lock):
        # Every window record carries every gauge's level, so gauges
        # keep no change log.
        self.name = name
        self.labels = labels
        self.key = instrument_key(name, labels)
        self.value = 0.0
        self._lock = lock

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)


class HistogramInstrument:
    """Distribution summary: count, sum, min, max, cumulative buckets."""

    __slots__ = (
        "name", "labels", "key", "count", "sum", "min", "max",
        "bounds", "bucket_counts", "_lock", "_note", "_base",
    )

    def __init__(
        self,
        name: str,
        labels: LabelItems,
        lock: threading.Lock,
        note: Optional[Callable[[object], None]] = None,
        bounds: Tuple[float, ...] = DEFAULT_BUCKETS,
    ):
        self.name = name
        self.labels = labels
        self.key = instrument_key(name, labels)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # trailing +inf
        self._lock = lock
        self._note = note
        #: ``(count, sum, {bucket: n})`` — the count and sum at the
        #: last window record, and the observations per bucket since
        #: it; ``None`` until the first change after it.
        self._base: Optional[Tuple[int, float, Dict[int, int]]] = None

    def note_change(self) -> Optional[Dict[int, int]]:
        """Enter the change log if this is the first change since the
        last window record, and return the sparse per-bucket increment
        every bucket update must also add to (``None`` without a change
        log).  Call with ``_lock`` held, before mutating."""
        base = self._base
        if base is None:
            if self._note is None:
                return None
            base = self._base = (self.count, self.sum, {})
            self._note(self)
        return base[2]

    def observe(self, value: float) -> None:
        value = float(value)
        # The first bound with ``value <= bound``; NaN compares false
        # against every bound, so it lands in the trailing +inf bucket.
        i = (
            bisect_left(self.bounds, value) if value == value
            else len(self.bounds)
        )
        with self._lock:
            increments = self.note_change()
            self.count += 1
            self.sum += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            self.bucket_counts[i] += 1
            if increments is not None:
                increments[i] = increments.get(i, 0) + 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class Timer(HistogramInstrument):
    """A histogram of monotonic-clock durations, in seconds."""

    __slots__ = ()

    def time(self) -> "_Timing":
        """A context manager observing the duration of its body (also
        when the body raises)."""
        return _Timing(self)


class _Timing:
    """One :meth:`Timer.time` measurement."""

    __slots__ = ("_timer", "_start")

    def __init__(self, timer: Timer):
        self._timer = timer

    def __enter__(self) -> None:
        self._start = time.perf_counter()

    def __exit__(self, *exc) -> None:
        self._timer.observe(time.perf_counter() - self._start)


class SpanRecord:
    """One finished tracing span (see :mod:`repro.obs.spans`)."""

    __slots__ = ("name", "parent", "start", "duration", "payload", "thread")

    def __init__(
        self,
        name: str,
        parent: Optional[str],
        start: float,
        duration: float,
        payload: Dict[str, object],
        thread: str,
    ):
        self.name = name
        self.parent = parent
        self.start = start
        self.duration = duration
        self.payload = payload
        self.thread = thread


class MetricsRegistry:
    """A live collection of labeled instrument families plus spans."""

    enabled = True

    _KINDS = {
        "counter": Counter,
        "gauge": Gauge,
        "histogram": HistogramInstrument,
        "timer": Timer,
    }

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[Tuple[str, str], Dict[LabelItems, object]] = {}
        #: ``(kind, name, *labels.items())`` -> child, for lookups whose
        #: label values are all ``str`` (so that key equality implies
        #: the same stringified labels, given that a value equal to a
        #: ``str`` stringifies to it).  Read without the lock.
        self._handles: Dict[tuple, object] = {}
        self._spans: List[SpanRecord] = []
        #: Origin of the registry's span timeline (monotonic clock).
        self.epoch = time.perf_counter()
        #: Per-window records, appended by
        #: :func:`repro.obs.snapshots.emit_window_record` (one per
        #: decoded window of a monitoring run).
        self.window_series: List[Dict[str, object]] = []
        #: Counter/histogram/timer children changed since the last
        #: window record, each once, in first-change order.  Children
        #: append themselves without any registry lock (``list.append``
        #: is atomic) and hold only this list, not the registry.
        self._changes: List[object] = []
        #: Gauge children in export order (rebuilt after a new gauge).
        self._gauges: Optional[List[Gauge]] = None

    # -- instrument lookup -------------------------------------------------
    def _instrument(self, kind: str, name: str, labels: Dict[str, object]):
        handle = (kind, name, *labels.items())
        try:
            child = self._handles.get(handle)
        except TypeError:  # an unhashable label value
            handle = None
            child = None
        if child is not None:
            return child
        key = (kind, name)
        items = _label_items(labels)
        with self._lock:
            family = self._metrics.setdefault(key, {})
            child = family.get(items)
            if child is None:
                # Each child gets its own lock: hot instruments updated
                # from worker threads must not serialize on unrelated
                # families (or on family creation).
                if kind == "gauge":
                    child = Gauge(name, items, threading.Lock())
                    self._gauges = None
                else:
                    child = self._KINDS[kind](
                        name, items, threading.Lock(), self._changes.append
                    )
                family[items] = child
            if handle is not None and all(
                type(v) is str for v in labels.values()
            ):
                self._handles[handle] = child
            return child

    def counter(self, name: str, **labels) -> Counter:
        return self._instrument("counter", name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._instrument("gauge", name, labels)

    def histogram(self, name: str, **labels) -> HistogramInstrument:
        return self._instrument("histogram", name, labels)

    def timer(self, name: str, **labels) -> Timer:
        return self._instrument("timer", name, labels)

    # -- spans -------------------------------------------------------------
    def record_span(self, record: SpanRecord) -> None:
        with self._lock:
            self._spans.append(record)

    @property
    def spans(self) -> List[SpanRecord]:
        with self._lock:
            return list(self._spans)

    # -- introspection -----------------------------------------------------
    def instruments(self) -> Iterator[Tuple[str, object]]:
        """Yield ``(kind, instrument)`` for every child, sorted by
        (kind, name, labels) for deterministic export."""
        with self._lock:
            snapshot = [
                (kind, name, items, child)
                for (kind, name), family in self._metrics.items()
                for items, child in family.items()
            ]
        for kind, _name, _items, child in sorted(
            snapshot, key=lambda row: (row[0], row[1], row[2])
        ):
            yield kind, child

    # -- window records ----------------------------------------------------
    def drain_changes(self) -> List[object]:
        """The children changed since the last drain.  The caller
        resets each one's ``_base`` under its lock, which re-arms its
        entry into the log."""
        with self._lock:
            # Only this end of the list shrinks: children appended
            # while it is read stay for the next drain.
            n = len(self._changes)
            changes = self._changes[:n]
            del self._changes[:n]
        return changes

    def gauges(self) -> List[Gauge]:
        """Every gauge child, in export order."""
        with self._lock:
            if self._gauges is None:
                self._gauges = sorted(
                    (
                        child
                        for (kind, _name), family in self._metrics.items()
                        if kind == "gauge"
                        for child in family.values()
                    ),
                    key=lambda child: (child.name, child.labels),
                )
            return self._gauges

    def get(self, kind: str, name: str, **labels):
        """The existing instrument, or ``None`` (never creates)."""
        family = self._metrics.get((kind, name))
        if family is None:
            return None
        return family.get(_label_items(labels))


class _NullInstrument:
    """Accepts every instrument method as a no-op."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def time(self) -> nullcontext:
        # One shared context: timing nothing allocates nothing.
        return _NULL_CONTEXT


_NULL_CONTEXT = nullcontext()
_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry(MetricsRegistry):
    """The disabled registry: every lookup returns a shared no-op."""

    enabled = False

    def __init__(self) -> None:
        super().__init__()

    def _instrument(self, kind, name, labels):
        return _NULL_INSTRUMENT

    def record_span(self, record: SpanRecord) -> None:
        pass


#: The process-wide disabled registry (instrumentation's default sink).
NULL_REGISTRY = NullRegistry()

_current: MetricsRegistry = NULL_REGISTRY
_current_lock = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The registry instrumented code currently reports into."""
    return _current


def set_registry(registry: Optional[MetricsRegistry]) -> MetricsRegistry:
    """Install ``registry`` as the current sink (``None`` disables);
    returns the previous one."""
    global _current
    with _current_lock:
        previous = _current
        _current = registry if registry is not None else NULL_REGISTRY
    return previous


@contextmanager
def use_registry(registry: Optional[MetricsRegistry]) -> Iterator[MetricsRegistry]:
    """Scope ``registry`` as the current sink for a ``with`` block."""
    previous = set_registry(registry)
    try:
        yield get_registry()
    finally:
        set_registry(previous)
