"""The instrument registry: counters, gauges and histograms on either clock.

One :class:`ProbeRegistry` serves both planes of :mod:`repro.obs`.  The
simulator's hooks record on the *virtual* clock (``engine.now``); the
scheduling service records on the *wall* clock
(:class:`~repro.service.telemetry.ServiceTelemetry`).  Every mutator takes
its timestamp first — ``add(now, v)``, ``set(now, v)``, ``observe(now, v)``
— and the caller supplies it, so this module never reads a host clock and
a wall-clock value can only enter a registry its caller built for it.

Design constraints, in priority order:

1. **Zero overhead when unobserved.**  Model code never builds
   instruments eagerly; it holds an optional hook object (``None`` by
   default) and the emission site is one ``is None`` branch.  The service
   likewise records into its registry only behind its own ``enabled``
   switch.
2. **Determinism.**  Instruments are identified by ``(kind, name, sorted
   attributes)`` and iterated in sorted order, and every sample is keyed on
   the caller's timestamp — two identical runs produce byte-identical
   exports.
3. **Reconcilability.**  Counters are monotonic sums; their totals must
   reconcile exactly with the quantities the metrics layer reports (bytes
   moved vs. the workflow spec, phase seconds vs.
   :meth:`~repro.sim.trace.Tracer.total_time`).  The tests enforce this.

Instruments record a bounded-cost timeseries: counters append one
``(now, cumulative_total)`` sample per update, gauges append only on value
changes.  Two histogram algorithms compute different things: log2 buckets
plus summary stats (:class:`Histogram`, for virtual distributions) and
fixed Prometheus bounds with interpolated quantiles
(:class:`LatencyHistogram`, for wall latencies).
"""

from __future__ import annotations

import math
import re
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from repro.errors import SimulationError

#: Attribute key/value pairs, sorted — the canonical identity of an
#: instrument alongside its kind and name.
AttrItems = Tuple[Tuple[str, Any], ...]

#: Histogram bucket index for non-positive observations (log2 undefined).
UNDERFLOW_BUCKET: int = -9999

#: Bounds of the finite floats: ``-_INF < x < _INF`` is false for NaN too,
#: one chained comparison instead of a ``math.isfinite`` call per sample.
_INF = math.inf

#: Instrument-name grammar: Prometheus's, extended with ``.`` for the
#: dotted probe names (``flow.achieved_rate``).
NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:.]*$")

#: Attribute-key grammar (the Prometheus label-name grammar).
LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _check_identity(name: str, attrs: AttrItems) -> None:
    """Reject a bad metric name, attribute key or non-scalar value."""
    if not NAME_RE.match(name):
        raise SimulationError(f"invalid metric name {name!r}")
    for key, value in attrs:
        if not LABEL_NAME_RE.match(key):
            raise SimulationError(f"invalid attribute name {key!r}")
        if not isinstance(value, (str, int, float, bool)):
            raise SimulationError(
                f"probe attribute {key!r} must be a scalar, got {type(value).__name__}"
            )


class Instrument:
    """Common identity/bookkeeping of one named metric stream.

    *help_text* is the ``help`` entry of a wall metric's telemetry
    snapshot; probe exports do not carry it.
    """

    kind = "instrument"

    __slots__ = ("name", "attrs", "help_text")

    def __init__(self, name: str, attrs: AttrItems = (), help_text: str = "") -> None:
        self.name = name
        self.attrs = attrs
        self.help_text = help_text

    @property
    def key(self) -> Tuple[str, str, AttrItems]:
        return (self.kind, self.name, self.attrs)

    @property
    def label(self) -> str:
        """Display label: ``name{k=v,...}`` (stable, sorted attributes)."""
        if not self.attrs:
            return self.name
        inner = ",".join(f"{k}={v}" for k, v in self.attrs)
        return f"{self.name}{{{inner}}}"

    def as_dict(self) -> Dict[str, Any]:
        """Serializable snapshot (extended by subclasses)."""
        return {
            "kind": self.kind,
            "name": self.name,
            "attributes": dict(self.attrs),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.label}>"


class Counter(Instrument):
    """Monotonic sum (bytes moved, events, versions; jobs, cache hits)."""

    kind = "counter"

    __slots__ = ("total", "samples")

    def __init__(self, name: str, attrs: AttrItems = (), help_text: str = "") -> None:
        super().__init__(name, attrs, help_text)
        self.total: float = 0.0
        self.samples: List[Tuple[float, float]] = []

    def add(self, now: float, value: float = 1.0) -> None:
        """Increment by *value* at time *now* (must be >= 0)."""
        if not 0 <= value < _INF:
            raise SimulationError(
                f"counter {self.label}: increment must be finite and >= 0, "
                f"got {value}"
            )
        self.total += value
        self.samples.append((now, self.total))

    def as_dict(self) -> Dict[str, Any]:
        data = super().as_dict()
        data["total"] = self.total
        data["samples"] = [[t, v] for t, v in self.samples]
        return data


class Gauge(Instrument):
    """Point-in-time level (queue depth, active flows, reader lag).

    Samples are recorded only when the value changes, so a gauge polled
    every event stays proportional to the number of *transitions*.
    """

    kind = "gauge"

    __slots__ = ("value", "peak", "samples")

    def __init__(self, name: str, attrs: AttrItems = (), help_text: str = "") -> None:
        super().__init__(name, attrs, help_text)
        self.value: float = 0.0
        self.peak: float = 0.0
        self.samples: List[Tuple[float, float]] = []

    def set(self, now: float, value: float) -> None:
        """Record the gauge level at time *now*."""
        # An unchanged value is finite: ``value`` only ever holds checked ones.
        if value == self.value and self.samples:
            return
        if not -_INF < value < _INF:
            raise SimulationError(
                f"gauge {self.label}: value must be finite, got {value}"
            )
        self.value = value
        if value > self.peak:
            self.peak = value
        self.samples.append((now, value))

    def as_dict(self) -> Dict[str, Any]:
        data = super().as_dict()
        data["last"] = self.value
        data["peak"] = self.peak
        data["samples"] = [[t, v] for t, v in self.samples]
        return data


class Histogram(Instrument):
    """Distribution summary (achieved flow rates, span durations).

    Values land in log2 buckets: bucket *k* holds ``2**k <= v < 2**(k+1)``
    (non-positive values land in a dedicated underflow bucket).  Cheap,
    deterministic, and enough resolution for "how far below the model
    ceiling did transfers run".
    """

    kind = "histogram"

    __slots__ = ("count", "sum", "min", "max", "buckets")

    def __init__(self, name: str, attrs: AttrItems = (), help_text: str = "") -> None:
        super().__init__(name, attrs, help_text)
        self.count: int = 0
        self.sum: float = 0.0
        self.min: float = math.inf
        self.max: float = -math.inf
        self.buckets: Dict[int, int] = {}

    def observe(self, now: float, value: float) -> None:
        """Record one observation (*now* kept for signature symmetry)."""
        if not -_INF < value < _INF:
            raise SimulationError(
                f"histogram {self.label}: value must be finite, got {value}"
            )
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        bucket = int(math.floor(math.log2(value))) if value > 0 else UNDERFLOW_BUCKET
        buckets = self.buckets
        buckets[bucket] = buckets.get(bucket, 0) + 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, Any]:
        data = super().as_dict()
        data["count"] = self.count
        data["sum"] = self.sum
        data["min"] = self.min if self.count else None
        data["max"] = self.max if self.count else None
        data["mean"] = self.mean
        data["log2_buckets"] = {
            str(k): self.buckets[k] for k in sorted(self.buckets)
        }
        return data


class LatencyHistogram(Instrument):
    """Fixed-bound histogram with derived quantiles (wall latencies).

    Bounds are cumulative upper bounds in the Prometheus style; the final
    implicit bucket is +Inf.  Quantiles are derived the way
    ``histogram_quantile()`` derives them: find the bucket the target rank
    falls in and interpolate linearly between its bounds.
    """

    kind = "histogram"

    __slots__ = ("bounds", "bucket_counts", "sum", "count")

    def __init__(
        self,
        name: str,
        attrs: AttrItems = (),
        help_text: str = "",
        bounds: Sequence[float] = (),
    ) -> None:
        super().__init__(name, attrs, help_text)
        ordered = tuple(sorted(float(b) for b in bounds))
        if not ordered:
            raise SimulationError(f"histogram {name!r} needs >= 1 bucket")
        if len(set(ordered)) != len(ordered):
            raise SimulationError(f"histogram {name!r} has duplicate buckets")
        self.bounds = ordered
        #: One count per finite bucket plus the +Inf overflow bucket —
        #: *non*-cumulative internally; cumulated on read.
        self.bucket_counts = [0] * (len(ordered) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, now: float, value: float) -> None:
        """Record one observation (*now* kept for signature symmetry)."""
        self.sum += value
        self.count += 1
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[index] += 1
                return
        self.bucket_counts[-1] += 1

    def cumulative(self) -> List[Tuple[float, int]]:
        """``[(le, cumulative_count), ...]`` ending with the +Inf bucket."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.bounds, self.bucket_counts):
            running += count
            out.append((bound, running))
        out.append((math.inf, running + self.bucket_counts[-1]))
        return out

    def quantile(self, q: float) -> float:
        """Estimated value at quantile *q* in [0, 1] (0.0 when empty)."""
        if self.count <= 0:
            return 0.0
        target = q * self.count
        previous_bound = 0.0
        previous_cum = 0
        for bound, cum in self.cumulative():
            if cum >= target:
                if bound == math.inf:
                    # Observations beyond the largest finite bucket: the
                    # histogram cannot resolve further, report the bound.
                    return self.bounds[-1]
                span = cum - previous_cum
                if span <= 0:
                    return bound
                fraction = (target - previous_cum) / span
                return previous_bound + (bound - previous_bound) * fraction
            previous_bound, previous_cum = bound, cum
        return self.bounds[-1]


def step_fraction_above(
    samples: Iterable[Tuple[float, float]], horizon: float, threshold: float
) -> float:
    """Fraction of ``[0, horizon]`` a change-point series spends above *threshold*.

    Gauge samples are ``(time, value)`` transitions recorded only on
    change; the level before the first sample is 0.  This is the
    utilization primitive: busy fraction is ``step_fraction_above(samples,
    makespan, 0.0)``, contended fraction uses threshold 1.0.
    """
    if horizon <= 0:
        return 0.0
    above = 0.0
    level = 0.0
    previous = 0.0
    for when, value in samples:
        clamped = min(max(when, 0.0), horizon)
        if level > threshold:
            above += clamped - previous
        previous = clamped
        level = value
    if level > threshold:
        above += horizon - previous
    return min(max(above / horizon, 0.0), 1.0)


class ProbeRegistry:
    """Factory and container for every instrument of one observed run or
    one service process.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: asking for
    the same ``(name, attributes)`` twice returns the same instrument, so
    independent emission sites accumulate into one stream.  The name and
    attributes are checked once, when the instrument is created.
    """

    def __init__(self) -> None:
        self._instruments: Dict[Tuple[str, str, AttrItems], Instrument] = {}

    # ------------------------------------------------------------------
    def _get(self, cls, name: str, attrs: Dict[str, Any], help_text: str = "", **kw):
        items = tuple(sorted(attrs.items()))
        key = (cls.kind, name, items)
        try:
            return self._instruments[key]
        except (KeyError, TypeError):  # TypeError: an unhashable attribute
            _check_identity(name, items)
        instrument = cls(name, items, help_text, **kw)
        self._instruments[key] = instrument
        return instrument

    def counter(self, name: str, help_text: str = "", **attrs: Any) -> Counter:
        return self._get(Counter, name, attrs, help_text)

    def gauge(self, name: str, help_text: str = "", **attrs: Any) -> Gauge:
        return self._get(Gauge, name, attrs, help_text)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        bounds: Sequence[float] = (),
        **attrs: Any,
    ) -> Any:
        """A log2 :class:`Histogram`, or a :class:`LatencyHistogram` when
        *bounds* are given; either way an existing instrument of this name
        and attributes is returned as is."""
        if bounds:
            return self._get(LatencyHistogram, name, attrs, help_text, bounds=bounds)
        return self._get(Histogram, name, attrs, help_text)

    # ------------------------------------------------------------------
    def instruments(self) -> List[Instrument]:
        """All instruments, sorted by (kind, name, attributes)."""
        return [self._instruments[key] for key in sorted(self._instruments)]

    def counter_total(self, name: str, **attrs: Any) -> float:
        """Summed total over counters matching *name* and the given attrs.

        Attributes act as a filter: ``counter_total("pmem.payload_bytes",
        direction="write")`` sums the write counters of every socket.
        """
        wanted = set(attrs.items())
        # Only the matching keys are sorted; they differ in attributes
        # alone, so the sum runs in the order instruments() lists them.
        matching = sorted(
            key
            for key in self._instruments
            if key[0] == "counter" and key[1] == name and not wanted - set(key[2])
        )
        total = 0.0
        for key in matching:
            total += self._instruments[key].total  # type: ignore[attr-defined]
        return total

    def as_records(self) -> Iterable[Dict[str, Any]]:
        """Serializable snapshots of every instrument (sorted)."""
        return [instrument.as_dict() for instrument in self.instruments()]
