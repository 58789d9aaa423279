"""Counters, gauges and fixed-bucket histograms behind one ``Registry``.

Dependency-free metrics primitives in the Prometheus data model:

* every instrument belongs to a :class:`Registry` and shares its single
  ``RLock`` — a ``snapshot()`` (or a multi-instrument update such as
  :meth:`repro.serve.server.ServingMetrics.observe`) taken under
  ``registry.lock`` is therefore atomic across *all* instruments, which
  is what fixes the read-vs-observe race the serve plane used to have;
* instruments are cheap label-keyed series maps — ``counter.inc(3,
  endpoint="/predict")`` touches one dict entry under the lock;
* hot paths bind their series once: ``counter.labels(endpoint=
  "/predict")`` validates the labels and returns a child whose
  ``inc``/``value`` (gauges: also ``set``; histograms: ``observe``)
  skip that validation, as ``prometheus_client``'s ``.labels(...)``
  does.  A bound update renders exactly as the unbound one, and binding
  alone creates no series.  Each child update also has a ``*_held``
  form for callers already inside ``registry.lock``, so a
  multi-instrument update takes the lock once;
* :meth:`Registry.prometheus_text` renders the standard text exposition
  format (``# HELP``/``# TYPE`` + samples, cumulative histogram
  buckets) and :func:`validate_prometheus_text` is a line-format
  checker used by the tests and the CI smoke job.

Nothing here imports numpy or any other package: the serve plane and
the zero-cost-when-disabled guards need this module importable anywhere.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from typing import Any, Dict, List, Optional, Sequence, Tuple

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default latency buckets, seconds (powers-of-~3 from 100 µs to 30 s).
DEFAULT_BUCKETS = (0.0001, 0.0003, 0.001, 0.003, 0.01, 0.03,
                   0.1, 0.3, 1.0, 3.0, 10.0, 30.0)


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _unescape_label(value: str) -> str:
    out: List[str] = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            out.append("\n" if nxt == "n" else nxt)
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class _Instrument:
    """Base of one named metric family (shared lock, label-keyed series)."""

    kind = "untyped"
    #: The :class:`_Child` type :meth:`labels` hands out.
    _child: type

    def __init__(self, registry: "Registry", name: str, help: str,
                 labelnames: Sequence[str]):
        self.registry = registry
        self.name = _check_name(name)
        self.help = help
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        self.labelnames: Tuple[str, ...] = tuple(labelnames)

    def _key(self, labels: Dict[str, Any]) -> Tuple[str, ...]:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}")
        return tuple(str(labels[k]) for k in self.labelnames)

    def labels(self, **labels: Any) -> "_Child":
        """The series ``labels`` name, validated once: a child whose
        updates skip label validation (``prometheus_client``'s
        ``.labels(...)``).  Binding creates no series; the first update
        does, exactly as the unbound call would."""
        return self._child(self, self._key(labels))

    def series_count(self) -> int:
        raise NotImplementedError


class _Child:
    """One series of an instrument, its label key resolved once."""

    __slots__ = ("_inst", "_key")

    def __init__(self, inst: _Instrument, key: Tuple[str, ...]):
        self._inst = inst
        self._key = key


class _CounterChild(_Child):
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        self._inst._inc(self._key, amount)

    def inc_held(self, amount: float = 1.0) -> None:
        """:meth:`inc` for a caller that holds ``registry.lock``."""
        self._inst._inc_held(self._key, amount)

    def value(self) -> float:
        return self._inst._value(self._key)

    def value_held(self) -> float:
        """:meth:`value` for a caller that holds ``registry.lock``."""
        return self._inst._series.get(self._key, 0.0)


class _GaugeChild(_CounterChild):
    __slots__ = ()

    def set(self, value: float) -> None:
        self._inst._set(self._key, value)

    def set_held(self, value: float) -> None:
        """:meth:`set` for a caller that holds ``registry.lock``."""
        self._inst._series[self._key] = float(value)


class _HistogramChild(_Child):
    __slots__ = ()

    def observe(self, value: float) -> None:
        self._inst._observe(self._key, value)

    def observe_held(self, value: float) -> None:
        """:meth:`observe` for a caller that holds ``registry.lock``."""
        self._inst._observe_held(self._key, value)


class _Scalar(_Instrument):
    """One float per series: the shared half of counters and gauges."""

    def __init__(self, registry, name, help, labelnames):
        super().__init__(registry, name, help, labelnames)
        self._series: Dict[Tuple[str, ...], float] = {}
        if not self.labelnames:
            self._series[()] = 0.0

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        self._inc(self._key(labels), amount)

    def _inc(self, key: Tuple[str, ...], amount: float) -> None:
        with self.registry.lock:
            self._inc_held(key, amount)

    def _inc_held(self, key: Tuple[str, ...], amount: float) -> None:
        self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        return self._value(self._key(labels))

    def _value(self, key: Tuple[str, ...]) -> float:
        with self.registry.lock:
            return self._series.get(key, 0.0)

    def values_by_label(self) -> Dict[Tuple[str, ...], float]:
        with self.registry.lock:
            return dict(self._series)

    def series_count(self) -> int:
        with self.registry.lock:
            return len(self._series)


class Counter(_Scalar):
    """Monotonically increasing sum, optionally labelled."""

    kind = "counter"
    _child = _CounterChild

    def _inc_held(self, key: Tuple[str, ...], amount: float) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self._series[key] = self._series.get(key, 0.0) + amount


class Gauge(_Scalar):
    """A value that can go up and down (last write wins)."""

    kind = "gauge"
    _child = _GaugeChild

    def set(self, value: float, **labels: Any) -> None:
        self._set(self._key(labels), value)

    def _set(self, key: Tuple[str, ...], value: float) -> None:
        with self.registry.lock:
            self._series[key] = float(value)


class _HistogramSeries:
    __slots__ = ("counts", "sum", "count")

    def __init__(self, n_buckets: int):
        self.counts = [0] * n_buckets   # per-bucket, non-cumulative
        self.sum = 0.0
        self.count = 0


class Histogram(_Instrument):
    """Fixed-bucket distribution (upper bounds; ``+Inf`` is implicit)."""

    kind = "histogram"
    _child = _HistogramChild

    def __init__(self, registry, name, help, labelnames,
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        super().__init__(registry, name, help, labelnames)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("histogram buckets must be ascending")
        self.buckets = bounds
        self._series: Dict[Tuple[str, ...], _HistogramSeries] = {}
        if not self.labelnames:
            self._series[()] = _HistogramSeries(len(bounds))

    def observe(self, value: float, **labels: Any) -> None:
        self._observe(self._key(labels), value)

    def _observe(self, key: Tuple[str, ...], value: float) -> None:
        with self.registry.lock:
            self._observe_held(key, value)

    def _observe_held(self, key: Tuple[str, ...], value: float) -> None:
        # The first bound >= value; NaN lands in no finite bucket.
        i = bisect_left(self.buckets, value)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _HistogramSeries(len(self.buckets))
        if i < len(self.buckets) and value <= self.buckets[i]:
            series.counts[i] += 1
        series.sum += value
        series.count += 1

    def total_count(self) -> int:
        with self.registry.lock:
            return sum(s.count for s in self._series.values())

    def total_sum(self) -> float:
        with self.registry.lock:
            return sum(s.sum for s in self._series.values())

    def series_count(self) -> int:
        with self.registry.lock:
            return len(self._series)


class Registry:
    """Instrument namespace sharing one lock for atomic snapshots.

    ``registry.lock`` is re-entrant: callers that need several updates
    (or a multi-instrument read) to be observed atomically take it once
    around the whole block; the per-instrument methods re-acquire it
    harmlessly inside.
    """

    def __init__(self):
        self.lock = threading.RLock()
        self._instruments: Dict[str, _Instrument] = {}

    def _register(self, cls, name, help, labelnames, **kwargs):
        with self.lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if (type(existing) is not cls
                        or existing.labelnames != tuple(labelnames)):
                    raise ValueError(
                        f"metric {name!r} already registered with a "
                        "different type or label set")
                return existing
            inst = cls(self, name, help, labelnames, **kwargs)
            self._instruments[name] = inst
            return inst

    def counter(self, name: str, help: str = "",
                labelnames: Sequence[str] = ()) -> Counter:
        return self._register(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: Sequence[str] = ()) -> Gauge:
        return self._register(Gauge, name, help, labelnames)

    def histogram(self, name: str, help: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._register(Histogram, name, help, labelnames,
                              buckets=buckets)

    def get(self, name: str) -> Optional[_Instrument]:
        with self.lock:
            return self._instruments.get(name)

    # -- read surfaces -----------------------------------------------------

    def flat_values(self) -> Dict[str, float]:
        """One atomic ``{'name{k=v}': value}`` map over every series.

        Counters and gauges contribute one entry per series; histograms
        contribute ``name_count`` and ``name_sum``.  Run profiles diff
        two of these maps to get per-run counter deltas.
        """
        out: Dict[str, float] = {}
        with self.lock:
            for inst in self._instruments.values():
                if isinstance(inst, (Counter, Gauge)):
                    for key, value in inst._series.items():
                        out[_sample_name(inst.name, inst.labelnames,
                                         key)] = value
                elif isinstance(inst, Histogram):
                    for key, series in inst._series.items():
                        base = _sample_name(inst.name, inst.labelnames, key)
                        out[base + "#count"] = float(series.count)
                        out[base + "#sum"] = series.sum
        return out

    def snapshot(self) -> Dict[str, Any]:
        """JSON-able dump of every instrument (atomic)."""
        out: Dict[str, Any] = {}
        with self.lock:
            for inst in self._instruments.values():
                entry: Dict[str, Any] = {"type": inst.kind,
                                         "help": inst.help}
                if isinstance(inst, (Counter, Gauge)):
                    entry["series"] = [
                        {"labels": dict(zip(inst.labelnames, key)),
                         "value": value}
                        for key, value in sorted(inst._series.items())]
                elif isinstance(inst, Histogram):
                    entry["buckets"] = list(inst.buckets)
                    entry["series"] = [
                        {"labels": dict(zip(inst.labelnames, key)),
                         "count": s.count, "sum": s.sum,
                         "counts": list(s.counts)}
                        for key, s in sorted(inst._series.items())]
                out[inst.name] = entry
        return out

    def prometheus_text(self) -> str:
        """The metrics in Prometheus text exposition format 0.0.4."""
        lines: List[str] = []
        with self.lock:
            for inst in self._instruments.values():
                lines.append(f"# HELP {inst.name} "
                             f"{_escape_help(inst.help or inst.name)}")
                lines.append(f"# TYPE {inst.name} {inst.kind}")
                if isinstance(inst, (Counter, Gauge)):
                    for key, value in sorted(inst._series.items()):
                        lines.append(
                            _sample_line(inst.name, inst.labelnames, key,
                                         value))
                elif isinstance(inst, Histogram):
                    for key, series in sorted(inst._series.items()):
                        cumulative = 0
                        for bound, n in zip(inst.buckets, series.counts):
                            cumulative += n
                            lines.append(_sample_line(
                                inst.name + "_bucket", inst.labelnames,
                                key, cumulative,
                                extra=("le", _format_value(bound))))
                        lines.append(_sample_line(
                            inst.name + "_bucket", inst.labelnames, key,
                            series.count, extra=("le", "+Inf")))
                        lines.append(_sample_line(
                            inst.name + "_sum", inst.labelnames, key,
                            series.sum))
                        lines.append(_sample_line(
                            inst.name + "_count", inst.labelnames, key,
                            series.count))
        return "\n".join(lines) + "\n"


def _sample_name(name: str, labelnames: Tuple[str, ...],
                 key: Tuple[str, ...]) -> str:
    if not labelnames:
        return name
    pairs = ",".join(f'{k}="{_escape_label(v)}"'
                     for k, v in zip(labelnames, key))
    return f"{name}{{{pairs}}}"


def _sample_line(name: str, labelnames: Tuple[str, ...],
                 key: Tuple[str, ...], value: float,
                 extra: Optional[Tuple[str, str]] = None) -> str:
    pairs = [f'{k}="{_escape_label(v)}"'
             for k, v in zip(labelnames, key)]
    if extra is not None:
        pairs.append(f'{extra[0]}="{extra[1]}"')
    labels = "{" + ",".join(pairs) + "}" if pairs else ""
    return f"{name}{labels} {_format_value(value)}"


# -- exposition-format checker ---------------------------------------------

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^{}]*)\})?"
    r" (?P<value>[-+]?(?:Inf|NaN|[0-9.eE+-]+))$")
_LABEL_PAIR_RE = re.compile(
    r'^(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"$')
_SUFFIXES = ("_bucket", "_sum", "_count", "_total")


def validate_prometheus_text(text: str) -> List[Dict[str, Any]]:
    """Strict line-format check; returns the parsed samples.

    Validates ``# HELP``/``# TYPE`` comments, sample syntax, label-pair
    quoting, that every sample belongs to a declared family, and that
    histogram families carry consistent cumulative buckets with a
    ``+Inf`` bucket equal to ``_count``.  Raises :class:`ValueError`
    on the first malformed line.
    """
    types: Dict[str, str] = {}
    samples: List[Dict[str, Any]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(" ", 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                raise ValueError(f"line {lineno}: malformed comment "
                                 f"{line!r}")
            if not _NAME_RE.match(parts[2]):
                raise ValueError(f"line {lineno}: bad metric name "
                                 f"{parts[2]!r}")
            if parts[1] == "TYPE":
                if len(parts) != 4 or parts[3] not in (
                        "counter", "gauge", "histogram", "summary",
                        "untyped"):
                    raise ValueError(
                        f"line {lineno}: bad TYPE line {line!r}")
                types[parts[2]] = parts[3]
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        name = match.group("name")
        labels: Dict[str, str] = {}
        raw = match.group("labels")
        if raw:
            for pair in _split_label_pairs(raw, lineno):
                pair_match = _LABEL_PAIR_RE.match(pair)
                if not pair_match:
                    raise ValueError(
                        f"line {lineno}: malformed label pair {pair!r}")
                labels[pair_match.group("key")] = _unescape_label(
                    pair_match.group("value"))
        family = name
        if family not in types:
            for suffix in _SUFFIXES:
                if name.endswith(suffix) and name[:-len(suffix)] in types:
                    family = name[:-len(suffix)]
                    break
        if family not in types:
            raise ValueError(
                f"line {lineno}: sample {name!r} has no # TYPE family")
        samples.append({"name": name, "family": family, "labels": labels,
                        "value": float(match.group("value"))})
    _check_histograms(types, samples)
    return samples


def _split_label_pairs(raw: str, lineno: int) -> List[str]:
    pairs, depth_in_quote, start = [], False, 0
    i = 0
    while i < len(raw):
        ch = raw[i]
        if ch == "\\" and depth_in_quote:
            i += 2
            continue
        if ch == '"':
            depth_in_quote = not depth_in_quote
        elif ch == "," and not depth_in_quote:
            pairs.append(raw[start:i])
            start = i + 1
        i += 1
    if depth_in_quote:
        raise ValueError(f"line {lineno}: unterminated label quote")
    tail = raw[start:]
    if tail:
        pairs.append(tail)
    return pairs


def _check_histograms(types: Dict[str, str],
                      samples: List[Dict[str, Any]]) -> None:
    by_series: Dict[Tuple[str, Tuple[Tuple[str, str], ...]],
                    Dict[str, Any]] = {}
    for sample in samples:
        family = sample["family"]
        if types.get(family) != "histogram":
            continue
        labels = tuple(sorted((k, v) for k, v in sample["labels"].items()
                              if k != "le"))
        entry = by_series.setdefault((family, labels),
                                     {"buckets": [], "count": None})
        if sample["name"] == family + "_bucket":
            entry["buckets"].append((sample["labels"].get("le", ""),
                                     sample["value"]))
        elif sample["name"] == family + "_count":
            entry["count"] = sample["value"]
    for (family, labels), entry in by_series.items():
        buckets = entry["buckets"]
        if not buckets or buckets[-1][0] != "+Inf":
            raise ValueError(
                f"histogram {family!r} {dict(labels)}: missing +Inf bucket")
        values = [v for _, v in buckets]
        if any(b > a for b, a in zip(values, values[1:])):
            raise ValueError(
                f"histogram {family!r}: buckets not cumulative")
        if entry["count"] is not None and values[-1] != entry["count"]:
            raise ValueError(
                f"histogram {family!r}: +Inf bucket != _count")
