"""In-process metrics registry with Prometheus text exposition.

Counters, gauges, and fixed-bucket histograms, all labelled.  The design
follows the pull model of the MPCDF/DCDB monitoring stacks: instrumented
code updates cheap in-memory children; an exporter (``GET /metrics``)
renders the whole registry on demand.

Conventions enforced at registration time (and statically by repolint's
``unregistered-metric-name`` rule): metric names are ``snake_case`` and
carry a unit suffix — ``_total`` (counters), ``_seconds``, ``_bytes``,
``_rows``.

Hot-path cost model: instrumented call sites resolve their labelled child
once (``registry.counter(...).labels(...)``) and keep the child; updates
are then a single attribute bump.  A registry constructed with
``enabled=False`` hands out shared no-op children, so the "bare" baseline
in ``bench_a11_obs_overhead`` runs the very same instrumented code.

Family/child creation is lock-protected; value updates rely on the GIL
(a lost increment under a racing live-replicator thread is acceptable
telemetry error, corruption is not possible).
"""

from __future__ import annotations

import re
from typing import Callable, Iterable, Iterator, Mapping

from ..locks import create_lock

__all__ = [
    "DEFAULT_BUCKETS",
    "METRIC_NAME_PATTERN",
    "METRIC_NAME_RE",
    "PROMETHEUS_CONTENT_TYPE",
    "MetricError",
    "MetricsRegistry",
    "ParsedExposition",
    "parse_prometheus_text",
]

#: Naming convention: snake_case plus a unit suffix.  Single source of
#: truth — the repolint rule checks literals against the same pattern.
METRIC_NAME_PATTERN = r"^[a-z][a-z0-9_]*_(total|seconds|bytes|rows|ratio)$"
METRIC_NAME_RE = re.compile(METRIC_NAME_PATTERN)

#: Latency buckets (seconds) sized for in-process pipeline stages.
DEFAULT_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
)

#: Exposition content type, per the Prometheus text-format spec.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class MetricError(ValueError):
    """Invalid metric name, label set, or conflicting re-registration."""


def _fmt(value: float) -> str:
    # Prometheus spells special values +Inf/-Inf/NaN (int() would raise).
    if value != value:
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _render_labels(labels: Iterable[tuple[str, str]]) -> str:
    parts = ",".join(f'{k}="{_escape_label(v)}"' for k, v in labels)
    return "{" + parts + "}" if parts else ""


#: ``(sample_name, sorted ((label, value), ...), value)`` — one exposed sample.
Sample = tuple[str, tuple[tuple[str, str], ...], float]


def _family_of(sample_name: str, types: Mapping[str, str]) -> str:
    """The family a sample belongs to: a histogram's ``_bucket``,
    ``_sum`` and ``_count`` samples fold into their base name."""
    if sample_name not in types:
        for suffix in ("_bucket", "_count", "_sum"):
            if sample_name.endswith(suffix):
                base = sample_name[: -len(suffix)]
                if types.get(base) == "histogram":
                    return base
    return sample_name


def _format_exposition(
    headers: Mapping[str, tuple[str | None, str]], samples: Iterable[Sample]
) -> str:
    """Prometheus text exposition format 0.0.4.

    ``headers`` maps each family name to ``(help, type)``, in output
    order (``help=None`` omits the ``# HELP`` line).  Samples are grouped
    under their family, keeping the caller's order within a family;
    samples of a family without a header are left out.
    """
    types = {name: type_name for name, (_, type_name) in headers.items()}
    grouped: dict[str, list[Sample]] = {name: [] for name in headers}
    for sample in samples:
        family = grouped.get(_family_of(sample[0], types))
        if family is not None:
            family.append(sample)
    lines: list[str] = []
    for name, (help_text, type_name) in headers.items():
        if help_text is not None:
            lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {type_name}")
        for sample_name, labels, value in grouped[name]:
            lines.append(f"{sample_name}{_render_labels(labels)} {_fmt(value)}")
    return "\n".join(lines) + ("\n" if lines else "")


class _NoopChild:
    """Shared do-nothing child handed out by a disabled registry."""

    def labels(self, **labelvalues: str) -> "_NoopChild":
        return self

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def remove(self, **labelvalues: str) -> bool:
        return False


_NOOP = _NoopChild()


class _Counter:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricError("counters only go up; use a gauge")
        self.value += amount


class _Gauge:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class _Histogram:
    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: tuple[float, ...]) -> None:
        self.buckets = buckets
        self.counts = [0] * (len(buckets) + 1)  # +1 for +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1


class _Family:
    """One metric name: type, help, label names, and labelled children."""

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: tuple[str, ...],
        type_name: str,
        child_factory: Callable[[], object],
    ) -> None:
        self.name = name
        self.help = help_text
        self.labelnames = labelnames
        self.type_name = type_name
        self._child_factory = child_factory
        self._children: dict[tuple[str, ...], object] = {}
        self._lock = create_lock(f"Family:{name}")  # guards: _children

    def labels(self, **labelvalues: str):
        if set(labelvalues) != set(self.labelnames):
            raise MetricError(
                f"metric {self.name!r} expects labels {self.labelnames}, "
                f"got {tuple(sorted(labelvalues))}"
            )
        key = tuple(str(labelvalues[n]) for n in self.labelnames)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.setdefault(key, self._child_factory())
        return child

    def remove(self, **labelvalues: str) -> bool:
        """Drop one labelled child; returns True when it existed.

        Partial label sets drop every child whose labels match the given
        subset — ``remove(member="siteA")`` on a ``(member, status)``
        family clears all of that member's children.
        """
        unknown = set(labelvalues) - set(self.labelnames)
        if unknown:
            raise MetricError(
                f"metric {self.name!r} has labels {self.labelnames}, "
                f"got unknown {tuple(sorted(unknown))}"
            )
        positions = [
            (i, str(labelvalues[n]))
            for i, n in enumerate(self.labelnames)
            if n in labelvalues
        ]
        with self._lock:
            doomed = [
                key for key in self._children
                if all(key[i] == v for i, v in positions)
            ]
            for key in doomed:
                del self._children[key]
        return bool(doomed)

    def _default_child(self):
        if self.labelnames:
            raise MetricError(
                f"metric {self.name!r} is labelled {self.labelnames}; "
                "call .labels(...) first"
            )
        return self.labels()

    # unlabelled convenience: family acts as its own child
    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default_child().dec(amount)

    def set(self, value: float) -> None:
        self._default_child().set(value)

    def observe(self, value: float) -> None:
        self._default_child().observe(value)

    def items(self) -> list[tuple[dict[str, str], object]]:
        with self._lock:
            pairs = sorted(self._children.items())
        return [
            (dict(zip(self.labelnames, key)), child) for key, child in pairs
        ]


class MetricsRegistry:
    """Get-or-create registry of metric families.

    Re-registering a name is idempotent when type and labels match and an
    error when they conflict, so call sites may resolve their family
    inline without central declarations.
    """

    def __init__(self, *, enabled: bool = True) -> None:
        self.enabled = enabled
        self._families: dict[str, _Family] = {}
        self._lock = create_lock("MetricsRegistry")  # guards: _families

    # -- registration ----------------------------------------------------------

    def _family(
        self,
        name: str,
        help_text: str,
        labelnames: Iterable[str],
        type_name: str,
        child_factory: Callable[[], object],
    ):
        if not METRIC_NAME_RE.match(name):
            raise MetricError(
                f"metric name {name!r} violates the naming convention "
                f"{METRIC_NAME_PATTERN!r} (snake_case + unit suffix)"
            )
        if not self.enabled:
            return _NOOP
        names = tuple(labelnames)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(name, help_text, names, type_name, child_factory)
                self._families[name] = family
                return family
        if family.type_name != type_name or family.labelnames != names:
            raise MetricError(
                f"metric {name!r} already registered as {family.type_name} "
                f"with labels {family.labelnames}"
            )
        return family

    def counter(self, name: str, help_text: str = "", labelnames: Iterable[str] = ()):
        return self._family(name, help_text, labelnames, "counter", _Counter)

    def gauge(self, name: str, help_text: str = "", labelnames: Iterable[str] = ()):
        return self._family(name, help_text, labelnames, "gauge", _Gauge)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labelnames: Iterable[str] = (),
        *,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ):
        bounds = tuple(sorted(float(b) for b in buckets))
        return self._family(
            name, help_text, labelnames, "histogram", lambda: _Histogram(bounds)
        )

    def remove_labels(self, name: str, **labels: str) -> bool:
        """Drop the labelled children of ``name`` matching ``labels``.

        The reverse of ``.labels(...)``: a label set that stops being
        meaningful — a federation member that left, a serving cache that
        was torn down — would otherwise be reported forever by
        ``/metrics`` at its last value.  Partial label sets clear every
        matching child.  Returns True when at least one child was
        removed; unknown metric names are a no-op (False).
        """
        with self._lock:
            family = self._families.get(name)
        if family is None:
            return False
        return family.remove(**labels)

    # -- queries ---------------------------------------------------------------

    def _sorted_families(self) -> list[_Family]:
        with self._lock:
            return sorted(self._families.values(), key=lambda f: f.name)

    def _child(self, name: str, labels: Mapping[str, str]):
        """The child with exactly ``labels`` (None when absent or partial)."""
        family = self._families.get(name)
        if family is None or set(labels) != set(family.labelnames):
            return None
        return family._children.get(
            tuple(str(labels[n]) for n in family.labelnames)
        )

    def value(self, name: str, **labels: str) -> float:
        """Current value of a counter/gauge child (0.0 when absent)."""
        child = self._child(name, labels)
        if not isinstance(child, (_Counter, _Gauge)):
            return 0.0
        return child.value

    def histogram_stats(self, name: str, **labels: str) -> tuple[int, float]:
        """``(count, sum)`` of a histogram child ((0, 0.0) when absent)."""
        child = self._child(name, labels)
        if not isinstance(child, _Histogram):
            return (0, 0.0)
        return (child.count, child.sum)

    def iter_exposition_samples(self) -> Iterator[Sample]:
        """Yield ``(sample_name, sorted label items, value)`` per sample.

        The one sample walk over the registry, in family-name then
        label-value order.  Counters and gauges yield their value; a
        histogram yields its cumulative ``le``-labelled ``_bucket`` series
        (``+Inf`` included), then ``_sum`` and ``_count``.
        :meth:`render_prometheus` formats it, the metrics history records
        it (buckets skipped) and the telemetry shipment builder ships it
        on every sync cycle, so it must stay cheap.
        """
        for family in self._sorted_families():
            for labels, child in family.items():
                base = tuple(sorted(labels.items()))
                if isinstance(child, _Histogram):
                    cumulative = 0
                    for bound, n in zip(child.buckets, child.counts):
                        cumulative += n
                        key = tuple(sorted(base + (("le", _fmt(bound)),)))
                        yield family.name + "_bucket", key, float(cumulative)
                    cumulative += child.counts[-1]
                    key = tuple(sorted(base + (("le", "+Inf"),)))
                    yield family.name + "_bucket", key, float(cumulative)
                    yield family.name + "_sum", base, float(child.sum)
                    yield family.name + "_count", base, float(child.count)
                else:
                    yield family.name, base, float(child.value)  # type: ignore[attr-defined]

    def type_names(self) -> dict[str, str]:
        """Family name -> exposition type, in family-name order."""
        return {f.name: f.type_name for f in self._sorted_families()}

    # -- exposition ------------------------------------------------------------

    def render_prometheus(self) -> str:
        """The registry in Prometheus text exposition format 0.0.4.

        Formats :meth:`iter_exposition_samples` under each family's
        ``# HELP``/``# TYPE`` header; a bucket line's labels are in
        sorted order, ``le`` included.
        """
        headers = {
            f.name: (f.help, f.type_name) for f in self._sorted_families()
        }
        return _format_exposition(headers, self.iter_exposition_samples())

    def snapshot(self) -> dict:
        """JSON-friendly dump of every family and child."""
        out: dict = {}
        for family in self._sorted_families():
            values = []
            for labels, child in family.items():
                if isinstance(child, _Histogram):
                    values.append({
                        "labels": labels,
                        "count": child.count,
                        "sum": child.sum,
                        "buckets": {
                            _fmt(b): n
                            for b, n in zip(child.buckets, child.counts)
                        },
                    })
                else:
                    values.append({"labels": labels, "value": child.value})  # type: ignore[attr-defined]
            out[family.name] = {
                "type": family.type_name,
                "help": family.help,
                "values": values,
            }
        return out


class ParsedExposition:
    """Result of :func:`parse_prometheus_text` with convenience lookups."""

    def __init__(
        self,
        types: dict[str, str],
        helps: dict[str, str],
        samples: dict[tuple[str, tuple[tuple[str, str], ...]], float],
    ) -> None:
        self.types = types
        self.helps = helps
        self.samples = samples

    def value(self, sample_name: str, **labels: str) -> float | None:
        key = (sample_name, tuple(sorted((k, str(v)) for k, v in labels.items())))
        return self.samples.get(key)

    def sample_names(self) -> set[str]:
        return {name for name, _ in self.samples}


def _parse_labels(text: str) -> tuple[tuple[str, str], ...]:
    labels: list[tuple[str, str]] = []
    i = 0
    while i < len(text):
        eq = text.index("=", i)
        name = text[i:eq].strip().lstrip(",").strip()
        if text[eq + 1] != '"':
            raise MetricError(f"unquoted label value in {text!r}")
        j = eq + 2
        value: list[str] = []
        while text[j] != '"':
            ch = text[j]
            if ch == "\\":
                j += 1
                esc = text[j]
                value.append({"\\": "\\", '"': '"', "n": "\n"}.get(esc, esc))
            else:
                value.append(ch)
            j += 1
        labels.append((name, "".join(value)))
        i = j + 1
    return tuple(sorted(labels))


def parse_prometheus_text(text: str) -> ParsedExposition:
    """Strict-enough parser of the text format, for round-trip tests."""
    types: dict[str, str] = {}
    helps: dict[str, str] = {}
    samples: dict[tuple[str, tuple[tuple[str, str], ...]], float] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, type_name = rest.partition(" ")
            types[name] = type_name.strip()
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            helps[name] = help_text
            continue
        if line.startswith("#"):
            continue
        if "{" in line:
            name = line[: line.index("{")]
            label_text = line[line.index("{") + 1 : line.rindex("}")]
            labels = _parse_labels(label_text)
            value_text = line[line.rindex("}") + 1 :].strip()
        else:
            name, _, value_text = line.partition(" ")
            labels = ()
        if value_text == "+Inf":
            value = float("inf")
        elif value_text == "-Inf":
            value = float("-inf")
        elif value_text == "NaN":
            value = float("nan")
        else:
            value = float(value_text)
        key = (name, labels)
        if key in samples:
            raise MetricError(f"duplicate sample {key!r}")
        samples[key] = value
    return ParsedExposition(types, helps, samples)
