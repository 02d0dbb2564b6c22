"""Statistics collection for simulator components.

Every architectural model (caches, SPMs, the NoC, the task runtime) accumulates
its observable behaviour into a :class:`StatSet` so that benchmarks can diff
configurations without poking at component internals.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Tuple

__all__ = ["StatSet"]


class StatSet:
    """A named bag of additive counters.

    Counters are created on first use and always default to zero, so model
    code can ``stats.add("budget_denials")`` without registration
    boilerplate.  Components on a per-access or per-task hot path keep
    their counters as plain numeric fields instead and build a
    :class:`StatSet` only when ``stats`` is read (:meth:`of_counts`); this
    class serves cold code, read-side snapshots and campaign aggregation.

    The counters live in a plain dict with an EAFP increment (the hit case
    is a single dict store), and bulk transfers go through
    :meth:`add_many`, which skips the per-call overhead.
    """

    __slots__ = ("name", "_counters")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._counters: Dict[str, float] = {}

    @classmethod
    def of_counts(cls, name: str, counts: Iterable[Tuple[str, float]]) -> "StatSet":
        """A fresh set holding every non-zero ``(key, count)`` pair as given.

        The snapshot a component with counter fields returns from
        ``stats``: a count that ``add`` would never have touched is zero,
        so its key is absent, and each value keeps its Python type.
        """
        out = cls(name)
        out._counters = {key: count for key, count in counts if count}
        return out

    def add(self, key: str, value: float = 1.0) -> None:
        counters = self._counters
        try:
            counters[key] += value
        except KeyError:
            counters[key] = value

    def add_many(self, items: "Mapping[str, float] | Iterable[Tuple[str, float]]") -> None:
        """Accumulate a whole mapping (or iterable of pairs) of counters.

        The bulk path used by campaign result aggregation: one call per
        record instead of one per counter.
        """
        counters = self._counters
        pairs = items.items() if isinstance(items, Mapping) else items
        for key, value in pairs:
            try:
                counters[key] += value
            except KeyError:
                counters[key] = value

    def get(self, key: str) -> float:
        return self._counters.get(key, 0.0)

    def __getitem__(self, key: str) -> float:
        return self.get(key)

    def __contains__(self, key: str) -> bool:
        return key in self._counters

    def keys(self) -> Iterable[str]:
        return self._counters.keys()

    def as_dict(self) -> Dict[str, float]:
        return dict(self._counters)

    def merge(self, other: "StatSet") -> None:
        """Add every counter of ``other`` into this set."""
        self.add_many(other._counters)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        body = ", ".join(f"{k}={v:g}" for k, v in sorted(self._counters.items()))
        return f"StatSet({self.name}: {body})"


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean, the standard aggregator for speedup ratios."""
    import math

    values = list(values)
    if not values:
        raise ValueError("geometric_mean of empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geometric_mean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


__all__.append("geometric_mean")
