"""Self-map catalog for orbit generation and contraction checks."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from .metrics import DomainMismatch

LINEAR_QUARTER = "linear-quarter"
PIECEWISE_QUARTER = "piecewise-quarter"


@dataclass(frozen=True)
class MapSpec:
    """A named self-map."""

    name: str
    fn: Callable[[Any], Any] = field(repr=False)

    def apply(self, x: Any) -> Any:
        return self.fn(x)

    def orbit(self, seed: Any, length: int) -> list:
        """[seed, T seed, ..., T^length seed] (length + 1 points)."""
        points = [seed]
        for _ in range(length):
            points.append(self.fn(points[-1]))
        return points


def linear_quarter() -> MapSpec:
    return MapSpec(LINEAR_QUARTER, lambda x: x / 4.0)


def piecewise_quarter() -> MapSpec:
    return MapSpec(PIECEWISE_QUARTER, lambda x: x / 4.0 if x >= 0 else 1.0)


def from_table(table: dict) -> MapSpec:
    """Finite map given as an explicit point -> point table."""
    frozen = dict(table)

    def lookup(x: Any) -> Any:
        try:
            return frozen[x]
        except KeyError:
            raise DomainMismatch(f"point {x!r} is outside the table domain") from None

    return MapSpec("user-table", lookup)


CATALOG: dict[str, Callable[[], MapSpec]] = {
    LINEAR_QUARTER: linear_quarter,
    PIECEWISE_QUARTER: piecewise_quarter,
}
