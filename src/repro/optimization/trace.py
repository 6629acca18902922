"""Evaluation and decision records.

The paper's evaluation methodology (Section IV) records every configuration
tested by the optimizer *in test order* together with its metric value, then
replays the kriging policy over that trajectory.  The structures here are
that record.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["EvaluationRecord", "OptimizationTrace", "OptimizationResult"]


@dataclass(frozen=True, slots=True)
class EvaluationRecord:
    """One metric query answered during an optimization run.

    Attributes
    ----------
    configuration:
        The tested configuration (immutable tuple of ints).
    value:
        Metric value returned to the optimizer.
    simulated:
        ``True`` when the value came from a fresh simulation; ``False`` for
        kriging interpolations and exact cache hits.
    exact_hit:
        ``True`` when the configuration had been simulated before and the
        memoized value was returned.
    n_neighbors:
        Support-point count inside the distance ball at query time
        (0 for pure-simulation evaluators).
    phase:
        Optimizer phase that issued the query (``"min"`` or ``"greedy"``).
    """

    configuration: tuple[int, ...]
    value: float
    simulated: bool
    exact_hit: bool = False
    n_neighbors: int = 0
    phase: str = ""


@dataclass
class OptimizationTrace:
    """Ordered log of every metric query plus the greedy decisions taken."""

    records: list[EvaluationRecord] = field(default_factory=list)
    decisions: list[int] = field(default_factory=list)

    def append(self, record: EvaluationRecord) -> None:
        """Log one metric query."""
        self.records.append(record)

    def record_decision(self, variable_index: int) -> None:
        """Log the variable chosen by one greedy iteration (``j_c``)."""
        self.decisions.append(int(variable_index))

    def __len__(self) -> int:
        return len(self.records)

    @property
    def configurations(self) -> np.ndarray:
        """``(n, Nv)`` matrix of tested configurations, in test order."""
        if not self.records:
            return np.empty((0, 0))
        return np.asarray([r.configuration for r in self.records], dtype=np.int64)

    @property
    def values(self) -> np.ndarray:
        """Metric values aligned with :attr:`configurations`."""
        return np.asarray([r.value for r in self.records], dtype=np.float64)

    @property
    def n_simulated(self) -> int:
        """Number of queries answered by fresh simulation."""
        return sum(1 for r in self.records if r.simulated)

    @property
    def n_interpolated(self) -> int:
        """Number of queries answered without simulation (kriging or memo)."""
        return sum(1 for r in self.records if not r.simulated)

    def unique_first_visits(self) -> "OptimizationTrace":
        """Trace restricted to the first visit of each configuration.

        The replay methodology feeds each distinct configuration once; exact
        revisits (which cost nothing in either scheme) are dropped.
        """
        seen: set[tuple[int, ...]] = set()
        filtered = OptimizationTrace(decisions=list(self.decisions))
        for record in self.records:
            if record.configuration in seen:
                continue
            seen.add(record.configuration)
            filtered.append(record)
        return filtered


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of a full optimizer run.

    Attributes
    ----------
    solution:
        The final configuration (``w_res`` for min+1, the maximal tolerated
        noise budget for the sensitivity descent).
    solution_value:
        Metric value at :attr:`solution`.
    minimum:
        The per-variable starting point (``w_min``); equals ``solution`` for
        optimizers without a min phase.
    cost:
        Implementation cost ``C(solution)``.
    trace:
        Full evaluation/decision log of the run.
    satisfied:
        Whether the final configuration meets the quality constraint.
    """

    solution: tuple[int, ...]
    solution_value: float
    minimum: tuple[int, ...]
    cost: float
    trace: OptimizationTrace
    satisfied: bool
