"""Result objects produced by the accuracy simulator.

The classification follows Figure 6's semantics exactly:

* the **denominator** is the number of invalidations the base system
  observes: external invalidations actually delivered plus
  self-invalidations verified correct (each of those replaced an
  external invalidation that would otherwise have happened);
* ``predicted`` — self-invalidations the directory verified correct;
* ``not_predicted`` — external invalidations that reached a node still
  holding the copy (training losses and unconfident signatures);
* ``mispredicted`` — premature self-invalidations (the self-invalidator
  requested the block back first). These are *extra* events stacked on
  top, which is why the paper's Figure 6 bars can exceed 100%.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.storage import AggregateStorage


@dataclass
class AccuracyReport:
    """Outcome of one (workload, policy) accuracy run."""

    workload: str
    policy: str
    predicted: int = 0
    not_predicted: int = 0
    mispredicted: int = 0
    #: self-invalidations never verified by run end (no base-system
    #: counterpart invalidation; excluded from all fractions)
    unresolved: int = 0
    accesses: int = 0
    coherence_misses: int = 0
    self_invalidations: int = 0
    storage: Optional[AggregateStorage] = None

    @property
    def total_invalidations(self) -> int:
        return self.predicted + self.not_predicted

    @property
    def predicted_fraction(self) -> float:
        total = self.total_invalidations
        return self.predicted / total if total else 0.0

    @property
    def not_predicted_fraction(self) -> float:
        total = self.total_invalidations
        return self.not_predicted / total if total else 0.0

    @property
    def mispredicted_fraction(self) -> float:
        """Premature self-invalidations / base invalidations; stacks on
        top of the 100% formed by the other two fractions."""
        total = self.total_invalidations
        return self.mispredicted / total if total else 0.0

    def summary(self) -> str:
        total = self.total_invalidations
        return (
            f"{self.workload:<14} {self.policy:<11} "
            f"invals={total:<9} "
            f"predicted={self.predicted_fraction:6.1%} "
            f"not={self.not_predicted_fraction:6.1%} "
            f"mispredicted={self.mispredicted_fraction:6.1%}"
        )
