"""The base system: never self-invalidate.

Running the simulators with :class:`NullPolicy` yields the conventional
DSM the paper's speedups are measured against, and the denominator
invalidation counts for the accuracy figures.
"""

from __future__ import annotations

from typing import Hashable

from repro.core.base import SelfInvalidationPolicy


class NullPolicy(SelfInvalidationPolicy):
    """Predicts nothing; every invalidation is a plain external one."""

    name = "base"

    def block_local_config(self) -> Hashable:
        return (type(self),)
