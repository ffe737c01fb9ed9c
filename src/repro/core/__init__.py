"""The paper's contribution: last-touch predictors.

A Last-Touch Predictor (LTP, Section 3) is a per-node two-level
structure:

* level 1 — a **current signature** register per cached block, holding an
  encoding of the instruction trace touching the block since the
  coherence miss that fetched it;
* level 2 — a table of previously observed **last-touch signatures**
  (per-block in the PAp-like organization, global in the PAg-like one),
  each guarded by a two-bit saturating confidence counter.

On every access the current signature is updated (truncated addition of
the PC) and compared against the table; a confident match predicts the
last touch and triggers speculative self-invalidation. When an external
invalidation arrives, the trace is complete and its signature is learned.

The Last-PC baseline (Section 5.1) is the same machinery with a history
of length one: the "signature" is simply the most recent PC.
"""

from repro.core.base import SelfInvalidationPolicy, StorageReport
from repro.core.confidence import ConfidenceConfig, CounterTable
from repro.core.signature import (
    LastPCEncoder,
    SignatureEncoder,
    TruncatedAddEncoder,
    XorRotateEncoder,
)
from repro.core.ltp import GlobalLTP, PerBlockLTP
from repro.core.last_pc import LastPCPredictor
from repro.core.null import NullPolicy
from repro.core.oracle import OraclePolicy
from repro.core.storage import (
    AggregateStorage,
    aggregate_reports,
    max_entries_per_block,
)

__all__ = [
    "AggregateStorage",
    "ConfidenceConfig",
    "CounterTable",
    "GlobalLTP",
    "LastPCEncoder",
    "LastPCPredictor",
    "NullPolicy",
    "OraclePolicy",
    "PerBlockLTP",
    "SelfInvalidationPolicy",
    "SignatureEncoder",
    "StorageReport",
    "TruncatedAddEncoder",
    "XorRotateEncoder",
    "aggregate_reports",
    "max_entries_per_block",
]
