"""The reference simulators and policies, kept as test oracles.

:class:`ReferenceTimingSimulator` is a readable implementation of the
timing model: one closure per scheduled event over dict-keyed cache and
directory state. :class:`ReferenceAccuracySimulator` is the readable
accuracy simulator: one :class:`~tests.oracle.coherence.CoherenceEngine`
access per stream event over dict-keyed caches and directory entries,
interleaved by :class:`~tests.oracle.scheduler.InterleavingScheduler`,
the readable generator the shipped schedule loop is checked against.
Both simulators drive the readable policies of
:mod:`tests.oracle.policies`, which name blocks by number;
:func:`reference_factory` builds them for a
:class:`~repro.runner.spec.PolicySpec`. The package ships only the
optimized :class:`repro.timing.TimingSimulator` and
:class:`repro.sim.AccuracySimulator` and its policies over dense block
ids; the conformance suite, the equivalence properties and
``benchmarks/bench_engines.py`` run both sides on the same spec and
require byte-identical :class:`~repro.timing.stats.TimingReport`
pickles and equal :class:`~repro.sim.results.AccuracyReport` digests.
"""

from tests.oracle.functional import ReferenceAccuracySimulator
from tests.oracle.policies import reference_factory
from tests.oracle.timing_engine import ReferenceTimingSimulator

__all__ = [
    "ReferenceAccuracySimulator",
    "ReferenceTimingSimulator",
    "reference_factory",
]
