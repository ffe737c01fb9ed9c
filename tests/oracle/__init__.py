"""The reference timing core, kept as the test oracle.

:class:`ReferenceTimingSimulator` is a readable implementation of the
timing model: one closure per scheduled event over dict-keyed cache and
directory state. The package ships only the optimized
:class:`repro.timing.TimingSimulator`; the conformance suite, the
equivalence property and ``benchmarks/bench_engines.py`` run both and
require byte-identical :class:`~repro.timing.stats.TimingReport`
pickles.
"""

from tests.oracle.timing_engine import ReferenceTimingSimulator

__all__ = ["ReferenceTimingSimulator"]
