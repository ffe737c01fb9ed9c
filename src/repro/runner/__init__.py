"""Run orchestration: declarative job specs, parallel execution, and a
content-addressed result cache.

The experiment modules (:mod:`repro.experiments`) describe their grids
as lists of :class:`JobSpec` and submit them through a :class:`Runner`;
``repro run-all`` shares one runner across every experiment so the
overlapping parts of the paper grid — the ``base`` timing runs Figure 9,
Table 4 and the traffic census all need, the 13-bit LTP Figure 8,
Table 3 and the ablations all need — execute exactly once and persist
in the cache for the next invocation.

See README.md ("Runner architecture") for the full design.
"""

from repro.runner.cache import (
    CACHE_SCHEMA,
    CacheStats,
    ResultCache,
    prune_files,
)
from repro.runner.runner import Runner, RunnerStats, execute_spec
from repro.runner.backends import (
    ExecutionBackend,
    InlineBackend,
    PoolBackend,
    default_backend,
)
from repro.runner.remote import (
    AUTH_TOKEN_ENV,
    DEFAULT_LEASE_TTL,
    Broker,
    GridClient,
    LeaseTable,
    ProtocolError,
    RemoteBackend,
    RemoteExecutionError,
    WorkerStats,
    authenticate,
    encode_frame,
    read_frame,
    run_worker,
    submit_grid,
)
from repro.runner.spec import (
    JobSpec,
    PolicySpec,
    accuracy_job,
    census_job,
    oracle_job,
    timing_job,
)

__all__ = [
    "AUTH_TOKEN_ENV",
    "Broker",
    "CACHE_SCHEMA",
    "CacheStats",
    "DEFAULT_LEASE_TTL",
    "ExecutionBackend",
    "GridClient",
    "InlineBackend",
    "JobSpec",
    "LeaseTable",
    "PolicySpec",
    "PoolBackend",
    "ProtocolError",
    "RemoteBackend",
    "RemoteExecutionError",
    "ResultCache",
    "Runner",
    "RunnerStats",
    "WorkerStats",
    "accuracy_job",
    "authenticate",
    "census_job",
    "default_backend",
    "encode_frame",
    "execute_spec",
    "oracle_job",
    "prune_files",
    "read_frame",
    "run_worker",
    "submit_grid",
    "timing_job",
]
