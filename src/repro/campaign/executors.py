"""Executor adapters: how a campaign point becomes a result row.

The driver only knows the contract ``point -> row`` (a
select()-shaped dict: identity columns + a ``metrics`` mapping +
``digest``). Two adapters satisfy it:

:class:`LocalExecutor`
    runs each point through the ordinary :class:`Runner` against a
    :class:`ResultCache` — inline by default, so the demo campaign
    needs nothing but a cache directory. Every execution publishes
    through ``cache.put``, which also lands the sqlite index row the
    campaign's discoveries are later tagged in.

:class:`BrokerExecutor`
    submits each point as a one-spec grid to a live ``repro serve``
    broker via :class:`GridClient` — each point's grid takes its
    turn in the broker's round-robin beside every other grid. The
    row is synthesised from the streamed result, so scoring works
    even when the broker's cache directory isn't locally readable.

Both synthesise the row from the spec + scalar metrics rather than
querying the index back, so scoring never races concurrent
publishers and never unpickles blobs it didn't just receive.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.campaign.space import point_spec
from repro.runner import Runner
from repro.runner.cache import ResultCache, spec_digest
from repro.runner.spec import JobSpec
from repro.store.index import finite_metrics, scalar_metrics
from repro._version import __version__


def result_row(
    spec: JobSpec, value: Any, digest: Optional[str] = None
) -> Dict[str, Any]:
    """The select()-shaped row of one freshly computed result."""
    return {
        "digest": digest,
        "kind": spec.kind,
        "workload": spec.workload,
        "size": spec.size,
        "policy": spec.policy.name,
        "bits": spec.policy.bits,
        "encoder": spec.policy.encoder,
        "variant": spec.variant,
        "forwarding": int(spec.forwarding),
        "si_fire_delay": spec.si_fire_delay,
        "metrics": finite_metrics(scalar_metrics(value)),
    }


class LocalExecutor:
    """Execute points through a Runner against a local cache."""

    def __init__(
        self,
        cache: ResultCache,
        size: str = "tiny",
        jobs: int = 1,
    ) -> None:
        self.cache = cache
        self.size = size
        self.runner = Runner(jobs=jobs, cache=cache)

    def __call__(self, point: Dict[str, Any]) -> Dict[str, Any]:
        spec = point_spec(point, self.size)
        value = self.runner.run_one(spec)
        return result_row(spec, value, digest=self.cache.key(spec))

    def close(self) -> None:  # symmetric with BrokerExecutor
        pass


class BrokerExecutor:
    """Execute points as one-spec grids on a serve-mode broker."""

    def __init__(
        self,
        address: Tuple[str, int],
        size: str = "tiny",
        auth_token: Optional[str] = None,
        timeout: Optional[float] = 240.0,
        salt: Optional[str] = None,
    ) -> None:
        from repro.runner.remote import GridClient

        self.client = GridClient(
            tuple(address), auth_token=auth_token
        )
        self.size = size
        self.timeout = timeout
        #: digests are computed client-side so discoveries can be
        #: tagged in the broker's index; the salt must match the
        #: broker's cache salt (the package version, unless the
        #: operator salted the cache explicitly)
        self.salt = __version__ if salt is None else salt

    def __call__(self, point: Dict[str, Any]) -> Dict[str, Any]:
        spec = point_spec(point, self.size)
        self.client.submit([spec])
        value = None
        hit = False
        for got, report in self.client.stream(timeout=self.timeout):
            if got == spec:
                value = report
                hit = True
        if not hit:
            from repro.runner.remote import RemoteExecutionError

            raise RemoteExecutionError(
                f"broker finished the grid without returning "
                f"{spec.label()}"
            )
        return result_row(
            spec, value, digest=spec_digest(spec, self.salt)
        )

    def close(self) -> None:
        self.client.close()
