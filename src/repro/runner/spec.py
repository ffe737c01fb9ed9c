"""Declarative job specifications for simulation runs.

A :class:`JobSpec` captures *everything* that determines the outcome of
one simulation: the workload and its size preset (plus any generator
parameter overrides such as ``seed``), the self-invalidation policy and
its knobs, the protocol variant, the timing-model configuration, and
the run kind (accuracy classification, timing, oracle bound, or
sharing census). Two equal specs therefore denote the same
deterministic result, which is what makes them usable as

* deduplication keys — overlapping grids across experiments (the
  ``base``/``dsi``/``ltp`` timing runs shared by Figure 9, Table 4 and
  the traffic experiment, the 13-bit LTP shared by Figure 8, Table 3
  and the ablations) execute once;
* content-address inputs — :mod:`repro.runner.cache` hashes the
  canonical JSON form of a spec into an on-disk key.

Both dataclasses are frozen and hashable, and normalise dict-style
inputs (``overrides={"seed": 7}``) into sorted tuples so equal
configurations compare equal regardless of spelling.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any, Optional, Tuple

from repro.core import (
    ConfidenceConfig,
    GlobalLTP,
    LastPCPredictor,
    NullPolicy,
    PerBlockLTP,
    SelfInvalidationPolicy,
    TruncatedAddEncoder,
    XorRotateEncoder,
)
from repro.dsi import DSIPolicy
from repro.errors import ConfigurationError
from repro.ext.hybrid import HybridPolicy
from repro.timing.config import SystemConfig

#: run kinds a spec may request
KINDS = ("accuracy", "timing", "oracle", "census")

#: canonical policy names (the experiment modules' vocabulary)
POLICY_NAMES = ("base", "dsi", "last-pc", "ltp", "ltp-global", "hybrid")

#: the policies that build a signature encoder from ``bits``
_ENCODER_POLICIES = ("ltp", "ltp-global", "last-pc")

#: signature encoders by canonical name
ENCODERS = ("trunc-add", "xor-rotate")

#: protocol variants by canonical (lowercase) name
VARIANTS = ("invalidate", "downgrade")


def _freeze_pairs(value) -> Tuple[Tuple[str, Any], ...]:
    """Normalise a dict or iterable of pairs into a sorted tuple."""
    if isinstance(value, dict):
        pairs = value.items()
    else:
        pairs = tuple(tuple(p) for p in value)
    return tuple(sorted((str(k), v) for k, v in pairs))


@dataclass(frozen=True)
class PolicySpec:
    """A self-invalidation policy, fully determined by value.

    Attributes:
        name: one of :data:`POLICY_NAMES`.
        bits: signature / PC-index width (ignored by base, dsi, hybrid).
        encoder: "trunc-add" (the paper's) or "xor-rotate".
        confidence: :class:`~repro.core.ConfidenceConfig` overrides as
            sorted ``(field, value)`` pairs; empty means defaults.
        entries_per_block: finite per-block table capacity (the
            Section 3.3 hardware ablation), ``None`` for unbounded.
    """

    name: str = "ltp"
    bits: int = 30
    encoder: str = "trunc-add"
    confidence: Tuple[Tuple[str, Any], ...] = ()
    entries_per_block: Optional[int] = None

    def __post_init__(self) -> None:
        if self.name not in POLICY_NAMES:
            raise ConfigurationError(
                f"unknown policy {self.name!r}; choose from {POLICY_NAMES}"
            )
        if self.encoder not in ENCODERS:
            raise ConfigurationError(
                f"unknown encoder {self.encoder!r}; choose from {ENCODERS}"
            )
        if self.name in _ENCODER_POLICIES and not 1 <= self.bits <= 64:
            raise ConfigurationError(
                f"signature width must be in [1, 64], got {self.bits}"
            )
        if self.entries_per_block is not None and self.entries_per_block < 1:
            raise ConfigurationError(
                f"entries_per_block must be >= 1 or None, got "
                f"{self.entries_per_block}"
            )
        object.__setattr__(
            self, "confidence", _freeze_pairs(self.confidence)
        )
        # the built policies construct the same config; fail here, not
        # in whichever worker first executes the spec
        self._confidence_config()

    def _confidence_config(self) -> Optional[ConfidenceConfig]:
        if not self.confidence:
            return None
        try:
            return ConfidenceConfig(**dict(self.confidence))
        except TypeError as exc:
            raise ConfigurationError(
                f"bad confidence {self.confidence!r}: {exc}"
            ) from None

    def build(self, node: int) -> SelfInvalidationPolicy:
        """The per-node policy factory: instantiate for ``node``."""
        if self.name == "base":
            return NullPolicy()
        if self.name == "dsi":
            return DSIPolicy()
        if self.name == "hybrid":
            return HybridPolicy()
        if self.name == "last-pc":
            return LastPCPredictor(
                bits=self.bits, confidence=self._confidence_config()
            )
        if self.encoder == "xor-rotate":
            enc = XorRotateEncoder(self.bits)
        else:
            enc = TruncatedAddEncoder(self.bits)
        if self.name == "ltp":
            return PerBlockLTP(
                enc,
                self._confidence_config(),
                entries_per_block=self.entries_per_block,
            )
        return GlobalLTP(enc, self._confidence_config())


#: the policy attached to jobs whose kind ignores it (census, oracle),
#: so such specs hash identically however they are built
NULL_POLICY = PolicySpec(name="base")


@dataclass(frozen=True)
class JobSpec:
    """One deterministic simulation run, identified by value.

    Attributes:
        kind: "accuracy" | "timing" | "oracle" | "census".
        workload: canonical workload name (Table 2).
        size: workload size preset ("tiny" | "small" | "paper").
        overrides: workload generator parameter overrides as sorted
            ``(name, value)`` pairs (e.g. ``(("seed", 11),)``).
        policy: the self-invalidation policy under test.
        variant: protocol variant, "invalidate" or "downgrade".
        forwarding: enable the consumer-prediction forwarding
            extension (timing runs only).
        si_fire_delay: cycles between a predicted last touch and the
            SELF_INVAL leaving the node (timing runs only).
        config: full timing-model parameter set (Table 1).
    """

    kind: str
    workload: str
    size: str = "small"
    overrides: Tuple[Tuple[str, Any], ...] = ()
    policy: PolicySpec = NULL_POLICY
    variant: str = "invalidate"
    forwarding: bool = False
    si_fire_delay: int = 0
    config: SystemConfig = SystemConfig()

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigurationError(
                f"unknown job kind {self.kind!r}; choose from {KINDS}"
            )
        if self.variant not in VARIANTS:
            raise ConfigurationError(
                f"unknown variant {self.variant!r}; choose from {VARIANTS}"
            )
        if self.si_fire_delay < 0:
            raise ConfigurationError(
                f"si_fire_delay must be >= 0, got {self.si_fire_delay}"
            )
        object.__setattr__(
            self, "overrides", _freeze_pairs(self.overrides)
        )

    def canonical(self) -> str:
        """Stable JSON identity — the content-address input.

        Rendered once per instance: the cache, the broker and the index
        each ask for it several times per spec. The memo lives in the
        instance dict, outside equality, hashing and the pickled state.
        It is never shared by value, because equal specs can render
        differently (an override of ``1`` and one of ``1.0``).
        """
        try:
            return self.__dict__["_canonical"]
        except KeyError:
            pass
        text = self.__dict__["_canonical"] = json.dumps(
            dataclasses.asdict(self),
            sort_keys=True,
            separators=(",", ":"),
            default=str,
        )
        return text

    def __getstate__(self) -> dict:
        state = self.__dict__
        if "_canonical" in state:
            state = {k: v for k, v in state.items() if k != "_canonical"}
        return state

    def label(self) -> str:
        """Short human-readable tag for progress lines."""
        parts = [self.kind, self.workload, self.policy.name]
        if self.policy.name in _ENCODER_POLICIES:
            parts.append(f"{self.policy.bits}b")
        if self.overrides:
            parts.append(
                ",".join(f"{k}={v}" for k, v in self.overrides)
            )
        if self.variant != "invalidate":
            parts.append(self.variant)
        if self.forwarding:
            parts.append("+fwd")
        if self.si_fire_delay:
            parts.append(f"d={self.si_fire_delay}")
        return "/".join(parts)


def accuracy_job(
    workload: str,
    size: str,
    policy: PolicySpec,
    variant: str = "invalidate",
    overrides=(),
) -> JobSpec:
    return JobSpec(
        kind="accuracy",
        workload=workload,
        size=size,
        overrides=overrides,
        policy=policy,
        variant=variant,
    )


def timing_job(
    workload: str,
    size: str,
    policy: PolicySpec,
    variant: str = "invalidate",
    forwarding: bool = False,
    si_fire_delay: int = 0,
    config: Optional[SystemConfig] = None,
    overrides=(),
) -> JobSpec:
    return JobSpec(
        kind="timing",
        workload=workload,
        size=size,
        overrides=overrides,
        policy=policy,
        variant=variant,
        forwarding=forwarding,
        si_fire_delay=si_fire_delay,
        config=config or SystemConfig(),
    )


def oracle_job(workload: str, size: str, overrides=()) -> JobSpec:
    return JobSpec(
        kind="oracle", workload=workload, size=size, overrides=overrides
    )


def census_job(workload: str, size: str, overrides=()) -> JobSpec:
    return JobSpec(
        kind="census", workload=workload, size=size, overrides=overrides
    )
