#!/usr/bin/env python
"""The Figure 3(c) failure mode, built by hand.

Packs two array elements into one cache block and streams a stencil
over it: the same load instruction touches each block twice per sharing
phase. A Last-PC predictor can never tell the first touch from the
last; a trace-signature LTP distinguishes them by the running truncated
sum.

This example drives the *predictor objects directly* — no workload
generators — so the learning dynamics are visible event by event.

Run:  python examples/stencil_vs_lastpc.py
"""

from repro.core import ConfidenceConfig, LastPCPredictor, PerBlockLTP
from repro.protocol.states import MissKind

LOAD_PC = 0x4A10  # the stencil's single load instruction
#: id -> block number table; policies name blocks by id (here 0)
BLOCKS = [0x80]
BLOCK = 0

# Train-once confidence so the demonstration is compact.
FAST = ConfidenceConfig(initial=3, predict_threshold=3)


def run_phase(policy, label: str) -> None:
    """One sharing phase: coherence miss, two touches, invalidation.

    A self-invalidation fired at the *final* touch is what the
    directory would verify correct; one fired earlier means the node
    itself re-touches the block — premature.
    """
    touches = [LOAD_PC, LOAD_PC]
    events = []
    for i, pc in enumerate(touches):
        fired = policy.on_access(
            BLOCK, pc,
            trace_start=(i == 0),
            miss_kind=MissKind.READ_FETCH if i == 0 else None,
            version=0 if i == 0 else None,
        )
        events.append(
            f"touch {i + 1}: " + ("SELF-INVALIDATE" if fired else "keep")
        )
        if fired:
            if i == len(touches) - 1:
                policy.on_verified_correct(BLOCK)
                events.append("-> verified CORRECT (timely!)")
            else:
                policy.on_premature(BLOCK)
                events.append("-> verified PREMATURE (re-fetched)")
            print(f"  {label}: " + "; ".join(events))
            return
    policy.on_invalidation(BLOCK)
    events.append("external invalidation (trace learned)")
    print(f"  {label}: " + "; ".join(events))


def main() -> None:
    last_pc = LastPCPredictor(confidence=FAST)
    ltp = PerBlockLTP(confidence=FAST)
    # a simulator binds its block table before the first event
    last_pc.bind(BLOCKS)
    ltp.bind(BLOCKS)

    for phase in range(1, 5):
        print(f"phase {phase}:")
        run_phase(last_pc, "Last-PC")
        run_phase(ltp, "LTP    ")

    print(
        "\nLast-PC fires at the FIRST touch (its signature is just the "
        "PC, which matches immediately), is caught by the verification "
        "mask, and retires. The LTP signature after one touch differs "
        "from the learned two-touch signature, so it fires exactly at "
        "the last touch, phase after phase."
    )


if __name__ == "__main__":
    main()
