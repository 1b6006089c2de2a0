"""Backward-dataflow liveness analysis.

Liveness drives the software-renaming decision in the speculation pass
(paper Section 1 / Figure 1): an instruction speculated above a branch must
have its destination renamed iff that destination is *live* on the path not
being speculated from.

Guarded instructions and conditional moves are treated as partial writes:
they use but do not kill their destination.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import CFG


@dataclass
class LivenessInfo:
    """Per-block live-in/live-out register sets."""

    live_in: dict[int, set[str]] = field(default_factory=dict)
    live_out: dict[int, set[str]] = field(default_factory=dict)


def liveness(cfg: CFG, live_at_exit: set[str] | None = None) -> LivenessInfo:
    """Compute live-in/live-out sets for every block.

    ``live_at_exit`` seeds the live-out of exit blocks (e.g. return-value
    registers); defaults to empty.
    """
    info = LivenessInfo()
    gen: dict[int, set[str]] = {}
    kill: dict[int, set[str]] = {}
    indirect_exits: set[int] = set()
    all_used: set[str] = set()
    for bb in cfg.blocks:
        gen[bb.bid] = bb.uses_before_def()
        kill[bb.bid] = bb.kills()
        info.live_in[bb.bid] = set()
        info.live_out[bb.bid] = set()
        for ins in bb.instructions:
            all_used.update(ins.registers())
        term = bb.terminator
        if term is not None and (term.op in ("jr", "jalr")
                                 or term.info.is_call):
            # Indirect transfer (computed jump / return) or a call: the
            # code reached next is not visible through CFG successors
            # (callee bodies are intra-procedurally unreachable), so
            # conservatively treat every register the function mentions as
            # live across the transfer.
            indirect_exits.add(bb.bid)

    exit_live = set(live_at_exit or ())
    # Iterate to fixpoint in postorder (backward problem).
    order = list(reversed(cfg.reverse_postorder()))
    changed = True
    while changed:
        changed = False
        for bid in order:
            succs = cfg.succs(bid)
            out: set[str] = set(exit_live) if not succs else set()
            if bid in indirect_exits:
                out |= all_used
            for s in succs:
                out |= info.live_in[s]
            new_in = gen[bid] | (out - kill[bid])
            if out != info.live_out[bid] or new_in != info.live_in[bid]:
                info.live_out[bid] = out
                info.live_in[bid] = new_in
                changed = True
    return info
