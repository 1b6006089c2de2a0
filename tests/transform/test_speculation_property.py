"""Hypothesis property: every hoist set speculation picks is sound.

Random successor blocks over three registers, so destinations repeat,
mix ALU ops, loads, stores and guarded ops; speculation must leave some
of them behind (a guarded op, a load after a store, a reader of a
left-behind def).  For any ``max_ops`` and either ``allow_rename``,
whatever :func:`speculate_from_successor` hoists into the predecessor
must leave the final architectural state unchanged on both paths
(:func:`~repro.robust.diffcheck.check_equivalence`).  Both paths store
registers to memory before halting, the other path a random subset of
them, so a clobbered register shows in the memory image.

``derandomize=True`` keeps tier-1 deterministic.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cfg import build_cfg
from repro.isa import parse
from repro.robust import check_equivalence
from repro.transform import speculate_from_successor

REGS = ("r1", "r2", "r3")


@st.composite
def successor_op(draw) -> str:
    d, a, b = (draw(st.sampled_from(REGS)) for _ in range(3))
    off = draw(st.sampled_from((0, 4, 8)))
    return draw(st.sampled_from((
        f"add {d}, {a}, {b}",
        f"xor {d}, {a}, {b}",
        f"addi {d}, {a}, {draw(st.integers(-3, 3))}",
        f"andi {d}, {a}, 252",
        f"lw {d}, {off}(r29)",
        f"sw {a}, {off}(r29)",
        f"sw {a}, {off}(r29)\nlw {d}, 4(r29)",
        f"(cc0) addi {d}, {a}, 1",
        f"(!cc0) sub {d}, {a}, {b}",
    )))


def _dump(regs) -> list[str]:
    return [f"sw {r}, {16 + 4 * REGS.index(r)}(r29)" for r in regs]


@st.composite
def branch_programs(draw) -> tuple[str, str]:
    """The same program twice, once per path out of ``main``: its branch
    goes to ``succ`` (the random block) or falls through to ``other``."""
    values = [draw(st.integers(-8, 8)) for _ in REGS]
    other_live = draw(st.lists(st.sampled_from(REGS), unique=True))
    succ = draw(st.lists(successor_op(), min_size=2, max_size=10))

    def program(taken: bool) -> str:
        lines = [".text", "main:"]
        lines += [f"li {r}, {v}" for r, v in zip(REGS, values)]
        lines += [f"li r4, {values[0] if taken else values[0] + 1}",
                  "cmplt cc0, r2, r3", "beq r1, r4, succ", "other:"]
        lines += _dump(other_live) + ["halt", "succ:"]
        lines += succ + _dump(REGS) + ["halt"]
        return "\n".join(lines) + "\n"

    return program(True), program(False)


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(srcs=branch_programs(), max_ops=st.integers(1, 8),
       allow_rename=st.booleans())
def test_every_hoist_set_preserves_architectural_state(srcs, max_ops,
                                                       allow_rename):
    for src in srcs:
        original = parse(src, name="spec")
        cfg = build_cfg(parse(src, name="spec"))
        by_label = {bb.label: bb.bid for bb in cfg.blocks if bb.label}
        speculate_from_successor(cfg, by_label["main"], by_label["succ"],
                                 max_ops, allow_rename=allow_rename)
        report = check_equivalence(original, cfg.to_program("spec"),
                                   max_steps=10_000)
        assert report.equivalent, (report.reason, src)
