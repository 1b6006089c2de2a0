"""Random well-formed program generation for differential testing.

Generates programs that are guaranteed to terminate (counted loops only)
and to exercise arithmetic, memory, conditional control flow and diamonds,
so that property-based tests can co-simulate original vs transformed code
over a large space of shapes.

Determinism: everything derives from the caller's seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .program import Program

#: Registers the generator plays with (leaving the rest as a rename pool).
GEN_REGS = [f"r{i}" for i in range(1, 16)]
#: Registers treated as attacker-controlled by the gadget-seeding mode —
#: kept in sync with :data:`repro.robust.spectre.UNTRUSTED_REGS`.  With
#: ``untrusted_inputs`` set they are left unseeded (they read as zero at
#: runtime, keeping functional determinism) so the static taint analysis
#: sees genuine entry taint.
UNTRUSTED_REGS = ("r4", "r5", "r6", "r7")
#: Scratch memory base used by generated loads/stores.
MEM_BASE = 0x0005_0000
#: cc registers the guarded-op emitter cycles through.
GEN_CC_REGS = ("cc0", "cc1", "cc2", "cc3")
#: Branch-shape knob values (see :class:`RandProgConfig.branch_pattern`).
BRANCH_PATTERNS = ("mixed", "monotonic", "alternating", "phased")


@dataclass
class RandProgConfig:
    """Knobs for the random program generator."""

    num_blocks: int = 4            # diamond count upper bound
    ops_per_block: tuple[int, int] = (1, 6)
    loop_iterations: tuple[int, int] = (3, 40)
    with_loop: bool = True
    with_memory: bool = True
    with_calls: bool = False       # emit jal/jr helper-function calls
    #: probability that a generated op is a cmp + guarded (predicated)
    #: instruction pair — stresses guard handling in every pass
    guard_density: float = 0.0
    #: dynamic shape of the diamond branches (needs ``with_loop``):
    #: "mixed" (data-dependent, the default), "monotonic" (same outcome
    #: every iteration), "alternating" (toggles each iteration: maximal
    #: toggle factor), "phased" (one flip mid-loop: balanced frequency but
    #: near-zero toggle — the classifier's hardest case)
    branch_pattern: str = "mixed"
    #: leave :data:`UNTRUSTED_REGS` unseeded so they carry entry taint for
    #: the speculative-safety analysis (repro.robust.spectre)
    untrusted_inputs: bool = False
    #: probability that a diamond is a Spectre-shaped gadget: a branch on
    #: an untrusted register whose taken arm opens with a dependent
    #: double-load chain (needs ``untrusted_inputs`` and ``with_memory``)
    gadget_density: float = 0.0
    seed: int = 0
    _rng: random.Random = field(init=False, repr=False, default=None)


def _random_op(rng: random.Random, cfg: RandProgConfig) -> str:
    """One random non-control instruction line."""
    d = rng.choice(GEN_REGS)
    a = rng.choice(GEN_REGS)
    b = rng.choice(GEN_REGS)
    if cfg.guard_density and rng.random() < cfg.guard_density:
        # A compare defining a cc register immediately guards the next op,
        # so the predicate is live on every path (verifier-clean) while
        # still exercising guarded def/use logic in every pass.
        cc = rng.choice(GEN_CC_REGS)
        cmp_op = rng.choice(["cmplt", "cmpeq", "cmpgt", "cmple"])
        sense = "" if rng.random() < 0.5 else "!"
        body = rng.choice([f"add  {d}, {d}, {a}", f"sub  {d}, {d}, {b}",
                           f"addi {d}, {d}, {rng.randrange(-8, 9)}"])
        return (f"    {cmp_op} {cc}, {a}, {b}\n"
                f"    ({sense}{cc}) {body}")
    kind = rng.randrange(8 if cfg.with_memory else 6)
    if kind == 0:
        return f"    li   {d}, {rng.randrange(-100, 100)}"
    if kind == 1:
        return f"    add  {d}, {a}, {b}"
    if kind == 2:
        return f"    sub  {d}, {a}, {b}"
    if kind == 3:
        return f"    mul  {d}, {a}, {b}"
    if kind == 4:
        return f"    addi {d}, {a}, {rng.randrange(-8, 9)}"
    if kind == 5:
        return f"    sll  {d}, {a}, {rng.randrange(0, 4)}"
    if kind == 6:
        # Aligned scratch load.
        return (f"    andi {d}, {a}, 0xFC\n"
                f"    li   r16, {MEM_BASE}\n"
                f"    add  r16, r16, {d}\n"
                f"    lw   {d}, 0(r16)")
    # Aligned scratch store.
    return (f"    andi {d}, {a}, 0xFC\n"
            f"    li   r16, {MEM_BASE}\n"
            f"    add  r16, r16, {d}\n"
            f"    sw   {b}, 0(r16)")


def _gadget_lines(rng: random.Random, untrusted: str) -> str:
    """The access→transmit half of a Spectre gadget (both loads masked to
    the scratch region, so the program stays architecturally well-behaved
    no matter what the unseeded register holds)."""
    d = rng.choice(GEN_REGS)
    return (f"    andi r19, {untrusted}, 0xFC\n"
            f"    li   r16, {MEM_BASE}\n"
            f"    add  r16, r16, r19\n"
            f"    lw   r19, 0(r16)\n"
            f"    andi r19, r19, 0xFC\n"
            f"    li   r16, {MEM_BASE}\n"
            f"    add  r16, r16, r19\n"
            f"    lw   {d}, 0(r16)")


def _random_branch(rng: random.Random, target: str) -> str:
    a = rng.choice(GEN_REGS)
    b = rng.choice(GEN_REGS)
    op = rng.choice(["beq", "bne", "beqz", "bnez", "blez", "bgtz"])
    if op in ("beq", "bne"):
        return f"    {op} {a}, {b}, {target}"
    return f"    {op} {a}, {target}"


def _pattern_branch(rng: random.Random, cfg: RandProgConfig, target: str,
                    iters: int) -> str:
    """A diamond branch with a controlled dynamic outcome profile.

    The loop counter lives in ``r17`` and the bound in ``r18`` (see
    :func:`random_program`), so inside the loop body we can synthesize
    branches whose *runtime* behavior — not just shape — stresses the
    profile classifier: always-same (monotonic), toggle-every-iteration
    (maximal toggle factor), and flip-once-mid-loop (phased: balanced
    taken frequency, near-zero toggle).
    """
    if not cfg.with_loop or cfg.branch_pattern == "mixed":
        return _random_branch(rng, target)
    if cfg.branch_pattern == "monotonic":
        # r18 holds the (positive) iteration bound: bnez is always taken,
        # beqz never — a stable branch either way.
        op = rng.choice(["bnez", "beqz"])
        return f"    {op} r18, {target}"
    if cfg.branch_pattern == "alternating":
        op = rng.choice(["bnez", "beqz"])
        return (f"    andi r19, r17, 1\n"
                f"    {op} r19, {target}")
    if cfg.branch_pattern == "phased":
        # Taken for the first half of the iterations only: one toggle.
        return (f"    addi r19, r17, {-max(1, iters // 2)}\n"
                f"    bgtz r19, {target}")
    raise ValueError(f"unknown branch_pattern {cfg.branch_pattern!r} "
                     f"(expected one of {BRANCH_PATTERNS})")


def random_program(seed: int = 0,
                   cfg: RandProgConfig | None = None) -> Program:
    """Generate a random, validated, terminating program.

    Structure: optional counted loop wrapping a chain of diamonds, each
    with random bodies and a data-dependent branch; results funneled into
    stores at AUX-style addresses so transforms can be checked against
    observable state.
    """
    from .parser import parse

    cfg = cfg or RandProgConfig()
    rng = random.Random(seed ^ cfg.seed)

    lines: list[str] = [".text", "main:"]
    # Seed registers with data-dependent values.  In gadget-seeding mode
    # the untrusted registers stay unseeded: the functional simulator
    # zeroes them (deterministic), while the static taint analysis sees
    # attacker-controlled entry values.
    for i, r in enumerate(GEN_REGS[:8]):
        if cfg.untrusted_inputs and r in UNTRUSTED_REGS:
            continue
        lines.append(f"    li   {r}, {rng.randrange(-50, 120)}")

    iters = rng.randrange(*cfg.loop_iterations) if cfg.with_loop else 1
    if cfg.with_loop:
        lines += ["    li   r17, 0",
                  f"    li   r18, {iters}",
                  "loop_head:"]

    ndiamonds = rng.randrange(1, max(2, cfg.num_blocks))
    helpers = rng.randrange(1, 3) if cfg.with_calls else 0
    calls_emitted = 0
    for d in range(ndiamonds):
        then_l, join_l = f"then_{d}", f"join_{d}"
        gadget = (cfg.gadget_density > 0 and cfg.untrusted_inputs
                  and cfg.with_memory
                  and rng.random() < cfg.gadget_density)
        if gadget:
            # Spectre-shaped diamond: branch on an untrusted input, taken
            # arm opens with the dependent double-load chain.
            u = rng.choice(UNTRUSTED_REGS)
            lines.append(f"    {rng.choice(['bnez', 'bgtz'])} {u}, {then_l}")
        else:
            lines.append(_pattern_branch(rng, cfg, then_l, iters))
        for _ in range(rng.randrange(*cfg.ops_per_block)):
            lines.append(_random_op(rng, cfg))
        lines.append(f"    j    {join_l}")
        lines.append(f"{then_l}:")
        if gadget:
            lines.append(_gadget_lines(rng, u))
        for _ in range(rng.randrange(*cfg.ops_per_block)):
            lines.append(_random_op(rng, cfg))
        lines.append(f"{join_l}:")
        if helpers and (rng.random() < 0.5
                        or (not calls_emitted and d == ndiamonds - 1)):
            # The last diamond forces a call site, so with_calls=True
            # always yields at least one dynamic jal/jr round trip.
            lines.append(f"    jal  helper_{rng.randrange(helpers)}")
            calls_emitted += 1
        for _ in range(rng.randrange(*cfg.ops_per_block)):
            lines.append(_random_op(rng, cfg))

    if cfg.with_loop:
        lines += ["    addi r17, r17, 1",
                  "    bne  r17, r18, loop_head"]

    # Funnel observable state into memory.
    lines.append(f"    li   r16, {MEM_BASE + 0x1000}")
    for i, r in enumerate(GEN_REGS[:10]):
        lines.append(f"    sw   {r}, {4 * i}(r16)")
    lines.append("    halt")

    # Helper functions (leaf calls through jal/jr; they only touch
    # generator registers, so the caller's observable state still flows
    # through them deterministically).
    for h in range(helpers):
        lines.append(f"helper_{h}:")
        for _ in range(rng.randrange(*cfg.ops_per_block)):
            lines.append(_random_op(rng, cfg))
        lines.append("    jr   r31")
    return parse("\n".join(lines), name=f"rand-{seed}")
