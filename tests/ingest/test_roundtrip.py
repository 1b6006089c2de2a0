"""Hypothesis round-trip properties of the ingest front end.

The canonical printer defined here is the parser's inverse on the whole
IR space, not just the committed fixtures: for every generated function,
``parse_source ∘ print_source`` is the identity (structurally — line
numbers are provenance, excluded from equality), printing is idempotent,
and the generated function lowers to a program the robust verifier
accepts.

``derandomize=True`` keeps tier-1 deterministic (same policy as
``tests/fastsim/test_property.py``).
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ingest import parse_source
from repro.ingest.lower import ALLOCATABLE
from repro.ingest.model import VALUE_OPS, Block, Function, Op

_SETTINGS = dict(max_examples=60, deadline=None, derandomize=True,
                 suppress_health_check=[HealthCheck.too_slow])


def print_op(op: Op) -> str:
    """Canonical text of one instruction (no trailing ``;``)."""
    if op.dest is not None:
        if op.op == "const":
            lit = (("true" if op.value else "false")
                   if op.type == "bool" else str(op.value))
            return f"{op.dest}: {op.type} = const {lit}"
        rhs = " ".join((op.op,) + op.args)
        return f"{op.dest}: {op.type} = {rhs}"
    return " ".join((op.op,) + op.args + op.labels)


def print_source(fn: Function) -> str:
    """Canonical source text of *fn* (inverse of ``parse_source``)."""
    lines = [f"@{fn.name} {{"]
    for b in fn.blocks:
        lines.append(f"{b.label}:")
        for op in b.ops:
            lines.append(f"  {print_op(op)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


_VARS = [f"v{i}" for i in range(8)]
_PURE_VALUE_OPS = sorted(set(VALUE_OPS) - {"const"})


@st.composite
def functions(draw) -> Function:
    """A random valid Function: every used variable is defined in the
    entry block, every block ends in a terminator, every label exists."""
    n_blocks = draw(st.integers(1, 5))
    labels = [f".b{i}" for i in range(n_blocks)]
    int_consts = st.integers(-(2 ** 31), 2 ** 31 - 1)

    def value_op(dest):
        kind = draw(st.sampled_from(["const_int", "const_bool", "op"]))
        if kind == "const_int":
            return Op(op="const", dest=dest, type="int",
                      value=draw(int_consts))
        if kind == "const_bool":
            return Op(op="const", dest=dest, type="bool",
                      value=draw(st.integers(0, 1)))
        op = draw(st.sampled_from(_PURE_VALUE_OPS))
        args = tuple(draw(st.sampled_from(_VARS))
                     for _ in range(VALUE_OPS[op]))
        typ = "bool" if op in ("eq", "ne", "lt", "gt", "le", "ge", "not") \
            else "int"
        return Op(op=op, dest=dest, type=typ, args=args)

    blocks = []
    for i, label in enumerate(labels):
        ops = []
        if i == 0:  # define the whole variable universe up front
            ops += [Op(op="const", dest=v, type="int",
                       value=draw(int_consts)) for v in _VARS]
        for _ in range(draw(st.integers(0, 3))):
            ops.append(value_op(draw(st.sampled_from(_VARS))))
        if draw(st.booleans()):
            ops.append(Op(op="print",
                          args=(draw(st.sampled_from(_VARS)),)))
        term = draw(st.sampled_from(["jmp", "br", "ret"]))
        if term == "jmp":
            ops.append(Op(op="jmp",
                          labels=(draw(st.sampled_from(labels)),)))
        elif term == "br":
            ops.append(Op(op="br", args=(draw(st.sampled_from(_VARS)),),
                          labels=(draw(st.sampled_from(labels)),
                                  draw(st.sampled_from(labels)))))
        else:
            ops.append(Op(op="ret"))
        blocks.append(Block(label=label, ops=ops))
    return Function(name=draw(st.sampled_from(["main", "f", "kern_1"])),
                    blocks=blocks)


@settings(**_SETTINGS)
@given(fn=functions())
def test_parse_print_parse_is_identity(fn):
    assert parse_source(print_source(fn)) == fn


@settings(**_SETTINGS)
@given(fn=functions())
def test_print_is_idempotent(fn):
    text = print_source(fn)
    assert print_source(parse_source(text)) == text


@settings(**_SETTINGS)
@given(fn=functions())
def test_generated_functions_lower_and_verify(fn):
    # The function fits the register file by construction (8 variables),
    # so lowering must succeed and hand back a verifier-clean program.
    from repro.ingest import import_source
    from repro.robust import verify_program

    prog = import_source(print_source(fn))
    assert verify_program(prog) == []
    assert "@" in prog.name  # content hash present -> cache isolation


@settings(**_SETTINGS)
@given(fn=functions())
def test_lowering_allocates_within_the_register_file(fn):
    from repro.ingest import allocate_registers

    regs = allocate_registers(fn)
    assert set(regs) == set(fn.variables())
    assert len(set(regs.values())) == len(regs)  # injective
    assert set(regs.values()) <= set(ALLOCATABLE)


@settings(**_SETTINGS)
@given(fn=functions())
def test_op_print_parse_is_identity(fn):
    from repro.ingest.source import parse_op

    for block in fn.blocks:
        for op in block.ops:
            assert parse_op(print_op(op)) == op
