"""The :class:`Program` container: an assembly unit with labels and data.

A program is a flat list of :class:`~repro.isa.instruction.Instruction`
objects plus two symbol tables:

* ``labels`` — code labels, mapping name to instruction index (a label may
  sit one-past-the-end, e.g. an exit label after the last instruction);
* ``data_symbols`` / ``data_image`` — a static data segment, built by the
  parser's ``.data`` directives, loaded into memory before execution.

Programs are the common currency of the repository: the parser produces
them, transforms rewrite them (via CFG reassembly), and both simulators
consume them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from .instruction import Instruction

#: Default base address of the data segment (code addresses are indices).
DATA_BASE = 0x1000_0000


@dataclass
class Program:
    """An assembly program.

    Instruction "addresses" are simply list indices; the simulators use the
    index as the PC.  The data segment lives at :data:`DATA_BASE` and above.
    """

    instructions: list[Instruction] = field(default_factory=list)
    labels: dict[str, int] = field(default_factory=dict)
    data_symbols: dict[str, int] = field(default_factory=dict)
    data_image: dict[int, int] = field(default_factory=dict)  # addr -> byte
    #: data words holding CODE addresses (interpreter jump tables): the
    #: simulator re-resolves these against the current label positions at
    #: load time, so re-linearized programs keep working.
    code_refs: dict[int, str] = field(default_factory=dict)
    name: str = "program"
    _label_counter: itertools.count = field(
        default_factory=lambda: itertools.count(), repr=False)

    # -- basic container protocol ------------------------------------------------

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __getitem__(self, index: int) -> Instruction:
        return self.instructions[index]

    # -- construction --------------------------------------------------------------

    def append(self, instr: Instruction) -> None:
        self.instructions.append(instr)

    def extend(self, instrs: Iterable[Instruction]) -> None:
        self.instructions.extend(instrs)

    def add_label(self, name: str, index: Optional[int] = None) -> None:
        """Attach label *name* at *index* (default: current end)."""
        if name in self.labels:
            raise ValueError(f"duplicate label {name!r}")
        self.labels[name] = len(self.instructions) if index is None else index

    def add_data_word(self, symbol: Optional[str], values: Iterable[int],
                      addr: Optional[int] = None) -> int:
        """Append 32-bit words to the data segment; returns the start address."""
        start = addr if addr is not None else self._data_end()
        a = start
        for v in values:
            for b in int(v & 0xFFFF_FFFF).to_bytes(4, "little"):
                self.data_image[a] = b
                a += 1
        if symbol is not None:
            if symbol in self.data_symbols:
                raise ValueError(f"duplicate data symbol {symbol!r}")
            self.data_symbols[symbol] = start
        return start

    def add_data_bytes(self, symbol: Optional[str], data: bytes,
                       addr: Optional[int] = None) -> int:
        """Append raw bytes to the data segment; returns the start address."""
        start = addr if addr is not None else self._data_end()
        for i, b in enumerate(data):
            self.data_image[start + i] = b
        if symbol is not None:
            if symbol in self.data_symbols:
                raise ValueError(f"duplicate data symbol {symbol!r}")
            self.data_symbols[symbol] = start
        return start

    def _data_end(self) -> int:
        if not self.data_image:
            return DATA_BASE
        # Word-align the next free address.
        end = max(self.data_image) + 1
        return (end + 3) & ~3

    # -- queries --------------------------------------------------------------------

    def target_index(self, label: str) -> int:
        """Resolve a code label to an instruction index."""
        try:
            return self.labels[label]
        except KeyError:
            raise KeyError(f"undefined label {label!r}") from None

    def branch_targets(self) -> dict[int, int]:
        """Map from branch/jump instruction index to its target index."""
        out: dict[int, int] = {}
        for i, ins in enumerate(self.instructions):
            if ins.target is not None:
                out[i] = self.target_index(ins.target)
        return out

    # -- validation -------------------------------------------------------------------

    def validate(self) -> None:
        """Check internal consistency; raises ValueError on problems.

        * every control-transfer target resolves to a label in range;
        * labels point inside [0, len] (one-past-end allowed);
        * the program ends in an unconditional control transfer or halt
          (so execution cannot fall off the end).
        """
        n = len(self.instructions)
        for name, idx in self.labels.items():
            if not 0 <= idx <= n:
                raise ValueError(f"label {name!r} out of range: {idx}")
        for i, ins in enumerate(self.instructions):
            if ins.target is not None:
                if ins.target not in self.labels:
                    raise ValueError(
                        f"instruction {i} ({ins.op}) targets undefined "
                        f"label {ins.target!r}")
                if self.labels[ins.target] > n:
                    raise ValueError(f"target of {ins.op} out of range")
        if n:
            last = self.instructions[-1]
            if not (last.is_halt or (last.is_jump and not last.info.is_return)
                    or last.op == "jr"):
                raise ValueError(
                    "program must end in halt or an unconditional jump; "
                    f"ends in {last.op!r}")

    def copy(self) -> "Program":
        """Deep-enough copy: fresh instruction list and symbol tables.

        Instruction objects are cloned (same uids) so annotation edits on
        the copy do not leak back.
        """
        p = Program(
            instructions=[ins.clone() for ins in self.instructions],
            labels=dict(self.labels),
            data_symbols=dict(self.data_symbols),
            data_image=dict(self.data_image),
            code_refs=dict(self.code_refs),
            name=self.name,
        )
        return p

    def to_dict(self) -> dict:
        """JSON-serializable form, reconstructible by :meth:`from_dict`.

        The instruction stream and labels travel as parseable assembly text
        (the printer/parser round-trip); the data segment, data symbols and
        code references — which the printer does not emit — travel as
        explicit tables.  Instruction uids are *not* preserved (they are
        process-local identities, regenerated on parse).
        """
        from .printer import format_program

        return {
            "name": self.name,
            "text": format_program(self),
            "data_symbols": dict(self.data_symbols),
            "data_image": {str(a): b
                           for a, b in sorted(self.data_image.items())},
            "code_refs": {str(a): label
                          for a, label in sorted(self.code_refs.items())},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Program":
        """Inverse of :meth:`to_dict`."""
        from .parser import parse

        prog = parse(d["text"], name=d["name"])
        prog.data_symbols = dict(d["data_symbols"])
        prog.data_image = {int(a): int(b)
                           for a, b in d["data_image"].items()}
        prog.code_refs = {int(a): label
                          for a, label in d["code_refs"].items()}
        return prog

    def __str__(self) -> str:
        from .printer import format_program

        return format_program(self)
