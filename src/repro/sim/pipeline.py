"""Trace-driven out-of-order timing model of the R10000-like machine.

The committed dynamic instruction stream from
:class:`~repro.sim.functional.FunctionalSim` is replayed through a cycle
model with:

* in-order fetch/dispatch (4-wide) into per-class reservation queues
  (integer, address, FP, branch) and a 32-entry active list (ROB);
* register renaming limits (64 physical / 32 architectural per file);
* out-of-order issue, oldest-first per queue, constrained by functional
  units (2 ALUs, 1 shifter, 1 ld/st, 1 branch, FP add/mul/div);
* in-order commit (4-wide);
* branch prediction consulted at dispatch; a mispredicted branch blocks
  further dispatch until it resolves, plus a recovery cycle — the classic
  trace-driven approximation (wrong-path work becomes fetch bubbles);
* register-target jumps (``jr``/``jalr``) stall fetch until resolution
  except under perfect prediction (paper Section 6: "additional stalls in
  the pipeline whenever a non-absolute branch instruction is encountered");
* split 32-KB I/D caches with a flat 6-cycle miss penalty.

Known simplifications (documented in DESIGN.md): wrong-path instructions do
not occupy queues; memory disambiguation is perfect (loads never wait on
stores).  Both effects are second-order for the occupancy/IPC comparisons
the paper reports.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from ..isa.instruction import Instruction
from ..isa.opcodes import Unit
from ..isa.program import Program
from .branch_pred import make_predictor
from .cache import Cache
from .config import MachineConfig, R10K
from .functional import FunctionalSim, TraceEntry, UnmodeledOpcode
from .stats import SimStats

#: ``Unit.NONE`` opcodes the cycle model explicitly handles.  Anything else
#: with no functional-unit class reaching dispatch is an unmodeled opcode —
#: it must be rejected, not silently issued as a 1-cycle ALU op.
_MODELED_NONE_OPS = frozenset(("nop", "halt", "fence"))

#: Map opcode unit class -> reservation queue name.
_QUEUE_OF_UNIT = {
    Unit.ALU: "alu",
    Unit.SHIFT: "alu",     # shifter is fed from the integer queue
    Unit.MEM: "ldst",      # address queue
    Unit.BRANCH: "br",
    Unit.FPADD: "fp",
    Unit.FPMUL: "fp",
    Unit.FPDIV: "fp",
    Unit.NONE: "alu",
}

_UNIT_NAME = {
    Unit.ALU: "alu",
    Unit.SHIFT: "sft",
    Unit.MEM: "ldst",
    Unit.BRANCH: "br",
    Unit.FPADD: "fpadd",
    Unit.FPMUL: "fpmul",
    Unit.FPDIV: "fpdiv",
}


class _Entry:
    """One in-flight instruction (ROB slot + reservation-queue slot)."""

    __slots__ = ("ins", "index", "queue", "unit", "deps", "complete",
                 "issued", "annulled", "addr", "rename_class", "phantom")

    def __init__(self, ins: Instruction, index: int, queue: str, unit: str,
                 annulled: bool, addr: Optional[int], phantom: bool = False):
        self.ins = ins
        self.index = index
        self.queue = queue
        self.unit = unit
        self.deps: list[_Entry] = []
        self.complete: Optional[int] = None
        self.issued = False
        self.annulled = annulled
        self.addr = addr
        self.rename_class: Optional[str] = None
        self.phantom = phantom

    def ready(self, cycle: int) -> bool:
        for d in self.deps:
            if d.complete is None or d.complete > cycle:
                return False
        return True


class TimingSim:
    """Cycle-level replay of a dynamic trace.

    With ``model_wrong_path=True`` (and a ``program`` supplied, as
    :meth:`run_program` does), the front end keeps fetching down the
    mispredicted path while a misprediction resolves: those *phantom*
    instructions occupy reservation-queue and active-list slots, issue to
    functional units, and are squashed when the branch resolves — they
    never commit and never touch the register dependence state of the
    correct path.  Default off: the paper's occupancy numbers suggest its
    simulator drained the front end on a misprediction, and the baseline
    Tables 3/4 reproduce better without it; `bench_ablations` quantifies
    the difference.
    """

    def __init__(self, config: MachineConfig = R10K,
                 program: Optional[Program] = None,
                 model_wrong_path: bool = False):
        self.cfg = config
        self.program = program
        self.model_wrong_path = model_wrong_path
        self._wrong_path_feed: list[Instruction] = []
        self._squashed = 0
        self.stats = SimStats()
        self.predictor = make_predictor(
            config.predictor, config.bht_entries, config.btb_entries)
        self.stats.predictor = self.predictor.stats
        self.icache = Cache(config.icache_size, config.cache_line,
                            config.cache_assoc, "icache")
        self.dcache = Cache(config.dcache_size, config.cache_line,
                            config.cache_assoc, "dcache")
        self.stats.icache = self.icache.stats
        self.stats.dcache = self.dcache.stats

        self._queues: dict[str, list[_Entry]] = {
            "alu": [], "ldst": [], "fp": [], "br": []}
        self._qcap = {
            "alu": config.int_queue_size,
            "ldst": config.addr_queue_size,
            "fp": config.fp_queue_size,
            "br": config.branch_buffer_size,
        }
        self._units = {
            "alu": config.num_alus,
            "sft": config.num_shifters,
            "ldst": config.num_mem_units,
            "br": config.num_branch_units,
            "fpadd": config.num_fpadd,
            "fpmul": config.num_fpmul,
            "fpdiv": config.num_fpdiv,
        }
        self._fpdiv_busy_until = 0
        self._rob: list[_Entry] = []
        self._reg_producer: dict[str, _Entry] = {}
        self._free_int = config.phys_int_regs - config.arch_int_regs
        self._free_fp = config.phys_fp_regs - config.arch_fp_regs
        self._redirect: Optional[_Entry] = None   # unresolved mispredict/jr
        self._fence: Optional[_Entry] = None      # unresolved fence barrier
        self._fetch_resume_at = 0                  # icache-stall gate
        self._current_fetch_line = -1
        for q in self._queues:
            self.stats.queue_full_cycles[q] = 0
        for u in self._units:
            self.stats.unit_full_cycles[u] = 0
            self.stats.unit_issues[u] = 0

    # -- public API -------------------------------------------------------------

    def run(self, trace: Iterable[TraceEntry]) -> SimStats:
        """Replay *trace* to completion and return statistics."""
        it = iter(trace)
        pending: Optional[TraceEntry] = next(it, None)
        cycle = 0
        cfg = self.cfg
        while pending is not None or self._rob:
            # 1. Commit (in order, oldest first).
            ncommit = 0
            while (self._rob and ncommit < cfg.commit_width
                   and not self._rob[0].phantom
                   and self._rob[0].complete is not None
                   and self._rob[0].complete <= cycle):
                e = self._rob.pop(0)
                ncommit += 1
                if e.annulled:
                    self.stats.annulled += 1
                else:
                    self.stats.committed += 1
                if e.rename_class == "int":
                    self._free_int += 1
                elif e.rename_class == "fp":
                    self._free_fp += 1
                if self._reg_producer.get(e.ins.dest) is e:
                    del self._reg_producer[e.ins.dest]

            # 2. Issue (oldest-first per queue, limited by units).
            self._issue(cycle)

            # 3. Dispatch (in-order, up to width, resource/stall gated).
            pending = self._dispatch(cycle, pending, it)

            # 4. Occupancy accounting.
            for name, q in self._queues.items():
                if len(q) >= self._qcap[name]:
                    self.stats.queue_full_cycles[name] += 1
            cycle += 1
            if cycle > 10_000_000_000:  # pragma: no cover
                raise RuntimeError("timing simulation did not converge")

        self.stats.cycles = cycle
        self.stats.dispatched = self.stats.committed + self.stats.annulled
        return self.stats

    def run_program(self, prog: Program,
                    max_steps: int = 20_000_000) -> SimStats:
        """Functional-execute *prog* and replay its trace."""
        self.program = prog
        fsim = FunctionalSim(prog, max_steps=max_steps, record_outcomes=False)
        return self.run(fsim.trace())

    # -- wrong-path modeling ----------------------------------------------------

    def _wrong_path_instructions(self, branch_index: int,
                                 actually_taken: bool,
                                 limit: int = 64) -> list[Instruction]:
        """Static walk down the NOT-executed path of a mispredicted branch
        (fall-through if it was taken, the target if it was not), following
        unconditional jumps, stopping at indirect/halt or *limit* ops."""
        prog = self.program
        if prog is None:
            return []
        ins = prog.instructions[branch_index]
        if actually_taken:
            pc = branch_index + 1
        else:
            if ins.target is None:
                return []
            pc = prog.target_index(ins.target)
        out: list[Instruction] = []
        n = len(prog.instructions)
        while len(out) < limit and 0 <= pc < n:
            cur = prog.instructions[pc]
            out.append(cur)
            if cur.is_halt or cur.op in ("jr", "jalr"):
                break
            if cur.is_jump and cur.target is not None and not cur.info.is_call:
                pc = prog.target_index(cur.target)
            elif cur.is_branch:
                pc = pc + 1  # wrong-path branches predicted not-taken
            else:
                pc = pc + 1
        return out

    def _squash_phantoms(self) -> None:
        """Remove every phantom entry from the ROB and the queues."""
        squashed = [e for e in self._rob if e.phantom]
        if not squashed:
            self._wrong_path_feed = []
            return
        self._rob = [e for e in self._rob if not e.phantom]
        for qname in self._queues:
            self._queues[qname] = [e for e in self._queues[qname]
                                   if not e.phantom]
        for e in squashed:
            if e.rename_class == "int":
                self._free_int += 1
            elif e.rename_class == "fp":
                self._free_fp += 1
        self._squashed += len(squashed)
        self.stats.wrong_path_squashed = self._squashed
        self._wrong_path_feed = []

    # -- issue ---------------------------------------------------------------------

    def _issue(self, cycle: int) -> None:
        lat = self.cfg.latencies
        issued_per_unit: dict[str, int] = {u: 0 for u in self._units}
        for qname, queue in self._queues.items():
            if not queue:
                continue
            remaining: list[_Entry] = []
            for e in queue:
                if e.issued:
                    continue
                unit = e.unit
                cap = self._units[unit]
                if issued_per_unit[unit] >= cap:
                    remaining.append(e)
                    continue
                if unit == "fpdiv" and cycle < self._fpdiv_busy_until:
                    remaining.append(e)
                    continue
                if not e.ready(cycle):
                    remaining.append(e)
                    continue
                # Issue.
                issued_per_unit[unit] += 1
                self.stats.unit_issues[unit] += 1
                latency = lat.of_class(e.ins.info.latency_class)
                if e.annulled:
                    latency = 1  # annulled ops retire without executing
                elif e.ins.is_mem and e.addr is not None:
                    if not self.dcache.access(e.addr):
                        latency += lat.cache_miss_penalty
                if unit == "fpdiv":
                    self._fpdiv_busy_until = cycle + latency
                e.complete = cycle + latency
                e.issued = True
            self._queues[qname] = remaining
        for unit, n in issued_per_unit.items():
            if n >= self._units[unit] and n > 0:
                self.stats.unit_full_cycles[unit] += 1

    # -- dispatch -------------------------------------------------------------------

    def _dispatch(self, cycle: int, pending: Optional[TraceEntry],
                  it: Iterator[TraceEntry]) -> Optional[TraceEntry]:
        cfg = self.cfg

        # Fetch blocked behind an unresolved mispredicted branch / jr?
        if self._redirect is not None:
            r = self._redirect
            if r.complete is None or cycle < r.complete + cfg.misprediction_recovery:
                self.stats.fetch_stall_cycles += 1
                if self.model_wrong_path and self._wrong_path_feed:
                    self._dispatch_phantoms(cycle)
                return pending
            self._redirect = None
            self._squash_phantoms()
            self._current_fetch_line = -1  # refetch from the new path

        # Fetch blocked draining behind a fence?  The barrier completes only
        # once every older instruction has (its deps snapshot the in-flight
        # window), then dispatch waits out the configured drain penalty.
        if self._fence is not None:
            f = self._fence
            if f.complete is None or cycle < f.complete + cfg.fence_stall:
                self.stats.fence_stall_cycles += 1
                self.stats.fetch_stall_cycles += 1
                return pending
            self._fence = None

        if cycle < self._fetch_resume_at:
            self.stats.icache_stall_cycles += 1
            self.stats.fetch_stall_cycles += 1
            return pending

        line_shift = self.icache._line_shift
        for _ in range(cfg.dispatch_width):
            if pending is None:
                break
            ins = pending.ins
            # Instruction-cache access per fetched line (PC = 4 * index).
            line = (pending.index * 4) >> line_shift
            if line != self._current_fetch_line:
                self._current_fetch_line = line
                if not self.icache.access(pending.index * 4):
                    self._fetch_resume_at = cycle + self.cfg.latencies.cache_miss_penalty
                    break

            if ins.info.unit == Unit.NONE and ins.op not in _MODELED_NONE_OPS:
                raise UnmodeledOpcode(
                    f"opcode {ins.op!r} reached the timing simulator but "
                    f"has no modeled functional unit", pc=pending.index)

            # Structural resources.
            if len(self._rob) >= cfg.rob_size:
                break
            queue = _QUEUE_OF_UNIT[ins.info.unit]
            if len(self._queues[queue]) >= self._qcap[queue]:
                break
            rename_class = None
            if ins.dest is not None and ins.dest != "r0":
                if ins.dest[0] == "r":
                    if self._free_int <= 0:
                        break
                    rename_class = "int"
                elif ins.dest[0] == "f":
                    if self._free_fp <= 0:
                        break
                    rename_class = "fp"

            # Allocate.
            unit = _UNIT_NAME[ins.info.unit] if ins.info.unit != Unit.NONE else "alu"
            e = _Entry(ins, pending.index, queue, unit,
                       pending.annulled, pending.addr)
            e.rename_class = rename_class
            if rename_class == "int":
                self._free_int -= 1
            elif rename_class == "fp":
                self._free_fp -= 1
            for r in ins.uses():
                p = self._reg_producer.get(r)
                if p is not None and (p.complete is None or p.complete > cycle):
                    e.deps.append(p)
            if ins.info.is_fence and not pending.annulled:
                # The barrier waits on every older in-flight instruction.
                for x in self._rob:
                    if not x.phantom and (x.complete is None
                                          or x.complete > cycle):
                        e.deps.append(x)
            if not pending.annulled:
                for r in ins.defs():
                    self._reg_producer[r] = e
            self._queues[queue].append(e)
            self._rob.append(e)

            # Control-flow effects on fetch.
            stall = False
            if ins.info.is_fence and not pending.annulled:
                self.stats.fence_events += 1
                self._fence = e
                stall = True
            elif ins.is_branch and not pending.annulled:
                taken = bool(pending.taken)
                target = None
                if taken and ins.target is not None:
                    target = pending.index  # identity only; predictor keys on pc
                ok = self.predictor.access(pending.index, ins, taken,
                                           target=pending.index)
                if not ok:
                    self.stats.mispredict_events += 1
                    self._redirect = e
                    stall = True
                    if self.model_wrong_path:
                        self._wrong_path_feed = \
                            self._wrong_path_instructions(pending.index, taken)
            elif ins.op in ("jr", "jalr"):
                if not self.predictor.indirect_resolves_in_fetch():
                    self.stats.indirect_stall_events += 1
                    self.predictor.stats.indirect_stalls += 1
                    self._redirect = e
                    stall = True

            pending = next(it, None)
            if stall:
                break
        return pending


    def _dispatch_phantoms(self, cycle: int) -> None:
        """Dispatch wrong-path instructions while a misprediction resolves.

        Phantoms consume ROB/queue/rename resources and read the correct
        path's register dependences, but never produce values visible to
        it and never commit."""
        cfg = self.cfg
        for _ in range(cfg.dispatch_width):
            if not self._wrong_path_feed:
                return
            ins = self._wrong_path_feed[0]
            if len(self._rob) >= cfg.rob_size:
                return
            queue = _QUEUE_OF_UNIT[ins.info.unit]
            if len(self._queues[queue]) >= self._qcap[queue]:
                return
            rename_class = None
            if ins.dest is not None and ins.dest != "r0":
                if ins.dest[0] == "r":
                    if self._free_int <= 0:
                        return
                    rename_class = "int"
                elif ins.dest[0] == "f":
                    if self._free_fp <= 0:
                        return
                    rename_class = "fp"
            self._wrong_path_feed.pop(0)
            unit = _UNIT_NAME[ins.info.unit] if ins.info.unit != Unit.NONE \
                else "alu"
            e = _Entry(ins, -1, queue, unit, annulled=False, addr=None,
                       phantom=True)
            e.rename_class = rename_class
            if rename_class == "int":
                self._free_int -= 1
            elif rename_class == "fp":
                self._free_fp -= 1
            for r in ins.uses():
                p = self._reg_producer.get(r)
                if p is not None and (p.complete is None or p.complete > cycle):
                    e.deps.append(p)
            self._queues[queue].append(e)
            self._rob.append(e)


def simulate(prog: Program, config: MachineConfig = R10K,
             max_steps: int = 20_000_000) -> SimStats:
    """One-call timing simulation of a program."""
    return TimingSim(config).run_program(prog, max_steps=max_steps)
