"""Profile database: everything the feedback heuristics know about a run.

Built by functionally executing a program once (the paper's instrumented
profiling run): per-branch outcome bit vectors and classifications, plus
per-instruction execution counts from which CFG block/edge frequencies are
derived for the cost model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..cfg.graph import CFG
from ..isa.instruction import Instruction
from ..isa.program import Program
from ..sim.functional import ExecStats, FunctionalSim
from .bitvector import BranchHistory
from .classify import Classification, ClassifyConfig, classify


@dataclass
class BranchProfile:
    """Profile record of one static branch."""

    uid: int
    pc: int
    instr: Instruction
    history: BranchHistory
    classification: Classification

    @property
    def executions(self) -> int:
        return len(self.history)

    @property
    def taken(self) -> int:
        return self.history.taken_count


@dataclass
class ProfileDB:
    """All feedback information from one profiling run."""

    program: Program
    exec_stats: ExecStats
    index_counts: list[int]
    branches: dict[int, BranchProfile] = field(default_factory=dict)
    config: ClassifyConfig = field(default_factory=ClassifyConfig)

    # -- construction ------------------------------------------------------------

    @classmethod
    def from_run(cls, prog: Program, max_steps: int = 20_000_000,
                 config: Optional[ClassifyConfig] = None,
                 backend: str = "reference") -> "ProfileDB":
        """Profile *prog* with one functional run.

        ``backend="fast"`` routes the run through the generated-step
        executor of :mod:`repro.fastsim` (byte-identical counters,
        outcome vectors and index counts); whatever it raises
        propagates.
        """
        config = config or ClassifyConfig()
        if backend == "fast":
            from ..fastsim.functional import FastFunctionalSim

            sim = FastFunctionalSim(prog, max_steps=max_steps,
                                    record_outcomes=True)
        else:
            sim = FunctionalSim(prog, max_steps=max_steps,
                                record_outcomes=True)
        stats = sim.run()
        db = cls(program=prog, exec_stats=stats,
                 index_counts=list(sim.index_counts), config=config)
        for uid, outcomes in stats.branch_outcomes.items():
            history = BranchHistory(outcomes)
            db.branches[uid] = BranchProfile(
                uid=uid, pc=stats.branch_pc[uid],
                instr=prog.instructions[stats.branch_pc[uid]],
                history=history,
                classification=classify(history, config))
        return db

    # -- queries -------------------------------------------------------------------

    def branch_of(self, ins: Instruction) -> Optional[BranchProfile]:
        bp = self.branches.get(ins.uid)
        if bp is None and "cloned_from_uid" in ins.ann:
            bp = self.branches.get(ins.ann["cloned_from_uid"])
        return bp

    # -- CFG frequency annotation -----------------------------------------------------

    def block_freqs(self, cfg: CFG) -> dict[int, float]:
        """Execution count of each block (count of its first instruction).

        Block identity is established through instruction uids, so this
        works on a CFG built from the profiled program.
        """
        uid_to_count: dict[int, int] = {}
        for idx, ins in enumerate(self.program.instructions):
            uid_to_count[ins.uid] = self.index_counts[idx]
        out: dict[int, float] = {}
        for bb in cfg.blocks:
            # Use the first instruction whose uid (or clone origin) was
            # profiled; transformed CFGs may lead blocks with new code.
            # Split-section clones carry their share of the iteration
            # space in ann["split_fraction"].
            freq = 0.0
            for ins in bb.instructions:
                key = ins.uid if ins.uid in uid_to_count \
                    else ins.ann.get("cloned_from_uid")
                if key in uid_to_count:
                    freq = float(uid_to_count[key]) \
                        * ins.ann.get("split_fraction", 1.0)
                    break
            out[bb.bid] = freq
        return out

    def edge_freqs(self, cfg: CFG) -> dict[tuple[int, int], float]:
        """Execution count of each CFG edge.

        Branch edges split by the branch's taken count; single-successor
        blocks pass their full count along.
        """
        blockf = self.block_freqs(cfg)
        out: dict[tuple[int, int], float] = {}
        for bb in cfg.blocks:
            edges = cfg.succ_edges[bb.bid]
            if not edges:
                continue
            term = bb.terminator
            if term is not None and term.is_branch:
                bp = self.branch_of(term)
                seg = term.ann.get("split_segment")
                if bp is not None and seg is not None:
                    # A split-section clone: use the segment's slice of the
                    # outcome history (paper Figure 3's per-segment bias).
                    s, e_ = seg
                    sub = bp.history[s:e_]
                    taken = float(sub.taken_count)
                    total = float(len(sub))
                    if term.ann.get("split_segment_negated"):
                        taken = total - taken
                elif bp is not None:
                    taken = float(bp.taken)
                    total = float(bp.executions)
                else:
                    taken, total = 0.0, blockf[bb.bid]
                for e in edges:
                    if e.kind == "taken":
                        out[(e.src, e.dst)] = taken
                    else:
                        out[(e.src, e.dst)] = max(0.0, total - taken)
            else:
                for e in edges:
                    out[(e.src, e.dst)] = blockf[bb.bid]
        return out

    def annotate(self, cfg: CFG) -> None:
        """Write block and edge frequencies into the CFG in place."""
        cfg.scale_frequencies(self.block_freqs(cfg), self.edge_freqs(cfg))

    # -- persistence ------------------------------------------------------------

    def to_json(self) -> str:
        """Serialize the profile (feedback file) for a later compilation.

        The paper's workflow is explicitly multi-run: toggle factors are
        "gathered from previous runs" and the "intermediate code is then
        instrumented with feedback information".  The serialized form keys
        branches by *pc* (stable across processes, unlike instruction
        uids) and stores outcome bit vectors as T/F strings.
        """
        import json

        return json.dumps({
            "program": self.program.name,
            "steps": self.exec_stats.steps,
            "index_counts": self.index_counts,
            "branches": [
                {"pc": bp.pc, "outcomes": bp.history.as_string()}
                for bp in sorted(self.branches.values(), key=lambda b: b.pc)
            ],
        })

    @classmethod
    def from_json(cls, text: str, prog: Program,
                  config: Optional[ClassifyConfig] = None) -> "ProfileDB":
        """Rebuild a ProfileDB from :meth:`to_json` output against *prog*.

        *prog* must be the same program the profile was taken from (branch
        pcs are validated against it).
        """
        import json

        config = config or ClassifyConfig()
        data = json.loads(text)
        if len(data["index_counts"]) != len(prog.instructions):
            raise ValueError(
                f"profile is for a {len(data['index_counts'])}-instruction "
                f"program; got {len(prog.instructions)}")
        stats = ExecStats(steps=data["steps"])
        db = cls(program=prog, exec_stats=stats,
                 index_counts=list(data["index_counts"]), config=config)
        for rec in data["branches"]:
            pc = rec["pc"]
            ins = prog.instructions[pc]
            if not ins.is_branch:
                raise ValueError(f"pc {pc} is not a branch in this program")
            history = BranchHistory.from_string(rec["outcomes"])
            stats.branch_outcomes[ins.uid] = list(history)
            stats.branch_pc[ins.uid] = pc
            stats.branches += len(history)
            stats.taken_branches += history.taken_count
            db.branches[ins.uid] = BranchProfile(
                uid=ins.uid, pc=pc, instr=ins, history=history,
                classification=classify(history, config))
        return db

    def summary(self) -> str:
        lines = [f"profile of {self.program.name}: "
                 f"{self.exec_stats.steps} dynamic instructions, "
                 f"{self.exec_stats.branches} branches"]
        for uid, bp in sorted(self.branches.items(), key=lambda kv: kv[1].pc):
            c = bp.classification
            lines.append(
                f"  pc={bp.pc:<5} {bp.instr.op:<6} n={bp.executions:<8} "
                f"freq={c.frequency:.3f} toggle={c.toggle_factor:.3f} "
                f"{c.branch_class.value} pattern={c.pattern.kind}")
        return "\n".join(lines)
