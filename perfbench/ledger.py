"""Outside-in layer ledger: per-layer calls and self time of a traced run.

The ledger wraps the public functions of each layer of ``repro`` from the
outside, by replacing module and class attributes for the duration of a
traced block; nothing inside ``src/`` knows it is being measured.  Each
wrapped call is a span.  A span's self time is its duration minus the
part covered by the spans it encloses, so the per-layer self times plus
the ``other`` residual add up to the traced wall time exactly, and the
rows of one traced run can be compared with those of another.

Spans are aggregated in memory as they close (calls, self seconds and a
few per-layer counters); nothing is written until the run ends.

Trace generators (``FunctionalSim.trace``, ``FastFunctionalSim.batches``)
are pulled by another layer's code -- the timing models.  The time of
each pull is charged to the generator's layer and taken out of whichever
span is doing the pulling, and the whole generator counts as one span per
run, never one record per instruction.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
import types
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional

#: Attribute that marks a ledger wrapper and points at the wrapped object.
ORIGINAL = "__ledger_original__"


# -- per-call counters (hooks run after the span closes) ---------------------


def _cycles(stats, args, result):
    stats.extra["cycles"] += result.cycles


def _new_sim(stats, args, result):
    stats.extra["runs"] += 1


def _sim_run(stats, args, result):
    stats.extra["instrs"] += args[0].stats.steps


def _compile(stats, args, result):
    stats.extra["contained"] += sum(1 for f in result.failures
                                    if f.kind != "skip")
    stats.extra["fallbacks"] += result.fallback is not None


def _divergence(stats, args, result):
    stats.extra["divergences"] += not result.equivalent


def _codegen(stats, args, result):
    stats.extra["compiles"] += 1


def _cache_get(stats, args, result):
    stats.extra["hits" if result is not None else "misses"] += 1


def _cache_put(stats, args, result):
    # Entry layout documented in repro.engine.cache: <root>/<kk>/<key>.json
    store, key = args[0], args[1]
    try:
        size = os.path.getsize(os.path.join(store.root, key[:2],
                                            key + ".json"))
    except OSError:
        size = 0
    stats.extra["bytes_written"] += size


@dataclass(frozen=True)
class Target:
    """One wrapped public function: ``"module:qualname"`` plus a hook.

    ``kind`` is ``"span"`` (each call is a span), ``"generator"`` (each
    generator made is one span, see :meth:`Ledger._pulls`) or ``"count"``
    (no span: the call only feeds the hook and its time stays with the
    caller's span).
    """

    spec: str
    hook: Optional[Callable] = None
    kind: str = "span"


@dataclass(frozen=True)
class Layer:
    """A named layer, the functions that enter it, and what it should move."""

    name: str
    targets: tuple[Target, ...]
    moves: str
    extras: tuple[str, ...] = ()


#: The layer taxonomy, outermost first.  ``moves`` names the end-to-end
#: metric and workload a change to the layer should move.
LAYERS: tuple[Layer, ...] = (
    Layer("workloads", (
        Target("repro.workloads:benchmark_programs"),
        Target("repro.isa.randprog:random_program"),
    ), "setup_s; wall_s on warm_tables"),
    Layer("eval.tables", (
        Target("repro.eval.tables:format_table1"),
        Target("repro.eval.tables:format_table3"),
        Target("repro.eval.tables:format_table4"),
        Target("repro.eval.tables:format_improvements"),
    ), "wall_s on warm_tables"),
    Layer("engine.keys", (
        Target("repro.engine.keys:cell_key"),
    ), "wall_s on warm_tables"),
    Layer("engine.cache", (
        Target("repro.engine.cache:ArtifactCache.get", _cache_get),
        Target("repro.engine.cache:ArtifactCache.put", _cache_put),
    ), "reads: wall_s on warm_tables; writes: wall_s on cold_tables",
        ("hits", "misses", "bytes_written")),
    Layer("serde", (
        Target("repro.eval.runner:SchemeResult.to_dict"),
        Target("repro.eval.runner:SchemeResult.from_dict"),
    ), "wall_s on warm_tables"),
    Layer("isa.parse", (
        Target("repro.isa.parser:parse"),
    ), "wall_s on warm_tables"),
    Layer("core.compile", (
        Target("repro.core.pipeline:compile_proposed", _compile),
        Target("repro.core.pipeline:compile_baseline", _compile),
        Target("repro.core.algorithm:decide"),
    ), "wall_s on fuzz_campaign", ("contained", "fallbacks")),
    Layer("profilefb", (
        Target("repro.profilefb.profiledb:ProfileDB.from_run"),
    ), "wall_s on cold_tables (fuzz_campaign already profiles once)"),
    Layer("transform", (
        Target("repro.transform.branch_split:split_from_profile"),
        Target("repro.transform.ifconvert:if_convert_diamond"),
        Target("repro.transform.meld:meld_diamond"),
        Target("repro.transform.branch_likely:apply_branch_likely"),
    ), "wall_s on fuzz_campaign"),
    Layer("sched", (
        Target("repro.sched.region:schedule_region"),
        Target("repro.sched.list_scheduler:reorder_block"),
    ), "wall_s on fuzz_campaign"),
    Layer("robust.verify", (
        Target("repro.robust.verifier:verify_program"),
        Target("repro.robust.verifier:verify_cfg"),
    ), "wall_s on fuzz_campaign"),
    Layer("robust.snapshot", (
        Target("repro.robust.sandbox:snapshot_cfg"),
        Target("repro.robust.sandbox:restore_cfg"),
    ), "wall_s on fuzz_campaign"),
    Layer("robust.diffcheck", (
        Target("repro.robust.diffcheck:check_equivalence", _divergence),
    ), "wall_s and failed on fuzz_campaign", ("divergences",)),
    Layer("sim.functional", (
        Target("repro.sim.functional:FunctionalSim.run", _sim_run),
        Target("repro.sim.functional:FunctionalSim.trace", _sim_run,
               kind="generator"),
        # Simulators made, counted apart from spans: the self-check wants
        # one span per simulator, never one per instruction.
        Target("repro.sim.functional:FunctionalSim.__init__", _new_sim,
               kind="count"),
    ), "wall_s on fuzz_campaign and cold_tables", ("runs", "instrs")),
    Layer("sim.timing", (
        Target("repro.sim.pipeline:TimingSim.run", _cycles),
    ), "wall_s on cold_tables", ("cycles",)),
    Layer("fastsim.decode", (
        Target("repro.fastsim.decode:decode_program"),
    ), "wall_s on cold_tables once fast is the default"),
    Layer("fastsim.codegen", (
        Target("repro.fastsim.codegen:get_compiled"),
        Target("repro.fastsim.codegen:generate_source", _codegen),
    ), "wall_s on cold_tables once fast is the default", ("compiles",)),
    Layer("fastsim.functional", (
        Target("repro.fastsim.functional:FastFunctionalSim.run"),
        Target("repro.fastsim.functional:FastFunctionalSim.batches",
               kind="generator"),
    ), "wall_s on cold_tables once fast is the default"),
    Layer("fastsim.timing", (
        Target("repro.fastsim.timing:FastTimingSim.run"),
    ), "wall_s on cold_tables once fast is the default"),
)


@dataclass
class LayerStats:
    """Aggregated spans of one layer."""

    calls: int = 0
    self_s: float = 0.0
    extra: Counter = field(default_factory=Counter)


def _resolve(spec: str):
    """``"module:Class.attr"`` -> (module, owner, attr, raw attribute)."""
    module_name, qualname = spec.split(":")
    module = importlib.import_module(module_name)
    owner = module
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    raw = vars(owner)[attr] if isinstance(owner, type) \
        else getattr(owner, attr)
    return module, owner, attr, raw


def _repro_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "repro"
                                  or name.startswith("repro."))]


class Ledger:
    """Wraps every layer's public functions and aggregates their spans.

    Use as a context manager around a traced block; :attr:`active` gates
    the accounting so the benchmark's own output checks, run while the
    wrappers are installed, are never charged to a layer.
    """

    def __init__(self):
        self.stats = {layer.name: LayerStats() for layer in LAYERS}
        self.active = False
        # one frame per open span: [seconds covered by children, stats]
        self._stack: list[list] = []
        # (owner, attribute, original object), in patch order
        self.patches: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Replace every target with a span-recording wrapper."""
        for layer in LAYERS:
            stats = self.stats[layer.name]
            for target in layer.targets:
                self._patch(target, stats)

    def _patch(self, target: Target, stats: LayerStats) -> None:
        module, owner, attr, raw = _resolve(target.spec)
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        make = {"span": self._span, "generator": self._generator,
                "count": self._count}[target.kind]
        wrapper = make(fn, stats, target.hook)
        setattr(wrapper, ORIGINAL, fn)
        self.patches.append((owner, attr, raw))
        setattr(owner, attr, classmethod(wrapper)
                if isinstance(raw, classmethod) else wrapper)
        if owner is module:
            # ``from x import f`` copies: every repro module binding fn.
            for mod in _repro_modules():
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self.patches.append((mod, name, fn))
                        setattr(mod, name, wrapper)

    def uninstall(self) -> list[str]:
        """Restore every patched attribute; returns what is still wrapped
        or not restored to its original object (want [])."""
        patches, self.patches = self.patches, []
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
        # Modules first imported inside the traced block bound wrappers.
        for mod in _repro_modules():
            for name, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) \
                        and ORIGINAL in value.__dict__:
                    setattr(mod, name, value.__dict__[ORIGINAL])
        wrong = [f"{owner.__name__}.{attr}"
                 for owner, attr, original in patches
                 if vars(owner).get(attr) is not original]
        return wrong + leftover_wrappers()

    def __enter__(self) -> "Ledger":
        self.install()
        return self

    def __exit__(self, *exc) -> bool:
        self.active = False
        self.uninstall()
        return False

    # -- wrappers ----------------------------------------------------------

    def _span(self, fn, stats: LayerStats, hook):
        ledger, stack, clock = self, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not ledger.active:
                return fn(*args, **kwargs)
            frame = [0.0, stats]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats.calls += 1
                stats.self_s += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if hook is not None:
                hook(stats, args, result)
            return result
        return wrapper

    def _count(self, fn, stats: LayerStats, hook):
        ledger = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if ledger.active:
                hook(stats, args, result)
            return result
        return wrapper

    def _generator(self, fn, stats: LayerStats, hook):
        ledger = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            stack = ledger._stack
            # Pulled inside the same layer's own span (FunctionalSim.run
            # iterating its own trace): that span already covers it.
            if not ledger.active or (stack and stack[-1][1] is stats):
                return gen
            return ledger._pulls(gen, stats, args, hook)
        return wrapper

    def _pulls(self, gen, stats: LayerStats, args, hook):
        """Re-yield *gen*, charging each pull to *stats* (one span)."""
        stack, clock = self._stack, time.perf_counter
        spent = 0.0
        try:
            while True:
                start = clock()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    elapsed = clock() - start
                    spent += elapsed
                    if stack:
                        stack[-1][0] += elapsed
                yield item
        finally:
            gen.close()
            stats.calls += 1
            stats.self_s += spent
            if hook is not None:
                hook(stats, args, None)

    # -- reporting ---------------------------------------------------------

    @property
    def open_spans(self) -> int:
        """Spans entered but not yet closed (0 between operations)."""
        return len(self._stack)

    def self_total(self) -> float:
        """Sum of every layer's self time."""
        return sum(s.self_s for s in self.stats.values())


def leftover_wrappers() -> list[str]:
    """Ledger wrappers still bound anywhere in ``repro`` (want [])."""
    found = []
    for mod in _repro_modules():
        for name, value in vars(mod).items():
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    inner = getattr(member, "__func__", member)
                    if isinstance(inner, types.FunctionType) \
                            and ORIGINAL in inner.__dict__:
                        found.append(f"{mod.__name__}.{name}.{attr}")
            elif isinstance(value, types.FunctionType) \
                    and ORIGINAL in value.__dict__:
                found.append(f"{mod.__name__}.{name}")
    return found
