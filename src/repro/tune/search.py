"""The closed-loop search driver: successive halving + mutation.

:func:`run_tune` turns a :class:`~repro.tune.spec.TuneSpec` into a
:class:`TuneResult` in two stages:

1. **Successive halving** — a seeded initial population (the default
   heuristic vector is always candidate 0) is scored on cheap
   low-fidelity rungs (reduced workload scale) and only the top
   ``keep`` fraction is promoted to the next, more expensive rung; the
   default vector is always promoted, so every search ends with a
   like-for-like comparison against the paper's global thresholds.
2. **Mutation refinement** — while evaluation budget remains, survivors
   of the top rung breed mutated variants (each parameter perturbed
   with probability ``mutation_rate`` inside its registered bound),
   which are scored at full fidelity.

Budget accounting is *structural*: every (candidate, rung) evaluation
costs one unit whether or not its cells hit the artifact cache — so the
search trajectory (and therefore the Pareto front) depends only on
the spec, never on cache state.  A warm cache changes how
long the search takes, not where it goes; that is what makes
``same seed + budget → identical front`` and ``resumed search executes
zero cells`` simultaneously true.

A search whose every cell succeeded additionally lands in the artifact
cache under a spec-level key (:func:`tune_result_key`), so re-running an
identical search returns the stored :class:`TuneResult` without touching
a single cell.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..core import serde
from ..core.heuristics import DEFAULT_HEURISTICS
from ..engine.cells import CELLS
from ..engine.keys import SCHEMA_VERSION as KEYS_SCHEMA_VERSION, digest
from ..engine.pool import run_cached
from ..obs.trace import span as obs_span
from ..sim.config import r10k_config
from ..workloads import benchmark_programs
from .evaluate import candidate_cells, measure
from .pareto import pareto_front
from .spec import TuneSpec, apply_params

#: Code-growth slack a per-workload winner may spend over the default
#: vector's growth (at most 5% more).
GROWTH_SLACK = 1.05


def default_value(name: str):
    """The paper-default value of a tunable parameter (candidate 0)."""
    if name.startswith("classify."):
        return getattr(DEFAULT_HEURISTICS.classify, name[len("classify."):])
    if name.startswith("config."):
        return getattr(r10k_config(), name[len("config."):])
    return getattr(DEFAULT_HEURISTICS, name)


def tune_result_key(spec: TuneSpec) -> str:
    """Result-level cache key of one search: the spec's content.

    Salted with the engine's key schema version so compiler or simulator
    changes invalidate stored searches exactly like they invalidate
    cells.
    """
    return digest({"kind": "tune-result", "schema": KEYS_SCHEMA_VERSION,
                   "spec": spec})


@dataclass
class TuneResult:
    """Everything one search learned, serializable via core.serde.

    ``candidates`` holds every evaluated vector with its per-rung,
    per-workload objective measurements; ``pareto`` indexes the
    non-dominated finalists; ``per_workload`` maps each benchmark to its
    winning vector under the code-growth slack (always at least as good
    on IPC as the default vector, which competes as candidate 0).
    """

    spec: TuneSpec
    candidates: list = field(default_factory=list)
    pareto: list = field(default_factory=list)
    per_workload: dict = field(default_factory=dict)
    evaluations: int = 0
    cells_hit: int = 0
    cells_executed: int = 0

    def to_dict(self) -> dict:
        """Schema-stamped JSON form (CLI ``--out`` and result cache)."""
        return serde.stamp({
            "spec": self.spec.to_dict(),
            "candidates": self.candidates, "pareto": self.pareto,
            "per_workload": self.per_workload,
            "evaluations": self.evaluations,
            "cells_hit": self.cells_hit,
            "cells_executed": self.cells_executed,
        })

    @classmethod
    def from_dict(cls, d: dict) -> "TuneResult":
        """Inverse of :meth:`to_dict` (schema-version checked; the
        ``backend`` field older payloads carry is ignored)."""
        serde.check(d, "TuneResult")
        return cls(spec=TuneSpec.from_dict(d["spec"]),
                   candidates=d["candidates"],
                   pareto=d["pareto"], per_workload=d["per_workload"],
                   evaluations=d["evaluations"],
                   cells_hit=d["cells_hit"],
                   cells_executed=d["cells_executed"])


def _sample(spec: TuneSpec, rng: random.Random) -> dict:
    """One random candidate vector inside every axis bound."""
    out = {}
    for p in spec.params:
        b = p.bound()
        if b.kind == "choice":
            out[p.name] = rng.choice(list(b.choices))
        elif b.kind == "int":
            out[p.name] = rng.randint(int(b.lo), int(b.hi))
        else:
            out[p.name] = round(rng.uniform(b.lo, b.hi), 6)
    return out


def _mutate(spec: TuneSpec, parent: dict, rng: random.Random) -> dict:
    """A mutated copy of *parent* (≥1 parameter always changes)."""
    out = dict(parent)
    changed = False
    for p in spec.params:
        if rng.random() >= spec.mutation_rate:
            continue
        b = p.bound()
        if b.kind == "choice":
            out[p.name] = rng.choice(list(b.choices))
        elif b.kind == "int":
            width = max(1, int(round((b.hi - b.lo) * 0.25)))
            out[p.name] = b.clamp(out[p.name] + rng.randint(-width, width))
        else:
            width = (b.hi - b.lo) * 0.25
            out[p.name] = round(
                b.clamp(out[p.name] + rng.uniform(-width, width)), 6)
        changed = changed or out[p.name] != parent[p.name]
    if not changed:  # force one fresh draw so mutants never no-op
        p = spec.params[rng.randrange(len(spec.params))]
        out[p.name] = _sample(spec, rng)[p.name]
    return out


def _vec_key(params: dict) -> str:
    """Canonical identity of a vector (dedup across origins)."""
    return digest({"vec": params})


def _aggregate(per_bench: dict) -> dict:
    """Cross-workload objective summary of one (candidate, rung)."""
    ok = [m for m in per_bench.values() if m["ok"]]
    n = len(per_bench)
    if not ok:
        return {"ipc": 0.0, "code_growth": float("inf"),
                "compile_cost": 0, "ok_frac": 0.0}
    return {"ipc": sum(m["ipc"] for m in ok) / len(ok),
            "code_growth": max(m["code_growth"] for m in ok),
            "compile_cost": sum(m["compile_cost"] for m in ok),
            "ok_frac": len(ok) / n if n else 0.0}


def _rank_key(cand: dict, rung: str):
    """Sort key for halving: sound first, then IPC, growth, cost, index."""
    agg = cand["rungs"][rung]["aggregate"]
    return (-agg["ok_frac"], -agg["ipc"], agg["code_growth"],
            agg["compile_cost"], cand["index"])


def _rung_label(frac: float) -> str:
    """Stable string key of one fidelity rung (JSON dict key)."""
    return f"{frac:g}"


def _initial_population(spec: TuneSpec) -> int:
    """Initial wave size: the halving stage fits in ~half the budget."""
    k, r = spec.keep, len(spec.fidelities)
    wave_cost = (1 - k ** r) / (1 - k)  # sum of k^i for i < r
    n0 = int((spec.budget / 2) / wave_cost)
    return max(2, min(n0, spec.budget))


def _evaluate_round(cands: list, frac: float, spec: TuneSpec, cache,
                    executor, round_no: int, progress) -> tuple[int, int]:
    """Score *cands* at rung *frac* as one cached batch; returns (cache
    hits, executed), counted over distinct cells."""
    scale = spec.scale if frac == 1.0 else spec.scale * frac
    programs = benchmark_programs(scale)
    if spec.benchmarks is not None:
        programs = {n: p for n, p in programs.items()
                    if n in spec.benchmarks}
    original_len = {name: len(prog) for name, prog in programs.items()}
    label = _rung_label(frac)
    with obs_span("tune.round", round=round_no, rung=frac,
                  candidates=len(cands)) as sp:
        grid = []   # (candidate, [(bench, key, spec)])
        cells = []
        for cand in cands:
            heur, overrides = apply_params(cand["params"])
            cc = candidate_cells(heur, overrides, programs, spec.max_steps)
            grid.append((cand, cc))
            cells.extend(cc)
        results, hits, executed = run_cached(
            CELLS, [(key, cell) for _, key, cell in cells], executor, cache,
            programs)
        by_key = {key: result
                  for (_, key, _), result in zip(cells, results)}
        best = 0.0
        for cand, cc in grid:
            per_bench = {name: measure(by_key[key], original_len[name])
                         for name, key, _ in cc}
            agg = _aggregate(per_bench)
            cand["rungs"][label] = {"per_workload": per_bench,
                                    "aggregate": agg}
            best = max(best, agg["ipc"])
        sp.set("best_ipc", best)
        sp.set("cells_hit", hits)
        sp.set("cells_executed", executed)
    if progress:
        progress(f"round {round_no}: rung {label} x{len(cands)} "
                 f"candidates, best ipc {best:.3f} "
                 f"({hits} cached, {executed} executed)")
    return hits, executed


def _pick_winners(finalists: list, spec: TuneSpec) -> dict:
    """Per-workload winning vectors under the code-growth slack.

    The default vector (candidate 0) competes, so a workload's winner
    has IPC >= the default's by construction; candidates whose growth
    exceeds ``default_growth * GROWTH_SLACK`` are not eligible — beating
    the paper's thresholds by paying unbounded code size is exactly the
    trade the 1998 hardware could not afford.
    """
    top = _rung_label(spec.fidelities[-1])
    default = finalists[0]
    assert default["index"] == 0
    winners: dict = {}
    for bench, base in default["rungs"][top]["per_workload"].items():
        if not base["ok"]:
            continue
        allowed = base["code_growth"] * GROWTH_SLACK
        best = None
        for cand in finalists:
            m = cand["rungs"][top]["per_workload"].get(bench)
            if m is None or not m["ok"] or m["code_growth"] > allowed:
                continue
            if best is None or m["ipc"] > best[1]["ipc"] or (
                    m["ipc"] == best[1]["ipc"]
                    and cand["index"] < best[0]["index"]):
                best = (cand, m)
        if best is None:
            best = (default, base)
        cand, m = best
        winners[bench] = {
            "candidate": cand["index"], "params": cand["params"],
            "ipc": m["ipc"], "default_ipc": base["ipc"],
            "ipc_gain_pct": (100.0 * (m["ipc"] / base["ipc"] - 1.0)
                             if base["ipc"] else 0.0),
            "code_growth": m["code_growth"],
            "default_code_growth": base["code_growth"],
        }
    return winners


def run_tune(spec: TuneSpec, cache=None, executor=None,
             progress: Optional[Callable[[str], None]] = None
             ) -> TuneResult:
    """Run one closed-loop search (the engine behind ``Session.tune``).

    *cache*/*executor* mirror the suite runner: each round's cell batch
    runs through the cache and the executor (None = in-process; a
    :class:`~repro.serve.ServeClient` sends it to the evaluation service
    as one job).  An identical search found in the cache is returned
    directly — resumption without executing anything.
    """
    spec.validate()
    result_key = tune_result_key(spec)
    if cache is not None:
        stored = cache.get(result_key)
        if stored is not None:
            if progress:
                progress("identical search found in the artifact cache; "
                         "returning the stored result (0 cells)")
            return TuneResult.from_dict(stored)

    rng = random.Random(spec.seed)
    seen: set[str] = set()
    candidates: list[dict] = []

    def admit(params: dict, origin: str) -> Optional[dict]:
        key = _vec_key(params)
        if key in seen:
            return None
        seen.add(key)
        cand = {"index": len(candidates), "params": params,
                "origin": origin, "rungs": {}}
        candidates.append(cand)
        return cand

    defaults = {p.name: default_value(p.name) for p in spec.params}
    admit(defaults, "default")
    n0 = _initial_population(spec)
    while len(candidates) < n0:
        admit(_sample(spec, rng), "sample")

    with obs_span("tune.search", budget=spec.budget, seed=spec.seed,
                  params=len(spec.params)):
        evaluations = hits = executed = 0
        round_no = 0
        # Stage 1: successive halving up the fidelity rungs.
        wave = list(candidates)
        for frac in spec.fidelities:
            if evaluations >= spec.budget:
                break
            wave = wave[:spec.budget - evaluations]
            if not wave:
                break
            h, x = _evaluate_round(wave, frac, spec, cache, executor,
                                   round_no, progress)
            evaluations += len(wave)
            hits += h
            executed += x
            round_no += 1
            label = _rung_label(frac)
            if frac != spec.fidelities[-1]:
                wave.sort(key=lambda c: _rank_key(c, label))
                survivors = max(1, int(len(wave) * spec.keep))
                wave = wave[:survivors]
                if all(c["index"] != 0 for c in wave):
                    wave.append(candidates[0])  # default always promoted
        top_label = _rung_label(spec.fidelities[-1])
        finalists = [c for c in candidates if top_label in c["rungs"]]

        # Stage 2: mutation refinement at full fidelity.
        while evaluations < spec.budget and finalists:
            finalists.sort(key=lambda c: _rank_key(c, top_label))
            parents = finalists[:max(2, len(finalists) // 4)]
            wave = []
            room = spec.budget - evaluations
            target = min(room, max(2, len(parents)))
            attempts = 0
            while len(wave) < target and attempts < target * 10:
                attempts += 1
                child = admit(
                    _mutate(spec, rng.choice(parents)["params"], rng),
                    "mutation")
                if child is not None:
                    wave.append(child)
            if not wave:
                break
            h, x = _evaluate_round(wave, spec.fidelities[-1], spec, cache,
                                   executor, round_no, progress)
            evaluations += len(wave)
            hits += h
            executed += x
            round_no += 1
            finalists.extend(wave)

        finalists.sort(key=lambda c: c["index"])
        objectives = [c["rungs"][top_label]["aggregate"] for c in finalists]
        front = [finalists[i]["index"]
                 for i in pareto_front(objectives)]
        per_workload = (_pick_winners(finalists, spec)
                        if finalists and finalists[0]["index"] == 0 else {})

    result = TuneResult(spec=spec, candidates=candidates,
                        pareto=front, per_workload=per_workload,
                        evaluations=evaluations, cells_hit=hits,
                        cells_executed=executed)
    # Stored only when every cell it measured succeeded: a failure can
    # be transient (a dead worker, a MemoryError), and a stored search
    # built on one would answer every later identical search.
    if cache is not None and all(
            m["ok"] for cand in candidates for rung in cand["rungs"].values()
            for m in rung["per_workload"].values()):
        cache.put(result_key, result.to_dict())
    return result
