"""The benchmark's three closed-loop workloads.

Each workload is one caller issuing one kind of operation back to back,
with ``jobs=1`` (the CLI default) and no pinned execution backend.  It
goes through public entry points only: ``Session.run_suite``,
``Session.fuzz``, ``repro.workloads.benchmark_programs`` and the
``repro.eval.tables`` formatters.  Every input derives from the seed.

* ``cold_tables`` -- a cold ``repro tables --scale 0.1``: the 4 stock
  programs x 5 schemes = 20 cells from an empty cache.  It is the
  headline cold path: timing replay, functional simulation and
  profiling.
* ``warm_tables`` -- the same command replayed from the cache that a cold
  fill wrote during set-up.  It compiles and simulates nothing, so it
  measures the read side: parsing cached programs, keys, cache reads and
  serde.
* ``fuzz_campaign`` -- ``repro fuzz --no-cache --jobs 1`` over every
  lattice strategy.  It is compile- and verify-heavy with no timing
  replay, and already profiles once per program.

``prepare`` is the set-up step (repeated for the set-up figure),
``op(item)`` the timed operation on one of the workload's ``items``
distinct inputs, and ``check`` verifies the operation's outputs and
releases what it made.  Layer functions are called through their module
attributes so that the ledger's wrappers see the calls.
"""

from __future__ import annotations

import math
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from repro import workloads as stock
from repro.api import Session
from repro.eval import suite_failures, suite_to_dict, tables
from repro.eval.paper_data import PAPER_TABLE4_IPC, shape_verdicts
from repro.qa.strategies import LATTICE

#: ``repro tables --scale`` of both table workloads.
SCALE = 0.1
#: Programs per fuzz campaign: one per lattice strategy.
FUZZ_BUDGET = len(LATTICE)
#: Campaigns per fuzz run, drawn by the run's seed from ``FUZZ_POOL``
#: without replacement.  Half the pool: the more campaigns a run holds,
#: the less its cost depends on which ones the seed drew.
FUZZ_CAMPAIGNS = 24
#: The first 48 campaign seeds on which every scheme agrees with the
#: reference at budget 11.  Seed 25 diverges (speculative, combined and
#: safe-speculative write memory differently), as do about 2% of
#: campaigns: a workload that is to time clean campaigns leaves it out,
#: and a divergence on any seed kept still fails the run.
FUZZ_POOL = tuple(seed for seed in range(49) if seed != 25)


def geomean(xs) -> float:
    """Geometric mean of positive ratios."""
    xs = list(xs)
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


#: The paper's Table 4 Proposed/2bitBP IPC geomean over the stock programs.
PAPER_SPEEDUP = geomean(ipc["Proposed"] / ipc["2bitBP"]
                        for ipc in PAPER_TABLE4_IPC.values())


def render_tables(runs) -> str:
    """What ``repro tables`` prints: Tables 1-4 and the improvements."""
    return "\n\n".join((tables.format_table1(runs), tables.format_table2(),
                        tables.format_table3(runs),
                        tables.format_table4(runs),
                        tables.format_improvements(runs)))


def proposed_speedup(runs) -> float:
    """Geomean of Proposed/2bitBP IPC over the suite's programs."""
    return geomean(run.improvement for run in runs.values())


@dataclass
class Outcome:
    """Checked result of one operation."""

    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)


def check_suite(runs, text: str) -> Outcome:
    """Every cell ok, the paper's IPC ordering kept, the headline printed.

    A program whose ordering differs from the paper's fails all its cells.
    """
    bad = {(c.benchmark, c.scheme) for c in suite_failures(runs)}
    problems = [f"{b}/{s} failed" for b, s in sorted(bad)]
    for verdict in shape_verdicts(runs):
        if not verdict["ipc_ordering_matches"]:
            name = verdict["benchmark"]
            problems.append(f"{name}: IPC ordering differs from the paper's")
            bad |= {(name, scheme) for scheme in runs[name].results}
    if not bad:
        geo_line = text.rsplit("\n", 1)[-1]
        if not geo_line.endswith(f"{proposed_speedup(runs):>9.2f}x"):
            problems.append(f"printed geo-mean {geo_line!r} is not the "
                            f"Proposed/2bitBP geomean")
    cells = sum(len(run.results) for run in runs.values())
    return Outcome(cells, len(bad), problems)


class ColdTables:
    """A cold ``repro tables --scale 0.1``; attempted counts cells."""

    items = 1

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch
        self.programs = None    # the next operation's inputs
        self.reference = None   # suite_to_dict of the first operation
        self.speedup = None

    def prepare(self) -> None:
        self.programs = stock.benchmark_programs(SCALE, seed=self.seed)

    def op(self, item: int = 0):
        # Fresh Program objects per operation, as a fresh ``repro tables``
        # has: the fast backend caches decoding by program identity.
        programs, self.programs = self.programs, None
        cache = tempfile.mkdtemp(dir=self.scratch)
        with Session(cache=cache) as session:
            runs = session.run_suite(SCALE, benchmarks=programs)
        return runs, render_tables(runs), cache

    def check(self, result) -> Outcome:
        runs, text, cache = result
        shutil.rmtree(cache)
        self.prepare()
        outcome = check_suite(runs, text)
        payload = suite_to_dict(runs)
        if self.reference is None:
            self.reference = payload
            if not outcome.failed:
                self.speedup = proposed_speedup(runs)
        elif payload != self.reference:
            outcome.failed = outcome.attempted
            outcome.problems.append("results differ from the first run's")
        return outcome


class WarmTables:
    """``repro tables --scale 0.1`` replayed from a warm cache; attempted
    counts replays."""

    items = 1

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch
        self.cache = None
        self.reference = None   # suite_to_dict of the cold fill
        self.speedup = None

    def prepare(self) -> None:
        """Cold-fill a fresh cache (the previous fill is discarded)."""
        if self.cache is not None:
            shutil.rmtree(self.cache)
        self.cache = tempfile.mkdtemp(dir=self.scratch)
        programs = stock.benchmark_programs(SCALE, seed=self.seed)
        with Session(cache=self.cache) as session:
            runs = session.run_suite(SCALE, benchmarks=programs)
        outcome = check_suite(runs, render_tables(runs))
        if outcome.failed:
            raise RuntimeError("cold fill failed its checks: "
                               + "; ".join(outcome.problems))
        self.reference = suite_to_dict(runs)
        self.speedup = proposed_speedup(runs)

    def op(self, item: int = 0):
        with Session(cache=self.cache) as session:
            runs = session.run_suite(
                SCALE,
                benchmarks=stock.benchmark_programs(SCALE, seed=self.seed))
            misses = session.cache.counters.misses
        render_tables(runs)
        return runs, misses

    def check(self, result) -> Outcome:
        runs, misses = result
        problems = []
        if misses:
            problems.append(f"replay missed the cache {misses} times")
        if suite_to_dict(runs) != self.reference:
            problems.append("replay differs from the cold fill")
        return Outcome(1, int(bool(problems)), problems)


class FuzzCampaign:
    """``repro fuzz --budget 11 --no-cache --jobs 1``: one program per
    lattice strategy; attempted counts programs.

    Program cost varies with the seed that drew it (about 18% between
    11-program campaigns), so a run cycles over ``FUZZ_CAMPAIGNS``
    campaigns, each its own item, to depend little on which programs one
    seed drew.  Divergent programs are not shrunk: the run reports them
    as failed instead of spending minutes minimizing them.
    """

    items = FUZZ_CAMPAIGNS

    def __init__(self, seed: int, scratch: Path):
        self.campaigns = random.Random(seed).sample(FUZZ_POOL, self.items)

    def prepare(self) -> None:
        """Nothing: a campaign generates its programs itself."""

    def op(self, item: int = 0):
        with Session(cache=None) as session:
            return session.fuzz(budget=FUZZ_BUDGET, shrink=False,
                                seed=self.campaigns[item])

    def check(self, result) -> Outcome:
        summary = result.summary
        # A program fails when any scheme diverged on it or its cell crashed.
        outcome = Outcome(FUZZ_BUDGET,
                          len({(e.strategy, e.seed) for e in result.entries}))
        if not summary.clean:
            outcome.problems.append(
                f"{summary.divergences} divergences, "
                f"{summary.cell_errors} cell errors")
        covered = set(summary.per_strategy)
        if summary.programs != FUZZ_BUDGET \
                or covered != {s.name for s in LATTICE}:
            outcome.failed = FUZZ_BUDGET
            outcome.problems.append(
                f"campaign covered {summary.programs} programs over "
                f"{len(covered)} strategies")
        return outcome


WORKLOADS = {
    "cold_tables": ColdTables,
    "warm_tables": WarmTables,
    "fuzz_campaign": FuzzCampaign,
}
