"""Differential fuzzing campaigns: the standing correctness net.

The paper's claims only hold if the three schemes (speculative, guarded,
combined) are semantics-preserving transformations — this package turns
that requirement into an executable, scalable campaign:

* :mod:`~repro.qa.strategies` — a seeded strategy lattice expanding
  :class:`~repro.isa.randprog.RandProgConfig` into program populations
  (loops, memory, calls, guarded ops, adversarial branch patterns);
* :mod:`~repro.qa.cells` — picklable fuzz cells (one program × the fuzz
  compiles of :mod:`repro.core.schemes` × diff-check) that ride
  :mod:`repro.engine`'s cached loop and executors as the
  :data:`~repro.qa.cells.FUZZ` cell kind;
* :mod:`~repro.qa.shrink` — delta-debugging minimizer for failing
  programs (blocks, then instructions, then stale labels);
* :mod:`~repro.qa.triage` — bucket keys on (failing pass, divergence
  kind, first-diff location);
* :mod:`~repro.qa.corpus` — bucketed reproducer store plus replay;
* :mod:`~repro.qa.campaign` — the campaign runner behind
  ``python -m repro fuzz`` (see docs/QA.md).
"""

from .campaign import (
    CampaignConfig, CampaignResult, CampaignSummary, run_campaign,
    scheme_oracle,
)
from .cells import (
    FUZZ, FUZZ_MAX_STEPS, FuzzCellSpec, check_program, execute_fuzz_cell,
    fuzz_cell_key,
)
from .corpus import (
    iter_corpus, load_reproducer, replay_corpus, save_reproducer,
)
from .shrink import DEFAULT_ORACLE_BUDGET, ShrinkResult, shrink_program
from .strategies import (
    LATTICE, FuzzStrategy, campaign_plan, select_strategies,
)
from .triage import (
    TriageEntry, bucket_id, triage_cell_error, triage_divergence,
)

__all__ = [
    "CampaignConfig", "CampaignResult", "CampaignSummary", "run_campaign",
    "scheme_oracle",
    "FUZZ", "FUZZ_MAX_STEPS", "FuzzCellSpec", "check_program",
    "execute_fuzz_cell", "fuzz_cell_key",
    "iter_corpus", "load_reproducer", "replay_corpus", "save_reproducer",
    "DEFAULT_ORACLE_BUDGET", "ShrinkResult", "shrink_program",
    "LATTICE", "FuzzStrategy", "campaign_plan", "select_strategies",
    "TriageEntry", "bucket_id", "triage_cell_error", "triage_divergence",
]
