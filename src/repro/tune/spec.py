"""Search-space declaration for the closed-loop heuristic tuner.

A :class:`TuneSpec` names the parameters to search (each one either a
:class:`~repro.core.heuristics.FeedbackHeuristics` knob — dotted
``classify.<field>`` names reach the nested
:class:`~repro.profilefb.classify.ClassifyConfig` — or a
``config.<field>`` machine parameter), the workloads to score candidates
on, and the search shape (budget, seed, fidelity rungs).  It is frozen,
canonicalizable (it participates in cache keys), and schema-versioned
through :mod:`repro.core.serde` like every other serialized result type.

:func:`apply_params` is the one translation from a flat candidate vector
``{name: value}`` to the ``(FeedbackHeuristics, config_overrides)`` pair
the engine's cells consume — the search driver, the CLI, and the docs
table all route through it, so a vector always means the same compile.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dc_fields, replace
from typing import Optional

from ..core import serde
from ..core.heuristics import (
    DEFAULT_HEURISTICS, TUNABLE_PARAMS, FeedbackHeuristics, ParamBound,
)
from ..sim.config import MachineConfig
from ..workloads import BENCHMARKS

#: Bounds of the machine-configuration axes the tuner may sweep
#: (``config.<field>`` names): widths, queue sizes and unit counts, as in
#: the design-space sweeps of PAPERS.md.  Every value inside a bound is a
#: machine both simulators run (the predictor table takes a power of
#: two); the predictor axis is fixed by the scheme table, exactly as in
#: :class:`repro.engine.sweep.SweepSpec`.
CONFIG_PARAMS: dict[str, ParamBound] = {
    "config.dispatch_width": ParamBound(2, 8, "int"),
    "config.commit_width": ParamBound(2, 8, "int"),
    "config.int_queue_size": ParamBound(8, 64, "int"),
    "config.addr_queue_size": ParamBound(8, 64, "int"),
    "config.rob_size": ParamBound(16, 128, "int"),
    "config.num_alus": ParamBound(1, 4, "int"),
    "config.num_mem_units": ParamBound(1, 4, "int"),
    "config.bht_entries": ParamBound(
        kind="choice", choices=tuple(2 ** k for k in range(6, 12))),
}

#: The default search space of ``repro tune`` when no ``--param`` is
#: given: the four knobs the paper fixes globally and names explicitly
#: (Figure 6 classification cut-offs plus the two cost-model weights).
DEFAULT_PARAM_NAMES = (
    "classify.likely_threshold",
    "classify.bias_threshold",
    "speculation_bias",
    "mispredict_penalty",
)


def known_bound(name: str) -> ParamBound:
    """The registered :class:`ParamBound` of *name* (raises on unknown).

    Heuristic knobs come from
    :data:`~repro.core.heuristics.TUNABLE_PARAMS`; ``config.*`` axes from
    :data:`CONFIG_PARAMS`.
    """
    if name in TUNABLE_PARAMS:
        return TUNABLE_PARAMS[name]
    if name in CONFIG_PARAMS:
        return CONFIG_PARAMS[name]
    known = sorted(TUNABLE_PARAMS) + sorted(CONFIG_PARAMS)
    raise ValueError(
        f"unknown tunable parameter {name!r} (known: {', '.join(known)})")


@dataclass(frozen=True)
class ParamSpec:
    """One search axis: a parameter name plus its (bounded) range.

    ``lo``/``hi``/``choices`` default to the registered bound of the
    parameter; a narrower explicit range is accepted, a wider one is
    rejected at validation time.
    """

    name: str
    lo: Optional[float] = None
    hi: Optional[float] = None
    choices: tuple = ()

    def bound(self) -> ParamBound:
        """The effective :class:`ParamBound` of this axis."""
        base = known_bound(self.name)
        if base.kind == "choice":
            return (replace(base, choices=tuple(self.choices))
                    if self.choices else base)
        return ParamBound(
            lo=base.lo if self.lo is None else self.lo,
            hi=base.hi if self.hi is None else self.hi,
            kind=base.kind)

    def validate(self) -> None:
        """Reject unknown names and ranges outside the registered bound."""
        base = known_bound(self.name)
        if base.kind == "choice":
            if self.lo is not None or self.hi is not None:
                raise ValueError(
                    f"param {self.name!r} is a choice axis: restrict it "
                    f"to values, not to a range")
            bad = [c for c in self.choices if c not in base.choices]
            if bad:
                raise ValueError(
                    f"param {self.name!r}: choices {bad!r} not in "
                    f"{base.choices!r}")
            return
        eff = self.bound()
        if eff.lo > eff.hi:
            raise ValueError(
                f"param {self.name!r}: empty range [{eff.lo}, {eff.hi}]")
        if eff.lo < base.lo or eff.hi > base.hi:
            raise ValueError(
                f"param {self.name!r}: range [{eff.lo}, {eff.hi}] exceeds "
                f"the registered bound [{base.lo}, {base.hi}]")

    def to_dict(self) -> dict:
        """Plain-dict form (no schema stamp; nested inside TuneSpec)."""
        return {"name": self.name, "lo": self.lo, "hi": self.hi,
                "choices": list(self.choices)}

    @classmethod
    def from_dict(cls, d: dict) -> "ParamSpec":
        """Inverse of :meth:`to_dict`."""
        return cls(name=d["name"], lo=d["lo"], hi=d["hi"],
                   choices=tuple(d["choices"]))


@dataclass(frozen=True)
class TuneSpec:
    """A full closed-loop search description.

    ``budget`` caps the number of (candidate, fidelity-rung) evaluations
    the search performs; ``fidelities`` are the successive-halving rungs
    as fractions of ``scale`` (the last rung is always the full scale and
    produces the reported measurements); ``seed`` drives every random
    decision, so identical specs yield identical searches.
    """

    params: tuple[ParamSpec, ...]
    benchmarks: Optional[tuple[str, ...]] = None
    scale: float = 1.0
    budget: int = 32
    seed: int = 0
    fidelities: tuple[float, ...] = (0.25, 1.0)
    max_steps: int = 50_000_000
    #: survivor fraction per successive-halving rung
    keep: float = 0.5
    #: per-parameter mutation probability in the refinement stage
    mutation_rate: float = 0.5

    def validate(self) -> None:
        """Check every axis, workload name, and search-shape knob."""
        if not self.params:
            raise ValueError("TuneSpec.params is empty: nothing to search")
        seen: set[str] = set()
        for p in self.params:
            if p.name in seen:
                raise ValueError(f"duplicate search axis {p.name!r}")
            seen.add(p.name)
            p.validate()
        for b in self.benchmarks or ():
            if b not in BENCHMARKS:
                raise ValueError(
                    f"unknown benchmark {b!r} "
                    f"(known: {', '.join(sorted(BENCHMARKS))})")
        if self.budget < 2:
            raise ValueError("budget must be >= 2 (default + 1 candidate)")
        if not self.fidelities or sorted(self.fidelities) != \
                list(self.fidelities) or self.fidelities[-1] != 1.0:
            raise ValueError(
                "fidelities must be ascending and end at 1.0")
        if not 0.0 < self.keep < 1.0:
            raise ValueError("keep must be in (0, 1)")
        if not 0.0 < self.mutation_rate <= 1.0:
            raise ValueError("mutation_rate must be in (0, 1]")
        if not 0.0 < self.scale <= 1.0:
            raise ValueError("scale must be in (0, 1]")

    def to_dict(self) -> dict:
        """Schema-stamped JSON form (see :mod:`repro.core.serde`)."""
        return serde.stamp({
            "params": [p.to_dict() for p in self.params],
            "benchmarks": (list(self.benchmarks)
                           if self.benchmarks is not None else None),
            "scale": self.scale, "budget": self.budget, "seed": self.seed,
            "fidelities": list(self.fidelities),
            "max_steps": self.max_steps, "keep": self.keep,
            "mutation_rate": self.mutation_rate,
        })

    @classmethod
    def from_dict(cls, d: dict) -> "TuneSpec":
        """Inverse of :meth:`to_dict` (schema-version checked)."""
        serde.check(d, "TuneSpec")
        return cls(
            params=tuple(ParamSpec.from_dict(p) for p in d["params"]),
            benchmarks=(tuple(d["benchmarks"])
                        if d["benchmarks"] is not None else None),
            scale=d["scale"], budget=d["budget"], seed=d["seed"],
            fidelities=tuple(d["fidelities"]),
            max_steps=d["max_steps"], keep=d["keep"],
            mutation_rate=d["mutation_rate"])


_HEUR_FIELDS = {f.name for f in dc_fields(FeedbackHeuristics)}
_CLASSIFY_PREFIX = "classify."
_CONFIG_PREFIX = "config."


def apply_params(params: dict,
                 base: FeedbackHeuristics = DEFAULT_HEURISTICS,
                 ) -> tuple[FeedbackHeuristics, dict]:
    """Translate a flat candidate vector into engine-cell inputs.

    Returns ``(heur, config_overrides)``: dotted ``classify.*`` entries
    land in the nested :class:`ClassifyConfig`, ``config.*`` entries in
    the machine-override dict, everything else directly on the
    :class:`FeedbackHeuristics`.  Unknown names raise ``ValueError``
    (the spec validates earlier, but the CLI may hand vectors straight
    from JSON).
    """
    classify: dict = {}
    heur_fields: dict = {}
    config: dict = {}
    config_names = {f.name for f in dc_fields(MachineConfig)}
    classify_names = {f.name for f in dc_fields(type(base.classify))}
    for name, value in params.items():
        if name.startswith(_CLASSIFY_PREFIX):
            field = name[len(_CLASSIFY_PREFIX):]
            if field not in classify_names:
                raise ValueError(f"unknown ClassifyConfig field {field!r}")
            classify[field] = value
        elif name.startswith(_CONFIG_PREFIX):
            field = name[len(_CONFIG_PREFIX):]
            if field not in config_names:
                raise ValueError(f"unknown MachineConfig field {field!r}")
            config[field] = value
        elif name in _HEUR_FIELDS:
            heur_fields[name] = value
        else:
            raise ValueError(
                f"unknown FeedbackHeuristics field {name!r}")
    heur = base
    if classify:
        heur = replace(heur, classify=replace(heur.classify, **classify))
    if heur_fields:
        heur = replace(heur, **heur_fields)
    return heur, config
