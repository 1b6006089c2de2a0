"""Pareto-front extraction over the tuner's three objectives.

The search scores every candidate on **IPC** (maximize), **code growth**
(minimize — transformed / original static instruction count), and
**compile cost** (minimize — the deterministic transform-count proxy of
:func:`repro.tune.evaluate.compile_cost`).  A candidate is *dominated*
when another candidate is at least as good on every objective and
strictly better on one; the front is the set of non-dominated
candidates.  Wall-clock compile time is deliberately not an objective:
it varies run to run, and the tuner's contract is that the same seed and
budget reproduce the identical front.
"""

from __future__ import annotations

from typing import Sequence


def dominates(a: dict, b: dict) -> bool:
    """True when objective vector *a* Pareto-dominates *b*.

    Both are ``{"ipc", "code_growth", "compile_cost"}`` dicts; *a*
    dominates when it is no worse on every objective and strictly better
    on at least one.
    """
    no_worse = (a["ipc"] >= b["ipc"]
                and a["code_growth"] <= b["code_growth"]
                and a["compile_cost"] <= b["compile_cost"])
    strictly = (a["ipc"] > b["ipc"]
                or a["code_growth"] < b["code_growth"]
                or a["compile_cost"] < b["compile_cost"])
    return no_worse and strictly


def pareto_front(points: Sequence[dict]) -> list[int]:
    """Indices of the non-dominated *points*, in input order.

    Ties (identical vectors) all stay on the front — dropping one of two
    equal candidates would make the result depend on input order, which
    the determinism contract forbids.
    """
    front = []
    for i, p in enumerate(points):
        if not any(dominates(q, p) for j, q in enumerate(points) if j != i):
            front.append(i)
    return front
