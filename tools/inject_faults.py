#!/usr/bin/env python3
"""Fault-injection harness: prove every fault class is caught.

Runs the full taxonomy from :mod:`repro.robust.faults` against real
benchmark programs and reports, per (fault class, benchmark), which layer
of the containment ladder fired:

* ``verifier``  — static IR checks flagged the corruption;
* ``diffcheck`` — co-simulation against the pristine program diverged;
* ``sandbox``   — the pass sandbox contained the buggy pass and rolled
  the CFG back;
* ``tolerated`` — corrupted *feedback* was absorbed: the compile still
  produced a verified, architecturally equivalent program.

A fault that slips through every layer is UNCAUGHT and the harness exits
nonzero — this script is the executable claim behind docs/ROBUSTNESS.md.

``--fuzz`` additionally drives the :mod:`repro.qa` campaign machinery
end to end against deliberately miscompiled programs: each diffcheck-class
fault is injected into fuzz-generated programs and must be (1) caught by
the equivalence oracle, (2) shrunk to a minimal reproducer (<= 25
instructions), and (3) triaged into a stable bucket — the executable
claim behind docs/QA.md.

Run:  python tools/inject_faults.py [--scale 0.1] [--benchmarks a,b]
                                    [--fuzz] [--fuzz-seed N]
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cfg.graph import build_cfg  # noqa: E402
from repro.core.pipeline import compile_proposed  # noqa: E402
from repro.isa.program import Program  # noqa: E402
from repro.profilefb.profiledb import ProfileDB  # noqa: E402
from repro.robust.diffcheck import Reference, run_reference  # noqa: E402
from repro.robust.faults import (  # noqa: E402
    PASS_FAULTS, PROFILE_FAULTS, PROGRAM_FAULTS, buggy_pass, corrupt_profile,
    inject_program_fault,
)
from repro.robust.sandbox import PassSandbox  # noqa: E402
from repro.robust.verifier import verify_program  # noqa: E402
from repro.workloads import benchmark_programs  # noqa: E402

#: Step budget for co-simulation runs (benchmarks here are small-scale).
MAX_STEPS = 5_000_000


def check_program_fault(name: str, pristine: Reference) -> tuple[bool, str]:
    """Inject one program fault class; return (caught, layer).

    Verifier-class faults must be flagged *statically* on every candidate.
    Diffcheck-class faults must diverge on at least one candidate (a
    candidate diffcheck proves equivalent changed nothing observable and
    is benign by construction).  Injection is steered by the pristine
    run's per-instruction execution counts.
    """
    expected = PROGRAM_FAULTS[name][0].detector
    candidates = list(inject_program_fault(name, pristine.program,
                                           random.Random(0),
                                           pristine.sim.index_counts))
    if not candidates:
        return True, "n/a (no injection site)"
    if expected == "verifier":
        missed = [bad for bad in candidates if not verify_program(bad)]
        if missed:
            return False, f"UNCAUGHT ({len(missed)} candidate(s) verified)"
        return True, "verifier"
    flagged = 0
    for bad in candidates:
        if verify_program(bad):
            flagged += 1  # caught even earlier than expected
        elif not pristine.check(bad):
            flagged += 1
    if not flagged:
        return False, "UNCAUGHT (no candidate diverged)"
    return True, f"diffcheck ({flagged}/{len(candidates)} diverged)"


def check_profile_fault(name: str, pristine: Reference) -> tuple[bool, str]:
    """Corrupt the feedback; the compile must stay semantics-preserving."""
    prog = pristine.program
    db = corrupt_profile(name, ProfileDB.from_run(prog, max_steps=MAX_STEPS))
    result = compile_proposed(prog, profile=db, max_steps=MAX_STEPS)
    if verify_program(result.program):
        return False, "UNCAUGHT (emitted invalid IR)"
    if not pristine.check(result.program):
        return False, "UNCAUGHT (semantics corrupted)"
    return True, "tolerated"


def check_pass_fault(name: str, pristine: Reference) -> tuple[bool, str]:
    """Run a synthetic buggy pass in the sandbox; rollback must hold."""
    prog = pristine.program
    cfg = build_cfg(prog)
    box = PassSandbox(cfg)
    fn = buggy_pass(name)
    box.run(name, lambda: fn(cfg))
    if not box.contained:
        return False, "UNCAUGHT (no failure recorded)"
    restored = cfg.to_program(prog.name + ".restored")
    if verify_program(restored):
        return False, "UNCAUGHT (rollback left invalid IR)"
    if not pristine.check(restored):
        return False, "UNCAUGHT (rollback changed semantics)"
    return True, "sandbox"


#: Fault classes the --fuzz mode exercises (silent miscompiles: the ones
#: only the differential oracle can catch).
FUZZ_FAULTS = ("swapped-operands", "clobbered-register", "branch-retarget")
#: The qa acceptance bar: every injected fault must shrink to this size.
FUZZ_SHRINK_LIMIT = 25
#: Candidate-run step budget during --fuzz shrinking (programs are tiny).
FUZZ_STEP_CAP = 200_000


def _fault_oracle(fault: str):
    """Oracle factory: does injecting *fault* into a candidate diverge?

    Returns ``(oracle, classify)`` where ``classify(prog)`` gives the
    divergence kind of the first diverging injection (or None).
    """
    def classify(candidate: Program):
        reference = None  # run only once the fault has a site
        for bad in inject_program_fault(fault, candidate, random.Random(0)):
            if reference is None:
                reference = run_reference(candidate, FUZZ_STEP_CAP)
            report = reference.check(bad)
            if not report.equivalent:
                return report
        return None

    def oracle(candidate: Program) -> bool:
        return classify(candidate) is not None

    return oracle, classify


def check_fuzz_pipeline(seed: int) -> int:
    """Prove the qa loop catches, shrinks, and buckets injected faults."""
    from repro.isa.printer import format_program
    from repro.isa.randprog import random_program
    from repro.qa import TriageEntry, shrink_program

    failures = 0
    print(f"fuzz pipeline (seed {seed}):")
    for fault in FUZZ_FAULTS:
        oracle, classify = _fault_oracle(fault)
        prog = report = None
        for s in range(seed, seed + 20):
            candidate = random_program(s)
            report = classify(candidate)
            if report is not None:
                prog = candidate
                break
        if prog is None:
            print(f"  {fault:<22} UNCAUGHT  [no divergence in 20 programs]")
            failures += 1
            continue
        kind = report.kind
        anchored = lambda c, _k=kind, _cl=classify: (  # noqa: E731
            (r := _cl(c)) is not None and r.kind == _k)
        shrunk = shrink_program(prog, anchored)
        entry = TriageEntry(
            strategy="inject", seed=s, scheme=fault, kind=kind,
            location=report.first_diff, failing_pass=fault,
            report=report.to_dict(),
            program_text=format_program(prog),
            shrunk_text=format_program(shrunk.program),
            shrink=shrunk.to_dict())
        ok = shrunk.shrunk_len <= FUZZ_SHRINK_LIMIT
        failures += not ok
        print(f"  {fault:<22} {'caught' if ok else 'UNSHRUNK':<9} "
              f"[{shrunk.original_len} -> {shrunk.shrunk_len} instrs, "
              f"bucket {entry.bucket}]")
    print(f"\nfuzz pipeline: "
          + ("all faults caught, shrunk and bucketed" if not failures
             else f"{failures} FAILED"))
    return failures


def main(argv: list[str] | None = None) -> int:
    """Run the taxonomy; exit 0 iff every fault class was caught."""
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scale", type=float, default=0.1,
                    help="workload scale factor (default 0.1)")
    ap.add_argument("--benchmarks", default="compress,espresso",
                    help="comma-separated benchmark names (default small "
                         "pair); 'all' for the full suite")
    ap.add_argument("--fuzz", action="store_true",
                    help="only run the qa catch/shrink/triage pipeline "
                         "against injected miscompiles")
    ap.add_argument("--fuzz-seed", type=int, default=0,
                    help="base program seed for --fuzz (default 0)")
    args = ap.parse_args(argv)

    if args.fuzz:
        return 1 if check_fuzz_pipeline(args.fuzz_seed) else 0

    programs = benchmark_programs(args.scale)
    if args.benchmarks != "all":
        wanted = args.benchmarks.split(",")
        unknown = [k for k in wanted if k not in programs]
        if unknown:
            ap.error(f"unknown benchmark(s): {', '.join(unknown)} "
                     f"(available: {', '.join(sorted(programs))})")
        programs = {k: programs[k] for k in wanted}

    uncaught = 0
    total = 0
    for bench, prog in programs.items():
        # Every injection on this benchmark is checked against one run of
        # the pristine program.
        pristine = run_reference(prog, MAX_STEPS)
        if pristine.failure is not None:
            raise SystemExit(f"{bench}: {pristine.failure}")
        rows: list[tuple[str, bool, str]] = []
        for name in PROGRAM_FAULTS:
            rows.append((name, *check_program_fault(name, pristine)))
        for name in PROFILE_FAULTS:
            rows.append((name, *check_profile_fault(name, pristine)))
        for name in PASS_FAULTS:
            rows.append((name, *check_pass_fault(name, pristine)))
        print(f"{bench} (scale {args.scale}):")
        for name, caught, layer in rows:
            total += 1
            uncaught += not caught
            print(f"  {name:<26} {'caught' if caught else 'UNCAUGHT':<9} "
                  f"[{layer}]")
    print(f"\n{total - uncaught}/{total} fault injections caught"
          + ("" if not uncaught else f" — {uncaught} UNCAUGHT"))
    return 1 if uncaught else 0


if __name__ == "__main__":
    raise SystemExit(main())
