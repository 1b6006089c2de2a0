"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``tables``  — run the three-scheme suite and print Tables 1-4 plus the
  headline improvement summary;
* ``profile`` — functional-profile a benchmark (or .s file) and print its
  per-branch feedback metrics;
* ``compile`` — run the proposed pipeline and print the Figure 6 decision
  trail plus the transformed assembly;
* ``run``     — simulate a program under one prediction scheme and print
  the timing counters;
* ``verify``  — IR-verify and differentially check the baseline and
  proposed compiles of a benchmark (or ``all``) against the original
  program: structural invariants plus architectural equivalence; with
  ``--spectre`` it instead runs the speculative-safety taint analysis
  and exits nonzero when any gadget is flagged (see docs/ROBUSTNESS.md);
* ``fuzz``    — run a differential fuzzing campaign over generated
  programs (all schemes cross-checked against the functional simulator),
  shrink and triage any divergence into ``corpus/``, or ``--replay`` an
  existing corpus (see docs/QA.md);
* ``cache``   — inspect (``stats``, with per-tenant-namespace breakdowns
  and ``--json``) or wipe (``clear``, optionally one ``--namespace``)
  the engine's content-addressed artifact cache;
* ``serve``   — run the distributed evaluation service (multi-tenant
  job queue + worker fleet + namespaced cache; see docs/SERVICE.md);
* ``submit``  — submit a suite batch to a running service and stream
  the results back (byte-identical to a local ``tables`` run);
* ``jobs``    — list a service's jobs and show its queue/fleet stats;
* ``sweep``   — run a declarative design-space sweep and write one JSON
  record per (point, benchmark, scheme) cell;
* ``tune``    — run a closed-loop heuristic search (successive halving
  plus mutation) over cached engine cells and print the Pareto front
  and per-workload winning vectors (see docs/TUNE.md);
* ``trace``   — ``trace run`` executes a traced suite (JSONL spans to
  ``--out``), ``trace summarize`` renders a per-span timing table from a
  trace file (see docs/OBSERVABILITY.md);
* ``ingest``  — import external programs (Bril-like ``.bril`` sources or
  JSONL ``.trace.jsonl`` basic-block traces) as first-class workloads:
  lower onto the ISA, verify, and print or ``--emit`` the assembly;
  ``--check`` replays committed ``.golden.s`` files (the CI gate) and
  ``--update-goldens`` regenerates them (see docs/INGEST.md).

Program arguments (``profile``/``compile``/``run``/``verify``) accept a
benchmark name, a ``.s`` assembly file, or any ``repro ingest`` input
file; ``tables --import FILE`` evaluates imported workloads alongside
the synthetic suite.

Every experiment command (``tables``, ``sweep``, ``fuzz``, ``verify``)
constructs exactly one :class:`repro.api.Session` from the shared engine
flags, so ``--jobs``, ``--no-cache``, ``--cache-dir``, and ``--trace``
behave identically everywhere: results are cached in ``.repro-cache/``
(override with ``--cache-dir`` or ``$REPRO_CACHE_DIR``, disable with
``--no-cache``), cache misses fan out over ``--jobs N`` worker
processes, and ``--trace FILE`` writes a JSONL span trace of the run.
``--remote URL`` (with ``--tenant NAME``) routes the experiment through
a running ``repro serve`` instance instead of the local pool.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .api import Session
from .core import compile_baseline, compile_proposed
from .eval import (
    format_improvements, format_table1, format_table2, format_table3,
    format_table4, suite_failures,
)
from .isa import format_program, parse
from .isa.program import Program
from .profilefb import ProfileDB
from .sim import FunctionalSim, TimingSim, r10k_config
from .workloads import BENCHMARKS


def _load_program(name: str, scale: float) -> Program:
    if name in BENCHMARKS:
        from .workloads import benchmark_programs

        return benchmark_programs(scale)[name]
    path = Path(name)
    if path.exists():
        from .ingest import IngestError
        from .ingest.lower import SUFFIXES

        if any(path.name.endswith(s) for s in SUFFIXES):
            from .ingest import import_path

            try:
                return import_path(path)
            except IngestError as exc:
                raise SystemExit(f"cannot import {name}: {exc}")
        return parse(path.read_text(), name=path.stem)
    raise SystemExit(
        f"unknown program {name!r}: not a benchmark "
        f"({', '.join(sorted(BENCHMARKS))}) and not a file")


def _session_from(args: argparse.Namespace, *, cache=None,
                  trace_path=None, **kw) -> Session:
    """One :class:`Session` per CLI invocation, from the shared flags.

    Every subcommand translates its engine flags through the one shared
    :func:`repro.api.options_from_args` helper, so ``--jobs`` /
    ``--no-cache`` / ``--backend`` / ``--trace`` behave identically
    everywhere.  Explicit *cache*/*trace_path* arguments override the
    flag-derived values (``trace run`` routes its ``--out`` here).
    """
    from dataclasses import replace

    from .api import options_from_args

    opts = options_from_args(args)
    if cache is not None:
        opts = replace(opts, cache=cache)
    if trace_path is not None:
        opts = replace(opts, trace=trace_path)
    return Session(options=opts, **kw)


def _report_cache(store) -> None:
    """One stderr line of cache traffic (greppable by tools/smoke.sh)."""
    if store is None:
        return
    s = store.stats()
    print(f"cache: hits={s['hits']} misses={s['misses']} "
          f"entries={s['entries']}", file=sys.stderr)


def cmd_tables(args: argparse.Namespace) -> int:
    benchmarks = None
    if getattr(args, "imports", None):
        from .ingest import IngestError
        from .workloads import benchmark_programs, load_imported

        try:
            imported = load_imported(args.imports)
        except IngestError as exc:
            return _usage_error(f"--import: {exc}")
        benchmarks = {**benchmark_programs(args.scale), **imported}
        for name in imported:
            print(f"imported workload: {name}", file=sys.stderr)
    with _session_from(args) as session:
        try:
            runs = session.run_suite(
                scale=args.scale, benchmarks=benchmarks,
                progress=lambda b: print(f"running {b} ...",
                                         file=sys.stderr))
        except Exception as exc:  # noqa: BLE001 - --strict fail-fast exit
            if args.strict:
                print(f"FATAL ({type(exc).__name__}): {exc}",
                      file=sys.stderr)
                return 2
            raise
    for text in (format_table1(runs), "", format_table2(), "",
                 format_table3(runs), "", format_table4(runs), "",
                 format_improvements(runs)):
        print(text)
    _report_cache(session.cache)
    failed = suite_failures(runs)
    for cell in failed:
        print(f"warning: {cell.benchmark}/{cell.scheme} failed: "
              f"{cell.failure}", file=sys.stderr)
    if failed and args.strict:
        return 2
    if args.json:
        import json

        from .eval import suite_to_dict

        Path(args.json).write_text(
            json.dumps(suite_to_dict(runs), indent=2, sort_keys=True) + "\n")
        print(f"json results written to {args.json}", file=sys.stderr)
    if args.report:
        from .eval import write_report

        path = write_report(runs, args.report,
                            title=f"Suite results (scale {args.scale})")
        print(f"markdown report written to {path}", file=sys.stderr)
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    from .serve.store import DEFAULT_NAMESPACE, LocalBackend

    backend = LocalBackend(args.cache_dir)
    if args.action == "clear":
        spaces = ([args.namespace] if args.namespace
                  else backend.namespaces())
        for name in spaces:
            removed = backend.cache(name).clear()
            print(f"cleared {removed} entries from namespace {name!r} "
                  f"({backend.namespace_root(name)})")
        return 0
    stats = backend.stats()
    if args.json:
        import json

        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    print(f"cache root : {stats['root']}")
    print(f"entries    : {stats['entries']}")
    print(f"total bytes: {stats['total_bytes']}")
    print("namespaces :")
    for name, s in stats["namespaces"].items():
        suffix = " (top-level)" if name == DEFAULT_NAMESPACE else ""
        print(f"  {name:<16} {s['entries']:>6} entries, "
              f"{s['total_bytes']:>10} bytes{suffix}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the distributed evaluation service until interrupted."""
    from .serve import ServeConfig, serve_forever

    if args.workers < 1:
        return _usage_error(f"--workers must be >= 1 (got {args.workers})")
    return serve_forever(ServeConfig(
        host=args.host, port=args.port, workers=args.workers,
        cache_dir=args.cache_dir, remote_cache=args.remote_cache,
        rate=args.rate, burst=args.burst))


def cmd_submit(args: argparse.Namespace) -> int:
    """Submit a suite batch to a running service; stream results back."""
    from .serve import Backpressure, ServeClient, ServeError
    from .serve.client import remote_run_suite, suite_cells

    client = ServeClient(args.remote, tenant=args.tenant,
                         timeout=args.timeout)
    try:
        if args.no_wait:
            from .core.heuristics import DEFAULT_HEURISTICS
            from .workloads import benchmark_programs

            from .fastsim.backend import resolve_backend

            grid = suite_cells(benchmark_programs(args.scale,
                                                  seed=args.seed),
                               DEFAULT_HEURISTICS, None, args.max_steps,
                               backend=resolve_backend(args.backend))
            job = client.submit_cells(
                [(key, payload) for _, _, key, _, payload in grid])
            print(f"submitted {job['job_id']} ({job['n_cells']} cells, "
                  f"{job['n_cache_hits']} cached, "
                  f"{job['n_deduped']} deduped) as tenant {args.tenant!r}")
            print(f"poll with: python -m repro jobs --remote {args.remote}")
            return 0
        runs = remote_run_suite(
            client, scale=args.scale, seed=args.seed,
            max_steps=args.max_steps, backend=args.backend,
            progress=lambda msg: print(msg, file=sys.stderr))
    except (Backpressure, ServeError, OSError) as exc:
        print(f"submit failed: {exc}", file=sys.stderr)
        return 2
    print(format_table1(runs))
    print()
    print(format_improvements(runs))
    if args.json:
        import json

        from .eval import suite_to_dict

        Path(args.json).write_text(
            json.dumps(suite_to_dict(runs), indent=2, sort_keys=True) + "\n")
        print(f"json results written to {args.json}", file=sys.stderr)
    return 0


def cmd_jobs(args: argparse.Namespace) -> int:
    """List a running service's jobs and show its stats snapshot."""
    from .serve import ServeClient, ServeError

    client = ServeClient(args.remote, tenant=args.tenant or "default")
    try:
        jobs = client.jobs(all_tenants=args.tenant is None)
        stats = client.stats()
    except (ServeError, OSError) as exc:
        print(f"cannot reach {args.remote}: {exc}", file=sys.stderr)
        return 2
    if args.json:
        import json

        print(json.dumps({"jobs": jobs, "stats": stats}, indent=2,
                         sort_keys=True))
        return 0
    if not jobs:
        print("no jobs")
    for j in jobs:
        print(f"{j['job_id']:<10} {j['tenant']:<12} {j['kind']:<6} "
              f"{j['state']:<8} {j['n_done']}/{j['n_cells']} cells "
              f"(hits={j['n_cache_hits']} deduped={j['n_deduped']})")
    q, f = stats["queue"], stats["fleet"]
    print(f"queue: depth={q['depth']} in-flight={q['in_flight']} | "
          f"fleet: {f['alive']}/{f['workers']} workers alive, "
          f"utilization={f['utilization']:.0%} | "
          f"cache: {stats['cache']['entries']} entries")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    import json

    from .engine import SweepSpec, grid_from_dict

    def _parse_axes(pairs: list[str]) -> dict:
        grid: dict = {}
        for pair in pairs or []:
            if "=" not in pair:
                raise SystemExit(f"bad axis {pair!r}: expected field=v1,v2")
            name, _, values = pair.partition("=")
            grid[name] = tuple(_coerce(v) for v in values.split(","))
        return grid

    def _coerce(text: str):
        for conv in (int, float):
            try:
                return conv(text)
            except ValueError:
                continue
        if text in ("true", "false"):
            return text == "true"
        return text

    spec = SweepSpec(
        scales=tuple(float(s) for s in args.scales.split(",")),
        config_grid=grid_from_dict(_parse_axes(args.config)),
        heur_grid=grid_from_dict(_parse_axes(args.heur)),
        benchmarks=(tuple(args.benchmarks.split(","))
                    if args.benchmarks else None),
        max_steps=args.max_steps,
        seed=args.seed)
    try:
        spec.validate()
    except ValueError as exc:
        raise SystemExit(f"invalid sweep: {exc}")
    with _session_from(args) as session:
        records = session.sweep(
            spec, progress=lambda msg: print(msg, file=sys.stderr))
    text = json.dumps(records, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"{len(records)} records written to {args.out}",
              file=sys.stderr)
    else:
        print(text, end="")
    _report_cache(session.cache)
    return 0


def _usage_error(message: str) -> int:
    """Print a CLI usage error to stderr; returns the exit code (2)."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def cmd_tune(args: argparse.Namespace) -> int:
    """Run a closed-loop heuristic search (see docs/TUNE.md)."""
    import json

    from .tune import (DEFAULT_PARAM_NAMES, ParamSpec, TuneSpec,
                       format_tune_result)

    def _parse_param(text: str) -> ParamSpec:
        # NAME (registered bounds) or NAME=LO:HI (narrowed range) or
        # NAME=a,b,c (choice values).
        name, _, rng = text.partition("=")
        if not rng:
            return ParamSpec(name)
        if ":" in rng:
            lo, _, hi = rng.partition(":")
            return ParamSpec(name, lo=float(lo), hi=float(hi))
        return ParamSpec(name, choices=tuple(rng.split(",")))

    names = args.param or list(DEFAULT_PARAM_NAMES)
    spec = TuneSpec(
        params=tuple(_parse_param(t) for t in names),
        benchmarks=(tuple(args.benchmarks.split(","))
                    if args.benchmarks else None),
        scale=args.scale, budget=args.budget, seed=args.seed,
        max_steps=args.max_steps)
    try:
        spec.validate()
    except ValueError as exc:
        raise SystemExit(f"invalid tune spec: {exc}")
    with _session_from(args) as session:
        result = session.tune(
            spec, progress=lambda msg: print(msg, file=sys.stderr))
    print(format_tune_result(result))
    if args.out:
        Path(args.out).write_text(
            json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n")
        print(f"tune result written to {args.out}", file=sys.stderr)
    _report_cache(session.cache)
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    """Run a differential fuzzing campaign (or replay a corpus)."""
    from .qa import replay_corpus

    if args.jobs < 1:
        return _usage_error(f"--jobs must be >= 1 (got {args.jobs})")
    if args.budget < 1:
        return _usage_error(f"--budget must be >= 1 (got {args.budget})")
    if args.cache_dir and Path(args.cache_dir).is_file():
        return _usage_error(
            f"--cache-dir {args.cache_dir!r} exists and is not a directory")

    if args.replay:
        if not Path(args.replay).is_dir():
            return _usage_error(f"--replay: no such corpus directory: "
                                f"{args.replay}")
        records = replay_corpus(args.replay, max_steps=args.max_steps)
        bad = 0
        for r in records:
            broken = bool(r["divergent"] or r["error"])
            bad += broken
            detail = (r["error"] or ", ".join(r["divergent"]) or "clean")
            print(f"{r['name']:<32} {'FAIL' if broken else 'ok':<5} {detail}")
        print(f"replayed {len(records)} reproducer(s): "
              f"{'all clean' if not bad else f'{bad} FAILED'}")
        return 1 if bad else 0

    with _session_from(args) as session:
        try:
            result = session.fuzz(
                budget=args.budget, seed=args.seed, shrink=args.shrink,
                max_steps=args.max_steps,
                strategies=(args.strategies.split(",")
                            if args.strategies else None),
                corpus_dir=args.corpus,
                progress=lambda msg: print(msg, file=sys.stderr))
        except ValueError as exc:  # unknown strategy names
            return _usage_error(str(exc))
    print(result.summary.format())
    _report_cache(session.cache)
    return 0 if result.summary.clean else 1


def cmd_profile(args: argparse.Namespace) -> int:
    from .fastsim.backend import resolve_backend

    prog = _load_program(args.program, args.scale)
    db = ProfileDB.from_run(prog, backend=resolve_backend(
        getattr(args, "backend", None)))
    print(db.summary())
    return 0


def cmd_compile(args: argparse.Namespace) -> int:
    from .fastsim.backend import resolve_backend

    prog = _load_program(args.program, args.scale)
    result = compile_proposed(prog, backend=resolve_backend())
    print(result.summary())
    if args.emit:
        print()
        print(format_program(result.program))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    with _session_from(args) as session:
        if args.spectre:
            return _spectre_in_session(args, session)
        return _verify_in_session(args, session)


def _spectre_in_session(args: argparse.Namespace, session: Session) -> int:
    """Body of ``verify --spectre``: flag Spectre-v1 gadgets statically.

    Accepts the same program argument as plain ``verify`` (benchmark
    name, ``.s`` file, or ``all``) and exits 1 when any finding exists —
    the CI contract: known-positive gadget files must fail, the stock
    workloads must stay clean.
    """
    untrusted = (tuple(args.untrusted.split(","))
                 if args.untrusted else None)
    total = 0
    names = sorted(BENCHMARKS) if args.program == "all" else [args.program]
    for name in names:
        prog = _load_program(name, args.scale)
        findings = session.spectre(prog, sew=args.sew, untrusted=untrusted)
        total += len(findings)
        print(f"{name:<12} spectre   "
              f"{'CLEAN' if not findings else f'{len(findings)} finding(s)'}"
              f" (sew={args.sew})")
        for f in findings:
            print(f"    {f}")
    print(f"spectre: {'clean' if not total else f'{total} finding(s)'}")
    return 1 if total else 0


def _verify_in_session(args: argparse.Namespace, session: Session) -> int:
    """Body of ``verify``, run inside the session's observability scope.

    Verification always recompiles (the point is to check the compiler
    that exists *now*, not a cached artifact), so the session's cache is
    deliberately not consulted; the engine flags still matter for
    ``--trace`` and flag uniformity across subcommands.
    """
    from .robust import check_equivalence, verify_program

    names = sorted(BENCHMARKS) if args.program == "all" else [args.program]
    failed = 0
    for name in names:
        prog = _load_program(name, args.scale)
        for tag, result in (("baseline", compile_baseline(prog)),
                            ("proposed", compile_proposed(
                                prog, backend=session.backend))):
            violations = verify_program(result.program)
            diff = check_equivalence(prog, result.program,
                                     max_steps=args.max_steps)
            ok = not violations and bool(diff)
            print(f"{name:<12} {tag:<9} "
                  f"{'OK' if ok else 'FAIL':<5} "
                  f"invariants={'clean' if not violations else 'BROKEN'} "
                  f"equivalence={'proved' if diff else 'FAILED'} "
                  f"({diff.original_steps} vs {diff.transformed_steps} steps)")
            for v in violations[:5]:
                print(f"    {v}")
            if not diff:
                print(f"    {diff.reason}")
            if result.fallback is not None or any(
                    f.kind != "skip" for f in result.failures):
                print(f"    note: compile degraded "
                      f"(fallback={result.fallback})")
                for f in result.failures:
                    print(f"    {f}")
            if not ok:
                failed += 1
    print(f"{'verify: all clean' if not failed else f'verify: {failed} FAILED'}")
    return 1 if failed else 0


def cmd_run(args: argparse.Namespace) -> int:
    from .fastsim.backend import resolve_backend

    backend = resolve_backend(getattr(args, "backend", None))
    prog = _load_program(args.program, args.scale)
    scheme = args.scheme
    if scheme is None:  # legacy flags
        scheme = ("proposed" if args.proposed
                  else "raw" if args.raw else "baseline")
    if scheme == "proposed":
        prog = compile_proposed(prog, backend=backend).program
    elif scheme == "safe-speculative":
        from dataclasses import replace

        from .core.heuristics import DEFAULT_HEURISTICS

        prog = compile_proposed(
            prog, heur=replace(DEFAULT_HEURISTICS, spectre_safe=True),
            backend=backend).program
    elif scheme == "melded":
        from dataclasses import replace

        from .core.heuristics import DEFAULT_HEURISTICS

        prog = compile_proposed(
            prog, heur=replace(DEFAULT_HEURISTICS, enable_meld=True),
            backend=backend).program
    elif scheme == "baseline":
        prog = compile_baseline(prog).program
    # scheme == "raw": simulate the program untouched
    observer = None
    if args.sample:
        from .obs import PipelineObserver

        observer = PipelineObserver(sample_interval=args.sample)
    if backend == "fast" and observer is None:
        from .fastsim.backend import simulate as fast_simulate

        stats, _ = fast_simulate(prog, r10k_config(args.predictor))
    else:
        fsim = FunctionalSim(prog, record_outcomes=False)
        stats = TimingSim(r10k_config(args.predictor),
                          observer=observer).run(fsim.trace())
    print(f"program    : {prog.name}")
    print(f"predictor  : {args.predictor}")
    print(stats.summary())
    if observer is not None:
        from .obs import heat_report

        print()
        print(heat_report(observer.pc_samples, prog))
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    """Import/lower external programs; check or refresh their goldens."""
    from .ingest import (IngestError, check_fixture, expand_fixtures,
                         import_path, update_fixture)

    files = expand_fixtures(args.paths)
    if not files:
        return _usage_error("no import files found (expected .bril or "
                            ".trace.jsonl files, or a directory of them)")
    problems: list[str] = []
    for f in files:
        try:
            if args.update_goldens:
                written = update_fixture(f, stats=not args.no_stats,
                                         max_steps=args.max_steps)
                print(f"{f}: wrote "
                      + ", ".join(w.name for w in written))
            elif args.check:
                drift = check_fixture(f)
                problems.extend(drift)
                print(f"{f}: {'ok' if not drift else 'DRIFT'}")
            else:
                prog = import_path(f)
                print(f"{f}: imported as {prog.name} "
                      f"({len(prog)} instructions)")
                if args.emit:
                    print(format_program(prog))
        except IngestError as exc:
            problems.append(f"{f}: {exc}")
            print(f"{f}: FAILED\n    {exc}", file=sys.stderr)
    for p in problems:
        print(f"error: {p}", file=sys.stderr)
    print(f"ingest: {len(files)} file(s), "
          f"{'all ok' if not problems else f'{len(problems)} problem(s)'}")
    return 1 if problems else 0


def cmd_trace(args: argparse.Namespace) -> int:
    """``trace run`` / ``trace summarize`` — see docs/OBSERVABILITY.md."""
    from .obs import read_trace, summarize_trace

    if args.action == "summarize":
        if not args.file:
            return _usage_error("trace summarize requires a trace FILE")
        try:
            records = read_trace(args.file)
        except (OSError, ValueError) as exc:
            return _usage_error(f"cannot read trace: {exc}")
        print(summarize_trace(records))
        return 0

    # action == "run": a traced (and optionally metric-counted) suite run.
    # Spans are process-local, so the traced suite runs with the session's
    # default jobs=1 unless the caller insists on a pool.
    with _session_from(args, trace_path=args.out) as session:
        session.run_suite(
            scale=args.scale,
            progress=lambda b: print(f"running {b} ...", file=sys.stderr))
        emitted = session._tracer.emitted if session._tracer else 0
        print(f"{emitted} spans written to {args.out}", file=sys.stderr)
    if args.metrics:
        import json

        from .obs import metrics_snapshot

        print(json.dumps(metrics_snapshot(), indent=2, sort_keys=True))
    if args.summarize:
        print(summarize_trace(read_trace(args.out)))
    _report_cache(session.cache)
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro",
        description="Srinivas & Nicolau (IPPS 1998) reproduction toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    def _engine_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes for cache misses (default 1 "
                            "= in-process)")
        p.add_argument("--no-cache", action="store_true",
                       help="disable the artifact cache for this run")
        p.add_argument("--cache-dir", metavar="DIR",
                       help="artifact cache directory (default "
                            ".repro-cache/ or $REPRO_CACHE_DIR)")
        p.add_argument("--trace", metavar="FILE",
                       help="write a JSONL span trace of this run to FILE "
                            "(see docs/OBSERVABILITY.md)")
        p.add_argument("--remote", metavar="URL",
                       help="route execution through a running "
                            "'repro serve' instance (see docs/SERVICE.md)")
        p.add_argument("--tenant", default="default", metavar="NAME",
                       help="tenant namespace on the remote service "
                            "(default 'default')")
        p.add_argument("--backend", default=None,
                       choices=["reference", "fast"],
                       help="execution backend: 'fast' uses the "
                            "decode-once generated-step simulators of "
                            "repro.fastsim, 'reference' the readable "
                            "interpreters of repro.sim (byte-identical "
                            "results; see docs/FASTSIM.md). Default: "
                            "$REPRO_BACKEND or 'fast'")

    p = sub.add_parser("tables", help="regenerate Tables 1-4")
    p.add_argument("--scale", type=float, default=1.0,
                   help="workload scale factor (default 1.0)")
    p.add_argument("--report", metavar="FILE",
                   help="also write a markdown report to FILE")
    p.add_argument("--json", metavar="FILE",
                   help="also write machine-readable results to FILE")
    p.add_argument("--strict", action="store_true",
                   help="fail fast: abort (exit nonzero) on the first "
                        "failed benchmark/scheme cell instead of rendering "
                        "FAIL cells")
    p.add_argument("--import", action="append", dest="imports",
                   metavar="FILE",
                   help="also evaluate this imported workload (.bril "
                        "source or .trace.jsonl trace, repeatable; see "
                        "docs/INGEST.md)")
    _engine_flags(p)
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("cache", help="inspect or clear the artifact cache")
    p.add_argument("action", choices=["stats", "clear"],
                   help="stats: print cache size/contents (with "
                        "per-namespace breakdown); clear: wipe it")
    p.add_argument("--cache-dir", metavar="DIR",
                   help="artifact cache directory (default .repro-cache/ "
                        "or $REPRO_CACHE_DIR)")
    p.add_argument("--namespace", metavar="NAME",
                   help="clear only this tenant namespace (clear only; "
                        "default: every namespace)")
    p.add_argument("--json", action="store_true",
                   help="print stats as JSON (stats only)")
    p.set_defaults(func=cmd_cache)

    p = sub.add_parser(
        "serve",
        help="run the distributed evaluation service (docs/SERVICE.md)")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=8732,
                   help="bind port (default 8732; 0 = ephemeral)")
    p.add_argument("--workers", type=int, default=2, metavar="N",
                   help="worker threads executing cells (default 2)")
    p.add_argument("--cache-dir", metavar="DIR",
                   help="artifact store root (default .repro-cache/ "
                        "or $REPRO_CACHE_DIR)")
    p.add_argument("--remote-cache", metavar="URL",
                   help="upstream serve instance used as a shared "
                        "second-tier cache")
    p.add_argument("--rate", type=float, default=10.0, metavar="R",
                   help="per-tenant submissions/second (default 10)")
    p.add_argument("--burst", type=int, default=20, metavar="N",
                   help="per-tenant burst capacity (default 20)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "submit",
        help="submit a suite batch to a running service")
    p.add_argument("--remote", required=True, metavar="URL",
                   help="base URL of the serve instance")
    p.add_argument("--tenant", default="default", metavar="NAME",
                   help="tenant namespace (default 'default')")
    p.add_argument("--scale", type=float, default=1.0,
                   help="workload scale factor (default 1.0)")
    p.add_argument("--seed", type=int, default=None,
                   help="master seed for the synthetic workload inputs")
    p.add_argument("--max-steps", type=int, default=50_000_000,
                   help="per-cell functional step budget")
    p.add_argument("--timeout", type=float, default=600.0,
                   help="HTTP timeout per request (default 600s)")
    p.add_argument("--no-wait", action="store_true",
                   help="submit and print the job id instead of waiting "
                        "for results")
    p.add_argument("--json", metavar="FILE",
                   help="also write machine-readable results to FILE")
    p.add_argument("--backend", default=None,
                   choices=["reference", "fast"],
                   help="execution backend for the submitted cells "
                        "(default: $REPRO_BACKEND or 'fast')")
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser(
        "jobs", help="list a running service's jobs and stats")
    p.add_argument("--remote", required=True, metavar="URL",
                   help="base URL of the serve instance")
    p.add_argument("--tenant", default=None, metavar="NAME",
                   help="restrict to one tenant (default: all)")
    p.add_argument("--json", action="store_true",
                   help="print the raw jobs + stats JSON")
    p.set_defaults(func=cmd_jobs)

    p = sub.add_parser(
        "sweep", help="run a design-space sweep, one JSON record per cell")
    p.add_argument("--scales", default="1.0", metavar="S1,S2",
                   help="comma-separated workload scale factors")
    p.add_argument("--config", action="append", metavar="FIELD=V1,V2",
                   help="MachineConfig axis (repeatable), e.g. "
                        "--config fetch_width=2,4,8")
    p.add_argument("--heur", action="append", metavar="FIELD=V1,V2",
                   help="FeedbackHeuristics axis (repeatable), e.g. "
                        "--heur speculation_bias=0.5,0.65,0.8")
    p.add_argument("--benchmarks", metavar="B1,B2",
                   help="restrict to these benchmarks (default: all)")
    p.add_argument("--max-steps", type=int, default=50_000_000,
                   help="per-cell functional step budget")
    p.add_argument("--seed", type=int, default=None,
                   help="master seed for the synthetic workload inputs")
    p.add_argument("--out", metavar="FILE",
                   help="write records to FILE instead of stdout")
    _engine_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "tune",
        help="closed-loop heuristic search over cached engine cells "
             "(docs/TUNE.md)")
    p.add_argument("--param", action="append", metavar="NAME[=LO:HI|=A,B]",
                   help="search axis (repeatable): a FeedbackHeuristics "
                        "knob ('speculation_bias', dotted "
                        "'classify.likely_threshold') or machine axis "
                        "('config.fetch_width'); optional =LO:HI narrows "
                        "the registered bound, =A,B restricts a choice "
                        "parameter. Default: the paper's four Figure 6 "
                        "thresholds")
    p.add_argument("--budget", type=int, default=32, metavar="N",
                   help="(candidate, fidelity-rung) evaluations to spend "
                        "(default 32)")
    p.add_argument("--seed", type=int, default=0,
                   help="search seed (same seed + budget => identical "
                        "Pareto front; default 0)")
    p.add_argument("--scale", type=float, default=1.0,
                   help="full-fidelity workload scale factor (default 1.0)")
    p.add_argument("--benchmarks", metavar="B1,B2",
                   help="restrict to these benchmarks (default: all)")
    p.add_argument("--max-steps", type=int, default=50_000_000,
                   help="per-cell functional step budget")
    p.add_argument("--out", metavar="FILE",
                   help="also write the serialized TuneResult JSON to FILE")
    _engine_flags(p)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("profile", help="print a program's feedback metrics")
    p.add_argument("program", help="benchmark name or .s file")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--backend", default=None,
                   choices=["reference", "fast"],
                   help="profiling-run execution backend "
                        "(default: $REPRO_BACKEND or 'fast')")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("compile", help="run the proposed pipeline")
    p.add_argument("program", help="benchmark name or .s file")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--emit", action="store_true",
                   help="also print the transformed assembly")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser(
        "verify",
        help="IR-verify + differentially check compiled benchmarks "
             "(always recompiles; the cache flags exist for flag "
             "uniformity and --trace)")
    p.add_argument("program", help="benchmark name, .s file, or 'all'")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--max-steps", type=int, default=20_000_000,
                   help="step budget for the reference run")
    p.add_argument("--spectre", action="store_true",
                   help="run the speculative-safety (Spectre-v1) taint "
                        "analysis instead; exit 1 when any gadget is "
                        "flagged")
    p.add_argument("--sew", type=int, default=16, metavar="N",
                   help="speculative-execution window for --spectre "
                        "(instructions, default 16)")
    p.add_argument("--untrusted", metavar="R1,R2",
                   help="registers treated as attacker-controlled at "
                        "entry (default r4,r5,r6,r7)")
    _engine_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "fuzz",
        help="differential fuzzing campaign over generated programs")
    p.add_argument("--budget", type=int, default=100, metavar="N",
                   help="number of programs to generate and cross-check "
                        "(default 100)")
    p.add_argument("--seed", type=int, default=0,
                   help="campaign master seed (default 0)")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="worker processes for fuzz cells (default 1)")
    p.add_argument("--strategies", metavar="S1,S2",
                   help="restrict to these lattice strategies "
                        "(default: all; see docs/QA.md)")
    p.add_argument("--corpus", default="corpus", metavar="DIR",
                   help="directory for shrunk reproducers (default corpus/)")
    p.add_argument("--replay", metavar="DIR",
                   help="replay every .s reproducer under DIR through all "
                        "schemes instead of fuzzing")
    p.add_argument("--no-shrink", dest="shrink", action="store_false",
                   help="skip delta-debug minimization of failures")
    p.add_argument("--max-steps", type=int, default=5_000_000,
                   help="per-run functional step budget (default 5M)")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the artifact cache for this run")
    p.add_argument("--cache-dir", metavar="DIR",
                   help="artifact cache directory (default .repro-cache/ "
                        "or $REPRO_CACHE_DIR)")
    p.add_argument("--trace", metavar="FILE",
                   help="write a JSONL span trace of this run to FILE")
    p.add_argument("--remote", metavar="URL",
                   help="execute fuzz cells on a running 'repro serve' "
                        "instance")
    p.add_argument("--tenant", default="default", metavar="NAME",
                   help="tenant namespace on the remote service")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser(
        "trace",
        help="run a traced suite or summarize an existing trace file")
    p.add_argument("action", choices=["run", "summarize"],
                   help="run: traced suite to --out; summarize: per-span "
                        "timing table of FILE")
    p.add_argument("file", nargs="?",
                   help="trace file to summarize (summarize only)")
    p.add_argument("--scale", type=float, default=0.3,
                   help="workload scale factor for trace run (default 0.3)")
    p.add_argument("--out", metavar="FILE", default="trace.jsonl",
                   help="trace output path for trace run "
                        "(default trace.jsonl)")
    p.add_argument("--summarize", action="store_true",
                   help="after trace run, also print the span summary")
    p.add_argument("--metrics", action="store_true",
                   help="enable the metrics registry during trace run and "
                        "print its JSON snapshot")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="worker processes (spans are process-local: "
                        "workers do not contribute spans, so the default "
                        "is serial)")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the artifact cache for this run")
    p.add_argument("--cache-dir", metavar="DIR",
                   help="artifact cache directory (default .repro-cache/ "
                        "or $REPRO_CACHE_DIR)")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "ingest",
        help="import external programs as workloads (docs/INGEST.md)")
    p.add_argument("paths", nargs="+", metavar="PATH",
                   help=".bril source, .trace.jsonl trace, or a directory "
                        "of fixtures (bad_* files are skipped)")
    p.add_argument("--check", action="store_true",
                   help="replay each file against its committed .golden.s "
                        "and exit nonzero on drift (the CI gate)")
    p.add_argument("--update-goldens", action="store_true",
                   help="(re)write each file's .golden.s and .stats.json")
    p.add_argument("--no-stats", action="store_true",
                   help="with --update-goldens: skip the (slower) "
                        "six-scheme .stats.json golden")
    p.add_argument("--emit", action="store_true",
                   help="print the lowered assembly of each file")
    p.add_argument("--max-steps", type=int, default=200_000,
                   help="step budget for .stats.json goldens "
                        "(default 200000)")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("run", help="simulate a program")
    p.add_argument("program", help="benchmark name or .s file")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--predictor", default="twobit",
                   choices=["twobit", "twolevel", "perfect", "static-taken"])
    p.add_argument("--scheme", default=None,
                   choices=["raw", "baseline", "proposed",
                            "safe-speculative", "melded"],
                   help="compilation scheme before simulating "
                        "(safe-speculative = proposed with Spectre-flagged "
                        "hoists fenced; melded = proposed with if-converted "
                        "diamonds flattened into cmov selects; "
                        "default baseline)")
    p.add_argument("--proposed", action="store_true",
                   help="compile with the proposed pipeline first "
                        "(same as --scheme proposed)")
    p.add_argument("--raw", action="store_true",
                   help="skip baseline local scheduling "
                        "(same as --scheme raw)")
    p.add_argument("--sample", type=int, default=0, metavar="N",
                   help="sample every N-th retired instruction and print "
                        "a per-basic-block heat report")
    p.add_argument("--backend", default=None,
                   choices=["reference", "fast"],
                   help="execution backend of the profiling run and "
                        "the simulation (the simulation ignores it with "
                        "--sample; default: $REPRO_BACKEND or 'fast')")
    p.set_defaults(func=cmd_run)

    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output truncated by a pipe reader (e.g. `| head`); not an error.
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
