"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``tables``  — run the scheme suite and print Tables 1-4 plus the
  headline improvement summary;
* ``profile`` — functional-profile a benchmark (or .s file) and print its
  per-branch feedback metrics;
* ``compile`` — run the proposed pipeline and print the Figure 6 decision
  trail plus the transformed assembly;
* ``run``     — compile a program under one scheme's compile, simulate it
  under one predictor and print the timing counters;
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
* ``trace``   — ``trace summarize FILE`` renders a per-span timing table
  from a trace that any experiment command wrote with ``--trace FILE``
  (see docs/OBSERVABILITY.md);
* ``ingest``  — import external programs (Bril-like ``.bril`` sources or
  JSONL ``.trace.jsonl`` basic-block traces) as first-class workloads:
  lower onto the ISA, verify, and print or ``--emit`` the assembly;
  ``--check`` replays committed ``.golden.s`` files (the CI gate) and
  ``--update-goldens`` regenerates them (see docs/INGEST.md).

Program arguments (``profile``/``compile``/``run``/``verify``) accept a
benchmark name, a ``.s`` assembly file, or any ``repro ingest`` input
file; ``tables --import FILE`` evaluates imported workloads alongside
the synthetic suite.  Table cells, ``run`` (``--sample`` included) and
the profiling runs of ``profile``/``compile``/``verify`` use the fast
simulator (:mod:`repro.fastsim`); the reference simulators are the
oracle of ``verify``'s equivalence check and of ``fuzz``
(docs/FASTSIM.md).

Every experiment command (``tables``, ``sweep``, ``tune``, ``fuzz``)
constructs exactly one :class:`repro.api.Session` from
its engine flags, so ``--jobs``, ``--no-cache``, ``--cache-dir`` and
``--trace`` behave identically everywhere: results are cached in
``.repro-cache/`` (override with ``--cache-dir`` or
``$REPRO_CACHE_DIR``, disable with ``--no-cache``), cache misses fan out
over ``--jobs N`` worker processes, and ``--trace FILE`` writes a JSONL
span trace of the run (``verify`` takes ``--trace`` alone: it never
runs a cached cell).
``--remote URL`` (with ``--tenant NAME``) sends the cache misses to a
running ``repro serve`` instance instead of the local pool (with
``--no-cache``, every cell).
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .api import Session
from .core import compile_baseline, compile_proposed, schemes
from .eval import (
    format_improvements, format_table1, format_table2, format_table3,
    format_table4, suite_failures,
)
from .isa import ParseError, format_program, parse
from .isa.program import Program
from .profilefb import ProfileDB
from .sim import r10k_config
from .workloads import BENCHMARKS


def _load_program(name: str, scale: float) -> Program:
    if name in BENCHMARKS:
        from .workloads import benchmark_programs

        return benchmark_programs(scale)[name]
    path = Path(name)
    if path.exists():
        from .ingest import IngestError, import_path
        from .ingest.lower import SUFFIXES

        try:
            if any(path.name.endswith(s) for s in SUFFIXES):
                return import_path(path)
            return parse(path.read_text(), name=path.stem)
        except IngestError as exc:
            raise SystemExit(f"cannot import {name}: {exc}")
        except (ParseError, UnicodeDecodeError, OSError) as exc:
            raise SystemExit(f"cannot parse {name}: {exc}")
    raise SystemExit(
        f"unknown program {name!r}: not a benchmark "
        f"({', '.join(sorted(BENCHMARKS))}) and not a file")


def _session_from(args: argparse.Namespace) -> Session:
    """One :class:`Session` per CLI invocation, from its engine flags.

    Caching is on unless ``--no-cache``, at ``--cache-dir`` when given.
    A flag the subcommand does not declare keeps the session default.
    """
    return Session(
        cache=not args.no_cache and (args.cache_dir or True),
        jobs=args.jobs, trace_path=args.trace,
        strict=getattr(args, "strict", False),
        remote=getattr(args, "remote", None),
        tenant=getattr(args, "tenant", "default"))


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

    try:
        return serve_forever(ServeConfig(
            host=args.host, port=args.port, workers=args.workers,
            cache_dir=args.cache_dir, rate=args.rate, burst=args.burst))
    except OSError as exc:  # the bind, before any worker starts
        return _usage_error(f"cannot listen on {args.host}:{args.port}: "
                            f"{exc}")


def cmd_submit(args: argparse.Namespace) -> int:
    """Submit a suite batch to a running service; stream results back."""
    from .serve import Backpressure, ServeClient, ServeError
    from .serve.client import suite_cells

    client = ServeClient(args.remote, tenant=args.tenant,
                         timeout=args.timeout)
    try:
        if args.no_wait:
            from .core.heuristics import DEFAULT_HEURISTICS
            from .workloads import benchmark_programs

            grid = suite_cells(benchmark_programs(args.scale,
                                                  seed=args.seed),
                               DEFAULT_HEURISTICS, None, args.max_steps)
            job = client.submit_cells(
                [(key, payload) for _, _, key, _, payload in grid])
            print(f"submitted {job['job_id']} ({job['n_cells']} cells, "
                  f"{job['n_cache_hits']} cached, "
                  f"{job['n_deduped']} deduped) as tenant {args.tenant!r}")
            print(f"poll with: python -m repro jobs --remote {args.remote}")
            return 0
        from .engine import run_suite

        print(f"submitting the suite to {client.base_url} as tenant "
              f"{client.tenant!r}", file=sys.stderr)
        runs = run_suite(scale=args.scale, seed=args.seed,
                         max_steps=args.max_steps, executor=client)
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
        scales=args.scales,
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
        return ParamSpec(name, choices=tuple(
            int(c) if c.isdigit() else c for c in rng.split(",")))

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
    prog = _load_program(args.program, args.scale)
    db = ProfileDB.from_run(prog)
    print(db.summary())
    return 0


def cmd_compile(args: argparse.Namespace) -> int:
    prog = _load_program(args.program, args.scale)
    result = compile_proposed(prog)
    print(result.summary())
    if args.emit:
        print()
        print(format_program(result.program))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    with Session(trace_path=args.trace) as session:
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
    that exists *now*, not a cached artifact), so the session has no
    cache; it only scopes the ``--trace`` sink.
    """
    from .robust import run_reference, verify_program

    names = sorted(BENCHMARKS) if args.program == "all" else [args.program]
    failed = 0
    for name in names:
        prog = _load_program(name, args.scale)
        results = (("baseline", compile_baseline(prog)),
                   ("proposed", compile_proposed(prog)))
        # Both pipelines are checked against one run of the original.
        reference = run_reference(prog, args.max_steps)
        for tag, result in results:
            violations = verify_program(result.program)
            diff = reference.check(result.program)
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
    from .fastsim.backend import simulate

    source = _load_program(args.program, args.scale)
    prog = source
    if args.scheme != "raw":  # raw: simulate the program untouched
        prog = schemes.compile_scheme(
            source, schemes.compile_names()[args.scheme]).program
    observer = None
    if args.sample:
        from .obs import PipelineObserver

        observer = PipelineObserver(sample_interval=args.sample)
    stats, _ = simulate(prog, r10k_config(args.predictor),
                        observer=observer)
    print(f"program    : {source.name}")
    print(f"scheme     : {args.scheme}")
    print(f"predictor  : {args.predictor}")
    print(stats.summary())
    if observer is not None:
        from .obs import heat_report

        print()
        print(heat_report(observer.pc_samples, prog, source.name))
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
    """``trace summarize FILE`` — see docs/OBSERVABILITY.md."""
    from .obs import read_trace, summarize_trace

    try:
        records = read_trace(args.file)
    except (OSError, ValueError) as exc:
        return _usage_error(f"cannot read trace: {exc}")
    print(summarize_trace(records))
    return 0


def _bounded_int(low: int, high: int | None = None):
    """Argparse type of an integer flag in ``[low, high]`` (no upper bound
    when *high* is None)."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"not an integer: {text!r}") from None
        if value < low or high is not None and value > high:
            bound = f">= {low}" if high is None else f"in {low}..{high}"
            raise argparse.ArgumentTypeError(
                f"must be {bound} (got {value})")
        return value
    return parse


#: Argparse type of a count flag: an integer of at least 1.
_positive_int = _bounded_int(1)


def _positive_float(text: str) -> float:
    """Argparse type of a scale or rate flag: a finite number above 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a number: {text!r}") from None
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be finite and > 0 (got {text})")
    return value


def _positive_floats(text: str) -> tuple[float, ...]:
    """Argparse type of ``sweep --scales``: comma-separated scales."""
    return tuple(_positive_float(item) for item in text.split(","))


def _cache_dir(text: str) -> str:
    """Argparse type of a ``--cache-dir`` flag: a path that is not an
    existing regular file (the store creates the directory)."""
    if Path(text).is_file():
        raise argparse.ArgumentTypeError(
            f"{text!r} exists and is not a directory")
    return text


def _namespace(text: str) -> str:
    """Argparse type of ``cache clear --namespace``: a tenant namespace
    name (``[A-Za-z0-9._-]``, 1-64 chars, not ``.`` or ``..``)."""
    from .serve.store import check_namespace

    try:
        return check_namespace(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser: one subparser per command."""
    ap = argparse.ArgumentParser(
        prog="python -m repro",
        description="Srinivas & Nicolau (IPPS 1998) reproduction toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    def _trace_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument("--trace", metavar="FILE",
                       help="write a JSONL span trace of this run to FILE "
                            "(see docs/OBSERVABILITY.md)")

    def _engine_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--jobs", type=_positive_int, default=1, metavar="N",
                       help="worker processes for cache misses (default 1 "
                            "= in-process)")
        p.add_argument("--no-cache", action="store_true",
                       help="disable the artifact cache for this run")
        p.add_argument("--cache-dir", type=_cache_dir, metavar="DIR",
                       help="artifact cache directory (default "
                            ".repro-cache/ or $REPRO_CACHE_DIR)")
        _trace_flag(p)
        p.add_argument("--remote", metavar="URL",
                       help="route execution through a running "
                            "'repro serve' instance (see docs/SERVICE.md)")
        p.add_argument("--tenant", default="default", metavar="NAME",
                       help="tenant namespace on the remote service "
                            "(default 'default')")

    p = sub.add_parser("tables", help="regenerate Tables 1-4")
    p.add_argument("--scale", type=_positive_float, default=1.0,
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
    p.set_defaults(func=cmd_cache)
    actions = p.add_subparsers(dest="action", required=True)
    stats = actions.add_parser(
        "stats", help="print cache size/contents (with per-namespace "
                      "breakdown)")
    stats.add_argument("--json", action="store_true",
                       help="print stats as JSON")
    clear = actions.add_parser("clear", help="wipe the cache")
    clear.add_argument("--namespace", type=_namespace, metavar="NAME",
                       help="clear only this tenant namespace (default: "
                            "every namespace)")
    for action in (stats, clear):
        action.add_argument("--cache-dir", type=_cache_dir, metavar="DIR",
                            help="artifact cache directory (default "
                                 ".repro-cache/ or $REPRO_CACHE_DIR)")

    p = sub.add_parser(
        "serve",
        help="run the distributed evaluation service (docs/SERVICE.md)")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=_bounded_int(0, 65535), default=8732,
                   help="bind port (default 8732; 0 = ephemeral)")
    p.add_argument("--workers", type=_positive_int, default=2,
                   metavar="N",
                   help="worker threads executing cells (default 2)")
    p.add_argument("--cache-dir", type=_cache_dir, metavar="DIR",
                   help="artifact store root (default .repro-cache/ "
                        "or $REPRO_CACHE_DIR)")
    p.add_argument("--rate", type=_positive_float, default=10.0, metavar="R",
                   help="per-tenant submissions/second (default 10)")
    p.add_argument("--burst", type=_positive_int, default=20, metavar="N",
                   help="per-tenant burst capacity (default 20)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "submit",
        help="submit a suite batch to a running service")
    p.add_argument("--remote", required=True, metavar="URL",
                   help="base URL of the serve instance")
    p.add_argument("--tenant", default="default", metavar="NAME",
                   help="tenant namespace (default 'default')")
    p.add_argument("--scale", type=_positive_float, default=1.0,
                   help="workload scale factor (default 1.0)")
    p.add_argument("--seed", type=int, default=None,
                   help="master seed for the synthetic workload inputs")
    p.add_argument("--max-steps", type=_positive_int, default=50_000_000,
                   help="per-cell functional step budget")
    p.add_argument("--timeout", type=_positive_float, default=600.0,
                   help="HTTP timeout per request (default 600s)")
    p.add_argument("--no-wait", action="store_true",
                   help="submit and print the job id instead of waiting "
                        "for results")
    p.add_argument("--json", metavar="FILE",
                   help="also write machine-readable results to FILE")
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
    p.add_argument("--scales", type=_positive_floats, default="1.0",
                   metavar="S1,S2",
                   help="comma-separated workload scale factors")
    p.add_argument("--config", action="append", metavar="FIELD=V1,V2",
                   help="MachineConfig axis (repeatable), e.g. "
                        "--config dispatch_width=2,4,8")
    p.add_argument("--heur", action="append", metavar="FIELD=V1,V2",
                   help="FeedbackHeuristics axis (repeatable), e.g. "
                        "--heur speculation_bias=0.5,0.65,0.8")
    p.add_argument("--benchmarks", metavar="B1,B2",
                   help="restrict to these benchmarks (default: all)")
    p.add_argument("--max-steps", type=_positive_int, default=50_000_000,
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
                        "('config.dispatch_width'); optional =LO:HI narrows "
                        "the registered bound, =A,B restricts a choice "
                        "parameter. Default: the paper's four Figure 6 "
                        "thresholds")
    p.add_argument("--budget", type=int, default=32, metavar="N",
                   help="(candidate, fidelity-rung) evaluations to spend "
                        "(default 32)")
    p.add_argument("--seed", type=int, default=0,
                   help="search seed (same seed + budget => identical "
                        "Pareto front; default 0)")
    p.add_argument("--scale", type=_positive_float, default=1.0,
                   help="full-fidelity workload scale factor (default 1.0)")
    p.add_argument("--benchmarks", metavar="B1,B2",
                   help="restrict to these benchmarks (default: all)")
    p.add_argument("--max-steps", type=_positive_int, default=50_000_000,
                   help="per-cell functional step budget")
    p.add_argument("--out", metavar="FILE",
                   help="also write the serialized TuneResult JSON to FILE")
    _engine_flags(p)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("profile", help="print a program's feedback metrics")
    p.add_argument("program", help="benchmark name or .s file")
    p.add_argument("--scale", type=_positive_float, default=1.0)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("compile", help="run the proposed pipeline")
    p.add_argument("program", help="benchmark name or .s file")
    p.add_argument("--scale", type=_positive_float, default=1.0)
    p.add_argument("--emit", action="store_true",
                   help="also print the transformed assembly")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser(
        "verify",
        help="IR-verify + differentially check compiled benchmarks "
             "(always recompiles, never cached)")
    p.add_argument("program", help="benchmark name, .s file, or 'all'")
    p.add_argument("--scale", type=_positive_float, default=1.0)
    p.add_argument("--max-steps", type=_positive_int, default=20_000_000,
                   help="step budget for the reference run")
    p.add_argument("--spectre", action="store_true",
                   help="run the speculative-safety (Spectre-v1) taint "
                        "analysis instead; exit 1 when any gadget is "
                        "flagged")
    p.add_argument("--sew", type=_positive_int, default=16, metavar="N",
                   help="speculative-execution window for --spectre "
                        "(instructions, default 16)")
    p.add_argument("--untrusted", metavar="R1,R2",
                   help="registers treated as attacker-controlled at "
                        "entry (default r4,r5,r6,r7)")
    _trace_flag(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "fuzz",
        help="differential fuzzing campaign over generated programs")
    p.add_argument("--budget", type=_positive_int, default=100, metavar="N",
                   help="number of programs to generate and cross-check "
                        "(default 100)")
    p.add_argument("--seed", type=int, default=0,
                   help="campaign master seed (default 0)")
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
    p.add_argument("--max-steps", type=_positive_int, default=5_000_000,
                   help="per-run functional step budget (default 5M)")
    _engine_flags(p)
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser(
        "trace", help="summarize a trace file written with --trace FILE")
    p.add_argument("action", choices=["summarize"],
                   help="summarize: per-span timing table of FILE")
    p.add_argument("file", help="trace file to summarize")
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
                        ".stats.json golden of every table column")
    p.add_argument("--emit", action="store_true",
                   help="print the lowered assembly of each file")
    p.add_argument("--max-steps", type=_positive_int, default=200_000,
                   help="step budget for .stats.json goldens "
                        "(default 200000)")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("run", help="simulate a program")
    p.add_argument("program", help="benchmark name or .s file")
    p.add_argument("--scale", type=_positive_float, default=1.0)
    p.add_argument("--predictor", default="twobit",
                   choices=["twobit", "twolevel", "perfect", "static-taken"])
    p.add_argument("--scheme", default="baseline",
                   choices=["raw", *schemes.compile_names()],
                   help="compile before simulating: raw (none) or the "
                        "compile of a Tables 3/4 column, named as in "
                        "repro.core.schemes (default baseline)")
    p.add_argument("--sample", type=_bounded_int(0), default=0, metavar="N",
                   help="sample every N-th retired instruction and print "
                        "a per-basic-block heat report")
    p.set_defaults(func=cmd_run)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output truncated by a pipe reader (e.g. `| head`); not an error.
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
