"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload cold_tables --seed 7 --seconds 15 \\
        --trace 0

Run from the root of a checkout: ``repro`` is imported from its ``src/``,
never from an installed copy, and scratch caches live in
``.perfbench-tmp/`` there and are removed on exit.  The workloads are
described in ``perfbench/workloads.py``, the layers in
``perfbench/ledger.py``.

``--trace 0`` repeats the workload's operation back to back for
``--seconds``, round robin over the workload's distinct inputs, at least
three times and at least once per input, with tracing off, and reports:

* ``wall_s``      mean seconds of one operation (each input's repeats
                  averaged, then the inputs);
* ``setup_s``     interpreter start to the first operation: the median
                  of three fresh interpreters starting and importing
                  ``repro``, plus the median of three runs of the
                  workload's set-up (input generation; for
                  ``warm_tables`` also the cold fill);
* ``peak_rss_mb`` peak resident memory of the process.

Both times are given at a reference host speed.  A shared host runs at a
speed that changes from second to second and drifts over minutes
(identical cold suites took from 2.4 s to 5.0 s within one hour on a
2-CPU host), so while the workload runs a background thread times a
fixed pure-Python kernel about every 10 ms (see :class:`HostSpeed`), and
each time is scaled by ``PROBE_REF_S`` over the kernel's mean in the same
window.  Timing the kernel between operations instead, for a fifth of
the run, left two to three times the spread over seeds: it samples other
seconds than the operations'.  The report line gives the raw figures and
the scales.

``--trace 1`` alternates untraced and traced blocks of operations for
``--seconds``, each mode going round robin over the same inputs, and
reports, per traced operation, every layer's calls, self time and
counters, the ``other`` residual (traced wall time minus every self
time), and the tracing overhead.  Its ledger self-check fails the run
(``correct: false``) when a self time or the residual is negative, a
span is left open, the functional simulators made and the
``sim.functional`` spans recorded differ in number (a trace generator
recorded per instruction, or not at all), or a wrapper survives its
traced block.

Both modes check every output; ``attempted`` and ``failed`` count the
workload's units (cells, replays or fuzz programs).  The lines before the
JSON line are a report: the context (resolved backend, Python version,
CPU count), latency percentiles with their sample count, the failure
ratio, and for the table workloads the simulated Proposed/2bitBP speedup
beside the paper's.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("cold_tables", "warm_tables", "fuzz_campaign")
#: Variables that would redirect repro's backend, cache or worker pool.
HERMETIC_ENV = ("REPRO_BACKEND", "REPRO_CACHE_DIR", "REPRO_CACHE_MAX_MB",
                "REPRO_POOL_FORCE")
SETUP_REPEATS = 3
MIN_OPS = 3
#: Mean seconds of one probe kernel at the reference host speed.
PROBE_REF_S = 0.0002
#: Pause between two probe kernels.
PROBE_PERIOD_S = 0.01
#: Length of one untraced or traced block under ``--trace 1``.
BLOCK_S = 1.0


class Tally:
    """Attempted and failed units plus distinct problems, over a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, outcome) -> None:
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.problem(*outcome.problems)

    def problem(self, *texts: str) -> None:
        self.problems += [t for t in texts if t not in self.problems]


def probe_kernel() -> int:
    """Fixed interpreter-bound work of about 0.2 ms: dict, int and str
    traffic.  It makes no object the cyclic garbage collector tracks, so
    a sample never pays for a collection of the workload's heap."""
    counts, digits = {}, 0
    for i in range(400):
        key = (i * 2654435761) & 0xFFFF
        counts[key] = counts.get(key, 0) + 1
        digits += len(str(i))
    return digits + max(counts)


class HostSpeed:
    """Host speed samples taken while the measured work runs.

    A background thread times :func:`probe_kernel` every
    ``PROBE_PERIOD_S``.  The kernel is far shorter than the interpreter's
    5 ms switch interval, so a sample holds the interpreter lock from
    start to end: it times the host, never the workload's thread.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._probe, daemon=True)

    def _probe(self) -> None:
        while not self._stop.wait(PROBE_PERIOD_S):
            start = time.perf_counter()
            probe_kernel()
            self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "HostSpeed":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def scale(self, first: int = 0) -> float:
        """Factor from the host speed since sample *first* to the
        reference speed."""
        return PROBE_REF_S / statistics.fmean(self.samples[first:])


def import_repro() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        raise SystemExit(f"repro was imported from {repro.__file__}, "
                         f"not from {src}")


def interpreter_start_s() -> float:
    """Seconds for a fresh interpreter to start and import what a run
    imports before its set-up (the ``repro`` package and the workloads)."""
    code = (f"import sys; sys.path[:0] = [{str(ROOT / 'src')!r}, "
            f"{str(Path(__file__).parent)!r}]; import workloads")
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return time.perf_counter() - start


def end_to_end(workload, seconds: float, tally: Tally,
               host: HostSpeed) -> dict:
    """Set-up, then back-to-back operations for *seconds*, tracing off."""
    starts, prepare = [], []
    for _ in range(SETUP_REPEATS):
        starts.append(interpreter_start_s())
        start = time.perf_counter()
        workload.prepare()
        prepare.append(time.perf_counter() - start)
    setup_s = statistics.median(starts) + statistics.median(prepare)
    setup_scale = host.scale()

    first = len(host.samples)
    latencies: list[list[float]] = [[] for _ in range(workload.items)]
    ops = 0
    deadline = time.perf_counter() + seconds
    while ops < max(MIN_OPS, workload.items) \
            or time.perf_counter() < deadline:
        item = ops % workload.items
        start = time.perf_counter()
        result = workload.op(item)
        latencies[item].append(time.perf_counter() - start)
        ops += 1
        tally.add(workload.check(result))
    flat = [t for repeats in latencies for t in repeats]
    wall_s = statistics.fmean(statistics.fmean(repeats)
                              for repeats in latencies)
    scale = host.scale(first)
    print(f"#   raw latency: p50 {statistics.median(flat) * 1e3:.1f} ms, "
          f"p90 {statistics.quantiles(flat, n=10)[-1] * 1e3:.1f} ms "
          f"(n={ops} over {workload.items} input(s)); raw wall_s "
          f"{wall_s:.4f}, setup_s {setup_s:.4f}; host scale {scale:.3f} "
          f"(set-up {setup_scale:.3f}; {len(host.samples)} probe samples)")
    return {
        "wall_s": (wall_s * scale, "s"),
        "setup_s": (setup_s * setup_scale, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def per_layer(workload, seconds: float, tally: Tally) -> dict:
    """Alternating untraced and traced blocks; ledger rows per traced op."""
    from ledger import LAYERS, Ledger
    from repro.fastsim.backend import clear_fallback_trail, fallback_trail

    ledger = Ledger()
    plain, traced = [], []
    fallbacks = 0
    tracing = False     # the first block also absorbs lazy imports
    deadline = time.perf_counter() + seconds
    while not (plain and traced) or time.perf_counter() < deadline:
        block_end = time.perf_counter() + BLOCK_S
        if tracing:
            ledger.install()
        try:
            while True:
                clear_fallback_trail()
                done = traced if tracing else plain
                item = len(done) % workload.items
                ledger.active = tracing
                start = time.perf_counter()
                result = workload.op(item)
                elapsed = time.perf_counter() - start
                ledger.active = False
                done.append(elapsed)
                if tracing:
                    fallbacks += len(fallback_trail())
                    if ledger.open_spans:
                        tally.problem("a span was left open")
                tally.add(workload.check(result))
                if time.perf_counter() >= block_end:
                    break
        finally:
            ledger.active = False
            if tracing:
                tally.problem(*(f"a wrapper survived its block: {w}"
                                for w in ledger.uninstall()))
        tracing = not tracing

    n = len(traced)
    metrics = {}
    for layer in LAYERS:
        stats = ledger.stats[layer.name]
        metrics[f"{layer.name}.calls"] = (stats.calls / n, "count")
        metrics[f"{layer.name}.self_s"] = (stats.self_s / n, "s")
        for extra in layer.extras:
            metrics[f"{layer.name}.{extra}"] = (
                stats.extra[extra] / n,
                "bytes" if extra == "bytes_written" else "count")
    cache = ledger.stats["engine.cache"].extra
    lookups = cache["hits"] + cache["misses"]
    metrics["engine.cache.hit_ratio"] = (
        cache["hits"] / lookups if lookups else 0.0, "ratio")
    metrics["fastsim.fallbacks"] = (fallbacks / n, "count")
    traced_s, plain_s = sum(traced) / n, sum(plain) / len(plain)
    metrics["other.self_s"] = (traced_s - ledger.self_total() / n, "s")
    metrics["ledger.traced_s"] = (traced_s, "s")
    metrics["ledger.untraced_s"] = (plain_s, "s")
    # Both modes ran the same inputs in the same order: compare the first
    # k operations of each.
    k = min(n, len(plain))
    metrics["ledger.overhead_pct"] = (
        100.0 * (sum(traced[:k]) / sum(plain[:k]) - 1.0), "%")

    rows = {name[:-len(".self_s")]: value
            for name, (value, _) in metrics.items()
            if name.endswith(".self_s")}
    negative = [name for name, value in rows.items() if value < -1e-9]
    if negative:
        tally.problem(f"negative self time: {', '.join(negative)}")
    functional = ledger.stats["sim.functional"]
    if functional.calls != functional.extra["runs"]:
        tally.problem(f"{functional.calls} sim.functional spans for "
                      f"{functional.extra['runs']} simulators made")

    print(f"#   {n} traced and {len(plain)} untraced ops; per traced op "
          f"{traced_s * 1e3:.1f} ms traced, {plain_s * 1e3:.1f} ms "
          f"untraced (overhead {metrics['ledger.overhead_pct'][0]:+.1f}%)")
    moves = {layer.name: layer.moves for layer in LAYERS}
    print(f"#   {'layer':<20} {'calls':>9} {'self ms':>10} {'share':>7}  "
          f"should move")
    for name, value in sorted(rows.items(), key=lambda kv: -kv[1]):
        calls = metrics.get(f"{name}.calls", (0, ""))[0]
        print(f"#   {name:<20} {calls:>9.1f} {value * 1e3:>10.2f} "
              f"{value / traced_s:>7.1%}  {moves.get(name, 'any')}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    for var in HERMETIC_ENV:
        os.environ.pop(var, None)
    import_repro()
    import workloads
    from repro.fastsim.backend import resolve_backend

    tmp_root = ROOT / ".perfbench-tmp"
    tmp_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=tmp_root))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, scratch)
        context = {"workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "backend": resolve_backend(),
                   "python": platform.python_version(),
                   "cpus": os.cpu_count(), "jobs": 1}
        print("# context " + json.dumps(context))
        tally = Tally()
        if args.trace:
            workload.prepare()
            metrics = per_layer(workload, args.seconds, tally)
        else:
            with HostSpeed() as host:
                metrics = end_to_end(workload, args.seconds, tally, host)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:  # another run still uses it
            pass

    print(f"#   fail_ratio {tally.failed}/{tally.attempted} = "
          f"{tally.failed / tally.attempted:.4f}")
    speedup = getattr(workload, "speedup", None)
    if speedup is not None:
        print(f"#   proposed_speedup {speedup:.4f}x beside the paper's "
              f"Table 4 geomean {workloads.PAPER_SPEEDUP:.2f}x "
              f"({speedup / workloads.PAPER_SPEEDUP - 1:+.1%}); "
              f"absolute IPC is unvalidated")
    for problem in tally.problems:
        print(f"#   PROBLEM: {problem}")
    print(json.dumps({
        "correct": tally.failed == 0 and not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
