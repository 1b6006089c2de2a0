"""Command-line interface tests (in-process: fast, no subprocess)."""

import re

import pytest

from repro.__main__ import main
from repro.core import schemes


def test_run_benchmark(capsys):
    assert main(["run", "espresso", "--scale", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "IPC" in out
    assert "espresso" in out


def test_run_proposed(capsys):
    assert main(["run", "espresso", "--scale", "0.1",
                 "--scheme", "proposed"]) == 0
    assert "proposed" in capsys.readouterr().out


@pytest.mark.parametrize("timing_sim", ["fast", "reference"])
@pytest.mark.parametrize("scheme", ["proposed", "safe-speculative",
                                    "melded"])
def test_run_compile_verify_profile_on_the_fast_path(monkeypatch, capsys,
                                                     scheme, timing_sim):
    """``run --scheme <proposed-pipeline compile>``, ``compile``,
    ``verify`` and ``profile`` take their profiling run on the fast
    path, and ``run``'s timing run stays there too when ``--sample``
    observes it (*timing_sim* ``reference``): no run records a
    fallback."""
    import repro.__main__ as cli
    from repro.fastsim.backend import clear_fallback_trail, fallback_trail
    from repro.profilefb.profiledb import ProfileDB

    sample = ["--sample", "50"] if timing_sim == "reference" else []
    seen = []
    real = cli.compile_proposed
    real_profile = ProfileDB.from_run.__func__

    def spy(prog, **kw):
        seen.append(kw.get("backend"))
        return real(prog, **kw)

    def profile_spy(cls, prog, **kw):
        seen.append(("profile", kw.get("backend")))
        return real_profile(cls, prog, **kw)

    monkeypatch.setattr(cli, "compile_proposed", spy)
    monkeypatch.setattr(schemes, "compile_proposed", spy)
    clear_fallback_trail()
    assert main(["run", "grep", "--scale", "0.02", "--scheme", scheme,
                 *sample]) == 0
    assert fallback_trail() == ()
    assert main(["compile", "grep", "--scale", "0.02"]) == 0
    assert main(["verify", "grep", "--scale", "0.02"]) == 0
    monkeypatch.setattr(ProfileDB, "from_run", classmethod(profile_spy))
    assert main(["profile", "grep", "--scale", "0.02"]) == 0
    assert seen == ["fast", "fast", "fast", ("profile", "fast")]
    capsys.readouterr()


@pytest.mark.parametrize("scheme", ["raw", *schemes.compile_names()])
def test_run_labels_the_input_program_and_the_scheme(capsys, scheme):
    """The report names the program that was given and the scheme that
    compiled it, not the compile's internal name."""
    assert main(["run", "grep", "--scale", "0.02", "--scheme", scheme]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["program", ":", "grep"]
    assert lines[1].split() == ["scheme", ":", scheme]


def test_run_predictor_choice(capsys):
    assert main(["run", "grep", "--scale", "0.1",
                 "--predictor", "perfect"]) == 0
    out = capsys.readouterr().out
    assert "perfect" in out
    assert "100.00%" in out  # perfect accuracy


def test_profile(capsys):
    assert main(["profile", "compress", "--scale", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "freq=" in out
    assert "toggle=" in out


def test_compile(capsys):
    assert main(["compile", "xlisp", "--scale", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "branch-likelies" in out


def test_compile_emit(capsys):
    assert main(["compile", "grep", "--scale", "0.1", "--emit"]) == 0
    out = capsys.readouterr().out
    assert "halt" in out  # assembly was printed


def test_run_file(tmp_path, capsys):
    f = tmp_path / "tiny.s"
    f.write_text(".text\nli r1, 1\nli r2, 2\nadd r3, r1, r2\nhalt\n")
    assert main(["run", str(f)]) == 0
    assert "IPC" in capsys.readouterr().out


def test_unknown_program():
    with pytest.raises(SystemExit):
        main(["run", "no-such-benchmark"])


def test_requires_command():
    with pytest.raises(SystemExit):
        main([])


def test_tables_json_output(tmp_path, capsys):
    import json

    out = tmp_path / "suite.json"
    assert main(["tables", "--scale", "0.01", "--no-cache",
                 "--json", str(out)]) == 0
    assert "Table 4" in capsys.readouterr().out
    data = json.loads(out.read_text())
    assert set(data) == {"compress", "espresso", "xlisp", "grep"}
    assert data["compress"]["results"]["2bitBP"]["stats"]["cycles"] > 0


def test_tables_cache_warm_run(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    assert main(["tables", "--scale", "0.01", "--cache-dir", cache]) == 0
    cold = capsys.readouterr()
    assert "cache: hits=0" in cold.err
    assert main(["tables", "--scale", "0.01", "--cache-dir", cache]) == 0
    warm = capsys.readouterr()
    assert "cache: hits=20 misses=0" in warm.err  # 4 benchmarks x 5 schemes
    assert warm.out == cold.out


@pytest.mark.parametrize("flag, value", [
    pytest.param("--cache-dir", None, id="--cache-dir"),
    pytest.param("--jobs", "0", id="--jobs"),
    *(pytest.param("--scale", scale, id=f"--scale={scale}")
      for scale in ("0", "-1", "inf", "nan")),
])
def test_tables_rejects_bad_flag_values_before_running(tmp_path, capsys,
                                                       flag, value):
    """A regular file as the cache dir, a zero worker count and a scale
    that is not a finite positive number are usage errors (exit 2), not
    a traceback after the first benchmark ran, a quietly serial run or
    full tables of floor-sized workloads."""
    if value is None:
        occupied = tmp_path / "occupied"
        occupied.write_text("not a cache\n")
        value = str(occupied)
    with pytest.raises(SystemExit) as exit_info:
        main(["tables", "--scale", "0.02", "--no-cache", flag, value])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert f"error: argument {flag}:" in err
    assert "Traceback" not in err


def test_cache_stats_and_clear(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    assert main(["tables", "--scale", "0.01", "--cache-dir", cache]) == 0
    capsys.readouterr()
    assert main(["cache", "stats", "--cache-dir", cache]) == 0
    assert "entries    : 20" in capsys.readouterr().out
    assert main(["cache", "clear", "--cache-dir", cache]) == 0
    assert "cleared 20 entries" in capsys.readouterr().out
    assert main(["cache", "stats", "--cache-dir", cache]) == 0
    assert "entries    : 0" in capsys.readouterr().out


def test_sweep(tmp_path, capsys):
    import json

    out = tmp_path / "sweep.json"
    assert main(["sweep", "--scales", "0.01", "--no-cache",
                 "--config", "fetch_width=2,4",
                 "--benchmarks", "compress",
                 "--out", str(out)]) == 0
    records = json.loads(out.read_text())
    assert len(records) == 10  # 2 widths x 1 benchmark x 5 schemes
    assert {r["config"]["fetch_width"] for r in records} == {2, 4}
    assert all(r["ok"] for r in records)
    assert all(r["ipc"] > 0 for r in records)


def test_sweep_rejects_unknown_axis():
    with pytest.raises(SystemExit):
        main(["sweep", "--scales", "0.01", "--no-cache",
              "--config", "no_such_field=1,2"])


def test_sweep_rejects_a_non_positive_scale(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["sweep", "--scales", "0.01,0", "--no-cache",
              "--benchmarks", "compress"])
    assert exit_info.value.code == 2
    assert "error: argument --scales: must be finite and > 0" \
        in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--rate", "0"), ("--rate", "-1"), ("--rate", "nan"), ("--burst", "0"),
    ("--port", "70000"), ("--port", "-1"),
], ids=["rate=0", "rate=-1", "rate=nan", "burst=0", "port=70000",
        "port=-1"])
def test_serve_rejects_limits_no_bucket_can_run_on(monkeypatch, capsys,
                                                   flag, value):
    """A zero rate or burst is a usage error, not a server that starts
    and then answers every submission ``400 bad_request``; a port outside
    0..65535 is one too, not a ``bind()`` traceback."""
    import repro.serve

    started = []
    monkeypatch.setattr(repro.serve, "serve_forever",
                        lambda config: started.append(config) or 0)
    with pytest.raises(SystemExit) as exit_info:
        main(["serve", "--port", "0", flag, value])
    assert exit_info.value.code == 2
    assert f"error: argument {flag}:" in capsys.readouterr().err
    assert not started


@pytest.mark.parametrize("argv", [
    ["verify", "grep", "--spectre", "--sew", "0"],
    ["run", "grep", "--sample", "-3"],
], ids=["sew=0", "sample=-3"])
def test_window_and_sample_period_out_of_range_are_usage_errors(capsys,
                                                                argv):
    """A Spectre window below 1 is a usage error, not a ``ValueError``
    traceback, and a negative sample period is one too, not a run that
    samples every third instruction."""
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--scale", "0.02"])
    assert exit_info.value.code == 2
    assert f"error: argument {argv[-2]}:" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [
    ["--jobs", "2"], ["--no-cache"], ["--cache-dir", "d"],
    ["--remote", "http://127.0.0.1:1"], ["--tenant", "t"],
], ids=lambda flag: flag[0].lstrip("-"))
def test_verify_declares_no_engine_flag(capsys, flag):
    """``verify`` always recompiles and never runs a cell, so it takes
    no cache, worker or remote flag."""
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", "grep", "--scale", "0.02", *flag])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err


def test_trace_run_and_summarize(tmp_path, capsys):
    out = tmp_path / "trace.jsonl"
    assert main(["trace", "run", "--scale", "0.01",
                 "--out", str(out), "--no-cache"]) == 0
    captured = capsys.readouterr()
    assert "spans written to" in captured.err
    from repro.obs import read_trace

    names = {r["name"] for r in read_trace(out)}
    assert "suite.run" in names
    assert "cell.Proposed" in names
    assert "pass.decide" in names

    assert main(["trace", "summarize", str(out)]) == 0
    table = capsys.readouterr().out
    assert "distinct names" in table
    assert "suite.run" in table


def test_trace_run_inline_summary_and_metrics(tmp_path, capsys):
    """``--summarize`` prints the span table after the run; there is no
    metrics registry to print, so ``--metrics`` is a usage error."""
    out = tmp_path / "trace.jsonl"
    assert main(["trace", "run", "--scale", "0.01", "--out", str(out),
                 "--no-cache", "--summarize"]) == 0
    assert "distinct names" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exit_info:
        main(["trace", "run", "--scale", "0.01", "--out", str(out),
              "--no-cache", "--metrics"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --metrics" in capsys.readouterr().err


def test_trace_summarize_missing_file(capsys):
    assert main(["trace", "summarize", "no-such-trace.jsonl"]) == 2
    assert "cannot read trace" in capsys.readouterr().err


def test_tables_trace_flag(tmp_path, capsys):
    out = tmp_path / "tables-trace.jsonl"
    assert main(["tables", "--scale", "0.01", "--no-cache",
                 "--trace", str(out)]) == 0
    from repro.obs import read_trace

    assert any(r["name"] == "suite.run" for r in read_trace(out))


def test_run_sample_heat_report(capsys):
    """The heat report names the input program, as the header lines do,
    not the compile it sampled (``compress.base``)."""
    assert main(["run", "compress", "--scale", "0.01",
                 "--sample", "7"]) == 0
    out = capsys.readouterr().out
    assert "program    : compress\n" in out
    assert re.search(r"^heat report: compress \(\d+ samples, \d+ hot "
                     r"blocks\)$", out, re.MULTILINE), out


def test_run_sample_stays_on_the_fast_path(monkeypatch, capsys):
    """An observed run never touches the reference simulators: with
    both broken, ``run --sample`` still prints its heat report."""
    from repro.fastsim.backend import fallback_trail
    from repro.sim.functional import FunctionalSim
    from repro.sim.pipeline import TimingSim

    def broken(*args, **kwargs):
        raise AssertionError("reference simulator used")

    monkeypatch.setattr(TimingSim, "run", broken)
    monkeypatch.setattr(FunctionalSim, "__init__", broken)
    assert main(["run", "compress", "--scale", "0.1", "--sample", "7"]) == 0
    assert "heat report: compress (1869 samples, 22 hot blocks)\n" \
        in capsys.readouterr().out
    assert fallback_trail() == ()


@pytest.mark.parametrize("text", [b"foo r1\n", b"\xff\xfe li r1, 1\n"],
                         ids=["unknown-opcode", "not-utf8"])
@pytest.mark.parametrize("command", ["run", "profile", "compile", "verify"])
def test_unparsable_program_file_is_a_one_line_error(tmp_path, command,
                                                     text):
    """A program file that cannot be decoded or parsed ends the command
    with one ``cannot parse FILE: ...`` line, not a traceback."""
    bad = tmp_path / "bad.s"
    bad.write_bytes(text)
    with pytest.raises(SystemExit) as exit_info:
        main([command, str(bad)])
    message = str(exit_info.value.code)
    assert message.startswith(f"cannot parse {bad}: ")
    assert "\n" not in message
    if text.startswith(b"foo"):
        assert "line 1: unknown opcode 'foo'" in message


@pytest.mark.parametrize("namespace", ["a b", "../x"])
def test_cache_clear_rejects_an_invalid_namespace(tmp_path, capsys,
                                                  namespace):
    """A namespace that is not a tenant name is a usage error (exit 2),
    not a ``ValueError`` traceback."""
    with pytest.raises(SystemExit) as exit_info:
        main(["cache", "clear", "--cache-dir", str(tmp_path / "cache"),
              "--namespace", namespace])
    assert exit_info.value.code == 2
    assert "error: argument --namespace: invalid namespace" \
        in capsys.readouterr().err


def test_serve_on_an_address_it_cannot_bind_is_a_usage_error(capsys):
    """A listen address the server cannot bind ends ``serve`` with one
    line naming ``host:port`` and exit 2, not a traceback."""
    import socket

    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        port = taken.getsockname()[1]
        assert main(["serve", "--host", "127.0.0.1", "--port",
                     str(port)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot listen on 127.0.0.1:{port}: ")
    assert err.count("\n") == 1
