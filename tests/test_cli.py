"""Command-line interface tests (in-process: fast, no subprocess)."""

import pytest

from repro.__main__ import main


def test_run_benchmark(capsys):
    assert main(["run", "espresso", "--scale", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "IPC" in out
    assert "espresso" in out


def test_run_proposed(capsys):
    assert main(["run", "espresso", "--scale", "0.1", "--proposed"]) == 0
    assert "proposed" in capsys.readouterr().out


@pytest.mark.parametrize("backend", ["reference", "fast"])
@pytest.mark.parametrize("scheme", ["proposed", "safe-speculative",
                                    "melded"])
def test_run_profiles_on_the_chosen_backend(monkeypatch, capsys, scheme,
                                            backend):
    """``run --scheme <proposed kind>`` profiles on the same backend it
    simulates on; ``compile`` and ``verify`` profile on the default."""
    import repro.__main__ as cli

    seen = []
    real = cli.compile_proposed

    def spy(prog, **kw):
        seen.append(kw.get("backend"))
        return real(prog, **kw)

    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    monkeypatch.setattr(cli, "compile_proposed", spy)
    assert main(["run", "grep", "--scale", "0.02", "--scheme", scheme,
                 "--backend", backend]) == 0
    assert main(["compile", "grep", "--scale", "0.02"]) == 0
    assert main(["verify", "grep", "--scale", "0.02", "--no-cache"]) == 0
    assert seen == [backend, "fast", "fast"]
    capsys.readouterr()


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
    out = tmp_path / "trace.jsonl"
    assert main(["trace", "run", "--scale", "0.01", "--out", str(out),
                 "--no-cache", "--summarize", "--metrics"]) == 0
    stdout = capsys.readouterr().out
    assert "distinct names" in stdout
    import json

    # stdout is the metrics JSON followed by the span table; the JSON is
    # everything before the table's "N spans, M distinct names" header.
    snap = json.loads(stdout[:stdout.index("distinct names")]
                      .rsplit("\n", 1)[0])
    assert snap["counters"]["compiler.compiles_proposed"] > 0
    assert snap["counters"]["pipeline.cycles"] > 0


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
    assert main(["run", "compress", "--scale", "0.01",
                 "--sample", "7"]) == 0
    out = capsys.readouterr().out
    assert "heat report" in out
    assert "samples" in out
