"""`python -m repro fuzz` CLI: error paths and smoke runs (in-process)."""

import pytest

from repro.__main__ import main


def test_unknown_subcommand_exits_nonzero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fuzzz"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def _usage_error(argv, capsys) -> str:
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


def test_fuzz_rejects_zero_jobs(capsys):
    err = _usage_error(["fuzz", "--jobs", "0", "--budget", "1"], capsys)
    assert "argument --jobs: must be >= 1" in err


def test_fuzz_rejects_zero_budget(capsys):
    err = _usage_error(["fuzz", "--budget", "0"], capsys)
    assert "argument --budget: must be >= 1" in err


def test_fuzz_rejects_zero_max_steps(capsys):
    # A zero step budget is a flag error, not a DIVERGENT verdict that
    # blames the compiler.
    err = _usage_error(["fuzz", "--budget", "1", "--no-cache",
                        "--max-steps", "0"], capsys)
    assert "argument --max-steps: must be >= 1" in err


def test_fuzz_rejects_file_as_cache_dir(tmp_path, capsys):
    f = tmp_path / "not-a-dir"
    f.write_text("occupied\n")
    err = _usage_error(["fuzz", "--budget", "1", "--cache-dir", str(f)],
                       capsys)
    assert "not a directory" in err


def test_fuzz_rejects_missing_replay_dir(tmp_path, capsys):
    missing = tmp_path / "no-corpus-here"
    assert main(["fuzz", "--replay", str(missing)]) == 2
    assert "no such corpus directory" in capsys.readouterr().err


def test_fuzz_rejects_unknown_strategy(capsys):
    assert main(["fuzz", "--budget", "1", "--no-cache",
                 "--strategies", "bogus-strategy"]) == 2
    assert "bogus-strategy" in capsys.readouterr().err


def test_fuzz_smoke_is_clean_and_deterministic(tmp_path, capsys):
    argv = ["fuzz", "--budget", "3", "--seed", "1", "--no-cache",
            "--no-shrink", "--strategies", "diamonds",
            "--max-steps", "400000", "--corpus", str(tmp_path / "corpus")]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert "CLEAN" in first
    assert "programs tried : 3" in first
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_fuzz_replay_empty_corpus(tmp_path, capsys):
    (tmp_path / "corpus").mkdir()
    assert main(["fuzz", "--replay", str(tmp_path / "corpus")]) == 0
    assert "replayed 0 reproducer(s)" in capsys.readouterr().out
