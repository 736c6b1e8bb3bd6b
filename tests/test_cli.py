"""Command-line interface: exit codes, outputs, artifacts, determinism."""

import json

import pytest

from sawlab.cli import main
from sawlab.counting import count_saws
from sawlab.store import CorpusReader, save_config, RunConfig


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_command(capsys):
    code, out, _ = run(capsys, "count", "-d", "5", "-n", "3")
    assert code == 0 and out.strip() == "810"


def test_count_with_prefix_and_endpoint(capsys):
    code, out, _ = run(capsys, "count", "-d", "5", "-n", "2", "--prefix", "0")
    assert code == 0 and out.strip() == "9"
    code, out, _ = run(capsys, "count", "-d", "5", "-n", "1",
                       "--endpoint", "1,0,0,0,0")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(capsys, "count", "-d", "5", "-n", "0",
                       "--two-sided", "1", "1")
    assert code == 0 and out.strip() == "90"


def test_invalid_input_exit_1(capsys):
    code, _, err = run(capsys, "count", "-d", "2", "-n", "4", "--prefix", "0,1")
    assert code == 1 and "revisits" in err
    code, _, _ = run(capsys, "nonsense")
    assert code == 1


def test_budget_exhaustion_exit_2(capsys):
    code, _, err = run(capsys, "--budget", "10", "count", "-d", "2", "-n", "12")
    assert code == 2 and "budget" in err.lower()


def test_fixedpoint_artifact(tmp_path, capsys):
    code, out, _ = run(capsys, "fixedpoint", "-d", "2", "-n", "2",
                       "--outdir", str(tmp_path), "--marginal-horizon", "6",
                       "--dump-vector")
    assert code == 0
    assert "Z = " in out
    report_path = tmp_path / "fixedpoint-d2-n2-0001.json"
    assert report_path.exists()
    report = json.loads(report_path.read_text())
    assert report["d"] == 2 and report["n"] == 2
    assert report["size"] == 12
    assert 0 < report["Z"] <= count_saws(2, 2)
    assert report["marginal_tv"] > 0
    assert (tmp_path / "fixedpoint-vector-d2-n2-0001.csv").exists()


def test_sample_corpus(tmp_path, capsys):
    code, out, _ = run(capsys, "sample", "-d", "2", "-n", "6",
                       "--trials", "25", "--seed", "9", "--outdir", str(tmp_path))
    assert code == 0
    corpus = tmp_path / "corpus-d2-n6-0001.sawc"
    assert corpus.exists()
    with CorpusReader(str(corpus)) as reader:
        walks = list(reader)
    assert len(walks) == 25 and all(len(w) == 6 for w in walks)
    # same seed reproduces the identical corpus bytes
    run(capsys, "sample", "-d", "2", "-n", "6", "--trials", "25",
        "--seed", "9", "--outdir", str(tmp_path))
    a = corpus.read_bytes()
    b = (tmp_path / "corpus-d2-n6-0002.sawc").read_bytes()
    assert a == b
    # more walks than one batch holds
    code, _, _ = run(capsys, "sample", "-d", "2", "-n", "6", "--trials", "1500",
                     "--seed", "9", "--outdir", str(tmp_path))
    assert code == 0
    with CorpusReader(str(tmp_path / "corpus-d2-n6-0003.sawc")) as reader:
        walks = list(reader)
    assert len(walks) == 1500 and all(len(w) == 6 for w in walks)


def test_twopoint_and_table(tmp_path, capsys):
    code, out, _ = run(capsys, "twopoint", "-d", "2", "--point", "1,1",
                       "-N", "4", "--mu", "2.0")
    assert code == 0 and float(out.strip()) == pytest.approx(0.75)
    code, out, _ = run(capsys, "table", "-d", "2", "--n-max", "5",
                       "--outdir", str(tmp_path))
    assert code == 0
    assert (tmp_path / "table-d2-0001.csv").exists()
    assert (tmp_path / "nonintersection-d2-0001.csv").exists()


def test_couple_command(tmp_path, capsys):
    code, out, _ = run(capsys, "couple", "-d", "5", "--prefix1", "0",
                       "--prefix2", "2", "-N", "8", "--trials", "100",
                       "--seed", "4", "--outdir", str(tmp_path),
                       "--log-traces", "5")
    assert code == 0
    assert (tmp_path / "coupling-decay-d5-0001.csv").exists()
    traces = (tmp_path / "coupling-traces-d5-0001.jsonl").read_text().splitlines()
    assert len(traces) == 5
    record = json.loads(traces[0])
    assert set(record) == {"trial", "schedule", "per_iter", "final_equal_from"}


def test_pattern_command(tmp_path, capsys):
    code, out, _ = run(capsys, "pattern", "-d", "2", "--pattern", "0,2",
                       "--exact-max", "5", "--mc-lengths", "8",
                       "--trials", "400", "--seed", "6",
                       "--reference-sides", "3", "3", "--outdir", str(tmp_path))
    assert code == 0
    payload = json.loads((tmp_path / "pattern-d2-0001.json").read_text())
    assert payload["reference_prob"] is not None
    assert any(r["exact_mean"] for r in payload["rows"])


def test_verify_command_green(capsys):
    code, out, _ = run(capsys, "verify", "-d", "2", "-n", "4")
    assert code == 0
    assert "checks passed" in out
    assert "FAIL" not in out


def test_config_file_with_cli_override(tmp_path, capsys):
    cfg_path = str(tmp_path / "run.cfg")
    save_config(RunConfig(dimension=2, seed=123, outdir=str(tmp_path)), cfg_path)
    code, out, _ = run(capsys, "count", "--config", cfg_path, "-d", "5", "-n", "1")
    assert code == 0 and out.strip() == "10"  # -d flag overrides the file


def test_cache_flag_persists_counts(tmp_path, capsys):
    cache = str(tmp_path / "cache.jsonl")
    code, out, _ = run(capsys, "--cache", cache, "count", "-d", "2", "-n", "7")
    assert code == 0
    lines = [json.loads(l) for l in open(cache, encoding="utf-8")]
    assert any(rec["kind"] == "plain" and rec["n"] == 7
               and rec["count"] == str(count_saws(2, 7)) for rec in lines)
    # second run reads it back without error
    code, out, _ = run(capsys, "--cache", cache, "count", "-d", "2", "-n", "7")
    assert code == 0 and out.strip() == str(count_saws(2, 7))


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
