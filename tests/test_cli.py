"""Command-line interface: exit codes, outputs, artifacts, determinism."""

import json

import pytest

from sawlab import coupling, reference
from sawlab.cli import main
from sawlab.coupling import run_one_sided_couplings
from sawlab.counting import count_saws
from sawlab.store import CorpusReader


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
    code, out, _ = run(capsys, "count", "-d", "2", "-n", "0", "--two-sided",
                       "3", "3", "--neg-prefix", "1", "--pos-prefix", "0,2")
    assert code == 0
    assert int(out) == 26 == reference.naive_count_two_sided(
        2, 3, 3, neg_prefix=(1,), pos_prefix=(0, 2))


@pytest.mark.parametrize("neg, pos", [("0", "0"), ("2", "0,2,1")])
def test_count_two_sided_refuses_a_middle_whose_sides_meet(capsys, neg, pos):
    code, out, err = run(capsys, "count", "-d", "2", "-n", "0", "--two-sided",
                         "3", "3", "--neg-prefix", neg, "--pos-prefix", pos)
    assert code == 1 and not out and err.startswith("error:")
    assert reference.naive_count_two_sided(
        2, 3, 3, neg_prefix=tuple(map(int, neg.split(","))),
        pos_prefix=tuple(map(int, pos.split(",")))) == 0


def test_fixedpoint_that_does_not_converge_exit_1(tmp_path, capsys):
    code, out, err = run(capsys, "fixedpoint", "-d", "2", "-n", "3",
                         "--max-iters", "1", "--outdir", str(tmp_path))
    assert code == 1 and not out
    assert err.startswith("error:") and "did not converge in 1 iterations" in err
    assert not list(tmp_path.iterdir())


def test_invalid_input_exit_1(capsys):
    code, _, err = run(capsys, "count", "-d", "2", "-n", "4", "--prefix", "0,1")
    assert code == 1 and "revisits" in err
    code, _, _ = run(capsys, "nonsense")
    assert code == 1


def test_budget_exhaustion_exit_2(capsys):
    code, _, err = run(capsys, "--budget", "10", "count", "-d", "2", "-n", "12")
    assert code == 2 and "budget" in err.lower()


@pytest.mark.parametrize("argv", [
    ("pattern", "-d", "2", "--pattern", "0,2", "--exact-max", "12"),
    ("pattern", "-d", "2", "--pattern", "0,2", "--reference-sides", "6", "6"),
    ("fixedpoint", "-d", "2", "-n", "3", "--marginal-horizon", "14"),
], ids=["pattern-exact", "pattern-reference", "fixedpoint-marginal"])
def test_budget_bounds_every_exact_pass(tmp_path, capsys, argv):
    code, _, err = run(capsys, "--budget", "1000", *argv,
                       "--outdir", str(tmp_path))
    assert code == 2 and "budget" in err.lower()
    assert not list(tmp_path.glob("*.json"))


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


def test_couple_logs_traces_from_its_one_batch(tmp_path, capsys, monkeypatch):
    batches = []

    def engine(*args, **kwargs):
        batches.append(run_one_sided_couplings(*args, **kwargs))
        return batches[-1]

    def rerun(*args, **kwargs):
        raise AssertionError("a trial ran again")

    monkeypatch.setattr(coupling, "run_one_sided_couplings", engine)
    monkeypatch.setattr(coupling, "run_one_sided_coupling", rerun)
    code, _, _ = run(capsys, "couple", "-d", "5", "--prefix1", "0",
                     "--prefix2", "2", "-N", "8", "--trials", "40",
                     "--seed", "4", "--outdir", str(tmp_path),
                     "--log-traces", "10")
    assert code == 0 and len(batches) == 1
    lines = (tmp_path / "coupling-traces-d5-0001.jsonl").read_text().splitlines()
    assert len(lines) == 10
    for i, line in enumerate(lines):
        record, trace = json.loads(line), batches[0].trace(i)
        assert record["trial"] == i
        assert record["per_iter"] == trace.record_dicts()
        assert record["final_equal_from"] == trace.final_equal_from()


def test_pattern_command(tmp_path, capsys):
    code, out, _ = run(capsys, "pattern", "-d", "2", "--pattern", "0,2",
                       "--exact-max", "5", "--mc-lengths", "8",
                       "--trials", "400", "--seed", "6",
                       "--reference-sides", "3", "3", "--outdir", str(tmp_path))
    assert code == 0
    payload = json.loads((tmp_path / "pattern-d2-0001.json").read_text())
    assert payload["reference_prob"] is not None
    assert any(r["exact_mean"] for r in payload["rows"])


def _levels_hold(levels, lengths):
    # one entry per dimerized length, accepted <= attempted at each
    assert [level["n"] for level in levels] == lengths
    assert all(0 < level["accepted"] <= level["attempted"] for level in levels)


def test_sample_and_pattern_sidecars_hold_level_counts(tmp_path, capsys):
    # d=2, base length 8: a 20-step walk dimerizes at 20 = 10 + 10 and
    # 10 = 5 + 5, a 12-step one at 12 = 6 + 6
    for out in ("a", "b"):
        assert run(capsys, "sample", "-d", "2", "-n", "20", "--trials", "300",
                   "--seed", "4", "--outdir", str(tmp_path / out))[0] == 0
        assert run(capsys, "pattern", "-d", "2", "--pattern", "0,2",
                   "--mc-lengths", "6,12,20", "--trials", "200", "--seed", "4",
                   "--outdir", str(tmp_path / out))[0] == 0
    for name in ("corpus-d2-n20-0001.sawc", "pattern-d2-0001.json",
                 "pattern-grid-d2-0001.csv"):
        # the main artifacts stay byte-deterministic
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()
    meta = json.loads((tmp_path / "a" / "corpus-d2-n20-0001.sawc.meta.json")
                      .read_text())
    _levels_hold(meta["dimerization_levels"], [10, 20])
    for name in ("pattern-d2-0001.json", "pattern-grid-d2-0001.csv"):
        meta = json.loads((tmp_path / "a" / f"{name}.meta.json").read_text())
        levels = meta["dimerization_levels"]
        assert sorted(levels) == ["12", "20", "6"]
        assert levels["6"] == []
        _levels_hold(levels["12"], [12])
        _levels_hold(levels["20"], [10, 20])
    payload = (tmp_path / "a" / "pattern-d2-0001.json").read_text()
    assert "dimerization" not in payload and "attempted" not in payload


def test_pattern_command_refuses_empty_pattern(tmp_path, capsys):
    code, out, err = run(capsys, "pattern", "-d", "2", "--pattern", "",
                         "--mc-lengths", "10", "--trials", "10",
                         "--outdir", str(tmp_path))
    assert code == 1 and "at least one step" in err
    assert not list(tmp_path.iterdir())


def test_verify_command_green(capsys):
    code, out, _ = run(capsys, "verify", "-d", "2", "-n", "4")
    assert code == 0
    assert "checks passed" in out
    assert "FAIL" not in out


def test_config_file_with_cli_override(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    # a file of an older version may still carry a dimension; -d decides
    cfg_path.write_text(f"[run]\ndimension = 2\nseed = 123\noutdir = {tmp_path}\n"
                        "[budgets]\nnode_budget = 10\n")
    code, out, _ = run(capsys, "count", "--config", str(cfg_path), "-d", "5",
                       "-n", "1")
    assert code == 0 and out.strip() == "10"
    code, _, _ = run(capsys, "count", "--config", str(cfg_path), "-d", "2",
                     "-n", "12")
    assert code == 2  # the file's budget holds
    code, out, _ = run(capsys, "count", "--config", str(cfg_path), "--budget",
                       "10000000", "-d", "2", "-n", "12")
    assert code == 0 and int(out) == count_saws(2, 12)  # the flag overrides it


@pytest.mark.parametrize("text", [
    "dimension = 2\n",
    "[run]\nseed = 1\n[run]\nseed = 2\n",
], ids=["no_section_header", "section_twice"])
def test_bad_config_file_exit_1(tmp_path, capsys, text):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(text)
    code, _, err = run(capsys, "count", "--config", str(cfg_path), "-d", "2", "-n", "3")
    assert code == 1 and err.startswith("error:") and str(cfg_path) in err


@pytest.mark.parametrize("argv", [
    ("count", "-n", "3"),
    ("twopoint", "--point", "1", "-N", "3", "--mu", "2"),
    ("table", "--n-max", "3"),
    ("fixedpoint", "-n", "2"),
    ("sample", "-n", "3"),
    ("couple", "--prefix1", "0", "--prefix2", "1", "-N", "4"),
    ("pattern", "--pattern", "0", "--mc-lengths", "4"),
    ("verify", "-n", "2"),
], ids=lambda argv: argv[0])
def test_dimension_below_one_exit_1(tmp_path, capsys, argv):
    code, _, err = run(capsys, *argv, "-d", "0", "--outdir", str(tmp_path))
    assert code == 1 and "dimension must be positive" in err
    assert not list(tmp_path.iterdir())


def test_sample_refuses_negative_trials(tmp_path, capsys):
    code, out, err = run(capsys, "sample", "-d", "2", "-n", "3", "--trials", "-5",
                         "--outdir", str(tmp_path))
    assert code == 1 and "--trials" in err and not out
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, message", [
    (("sample", "-d", "2", "-n", "-3", "--trials", "2"), "must be nonnegative"),
    (("sample", "-d", "2", "-n", str(2 ** 40), "--trials", "2"), "do not fit"),
    (("table", "-d", "2", "--n-max", "-2"), "length must be nonnegative"),
    (("twopoint", "-d", "2", "--point", "1,1", "-N", "-3", "--mu", "2"),
     "length must be nonnegative"),
    (("verify", "-d", "2", "-n", "0"), "at least 1, not 0"),
    (("verify", "-d", "2", "-n", "-1"), "at least 1, not -1"),
], ids=["sample-negative", "sample-past-keys", "table", "twopoint", "verify-0",
        "verify-negative"])
def test_lengths_out_of_range_exit_1(tmp_path, capsys, argv, message):
    # refused before any artifact is reserved or written
    code, out, err = run(capsys, *argv, "--outdir", str(tmp_path))
    assert code == 1 and not out
    assert err.startswith("error:") and message in err
    assert not list(tmp_path.iterdir())


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
