"""Cache, corpus, artifact and config storage."""

import json
import os
import subprocess
import sys
import threading
import time

import pytest

import sawlab
from sawlab import store
from sawlab.counting import (CountTable, count_saws, endpoint_histogram,
                             enumerate_paths)
from sawlab.errors import BadMagicError, CorruptCacheWarning, TruncatedRecordError
from sawlab.lattice import Path, validate
from sawlab.sampling import SamplerConfig, SawSampler
from sawlab.store import (
    ArtifactWriter,
    CorpusReader,
    CorpusWriter,
    CountCache,
    FileLock,
    RunConfig,
    load_config,
    resolve_cache_path,
    save_config,
)


def test_cache_miss_put_get_round_trip(tmp_path):
    path = str(tmp_path / "counts.jsonl")
    cache = CountCache(path)
    assert cache.get(2, "plain", 5) is None
    cache.put(2, "plain", 5, None, 284)
    assert cache.get(2, "plain", 5) == 284
    # a fresh reader sees the identical decimal value
    again = CountCache(path)
    assert again.get(2, "plain", 5) == 284


def test_cache_big_integer_exact(tmp_path):
    path = str(tmp_path / "counts.jsonl")
    cache = CountCache(path)
    value = 123456789012345678901234567890123456789
    cache.put(7, "plain", 99, None, value)
    assert CountCache(path).get(7, "plain", 99) == value


def test_cache_keys_by_kind_and_condition(tmp_path):
    path = str(tmp_path / "counts.jsonl")
    cache = CountCache(path)
    cache.put(2, "end", 3, (2, 1), 2)
    cache.put(2, "prefix", 3, bytes([0, 2]), 7)
    cache.put(2, "two_sided", 4, (2, 2, b"", bytes([0])), 11)
    again = CountCache(path)
    assert again.get(2, "end", 3, (2, 1)) == 2
    assert again.get(2, "prefix", 3, bytes([0, 2])) == 7
    assert again.get(2, "two_sided", 4, (2, 2, b"", bytes([0]))) == 11
    assert again.get(2, "end", 3, (1, 2)) is None


def test_cache_skips_corrupt_lines(tmp_path):
    path = str(tmp_path / "counts.jsonl")
    cache = CountCache(path)
    cache.put(2, "plain", 4, None, 100)
    cache.put(2, "plain", 5, None, 284)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"d": 2, "kind": "plain", "n": 6, "key": null, '
                 '"count": "999", "crc": 1}\n')
        fh.write("not json at all\n")
    with pytest.warns(CorruptCacheWarning):
        again = CountCache(path)
    assert again.get(2, "plain", 4) == 100
    assert again.get(2, "plain", 5) == 284
    assert again.get(2, "plain", 6) is None  # bad checksum line skipped


@pytest.mark.parametrize("scalar", ["5", '"x"', "null", "true", "[1, 2]"])
def test_cache_skips_lines_that_are_not_objects(tmp_path, scalar):
    path = tmp_path / "counts.jsonl"
    cache = CountCache(str(path))
    cache.put(2, "plain", 4, None, 100)
    cache.put(2, "plain", 5, None, 284)
    first, second = path.read_text(encoding="utf-8").splitlines(keepends=True)
    bad = scalar + "\n"
    path.write_text(bad + first + bad + second + bad, encoding="utf-8")
    with pytest.warns(CorruptCacheWarning) as caught:
        again = CountCache(str(path))
    assert len(caught) == 3
    assert again.get(2, "plain", 4) == 100
    assert again.get(2, "plain", 5) == 284
    assert len(again) == 2


def test_cache_round_trip_through_count_table(tmp_path):
    path = str(tmp_path / "counts.jsonl")
    table = CountTable(2, CountCache(path))
    value = count_saws(2, 8, table=table)
    # a brand-new table backed by the same file returns the cached value
    table2 = CountTable(2, CountCache(path))
    assert table2.get("plain", 8) == value
    assert value == count_saws(2, 8, table=CountTable(2))


def test_histogram_pass_is_one_locked_append(tmp_path, monkeypatch):
    enters = []

    class CountingLock(FileLock):
        def __enter__(self):
            enters.append(self.target)
            return super().__enter__()

    monkeypatch.setattr(store, "FileLock", CountingLock)
    path = str(tmp_path / "counts.jsonl")
    hist = endpoint_histogram(3, 6, table=CountTable(3, CountCache(path)))
    assert enters == [path]
    with open(path, encoding="utf-8") as fh:
        assert len(fh.readlines()) == len(hist)


class _OneByOne:
    """A store that hands every entry of a batch to ``CountCache.put``."""

    def __init__(self, cache):
        self.cache = cache

    def get(self, *args):
        return self.cache.get(*args)

    def put_many(self, d, entries):
        for entry in entries:
            self.cache.put(d, *entry)


def test_batched_puts_write_what_single_puts_write(tmp_path):
    paths = [tmp_path / "batched.jsonl", tmp_path / "single.jsonl"]
    stores = [CountCache(str(paths[0])), _OneByOne(CountCache(str(paths[1])))]
    for cache in stores:
        table = CountTable(2, cache)
        count_saws(2, 9, table=table)
        endpoint_histogram(2, 7, table=table)
        count_saws(2, 9, table=table)  # all held: appends nothing
    batched, single = (p.read_text(encoding="utf-8").splitlines() for p in paths)
    assert batched == single
    assert len(batched) == 10 + len(endpoint_histogram(2, 7))


def test_cache_skips_a_batch_torn_mid_line(tmp_path):
    path = str(tmp_path / "counts.jsonl")
    CountCache(path).put_many(2, [("plain", 4, None, 100),
                                  ("end", 3, (2, 1), 2),
                                  ("prefix", 5, bytes([0, 2]), 44)])
    with open(path, "rb+") as fh:
        size = fh.seek(0, os.SEEK_END)
        fh.truncate(size - 9)  # a writer died inside the batch's last line
    with pytest.warns(CorruptCacheWarning):
        again = CountCache(path)
    assert again.get(2, "plain", 4) == 100
    assert again.get(2, "end", 3, (2, 1)) == 2
    assert again.get(2, "prefix", 5, bytes([0, 2])) is None
    assert len(again) == 2


def test_cache_key_forms_agree(tmp_path):
    path = str(tmp_path / "counts.jsonl")
    cache = CountCache(path)
    cache.put(2, "prefix", 3, bytes([0, 2]), 7)
    cache.put(2, "two_sided", 4, (2, 2, b"", bytes([0])), 11)
    again = CountCache(path)
    for c in (cache, again):
        assert c.get(2, "prefix", 3, (0, 2)) == c.get(2, "prefix", 3, [0, 2]) == 7
        assert c.get(2, "two_sided", 4, [2, 2, [], [0]]) == 11
    with pytest.raises(TypeError):
        cache.get(2, "prefix", 3, 2.5)


def test_file_lock_mutual_exclusion(tmp_path):
    target = str(tmp_path / "file")
    order = []

    def worker(tag):
        with FileLock(target, timeout=5):
            order.append((tag, "in"))
            order.append((tag, "out"))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    # critical sections never interleave
    for i in range(0, len(order), 2):
        assert order[i][0] == order[i + 1][0]
    assert not os.path.exists(target + ".lock")


def test_cache_put_after_lock_holder_killed(tmp_path):
    path = str(tmp_path / "counts.jsonl")
    holder = ("import sys, time\n"
              "from sawlab.store import FileLock\n"
              "FileLock(sys.argv[1]).__enter__()\n"
              "print('locked', flush=True)\n"
              "time.sleep(60)\n")
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(sawlab.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, "-c", holder, path],
                            stdout=subprocess.PIPE, text=True, env=env)
    try:
        assert proc.stdout.readline().strip() == "locked"
        with pytest.raises(TimeoutError):
            with FileLock(path, timeout=0.2):
                pass
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
    start = time.monotonic()
    CountCache(path).put(2, "plain", 5, None, 284)
    assert time.monotonic() - start < 1.0
    assert CountCache(path).get(2, "plain", 5) == 284


def test_corpus_round_trip(tmp_path):
    path = str(tmp_path / "walks.sawc")
    sampler = SawSampler(2, SamplerConfig(seed=3))
    walks = [sampler.uniform(9) for _ in range(200)]
    with CorpusWriter(path) as writer:
        for w in walks:
            writer.write(w)
    with CorpusReader(path) as reader:
        assert reader.count == 200
        back = list(reader)
    assert [w.steps for w in back] == [w.steps for w in walks]
    assert all(w.dimension == 2 for w in back)


def test_corpus_empty_is_valid(tmp_path):
    path = str(tmp_path / "empty.sawc")
    with CorpusWriter(path):
        pass
    with CorpusReader(path) as reader:
        assert reader.count == 0
        assert list(reader) == []


def test_corpus_full_enumeration_record_count(tmp_path):
    path = str(tmp_path / "saw4.sawc")
    with CorpusWriter(path) as writer:
        for codes in enumerate_paths(2, 4):
            writer.write(Path(2, codes))
    with CorpusReader(path) as reader:
        assert reader.count == count_saws(2, 4)
        assert sum(1 for _ in reader) == count_saws(2, 4)


def test_corpus_bad_magic_and_truncation(tmp_path):
    bad = str(tmp_path / "bad.sawc")
    with open(bad, "wb") as fh:
        fh.write(b"NOPE" + b"\x00" * 9)
    with pytest.raises(BadMagicError):
        CorpusReader(bad)

    trunc = str(tmp_path / "trunc.sawc")
    with CorpusWriter(trunc) as writer:
        writer.write(validate([0, 2, 0], 2))
        writer.write(validate([2, 2], 2))
    with open(trunc, "r+b") as fh:
        fh.truncate(os.path.getsize(trunc) - 1)
    with pytest.raises(TruncatedRecordError):
        with CorpusReader(trunc) as reader:
            list(reader)


def test_corpus_from_unclosed_writer_is_detected(tmp_path):
    path = str(tmp_path / "torn.sawc")
    writer = CorpusWriter(path)
    writer.write(validate([0, 2, 0], 2))
    writer._fh.flush()  # the process dies here, before close
    with pytest.raises(TruncatedRecordError):
        with CorpusReader(path) as reader:
            list(reader)
    writer.close()


def test_concurrent_artifact_writers_get_distinct_names(tmp_path):
    a = ArtifactWriter(str(tmp_path))
    b = ArtifactWriter(str(tmp_path))
    first, second = a.reserve("x", ".sawc"), b.reserve("x", ".sawc")
    assert first.endswith("x-0001.sawc") and second.endswith("x-0002.sawc")


def test_artifact_versioning_and_sidecar(tmp_path):
    writer = ArtifactWriter(str(tmp_path))
    p1 = writer.write_json("report", {"x": 1})
    p2 = writer.write_json("report", {"x": 1})
    assert p1.endswith("report-0001.json") and p2.endswith("report-0002.json")
    assert os.path.exists(p1 + ".meta.json")
    # identical payloads give byte-identical artifacts (timestamps live
    # in the sidecar only)
    with open(p1, "rb") as a, open(p2, "rb") as b:
        assert a.read() == b.read()
    p3 = writer.write_csv("grid", [["n", "v"], [1, 2]])
    with open(p3, encoding="utf-8") as fh:
        assert fh.read().strip().splitlines() == ["n,v", "1,2"]


def test_artifact_meta_goes_to_the_sidecar_only(tmp_path):
    writer = ArtifactWriter(str(tmp_path))
    plain = writer.write_json("report", {"x": 1})
    with_meta = writer.write_json("report", {"x": 1}, {"levels": [1, 2]})
    with open(plain, "rb") as a, open(with_meta, "rb") as b:
        assert a.read() == b.read()
    with open(with_meta + ".meta.json", encoding="utf-8") as fh:
        sidecar = json.load(fh)
    assert sidecar["levels"] == [1, 2] and "written_at" in sidecar
    reserved = writer.reserve("corpus", ".sawc")
    writer.finalize(reserved, {"levels": []})
    with open(reserved + ".meta.json", encoding="utf-8") as fh:
        assert json.load(fh)["levels"] == []


def test_run_config_round_trip(tmp_path):
    cfg = RunConfig(dimension=5, seed=42, stream_id=3, workers=2,
                    node_budget=1000, max_rejections=500,
                    max_matrix_paths=999, base_length=4,
                    outdir="out", cache_path="cache.jsonl")
    path = str(tmp_path / "run.cfg")
    save_config(cfg, path)
    assert load_config(path) == cfg
    # defaults: None fields survive the trip
    cfg2 = RunConfig()
    save_config(cfg2, path)
    assert load_config(path) == cfg2


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(workers=0)
    with pytest.raises(ValueError):
        RunConfig(node_budget=-5)
    with pytest.raises(ValueError, match="dimension"):
        RunConfig(dimension=0)


def test_cache_env_var(tmp_path, monkeypatch):
    assert resolve_cache_path("explicit.jsonl") == "explicit.jsonl"
    monkeypatch.delenv("SAWLAB_CACHE", raising=False)
    assert resolve_cache_path(None) is None
    monkeypatch.setenv("SAWLAB_CACHE", str(tmp_path / "env.jsonl"))
    assert resolve_cache_path(None) == str(tmp_path / "env.jsonl")
