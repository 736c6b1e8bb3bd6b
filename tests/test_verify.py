"""The exact-identity suite must be green at small scales in several d."""

from sawlab import verify
from sawlab.counting import default_table
from sawlab.verify import check_dmp_two_ways, run_verify


def test_verify_d2():
    results = run_verify(2, 6)
    failures = [r.line() for r in results if not r.passed]
    assert not failures, failures
    assert len(results) == 11


def test_verify_d3():
    results = run_verify(3, 4)
    failures = [r.line() for r in results if not r.passed]
    assert not failures, failures


def test_suffix_law_check_covers_its_grid():
    # k = 1: 4 prefixes x 4 lengths; k = 2: 12 prefixes x 3 lengths
    result = check_dmp_two_ways(2, 4, 2, default_table(2))
    assert result.passed and result.detail == "52 (prefix, m) pairs"
    for m_max in (0, -1):  # run_verify passes n_max through as it is
        assert check_dmp_two_ways(2, m_max, m_max, default_table(2)).detail == \
            "0 (prefix, m) pairs"


def test_suffix_law_check_fails_on_a_dropped_walk(monkeypatch):
    real = verify.enumerate_paths

    def dropping(dimension, n, prefix=None):
        walks = real(dimension, n, prefix)
        if prefix is not None and prefix.steps == bytes([0, 2]) and n == 4:
            return walks[:-1]
        return walks

    monkeypatch.setattr(verify, "enumerate_paths", dropping)
    result = check_dmp_two_ways(2, 4, 2, default_table(2))
    assert not result.passed
    assert result.detail == "52 (prefix, m) pairs: support at (0, 2) m=4"


def test_suffix_law_check_fails_on_a_count_off_by_one(monkeypatch):
    real = verify.count_extensions

    def off_by_one(dimension, n, prefix, **kwargs):
        value = real(dimension, n, prefix, **kwargs)
        return value + (prefix.steps == bytes([0, 2]) and n == 3)

    monkeypatch.setattr(verify, "count_extensions", off_by_one)
    result = check_dmp_two_ways(2, 4, 2, default_table(2))
    assert not result.passed
    assert result.detail == "52 (prefix, m) pairs: count 4 != 3 at (0, 2) m=3"
