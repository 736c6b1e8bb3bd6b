"""Path model: validation, shift, concatenation, escape, pattern density."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sawlab import reference
from sawlab.errors import (
    BadDirectionError,
    DimensionMismatchError,
    NotSelfAvoidingError,
    PatternLongerThanPathError,
    ShiftOutOfRangeError,
)
from sawlab.lattice import (
    Path,
    TwoSidedPath,
    concat,
    escapes,
    lattice_symmetries,
    pattern_density,
    shift,
    validate,
    validate_two_sided,
)


def test_validate_straight_line_high_dimension():
    p = validate([0, 0, 0], 5)
    assert len(p) == 3
    assert p.end == (3, 0, 0, 0, 0)


def test_validate_immediate_reversal_fails_at_index_2():
    with pytest.raises(NotSelfAvoidingError) as err:
        validate([0, 1], 5)
    assert err.value.index == 2


def test_validate_closed_square_fails():
    with pytest.raises(NotSelfAvoidingError) as err:
        validate([0, 2, 1, 3], 2)
    assert err.value.index == 4


def test_validate_bad_direction():
    with pytest.raises(BadDirectionError) as err:
        validate([0, 7], 3)
    assert err.value.code == 7 and err.value.index == 1


def test_shift_identity_and_examples():
    p = validate([0, 2, 0], 2, anchor=(5, 5))
    assert shift(p, 0).steps == p.steps
    assert shift(p, 0).anchor == (0, 0)
    assert shift(p, 1).steps == bytes([2, 0])
    straight = validate([0] * 6, 3)
    assert shift(straight, 1).steps == bytes([0] * 5)
    with pytest.raises(ShiftOutOfRangeError):
        shift(p, 4)


def test_shift_composition():
    p = validate([0, 2, 0, 3, 0, 0, 2], 2)
    for a in range(4):
        for b in range(4 - a):
            assert shift(shift(p, a), b).steps == shift(p, a + b).steps


def test_shift_two_sided_moves_steps_to_negative_side():
    ts = validate_two_sided(validate([2], 2), validate([0, 0], 2))
    shifted = shift(ts, 1)
    assert isinstance(shifted, TwoSidedPath)
    assert shifted.pos.steps == bytes([0])
    # first negative step walks back along -e1, then the old negative side
    assert shifted.neg.steps == bytes([1, 2])
    # the vertex sets agree after translating by -w(1)
    orig = {tuple(a - b for a, b in zip(v, (1, 0))) for v in ts.vertices}
    assert set(shifted.vertices) == orig


def test_concat_identity_and_reversal():
    empty = Path(2)
    p = validate([0, 2], 2)
    assert concat(empty, p).steps == p.steps
    assert concat(p, empty).steps == p.steps
    assert concat(validate([0], 2), validate([0], 2)).steps == bytes([0, 0])
    with pytest.raises(NotSelfAvoidingError):
        concat(validate([0], 2), validate([1], 2))


def test_escape_examples():
    assert escapes(validate([3, 1], 2), Path(2)) is True
    assert escapes(validate([1], 2), validate([0], 2)) is False
    # the second walk curls back into the first two vertices
    w1 = validate([0, 2], 2)
    w2 = validate([3, 1], 2)
    assert escapes(w2, w1) is False
    assert reference.naive_escapes(2, (3, 1), (0, 2)) is False
    with pytest.raises(DimensionMismatchError):
        escapes(validate([0], 3), validate([0], 2))


def test_escape_matches_naive_oracle_exhaustively():
    # every pair with lengths <= 3 in d=2
    from sawlab.counting import enumerate_paths

    walks = []
    for n in range(4):
        walks += [tuple(c) for c in enumerate_paths(2, n)]
    for h in walks:
        head = Path(2, bytes(h))
        for t in walks:
            tail = Path(2, bytes(t))
            assert escapes(tail, head) == reference.naive_escapes(2, t, h)


def test_pattern_density_examples():
    d = 3
    line = validate([0] * 7, d)
    assert pattern_density(line, validate([0], d)) == 1
    assert pattern_density(line, validate([2], d)) == 0
    zigzag = validate([0, 2, 0, 2], 2)
    assert pattern_density(zigzag, validate([0, 2], 2)) == Fraction(2, 4)
    with pytest.raises(PatternLongerThanPathError):
        pattern_density(validate([0], 2), validate([0, 2], 2))


def test_two_sided_validation():
    neg = validate([1], 2)
    pos = validate([0, 2], 2)
    ts = validate_two_sided(neg, pos)
    assert ts.neg_length == 1 and ts.pos_length == 2
    assert ts.vertices[0] == (-1, 0) and ts.vertices[-1] == (1, 1)
    with pytest.raises(NotSelfAvoidingError):
        validate_two_sided(validate([0], 2), validate([0, 2], 2))


def test_two_sided_fold_out_is_self_avoiding():
    ts = validate_two_sided(validate([2, 1], 2), validate([0, 0, 2], 2))
    folded = ts.to_path()
    assert len(folded) == 5
    validate(folded.steps, 2, anchor=folded.anchor)
    assert folded.vertices[0] == ts.vertices[0]
    assert folded.end == ts.pos.end


valid_steps = st.integers(min_value=0, max_value=3)


@settings(max_examples=200, deadline=None)
@given(st.lists(valid_steps, min_size=1, max_size=10))
def test_density_bounds_and_symmetry_equivariance(codes):
    try:
        walk = validate(codes, 2)
    except NotSelfAvoidingError:
        return
    pattern = validate(codes[:2], 2) if len(codes) >= 2 else validate(codes[:1], 2)
    density = pattern_density(walk, pattern)
    n, k = len(walk), len(pattern)
    assert 0 <= density <= Fraction(n - k + 1, n)
    for g in lattice_symmetries(2):
        assert pattern_density(g.apply_path(walk), g.apply_path(pattern)) == density


@settings(max_examples=100, deadline=None)
@given(st.lists(valid_steps, min_size=0, max_size=8),
       st.lists(valid_steps, min_size=0, max_size=8))
def test_escape_concat_equivalence_property(a, b):
    try:
        w1 = validate(a, 2)
        w2 = validate(b, 2)
    except NotSelfAvoidingError:
        return
    esc = escapes(w2, w1)
    try:
        joined = concat(w1, w2)
        ok = True
        validate(joined.steps, 2)
    except NotSelfAvoidingError:
        ok = False
    assert esc == ok


def test_symmetry_group_size_and_generators():
    assert len(list(lattice_symmetries(2))) == 8
    assert len(list(lattice_symmetries(3))) == 48
