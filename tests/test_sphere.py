"""Fixed directions on the sphere and certified absorbing rotations."""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from paradoxlab.errors import DegenerateInputError, DomainError, InconclusiveError
from paradoxlab.exactlin import ProjectiveDirection, eval_word
from paradoxlab.sphere import (
    ANGLE_CANDIDATES,
    axis_candidates,
    absorb_demo,
    certify_margin,
    corrupted_rotation,
    find_absorbing_rotation,
    find_absorbing_rotation_adaptive,
    fixed_directions,
    interval_precision,
    is_free_at,
    is_free_at_direct,
    _iv_dist2,
    _iv_rotate,
    _iv_unit,
)


def _triples(C):
    return {d.as_tuple() for d in C.directions}


# -- fixed directions --------------------------------------------------------


def test_fixed_directions_depth_1():
    C = fixed_directions(1)
    assert _triples(C) == {(2, 1, 0), (0, 1, 2)}
    assert {str(w) for w in C.witnesses.values()} <= {"a", "b", "A", "B"}


def test_fixed_directions_depth_2():
    C = fixed_directions(2)
    assert len(C) == 6
    assert {(2, 1, 0), (0, 1, 2), (4, 1, 4), (2, 5, 2), (1, 1, -2), (2, -1, -1)} == _triples(C)


def test_fixed_directions_grow_with_depth():
    prev = fixed_directions(1)
    for depth in (2, 3):
        cur = fixed_directions(depth)
        assert prev.directions <= cur.directions
        prev = cur


def test_witnesses_fix_their_directions():
    C = fixed_directions(2)
    for direction, word in C.witnesses.items():
        v = direction.as_vec3()
        assert eval_word(word).apply(v) == v


def test_fixed_direction_set_helpers():
    C = fixed_directions(1)
    assert ProjectiveDirection.canonical(2, 1, 0) in C
    assert C.sorted_triples() == sorted(_triples(C))
    assert C.to_json()["depth"] == 1


# -- freeness at a direction -------------------------------------------------


def test_axes_are_not_free():
    for v in ((2, 1, 0), (0, 1, 2)):
        assert not is_free_at(v, 1)


def test_generic_direction_is_free():
    assert is_free_at((1, 0, 0), 2)
    assert is_free_at((3, 1, 7), 2)


@given(st.tuples(*(st.integers(min_value=-6, max_value=6),) * 3))
@settings(max_examples=60, deadline=None)
def test_is_free_at_routes_agree(v):
    if v == (0, 0, 0):
        return
    # is_free_at always re-runs the direct oracle internally and raises on
    # disagreement, so surviving the call is the assertion.
    assert is_free_at(v, 3) == is_free_at_direct(v, 3)


# -- interval helpers --------------------------------------------------------


def test_interval_rotation_by_zero_angle():
    with interval_precision(128):
        k = _iv_unit((0, 0, 1))
        v = _iv_unit((2, 1, 0))
        one = mpmath.iv.mpf(1)
        zero = mpmath.iv.mpf(0)
        rotated = _iv_rotate(k, one, zero, v)
        for a, b in zip(rotated, v):
            assert a.a <= b.b and b.a <= a.b  # intervals overlap


def test_interval_rotation_preserves_axis_component():
    with interval_precision(128):
        k = _iv_unit((0, 0, 1))
        v = _iv_unit((1, 2, 2))
        t = mpmath.iv.mpf(1)
        rotated = _iv_rotate(k, mpmath.iv.cos(t), mpmath.iv.sin(t), v)
        before = sum(a * b for a, b in zip(k, v))
        after = sum(a * b for a, b in zip(k, rotated))
        assert before.a <= after.b and after.a <= before.b


def test_interval_distance_of_identical_points_contains_zero():
    with interval_precision(128):
        p = _iv_unit((1, 1, 1))
        d2 = _iv_dist2(p, p)
        assert d2.a <= 0 <= d2.b


# -- absorbing rotations -----------------------------------------------------


def test_axis_candidates_skip_excluded():
    C = fixed_directions(2)
    cands = axis_candidates(C.directions)
    assert cands[0].as_tuple() == (0, 0, 1)
    assert not set(cands) & C.directions


def test_angle_candidates_are_simple_rationals():
    assert ANGLE_CANDIDATES[0] == Fraction(1)
    assert all(0 < q <= 1 for q in ANGLE_CANDIDATES)


def test_find_absorbing_rotation_depth_2():
    C = fixed_directions(2)
    g = find_absorbing_rotation(C, 5, 128)
    assert g.axis.as_tuple() == (0, 0, 1)
    assert g.angle == Fraction(1)
    assert g.margin > 0.3
    assert g.depth_checked == 5


def test_certify_margin_tightens_with_precision():
    C = fixed_directions(2)
    axis = ProjectiveDirection.canonical(0, 0, 1)
    lo = certify_margin(axis, Fraction(1), C.directions, 5, 128)
    hi = certify_margin(axis, Fraction(1), C.directions, 5, 256)
    assert lo is not None and hi is not None
    assert hi >= lo - 1e-15  # a sound lower bound never shrinks as bits grow


def test_precision_ladder_doubles_until_certified():
    # At 2 bits no candidate certifies; one doubling to 4 bits does.
    C = fixed_directions(2)
    assert certify_margin(ProjectiveDirection.canonical(0, 0, 1), Fraction(1), C.directions, 5, 2) is None
    g = find_absorbing_rotation_adaptive(C, 5, start_bits=2, max_bits=128)
    assert g.precision_bits == 4


def test_precision_ladder_stops_at_the_cap():
    with pytest.raises(InconclusiveError):
        find_absorbing_rotation_adaptive(fixed_directions(2), 5, start_bits=2, max_bits=2)


def test_absorb_demo_passes():
    C = fixed_directions(2)
    g = find_absorbing_rotation_adaptive(C, 5)
    demo = absorb_demo(C, g, 5)
    assert demo.outcome == "pass"
    assert demo.n_points == 36
    assert demo.min_separation > 1e-6
    assert demo.collision is None


def test_absorb_demo_reports_an_unresolved_pair():
    # The search certifies at 2 bits, but the demo's pairwise check cannot
    # resolve one pair at that precision; it says so instead of guessing.
    C = fixed_directions(1)
    g = find_absorbing_rotation_adaptive(C, 2, start_bits=2)
    demo = absorb_demo(C, g, 2)
    assert demo.outcome == "inconclusive"
    assert demo.unresolved == ((1, (2, 1, 0)), (2, (0, 1, 2)))
    assert demo.collision is None
    assert demo.summary().endswith("unresolved pair ((1, (2, 1, 0)), (2, (0, 1, 2))) -> inconclusive")


# -- the bad-angle control ---------------------------------------------------


def test_bad_angle_for_generator_axes_is_pi():
    # The control transports about P + Q, so it is a half turn.
    theta = corrupted_rotation((2, 1, 0), (0, 1, 2)).angle
    with mpmath.workprec(256):
        assert abs(theta - mpmath.pi) < mpmath.mpf(2) ** -250


def test_bad_angle_rejects_degenerate_pairs():
    with pytest.raises(DegenerateInputError):
        corrupted_rotation((2, 1, 0), (4, 2, 0))  # p parallel to q
    with pytest.raises(DomainError):
        corrupted_rotation((2, 1, 0), (0, 1, 3))  # unequal lengths


def test_corrupted_rotation_collides():
    C = fixed_directions(2)
    bad = corrupted_rotation((2, 1, 0), (0, 1, 2))
    demo = absorb_demo(C, bad, 5)
    assert demo.outcome == "fail"
    assert demo.collision is not None
    (i, p), (j, q) = demo.collision
    assert {i, j} == {0, 1}
    assert {p, q} == {(2, 1, 0), (0, 1, 2)}


def test_corrupted_rotation_axis_and_bookkeeping():
    bad = corrupted_rotation((2, 1, 0), (0, 1, 2))
    assert bad.axis.as_tuple() == (1, 1, 1)
    assert bad.margin == 0.0
    assert bad.depth_checked == 0
    with pytest.raises(DegenerateInputError):
        corrupted_rotation((2, 1, 0), (-2, -1, 0))
    data = bad.to_json()
    assert data["angle"].startswith("3.14159265358979323846")
    assert data["angle_exact"] is None
