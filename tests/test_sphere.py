"""Fixed directions on the sphere and certified absorbing rotations."""

import dataclasses
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from paradoxlab import sphere
from paradoxlab.errors import DegenerateInputError, DomainError, InconclusiveError, InvariantViolationError
from paradoxlab.exactlin import ProjectiveDirection, ball_matrices
from paradoxlab.sphere import (
    ANGLE_CANDIDATES,
    SEPARATION_RESOLUTION,
    AbsorbReport,
    axis_candidates,
    absorb_demo,
    certify_margin,
    corrupted_rotation,
    find_absorbing_rotation,
    find_absorbing_rotation_adaptive,
    fixed_directions,
    _latitude_key,
    _shrink_lower,
)
from paradoxlab.words import Letter

from oracles import (
    _iv_dist2,
    _iv_distance_slack,
    _iv_height,
    _iv_number,
    _iv_rotate,
    _iv_unit,
    apply,
    interval_precision,
    word_matrix,
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
        v = direction.as_tuple()
        assert apply(word_matrix(word), v) == v


def test_fixed_direction_set_helpers():
    C = fixed_directions(1)
    assert ProjectiveDirection.canonical(2, 1, 0) in C
    assert C.sorted_triples() == sorted(_triples(C))
    assert C.to_json()["depth"] == 1


def test_fixed_directions_fails_closed_on_a_fixed_space_that_is_not_a_line(monkeypatch):
    # ints - den*I is the identity for the word a: rank 3, so nothing is fixed.
    def broken(depth):
        yield (), (1, 0, 0, 0, 1, 0, 0, 0, 1), 1
        yield (Letter.A,), (2, 0, 0, 0, 2, 0, 0, 0, 2), 1

    monkeypatch.setattr(sphere, "ball_matrices", broken)
    with pytest.raises(InvariantViolationError) as info:
        fixed_directions(1)
    assert str(info.value).startswith("a: fixed space is 0-dimensional")


# -- freeness at a direction -------------------------------------------------
#
# Two reference oracles for "no non-identity word of length <= depth fixes
# the direction of v0": membership in the assembled fixed-direction set, and
# direct application of every ball word's scaled integer matrix.  The two
# share no kernel machinery, so is_free_at raises when they disagree.


def _as_direction(v0) -> ProjectiveDirection:
    if isinstance(v0, ProjectiveDirection):
        return v0
    return ProjectiveDirection.canonical(*v0)


def is_free_at_direct(v0, depth: int) -> bool:
    """Brute evaluation on the primitive integer representative: M v = d v exactly."""
    x, y, z = _as_direction(v0).as_tuple()
    for letters, ints, den in ball_matrices(depth):
        if not letters:
            continue
        image = (
            ints[0] * x + ints[1] * y + ints[2] * z,
            ints[3] * x + ints[4] * y + ints[5] * z,
            ints[6] * x + ints[7] * y + ints[8] * z,
        )
        if image == (den * x, den * y, den * z):
            return False
    return True


def is_free_at(v0, depth: int) -> bool:
    direction = _as_direction(v0)
    by_set = direction not in fixed_directions(depth)
    by_eval = is_free_at_direct(direction, depth)
    if by_eval != by_set:
        raise InvariantViolationError(
            f"freeness oracles disagree at {direction}: set={by_set} direct={by_eval}"
        )
    return by_set


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


# -- the interval kernel against the iv context --------------------------------
#
# sphere's kernel runs on raw libmpi endpoint pairs; each function must give
# the endpoints the iv form in oracles gives.  Components up to 2^34 make the
# squared norms, and the Fractions' numerators and denominators, too wide
# for 64 bits, so the conversions round.

WIDE = 2**34
_triples_st = st.tuples(*[st.integers(-WIDE, WIDE)] * 3).filter(any)
_angles_st = st.one_of(
    st.integers(-8, 8),
    st.sampled_from(ANGLE_CANDIDATES),
    st.builds(Fraction, st.integers(-(2**80), 2**80), st.integers(1, 2**80)),
    st.just(corrupted_rotation((2, 1, 0), (0, 1, 2)).angle),  # the control's dyadic pi
)


def _ends(x):
    """The libmpi endpoint pairs of an iv interval or a tuple of them."""
    return x._mpi_ if hasattr(x, "_mpi_") else tuple(_ends(c) for c in x)


@settings(max_examples=150, deadline=None)
@given(
    bits=st.sampled_from([64, 128, 256, 1024]),
    axis=_triples_st,
    p=_triples_st,
    q=_triples_st,
    angle=_angles_st,
    power=st.integers(1, 6),
)
@example(bits=64, axis=(1, 0, 0), p=(WIDE - 1, -3, 5), q=(WIDE - 1, -3, 5), angle=Fraction(2**70 + 1, 3**40), power=1)
def test_interval_kernel_matches_the_iv_context_endpoint_for_endpoint(bits, axis, p, q, angle, power):
    axis_u, pu, qu = sphere._unit(axis, bits), sphere._unit(p, bits), sphere._unit(q, bits)
    theta = sphere._number(angle, bits)
    cos_t, sin_t, one_minus_cos = sphere._cos_sin_layer(theta, power, bits)
    gp = sphere._rotate(axis_u, cos_t, sin_t, one_minus_cos, pu, sphere._axial(axis_u, pu, bits), bits)
    slack = sphere._distance_slack([pu, qu, gp], bits)
    (_, hp), (_, hq) = sphere._axial(axis_u, gp, bits), sphere._axial(axis_u, qu, bits)
    gap_low = sphere._gap_low(hp, hq, slack, bits)
    kernel = {
        "unit": (axis_u, pu, qu),
        "number": theta,
        "cos_sin_layer": (cos_t, sin_t, one_minus_cos),
        "rotate": gp,
        # a point against itself: every difference straddles zero
        "dist2": (sphere._dist2(pu, pu, bits), sphere._dist2(gp, pu, bits), sphere._dist2(gp, qu, bits)),
        "height": (hp, hq),
        "distance_slack": slack,
        "gap_low": (gap_low, gap_low),
    }
    with interval_precision(bits):
        iv_axis, iv_p, iv_q = _iv_unit(axis), _iv_unit(p), _iv_unit(q)
        iv_theta = _iv_number(angle)
        iv_cos, iv_sin = mpmath.iv.cos(iv_theta * power), mpmath.iv.sin(iv_theta * power)
        iv_gp = _iv_rotate(iv_axis, iv_cos, iv_sin, iv_p)
        iv_slack = _iv_distance_slack([iv_p, iv_q, iv_gp], bits)
        iv_hp, iv_hq = _iv_height(iv_axis, iv_gp), _iv_height(iv_axis, iv_q)
        oracle = {
            "unit": (iv_axis, iv_p, iv_q),
            "number": iv_theta,
            "cos_sin_layer": (iv_cos, iv_sin, mpmath.iv.mpf(1) - iv_cos),
            "rotate": iv_gp,
            "dist2": (_iv_dist2(iv_p, iv_p), _iv_dist2(iv_gp, iv_p), _iv_dist2(iv_gp, iv_q)),
            "height": (iv_hp, iv_hq),
            "distance_slack": iv_slack,
            "gap_low": ((iv_hp - iv_hq) ** 2 - iv_slack).a,
        }
    for name, value in kernel.items():
        assert value == _ends(oracle[name]), name


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


def test_certify_margin_needs_a_power():
    C = fixed_directions(2)
    with pytest.raises(ValueError, match="need at least one power to check"):
        certify_margin(ProjectiveDirection.canonical(0, 0, 1), Fraction(1), C.directions, 0, 128)


def test_precision_ladder_doubles_until_certified(monkeypatch):
    # At 2 bits no candidate certifies; one doubling to 4 bits does.
    monkeypatch.setattr(sphere, "MAX_PRECISION_BITS", 128)
    C = fixed_directions(2)
    assert certify_margin(ProjectiveDirection.canonical(0, 0, 1), Fraction(1), C.directions, 5, 2) is None
    g = find_absorbing_rotation_adaptive(C, 5, start_bits=2)
    assert g.precision_bits == 4


def test_precision_ladder_stops_at_the_cap(monkeypatch):
    monkeypatch.setattr(sphere, "MAX_PRECISION_BITS", 2)
    with pytest.raises(InconclusiveError):
        find_absorbing_rotation_adaptive(fixed_directions(2), 5, start_bits=2)
    with pytest.raises(ValueError):
        find_absorbing_rotation_adaptive(fixed_directions(2), 5, start_bits=4)


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
    assert type(theta) is Fraction and theta.denominator & (theta.denominator - 1) == 0
    with mpmath.workprec(256):
        assert abs(mpmath.mpf(theta.numerator) / theta.denominator - mpmath.pi) < mpmath.mpf(2) ** -250


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
    assert data["angle_exact"] == str(bad.angle)


def test_absorbing_rotations_never_enter_an_mpmath_context(monkeypatch):
    # Every angle is an exact Fraction, so nothing sets mpmath's global precision.
    def refuse(*args, **kwargs):
        raise AssertionError("mpmath.workprec was entered")

    monkeypatch.setattr(mpmath, "workprec", refuse)
    C = fixed_directions(2)
    g = find_absorbing_rotation(C, 3, 128)
    assert g.to_json()["angle_exact"] == "1"
    assert absorb_demo(C, g, 3).outcome == "pass"
    bad = corrupted_rotation((2, 1, 0), (0, 1, 2))
    assert bad.to_json()["angle"].startswith("3.14159265358979323846")
    assert absorb_demo(C, bad, 2).outcome == "fail"


# -- the latitude sweep against the all-pairs route ---------------------------
#
# certify_margin and absorb_demo compare only the pairs of nearby latitude.
# The two loops below are the all-pairs route they replaced, kept here as
# the reference: every report field must agree with it.


def _certify_margin_all_pairs(axis, angle, directions, powers, precision_bits):
    triples = sorted(d.as_tuple() for d in directions)
    with interval_precision(precision_bits):
        axis_unit = _iv_unit(axis.as_tuple())
        points = [_iv_unit(t) for t in triples]
        theta = _iv_number(angle)
        min_low = None
        for i in range(1, powers + 1):
            ti = theta * i
            cos_t, sin_t = mpmath.iv.cos(ti), mpmath.iv.sin(ti)
            for p in points:
                gp = _iv_rotate(axis_unit, cos_t, sin_t, p)
                for q in points:
                    low = _iv_dist2(gp, q).a
                    if not low > 0:
                        return None
                    if min_low is None or low < min_low:
                        min_low = low
        bound = math.sqrt(float(mpmath.mpf(min_low.a)))
    return _shrink_lower(bound)


def _demo_points(C, g, M):
    """The demo's labels and interval points, layer by layer, at the current precision."""
    triples = sorted(d.as_tuple() for d in C.directions)
    axis_unit = _iv_unit(g.axis.as_tuple())
    theta = _iv_number(g.angle)
    base = [_iv_unit(t) for t in triples]
    layers = [base]
    for i in range(1, M + 1):
        ti = theta * i
        cos_t, sin_t = mpmath.iv.cos(ti), mpmath.iv.sin(ti)
        layers.append([_iv_rotate(axis_unit, cos_t, sin_t, p) for p in base])
    labels = [(i, t) for i in range(M + 1) for t in triples]
    return labels, [p for layer in layers for p in layer]


def _absorb_demo_all_pairs(C, g, M):
    collision = None
    unresolved = None
    min_low = None
    with interval_precision(g.precision_bits):
        labels, points = _demo_points(C, g, M)
        checked = 0
        for ia in range(len(points)):
            for ib in range(ia + 1, len(points)):
                d2 = _iv_dist2(points[ia], points[ib])
                checked += 1
                if d2.a > 0:
                    if min_low is None or d2.a < min_low:
                        min_low = d2.a
                    continue
                pair = (labels[ia], labels[ib])
                if d2.b < SEPARATION_RESOLUTION**2:
                    collision = pair
                    break
                unresolved = pair
            if collision is not None:
                break
        separation = 0.0 if min_low is None else _shrink_lower(math.sqrt(float(mpmath.mpf(min_low.a))))
    outcome = "fail" if collision is not None else "inconclusive" if unresolved is not None else "pass"
    return AbsorbReport(
        powers=M,
        precision_bits=g.precision_bits,
        n_points=len(labels),
        min_separation=separation,
        collision=collision,
        unresolved=unresolved,
        outcome=outcome,
        pairs_checked=checked,
    )


def _assert_same_report(fast, slow):
    # Every field but the work count; without a collision to stop at, the
    # all-pairs loop computes every pair, so the sweep can only compute fewer.
    assert dataclasses.replace(fast, pairs_checked=0) == dataclasses.replace(slow, pairs_checked=0)
    if slow.collision is None:
        assert fast.pairs_checked <= slow.pairs_checked


def _control_pairs(C):
    """Every pair of C whose integer representatives have equal length: the half-turn controls."""
    triples = C.sorted_triples()
    return [
        (p, q)
        for i, p in enumerate(triples)
        for q in triples[i + 1 :]
        if sum(x * x for x in p) == sum(x * x for x in q)
    ]


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("start_bits", [2, 128])
def test_sweep_matches_all_pairs_for_searched_rotations(depth, start_bits):
    # From 2 bits the search certifies at 4 or 8, where the interval widths,
    # and so the slack in the sweep's stop rule, are large.
    C = fixed_directions(depth)
    for M in range(1, 6):
        g = find_absorbing_rotation_adaptive(C, M, start_bits=start_bits)
        margin = certify_margin(g.axis, g.angle, C.directions, M, g.precision_bits)
        assert margin == g.margin == _certify_margin_all_pairs(g.axis, g.angle, C.directions, M, g.precision_bits)
        _assert_same_report(absorb_demo(C, g, M), _absorb_demo_all_pairs(C, g, M))


def test_sweep_matches_all_pairs_when_inconclusive():
    C = fixed_directions(1)
    g = find_absorbing_rotation_adaptive(C, 2, start_bits=2)
    fast, slow = absorb_demo(C, g, 2), _absorb_demo_all_pairs(C, g, 2)
    assert fast.outcome == "inconclusive"
    _assert_same_report(fast, slow)


@pytest.mark.parametrize("bits", [2, 4, 128])
def test_certify_margin_matches_all_pairs_over_every_candidate(bits):
    C = fixed_directions(2)
    results = set()
    for axis in axis_candidates(C.directions):
        for angle in ANGLE_CANDIDATES:
            fast = certify_margin(axis, angle, C.directions, 1, bits)
            assert fast == _certify_margin_all_pairs(axis, angle, C.directions, 1, bits), (axis, angle)
            results.add(fast is None)
    # Nothing certifies at 2 bits, some rotations do at 4, all at 128.
    assert results == {2: {True}, 4: {True, False}, 128: {False}}[bits]


def test_certify_margin_matches_all_pairs_where_the_slack_decides():
    # At 6 bits the point intervals are wide enough that a stop rule without
    # the slack would skip the pair that sets this margin, and report more.
    C = fixed_directions(3)
    axis = ProjectiveDirection.canonical(1, 0, 0)
    margin = certify_margin(axis, Fraction(1, 2), C.directions, 1, 6)
    assert margin == _certify_margin_all_pairs(axis, Fraction(1, 2), C.directions, 1, 6)


def _half_turn_collides(axis, first, second):
    """Exact: the half turn R = 2nn^T/|n|^2 - I about ``axis`` has R^i unit(p) = R^j unit(q).

    With S = |n|^2 R an integer matrix, R^i p and R^j q scale to the integer
    vectors S^i p |n|^(2j) and S^j q |n|^(2i); the unit vectors agree iff
    those are parallel and point the same way.
    """
    n2 = sum(c * c for c in axis)
    S = [[2 * axis[r] * axis[c] - (n2 if r == c else 0) for c in range(3)] for r in range(3)]

    def power(k, v):
        for _ in range(k):
            v = tuple(sum(S[r][c] * v[c] for c in range(3)) for r in range(3))
        return v

    (i, p), (j, q) = first, second
    a = tuple(x * n2**j for x in power(i, p))
    b = tuple(x * n2**i for x in power(j, q))
    cross = (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])
    return cross == (0, 0, 0) and sum(x * y for x, y in zip(a, b)) > 0


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_half_turn_controls_collide_exactly_and_match_all_pairs(depth):
    C = fixed_directions(depth)
    pairs = _control_pairs(C)
    assert len(pairs) == {1: 1, 2: 3, 3: 39}[depth]
    for p, q in pairs:
        bad = corrupted_rotation(p, q)
        for M in (1, 2):
            fast = absorb_demo(C, bad, M)
            _assert_same_report(fast, _absorb_demo_all_pairs(C, bad, M))
            assert fast.outcome == "fail"
            assert _half_turn_collides(bad.axis.as_tuple(), *fast.collision), (p, q, M, fast.collision)


def test_half_turn_oracle_rejects_a_near_miss():
    axis = (1, 1, 1)
    assert _half_turn_collides(axis, (0, (2, 1, 0)), (1, (0, 1, 2)))
    assert _half_turn_collides(axis, (0, (2, 1, 0)), (2, (2, 1, 0)))
    assert not _half_turn_collides(axis, (0, (2, 1, 0)), (1, (2, 1, 0)))
    assert not _half_turn_collides(axis, (0, (2, 1, 0)), (1, (0, -1, -2)))  # antipodal


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_skip_rule_lower_bound_holds_for_every_pair(depth):
    # A pair is skipped when gap_low^2 - slack reaches the current minimum;
    # that is sound only if every pair's interval lower bound is at least it.
    C = fixed_directions(depth)
    n = len(C)
    rotations = [
        find_absorbing_rotation_adaptive(C, 2),
        find_absorbing_rotation_adaptive(C, 2, start_bits=2),
        corrupted_rotation(*_control_pairs(C)[0]),
    ]
    for g in rotations:
        with interval_precision(g.precision_bits):
            labels, points = _demo_points(C, g, 2)
            axis_unit = _iv_unit(g.axis.as_tuple())
            heights = [_iv_height(axis_unit, points[k]) for k in range(n)]
            slack = mpmath.iv.make_mpf(sphere._distance_slack(_ends(points), g.precision_bits))
            for ia in range(len(points)):
                for ib in range(ia + 1, len(points)):
                    gap2 = (heights[ia % n] - heights[ib % n]) ** 2
                    assert _iv_dist2(points[ia], points[ib]).a >= (gap2 - slack).a, (g, labels[ia], labels[ib])


def test_latitude_key_orders_heights():
    axis = (1, 2, 2)
    triples = sorted(fixed_directions(3).sorted_triples(), key=lambda t: _latitude_key(t, axis))
    with interval_precision(128):
        unit = _iv_unit(axis)
        heights = [_iv_height(unit, _iv_unit(t)) for t in triples]
    for lower, upper in zip(heights, heights[1:]):
        assert lower.a <= upper.b
    assert _latitude_key((0, 0, -2), (0, 0, 1)) == -1
    assert _latitude_key((1, 0, 0), (0, 0, 1)) == 0
    assert _latitude_key((0, 1, 1), (0, 0, 1)) == Fraction(1, 2)


def test_distance_slack_is_derived_from_widths_and_precision():
    # Exact points: only the rounding of the difference, square and sum is
    # left, 7*(2u*2) + 12u = 40u with u = 2^(1 - bits).
    exact = [(mpmath.iv.mpf(1), mpmath.iv.mpf(0), mpmath.iv.mpf(0))]
    with interval_precision(128):
        assert float(mpmath.iv.make_mpf(sphere._distance_slack(_ends(exact), 128))) == 80 * 2.0**-128
    # The demo's points at depth 2, M=3: pinned, and above the observed
    # shortfall of each 128-bit lower bound below a 512-bit enclosure.
    C = fixed_directions(2)
    g = find_absorbing_rotation_adaptive(C, 3)
    with interval_precision(128):
        _, points = _demo_points(C, g, 3)
        slack = mpmath.iv.make_mpf(sphere._distance_slack(_ends(points), 128))
        lows = [_iv_dist2(points[a], points[b]).a for a in range(len(points)) for b in range(a + 1, len(points))]
    assert float(slack) == pytest.approx(7.2880649750981825e-37, rel=1e-12, abs=0)
    with interval_precision(512):
        _, fine = _demo_points(C, g, 3)
        exact_d2 = [_iv_dist2(fine[a], fine[b]) for a in range(len(fine)) for b in range(a + 1, len(fine))]
        shortfall = max((d.b - low).b for d, low in zip(exact_d2, lows))
    assert 0 < shortfall <= slack


def test_demo_reports_the_pairs_it_checked():
    C = fixed_directions(4)
    g = find_absorbing_rotation_adaptive(C, 3)
    demo = absorb_demo(C, g, 3)
    assert demo.outcome == "pass"
    assert demo.n_points * (demo.n_points - 1) // 2 == 34716
    assert 0 < demo.pairs_checked < 2000
