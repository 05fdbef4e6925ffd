"""Finite action models, paradox witnesses, and the planar two-piece paradox."""

import math
import tracemalloc
from array import array
from bisect import bisect_left, bisect_right, insort
from dataclasses import replace
from fractions import Fraction
from functools import cache, cmp_to_key

import mpmath
import pytest
from hypothesis import given, strategies as st
from mpmath.libmp import (
    fone,
    from_float,
    from_man_exp,
    mpc_abs,
    mpc_conjugate,
    mpc_mul,
    mpc_sub,
    mpc_sub_mpf,
    mpf_cmp,
    mpf_sub,
    round_nearest,
    to_float,
)

from paradoxlab import paradox
from paradoxlab.errors import DomainError, ModelError, PreconditionError, ResourceLimitError
from paradoxlab.exactlin import DEFAULT_GENERATORS
from paradoxlab.freeness import build_certificate
from paradoxlab.paradox import (
    FiniteActionModel,
    ParadoxWitness,
    enumerate_polys,
    f2_ball_model,
    orbit_transport,
    poly_str,
    smp_g,
    smp_h,
    smp_verify,
    two_to_one_shift_model,
    verify_paradox_witness,
    _OffGrid,
    _closest_pair_sq,
    _coordinate_error,
    _difference_slack,
    _embed_poly,
    _embed_polys,
    _gh_defect,
    _grid_bits,
    _Kernel,
    _least_differences,
    _mul,
    _planar_kernel,
    _powers,
    _realising_points,
    _rounding_tables,
    _separation_slack,
    _smp_index_maps,
    _smp_poly,
    _to_mpc,
)
from paradoxlab.sphere import SEPARATION_RESOLUTION
from paradoxlab.words import Letter, ReducedWord, ball, ball_size

from oracles import (
    _round,
    apply,
    concat,
    gh_defect_all_pairs,
    least_differences_all_vectors,
    realising_points_all_pairs,
    ref_interior,
    word_matrix,
)

# -- models and witnesses ----------------------------------------------------


def test_model_validation_catches_defects():
    pts = frozenset(range(3))
    ident = {p: p for p in pts}
    with pytest.raises(ModelError):
        FiniteActionModel(points=pts, maps={"x": ident}).validate()  # no identity label
    with pytest.raises(ModelError):
        FiniteActionModel(points=pts, maps={"e": ident, "c": {0: 1, 1: 1, 2: 1}}).validate()
    with pytest.raises(ModelError):
        FiniteActionModel(points=pts, maps={"e": ident, "p": {0: 1}}).validate()  # not total
    FiniteActionModel(points=pts, maps={"e": ident, "p": {0: 1}}, partial=True).validate()


def test_witness_shape_enforced():
    with pytest.raises(ModelError):
        ParadoxWitness(pieces_a=(frozenset({1}),), movers_a=(), pieces_b=(frozenset(),), movers_b=("e",))
    with pytest.raises(ModelError):
        ParadoxWitness(pieces_a=(), movers_a=(), pieces_b=(frozenset(),), movers_b=("e",))


def test_shift_model_witness_passes():
    model, space, witness, interior = two_to_one_shift_model(5)
    report = verify_paradox_witness(model, space, witness, interior=interior)
    assert report.passed
    assert len(space) == 2**6 - 1
    assert len(interior) == 2**5 - 1


def test_shift_model_depth_guard():
    with pytest.raises(ValueError):
        two_to_one_shift_model(0)


def test_f2_ball_model_witness_passes():
    model, space, witness, interior = f2_ball_model(4)
    report = verify_paradox_witness(model, space, witness, interior=interior)
    assert report.passed
    assert len(space) == 161
    assert len(interior) == 53


@pytest.mark.parametrize("depth", range(2, 7))
def test_f2_ball_model_maps_are_left_multiplication_inside_the_ball(depth):
    model, space, _, _ = f2_ball_model(depth)
    for x in Letter:
        action = model.maps[x.symbol]
        for w in space:
            product = concat(ReducedWord((x,)), w)
            if len(product) <= depth:
                assert action[w] == product, (x, w)
            else:
                assert w not in action, (x, w)


def _z4_rotation():
    """Z/4 acting on itself by rotation: a total bijective action with an invariant measure."""
    model = FiniteActionModel(
        points=frozenset(range(4)),
        maps={"e": {i: i for i in range(4)}, "s": {i: (i + 1) % 4 for i in range(4)}},
    )
    witness = ParadoxWitness(
        pieces_a=(frozenset({0}),), movers_a=("e",), pieces_b=(frozenset({3}),), movers_b=("s",)
    )
    return model, witness


def test_derived_interior_equals_the_shipped_interiors():
    # A given interior that differs from the derived one fails the witness check.
    for depth in range(2, 8):
        model, space, witness, interior = f2_ball_model(depth)
        assert ref_interior(model, witness) == interior
        assert verify_paradox_witness(model, space, witness, interior=interior).passed
    for max_len in (1, 3, 6):
        model, space, witness, interior = two_to_one_shift_model(max_len)
        assert ref_interior(model, witness) == interior
        assert verify_paradox_witness(model, space, witness, interior=interior).passed
    cert = build_certificate((0, 1, 0))
    for depth in (2, 4, 5, 7):
        # orbit_transport passes the interior of its word ball; a mismatch would fail it.
        result = orbit_transport(depth, cert)
        assert len(ref_interior(result.model, result.witness)) == ball_size(depth - 1)
        assert result.report.details["interior_size"] == ball_size(depth - 1)
        assert result.passed


def test_derived_interior_of_a_total_action_is_everything():
    model, witness = _z4_rotation()
    assert ref_interior(model, witness) == model.points
    report = verify_paradox_witness(model, model.points, witness, interior=model.points)
    assert report.details["interior_size"] == len(model.points)
    assert not any(f.detail.startswith("the given interior") for f in report.findings)
    with pytest.raises(ModelError, match="'nope'"):
        verify_paradox_witness(model, model.points, replace(witness, movers_b=("nope",)), interior=model.points)


def test_witness_check_rejects_an_interior_the_movers_do_not_give():
    # Z/4 by rotation: {0} is no interior of a total action, so covering fails.
    model, witness = _z4_rotation()
    report = verify_paradox_witness(model, model.points, witness, interior=frozenset({0}))
    failed = {f.name: f.detail for f in report.findings if not f.ok}
    assert set(failed) == {"moved_a_covers", "moved_b_covers"}
    assert "3 point(s) of that range not given ('1', '2', '3')" in failed["moved_a_covers"]
    # An interior bigger than the movers' common range is named too.
    model, space, witness, interior = two_to_one_shift_model(3)
    report = verify_paradox_witness(model, space, witness, interior=space)
    failed = {f.name: f.detail for f in report.findings if not f.ok}
    assert "8 given point(s) outside the movers' common range ('000', '001', '010', ...)" in failed["moved_a_covers"]


def test_disjointness_mutations_rejected():
    # Any overlap between pieces must surface as a failed disjointness finding.
    model, space, witness, interior = f2_ball_model(3)
    some = next(iter(witness.pieces_a[0]))
    for bad in (
        ParadoxWitness(
            pieces_a=(witness.pieces_a[0], witness.pieces_a[0]),
            movers_a=(witness.movers_a[0], witness.movers_a[0]),
            pieces_b=witness.pieces_b,
            movers_b=witness.movers_b,
        ),
        ParadoxWitness(
            pieces_a=witness.pieces_a,
            movers_a=witness.movers_a,
            pieces_b=(witness.pieces_b[0] | {some}, witness.pieces_b[1]),
            movers_b=witness.movers_b,
        ),
    ):
        report = verify_paradox_witness(model, space, bad, interior=interior)
        failed = {f.name for f in report.findings if not f.ok}
        assert "pieces_disjoint" in failed


# -- nonnegative integer polynomials -----------------------------------------


def _stripped(coeffs):
    """Coefficients as a polynomial: a tuple without trailing zeros."""
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def _class_a(p):
    return not p or not p[0]  # zero constant term


def test_poly_classification():
    # class A (zero constant term) is g's domain, class B h's
    for p in ((), (0, 1)):
        assert _class_a(p) and smp_g(p) == p[1:]
        with pytest.raises(DomainError):
            smp_h(p)
    assert not _class_a((2, 1)) and smp_h((2, 1)) == (1, 1)
    with pytest.raises(DomainError):
        smp_g((2, 1))


def test_poly_str():
    assert [poly_str(p) for p in ((), (1,), (0, 1), (1, 2, 0, 1), (0, 0, 3))] == [
        "0",
        "1",
        "1x^1",
        "1 + 2x^1 + 1x^3",
        "3x^2",
    ]


def test_smp_maps_enforce_domains():
    with pytest.raises(DomainError):
        smp_g((1,))
    with pytest.raises(DomainError):
        smp_h((0, 1))


def test_enumerate_polys_count():
    polys = enumerate_polys(4, 2)
    assert len(polys) == 3**5
    assert len(set(polys)) == len(polys)


def test_smp_verify_small():
    report = smp_verify(4, 2, 128)
    assert report.outcome == "pass"
    assert report.total == 3**5
    assert report.count_a + report.count_b == report.total
    assert report.min_distance > 1e-12


def test_smp_verify_guards():
    with pytest.raises(ValueError):
        smp_verify(0, 2, 128)
    with pytest.raises(ValueError):
        smp_verify(4, 2, 32)
    with pytest.raises(ValueError):
        smp_verify(4, 2, 1025)


def test_smp_point_cap_is_checked_before_enumerating(monkeypatch):
    # Below the default precision the cap does not grow past enumerate_polys's;
    # above it, it shrinks in proportion to the bits.
    with pytest.raises(ResourceLimitError, match=r"^2\^21 polynomials exceed the configured cap 1048576 at 64 bits$"):
        smp_verify(20, 1, 64)
    with pytest.raises(ResourceLimitError, match=r"^4\^9 polynomials exceed the configured cap 131072 at 1024 bits$"):
        smp_verify(8, 3, 1024)
    monkeypatch.setattr(paradox, "SMP_POINT_CAP", 3**5)
    assert smp_verify(4, 2, 128).total == 3**5
    with pytest.raises(ResourceLimitError, match=r"3\^6 polynomials exceed the configured cap 243 at 128 bits$"):
        smp_verify(5, 2, 128)
    with pytest.raises(ResourceLimitError):
        smp_verify(4, 3, 128)
    # The clamped exponent alone rules this out; 2^(10^9) is never computed.
    with pytest.raises(ResourceLimitError):
        smp_verify(10**9, 1, 128)


#: Bound on the tracemalloc peak of smp_verify(6, 3), in bytes per point.  The
#: grid embedding is two int columns, re and im, and the run peaks while it
#: builds them: 167-177 B per point with Python 3.11, the first call in a
#: process reading highest.  Only the 2,808 points that realise the least
#: difference are converted to floats; holding float arrays of every point
#: with the columns took 173-183, grid points as (re, im) tuples 223-241, and
#: holding the enumeration, the grid points, float pairs and sorted sweep
#: tuples at once about 520.  The bound keeps the 27 B margin it had over 183.
SMP_PEAK_BYTES_PER_POINT = 204


def test_smp_verify_peak_memory_per_point():
    tracemalloc.start()
    try:
        report = smp_verify(6, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed and report.total == 4**7
    assert peak / report.total < SMP_PEAK_BYTES_PER_POINT


#: Bound on the tracemalloc peak of smp_verify(6, 3, 1024), in bytes per point.
#: ``SMP_POINT_CAP`` shrinks in proportion to the bits above the default on the
#: premise that a point costs about 670 B at 1024 bits; the first call in a
#: process read 677.  The bound keeps SMP_PEAK_BYTES_PER_POINT's relative
#: margin, 204 over 177, so a constant of a megabyte or two fits under it and
#: a rise per point does not.
SMP_PEAK_BYTES_PER_POINT_1024 = 780


def test_smp_verify_peak_memory_per_point_at_1024_bits():
    tracemalloc.start()
    try:
        report = smp_verify(6, 3, 1024)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed and report.total == 4**7
    assert peak / report.total < SMP_PEAK_BYTES_PER_POINT_1024


@pytest.mark.parametrize(
    "name,broken",
    [
        ("smp_g", lambda p: p[2:]),  # one power too many
        ("smp_h", lambda p: _stripped((0,) + p[1:])),  # clears the constant
    ],
)
def test_smp_verify_names_a_broken_map(monkeypatch, name, broken):
    monkeypatch.setattr(paradox, name, broken)
    report = smp_verify(3, 2, 128)
    failed = [f.name for f in report.findings if not f.ok]
    assert report.outcome == "fail"
    # the first failing check names the map; a broken forward map also moves the isometry defects
    assert failed[0] == ("g_bijection" if name == "smp_g" else "h_bijection")
    assert set(failed) <= {failed[0], "isometries"}


@pytest.mark.parametrize(
    "max_degree,max_coeff", [(d, c) for d in range(1, 6) for c in range(1, 5)] + [(7, 3)]
)
def test_index_maps_are_the_polynomial_maps(max_degree, max_coeff):
    polys = enumerate_polys(max_degree, max_coeff)
    n_a, g_images, h_images = _smp_index_maps(max_degree, max_coeff)
    for i, p in enumerate(polys):
        if _class_a(p):
            assert i < n_a and smp_g(p) == polys[g_images[i]]
        else:
            assert i >= n_a and smp_h(p) == polys[h_images[i - n_a]]


@pytest.mark.parametrize(
    "max_degree,max_coeff", [(d, c) for d in range(1, 6) for c in range(1, 5)] + [(7, 3)]
)
def test_index_decoder_is_the_enumeration(max_degree, max_coeff):
    # smp_verify names its closest pair by decoding two indices, not by keeping the enumeration
    polys = enumerate_polys(max_degree, max_coeff)
    assert [_smp_poly(i, max_degree, max_coeff) for i in range(len(polys))] == list(polys)


@pytest.mark.parametrize("shift", [1, -1])
@pytest.mark.parametrize("side", ["g", "h"])
def test_smp_verify_rejects_an_off_by_one_index_map(monkeypatch, side, shift):
    closed_form = _smp_index_maps

    def off_by_one(max_degree, max_coeff):
        n_a, g_images, h_images = closed_form(max_degree, max_coeff)
        if side == "g":
            g_images = range(g_images.start + shift, g_images.stop + shift, g_images.step)
        else:
            h_images = range(h_images.start + shift, h_images.stop + shift)
        return n_a, g_images, h_images

    monkeypatch.setattr(paradox, "_smp_index_maps", off_by_one)
    report = smp_verify(3, 2, 128)
    failed = [f.name for f in report.findings if not f.ok]
    assert report.outcome == "fail"
    assert failed[0] == f"{side}_bijection"


def test_polys_are_canonical_coefficient_tuples():
    # every tuple enumerate_polys, smp_g and smp_h return holds nonnegative ints and has no trailing zero
    polys = enumerate_polys(4, 3)
    built = list(polys) + [smp_g(p) if _class_a(p) else smp_h(p) for p in polys]
    for p in built:
        assert type(p) is tuple and all(type(c) is int and c >= 0 for c in p) and p == _stripped(p)


@cache
def _per_polynomial_embedding(max_degree, max_coeff, bits):
    # the slow route: sum each polynomial on its own with mpmath.mpc
    with mpmath.workprec(bits):
        t = mpmath.exp(mpmath.mpc(0, 1))
        powers = [mpmath.mpc(1)]
        for _ in range(max_degree):
            powers.append(powers[-1] * t)
        embeds = []
        for p in enumerate_polys(max_degree, max_coeff):
            acc = mpmath.mpc(0)
            for k, c in enumerate(p):
                if c:
                    acc += c * powers[k]
            embeds.append(acc._mpc_)
    return t._mpc_, embeds


def _embedding(max_degree, max_coeff, bits):
    # the kernel smp_verify builds for the shape, and the two columns it embeds
    kernel = _planar_kernel(max_degree, max_coeff, bits)
    return (kernel, *_embed_polys(kernel, max_degree, max_coeff))


def _kernel_embedding(max_degree, max_coeff, bits):
    # the kernel's grid values, converted exactly to raw libmp tuples
    grid = _grid_bits(bits)
    kernel, re, im = _embedding(max_degree, max_coeff, bits)
    return _to_mpc(kernel.t, grid), [_to_mpc(z, grid) for z in zip(re, im)]


# (4, 3, 1024) runs on grid 2048; (2, 15, 128) has wide coefficients; (1, 200, 128)'s widest
# column value is as long as _embed_polys's rounding tables reach, 265 bits
@pytest.mark.parametrize(
    "max_degree,max_coeff,bits", [(3, 2, 64), (4, 4, 128), (5, 2, 256), (1, 200, 128), (4, 3, 1024), (2, 15, 128)]
)
def test_shared_prefix_embedding_matches_per_polynomial_sums(max_degree, max_coeff, bits):
    assert _kernel_embedding(max_degree, max_coeff, bits) == _per_polynomial_embedding(max_degree, max_coeff, bits)


@pytest.mark.parametrize("max_degree,max_coeff,bits", [(3, 2, 64), (4, 4, 128), (5, 2, 256), (1, 200, 128), (4, 3, 1024)])
def test_one_polynomial_embeds_as_in_the_shared_prefix_sums(max_degree, max_coeff, bits):
    # smp_verify sums its closest pair's two points again after freeing the grid points
    kernel, re, im = _embedding(max_degree, max_coeff, bits)
    assert [_embed_poly(p, kernel) for p in enumerate_polys(max_degree, max_coeff)] == list(zip(re, im))


def _ties(prec):
    # ints exactly half-way between two prec-bit neighbours: a kept part, a
    # half bit, then s - 1 zero bits; both parities of the kept part
    return st.builds(
        lambda kept, s, negative: (-1 if negative else 1) * ((((1 << (prec - 1)) | kept) << s) | (1 << (s - 1))),
        st.integers(min_value=0, max_value=(1 << (prec - 1)) - 1),
        st.integers(min_value=1, max_value=300),
        st.booleans(),
    )


@given(
    st.sampled_from([64, 96, 128, 256]).flatmap(
        lambda prec: st.tuples(st.just(prec), st.integers(min_value=-(1 << 700), max_value=1 << 700) | _ties(prec))
    )
)
def test_round_matches_libmp_round_nearest(case):
    prec, v = case
    assert from_man_exp(_round(v, prec), 0) == from_man_exp(v, 0, prec, round_nearest)


def test_round_breaks_ties_to_even():
    # 3-bit neighbours of 0b10010 (18) are 16 and 20; of 0b10110 (22), 20 and 24
    assert [_round(v, 3) for v in (18, 22, -18, -22, 19, -19, 17)] == [16, 24, -16, -24, 20, -20, 16]


@st.composite
def _in_the_tables(draw):
    # (prec, top, v) with v of any bit length from 0 to top, tops past the grid of 2*prec bits as
    # _embed_polys's are: any such value, or, past prec bits, a tie with an odd or even kept part.
    prec = draw(st.sampled_from([64, 128, 1024]))
    top = 2 * prec + draw(st.integers(min_value=1, max_value=40))
    n = draw(st.integers(min_value=0, max_value=top))
    if n > prec and draw(st.booleans()):
        s = n - prec
        kept = 2 * draw(st.integers(min_value=0, max_value=(1 << (prec - 2)) - 1)) + draw(st.sampled_from([0, 1]))
        magnitude = (((1 << (prec - 1)) | kept) << s) | (1 << (s - 1))
    elif n:
        magnitude = (1 << (n - 1)) | draw(st.integers(min_value=0, max_value=(1 << (n - 1)) - 1))
    else:
        magnitude = 0
    return prec, top, -magnitude if draw(st.booleans()) else magnitude


@given(_in_the_tables())
def test_rounding_tables_round_as_round_does(case):
    # the rounding _embed_polys's plus writes out, on every table entry
    prec, top, v = case
    half, odd, keep = _rounding_tables(prec, top)
    assert len(half) == len(odd) == len(keep) == top + 1
    n = v.bit_length()
    assert (v + half[n] + ((v & odd[n]) != 0)) & keep[n] == _round(v, prec)


def _trailing_zeros(c):
    return (c & -c).bit_length() - 1


@pytest.mark.parametrize("max_degree,max_coeff", [(7, 3), (1, 200)])
@pytest.mark.parametrize("bits", [64, 128, 1024])
def test_kernel_rounder_matches_round_at_every_bit_length(max_degree, max_coeff, bits):
    # The tables span a column value's bit length top = F + bitlen(m + 1), plus the narrowed unit's
    # U bits and two: a product by the unit, and a difference of one and a column value, stay
    # within.  At each length: the ends, a value between, and ties with an even and an odd kept
    # part past prec bits, of both signs.
    kernel = _planar_kernel(max_degree, max_coeff, bits)
    top = kernel.grid + (max_coeff * (max_degree + 1) + 1).bit_length()
    assert kernel.shift == kernel.grid - min(map(_trailing_zeros, kernel.t))
    span = top + max(c.bit_length() for c in kernel.unit) + 2
    assert all(len(table) == span + 1 for table in kernel.tables)
    for n in range(1, span + 1):
        values = [1 << (n - 1), (1 << n) - 1, (1 << (n - 1)) | 0x5A5A5A5A5A5A5A5A5A5A5A5A % (1 << (n - 1))]
        if n > bits:
            s = n - bits
            values += [(((1 << (bits - 1)) | kept) << s) | (1 << (s - 1)) for kept in (2, 3)]
        for v in values + [-v for v in values]:
            assert v.bit_length() == n
            assert kernel.round(v) == _round(v, bits), (n, v)
    assert kernel.round(0) == 0
    with pytest.raises(IndexError):
        kernel.round(1 << (span + 1))


@pytest.mark.parametrize("unit", ["uneven", "one"])
@pytest.mark.parametrize("bits", [64, 128, 1024])
def test_gh_defect_on_a_narrowed_unit_matches_the_all_pairs_oracle(bits, unit):
    # A unit whose two components have different numbers of zero low bits, so one keeps zero low
    # bits after the strip, and (one, 0), whose zero component has none to give: t = e^i with the
    # lowest set bit of its real part cleared, and the identity rotation.
    kernel, re, im = _embedding(4, 3, bits)
    t = kernel.t
    u = (t[0] & (t[0] - 1), t[1]) if unit == "uneven" else (1 << kernel.grid, 0)
    if unit == "uneven":
        assert _trailing_zeros(u[0]) != _trailing_zeros(u[1])
    narrowed = _Kernel(u, bits, 3 * (4 + 1))
    n_a, g_images, h_images = _smp_index_maps(4, 3)
    g_map, h_map = (range(n_a), g_images), (range(n_a, len(re)), h_images)
    expected = gh_defect_all_pairs(u, re, im, zip(*g_map), zip(*h_map), bits)
    assert _gh_defect(narrowed, re, im, g_map, h_map) == expected
    assert _gh_defect(narrowed, re, im, g_map, ([], [])) == gh_defect_all_pairs(u, re, im, zip(*g_map), [], bits)


def _normal_results(grid):
    # grid values whose floats are zero or normal (at least 2^-1000, below 2^20); 2048 is the grid of 1024 bits
    return st.integers(min_value=-(1 << (grid + 20)), max_value=1 << (grid + 20)).filter(
        lambda v: v == 0 or v.bit_length() > grid - 1000
    )


def _to_float(v, grid):
    # libmp's float of the grid value v, v * 2^-grid rounded to nearest with ties to even
    return to_float(from_man_exp(v, -grid), rnd=round_nearest)


def _to_floats(re, im, grid):
    # grid columns as two float arrays, x and y, by the conversion _smp_numeric makes: one exact int division
    one = 1 << grid
    return array("d", (v / one for v in re)), array("d", (v / one for v in im))


@given(st.sampled_from([128, 256, 512, 2048]).flatmap(lambda grid: st.tuples(st.just(grid), _normal_results(grid))))
def test_float_conversion_matches_to_float(case):
    grid, v = case
    assert (v / (1 << grid), -v / (1 << grid)) == (_to_float(v, grid), _to_float(-v, grid))


def _nearest_float(v, grid, f):
    # f is the float nearest v * 2^-grid, by exact Fractions, with an even significand on a tie
    x = Fraction(v, 1 << grid)
    error = abs(x - Fraction(f))
    neighbours = [abs(x - Fraction(math.nextafter(f, side))) for side in (-math.inf, math.inf)]
    return all(error < e or (error == e and abs(f) / math.ulp(f) % 2 == 0) for e in neighbours)


def test_float_conversion_by_int_division_equals_to_float():
    bits = 128
    grid = _grid_bits(bits)
    _, re, im = _embedding(6, 3, bits)
    assert [v / (1 << grid) for v in re + im] == [_to_float(v, grid) for v in re + im]
    cases = []
    # ties and near-ties of rounding to 53 bits, in odd values wider than 53 bits, at several scales,
    # on the grids of 128 and 1024 bits
    ties = [(1 << 53) + 1, (1 << 53) + 3, (1 << 54) + 2, (1 << 70) + (1 << 17), (1 << 70) + (1 << 17) + 1, (1 << 70) + 1]
    for grid in (_grid_bits(bits), 2048):
        values = [v << shift for v in ties for shift in (0, grid - 60, grid - 53, grid)] + [1, 1 << grid, 0]
        cases += [(grid, v) for v in values]
    # 2^-1022 is the smallest normal float; past 2^1024, v is an int too wide for a float
    subnormal_tie = (1 << 55) + (1 << 25) + 1
    cases += [(1022, 1), (1022, 3), (1024, 1), (1100, subnormal_tie), (1100, 3 << 1099), (1000, (1 << 1030) + 1)]
    cases += [(1000, v) for v in (3, 7 << 990, 5, 9)]
    for grid, v in cases:
        for w in (v, -v):
            f = w / (1 << grid)
            assert _nearest_float(w, grid, f)
            if f == 0 or abs(f) >= 2.0**-1022:
                assert f == _to_float(w, grid)
    # Among subnormals, rounding v to 53 bits first and scaling after rounds twice, as
    # to_float and ldexp do: at grid 1100, 2^55 + 2^25 + 1 lands on 2^55 * 2^-1100.
    assert _to_float(subnormal_tie, 1100) == math.ldexp(subnormal_tie, -1100) == 2.0**-1045
    assert subnormal_tie / (1 << 1100) == 2.0**-1045 + 2.0**-1074


@pytest.mark.parametrize("max_degree,max_coeff,bits", [(4, 3, 128), (1, 200, 128), (3, 2, 64)])
def test_float_conversion_of_the_embedding_matches_to_float(max_degree, max_coeff, bits):
    _, re, im = _embedding(max_degree, max_coeff, bits)
    _, reference = _per_polynomial_embedding(max_degree, max_coeff, bits)
    assert list(zip(*_to_floats(re, im, _grid_bits(bits)))) == [
        (to_float(x, rnd=round_nearest), to_float(y, rnd=round_nearest)) for x, y in reference
    ]


@pytest.mark.parametrize("sides", ["g", "h", "gh"])
# at (3, 4, 64) the h side's largest defect needs the rounded translation
@pytest.mark.parametrize(
    "max_degree,max_coeff,bits", [(4, 3, 128), (1, 200, 128), (3, 4, 64), (4, 3, 1024), (2, 15, 128)]
)
def test_gh_defect_argmax_matches_the_max_over_pairs(max_degree, max_coeff, bits, sides):
    # the old route: one rounded multiply (or subtract), mpc_sub and mpc_abs per pair
    prec, rnd = bits, round_nearest
    t, lib = _per_polynomial_embedding(max_degree, max_coeff, bits)
    t_inv = mpc_conjugate(t, prec, rnd)
    polys = enumerate_polys(max_degree, max_coeff)
    index = {p: i for i, p in enumerate(polys)}
    g_pairs = [(p, smp_g(p)) for p in polys if _class_a(p)] if "g" in sides else []
    h_pairs = [(p, smp_h(p)) for p in polys if not _class_a(p)] if "h" in sides else []
    defects = [
        mpc_abs(mpc_sub(lib[index[q]], mpc_mul(t_inv, lib[index[p]], prec, rnd), prec, rnd), prec, rnd)
        for p, q in g_pairs
    ]
    defects += [
        mpc_abs(mpc_sub(lib[index[q]], mpc_sub_mpf(lib[index[p]], fone, prec, rnd), prec, rnd), prec, rnd)
        for p, q in h_pairs
    ]
    expected = max(defects, key=cmp_to_key(mpf_cmp))
    assert mpf_cmp(expected, from_man_exp(0, 0)) > 0
    kernel, re, im = _embedding(max_degree, max_coeff, bits)
    assert (
        _gh_defect(
            kernel,
            re,
            im,
            ([index[p] for p, _ in g_pairs], [index[q] for _, q in g_pairs]),
            ([index[p] for p, _ in h_pairs], [index[q] for _, q in h_pairs]),
        )
        == expected
    )


@pytest.mark.parametrize("column", ["re", "im"])
def test_gh_defect_sees_a_fault_on_an_exact_h_pair(column):
    # Moving the image of an exactly translated h pair by one grid unit, on
    # either part, makes that pair's defect 2^-grid; the exactness filter must
    # still select it.
    bits = 128
    grid = _grid_bits(bits)
    kernel, re, im = _embedding(4, 3, bits)
    t = kernel.t
    n_a, g_images, h_images = _smp_index_maps(4, 3)
    h_domain = range(n_a, len(re))
    exact = [(i, j) for i, j in zip(h_domain, h_images) if re[i] - re[j] == 1 << grid and im[i] == im[j]]
    assert 0 < len(exact) < len(h_domain)
    exact_map = ([i for i, _ in exact], [j for _, j in exact])
    no_pairs = ([], [])
    zero, unit = (mpc_abs(_to_mpc(z, grid), bits, round_nearest) for z in ((0, 0), (1, 0)))
    assert _gh_defect(kernel, re, im, no_pairs, exact_map) == gh_defect_all_pairs(t, re, im, [], exact, bits) == zero
    _, j = exact[len(exact) // 2]
    (re if column == "re" else im)[j] += 1
    assert gh_defect_all_pairs(t, re, im, [], exact, bits) == unit
    assert _gh_defect(kernel, re, im, no_pairs, exact_map) == unit
    # over both maps, the faulted columns give the oracle's defect
    g_map, h_map = (range(n_a), g_images), (h_domain, h_images)
    assert _gh_defect(kernel, re, im, g_map, h_map) == gh_defect_all_pairs(t, re, im, zip(*g_map), zip(*h_map), bits)


@pytest.mark.parametrize("max_degree,max_coeff,bits", [(4, 3, 128), (1, 200, 128), (3, 4, 64), (2, 15, 128)])
def test_gh_defect_matches_the_all_pairs_oracle(max_degree, max_coeff, bits):
    kernel, re, im = _embedding(max_degree, max_coeff, bits)
    n_a, g_images, h_images = _smp_index_maps(max_degree, max_coeff)
    g_map, h_map = (range(n_a), g_images), (range(n_a, len(re)), h_images)
    for g, h in ((g_map, h_map), (g_map, ([], [])), (([], []), h_map)):
        assert _gh_defect(kernel, re, im, g, h) == gh_defect_all_pairs(kernel.t, re, im, zip(*g), zip(*h), bits)


def test_gh_defect_rounds_a_difference_wider_than_prec_bits():
    # With t = 1 at 64 bits, g leaves point 0 where it is and h moves it by -1; point 1 then lies
    # (dx, dy) grid units away, 70 bits each.  Rounded to 64 bits, dx rises to 2^69 + 64 and dy, a
    # tie with an odd kept part, to 2^69 + 512.  Leaving either part unrounded changes the defect.
    bits = 64
    grid = _grid_bits(bits)
    one = 1 << grid
    dx, dy = (1 << 69) + 33, (1 << 69) + 480
    rounded = (_round(dx, bits), _round(dy, bits))
    assert rounded == ((1 << 69) + 64, (1 << 69) + 512)
    expected, *unrounded = (
        mpc_abs(_to_mpc(z, grid), bits, round_nearest) for z in (rounded, (dx, rounded[1]), (rounded[0], dy))
    )
    assert expected not in unrounded
    pair, none = (range(0, 1), range(1, 2)), ([], [])
    for g, h, re in ((pair, none, [0, dx]), (none, pair, [one, dx])):
        im = [0, dy]
        defect = _gh_defect(_Kernel((one, 0), bits, 1), re, im, g, h)
        assert defect == gh_defect_all_pairs((one, 0), re, im, zip(*g), zip(*h), bits) == expected


def _reference_closest_pair_sq(points):
    # the sweep as it was before it sorted (x, y, i) tuples once and kept sqrt(best)
    order = sorted(range(len(points)), key=lambda i: points[i])
    best = math.inf
    pair = (-1, -1)
    active: list[tuple[float, float, int]] = []  # (y, x, index), sorted
    left = 0
    for pos, idx in enumerate(order):
        x, y = points[idx]
        d = math.sqrt(best) if best < math.inf else math.inf
        while left < pos and points[order[left]][0] < x - d:
            old = order[left]
            ox, oy = points[old]
            del active[bisect_left(active, (oy, ox, old))]
            left += 1
        if best == math.inf:
            window = list(active)
        else:
            window = active[bisect_left(active, (y - d,)) : bisect_right(active, (y + d,))]
        for cy, cx, cidx in window:
            dsq = (x - cx) ** 2 + (y - cy) ** 2
            if dsq < best:
                best = dsq
                pair = (cidx, idx)
        insort(active, (y, x, idx))
    return best, pair


@pytest.mark.parametrize("max_degree,max_coeff,bits", [(3, 2, 128), (6, 3, 64), (7, 3, 128), (1, 200, 128), (3, 4, 64)])
def test_closest_pair_matches_the_reference_sweep_on_the_embedding(max_degree, max_coeff, bits):
    _, re, im = _embedding(max_degree, max_coeff, bits)
    xs, ys = _to_floats(re, im, _grid_bits(bits))
    assert _closest_pair_sq(xs, ys) == _reference_closest_pair_sq(list(zip(xs, ys)))


# small integer coordinates: repeated points and equal distances are common
@given(st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)).map(lambda p: (float(p[0]), float(p[1]))), max_size=60))
def test_closest_pair_matches_the_reference_sweep_on_lattice_points(points):
    xs, ys = array("d", [x for x, _ in points]), array("d", [y for _, y in points])
    assert _closest_pair_sq(xs, ys) == _reference_closest_pair_sq(list(zip(xs, ys)))


@pytest.mark.parametrize("max_degree,max_coeff,bits", [(1, 40, 128), (2, 15, 128), (1, 1, 64)])
def test_closest_pair_matches_the_reference_sweep_on_lattice_shapes(max_degree, max_coeff, bits):
    # few powers and many coefficients: the points form a skewed lattice with many near-equal distances
    _, re, im = _embedding(max_degree, max_coeff, bits)
    xs, ys = _to_floats(re, im, _grid_bits(bits))
    assert _closest_pair_sq(xs, ys) == _reference_closest_pair_sq(list(zip(xs, ys)))


def test_closest_pair_matches_the_reference_sweep_on_a_long_vertical_run():
    # 200 points on x = 0.5 at y a permuted multiple of 1/4, so every neighbour on the line is 1/4
    # away, with points off the line at 1/4 from two of them: the run must be visited by y, since
    # visiting its first index (y = 12.5) first would meet (0.25, 12.5) before (0.25, 0)
    line = [(0.5, ((k * 97 + 50) % 200) * 0.25) for k in range(200)]
    points = [(0.0, 3.0), (0.25, 12.5), (1.0, 7.25)] + line + [(0.75, 20.0), (0.25, 0.0)]
    xs, ys = array("d", [x for x, _ in points]), array("d", [y for _, y in points])
    found = _closest_pair_sq(xs, ys)
    assert found == _reference_closest_pair_sq(points) == (0.0625, (len(points) - 1, 3 + line.index((0.5, 0.0))))
    # every fifth point of the line again: the first repeat met gives distance 0
    points += [(0.5, k * 0.25) for k in range(0, 200, 5)]
    xs, ys = array("d", [x for x, _ in points]), array("d", [y for _, y in points])
    found = _closest_pair_sq(xs, ys)
    assert found == _reference_closest_pair_sq(points) and found[0] == 0.0


def test_closest_pair_matches_the_reference_sweep_with_duplicated_points():
    # every point three times, in three orders: the distance is 0 and the first pair met names it
    lattice = [(x, y) for x in (0.0, 1.0, 2.5) for y in (-1.0, 0.75, 3.0)]
    orders = (lattice * 3, lattice[::-1] + lattice + lattice[::2] + lattice[1::2], sorted(lattice * 3, key=lambda p: -p[1]))
    for points in orders:
        xs, ys = array("d", [x for x, _ in points]), array("d", [y for _, y in points])
        found = _closest_pair_sq(xs, ys)
        assert found == _reference_closest_pair_sq(points) and found[0] == 0.0


#: Every (deg, coef) whose (2*coef+1)^(deg+1) difference vectors number at most 50,000.
ORACLE_SHAPES = [
    (d, c) for d in range(1, 10) for c in range(1, 112) if (2 * c + 1) ** (d + 1) <= 50_000
]


def _float_powers(max_degree, max_coeff, bits):
    # the powers of t that _smp_numeric searches, as complex floats
    kernel = _planar_kernel(max_degree, max_coeff, bits)
    return list(map(complex, *_to_floats(*zip(*_powers(kernel, max_degree)), kernel.grid)))


@pytest.mark.parametrize("bits", [64, 128])
@pytest.mark.parametrize("max_degree,max_coeff", ORACLE_SHAPES)
def test_least_difference_matches_every_difference_vector(max_degree, max_coeff, bits):
    powers = _float_powers(max_degree, max_coeff, bits)
    slack = _difference_slack(max_degree, max_coeff, bits)
    least, kept = _least_differences(powers, max_coeff, 2 * slack)
    expected, expected_kept = least_differences_all_vectors(max_degree, max_coeff, 2 * slack)
    assert abs(least - expected) <= slack
    assert kept == expected_kept


@pytest.mark.parametrize("max_degree,max_coeff", ORACLE_SHAPES)
def test_realising_points_match_every_pair(max_degree, max_coeff):
    bits = 128
    powers = _float_powers(max_degree, max_coeff, bits)
    _, kept = _least_differences(powers, max_coeff, 2 * _difference_slack(max_degree, max_coeff, bits))
    assert _realising_points(kept, max_degree, max_coeff) == realising_points_all_pairs(kept, max_degree, max_coeff)


# any differences, of either sign and as many as three, with ends near the box edges or beyond the range
@given(
    st.tuples(st.integers(1, 4), st.integers(1, 3)).flatmap(
        lambda shape: st.tuples(
            st.just(shape),
            st.lists(st.tuples(*[st.integers(-shape[1], shape[1])] * (shape[0] + 1)), max_size=3),
        )
    )
)
def test_realising_points_match_every_pair_for_any_differences(case):
    (max_degree, max_coeff), differences = case
    expected = realising_points_all_pairs(differences, max_degree, max_coeff)
    assert _realising_points(differences, max_degree, max_coeff) == expected


def _sweep_every_point(max_degree, max_coeff, bits):
    # smp_verify's min distance, pair and separation finding as they were before the least-difference
    # search: the closest-pair sweep over every embedded point
    grid = _grid_bits(bits)
    kernel, re, im = _embedding(max_degree, max_coeff, bits)
    best_sq, (i, j) = _closest_pair_sq(*_to_floats(re, im, grid))
    p, q = _smp_poly(i, max_degree, max_coeff), _smp_poly(j, max_degree, max_coeff)
    z, w = (_to_mpc(_embed_poly(r, kernel), grid) for r in (p, q))
    min_distance = to_float(mpc_abs(mpc_sub(z, w, bits, round_nearest), bits, round_nearest), rnd=round_nearest)
    distance = math.sqrt(best_sq)
    separated = distance - _separation_slack(max_degree, max_coeff, bits, distance) > SEPARATION_RESOLUTION
    pair = (poly_str(p), poly_str(q))
    return min_distance, pair, (separated, f"min pairwise distance {min_distance:.6g} between {pair[0]} and {pair[1]}")


# the shapes pinned by sha256 in test_cli.py, and the lattice shapes of the reference sweep's test
@pytest.mark.parametrize(
    "max_degree,max_coeff,bits",
    [(3, 2, 128), (6, 3, 128), (6, 3, 64), (7, 3, 128), (1, 200, 128), (8, 3, 128), (4, 3, 1024), (12, 1, 128),
     (2, 15, 128), (1, 40, 128), (1, 1, 64)],
)
def test_smp_verify_closest_pair_matches_the_sweep_over_every_point(max_degree, max_coeff, bits):
    report = smp_verify(max_degree, max_coeff, bits)
    [separation] = [(f.ok, f.detail) for f in report.findings if f.name == "separation"]
    assert (report.min_distance, report.min_pair, separation) == _sweep_every_point(max_degree, max_coeff, bits)


def test_rescale_with_low_bits_fails_closed():
    grid = _grid_bits(64)
    one = 1 << grid
    # the grid is 2^-128 at 64 bits: 2^-64 squared lies on it, 2^-65 squared does not
    kernel, kernel_65 = _Kernel((1 << (grid - 64), 0), 64, 1), _Kernel((1 << (grid - 65), 0), 64, 1)
    assert _mul((1 << (grid - 64), 0), kernel.unit, kernel) == (1, 0)
    with pytest.raises(_OffGrid, match=r"below the fixed-point grid 2\^-128"):
        _mul((1 << (grid - 65), 0), kernel_65.unit, kernel_65)
    # (2^-128 i) * (1 + 3*2^-128 i) has real part -3*2^-256
    kernel = _Kernel((one, 3), 64, 1)
    with pytest.raises(_OffGrid):
        _mul((0, 1), kernel.unit, kernel)


def test_gh_defect_with_low_bits_fails_closed():
    # _gh_defect rotates by conj(t) through _mul, which checks the grid; point 0 moves onto point 1
    grid = _grid_bits(64)
    one = 1 << grid
    # conj(2^-64) * 2^-64 lies on the grid 2^-128, and the defect is |0 - 2^-128|
    t, re, im = (1 << (grid - 64), 0), [1 << (grid - 64), 0], [0, 0]
    pair, none = ([0], [1]), ([], [])
    assert _gh_defect(_Kernel(t, 64, 1), re, im, pair, none) == mpc_abs(_to_mpc((1, 0), grid), 64, round_nearest)
    # conj(2^-65) * 2^-65 = 2^-130 does not, on either component
    with pytest.raises(_OffGrid, match=r"below the fixed-point grid 2\^-128"):
        _gh_defect(_Kernel((1 << (grid - 65), 0), 64, 1), [1 << (grid - 65), 0], [0, 0], pair, none)
    with pytest.raises(_OffGrid, match=r"below the fixed-point grid 2\^-128"):
        _gh_defect(_Kernel((1 << (grid - 65), 0), 64, 1), [0, 0], [1 << (grid - 65), 0], pair, none)
    # conj(1 + 3*2^-128 i) * (2^-128 i) has real part 3*2^-256
    with pytest.raises(_OffGrid):
        _gh_defect(_Kernel((one, 3), 64, 1), [0, 0], [1, 0], pair, none)
    # the h side only translates by -1, which stays on the grid
    assert _gh_defect(_Kernel((one, 3), 64, 1), [0, -one], [1, 1], none, pair) == mpc_abs(_to_mpc((0, 0), grid), 64, round_nearest)


def test_smp_verify_fails_closed_off_the_grid(monkeypatch):
    # On a grid of only precision_bits fractional bits, e^2i already has bits below it.
    monkeypatch.setattr(paradox, "_grid_bits", lambda bits: bits)
    report = smp_verify(3, 2, 128)
    assert report.outcome == "fail"
    assert [(f.name, f.ok) for f in report.findings] == [
        ("partition", True), ("g_bijection", True), ("h_bijection", True), ("fixed_point_grid", False)
    ]
    assert "below the fixed-point grid 2^-128" in report.findings[-1].detail


def test_separation_slack_is_derived_from_the_magnitudes():
    # |z| <= coef*(deg+1) = 400 here, which pushes the slack past the old fixed 1e-13
    slack = _separation_slack(1, 200, 128, 0.0)
    assert slack == pytest.approx(1.25607396694702e-13, rel=1e-12, abs=0)
    assert slack > 1e-13
    assert _separation_slack(1, 200, 128, 0.5) - slack == pytest.approx(2 * 2.0**-53, rel=1e-6, abs=0)
    # the shipped deg 7, coef 3 setting; at 64 bits the accumulation term shows
    assert _separation_slack(7, 3, 128, 0.0) == pytest.approx(7.536443801682121e-15, rel=1e-12, abs=0)
    assert _separation_slack(7, 3, 64, 0.0) == pytest.approx(7.781770748351461e-15, rel=1e-12, abs=0)
    # the per-coordinate bound holds against the 128-bit values and a 256-bit reference
    bound = _coordinate_error(1, 200, 128)
    _, coarse = _kernel_embedding(1, 200, 128)
    _, fine = _kernel_embedding(1, 200, 256)
    worst = 0.0
    for z, w in zip(coarse, fine):
        for a, b in zip(z, w):
            f = from_float(to_float(a, rnd=round_nearest))
            # exact differences (no precision given), rounded once for the comparison
            worst = max(worst, abs(to_float(mpf_sub(f, a))), abs(to_float(mpf_sub(f, b))))
    assert 0 < worst <= bound


# -- orbit transport ---------------------------------------------------------


def test_orbit_transport_small():
    cert = build_certificate((0, 1, 0))
    result = orbit_transport(3, cert)
    assert result.passed
    assert result.orbit_size == 53
    assert result.expected_size == 53


def test_orbit_points_are_scaled_rational_images():
    # Each point is 7^depth * (w v0), rebuilt here from w's Fraction matrix.
    for base in ((0, 1, 0), (1, 1, 1)):
        cert = build_certificate(base)
        for depth in range(1, 5):
            expected = {tuple(7**depth * c for c in apply(word_matrix(w), base)) for w in ball(depth)}
            assert orbit_transport(depth, cert).model.points == expected


def test_orbit_transport_maps_match_rational_application():
    # The model's maps run on scaled integer keys; rebuild them with rational application.
    for base in ((0, 1, 0), (1, 1, 1)):
        cert = build_certificate(base)
        for depth in range(1, 5):
            model = orbit_transport(depth, cert).model
            expected = {"e": {p: p for p in model.points}}
            for letter in Letter:
                m = DEFAULT_GENERATORS[letter]
                moved = {p: apply(m, p) for p in model.points}
                expected[letter.symbol] = {p: q for p, q in moved.items() if q in model.points}
            assert model.maps == expected


def test_orbit_transport_needs_vector_certificate():
    cert = replace(build_certificate((0, 1, 0)), states=frozenset())
    with pytest.raises(PreconditionError):
        orbit_transport(3, cert)
