"""Finite action models, paradox witnesses, and the planar two-piece paradox."""

from dataclasses import replace

import mpmath
import pytest
from hypothesis import given, strategies as st
from mpmath.libmp import from_float, mpf_sub, round_nearest, to_float

from paradoxlab.errors import DomainError, ModelError, PreconditionError
from paradoxlab.exactlin import generator_matrix
from paradoxlab.freeness import build_certificate
from paradoxlab.paradox import (
    EquidecompWitness,
    FiniteActionModel,
    NNPoly,
    ParadoxWitness,
    PolyClass,
    enumerate_polys,
    f2_ball_model,
    orbit_transport,
    smp_add_one,
    smp_classify,
    smp_g,
    smp_h,
    smp_mul_x,
    smp_truncation_model,
    smp_verify,
    two_to_one_shift_model,
    verify_equidecomp,
    verify_paradox_witness,
    _coordinate_error,
    _embed_polys,
    _separation_slack,
)
from paradoxlab.words import Letter

# -- models and witnesses ----------------------------------------------------


def _tiny_model():
    pts = frozenset(range(4))
    swap = {0: 1, 1: 0, 2: 3, 3: 2}
    return FiniteActionModel(
        points=pts,
        maps={"e": {p: p for p in pts}, "s": swap},
    )


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


def test_equidecomp_on_tiny_model():
    model = _tiny_model()
    witness = EquidecompWitness(pieces=(frozenset({0, 2}),), movers=("s",))
    report = verify_equidecomp(model, frozenset({0, 2}), frozenset({1, 3}), witness)
    assert report.passed
    bad = verify_equidecomp(model, frozenset({0, 2}), frozenset({1, 2}), witness)
    assert not bad.passed


# -- nonnegative integer polynomials -----------------------------------------


def test_nnpoly_normal_form():
    assert NNPoly.from_coeffs([1, 2, 0, 0]).coeffs == (1, 2)
    assert NNPoly.from_coeffs([]).is_zero
    with pytest.raises(ValueError):
        NNPoly((1, 0))
    with pytest.raises(ValueError):
        NNPoly((-1,))


def test_poly_classification():
    assert smp_classify(NNPoly()) is PolyClass.A  # zero constant term
    assert smp_classify(NNPoly((0, 1))) is PolyClass.A
    assert smp_classify(NNPoly((2, 1))) is PolyClass.B


coeff_lists = st.lists(st.integers(min_value=0, max_value=5), max_size=6)


@given(coeff_lists)
def test_smp_maps_invert_exactly(coeffs):
    p = NNPoly.from_coeffs(coeffs)
    if smp_classify(p) is PolyClass.A:
        assert smp_mul_x(smp_g(p)) == p
    else:
        assert smp_add_one(smp_h(p)) == p


def test_smp_maps_enforce_domains():
    with pytest.raises(DomainError):
        smp_g(NNPoly((1,)))
    with pytest.raises(DomainError):
        smp_h(NNPoly((0, 1)))


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


def test_trusted_polys_pass_public_validation():
    # enumerate_polys and the four smp maps build their results without validation
    polys = enumerate_polys(4, 3)
    built = list(polys)
    for p in polys:
        if smp_classify(p) is PolyClass.A:
            built.append(smp_g(p))
        else:
            built.append(smp_h(p))
        built += [smp_mul_x(p), smp_add_one(p)]
    for p in built:
        assert NNPoly(p.coeffs) == p


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
            for k, c in enumerate(p.coeffs):
                if c:
                    acc += c * powers[k]
            embeds.append(acc._mpc_)
    return t._mpc_, embeds


@pytest.mark.parametrize("max_degree,max_coeff,bits", [(3, 2, 64), (4, 4, 128), (5, 2, 256)])
def test_shared_prefix_embedding_matches_per_polynomial_sums(max_degree, max_coeff, bits):
    assert _embed_polys(max_degree, max_coeff, bits) == _per_polynomial_embedding(max_degree, max_coeff, bits)


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
    _, coarse = _embed_polys(1, 200, 128)
    _, fine = _embed_polys(1, 200, 256)
    worst = 0.0
    for z, w in zip(coarse, fine):
        for a, b in zip(z, w):
            f = from_float(to_float(a, rnd=round_nearest))
            # exact differences (no precision given), rounded once for the comparison
            worst = max(worst, abs(to_float(mpf_sub(f, a))), abs(to_float(mpf_sub(f, b))))
    assert 0 < worst <= bound


def test_smp_truncation_model_witness():
    model, witness, interior = smp_truncation_model(4, 2)
    report = verify_paradox_witness(model, model.points, witness, interior=interior)
    assert report.passed


# -- orbit transport ---------------------------------------------------------


def test_orbit_transport_small():
    cert = build_certificate((0, 1, 0))
    result = orbit_transport(3, cert)
    assert result.passed
    assert result.orbit_size == 53
    assert result.expected_size == 53


def test_orbit_transport_maps_match_rational_application():
    # The model's maps run on scaled integer keys; rebuild them with Mat3.apply.
    for base in ((0, 1, 0), (1, 1, 1)):
        cert = build_certificate(base)
        for depth in range(1, 5):
            model = orbit_transport(depth, cert).model
            expected = {"e": {p: p for p in model.points}}
            for letter in Letter:
                m = generator_matrix(letter)
                moved = {p: m.apply(p) for p in model.points}
                expected[letter.symbol] = {p: q for p, q in moved.items() if q in model.points}
            assert model.maps == expected


def test_orbit_transport_needs_vector_certificate():
    cert = replace(build_certificate((0, 1, 0)), states=frozenset())
    with pytest.raises(PreconditionError):
        orbit_transport(3, cert)
