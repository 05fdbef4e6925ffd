"""Additive maps at finite rank: exact laws, and the nonproportionality witness."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from paradoxlab.cauchy import (
    INDEPENDENCE_ASSUMPTION,
    AdditiveMap,
    CauchyReport,
    HamelModel,
    nonproportionality_witness,
    verify_cauchy,
)
from paradoxlab.errors import DomainError

TWO = HamelModel.of(("1", "sqrt2"), (0, 1))


def test_model_validation():
    with pytest.raises(ValueError):
        HamelModel.of((), ())
    with pytest.raises(ValueError):
        HamelModel.of(("1", "1"), (0, 1))
    with pytest.raises(ValueError):
        HamelModel.of(("1",), (0, 1))


def test_eval_known_value():
    f = AdditiveMap(TWO)
    assert f.eval((3, 2)) == 2
    assert f.eval((Fraction(1, 2), Fraction(1, 3))) == Fraction(1, 3)


def test_eval_rejects_wrong_rank():
    with pytest.raises(DomainError):
        AdditiveMap(TWO).eval((1, 2, 3))


def test_model_refuses_float_images():
    with pytest.raises(DomainError, match="floats are not exact"):
        HamelModel.of(("1", "sqrt2"), (0.1, 2))
    assert HamelModel.of(("1", "sqrt2"), ("1/10", 2)).basis_images == (Fraction(1, 10), Fraction(2))


def test_eval_refuses_float_coordinates():
    with pytest.raises(DomainError, match="floats are not exact"):
        AdditiveMap(TWO).eval((0.5, 1))
    assert AdditiveMap(TWO).eval(("1/2", Fraction(1, 3))) == Fraction(1, 3)


rational = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@given(st.tuples(rational, rational), st.tuples(rational, rational), rational)
def test_additivity_and_homogeneity_hold_exactly(x, y, q):
    f = AdditiveMap(TWO)
    both = tuple(a + b for a, b in zip(x, y))
    assert f.eval(both) == f.eval(x) + f.eval(y)
    assert f.eval(tuple(q * a for a in x)) == q * f.eval(x)


def test_verify_cauchy_passes_and_states_assumption():
    report = verify_cauchy(AdditiveMap(TWO), trials=200, seed=1)
    assert isinstance(report, CauchyReport)
    assert report.passed
    assert INDEPENDENCE_ASSUMPTION in report.assumptions
    assert {f.name for f in report.findings} == {"zero", "additivity", "homogeneity"}


def test_verify_cauchy_guards():
    with pytest.raises(ValueError):
        verify_cauchy(AdditiveMap(TWO), trials=0)


def test_broken_eval_caught():
    class Warped(AdditiveMap):
        def eval(self, coords):
            return super().eval(coords) + 1

    report = verify_cauchy(Warped(TWO), trials=50, seed=0)
    assert not report.passed
    failed = {f.name for f in report.findings if not f.ok}
    assert "additivity" in failed or "zero" in failed


def test_witness_for_the_two_basis_model():
    witness = nonproportionality_witness(AdditiveMap(TWO))
    assert witness is not None
    e1, e2 = witness
    assert e1 == (1, 0) and e2 == (0, 1)


def test_no_witness_at_rank_one_or_for_zero_map():
    assert nonproportionality_witness(AdditiveMap(HamelModel.of(("1",), (5,)))) is None
    zero = HamelModel.of(("1", "sqrt2", "pi"), (0, 0, 0))
    assert nonproportionality_witness(AdditiveMap(zero)) is None


def test_witness_skips_dead_pairs():
    # The (1, sqrt2) pair has both images zero; the witness must move on.
    model = HamelModel.of(("1", "sqrt2", "pi"), (0, 0, 7))
    witness = nonproportionality_witness(AdditiveMap(model))
    assert witness is not None
    e_i, e_j = witness
    assert e_j == (0, 0, 1)
