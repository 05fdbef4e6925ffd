"""The integer kernels against their Fraction routes in ``oracles``.

``measures.ergodic_average``, ``cauchy.AdditiveMap.eval`` and
``measures.PointMeasure.mu`` sum integer numerators over one common
denominator; each must return exactly what the plain Fraction computation
returns, on hypothesis data and on the inputs the CLI demos feed them.
"""

from fractions import Fraction
from math import ceil, floor

from hypothesis import given, settings, strategies as st

from paradoxlab import cauchy, cli, measures
from paradoxlab.cauchy import AdditiveMap, HamelModel
from paradoxlab.measures import PiecewiseConstant, PointMeasure, ergodic_average

from conftest import run_cli
from oracles import ref_additive_eval, ref_ergodic_average, ref_mu


def _same(got, want):
    """Equal values, and the kernel's Fractions are Fractions."""
    assert got == want
    assert all(type(g) is Fraction for g in (got if isinstance(got, tuple) else (got,)))


def p_over_q(lo, hi, max_denominator):
    """Every fraction in [lo, hi] with reduced denominator at most max_denominator, drawn as p/q.

    st.fractions draws the same values, at two to three times the run time of
    the tests below.
    """
    return st.integers(1, max_denominator).flatmap(
        lambda q: st.integers(ceil(lo * q), floor(hi * q)).map(lambda p: Fraction(p, q))
    )


# -- ergodic averages ----------------------------------------------------------


@st.composite
def piecewise(draw):
    """Breakpoints and values with mixed denominators."""
    cuts = draw(st.sets(p_over_q(0, Fraction(29, 30), 30), max_size=6))
    breaks = sorted(cuts | {Fraction(0)})
    value = p_over_q(-9, 9, 20)
    return PiecewiseConstant.of(breaks, [draw(value) for _ in breaks])


@given(
    p_over_q(-5, 5, 40),
    st.one_of(st.integers(min_value=-3, max_value=3), p_over_q(-2, 2, 24)),
    piecewise(),
    st.integers(min_value=1, max_value=60),
)
@settings(max_examples=300)
def test_ergodic_average_matches_the_fraction_route(alpha, x0, f, n):
    _same(ergodic_average(alpha, x0, f, n), ref_ergodic_average(alpha, x0, f, n))


def test_ergodic_average_at_a_negative_alpha_and_an_int_x0():
    f = PiecewiseConstant.of([0, Fraction(1, 6), Fraction(3, 4)], [Fraction(1, 2), -3, Fraction(7, 5)])
    for alpha in (Fraction(-5, 7), Fraction(-1), Fraction(-13, 4)):
        for x0 in (0, 2, -1):
            _same(ergodic_average(alpha, x0, f, 17), ref_ergodic_average(alpha, x0, f, 17))


# -- additive maps ---------------------------------------------------------------

rational = p_over_q(-30, 30, 15)


@st.composite
def model_and_coords(draw):
    rank = draw(st.integers(min_value=1, max_value=8))
    zero = draw(st.booleans())
    images = [Fraction(0)] * rank if zero else draw(st.lists(rational, min_size=rank, max_size=rank))
    coord = st.one_of(st.integers(min_value=-40, max_value=40), rational)
    coords = draw(st.lists(coord, min_size=rank, max_size=rank))
    return HamelModel.of([f"r{i}" for i in range(rank)], images), tuple(coords)


@given(model_and_coords())
@settings(max_examples=300)
def test_additive_eval_matches_the_fraction_route(case):
    model, coords = case
    _same(AdditiveMap(model).eval(coords), ref_additive_eval(model, coords))


def test_additive_eval_at_rank_one_and_on_the_zero_map():
    one = HamelModel.of(("1",), (Fraction(-7, 3),))
    for c in (0, 5, Fraction(9, 14), "2/3"):
        _same(AdditiveMap(one).eval((c,)), ref_additive_eval(one, (c,)))
    zero = HamelModel.of(("1", "sqrt2", "pi"), (0, 0, 0))
    _same(AdditiveMap(zero).eval((Fraction(1, 3), 4, Fraction(-5, 6))), Fraction(0))


# -- point measures ----------------------------------------------------------------


@given(st.data())
@settings(max_examples=200)
def test_mu_matches_the_fraction_route_on_many_distinct_weights(data):
    universe = frozenset(range(40))
    weight = p_over_q(0, 5, 60)
    m = PointMeasure(universe, {p: data.draw(weight) for p in universe})
    drawn = data.draw(st.sets(st.sampled_from(sorted(universe))))
    for subset in (drawn, universe - drawn, universe, frozenset()):
        _same(m.mu(subset), ref_mu(m, subset))
    assert len(m.groups) == len(set(m.weights.values()))


# -- the demos' own inputs ---------------------------------------------------------


def test_demo_inputs_match_the_fraction_routes(monkeypatch):
    kernel = measures.ergodic_average
    calls = []

    def both_routes(*args):
        calls.append(args)
        got = kernel(*args)
        _same(got, ref_ergodic_average(*args))
        return got

    monkeypatch.setattr(measures, "ergodic_average", both_routes)
    for seed in range(5):
        calls.clear()
        cli._demo_ergodic(seed)
        assert len(calls) == 202

    evaluated = []

    class BothRoutes(AdditiveMap):
        def eval(self, coords):
            got = super().eval(coords)
            _same(got, ref_additive_eval(self.model, coords))
            evaluated.append(coords)
            return got

    monkeypatch.setattr(cauchy, "AdditiveMap", BothRoutes)
    for rank in (2, 50):
        evaluated.clear()
        assert run_cli("cauchy", "demo", "--rank", str(rank)).code == 0
        # f(0), then three evaluations per additivity trial and two per homogeneity trial.
        assert len(evaluated) == 1 + 3 * 500 + 2 * 500
