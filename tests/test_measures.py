"""Finite invariant measures and the contradiction chain."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from paradoxlab import measures
from paradoxlab.errors import DomainError, ModelError, PreconditionError, ResourceLimitError
from paradoxlab.measures import (
    DensityWindow,
    GroupAction,
    GroupTable,
    PiecewiseConstant,
    PointMeasure,
    audit_group_invariance,
    audit_point_measure,
    contradiction_input_from_json,
    contradiction_input_to_json,
    density_measure,
    ergodic_average,
    induced_group_measure,
    paradox_contradiction,
    shift_defect,
    uniform_group_measure,
)
from paradoxlab.paradox import FiniteActionModel, ParadoxWitness, f2_ball_model, two_to_one_shift_model

from oracles import IDENTITY, direct_product, sup_abs, value_at

# -- point measures ----------------------------------------------------------


def test_point_measure_basics():
    m = PointMeasure.uniform(range(4))
    assert m.mu({0, 1}) == Fraction(1, 2)
    assert m.is_probability()
    d = PointMeasure.dirac(range(4), 2)
    assert d.mu({2}) == 1 and d.mu({0, 1, 3}) == 0


def test_point_measure_guards():
    with pytest.raises(ModelError):
        PointMeasure(frozenset({1}), {2: Fraction(1)})
    with pytest.raises(ModelError):
        PointMeasure(frozenset({1}), {1: Fraction(-1)})
    with pytest.raises(DomainError):
        PointMeasure(frozenset({1}), {1: 0.5})
    with pytest.raises(DomainError):
        PointMeasure.uniform([])
    m = PointMeasure.uniform(range(3))
    with pytest.raises(DomainError):
        m.mu({7})


def test_point_measure_additivity_audit():
    assert audit_point_measure(PointMeasure.uniform(range(8))).ok


@given(st.data())
@settings(max_examples=200)
def test_mu_matches_a_plain_fraction_sum(data):
    universe = frozenset(range(12))
    support = data.draw(st.sets(st.sampled_from(sorted(universe))))
    weight = st.fractions(min_value=0, max_value=3, max_denominator=30)
    m = PointMeasure(universe, {p: data.draw(weight) for p in support})
    drawn = data.draw(st.sets(st.sampled_from(sorted(universe))))
    # Inside, across and outside the support, and the empty set.
    for subset in (drawn, frozenset(support), universe - support, universe, frozenset()):
        want = sum((m.weights.get(p, Fraction(0)) for p in subset), start=Fraction(0))
        got = m.mu(subset)
        assert (got, type(got)) == (want, Fraction)
    assert m.mu(iter(sorted(drawn))) == m.mu(drawn)
    with pytest.raises(DomainError):
        m.mu(drawn | {12})


# -- group tables and invariance ---------------------------------------------


def test_group_table_constructions_validate():
    for G in (GroupTable.cyclic(5), GroupTable.symmetric(3), direct_product(GroupTable.cyclic(2), GroupTable.cyclic(3))):
        G.validate()
        assert G.mul(G.identity, G.elements[-1]) == G.elements[-1]
        g = G.elements[-1]
        assert any(G.mul(g, h) == G.identity for h in G.elements)


def test_group_table_rejects_broken_tables():
    G = GroupTable.cyclic(3)
    bad = GroupTable(G.elements, {**G.table, (1, 1): 1}, 0)  # 1*1 = 1 breaks inverses via associativity
    with pytest.raises(ModelError):
        bad.validate()


def test_uniform_measure_invariance_exhaustive():
    # All subsets, both sides, for every group of order up to 6.
    groups = [GroupTable.cyclic(n) for n in range(2, 7)] + [GroupTable.symmetric(3)]
    for G in groups:
        findings = audit_group_invariance(G, uniform_group_measure(G))
        assert all(f.ok for f in findings)
        assert "exhaustive" in findings[0].detail


def test_invariance_audit_is_exhaustive_up_to_the_cap():
    G = GroupTable.cyclic(9)
    findings = audit_group_invariance(G, uniform_group_measure(G))
    assert findings[0].ok
    assert findings[0].detail == "exhaustive over 512 subsets"
    G = GroupTable.cyclic(13)
    with pytest.raises(ResourceLimitError):
        audit_group_invariance(G, uniform_group_measure(G))


def test_noninvariant_measure_detected():
    G = GroupTable.cyclic(4)
    skewed = PointMeasure(frozenset(G.elements), {0: Fraction(1, 2), 1: Fraction(1, 6), 2: Fraction(1, 6), 3: Fraction(1, 6)})
    findings = audit_group_invariance(G, skewed)
    assert not findings[0].ok


# -- the measure induced by a free action ------------------------------------


def test_swap_action_induces_half_half():
    G = GroupTable.cyclic(2)
    action = GroupAction.translation(G)
    result = induced_group_measure(action, PointMeasure.uniform(action.points))
    assert result.passed
    assert result.sigma.mu({0}) == Fraction(1, 2)
    assert result.orbit_sizes == (2,)


def test_induced_measure_with_uneven_orbit_weights():
    G = GroupTable.cyclic(3)
    action = GroupAction.translation(G, copies=2)
    # Orbits carry different total mass; points inside an orbit stay equal.
    weights = {(c, g): Fraction(1 if c == 0 else 3, 12) for c in range(2) for g in range(3)}
    result = induced_group_measure(action, PointMeasure(action.points, weights))
    assert result.passed
    assert result.sigma.mu({0}) == Fraction(1, 3)
    assert sorted(result.orbit_sizes) == [3, 3]


def test_induced_measure_preconditions():
    G = GroupTable.cyclic(2)
    action = GroupAction.translation(G)
    half = PointMeasure(action.points, {p: Fraction(1, 4) for p in action.points})
    with pytest.raises(PreconditionError):
        induced_group_measure(action, half)  # not a probability

    skew = PointMeasure(action.points, {(0, 0): Fraction(3, 4), (0, 1): Fraction(1, 4)})
    with pytest.raises(PreconditionError):
        induced_group_measure(action, skew)  # not invariant

    pts = frozenset({"x"})
    trivial = GroupAction(G, pts, {(0, "x"): "x", (1, "x"): "x"})
    with pytest.raises(PreconditionError):
        induced_group_measure(trivial, PointMeasure.uniform(pts))  # not free


def test_induced_measure_resource_cap():
    G = GroupTable.cyclic(13)
    action = GroupAction.translation(G)
    with pytest.raises(ResourceLimitError):
        induced_group_measure(action, PointMeasure.uniform(action.points))


def test_induced_pair_cap_is_checked_before_any_loop(monkeypatch):
    # Order 9 is under the subset cap but over the pair cap.
    action = GroupAction.translation(GroupTable.cyclic(9))
    with pytest.raises(ResourceLimitError, match=r"^3\^9 = 19683 disjoint subset pairs exceed the configured cap 6561$"):
        induced_group_measure(action, PointMeasure.uniform(action.points))
    monkeypatch.setattr(measures, "INDUCED_PAIR_CAP", 3**3)
    action = GroupAction.translation(GroupTable.cyclic(3))
    assert induced_group_measure(action, PointMeasure.uniform(action.points)).passed
    # Refused before validation, so the action that is not free is not looked at.
    G = GroupTable.cyclic(4)
    pts = frozenset({"x"})
    trivial = GroupAction(G, pts, {(g, "x"): "x" for g in G.elements})
    with pytest.raises(ResourceLimitError, match=r"^3\^4 = 81 disjoint subset pairs exceed the configured cap 27$"):
        induced_group_measure(trivial, PointMeasure.uniform(pts))


def test_free_violations_and_orbits():
    G = GroupTable.cyclic(3)
    action = GroupAction.translation(G, copies=2)
    assert action.free_violations() == []
    assert [len(o) for o in action.orbits()] == [3, 3]


# -- densities and ergodic averages ------------------------------------------


def test_density_values():
    evens = DensityWindow(10, frozenset(range(0, 10, 2)))
    assert density_measure(evens) == Fraction(1, 2)
    assert density_measure(DensityWindow(10, frozenset())) == 0
    assert density_measure(DensityWindow(10, frozenset(range(-5, 25)))) == 1


def test_shift_defect_block():
    block = DensityWindow(10, frozenset(range(10)))
    assert shift_defect(block) == Fraction(1, 10)
    assert shift_defect(DensityWindow(10, frozenset(range(0, 10, 2)))) == 0


@given(
    st.integers(min_value=1, max_value=60),
    st.frozensets(st.integers(min_value=-10, max_value=70), max_size=80),
)
@settings(max_examples=200)
def test_shift_defect_bound(n, points):
    assert shift_defect(DensityWindow(n, points)) <= Fraction(2, n)


def test_piecewise_constant_shapes():
    f = PiecewiseConstant.indicator(Fraction(1, 4), Fraction(3, 4))
    assert value_at(f, Fraction(1, 2)) == 1
    assert value_at(f, 0) == 0
    assert sup_abs(f) == 1
    with pytest.raises(DomainError):
        value_at(f, 1)
    with pytest.raises(ValueError):
        PiecewiseConstant.of([Fraction(1, 2)], [1])  # first break must be 0


def test_ergodic_average_exact_cases():
    third = PiecewiseConstant.indicator(0, Fraction(1, 3))
    assert ergodic_average(Fraction(1, 3), 0, third, 3) == (Fraction(1, 3), Fraction(0))
    one = PiecewiseConstant.constant(1)
    assert ergodic_average(Fraction(2, 7), Fraction(1, 5), one, 9) == (Fraction(1), Fraction(0))


@given(
    st.fractions(min_value=-3, max_value=3, max_denominator=12),
    st.fractions(min_value=0, max_value=Fraction(11, 12), max_denominator=12),
    st.integers(min_value=1, max_value=40),
)
@settings(max_examples=150)
def test_ergodic_defect_bound(alpha, x0, n):
    f = PiecewiseConstant.of([0, Fraction(1, 3), Fraction(2, 3)], [2, -1, 5])
    _, defect = ergodic_average(alpha, x0, f, n)
    assert defect <= 2 * sup_abs(f) / n


# -- the contradiction chain -------------------------------------------------


def test_chain_closes_on_ball_model_with_invariance():
    model, space, witness, interior = f2_ball_model(4)
    nu = PointMeasure.uniform(space)
    report = paradox_contradiction(model, space, witness, nu, True, interior=interior)
    assert report.outcome == "contradiction"
    assert report.first_failure is None
    assert "nu(X) <= 0" in report.conclusion
    by_name = {link.name: link for link in report.links}
    assert by_name["invariance"].mode == "assumed"
    assert by_name["superadditivity"].rhs == Fraction(160, 161)
    assert by_name["covering"].mode == "truncation"


def test_chain_breaks_at_invariance_for_dirac():
    model, space, witness, interior = f2_ball_model(4)
    nu = PointMeasure.dirac(space, IDENTITY)
    report = paradox_contradiction(model, space, witness, nu, False, interior=interior)
    assert report.outcome == "chain-broken"
    assert report.first_failure == "invariance"
    by_name = {link.name: link for link in report.links}
    assert (by_name["invariance"].lhs, by_name["invariance"].rhs) == (Fraction(0), Fraction(2))


def test_no_dirac_chain_closes_on_the_truncated_ball():
    # A Dirac point on a full-length word starting with a or b balances the
    # invariance link; only its mass leaking past the interior breaks the chain.
    model, space, witness, interior = f2_ball_model(3)
    leaking = 0
    for w in space:
        report = paradox_contradiction(model, space, witness, PointMeasure.dirac(space, w), False, interior=interior)
        assert report.outcome == "chain-broken", str(w)
        if report.first_failure == "covering":
            leaking += 1
            assert len(w) == 3 and str(w)[0] in "ab"
            assert "leaks past the interior" in report.links[-1].detail
    assert leaking == 18


def test_chain_without_interior_demands_full_covering():
    model, space, witness, _ = two_to_one_shift_model(4)
    report = paradox_contradiction(model, space, witness, PointMeasure.uniform(space), False)
    assert report.outcome == "chain-broken"
    assert report.first_failure == "covering"
    covering = report.links[-1]
    assert covering.mode == "numeric"
    assert (covering.lhs, covering.rhs) == (Fraction(30, 31), Fraction(2))


def test_chain_closes_numerically_on_balanced_shift_model():
    model, space, witness, interior = two_to_one_shift_model(6)
    nu = PointMeasure.uniform(space)
    report = paradox_contradiction(model, space, witness, nu, False, interior=interior)
    assert report.outcome == "contradiction"
    assert all(link.mode in ("numeric", "truncation") for link in report.links)


def test_chain_reports_covering_gap():
    model, space, witness, interior = two_to_one_shift_model(5)
    # Delete one mover's entries: its image no longer covers the interior.
    maps = {k: dict(v) for k, v in model.maps.items()}
    del maps["s0"][next(iter(sorted(maps["s0"])))]
    import dataclasses

    broken = dataclasses.replace(model, maps=maps)
    nu = PointMeasure.uniform(space)
    report = paradox_contradiction(broken, space, witness, nu, True, interior=interior)
    assert report.outcome == "chain-broken"
    assert report.first_failure == "covering"


def test_chain_rejects_an_interior_of_a_total_action():
    # Z/4 acting on itself by rotation has an invariant measure, so no chain
    # may close on it, whatever interior the caller claims.
    model = FiniteActionModel(
        points=frozenset(range(4)),
        maps={"e": {i: i for i in range(4)}, "s": {i: (i + 1) % 4 for i in range(4)}},
    )
    witness = ParadoxWitness(
        pieces_a=(frozenset({0}),), movers_a=("e",), pieces_b=(frozenset({3}),), movers_b=("s",)
    )
    nu = PointMeasure.uniform(model.points)
    report = paradox_contradiction(model, model.points, witness, nu, True, interior=frozenset({0}))
    assert report.outcome == "chain-broken"
    assert report.first_failure == "covering"
    assert report.links[-1].detail == (
        "the given interior is not the derived one: 3 point(s) of that range not given ('1', '2', '3')"
    )


def test_chain_guards():
    model, space, witness, interior = two_to_one_shift_model(4)
    nu = PointMeasure.uniform(space)
    with pytest.raises(ModelError):
        paradox_contradiction(model, space, witness, nu, True, interior=frozenset({"zzz"}))
    small = PointMeasure.uniform(list(space)[:3])
    with pytest.raises(DomainError):
        paradox_contradiction(model, space, witness, small, True, interior=interior)


# -- file round trip ---------------------------------------------------------


def test_contradiction_input_roundtrip():
    model, space, witness, interior = two_to_one_shift_model(4)
    nu = PointMeasure.uniform(space)
    data = contradiction_input_to_json(model, space, witness, nu, False, interior)
    assert data["schema"] == "contradiction-input-v1"
    loaded = contradiction_input_from_json(data)
    before = paradox_contradiction(model, space, witness, nu, False, interior=interior)
    after = paradox_contradiction(loaded[0], loaded[1], loaded[2], loaded[3], loaded[4], interior=loaded[5])
    assert before == after


def test_contradiction_input_complaints_are_located():
    with pytest.raises(ModelError, match="schema"):
        contradiction_input_from_json({"schema": "nope"})
    model, space, witness, interior = two_to_one_shift_model(4)
    nu = PointMeasure.uniform(space)
    data = contradiction_input_to_json(model, space, witness, nu, False, interior)
    del data["witness"]["movers_b"]
    with pytest.raises(ModelError, match="movers_b"):
        contradiction_input_from_json(data)
