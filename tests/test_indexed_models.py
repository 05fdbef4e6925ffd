"""Integer-indexed action models against the frozenset route they replaced.

``FiniteActionModel`` numbers its points 0..n-1 once and runs validation,
the witness check and the contradiction chain on int tuples and bitsets.
The frozenset route is the reference: validation, images and the derived
interior from ``oracles``, and the witness check and the chain below, on
point objects, as they were before the index.  Reports must agree field for
field, and errors word for word.  A point the model lacks has no bit, so
the verifiers refuse it where the frozenset route gave it a place.
"""

import dataclasses
import itertools
from fractions import Fraction

import pytest

from paradoxlab.errors import DomainError, ModelError
from paradoxlab.freeness import build_certificate
from paradoxlab.measures import ChainLink, ContradictionReport, PointMeasure, paradox_contradiction
from paradoxlab.paradox import (
    FiniteActionModel,
    ParadoxWitness,
    WitnessReport,
    f2_ball_model,
    interior_mismatch,
    orbit_transport,
    two_to_one_shift_model,
    verify_paradox_witness,
)
from paradoxlab.report import Finding

from oracles import ref_images, ref_interior, ref_validate

# -- the frozenset route -----------------------------------------------------


def _ref_disjointness(pieces):
    problems = []
    for i, j in itertools.combinations(range(len(pieces)), 2):
        overlap = pieces[i] & pieces[j]
        if overlap:
            problems.append(f"pieces {i} and {j} share {len(overlap)} point(s)")
    return problems


def ref_verify_paradox_witness(model, space, witness, *, interior=None):
    ref_validate(model)
    if interior is not None and not interior <= space:
        raise ModelError("interior must sit inside the space")
    target = space if interior is None else ref_interior(model, witness)
    mismatch = "" if interior is None else interior_mismatch(interior, target)
    findings = []
    all_pieces = list(witness.pieces_a) + list(witness.pieces_b)
    contained = all(p <= space for p in all_pieces)
    findings.append(Finding("pieces_in_space", contained, "" if contained else "a piece leaves the space"))
    overlap_problems = _ref_disjointness(all_pieces)
    findings.append(Finding("pieces_disjoint", not overlap_problems, "; ".join(overlap_problems)))

    details = {"space_size": len(space), "interior_size": len(target)}
    for side, pieces, movers in (("a", witness.pieces_a, witness.movers_a), ("b", witness.pieces_b, witness.movers_b)):
        images, undefined_total = ref_images(model, pieces, movers)
        union = frozenset().union(*images)
        in_space = union <= space
        covers = target <= union
        missing = target - union
        findings.append(
            Finding(
                f"moved_{side}_defined",
                undefined_total == 0,
                "" if not undefined_total else f"mover undefined on {undefined_total} point(s)",
            )
        )
        ok = covers and in_space and not mismatch
        findings.append(
            Finding(f"moved_{side}_covers", ok, "" if ok else mismatch or f"{len(missing)} interior point(s) uncovered")
        )
        details[f"moved_{side}_size"] = len(union)
        details[f"boundary_{side}_leak"] = len(union - target)
    return WitnessReport(tuple(findings), details)


def ref_paradox_contradiction(model, space, witness, nu, invariant, *, interior=None):
    ref_validate(model)
    pieces = list(witness.pieces_a) + list(witness.pieces_b)
    if not all(p <= space for p in pieces):
        raise ModelError("witness pieces must sit inside the space")
    if not space <= nu.universe:
        raise DomainError("nu is not defined on the whole space")
    if interior is not None and not interior <= space:
        raise ModelError("interior must sit inside the space")

    links = []
    total = nu.mu(space)
    links.append(
        ChainLink(
            "total_mass", "numeric", total == 1, total, Fraction(1),
            "" if total == 1 else "nu is not a probability measure on the space",
        )
    )
    disjoint = len(frozenset().union(*pieces)) == sum(len(p) for p in pieces)
    sum_pieces = sum((nu.mu(p) for p in pieces), start=Fraction(0))
    links.append(
        ChainLink(
            "superadditivity", "numeric", disjoint and total >= sum_pieces, total, sum_pieces,
            "" if disjoint else "pieces overlap, so additivity gives no bound",
        )
    )
    moved_a, undefined_a = ref_images(model, witness.pieces_a, witness.movers_a)
    moved_b, undefined_b = ref_images(model, witness.pieces_b, witness.movers_b)
    sum_moved = sum((nu.mu(m) for m in moved_a + moved_b), start=Fraction(0))
    if invariant:
        links.append(
            ChainLink(
                "invariance", "assumed", True, sum_pieces, sum_moved,
                "equality of piece and image masses taken from the invariance hypothesis",
            )
        )
    else:
        links.append(
            ChainLink(
                "invariance", "numeric", sum_pieces == sum_moved, sum_pieces, sum_moved,
                "" if sum_pieces == sum_moved else "nu moves mass under the witness maps",
            )
        )
    union_a = frozenset().union(*moved_a)
    union_b = frozenset().union(*moved_b)
    nu_a, nu_b = nu.mu(union_a & space), nu.mu(union_b & space)
    nu_unions = nu_a + nu_b
    links.append(ChainLink("subadditivity", "numeric", nu_unions <= sum_moved, nu_unions, sum_moved))
    if interior is None:
        covers = nu_a == total and nu_b == total
        links.append(
            ChainLink(
                "covering", "numeric", covers, nu_unions, 2 * total,
                "" if covers else "a moved union misses mass, so the chain never reaches 2 nu(X)",
            )
        )
    else:
        derived = ref_interior(model, witness)
        mismatch = interior_mismatch(interior, derived)
        covers = derived <= union_a and derived <= union_b
        leaked = 0 if invariant else nu.mu(((union_a | union_b) & space) - derived)
        if mismatch:
            detail = mismatch
        elif not covers:
            detail = "a moved union misses interior points"
        elif leaked:
            detail = f"moved mass leaks past the interior: nu gives {leaked} to moved points outside it"
        else:
            detail = (
                f"each side covers the {len(derived)}-point interior exactly; "
                f"boundary excess a: {len(union_a - derived)}, b: {len(union_b - derived)} point(s), "
                f"undefined a: {undefined_a}, b: {undefined_b}; "
                "in the untruncated model the unions cover all of X"
            )
        ok = not mismatch and covers and not leaked
        links.append(ChainLink("covering", "truncation", ok, nu_unions, 2 * total, detail))
    bad = [link.name for link in links if not link.ok]
    if bad:
        return ContradictionReport(
            tuple(links), "chain-broken", bad[0], f"no contradiction for this nu: the {bad[0]} link fails"
        )
    return ContradictionReport(
        tuple(links),
        "contradiction",
        None,
        "all links hold, so nu(X) >= 2 nu(X); hence nu(X) <= 0, "
        "contradicting nu(X) = 1: no such invariant measure exists",
    )


# -- comparing the routes ----------------------------------------------------


def _outcome(fn, *args, **kwargs):
    """The report, or the error's type and message."""
    try:
        return fn(*args, **kwargs)
    except (ModelError, DomainError) as exc:
        return type(exc), str(exc)


def assert_witness_check_matches(model, space, witness, interior):
    for given in (None, interior):
        got = _outcome(verify_paradox_witness, model, space, witness, interior=given)
        want = _outcome(ref_verify_paradox_witness, model, space, witness, interior=given)
        assert got == want


def assert_chain_matches(model, space, witness, nu, invariant, interior):
    got = _outcome(paradox_contradiction, model, space, witness, nu, invariant, interior=interior)
    want = _outcome(ref_paradox_contradiction, model, space, witness, nu, invariant, interior=interior)
    assert got == want
    return got


def assert_uniform_chains_match(model, space, witness, interior):
    nu = PointMeasure.uniform(space)
    for invariant, given in itertools.product((True, False), (None, interior)):
        assert_chain_matches(model, space, witness, nu, invariant, given)


MODELS = [("f2", d) for d in range(2, 8)] + [("shift", n) for n in range(1, 9)]


def _model(kind, size):
    return f2_ball_model(size) if kind == "f2" else two_to_one_shift_model(size)


@pytest.mark.parametrize("kind,size", MODELS)
def test_witness_check_matches_the_frozenset_route(kind, size):
    model, space, witness, interior = _model(kind, size)
    assert_witness_check_matches(model, space, witness, interior)
    assert verify_paradox_witness(model, space, witness, interior=interior).passed


@pytest.mark.parametrize("kind,size", MODELS)
def test_uniform_chains_match_the_frozenset_route(kind, size):
    model, space, witness, interior = _model(kind, size)
    assert_uniform_chains_match(model, space, witness, interior)
    nu = PointMeasure.uniform(space)
    assert paradox_contradiction(model, space, witness, nu, True, interior=interior).outcome == "contradiction"


@pytest.mark.parametrize("depth", [2, 4, 5, 7])
def test_orbit_transport_matches_the_frozenset_route(depth):
    result = orbit_transport(depth, build_certificate((0, 1, 0)))
    model, witness = result.model, result.witness
    interior = ref_interior(model, witness)
    assert result.report == ref_verify_paradox_witness(model, model.points, witness, interior=interior)
    assert_witness_check_matches(model, model.points, witness, interior)


@pytest.mark.parametrize("kind,size", [("f2", 2), ("f2", 3), ("shift", 1), ("shift", 2), ("shift", 3)])
def test_dirac_chains_at_every_point_match_the_frozenset_route(kind, size):
    model, space, witness, interior = _model(kind, size)
    outcomes = set()
    for p in space:
        nu = PointMeasure.dirac(space, p)
        for invariant in (True, False):
            report = assert_chain_matches(model, space, witness, nu, invariant, interior)
            outcomes.add((report.outcome, report.first_failure))
    assert ("contradiction", None) in outcomes
    assert any(outcome == "chain-broken" for outcome, _ in outcomes)


@pytest.mark.parametrize("depth", [5, 7])
def test_dirac_chains_at_sampled_points_match_the_frozenset_route(depth):
    model, space, witness, interior = f2_ball_model(depth)
    sample = sorted(space, key=lambda w: (len(w), str(w)))[::97] + [max(space, key=lambda w: (len(w), str(w)))]
    firsts = set()
    for p in sample:
        nu = PointMeasure.dirac(space, p)
        for invariant in (True, False):
            firsts.add(assert_chain_matches(model, space, witness, nu, invariant, interior).first_failure)
    assert {None, "invariance", "covering"} <= firsts


# -- corrupted witnesses and models -------------------------------------------


def _corruptions(kind, size):
    """(name, model, witness, interior) for each single-edit corruption of a shipped model."""
    model, space, witness, interior = _model(kind, size)
    some = min(witness.pieces_a[0], key=str)
    moved = dataclasses.replace(
        witness,
        pieces_a=(witness.pieces_a[0] - {some},) + witness.pieces_a[1:],
        pieces_b=(witness.pieces_b[0] | {some},) + witness.pieces_b[1:],
    )
    label = witness.movers_a[-1]
    maps = {k: dict(v) for k, v in model.maps.items()}
    del maps[label][min(witness.pieces_a[-1], key=str)]
    dropped = FiniteActionModel(points=model.points, maps=maps, identity=model.identity, partial=model.partial)
    copied = dataclasses.replace(witness, pieces_b=(witness.pieces_b[0] | {some},) + witness.pieces_b[1:])
    last = witness.pieces_b[-1]
    dropped_point = dataclasses.replace(witness, pieces_b=witness.pieces_b[:-1] + (last - {min(last, key=str)},))
    boundary = min(space - interior, key=str)
    unknown = dataclasses.replace(witness, movers_b=witness.movers_b[:-1] + ("zz",))
    return [
        ("point moved between pieces", model, moved, interior),
        ("point copied into a second piece", model, copied, interior),
        ("point dropped from a piece", model, dropped_point, interior),
        ("map entry dropped", dropped, witness, interior),
        ("interior short of a point", model, witness, interior - {min(interior, key=str)}),
        ("interior with a boundary point", model, witness, interior | {boundary}),
        ("unknown mover label", model, unknown, interior),
    ], space


@pytest.mark.parametrize("kind,size", [("f2", 2), ("f2", 4), ("shift", 3), ("shift", 5)])
def test_corruptions_match_the_frozenset_route(kind, size):
    cases, space = _corruptions(kind, size)
    for name, model, witness, interior in cases:
        assert_witness_check_matches(model, space, witness, interior)
        assert_uniform_chains_match(model, space, witness, interior)
        checked = _outcome(verify_paradox_witness, model, space, witness, interior=interior)
        chained = _outcome(paradox_contradiction, model, space, witness, PointMeasure.uniform(space), True, interior=interior)
        if name == "unknown mover label":
            assert checked == chained == (ModelError, "unknown group label 'zz'")
        else:
            assert not checked.passed, name
            assert chained.outcome == "chain-broken", name


def test_points_the_model_lacks_are_named_and_wider_measures_match():
    # Bits exist only for the model's points: a space or piece point outside it is refused by name.
    model, space, witness, interior = two_to_one_shift_model(3)
    haunted = dataclasses.replace(witness, pieces_a=(witness.pieces_a[0] | {"ghost"},))
    wider = space | {"ghost"}
    refused = (ModelError, "space point 'ghost' is not in the model")
    nu = PointMeasure.uniform(wider)
    for w, given, invariant in itertools.product((witness, haunted), (None, interior), (True, False)):
        assert _outcome(verify_paradox_witness, model, wider, w, interior=given) == refused
        assert _outcome(paradox_contradiction, model, wider, w, nu, invariant, interior=given) == refused
    assert _outcome(verify_paradox_witness, model, space, haunted, interior=interior) == (
        ModelError,
        "piece point 'ghost' is not in the model",
    )
    # A measure may weigh points the model lacks; they lie in no piece, image or union.
    universe = space | {"ghost", "far"}
    for nu in (
        PointMeasure.uniform(universe),
        PointMeasure.dirac(universe, "ghost"),
        PointMeasure(universe, {"ghost": Fraction(1, 2), "far": Fraction(1, 4), "0": Fraction(1, 4)}),
    ):
        for invariant, given in itertools.product((True, False), (None, interior)):
            assert_chain_matches(model, space, witness, nu, invariant, given)
    # the moved pieces land on "", outside this measure's universe
    short = space - {""}
    report = assert_chain_matches(model, short, witness, PointMeasure.uniform(short), True, None)
    assert report == (DomainError, "measure evaluated outside its universe")


def test_a_space_short_of_the_model_matches_the_frozenset_route():
    # Point 3 is moved onto and weighed, but lies outside the space and the interior.
    points = frozenset(range(5))
    model = FiniteActionModel(
        points=points,
        maps={"e": {p: p for p in points}, "s": {0: 1, 4: 3}, "t": {2: 1, 3: 2}},
        partial=True,
    )
    witness = ParadoxWitness(pieces_a=(frozenset({0, 4}),), movers_a=("s",), pieces_b=(frozenset({2}),), movers_b=("t",))
    assert ref_interior(model, witness) == frozenset({1})
    space = frozenset({0, 1, 2, 4})
    assert_witness_check_matches(model, space, witness, frozenset({1}))
    assert not verify_paradox_witness(model, space, witness).passed
    for nu in (
        PointMeasure.uniform(points),
        PointMeasure(points, {1: Fraction(1, 2), 3: Fraction(1, 2)}),
        PointMeasure(points, {0: Fraction(1, 4), 1: Fraction(1, 4), 2: Fraction(1, 4), 3: Fraction(1, 4)}),
    ):
        for invariant, given in itertools.product((True, False), (None, frozenset({1}))):
            assert_chain_matches(model, space, witness, nu, invariant, given)


def test_points_that_do_not_sort_match_the_frozenset_route():
    # The index order is the point set's own iteration order; sorting these would raise.
    points = frozenset({0, "0", (0,), None, 2.5, frozenset({1})})
    with pytest.raises(TypeError):
        sorted(points)
    cycle = [0, "0", (0,), None, 2.5, frozenset({1})]
    model = FiniteActionModel(
        points=points,
        maps={"e": {p: p for p in points}, "s": {p: cycle[(i + 1) % 6] for i, p in enumerate(cycle)}},
    )
    witness = ParadoxWitness(
        pieces_a=(frozenset({0, None}),), movers_a=("e",), pieces_b=(frozenset({"0"}),), movers_b=("s",)
    )
    assert ref_interior(model, witness) == points
    assert_witness_check_matches(model, points, witness, points)
    assert_witness_check_matches(model, points, witness, frozenset({0}))
    for nu in (PointMeasure.uniform(points), PointMeasure.dirac(points, None)):
        for invariant, given in itertools.product((True, False), (None, points, frozenset({"0"}))):
            assert_chain_matches(model, points, witness, nu, invariant, given)


# -- validation and staleness ------------------------------------------------


def _validation_cases():
    pts = frozenset(range(3))
    ident = {p: p for p in pts}
    return [
        (FiniteActionModel(points=pts, maps={"x": ident}), "identity label 'e' missing from maps"),
        (FiniteActionModel(points=pts, maps={"e": ident, "c": {0: 7}}, partial=True),
         "label 'c' maps outside the point set"),
        (FiniteActionModel(points=pts, maps={"e": ident, "c": {7: 0}}, partial=True),
         "label 'c' maps outside the point set"),
        (FiniteActionModel(points=pts, maps={"e": ident, "c": {0: 1, 1: 1, 2: 1}}), "label 'c' is not injective"),
        (FiniteActionModel(points=pts, maps={"e": ident, "p": {0: 1}}), "label 'p' is not total on the point set"),
        (FiniteActionModel(points=pts, maps={"e": {0: 1, 1: 0, 2: 2}}), "identity label must fix every point"),
        (FiniteActionModel(points=pts, maps={"e": {0: 0, 1: 1}}, partial=True), "identity label must fix every point"),
        # the first bad label in the maps' order is the one named
        (FiniteActionModel(points=pts, maps={"e": ident, "p": {0: 1}, "c": {0: 7}}),
         "label 'p' is not total on the point set"),
    ]


@pytest.mark.parametrize("case", range(len(_validation_cases())))
def test_every_validation_message_is_unchanged(case):
    model, message = _validation_cases()[case]
    with pytest.raises(ModelError) as indexed:
        model.validate()
    with pytest.raises(ModelError) as reference:
        ref_validate(model)
    assert str(indexed.value) == str(reference.value) == message


def test_valid_models_pass_both_validations():
    pts = frozenset(range(3))
    ident = {p: p for p in pts}
    for model in (
        FiniteActionModel(points=pts, maps={"e": ident, "p": {0: 1}}, partial=True),
        FiniteActionModel(points=pts, maps={"e": ident, "r": {0: 1, 1: 2, 2: 0}}),
        FiniteActionModel(points=frozenset(), maps={"e": {}}),
    ):
        model.validate()
        ref_validate(model)


@pytest.mark.parametrize("first_use", ["before", "after"])
def test_mutating_the_constructor_inputs_changes_no_verdict(first_use):
    model, space, witness, interior = two_to_one_shift_model(4)
    nu = PointMeasure.uniform(space)
    points = set(space)
    maps = {label: dict(m) for label, m in model.maps.items()}
    fresh = FiniteActionModel(points=points, maps=maps, partial=True)
    if first_use == "before":  # the index is built on first use
        verify_paradox_witness(fresh, space, witness, interior=interior)
    maps["s0"].clear()
    maps["s1"]["1"] = "zzz"
    maps["e"].popitem()
    maps["t"] = {"0": "1"}
    points.add("zzz")
    assert fresh.points == space and fresh.maps == model.maps
    assert verify_paradox_witness(fresh, space, witness, interior=interior) == verify_paradox_witness(
        model, space, witness, interior=interior
    )
    assert paradox_contradiction(fresh, space, witness, nu, False, interior=interior) == paradox_contradiction(
        model, space, witness, nu, False, interior=interior
    )


def test_model_maps_are_read_only():
    model, *_ = two_to_one_shift_model(2)
    with pytest.raises(TypeError):
        model.maps["s0"]["0"] = "1"
    with pytest.raises(TypeError):
        model.maps["x"] = {}
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.maps = {}
    # a model rebuilt from its own maps, with one entry dropped, is a new model with its own index
    maps = {k: dict(v) for k, v in model.maps.items()}
    del maps["s0"]["0"]
    broken = dataclasses.replace(model, maps=maps)
    assert "0" in model.maps["s0"] and "0" not in broken.maps["s0"]
