"""End-to-end acceptance suite: twelve numbered criteria, one line each.

Every criterion prints ``criterion NN PASS/FAIL`` with its headline numbers
before asserting.  The line goes out through ``capsys.disabled()`` so it lands
in the terminal on every run, not just failing ones; a plain ``pytest -v``
therefore shows the whole scoreboard.  All arithmetic is exact unless a
tolerance is part of the claim itself, in which case it appears literally in
the test.
"""

import time
from dataclasses import replace
from fractions import Fraction
from random import Random

import pytest

from paradoxlab import exactlin, measures, paradox, sphere, words
from paradoxlab.cauchy import AdditiveMap, HamelModel, nonproportionality_witness, verify_cauchy
from paradoxlab.errors import PreconditionError
from paradoxlab.exactlin import GEN_A, GEN_B, Mat3, ProjectiveDirection, ball_matrices, scaled_integer_form
from paradoxlab.freeness import build_certificate, exhaustive_check, verify_certificate
from paradoxlab.words import Letter, PrefixClass, ReducedWord, ball, reduce

from oracles import (
    IDENTITY,
    apply,
    axis,
    check_split,
    concat,
    direct_product,
    integer_rank,
    invert,
    is_special_orthogonal,
)


def _line(capsys, num: int, ok: bool, text: str) -> None:
    state = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"criterion {num:02d} {state}  {text}")
    assert ok, f"criterion {num:02d}: {text}"


def test_criterion_01_group_laws_and_ball_census(capsys):
    started = time.perf_counter()
    census_ok = all(len(ball(n)) == 1 + sum(4 * 3 ** (k - 1) for k in range(1, n + 1)) for n in range(9))

    b4 = ball(4)
    laws_ok = all(concat(IDENTITY, w) == w and concat(w, IDENTITY) == w for w in b4)
    laws_ok &= all(concat(w, invert(w)) == IDENTITY and concat(invert(w), w) == IDENTITY for w in b4)
    # Exhaustive over all ball(4) pairs: seam concatenation vs full re-reduction,
    # and the anti-homomorphism law for inverses.
    pairs_ok = all(
        concat(u, v) == reduce(bytes(u) + bytes(v)) and invert(concat(u, v)) == concat(invert(v), invert(u))
        for u in b4
        for v in b4
    )
    # Associativity: exhaustive on ball(2), then a seeded sample of ball(4) triples.
    b2 = ball(2)
    assoc_ok = all(concat(concat(u, v), w) == concat(u, concat(v, w)) for u in b2 for v in b2 for w in b2)
    rng = Random(0)
    for _ in range(2000):
        u, v, w = (b4[rng.randrange(len(b4))] for _ in range(3))
        assoc_ok &= concat(concat(u, v), w) == concat(u, concat(v, w))

    elapsed = time.perf_counter() - started
    ok = census_ok and laws_ok and pairs_ok and assoc_ok and elapsed < 10
    _line(capsys, 1, ok, f"ball census to n=8 and group laws on ball(4) ({elapsed:.1f}s < 10s)")


def test_criterion_02_f2_decomposition_and_mutations(capsys):
    started = time.perf_counter()
    report = words.verify_f2_paradox(6)
    corrupted = [
        check_split(4, PrefixClass.W_A, PrefixClass.W_A_INV, ReducedWord.from_string("b")),
        check_split(4, PrefixClass.W_A, PrefixClass.W_B, ReducedWord.from_string("a")),
        check_split(4, PrefixClass.W_B, PrefixClass.W_A_INV, ReducedWord.from_string("a")),
    ]
    mutations_fail = all(not c.passed for c in corrupted)
    elapsed = time.perf_counter() - started
    ok = report.passed and mutations_fail and elapsed < 10
    _line(capsys, 2, ok, f"decomposition verified at depth 6; 3 corrupted splits all fail ({elapsed:.1f}s < 10s)")


def test_criterion_03_generators_are_rotations(capsys):
    transcribed = (
        [int(e * 7) for e in GEN_A.entries] == [6, 2, 3, 2, 3, -6, -3, 6, 2]
        and [int(e * 7) for e in GEN_B.entries] == [2, -6, 3, 6, 3, 2, -3, 2, 6]
    )
    ok = is_special_orthogonal(GEN_A) and is_special_orthogonal(GEN_B) and transcribed
    _line(capsys, 3, ok, "A and B are exactly special orthogonal with the stated entries")


def test_criterion_04_two_freeness_oracles_agree(capsys):
    started = time.perf_counter()
    verdict = exhaustive_check(8)
    exhaustive_ok = verdict.certified and verdict.words_checked == 13120

    cert = build_certificate((0, 1, 0))
    cert_ok = verify_certificate(cert)

    state = next(iter(cert.states))
    zeroed = (state[0], (0,) * len(state[1]))
    corrupted_rejected = not verify_certificate(
        replace(cert, states=cert.states - {state} | {zeroed})
    )
    elapsed = time.perf_counter() - started
    ok = exhaustive_ok and cert_ok and corrupted_rejected and elapsed < 60
    _line(capsys, 4, ok, f"all 13120 non-identity words of ball(8) certified exactly and the residue certificate verifies ({elapsed:.1f}s < 60s)")


def test_criterion_05_order_four_negative_control(capsys, monkeypatch):
    rot_z = Mat3.from_rows([[0, -1, 0], [1, 0, 0], [0, 0, 1]])
    rot_x = Mat3.from_rows([[1, 0, 0], [0, 0, -1], [0, 1, 0]])
    gens = {
        Letter.A: rot_z,
        Letter.B: rot_x,
        Letter.A_INV: rot_z.transpose(),
        Letter.B_INV: rot_x.transpose(),
    }
    monkeypatch.setattr(exactlin, "SCALED_GENERATORS", tuple(scaled_integer_form(gens[x]) for x in Letter))
    verdict = exhaustive_check(4)
    ok = verdict.outcome == "counterexample" and str(verdict.witness) == "aaaa"
    _line(capsys, 5, ok, f"order-4 rotations rejected with witness {verdict.witness}")


def test_criterion_06_fixed_point_geometry(capsys):
    started = time.perf_counter()
    axes_ok = axis(GEN_A).as_tuple() == (2, 1, 0) and axis(GEN_B).as_tuple() == (0, 1, 2)
    for gen, triple in ((GEN_A, (2, 1, 0)), (GEN_B, (0, 1, 2))):
        v = ProjectiveDirection.canonical(*triple).as_tuple()
        axes_ok &= apply(gen, v) == v

    ranks_ok = True
    for letters, ints, den in ball_matrices(4):
        if not letters:
            continue
        rows = [[ints[3 * i + j] - (den if i == j else 0) for j in range(3)] for i in range(3)]
        ranks_ok &= integer_rank(rows) == 2
    elapsed = time.perf_counter() - started
    ok = axes_ok and ranks_ok and elapsed < 30
    _line(capsys, 6, ok, f"axes [2:1:0], [0:1:2]; rank(M - I) = 2 on ball(4) minus e ({elapsed:.1f}s < 30s)")


def test_criterion_07_absorbing_rotation_with_control(capsys):
    started = time.perf_counter()
    C = sphere.fixed_directions(2)
    g = sphere.find_absorbing_rotation_adaptive(C, 5, start_bits=128)
    demo = sphere.absorb_demo(C, g, 5)
    bad = sphere.corrupted_rotation((2, 1, 0), (0, 1, 2))
    control = sphere.absorb_demo(C, bad, 5)
    elapsed = time.perf_counter() - started
    ok = (
        g.margin > 0
        and g.precision_bits <= 256
        and demo.outcome == "pass"
        and control.outcome == "fail"
        and control.collision is not None
        and elapsed < 60
    )
    _line(
        capsys, 7,
        ok,
        f"margin {g.margin:.3f} at {g.precision_bits} bits certifies 36 points; bad angle collides ({elapsed:.1f}s < 60s)",
    )


def test_criterion_08_planar_two_piece_paradox(capsys):
    started = time.perf_counter()
    report = paradox.smp_verify(6, 3, 128)
    elapsed = time.perf_counter() - started
    ok = (
        report.outcome == "pass"
        and report.total == 16384
        and report.min_distance > 1e-12
        and elapsed < 60
    )
    _line(
        capsys, 8,
        ok,
        f"16384 points split {report.count_a}/{report.count_b}, separation {report.min_distance:.2g} > 1e-12 ({elapsed:.1f}s < 60s)",
    )


def test_criterion_09_density_defect_and_group_invariance(capsys):
    rng = Random(0)
    defects_ok = True
    for _ in range(1000):
        n = rng.randrange(1, 60)
        pts = frozenset(rng.randrange(-8, n + 8) for _ in range(rng.randrange(0, 2 * n + 1)))
        defects_ok &= measures.shift_defect(measures.DensityWindow(n, pts)) <= Fraction(2, n)

    groups = [measures.GroupTable.cyclic(n) for n in range(2, 7)] + [measures.GroupTable.symmetric(3)]
    invariance_ok = True
    for G in groups:
        findings = measures.audit_group_invariance(G, measures.uniform_group_measure(G))
        invariance_ok &= all(f.ok for f in findings) and "exhaustive" in findings[0].detail

    ok = defects_ok and invariance_ok
    _line(capsys, 9, ok, "shift defect <= 2/n on 1000 windows; invariance exact on all subsets, |G| <= 6")


def test_criterion_10_induced_measures_on_random_actions(capsys):
    rng = Random(0)
    c2, c3 = measures.GroupTable.cyclic(2), measures.GroupTable.cyclic(3)
    pool = [
        measures.GroupTable.cyclic(2),
        measures.GroupTable.cyclic(3),
        measures.GroupTable.cyclic(4),
        measures.GroupTable.cyclic(5),
        measures.GroupTable.cyclic(6),
        measures.GroupTable.symmetric(3),
        direct_product(c2, c2),
        direct_product(c2, c3),
    ]
    all_ok = True
    for _ in range(20):
        G = pool[rng.randrange(len(pool))]
        copies = rng.randrange(1, 24 // len(G) + 1)
        action = measures.GroupAction.translation(G, copies=copies)
        raw = [rng.randrange(1, 9) for _ in range(copies)]
        total = sum(raw) * len(G)
        weights = {(c, g): Fraction(raw[c], total) for c in range(copies) for g in G.elements}
        result = measures.induced_group_measure(action, measures.PointMeasure(action.points, weights))
        all_ok &= result.passed and result.sigma.total() == 1

    pts = frozenset({"x", "y"})
    lazy = measures.GroupAction(c2, pts, {(g, p): p for g in c2.elements for p in pts})
    with pytest.raises(PreconditionError):
        measures.induced_group_measure(lazy, measures.PointMeasure.uniform(pts))

    _line(capsys, 10, all_ok, "20 random free actions: sigma additive, right-invariant, total 1; non-free rejected")


def test_criterion_11_contradiction_chain(capsys):
    model, space, witness, interior = paradox.f2_ball_model(4)
    nu = measures.PointMeasure.uniform(space)
    closed = measures.paradox_contradiction(model, space, witness, nu, True, interior=interior)

    dirac = measures.PointMeasure.dirac(space, IDENTITY)
    broken = measures.paradox_contradiction(model, space, witness, dirac, False, interior=interior)

    ok = (
        closed.outcome == "contradiction"
        and "nu(X) <= 0" in closed.conclusion
        and broken.outcome == "chain-broken"
        and broken.first_failure == "invariance"
    )
    _line(capsys, 11, ok, "invariant nu forces nu(X) <= 0; non-invariant nu breaks at the middle equality")


def test_criterion_12_cauchy_model(capsys):
    f = AdditiveMap(HamelModel.of(("1", "sqrt2"), (0, 1)))
    report = verify_cauchy(f, trials=1000, seed=0)
    witness = nonproportionality_witness(f)
    rank1 = nonproportionality_witness(AdditiveMap(HamelModel.of(("1",), (5,))))
    ok = report.passed and witness == ((1, 0), (0, 1)) and rank1 is None
    _line(capsys, 12, ok, "1000 exact additivity/homogeneity trials; witness at rank 2, none at rank 1")
