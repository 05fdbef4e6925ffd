"""Freeness of the rotation pair: exhaustive evaluation and residue certificates."""

from dataclasses import replace
from fractions import Fraction

import pytest

from paradoxlab import exactlin, freeness
from paradoxlab.errors import ResourceLimitError
from paradoxlab.exactlin import Mat3, scaled_integer_form
from paradoxlab.freeness import (
    CANDIDATE_BASE_VECTORS,
    CertificateFailure,
    FreenessCertificate,
    build_any_certificate,
    build_certificate,
    exhaustive_check,
    verify_certificate,
    walk_check,
)
from paradoxlab.words import Letter

from oracles import matmul

ROT_Z = Mat3.from_rows([[0, -1, 0], [1, 0, 0], [0, 0, 1]])
ROT_X = Mat3.from_rows([[1, 0, 0], [0, 0, -1], [0, 1, 0]])
CYCLE_AXES = Mat3.from_rows([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
# The same order-3 rotation conjugated by the paper's A, paired with the
# paper's B: entries over 49, so aa (scaled by 49^2) meets A (scaled by 49)
# only after gcd reduction, and no other pair of the half ball collides.
CYCLE_CONJUGATE = matmul(matmul(exactlin.GEN_A, CYCLE_AXES), exactlin.GEN_A.transpose())


def _use_generators(monkeypatch, a: Mat3, b: Mat3) -> None:
    gens = {Letter.A: a, Letter.B: b, Letter.A_INV: a.transpose(), Letter.B_INV: b.transpose()}
    monkeypatch.setattr(exactlin, "SCALED_GENERATORS", tuple(scaled_integer_form(gens[x]) for x in Letter))


def _spy_on_walk(monkeypatch) -> list[int]:
    """Record the depths at which exhaustive_check falls back to the word walk."""
    calls: list[int] = []

    def spy(depth):
        calls.append(depth)
        return walk_check(depth)

    monkeypatch.setattr(freeness, "walk_check", spy)
    return calls


def test_exhaustive_check_small_depths():
    for depth, nonidentity in ((1, 4), (2, 16), (4, 160)):
        verdict = exhaustive_check(depth)
        assert verdict.certified
        assert verdict.witness is None
        assert verdict.words_checked == nonidentity


def test_exhaustive_check_rejects_bad_depth():
    with pytest.raises(ValueError):
        exhaustive_check(0)


def test_exhaustive_check_at_the_cap_evaluates_the_half_ball():
    # ball(14) has 9,565,937 words; only ball(7)'s 4,373 are multiplied out.
    verdict = exhaustive_check(14)
    assert verdict.certified
    assert verdict.words_checked == 9_565_936


def test_exhaustive_check_refuses_past_the_cap_before_any_work(monkeypatch):
    def no_work(depth):
        raise AssertionError("ball_matrices was called")

    monkeypatch.setattr(freeness, "ball_matrices", no_work)
    with pytest.raises(ResourceLimitError, match=r"^ball\(15\) exceeds the configured cap 14$"):
        exhaustive_check(15)


def test_order_four_control(monkeypatch):
    # Quarter turns about z and x satisfy a^4 = e; the first length-lex
    # counterexample at depth 4 must be exactly that word.
    _use_generators(monkeypatch, ROT_Z, ROT_X)
    verdict = exhaustive_check(4)
    assert verdict.outcome == "counterexample"
    assert str(verdict.witness) == "aaaa"


# The half-ball test against the word walk it replaces, verdict for verdict.


def test_half_ball_matches_the_walk_on_the_paper_generators(monkeypatch):
    walked = _spy_on_walk(monkeypatch)
    for depth in range(1, 10):
        assert exhaustive_check(depth) == walk_check(depth)
    assert walked == []


def test_half_ball_matches_the_walk_on_quarter_turns(monkeypatch):
    # From depth 3 the half ball collides (aa = AA), but the relation aaaa
    # is longer than depth 3, so only the walk can certify there.
    _use_generators(monkeypatch, ROT_Z, ROT_X)
    walked = _spy_on_walk(monkeypatch)
    for depth in range(1, 7):
        verdict = exhaustive_check(depth)
        assert verdict == walk_check(depth)
        assert str(verdict.witness) == ("None" if depth < 4 else "aaaa")
    assert walked == [3, 4, 5, 6]


@pytest.mark.parametrize(
    "a,b", [(CYCLE_AXES, ROT_X), (CYCLE_CONJUGATE, exactlin.GEN_B)], ids=["permutation", "conjugate"]
)
def test_half_ball_matches_the_walk_on_an_odd_relation(monkeypatch, a, b):
    # The axis-cycling permutation has order 3: aaa is a relation of odd length.
    _use_generators(monkeypatch, a, b)
    walked = _spy_on_walk(monkeypatch)
    for depth in range(1, 5):
        verdict = exhaustive_check(depth)
        assert verdict == walk_check(depth)
        assert str(verdict.witness) == ("None" if depth < 3 else "aaa")
    assert walked == [3, 4]


def test_vector_certificate_builds_and_verifies():
    cert = build_certificate((0, 1, 0))
    assert isinstance(cert, FreenessCertificate)
    assert len(cert.states) == 24
    assert verify_certificate(cert)


def test_certificate_failure_for_zero_residue_base():
    result = build_certificate((7, 7, 7))
    assert isinstance(result, CertificateFailure)
    assert "zero residue" in result.detail
    assert len(result.word) == 1


def test_build_any_certificate_uses_first_good_candidate():
    cert = build_any_certificate()
    assert cert.base_vector == CANDIDATE_BASE_VECTORS[0]
    assert verify_certificate(cert)


def test_corrupted_certificate_rejected():
    cert = build_certificate((0, 1, 0))
    state = next(iter(cert.states))

    zeroed = (state[0], (0,) * len(state[1]))
    assert not verify_certificate(replace(cert, states=cert.states - {state} | {zeroed}))

    # Rewire one transition to a wrong-but-existing target.
    (key, _), *_ = sorted(cert.transitions.items())
    other = next(s for s in cert.states if s != cert.transitions[key])
    broken = dict(cert.transitions)
    broken[key] = other
    assert not verify_certificate(replace(cert, transitions=broken))

    assert not verify_certificate(replace(cert, states=frozenset()))


def test_certificate_kind_consistency_checked():
    cert = build_certificate((0, 1, 0))
    assert not verify_certificate(replace(cert, base_vector=None))


def test_certificate_and_exhaustion_agree():
    # Both oracles say "free" on the same ball; neither shares code with the other.
    assert exhaustive_check(6).certified
    assert verify_certificate(build_any_certificate())
