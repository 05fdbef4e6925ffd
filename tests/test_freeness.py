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
    build_certificate,
    exhaustive_check,
    verify_certificate,
    walk_check,
)
from paradoxlab.words import Letter, ReducedWord

import oracles
from oracles import apply, matmul, ref_verify_certificate, word_matrix

ROT_Z = Mat3.from_rows([[0, -1, 0], [1, 0, 0], [0, 0, 1]])
ROT_X = Mat3.from_rows([[1, 0, 0], [0, 0, -1], [0, 1, 0]])
CYCLE_AXES = Mat3.from_rows([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
# The same order-3 rotation conjugated by the paper's A, paired with the
# paper's B: entries over 49, so aa (scaled by 49^2) meets A (scaled by 49)
# only after gcd reduction, and no other pair of the half ball collides.
CYCLE_CONJUGATE = matmul(matmul(exactlin.GEN_A, CYCLE_AXES), exactlin.GEN_A.transpose())
# No rotation, but over 7 like the paper's: with the paper's B, 7a(0, 1, 0) =
# (7, 0, 0) is zero mod 7 at once, and (1, 0, 0) meets a zero residue only later.
SHORTCUT_A = Mat3.from_rows([[6, 7, 3], [2, 0, -6], [-3, 0, 2]], scale=Fraction(1, 7))


def _use_generators(monkeypatch, a: Mat3, b: Mat3) -> dict[Letter, Mat3]:
    """Patch both scaled copies, exactlin's for the ball and freeness's for the certificate builder."""
    gens = {Letter.A: a, Letter.B: b, Letter.A_INV: a.transpose(), Letter.B_INV: b.transpose()}
    scaled = tuple(scaled_integer_form(gens[x]) for x in Letter)
    monkeypatch.setattr(exactlin, "SCALED_GENERATORS", scaled)
    monkeypatch.setattr(freeness, "SCALED_GENERATORS", scaled)
    return gens


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


def test_every_candidate_base_builds_one_automaton():
    # So the default base CANDIDATE_BASE_VECTORS[0] stands for them all, and
    # the benchmark's draw among them builds the same certificate.
    certs = [build_certificate(v0) for v0 in CANDIDATE_BASE_VECTORS]
    first = certs[0]
    assert (len(first.states), len(first.transitions)) == (24, 72)
    for cert in certs:
        assert (cert.states, cert.transitions) == (first.states, first.transitions)
        assert all(verify_certificate(replace(cert, base_vector=v0)) for v0 in CANDIDATE_BASE_VECTORS)


def test_certificate_failure_past_depth_one(monkeypatch):
    gens = _use_generators(monkeypatch, SHORTCUT_A, exactlin.GEN_B)
    monkeypatch.setattr(oracles, "DEFAULT_GENERATORS", gens)
    base = (1, 0, 0)
    result = build_certificate(base)
    assert isinstance(result, CertificateFailure)
    assert result.detail == f"zero residue after prepending {result.path[0].symbol}"
    assert len(result.path) >= 2

    def zero_mod_7(word):
        # 7^k w v0 on the rational generators, integral and divisible by 7.
        scaled = [c * 7 ** len(word) for c in apply(word_matrix(word), base)]
        assert all(c.denominator == 1 for c in scaled)
        return all(c.numerator % 7 == 0 for c in scaled)

    w = result.word
    assert zero_mod_7(w)
    assert not any(zero_mod_7(ReducedWord(w[i:])) for i in range(1, len(w) + 1))


def test_verify_certificate_rejects_a_closed_automaton_with_zero_residues():
    # The 24-state certificate with the four zero-residue states added, and the transitions they imply: a
    # zero residue prepends to a zero residue, so the roots and every implied target are states and the
    # transitions are exactly the implied ones.  Only the nonzero-residue guard rejects it.
    cert = build_certificate(CANDIDATE_BASE_VECTORS[0])
    zero = (0, 0, 0)
    zeros = {(x, zero) for x in range(4)}
    transitions = dict(cert.transitions)
    transitions.update(
        ((state, y), (y, zero)) for state in zeros for y in range(4) if Letter(y) != Letter(state[0]).inverse()
    )
    extended = replace(cert, states=cert.states | zeros, transitions=transitions)
    assert len(extended.states) == 28 and len(extended.transitions) == 84
    assert verify_certificate(cert) and not verify_certificate(extended)


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
    assert verify_certificate(build_certificate(CANDIDATE_BASE_VECTORS[0]))


# -- the checker against its piecewise reference -------------------------------


def _implied(state, letter):
    """The state prepending ``letter`` to ``state`` reaches, on the builder's scaled-integer matrices."""
    return int(letter), freeness._matvec_mod(freeness._transition_matrices()[letter], state[1])


def _rename(cert, old, new):
    """cert with state ``old`` replaced by ``new`` in the states and in every transition."""
    swap = {old: new}
    states = cert.states - {old} | {new}
    transitions = {(swap.get(s, s), x): swap.get(t, t) for (s, x), t in cert.transitions.items()}
    return replace(cert, states=states, transitions=transitions)


def _with_state(cert, state):
    """cert with ``state`` added, with every transition out of it that the arithmetic implies."""
    added = {(state, int(x)): _implied(state, x) for x in Letter if x != Letter(state[0]).inverse()}
    return replace(cert, states=cert.states | {state}, transitions={**cert.transitions, **added})


def _state_corruptions(cert):
    others = {s for v0 in CANDIDATE_BASE_VECTORS for s in build_certificate(v0).states} - cert.states
    for s in sorted(cert.states):
        yield f"drop {s}", replace(cert, states=cert.states - {s})
        kept = {k: t for k, t in cert.transitions.items() if k[0] != s}
        yield f"drop {s} with its transitions", replace(cert, states=cert.states - {s}, transitions=kept)
        letter, residue = s
        renamed = [(letter, (0, 0, 0))]
        renamed += [(letter, residue[:i] + (residue[i] + 7,) + residue[i + 1 :]) for i in range(3)]
        renamed += [(other, residue) for other in range(5) if other != letter]
        for new in renamed:
            yield f"replace {s} by {new}", replace(cert, states=cert.states - {s} | {new})
            yield f"rename {s} to {new}", _rename(cert, s, new)
    for s in sorted(others):
        yield f"add {s}", replace(cert, states=cert.states | {s})
        yield f"add {s} with its transitions", _with_state(cert, s)


def _transition_corruptions(cert):
    states = sorted(cert.states)
    for key, target in sorted(cert.transitions.items()):
        yield f"drop {key}", replace(cert, transitions={k: t for k, t in cert.transitions.items() if k != key})
        at = states.index(target)
        for other in (states[(at + i) % len(states)] for i in range(1, 6)):
            yield f"retarget {key} to {other}", replace(cert, transitions={**cert.transitions, key: other})
    for s in states:
        inverse = Letter(s[0]).inverse()
        illegal = {(s, int(inverse)): _implied(s, inverse)}
        yield f"prepend {inverse.symbol} at {s}", replace(cert, transitions={**cert.transitions, **illegal})


def _container_corruptions(cert):
    base = cert.base_vector
    for v0 in CANDIDATE_BASE_VECTORS:
        if v0 != base:
            yield f"base {v0}", replace(cert, base_vector=v0)
    congruent = (base[0], base[1] + 7, base[2])
    doubled = tuple(2 * v for v in base)
    for v0 in (congruent, doubled, base[:2], base + (0,), None, (7, 7, 7)):
        yield f"base {v0}", replace(cert, base_vector=v0)
    yield "no states", replace(cert, states=frozenset())
    yield "no transitions", replace(cert, transitions={})
    yield "nothing", replace(cert, states=frozenset(), transitions={})
    yield "states as a list", replace(cert, states=sorted(cert.states))
    yield "states as a set", replace(cert, states=set(cert.states))
    yield "transitions as a list", replace(cert, transitions=sorted(cert.transitions.items()))


CORRUPTIONS = {
    "states": _state_corruptions,
    "transitions": _transition_corruptions,
    "containers": _container_corruptions,
}


@pytest.mark.parametrize("family", CORRUPTIONS)
@pytest.mark.parametrize("base", CANDIDATE_BASE_VECTORS, ids=str)
def test_checker_agrees_with_its_piecewise_reference(base, family):
    cert = build_certificate(base)
    cases = [("as built", cert), *CORRUPTIONS[family](cert)]
    verdicts = {name: verify_certificate(c) for name, c in cases}
    assert len(verdicts) == len(cases)
    assert [name for name, c in cases if verdicts[name] != ref_verify_certificate(c)] == []
    assert verdicts["as built"]
