"""Freeness of the rotation pair: exhaustive evaluation and residue certificates."""

from dataclasses import replace
from fractions import Fraction

import pytest

from paradoxlab import exactlin
from paradoxlab.exactlin import Mat3, scaled_integer_form
from paradoxlab.freeness import (
    CANDIDATE_BASE_VECTORS,
    CertificateFailure,
    FreenessCertificate,
    build_any_certificate,
    build_certificate,
    exhaustive_check,
    verify_certificate,
)
from paradoxlab.words import Letter


def test_exhaustive_check_small_depths():
    for depth, nonidentity in ((1, 4), (2, 16), (4, 160)):
        verdict = exhaustive_check(depth)
        assert verdict.certified
        assert verdict.witness is None
        assert verdict.words_checked == nonidentity


def test_exhaustive_check_rejects_bad_depth():
    with pytest.raises(ValueError):
        exhaustive_check(0)


def test_order_four_control(monkeypatch):
    # Quarter turns about z and x satisfy a^4 = e; the first length-lex
    # counterexample at depth 4 must be exactly that word.
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
    assert verdict.outcome == "counterexample"
    assert str(verdict.witness) == "aaaa"


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
