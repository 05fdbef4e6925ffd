"""Freeness of the rotation pair: exhaustive search and a mod-7 certificate.

Two independent oracles decide whether any nonempty reduced word in the two
generators evaluates to the identity rotation:

* :func:`exhaustive_check` decides every word of length <= d exactly, but
  multiplies out only the half ball, ball(ceil(d/2)).  Split a nonempty
  reduced word w with |w| <= d as w = u.v, |u| = ceil(|w|/2) and
  |v| = floor(|w|/2).  If w evaluates to the identity then u and v^-1 are two
  words of ball(ceil(d/2)) with one matrix, and they are distinct words
  because w is reduced.  So pairwise distinct half-ball matrices prove that
  no such w exists.  When two of them coincide, :func:`walk_check`
  multiplies out ball(d) word by word: it finds the length-lex first
  witness, or certifies if the coincidence only stands for a relation
  longer than d.  Complete up to the chosen depth, silent beyond it.

* :func:`build_certificate` certifies *all* depths at once with a finite
  automaton.  For a nonempty reduced word w and an integer base vector v0,
  track the pair (first letter of w, 7^|w| * eval(w) * v0 mod 7).  Prepending
  a letter x (with x not the inverse of the current first letter, so the word
  stays reduced) multiplies the scaled vector by the integer matrix
  7*generator(x), hence acts on the residue by a fixed mod-7 matrix.  If the
  reachable state set closes up without ever hitting the zero residue, then
  7^|w| * eval(w) * v0 is never divisible by 7, so eval(w)*v0 has a
  coordinate with denominator exactly 7^|w| >= 7 and cannot equal the integer
  vector v0.  No nonempty reduced word fixes v0; in particular none evaluates
  to the identity, and the pair generates a free group acting freely at v0.

The prepend restriction is essential: 7*gen(x) times 7*gen(x^-1) is 49 times
the identity, which vanishes mod 7, so unreduced products do collapse.

``freeness certify`` builds from ``CANDIDATE_BASE_VECTORS[0]`` unless given a
base.  Every candidate builds the same 24 states and 72 transitions from the
paper's generators, so no search over them is made: a base that fails is
reported with the path to its zero residue.

:func:`verify_certificate` trusts nothing of the builder: it rebuilds each
letter's mod-7 action from the rational generators, derives the automaton the
certificate's states imply, and compares that with the certificate whole.

Both oracles run on the paper's two generators only.  A certificate leaves
the program as JSON (:func:`certificate_to_json`, in the ``freeness
certify`` report); nothing reads one back.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import gcd
from typing import Literal, Mapping

from .errors import InvariantViolationError
from .words import Letter, ReducedWord, ball_size, check_ball_radius
from .exactlin import DEFAULT_GENERATORS, SCALED_GENERATORS, ball_matrices

_MOD = 7

#: Integer base vectors: the first is the default base of ``freeness
#: certify``; the benchmark draws from all seven, and the checker's tests run
#: on each.
CANDIDATE_BASE_VECTORS: tuple[tuple[int, int, int], ...] = (
    (0, 1, 0),
    (1, 0, 0),
    (0, 0, 1),
    (1, 1, 0),
    (1, 0, 1),
    (0, 1, 1),
    (1, 1, 1),
)

#: Reduced words admit 4 first letters and 7^3 vector residues.
MAX_VECTOR_STATES = 4 * _MOD**3

StateKey = tuple[int, tuple[int, ...]]


@dataclass(frozen=True)
class FreenessVerdict:
    """Outcome of an exhaustive check to ``depth``.

    ``words_checked`` counts the non-identity words the verdict covers when
    it certifies (all of ball(depth) but the identity), or the words walked
    in length-lex order up to and including the witness.  It is not the
    number of matrices multiplied out.
    """

    outcome: Literal["certified", "counterexample"]
    witness: ReducedWord | None
    words_checked: int

    @property
    def certified(self) -> bool:
        return self.outcome == "certified"


def exhaustive_check(depth: int) -> FreenessVerdict:
    """Decide every nonempty word of length <= depth; exact, depth-complete.

    Suppose a nonempty reduced word w with |w| <= depth evaluates to I.  Split
    it as w = u.v with |u| = ceil(|w|/2) and |v| = floor(|w|/2).  Then
    M_u = M_{v^-1}, and both words lie in ball(ceil(depth/2)).  u != v^-1,
    because w is reduced and nonempty (for |w| = 1, v^-1 is the identity
    word and u is not).  So if the exact matrices of ball(ceil(depth/2)) are
    pairwise distinct, no such w exists and the verdict is ``certified``,
    covering all ball_size(depth) - 1 non-identity words.

    Each matrix is keyed by its scaled integer form divided by
    gcd(den, *ints), which is unique for a rational matrix.  A repeated key
    proves nothing by itself: for odd depth it may stand for a relation of
    length depth + 1.  So on the first repeat :func:`walk_check` decides
    instead, and returns the length-lexicographically first counterexample
    if one exists.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    check_ball_radius(depth)
    seen: set[tuple[int, ...]] = set()
    for _, ints, den in ball_matrices((depth + 1) // 2):
        g = gcd(den, *ints)
        key = (den // g, *(v // g for v in ints))
        if key in seen:
            return walk_check(depth)
        seen.add(key)
    return FreenessVerdict("certified", None, ball_size(depth) - 1)


def walk_check(depth: int) -> FreenessVerdict:
    """Multiply out every nonempty word of length <= depth in length-lex order.

    Returns the first word that evaluates to the identity, with the number
    of words walked up to it, or ``certified`` after the whole ball.  This
    is the witness locator of :func:`exhaustive_check` and the slow route
    its half-ball test is checked against.
    """
    checked = 0
    for letters, ints, den in ball_matrices(depth):
        if not letters:
            continue
        checked += 1
        if ints == (den, 0, 0, 0, den, 0, 0, 0, den):
            return FreenessVerdict("counterexample", ReducedWord(letters), checked)
    return FreenessVerdict("certified", None, checked)


# -- certificate construction ----------------------------------------------


@dataclass(frozen=True)
class FreenessCertificate:
    """Closed automaton over residue states; see the module docstring."""

    base_vector: tuple[int, int, int]
    states: frozenset[StateKey]
    transitions: Mapping[tuple[StateKey, int], StateKey]


@dataclass(frozen=True)
class CertificateFailure:
    """Path to the first zero residue reached from the base vector."""

    base_vector: tuple[int, int, int]
    path: tuple[Letter, ...]
    detail: str

    @property
    def word(self) -> ReducedWord:
        return ReducedWord(self.path)


def _transition_matrices() -> dict[Letter, tuple[int, ...]]:
    """7*generator(x) reduced mod 7, for each letter x."""
    out: dict[Letter, tuple[int, ...]] = {}
    for letter in Letter:
        ints, den = SCALED_GENERATORS[letter]
        if den != _MOD:  # pragma: no cover - fixed generators
            raise InvariantViolationError("default generators must have denominator 7")
        out[letter] = tuple(v % _MOD for v in ints)
    return out


def _matvec_mod(m: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
    return (
        (m[0] * v[0] + m[1] * v[1] + m[2] * v[2]) % _MOD,
        (m[3] * v[0] + m[4] * v[1] + m[5] * v[2]) % _MOD,
        (m[6] * v[0] + m[7] * v[1] + m[8] * v[2]) % _MOD,
    )


def build_certificate(base_vector: tuple[int, int, int]) -> FreenessCertificate | CertificateFailure:
    """Breadth-first closure of the residue automaton from ``base_vector``."""
    trans = _transition_matrices()
    base = tuple(int(v) for v in base_vector)
    if len(base) != 3:
        raise ValueError("base vector must have 3 integer components")
    v0 = tuple(v % _MOD for v in base)

    zero = (0, 0, 0)
    states: set[StateKey] = set()
    transitions: dict[tuple[StateKey, int], StateKey] = {}
    queue: deque[tuple[StateKey, tuple[Letter, ...]]] = deque()
    for letter in Letter:
        residue = _matvec_mod(trans[letter], v0)
        if residue == zero:
            return CertificateFailure(base, (letter,), "zero residue at depth 1")
        state = (int(letter), residue)
        if state not in states:
            states.add(state)
            queue.append((state, (letter,)))
    while queue:
        state, path = queue.popleft()
        first, residue = state
        for letter in Letter:
            if letter == Letter(first).inverse():
                continue
            nxt_residue = _matvec_mod(trans[letter], residue)
            if nxt_residue == zero:
                return CertificateFailure(
                    base, (letter,) + path, f"zero residue after prepending {letter.symbol}"
                )
            nxt = (int(letter), nxt_residue)
            transitions[(state, int(letter))] = nxt
            if nxt not in states:
                states.add(nxt)
                queue.append((nxt, (letter,) + path))
    return FreenessCertificate(base, frozenset(states), transitions)


def verify_certificate(cert: FreenessCertificate) -> bool:
    """Rebuild the automaton the certificate's states imply and compare it whole.

    The mod-7 action of each letter is recomputed from the rational generator
    matrices (not the scaled-integer path used during construction).  The
    states imply one root per letter, its action on the base vector, and for
    every state and every letter that does not cancel its first letter the
    state that prepending the letter reaches.  The certificate passes when
    its base vector has 3 components; it has at most ``MAX_VECTOR_STATES``
    states, each a letter 0-3 with a nonzero residue of three values in 0-6;
    the roots and every implied target are states; and its transitions are
    exactly the implied ones.  Anything else, or any exception, gives False.
    """
    try:
        if len(cert.base_vector) != 3 or len(cert.states) > MAX_VECTOR_STATES:
            return False
        states = frozenset(cert.states)
        if not all(x in (0, 1, 2, 3) and len(r) == 3 and all(0 <= v < _MOD for v in r) and any(r) for x, r in states):
            return False
        mats: dict[int, list[int]] = {}
        for letter in Letter:
            scaled = [e * _MOD for e in DEFAULT_GENERATORS[letter].entries]
            if any(e.denominator != 1 for e in scaled):
                return False
            mats[int(letter)] = [int(e) % _MOD for e in scaled]

        def prepend(x: int, r: tuple[int, ...]) -> StateKey:
            m = mats[x]
            return x, tuple(sum(m[3 * i + j] * r[j] for j in range(3)) % _MOD for i in range(3))

        v0 = tuple(v % _MOD for v in cert.base_vector)
        roots = {prepend(x, v0) for x in mats}
        implied = {(s, x): prepend(x, s[1]) for s in states for x in mats if Letter(x) != Letter(s[0]).inverse()}
        return roots | set(implied.values()) <= states and cert.transitions == implied
    except Exception:
        return False


# -- serialization ----------------------------------------------------------


def certificate_to_json(cert: FreenessCertificate) -> dict:
    def key(state: StateKey) -> list:
        return [Letter(state[0]).symbol, list(state[1])]

    states = sorted(cert.states)
    transitions = sorted(cert.transitions.items())
    return {
        "kind": "vector",
        "base_vector": list(cert.base_vector),
        "states": [key(s) for s in states],
        "transitions": [[key(s), Letter(lv).symbol, key(t)] for (s, lv), t in transitions],
    }

