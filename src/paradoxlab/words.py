"""Reduced words over two generators and the prefix-class decomposition.

Words live in the free group on {a, b}.  A word is *reduced* when no letter
stands next to its inverse.  Enumeration is length-lexicographic with letter
order a < b < a^-1 < b^-1 so that reports and "first counterexample" claims
are deterministic.

The headline check, :func:`verify_f2_paradox`, confirms at a finite depth the
two covering identities

    F2 = W(a) u a.W(a^-1)        F2 = W(b) u b.W(b^-1)

where W(x) is the set of reduced words starting with x.  Every word h outside
W(a) satisfies h = a.(a^-1 h) with a^-1 h in W(a^-1); the verifier checks that
identity literally for every ball element, so no boundary fudging is needed.

The ball walk (:func:`walk_ball`) and the checks run on raw letter tuples;
a :class:`ReducedWord` is built only where a caller or a report needs the
word: the ball itself, violation messages and witnesses.  The group law on
words (product and inverse), the one-split check and the brute-force ball
are reference oracles and live in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Callable, Iterable, Iterator, Mapping, TypeVar

from .errors import ResourceLimitError

#: Hard cap on ball radius; |ball(14)| is ~9.5M words and past the desk scale.
BALL_CAP = 14

#: Violation messages kept per decomposition check; later ones are dropped.
MAX_VIOLATIONS = 10

V = TypeVar("V")


class Letter(IntEnum):
    """Generator alphabet; values give the canonical enumeration order."""

    A = 0
    B = 1
    A_INV = 2
    B_INV = 3

    def inverse(self) -> "Letter":
        return _INVERSES[self]

    @property
    def symbol(self) -> str:
        return "abAB"[self]

    @classmethod
    def from_symbol(cls, ch: str) -> "Letter":
        try:
            return cls("abAB".index(ch))
        except ValueError:
            raise ValueError(f"unknown letter symbol {ch!r}; expected one of a, b, A, B") from None


#: Inverse of each letter, indexed by letter: a <-> a^-1 and b <-> b^-1.
_INVERSES = (Letter.A_INV, Letter.B_INV, Letter.A, Letter.B)


class PrefixClass(Enum):
    """The five-way classification of reduced words by first letter."""

    IDENTITY = "e"
    W_A = "a"
    W_B = "b"
    W_A_INV = "A"
    W_B_INV = "B"


#: Prefix class of the words starting with each letter, indexed by letter.
_CLASS_OF_LETTER = (PrefixClass.W_A, PrefixClass.W_B, PrefixClass.W_A_INV, PrefixClass.W_B_INV)


@dataclass(frozen=True, slots=True)
class ReducedWord:
    """An immutable reduced word; the empty tuple is the identity.

    Public construction validates.  Code in this module that builds a word
    reduced by construction uses :func:`_reduced`, which skips the check.
    """

    letters: tuple[Letter, ...] = ()

    def __post_init__(self) -> None:
        ls = self.letters
        for i in range(len(ls) - 1):
            if ls[i] == ls[i + 1].inverse():
                raise ValueError(f"word is not reduced at position {i}: {ls[i].symbol}{ls[i + 1].symbol}")

    # -- basic structure ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.letters)

    # -- text form ----------------------------------------------------------

    def __str__(self) -> str:
        return "".join(l.symbol for l in self.letters)

    def __repr__(self) -> str:
        return f"ReducedWord({str(self)!r})"

    @classmethod
    def from_string(cls, text: str) -> "ReducedWord":
        """Parse a word over the alphabet a, b, A, B (A = a^-1, B = b^-1)."""
        return reduce(Letter.from_symbol(ch) for ch in text)


#: The slot's own setter, which skips the frozen dataclass's __setattr__.
_set_letters = ReducedWord.__dict__["letters"].__set__


def _reduced(letters: tuple[Letter, ...]) -> ReducedWord:
    """Wrap letters the caller knows are reduced, without re-validating them."""
    w = object.__new__(ReducedWord)
    _set_letters(w, letters)
    return w


def reduce(letters: Iterable[Letter]) -> ReducedWord:
    """Free reduction: cancel adjacent inverse pairs until none remain."""
    stack: list[Letter] = []
    for letter in letters:
        if stack and stack[-1] == letter.inverse():
            stack.pop()
        else:
            stack.append(letter)
    return ReducedWord(tuple(stack))


def _seam(a: tuple[Letter, ...], b: tuple[Letter, ...]) -> tuple[Letter, ...]:
    """Letters of the product of two reduced letter tuples; cancellation happens only at the seam."""
    i = len(a)
    j = 0
    while i > 0 and j < len(b) and a[i - 1] == _INVERSES[b[j]]:
        i -= 1
        j += 1
    return a[:i] + b[j:]


_ALPHABET = tuple(Letter)


def check_ball_radius(n: int) -> None:
    """Refuse a negative radius, or one above BALL_CAP; the one place the cap is enforced."""
    if n < 0:
        raise ValueError("ball radius must be >= 0")
    if n > BALL_CAP:
        raise ResourceLimitError(f"ball({n}) exceeds the configured cap {BALL_CAP}")


def walk_ball(n: int, root: V, step: Callable[[V, Letter], V]) -> Iterator[tuple[tuple[Letter, ...], V]]:
    """Stream ball(n) in length-lexicographic order: (letters, carried value) per word.

    ``letters`` is the raw letter tuple of the word; the identity is ``()``
    and carries ``root``, and the word w.x carries ``step(value of w, x)``,
    so a per-word product costs one step from its parent.  Breadth-first by
    length, extending in letter order, gives length-lex order.  Only the level
    being extended is held; the last level is yielded and dropped.  The radius
    is checked by :func:`check_ball_radius` on the first ``next``.  A child
    never appends the inverse of its parent's last letter, so every yielded
    tuple is reduced by construction; callers wrap one in a
    :class:`ReducedWord` only where a report needs the word.
    """
    check_ball_radius(n)
    yield (), root
    level = [((), root)]
    for k in range(n):
        keep = k < n - 1
        nxt: list[tuple[tuple[Letter, ...], V]] = []
        for letters, value in level:
            barred = _INVERSES[letters[-1]] if letters else None
            for letter in _ALPHABET:
                if letter is barred:
                    continue
                item = (letters + (letter,), step(value, letter))
                yield item
                if keep:
                    nxt.append(item)
        level = nxt


def _no_value(value: None, letter: Letter) -> None:
    return None


def ball(n: int) -> tuple[ReducedWord, ...]:
    """All reduced words of length <= n, in length-lexicographic order."""
    return tuple(_reduced(letters) for letters, _ in walk_ball(n, None, _no_value))


def ball_size(n: int) -> int:
    """Closed form 1 + sum_{k=1..n} 4*3^(k-1), kept separate as an oracle."""
    return 1 + sum(4 * 3 ** (k - 1) for k in range(1, n + 1))


# -- decomposition checks ---------------------------------------------------


@dataclass(frozen=True)
class SplitCheck:
    """Result of checking one covering identity F2 = W(cover) u mover.W(piece)."""

    depth: int
    cover: PrefixClass
    piece: PrefixClass
    mover: ReducedWord
    checked: int
    violations: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def _split_violation(
    h: tuple[Letter, ...],
    cover: Letter,
    piece: Letter,
    mover: tuple[Letter, ...],
    mover_inv: tuple[Letter, ...],
) -> str | None:
    """Why the word with letters h is not in W(cover) u mover.W(piece), or None when it is.

    ``cover`` and ``piece`` are the first letters of the two classes, and the
    movers come as letter tuples.  A word h outside W(cover) is covered iff
    mover^-1.h starts with the piece letter and mover.(mover^-1.h) reproduces
    h.  Both facts are tested directly, so corrupted movers or pieces surface
    as explicit violations.
    """
    if h and h[0] is cover:
        return None
    shifted = _seam(mover_inv, h)
    if not shifted or shifted[0] is not piece:
        return (
            f"{str(_reduced(h))!r} not covered: {str(_reduced(mover))!r}^-1 * h = "
            f"{str(_reduced(shifted))!r} is not in class {_CLASS_OF_LETTER[piece].value}"
        )
    if _seam(mover, shifted) != h:  # pragma: no cover - group law, unreachable
        return f"reassembly failed for {str(_reduced(h))!r}"
    return None


@dataclass(frozen=True)
class F2ParadoxReport:
    depth: int
    class_counts: Mapping[PrefixClass, int]
    partition_violations: tuple[str, ...]
    split_a: SplitCheck
    split_b: SplitCheck

    @property
    def passed(self) -> bool:
        return not self.partition_violations and self.split_a.passed and self.split_b.passed


def verify_f2_paradox(depth: int) -> F2ParadoxReport:
    """Verify the prefix-class partition and both covering identities on ball(depth).

    One pass over the ball's letter tuples: each word is counted by its first
    letter, its class memberships are recomputed from raw letters, and it is
    tested against both splits F2 = W(a) u a.W(a^-1) and F2 = W(b) u b.W(b^-1)
    by :func:`_split_violation`.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    A, B, A_INV, B_INV = _ALPHABET
    word_a, word_b = (A,), (B,)
    inv_a, inv_b = (A_INV,), (B_INV,)
    counts = [0, 0, 0, 0, 0]  # by first letter; the identity at index 4
    partition_violations: list[str] = []
    violations_a: list[str] = []
    violations_b: list[str] = []
    checked = 0
    for h, _ in walk_ball(depth, None, _no_value):
        checked += 1
        # Memberships recomputed from raw letters, not trusted from the count index.
        first = h[0] if h else None
        classes = (first is None) + (first is A) + (first is B) + (first is A_INV) + (first is B_INV)
        if classes != 1 and len(partition_violations) < MAX_VIOLATIONS:  # pragma: no cover - unreachable
            partition_violations.append(f"{str(_reduced(h))!r} lies in {classes} classes")
        counts[4 if first is None else first] += 1
        problem = _split_violation(h, A, A_INV, word_a, inv_a)
        if problem is not None and len(violations_a) < MAX_VIOLATIONS:
            violations_a.append(problem)
        problem = _split_violation(h, B, B_INV, word_b, inv_b)
        if problem is not None and len(violations_b) < MAX_VIOLATIONS:
            violations_b.append(problem)
    class_counts = {PrefixClass.IDENTITY: counts[4]}
    class_counts.update((_CLASS_OF_LETTER[x], counts[x]) for x in _ALPHABET)
    split_a = SplitCheck(depth, PrefixClass.W_A, PrefixClass.W_A_INV, _reduced(word_a), checked, tuple(violations_a))
    split_b = SplitCheck(depth, PrefixClass.W_B, PrefixClass.W_B_INV, _reduced(word_b), checked, tuple(violations_b))
    return F2ParadoxReport(depth, class_counts, tuple(partition_violations), split_a, split_b)
