"""Reduced words over two generators and the prefix-class decomposition.

Words live in the free group on {a, b}.  A word is *reduced* when no letter
stands next to its inverse.  Enumeration is length-lexicographic with letter
order a < b < a^-1 < b^-1 so that reports and "first counterexample" claims
are deterministic.  A word is one ``bytes`` object whose bytes are its
letters, the ints 0-3 that :class:`Letter` names: indexing and iteration
give plain ints, and sets and dicts hash and compare words by ``bytes``'
own code.  The cyclic garbage collector tracks a word, as it does every
instance of a class written in Python, though a word holds no references
and can be in no cycle; :func:`ball` pauses the collector while it builds
its words.  A word of length 10 takes 64 bytes, where a wrapper around
separate ``bytes`` letters took 96.

The headline check, :func:`verify_f2_paradox`, confirms at a finite depth the
two covering identities

    F2 = W(a) u a.W(a^-1)        F2 = W(b) u b.W(b^-1)

where W(x) is the set of reduced words starting with x.  A reduced h outside
W(a) is a.(a^-1 h), where a^-1 h is h with a^-1 prepended, in W(a^-1); so the
verifier proves, by induction on the parent contract, that every word is reduced.

One enumerator, :func:`ball_levels`, yields the ball one length at a time
as lists of raw letter strings (``bytes``), extending each word by the
successor table ``_NEXT``.  Every word of length >= 1 has exactly three
successors, so word i of a level of length >= 2 extends word i // 3 of the
level before; callers that carry a value per word index their parent's
value this way.
:func:`ball` makes them words in one loop over the levels with no call per
word.  :func:`verify_f2_paradox` checks them a chunk of siblings at a time:
it compares each chunk's joined letters with those its parents imply, and
checks word by word only a chunk that differs or whose parents failed.
:func:`exactlin.ball_matrices` carries each word's matrix from its parent's.

A :class:`ReducedWord` is built only where a caller or a report needs the
word: the ball itself, the split movers and witnesses.  The group law on
words (product and inverse), the one-split check and the brute-force ball
are reference oracles and live in the tests.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from enum import Enum, IntEnum
from itertools import chain, count, islice, repeat
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import ResourceLimitError

#: Hard cap on ball radius; |ball(14)| is ~9.5M words and past the desk scale.
#: `paradoxlab words verify` took 0.7-1.0 s and peaked at 72.7 MiB RSS at
#: depth 13, and 2.0 s and 176.6-176.8 MiB at depth 14 (fresh processes on a
#: 2-vCPU VM with Python 3.11).
BALL_CAP = 14

#: Violation messages kept per decomposition check; later ones are dropped.
MAX_VIOLATIONS = 10


class Letter(IntEnum):
    """Generator alphabet; values give the canonical enumeration order."""

    A = 0
    B = 1
    A_INV = 2
    B_INV = 3

    def inverse(self) -> "Letter":
        return Letter(_INVERSES[self])

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
_INVERSES = (2, 3, 0, 1)


class PrefixClass(Enum):
    """The five-way classification of reduced words by first letter."""

    IDENTITY = "e"
    W_A = "a"
    W_B = "b"
    W_A_INV = "A"
    W_B_INV = "B"


#: Prefix class of the words starting with each letter, indexed by letter.
_CLASS_OF_LETTER = (PrefixClass.W_A, PrefixClass.W_B, PrefixClass.W_A_INV, PrefixClass.W_B_INV)


class ReducedWord(bytes):
    """An immutable reduced word: its own bytes are its letters, and the empty word is the identity.

    Public construction takes any iterable of the ints 0-3 (:class:`Letter`
    members included) and validates it (a value outside 0-3 raises
    ValueError).  Code that builds a word reduced by construction, from the
    letters of :func:`ball_levels`, uses :func:`_reduced`, which skips the
    check.  A word equals, and hashes as, the ``bytes`` of its letters, but
    has no order and no ``+`` or ``*``: bytes order is not length-lex order,
    and concatenation is not the group product.
    """

    __slots__ = ()

    def __new__(cls, letters: Iterable[int] = b"") -> "ReducedWord":
        ls = bytes(map(_ALPHABET.index, letters))
        for i in range(len(ls) - 1):
            if ls[i] == _INVERSES[ls[i + 1]]:
                raise ValueError(f"word is not reduced at position {i}: {_reduced(ls[i : i + 2])}")
        return bytes.__new__(cls, ls)

    def __reduce__(self):
        return ReducedWord, (bytes(self),)  # every pickle protocol, and copy, rebuild through __new__

    def _unsupported(self, other):
        raise TypeError("a reduced word has no order, no + and no *")

    __lt__ = __le__ = __gt__ = __ge__ = __add__ = __radd__ = __mul__ = __rmul__ = _unsupported

    # -- text form ----------------------------------------------------------

    def __str__(self) -> str:
        return "".join(["abAB"[x] for x in self])

    def __repr__(self) -> str:
        return f"ReducedWord({str(self)!r})"

    @classmethod
    def from_string(cls, text: str) -> "ReducedWord":
        """Parse a word over the alphabet a, b, A, B (A = a^-1, B = b^-1)."""
        return reduce(Letter.from_symbol(ch) for ch in text)


def _reduced(letters: Iterable[int]) -> ReducedWord:
    """A word of letters the caller knows are reduced, built without re-validating them."""
    return bytes.__new__(ReducedWord, letters)


def reduce(letters: Iterable[int]) -> ReducedWord:
    """Free reduction: cancel adjacent inverse pairs until none remain."""
    stack: list[int] = []
    for letter in letters:
        if stack and stack[-1] == _INVERSES[letter]:
            stack.pop()
        else:
            stack.append(letter)
    return ReducedWord(stack)


_ALPHABET = (0, 1, 2, 3)

#: The one-letter words, in letter order: the successors of the identity.
_FIRST = tuple(bytes((x,)) for x in _ALPHABET)

#: Successor suffixes, indexed by a word's last letter: the one-letter words
#: of every letter but its inverse, in letter order.
_NEXT = tuple(tuple(bytes((y,)) for y in _ALPHABET if y != _INVERSES[x]) for x in _ALPHABET)


def check_ball_radius(n: int) -> None:
    """Refuse a negative radius, or one above BALL_CAP; the one place the cap is enforced."""
    if n < 0:
        raise ValueError("ball radius must be >= 0")
    if n > BALL_CAP:
        raise ResourceLimitError(f"ball({n}) exceeds the configured cap {BALL_CAP}")


def ball_levels(n: int) -> Iterator[Iterable[bytes]]:
    """Yield ball(n) one length at a time, 0 to n, each in length-lexicographic order.

    Every length below n comes as a list of letter strings, built from the
    one before by extending each word with the suffixes ``_NEXT`` allows
    after its last letter; length n is streamed from length n - 1 and never
    stored.  The radius is checked by :func:`check_ball_radius` on the first
    ``next``.  A suffix never inverts the last letter, so every word is
    reduced by construction.  A word is ``bytes`` of the ints 0-3: indexing
    and iteration give plain ints, and the collector never tracks it.

    Parent contract: length 1 is the four one-letter words, each extending
    the identity, and for k >= 2 word i of length k is word i // 3 of
    length k - 1 plus one letter.  :func:`exactlin.ball_matrices` relies on
    it to find each word's parent matrix.
    """
    check_ball_radius(n)
    level: Iterable[bytes] = [b""]
    for k in range(n):
        level = list(level)
        yield level
        level = (w + s for w in level for s in _NEXT[w[-1]]) if k else iter(_FIRST)
    yield level


def ball(n: int) -> tuple[ReducedWord, ...]:
    """All reduced words of length <= n, in length-lexicographic order.

    Each letter string from :func:`ball_levels` is copied into its word by
    one C-level map, with no Python call per word.  The cyclic garbage
    collector is paused while the tuple is built: it tracks every word, but a
    word holds no references, so no collection could free one.  The caller's
    collector state is restored on return and on a raise.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return tuple(map(bytes.__new__, repeat(ReducedWord), chain.from_iterable(ball_levels(n))))
    finally:
        if enabled:
            gc.enable()


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


#: The two-letter endings whose last letter cancels the one before, and
#: ``bytes.translate`` tables of the successor rule: table c takes a letter to
#: the c-th letter, in letter order, that does not cancel it.  Both are built
#: from the inverses alone, so that they check the successor table ``_NEXT``.
_CANCELLING = frozenset(bytes((x, _INVERSES[x])) for x in _ALPHABET)
_SUCCESSOR = tuple(
    bytes.maketrans(bytes(_ALPHABET), bytes([y for y in _ALPHABET if y != _INVERSES[x]][c] for x in _ALPHABET))
    for c in range(3)
)

#: Parent words per chunk that :func:`verify_f2_paradox` compares at once.
#: Under tracemalloc, verify_f2_paradox(9) peaks at about 17 B per word with
#: chunks of 256 parents, 23 with 1,024 and 59 with 4,096 (Python 3.11).
_VERIFY_CHUNK = 256


def _children(parents: Sequence[bytes], k: int) -> bytes | bytearray:
    """The joined letters of the words of length k that extend ``parents``, in order.

    Every parent has length k - 1 and letters 0-3.  At length 1 each parent
    is the identity, extended by each letter in turn; past it, copy c of
    each parent is extended by successor c of its last letter.
    """
    if k == 1:
        return bytes(_ALPHABET) * len(parents)
    joined = b"".join(parents)
    stride = 3 * k
    out = bytearray(stride * len(parents))
    for c, successor in enumerate(_SUCCESSOR):
        for t in range(k - 1):
            out[c * k + t :: stride] = joined[t :: k - 1]
        out[c * k + k - 1 :: stride] = joined[k - 2 :: k - 1].translate(successor)
    return out


def _show(letters: bytes | None) -> str:
    """Quote a word for a message in the symbols a, b, A, B; anything else is shown as a tuple of ints."""
    if letters is None:
        return "None"
    if any(x not in _ALPHABET for x in letters):
        return repr(tuple(letters))
    return repr("".join(["abAB"[x] for x in letters]))


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

    Both rest on every word being reduced: then its first letter puts it in
    one class, and for h outside W(x), x^-1.h is x^-1 prepended to h, in
    W(x^-1).  One pass proves it by induction on the parent contract of
    :func:`ball_levels` and counts the words that pass by class.

    Each level is read in chunks aligned to the words of the level before:
    the children of ``_VERIFY_CHUNK`` parents, or at length 1 the four
    children of the identity.  A chunk passes whole when the level before
    passed, it holds three words per parent (four at length 1), every word
    has the level's length, and its joined letters equal those the parents
    imply under the successor rule (:func:`_children`); its first letters are
    then counted with ``bytes.count``.  Any other chunk is checked word by
    word, and only that loop writes a message.  A word's last letter must be
    one of 0-3 (else a partition violation); a word whose last letter cancels
    the one before, or which does not extend word i // 3 of the level before,
    violates each split whose cover does not hold it.  A level other than the
    one word of length 0 and 4 * 3^(k-1) words at each length k from 1 to
    depth, a level missing or one past depth included, violates both.  A
    level passes when it has its size and every word passes.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    A, B = _ALPHABET[:2]
    counts = [0, 0, 0, 0, 0]  # by first letter; the identity at index 4
    partition_violations: list[str] = []
    violations_a: list[str] = []
    violations_b: list[str] = []

    def check_size(k: int, size: int) -> bool:
        expected = 0 if k > depth else 4 * 3 ** (k - 1) if k else 1
        if size == expected:
            return True
        for violations in (violations_a, violations_b):
            if len(violations) < MAX_VIOLATIONS:
                violations.append(f"level {k} has {size} words, expected {expected}")
        return False

    def check_words(chunk: list[bytes], parents: Iterator[bytes | None]) -> bool:
        """Check each word against its parent; True when every word passes."""
        passed = True
        for h, parent in zip(chunk, parents):
            if h[-1] not in _ALPHABET:
                passed = False
                if len(partition_violations) < MAX_VIOLATIONS:
                    partition_violations.append(f"{_show(h)} does not end in one of the letters 0-3")
                continue
            if h[-2:] in _CANCELLING:
                fault = f"{_show(h)} is not reduced at its last letter"
            elif h[:-1] != parent:
                fault = f"{_show(h)} does not extend its parent {_show(parent)}"
            else:
                counts[h[0]] += 1
                continue
            passed = False
            if h[0] != A and len(violations_a) < MAX_VIOLATIONS:
                violations_a.append(fault)
            if h[0] != B and len(violations_b) < MAX_VIOLATIONS:
                violations_b.append(fault)
        return passed

    levels = ball_levels(depth)
    counts[4] = checked = len(next(levels))  # the identity, the one word of length 0
    parents_passed = check_size(0, checked)
    previous: Sequence[bytes] = (b"",)
    k = 0
    for k, level in enumerate(levels, 1):
        fan = 3 if k > 1 else 4
        words = iter(level)
        passed = True
        size = 0
        for start in count(0, _VERIFY_CHUNK):
            chunk = list(islice(words, fan * _VERIFY_CHUNK))
            if not chunk:
                break
            size += len(chunk)
            parents = previous[start : start + _VERIFY_CHUNK]
            if parents_passed and len(chunk) == fan * len(parents) and set(map(len, chunk)) == {k}:
                joined = b"".join(chunk)
                if joined == _children(parents, k):
                    first = joined[::k]
                    for x in _ALPHABET:
                        counts[x] += first.count(x)
                    continue
            if k > 1:
                # Word i of this level extends word i // 3 of the level before, if there is one.
                passed &= check_words(chunk, chain(chain.from_iterable(zip(parents, parents, parents)), repeat(None)))
            else:
                passed &= check_words(chunk, repeat(b""))
        checked += size
        parents_passed = check_size(k, size) and passed
        previous = level if words is not level else ()  # a level streamed once is spent
    for k in range(k + 1, depth + 1):  # levels ball_levels never yielded
        check_size(k, 0)
    class_counts = {PrefixClass.IDENTITY: counts[4]}
    class_counts.update((_CLASS_OF_LETTER[x], counts[x]) for x in _ALPHABET)
    split_a = SplitCheck(depth, PrefixClass.W_A, PrefixClass.W_A_INV, _reduced((A,)), checked, tuple(violations_a))
    split_b = SplitCheck(depth, PrefixClass.W_B, PrefixClass.W_B_INV, _reduced((B,)), checked, tuple(violations_b))
    return F2ParadoxReport(depth, class_counts, tuple(partition_violations), split_a, split_b)
