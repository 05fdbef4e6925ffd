"""Reduced words, ball enumeration, and the five-class decomposition."""

import copy
import gc
import pickle
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from paradoxlab import words
from paradoxlab.errors import ResourceLimitError
from paradoxlab.exactlin import ball_matrices
from paradoxlab.freeness import build_certificate, exhaustive_check
from paradoxlab.paradox import f2_ball_model, orbit_transport
from paradoxlab.sphere import fixed_directions
from paradoxlab.words import (
    BALL_CAP,
    MAX_VIOLATIONS,
    F2ParadoxReport,
    Letter,
    PrefixClass,
    ReducedWord,
    SplitCheck,
    ball,
    ball_levels,
    ball_size,
    reduce,
    verify_f2_paradox,
)

from conftest import run_cli
from oracles import IDENTITY, brute_force_ball, check_split, concat, invert, prefix_class, verify_f2_paradox_per_word

letter_lists = st.lists(st.sampled_from(list(Letter)), max_size=12)


# -- structure and reduction -------------------------------------------------


def test_letter_inverses_pair_up():
    assert Letter.A.inverse() is Letter.A_INV
    assert Letter.B.inverse() is Letter.B_INV
    for letter in Letter:
        assert letter.inverse().inverse() is letter


def test_unreduced_construction_rejected():
    for letters in (
        (Letter.A, Letter.A_INV),
        (Letter.B, Letter.A, Letter.A_INV),
        (Letter.B_INV, Letter.B),
    ):
        with pytest.raises(ValueError):
            ReducedWord(letters)


def test_fast_built_words_pass_public_validation():
    # ball_matrices, concat and invert skip validation; the public constructor
    # must accept every word they build and rebuild an equal one.
    rebuilt = [ReducedWord(letters) for letters, _, _ in ball_matrices(6)]
    assert rebuilt == list(ball(6))
    b3 = ball(3)
    for u in b3:
        assert ReducedWord(bytes(invert(u))) == invert(u)
        for v in b3:
            uv = concat(u, v)
            assert ReducedWord(bytes(uv)) == uv


def test_string_roundtrip():
    w = ReducedWord.from_string("abAB")
    assert str(w) == "abAB"
    assert ReducedWord.from_string("aA") is not None  # reduces, does not raise
    assert ReducedWord.from_string("aA") == IDENTITY


@given(letter_lists)
def test_reduce_output_is_reduced(letters):
    w = reduce(letters)
    for x, y in zip(bytes(w), bytes(w)[1:]):
        assert x != Letter(y).inverse()


@given(letter_lists, letter_lists)
def test_concat_agrees_with_full_reduction(s, t):
    # Seam-only cancellation must match re-reducing the whole string.
    assert concat(reduce(s), reduce(t)) == reduce(list(s) + list(t))


@given(letter_lists)
def test_inverse_laws(letters):
    w = reduce(letters)
    assert invert(invert(w)) == w
    assert concat(w, invert(w)) == IDENTITY
    assert concat(invert(w), w) == IDENTITY


# -- ball enumeration --------------------------------------------------------


def test_ball_sizes_match_closed_form():
    for n in range(7):
        assert len(ball(n)) == ball_size(n)
    assert [ball_size(n) for n in range(1, 7)] == [5, 17, 53, 161, 485, 1457]


def test_ball_matches_brute_force_oracle():
    for n in range(5):
        assert frozenset(ball(n)) == brute_force_ball(n)


def test_ball_is_length_lex_ordered():
    words = ball(4)
    lengths = [len(w) for w in words]
    assert lengths == sorted(lengths)
    assert len(set(words)) == len(words)


def test_ball_levels_match_the_walk_and_the_brute_force_ball():
    assert [list(level) for level in ball_levels(0)] == [[b""]]
    for n in range(9):
        levels = [list(level) for level in ball_levels(n)]
        assert [len(level) for level in levels] == [1] + [4 * 3 ** (k - 1) for k in range(1, n + 1)]
        assert all(len(w) == k for k, level in enumerate(levels) for w in level)
        # Fan-out contract ball_matrices relies on: the parent of word i is word i // 3.
        if n:
            assert levels[1] == [bytes((x,)) for x in Letter]
        for k in range(2, n + 1):
            assert all(w[:-1] == levels[k - 1][i // 3] for i, w in enumerate(levels[k]))
        flat = [ReducedWord(w) for level in levels for w in level]
        assert flat == sorted(brute_force_ball(n), key=lambda w: (len(w), bytes(w)))


@pytest.mark.parametrize("enabled", [True, False], ids=["collector on", "collector off"])
def test_ball_restores_the_callers_collector_state(enabled):
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        assert len(ball(3)) == ball_size(3)
        assert gc.isenabled() is enabled
        for radius, error in ((BALL_CAP + 1, ResourceLimitError), (-1, ValueError)):
            with pytest.raises(error):
                ball(radius)
            assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()


def test_no_collection_starts_while_the_ball_is_built():
    # The collector tracks every word, so with it running, building
    # ball(8)'s 9,841 words starts young collections that can free none.
    assert gc.isenabled()
    inside = [False]
    starts = []

    def record(phase, info):
        if phase == "start" and inside[0]:
            starts.append(info["generation"])

    gc.callbacks.append(record)
    try:
        inside[0] = True
        built = ball(8)
        inside[0] = False
    finally:
        gc.callbacks.remove(record)
    assert len(built) == ball_size(8)
    assert starts == []


def test_ball_words_are_plain_reduced_words():
    for w in ball(6):
        rebuilt = ReducedWord(bytes(w))
        assert type(w) is ReducedWord
        assert w == rebuilt and hash(w) == hash(rebuilt)


# -- letters as bytes ----------------------------------------------------------


def test_stored_letters_are_plain_ints():
    # Letter members compare and hash as their ints, so a word means the same
    # either way; bytes of plain ints are what the words are.
    strings = [w for level in ball_levels(6) for w in level]
    strings += [bytes(w) for w in ball(6)]
    strings += [letters for letters, _, _ in ball_matrices(5)]
    assert all(type(letters) is bytes for letters in strings)
    assert all(type(x) is int for letters in strings for x in letters)
    words = ball(6)
    assert all(isinstance(w, bytes) and w == bytes(w) for w in words)
    assert all(type(x) is int for w in words for x in w)


def test_public_construction_normalises_to_plain_ints():
    for w in (ReducedWord((Letter.A, Letter.B)), ReducedWord.from_string("abAB"), reduce([Letter.B, Letter.A_INV])):
        assert isinstance(w, bytes) and w and all(type(x) is int for x in w)
    assert ReducedWord((Letter.A, Letter.B)) == ReducedWord((0, 1))
    assert str(ReducedWord((0, 1, 2, 3))) == "abAB"
    for bad in ((4,), (0, -1)):
        with pytest.raises(ValueError):
            ReducedWord(bad)


def test_a_word_equals_and_hashes_as_its_letters():
    for w in ball(4):
        letters = bytes(w)
        assert w == letters and letters == w and hash(w) == hash(letters)
    assert {ReducedWord.from_string("ab"): 1}[b"\x00\x01"] == 1
    assert ReducedWord.from_string("ab") != ReducedWord.from_string("ba")


# Bytes order is not length-lex order ("B" < "aa" by length, b"\x03" > b"\x00\x00"),
# and joining letters is not the group product ("a" joined to "A" is not the identity).
NO_WORD_OPERATOR = {
    "<": lambda u, v: u < v,
    "<=": lambda u, v: u <= v,
    ">": lambda u, v: u > v,
    ">=": lambda u, v: u >= v,
    "+": lambda u, v: u + v,
}


@pytest.mark.parametrize("op", NO_WORD_OPERATOR.values(), ids=NO_WORD_OPERATOR.keys())
def test_a_word_has_no_order_and_no_concatenation(op):
    u, v = ReducedWord.from_string("aB"), ReducedWord.from_string("A")
    for left, right in ((u, v), (u, bytes(v)), (bytes(u), v)):
        with pytest.raises(TypeError):
            op(left, right)


def test_a_word_has_no_repetition_and_no_sort():
    w = ReducedWord.from_string("aB")
    for repeat in (lambda: w * 2, lambda: 2 * w):
        with pytest.raises(TypeError):
            repeat()
    with pytest.raises(TypeError):
        sorted(ball(2))


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_and_copy_round_trip_through_the_validating_constructor(protocol):
    for w in (IDENTITY, ReducedWord.from_string("abAB"), ball(5)[-1]):
        for twin in (pickle.loads(pickle.dumps(w, protocol)), copy.copy(w), copy.deepcopy(w)):
            assert type(twin) is ReducedWord and twin == w and str(twin) == str(w)
    # Each edit keeps the pickle well formed and only its letters change.
    # Protocol 0 escapes the letter 0, so the word leaves it out.
    w = ReducedWord.from_string("bAbAbAbA")
    data = pickle.dumps(w, protocol)
    for bad, message in ((b"\x04", "not in tuple"), (b"\x03", "word is not reduced at position 6: bB")):
        edited = bytes(w)[:-1] + bad
        assert data.count(bytes(w)) == 1 and len(edited) == len(w)
        with pytest.raises(ValueError, match=message):
            pickle.loads(data.replace(bytes(w), edited))


def test_unreduced_construction_message_is_the_same_for_letters_and_ints():
    messages = []
    for letters in ((Letter.A, Letter.A_INV), (0, 2)):
        with pytest.raises(ValueError) as exc:
            ReducedWord(letters)
        messages.append(str(exc.value))
    assert messages == ["word is not reduced at position 0: aA"] * 2


# Every consumer of the ball walk inherits its one radius cap.
BALL_CONSUMERS = {
    "ball": ball,
    "ball_levels": lambda n: next(ball_levels(n)),
    "ball_matrices": lambda n: next(ball_matrices(n)),
    "verify_f2_paradox": verify_f2_paradox,
    "exhaustive_check": exhaustive_check,
    "fixed_directions": fixed_directions,
    "f2_ball_model": f2_ball_model,
    "orbit_transport": lambda n: orbit_transport(n, build_certificate((0, 1, 0))),
}


@pytest.mark.parametrize("consumer", BALL_CONSUMERS.values(), ids=BALL_CONSUMERS.keys())
def test_ball_cap_enforced(consumer):
    with pytest.raises(ResourceLimitError):
        consumer(15)


def test_ball_rejects_negative_radius():
    with pytest.raises(ValueError):
        ball(-1)


@given(letter_lists)
def test_short_reductions_land_in_the_ball(letters):
    w = reduce(letters)
    if len(w) <= 4:
        assert w in frozenset(ball(4))


# -- prefix classes and the decomposition ------------------------------------


def test_prefix_class_census_depth_4():
    counts = {c: 0 for c in PrefixClass}
    for w in ball(4):
        counts[prefix_class(w)] += 1
    assert counts[PrefixClass.IDENTITY] == 1
    assert all(counts[c] == 40 for c in PrefixClass if c is not PrefixClass.IDENTITY)


def test_verify_f2_paradox_depth_3():
    report = verify_f2_paradox(3)
    assert report.passed
    assert not report.partition_violations
    assert report.split_a.checked == 53
    assert report.split_b.checked == 53


#: Bound on the tracemalloc peak of ball(9), in bytes per word.  With each
#: word one bytes object of its letters it is 84.4 B per word with Python
#: 3.11; a wrapper around separate bytes letters took 100.1, and one around
#: tuples of ints about 166.
BALL_PEAK_BYTES_PER_WORD = 92


def test_ball_peak_memory_per_word():
    tracemalloc.start()
    try:
        words = ball(9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(words) == 39_365
    assert peak / len(words) < BALL_PEAK_BYTES_PER_WORD


#: Bound on the tracemalloc peak of verify_f2_paradox(9), in bytes per word.
#: The levels below the last are held as lists and the last is streamed:
#: about 36 B per word with Python 3.11.  Storing the last level too took
#: about 113.
VERIFY_PEAK_BYTES_PER_WORD = 60


def test_verify_f2_paradox_peak_memory_per_word():
    tracemalloc.start()
    try:
        report = verify_f2_paradox(9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed and report.split_a.checked == 39_365
    assert peak / report.split_a.checked < VERIFY_PEAK_BYTES_PER_WORD


#: Bound on the tracemalloc peak of draining ball_matrices(9), in bytes per
#: word.  Only the previous level's matrices are held and the last level's
#: are dropped: about 160-180 B per word with Python 3.11.  Keeping the last
#: level's matrices too took about 465.
BALL_MATRICES_PEAK_BYTES_PER_WORD = 250


def test_ball_matrices_peak_memory_per_word():
    tracemalloc.start()
    try:
        words = sum(1 for _ in ball_matrices(9))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert words == 39_365
    assert peak / words < BALL_MATRICES_PEAK_BYTES_PER_WORD


def test_one_pass_verify_matches_check_split():
    a, b = ReducedWord.from_string("a"), ReducedWord.from_string("b")
    for d in range(1, 7):
        report = verify_f2_paradox(d)
        assert report.split_a == check_split(d, PrefixClass.W_A, PrefixClass.W_A_INV, a)
        assert report.split_b == check_split(d, PrefixClass.W_B, PrefixClass.W_B_INV, b)
        assert report.split_a.checked == ball_size(d)


# The ReducedWord route the letter-tuple checks replaced, kept as their
# reference.  Free reduction of the joined letters stands in for seam
# cancellation, so the two share no product code.


def _split_violation_by_words(h, cover, piece, mover):
    if prefix_class(h) is cover:
        return None
    shifted = reduce(bytes(invert(mover)) + bytes(h))
    if prefix_class(shifted) is not piece:
        return f"{str(h)!r} not covered: {str(mover)!r}^-1 * h = {str(shifted)!r} is not in class {piece.value}"
    if reduce(bytes(mover) + bytes(shifted)) != h:
        return f"reassembly failed for {str(h)!r}"
    return None


def _check_split_by_words(depth, cover, piece, mover):
    words = ball(depth)
    violations = [v for h in words if (v := _split_violation_by_words(h, cover, piece, mover)) is not None]
    return SplitCheck(depth, cover, piece, mover, len(words), tuple(violations[:MAX_VIOLATIONS]))


def _verify_f2_paradox_by_words(depth):
    counts = {c: 0 for c in PrefixClass}
    for w in ball(depth):
        counts[prefix_class(w)] += 1
    a, b = ReducedWord.from_string("a"), ReducedWord.from_string("b")
    return F2ParadoxReport(
        depth,
        counts,
        (),
        _check_split_by_words(depth, PrefixClass.W_A, PrefixClass.W_A_INV, a),
        _check_split_by_words(depth, PrefixClass.W_B, PrefixClass.W_B_INV, b),
    )


def test_verify_matches_the_word_object_route():
    for d in range(1, 9):
        report = verify_f2_paradox(d)
        assert report == _verify_f2_paradox_by_words(d)
        assert list(report.class_counts) == list(PrefixClass)


CORRUPTED_SPLITS = [
    (PrefixClass.W_A, PrefixClass.W_A_INV, "b"),  # wrong mover
    (PrefixClass.W_A, PrefixClass.W_B, "a"),  # wrong piece
    (PrefixClass.W_B, PrefixClass.W_A_INV, "a"),  # wrong cover
    (PrefixClass.W_A, PrefixClass.W_A_INV, "aB"),  # a two-letter mover, so seams cancel twice
]


@pytest.mark.parametrize("cover,piece,mover", CORRUPTED_SPLITS)
def test_corrupted_splits_match_the_word_object_route(cover, piece, mover):
    mover = ReducedWord.from_string(mover)
    for d in (1, 4):
        bad = check_split(d, cover, piece, mover)
        assert bad.violations
        assert bad == _check_split_by_words(d, cover, piece, mover)


# Fault demos: each corrupts the enumeration the verifier walks, in a way
# that checking the covering identities word by word, by prepending the
# mover's inverse, does not see.


def test_verify_catches_a_successor_table_that_lets_a_letter_meet_its_inverse(monkeypatch):
    # a may be followed by a^-1 in place of b^-1: three successors, as before.
    monkeypatch.setattr(words, "_NEXT", ((b"\x00", b"\x01", b"\x02"),) + words._NEXT[1:])
    report = verify_f2_paradox(3)
    assert not report.passed and not report.partition_violations
    assert report.split_b.violations[:2] == ("'aA' is not reduced at its last letter", "'aaA' is not reduced at its last letter")
    assert report.split_a.violations[0] == "'baA' is not reduced at its last letter"
    assert run_cli("words", "verify", "--depth", "3").code == 1


# A letter outside 0-3, at the depth where it first appears.
BAD_LETTERS = [
    ("_FIRST", (b"\x00", b"\x01", b"\x02", b"\x04"), 1, "(4,)"),
    ("_NEXT", ((b"\x00", b"\x01", b"\x04"),) + words._NEXT[1:], 2, "(0, 4)"),
    ("_NEXT", ((b"\x00", b"\x01", b"\xff"),) + words._NEXT[1:], 2, "(0, 255)"),
]


@pytest.mark.parametrize("table,value,depth,word", BAD_LETTERS, ids=[w for *_, w in BAD_LETTERS])
def test_verify_reports_a_letter_outside_0_to_3_as_a_partition_violation(monkeypatch, table, value, depth, word):
    monkeypatch.setattr(words, table, value)
    report = verify_f2_paradox(depth)
    assert report.partition_violations == (f"{word} does not end in one of the letters 0-3",)
    assert report.split_a.passed and report.split_b.passed and not report.passed


def test_verify_fails_closed_on_a_reordered_level(monkeypatch):
    # Level 2 comes reversed: every word is still reduced, but word i no
    # longer extends word i // 3 of level 1.
    ball_levels = words.ball_levels

    def reordered(n):
        for k, level in enumerate(ball_levels(n)):
            yield list(reversed(list(level))) if k == 2 else level

    monkeypatch.setattr(words, "ball_levels", reordered)
    report = verify_f2_paradox(3)
    assert not report.passed and not report.partition_violations
    assert report.split_a.violations[0] == report.split_b.violations[0] == "'BB' does not extend its parent 'a'"


@pytest.mark.parametrize("depth", [2, 3])
def test_verify_fails_closed_on_a_level_short_of_its_last_word(monkeypatch, depth):
    # Level 2 loses its last word: the streamed last level at depth 2, a
    # stored level at depth 3.  Every word left is reduced and extends its
    # parent, so only the level's count shows the loss.
    ball_levels = words.ball_levels

    def short(n):
        for k, level in enumerate(ball_levels(n)):
            yield list(level)[:-1] if k == 2 else level

    monkeypatch.setattr(words, "ball_levels", short)
    report = verify_f2_paradox(depth)
    assert not report.passed and not report.partition_violations
    assert report.split_a.violations[0] == report.split_b.violations[0] == "level 2 has 11 words, expected 12"
    assert run_cli("words", "verify", "--depth", str(depth)).code == 1


@pytest.mark.parametrize("depth", [1, 3])
def test_verify_fails_closed_on_a_missing_last_level(monkeypatch, depth):
    # ball_levels stops one level early: every word it yields passes, so
    # only the level it never yields shows the loss.
    ball_levels = words.ball_levels

    def early(n):
        for k, level in enumerate(ball_levels(n)):
            if k < n:
                yield level

    monkeypatch.setattr(words, "ball_levels", early)
    report = verify_f2_paradox(depth)
    expected = f"level {depth} has 0 words, expected {4 * 3 ** (depth - 1)}"
    assert not report.passed and not report.partition_violations
    assert report.split_a.violations == report.split_b.violations == (expected,)
    assert run_cli("words", "verify", "--depth", str(depth)).code == 1


def test_verify_fails_closed_on_a_doubled_identity(monkeypatch):
    ball_levels = words.ball_levels

    def doubled(n):
        for k, level in enumerate(ball_levels(n)):
            yield level * 2 if k == 0 else level

    monkeypatch.setattr(words, "ball_levels", doubled)
    report = verify_f2_paradox(2)
    assert not report.passed and not report.partition_violations
    assert report.split_a.violations == report.split_b.violations == ("level 0 has 2 words, expected 1",)


def test_verify_f2_paradox_rejects_bad_depth():
    with pytest.raises(ValueError):
        verify_f2_paradox(0)


def test_check_split_rejects_identity_class():
    with pytest.raises(ValueError):
        check_split(3, PrefixClass.IDENTITY, PrefixClass.W_A, ReducedWord.from_string("a"))


def test_corrupted_split_wrong_mover():
    bad = check_split(4, PrefixClass.W_A, PrefixClass.W_A_INV, ReducedWord.from_string("b"))
    assert not bad.passed
    assert bad.violations


def test_corrupted_split_wrong_piece():
    bad = check_split(4, PrefixClass.W_A, PrefixClass.W_B, ReducedWord.from_string("a"))
    assert not bad.passed


def test_corrupted_split_wrong_cover():
    bad = check_split(4, PrefixClass.W_B, PrefixClass.W_A_INV, ReducedWord.from_string("a"))
    assert not bad.passed


# -- the level comparison against the word-by-word verifier ------------------


def _edit(level, k, kind, i, j, value):
    """A copy of ``level``, the words of length k, with one edit; None where the edit does not apply."""
    out = list(level)
    i, j = i % len(out), j % len(out)
    if kind == "letter" and k:
        at = j % k
        out[i] = out[i][:at] + bytes((value,)) + out[i][at + 1 :]
    elif kind == "drop":
        del out[i]
    elif kind == "duplicate":
        out.insert(i, out[i])
    elif kind == "move":
        out.insert(j, out.pop(i))
    elif kind == "swap siblings" and k:
        other = j % 4 if k == 1 else i - i % 3 + j % 3
        out[i], out[other] = out[other], out[i]
    elif kind == "lengthen":
        out[i] += bytes((value,))
    elif kind == "shorten" and k > 1:
        out[i] = out[i][:-1]
    elif kind == "shift a letter" and k > 1:
        # Words of lengths k - 1 and k + 1 whose joined letters are unchanged.
        i = min(i, len(out) - 2)
        out[i], out[i + 1] = out[i][:-1], out[i][-1:] + out[i + 1]
    elif kind == "extra word" and k == 1:
        out.append(bytes((value,)))
    else:
        return None
    return out


def _one_level_replaced(at, replacement):
    """A ball_levels that yields ``replacement`` in place of level ``at``, streamed when it is the last."""
    ball_levels = words.ball_levels

    def replaced(n):
        for k, level in enumerate(ball_levels(n)):
            yield (iter(replacement) if k == n else replacement) if k == at else level

    return replaced


EDITS = ("letter", "drop", "duplicate", "move", "swap siblings", "lengthen", "shorten", "shift a letter", "extra word")


@settings(max_examples=400, deadline=None)
@given(
    depth=st.integers(1, 5),
    at=st.integers(0, 5),
    kind=st.sampled_from(EDITS),
    i=st.integers(0, 400),
    j=st.integers(0, 400),
    value=st.sampled_from([0, 1, 2, 3, 4, 255]),
    chunk=st.sampled_from([1, 2, 5, words._VERIFY_CHUNK]),
)
# Level 1 extends the identity, whatever level 0 holds.
@example(depth=2, at=0, kind="drop", i=0, j=0, value=0, chunk=words._VERIFY_CHUNK)
@example(depth=3, at=0, kind="lengthen", i=0, j=0, value=1, chunk=words._VERIFY_CHUNK)
# Two words of lengths 1 and 3 that join to the letters of two siblings.
@example(depth=3, at=2, kind="shift a letter", i=4, j=0, value=0, chunk=words._VERIFY_CHUNK)
@example(depth=4, at=1, kind="extra word", i=0, j=0, value=0, chunk=1)
def test_level_comparison_matches_the_word_by_word_verifier(depth, at, kind, i, j, value, chunk):
    at = min(at, depth)
    levels = [list(level) for level in ball_levels(depth)]
    edited = _edit(levels[at], at, kind, i, j, value)
    assume(edited is not None)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(words, "_VERIFY_CHUNK", chunk)
        patch.setattr(words, "ball_levels", _one_level_replaced(at, edited))
        assert verify_f2_paradox(depth) == verify_f2_paradox_per_word(depth)


def test_a_fault_in_a_later_chunk_of_the_streamed_last_level(monkeypatch):
    # Level 7 has 2,916 words; word 2,000 lies past the first two chunks.
    assert 2000 >= 2 * 3 * words._VERIFY_CHUNK
    bad = [list(level) for level in ball_levels(7)][7][2000][:-1] + b"\x04"
    real = words.ball_levels

    def faulty(n):
        for k, level in enumerate(real(n)):
            yield (bad if i == 2000 else w for i, w in enumerate(level)) if k == n else level

    monkeypatch.setattr(words, "ball_levels", faulty)
    report = verify_f2_paradox(7)
    assert report == verify_f2_paradox_per_word(7)
    assert report.partition_violations == (f"{tuple(bad)} does not end in one of the letters 0-3",)
    assert report.split_a.passed and report.split_b.passed
    assert report.split_a.checked == ball_size(7)


def test_a_level_streamed_below_the_last_leaves_the_next_without_parents(monkeypatch):
    # Streamed once, level 2 is spent before level 3 is read, so no word of
    # level 3 has a parent to extend.
    level = [list(level) for level in ball_levels(3)][2]
    monkeypatch.setattr(words, "ball_levels", _one_level_replaced(2, iter(level)))
    report = verify_f2_paradox(3)
    monkeypatch.setattr(words, "ball_levels", _one_level_replaced(2, iter(level)))
    assert report == verify_f2_paradox_per_word(3)
    assert report.split_b.violations[0] == "'aaa' does not extend its parent None"


def test_swapped_siblings_pass_and_their_children_do_not(monkeypatch):
    # Siblings share a parent, so swapped they still each extend it; the
    # level after then no longer extends them in order.
    for at, depth in ((3, 3), (2, 3)):
        level = [list(level) for level in ball_levels(depth)][at]
        level[0], level[1] = level[1], level[0]
        with monkeypatch.context() as patch:
            patch.setattr(words, "ball_levels", _one_level_replaced(at, level))
            report = verify_f2_paradox(depth)
            assert report == verify_f2_paradox_per_word(depth)
        assert report.passed is (at == depth)
