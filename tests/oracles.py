"""Reference oracles the tests check the library against.

Nothing in the product runs these: the rational matrix algebra (with the
word product over the rational generators and matrix-vector application), the
fraction-free kernel, the piecewise freeness-certificate checker, the group law on reduced words, the one-split check, the
word-by-word decomposition verifier, the brute-force ball, the direct
product of group tables, the frozenset route of finite action models (validation, images and the derived
interior on point objects), the Fraction routes of the integer kernels
(point-measure mass, the ergodic average with its piecewise-constant
samples, and the additive map), the planar paradox's g/h isometry defect
over every pair, its least difference over every difference vector, the
pairs realising a difference, looked up pair by pair, and its closest pair
by a plane sweep over every point, and the sphere's interval geometry in mpmath's ``iv`` context.  Each is the
slow, general route that a fast path in ``exactlin``, ``words``,
``freeness``, ``measures``, ``paradox``, ``cauchy`` or ``sphere`` must agree with.
"""

from __future__ import annotations

import cmath
import itertools
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from fractions import Fraction
from math import gcd, inf, lcm, sqrt
from typing import Iterator, Sequence

from mpmath import iv
from mpmath.libmp import fone, fzero, mpc_abs, mpc_mul, mpc_sub, mpc_sub_mpf, mpf_cmp, round_nearest

from paradoxlab.cauchy import HamelModel
from paradoxlab.errors import DegenerateInputError, DomainError, InvariantViolationError, ModelError
from paradoxlab.exactlin import DEFAULT_GENERATORS, Mat3, ProjectiveDirection, _scaled_axis, scaled_integer_form
from paradoxlab.freeness import _MOD, MAX_VECTOR_STATES, FreenessCertificate
from paradoxlab.measures import GroupTable, PiecewiseConstant, PointMeasure, _frac
from paradoxlab.paradox import _Kernel, _grid_bits, _mul, _to_mpc, enumerate_polys
from paradoxlab import words
from paradoxlab.words import (
    _ALPHABET,
    _CANCELLING,
    _CLASS_OF_LETTER,
    _INVERSES,
    MAX_VIOLATIONS,
    F2ParadoxReport,
    Letter,
    PrefixClass,
    ReducedWord,
    SplitCheck,
    _reduced,
    _show,
    ball_levels,
    reduce,
)

# -- rational 3x3 matrices ----------------------------------------------------


def identity() -> Mat3:
    one, zero = Fraction(1), Fraction(0)
    return Mat3((one, zero, zero, zero, one, zero, zero, zero, one))


def matmul(m: Mat3, other: Mat3) -> Mat3:
    a, b = m.entries, other.entries
    return Mat3(
        tuple(
            a[3 * i] * b[j] + a[3 * i + 1] * b[3 + j] + a[3 * i + 2] * b[6 + j]
            for i in range(3)
            for j in range(3)
        )
    )


def word_matrix(w: ReducedWord) -> Mat3:
    """The rational product of the generators in word order; identity for e."""
    product = identity()
    for letter in bytes(w):
        product = matmul(product, DEFAULT_GENERATORS[letter])
    return product


def apply(m: Mat3, v: Sequence) -> tuple[Fraction, Fraction, Fraction]:
    """M v for a triple of ints or Fractions, as a tuple of Fractions."""
    return tuple(sum((e * c for e, c in zip(m.entries[3 * i : 3 * i + 3], v)), Fraction(0)) for i in range(3))


def sub(m: Mat3, other: Mat3) -> Mat3:
    return Mat3(tuple(p - q for p, q in zip(m.entries, other.entries)))


def det(m: Mat3) -> Fraction:
    e = m.entries
    return (
        e[0] * (e[4] * e[8] - e[5] * e[7])
        - e[1] * (e[3] * e[8] - e[5] * e[6])
        + e[2] * (e[3] * e[7] - e[4] * e[6])
    )


def is_special_orthogonal(m: Mat3) -> bool:
    """Exact test: M * M^T = I and det M = 1."""
    return matmul(m, m.transpose()) == identity() and det(m) == 1


# -- exact kernels ------------------------------------------------------------


def row_reduce_int(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free row echelon form of an integer matrix.

    Elimination uses cross-multiplication (pivot*row - entry*pivot_row) and a
    gcd division per updated row, so entries never leave the integers and do
    not blow up.  Returns (echelon rows, pivot column indices).
    """
    work = [list(map(int, r)) for r in rows]
    ncols = len(work[0]) if work else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        for i in range(r + 1, len(work)):
            if work[i][c]:
                pv, ev = work[r][c], work[i][c]
                row = [pv * work[i][j] - ev * work[r][j] for j in range(ncols)]
                g = gcd(*row)
                work[i] = [v // g for v in row] if g else row
        pivots.append(c)
        r += 1
    return work[:r], pivots


def integer_rank(rows: Sequence[Sequence[int]]) -> int:
    return len(row_reduce_int(rows)[1])


def integer_kernel_basis(rows: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Primitive integer basis of the right kernel of an integer matrix."""
    echelon, pivots = row_reduce_int(rows)
    ncols = len(rows[0])
    free_cols = [c for c in range(ncols) if c not in pivots]
    basis: list[tuple[int, ...]] = []
    for fc in free_cols:
        sol = [Fraction(0)] * ncols
        sol[fc] = Fraction(1)
        # Back-substitute pivot variables from the bottom row up.
        for row, pc in reversed(list(zip(echelon, pivots))):
            s = sum((row[j] * sol[j] for j in range(pc + 1, ncols)), start=Fraction(0))
            sol[pc] = -s / row[pc]
        d = lcm(*(f.denominator for f in sol))
        ints = [int(f * d) for f in sol]
        g = gcd(*ints)
        basis.append(tuple(v // g for v in ints))
    return basis


def axis(m: Mat3) -> ProjectiveDirection:
    """Rotation axis of a special orthogonal matrix, from its scaled integer form.

    The direction is built from the kernel's triple by the validating
    constructor, which refuses a triple that is not primitive with a
    positive leading component.
    """
    if not is_special_orthogonal(m):
        raise DomainError("axis is defined for special orthogonal matrices only")
    if m == identity():
        raise DegenerateInputError("the identity rotation fixes every direction")
    return ProjectiveDirection(*_scaled_axis(*scaled_integer_form(m)))


# -- the freeness certificate -----------------------------------------------------


def ref_verify_certificate(cert: FreenessCertificate) -> bool:
    """``freeness.verify_certificate`` as it was checked piece by piece, against its replacement.

    Validity of the states, the roots, closure from both sides (every legal
    prepend present and correct) and no dangling transition, each its own
    loop.  Matrix row i is the slice ``entries[3i : 3i + 3]``.
    """
    try:
        if len(cert.base_vector) != 3 or len(cert.states) > MAX_VECTOR_STATES:
            return False

        # Mod-7 action of each letter, rebuilt from the rational matrices.
        mats: dict[int, list[list[int]]] = {}
        for letter in Letter:
            m = DEFAULT_GENERATORS[letter]
            rows = []
            for i in range(3):
                row = []
                for e in m.entries[3 * i : 3 * i + 3]:
                    scaled = e * _MOD
                    if scaled.denominator != 1:
                        return False
                    row.append(int(scaled) % _MOD)
                rows.append(row)
            mats[int(letter)] = rows

        def act(letter_value: int, residue: tuple[int, ...]) -> tuple[int, ...]:
            m = mats[letter_value]
            return tuple(sum(m[i][j] * residue[j] for j in range(3)) % _MOD for i in range(3))

        for letter_value, residue in cert.states:
            if letter_value not in (0, 1, 2, 3):
                return False
            if len(residue) != 3 or any(not (0 <= v < _MOD) for v in residue):
                return False
            if all(v == 0 for v in residue):
                return False

        # Roots: one state per letter, derived from the base.
        v0 = tuple(v % _MOD for v in cert.base_vector)
        for letter in Letter:
            if (int(letter), act(int(letter), v0)) not in cert.states:
                return False

        # Closure: every legal prepend from every state is present and correct.
        for state in cert.states:
            letter_value, residue = state
            for letter in Letter:
                if letter == Letter(letter_value).inverse():
                    continue
                key = (state, int(letter))
                if key not in cert.transitions:
                    return False
                expected = (int(letter), act(int(letter), residue))
                if cert.transitions[key] != expected or expected not in cert.states:
                    return False

        # No dangling transition entries either.
        for (state, letter_value), target in cert.transitions.items():
            if state not in cert.states or target not in cert.states:
                return False
            if letter_value not in (0, 1, 2, 3) or Letter(letter_value) == Letter(state[0]).inverse():
                return False
        return True
    except Exception:
        return False


# -- reduced words --------------------------------------------------------------

IDENTITY = ReducedWord()

#: First letter of every word of each nonempty prefix class.
_FIRST_LETTER = {c: Letter(i) for i, c in enumerate(_CLASS_OF_LETTER)}


def _seam(a: tuple[Letter, ...], b: tuple[Letter, ...]) -> tuple[Letter, ...]:
    """Letters of the product of two reduced letter tuples; cancellation happens only at the seam."""
    i = len(a)
    j = 0
    while i > 0 and j < len(b) and a[i - 1] == _INVERSES[b[j]]:
        i -= 1
        j += 1
    return a[:i] + b[j:]


def concat(w1: ReducedWord, w2: ReducedWord) -> ReducedWord:
    """Product in the free group."""
    return _reduced(_seam(bytes(w1), bytes(w2)))


def invert(w: ReducedWord) -> ReducedWord:
    return _reduced(tuple(_INVERSES[l] for l in reversed(bytes(w))))


def prefix_class(w: ReducedWord) -> PrefixClass:
    letters = bytes(w)
    return _CLASS_OF_LETTER[letters[0]] if letters else PrefixClass.IDENTITY


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
    if h and h[0] == cover:
        return None
    shifted = _seam(mover_inv, h)
    if not shifted or shifted[0] != piece:
        return (
            f"{str(_reduced(h))!r} not covered: {str(_reduced(mover))!r}^-1 * h = "
            f"{str(_reduced(shifted))!r} is not in class {_CLASS_OF_LETTER[piece].value}"
        )
    if _seam(mover, shifted) != h:  # pragma: no cover - group law, unreachable
        return f"reassembly failed for {str(_reduced(h))!r}"
    return None


def check_split(
    depth: int,
    cover: PrefixClass,
    piece: PrefixClass,
    mover: ReducedWord,
) -> SplitCheck:
    """Check that every word of length <= depth lies in W(cover) u mover.W(piece)."""
    if cover is PrefixClass.IDENTITY or piece is PrefixClass.IDENTITY:
        raise ValueError("cover and piece must be prefix classes of nonempty words")
    cover_letter, piece_letter = _FIRST_LETTER[cover], _FIRST_LETTER[piece]
    mover_letters, inv_letters = bytes(mover), bytes(invert(mover))
    violations: list[str] = []
    checked = 0
    for h in itertools.chain.from_iterable(ball_levels(depth)):
        checked += 1
        problem = _split_violation(h, cover_letter, piece_letter, mover_letters, inv_letters)
        if problem is not None and len(violations) < MAX_VIOLATIONS:
            violations.append(problem)
    return SplitCheck(checked, tuple(violations))


def verify_f2_paradox_per_word(depth: int) -> F2ParadoxReport:
    """The decomposition verifier that checks every word on its own, against its parent.

    It reads the levels through ``words.ball_levels`` at call time, so a test
    that replaces the enumerator feeds both verifiers the same levels.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    A, B = _ALPHABET[:2]
    counts = [0, 0, 0, 0, 0]  # by first letter; the identity at index 4
    partition_violations: list[str] = []
    violations_a: list[str] = []
    violations_b: list[str] = []

    def check_size(k: int, size: int) -> None:
        expected = 0 if k > depth else 4 * 3 ** (k - 1) if k else 1
        if size != expected:
            for violations in (violations_a, violations_b):
                if len(violations) < MAX_VIOLATIONS:
                    violations.append(f"level {k} has {size} words, expected {expected}")

    levels = words.ball_levels(depth)
    counts[4] = checked = len(next(levels))  # the identity, the one word of length 0
    check_size(0, checked)
    parents = itertools.repeat(b"")
    k = 0
    for k, level in enumerate(levels, 1):
        before = checked
        for h, parent in zip(level, parents):
            checked += 1
            if h[-1] not in _ALPHABET:
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
            if h[0] != A and len(violations_a) < MAX_VIOLATIONS:
                violations_a.append(fault)
            if h[0] != B and len(violations_b) < MAX_VIOLATIONS:
                violations_b.append(fault)
        check_size(k, checked - before)
        # Word i of the next level extends word i // 3 of this one, if there is one.
        parents = itertools.chain(itertools.chain.from_iterable(zip(level, level, level)), itertools.repeat(None))
    for k in range(k + 1, depth + 1):  # levels ball_levels never yielded
        check_size(k, 0)
    class_counts = {PrefixClass.IDENTITY: counts[4]}
    class_counts.update((_CLASS_OF_LETTER[x], counts[x]) for x in _ALPHABET)
    split_a = SplitCheck(checked, tuple(violations_a))
    split_b = SplitCheck(checked, tuple(violations_b))
    return F2ParadoxReport(class_counts, tuple(partition_violations), split_a, split_b)


def brute_force_ball(n: int) -> frozenset[ReducedWord]:
    """Independent oracle: reduce every raw letter string of length <= n.

    Exponential in n (4^n strings), so only usable for small n, which is the
    point: it shares no code with the incremental enumeration in ``words.ball``.
    """
    words: set[ReducedWord] = {IDENTITY}
    level: list[tuple[Letter, ...]] = [()]
    for _ in range(n):
        nxt = [seq + (letter,) for seq in level for letter in Letter]
        words.update(reduce(seq) for seq in nxt)
        level = nxt
    return frozenset(words)


# -- finite groups --------------------------------------------------------------


def direct_product(a: GroupTable, b: GroupTable) -> GroupTable:
    """The direct product a x b, multiplied componentwise."""
    elems = tuple(itertools.product(a.elements, b.elements))
    table = {((g1, g2), (h1, h2)): (a.mul(g1, h1), b.mul(g2, h2)) for (g1, g2) in elems for (h1, h2) in elems}
    return GroupTable(elems, table, (a.identity, b.identity))


# -- finite action models on point objects ------------------------------------


def ref_validate(model) -> None:
    if model.identity not in model.maps:
        raise ModelError(f"identity label {model.identity!r} missing from maps")
    for label, mapping in model.maps.items():
        dom = set(mapping)
        rng = set(mapping.values())
        if not dom <= model.points or not rng <= model.points:
            raise ModelError(f"label {label!r} maps outside the point set")
        if len(rng) != len(mapping):
            raise ModelError(f"label {label!r} is not injective")
        if not model.partial and dom != model.points:
            raise ModelError(f"label {label!r} is not total on the point set")
    ident = model.maps[model.identity]
    if set(ident) != model.points or any(ident[p] != p for p in ident):
        raise ModelError("identity label must fix every point")


def ref_images(model, pieces, movers) -> tuple[list[frozenset], int]:
    """The image of each piece under its mover, and the count of points where a mover is undefined."""
    images = []
    undefined = 0
    for piece, label in zip(pieces, movers):
        if label not in model.maps:
            raise ModelError(f"unknown group label {label!r}")
        mapping = model.maps[label]
        images.append(frozenset(mapping[p] for p in piece if p in mapping))
        undefined += sum(1 for p in piece if p not in mapping)
    return images, undefined


def ref_interior(model, witness) -> frozenset:
    """The points every mover of ``witness`` reaches: the intersection of the movers' ranges."""
    inside = frozenset(model.points)
    for label in dict.fromkeys(witness.movers_a + witness.movers_b):
        if label not in model.maps:
            raise ModelError(f"unknown group label {label!r}")
        inside = inside.intersection(model.maps[label].values())
    return inside


# -- Fraction routes of the integer kernels ------------------------------------


def ref_mu(m: PointMeasure, subset) -> Fraction:
    """``PointMeasure.mu`` in Fractions: each distinct weight times the number of its points in the subset."""
    s = frozenset(subset)
    if not s <= m.universe:
        raise DomainError("measure evaluated outside its universe")
    groups: dict[Fraction, list] = {}
    for p, w in m.weights.items():
        groups.setdefault(w, []).append(p)
    return sum((w * n for w, points in groups.items() if (n := len(s.intersection(points)))), start=Fraction(0))


def _mod1(x: Fraction) -> Fraction:
    return x - (x.numerator // x.denominator)


def value_at(f: PiecewiseConstant, x) -> Fraction:
    """The value of ``f`` at ``x`` in [0, 1): the value of the last piece starting at or before ``x``."""
    x = _frac(x)
    if not 0 <= x < 1:
        raise DomainError("the function lives on [0, 1)")
    return f.values[bisect_right(f.breaks, x) - 1]


def sup_abs(f: PiecewiseConstant) -> Fraction:
    return max(abs(v) for v in f.values)


def ref_ergodic_average(alpha, x0, f: PiecewiseConstant, n: int) -> tuple[Fraction, Fraction]:
    """``measures.ergodic_average`` in Fractions: the orbit mod 1, ``value_at`` samples and Fraction sums."""
    if n < 1:
        raise ValueError("need at least one orbit point")
    alpha, x0 = _frac(alpha), _frac(x0)
    orbit = [_mod1(x0 + k * alpha) for k in range(n + 1)]
    samples = [value_at(f, x) for x in orbit]
    value = sum(samples[:n], start=Fraction(0)) / n
    shifted = sum(samples[1:], start=Fraction(0)) / n
    defect = abs(shifted - value)
    if defect > 2 * sup_abs(f) / n:
        raise InvariantViolationError(f"invariance defect {defect} exceeds 2 sup|f| / {n}")
    return value, defect


def ref_additive_eval(model: HamelModel, coords: Sequence) -> Fraction:
    """``AdditiveMap.eval`` in Fractions: the sum of each coordinate times its basis image."""
    if len(coords) != model.rank:
        raise DomainError(f"coordinate vector has length {len(coords)}, the model has rank {model.rank}")
    return sum((Fraction(c) * y for c, y in zip(coords, model.basis_images)), start=Fraction(0))


# -- the planar paradox's fixed-point kernel and isometry defect -----------------


def _round(v: int, prec: int) -> int:
    """v rounded to prec significant bits, ties to even (libmp's round_nearest), at the same scale.

    The shift form the per-bit-length tables of paradox._Kernel replaced.
    """
    s = v.bit_length() - prec
    if s <= 0:
        return v
    # With v = q*2^s + r, q floored, adding 2^(s-1) - 1 and q's low bit
    # carries into q exactly when r is above one half, or equal to it with q odd.
    return (v + (1 << (s - 1)) - 1 + ((v >> s) & 1)) >> s << s



def gh_defect_all_pairs(t, re: list[int], im: list[int], g_pairs, h_pairs, precision_bits: int) -> tuple:
    """paradox._gh_defect's value from every (i, j) pair of g and of h, each moved and compared on libmp.

    Each grid point is converted exactly by ``_to_mpc``.  g multiplies by
    conj(t) with mpc_mul, h subtracts one with mpc_sub_mpf, and each pair's
    defect is mpc_abs of mpc_sub, all at prec bits with round_nearest; the
    largest defect by mpf_cmp is the value.  No pair gives 0.
    """
    prec, rnd, grid = precision_bits, round_nearest, _grid_bits(precision_bits)

    def point(i):
        return _to_mpc((re[i], im[i]), grid)

    t_inv = _to_mpc((t[0], -t[1]), grid)
    moved = [(mpc_mul(point(i), t_inv, prec, rnd), point(j)) for i, j in g_pairs]
    moved += [(mpc_sub_mpf(point(i), fone, prec, rnd), point(j)) for i, j in h_pairs]
    worst = fzero
    for z, w in moved:
        d = mpc_abs(mpc_sub(w, z, prec, rnd), prec, rnd)
        if mpf_cmp(d, worst) > 0:
            worst = d
    return worst


def least_differences_all_vectors(max_degree: int, max_coeff: int, window: float) -> tuple[float, list[tuple[int, ...]]]:
    """paradox._least_differences's result from every nonzero difference vector D at once.

    |D(e^i)| is summed in floats over cmath's e^ik for every D with
    coefficients in [-max_coeff, max_coeff], constant first, with no split
    into halves and no sweep.  Returns the least, and each D within
    ``window`` of it with its first nonzero coefficient positive, sorted.
    """
    digits = range(-max_coeff, max_coeff + 1)
    values = [0j]
    for k in range(max_degree + 1):
        power = cmath.exp(1j * k)
        values = [v + d * power for v in values for d in digits]
    moduli = list(map(abs, values))
    moduli[len(moduli) // 2] = inf  # D = 0
    least = min(moduli)
    kept = set()
    for d, modulus in zip(itertools.product(digits, repeat=max_degree + 1), moduli):
        if modulus <= least + window:
            sign = 1 if next(c for c in d if c) > 0 else -1
            kept.add(tuple(sign * c for c in d))
    return least, sorted(kept)


def realising_pairs_all_pairs(
    differences: Sequence[Sequence[int]], max_degree: int, max_coeff: int
) -> set[tuple[int, int]]:
    """paradox._realising_pairs's pairs from every index and every difference, one pair at a time.

    For each index i of ``enumerate_polys`` and each D of ``differences``,
    the j with P_j = P_i - D is looked up among the padded coefficient
    tuples, constant first; where it is in range, (i, j) is a pair.  No digit
    boxes and no index arithmetic.
    """
    width = max_degree + 1
    index = {p + (0,) * (width - len(p)): i for i, p in enumerate(enumerate_polys(max_degree, max_coeff))}
    pairs = set()
    for p, i in index.items():
        for d in differences:
            j = index.get(tuple(a - c for a, c in zip(p, d)))
            if j is not None:
                pairs.add((i, j))
    return pairs


# -- the planar closest pair over every point -----------------------------------
#
# smp_verify measures only the pairs that realise a least difference; these
# are the all-points route it replaced: one polynomial summed on its own, and
# a plane sweep over every embedded point.


def _embed_poly(p: tuple[int, ...], kernel: _Kernel) -> tuple[int, int]:
    """P(t) for one polynomial, summed on its own in the order paradox._embed_polys documents, so bit-identical."""
    rnd = kernel.round
    power, z = (1 << kernel.grid, 0), (0, 0)
    for k, c in enumerate(p):
        if k:
            power = _mul(power, kernel.unit, kernel)
        if c:
            z = (rnd(z[0] + rnd(c * power[0])), rnd(z[1] + rnd(c * power[1])))
    return z


def _closest_pair_sq(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, tuple[int, int]]:
    """Plane sweep for the closest pair of the points (xs[i], ys[i]); returns (squared distance, indices).

    Points are visited in (x, y, index) order: the indices are sorted by y,
    then again by x.  Both sorts are stable, so the second keeps y order
    among equal x, and the first keeps index order among equal y.  The
    active strip is kept in (y, x, index) order as two parallel lists, its y
    values and its indices.  A new point goes after every active point of
    equal y, since it comes after them in (x, index); a leaving point is
    found by bisecting to its y and stepping through that run to its index.
    The window is the active points with y - d <= cy < y + d for
    d = sqrt(best) at the point's visit, walked in strip order, so of
    several pairs at the least distance the first one met wins.
    """
    order = sorted(range(len(xs)), key=ys.__getitem__)
    order.sort(key=xs.__getitem__)
    best = d = inf
    pair = (-1, -1)
    active_y: list[float] = []
    active: list[int] = []
    left = 0
    for idx in order:
        x, y = xs[idx], ys[idx]
        while xs[order[left]] < x - d:
            old = order[left]
            k = bisect_left(active_y, ys[old])
            while active[k] != old:
                k += 1
            del active_y[k], active[k]
            left += 1
        for k in range(bisect_left(active_y, y - d), bisect_left(active_y, y + d)):
            cidx = active[k]
            dsq = (x - xs[cidx]) ** 2 + (y - active_y[k]) ** 2
            if dsq < best:
                best, d = dsq, sqrt(dsq)
                pair = (cidx, idx)
        k = bisect_right(active_y, y)
        active_y.insert(k, y)
        active.insert(k, idx)
    return best, pair


# -- interval geometry in mpmath's iv context -----------------------------------
#
# sphere's kernel runs on raw libmpi endpoint pairs at an explicit precision;
# these are the iv forms it replaced, evaluated at the global iv.prec.


@contextmanager
def interval_precision(bits: int) -> Iterator[None]:
    saved = iv.prec
    iv.prec = bits
    try:
        yield
    finally:
        iv.prec = saved


def _iv_number(x):
    """Embed an int, exact binary float, or Fraction as a (near-)point interval."""
    if isinstance(x, Fraction):
        return iv.mpf(x.numerator) / iv.mpf(x.denominator)
    return iv.mpf(x)


def _iv_unit(triple: tuple[int, int, int]):
    n2 = sum(c * c for c in triple)
    norm = iv.sqrt(iv.mpf(n2))
    return tuple(iv.mpf(c) / norm for c in triple)


def _iv_rotate(axis_unit, cos_t, sin_t, v):
    """Rodrigues rotation of an interval vector around an interval unit axis."""
    kx, ky, kz = axis_unit
    vx, vy, vz = v
    cx = ky * vz - kz * vy
    cy = kz * vx - kx * vz
    cz = kx * vy - ky * vx
    dot = kx * vx + ky * vy + kz * vz
    w = dot * (iv.mpf(1) - cos_t)
    return (
        vx * cos_t + cx * sin_t + kx * w,
        vy * cos_t + cy * sin_t + ky * w,
        vz * cos_t + cz * sin_t + kz * w,
    )


def _iv_dist2(p, q):
    # ``** 2`` keeps each square nonnegative; ``x * x`` would not.
    return (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 + (p[2] - q[2]) ** 2


def _iv_height(axis_unit, v):
    """<v, unit axis>: a rotation about the axis keeps it."""
    return axis_unit[0] * v[0] + axis_unit[1] * v[1] + axis_unit[2] * v[2]


def _iv_distance_slack(points, precision_bits: int):
    """sphere._distance_slack's bound 7w + 12u, as the point interval of its upper end."""
    width = iv.mpf(max(c.delta.b for p in points for c in p))
    u = iv.mpf(2) ** (1 - precision_bits)
    w = 2 * width + 2 * u * (2 + 2 * width)
    return iv.mpf((7 * w + 12 * u).b)
