"""Exact rational matrices, kernel solving, and projective directions."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from paradoxlab.errors import DegenerateInputError, DomainError, InvariantViolationError
from paradoxlab.exactlin import (
    DEFAULT_GENERATORS,
    GEN_A,
    GEN_B,
    Mat3,
    ProjectiveDirection,
    SCALED_GENERATORS,
    ball_matrices,
    scaled_integer_form,
    _scaled_axis,
)
from paradoxlab.words import Letter, ReducedWord, ball

from oracles import (
    apply,
    axis,
    det,
    identity,
    integer_kernel_basis,
    integer_rank,
    is_special_orthogonal,
    matmul,
    row_reduce_int,
    sub,
    word_matrix,
)

small_ints = st.integers(min_value=-9, max_value=9)


# -- generators --------------------------------------------------------------


def test_generators_are_special_orthogonal():
    for m in (GEN_A, GEN_B):
        assert is_special_orthogonal(m)
    assert all(is_special_orthogonal(m) for m in DEFAULT_GENERATORS.values())


def test_generator_entries():
    assert [int(e * 7) for e in GEN_A.entries] == [6, 2, 3, 2, 3, -6, -3, 6, 2]
    assert [int(e * 7) for e in GEN_B.entries] == [2, -6, 3, 6, 3, 2, -3, 2, 6]
    assert all(e.denominator == 7 or e == 0 for e in GEN_A.entries)


def test_inverse_generators_are_transposes():
    assert DEFAULT_GENERATORS[Letter.A_INV] == GEN_A.transpose()
    assert matmul(GEN_A, DEFAULT_GENERATORS[Letter.A_INV]) == identity()
    assert matmul(GEN_B, DEFAULT_GENERATORS[Letter.B_INV]) == identity()


# -- word matrices, two routes ----------------------------------------------


def _as_fractions(ints, den) -> Mat3:
    return Mat3(tuple(Fraction(v, den) for v in ints))


def test_ball_matrices_match_the_rational_product():
    # Independent of the integer table and multiply: the oracle multiplies the
    # rational generator matrices, the identity word included.
    for letters, ints, den in ball_matrices(6):
        assert _as_fractions(ints, den) == word_matrix(ReducedWord(letters)), letters


def test_ball_matrices_walk_the_ball_in_order():
    for n in range(6):
        # Every walked letter tuple rebuilds through the validating constructor.
        assert [ReducedWord(letters) for letters, _, _ in ball_matrices(n)] == list(ball(n))


def test_ball_matrices_denominators():
    for letters, ints, den in ball_matrices(3):
        assert den == 7 ** len(letters)


def test_scaled_integer_form():
    ints, den = scaled_integer_form(GEN_A)
    assert den == 7
    assert ints == (6, 2, 3, 2, 3, -6, -3, 6, 2)
    assert SCALED_GENERATORS == tuple(scaled_integer_form(DEFAULT_GENERATORS[x]) for x in Letter)


def test_word_products_are_rotations():
    for _, ints, den in ball_matrices(3):
        assert is_special_orthogonal(_as_fractions(ints, den))


# -- integer linear algebra --------------------------------------------------


def test_rank_of_known_matrices():
    assert integer_rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3
    assert integer_rank([[1, 2, 3], [2, 4, 6], [0, 0, 0]]) == 1
    assert integer_rank([[0, 0, 0]]) == 0


def test_kernel_of_generator_differences():
    for gen, expect in ((GEN_A, (2, 1, 0)), (GEN_B, (0, 1, 2))):
        ints, den = scaled_integer_form(sub(gen, identity()))
        rows = [list(ints[3 * i : 3 * i + 3]) for i in range(3)]
        basis = integer_kernel_basis(rows)
        assert len(basis) == 1
        assert ProjectiveDirection.canonical(*basis[0]).as_tuple() == expect


@given(st.lists(st.lists(small_ints, min_size=3, max_size=3), min_size=1, max_size=4))
def test_kernel_vectors_annihilate(rows):
    for v in integer_kernel_basis(rows):
        for row in rows:
            assert sum(r * x for r, x in zip(row, v)) == 0


@given(st.lists(st.lists(small_ints, min_size=3, max_size=3), min_size=1, max_size=4))
def test_rank_nullity(rows):
    assert integer_rank(rows) + len(integer_kernel_basis(rows)) == 3


def test_row_reduce_pivots_are_sorted():
    echelon, pivots = row_reduce_int([[0, 2, 1], [1, 1, 1], [1, 3, 2]])
    assert pivots == sorted(pivots)
    assert len(echelon) == len(pivots)


# -- projective directions ---------------------------------------------------


def test_canonical_first_nonzero_positive():
    assert ProjectiveDirection.canonical(-2, -1, 0).as_tuple() == (2, 1, 0)
    assert ProjectiveDirection.canonical(0, -3, 6).as_tuple() == (0, 1, -2)
    assert str(ProjectiveDirection.canonical(4, 2, 0)) == "[2:1:0]"


def test_of_vec_roundtrip():
    # A rational vector clears its denominators to the same direction.
    assert ProjectiveDirection.canonical(Fraction(4, 7), Fraction(2, 7), 0).as_tuple() == (2, 1, 0)


def test_canonical_rejects_zero():
    with pytest.raises(DegenerateInputError):
        ProjectiveDirection.canonical(0, 0, 0)


@given(small_ints, small_ints, small_ints, st.integers(min_value=-5, max_value=5))
def test_canonical_scale_invariance(a, b, c, k):
    if (a, b, c) == (0, 0, 0) or k == 0:
        return
    d1 = ProjectiveDirection.canonical(a, b, c)
    d2 = ProjectiveDirection.canonical(k * a, k * b, k * c)
    assert d1 == d2


# -- rotation axes -----------------------------------------------------------


def test_generator_axes():
    assert axis(GEN_A).as_tuple() == (2, 1, 0)
    assert axis(GEN_B).as_tuple() == (0, 1, 2)


def test_axis_fixed_vector():
    for gen in (GEN_A, GEN_B):
        v = axis(gen).as_tuple()
        assert apply(gen, v) == v


def _kernel_axis(ints, den):
    """The reference route: the fraction-free kernel of ints - den*I."""
    rows = [[ints[3 * i + j] - (den if i == j else 0) for j in range(3)] for i in range(3)]
    basis = integer_kernel_basis(rows)
    assert len(basis) == 1
    return ProjectiveDirection.canonical(*basis[0])


def test_cross_product_axis_matches_the_kernel_basis():
    # The kernel route's triple is canonical, so equal triples are canonical too.
    for letters, ints, den in ball_matrices(6):
        if letters:
            triple = _scaled_axis(ints, den)
            assert type(triple) is tuple and all(type(v) is int for v in triple), letters
            assert triple == _kernel_axis(ints, den).as_tuple(), letters
    for gen in (GEN_A, GEN_B):
        assert axis(gen) == _kernel_axis(*scaled_integer_form(gen))


@pytest.mark.parametrize(
    "ints,den,dim",
    [
        ((7, 0, 0, 0, 7, 0, 0, 0, 7), 7, 3),  # rank 0: the identity
        ((8, 0, 0, 0, 7, 0, 0, 0, 7), 7, 2),  # rank 1
        ((1, 2, 3, 2, 4, 6, 3, 6, 9), 0, 2),  # rank 1, no zero row
        ((0, 0, 0, 0, 0, 0, 0, 0, 0), 1, 0),  # rank 3
    ],
)
def test_cross_product_axis_rejects_fixed_spaces_that_are_not_lines(ints, den, dim):
    with pytest.raises(InvariantViolationError, match=f"fixed space is {dim}-dimensional"):
        _scaled_axis(ints, den)


def test_axis_rejects_identity_and_non_rotations():
    with pytest.raises(DegenerateInputError):
        axis(identity())
    with pytest.raises(DomainError):
        axis(Mat3.from_rows([[2, 0, 0], [0, 1, 0], [0, 0, 1]]))


# -- Mat3 algebra ------------------------------------------------------------


@given(st.lists(small_ints, min_size=9, max_size=9), st.lists(small_ints, min_size=9, max_size=9))
def test_det_is_multiplicative(xs, ys):
    m = Mat3(tuple(Fraction(x) for x in xs))
    n = Mat3(tuple(Fraction(y) for y in ys))
    assert det(matmul(m, n)) == det(m) * det(n)


@given(st.lists(small_ints, min_size=9, max_size=9), st.lists(small_ints, min_size=9, max_size=9))
def test_transpose_antihomomorphism(xs, ys):
    m = Mat3(tuple(Fraction(x) for x in xs))
    n = Mat3(tuple(Fraction(y) for y in ys))
    assert matmul(m, n).transpose() == matmul(n.transpose(), m.transpose())
