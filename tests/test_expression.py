"""Tests for the expression leaves: Matrix, Vector, Identity, Zero, Temporary."""

import pytest

from repro.algebra import (
    IdentityMatrix,
    Matrix,
    Property,
    ShapeError,
    Temporary,
    Vector,
    ZeroMatrix,
)


class TestMatrixConstruction:
    def test_basic_shape(self):
        a = Matrix("A", 3, 4)
        assert a.rows == 3
        assert a.columns == 4
        assert a.shape == (3, 4)

    def test_name_required(self):
        with pytest.raises(ValueError):
            Matrix("", 3, 3)

    def test_positive_dimensions_required(self):
        with pytest.raises(ShapeError):
            Matrix("A", 0, 3)
        with pytest.raises(ShapeError):
            Matrix("A", 3, -1)

    def test_square_property_added_automatically(self):
        assert Property.SQUARE in Matrix("A", 5, 5).properties

    def test_vector_property_added_automatically(self):
        assert Property.VECTOR in Matrix("v", 5, 1).properties
        assert Property.VECTOR in Matrix("v", 1, 5).properties

    def test_scalar_property_added_automatically(self):
        assert Property.SCALAR in Matrix("s", 1, 1).properties

    def test_non_square_has_no_square_property(self):
        assert Property.SQUARE not in Matrix("A", 5, 4).properties

    def test_properties_are_closed(self):
        a = Matrix("A", 5, 5, {Property.SPD})
        assert Property.SYMMETRIC in a.properties
        assert Property.NON_SINGULAR in a.properties

    def test_square_only_property_on_rectangular_raises(self):
        with pytest.raises(ShapeError):
            Matrix("A", 5, 4, {Property.SYMMETRIC})

    def test_spd_on_rectangular_raises(self):
        with pytest.raises(ShapeError):
            Matrix("A", 5, 4, {Property.SPD})

    def test_immutable(self):
        a = Matrix("A", 3, 3)
        with pytest.raises(AttributeError):
            a.name = "B"

    def test_has_property(self):
        a = Matrix("A", 3, 3, {Property.DIAGONAL})
        assert a.has_property(Property.DIAGONAL)
        assert a.has_property(Property.LOWER_TRIANGULAR)
        assert not a.has_property(Property.SPD)

    def test_with_properties_returns_new_matrix(self):
        a = Matrix("A", 3, 3)
        b = a.with_properties(Property.SYMMETRIC)
        assert Property.SYMMETRIC in b.properties
        assert Property.SYMMETRIC not in a.properties
        assert b.name == a.name

    def test_str_is_name(self):
        assert str(Matrix("Sigma", 3, 3)) == "Sigma"


class TestEqualityAndHashing:
    def test_equal_matrices(self):
        assert Matrix("A", 3, 4) == Matrix("A", 3, 4)

    def test_different_names_not_equal(self):
        assert Matrix("A", 3, 4) != Matrix("B", 3, 4)

    def test_different_shapes_not_equal(self):
        assert Matrix("A", 3, 4) != Matrix("A", 4, 3)

    def test_different_properties_not_equal(self):
        assert Matrix("A", 3, 3, {Property.SPD}) != Matrix("A", 3, 3)

    def test_hash_consistency(self):
        assert hash(Matrix("A", 3, 4)) == hash(Matrix("A", 3, 4))

    def test_usable_in_sets(self):
        matrices = {Matrix("A", 3, 4), Matrix("A", 3, 4), Matrix("B", 3, 4)}
        assert len(matrices) == 2

    def test_matrix_not_equal_to_non_expression(self):
        assert Matrix("A", 3, 3) != "A"


class TestShapePredicates:
    def test_is_square(self):
        assert Matrix("A", 3, 3).is_square
        assert not Matrix("A", 3, 4).is_square

    def test_is_vector(self):
        assert Matrix("v", 5, 1).is_vector
        assert Matrix("v", 1, 5).is_vector
        assert not Matrix("A", 5, 5).is_vector
        assert not Matrix("s", 1, 1).is_vector

    def test_is_column_vector(self):
        assert Matrix("v", 5, 1).is_column_vector
        assert not Matrix("v", 1, 5).is_column_vector

    def test_is_row_vector(self):
        assert Matrix("v", 1, 5).is_row_vector
        assert not Matrix("v", 5, 1).is_row_vector

    def test_is_scalar_shaped(self):
        assert Matrix("s", 1, 1).is_scalar_shaped
        assert not Matrix("v", 5, 1).is_scalar_shaped

    def test_leaf_navigation(self):
        a = Matrix("A", 3, 3)
        assert a.is_leaf
        assert list(a.preorder()) == [a]
        assert list(a.leaves()) == [a]
        assert a.size == 1
        assert a.depth == 1


class TestVector:
    def test_vector_is_column_matrix(self):
        v = Vector("v", 7)
        assert v.rows == 7
        assert v.columns == 1
        assert v.length == 7
        assert Property.VECTOR in v.properties

    def test_vector_is_matrix_subclass(self):
        assert isinstance(Vector("v", 7), Matrix)


class TestSpecialMatrices:
    def test_identity(self):
        identity = IdentityMatrix(4)
        assert identity.rows == identity.columns == 4
        assert Property.IDENTITY in identity.properties
        assert Property.SPD in identity.properties

    def test_zero(self):
        zero = ZeroMatrix(3, 5)
        assert Property.ZERO in zero.properties
        assert zero.shape == (3, 5)

    def test_square_zero_is_symmetric(self):
        assert Property.SYMMETRIC in ZeroMatrix(4, 4).properties


class TestTemporary:
    def test_unique_names(self):
        Temporary.reset_counter()
        t1 = Temporary(3, 4)
        t2 = Temporary(3, 4)
        assert t1.name != t2.name

    def test_reset_counter(self):
        Temporary.reset_counter()
        t = Temporary(2, 2)
        assert t.name == "T1"

    def test_counter_skips_numbers_operands_claim(self):
        Temporary.reset_counter()
        Matrix("T2", 3, 3)
        Matrix("T10x", 3, 3)  # not a temporary's name: claims nothing
        assert [Temporary(2, 2).name for _ in range(3)] == ["T1", "T3", "T4"]

    def test_origin_is_recorded(self):
        a = Matrix("A", 3, 3)
        t = Temporary(3, 3, origin=a)
        assert t.origin is a

    def test_carries_properties(self):
        t = Temporary(3, 3, properties={Property.SPD})
        assert Property.SPD in t.properties
        assert Property.SYMMETRIC in t.properties

    def test_explicit_name(self):
        t = Temporary(3, 3, name="W")
        assert t.name == "W"
