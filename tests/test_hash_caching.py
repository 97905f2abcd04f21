"""Tests for the expression identity caches.

Expressions cache their structural ``_key()`` tuple and hash at construction
(:meth:`Expression._prime_identity_cache`).  These tests pin down the
invariants the rest of the system relies on: cached identity equals
recomputed identity, and equality/hashing semantics are unchanged.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings

from repro.algebra import (
    Inverse,
    InverseTranspose,
    Matrix,
    Property,
    Temporary,
    Times,
    Transpose,
    Vector,
)
from repro.algebra.operators import Plus
from repro.matching.patterns import Wildcard
from test_property_based import generalized_chains

_SETTINGS = settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _sample_expressions():
    a = Matrix("A", 8, 8, {Property.SPD})
    b = Matrix("B", 8, 5)
    l = Matrix("L", 5, 5, {Property.LOWER_TRIANGULAR, Property.NON_SINGULAR})
    v = Vector("v", 5)
    return [
        a,
        b,
        l,
        v,
        Temporary(8, 5, {Property.FULL_RANK}, origin=Times(a, b)),
        Transpose(b),
        Inverse(a),
        InverseTranspose(l),
        Times(a, b, l),
        Times(Inverse(a), b),
        Plus(a, Transpose(a)),
        Times(Transpose(b), a, b),
    ]


class TestIdentityCaches:
    def test_cached_key_equals_recomputed_key(self):
        for expr in _sample_expressions():
            assert expr.structural_key() == expr._key()
            # The cache is sticky: repeated calls return the same object.
            assert expr.structural_key() is expr.structural_key()

    def test_cached_hash_equals_uncached_formula(self):
        for expr in _sample_expressions():
            assert hash(expr) == hash((type(expr).__name__, expr._key()))

    def test_caches_are_primed_at_construction(self):
        for expr in _sample_expressions():
            assert hasattr(expr, "_key_cache")
            assert hasattr(expr, "_hash_cache")

    def test_structurally_equal_copies_hash_and_compare_equal(self):
        a1 = Matrix("A", 8, 8, {Property.SPD})
        a2 = Matrix("A", 8, 8, {Property.SPD})
        assert a1 == a2 and hash(a1) == hash(a2)
        t1, t2 = Times(a1, a1.T), Times(a2, a2.T)
        assert t1 == t2 and hash(t1) == hash(t2)
        assert Times(a1, a1) != Times(a1, a1.I)
        # Different leaf type with identical fields must stay distinct.
        tmp = Temporary(8, 8, {Property.SPD}, name="A")
        assert tmp != a1

    def test_wildcard_uses_lazy_cache_path(self):
        wild = Wildcard("X")
        assert hash(wild) == hash(Wildcard("X"))
        assert wild.structural_key() == ("X",)
        pattern_node = Times(wild, Wildcard("Y"))
        assert pattern_node == Times(Wildcard("X"), Wildcard("Y"))

    @given(generalized_chains())
    @_SETTINGS
    def test_random_chain_nodes_have_consistent_caches(self, expression):
        for node in expression.preorder():
            assert node.structural_key() == node._key()
            assert hash(node) == hash((type(node).__name__, node._key()))
