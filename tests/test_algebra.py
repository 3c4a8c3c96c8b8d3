import itertools
import os
from fractions import Fraction

import pytest

from syzkit.algebra import Quiver, Relation, build_algebra
from syzkit.errors import IllFormedRelation, NotNilpotent
from syzkit.formats import parse_algebra, parse_order
from syzkit.orders import (ValuedQuiver, presentation_from_valued_quiver,
                           valued_quiver_from_exponents)

import cases
import randgen

DATA = os.path.join(os.path.dirname(__file__), "data")


def test_three_loop_basis(ex_three_loop):
    a = ex_three_loop
    assert a.dim == 9
    assert a.nilpotency == 3
    names = sorted(b.names for b in a.basis)
    assert ("alpha", "beta") in names and ("beta", "gamma") in names
    assert ("gamma", "gamma") in names
    # the three length-3 generators vanish
    assert a.class_of("1", ("alpha", "beta", "gamma")) is None


def test_local_algebra(ex_local):
    a = ex_local
    assert a.dim == 4
    assert sorted(len(b.names) for b in a.basis) == [0, 1, 1, 2]
    cx = a.class_of("1", ("x", "y"))
    cy = a.class_of("1", ("y", "x"))
    assert cx is not None and cy is not None
    assert cx[1] == cy[1] and cx[0] == cy[0]


def test_hereditary_no_relations():
    q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    alg = build_algebra(q, [])
    # all paths survive: 3 trivial + 2 arrows + 1 composite
    assert alg.dim == 6


def test_orthogonal_idempotents(ex_five):
    a = ex_five
    for u in a.quiver.vertices:
        for v in a.quiver.vertices:
            prod = a.mul(a.e_index[u], a.e_index[v])
            if u == v:
                assert prod == (Fraction(1), a.e_index[u])
            else:
                assert prod is None


def test_dim_is_sum_of_pair_dims(ex_five):
    a = ex_five
    total = sum(a.dim_pair(t, s)
                for t in a.quiver.vertices for s in a.quiver.vertices)
    assert total == a.dim


def test_associativity_sampled(ex_three_loop, ex_local):
    for a in (ex_three_loop, ex_local):
        assert a.dim <= 60
        for i, j, k in itertools.product(range(a.dim), repeat=3):
            left = _triple(a, i, j, k, left_first=True)
            right = _triple(a, i, j, k, left_first=False)
            assert left == right


def _triple(a, i, j, k, left_first):
    if left_first:
        ij = a.mul(i, j)
        if ij is None:
            return None
        c, idx = ij
        out = a.mul(idx, k)
        return None if out is None else (c * out[0], out[1])
    jk = a.mul(j, k)
    if jk is None:
        return None
    c, idx = jk
    out = a.mul(i, idx)
    return None if out is None else (c * out[0], out[1])


def test_nilpotency_is_sharp(ex_three_loop):
    a = ex_three_loop
    assert any(len(b.names) == a.nilpotency - 1 for b in a.basis)


def test_opposite_involution(ex_five):
    a = ex_five
    op = a.opposite()
    assert op.dim == a.dim
    assert op.opposite() is a
    # right projective at 1 over the base = left projective over the opposite
    assert len(op.basis_by_source["1"]) == 2  # paths ending at 1: e_1, c21


def test_opposite_of_commutative_local(ex_local):
    op = ex_local.opposite()
    assert op.dim == ex_local.dim
    assert sorted(len(b.names) for b in op.basis) == [0, 1, 1, 2]


def test_element_normal_form(ex_five):
    a = ex_five
    # a defining relation reduces to zero
    assert cases.element_normal_form(a, [(1, "4", ("gamma", "gamma"))]) == {}
    # trivial path is idempotent
    nf = cases.element_normal_form(a, [(1, "4", ())])
    assert nf == {a.e_index["4"]: Fraction(1)}


def test_element_normal_form_binomial(ex_local):
    a = ex_local
    nf = cases.element_normal_form(a, [(1, "1", ("x", "y")), (-1, "1", ("y", "x"))])
    assert nf == {}


def test_not_nilpotent_detected():
    q = Quiver(["1"], [("x", "1", "1")])
    with pytest.raises(NotNilpotent):
        build_algebra(q, [], length_cap=6)


def test_path_budget_guard():
    from syzkit.errors import PathBudgetExceeded

    q = Quiver(["1"], [("x", "1", "1"), ("y", "1", "1")])
    with pytest.raises(PathBudgetExceeded):
        build_algebra(q, [Relation.zero(("x", "x"))], length_cap=12, max_paths=20)


def test_short_relation_rejected():
    q = Quiver(["1", "2"], [("a", "1", "2")])
    with pytest.raises(IllFormedRelation):
        build_algebra(q, [Relation.zero(("a",))])


def test_noncomposable_relation_rejected():
    q = Quiver(["1", "2"], [("a", "1", "2")])
    with pytest.raises(IllFormedRelation):
        Relation.zero(("a", "a")).validate(q)


def test_binomial_endpoint_mismatch_rejected():
    q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3"), ("c", "1", "3")])
    rel = Relation("equal", ("a",), 1, ("c",), allow_short=True)
    with pytest.raises(IllFormedRelation):
        rel.validate(q)


def _relation_terms(relations):
    return [(r.kind, r.path, r.coeff, r.other, r.allow_short) for r in relations]


def _assert_opposite_is_reversed_closure(a):
    """opposite() (derived from the class map) equals an independent ideal
    closure of the reversed relations over the reversed quiver."""
    op = a.opposite()
    ref = build_algebra(a.quiver.opposite(), [r.reversed() for r in a.relations],
                        length_cap=a.length_cap)
    assert op.nilpotency == ref.nilpotency
    assert op.basis == ref.basis
    assert op._class == ref._class
    assert _relation_terms(op.relations) == _relation_terms(ref.relations)
    assert op.quiver.arrows == ref.quiver.arrows
    assert op.opposite() is a


def _order_presentation(text):
    order = parse_order(text)
    if not isinstance(order, ValuedQuiver):
        order = valued_quiver_from_exponents(order)
    return presentation_from_valued_quiver(order)


@pytest.mark.parametrize("name", sorted(n for n in os.listdir(DATA)
                                        if n.endswith((".alg", ".ord"))))
def test_derived_opposite_matches_closure_on_data_files(name):
    with open(os.path.join(DATA, name)) as fh:
        text = fh.read()
    a = _order_presentation(text) if name.endswith(".ord") else parse_algebra(text)
    _assert_opposite_is_reversed_closure(a)


@pytest.mark.parametrize("make", [cases.six_vertex_order_quiver, cases.gorenstein_order_quiver])
def test_derived_opposite_matches_closure_on_tiled_orders(make):
    _assert_opposite_is_reversed_closure(presentation_from_valued_quiver(make()))


def test_derived_opposite_matches_closure_on_random_pools():
    monomial = randgen.algebra_pool(0x0B, 100)
    binomial = randgen.binomial_pool(0xB1, 60)
    for a in monomial + binomial:
        _assert_opposite_is_reversed_closure(a)
    # the binomial pool exercises the rescaling: classes whose least member
    # changes under reversal, and coefficients other than 1
    moved = sum(1 for a in binomial for b in a.basis
                if (b.target, b.names[::-1]) not in a.opposite().basis_index)
    scaled = sum(1 for a in binomial for v in a.opposite()._class.values()
                 if v is not None and v[0] != 1)
    assert moved >= 5 and scaled >= 20
