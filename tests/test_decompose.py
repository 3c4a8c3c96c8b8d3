import itertools
import random

import pytest

from syzkit.decompose import (_pairing_traces, _trace_pairing_nonzero, end_ring,
                              is_indecomposable, is_isomorphic, iso_witness,
                              krull_schmidt, modules_isomorphic, radical_of_end,
                              registry_for, split_once)
from syzkit.errors import ZeroModuleError
from syzkit.homology import injective_indecomposables, syzygy
from syzkit.modules import (direct_sum, hom_basis, projective_module,
                            simple_module, zero_module)
from syzkit.orders import presentation_from_valued_quiver

import cases
import randgen


def test_end_of_simple_is_field(ex_five):
    s = simple_module(ex_five, "2", "left")
    e = end_ring(s)
    assert e.dim == 1
    assert radical_of_end(e) == []


def test_radical_of_projective_with_loops(ex_three_loop):
    p3 = projective_module(ex_three_loop, "3", "left")
    e = end_ring(p3)
    assert e.dim > 1
    rad = radical_of_end(e)
    assert len(rad) == e.dim - 1
    # radical elements are nilpotent
    for f in rad:
        power = f
        for _ in range(p3.total_dim):
            power = power.compose(f)
        assert power.is_zero()


def test_radical_of_semisimple_square():
    alg = cases.three_vertex_loop_algebra()
    s = simple_module(alg, "2", "left")
    double, _, _ = direct_sum([s, s])
    e = end_ring(double)
    assert e.dim == 4
    assert radical_of_end(e) == []
    pieces = krull_schmidt(double)
    assert len(pieces) == 2


def test_is_indecomposable_simple(ex_five):
    assert is_indecomposable(simple_module(ex_five, "3", "left"))


def test_is_indecomposable_rejects_zero(ex_five):
    with pytest.raises(ZeroModuleError):
        is_indecomposable(zero_module(ex_five, "left"))


def test_split_direct_sum(ex_five):
    s1 = simple_module(ex_five, "1", "left")
    s2 = simple_module(ex_five, "2", "left")
    total, _, _ = direct_sum([s1, s2])
    pieces = split_once(total)
    assert pieces is not None
    dims = sorted(p.dims for p in pieces)
    assert dims == sorted([s1.dims, s2.dims])
    # vertexwise dimensions add up across the split
    assert all(a + b == c for a, b, c in
               zip(pieces[0].dims, pieces[1].dims, total.dims))


def test_end_multiplication_table(ex_three_loop):
    p3 = projective_module(ex_three_loop, "3", "left")
    e = end_ring(p3)
    table = e.multiplication_table()
    # reconstruct a product from the structure constants and compare exactly
    i, j = 0, e.dim - 1
    direct = e.basis[i].compose(e.basis[j])
    recombined = e.combo(table[i][j])
    assert all(a == b for a, b in zip(direct.flatten(), recombined.flatten()))


def test_split_indecomposable_returns_none(ex_five):
    p = projective_module(ex_five, "4", "left")
    assert split_once(p) is None


def test_krull_schmidt_multiplicities(ex_five):
    s4 = simple_module(ex_five, "4", "right")
    omega = syzygy(s4)
    reg = registry_for(ex_five, "right")
    classes = reg.classify(omega)
    mults = sorted(classes.values())
    assert mults == [1, 1, 2]
    dims = sorted(reg.by_id(c).dims for c in classes)
    assert dims == [(0, 0, 0, 0, 1), (0, 0, 0, 1, 1), (0, 0, 0, 1, 1)]


def test_krull_schmidt_of_projective_module(ex_five):
    from syzkit.modules import regular_module

    reg_mod = regular_module(ex_five, "left")
    pieces = krull_schmidt(reg_mod)
    assert sorted(p.total_dim for p in pieces) == [1, 2, 2, 4, 5]


def test_krull_schmidt_order_independent(ex_five):
    s4 = simple_module(ex_five, "4", "right")
    omega = syzygy(s4)
    reg = registry_for(ex_five, "right")
    base = sorted(reg.classify(omega).items())
    for _ in range(3):
        assert sorted(reg.classify(omega).items()) == base


def test_is_isomorphic_identity_witness(ex_five):
    p = projective_module(ex_five, "4", "left")
    assert is_isomorphic(p, p)
    w = iso_witness(p, p)
    assert w.is_isomorphism()


def test_is_isomorphic_distinguishes(ex_five):
    a6 = None
    a7 = None
    s4 = simple_module(ex_five, "4", "right")
    for piece in krull_schmidt(syzygy(s4)):
        if piece.dims == (0, 0, 0, 1, 1):
            if piece.act["alpha"].is_zero():
                a7 = piece
            else:
                a6 = piece
    assert a6 is not None and a7 is not None
    assert not is_isomorphic(a6, a7)
    assert is_isomorphic(a6, a6)


def test_iso_equivalence_sampled(ex_five):
    reg = registry_for(ex_five, "right")
    s4 = simple_module(ex_five, "4", "right")
    pieces = krull_schmidt(syzygy(s4))
    rng = random.Random(3)
    for _ in range(10):
        x, y = rng.choice(pieces), rng.choice(pieces)
        assert is_isomorphic(x, y, check=False) == is_isomorphic(y, x, check=False)
    for x in pieces:
        assert is_isomorphic(x, x, check=False)


def test_modules_isomorphic_multisets(ex_five):
    s1 = simple_module(ex_five, "1", "left")
    s2 = simple_module(ex_five, "2", "left")
    a, _, _ = direct_sum([s1, s2])
    b, _, _ = direct_sum([s2, s1])
    assert modules_isomorphic(a, b)
    c, _, _ = direct_sum([s1, s1])
    assert not modules_isomorphic(a, c)


def test_registry_shared_ids(ex_five):
    reg = registry_for(ex_five, "right")
    s = simple_module(ex_five, "3", "right")
    assert reg.register(s) == reg.register(s)


def _differential_modules():
    """Projectives, injectives and first syzygies of the injectives and
    simples, left and right, over seeded monomial algebras, K[x,y]/(x^2, y^2)
    and two tiled orders."""
    algebras = randgen.algebra_pool(5, 4) + [cases.local_two_loop_algebra()]
    algebras += [presentation_from_valued_quiver(vq) for vq in
                 (cases.six_vertex_order_quiver(), cases.gorenstein_order_quiver())]
    for alg in algebras:
        for side in ("left", "right"):
            for v in alg.quiver.vertices:
                yield projective_module(alg, v, side)
            injectives = injective_indecomposables(alg, side)
            yield from injectives
            simples = [simple_module(alg, v, side) for v in alg.quiver.vertices]
            for m in injectives + simples:
                omega = syzygy(m)
                if not omega.is_zero():
                    yield omega


def test_trace_form_matches_composite_traces():
    """Every Gram entry and every trace pairing, read off by sparse dot
    products, equals the trace of the composed morphism."""
    pieces = []
    checked = 0
    for mod in _differential_modules():
        e = end_ring(mod)
        for i, f in enumerate(e.basis):
            for j, g in enumerate(e.basis):
                assert e.gram.data[i][j] == f.compose(g).trace()
                checked += 1
        pieces.extend(krull_schmidt(mod))
    assert checked > 500
    by_dims = {}    # indecomposables over one algebra, one side, equal dims
    for piece in pieces:
        key = (id(piece.algebra), piece.side, piece.dims)
        by_dims.setdefault(key, []).append(piece)
    outcomes = set()
    uneven = 0
    for group in by_dims.values():
        for m, n in itertools.product(group[:6], repeat=2):
            fwd, bwd = hom_basis(m, n), hom_basis(n, m)
            traces = [g.compose(f).trace() for f in fwd for g in bwd]
            assert list(_pairing_traces(fwd, bwd)) == traces
            assert _trace_pairing_nonzero(m, n) == any(traces)
            outcomes.add(any(traces))
            uneven += len(fwd) != len(bwd)
    assert outcomes == {False, True}
    assert uneven > 0
