import random
from fractions import Fraction

import pytest

from syzkit.errors import IllFormedRelation
from syzkit.modules import (RepModule, direct_sum, hom_basis, projective_layout,
                            projective_module, radical_filtration,
                            radical_series_rows, simple_module, socle_counts,
                            submodule, tensor_dim, top_counts)
from syzkit.ratmat import QMatrix

import cases
import randgen
from cases import pivot_columns, row_space, solve_columns, solve_right


def test_left_projectives_five_vertex(ex_five):
    a = ex_five
    dims = {v: projective_module(a, v, "left").dims for v in a.quiver.vertices}
    assert dims["1"] == (1, 0, 0, 0, 0)
    assert dims["4"] == (0, 0, 1, 3, 0)
    assert dims["5"] == (0, 0, 0, 4, 1)
    p4 = projective_module(a, "4", "left")
    assert cases.layer_labels(p4) == [["4"], ["3", "4", "4"]]


def test_right_projectives_five_vertex(ex_five):
    a = ex_five
    p4 = projective_module(a, "4", "right")
    assert p4.total_dim == 7
    assert cases.layer_labels(p4) == [["4"], ["4", "4", "5", "5"], ["5", "5"]]
    p5 = projective_module(a, "5", "right")
    assert p5.total_dim == 1


def test_simples(ex_five):
    for v in ex_five.quiver.vertices:
        s = simple_module(ex_five, v, "left")
        assert s.total_dim == 1
        assert all(m.is_zero() for m in s.act.values())


def test_simple_module_rejects_unknown_vertex(ex_five):
    for side in ("left", "right"):
        with pytest.raises(IllFormedRelation, match="unknown vertex 'zz'"):
            simple_module(ex_five, "zz", side)


def test_projective_hereditary_a2():
    from syzkit.algebra import Quiver, build_algebra

    alg = build_algebra(Quiver(["1", "2"], [("a", "1", "2")]), [])
    p = projective_module(alg, "1", "left")
    assert p.dims == (1, 1)


def test_submodule_rejects_rows_that_are_not_stable():
    """a maps the generator at 1 to e1 + e2: span(e1) at 2 meets the image
    at its pivot and misses it only at the free column."""
    from syzkit.algebra import Quiver, build_algebra

    alg = build_algebra(Quiver(["1", "2"], [("a", "1", "2")]), [])
    m = RepModule(alg, "left", (1, 2), {"a": QMatrix.from_rows([[1], [1]])})
    top = QMatrix.from_rows([[2]])
    for rows_at_2 in (QMatrix.from_rows([[1, 0]]), QMatrix.from_rows([[0, 5]]),
                      QMatrix.zeros(0, 2)):
        with pytest.raises(IllFormedRelation, match="not stable under arrow 'a'"):
            submodule(m, [top, rows_at_2])
    sub, incl = submodule(m, [top, QMatrix.from_rows([[3, 3]])])
    assert sub.dims == (1, 1)
    assert sub.act["a"] == QMatrix.from_rows([[1]])
    assert incl.mats[1] == QMatrix.from_rows([[1], [1]])


def test_submodule_coordinates_match_a_solve():
    """On radical layers (stable) and random row spaces (mostly not), the
    submodule exists iff every arrow's image solves into the target rows,
    and its matrices are those solutions."""
    rng = random.Random(0x5B0)
    stable = unstable = 0
    for alg in randgen.algebra_pool(0x5B1, 6) + randgen.binomial_pool(0x5B2, 3):
        for side in ("left", "right"):
            m = randgen.random_module(rng, alg, side)
            eng = m.engine_presentation()
            eng_arrows = [(a.name, eng.quiver.index[a.source], eng.quiver.index[a.target])
                          for a in eng.quiver.arrows]
            tries = [cases.dense_rows(layer, m.dims) for layer in radical_series_rows(m)[1:]]
            for _ in range(6):
                tries.append([QMatrix.from_rows([[rng.randint(-1, 1) for _ in range(d)]
                                                 for _ in range(rng.randint(0, d))], ncols=d)
                              for d in m.dims])
            for rows in tries:
                bases = [row_space(r) for r in rows]
                want = {name: solve_columns(bases[t].transpose(),
                                            m.act[name] * bases[s].transpose())
                        for name, s, t in eng_arrows}
                if any(x is None for x in want.values()):
                    with pytest.raises(IllFormedRelation):
                        submodule(m, rows)
                    unstable += 1
                else:
                    sub, _ = submodule(m, rows)
                    assert sub.act == want
                    stable += 1
    assert stable > 30 and unstable > 30


def test_dual_involution_and_side(ex_five):
    p = projective_module(ex_five, "4", "left")
    d = p.dual()
    assert d.side == "right" and d.dims == p.dims
    dd = d.dual()
    assert dd.side == "left"
    for name in p.act:
        assert dd.act[name] == p.act[name]


def test_dual_of_zero(ex_five):
    from syzkit.modules import zero_module

    z = zero_module(ex_five, "left")
    assert z.dual().is_zero()


def test_dual_gives_injective_envelope(ex_five):
    # dual of the right projective at 3 = left injective with socle S_3
    e3 = projective_module(ex_five, "3", "right").dual()
    assert e3.side == "left"
    assert socle_counts(e3) == (0, 0, 1, 0, 0)


def test_radical_filtration_totals(ex_five):
    for v in ex_five.quiver.vertices:
        for side in ("left", "right"):
            p = projective_module(ex_five, v, side)
            layers = radical_filtration(p)
            assert sum(sum(layer) for layer in layers) == p.total_dim


def test_hom_projective_counts_vertex_space(ex_five):
    a = ex_five
    m = projective_module(a, "5", "left")
    for v in a.quiver.vertices:
        p = projective_module(a, v, "left")
        assert len(hom_basis(p, m)) == m.dims[a.quiver.index[v]]


def test_hom_between_simples(ex_five):
    s2 = simple_module(ex_five, "2", "left")
    s3 = simple_module(ex_five, "3", "left")
    assert len(hom_basis(s2, s2)) == 1
    assert len(hom_basis(s2, s3)) == 0


def test_end_contains_identity(ex_five):
    m = projective_module(ex_five, "4", "left")
    basis = hom_basis(m, m)
    flat_rows = QMatrix.from_rows([list(cases.flatten(f)) for f in basis],
                                  ncols=len(cases.flatten(basis[0])))
    from syzkit.modules import identity_morphism

    ident = list(cases.flatten(identity_morphism(m)))
    assert solve_right(flat_rows.transpose(), ident) is not None


def test_tensor_simple_pairs(ex_five):
    for u in ex_five.quiver.vertices:
        for v in ex_five.quiver.vertices:
            d = tensor_dim(simple_module(ex_five, u, "right"),
                           simple_module(ex_five, v, "left"))
            assert d == (1 if u == v else 0)


def test_tensor_projective_identity(ex_five):
    m = projective_module(ex_five, "4", "left")
    for v in ex_five.quiver.vertices:
        pr = projective_module(ex_five, v, "right")
        assert tensor_dim(pr, m) == m.dims[ex_five.quiver.index[v]]


def test_relation_violation_detected(ex_five):
    a = ex_five
    dims = [0, 0, 0, 1, 1]
    # delta acting invertibly on the vertex-4 space violates delta*delta = 0
    act = {"alpha": QMatrix.from_rows([[1]]), "delta": QMatrix.from_rows([[1]])}
    with pytest.raises(IllFormedRelation):
        RepModule(a, "right", dims, act, validate=True)


def test_direct_sum_round_trip(ex_five):
    p3 = projective_module(ex_five, "3", "left")
    p4 = projective_module(ex_five, "4", "left")
    total, incls, projs = direct_sum([p3, p4])
    assert total.dims == tuple(a + b for a, b in zip(p3.dims, p4.dims))
    comp = projs[0].compose(incls[0])
    assert all(comp.mats[v] == QMatrix.identity(p3.dims[v])
               for v in range(len(p3.dims)))
    mixed = projs[1].compose(incls[0])
    assert mixed.is_zero()


def test_top_counts(ex_five):
    p = projective_module(ex_five, "4", "left")
    assert top_counts(p) == (0, 0, 0, 1, 0)


def test_constructed_modules_satisfy_relations(ex_five, ex_three_loop, ex_local):
    from syzkit.homology import syzygy

    for alg in (ex_five, ex_three_loop, ex_local):
        for side in ("left", "right"):
            for v in alg.quiver.vertices:
                p = projective_module(alg, v, side)
                p.verify()
                p.dual().verify()
                s = simple_module(alg, v, side)
                s.verify()
                om = syzygy(s)
                om.verify()


def test_hom_side_and_algebra_mismatch(ex_five, ex_three_loop):
    from syzkit.errors import AlgebraMismatch, SideMismatch

    a = simple_module(ex_five, "1", "left")
    b = simple_module(ex_five, "1", "right")
    with pytest.raises(SideMismatch):
        hom_basis(a, b)
    c = simple_module(ex_three_loop, "1", "left")
    with pytest.raises(AlgebraMismatch):
        hom_basis(a, c)


def test_dual_hom_duality(ex_five):
    rng = random.Random(5)
    mods = [projective_module(ex_five, v, "left") for v in ("2", "4", "5")]
    mods += [simple_module(ex_five, v, "left") for v in ("1", "4")]
    for _ in range(6):
        m, n = rng.choice(mods), rng.choice(mods)
        assert len(hom_basis(m, n)) == len(hom_basis(n.dual(), m.dual()))


def test_projective_layout_matches_direct_sum_inclusions():
    rng = random.Random(3)
    for alg in randgen.algebra_pool(21, 12):
        for side in ("left", "right"):
            eng = alg if side == "left" else alg.opposite()
            verts = list(alg.quiver.vertices)
            verts += rng.choices(verts, k=3)  # repeated vertices
            projs = [projective_module(alg, v, side) for v in verts]
            _, incls, _ = direct_sum(projs)
            layout = projective_layout(eng, verts)
            assert len(layout) == len(verts)
            for v, proj, incl, entries in zip(verts, projs, incls, layout):
                assert sorted(i for i, _, _ in entries) == list(eng.basis_by_source[v])
                top = [0] * proj.dims[eng.quiver.index[v]]
                top[0] = 1  # the trivial path leads the projective's basis
                for i, tv, col in entries:
                    local = cases.apply(proj.path_action(v, eng.basis[i].names), top)
                    ambient = cases.apply(incl.mats[tv], local)
                    assert ambient == [int(r == col) for r in range(len(ambient))]


def _tensor_rref_by_bilinearity(a_right, m_left):
    """Frozen reference for TensorSpace.rref: the relations a.x (x) m - a (x) x.m
    written out arrow by arrow on the vertexwise blocks, coordinate
    offsets[v] + a_index * m.dims[v] + m_index."""
    from fractions import Fraction

    from syzkit.ratmat import _int_row, echelon_from_rows

    alg = a_right.algebra
    offsets, off = [], 0
    for v in range(len(alg.quiver.vertices)):
        offsets.append(off)
        off += a_right.dims[v] * m_left.dims[v]
    idx = alg.quiver.index
    rows = []
    for arr in alg.quiver.arrows:
        s, t = idx[arr.source], idx[arr.target]
        R = a_right.act[arr.name]  # A_t -> A_s
        L = m_left.act[arr.name]   # M_s -> M_t
        for x in range(a_right.dims[t]):
            for k in range(m_left.dims[s]):
                entries = {}
                for i in range(a_right.dims[s]):
                    if R.data[i][x]:
                        key = offsets[s] + i * m_left.dims[s] + k
                        entries[key] = entries.get(key, Fraction(0)) + R.data[i][x]
                for j in range(m_left.dims[t]):
                    if L.data[j][k]:
                        key = offsets[t] + x * m_left.dims[t] + j
                        entries[key] = entries.get(key, Fraction(0)) - L.data[j][k]
                if entries:
                    rows.append(_int_row(entries))
    return echelon_from_rows(rows).rref_rows()


def test_tensor_relations_are_the_hom_equations_of_the_dual():
    """TensorSpace reads its relations off the Hom system of (m, Da); its
    reduced echelon form must equal that of the bilinearity relations written
    out directly, and dim a (x) m = dim Hom(m, Da)."""
    from syzkit.homology import injective_indecomposables
    from syzkit.modules import TensorSpace, hom_dim

    rng = random.Random(0x7E)
    algebras = (randgen.algebra_pool(0x7E, 6) + randgen.binomial_pool(0x7F, 4)
                + [cases.three_vertex_loop_algebra(), cases.local_two_loop_algebra(),
                   cases.five_vertex_monomial_algebra()])
    pairs = 0
    for alg in algebras:
        mods = {}
        for side in ("left", "right"):
            verts = alg.quiver.vertices
            mods[side] = ([simple_module(alg, v, side) for v in verts]
                          + [projective_module(alg, v, side) for v in verts]
                          + injective_indecomposables(alg, side)
                          + [randgen.random_module(rng, alg, side)])
        for a in mods["right"]:
            for m in mods["left"]:
                space = TensorSpace(a, m)
                assert space.rref == _tensor_rref_by_bilinearity(a, m)
                assert space.dim == tensor_dim(a, m) == hom_dim(m, a.dual())
                pairs += 1
    assert pairs >= 500


def _dense_hom_equations(m, n):
    """Frozen reference for _hom_equations: every (i, k) pair rescans the
    dense action matrices."""
    from syzkit.ratmat import _int_row

    offsets, off = [], 0
    for v in range(len(m.dims)):
        offsets.append(off)
        off += n.dims[v] * m.dims[v]
    eng = m.engine_presentation()
    idx = eng.quiver.index

    def unknown(v, i, j):
        return offsets[v] + i * m.dims[v] + j

    rows = []
    for a in eng.quiver.arrows:
        s, t = idx[a.source], idx[a.target]
        ma = m.act[a.name]
        na = n.act[a.name]
        for i in range(n.dims[t]):
            for k in range(m.dims[s]):
                entries = {}
                for j in range(m.dims[t]):
                    if ma.data[j][k]:
                        key = unknown(t, i, j)
                        entries[key] = entries.get(key, Fraction(0)) + ma.data[j][k]
                for j in range(n.dims[s]):
                    if na.data[i][j]:
                        key = unknown(s, j, k)
                        entries[key] = entries.get(key, Fraction(0)) - na.data[i][j]
                if entries:
                    rows.append(_int_row(entries))
    return rows, offsets, off


def _nullspace_by_probing(int_rows, ncols):
    """Frozen reference for ratmat.nullspace: one r.get(f) per (free column,
    pivot row) pair."""
    from syzkit.ratmat import _ONE, _ZERO, echelon_from_rows

    rref = echelon_from_rows(int_rows).rref_rows()
    pivs = {c for c, _ in rref}
    free = [c for c in range(ncols) if c not in pivs]
    vectors = []
    for f in free:
        vec = [_ZERO] * ncols
        vec[f] = _ONE
        for c, r in rref:
            val = r.get(f)
            if val:
                vec[c] = -val
        vectors.append(vec)
    return free, vectors


def _conjugated(rng, m):
    """m in a random basis of each vertex space: dense action matrices, and
    loops with nonzero diagonal entries, where the two halves of a Hom
    equation meet on one unknown."""
    eng = m.engine_presentation()
    idx = eng.quiver.index
    change = []
    for d in m.dims:
        lower, upper = QMatrix.identity(d), QMatrix.identity(d)
        for i in range(d):
            for j in range(i):
                lower.data[i][j] = Fraction(rng.randint(-2, 2))
                upper.data[j][i] = Fraction(rng.randint(-2, 2))
        change.append(lower * upper)
    act = {a.name: change[idx[a.target]] * m.act[a.name] * cases.inverse(change[idx[a.source]])
           for a in eng.quiver.arrows}
    return RepModule(m.algebra, m.side, m.dims, act)


def _has_diagonal(m, arrow):
    mat = m.act[arrow]
    return any(mat.data[k][k] for k in range(mat.nrows))


def test_hom_system_and_nullspace_match_dense_reference():
    """_hom_equations lists each arrow matrix's nonzeros once; its rows, in
    order, and the null-space read-off must equal the dense loops', on both
    sides of monomial, binomial and tiled-order algebras, M = N included."""
    from syzkit.homology import injective_indecomposables
    from syzkit.modules import _hom_equations
    from syzkit.orders import presentation_from_valued_quiver
    from syzkit.ratmat import _ZERO, nullspace

    rng = random.Random(0x40E)
    algebras = (randgen.algebra_pool(0x40E, 8) + randgen.binomial_pool(0x40F, 6)
                + [presentation_from_valued_quiver(cases.six_vertex_order_quiver()),
                   presentation_from_valued_quiver(cases.gorenstein_order_quiver())])
    pairs = loop_squares = collisions = 0
    for alg in algebras:
        for side in ("left", "right"):
            eng = alg if side == "left" else alg.opposite()
            loops = [a.name for a in eng.quiver.arrows if a.source == a.target]
            verts = alg.quiver.vertices
            mods = ([simple_module(alg, verts[0], side)]
                    + [projective_module(alg, v, side) for v in verts[:3]]
                    + injective_indecomposables(alg, side)[:2]
                    + [randgen.random_module(rng, alg, side)])
            small = [x for x in mods if 1 < x.total_dim <= 8]
            if small:
                mods.append(_conjugated(rng, small[-1]))
            for m in mods:
                for n in mods:
                    got = _hom_equations(m, n)
                    want = _dense_hom_equations(m, n)
                    assert got == want
                    rows, _, total = got
                    free, vectors = nullspace(rows, total)
                    ref_free, ref_vectors = _nullspace_by_probing(rows, total)
                    assert (free, vectors) == (ref_free, ref_vectors)
                    # zeros stay the shared _ZERO, which End rings skip by identity
                    assert ([[x is _ZERO for x in v] for v in vectors]
                            == [[x is _ZERO for x in v] for v in ref_vectors])
                    pairs += 1
                    loop_squares += bool(loops) and m is n and total > 0
                    # a loop with diagonal entries in both m_a and n_a puts
                    # both halves of one equation on a shared unknown
                    collisions += any(_has_diagonal(m, a) and _has_diagonal(n, a)
                                      for a in loops)
    assert pairs >= 500
    assert loop_squares >= 10
    assert collisions >= 5


# -- sparse Hom bases against a frozen copy of the dense builder ---------------


def _hom_pairs():
    """(M, N) pairs: projectives, an injective, Omega^1 of a simple and a
    random module of seeded monomial and binomial algebras and of the tiled
    orders in cases, both sides; then Omega^1 ... Omega^14 of loc.alg's
    simple against itself and its successor (the End rings of the
    syzygy-type benchmark)."""
    from syzkit.homology import injective_indecomposables, syzygy
    from syzkit.orders import presentation_from_valued_quiver

    rng = random.Random(0x20C)
    algebras = (randgen.algebra_pool(0x20A, 4) + randgen.binomial_pool(0x20B, 3)
                + [presentation_from_valued_quiver(cases.six_vertex_order_quiver()),
                   presentation_from_valued_quiver(cases.gorenstein_order_quiver())])
    for alg in algebras:
        for side in ("left", "right"):
            verts = alg.quiver.vertices
            mods = ([projective_module(alg, v, side) for v in verts[:2]]
                    + injective_indecomposables(alg, side)[:1]
                    + [syzygy(simple_module(alg, verts[-1], side)),
                       randgen.random_module(rng, alg, side)])
            for m in mods:
                for n in mods:
                    yield m, n
    loc = cases.local_two_loop_algebra()
    omega = syzygy(simple_module(loc, "1", "left"))
    for _ in range(14):
        successor = syzygy(omega)
        yield omega, omega
        yield omega, successor
        omega = successor


def test_hom_basis_matches_the_frozen_dense_hom_basis():
    """hom_basis keeps its morphisms as column nonzeros: the same basis, in
    the same order and with the same matrices as the frozen dense builder;
    top_map reads a sparse morphism without densifying it and agrees with
    its dense copy, as does every column read; every basis morphism
    intertwines the arrows."""
    from syzkit.modules import ModMorphism, top_map

    pairs = morphisms = nonzero_tops = 0
    largest = 0
    for m, n in _hom_pairs():
        got, want = hom_basis(m, n), cases.dense_hom_basis(m, n)
        assert len(got) == len(want)
        for f, g in zip(got, want):
            top = top_map(f)
            assert f._mats is None
            assert f.mats == g.mats
            dense = ModMorphism(f.source, f.target, f.mats)
            assert top_map(dense) == top
            assert all(list(f.column_entries(v, c)) == dense.column_entries(v, c)
                       for v, d in enumerate(m.dims) for c in range(d))
            f.verify()
            nonzero_tops += bool(top)
        pairs += 1
        morphisms += len(got)
        largest = max(largest, len(got))
    assert pairs >= 100
    assert morphisms >= 2000 and nonzero_tops >= 200
    assert largest >= 200


# -- the echelon radical against frozen copies of the dense one ---------------


def _frozen_stack(mats):
    out = mats[0]
    for m in mats[1:]:
        out = cases.vstack(out, m)
    return out


def _frozen_radical_of(m, layer):
    """J * (rows of layer) the dense way: each arrow's images (m_a B^T)^T,
    stacked per target vertex and densified by row_space()."""
    eng = m.engine_presentation()
    idx = eng.quiver.index
    pieces = {v: [] for v in range(len(m.dims))}
    for a in eng.quiver.arrows:
        s, t = idx[a.source], idx[a.target]
        if layer[s].nrows:
            pieces[t].append((m.act[a.name] * layer[s].transpose()).transpose())
    return [row_space(_frozen_stack(pieces[v])) if pieces[v] else QMatrix.zeros(0, d)
            for v, d in enumerate(m.dims)]


def _frozen_radical_rows(m):
    """The former radical_rows: every arrow matrix transposed, the copies
    into a vertex stacked, their RREF densified by row_space()."""
    eng = m.engine_presentation()
    idx = eng.quiver.index
    pieces = {v: [] for v in range(len(m.dims))}
    for a in eng.quiver.arrows:
        mat = m.act[a.name]
        if mat.nrows and mat.ncols:
            pieces[idx[a.target]].append(mat.transpose())
    return [row_space(_frozen_stack(pieces[v])) if pieces[v] else QMatrix.zeros(0, d)
            for v, d in enumerate(m.dims)]


def _frozen_radical_series_rows(m):
    series = [[QMatrix.identity(d) if d else QMatrix.zeros(0, d) for d in m.dims]]
    rows = _frozen_radical_rows(m)
    while True:
        series.append(rows)
        if all(r.nrows == 0 for r in rows):
            return series
        rows = _frozen_radical_of(m, rows)


def _frozen_socle_counts(m):
    eng = m.engine_presentation()
    out = []
    for v, d in enumerate(m.dims):
        mats = [m.act[a.name] for a in eng.quiver.arrows_from[eng.quiver.vertices[v]]]
        mats = [mm for mm in mats if mm.nrows]
        out.append(d - _frozen_stack(mats).rank() if mats and d else d)
    return tuple(out)


def _frozen_top_reader(m):
    """The former top reader: a pivot_columns scan of the dense radical rows."""
    reader = []
    for d, rows in zip(m.dims, _frozen_radical_rows(m)):
        pivots = pivot_columns(rows)
        on_pivot = set(pivots)
        free = [c for c in range(d) if c not in on_pivot]
        terms = [(p, [(i, row[c]) for i, c in enumerate(free) if row[c]])
                 for p, row in zip(pivots, rows.data)]
        reader.append((free, [(p, t) for p, t in terms if t]))
    return tuple(reader)


def _frozen_layered_graph(m):
    """The former layered_graph: its adapted basis read off the dense series."""
    from syzkit.graphs import LayeredGraph
    from syzkit.ratmat import _int_row, echelon_from_rows

    series = _frozen_radical_series_rows(m)
    nv = len(m.dims)
    eng = m.engine_presentation()
    idx = eng.quiver.index
    adapted = {v: [] for v in range(nv)}
    for v in range(nv):
        taken = echelon_from_rows([])
        chosen = []
        for k in range(len(series) - 1, -1, -1):
            rows = series[k][v]
            for i in range(rows.nrows):
                row = {j: x for j, x in enumerate(rows.data[i]) if x}
                if taken.insert(_int_row(row)):
                    chosen.append((k, rows.row(i)))
        adapted[v] = chosen
    nodes = []
    key_of = {}
    for v in range(nv):
        for pos, (layer, vec) in enumerate(adapted[v]):
            nid = len(nodes)
            nodes.append((nid, layer, eng.quiver.vertices[v]))
            key_of[(v, pos)] = nid
    basis_mats = {}
    for v in range(nv):
        if adapted[v]:
            basis_mats[v] = QMatrix.from_rows([vec for _, vec in adapted[v]],
                                              ncols=m.dims[v]).transpose()
    edges = []
    for a in eng.quiver.arrows:
        s, t = idx[a.source], idx[a.target]
        if t not in basis_mats:
            continue
        for pos, (layer, vec) in enumerate(adapted[s]):
            img = cases.apply(m.act[a.name], vec)
            if not any(img):
                continue
            coords = solve_right(basis_mats[t], img)
            if coords is None:
                continue
            hits = [(adapted[t][i][0], i) for i, c in enumerate(coords) if c]
            if not hits:
                continue
            top_layer = min(l for l, _ in hits)
            for l, i in hits:
                if l == top_layer:
                    edges.append((key_of[(s, pos)], key_of[(t, i)], a.name))
    return LayeredGraph(nodes, edges, m.side)


def _rebased(rng, m):
    """m with each vertex space rebased by a random invertible matrix, so
    that the rows of JM meet the top columns."""
    change = []
    for d in m.dims:
        p = QMatrix.zeros(d, d)
        while d and not p.is_invertible():
            p = QMatrix.from_rows([[rng.randint(-2, 2) for _ in range(d)]
                                   for _ in range(d)], ncols=d)
        change.append(p)
    eng = m.engine_presentation()
    idx = eng.quiver.index
    act = {a.name: change[idx[a.target]] * m.act[a.name] * cases.inverse(change[idx[a.source]])
           for a in eng.quiver.arrows}
    return RepModule(m.algebra, m.side, m.dims, act)


def _radical_pool_modules():
    """Projectives, injectives, first and second syzygies of the simples and
    random modules (each also rebased), on both sides of seeded monomial,
    binomial and tiled-order residue algebras."""
    from syzkit.homology import injective_indecomposables, syzygy
    from syzkit.orders import presentation_from_valued_quiver, valued_quiver_from_exponents

    algebras = randgen.algebra_pool(0x5C0, 6) + randgen.binomial_pool(0x5C1, 4)
    algebras += [presentation_from_valued_quiver(valued_quiver_from_exponents(lam))
                 for lam in randgen.tiled_order_pool(0x5C2, 4)]
    rng = random.Random(0x5C3)
    for alg in algebras:
        for side in ("left", "right"):
            for v in alg.quiver.vertices:
                yield projective_module(alg, v, side)
                omega = syzygy(simple_module(alg, v, side))
                yield from (omega, _rebased(rng, omega), syzygy(omega))
            yield from injective_indecomposables(alg, side)
            for _ in range(2):
                m = randgen.random_module(rng, alg, side)
                yield from (m, _rebased(rng, m))


def test_echelon_radical_matches_the_frozen_dense_radical():
    """Layer by layer, radical_series_rows gives the pivots and rows of the
    dense stack-and-row_space() builder; socle counts, the top reader and
    the layered graph's text and DOT are those of the frozen dense code."""
    from syzkit.graphs import layered_graph
    from syzkit.modules import _top_reader, radical_rows

    modules = deep = reduced = 0
    for m in _radical_pool_modules():
        want = _frozen_radical_series_rows(m)
        got = radical_series_rows(m)
        assert got[1] is radical_rows(m)
        assert len(got) == len(want)
        for got_layer, want_layer in zip(got, want):
            assert [[p for p, _ in b] for b in got_layer] == \
                [pivot_columns(rows) for rows in want_layer]
            assert cases.dense_rows(got_layer, m.dims) == want_layer
        assert socle_counts(m) == _frozen_socle_counts(m)
        assert _top_reader(m) == _frozen_top_reader(m)
        assert top_counts(m) == tuple(d - r.nrows for d, r in zip(m.dims, want[1]))
        graph, frozen = layered_graph(m), _frozen_layered_graph(m)
        assert graph.render_text() == frozen.render_text()
        assert graph.render_dot() == frozen.render_dot()
        modules += 1
        deep += len(got) > 3
        reduced += any(pivot_rows for _, pivot_rows in _top_reader(m))
    assert modules >= 400 and deep >= 100 and reduced >= 40


# -- quotients against a frozen copy of the null-space quotient ---------------


def _generated_rows(rng, m):
    """Dense rows spanning the submodule of m generated by one or two random
    vectors: every basis path applied to each."""
    eng = m.engine_presentation()
    verts = eng.quiver.vertices
    rows = [[] for _ in m.dims]
    for _ in range(rng.randint(1, 2)):
        v = rng.randrange(len(verts))
        vec = [Fraction(rng.randint(-2, 2)) for _ in range(m.dims[v])]
        for i in eng.basis_by_source[verts[v]]:
            b = eng.basis[i]
            rows[eng.quiver.index[b.target]].append(
                cases.apply(m.path_action(verts[v], b.names), vec))
    return [QMatrix.from_rows(r, ncols=d) if r else QMatrix.zeros(0, d)
            for r, d in zip(rows, m.dims)]


def test_quotient_module_matches_the_frozen_nullspace_quotient():
    """quotient_module reads each class as a residual along the submodule's
    reduced echelon basis; its dims and arrow matrices must be those of the
    dense null-space quotient, on random pool modules modulo their radical
    layers and modulo randomly generated submodules."""
    from syzkit.modules import quotient_module

    rng = random.Random(0x9A0)
    algebras = randgen.algebra_pool(0x9A1, 6) + randgen.binomial_pool(0x9A2, 4)
    quotients = proper = 0
    for alg in algebras:
        for side in ("left", "right"):
            for _ in range(2):
                m = randgen.random_module(rng, alg, side)
                tries = [cases.dense_rows(layer, m.dims)
                         for layer in radical_series_rows(m)]
                tries += [_generated_rows(rng, m) for _ in range(3)]
                for rows in tries:
                    got = quotient_module(m, rows)
                    want = cases.nullspace_quotient(m, rows)
                    assert got.dims == want.dims and got.act == want.act
                    got.verify()
                    quotients += 1
                    proper += 0 < got.total_dim < m.total_dim
    assert quotients >= 150 and proper >= 50


def test_quotient_by_a_subspace_that_is_not_a_submodule_is_refused(ex_five):
    """P_4 of the five-vertex example, dims (0,0,1,3,0), modulo the span of
    its top vector alone: the arrows take that vector out of the span, so
    the quotient is refused instead of a module of dims (0,0,1,2,0); modulo
    its radical it is the simple S_4."""
    from syzkit.modules import quotient_module, top_columns

    p4 = projective_module(ex_five, "4", "left")
    assert p4.dims == (0, 0, 1, 3, 0)
    rows = [QMatrix.zeros(0, d) for d in p4.dims]
    (top,) = top_columns(p4)[3]
    rows[3] = QMatrix.from_rows([[1 if c == top else 0 for c in range(3)]])
    with pytest.raises(IllFormedRelation):
        quotient_module(p4, rows)
    radical = cases.dense_rows(radical_series_rows(p4)[1], p4.dims)
    assert quotient_module(p4, radical).dims == (0, 0, 0, 1, 0)
