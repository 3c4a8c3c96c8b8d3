from syzkit.decompose import is_isomorphic, registry_for
from syzkit.homology import (ext_dims, idim_both_sides, pdim,
                             poincare_betti_truncated, projective_cover,
                             recurrence_chain, resolve, syzygy,
                             syzygy_with_cover, tor1_dim)
from syzkit.modules import direct_sum, projective_module, simple_module

import cases


def test_cover_of_projective_is_identity(ex_five):
    p = projective_module(ex_five, "4", "left")
    cov = projective_cover(p)
    assert cov.module.total_dim == p.total_dim
    assert syzygy(p).is_zero()


def test_cover_of_simple(ex_three_loop):
    s1 = simple_module(ex_three_loop, "1", "left")
    omega, incl, cov = syzygy_with_cover(s1)
    assert cov.summands == ("1",)
    assert cases.layer_labels(omega) == [["2"], ["3"]]


def test_syzygy_chain_three_loop(ex_three_loop):
    s1 = simple_module(ex_three_loop, "1", "left")
    s3 = simple_module(ex_three_loop, "3", "left")
    o2 = syzygy(syzygy(s1))
    assert is_isomorphic(o2, s3)
    o3 = syzygy(o2)
    o5 = syzygy(syzygy(o3))
    assert is_isomorphic(o3, o5)


def test_syzygy_simple_chain_five(ex_five):
    s1 = simple_module(ex_five, "1", "right")
    s2 = simple_module(ex_five, "2", "right")
    assert is_isomorphic(syzygy(s1), s2)
    s5 = simple_module(ex_five, "5", "right")
    assert syzygy(s5).is_zero()


def test_nakayama_alternation():
    alg = cases.nakayama_local(3)
    s = simple_module(alg, "1", "left")
    o1 = syzygy(s)
    assert o1.total_dim == 2
    o2 = syzygy(o1)
    assert is_isomorphic(o2, s)
    assert is_isomorphic(syzygy(o2), o1)


def test_resolve_trace_bookkeeping(ex_five):
    s4 = simple_module(ex_five, "4", "right")
    trace = resolve(s4, 4)
    prev_dim = s4.total_dim
    for rec in trace.records:
        eng = s4.engine_presentation()
        cover_dim = sum(
            count * len(eng.basis_by_source[eng.quiver.vertices[v]])
            for v, count in enumerate(rec.cover_counts))
        assert rec.syzygy.total_dim == cover_dim - prev_dim
        prev_dim = rec.syzygy.total_dim


def test_resolve_projective_terminates(ex_five):
    p = projective_module(ex_five, "2", "right")
    trace = resolve(p, 5)
    assert trace.completed and len(trace.records) == 1
    assert trace.records[0].syzygy.is_zero()


def test_tor_flat_regular(ex_five):
    from syzkit.modules import regular_module

    lam = regular_module(ex_five, "left")
    for v in ex_five.quiver.vertices:
        assert tor1_dim(simple_module(ex_five, v, "right"), lam) == 0


def test_tor_matches_tensor_counts(ex_five, ex33_m=None):
    s4 = simple_module(ex_five, "4", "right")
    s4l = simple_module(ex_five, "4", "left")
    # Tor_1(S_4, S_4-left): kernel of Omega(S4) (x) S4l -> P (x) S4l
    val = tor1_dim(s4, s4l)
    assert val >= 0  # agreement of the two computation paths is asserted inside


def test_pdim_projective(ex_five):
    p = projective_module(ex_five, "3", "left")
    r = pdim(p, 4)
    assert r.status == "finite" and r.value == 0


def test_pdim_finite_values(ex_five):
    # left simples: S_1 projective; S_2 -> S_1; S_3 -> S_2 -> S_1
    vals = {}
    for v in ("1", "2", "3"):
        vals[v] = pdim(simple_module(ex_five, v, "left"), 8)
    assert vals["1"].value == 0
    assert vals["2"].value == 1
    assert vals["3"].value == 2


def test_pdim_infinite_certificate(ex_three_loop):
    s1 = simple_module(ex_three_loop, "1", "left")
    r = pdim(s1, 10)
    assert r.status == "infinite"
    chain = r.certificate["chain_class_ids"]
    p, q = r.certificate["repeat_positions"]
    assert chain[p] == chain[q] and p < q
    reg = registry_for(ex_three_loop, "left")
    # consecutive chain entries: next is a summand of the first syzygy
    for i in range(len(chain) - 1):
        from syzkit.homology import _class_syzygy

        dec = _class_syzygy(reg, chain[i])
        assert chain[i + 1] in dec


def test_recurrence_chain_is_shortest_over_cycle_classes():
    # the chain through cycle class 0 would be [1, 0, 1, 0]
    chain, repeat, tail = recurrence_chain({0: {1: 1}, 1: {0: 1}}, [1])
    assert chain == [1, 0, 1]
    assert repeat == (0, 2)
    assert tail == [1]
    # equal lengths: the least cycle class wins
    edges = {0: {0: 1}, 1: {1: 1}, 2: {0: 1, 1: 1}}
    assert recurrence_chain(edges, [2])[0] == [2, 0, 0]


def test_pdim_unknown_when_no_cycle(ex_local):
    s = simple_module(ex_local, "1", "left")
    r = pdim(s, 5)
    assert r.status == "unknown"


def test_idim_of_selfinjective_local(ex_local):
    left, right, _ = idim_both_sides(ex_local, 5)
    assert left.status == "finite" and left.value == 0
    assert right.status == "finite" and right.value == 0


def test_ext_degree_zero_is_hom(ex_five):
    from syzkit.modules import hom_basis

    m = projective_module(ex_five, "4", "left")
    n = projective_module(ex_five, "5", "left")
    assert ext_dims(m, n, 0)[0] == len(hom_basis(m, n))


def test_ext_vanishes_on_projectives(ex_five):
    p = projective_module(ex_five, "4", "left")
    s = simple_module(ex_five, "4", "left")
    assert ext_dims(p, s, 3) == [1, 0, 0, 0]


def test_ext_against_simples_counts_cover_multiplicities(ex_three_loop):
    s1 = simple_module(ex_three_loop, "1", "left")
    s2 = simple_module(ex_three_loop, "2", "left")
    s3 = simple_module(ex_three_loop, "3", "left")
    assert ext_dims(s1, s2, 1) == [0, 1]
    assert ext_dims(s1, s3, 1) == [0, 0]
    # degree-k Ext dims against a simple = multiplicity of its projective
    # in the k-th cover (records[k] covers the k-th syzygy)
    trace = resolve(s1, 4)
    e2 = ext_dims(s1, s2, 3)
    e3 = ext_dims(s1, s3, 3)
    for k in range(1, 4):
        counts = trace.records[k].cover_counts
        assert e2[k] == counts[1]
        assert e3[k] == counts[2]


def test_poincare_betti_signs(ex_three_loop):
    s1 = simple_module(ex_three_loop, "1", "left")
    s3 = simple_module(ex_three_loop, "3", "left")
    ext = ext_dims(s1, s3, 4)
    pb = poincare_betti_truncated(s1, s3, 4)
    assert pb == [d if i % 2 == 0 else -d for i, d in enumerate(ext)]


def test_schanuel_variant_padding(ex_five):
    # padding the cover with an extra projective leaves the non-projective
    # syzygy summands unchanged and adds the padding as a summand
    from syzkit.modules import ModMorphism, kernel_module

    m = simple_module(ex_five, "4", "right")
    omega, incl, cov = syzygy_with_cover(m)
    extra = projective_module(ex_five, "2", "right")
    padded, incls, projs = direct_sum([cov.module, extra])
    mats = [a * b for a, b in zip(cov.surjection.mats, projs[0].mats)]
    surj = ModMorphism(padded, m, mats, validate=False)
    kernel, _ = kernel_module(surj)
    reg = registry_for(ex_five, "right")
    left = reg.classify(kernel)
    right = dict(reg.classify(omega))
    extra_id = reg.register(extra)
    right[extra_id] = right.get(extra_id, 0) + 1
    assert left == right


def _cochain_resolution(m, length):
    """Covers and syzygy inclusions of the minimal resolution of m, up to
    `length` covers: covers[k] covers Omega^k, incls[k]: Omega^{k+1} -> C_k."""
    covers, incls = [], []
    current = m
    for _ in range(length):
        if current.is_zero():
            break
        current, incl, cov = syzygy_with_cover(current)
        covers.append(cov)
        incls.append(incl)
    return covers, incls


def _ext_dims_by_cochains(m, resolution, n, max_degree):
    """Frozen reference for ext_dims: the cohomology of Hom(C_*, n) along the
    minimal resolution C_* of m (from _cochain_resolution, at least
    max_degree + 2 covers long), from explicit cochain matrices
    Hom(C_{k-1}, n) -> Hom(C_k, n) built from the cover surjections and the
    syzygy inclusions."""
    from fractions import Fraction

    from syzkit.modules import ModMorphism, projective_layout
    from syzkit.ratmat import QMatrix

    if m.is_zero():
        return [0] * (max_degree + 1)
    eng = m.engine_presentation()
    quiver = eng.quiver
    covers, incls = resolution
    layouts = [list(zip(c.summands, projective_layout(eng, c.summands))) for c in covers]
    # (vertex index, column) of each copy's top generator in covers[k]
    gens = [[(tv, col) for _, entries in lay for i, tv, col in entries
             if not eng.basis[i].names] for lay in layouts]

    def hom_dim_of(k):
        if k >= len(covers):
            return 0
        return sum(n.dims[quiver.index[v]] for v in covers[k].summands)

    def coord_offsets(k):
        offs, off = [], 0
        for v in covers[k].summands:
            offs.append(off)
            off += n.dims[quiver.index[v]]
        return offs

    def differential(k):
        if k >= len(covers) or k < 1:
            return None
        return ModMorphism(covers[k].module, covers[k - 1].module,
                           [a * b for a, b in zip(incls[k - 1].mats,
                                                  covers[k].surjection.mats)],
                           validate=False)

    def lam_matrix(k):
        rows = hom_dim_of(k)
        cols = hom_dim_of(k - 1)
        mat = QMatrix.zeros(rows, cols)
        d = differential(k)
        if d is None or rows == 0 or cols == 0:
            return mat
        src_offs = coord_offsets(k)
        tgt_offs = coord_offsets(k - 1)
        for s, (v_s, entries_s) in enumerate(layouts[k - 1]):
            for u in range(n.dims[quiver.index[v_s]]):
                col = tgt_offs[s] + u
                for r, (gv, gc) in enumerate(gens[k]):
                    vec = d.mats[gv].column(gc)
                    out = [Fraction(0)] * n.dims[gv]
                    for idx, tv, amb in entries_s:
                        if tv != gv or not vec[amb]:
                            continue
                        colvec = n.path_action(v_s, eng.basis[idx].names).column(u)
                        for i, x in enumerate(colvec):
                            if x:
                                out[i] += vec[amb] * x
                    for i, x in enumerate(out):
                        if x:
                            mat.data[src_offs[r] + i][col] = x
        return mat

    dims = []
    prev_rank = 0
    for k in range(max_degree + 1):
        next_rank = lam_matrix(k + 1).rank()
        dims.append(hom_dim_of(k) - next_rank - prev_rank)
        prev_rank = next_rank
    return dims


def test_ext_by_dimension_shift_matches_cochains():
    """ext_dims (dimension shift over Hom dimensions) against the frozen
    cochain-complex reference, on simples, indecomposable projectives and
    injectives and one random module per algebra and side, all pairs, degrees
    0..3.  The seeds keep the reference's resolutions small (see CHANGES.md)."""
    import random

    import randgen
    from syzkit.homology import injective_indecomposables

    rng = random.Random(0xE2)
    algebras = (randgen.algebra_pool(0xE2, 3) + randgen.binomial_pool(0xB3, 2)
                + [cases.three_vertex_loop_algebra(), cases.local_two_loop_algebra(),
                   cases.five_vertex_monomial_algebra(), cases.nakayama_local(3)])
    pairs = higher = 0
    for alg in algebras:
        for side in ("left", "right"):
            verts = alg.quiver.vertices
            mods = ([simple_module(alg, v, side) for v in verts]
                    + [projective_module(alg, v, side) for v in verts]
                    + injective_indecomposables(alg, side)
                    + [randgen.random_module(rng, alg, side)])
            for m in mods:
                resolution = _cochain_resolution(m, 5)
                for n in mods:
                    want = _ext_dims_by_cochains(m, resolution, n, 3)
                    assert ext_dims(m, n, 3) == want
                    pairs += 1
                    higher += any(want[1:])
    assert pairs >= 300
    assert higher >= 100   # the shift terms matter on a good share of pairs
