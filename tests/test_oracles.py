"""Independent-oracle cross-checks: quantities recomputed a second way that
shares no code path with the primary implementation."""

import random
from fractions import Fraction

from syzkit.algebra import Quiver, Relation, build_algebra
from syzkit.decompose import registry_for
from syzkit.homology import _class_syzygy, ext_dims, pdim, resolve
from syzkit.modules import simple_module, socle_counts, top_counts

import randgen


def test_ext1_between_simples_counts_arrows():
    """dim Ext^1(S_i, S_j) equals the number of arrows i -> j (left modules):
    the multiplicity of S_j in the top of the first syzygy of S_i is exactly
    the number of arrows leaving i toward j."""
    pool = randgen.algebra_pool(0xE1, 12)
    checked = 0
    for alg in pool:
        arrows = {}
        for a in alg.quiver.arrows:
            arrows[(a.source, a.target)] = arrows.get((a.source, a.target), 0) + 1
        for i in alg.quiver.vertices:
            si = simple_module(alg, i, "left")
            for j in alg.quiver.vertices:
                sj = simple_module(alg, j, "left")
                got = ext_dims(si, sj, 1)[1]
                assert got == arrows.get((i, j), 0)
                checked += 1
    assert checked >= 100
    # minimal resolutions: dim Ext^i(M, S_v) is the multiplicity of P_v in
    # the i-th cover (records[i] covers the i-th syzygy), Ext^0 the top of M
    rng = random.Random(0xE1)
    resolved = 0
    for alg in pool:
        for side in ("left", "right"):
            m = randgen.random_module(rng, alg, side)
            records = resolve(m, 4, classify=False).records
            for v, label in enumerate(alg.quiver.vertices):
                ext = ext_dims(m, simple_module(alg, label, side), 3)
                assert ext[0] == top_counts(m)[v]
                for i in range(1, 4):
                    assert ext[i] == (records[i].cover_counts[v] if i < len(records) else 0)
            resolved += 1
    assert resolved == 2 * len(pool)


def test_finite_pdim_matches_resolution_length():
    """When the class graph certifies finite(d), the explicit minimal
    resolution must reach the zero syzygy exactly at degree d + 1.  When it
    certifies infinity, the chain must start at a summand class of the module,
    follow first-syzygy edges, and revisit a class."""
    pool = randgen.algebra_pool(0xD2, 10)
    rng = random.Random(0xD2)
    checked = 0
    chains = 0
    for k in range(60):
        alg = pool[k % len(pool)]
        m = randgen.random_module(rng, alg, "left")
        r = pdim(m, 8)
        if r.status == "infinite":
            reg = registry_for(alg, "left")
            chain = r.certificate["chain_class_ids"]
            p, q = r.certificate["repeat_positions"]
            assert chain[0] in reg.classify(m)
            for a, b in zip(chain, chain[1:]):
                assert b in _class_syzygy(reg, a)
            assert p < q and chain[p] == chain[q]
            assert r.certificate["chain_dims"] == [reg.by_id(c).dims for c in chain]
            chains += 1
        if r.status != "finite":
            continue
        trace = resolve(m, r.value + 1, classify=False)
        assert trace.completed
        assert len(trace.records) == (r.value + 1 if not m.is_zero() else 0)
        assert trace.records[-1].syzygy.is_zero()
        if r.value >= 1:
            assert not trace.records[-2].syzygy.is_zero()
        checked += 1
    assert checked >= 20
    assert chains >= 10


def test_socle_of_dual_is_top():
    pool = randgen.algebra_pool(0xD3, 8)
    rng = random.Random(0xD3)
    for k in range(40):
        alg = pool[k % len(pool)]
        m = randgen.random_module(rng, alg, "left")
        assert socle_counts(m.dual()) == top_counts(m)
        assert top_counts(m.dual()) == socle_counts(m)


def test_catalog_levels_match_explicit_resolution(ex_five):
    from syzkit.decompose import registry_for
    from syzkit.modules import direct_sum
    from syzkit.repetition import build_catalog

    alg = ex_five
    simples = [simple_module(alg, v, "right") for v in alg.quiver.vertices]
    total, _, _ = direct_sum(simples)
    cat = build_catalog(total, 12)
    states, preperiod, period = cat.level_states()
    trace = resolve(total, 7)
    for degree in range(1, 8):
        idx = degree if degree < preperiod + period else \
            preperiod + (degree - preperiod) % period
        expected = states[idx]
        got = {cid for cid, mult in trace.records[degree - 1].classes.items() if mult}
        assert got == expected


def test_mixed_length_binomial_closure():
    """A length-2 path identified with a length-3 path: killing one composite
    kills the other, and the surviving classes are exactly the hand-counted
    ones (total dimension 18)."""
    q = Quiver(["1", "2", "3", "4", "5", "6"], [
        ("x", "1", "2"), ("y", "2", "4"),
        ("u", "1", "3"), ("v", "3", "5"), ("w", "5", "4"),
        ("t", "4", "6")])
    rels = [Relation.equal(("x", "y"), 1, ("u", "v", "w")),
            Relation.zero(("x", "y", "t"))]
    alg = build_algebra(q, rels)
    assert alg.nilpotency == 4
    assert alg.dim == 18
    # the two sides of the identification share a class
    c1 = alg.class_of("1", ("x", "y"))
    c2 = alg.class_of("1", ("u", "v", "w"))
    assert c1 is not None and c1 == c2
    # the killed composite kills the identified detour as a consequence
    assert alg.class_of("1", ("u", "v", "w", "t")) is None
    # but the shorter suffix of the detour survives
    assert alg.class_of("3", ("v", "w", "t")) is not None


def test_scalar_binomial_coefficients_propagate():
    q = Quiver(["1"], [("x", "1", "1"), ("y", "1", "1")])
    rels = [Relation.zero(("x", "x")), Relation.zero(("y", "y")),
            Relation.equal(("x", "y"), 2, ("y", "x"))]
    alg = build_algebra(q, rels)
    assert alg.dim == 4
    cxy = alg.class_of("1", ("x", "y"))
    cyx = alg.class_of("1", ("y", "x"))
    assert cxy[1] == cyx[1]
    assert cxy[0] / cyx[0] == 2
    nf = alg.element_normal_form([(1, "1", ("x", "y")), (-2, "1", ("y", "x"))])
    assert nf == {}


def test_binomial_coefficients_conflict_or_agree():
    """One vertex, loops x and y, x^2 = y^2 = 0.  xy = 2yx with yx = 2xy
    gives xy = 4xy, so both composites die (dim 3); xy = 2yx with
    yx = (1/2)xy agree, so they share one class with ratio 2 (dim 4)."""
    q = Quiver(["1"], [("x", "1", "1"), ("y", "1", "1")])
    squares = [Relation.zero(("x", "x")), Relation.zero(("y", "y"))]
    xy_2yx = Relation.equal(("x", "y"), 2, ("y", "x"))

    dead = build_algebra(q, squares + [xy_2yx, Relation.equal(("y", "x"), 2, ("x", "y"))])
    assert dead.dim == 3
    assert dead.class_of("1", ("x", "y")) is None
    assert dead.class_of("1", ("y", "x")) is None

    alive = build_algebra(q, squares + [xy_2yx,
                                        Relation.equal(("y", "x"), Fraction(1, 2), ("x", "y"))])
    assert alive.dim == 4
    cxy = alive.class_of("1", ("x", "y"))
    cyx = alive.class_of("1", ("y", "x"))
    assert cxy[1] == cyx[1]
    assert cxy[0] / cyx[0] == 2


def test_binomial_union_through_a_weighted_path():
    """ad = 2bd, then ad = 3cd: the second union starts from ad = 2 * root,
    so the closure must divide by that weight (bd = (3/2)cd, not 3cd)."""
    q = Quiver(["1", "m", "2"], [("a", "1", "m"), ("b", "1", "m"), ("c", "1", "m"),
                                 ("d", "m", "2")])
    alg = build_algebra(q, [Relation.equal(("a", "d"), 2, ("b", "d")),
                            Relation.equal(("a", "d"), 3, ("c", "d"))])
    assert alg.dim == 8
    (ca, ia), (cb, ib), (cc, ic) = (alg.class_of("1", (x, "d")) for x in "abc")
    assert ia == ib == ic
    assert (ca / cc, cb / cc) == (3, Fraction(3, 2))
