import itertools
import json
import os
import random
from fractions import Fraction

import pytest

from syzkit import decompose
from syzkit.decompose import (_trace_pairing_nonzero, end_ring,
                              factor_over_rationals, is_indecomposable,
                              is_isomorphic, iso_witness, krull_schmidt,
                              minimal_polynomial, modules_isomorphic,
                              radical_of_end, registry_for, split_once)
from syzkit.errors import (AlgebraMismatch, ExtensionFieldAmbiguity, SideMismatch,
                           ZeroModuleError)
from syzkit.formats import parse_algebra
from syzkit.homology import injective_indecomposables, syzygy
from syzkit.modules import (ModMorphism, RepModule, direct_sum, hom_basis,
                            identity_morphism, kernel_module, projective_module,
                            radical_rows, regular_module, simple_module,
                            top_columns, top_counts, top_map, zero_module)
from syzkit.orders import (presentation_from_valued_quiver,
                           valued_quiver_from_exponents)
from syzkit.ratmat import Echelon, QMatrix, _int_row
from syzkit.repetition import _test_module_side

import cases
import randgen
from cases import solve_right


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


def test_iso_witness_on_every_registry_hit_of_the_ex46_report(data_dir, monkeypatch):
    """Every registry hit of `order report ex46.ord --budget 8` is the hit of
    the frozen pairing-only registry, replayed on the same modules; on each
    the map the trace pairing names is an isomorphism, and two registered
    classes of equal dimensions have no witness."""
    import contextlib
    import io

    from syzkit.cli import run_command

    calls = []
    register = decompose.IsoClassRegistry.register

    def recorded(reg, module):
        cid = register(reg, module)
        calls.append((reg, module, cid))
        return cid

    monkeypatch.setattr(decompose.IsoClassRegistry, "register", recorded)
    with contextlib.redirect_stdout(io.StringIO()):
        code, _ = run_command(["order", "report", os.path.join(data_dir, "ex46.ord"),
                               "--budget", "8"])
    monkeypatch.undo()
    assert code == 0
    replay, hits = {}, []
    for reg, module, cid in calls:
        frozen = replay.setdefault(id(reg), cases.PairingOnlyRegistry(reg.algebra, reg.side))
        known = len(frozen)
        assert frozen.register(module) == cid
        if len(frozen) == known:
            hits.append((frozen.by_id(cid).module, module))
    assert len(hits) > 40
    for m, n in hits:
        w = iso_witness(m, n)
        assert (w.source, w.target) == (m, n)
        w.verify()
        assert w.is_isomorphism()
    classes = registry_for(hits[0][0].algebra, hits[0][0].side).classes
    apart = [(a.module, b.module) for a, b in itertools.combinations(classes, 2)
             if a.dims == b.dims]
    assert apart and all(iso_witness(m, n) is None for m, n in apart)


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


def test_registry_refuses_modules_of_another_side_or_algebra(ex_five, ex_three_loop):
    reg = decompose.IsoClassRegistry(ex_five, "left")
    with pytest.raises(SideMismatch, match="right module in a left-module registry"):
        reg.register(simple_module(ex_five, "3", "right"))
    with pytest.raises(AlgebraMismatch):
        reg.register(simple_module(ex_three_loop, "1", "left"))
    assert len(reg) == 0


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


# -- frozen reference: the full-module trace Gram ------------------------------
# End(m)/rad read off the k x k Gram matrix of tr_M(f o g) over all of m, and
# the candidate stream pruned by its rows, as they were before the radical was
# read on the top of m.


def _reference_entries(f, by_col):
    """Nonzero entries of a morphism as {position: Fraction}, each vertex
    block read row by row (or column by column), blocks in vertex order."""
    blocks = (zip(*m.data) if by_col else m.data for m in f.mats)
    entries = itertools.chain.from_iterable(itertools.chain.from_iterable(blocks))
    return {p: x for p, x in enumerate(entries) if x}


def _reference_trace(g_rows, f_cols):
    return sum((x * f_cols[p] for p, x in g_rows.items() if p in f_cols), Fraction(0))


def _reference_gram(basis):
    k = len(basis)
    gram = QMatrix.zeros(k, k)
    rows = [_reference_entries(f, False) for f in basis]
    cols = [_reference_entries(f, True) for f in basis]
    for i in range(k):
        for j in range(i, k):
            gram.data[i][j] = gram.data[j][i] = _reference_trace(rows[i], cols[j])
    return gram


def _reference_pruned_candidates(e, rng):
    """The split loop's candidate stream, radical candidates dropped by the
    rows of e's full Gram; products are composed, then tested."""
    basis = e.basis
    gram = e.gram.data
    outside = [any(row) for row in gram]
    for f, keep in zip(basis, outside):
        if keep:
            yield f
    cols = [_reference_entries(b, True) for b in basis]
    for i, j in itertools.combinations(range(min(len(basis), 10)), 2):
        f, g = basis[i], basis[j]
        if outside[i] and outside[j]:
            for phi in (f.compose(g), g.compose(f)):
                rows = _reference_entries(phi, False)
                if any(_reference_trace(rows, c) for c in cols):
                    yield phi
        if any(a + b for a, b in zip(gram[i], gram[j])):
            yield f.add(g)
    nonzero_rows = [[(i, x) for i, x in enumerate(row) if x] for row in gram if any(row)]
    for _ in range(decompose._SPLIT_RANDOM_TRIES):
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(len(basis))]
        if any(sum(coeffs[i] * x for i, x in row) for row in nonzero_rows):
            yield e.combo(coeffs)


class _GramEndRing:
    """End ring whose radical is the kernel of the full-module trace Gram."""

    def __init__(self, module, basis):
        self.module = module
        self.basis = basis
        self.gram = _reference_gram(basis)

    @property
    def dim(self):
        return len(self.basis)

    def semisimple_dim(self):
        return self.gram.rank()

    def radical_combos(self):
        return self.gram.kernel_rows()

    combo = decompose.EndRing.combo


def _top_product(g_bar, f_bar):
    """g-bar f-bar for top maps in {(v, i, j): x} form."""
    out = {}
    for (v, i, k), x in g_bar.items():
        for (w, k2, j), y in f_bar.items():
            if (w, k2) == (v, k):
                out[v, i, j] = out.get((v, i, j), 0) + x * y
    return {q: x for q, x in out.items() if x}


def test_trace_form_matches_composite_traces():
    """Every entry of the frozen full-module Gram equals the trace of the
    composed morphism.  For indecomposables m and n, every trace over
    top(m) of g-bar f-bar scales to the trace of g o f over m as
    dim top(m) : dim m, top_map(g o f) = g-bar f-bar, and the registry's
    test is nonzero iff some composite trace is."""
    pieces = []
    checked = 0
    for mod in _differential_modules():
        e = end_ring(mod)
        gram = _reference_gram(e.basis)
        for i, f in enumerate(e.basis):
            for j, g in enumerate(e.basis):
                assert gram.data[i][j] == f.compose(g).trace()
                checked += 1
        pieces.extend(krull_schmidt(mod))
    assert checked > 500
    by_dims = {}    # indecomposables over one algebra, one side, equal dims
    for piece in pieces:
        key = (id(piece.algebra), piece.side, piece.dims)
        by_dims.setdefault(key, []).append(piece)
    outcomes = set()
    uneven = composed = 0
    for group in by_dims.values():
        for m, n in itertools.product(group[:6], repeat=2):
            fwd, bwd = hom_basis(m, n), hom_basis(n, m)
            traces = [g.compose(f).trace() for f in fwd for g in bwd]
            top_dim = sum(top_counts(m))
            for f in fwd:
                for g in bwd:
                    gf_bar = _top_product(top_map(g), top_map(f))
                    top_trace = sum(x for (_, i, j), x in gf_bar.items() if i == j)
                    assert top_trace * m.total_dim == g.compose(f).trace() * top_dim
                    if m is not n:
                        assert top_map(g.compose(f)) == gf_bar
                        composed += 1
            assert _trace_pairing_nonzero(m, n) == any(traces)
            outcomes.add(any(traces))
            uneven += len(fwd) != len(bwd)
    assert outcomes == {False, True}
    assert uneven > 0
    assert composed > 100


# -- frozen reference: the split loop before its shortcuts ---------------------
# Every popped module gets an End ring, and every non-scalar candidate gets a
# minimal polynomial and a factoring over Q.


def _reference_candidates(e, rng):
    """(kind, candidate) in the order the split loop tries them."""
    basis = e.basis
    for f in basis:
        yield "basis", f
    for f, g in itertools.combinations(basis[:10], 2):
        yield "product", f.compose(g)
        yield "product", g.compose(f)
        yield "sum", f.add(g)
    for _ in range(300):
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(len(basis))]
        if any(coeffs):
            yield "random", e.combo(coeffs)


def _reference_is_scalar(phi):
    ident = identity_morphism(phi.source)
    c = phi.trace() / phi.source.total_dim
    return all((a - b.scale(c)).is_zero() for a, b in zip(phi.mats, ident.mats))


def _reference_poly_at(p, phi):
    """p(phi) by Horner, one vertex block at a time."""
    mats = []
    for a, one in zip(phi.mats, identity_morphism(phi.source).mats):
        block = one.scale(0)
        for c in reversed(p):
            block = a * block + one.scale(c)
        mats.append(block)
    return ModMorphism(phi.source, phi.source, mats, validate=False)


def _reference_poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


# -- frozen reference: the Krylov minimal polynomial --------------------------
# One Krylov chain per start vector not yet in the accumulated span, each
# chain's local polynomial solved for, merged by a polynomial lcm, as the
# split fallback computed it before the elimination over tagged powers.


def _krylov_normalize(p):
    while p and not p[-1]:
        p.pop()
    return p


def _krylov_monic(p):
    p = _krylov_normalize(list(p))
    return [c / p[-1] for c in p]


def _krylov_divmod(a, b):
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and _krylov_normalize(a):
        if len(a) < len(b):
            break
        c = a[-1] / b[-1]
        d = len(a) - len(b)
        q[d] = c
        for i, bc in enumerate(b):
            a[d + i] -= c * bc
        _krylov_normalize(a)
    return _krylov_normalize(q), _krylov_normalize(a)


def _krylov_gcd(a, b):
    a, b = _krylov_normalize(list(a)), _krylov_normalize(list(b))
    while b:
        _, r = _krylov_divmod(a, b)
        a, b = b, r
    return _krylov_monic(a) if a else []


def _krylov_lcm(a, b):
    if not a:
        return _krylov_monic(b)
    if not b:
        return _krylov_monic(a)
    q, r = _krylov_divmod(_reference_poly_mul(a, b), _krylov_gcd(a, b))
    assert not _krylov_normalize(r)
    return _krylov_monic(q)


def _krylov_minimal_polynomial(phi):
    dims = phi.source.dims
    total = sum(dims)
    if total == 0:
        return [Fraction(1)]
    result = [Fraction(1)]
    global_ech = Echelon()
    covered = 0
    for start in range(total):
        if covered == total:
            break
        if not global_ech.reduce({start: 1}):
            continue
        blocks, pos = [], start
        for d in dims:
            blocks.append([Fraction(int(i == pos)) for i in range(d)])
            pos -= d
        local_ech = Echelon()
        local_rows = []
        vec = blocks
        while True:
            flat = [x for b in vec for x in b]
            row = _int_row({i: x for i, x in enumerate(flat) if x})
            local_rows.append(flat)
            if not local_ech.insert(dict(row)):
                break
            if global_ech.insert(dict(row)):
                covered += 1
            vec = [cases.apply(a, v) for a, v in zip(phi.mats, vec)]
        k = len(local_rows) - 1
        sol = solve_right(QMatrix.from_rows(local_rows[:k], ncols=total).transpose(),
                          local_rows[k]) if k else []
        result = _krylov_lcm(result, [-c for c in sol] + [Fraction(1)])
        if len(result) - 1 == total:
            break
    return _krylov_monic(result)


def _reference_split_by_endo(m, phi):
    p = _krylov_minimal_polynomial(phi)
    if len(p) <= 2:
        return None
    factors = factor_over_rationals(p)
    if len(factors) < 2:
        return None
    g1 = [Fraction(1)]
    for _ in range(factors[0][1]):
        g1 = _reference_poly_mul(g1, factors[0][0])
    g2 = [Fraction(1)]
    for fac, mult in factors[1:]:
        for _ in range(mult):
            g2 = _reference_poly_mul(g2, fac)
    piece1, _ = kernel_module(_reference_poly_at(g1, phi))
    piece2, _ = kernel_module(_reference_poly_at(g2, phi))
    if piece1.is_zero() or piece2.is_zero():
        return None
    if any(a + b != c for a, b, c in zip(piece1.dims, piece2.dims, m.dims)):
        return None
    return piece1, piece2


def _reference_krull_schmidt(m):
    out = []
    stack = [m]
    while stack:
        x = stack.pop()
        e = end_ring(x)
        if e.semisimple_dim() == 1:
            out.append(x)
            continue
        rng = random.Random(0x5A7A)
        for _, phi in _reference_candidates(e, rng):
            if _reference_is_scalar(phi):
                continue
            pieces = _reference_split_by_endo(x, phi)
            if pieces is not None:
                break
        else:
            raise ExtensionFieldAmbiguity("no splitting endomorphism")
        stack.extend(pieces)
    return out


def _split_test_modules():
    """Over seeded monomial and binomial algebras and both tiled orders, both
    sides: the three findim root modules, the first and second syzygies of
    every simple, and a few random quotients of sums of projectives."""
    algebras = randgen.algebra_pool(0x5B, 6) + randgen.binomial_pool(0x5C, 5)
    algebras += [presentation_from_valued_quiver(vq) for vq in
                 (cases.six_vertex_order_quiver(), cases.gorenstein_order_quiver())]
    rng = random.Random(0x5D)
    for alg in algebras:
        for side in ("left", "right"):
            for _, pieces, _ in _test_module_side(alg, side):
                yield direct_sum(pieces)[0]
            for v in alg.quiver.vertices:
                omega = syzygy(simple_module(alg, v, side))
                for _ in range(2):
                    if omega.is_zero():
                        break
                    yield omega
                    omega = syzygy(omega)
            for _ in range(2):
                yield randgen.random_module(rng, alg, side)


def _quadratic_field_modules():
    """Kronecker modules with End/rad = Q(i), where no candidate splits and
    the split loop reads its whole candidate stream: X (b a rotation), a
    self-extension W of X (End = Q(i)[t]/(t^2)), and X (+) W."""
    from syzkit.algebra import Quiver, build_algebra
    from syzkit.modules import RepModule
    from syzkit.ratmat import QMatrix

    alg = build_algebra(Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")]), [])
    x = RepModule(alg, "left", (2, 2), {"a": QMatrix.identity(2),
                                        "b": QMatrix.from_rows([[0, -1], [1, 0]])})
    w = RepModule(alg, "left", (4, 4), {
        "a": QMatrix.identity(4),
        "b": QMatrix.from_rows([[0, -1, 1, 0], [1, 0, 0, 1],
                                [0, 0, 0, -1], [0, 0, 1, 0]])})
    return [x, w, direct_sum([x, w])[0]]


def test_krull_schmidt_matches_the_unshortened_split_loop():
    """The shortcuts (no End ring for local modules, no radical candidates,
    direct idempotent splits) give the pieces of the frozen reference loop:
    same order, same dims, identical action matrices."""
    modules = pieces = splits = 0
    for mod in _split_test_modules():
        got = krull_schmidt(mod)
        want = _reference_krull_schmidt(mod)
        assert [p.dims for p in got] == [p.dims for p in want]
        for a, b in zip(got, want):
            assert a.act == b.act
        modules += 1
        pieces += len(got)
        splits += len(got) > 1
    assert modules > 200
    assert splits > 50
    assert pieces > 2 * modules
    w = _quadratic_field_modules()[1]
    with pytest.raises(ExtensionFieldAmbiguity):
        _reference_krull_schmidt(w)
    with pytest.raises(ExtensionFieldAmbiguity):
        krull_schmidt(w)


def test_relabelled_pool_pieces_match_the_unshortened_split_loop(monkeypatch):
    """The benchmark's algebra pool (pool seed 1) under the labellings of run
    seeds 1-3 and 13, whose x^2 + x candidate once sent a split to sympy:
    every module the pool jobs decompose gives the pieces of the frozen
    reference loop, the jobs give their recorded answers, and nothing is
    factored by sympy."""
    bench = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench")
    monkeypatch.syspath_prepend(bench)
    import workloads

    with open(os.path.join(bench, "expected.json")) as fh:
        spec = json.load(fh)["algebra_pool"]
    decomposed, polys = [], []

    def recorded(original, out):
        def wrapper(arg):
            result = original(arg)
            out.append((arg, result))
            return result
        return wrapper

    monkeypatch.setattr(decompose, "krull_schmidt", recorded(krull_schmidt, decomposed))
    monkeypatch.setattr(decompose, "_coprime_factors",
                        recorded(decompose._coprime_factors, polys))
    factored = _count_calls(monkeypatch, "factor_over_rationals")
    for seed in (1, 2, 3, 13):
        work = workloads.PoolWorkload(1, spec["size"], seed, spec["answers"]["1"])
        for job in work.run_pass(work.next_inputs()):
            assert job.error is None and work.check(job) is None
    assert factored == []
    assert [0, 1, 1] in [p for p, g in polys if g is not None]
    splits = 0
    for mod, got in decomposed:
        want = _reference_krull_schmidt(mod)
        assert [(p.dims, p.act) for p in got] == [(p.dims, p.act) for p in want]
        splits += len(got) > 1
    assert splits > 500


def test_candidates_are_the_reference_stream_minus_the_radical():
    """The split loop's candidates are the unpruned stream with exactly the
    elements phi of rad End(m) removed, read here as tr(phi o b) = 0 for every
    basis element b by composing and tracing."""
    mods = _quadratic_field_modules()
    for alg in randgen.algebra_pool(0x60, 3) + randgen.binomial_pool(0x61, 3):
        for side in ("left", "right"):
            omegas = [syzygy(simple_module(alg, v, side)) for v in alg.quiver.vertices]
            mods += [m for m in omegas if not m.is_zero()]
            mods.append(direct_sum(_test_module_side(alg, side)[-1][1])[0])
    kept, skipped = set(), set()
    for mod in mods:
        e = end_ring(mod)
        if e.dim > 8:
            continue
        want = []
        for kind, phi in _reference_candidates(e, random.Random(0x5A7A)):
            if any(phi.compose(b).trace() for b in e.basis):
                want.append(phi.mats)
                kept.add(kind)
            else:
                skipped.add(kind)
        got = [phi.mats for phi in decompose._candidate_endos(e, random.Random(0x5A7A))]
        assert got == want
    kinds = {"basis", "product", "sum", "random"}
    assert kept == kinds and skipped == kinds


def _top_first_groups(data_dir):
    """(algebra, side, modules) over seeded monomial, binomial and tiled-order
    pools: projectives, the first two syzygies of each simple, a random
    module, a large-top S_v^3 and (+)_v S_v^2, two copies of a projective and
    the regular module; the syzygies of degree 1..10 of the simple of the
    local algebra loc.alg."""
    algebras = randgen.algebra_pool(0x70, 2) + randgen.binomial_pool(0x71, 2)
    algebras += [presentation_from_valued_quiver(valued_quiver_from_exponents(lam))
                 for lam in randgen.tiled_order_pool(0x72, 2)]
    rng = random.Random(0x73)
    for alg in algebras:
        verts = alg.quiver.vertices
        for side in ("left", "right"):
            mods = [projective_module(alg, v, side) for v in verts]
            for v in verts:
                omega = syzygy(simple_module(alg, v, side))
                for _ in range(2):
                    if omega.is_zero():
                        break
                    mods.append(omega)
                    omega = syzygy(omega)
            mods.append(randgen.random_module(rng, alg, side))
            simples = [simple_module(alg, v, side) for v in verts]
            mods.append(direct_sum([simples[0]] * 3)[0])
            mods.append(direct_sum(simples + simples)[0])
            mods.append(direct_sum([mods[0]] * 2)[0])
            mods.append(regular_module(alg, side))
            yield alg, side, mods
    with open(f"{data_dir}/loc.alg") as fh:
        loc = parse_algebra(fh.read())
    omega, omegas = simple_module(loc, loc.quiver.vertices[0], "left"), []
    for _ in range(10):
        omega = syzygy(omega)
        omegas.append(omega)
    yield loc, "left", omegas


def _stream_keys(e, candidates):
    """Candidates as their matrices; random combinations as their
    coefficients, so the stream is compared without building them."""
    e.combo = tuple
    return [phi if isinstance(phi, tuple) else phi.mats for phi in candidates]


def _registry_ids(groups, registry=decompose.IsoClassRegistry):
    out = []
    for alg, side, mods in groups:
        reg = registry(alg, side)
        out.append([sorted(reg.classify(m).items()) for m in mods])
        out.append([c.dims for c in reg.classes])
    return out


def test_top_radical_matches_the_full_module_gram(data_dir, monkeypatch):
    """End/rad read on the top gives the frozen full-module Gram's answers:
    the same End/rad dimension, the same radical basis rows, the same
    candidate stream and, through the whole split loop, the same registry
    ids."""
    groups = list(_top_first_groups(data_dir))
    rings = big_top = semisimple_parts = 0
    for _, _, mods in groups:
        for mod in mods:
            e = end_ring(mod)
            ref = _GramEndRing(mod, e.basis)
            assert e.semisimple_dim() == ref.semisimple_dim()
            assert e.radical_combos().tolist() == ref.radical_combos().tolist()
            got = _stream_keys(e, decompose._candidate_endos(e, random.Random(0x5A7A)))
            want = _stream_keys(ref, _reference_pruned_candidates(
                ref, random.Random(0x5A7A)))
            assert got == want
            rings += 1
            big_top += sum(t * t for t in top_counts(mod)) >= 9
            semisimple_parts += e.semisimple_dim() > 1
    assert rings > 150 and big_top > 20 and semisimple_parts > 40
    got = _registry_ids(groups)
    monkeypatch.setattr(decompose, "end_ring", lambda m: _GramEndRing(m, hom_basis(m, m)))
    monkeypatch.setattr(decompose, "_candidate_endos", _reference_pruned_candidates)
    assert got == _registry_ids(groups)


def _full_module_pairing(outcomes):
    """The registry's isomorphism test before it was read on the tops:
    tr(g o f) over all of m for each f in Hom(m, n) and g in Hom(n, m),
    every outcome recorded."""

    def nonzero(m, n):
        fwd = hom_basis(m, n)
        bwd = hom_basis(n, m) if fwd else []
        cols = [_reference_entries(f, True) for f in fwd]
        out = any(_reference_trace(_reference_entries(g, False), c)
                  for c in cols for g in bwd)
        outcomes.append(out)
        return out

    return nonzero


def test_top_pairing_matches_the_full_module_pairing(data_dir):
    """Registry ids and class dims are those of the frozen pairing-only
    registry running the frozen full-module trace pairing on every class of
    equal dimensions, over monomial, binomial and tiled-order pools and the
    syzygies of loc.alg."""
    groups = list(_top_first_groups(data_dir))
    got = _registry_ids(groups)
    outcomes = []
    pairing = _full_module_pairing(outcomes)
    assert got == _registry_ids(
        groups, lambda alg, side: cases.PairingOnlyRegistry(alg, side, pairing))
    assert outcomes.count(True) > 100 and outcomes.count(False) > 20


def _rebased(rng, m):
    """m with the basis of each vertex space changed by a random invertible
    matrix P_v: arrow a: s -> t acts by P_t m_a P_s^-1."""
    change, inverse = [], []
    for d in m.dims:
        p = QMatrix.zeros(d, d)
        while d and not p.is_invertible():
            p = QMatrix.from_rows([[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)])
        change.append(p)
        inverse.append(cases.inverse(p) if d else p)
    eng = m.engine_presentation()
    idx = eng.quiver.index
    act = {a.name: change[idx[a.target]] * m.act[a.name] * inverse[idx[a.source]]
           for a in eng.quiver.arrows}
    return RepModule(m.algebra, m.side, m.dims, act, validate=False)


def test_top_map_reads_each_image_modulo_the_radical():
    """top_map(f), f: m -> n, against a solve: f(e_c) for each top column c of
    m, written in the basis of n made of the unit vectors at n's top columns
    and the echelon rows of Jn, has column j of f-bar as its coefficients on
    the unit vectors.  n is m rebased, so the rows of Jn have entries at the
    top columns and the reduction modulo Jn is exercised."""
    rng = random.Random(0x80)
    maps = reduced = 0
    for alg in randgen.algebra_pool(0x81, 4) + randgen.binomial_pool(0x82, 3):
        for side in ("left", "right"):
            mods = [projective_module(alg, v, side) for v in alg.quiver.vertices]
            mods.append(randgen.random_module(rng, alg, side))
            for m in mods:
                n = _rebased(rng, m)
                reads = [(v, sources, free, rad.tolist()) for v, (sources, free, rad)
                         in enumerate(zip(top_columns(m), top_columns(n),
                                          cases.dense_rows(radical_rows(n), n.dims)))
                         if sources and free]
                for f in hom_basis(m, n)[:6]:
                    want = {}
                    for v, sources, free, rad in reads:
                        basis = [[int(r == c) for c in range(n.dims[v])] for r in free]
                        a = QMatrix.from_rows(basis + rad).transpose()
                        for j, c in enumerate(sources):
                            x = solve_right(a, f.mats[v].column(c))
                            want.update({(v, i, j): x[i] for i in range(len(free)) if x[i]})
                    assert top_map(f) == want
                    maps += 1
                    reduced += any(row[c] for _, _, free, rad in reads
                                   for row in rad for c in free)
    assert maps > 100 and reduced > 50


def test_top_pairing_traces_the_composite():
    """Over the Kronecker quiver, M of dims (2, 3) has top M_1, and its copy
    M' rebased at vertex 1 by P = [[1, 2], [0, 2]] is isomorphic to it.  The
    pairing on the tops is the trace of P^-1 P = 2, where the entrywise sum
    of P^-1 and P is 0: the forward top enters transposed."""
    from syzkit.algebra import Quiver, build_algebra

    alg = build_algebra(Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")]), [])
    a = QMatrix.from_rows([[1, 0], [0, 1], [0, 0]])
    b = QMatrix.from_rows([[0, 0], [1, 0], [0, 1]])
    p_inv = QMatrix.from_rows([[1, -1], [0, Fraction(1, 2)]])
    m = RepModule(alg, "left", (2, 3), {"a": a, "b": b})
    rebased = RepModule(alg, "left", (2, 3), {"a": a * p_inv, "b": b * p_inv})
    assert sum(top_counts(m)) == 2 and split_once(m) is None
    assert _trace_pairing_nonzero(m, rebased) and _trace_pairing_nonzero(rebased, m)
    reg = decompose.IsoClassRegistry(alg, "left")
    assert reg.register(m) == reg.register(rebased) == 0


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(decompose, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(decompose, name, counted)
    return calls


def test_local_and_colocal_modules_skip_the_end_ring(monkeypatch):
    algebras = randgen.algebra_pool(0x5E, 4) + [cases.five_vertex_monomial_algebra()]
    calls = _count_calls(monkeypatch, "end_ring")
    colocal_only = 0
    for alg in algebras:
        for side in ("left", "right"):
            mods = [simple_module(alg, v, side) for v in alg.quiver.vertices]
            mods += [projective_module(alg, v, side) for v in alg.quiver.vertices]
            injectives = injective_indecomposables(alg, side)
            colocal_only += sum(sum(top_counts(i)) > 1 for i in injectives)
            for m in mods + injectives:
                assert is_indecomposable(m)
                assert krull_schmidt(m) == [m]
                assert is_isomorphic(m, m)
    assert calls == []
    assert colocal_only > 0     # the socle test is reached, not only the top


def test_sum_of_two_projectives_splits_without_sympy(monkeypatch):
    """P_u (+) P_v splits along an idempotent, x^2 - x, whose roots the
    rational root theorem finds: sympy never factors."""
    calls = _count_calls(monkeypatch, "factor_over_rationals")
    splits = 0
    for alg in randgen.algebra_pool(0x5F, 4) + [cases.five_vertex_monomial_algebra()]:
        verts = alg.quiver.vertices
        for side in ("left", "right"):
            for u, v in itertools.combinations(verts, 2):
                p, q = projective_module(alg, u, side), projective_module(alg, v, side)
                total, _, _ = direct_sum([p, q])
                pieces = split_once(total)
                assert sorted(x.dims for x in pieces) == sorted([p.dims, q.dims])
                splits += 1
    assert splits > 20
    assert calls == []


def test_non_idempotent_split_keeps_the_minimal_polynomial_path(monkeypatch):
    # b = [[1, 1], [0, 2]] has minimal polynomial (x - 1)(x - 2) like the
    # diagonal module of test_edge_cases.py, but End's basis element read off
    # the Hom system is not idempotent (x^2 + x); the split is read off its
    # minimal polynomial all the same
    from syzkit.algebra import Quiver, build_algebra
    from syzkit.modules import RepModule
    from syzkit.ratmat import QMatrix

    alg = build_algebra(Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")]), [])
    calls = _count_calls(monkeypatch, "minimal_polynomial")
    m = RepModule(alg, "left", (2, 2), {"a": QMatrix.identity(2),
                                        "b": QMatrix.from_rows([[1, 1], [0, 2]])})
    pieces = krull_schmidt(m)
    assert [p.dims for p in pieces] == [(1, 1), (1, 1)]
    assert len(calls) >= 1
    assert [p.act for p in pieces] == [p.act for p in _reference_krull_schmidt(m)]


def _sympy_coprime_factors(p):
    """(g1, g2) from factor_over_rationals: the power of its first factor and
    the product of the others, or None for a power of one irreducible."""
    factors = factor_over_rationals(p)
    if len(factors) < 2:
        return None
    g1 = [Fraction(1)]
    for _ in range(factors[0][1]):
        g1 = _reference_poly_mul(g1, factors[0][0])
    g2 = [Fraction(1)]
    for fac, mult in factors[1:]:
        for _ in range(mult):
            g2 = _reference_poly_mul(g2, fac)
    return g1, g2


def test_coprime_factors_match_the_sympy_factor_order(monkeypatch):
    """On seeded monic products of rational linear factors x - s/t and
    factors without a rational root (x^2 + 1, x^2 - 2, x^2 - 1/3, x^3 - 2,
    x^4 + 1, ...), each with multiplicity 1..3: the same g1 and g2, in the
    same order, as factor_over_rationals, which is called only for a
    polynomial with no rational root."""
    rootless = [[1, 0, 1], [-2, 0, 1], [1, 1, 1], [Fraction(-1, 3), 0, 1],
                [5, Fraction(3, 2), 1], [-2, 0, 0, 1], [3, -1, 0, 1], [1, 0, 0, 0, 1]]
    rootless = [[Fraction(c) for c in f] for f in rootless]
    calls = _count_calls(monkeypatch, "factor_over_rationals")
    rng = random.Random(0x90)
    kinds = {"rational split": 0, "sympy split": 0, "one factor": 0}
    for _ in range(400):
        p = [Fraction(1)]
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.7:
                fac = [Fraction(-rng.randint(-6, 6), rng.randint(1, 4)), Fraction(1)]
            else:
                fac = rng.choice(rootless)
            for _ in range(rng.randint(1, 3)):
                p = _reference_poly_mul(p, fac)
        if len(p) <= 2:
            continue
        before = len(calls)
        got = decompose._coprime_factors(p)
        assert got == _sympy_coprime_factors(p)
        has_root = any(len(fac) == 2 for fac, _ in factor_over_rationals(p))
        assert len(calls) - before == (not has_root)
        kinds["one factor" if got is None else
              "rational split" if has_root else "sympy split"] += 1
    assert sum(kinds.values()) >= 300
    assert kinds["rational split"] > 150 and kinds["sympy split"] > 5
    assert kinds["one factor"] > 20


def _minimal_polynomial_cases():
    """(kind, endomorphism): seeded random combinations of End bases over
    monomial, binomial and tiled-order algebras, both sides; idempotent,
    nilpotent and scalar endomorphisms; a module whose middle vertex is
    empty; the zero module; and the Kronecker modules with End/rad = Q(i)."""
    from syzkit.algebra import Quiver, build_algebra

    rng = random.Random(0x61)
    algebras = randgen.algebra_pool(0x62, 4) + randgen.binomial_pool(0x63, 3)
    algebras += [presentation_from_valued_quiver(valued_quiver_from_exponents(lam))
                 for lam in randgen.tiled_order_pool(0x64, 3)]
    for alg in algebras:
        for side in ("left", "right"):
            m = randgen.random_module(rng, alg, side, max_dim=12)
            e = end_ring(m)
            for _ in range(4):
                yield "random", e.combo([Fraction(rng.randint(-3, 3)) for _ in e.basis])
            for f in radical_of_end(e)[:2]:
                yield "nilpotent", f
            yield "scalar", identity_morphism(m).scale(Fraction(rng.randint(-3, 3)))
            p = projective_module(alg, rng.choice(alg.quiver.vertices), side)
            total, incl, proj = direct_sum([m, p])
            yield "idempotent", incl[0].compose(proj[0])
            yield "random", end_ring(total).combo(
                [Fraction(rng.randint(-2, 2)) for _ in range(len(hom_basis(total, total)))])

    # vertex 2 is empty and the two free 2 x 2 blocks around it are unrelated
    alg = build_algebra(Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "3", "2")]), [])
    gap = RepModule(alg, "left", (2, 0, 2), {"a": QMatrix.zeros(0, 2),
                                             "b": QMatrix.zeros(0, 2)})
    yield "empty vertex", ModMorphism(gap, gap, [
        QMatrix.from_rows([[0, 1], [0, 0]]), QMatrix.zeros(0, 0),
        QMatrix.from_rows([[1, 0], [0, 2]])])
    e = end_ring(gap)
    for _ in range(4):
        yield "empty vertex", e.combo([Fraction(rng.randint(-3, 3)) for _ in e.basis])
    yield "zero module", identity_morphism(zero_module(alg, "left"))

    for mod in _quadratic_field_modules():
        e = end_ring(mod)
        for f in e.basis:
            yield "Q(i)", f
        for _ in range(4):
            yield "Q(i)", e.combo([Fraction(rng.randint(-3, 3)) for _ in e.basis])


def test_minimal_polynomial_matches_the_frozen_krylov_routine():
    """The elimination over tagged powers gives the Krylov routine's monic
    polynomial, which annihilates phi."""
    kinds, degrees, x2_plus_1 = {}, set(), 0
    for kind, phi in _minimal_polynomial_cases():
        p = minimal_polynomial(phi)
        assert p == _krylov_minimal_polynomial(phi)
        assert p[-1] == 1
        assert _reference_poly_at(p, phi).is_zero()
        if kind == "zero module":
            assert p == [1]
        kinds[kind] = kinds.get(kind, 0) + 1
        degrees.add(len(p) - 1)
        if kind == "Q(i)" and p == [1, 0, 1]:
            x2_plus_1 += factor_over_rationals(p) == [(p, 1)]
    assert sum(kinds.values()) > 150
    assert set(kinds) == {"random", "nilpotent", "scalar", "idempotent",
                          "empty vertex", "zero module", "Q(i)"}
    assert {0, 1, 2, 3, 4} <= degrees
    assert x2_plus_1 > 0

