"""Acceptance suite: every criterion runs at its stated tolerance (exact
arithmetic everywhere) and prints one pass/fail line.  Run with

    pytest tests/test_acceptance.py -v -s
"""

import itertools
import random

import pytest

from syzkit.decompose import (is_indecomposable, is_isomorphic, krull_schmidt,
                              registry_for)
from syzkit.homology import (idim_both_sides, pdim, resolve, syzygy,
                             syzygy_with_cover, tor1_dim)
from syzkit.modules import (direct_sum, hom_basis, projective_module,
                            radical_rows, simple_module)
from syzkit.orders import gldim_certificate, order_report
from syzkit.ratmat import QMatrix, rowspace_contains
from syzkit.repetition import (_apply_matrix, build_catalog,
                               build_transition_system, findim_bounds,
                               pdim_from_transition, repetition_index,
                               syzygy_type, tor_count_vector)

import cases
import randgen


def _report(criterion, summary):
    print(f"ACCEPTANCE {criterion}: PASS - {summary}")


# -- criterion 1 ---------------------------------------------------------------


def test_criterion_1_three_vertex_loop(ex_three_loop):
    alg = ex_three_loop
    s1 = simple_module(alg, "1", "left")
    s3 = simple_module(alg, "3", "left")
    cat = build_catalog(s1, 10)
    rep = repetition_index(cat)
    assert rep.status == "finite" and rep.value == 2
    o2 = syzygy(syzygy(s1))
    assert is_isomorphic(o2, s3)
    o3 = syzygy(o2)
    o5 = syzygy(syzygy(o3))
    assert is_isomorphic(o3, o5)
    r = pdim(s1, 10)
    assert r.status == "infinite"
    chain = r.certificate["chain_class_ids"]
    p, q = r.certificate["repeat_positions"]
    assert p < q and chain[p] == chain[q]
    _report(1, "rep(S_1) = 2, O^2(S_1) = S_3, O^3 = O^5, pdim(S_1) infinite "
               "with cycle certificate")


# -- criterion 2 ---------------------------------------------------------------


def test_criterion_2_injective_resolutions(ex_order6):
    _, alg = ex_order6
    reg = registry_for(alg, "right")
    injectives = {v: projective_module(alg, v, "left").dual()
                  for v in alg.quiver.vertices}
    e1, e2, e5 = injectives["1"], injectives["2"], injectives["5"]
    o1e1 = syzygy(e1)
    o2e1 = syzygy(o1e1)
    o3e1 = syzygy(o2e1)
    o4e1 = syzygy(o3e1)
    assert is_isomorphic(o4e1, o2e1)
    id_o1, id_o3 = reg.register(o1e1), reg.register(o3e1)
    o2e2 = syzygy(syzygy(e2))
    assert reg.classify(o2e2) == {id_o1: 1, id_o3: 1}
    o2e5 = syzygy(syzygy(e5))
    assert is_isomorphic(o2e5, o1e1)
    total, _, _ = direct_sum([injectives[v] for v in alg.quiver.vertices])
    cat = build_catalog(total, 10)
    rep = repetition_index(cat)
    assert rep.status == "finite" and rep.value == 3
    fin = findim_bounds(alg, 8)
    assert fin.left.upper == 3
    assert fin.left.lower == 3 and fin.left.exact
    assert fin.left.lower_witness == "pdim(injective-envelope[3]) = 3"
    assert fin.right.upper == 0 and fin.right.exact
    _report(2, "O^4(E_1) = O^2(E_1), O^2(E_2) = O^1(E_1) + O^3(E_1), "
               "O^2(E_5) = O^1(E_1), rep(E) = 3, l Fin dim = l fin dim = 3, "
               "r Fin dim = 0")


# -- criterion 3 ---------------------------------------------------------------


EXPECTED_TRANSITION = [
    [0, 1, 0, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, 0],
    [0, 0, 0, 1, 0, 0, 0],
    [0, 0, 0, 0, 2, 1, 1],
    [0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 1, 1],
    [0, 0, 0, 0, 1, 1, 1],
]


def test_criterion_3_transition_system(ex_five, data_dir):
    import os

    from syzkit.formats import parse_module

    alg = ex_five
    simples = [simple_module(alg, v, "right") for v in alg.quiver.vertices]
    total, _, _ = direct_sum(simples)
    cat = build_catalog(total, 16)
    assert cat.closed
    assert syzygy_type(cat).value == 7
    ts = build_transition_system(cat)
    # match the expected matrix under some simultaneous class permutation
    perm_found = None
    for perm in itertools.permutations(range(7)):
        ok = all(int(ts.matrix.data[perm[i]][perm[j]]) == EXPECTED_TRANSITION[i][j]
                 for i in range(7) for j in range(7))
        if ok:
            perm_found = perm
            break
    assert perm_found is not None
    with open(os.path.join(data_dir, "ex33_m.mod")) as fh:
        m = parse_module(fh.read(), alg)
    tau = tor_count_vector(ts, m)  # cross-checked against direct Tor inside
    assert [tau[perm_found[i]] for i in range(7)] == [0, 0, 1, 2, 0, 1, 1]
    direct_tau = [tor1_dim(cat.registry().by_id(ts.class_ids[perm_found[i]]).module, m)
                  for i in range(7)]
    assert direct_tau == [0, 0, 1, 2, 0, 1, 1]
    verdict = pdim_from_transition(ts, m, root_is_semisimple_quotient=True)
    assert verdict.status == "infinite"
    rep = repetition_index(cat)
    assert rep.status == "finite" and rep.value == 4
    with open(os.path.join(data_dir, "ex33_w.mod")) as fh:
        w = parse_module(fh.read(), alg)
    fin = findim_bounds(alg, 10, extra_left_probes=[w])
    assert fin.left.upper == 4
    assert pdim(w, 10).value == 4
    assert fin.left.lower == 4 and fin.left.exact
    _report(3, "catalog closes with s = 7, transition matrix matches the "
               "expected one up to permutation, tau = (0,0,1,2,0,1,1) both "
               "ways, pdim(M) infinite, rep = 4, l Fin dim = 4 attained")


# -- criterion 4 ---------------------------------------------------------------


def test_criterion_4_order_pipeline(ex_order6):
    vq, alg = ex_order6
    got = sorted((a.source, a.target, vq.values[a.name]) for a in vq.quiver.arrows)
    expected = sorted([
        ("1", "2", 1), ("1", "3", 1), ("1", "6", 2),
        ("2", "1", 0), ("2", "4", 1), ("2", "5", 1),
        ("3", "1", 0), ("3", "5", 1),
        ("4", "3", 0), ("4", "6", 1),
        ("5", "2", 0), ("5", "3", 0), ("5", "6", 1),
        ("6", "4", 0), ("6", "5", 0)])
    assert got == expected
    expected_layers = {
        "1": [["1"], ["2", "3"], ["4", "5"], ["6"]],
        "2": [["2"], ["1", "5"], ["3", "6"], ["4"]],
        "3": [["3"], ["1", "4", "5"], ["2", "6"]],
        "4": [["4"], ["2", "6"], ["1", "5"], ["3"]],
        "5": [["5"], ["2", "3", "6"], ["1", "4"]],
        "6": [["6"], ["1", "4", "5"], ["2", "3"]],
    }
    for v in alg.quiver.vertices:
        p = projective_module(alg, v, "right")
        assert p.total_dim == 6
        assert cases.layer_labels(p) == expected_layers[v]
    report = order_report(vq, 8)
    assert report["order"]["left_fin_dim"] == 4
    assert report["order"]["right_fin_dim"] == 1
    _report(4, "valued quiver matches the expected arrow set with values, "
               "right projectives match the expected layered diagrams, "
               "l fin dim O = 4 and r fin dim O = 1")


# -- criterion 5 ---------------------------------------------------------------


def test_criterion_5_gorenstein_order(ex_gorenstein):
    vq, alg = ex_gorenstein
    e6 = projective_module(alg, "6", "right").dual()
    omega = syzygy(e6)
    assert is_isomorphic(omega, projective_module(alg, "1", "left"))
    r = pdim(e6, 8)
    assert (r.status, r.value) == ("finite", 1)
    left, right, _ = idim_both_sides(alg, 8)
    assert (left.status, left.value) == ("finite", 1)
    assert (right.status, right.value) == ("finite", 1)
    fin = findim_bounds(alg, 8)
    assert fin.left.exact and fin.left.upper == 1
    assert fin.right.exact and fin.right.upper == 1
    report = order_report(vq, 8)
    assert report["order"]["left_fin_dim"] == 2
    assert report["order"]["right_fin_dim"] == 2
    s6 = simple_module(alg, "6", "left")
    o1 = syzygy(s6)
    o2 = syzygy(o1)
    o3 = syzygy(o2)
    assert o1.dims == (1, 1, 1, 1, 1, 0)
    assert o2.dims == (1, 1, 1, 1, 1, 2)
    assert o3.dims == (2, 2, 2, 2, 2, 1)
    assert is_indecomposable(o1) and is_indecomposable(o2) and is_indecomposable(o3)
    assert not is_isomorphic(o1, o3, check=False)
    cert = gldim_certificate(vq, [s6], 8)
    assert cert["status"] == "infinite-certified"
    assert cert["probes"][0]["violates_all_admissible_m"]
    _report(5, "pdim(E_6) = 1 with O^1(E_6) = P_1, i dim = 1 both sides, "
               "fin dims of the algebra = 1 and of the order = 2, probe S_6 "
               "certifies infinite global dimension via O^1 != O^3")


# -- criterion 6 ---------------------------------------------------------------


def test_criterion_6_local_two_loop(ex_local):
    alg = ex_local
    cogen = projective_module(alg, "1", "left").dual()  # = E(Lambda/J) as right module
    cat = build_catalog(cogen, 6)
    rep = repetition_index(cat)
    assert rep.status == "finite" and rep.value == 0
    fin = findim_bounds(alg, 6)
    assert fin.left.upper == 0 and fin.right.upper == 0
    counts = []
    s = simple_module(alg, "1", "right")
    for budget in (4, 8, 12):
        c = build_catalog(s, budget)
        out = syzygy_type(c)
        assert out.status == "open"
        counts.append(out.value)
    assert counts[0] < counts[1] < counts[2]
    _report(6, "rep(E(Lambda/J)) = 0, fin dim bound 0, syzygy type of "
               f"Lambda/J open with growing class counts {counts}")


# -- criterion 7: property suites ------------------------------------------------


POOL_SIZE = 24
INSTANCES = 104


@pytest.fixture(scope="module")
def algebra_pool():
    return randgen.algebra_pool(0xC0FFEE, POOL_SIZE)


def _instances(pool, seed, side="left"):
    rng = random.Random(seed)
    for k in range(INSTANCES):
        alg = pool[k % len(pool)]
        yield rng, alg, randgen.random_module(rng, alg, side)


def test_criterion_7a_cover_minimality(algebra_pool):
    checked = 0
    for rng, alg, m in _instances(algebra_pool, 101):
        syz, incl, cov = syzygy_with_cover(m)
        rad = cases.dense_rows(radical_rows(cov.module), cov.module.dims)
        for v in range(len(m.dims)):
            kernel_rows_v = QMatrix.from_rows(
                [incl.mats[v].column(j) for j in range(syz.dims[v])],
                ncols=cov.module.dims[v]) if syz.dims[v] else None
            if kernel_rows_v is not None:
                assert rowspace_contains(kernel_rows_v, rad[v])
        checked += 1
    assert checked >= 100
    _report("7a", f"cover minimality (kernel inside J*cover) on {checked} instances")


def test_criterion_7b_dimension_bookkeeping(algebra_pool):
    checked = 0
    for rng, alg, m in _instances(algebra_pool, 202):
        trace = resolve(m, 3, classify=False)
        prev = m.total_dim
        eng = m.engine_presentation()
        for rec in trace.records:
            cover_dim = sum(
                count * len(eng.basis_by_source[eng.quiver.vertices[v]])
                for v, count in enumerate(rec.cover_counts))
            assert rec.syzygy.total_dim == cover_dim - prev
            prev = rec.syzygy.total_dim
        checked += 1
    assert checked >= 100
    _report("7b", f"syzygy dimension bookkeeping on {checked} instances")


def test_criterion_7c_schanuel_variant(algebra_pool):
    from syzkit.modules import ModMorphism, kernel_module

    checked = 0
    for rng, alg, m in _instances(algebra_pool, 303):
        omega, incl, cov = syzygy_with_cover(m)
        extra = projective_module(alg, rng.choice(list(alg.quiver.vertices)), "left")
        padded, incls, projs = direct_sum([cov.module, extra])
        base = [a * b for a, b in zip(cov.surjection.mats, projs[0].mats)]
        homs = hom_basis(extra, m)
        if homs:
            f = homs[rng.randrange(len(homs))]
            base = [x + (a * b) for x, a, b in zip(base, f.mats, projs[1].mats)]
        surj = ModMorphism(padded, m, base, validate=False)
        kernel, _ = kernel_module(surj)
        reg = registry_for(alg, "left")
        got = reg.classify(kernel)
        want = dict(reg.classify(omega))
        eid = reg.register(extra)
        want[eid] = want.get(eid, 0) + 1
        assert got == want
        checked += 1
    assert checked >= 100
    _report("7c", f"padded-cover kernels match first syzygy plus the padding "
                  f"on {checked} instances")


def test_criterion_7d_tau_shift_and_tor_agreement(algebra_pool):
    checked = 0
    rng = random.Random(404)
    k = 0
    while checked < INSTANCES:
        alg = algebra_pool[k % len(algebra_pool)]
        k += 1
        simples = [simple_module(alg, v, "right") for v in alg.quiver.vertices]
        total, _, _ = direct_sum(simples)
        cat = build_catalog(total, 12)
        if not cat.closed:
            continue
        ts = build_transition_system(cat)
        m = randgen.random_module(rng, alg, "left")
        tau = tor_count_vector(ts, m, cross_check=True)  # formula vs direct Tor
        omega = syzygy(m)
        if omega.is_zero():
            tau_next = [0] * ts.size
        else:
            tau_next = tor_count_vector(ts, omega, cross_check=False)
        assert tau_next == [int(x) for x in _apply_matrix(ts, tau)]
        checked += 1
    _report("7d", f"tau(Omega M) = matrix * tau(M) with dual-path Tor "
                  f"agreement on {checked} instances")


def test_criterion_7e_trace_test_vs_exhaustive_witness(algebra_pool):
    from syzkit.decompose import _trace_pairing_nonzero

    checked = 0
    rng = random.Random(505)
    pieces_by_alg = []
    for alg in algebra_pool:
        pieces = []
        for v in alg.quiver.vertices:
            s = simple_module(alg, v, "left")
            om = syzygy(s)
            if not om.is_zero():
                pieces.extend(krull_schmidt(om))
            pieces.append(s)
        pieces_by_alg.append(pieces)
    while checked < INSTANCES:
        idx = rng.randrange(len(algebra_pool))
        pieces = pieces_by_alg[idx]
        m = rng.choice(pieces)
        n = rng.choice(pieces)
        fwd = hom_basis(m, n)
        if len(fwd) > 2:
            continue
        trace_iso = (m.dims == n.dims) and _trace_pairing_nonzero(m, n)
        witness = False
        for coeffs in itertools.product(range(-2, 3), repeat=len(fwd)):
            if not any(coeffs):
                continue
            cand = None
            for c, f in zip(coeffs, fwd):
                if c:
                    term = f.scale(c)
                    cand = term if cand is None else cand.add(term)
            if cand is not None and cand.is_isomorphism():
                witness = True
                break
        assert trace_iso == witness
        checked += 1
    _report("7e", f"trace-pairing test agrees with exhaustive witness search "
                  f"on {checked} pairs with Hom dimension <= 2")


def test_criterion_7f_monomial_syzygy_closure(algebra_pool):
    checked = 0
    rng = random.Random(606)
    k = 0
    while checked < INSTANCES:
        alg = algebra_pool[k % len(algebra_pool)]
        k += 1
        v = rng.choice(list(alg.quiver.vertices))
        s = simple_module(alg, v, "left")
        om2 = syzygy(syzygy(s))
        if om2.is_zero():
            checked += 1
            continue
        cat = build_catalog(om2, 16)
        assert cat.closed
        assert len(cat.classes) <= alg.dim  # nonzero path residues
        checked += 1
    _report("7f", f"second-syzygy catalogs of simples close over monomial "
                  f"algebras with class count below the path-residue count "
                  f"({checked} instances)")


# -- criterion 8 ---------------------------------------------------------------


def test_criterion_8_truncated_polynomial_family():
    computed_reps = {}
    for n in range(2, 6):
        alg = cases.nakayama_local(n)
        s = simple_module(alg, "1", "left")
        chain = [s]
        for _ in range(5):
            chain.append(syzygy(chain[-1]))
        # exact alternation from degree 1
        for k in range(1, 4):
            assert is_isomorphic(chain[k], chain[k + 2], check=False)
        if n >= 3:
            assert chain[1].total_dim == n - 1 and chain[2].total_dim == 1
            assert not is_isomorphic(chain[1], chain[2], check=False)
        cat = build_catalog(s, 8)
        rep = repetition_index(cat)
        assert rep.status == "finite"
        computed_reps[n] = rep.value
    # the simple recurs as its own even syzygies, so the resolution is
    # already repetitive at degree 0 for every n
    assert computed_reps == {2: 0, 3: 0, 4: 0, 5: 0}
    _report(8, "period-2 alternation certified for n = 2..5 "
               f"(computed repetition indices {computed_reps}; the stated "
               "value 1 for n >= 3 is exercised as an expected failure)")


@pytest.mark.xfail(strict=True,
                   reason="stated value rep(S) = 1 for n >= 3 contradicts the "
                          "repetition-index definition: S recurs as every even "
                          "syzygy of itself, giving rep(S) = 0 (see the "
                          "decisions ledger)")
def test_criterion_8_rep_value_as_stated():
    for n in (3, 4, 5):
        alg = cases.nakayama_local(n)
        s = simple_module(alg, "1", "left")
        cat = build_catalog(s, 8)
        assert repetition_index(cat).value == 1
