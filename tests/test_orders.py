import os

import pytest

from syzkit.algebra import Quiver, Relation, build_algebra
from syzkit.decompose import is_isomorphic, registry_for
from syzkit.errors import (BadExponentMatrix, IllFormedRelation, LoopsPresent,
                           NonpositiveCycle, NotNilpotent, PathBudgetExceeded)
from syzkit.formats import emit_algebra, parse_algebra, parse_order
from syzkit.homology import idim_both_sides, pdim, syzygy
from syzkit.modules import projective_module, simple_module
from syzkit.orders import (ExponentMatrix, ValuedQuiver, _walk_paths,
                           gldim_certificate, min_path_values, order_report,
                           presentation_from_valued_quiver,
                           valued_quiver_from_exponents)

import cases
import randgen


EXPECTED_ARROWS_6 = sorted([
    ("1", "2", 1), ("1", "3", 1), ("1", "6", 2),
    ("2", "1", 0), ("2", "4", 1), ("2", "5", 1),
    ("3", "1", 0), ("3", "5", 1),
    ("4", "3", 0), ("4", "6", 1),
    ("5", "2", 0), ("5", "3", 0), ("5", "6", 1),
    ("6", "4", 0), ("6", "5", 0)])


def test_exponent_matrix_validation():
    with pytest.raises(BadExponentMatrix):
        ExponentMatrix.from_rows([[0, 0], [0, 1]])  # bad diagonal
    with pytest.raises(BadExponentMatrix):
        ExponentMatrix.from_rows([[0, 0], [0, 0]])  # both tiles units
    with pytest.raises(BadExponentMatrix):
        ExponentMatrix.from_rows([[0, 0, 5], [1, 0, 9], [1, 3, 0]])  # closure


def test_valued_quiver_from_reference_exponents():
    vq = cases.six_vertex_order_quiver()
    got = sorted((a.source, a.target, vq.values[a.name]) for a in vq.quiver.arrows)
    assert got == EXPECTED_ARROWS_6


def test_single_tile_order_has_empty_quiver():
    vq = valued_quiver_from_exponents(ExponentMatrix.from_rows([[0]]))
    assert vq.quiver.arrows == ()
    pres = presentation_from_valued_quiver(vq)
    assert pres.dim == 1


def test_two_by_two_triangular():
    vq = valued_quiver_from_exponents(ExponentMatrix.from_rows([[0, 0], [1, 0]]))
    got = sorted((a.source, a.target, vq.values[a.name]) for a in vq.quiver.arrows)
    # mu = [[1,0],[1,1]]: arrow 1->2 (mu_21=1 < min(2, 1+1)=2, value max(1-0, 1-0)=1)
    # and arrow 2->1 (mu_12=0 < min(1+0, 0+1)=1, value max(1-1, 0-0)=0)
    assert got == [("1", "2", 1), ("2", "1", 0)]
    pres = presentation_from_valued_quiver(vq)
    assert pres.dim == 4


def test_loops_rejected():
    q = Quiver(["1"], [("l", "1", "1")])
    with pytest.raises(LoopsPresent):
        ValuedQuiver(q, {"l": 1})


def test_zero_cycle_rejected():
    q = Quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
    with pytest.raises(NonpositiveCycle):
        ValuedQuiver(q, {"a": 0, "b": 0})


def test_min_path_values(ex_order6):
    vq, _ = ex_order6
    m = min_path_values(vq)
    idx = vq.quiver.index
    assert m[idx["1"]][idx["6"]] == 2
    assert m[idx["6"]][idx["1"]] == 0
    assert m[idx["2"]][idx["3"]] == 1


def test_presentation_simple_multiplicities(ex_order6):
    _, pres = ex_order6
    assert pres.dim == 36
    for u in pres.quiver.vertices:
        for v in pres.quiver.vertices:
            assert pres.dim_pair(u, v) == 1


def test_right_projectives_match_layered_fixtures(ex_order6):
    _, pres = ex_order6
    expected = {
        "1": [["1"], ["2", "3"], ["4", "5"], ["6"]],
        "2": [["2"], ["1", "5"], ["3", "6"], ["4"]],
        "3": [["3"], ["1", "4", "5"], ["2", "6"]],
        "4": [["4"], ["2", "6"], ["1", "5"], ["3"]],
        "5": [["5"], ["2", "3", "6"], ["1", "4"]],
        "6": [["6"], ["1", "4", "5"], ["2", "3"]],
    }
    for v in pres.quiver.vertices:
        p = projective_module(pres, v, "right")
        assert cases.layer_labels(p) == expected[v]


def test_hereditary_two_vertex_from_valued_quiver():
    q = Quiver(["1", "2"], [("a", "1", "2")])
    vq = ValuedQuiver(q, {"a": 0})
    pres = presentation_from_valued_quiver(vq)
    assert pres.dim == 3
    assert not pres.relations


def test_round_trip_kills_overvalued_paths(ex_order6):
    vq, pres = ex_order6
    m = min_path_values(vq)
    idx = vq.quiver.index
    # the length-2 path 1 -> 2 -> 5 has value 2 > m(1,5)... no: m(1,5)=2; take
    # 2 -> 1 -> 2: value 1 > m(2,2) = 0, so its class must vanish
    arrows_21 = [a.name for a in vq.quiver.arrows
                 if (a.source, a.target) == ("2", "1")]
    arrows_12 = [a.name for a in vq.quiver.arrows
                 if (a.source, a.target) == ("1", "2")]
    assert pres.class_of("2", (arrows_21[0], arrows_12[0])) is None


def test_parallel_minimal_paths_identified(ex_order6):
    # the two cheapest routes from 1 to 5 pass through 2 and through 3; their
    # classes agree up to a scalar (and here the scalar is 1)
    vq, pres = ex_order6
    names = {(a.source, a.target): a.name for a in vq.quiver.arrows}
    p125 = (names[("1", "2")], names[("2", "5")])
    p135 = (names[("1", "3")], names[("3", "5")])
    c1 = pres.class_of("1", p125)
    c2 = pres.class_of("1", p135)
    assert c1 is not None and c2 is not None
    assert c1[1] == c2[1]


def test_injective_syzygy_layers_and_contingencies(ex_order6):
    from syzkit.decompose import registry_for
    from syzkit.homology import syzygy
    from syzkit.modules import direct_sum
    from syzkit.repetition import build_catalog, contingency

    _, pres = ex_order6
    injectives = {v: projective_module(pres, v, "left").dual()
                  for v in pres.quiver.vertices}
    o1e5 = syzygy(injectives["5"])
    assert cases.layer_labels(o1e5) == [["2", "4"], ["1", "5"], ["3", "6"]]
    total, _, _ = direct_sum([injectives[v] for v in pres.quiver.vertices])
    cat = build_catalog(total, 10)
    assert cat.closed
    reg = registry_for(pres, "right")
    o3e1 = syzygy(syzygy(syzygy(injectives["1"])))
    assert contingency(cat, reg.register(o3e1)).status == "infinite"
    o1e2 = syzygy(injectives["2"])
    out = contingency(cat, reg.register(o1e2))
    assert out.status == "finite" and out.value == 1


def test_gorenstein_left_projectives(ex_gorenstein):
    _, pres = ex_gorenstein
    expected = {
        "1": [["1"], ["2", "3", "6"], ["4", "5"]],
        "2": [["2"], ["1", "4"], ["3", "6"], ["5"]],
        "3": [["3"], ["1", "5"], ["2", "6"], ["4"]],
        "4": [["4"], ["3", "6"], ["1", "5"], ["2"]],
        "5": [["5"], ["2", "6"], ["1", "4"], ["3"]],
        "6": [["6"], ["4", "5"], ["2", "3"], ["1"]],
    }
    for v in pres.quiver.vertices:
        p = projective_module(pres, v, "left")
        assert cases.layer_labels(p) == expected[v]


def test_gorenstein_injective_envelope(ex_gorenstein):
    _, pres = ex_gorenstein
    e6 = projective_module(pres, "6", "right").dual()
    assert e6.total_dim == 6
    assert cases.layer_labels(e6) == [["2", "3"], ["1", "4", "5"], ["6"]]
    omega = syzygy(e6)
    assert is_isomorphic(omega, projective_module(pres, "1", "left"))
    assert pdim(e6, 6).value == 1
    # the other five indecomposable injectives are projective
    projective_count = 0
    reg = registry_for(pres, "left")
    for v in pres.quiver.vertices:
        e = projective_module(pres, v, "right").dual()
        cid = reg.register(e)
        if reg.by_id(cid).is_projective():
            projective_count += 1
    assert projective_count == 5


def test_gorenstein_idim(ex_gorenstein):
    _, pres = ex_gorenstein
    left, right, _ = idim_both_sides(pres, 6)
    assert (left.status, left.value) == ("finite", 1)
    assert (right.status, right.value) == ("finite", 1)


def test_order_report_six(ex_order6):
    vq, _ = ex_order6
    report = order_report(vq, 8)
    assert report["order"]["left_fin_dim"] == 4
    assert report["order"]["right_fin_dim"] == 1
    assert "gorenstein" not in report


def test_order_report_gorenstein(ex_gorenstein):
    vq, _ = ex_gorenstein
    report = order_report(vq, 8)
    assert report["order"]["left_fin_dim"] == 2
    assert report["order"]["right_fin_dim"] == 2
    assert report["gorenstein"]["common_value"] == 1
    assert report["gorenstein"]["order_fin_dims"] == 2


def test_order_report_single_tile():
    vq = valued_quiver_from_exponents(ExponentMatrix.from_rows([[0]]))
    report = order_report(vq, 4)
    assert report["order"]["left_fin_dim"] == 1
    assert report["order"]["right_fin_dim"] == 1


def test_order_report_asserted_gldim(ex_order6):
    vq, _ = ex_order6
    report = order_report(vq, 8, asserted_gldim=5)
    assert report["asserted_gldim"]["global_repetition_index"] == 4


def test_gldim_certificate_gorenstein(ex_gorenstein):
    vq, pres = ex_gorenstein
    s6 = simple_module(pres, "6", "left")
    cert = gldim_certificate(vq, [s6], 8)
    assert cert["status"] == "infinite-certified"
    assert cert["l_fin_dim_order_bound"] == 2
    probe = cert["probes"][0]
    assert probe["violates_all_admissible_m"]
    assert [c["repetition_holds"] for c in probe["checks"]] == [False, False]


def test_gldim_certificate_consistent_probe(ex_gorenstein):
    vq, pres = ex_gorenstein
    e6 = projective_module(pres, "6", "right").dual()  # pdim 1 over the algebra
    cert = gldim_certificate(vq, [e6], 8)
    assert cert["status"] == "finite-consistent"
    assert not cert["probes"][0]["violates_all_admissible_m"]


# -- the direct builder against the generic ideal closure ------------------------


def _relation_terms(pres):
    return [(r.kind, r.path, r.coeff, r.other) for r in pres.relations]


def _assert_same_algebra(direct, ref):
    assert direct.nilpotency == ref.nilpotency
    assert direct.basis == ref.basis
    assert direct._class == ref._class
    assert _relation_terms(direct) == _relation_terms(ref)


def _order_quivers(data_dir):
    vqs = [valued_quiver_from_exponents(e) for e in randgen.tiled_order_pool(0x7E1, 100)]
    for name in ("ex46.ord", "ex47.ord"):
        with open(os.path.join(data_dir, name)) as fh:
            parsed = parse_order(fh.read())
        if isinstance(parsed, ExponentMatrix):
            parsed = valued_quiver_from_exponents(parsed)
        vqs.append(parsed)
    return vqs + [cases.six_vertex_order_quiver(), cases.gorenstein_order_quiver()]


def test_direct_presentation_matches_ingest_round_trip(data_dir):
    """The presentation read off the path values equals the generic closure
    of the relations `order ingest` writes, and so do the opposites."""
    vqs = _order_quivers(data_dir)
    assert len(vqs) == 104
    for vq in vqs:
        pres = presentation_from_valued_quiver(vq)
        ref = parse_algebra(emit_algebra(pres.quiver, pres.relations))
        _assert_same_algebra(pres, ref)
        _assert_same_algebra(pres.opposite(), ref.opposite())
        assert pres.length_cap == pres.nilpotency + 1


def _valued(arrows):
    verts = sorted({v for _, s, t, _ in arrows for v in (s, t)})
    return ValuedQuiver(Quiver(verts, [(n, s, t) for n, s, t, _ in arrows]),
                        {n: v for n, _, _, v in arrows})


def test_arrow_above_its_minimal_value_is_rejected():
    vq = _valued([("a", "1", "2", 2), ("b", "1", "3", 0), ("c", "3", "2", 1)])
    with pytest.raises(IllFormedRelation, match="'a' does not realize"):
        presentation_from_valued_quiver(vq)


def test_arrow_parallel_to_equal_value_path_is_rejected():
    vq = _valued([("a", "1", "2", 1), ("b", "1", "3", 1), ("c", "3", "2", 0)])
    with pytest.raises(IllFormedRelation, match="'a' parallel to an equal-value longer path"):
        presentation_from_valued_quiver(vq)


def test_parallel_equal_value_arrows_are_rejected():
    vq = _valued([("a", "1", "2", 1), ("b", "1", "2", 1)])
    with pytest.raises(IllFormedRelation) as err:
        presentation_from_valued_quiver(vq)
    assert "'a' and 'b' are parallel" in str(err.value)
    # the generic engine refuses the identification too
    with pytest.raises(IllFormedRelation):
        build_algebra(vq.quiver, [Relation.equal(("b",), 1, ("a",))])


def test_explicit_length_cap_below_nilpotency(ex_order6):
    vq, pres = ex_order6
    N = pres.nilpotency
    fresh = cases.six_vertex_order_quiver()
    with pytest.raises(NotNilpotent):
        presentation_from_valued_quiver(fresh, length_cap=N - 1)
    with pytest.raises(NotNilpotent):
        build_algebra(vq.quiver, pres.relations, length_cap=N - 1)
    capped = presentation_from_valued_quiver(fresh, length_cap=N)
    assert (capped.dim, capped.nilpotency, capped.length_cap) == (pres.dim, N, N)
    assert getattr(fresh, "_presentation", None) is None


def test_path_walk_budget(ex_order6):
    vq, _ = ex_order6
    mvals = min_path_values(vq)
    *_, N = _walk_paths(vq, mvals, 10_000)
    assert N == 4
    with pytest.raises(PathBudgetExceeded):
        _walk_paths(vq, mvals, 50)
