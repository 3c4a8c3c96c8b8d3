import contextlib
import io
import os

import pytest

from syzkit import cli, repetition
from syzkit.decompose import registry_for
from syzkit.errors import CatalogOpen, DimensionMismatch, SyzkitError
from syzkit.homology import pdim, resolve, syzygy
from syzkit.modules import direct_sum, projective_module, simple_module, zero_module
from syzkit.ratmat import QMatrix, rowspace_contains
from syzkit.repetition import (build_catalog, build_transition_system,
                               contingency, findim_bounds, pdim_from_transition,
                               pdim_via_contingency, repetition_index,
                               stabilization_bound, syzygy_type,
                               tor_count_vector)

import cases
import randgen


@pytest.fixture(scope="module")
def five_catalog(ex_five):
    simples = [simple_module(ex_five, v, "right") for v in ex_five.quiver.vertices]
    total, _, _ = direct_sum(simples)
    return build_catalog(total, 16)


def _reference_class_order(ex_five, catalog):
    """Catalog class ids in the order S_1..S_5, then the two 2-dim classes
    with the first arrow acting nonzero first."""
    reg = registry_for(ex_five, "right")
    order = []
    for v in ex_five.quiver.vertices:
        s = simple_module(ex_five, v, "right")
        order.append(reg.register(s))
    two_dim = [c for c in catalog.classes
               if reg.by_id(c).dims == (0, 0, 0, 1, 1)]
    a6 = [c for c in two_dim if not reg.by_id(c).module.act["alpha"].is_zero()]
    a7 = [c for c in two_dim if reg.by_id(c).module.act["alpha"].is_zero()]
    assert len(a6) == 1 and len(a7) == 1
    return order + a6 + a7


def test_catalog_closes_with_seven_classes(five_catalog):
    assert five_catalog.closed
    assert len(five_catalog.classes) == 7
    assert syzygy_type(five_catalog).value == 7


def test_catalog_of_projective_root(ex_five):
    p = projective_module(ex_five, "4", "right")
    cat = build_catalog(p, 4)
    assert cat.closed
    assert repetition_index(cat).value == 0
    reg = registry_for(ex_five, "right")
    assert all(reg.by_id(c).is_projective() for c in cat.classes)


def test_repetition_index_value(five_catalog):
    out = repetition_index(five_catalog)
    assert out.status == "finite" and out.value == 4
    for cert in out.certificate["per_class"].values():
        chain = cert["chain_class_ids"]
        p, q = cert["repeat_positions"]
        assert chain[p] == chain[q] and p < q


def test_contingencies(ex_five, five_catalog):
    reg = registry_for(ex_five, "right")
    order = _reference_class_order(ex_five, five_catalog)
    sigma = [contingency(five_catalog, c) for c in order]
    assert [s.value for s in sigma[:4]] == [0, 1, 2, 3]
    assert sigma[4].status == "infinite"
    assert sigma[5].status == "infinite"
    assert sigma[6].status == "infinite"
    missing = contingency(five_catalog, 10**6)
    assert missing.value == -1


def test_transition_matrix_matches_expected(ex_five, five_catalog):
    ts = build_transition_system(five_catalog)
    order = _reference_class_order(ex_five, five_catalog)
    pos = {c: i for i, c in enumerate(ts.class_ids)}
    perm = [pos[c] for c in order]
    expected = [
        [0, 1, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 2, 1, 1],
        [0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 1, 1],
        [0, 0, 0, 0, 1, 1, 1],
    ]
    got = [[int(ts.matrix.data[perm[i]][perm[j]]) for j in range(7)]
           for i in range(7)]
    assert got == expected
    # covers: P_i for the simples, the projective at vertex 4 for both others
    cov = [[int(x) for x in ts.cover_counts.data[perm[i]]] for i in range(7)]
    assert cov[:5] == [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0],
                       [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]
    assert cov[5] == [0, 0, 0, 1, 0] and cov[6] == [0, 0, 0, 1, 0]


def test_stabilization_index(five_catalog):
    ts = build_transition_system(five_catalog)
    d = stabilization_bound(ts)
    assert d == 5
    # the defining property, and its failure one step earlier
    powers = [QMatrix.identity(7)]
    for _ in range(7):
        powers.append(powers[-1] * ts.matrix)
    assert rowspace_contains(powers[5], powers[6])
    assert not rowspace_contains(powers[4], powers[5])


def test_transition_zero_matrix(ex_five):
    # a projective root yields the zero matrix: its row space stabilizes after
    # one step (the identity power is never inside the zero row space)
    p = projective_module(ex_five, "1", "right")
    cat = build_catalog(p, 4)
    ts = build_transition_system(cat)
    assert ts.matrix.is_zero()
    assert stabilization_bound(ts) == 1


def test_transition_period_one_recurrent_stabilizes_at_zero():
    # over K[x]/(x^2) the unique simple is its own first syzygy: the matrix is
    # the 1x1 identity, whose row space chain is stable from the start
    alg = cases.nakayama_local(2)
    s = simple_module(alg, "1", "right")
    cat = build_catalog(s, 4)
    ts = build_transition_system(cat)
    assert ts.matrix == QMatrix.identity(1)
    assert stabilization_bound(ts) == 0


def test_tau_vector_and_infinite_pdim(ex_five, five_catalog, data_dir):
    import os

    from syzkit.formats import parse_module

    ts = build_transition_system(five_catalog)
    order = _reference_class_order(ex_five, five_catalog)
    pos = {c: i for i, c in enumerate(ts.class_ids)}
    with open(os.path.join(data_dir, "ex33_m.mod")) as fh:
        m = parse_module(fh.read(), ex_five)
    assert m.total_dim == 4
    tau = tor_count_vector(ts, m)
    reference_tau = [tau[pos[c]] for c in order]
    assert reference_tau == [0, 0, 1, 2, 0, 1, 1]
    out = pdim_from_transition(ts, m, root_is_semisimple_quotient=True)
    assert out.status == "infinite"


def test_tau_of_regular_module_vanishes(ex_five, five_catalog):
    from syzkit.modules import regular_module

    ts = build_transition_system(five_catalog)
    lam = regular_module(ex_five, "left")
    assert tor_count_vector(ts, lam) == [0] * 7


def test_tau_shift_identity(ex_five, five_catalog, data_dir):
    import os

    from syzkit.formats import parse_module
    from syzkit.repetition import _apply_matrix

    ts = build_transition_system(five_catalog)
    with open(os.path.join(data_dir, "ex33_m.mod")) as fh:
        m = parse_module(fh.read(), ex_five)
    tau = [int(x) for x in tor_count_vector(ts, m)]
    omega = syzygy(m)
    tau_omega = tor_count_vector(ts, omega)
    applied = [int(x) for x in _apply_matrix(ts, tau)]
    assert tau_omega == applied


def test_pdim_from_transition_finite_case(ex_five, five_catalog):
    ts = build_transition_system(five_catalog)
    s3 = simple_module(ex_five, "3", "left")
    out = pdim_from_transition(ts, s3, root_is_semisimple_quotient=True)
    assert out.status == "finite"
    assert out.value == pdim(s3, 8).value == 2


def test_pdim_via_contingency_matches(ex_five, five_catalog):
    s3 = simple_module(ex_five, "3", "left")
    assert pdim_via_contingency(five_catalog, s3) == 2
    p = projective_module(ex_five, "4", "left")
    assert pdim_via_contingency(five_catalog, p) == 0


def test_bsystem_requires_closed(ex_local):
    s = simple_module(ex_local, "1", "right")
    cat = build_catalog(s, 4)
    assert not cat.closed
    with pytest.raises(CatalogOpen):
        build_transition_system(cat)


def test_findim_bounds_five(ex_five, data_dir):
    import os

    from syzkit.formats import parse_module

    with open(os.path.join(data_dir, "ex33_w.mod")) as fh:
        w = parse_module(fh.read(), ex_five)
    assert pdim(w, 10).value == 4
    fin = findim_bounds(ex_five, 10, extra_left_probes=[w])
    assert fin.left.upper == 4
    assert fin.left.lower == 4 and fin.left.exact
    # the simples S_4, S_5 have infinite projective dimension on the left,
    # so the lower bound witness is the supplied probe
    assert "probe" in fin.left.lower_witness


def test_catalog_closure_is_stable(ex_five, five_catalog):
    """Resolving past closure introduces no new class (soundness of closure)."""
    reg = registry_for(ex_five, "right")
    known = set(five_catalog.classes)
    simples = [simple_module(ex_five, v, "right") for v in ex_five.quiver.vertices]
    total, _, _ = direct_sum(simples)
    depth = max(five_catalog.first_seen.values(), default=0) + 5
    trace = resolve(total, depth)
    for rec in trace.records:
        assert set(rec.classes) <= known


def test_local_algebra_catalog_growth(ex_local):
    s = simple_module(ex_local, "1", "right")
    counts = []
    for budget in (4, 8, 12):
        cat = build_catalog(s, budget)
        assert not cat.closed
        assert syzygy_type(cat).status == "open"
        counts.append(len(cat.classes))
    assert counts[0] < counts[1] < counts[2]


def test_local_algebra_findim_zero(ex_local):
    fin = findim_bounds(ex_local, 6)
    assert fin.left.upper == 0 and fin.right.upper == 0
    assert fin.left.lower == 0 and fin.left.exact
    assert fin.right.lower == 0 and fin.right.exact


def test_roots_given_as_pieces(ex_three_loop):
    """A bare module is a one-piece root; a zero root has repetition index 0
    and no full socle, given bare or as zero pieces; a root needs a piece."""
    s = simple_module(ex_three_loop, "3", "right")
    bare, listed = build_catalog(s, 4), build_catalog([s], 4)
    assert (bare.degree0, bare.classes, bare.edges, bare.root_has_full_socle) == (
        listed.degree0, listed.classes, listed.edges, listed.root_has_full_socle)
    zero = zero_module(ex_three_loop, "right")
    for root in (zero, [zero, zero]):
        cat = build_catalog(root, 4)
        assert cat.degree0 == {} and not cat.root_has_full_socle
        assert repetition_index(cat).describe() == "finite(0)"
    with pytest.raises(DimensionMismatch):
        build_catalog([], 4)


DATA_ALGEBRAS = sorted(n for n in os.listdir(os.path.join(os.path.dirname(__file__), "data"))
                       if n.endswith((".alg", ".ord")))


def _seeded_algebras():
    """24 seeded algebras: monomial, binomial and tiled-order residue algebras."""
    from syzkit.orders import presentation_from_valued_quiver, valued_quiver_from_exponents

    return (randgen.algebra_pool(0x90, 8) + randgen.binomial_pool(0x91, 8)
            + [presentation_from_valued_quiver(valued_quiver_from_exponents(lam))
               for lam in randgen.tiled_order_pool(0x92, 8)])


def _findim(alg, budget, monkeypatch, build=build_catalog):
    """findim_bounds with its catalogs from build: the report as a dict, or
    the error class it raises (a seeded binomial algebra has a module whose
    End/rad is Q(sqrt 3)), and the catalogs' root_has_full_socle flags."""
    flags = []

    def recorded(*args):
        catalog = build(*args)
        flags.append(catalog.root_has_full_socle)
        return catalog

    with monkeypatch.context() as patch:
        patch.setattr(repetition, "build_catalog", recorded)
        try:
            return findim_bounds(alg, budget).to_dict(), flags
        except SyzkitError as exc:
            return type(exc), flags


def _class_dims(alg):
    return [[c.dims for c in registry_for(alg, side).classes] for side in ("left", "right")]


def test_findim_roots_by_summands_match_the_summed_roots(data_dir, monkeypatch):
    """findim_bounds on roots given by their summands equals the frozen
    reference that sums each root and splits the sum with krull_schmidt: on
    every data-file algebra and order, where the registries also hold the
    same classes (dims in id order), and on 24 seeded algebras, where the
    pieces may register in another order than the sum splits (labels move,
    answers do not)."""
    for name in DATA_ALGEBRAS:
        path = os.path.join(data_dir, name)
        alg, ref = cases.data_algebra(path), cases.data_algebra(path)
        assert _findim(alg, 8, monkeypatch) == _findim(
            ref, 8, monkeypatch, cases.summed_catalog), name
        assert _class_dims(alg) == _class_dims(ref), name
    moved = answers = 0
    for alg, ref in zip(_seeded_algebras(), _seeded_algebras()):
        got = _findim(alg, 6, monkeypatch)
        assert got == _findim(ref, 6, monkeypatch, cases.summed_catalog)
        moved += _class_dims(alg) != _class_dims(ref)
        answers += isinstance(got[0], dict)
    assert moved and answers > 20


def test_cli_cogenerator_roots_match_the_summed_roots(data_dir, tmp_path, monkeypatch):
    """rep-index, syzygy-type and bmatrix with --t cogenerator, both sides,
    on every data-file algebra and order (through `order ingest`): the same
    --out JSON as with the frozen summed-root catalog."""
    paths = []
    for name in DATA_ALGEBRAS:
        path = os.path.join(data_dir, name)
        if name.endswith(".ord"):
            derived = str(tmp_path / (name + ".alg"))
            assert cli.run_command(["order", "ingest", path, "--out-alg", derived])[0] == 0
            path = derived
        paths.append(path)
    out = tmp_path / "out.json"

    def report(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            code, _ = cli.run_command(argv + ["--out", str(out)])
        return code, out.read_text()

    runs = 0
    for path in paths:
        for side in ("left", "right"):
            for command in ("rep-index", "syzygy-type", "bmatrix"):
                argv = [command, "--algebra", path, "--t", "cogenerator",
                        "--side", side, "--budget", "8"]
                got = report(argv)
                with monkeypatch.context() as patch:
                    patch.setattr(cli, "build_catalog", cases.summed_catalog)
                    assert got == report(argv), argv
                runs += got[0] == 0
    assert runs > 30
