"""Golden-file stability tests for the machine-readable reports: the schema
and the headline certified values on the five worked examples must not drift."""

import json
import os

import pytest

from syzkit.cli import run_command


def _project(doc):
    """Stable projection of a report: schema keys, statuses, headline values,
    and certificate kinds (volatile detail payloads dropped)."""
    full = doc.to_dict()
    out = {
        "tool": full["tool"],
        "command": full["command"],
        "status": full["status"],
        "top_level_keys": sorted(full.keys()),
        "result_keys": sorted(full["results"].keys()),
        "certificates": sorted({(c["claim"], c["kind"]) for c in full["certificates"]}),
    }
    results = full["results"]
    for key in ("pdim", "repetition_index", "syzygy_type", "stabilization_index",
                "classes_so_far", "matrix", "terminated"):
        if key in results:
            out[key] = results[key]
    if "report" in results:
        out["order"] = results["report"]["order"]
        out["idim"] = results["report"]["idim"]
    if "findim" in results:
        for side in ("left", "right"):
            sub = results["findim"][side]
            out[f"{side}_upper"] = sub["certified_upper"]
            out[f"{side}_lower"] = sub["certified_lower"]
            out[f"{side}_exact"] = sub["exact"]
    if "certificate" in results:
        out["gldim_status"] = results["certificate"]["status"]
        out["gldim_bound"] = results["certificate"]["l_fin_dim_order_bound"]
    return out


GOLDEN_RUNS = {
    "ex23d_pdim": ["pdim", "--algebra", "{d}/ex23d.alg", "--module", "{d}/s1.mod",
                   "--budget", "10"],
    "loc_syzygy_type": ["syzygy-type", "--algebra", "{d}/loc.alg", "--budget", "4"],
    "ex33_bmatrix": ["bmatrix", "--algebra", "{d}/ex33.alg", "--budget", "12"],
    "ex33_findim": ["findim", "--algebra", "{d}/ex33.alg",
                    "--probe", "{d}/ex33_w.mod", "--budget", "10"],
    "ex46_order_report": ["order", "report", "{d}/ex46.ord", "--budget", "8"],
    "ex47_gldim_cert": ["order", "gldim-cert", "{d}/ex47.ord",
                        "--probe", "simple:6", "--budget", "8"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_report_matches_golden(name, data_dir, capsys):
    argv = [a.format(d=data_dir) for a in GOLDEN_RUNS[name]]
    code, doc = run_command(argv)
    capsys.readouterr()
    assert doc is not None
    got = json.loads(json.dumps(_project(doc)))
    golden_path = os.path.join(os.path.dirname(__file__), "golden", name + ".json")
    with open(golden_path) as fh:
        want = json.load(fh)
    assert got == want
    expected_code = 2 if want["status"] == "open-at-budget" else 0
    assert code == expected_code


def test_deep_syzygy_type_matches_bench_answer(capsys):
    """syzygy-type of loc.alg at budget 14, against the answer the benchmark
    records for it (read only)."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "bench", "expected.json")) as fh:
        want = json.load(fh)["syzygy_deep"]
    argv = [a.replace("{root}", root) for a in want["argv"]]
    code, doc = run_command(argv)
    capsys.readouterr()
    assert code == want["exit"] == 2
    assert json.loads(json.dumps(_project(doc))) == want["projection"]


def _record_work(monkeypatch):
    """Record the Hom-basis morphisms whose dense matrices get built, the
    End-ring bases that reach the split candidates, and the Hom-basis
    morphisms built, without changing what runs."""
    from syzkit import decompose
    from syzkit.modules import ModMorphism

    work = {"densified": [], "candidate_bases": [], "hom_morphisms": 0}
    densify, candidate_endos, hom_basis = (ModMorphism._densify,
                                           decompose._candidate_endos,
                                           decompose.hom_basis)

    def counted_densify(f):
        work["densified"].append(f)
        return densify(f)

    def recorded_candidates(e, rng):
        work["candidate_bases"].append(e.basis)
        return candidate_endos(e, rng)

    def counted_hom_basis(m, n):
        basis = hom_basis(m, n)
        work["hom_morphisms"] += len(basis)
        return basis

    monkeypatch.setattr(ModMorphism, "_densify", counted_densify)
    monkeypatch.setattr(decompose, "_candidate_endos", recorded_candidates)
    monkeypatch.setattr(decompose, "hom_basis", counted_hom_basis)
    return work


def test_local_end_rings_build_no_dense_hom_matrix(data_dir, monkeypatch, capsys):
    """syzygy-type of loc.alg at budget 14: every End ring is local and read
    on its top, so no Hom-basis morphism builds its dense matrices."""
    work = _record_work(monkeypatch)
    code, _ = run_command(["syzygy-type", "--algebra", f"{data_dir}/loc.alg",
                           "--budget", "14"])
    capsys.readouterr()
    assert code == 2
    assert work["hom_morphisms"] >= 1000
    assert work["densified"] == []


def test_golden_runs_densify_hom_morphisms_only_for_split_candidates(
        data_dir, monkeypatch, capsys):
    """Across the six golden runs, the only Hom-basis morphisms whose dense
    matrices are built belong to End rings that go on to split candidates."""
    work = _record_work(monkeypatch)
    for name in sorted(GOLDEN_RUNS):
        run_command([a.format(d=data_dir) for a in GOLDEN_RUNS[name]])
    capsys.readouterr()
    candidates = {id(f) for basis in work["candidate_bases"] for f in basis}
    assert work["hom_morphisms"] >= 1000
    assert work["densified"]
    assert all(id(f) in candidates for f in work["densified"])


def test_golden_runs_classify_roots_by_summands_and_pair_only_undecided_classes(
        data_dir, monkeypatch, capsys):
    """Across the six golden runs, no End ring is built on a root assembled
    from its known summands (the sums of simples, of indecomposable
    injectives and of indecomposable projectives that findim_bounds and the
    CLI take as roots), and the registry runs the trace pairing only on a
    class of equal top counts and different arrow matrices: 18 pairings in
    all, the rest of its lookups settled by those two invariants."""
    from syzkit import decompose
    from syzkit.modules import direct_sum, top_counts
    from syzkit.repetition import _test_module_side

    rings, pairs = [], []
    end_ring, pairing = decompose.end_ring, decompose._trace_pairing_nonzero

    def recorded_end_ring(m):
        rings.append(m)
        return end_ring(m)

    def recorded_pairing(m, n):
        pairs.append((m, n))
        return pairing(m, n)

    monkeypatch.setattr(decompose, "end_ring", recorded_end_ring)
    monkeypatch.setattr(decompose, "_trace_pairing_nonzero", recorded_pairing)
    for name in sorted(GOLDEN_RUNS):
        run_command([a.format(d=data_dir) for a in GOLDEN_RUNS[name]])
    capsys.readouterr()
    monkeypatch.undo()
    assert len(rings) > 100
    sums = {}
    for m in rings:
        if id(m.algebra) not in sums:
            sums[id(m.algebra)] = [
                direct_sum(pieces)[0] for side in ("left", "right")
                for _, pieces, _ in _test_module_side(m.algebra, side)]
        assert not any((m.side, m.dims, m.act) == (t.side, t.dims, t.act)
                       for t in sums[id(m.algebra)])
    assert len(pairs) == 18
    assert all(top_counts(m) == top_counts(n) and m.act != n.act for m, n in pairs)
