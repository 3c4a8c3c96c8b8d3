import json
import os
import subprocess
import sys

import pytest

from syzkit.cli import build_parser, run_command


def _data(data_dir, name):
    return os.path.join(data_dir, name)


def test_pdim_infinite_cycle_certificate(data_dir, capsys):
    code, doc = run_command([
        "pdim", "--algebra", _data(data_dir, "ex23d.alg"),
        "--module", _data(data_dir, "s1.mod")])
    assert code == 0
    assert doc.results["pdim"].startswith("infinite")
    kinds = [c["kind"] for c in doc.certificates]
    assert "recurrence-cycle" in kinds
    out = capsys.readouterr().out
    assert "infinite" in out


def test_pdim_simple_shorthand(data_dir):
    code, doc = run_command([
        "pdim", "--algebra", _data(data_dir, "ex23d.alg"),
        "--module", "simple:3", "--budget", "8"])
    assert code == 0
    assert doc.results["pdim"].startswith("infinite")


def test_order_report_exit_and_values(data_dir, tmp_path):
    out = tmp_path / "report.json"
    code, doc = run_command([
        "order", "report", _data(data_dir, "ex46.ord"),
        "--budget", "8", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["results"]["report"]["order"]["left_fin_dim"] == 4
    assert payload["results"]["report"]["order"]["right_fin_dim"] == 1
    assert payload["status"] == "complete"


def test_resolve_zero_budget_is_open(data_dir):
    code, doc = run_command([
        "resolve", "--algebra", _data(data_dir, "ex23d.alg"),
        "--module", _data(data_dir, "s1.mod"), "--budget", "0"])
    assert code == 2
    assert doc.status == "open-at-budget"


def test_resolve_reports_degrees(data_dir):
    # the left simple at vertex 3 has projective dimension 2 here
    code, doc = run_command([
        "resolve", "--algebra", _data(data_dir, "ex33.alg"),
        "--module", "simple:3", "--budget", "6"])
    assert code == 0
    assert doc.results["terminated"] is True
    assert len(doc.results["degrees"]) == 3


def test_decompose_command(data_dir):
    code, doc = run_command([
        "decompose", "--algebra", _data(data_dir, "ex33.alg"),
        "--module", "simple:4", "--side", "left"])
    assert code == 0
    assert doc.results["summands"][0]["multiplicity"] == 1


def test_rep_index_command(data_dir):
    code, doc = run_command([
        "rep-index", "--algebra", _data(data_dir, "ex33.alg"), "--budget", "12"])
    assert code == 0
    assert doc.results["repetition_index"] == "finite(4)"


def test_syzygy_type_open_exit_two(data_dir):
    code, doc = run_command([
        "syzygy-type", "--algebra", _data(data_dir, "loc.alg"), "--budget", "4"])
    assert code == 2
    assert doc.results["syzygy_type"].startswith("open")


def test_bmatrix_command(data_dir):
    code, doc = run_command([
        "bmatrix", "--algebra", _data(data_dir, "ex33.alg"), "--budget", "12"])
    assert code == 0
    assert len(doc.results["matrix"]) == 7
    assert doc.results["stabilization_index"] == 5


def test_findim_with_probe(data_dir):
    code, doc = run_command([
        "findim", "--algebra", _data(data_dir, "ex33.alg"),
        "--probe", _data(data_dir, "ex33_w.mod"), "--budget", "10"])
    assert code == 0
    fin = doc.results["findim"]
    assert fin["left"]["certified_upper"] == 4
    assert fin["left"]["certified_lower"] == 4


def test_graph_command(data_dir, capsys):
    code, _ = run_command([
        "graph", "--algebra", _data(data_dir, "ex23d.alg"),
        "--module", _data(data_dir, "s1.mod")])
    assert code == 0
    assert "layer 0" in capsys.readouterr().out
    code, _ = run_command([
        "graph", "--algebra", _data(data_dir, "ex23d.alg"),
        "--module", "simple:1", "--dot"])
    assert code == 0
    assert "digraph" in capsys.readouterr().out


def test_graph_out_writes_the_rendering(data_dir, tmp_path, capsys):
    """--out writes the text or DOT rendering to the file instead of stdout."""
    for extra, marker in (([], "layer 0"), (["--dot"], "digraph")):
        out = tmp_path / f"graph{len(extra)}.txt"
        code, doc = run_command([
            "graph", "--algebra", _data(data_dir, "ex33.alg"),
            "--module", _data(data_dir, "ex33_m.mod"), "--out", str(out)] + extra)
        assert (code, doc) == (0, None)
        assert capsys.readouterr().out == ""
        text = out.read_text()
        assert marker in text and text.endswith("\n")
        code, _ = run_command([
            "graph", "--algebra", _data(data_dir, "ex33.alg"),
            "--module", _data(data_dir, "ex33_m.mod")] + extra)
        assert code == 0 and capsys.readouterr().out == text


def test_cli_roots_are_the_findim_test_modules(data_dir):
    """The CLI's lambda-mod-j and cogenerator roots and the first two test
    modules of findim_bounds come from one builder each: equal lists of
    summands, piece by piece."""
    from syzkit.cli import _root_module
    from syzkit.formats import parse_algebra
    from syzkit.repetition import _test_module_side

    with open(_data(data_dir, "ex33.alg")) as fh:
        alg = parse_algebra(fh.read())
    for side in ("left", "right"):
        roots = _test_module_side(alg, side)
        for t, (_, want, _) in zip(("lambda-mod-j", "cogenerator"), roots):
            args = build_parser().parse_args(
                ["rep-index", "--algebra", "x", "--t", t, "--side", side])
            got, _ = _root_module(args, alg)
            assert len(got) == len(want) == len(alg.quiver.vertices)
            for g, w in zip(got, want):
                assert (g.side, g.dims, g.act) == (w.side, w.dims, w.act)


def test_order_ingest_writes_alg(data_dir, tmp_path):
    out_alg = tmp_path / "derived.alg"
    code, doc = run_command([
        "order", "ingest", _data(data_dir, "ex46.ord"),
        "--out-alg", str(out_alg)])
    assert code == 0
    from syzkit.formats import parse_algebra

    derived = parse_algebra(out_alg.read_text())
    assert derived.dim == 36


def test_order_ingest_of_fourteen_tiles_reparses(data_dir, tmp_path):
    """The hereditary order on 14 tiles has J^14 = 0 in its residue algebra,
    above the default length cap of 12: the written .alg reads back."""
    from syzkit.formats import parse_algebra, parse_order

    path = _data(data_dir, "hered14.ord")
    with open(path) as fh:
        assert parse_order(fh.read()).entries == tuple(
            tuple(int(i < j) for j in range(14)) for i in range(14))
    out_alg = tmp_path / "hered14.alg"
    code, doc = run_command(["order", "ingest", path, "--out-alg", str(out_alg)])
    assert code == 0
    assert doc.results["dim"] == 196
    derived = parse_algebra(out_alg.read_text())
    assert (derived.dim, derived.nilpotency) == (196, 14)


def test_order_gldim_cert(data_dir):
    code, doc = run_command([
        "order", "gldim-cert", _data(data_dir, "ex47.ord"),
        "--probe", "simple:6", "--budget", "8"])
    assert code == 0
    assert doc.results["certificate"]["status"] == "infinite-certified"


def test_gldim_cert_rejects_a_right_probe_before_any_work(data_dir, tmp_path,
                                                          monkeypatch, capsys):
    from syzkit import orders

    def no_work(*args):
        raise AssertionError("findim_bounds ran for a right-side probe")

    monkeypatch.setattr(orders, "findim_bounds", no_work)
    probe = tmp_path / "right6.mod"
    probe.write_text("module {\n  side: right;\n  simple: 6;\n}\n")
    code, doc = run_command([
        "order", "gldim-cert", _data(data_dir, "ex47.ord"),
        "--probe", str(probe), "--budget", "8"])
    assert (code, doc) == (1, None)
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "right module" in err


def test_missing_file_is_error(data_dir):
    code, doc = run_command([
        "pdim", "--algebra", "/nonexistent.alg", "--module", "simple:1"])
    assert code == 1 and doc is None


def test_usage_error_exit_one(capsys):
    code, doc = run_command(["pdim"])  # missing required arguments
    assert code == 1 and doc is None
    assert "usage" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["syzygy-type", "--algebra", "{d}/ex33.alg"],
    ["rep-index", "--algebra", "{d}/ex33.alg"],
    ["bmatrix", "--algebra", "{d}/ex33.alg"],
    ["findim", "--algebra", "{d}/ex33.alg"],
    ["order", "report", "{d}/ex46.ord"],
    ["order", "gldim-cert", "{d}/ex47.ord"],
], ids=lambda argv: " ".join(a for a in argv[:2] if not a.startswith("-")))
def test_catalog_commands_reject_zero_budget(argv, data_dir, capsys):
    code, doc = run_command([a.format(d=data_dir) for a in argv] + ["--budget", "0"])
    assert (code, doc) == (1, None)
    assert "error:" in capsys.readouterr().err



@pytest.mark.parametrize("argv", [
    ["pdim", "--algebra", "{d}/ex23d.alg", "--module", "simple:1", "--budget", "-3"],
    ["resolve", "--algebra", "{d}/ex23d.alg", "--module", "{d}/s1.mod", "--budget", "-1"],
], ids=lambda argv: argv[0])
def test_negative_budget_is_an_error(argv, data_dir, capsys):
    code, doc = run_command([a.format(d=data_dir) for a in argv])
    assert (code, doc) == (1, None)
    assert capsys.readouterr().err == "error: budget must be >= 0\n"


def test_negative_budget_api_raises_and_zero_stays_open(ex_three_loop):
    from syzkit.errors import BadBudget
    from syzkit.homology import ext_dims, pdim, poincare_betti_truncated, resolve
    from syzkit.modules import simple_module

    s = simple_module(ex_three_loop, "1", "left")
    for call in (lambda: pdim(s, -1), lambda: resolve(s, -1),
                 lambda: ext_dims(s, s, -1), lambda: poincare_betti_truncated(s, s, -1)):
        with pytest.raises(BadBudget, match="budget must be >= 0"):
            call()
    assert pdim(s, 0).describe() == "unknown(>= budget 0)"
    trace = resolve(s, 0)
    assert trace.records == [] and not trace.completed

@pytest.mark.parametrize("argv", [
    ["pdim", "--algebra", "{d}/ex23d.alg", "--module", "simple:zz"],
    ["decompose", "--algebra", "{d}/ex33.alg", "--module", "simple:zz"],
    ["findim", "--algebra", "{d}/ex33.alg", "--probe", "simple:zz", "--budget", "4"],
    ["syzygy-type", "--algebra", "{d}/ex33.alg", "--t", "simple:zz", "--budget", "4"],
    ["order", "gldim-cert", "{d}/ex47.ord", "--probe", "simple:zz", "--budget", "4"],
], ids=lambda argv: " ".join(a for a in argv[:2] if not a.startswith("-")))
def test_unknown_simple_vertex_is_an_error(argv, data_dir, capsys):
    code, doc = run_command([a.format(d=data_dir) for a in argv])
    assert (code, doc) == (1, None)
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'zz'" in err


def test_zero_budget_catalog_is_a_value_error(ex_three_loop):
    from syzkit.errors import BadBudget
    from syzkit.modules import simple_module
    from syzkit.repetition import build_catalog

    s = simple_module(ex_three_loop, "1", "right")
    with pytest.raises(ValueError):
        build_catalog(s, 0)
    with pytest.raises(BadBudget):
        build_catalog(s, -1)


def test_non_integer_arrow_value_is_an_error(tmp_path, capsys):
    path = tmp_path / "bad.ord"
    path.write_text("order {\n  valued_quiver {\n    vertices: 1 2;\n"
                    "    arrows: a: 1 -> 2 @ x;\n  }\n}\n")
    code, doc = run_command(["order", "ingest", str(path)])
    assert (code, doc) == (1, None)
    err = capsys.readouterr().err
    assert err.startswith("error: line 4, column 25: ") and "'x'" in err


def test_parser_is_built_once_and_survives_failed_parses(data_dir, tmp_path, capsys):
    """The parser is built once per process; after parses that fail (exit 1),
    a good command gives the document a fresh interpreter gives."""
    assert build_parser() is build_parser()
    argv = ["bmatrix", "--algebra", _data(data_dir, "ex33.alg"), "--budget", "12"]
    for bad in (["bmatrix", "--budget", "x"], ["order", "frobnicate", "x.ord"],
                ["order", "report", _data(data_dir, "ex47.ord"), "--assert-gldim", "y"]):
        assert run_command(bad) == (1, None)
    code, doc = run_command(argv)
    capsys.readouterr()
    out = tmp_path / "fresh.json"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    fresh = subprocess.run([sys.executable, "-m", "syzkit.cli", *argv, "--out", str(out)],
                           env={**os.environ, "PYTHONPATH": src}, capture_output=True)
    assert (code, doc.to_json() + "\n") == (fresh.returncode, out.read_text())


def test_assert_gldim_negative_is_refused_before_any_work(data_dir, monkeypatch, capsys):
    from syzkit import orders

    def no_work(*args):
        raise AssertionError("the order was built for a negative asserted gldim")

    monkeypatch.setattr(orders, "presentation_from_valued_quiver", no_work)
    code, doc = run_command(["order", "report", _data(data_dir, "ex47.ord"),
                             "--budget", "4", "--assert-gldim", "-3"])
    assert (code, doc) == (1, None)
    assert capsys.readouterr().err == \
        "error: asserted global dimension must be >= 0, got -3\n"


def test_assert_gldim_below_the_certified_fin_dim_is_refused(data_dir, capsys):
    # both fin dims of the ex47 order are certified as 2, and gldim >= fin dim
    code, doc = run_command(["order", "report", _data(data_dir, "ex47.ord"),
                             "--budget", "4", "--assert-gldim", "1"])
    assert (code, doc) == (1, None)
    assert capsys.readouterr().err == (
        "error: asserted global dimension 1 is below the order's certified "
        "left fin dim lower bound 2\n")
    code, doc = run_command(["order", "report", _data(data_dir, "ex47.ord"),
                             "--budget", "4", "--assert-gldim", "2"])
    assert code == 0
    assert doc.results["report"]["asserted_gldim"]["global_repetition_index"] == 1
