"""Command-line surface.

Subcommands: resolve, decompose, rep-index, syzygy-type, bmatrix, pdim,
findim, order (ingest | report | gldim-cert), graph.  Exit codes: 0 when all
requested certificates were produced, 2 when a requested result is open at
budget, 1 on errors.
"""

import argparse
import functools
import sys

from .decompose import registry_for
from .errors import SyzkitError
from .formats import (emit_algebra, emit_valued_quiver, parse_algebra,
                      parse_module, parse_order)
from .graphs import layered_graph
from .homology import (DEFAULT_BUDGET, injective_cogenerator, pdim, resolve,
                       semisimple_quotient)
from .modules import simple_module
from .orders import (ExponentMatrix, gldim_certificate, order_report,
                     presentation_from_valued_quiver,
                     valued_quiver_from_exponents)
from .report import ReportDocument
from .repetition import (build_catalog, build_transition_system, findim_bounds,
                         repetition_index, stabilization_bound, syzygy_type)


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_algebra(args):
    return parse_algebra(_read(args.algebra))


def _load_module(spec, algebra, side=None):
    """A module from a .mod path or the shorthand simple:<vertex>."""
    if spec.startswith("simple:"):
        vertex = spec.split(":", 1)[1]
        return simple_module(algebra, vertex, side or "left")
    return parse_module(_read(spec), algebra)


def _root_module(args, algebra):
    if args.t == "lambda-mod-j":
        return semisimple_quotient(algebra, args.side), "semisimple quotient"
    if args.t == "cogenerator":
        return injective_cogenerator(algebra, args.side), "injective cogenerator"
    return _load_module(args.t, algebra, args.side), args.t


def _emit(doc, args):
    text = doc.human_summary()
    print(text)
    payload = doc.to_json()
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)


def _outcome_result(doc, key, outcome, claim):
    doc.add_result(key, outcome.describe())
    if outcome.status == "open":
        doc.mark_open(f"{key} open at budget")
    elif outcome.certificate is not None:
        doc.add_certificate(claim, outcome.certificate.get("kind", "computed"),
                            outcome.certificate)


def _cmd_resolve(args):
    algebra = _load_algebra(args)
    module = _load_module(args.module, algebra, args.side)
    doc = ReportDocument("resolve", args.budget)
    trace = resolve(module, args.budget)
    reg = registry_for(module.algebra, module.side)
    rows = []
    for rec in trace.records:
        rows.append({
            "degree": rec.degree,
            "cover_multiplicities": list(rec.cover_counts),
            "syzygy_dims": list(rec.syzygy.dims),
            "classes": {str(k): v for k, v in (rec.classes or {}).items()},
        })
    doc.add_result("module_dims", list(module.dims))
    doc.add_result("degrees", rows)
    doc.add_result("terminated", trace.completed)
    doc.add_result("registered_classes",
                   [{"id": c.id, "dims": list(c.dims),
                     "projective": c.is_projective()} for c in reg.classes])
    if trace.completed:
        doc.add_certificate("resolution terminates", "resolution-exhaustion",
                            {"length": len(trace.records)})
    else:
        doc.mark_open("resolution truncated at budget")
    return doc


def _cmd_decompose(args):
    algebra = _load_algebra(args)
    module = _load_module(args.module, algebra, args.side)
    doc = ReportDocument("decompose", args.budget)
    reg = registry_for(module.algebra, module.side)
    classes = reg.classify(module)
    doc.add_result("module_dims", list(module.dims))
    doc.add_result("summands", [
        {"class_id": cid, "multiplicity": mult,
         "dims": list(reg.by_id(cid).dims),
         "projective": reg.by_id(cid).is_projective()}
        for cid, mult in sorted(classes.items())])
    doc.add_certificate("Krull-Schmidt decomposition", "trace-test",
                        {"classes": sorted(classes.items())})
    return doc


def _cmd_rep_index(args):
    algebra = _load_algebra(args)
    root, label = _root_module(args, algebra)
    doc = ReportDocument("rep-index", args.budget)
    catalog = build_catalog(root, args.budget)
    outcome = repetition_index(catalog)
    doc.add_result("root", label)
    _outcome_result(doc, "repetition_index", outcome, "repetition index certified")
    return doc


def _cmd_syzygy_type(args):
    algebra = _load_algebra(args)
    root, label = _root_module(args, algebra)
    doc = ReportDocument("syzygy-type", args.budget)
    catalog = build_catalog(root, args.budget)
    outcome = syzygy_type(catalog)
    doc.add_result("root", label)
    doc.add_result("classes_so_far", len(catalog.classes))
    _outcome_result(doc, "syzygy_type", outcome, "syzygy type certified")
    return doc


def _cmd_bmatrix(args):
    algebra = _load_algebra(args)
    root, label = _root_module(args, algebra)
    doc = ReportDocument("bmatrix", args.budget)
    catalog = build_catalog(root, args.budget)
    doc.add_result("root", label)
    if not catalog.closed:
        doc.add_result("catalog", "open")
        doc.mark_open("catalog open at budget; no transition matrix")
        return doc
    ts = build_transition_system(catalog)
    reg = catalog.registry()
    doc.add_result("classes", [
        {"id": cid, "dims": list(reg.by_id(cid).dims),
         "projective": reg.by_id(cid).is_projective()}
        for cid in ts.class_ids])
    doc.add_result("matrix", [[int(x) for x in row] for row in ts.matrix.tolist()])
    doc.add_result("cover_exponents",
                   [[int(x) for x in row] for row in ts.cover_counts.tolist()])
    doc.add_result("stabilization_index", stabilization_bound(ts))
    doc.add_certificate("transition matrix of the closed catalog",
                        "catalog-closure", {"size": ts.size})
    return doc


def _cmd_pdim(args):
    algebra = _load_algebra(args)
    module = _load_module(args.module, algebra, args.side)
    doc = ReportDocument("pdim", args.budget)
    result = pdim(module, args.budget)
    doc.add_result("module_dims", list(module.dims))
    doc.add_result("pdim", result.describe())
    if result.status == "finite":
        doc.add_certificate(f"projective dimension = {result.value}",
                            "resolution-exhaustion", result.certificate)
    elif result.status == "infinite":
        doc.add_certificate("projective dimension infinite",
                            "recurrence-cycle", result.certificate)
    else:
        doc.mark_open("no certificate within budget")
    return doc


def _cmd_findim(args):
    algebra = _load_algebra(args)
    probes_left = []
    probes_right = []
    for spec in args.probe or ():
        probe = _load_module(spec, algebra)
        (probes_left if probe.side == "left" else probes_right).append(probe)
    doc = ReportDocument("findim", args.budget)
    fin = findim_bounds(algebra, args.budget, probes_left, probes_right)
    doc.add_result("findim", fin.to_dict())
    for side, sub in (("left", fin.left), ("right", fin.right)):
        if sub.upper is not None:
            doc.add_certificate(
                f"{side} big finitistic dimension <= {sub.upper}",
                "repetition-bounds", [b.to_dict() for b in sub.bounds])
        else:
            doc.mark_open(f"{side} upper bound open at budget")
        if sub.exact:
            doc.add_certificate(
                f"{side} little finitistic dimension = {sub.lower}",
                "attained-lower-bound", sub.lower_witness)
    return doc


def _cmd_graph(args):
    algebra = _load_algebra(args)
    module = _load_module(args.module, algebra, args.side)
    graph = layered_graph(module)
    text = graph.render_dot() if args.dot else graph.render_text()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return None


def _load_valued_quiver(path):
    parsed = parse_order(_read(path))
    if isinstance(parsed, ExponentMatrix):
        return valued_quiver_from_exponents(parsed), parsed
    return parsed, None


def _cmd_order(args):
    vq, exponents = _load_valued_quiver(args.order)
    doc = ReportDocument(f"order {args.order_command}", args.budget)
    if args.order_command == "ingest":
        pres = presentation_from_valued_quiver(vq)
        doc.add_result("valued_quiver", emit_valued_quiver(vq))
        doc.add_result("algebra_file", emit_algebra(pres.quiver, pres.relations))
        doc.add_result("dim", pres.dim)
        doc.add_certificate("each simple occurs once in each projective",
                            "exhaustion", {"dim": pres.dim})
        if args.out_alg:
            with open(args.out_alg, "w", encoding="utf-8") as fh:
                fh.write(emit_algebra(pres.quiver, pres.relations))
        return doc
    if args.order_command == "report":
        report = order_report(vq, args.budget,
                              asserted_gldim=args.assert_gldim)
        doc.add_result("report", report)
        for side in ("left", "right"):
            value = report["order"][f"{side}_fin_dim"]
            if isinstance(value, int):
                doc.add_certificate(
                    f"{side} fin dim of the order = {value}",
                    "residue-transfer", {"residue_value": value - 1})
            else:
                doc.mark_open(f"{side} fin dim of the order not pinned")
        return doc
    if args.order_command == "gldim-cert":
        pres = presentation_from_valued_quiver(vq)
        probes = [_load_module(s, pres, "left") for s in args.probe or ()]
        if not probes:
            probes = [simple_module(pres, v, "left") for v in pres.quiver.vertices]
        cert = gldim_certificate(vq, probes, args.budget)
        doc.add_result("certificate", cert)
        if cert["status"] == "infinite-certified":
            doc.add_certificate("global dimension of the order is infinite",
                                "syzygy-repetition-violation", cert)
        elif cert["status"] == "open":
            doc.mark_open(cert.get("reason", "open"))
        else:
            doc.add_certificate("no probe contradicts finite global dimension",
                                "consistency-only", cert)
        return doc
    raise SyzkitError(f"unknown order subcommand {args.order_command!r}")


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="syzkit",
        description="exact syzygy and finitistic-dimension calculator for "
                    "path algebras with relations and tiled orders")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, module=False, root=False):
        p.add_argument("--algebra", required=True, help=".alg file")
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
        p.add_argument("--side", choices=["left", "right"], default="left")
        p.add_argument("--out", help="write the JSON report (graph: the text or "
                                     "DOT rendering) to this path")
        if module:
            p.add_argument("--module", required=True,
                           help=".mod file or simple:<vertex>")
        if root:
            p.add_argument("--t", default="lambda-mod-j",
                           help="root module: lambda-mod-j, cogenerator, or a .mod file")

    p = sub.add_parser("resolve", help="minimal resolution with decompositions")
    common(p, module=True)
    p = sub.add_parser("decompose", help="Krull-Schmidt decomposition")
    common(p, module=True)
    p = sub.add_parser("rep-index", help="repetition index of a root module")
    common(p, root=True)
    p.set_defaults(side="right")
    p = sub.add_parser("syzygy-type", help="syzygy type of a root module")
    common(p, root=True)
    p.set_defaults(side="right")
    p = sub.add_parser("bmatrix", help="first-syzygy transition matrix")
    common(p, root=True)
    p.set_defaults(side="right")
    p = sub.add_parser("pdim", help="projective dimension with certificate")
    common(p, module=True)
    p = sub.add_parser("findim", help="finitistic dimension bounds")
    common(p)
    p.add_argument("--probe", action="append",
                   help=".mod file or simple:<vertex>; repeatable")
    p = sub.add_parser("graph", help="layered graph of a module")
    common(p, module=True)
    p.add_argument("--dot", action="store_true", help="emit DOT instead of text")

    p = sub.add_parser("order", help="tiled-order pipeline")
    p.add_argument("order_command", choices=["ingest", "report", "gldim-cert"])
    p.add_argument("order", help=".ord file")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--out", help="write the JSON report to this path")
    p.add_argument("--out-alg", help="(ingest) write the derived .alg here")
    p.add_argument("--assert-gldim", type=int, default=None,
                   help="(report) assert a finite global dimension for the order")
    p.add_argument("--probe", action="append",
                   help="(gldim-cert) probe module; repeatable")
    return parser


def run_command(argv):
    """Parse argv and run; returns (exit_code, ReportDocument | None)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return (0 if exc.code in (0, None) else 1), None
    handlers = {
        "resolve": _cmd_resolve,
        "decompose": _cmd_decompose,
        "rep-index": _cmd_rep_index,
        "syzygy-type": _cmd_syzygy_type,
        "bmatrix": _cmd_bmatrix,
        "pdim": _cmd_pdim,
        "findim": _cmd_findim,
        "graph": _cmd_graph,
        "order": _cmd_order,
    }
    try:
        doc = handlers[args.command](args)
    except SyzkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1, None
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1, None
    if doc is None:
        return 0, None
    _emit(doc, args)
    return (2 if doc.status == "open-at-budget" else 0), doc


def main():
    code, _ = run_command(sys.argv[1:])
    sys.exit(code)


if __name__ == "__main__":
    main()
