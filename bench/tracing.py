"""Spans and counters around the public calls into each syzkit module,
installed from outside the package.

syzkit modules import each other's functions with ``from .x import y``, so a
function is wrapped under every name that binds it, in every syzkit module;
methods are wrapped on their class.  Each call becomes a span (id, name,
start, end, parent id) kept in memory.  The two hottest kernels,
``QMatrix.__mul__`` and ``Echelon.insert``, are counted and timed but not
kept as spans, since one pass makes up to hundreds of thousands of them.
Self time is a span's duration minus the time of the spans nested directly
inside it; so the build_algebra call inside opposite() counts in
algebra.build, not algebra.opposite.
"""

import importlib
import pkgutil
import time
from collections import defaultdict

import syzkit

# (module, attribute, span name, keep spans): the layer boundaries.
BOUNDARIES = [
    ("algebra", "build_algebra", "algebra.build", True),
    ("algebra", "AlgebraPresentation.opposite", "algebra.opposite", True),
    ("ratmat", "QMatrix.__mul__", "ratmat.mul", False),
    ("ratmat", "Echelon.insert", "ratmat.echelon_insert", False),
    ("ratmat", "QMatrix.kernel_rows", "ratmat.kernel", True),
    ("modules", "hom_basis", "modules.hom_basis", True),
    ("modules", "kernel_module", "modules.kernel_module", True),
    ("modules", "projective_module", "modules.projective_module", True),
    ("decompose", "end_ring", "decompose.end_ring", True),
    ("decompose", "split_once", "decompose.split", True),
    ("decompose", "minimal_polynomial", "decompose.minpoly", True),
    ("decompose", "factor_over_rationals", "decompose.factor", True),
    ("decompose", "IsoClassRegistry.register", "decompose.register", True),
    ("decompose", "_trace_pairing_nonzero", "decompose.trace_pairing", True),
    ("homology", "projective_cover", "homology.cover", True),
    ("homology", "_class_syzygy", "homology.class_syzygy", True),
    ("homology", "pdim", "homology.pdim", True),
    ("repetition", "build_catalog", "repetition.catalog", True),
    ("repetition", "findim_bounds", "repetition.findim", True),
    ("orders", "valued_quiver_from_exponents", "orders.valued_quiver", True),
    ("orders", "presentation_from_valued_quiver", "orders.presentation", True),
    ("orders", "order_report", "orders.report", True),
    ("orders", "gldim_certificate", "orders.gldim_cert", True),
    ("formats", "parse_algebra", "formats.parse", True),
    ("formats", "parse_module", "formats.parse", True),
    ("formats", "parse_order", "formats.parse", True),
    ("report", "ReportDocument.to_json", "report.emit", True),
    ("report", "ReportDocument.human_summary", "report.emit", True),
]


def _hom_unknowns(stats, args, result, _):
    unknowns = sum(a * b for a, b in zip(args[0].dims, args[1].dims))
    stats["modules.hom_unknowns_max"] = max(stats["modules.hom_unknowns_max"], unknowns)


def _end_dims(stats, args, result, _):
    k = len(result.basis)
    stats["decompose.end_dim_max"] = max(stats["decompose.end_dim_max"], k)
    stats["decompose.gram_products"] += k * (k + 1) // 2


def _algebra_dim(stats, args, result, _):
    stats["algebra.dim_total"] += result.dim


def _catalog_classes(stats, args, result, _):
    stats["repetition.catalog_classes"] += len(result.classes)


def _register_hit(stats, args, result, classes_before):
    # a hit registers nothing new
    stats["decompose.register_hits"] += len(args[0].classes) == classes_before


def _syzygy_cache_hit(stats, args, result, cached):
    stats["homology.class_syzygy_cache_hits"] += cached


STATS = ["algebra.dim_total", "modules.hom_unknowns_max", "decompose.end_dim_max",
         "decompose.gram_products", "decompose.register_hits",
         "homology.class_syzygy_cache_hits", "repetition.catalog_classes"]

# Counts read from the arguments and results of a boundary: span name ->
# (before, after).  before(args) returns a token that after() receives.
PROBES = {
    "algebra.build": (None, _algebra_dim),
    "modules.hom_basis": (None, _hom_unknowns),
    "decompose.end_ring": (None, _end_dims),
    "repetition.catalog": (None, _catalog_classes),
    "decompose.register": (lambda args: len(args[0].classes), _register_hit),
    "homology.class_syzygy": (
        lambda args: args[0].by_id(args[1]).omega is not None, _syzygy_cache_hit),
}


def _resolve(module, attr):
    owner = module
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Wraps the boundaries on install(), restores them on uninstall()."""

    def __init__(self):
        self._patches = []    # (owner, attribute, original, wrapper)
        self.reset()
        modules = [syzkit] + [importlib.import_module(f"syzkit.{info.name}")
                              for info in pkgutil.iter_modules(syzkit.__path__)]
        for modname, attr, name, keep in BOUNDARIES:
            owner, leaf = _resolve(importlib.import_module(f"syzkit.{modname}"), attr)
            original = owner.__dict__[leaf]
            wrapper = self._wrap(original, name, keep)
            if "." in attr:
                self._patches.append((owner, leaf, original, wrapper))
                continue
            bound = [(mod, key) for mod in modules
                     for key, value in vars(mod).items() if value is original]
            for mod, key in bound:
                self._patches.append((mod, key, original, wrapper))

    def reset(self):
        self.spans = []       # [id, name, start, end, parent id or None]
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.stats = dict.fromkeys(STATS, 0)
        self.top_s = 0.0
        self._stack = []      # [span id, start, time of direct children]
        self._next_id = 0

    def install(self):
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, original, _ in self._patches:
            setattr(owner, key, original)

    def _wrap(self, fn, name, keep):
        clock = time.perf_counter
        before_hook, after_hook = PROBES.get(name, (None, None))
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            token = before_hook(args) if before_hook else None
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [span_id, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - frame[2]
                tracer.incl_s[name] += duration
                if stack:
                    stack[-1][2] += duration
                    parent = stack[-1][0]
                else:
                    tracer.top_s += duration
                    parent = None
                if keep:
                    tracer.spans.append([span_id, name, frame[1], end, parent])
            if after_hook is not None:
                after_hook(tracer.stats, args, result, token)
            return result

        return wrapper

    def layer_metrics(self):
        """Per-layer numbers of the calls made since the last reset()."""
        out = {}
        for _, _, name, _ in BOUNDARIES:
            out[f"{name}_calls"] = self.calls[name]
            out[f"{name}_s"] = self.self_s[name]
            out[f"{name}_incl_s"] = self.incl_s[name]
        out.update(self.stats)
        calls = self.calls["decompose.register"]
        out["decompose.register_hit_ratio"] = (
            self.stats["decompose.register_hits"] / calls if calls else 0.0)
        return out
