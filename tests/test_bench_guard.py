"""The benchmark's tracer wraps syzkit functions and methods by name and reads
the per-algebra registry attribute; a rename must fail here, not only when a
traced benchmark run starts."""

import contextlib
import io
import os
import sys

from syzkit.cli import run_command
from syzkit.decompose import registry_for

import cases

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench"))

import tracing  # noqa: E402


def test_tracer_resolves_every_boundary_without_installing():
    tracer = tracing.Tracer()
    for owner, key, original, _ in tracer._patches:
        assert getattr(owner, key) is original
    patched = {(original.__module__, original.__qualname__)
               for _, _, original, _ in tracer._patches}
    for modname, attr, _, _ in tracing.BOUNDARIES:
        assert (f"syzkit.{modname}", attr) in patched


def test_registries_live_on_the_algebra_attribute():
    alg = cases.three_vertex_loop_algebra()
    reg = registry_for(alg, "left")
    assert getattr(alg, "_syzkit_registries") == {"left": reg}


def test_tracer_probes_read_a_small_traced_cli_run(data_dir):
    """The probes read IsoClass.omega, registry.by_id and .classes,
    EndRing.basis and the arguments of _class_syzygy; one traced run that
    reaches end_ring, register, class_syzygy and build_catalog exercises each
    of them, and uninstall() restores every patched name."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code, doc = run_command(["findim", "--algebra",
                                     os.path.join(data_dir, "loc.alg"), "--budget", "3"])
    finally:
        tracer.uninstall()
    assert code == 0 and doc is not None
    metrics = tracer.layer_metrics()
    for name in ("algebra.build", "modules.hom_basis", "decompose.end_ring",
                 "decompose.register", "homology.class_syzygy", "repetition.catalog"):
        assert metrics[f"{name}_calls"] > 0, name
    for stat in tracing.STATS:
        assert metrics[stat] > 0, stat
    for owner, key, original, _ in tracer._patches:
        assert getattr(owner, key) is original
