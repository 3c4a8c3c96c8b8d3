"""The benchmark's tracer wraps syzkit functions and methods by name and reads
the per-algebra registry attribute; a rename must fail here, not only when a
traced benchmark run starts."""

import os
import sys

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
