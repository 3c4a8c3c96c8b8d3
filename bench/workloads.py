"""The three workloads.  Each pass is cold: every algebra and valued quiver
is built again from its input text, so the caches syzkit keeps on those
objects start empty.  One caller runs the jobs one after another.

A workload's next_inputs() makes the inputs of one pass, untimed, and
run_pass() runs them, returning one Job per operation; check() compares a
job's output with the recorded answer and returns a mismatch message or
None.  Checking happens after the pass, outside the timed region.
"""

import contextlib
import json
import os
import random
import time
from dataclasses import dataclass

from syzkit import cli, formats, homology, modules, orders

import pool
import test_report_golden

PDIM_BUDGET = 6


@dataclass
class Job:
    name: str
    seconds: float
    output: object = None     # what check() compares; None after an exception
    error: str | None = None


def _cli_job(name, argv, sink):
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            code, doc = cli.run_command(argv)
    except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
        return Job(name, time.perf_counter() - start, error=repr(exc))
    seconds = time.perf_counter() - start
    if doc is None:
        return Job(name, seconds, error=f"exit {code} without a report")
    projection = json.loads(json.dumps(test_report_golden._project(doc)))
    return Job(name, seconds, dict(projection, exit=code))


class CliWorkload:
    """Fixed CLI commands run through syzkit.cli.run_command.  A job's
    output is the report projection of tests/test_report_golden.py plus the
    exit code, checked key by key against the recorded one."""

    def __init__(self, commands, sink):
        self.commands = [(name, argv) for name, argv, _ in commands]
        self.expected = {name: want for name, _, want in commands}
        self.sink = sink

    def next_inputs(self):
        return self.commands

    def run_pass(self, commands):
        return [_cli_job(name, argv, self.sink) for name, argv in commands]

    def check(self, job):
        want = self.expected[job.name]
        wrong = sorted(key for key in want.keys() | job.output.keys()
                       if want.get(key) != job.output.get(key))
        if wrong:
            return "; ".join(f"{job.name}: {key} is {job.output.get(key)!r}, "
                             f"want {want.get(key)!r}" for key in wrong)
        return None


def syzygy_deep(root, recorded, sink):
    entry = recorded["syzygy_deep"]
    argv = [a.replace("{root}", root) for a in entry["argv"]]
    want = dict(entry["projection"], exit=entry["exit"])
    return CliWorkload([("loc_syzygy_type_deep", argv, want)], sink)


def order_reports(root, sink):
    data_dir = os.path.join(root, "tests", "data")
    commands = []
    for name, template in sorted(test_report_golden.GOLDEN_RUNS.items()):
        with open(os.path.join(root, "tests", "golden", name + ".json")) as fh:
            projection = json.load(fh)
        code = 2 if projection["status"] == "open-at-budget" else 0
        argv = [a.format(d=data_dir) for a in template]
        commands.append((name, argv, dict(projection, exit=code)))
    return CliWorkload(commands, sink)


class PoolWorkload:
    """Per algebra: build it from its input text, take opposite(), then
    pdim of every simple on both sides.  The answer per algebra is
    [kind, dim, opposite dim, pdim list in the unrelabeled vertex order].

    Each pass relabels the whole pool afresh and shuffles it, so a run's
    median pass averages over several labelings."""

    def __init__(self, pool_seed, size, seed, answers):
        self.rng = random.Random(seed)
        self.specs = list(enumerate(pool.make_pool(pool_seed, size)))
        self.answers = answers      # recorded records, by pool index

    def next_inputs(self):
        jobs = [(i,) + pool.relabel(spec, self.rng) for i, spec in self.specs]
        self.rng.shuffle(jobs)
        return jobs

    def run_pass(self, jobs):
        out = []
        for index, kind, text, vertex_map in jobs:
            start = time.perf_counter()
            try:
                record = self._job(kind, text, vertex_map)
            except Exception as exc:  # a crash is a failed operation
                out.append(Job(index, time.perf_counter() - start, error=repr(exc)))
                continue
            out.append(Job(index, time.perf_counter() - start, record))
        return out

    @staticmethod
    def _job(kind, text, vertex_map):
        if kind == "tiled":
            vq = orders.valued_quiver_from_exponents(formats.parse_order(text))
            algebra = orders.presentation_from_valued_quiver(vq)
        else:
            algebra = formats.parse_algebra(text, length_cap=6)
        if hasattr(algebra, "_syzkit_registries"):
            raise RuntimeError("a freshly built algebra already carries registries")
        opposite = algebra.opposite()
        found = {}
        for side in ("left", "right"):
            for v in algebra.quiver.vertices:
                simple = modules.simple_module(algebra, v, side)
                found[side, v] = homology.pdim(simple, PDIM_BUDGET).describe()
        pdims = [found[side, v] for side in ("left", "right") for v in vertex_map]
        return [kind, algebra.dim, opposite.dim, pdims]

    def check(self, job):
        want = self.answers[job.name]
        if job.output != want:
            return f"pool algebra {job.name}: got {job.output}, want {want}"
        return None
