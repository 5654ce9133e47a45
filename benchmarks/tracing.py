"""Spans and counts recorded from outside the package, around its calls.

``install`` replaces selected functions of ``cardioshape`` with
wrappers that open a span per call (name, start, end, parent) and bump
counters.  A function imported elsewhere with ``from .x import f`` is
replaced in every module that holds it, so calls through either name are
seen.  Spans are kept in memory; ``dump`` writes them out at the end.
Nothing here changes a result: each wrapper returns what the wrapped
function returned.
"""

import json
import time
from collections import Counter
from pathlib import Path

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.enabled = False
        self._stack = []

    # -- recording ---------------------------------------------------------

    def begin(self, name):
        if not self.enabled:
            return None
        self.counts["trace.calls"] += 1
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx):
        if idx is None:
            return
        self.spans[idx][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError("span stack out of order")

    def count(self, name, n=1):
        if self.enabled:
            self.counts[name] += n

    def mark(self):
        """Position to which ``totals`` can later be restricted."""
        return len(self.spans), Counter(self.counts)

    # -- reduction ---------------------------------------------------------

    def totals(self, since=(0, None), until=None):
        """Inclusive seconds per span name, self seconds per name, counts.

        A span nested inside a span of the same name is not added twice.
        Self time is a span's duration minus that of its direct children.
        """
        first, counts_then = since
        last = len(self.spans) if until is None else until[0]
        inclusive = Counter()
        self_time = Counter()
        child = Counter()
        for i in range(first, last):
            _, start, stop, parent = self.spans[i]
            if parent >= 0:
                child[parent] += stop - start
        for i in range(first, last):
            name, start, stop, parent = self.spans[i]
            duration = stop - start
            self_time[name] += duration - child[i]
            p = parent
            nested = False
            while p >= 0:
                if self.spans[p][0] == name:
                    nested = True
                    break
                p = self.spans[p][3]
            if not nested:
                inclusive[name] += duration
        counts_now = self.counts if until is None else until[1]
        counts = Counter(counts_now)
        if counts_then is not None:
            counts.subtract(counts_then)
        return inclusive, self_time, counts

    def dump(self, path):
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        records = [
            {"name": n, "start": s, "end": e, "parent": p}
            for n, s, e, p in self.spans
        ]
        path.write_text(json.dumps({"spans": records, "counts": self.counts}))

    # -- installation ------------------------------------------------------

    def replace(self, package_modules, original, wrapper):
        for module in package_modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    def wrap_function(self, package_modules, module, attr, name, after=None):
        """Wrap ``module.attr`` in a span called ``name``.

        ``after(args, kwargs, result)`` runs inside the span after the call,
        for counts that depend on the arguments or the result.
        """
        original = getattr(module, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
                if after is not None and tracer.enabled:
                    after(args, kwargs, result)
                return result
            finally:
                tracer.end(idx)

        self.replace(package_modules, original, wrapper)

    def wrap_method(self, cls, attr, name=None, counter=None):
        """Span and/or count every call of a method of ``cls``."""
        original = getattr(cls, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if counter is not None:
                tracer.count(counter)
                tracer.count("trace.calls")
            idx = tracer.begin(name) if name is not None else None
            try:
                return original(*args, **kwargs)
            finally:
                tracer.end(idx)

        setattr(cls, attr, wrapper)

    def count_constructor(self, module, attr, counter):
        """Count constructions of a class a module calls by a bare name."""
        original = getattr(module, attr)
        tracer = self

        def factory(*args, **kwargs):
            tracer.count(counter)
            tracer.count("trace.calls")
            return original(*args, **kwargs)

        setattr(module, attr, factory)


def seconds_per_call(calls=20000, repeats=5):
    """Added cost of one wrapped call, measured on a no-op (best of
    ``repeats``).  Times the number of wrapped calls, it estimates the
    tracing overhead more steadily than traced and untraced rounds do on a
    machine whose speed drifts by more than the overhead."""
    import types

    module = types.ModuleType("noop")
    module.f = lambda: None
    plain = module.f
    tracer = Tracer()
    tracer.wrap_function([module], module, "f", "noop")
    tracer.enabled = True
    best = float("inf")
    for _ in range(repeats):
        tracer.spans.clear()
        t0 = time.perf_counter()
        for _ in range(calls):
            module.f()
        t1 = time.perf_counter()
        for _ in range(calls):
            plain()
        t2 = time.perf_counter()
        best = min(best, ((t1 - t0) - (t2 - t1)) / calls)
    return max(best, 0.0)


def _n_points(args, kwargs):
    return len(np.asarray(args[1] if len(args) > 1 else kwargs["points"]))


def _file_bytes(target):
    """Bytes in a file, or in the files directly inside a directory."""
    p = Path(target)
    if p.is_file():
        return p.stat().st_size
    if p.is_dir():
        return sum(f.stat().st_size for f in p.iterdir() if f.is_file())
    return 0


def _kept_and_run(groups):
    """Iterations up to each kept (first minimal) iterate, and iterations run.

    ``groups`` are the stage sequences of objective values; the optimisers
    keep the first strict minimum of each.
    """
    kept = sum(int(np.argmin(values)) + 1 for values in groups)
    run = sum(len(values) for values in groups)
    return kept, run


def install(tracer, package):
    """Wrap the layers of ``package`` (the imported ``cardioshape``)."""
    from cardioshape import (
        cli,
        ffd,
        fitting,
        io,
        mesh,
        motion,
        objectives,
        optim,
        phenotypes,
        population,
        ssm,
        synth,
    )

    modules = [
        package, cli, ffd, fitting, io, mesh, motion, objectives, optim,
        phenotypes, population, ssm, synth,
    ]

    def wrap(module, attr, name, after=None):
        tracer.wrap_function(modules, module, attr, name, after)

    def ffd_kernel(args, kwargs, result):
        tracer.count("ffd.calls")
        tracer.count("ffd.points", _n_points(args, kwargs))

    for attr in ("warp_points", "warp_gradient", "warp_jacobian"):
        wrap(ffd, attr, f"ffd.{attr}", ffd_kernel)
    wrap(ffd, "compose_warp", "ffd.compose_warp")
    wrap(ffd, "compose_warp_gradient", "ffd.compose_warp_gradient")

    for attr in (
        "total_loss", "recon_loss", "edge_loss", "curvature_loss",
        "temporal_loss", "cycle_loss", "surface_distances",
    ):
        wrap(objectives, attr, f"objectives.{attr}")
    tracer.count_constructor(objectives, "cKDTree", "objectives.kdtree_builds")

    for attr in ("graph_laplacian", "vertex_normals", "rigid_align", "mean_curvature"):
        wrap(mesh, attr, f"mesh.{attr}")
    tracer.wrap_method(mesh.TriMesh, "__init__", counter="mesh.trimesh_builds")

    def fit_kept(args, kwargs, result):
        trace = result[2]
        groups = {}
        for stage, _, value in trace:
            groups.setdefault(stage, []).append(value)
        kept, run = _kept_and_run(groups.values())
        tracer.count("fitting.kept_iters", kept)
        tracer.count("fitting.run_iters", run)

    wrap(fitting, "fit_sequence", "fitting.fit_sequence", fit_kept)

    tracer.wrap_method(optim.Adam, "step", name="optim.adam", counter="optim.adam_steps")

    def mc_calls(args, kwargs, result):
        tracer.count("motion.mc_objective.calls")

    def bilinear_samples(args, kwargs, result):
        image, px = args[0], args[1]
        tracer.count("motion.bilinear.samples", len(px) * image.shape[0])

    def mc_kept(args, kwargs, result):
        kept, run = _kept_and_run([result[1]])
        tracer.count("motion.kept_epochs", kept)
        tracer.count("motion.run_epochs", run)

    wrap(motion, "mc_objective", "motion.mc_objective", mc_calls)
    wrap(motion, "_bilinear", "motion.bilinear", bilinear_samples)
    wrap(motion, "eval_intersections", "motion.eval_intersections")
    wrap(motion, "mc_optimize", "motion.mc_optimize", mc_kept)

    for attr in ("ipca_partial_fit", "fit_to_contours", "complete_sequence", "encode"):
        wrap(ssm, attr, f"ssm.{attr}")
    wrap(ssm, "decode", "ssm.decode", lambda a, k, r: tracer.count("ssm.decode.calls"))
    tracer.count_constructor(ssm, "cKDTree", "ssm.kdtree_builds")

    for attr in ("precision_at_k", "recall_at_k", "vertex_correlation", "signed_variation"):
        wrap(population, attr, f"population.{attr}")
    wrap(
        population, "knn_retrieve", "population.knn_retrieve",
        lambda a, k, r: tracer.count("population.knn_retrieve.calls"),
    )

    wrap(phenotypes, "phenotype_table", "phenotypes.phenotype_table")

    for attr in ("synth_population", "voxelize", "slice_views"):
        wrap(synth, attr, f"synth.{attr}")

    # Bytes are those of the file or directory an outermost io call names.
    io_depth = [0]

    def io_function(attr):
        original = getattr(io, attr)
        name = f"io.{attr}"
        counter = "io.bytes_written" if attr.startswith(("save_", "write_")) else "io.bytes_read"

        def wrapper(*args, **kwargs):
            idx = tracer.begin(name)
            io_depth[0] += 1
            try:
                result = original(*args, **kwargs)
                if io_depth[0] == 1:
                    tracer.count(counter, _file_bytes(args[0]))
                if attr == "load_model":
                    tracer.count("io.load_model.calls")
                return result
            finally:
                io_depth[0] -= 1
                tracer.end(idx)

        tracer.replace(modules, original, wrapper)

    for attr in sorted(vars(io)):
        if attr.startswith(("save_", "load_", "write_", "read_")) and callable(getattr(io, attr)):
            io_function(attr)
