"""Run one benchmark workload and print its metrics as one JSON line.

    python3 benchmarks/run.py --workload subject_fit --seed 1 --seconds 15 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; progress and check details go to standard error.  With
``--trace 0`` the metrics are the end-to-end ones, timed with no wrappers
installed.  With ``--trace 1`` the package's layers are wrapped, spans are
written under ``benchmarks/_results/`` and the metrics are the per-layer
ones, per round of the workload.
"""

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "_results"
WORK = BENCH / "_work"

WORKLOADS = ("subject_fit", "motion", "shape_model", "cohort_cli")

# (name, unit, better, bound)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
    ("fit_s", "s", "lower", 0.25),
    ("mc_viewset_s", "s", "lower", 0.25),
    ("ssm_train_s", "s", "lower", 0.25),
    ("contour_fit_s", "s", "lower", 0.25),
    ("complete_s", "s", "lower", 0.25),
    ("analytics_s", "s", "lower", 0.25),
    ("pipeline_s", "s", "lower", 0.25),
)

_CLI = ("synth", "mc", "fit", "ssm_train", "ssm_encode", "ssm_complete", "pheno", "corr", "retrieve")

# (name, unit, better); a ``.s`` name is the inclusive time of the span of
# that name, ``.self_s`` its self time, anything else a count or a ratio.
PER_LAYER = (
    ("ffd.warp_points.s", "s", "lower"),
    ("ffd.warp_gradient.s", "s", "lower"),
    ("ffd.warp_jacobian.s", "s", "lower"),
    ("ffd.calls", "count", "lower"),
    ("ffd.points", "count", "lower"),
    ("objectives.recon_loss.s", "s", "lower"),
    ("objectives.edge_loss.s", "s", "lower"),
    ("objectives.curvature_loss.s", "s", "lower"),
    ("objectives.temporal_loss.s", "s", "lower"),
    ("objectives.cycle_loss.s", "s", "lower"),
    ("objectives.surface_distances.s", "s", "lower"),
    ("objectives.kdtree_builds", "count", "lower"),
    ("mesh.trimesh_builds", "count", "lower"),
    ("mesh.graph_laplacian.s", "s", "lower"),
    ("mesh.vertex_normals.s", "s", "lower"),
    ("mesh.rigid_align.s", "s", "lower"),
    ("fitting.fit_sequence.s", "s", "lower"),
    ("fitting.fit_sequence.self_s", "s", "lower"),
    ("fitting.kept_iter_frac", "ratio", "higher"),
    ("optim.adam_steps", "count", "lower"),
    ("optim.adam.s", "s", "lower"),
    ("motion.mc_objective.s", "s", "lower"),
    ("motion.mc_objective.calls", "count", "lower"),
    ("motion.bilinear.s", "s", "lower"),
    ("motion.bilinear.samples", "count", "lower"),
    ("motion.eval_intersections.s", "s", "lower"),
    ("motion.kept_epoch_frac", "ratio", "higher"),
    ("ssm.ipca_partial_fit.s", "s", "lower"),
    ("ssm.fit_to_contours.s", "s", "lower"),
    ("ssm.kdtree_builds", "count", "lower"),
    ("ssm.complete_sequence.s", "s", "lower"),
    ("ssm.decode.calls", "count", "lower"),
    ("ssm.encode.s", "s", "lower"),
    ("population.precision_at_k.s", "s", "lower"),
    ("population.knn_retrieve.calls", "count", "lower"),
    ("population.recall_at_k.s", "s", "lower"),
    ("population.vertex_correlation.s", "s", "lower"),
    ("population.signed_variation.s", "s", "lower"),
    ("phenotypes.phenotype_table.s", "s", "lower"),
    ("synth.synth_population.s", "s", "lower"),
    ("synth.voxelize.s", "s", "lower"),
    ("synth.slice_views.s", "s", "lower"),
    ("io.bytes_written", "bytes", "lower"),
    ("io.bytes_read", "bytes", "lower"),
    ("io.save_sequence.s", "s", "lower"),
    ("io.load_sequence.s", "s", "lower"),
    ("io.load_model.s", "s", "lower"),
    ("io.load_model.calls", "count", "lower"),
) + tuple((f"cli.{c}.s", "s", "lower") for c in _CLI) + (
    ("trace.overhead_pct", "%", "lower"),
)

# Set-up is repeated at least 3 times and until 2 s have been spent on it,
# at most 9 times; setup_s is the median.
SETUP_REPEATS = (3, 9, 2.0)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _make(name):
    import workloads

    return {
        "subject_fit": workloads.SubjectFit,
        "motion": workloads.Motion,
        "shape_model": workloads.ShapeModelWorkload,
        "cohort_cli": lambda: workloads.CohortCli(WORK / "cohort_cli", ROOT / "src"),
    }[name]()


def _per_layer(setup, rounds, n_rounds, overhead_pct):
    """Per-round values: set-up once plus the traced rounds' mean."""
    inclusive = setup[0] + _scaled(rounds[0], n_rounds)
    self_time = setup[1] + _scaled(rounds[1], n_rounds)
    counts = setup[2] + _scaled(rounds[2], n_rounds)
    ratios = {
        "fitting.kept_iter_frac": ("fitting.kept_iters", "fitting.run_iters"),
        "motion.kept_epoch_frac": ("motion.kept_epochs", "motion.run_epochs"),
    }
    out = {}
    for name, unit, _ in PER_LAYER:
        if name == "trace.overhead_pct":
            value = overhead_pct
        elif name in ratios:
            kept, run = ratios[name]
            value = counts[kept] / counts[run] if counts[run] else 0.0
        elif name.endswith(".self_s"):
            value = self_time[name[: -len(".self_s")]]
        elif name.endswith(".s"):
            value = inclusive[name[: -len(".s")]]
        else:
            value = counts[name]
        out[name] = {"value": value, "unit": unit}
    return out


def _scaled(counter, n):
    return Counter({k: v / n for k, v in counter.items()})


def main(argv=None):
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "cardioshape" / "__init__.py").is_file():
        print(f"error: package source not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import cardioshape
    import tracing

    tracer = tracing.Tracer()
    if args.trace:
        # before the workloads import the package's names
        tracing.install(tracer, cardioshape)
    workload = _make(args.workload)

    # Set-up: repeated untraced for the median; a traced run sets up once.
    least, most, spend = (1, 1, 0.0) if args.trace else SETUP_REPEATS
    setup_times = []
    state = None
    mark_setup = tracer.mark()
    while len(setup_times) < least or (len(setup_times) < most and sum(setup_times) < spend):
        state = None
        gc.collect()
        tracer.enabled = bool(args.trace)
        t = time.perf_counter()
        state = workload.setup(args.seed)
        setup_times.append(time.perf_counter() - t)
        tracer.enabled = False
    mark_rounds = tracer.mark()

    # Whole rounds until --seconds have passed; at least one (two in a
    # traced run: traced and untraced rounds alternate).
    attempted = failed = 0
    samples = {}
    round_times = {True: [], False: []}
    start = time.perf_counter()
    index = 0
    while True:
        traced = bool(args.trace) and index % 2 == 0
        gc.collect()
        tracer.enabled = traced
        t = time.perf_counter()
        rnd = workload.run_round(state, tracer, index)
        tracer.enabled = False
        round_times[traced].append(time.perf_counter() - t)
        attempted += rnd.attempted
        failed += rnd.failed
        for k, v in rnd.samples.items():
            samples.setdefault(k, []).extend(v)
        index += 1
        if index >= (2 if args.trace else 1) and time.perf_counter() - start >= args.seconds:
            break
    results = workload.check(state)
    if hasattr(workload, "cleanup"):
        workload.cleanup()
    correct = all(ok for ok, _ in results)
    for ok, detail in results:
        print(f"[{'ok' if ok else 'FAIL'}] {args.workload}: {detail}", file=sys.stderr)

    if args.trace:
        n_traced = len(round_times[True])
        rounds = tracer.totals(mark_rounds)
        wrapped_s = rounds[2]["trace.calls"] / n_traced * tracing.seconds_per_call()
        overhead = 100.0 * wrapped_s / statistics.median(round_times[False])
        measured = 100.0 * (
            statistics.mean(round_times[True]) / statistics.mean(round_times[False]) - 1.0
        )
        print(
            f"{args.workload}: tracing overhead {overhead:.2f}% estimated, "
            f"{measured:+.1f}% traced vs untraced rounds",
            file=sys.stderr,
        )
        metrics = _per_layer(tracer.totals(mark_setup, mark_rounds), rounds, n_traced, overhead)
        tracer.dump(RESULTS / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        all_rounds = round_times[False]
        round_s = statistics.median(all_rounds)
        setup_s = statistics.median(setup_times)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {"setup_s": setup_s, "peak_rss_mb": peak_mb}
        for name, _, _, _ in END_TO_END:
            if name not in values:
                # a stage this workload does not run reports its round time
                values[name] = statistics.median(samples[name]) if name in samples else round_s
        metrics = {n: {"value": values[n], "unit": u} for n, u, _, _ in END_TO_END}
        print(
            f"{args.workload}: {len(all_rounds)} rounds, round {round_s:.3f} s, "
            f"set-up {[round(x, 3) for x in setup_times]} s",
            file=sys.stderr,
        )
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
