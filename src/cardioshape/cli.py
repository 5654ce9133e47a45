"""Command-line front end tying the pipeline stages together.

Every subcommand accepts --seed, --config <json file> and --out <dir>.
A config file is a JSON object whose keys name the subcommand's flags; its
values replace the flags' defaults, so a flag given on the command line
wins.  A key that names no flag of the subcommand is rejected.  Exit codes:
0 success, 2 validation error (bad flags or bad input files), 1 runtime
failure.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import io as cio
from . import ssm as cssm
from .fitting import FitConfig, fit_sequence
from .mesh import STRUCTURES, MeshSequence, Topology, devectorize, rigid_align, vectorize
from .motion import eval_intersections, mc_optimize
from .objectives import TargetClouds, surface_distances
from .phenotypes import phenotype_table
from .population import (
    FeatureMatrix,
    precision_at_k,
    recall_at_k,
    signed_variation,
    truncate_descriptor,
    vertex_correlation,
)
from .synth import (
    SynthConfig,
    VolumeGeometry,
    default_view_specs,
    intensity_volume,
    make_texture,
    slice_views,
    synth_population,
    voxelize_sequence,
)


class _Args(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(2)


def _add_common(p):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", type=Path, default=None)
    p.add_argument("--out", type=Path, default=Path("."))
    p.set_defaults(_subparser=p)


def _apply_config(parser, args, argv):
    """Parse ``argv`` again with the config file's values as the subcommand's
    defaults, so that flags given explicitly still win."""
    if args.config is None:
        return args
    try:
        values = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise cio.ValidationError(f"cannot read config {args.config}: {exc}")
    if not isinstance(values, dict):
        raise cio.ValidationError(f"config {args.config}: not a JSON object")
    actions = {a.dest: a for a in args._subparser._actions if a.dest != "help"}
    defaults = {}
    for key, value in values.items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise cio.ValidationError(
                f"config {args.config}: {key!r} is not a flag of {args.command}"
            )
        if action.type is not None and value is not None:
            try:  # as if typed on the command line, item by item for a list flag
                if action.nargs:
                    value = [action.type(str(v)) for v in value]
                else:
                    value = action.type(str(value))
            except (TypeError, ValueError) as exc:
                raise cio.ValidationError(f"config {args.config}: {key!r}: {exc}") from exc
        defaults[action.dest] = value
    args._subparser.set_defaults(**defaults)
    return parser.parse_args(argv)


def _rng(seed):
    return np.random.Generator(np.random.Philox(seed))


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args):
    cfg = SynthConfig(
        seed=args.seed,
        scale=args.scale,
        n_frames=args.frames,
        n_modes=args.modes,
        voxel_size=args.voxel_size,
        displacement_sigma=args.sigma,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    pop = synth_population(cfg, args.subjects)
    cio.save_sequence(out / "template", MeshSequence([pop.template]))
    geom = VolumeGeometry.for_population(pop.sequences, cfg.voxel_size)
    rng = _rng(args.seed + 1)
    texture = make_texture(geom.dims, rng)
    specs = default_view_specs(geom, n_sax=args.sax, pixel_spacing=args.pixel_spacing)
    ground_truth = {"subjects": {}}
    for i, seq in enumerate(pop.sequences):
        subj = out / f"subject_{i:03d}"
        subj.mkdir(parents=True, exist_ok=True)
        cio.save_sequence(subj / "meshes", seq)
        targets = TargetClouds.from_sequence(seq)
        cio.save_target_clouds(subj / "targets.bin", targets)
        truth = {
            "mode_weights": [float(x) for x in pop.weights[i]],
            "motion_scale": float(pop.motion_scales[i]),
        }
        ground_truth["subjects"][str(i)] = truth
        if args.views or args.volumes:
            labels = voxelize_sequence(seq, geom)
            if args.volumes:
                cio.save_volume(subj / "labels.bin", labels, geom)
        if args.views:
            intens = [
                intensity_volume(labels[t], texture=texture)
                for t in range(cfg.n_frames)
            ]
            if args.volumes:
                cio.save_volume(subj / "intensity.bin", np.stack(intens), geom)
            views, injected = slice_views(
                intens, labels, geom, specs, cfg.displacement_sigma, rng
            )
            cio.save_views(subj / "views.bin", views)
            truth["injected_displacements"] = {
                k: [float(v[0]), float(v[1])] for k, v in injected.items()
            }
    attrs = {k: [float(x) for x in v] for k, v in pop.attributes.items()}
    ground_truth["attributes"] = attrs
    cio.save_json(out / "ground_truth.json", ground_truth)
    return 0


def cmd_mc(args):
    views = cio.load_views(args.views)
    displacements, trace = mc_optimize(views, epochs=args.epochs)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cio.save_json(
        out / "displacements.json",
        {pid: [float(d[0]), float(d[1])] for pid, d in displacements.items()},
    )
    metrics = eval_intersections(views)
    cio.save_json(out / "mc_metrics.json", {k: float(v) for k, v in metrics.items()})
    return 0


def cmd_fit(args):
    template = cio.load_chamber_set(args.template)
    targets = cio.load_target_clouds(args.targets)
    if set(targets.structures()) != set(STRUCTURES):
        raise cio.ValidationError(f"--targets {args.targets}: must cover all five structures")
    cfg = FitConfig(
        dims_coarse=tuple(args.dims_coarse),
        dims_mid=tuple(args.dims_mid),
        dims_fine=tuple(args.dims_fine),
        iterations=args.iterations,
        lr=args.lr,
    )
    seq, grids, trace = fit_sequence(template, targets, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cio.save_sequence(out / "meshes", seq)
    cio.save_grids(out / "grids.bin", [grids["coarse"], grids["mid"]] + grids["fine"])
    cio.save_csv(out / "loss_trace.csv", ["stage", "iteration", "loss"], trace)
    rows = []
    subject = Path(args.out).name
    for t in range(seq.n_frames):
        for s in STRUCTURES:
            sd = surface_distances(seq.frames[t][s].vertices, targets.points(t, s))
            rows.append((subject, t, s, "assd", sd["assd"]))
            rows.append((subject, t, s, "hd90", sd["hd90"]))
    cio.save_metric_csv(out / "fit_metrics.csv", rows)
    return 0


def _subject_dirs(data_dir):
    data_dir = Path(data_dir)
    subject_dirs = sorted(
        d for d in data_dir.iterdir() if d.is_dir() and d.name.startswith("subject_")
    )
    if not subject_dirs:
        raise cio.ValidationError(f"{data_dir}: no subject_* directories")
    return subject_dirs


def _to_model_space(seq, template):
    """Rigidly align every frame to the template (Umeyama 1991).

    The shape model lives in this space: training, encoding, completion and
    correlation maps all map meshes through here, so a rigidly moved subject
    gets the same descriptor.  Frames are aligned one by one, which also
    discards whole-heart translation over the cycle.
    """
    return MeshSequence([rigid_align(frame, template)[2] for frame in seq.frames])


# The files each ssm action reads, besides --template.
_SSM_FLAGS = {
    "train": ("data",),
    "encode": ("model", "meshes"),
    "decode": ("model", "weights"),
    "fit-contours": ("model", "contours"),
    "complete": ("model", "meshes"),
    "modes": ("model",),
}


def cmd_ssm(args):
    missing = [f"--{f}" for f in _SSM_FLAGS[args.action] if getattr(args, f) is None]
    if missing:
        raise cio.ValidationError(f"ssm {args.action} needs {' and '.join(missing)}")
    template = cio.load_chamber_set(args.template)
    if args.action == "train":
        if args.batch_size < 1:
            raise cio.ValidationError("--batch-size must be >= 1")
        # Streamed: only one --batch-size group of subjects is held at a time.
        dirs = _subject_dirs(args.data)
        model = None
        for start in range(0, len(dirs), args.batch_size):
            batch = np.stack(
                [
                    vectorize(_to_model_space(cio.load_sequence(d / "meshes"), template))
                    for d in dirs[start : start + args.batch_size]
                ]
            )
            if model is None:
                n_frames = batch.shape[1] // (3 * template.total_vertices)
                topology = Topology.from_chamber_set(template, n_frames)
                model = cssm.ShapeModel(n_components=args.components, topology=topology)
            cssm.ipca_partial_fit(model, batch)
        if model.n_active == 0:
            raise cio.ValidationError(f"--data {args.data}: no shape variation, so no component")
        Path(args.out).mkdir(parents=True, exist_ok=True)
        cio.save_model(Path(args.out) / "model.hssm", model, model.topology)
        return 0

    model = cio.load_model(args.model, template)
    out = Path(args.out)  # made only once the inputs have loaded
    out.mkdir(parents=True, exist_ok=True)
    topology = model.topology
    if args.action == "encode":
        seq = _to_model_space(cio.load_sequence(args.meshes), template)
        w = cssm.encode(model, vectorize(seq))
        cio.save_features_csv(out / "descriptor.csv", w[None, :])
        return 0
    if args.action == "decode":
        _, rows = cio.load_features_csv(args.weights)
        if rows.shape[1:] != (model.n_active,):
            raise cio.ValidationError(f"{args.weights}: expected {model.n_active} weights per row")
        seq = devectorize(cssm.decode(model, rows[0]), topology)
        cio.save_sequence(out / "meshes", seq)
        return 0
    if args.action == "fit-contours":
        targets = cio.load_target_clouds(args.contours)
        contours = [dict(frame) for frame in targets.frames]
        w = cssm.fit_to_contours(model, contours)
        cio.save_features_csv(out / "descriptor.csv", w[None, :])
        return 0
    if args.action == "complete":
        seq = cio.load_sequence(args.meshes)
        if seq.n_frames != topology.n_frames:
            raise cio.ValidationError(
                f"{args.meshes}: {seq.n_frames} frames, the model has {topology.n_frames}"
            )
        n = topology.n_frames
        indices = args.observed.split(",")
        if not all(t.strip().isdecimal() and int(t) < n for t in indices):
            raise cio.ValidationError(
                f"--observed {args.observed!r}: frames must lie in 0..{n - 1}"
            )
        observed = np.zeros(n, dtype=bool)
        observed[[int(t) for t in indices]] = True
        # Unobserved frames may be placeholders, so only observed ones are aligned.
        shown = np.flatnonzero(observed)
        aligned = _to_model_space(MeshSequence([seq[t] for t in shown]), template)
        frames = list(seq.frames)
        for t, frame in zip(shown, aligned.frames):
            frames[t] = frame
        full = cssm.complete_sequence(model, MeshSequence(frames), observed)
        cio.save_sequence(out / "meshes", full)
        return 0
    if args.action == "modes":
        seq = cssm.sample_mode(model, args.pc, args.sd)
        cio.save_sequence(out / f"mode_{args.pc}_{args.sd:+g}sd", seq)
        return 0


def cmd_pheno(args):
    tables = []
    ids = []
    for d in _subject_dirs(args.data):
        mesh_dir = d / "meshes" if (d / "meshes").exists() else d
        seq = cio.load_sequence(mesh_dir)
        tables.append(phenotype_table(seq))
        ids.append(d.name)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cio.save_phenotype_csv(out / "phenotypes.csv", tables, ids)
    return 0


def cmd_corr(args):
    template = cio.load_chamber_set(args.template)
    model = cio.load_model(args.model, template)
    subject_dirs = _subject_dirs(args.data)
    _, values = cio.load_features_csv(args.attributes)
    if len(values) != len(subject_dirs):
        raise cio.ValidationError(
            f"{args.attributes}: {len(values)} attribute rows for "
            f"{len(subject_dirs)} subject_* directories in {args.data}"
        )
    n_cols = values.shape[1]
    col = args.attribute[1:] if args.attribute.startswith("f") else args.attribute
    if not (col.isdecimal() and int(col) < n_cols):
        raise cio.ValidationError(
            f"--attribute {args.attribute!r}: {args.attributes} has {n_cols} columns, "
            f"so give f<j> or <j> with 0 <= j < {n_cols}"
        )
    mean_seq = devectorize(model.mean, model.topology)
    fields = np.stack(
        [
            signed_variation(
                _to_model_space(cio.load_sequence(d / "meshes"), template), mean_seq
            )
            for d in subject_dirs
        ]
    )
    r, p, significant = vertex_correlation(fields, values[:, int(col)])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cio.save_correlation_csv(out / "correlation.csv", model.topology, r, p, significant)
    return 0


def _truncated(features, pcs):
    """The first ``--pcs`` descriptor columns, or all of them when not given."""
    if pcs is None:
        return features
    try:
        return truncate_descriptor(features, pcs)
    except ValueError as exc:
        raise cio.ValidationError(f"--pcs: {exc}") from None


def cmd_retrieve(args):
    _, values = cio.load_features_csv(args.features)
    _, groups = cio.load_groups_csv(args.groups)
    n = len(values)
    if len(groups) != n:
        raise cio.ValidationError(
            f"--groups {args.groups}: {len(groups)} rows for the {n} subjects in {args.features}"
        )
    # a subject is never among its own candidates
    if not 1 <= args.k <= n - 1:
        raise cio.ValidationError(
            f"--k {args.k}: {args.features} has {n} subjects, so give 1 <= k <= {n - 1}"
        )
    if args.queries < 1:
        raise cio.ValidationError(f"--queries {args.queries}: must be >= 1")
    features = _truncated(FeatureMatrix(values), args.pcs)
    precision = precision_at_k(
        features, groups, args.k, n_queries=args.queries, seed=args.seed
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cio.save_json(
        out / "retrieval.json",
        {"k": args.k, "n_queries": args.queries, "precision_percent": precision},
    )
    return 0


def cmd_reid(args):
    _, v1 = cio.load_features_csv(args.features_t1)
    _, v2 = cio.load_features_csv(args.features_t2)
    if v1.shape != v2.shape:
        raise cio.ValidationError(
            f"--features-t1 {args.features_t1} is {' x '.join(map(str, v1.shape))} but "
            f"--features-t2 {args.features_t2} is {' x '.join(map(str, v2.shape))} "
            "(subjects x features); they must match"
        )
    n = len(v1)
    if not 1 <= args.k <= n:
        raise cio.ValidationError(
            f"--k {args.k}: {args.features_t1} has {n} subjects, so give 1 <= k <= {n}"
        )
    f1 = _truncated(FeatureMatrix(v1), args.pcs)
    f2 = _truncated(FeatureMatrix(v2), args.pcs)
    recall = recall_at_k(f1, f2, args.k)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cio.save_json(out / "reid.json", {"k": args.k, "recall_percent": recall})
    return 0


def cmd_eval(args):
    from . import acceptance  # lazy: acceptance imports cli, and only eval needs it

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    results = acceptance.run_all(
        only=args.criteria, workdir=out / "eval_artifacts"
    )
    lines = []
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        line = f"[{status}] criterion {res.number}: {res.name} ({res.runtime:.1f}s) {res.detail}"
        print(line)
        lines.append(line + "\n")
    (out / "acceptance_report.txt").write_text("".join(lines))
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------


def build_parser():
    parser = _Args(prog="cardioshape")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[], help="generate a synthetic population")
    p.add_argument("--subjects", type=int, default=10)
    p.add_argument("--scale", type=float, default=0.1)
    p.add_argument("--frames", type=int, default=20)
    p.add_argument("--modes", type=int, default=6)
    p.add_argument("--voxel-size", type=float, default=2.0)
    p.add_argument("--sigma", type=float, default=2.0)
    p.add_argument("--sax", type=int, default=7)
    p.add_argument("--pixel-spacing", type=float, default=2.0)
    p.add_argument("--views", action="store_true")
    p.add_argument("--volumes", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("mc", help="motion-correct a view set")
    p.add_argument("--views", type=Path, required=True)
    p.add_argument("--epochs", type=int, default=1000, help="at most this many rounds")
    _add_common(p)
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("fit", help="fit the template to target clouds")
    p.add_argument("--template", type=Path, required=True)
    p.add_argument("--targets", type=Path, required=True)
    p.add_argument("--iterations", type=int, default=200)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--dims-coarse", type=int, nargs=3, default=[6, 6, 8])
    p.add_argument("--dims-mid", type=int, nargs=3, default=[12, 12, 16])
    p.add_argument("--dims-fine", type=int, nargs=3, default=[24, 24, 32])
    _add_common(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("ssm", help="shape-model operations")
    p.add_argument("action", choices=[
        "train", "encode", "decode", "fit-contours", "complete", "modes"
    ])
    p.add_argument("--data", type=Path)
    p.add_argument("--template", type=Path, required=True)
    p.add_argument("--model", type=Path)
    p.add_argument("--meshes", type=Path)
    p.add_argument("--weights", type=Path)
    p.add_argument(
        "--contours", type=Path,
        help="fit-contours: target-clouds file of model-space (template-aligned) points, used as given",
    )
    p.add_argument("--observed", type=str, default="0")
    p.add_argument("--components", type=int, default=128)
    p.add_argument("--batch-size", type=int, default=128)
    p.add_argument("--pc", type=int, default=0)
    p.add_argument("--sd", type=float, default=2.0)
    _add_common(p)
    p.set_defaults(func=cmd_ssm)

    p = sub.add_parser("pheno", help="phenotype table for fitted sequences")
    p.add_argument("--data", type=Path, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_pheno)

    p = sub.add_parser("corr", help="vertex-wise attribute correlation maps")
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--template", type=Path, required=True)
    p.add_argument("--attributes", type=Path, required=True)
    p.add_argument("--attribute", type=str, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_corr)

    p = sub.add_parser("retrieve", help="group retrieval precision@K")
    p.add_argument("--features", type=Path, required=True)
    p.add_argument("--groups", type=Path, required=True)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--queries", type=int, default=5000)
    p.add_argument("--pcs", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("reid", help="longitudinal re-identification recall@K")
    p.add_argument("--features-t1", type=Path, required=True)
    p.add_argument("--features-t2", type=Path, required=True)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--pcs", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_reid)

    p = sub.add_parser("eval", help="run verification suites")
    p.add_argument("--suite", choices=("acceptance",), default="acceptance")
    p.add_argument("--criteria", type=int, nargs="*", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _apply_config(parser, args, argv)
        return args.func(args)
    except cio.ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
