"""Command-line front end tying the pipeline stages together.

Each subcommand, and each action of ``ssm`` (``ssm train``, ``ssm encode``,
...), takes only the flags it reads, plus --seed, --config <json file> and
--out <dir>.  A config file is a JSON object whose keys name the
subcommand's flags; its values replace the flags' defaults, so a flag given
on the command line wins, and a required flag comes only from the command
line.  A key that names no flag of the subcommand, and a null for a flag
whose default is not None, are rejected.  Exit codes: 0 success, 2
validation error (bad flags or bad input files), 1 runtime failure.
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
    seeded_rng,
    slice_views,
    synth_population,
    voxelize_sequence,
)


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
                f"config {args.config}: {key!r} is not a flag of {args._subparser.prog}"
            )
        if value is None and action.default is not None:
            raise cio.ValidationError(f"config {args.config}: {key!r} cannot be null")
        if action.nargs == 0 and not isinstance(value, bool):  # a store-true flag
            raise cio.ValidationError(f"config {args.config}: {key!r} must be true or false")
        n = action.nargs
        if isinstance(n, int) and n > 0 and not (isinstance(value, list) and len(value) == n):
            raise cio.ValidationError(f"config {args.config}: {key!r} must be a list of {n} items")
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


def _out(args):
    """``--out``, made if missing: asked for once the inputs have loaded."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args):
    # --modes: the age attribute reads mode weight 1; --sax: motion
    # correction needs at least 3 short-axis slices
    for flag, value, op, bound in (
        ("--subjects", args.subjects, ">=", 1),
        ("--scale", args.scale, ">", 0),
        ("--frames", args.frames, ">=", 1),
        ("--modes", args.modes, ">=", 2),
        ("--voxel-size", args.voxel_size, ">", 0),
        ("--sigma", args.sigma, ">=", 0),
        ("--sax", args.sax, ">=", 3),
        ("--pixel-spacing", args.pixel_spacing, ">", 0),
    ):
        if not (value >= bound if op == ">=" else value > bound):
            raise cio.ValidationError(f"{flag} {value}: must be {op} {bound}")
    cfg = SynthConfig(
        seed=args.seed,
        scale=args.scale,
        n_frames=args.frames,
        n_modes=args.modes,
        voxel_size=args.voxel_size,
    )
    out = _out(args)
    pop = synth_population(cfg, args.subjects)
    cio.save_sequence(out / "template", MeshSequence([pop.template]))
    geom = VolumeGeometry.for_population(pop.sequences, cfg.voxel_size)
    rng = seeded_rng(args.seed + 1)
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
            views, injected = slice_views(intens, labels, geom, specs, args.sigma, rng)
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
    out = _out(args)
    cio.save_json(
        out / "displacements.json",
        {pid: [float(d[0]), float(d[1])] for pid, d in displacements.items()},
    )
    metrics = eval_intersections(views)
    cio.save_json(out / "mc_metrics.json", {k: float(v) for k, v in metrics.items()})
    # a round is accepted when its value is below every earlier one
    accepted = trace < np.minimum.accumulate(np.r_[np.inf, trace[:-1]])
    rows = zip(range(len(trace)), trace, accepted.astype(int))
    cio.save_csv(out / "mc_trace.csv", ["round", "objective", "accepted"], rows)
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
    out = _out(args)
    cio.save_sequence(out / "meshes", seq)
    cio.save_grids(out / "grids.bin", [grids["coarse"], grids["mid"]] + grids["fine"])
    cio.save_csv(out / "loss_trace.csv", ["stage", "iteration", "loss"], trace)
    rows = []
    subject = out.name
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


def _model(args):
    """``--template``, then the shape model ``--model`` made on it."""
    template = cio.load_chamber_set(args.template)
    return template, cio.load_model(args.model, template)


def _load_frames(path, n_frames, source="the model"):
    """The mesh sequence at ``path``, which must have the ``n_frames`` frames
    of ``source``."""
    seq = cio.load_sequence(path)
    if seq.n_frames != n_frames:
        raise cio.ValidationError(f"{path}: {seq.n_frames} frames, {source} has {n_frames}")
    return seq


def cmd_ssm_train(args):
    template = cio.load_chamber_set(args.template)
    if args.batch_size < 1:
        raise cio.ValidationError("--batch-size must be >= 1")
    # Streamed: only one --batch-size group of subjects is held at a time.
    dirs = _subject_dirs(args.data)
    first = dirs[0] / "meshes"
    model = None
    for start in range(0, len(dirs), args.batch_size):
        rows = []
        for d in dirs[start : start + args.batch_size]:
            if model is None:  # the first subject sets the frame count
                seq = cio.load_sequence(first)
                topology = Topology.from_chamber_set(template, seq.n_frames)
                model = cssm.ShapeModel(n_components=args.components, topology=topology)
            else:
                seq = _load_frames(d / "meshes", model.topology.n_frames, first)
            rows.append(vectorize(_to_model_space(seq, template)))
        cssm.ipca_partial_fit(model, np.stack(rows))
    if model.n_active == 0:
        raise cio.ValidationError(f"--data {args.data}: no shape variation, so no component")
    cio.save_model(_out(args) / "model.hssm", model, model.topology)
    return 0


def cmd_ssm_encode(args):
    template, model = _model(args)
    seq = _to_model_space(_load_frames(args.meshes, model.topology.n_frames), template)
    w = cssm.encode(model, vectorize(seq))
    cio.save_features_csv(_out(args) / "descriptor.csv", w[None, :])
    return 0


def cmd_ssm_decode(args):
    _, model = _model(args)
    _, rows = cio.load_features_csv(args.weights)
    if rows.shape[1:] != (model.n_active,):
        raise cio.ValidationError(f"{args.weights}: expected {model.n_active} weights per row")
    seq = devectorize(cssm.decode(model, rows[0]), model.topology)
    cio.save_sequence(_out(args) / "meshes", seq)
    return 0


def cmd_ssm_fit_contours(args):
    _, model = _model(args)
    targets = cio.load_target_clouds(args.contours)
    contours = [dict(frame) for frame in targets.frames]
    w = cssm.fit_to_contours(model, contours)
    cio.save_features_csv(_out(args) / "descriptor.csv", w[None, :])
    return 0


def cmd_ssm_complete(args):
    template, model = _model(args)
    n = model.topology.n_frames
    seq = _load_frames(args.meshes, n)
    indices = args.observed.split(",")
    if not all(t.strip().isdecimal() and int(t) < n for t in indices):
        raise cio.ValidationError(f"--observed {args.observed!r}: frames must lie in 0..{n - 1}")
    observed = np.zeros(n, dtype=bool)
    observed[[int(t) for t in indices]] = True
    # Unobserved frames may be placeholders, so only observed ones are aligned.
    shown = np.flatnonzero(observed)
    aligned = _to_model_space(MeshSequence([seq[t] for t in shown]), template)
    frames = list(seq.frames)
    for t, frame in zip(shown, aligned.frames):
        frames[t] = frame
    full = cssm.complete_sequence(model, MeshSequence(frames), observed)
    cio.save_sequence(_out(args) / "meshes", full)
    return 0


def cmd_ssm_modes(args):
    _, model = _model(args)
    seq = cssm.sample_mode(model, args.pc, args.sd)
    cio.save_sequence(_out(args) / f"mode_{args.pc}_{args.sd:+g}sd", seq)
    return 0


def cmd_pheno(args):
    tables = []
    ids = []
    for d in _subject_dirs(args.data):
        tables.append(phenotype_table(cio.load_sequence(d / "meshes")))
        ids.append(d.name)
    cio.save_phenotype_csv(_out(args) / "phenotypes.csv", tables, ids)
    return 0


def cmd_corr(args):
    template, model = _model(args)
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
                _to_model_space(_load_frames(d / "meshes", model.topology.n_frames), template),
                mean_seq,
            )
            for d in subject_dirs
        ]
    )
    r, p, significant = vertex_correlation(fields, values[:, int(col)])
    cio.save_correlation_csv(_out(args) / "correlation.csv", model.topology, r, p, significant)
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
    cio.save_json(
        _out(args) / "retrieval.json",
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
    cio.save_json(_out(args) / "reid.json", {"k": args.k, "recall_percent": recall})
    return 0


def cmd_eval(args):
    from . import acceptance  # lazy: acceptance imports cli, and only eval needs it

    unknown = sorted(set(args.criteria or ()) - acceptance.CRITERIA.keys())
    if unknown:
        numbers = " ".join(map(str, unknown))
        raise cio.ValidationError(f"--criteria {numbers}: the criteria are 1 to {len(acceptance.CRITERIA)}")
    out = _out(args)
    results = acceptance.run_all(args.criteria, out / "eval_artifacts")
    lines = [res.line() for res in results]
    print("\n".join(lines))
    (out / "acceptance_report.txt").write_text("".join(line + "\n" for line in lines))
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(prog="cardioshape")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[], help="generate a synthetic population")
    p.add_argument("--subjects", type=int, default=10)
    p.add_argument("--scale", type=float, default=SynthConfig.scale)
    p.add_argument("--frames", type=int, default=20)
    p.add_argument("--modes", type=int, default=SynthConfig.n_modes)
    p.add_argument("--voxel-size", type=float, default=SynthConfig.voxel_size)
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
    p.add_argument("--lr", type=float, default=FitConfig.lr)
    p.add_argument("--dims-coarse", type=int, nargs=3, default=FitConfig.dims_coarse)
    p.add_argument("--dims-mid", type=int, nargs=3, default=FitConfig.dims_mid)
    p.add_argument("--dims-fine", type=int, nargs=3, default=FitConfig.dims_fine)
    _add_common(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("ssm", help="shape-model operations")
    actions = p.add_subparsers(dest="action", required=True)

    def action(name, func, what, *files):
        """An ssm action taking --template and ``files``, each a required path."""
        a = actions.add_parser(name, help=what)
        for flag in ("template",) + files:
            a.add_argument(f"--{flag}", type=Path, required=True)
        _add_common(a)
        a.set_defaults(func=func)
        return a

    a = action("train", cmd_ssm_train, "train a shape model on subject_*/meshes", "data")
    a.add_argument("--components", type=int, default=128)
    a.add_argument("--batch-size", type=int, default=128)
    action("encode", cmd_ssm_encode, "descriptor of a mesh sequence", "model", "meshes")
    action("decode", cmd_ssm_decode, "mesh sequence of a descriptor", "model", "weights")
    action("fit-contours", cmd_ssm_fit_contours,
           "descriptor of model-space (template-aligned) contours", "model", "contours")
    a = action("complete", cmd_ssm_complete, "fill in unobserved frames", "model", "meshes")
    a.add_argument("--observed", type=str, default="0")
    a = action("modes", cmd_ssm_modes, "mean plus --sd standard deviations of mode --pc", "model")
    a.add_argument("--pc", type=int, default=0)
    a.add_argument("--sd", type=float, default=2.0)

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

    p = sub.add_parser("eval", help="run the acceptance checks")
    p.add_argument("--criteria", type=int, nargs="*", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None):
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra:  # reported with the usage of the command that did not take them
        args._subparser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        args = _apply_config(parser, args, argv)
        return args.func(args)
    except (cio.ValidationError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
