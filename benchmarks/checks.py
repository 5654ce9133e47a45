"""Correctness checks of the benchmark's outputs.

Every check compares the program's answer with a computation made here,
apart from the program (scipy KD-trees, numpy SVD and least squares, an own
OBJ and CSV reader, closed-form phenotypes), or with a property the method
must have.  None compares with stored output.  Each returns
``(passed, detail)`` so a run can report what failed.
"""

import csv
from pathlib import Path

import numpy as np
from scipy.linalg import subspace_angles
from scipy.spatial import cKDTree

# Criterion 3's bound on the median displacement error, mm.
MOTION_MEDIAN_MM = 0.5
# Criterion 5's bound on the principal angle to the batch SVD, rad.
IPCA_ANGLE_RAD = 1e-6
# Bound on the relative error of each top-5 contour weight.  Criterion 7
# asks for 10% on 90% of subjects; a bound every subject must meet is wider,
# because the method's own error reaches 15% (README, "Checks").
CONTOUR_REL = 0.25
# A completion may exceed the least-squares completion's error by this
# share of the mean shape's error.
COMPLETION_SLACK = 0.02
# Fitted-mesh phenotypes against the ground truth, percentage points.
FIT_EF_POINTS = {"LVEF": 5.0, "RVEF": 10.0}
# Ground-truth phenotypes against the closed form, relative.
ANALYTIC_EF_REL = 1e-9


def _result(ok, detail):
    return bool(ok), detail


# ---------------------------------------------------------------------------
# surfaces


def symmetric_nn_mm(a, b):
    """Mean of both directed mean nearest-neighbour distances of two clouds."""
    d_ab = cKDTree(b).query(a)[0]
    d_ba = cKDTree(a).query(b)[0]
    return 0.5 * (d_ab.mean() + d_ba.mean())


def assd_mm(a, b):
    """Average symmetric surface distance: mean of the pooled distances."""
    d_ab = cKDTree(b).query(a)[0]
    d_ba = cKDTree(a).query(b)[0]
    return float(np.concatenate([d_ab, d_ba]).mean())


def check_fit(template, fitted_frames, target_frames, losses):
    """Subject fit: connectivity kept, finite losses, closer than the template.

    ``fitted_frames`` and ``target_frames`` hold one ``{structure: (n, 3)}``
    dict per frame; ``template`` maps structure to ``(vertices, faces)`` and
    the fitted frames to ``(vertices, faces)`` too.
    """
    for t, frame in enumerate(fitted_frames):
        for s, (verts, faces) in frame.items():
            t_verts, t_faces = template[s]
            if verts.shape != t_verts.shape or not np.array_equal(faces, t_faces):
                return _result(False, f"frame {t} {s}: connectivity changed")
    if not np.all(np.isfinite(losses)):
        return _result(False, "non-finite loss in the trace")
    fit_d = []
    tpl_d = []
    for frame, targets in zip(fitted_frames, target_frames):
        for s, pts in targets.items():
            fit_d.append(symmetric_nn_mm(frame[s][0], pts))
            tpl_d.append(symmetric_nn_mm(template[s][0], pts))
    fit_mean = float(np.mean(fit_d))
    tpl_mean = float(np.mean(tpl_d))
    return _result(
        fit_mean < tpl_mean,
        f"fit-to-target {fit_mean:.4f} mm vs template {tpl_mean:.4f} mm",
    )


# ---------------------------------------------------------------------------
# motion correction


def gauge_free_errors(axes, recovered, injected):
    """Per-plane displacement errors with the common 3-D shift removed.

    The alignment objective cannot see a translation of the whole scene:
    shifting every plane by the in-plane projection of one 3-D vector leaves
    every intersection consistent.  That vector is fitted by least squares
    to the raw errors ``recovered + injected`` and taken out.  ``axes`` maps
    plane id to its ``(axis_u, axis_v)``.
    """
    ids = sorted(axes)
    a = np.concatenate([np.stack(axes[k]) for k in ids])
    e = np.concatenate([np.asarray(recovered[k]) + np.asarray(injected[k]) for k in ids])
    shift, *_ = np.linalg.lstsq(a, e, rcond=None)
    residual = (e - a @ shift).reshape(-1, 2)
    return np.linalg.norm(residual, axis=1), np.linalg.norm(e.reshape(-1, 2), axis=1)


def check_motion(view_results):
    """Pooled gauge-free median under 0.5 mm; intersections more consistent.

    ``view_results`` holds per view set ``(axes, recovered, injected,
    before, after)``, the last two being ``eval_intersections`` results.
    Intensity correlation must rise on every view set and Dice on average.
    Dice is not required to rise on every view set: the program averages
    Dice over labels unweighted, so a label seen at a handful of samples
    can pull one view set's Dice down while every populated label improves
    (CHANGES.md, FOUND).
    """
    free = []
    raw = []
    r_worse = 0
    dice_worse = 0
    dice_gain = []
    for axes, recovered, injected, before, after in view_results:
        f, r = gauge_free_errors(axes, recovered, injected)
        free.extend(f)
        raw.extend(r)
        r_worse += not after["pearson_r"] > before["pearson_r"]
        dice_worse += not after["dice"] > before["dice"]
        dice_gain.append(after["dice"] - before["dice"])
    median_free = float(np.median(free))
    median_raw = float(np.median(raw))
    mean_gain = float(np.mean(dice_gain))
    ok = median_free < MOTION_MEDIAN_MM and r_worse == 0 and mean_gain > 0
    return _result(
        ok,
        f"gauge-free median {median_free:.3f} mm (raw {median_raw:.3f} mm), "
        f"r not improved on {r_worse}/{len(view_results)} view sets, "
        f"mean Dice gain {mean_gain:+.3f} (not improved on {dice_worse})",
    )


# ---------------------------------------------------------------------------
# shape model


def check_components(components, rows, k):
    """Leading ``k`` components span what a batch SVD of the rows spans."""
    centred = rows - rows.mean(axis=0)
    _, _, vt = np.linalg.svd(centred, full_matrices=False)
    angle = float(subspace_angles(components[:k].T, vt[:k].T).max())
    return _result(angle < IPCA_ANGLE_RAD, f"max principal angle {angle:.2e} rad over {k} components")


def check_contour_weights(recovered, true):
    """Each of the top-5 weights within 25% of the generating weight."""
    rel = np.abs(recovered[:5] - true[:5]) / np.abs(true[:5])
    return _result(
        bool(np.all(rel < CONTOUR_REL)),
        f"top-5 relative errors max {rel.max():.3f}, {int((rel >= 0.10).sum())} of 5 at 10% or more",
    )


def lstsq_completion(mean, components, scale, observed_rows, target):
    """Whitened minimum-norm least-squares weights over the observed rows."""
    a = components[:, observed_rows].T * scale
    z, *_ = np.linalg.lstsq(a, target[observed_rows] - mean[observed_rows], rcond=None)
    return scale * z


def mean_vertex_error(vec, truth):
    return float(np.linalg.norm((vec - truth).reshape(-1, 3), axis=1).mean())


def check_completion(completed, reference, mean, truth):
    """Completion near the least-squares completion and better than the mean.

    All arguments are full-sequence coordinate vectors; errors are mean
    per-vertex distances to ``truth`` in mm.
    """
    err = mean_vertex_error(completed, truth)
    err_ref = mean_vertex_error(reference, truth)
    err_mean = mean_vertex_error(mean, truth)
    ok = err <= err_ref + COMPLETION_SLACK * err_mean and err < err_mean
    return _result(
        ok,
        f"completion error {err:.4f} mm, least squares {err_ref:.4f} mm, mean shape {err_mean:.4f} mm",
    )


def check_analytics(single, random_two, recall_self, null_share, r, fields, attribute):
    """Criterion 9's properties plus per-vertex r against numpy.corrcoef.

    ``random_two`` is precision on random two-group labels; it must lie
    within 6 points of 50% (its standard deviation over 150 seeds of the
    400-subject data is 1.0 point).
    """
    ref = np.array([np.corrcoef(fields[:, j], attribute)[0, 1] for j in range(fields.shape[1])])
    ref = np.nan_to_num(ref)
    r_err = float(np.abs(r - ref).max())
    ok = (
        single == 100.0
        and abs(random_two - 50.0) <= 6.0
        and recall_self == 100.0
        and null_share <= 0.001
        and r_err < 1e-12
    )
    return _result(
        ok,
        f"single-group {single:.1f}%, random two-group {random_two:.2f}%, "
        f"self recall@1 {recall_self:.1f}%, null significant {100 * null_share:.3f}%, "
        f"r vs corrcoef {r_err:.1e}",
    )


# ---------------------------------------------------------------------------
# files written by the command line


def read_obj_vertices(path):
    verts = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("v "):
                verts.append([float(x) for x in line.split()[1:4]])
    return np.array(verts)


def read_sequence_vertices(directory, structures):
    """``[{structure: (n, 3)}]`` per frame from a sequence directory of OBJs."""
    directory = Path(directory)
    frames = []
    t = 0
    while (directory / f"frame_{t:03d}_{structures[0]}.obj").exists():
        frames.append(
            {s: read_obj_vertices(directory / f"frame_{t:03d}_{s}.obj") for s in structures}
        )
        t += 1
    return frames


def subject_assd(fitted, truth):
    """Mean over frames and structures of the ASSD between two sequences."""
    values = [
        assd_mm(f[s], g[s]) for f, g in zip(fitted, truth) for s in f
    ]
    return float(np.mean(values))


def read_phenotypes(path):
    """``{subject_id: {column: value}}`` with units stripped from headers."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    names = [h.split(" (")[0] for h in rows[0][1:]]
    return {row[0]: dict(zip(names, map(float, row[1:]))) for row in rows[1:]}


def analytic_ef(motion_scale, rel, n_frames, amplitude=0.16):
    """Ejection fraction of a structure contracted by ``f`` about its centre.

    Volume scales with ``f**3``; ``f`` is smallest where ``sin**2`` of the
    phase is largest.
    """
    peak = max(np.sin(np.pi * t / (n_frames - 1)) ** 2 for t in range(n_frames))
    f_min = 1.0 - amplitude * motion_scale * rel * peak
    return 100.0 * (1.0 - f_min**3)


def check_ground_truth_ef(table, motion_scales, n_frames):
    """LVEF and RVEF of the synthetic meshes equal the closed form."""
    worst = 0.0
    for sid, scale in motion_scales.items():
        for column, rel in (("LVEF", 1.0), ("RVEF", 0.8)):
            expected = analytic_ef(scale, rel, n_frames)
            worst = max(worst, abs(table[sid][column] - expected) / expected)
    return _result(worst < ANALYTIC_EF_REL, f"EF vs closed form rel {worst:.1e}")


def check_fitted_ef(fitted, truth):
    """Fitted-mesh LVEF and RVEF within the stated points of the truth."""
    worst = {c: 0.0 for c in FIT_EF_POINTS}
    for sid, row in truth.items():
        for column in FIT_EF_POINTS:
            worst[column] = max(worst[column], abs(fitted[sid][column] - row[column]))
    ok = all(worst[c] <= FIT_EF_POINTS[c] for c in FIT_EF_POINTS)
    return _result(
        ok, ", ".join(f"{c} off by {worst[c]:.2f} points" for c in FIT_EF_POINTS)
    )


def check_assd(values, voxel_mm):
    worst = max(values)
    return _result(worst < 0.5 * voxel_mm, f"worst subject ASSD {worst:.3f} mm (voxel {voxel_mm} mm)")


def descriptors_equal(a, b):
    """Same descriptor up to rounding: within 1e-6 of its norm."""
    a = np.asarray(a)
    b = np.asarray(b)
    return bool(np.abs(a - b).max() <= 1e-6 * max(1.0, float(np.linalg.norm(a))))
