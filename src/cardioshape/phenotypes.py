"""Shape-derived phenotypes from fitted mesh sequences.

Volumes come from the signed-tetrahedron sum over closed surfaces;
end-diastole and end-systole are the frames of maximal and minimal LV cavity
volume.  LV mass uses the epi-minus-endo shell at ED with the conventional
myocardial density of 1.05 g/mL.
"""

from dataclasses import dataclass, fields

import numpy as np

MYOCARDIAL_DENSITY_G_PER_ML = 1.05

# (chamber, structure, names of its largest and smallest volume)
CHAMBERS = (
    ("LV", "LV-endo", "EDV", "ESV"),
    ("RV", "RV", "EDV", "ESV"),
    ("LA", "LA", "MAXV", "MINV"),
    ("RA", "RA", "MAXV", "MINV"),
)


@dataclass
class PhenotypeTable:
    LVM: float
    LVEDV: float
    LVESV: float
    RVEDV: float
    RVESV: float
    LAMAXV: float
    LAMINV: float
    RAMAXV: float
    RAMINV: float
    LVSV: float
    RVSV: float
    LASV: float
    RASV: float
    LVEF: float
    RVEF: float
    LAEF: float
    RAEF: float
    LVWT_mean: float
    LVWT_max: float

    # one per field, in field order
    UNITS = (
        "g", "mL", "mL", "mL", "mL",
        "mL", "mL", "mL", "mL",
        "mL", "mL", "mL", "mL",
        "%", "%", "%", "%",
        "mm", "mm",
    )

    def as_row(self):
        return [getattr(self, f.name) for f in fields(self)]


def _volumes(mesh, frames):
    """Enclosed volumes (mL) of ``mesh``'s closed, consistently oriented
    connectivity at each (n, 3) vertex array of ``frames``."""
    n_boundary = mesh.boundary_edge_count()
    if n_boundary:
        raise ValueError(
            f"mesh {mesh.structure_id} is open ({n_boundary} boundary edges)"
        )
    f = mesh.faces
    return [
        abs(np.einsum("ij,ij->i", np.cross(v[f[:, 0]], v[f[:, 1]]), v[f[:, 2]]).sum() / 6.0) * 1e-3
        for v in frames
    ]


def mesh_volume(mesh):
    """Enclosed volume of a closed, consistently oriented mesh in mL."""
    return _volumes(mesh, [mesh.vertices])[0]


def volume_curve(seq, structure):
    """Per-frame enclosed volume (mL) of one structure; the frames share one
    connectivity, so it is checked for closedness once."""
    return np.array(_volumes(seq.frames[0][structure], [fr[structure].vertices for fr in seq.frames]))


def wall_thickness(endo, epi):
    """Per-vertex distance between corresponding endo/epi vertices (mm)."""
    if endo.n_vertices != epi.n_vertices:
        raise ValueError("endo and epi must have equal vertex counts")
    d = np.linalg.norm(epi.vertices - endo.vertices, axis=1)
    return d, {"mean": float(d.mean()), "max": float(d.max())}


def phenotype_table(seq):
    """All scalar phenotypes of one subject's sequence."""
    curves = {s: volume_curve(seq, s) for _, s, _, _ in CHAMBERS}
    ed = int(np.argmax(curves["LV-endo"]))
    values = {}
    for name, structure, high, low in CHAMBERS:
        c = curves[structure]
        maxv = float(c.max())
        minv = float(c.min())
        sv = maxv - minv
        values[f"{name}{high}"] = maxv
        values[f"{name}{low}"] = minv
        values[f"{name}SV"] = sv
        values[f"{name}EF"] = 100.0 * sv / maxv
    ed_frame = seq.frames[ed]
    epi_vol = mesh_volume(ed_frame["LV-epi"])
    endo_vol = mesh_volume(ed_frame["LV-endo"])
    values["LVM"] = (epi_vol - endo_vol) * MYOCARDIAL_DENSITY_G_PER_ML
    _, wt = wall_thickness(ed_frame["LV-endo"], ed_frame["LV-epi"])
    values["LVWT_mean"] = wt["mean"]
    values["LVWT_max"] = wt["max"]
    return PhenotypeTable(**values)
