"""Synthetic ground-truth generator.

Builds parametric five-structure heart templates, populations with known
shape modes and prescribed periodic motion, voxelised label volumes, smooth
intensity volumes, and multi-view slice stacks with recorded injected
misalignments.  Everything is deterministic per seed, which makes these
outputs usable as oracles for the rest of the toolkit.
"""

from dataclasses import KW_ONLY, dataclass

import numpy as np
from scipy.ndimage import gaussian_filter
from scipy.spatial import ConvexHull

from .mesh import (
    STRUCTURES,
    ChamberSet,
    MeshSequence,
    TriMesh,
    inflate_along_normals,
    mean_curvature,
    vertex_normals,
)
from .motion import SlicePlane, ViewSet

# Full-resolution per-structure vertex budgets; scaled variants round these.
FULL_SCALE_BUDGETS = (6141, 6141, 5696, 4305, 4751)

# Ellipsoid semi-axes and centres (mm) of the five structures.  LV-epi is not
# listed: it is built by inflating LV-endo so the two correspond index-wise.
_ANATOMY = {
    "LV-endo": ((20.0, 20.0, 30.0), (-18.0, 0.0, -14.0)),
    "RV": ((12.0, 18.0, 26.0), (26.0, 2.0, -12.0)),
    "LA": ((14.0, 14.0, 12.0), (-16.0, 4.0, 40.0)),
    "RA": ((12.0, 13.0, 11.0), (26.0, 2.0, 32.0)),
}

_EPI_OFFSET_MM = 8.0

# Structure label values in voxelised volumes (0 = background).
STRUCTURE_LABELS = {s: i + 1 for i, s in enumerate(STRUCTURES)}

# Relative contraction amplitude and phase per structure; atria fill while
# the ventricles contract.
_MOTION = {
    "LV-endo": (1.0, 0.0),
    "LV-epi": (0.5, 0.0),
    "RV": (0.8, 0.0),
    "LA": (0.6, np.pi / 2),
    "RA": (0.6, np.pi / 2),
}

# Standard deviation of the subjects' shape-mode weights.
MODE_AMPLITUDE = 2.0
# Peak radial contraction at relative amplitude 1 and motion scale 1.
MOTION_AMPLITUDE = 0.16
# Relative spread of the per-subject contraction amplitude.  Makes motion
# a genuine subject trait: the first frame (motion factor 1) cannot
# reveal it, so completing a sequence from one frame is truly ambiguous.
MOTION_JITTER = 0.25


def seeded_rng(seed):
    """The toolkit's random generator: Philox, counter-based and so the same
    stream on every platform, from an int or a ``SeedSequence``."""
    return np.random.Generator(np.random.Philox(seed))


@dataclass
class SynthConfig:
    _: KW_ONLY
    seed: int
    scale: float = 0.1
    budgets: tuple = None
    n_modes: int = 6
    n_frames: int
    voxel_size: float = 2.0
    displacement_sigma: float = 2.0

    def __post_init__(self):
        if self.budgets is None:
            self.budgets = tuple(
                max(12, int(round(b * self.scale))) for b in FULL_SCALE_BUDGETS
            )
        if self.displacement_sigma < 0:
            raise ValueError("displacement_sigma must be >= 0")
        if self.n_frames < 1:
            raise ValueError("n_frames must be >= 1")


@dataclass
class Population:
    """A generated cohort with its ground truth."""

    template: ChamberSet
    curvatures: dict
    sequences: list
    weights: np.ndarray
    attributes: dict
    motion_scales: np.ndarray


_ICO_COUNTS = {12: 0, 42: 1, 162: 2, 642: 3, 2562: 4, 10242: 5}


def icosphere(subdivisions, structure_id="LV-endo"):
    """Unit icosphere with outward counter-clockwise faces."""
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
            [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
            [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
        ],
        dtype=np.float64,
    )
    verts /= np.linalg.norm(verts, axis=1)[:, None]
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    verts = list(verts)
    for _ in range(subdivisions):
        cache = {}

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in cache:
                p = verts[i] + verts[j]
                verts.append(p / np.linalg.norm(p))
                cache[key] = len(verts) - 1
            return cache[key]

        new_faces = []
        for a, b, c in faces:
            ab = midpoint(a, b)
            bc = midpoint(b, c)
            ca = midpoint(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new_faces
    return TriMesh(np.array(verts), np.array(faces), structure_id)


def sphere_mesh(n_vertices, structure_id):
    """Closed unit-sphere mesh with exactly ``n_vertices`` vertices.

    Uses an icosphere when the count matches a subdivision level, otherwise a
    Fibonacci lattice triangulated by its convex hull (every lattice point is
    in convex position, so all vertices are used).
    """
    if n_vertices in _ICO_COUNTS:
        return icosphere(_ICO_COUNTS[n_vertices], structure_id)
    if n_vertices < 12:
        raise ValueError("sphere_mesh needs at least 12 vertices")
    k = np.arange(n_vertices, dtype=np.float64)
    ga = np.pi * (3.0 - np.sqrt(5.0))
    z = 1.0 - 2.0 * (k + 0.5) / n_vertices
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    theta = ga * k
    verts = np.column_stack([r * np.cos(theta), r * np.sin(theta), z])
    hull = ConvexHull(verts)
    faces = hull.simplices.copy()
    # Hull simplices come with arbitrary winding; flip to outward CCW.
    normals = hull.equations[:, :3]
    cr = np.cross(
        verts[faces[:, 1]] - verts[faces[:, 0]],
        verts[faces[:, 2]] - verts[faces[:, 0]],
    )
    wrong = np.einsum("ij,ij->i", cr, normals) < 0
    faces[wrong] = faces[wrong][:, [0, 2, 1]]
    return TriMesh(verts, faces, structure_id)


def make_template(cfg):
    """Build the five-structure template and its per-structure curvatures.

    LV-epi is the LV-endo surface inflated along its normals, giving the two
    index-wise vertex correspondence.  Returns ``(ChamberSet, curvatures)``.
    """
    budgets = dict(zip(STRUCTURES, cfg.budgets))
    meshes = {}
    for s in ("LV-endo", "RV", "LA", "RA"):
        semi, center = _ANATOMY[s]
        sphere = sphere_mesh(budgets[s], s)
        meshes[s] = sphere.with_vertices(sphere.vertices * semi + center)
    meshes["LV-epi"] = TriMesh(
        inflate_along_normals(meshes["LV-endo"], _EPI_OFFSET_MM).vertices,
        meshes["LV-endo"].faces,
        "LV-epi",
    )
    chambers = ChamberSet(meshes)
    curvatures = {s: mean_curvature(chambers[s]) for s in STRUCTURES}
    return chambers, curvatures


def _mode_fields(template, cfg, rng):
    """Smooth bump displacement fields along template normals, (m, |V|, 3)."""
    pooled = template.all_vertices()
    normals = np.concatenate([vertex_normals(template[s]) for s in STRUCTURES])
    fields = np.zeros((cfg.n_modes, len(pooled), 3))
    centers = pooled[rng.integers(0, len(pooled), size=cfg.n_modes)]
    sigma = 25.0
    for m in range(cfg.n_modes):
        g = np.exp(-np.sum((pooled - centers[m]) ** 2, axis=1) / (2 * sigma**2))
        fields[m] = g[:, None] * normals
    return fields


def _motion_factor(s, t, n_frames, amplitude):
    if n_frames == 1:
        return 1.0
    rel, phase = _MOTION[s]
    phase_t = np.pi * t / (n_frames - 1) + phase
    return 1.0 - amplitude * rel * np.sin(phase_t) ** 2


def synth_population(cfg, n_subjects):
    """Generate a cohort of mesh sequences with known ground truth.

    Subject shape = template + sum of mode weights times mode fields; motion
    is a per-structure radial contraction about the structure centre with a
    law that returns frame T to frame 1 exactly.  Attributes carry known
    links to the leading mode weights: ``group`` is the sign of weight 0,
    ``age`` is linear in weight 1 plus noise, ``sex`` is the sign of weight 2.
    """
    if n_subjects < 1:
        raise ValueError("n_subjects must be >= 1")
    rng = seeded_rng(cfg.seed)
    template, curvatures = make_template(cfg)
    fields = _mode_fields(template, cfg, rng)
    weights = rng.normal(0.0, MODE_AMPLITUDE, size=(n_subjects, cfg.n_modes))
    amp = MODE_AMPLITUDE if MODE_AMPLITUDE > 0 else 1.0
    attributes = {
        "group": (weights[:, 0] > 0).astype(int),
        "age": 55.0 + 8.0 * weights[:, 1] / amp + rng.normal(0.0, 2.0, n_subjects),
        "sex": (weights[:, 2] > 0).astype(int) if cfg.n_modes > 2 else None,
    }
    attributes = {k: v for k, v in attributes.items() if v is not None}
    motion_scales = np.clip(
        1.0 + MOTION_JITTER * rng.normal(size=n_subjects), 0.2, 1.8
    )
    sequences = [
        _subject_sequence(template, fields, weights[i], cfg, motion_scales[i])
        for i in range(n_subjects)
    ]
    return Population(
        template=template,
        curvatures=curvatures,
        sequences=sequences,
        weights=weights,
        attributes=attributes,
        motion_scales=motion_scales,
    )


def _subject_sequence(template, fields, w, cfg, motion_scale):
    shape = template.with_all_vertices(
        template.all_vertices() + np.tensordot(w, fields, axes=1)
    )
    amplitude = MOTION_AMPLITUDE * motion_scale
    frames = []
    for t in range(cfg.n_frames):
        coords = {}
        for s in STRUCTURES:
            v = shape[s].vertices
            center = v.mean(axis=0)
            f = _motion_factor(s, t, cfg.n_frames, amplitude)
            coords[s] = center + f * (v - center)
        frames.append(
            ChamberSet({s: shape[s].with_vertices(coords[s]) for s in STRUCTURES})
        )
    return MeshSequence(frames)


@dataclass
class VolumeGeometry:
    """Axis-aligned voxel grid: centre of voxel (i, j, k) sits at
    ``origin + (i, j, k) * spacing``."""

    origin: np.ndarray
    spacing: np.ndarray
    dims: tuple

    def __post_init__(self):
        self.origin = np.asarray(self.origin, dtype=np.float64)
        self.spacing = np.asarray(self.spacing, dtype=np.float64)
        self.dims = tuple(int(d) for d in self.dims)

    @classmethod
    def default(cls, voxel_size):
        dims = tuple(int(round(e / voxel_size)) for e in (96.0, 96.0, 128.0))
        origin = -0.5 * voxel_size * (np.array(dims, dtype=np.float64) - 1)
        return cls(origin, np.full(3, float(voxel_size)), dims)

    @classmethod
    def for_bounds(cls, lo, hi, voxel_size):
        """Grid that covers [lo, hi] with a 4 mm world-space margin."""
        lo = np.asarray(lo, dtype=np.float64) - 4.0
        hi = np.asarray(hi, dtype=np.float64) + 4.0
        dims = tuple(int(np.ceil((h - l) / voxel_size)) + 1 for l, h in zip(lo, hi))
        return cls(lo, np.full(3, float(voxel_size)), dims)

    @classmethod
    def for_population(cls, sequences, voxel_size):
        los = []
        his = []
        for seq in sequences:
            for frame in seq.frames:
                pts = frame.all_vertices()
                los.append(pts.min(axis=0))
                his.append(pts.max(axis=0))
        return cls.for_bounds(np.min(los, axis=0), np.max(his, axis=0), voxel_size)

    def world_bounds(self):
        lo = self.origin - 0.5 * self.spacing
        hi = self.origin + self.spacing * (np.array(self.dims) - 0.5)
        return lo, hi


# Sub-voxel lattice offset so that rays generically miss projected vertices
# and edges; exact degenerate hits would make crossing parity ambiguous.
_RAY_JITTER = (1.04e-6, 2.17e-6)


def _inside_mask(mesh, geometry):
    """Boolean mask of the voxel centres inside a closed mesh (see voxelize)."""
    lo, hi = geometry.world_bounds()
    v = mesh.vertices
    past = np.stack([lo - v.min(axis=0), v.max(axis=0) - hi])
    if past.max() > 0:
        side, axis = np.unravel_index(np.argmax(past), past.shape)
        raise ValueError(
            f"mesh {mesh.structure_id} extends outside the volume bounds: it "
            f"reaches {past[side, axis]:.3g} mm past the "
            f"{('lower', 'upper')[side]} {'xyz'[axis]} bound"
        )
    nx, ny, nz = geometry.dims
    tri = ((v - geometry.origin) / geometry.spacing)[mesh.faces]
    x = tri[:, :, 0]
    y = tri[:, :, 1] - _RAY_JITTER[0]
    z = tri[:, :, 2] - _RAY_JITTER[1]
    det = (y[:, 1] - y[:, 0]) * (z[:, 2] - z[:, 0]) - (y[:, 2] - y[:, 0]) * (
        z[:, 1] - z[:, 0]
    )
    j0 = np.maximum(0, np.ceil(y.min(axis=1))).astype(np.int64)
    j1 = np.minimum(ny - 1, np.floor(y.max(axis=1))).astype(np.int64)
    k0 = np.maximum(0, np.ceil(z.min(axis=1))).astype(np.int64)
    k1 = np.minimum(nz - 1, np.floor(z.max(axis=1))).astype(np.int64)
    keep = np.flatnonzero((np.abs(det) >= 1e-14) & (j0 <= j1) & (k0 <= k1))
    nk = k1[keep] - k0[keep] + 1
    size = (j1[keep] - j0[keep] + 1) * nk
    # One candidate per (face, column in its box), j-major as a meshgrid.
    f = np.repeat(keep, size)
    local = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)
    nk = np.repeat(nk, size)
    jj = j0[f] + local // nk
    kk = k0[f] + local % nk
    py = jj - y[f, 0]
    pz = kk - z[f, 0]
    u = ((z[f, 2] - z[f, 0]) * py - (y[f, 2] - y[f, 0]) * pz) / det[f]
    w = (-(z[f, 1] - z[f, 0]) * py + (y[f, 1] - y[f, 0]) * pz) / det[f]
    inside = (u >= 0) & (w >= 0) & (u + w <= 1)
    f = f[inside]
    xs = x[f, 0] + u[inside] * (x[f, 1] - x[f, 0]) + w[inside] * (x[f, 2] - x[f, 0])
    col = jj[inside] * nz + kk[inside]
    order = np.lexsort((xs, col))
    col, xs = col[order], xs[order]
    starts = np.flatnonzero(np.diff(col, prepend=-1))
    counts = np.diff(starts, append=len(col))
    even = np.repeat(counts % 2 == 0, counts)
    # Every column left has an even count, so crossings pair globally.
    col, xs = col[even][0::2], xs[even]
    i0 = np.maximum(0, np.ceil(xs[0::2])).astype(np.int64)
    i1 = np.minimum(nx - 1, np.floor(xs[1::2])).astype(np.int64)
    run = i0 <= i1
    diff = np.zeros((nx + 1, ny * nz), dtype=np.int8)
    np.add.at(diff, (i0[run], col[run]), 1)
    np.add.at(diff, (i1[run] + 1, col[run]), -1)
    # Runs of one column overlap only where crossings coincide: counts stay small.
    return diff[:nx].cumsum(axis=0, dtype=np.int8).reshape(nx, ny, nz) > 0


def voxelize(chambers, geometry):
    """Label volume of a ChamberSet on a voxel grid.

    Voxel centres are tested for containment by ray parity along +x, in
    voxel-index space and for all faces of a mesh at once.  Each (j, k)
    column's ray gets one crossing, at the face's x, from every face whose
    (y, z) projection holds it; the lattice is jittered by about 1e-6 voxel
    so that rays miss projected vertices and edges.  Columns with an odd
    count (an open mesh, or a ray that grazes an edge anyway) are dropped.
    The sorted crossings of the others pair into inside runs along x, filled
    through a +1/-1 difference array and a cumulative sum.

    Precedence: LV-endo wins inside LV-epi (the epi-minus-endo shell is the
    myocardium label), then RV, LA, RA; background is 0.
    """
    labels = np.zeros(geometry.dims, dtype=np.int16)
    # Paint in reverse precedence so higher-priority structures overwrite.
    for s in reversed(STRUCTURES):
        mask = _inside_mask(chambers[s], geometry)
        labels[mask] = STRUCTURE_LABELS[s]
    return labels


def voxelize_sequence(seq, geometry):
    return np.stack([voxelize(fr, geometry) for fr in seq.frames])


_LABEL_INTENSITY = np.array([0.0, 1.0, 0.55, 0.85, 0.45, 0.7])


def intensity_volume(labels, texture):
    """Smooth synthetic intensity volume: label intensities blurred by a
    Gaussian of 1.2 voxels, plus ``texture``.

    ``texture`` (same shape, :func:`make_texture`) is added after smoothing;
    a static texture shared by all frames plays the role of surrounding
    stationary tissue and anchors in-plane alignment away from the moving
    structures.
    """
    return gaussian_filter(_LABEL_INTENSITY[labels], sigma=1.2) + texture


def make_texture(dims, rng):
    """Smooth random intensity texture for :func:`intensity_volume`: noise
    blurred by a Gaussian of 2.5 voxels, peak 0.4.

    The texture is linear along z (a 2-D base pattern plus a z-ramped 2-D
    pattern), so its through-stack second difference vanishes for aligned
    slices: it feeds the alignment terms without inflating the stack
    smoothness penalty.
    """

    def field():
        noise = gaussian_filter(rng.normal(size=dims[:2]), sigma=2.5)
        peak = np.abs(noise).max()
        return noise / peak if peak > 0 else noise

    a = field()
    b = field()
    z = np.linspace(-1.0, 1.0, dims[2])
    return 0.4 * (a[:, :, None] + b[:, :, None] * z[None, None, :])


@dataclass
class PlaneSpec:
    plane_id: str
    origin: np.ndarray
    axis_u: np.ndarray
    axis_v: np.ndarray
    pixel_spacing: tuple
    height: int
    width: int


def default_view_specs(geometry, n_sax, pixel_spacing, size=None):
    """A short-axis stack plus two long-axis planes cutting the volume.

    Plane positions and in-plane axes are deliberately offset from the voxel
    lattice (as scanner geometry would be), so intersection samples never sit
    exactly on pixel centres of any view.
    """
    lo, hi = geometry.world_bounds()
    extent = hi - lo
    if size is None:
        size = int(np.floor(min(extent[0], extent[1]) / pixel_spacing))
    half = 0.5 * pixel_spacing * (size - 1)
    sax = []
    z_positions = np.linspace(-29.37, 30.61, n_sax)
    tilt = 0.15  # radians, rotation of the in-plane axes about z
    cu, su = np.cos(tilt), np.sin(tilt)
    sax_u = np.array([cu, su, 0.0])
    sax_v = np.array([-su, cu, 0.0])
    for d, z in enumerate(z_positions):
        sax.append(
            PlaneSpec(
                plane_id=f"sax_{d:02d}",
                origin=-half * sax_u - half * sax_v + np.array([0.0, 0.0, z]),
                axis_u=sax_u,
                axis_v=sax_v,
                pixel_spacing=(pixel_spacing, pixel_spacing),
                height=size,
                width=size,
            )
        )
    vsize = int(np.floor(extent[2] / pixel_spacing))
    vhalf = 0.5 * pixel_spacing * (vsize - 1)
    la = []
    for plane_id, angle in (("la_2ch", 0.19), ("la_4ch", 1.17)):
        u = np.array([np.cos(angle), np.sin(angle), 0.0])
        la.append(
            PlaneSpec(
                plane_id=plane_id,
                origin=-half * u + np.array([0.37, -0.61, -vhalf + 0.29]),
                axis_u=u,
                axis_v=np.array([0.0, 0.0, 1.0]),
                pixel_spacing=(pixel_spacing, pixel_spacing),
                height=vsize,
                width=size,
            )
        )
    return sax, la[0], la[1]


def _sample_plane(spec, geometry, intensity_frames, label_frames, shift_mm):
    """Resample one plane per frame; shift_mm displaces the sampled content.

    Intensities are trilinear and labels nearest-voxel, both clamped to the
    volume.  The clipped indices, the eight trilinear corner weights and one
    flat base index (each corner is a fixed offset from it) are computed once
    per plane; each frame is then only gathered from its flattened volume
    and its corners summed in a fixed order.  Frames are never stacked.
    """
    gx, gy = np.meshgrid(np.arange(spec.width), np.arange(spec.height))  # image[y, x]
    world = (
        spec.origin
        + gx[..., None] * spec.pixel_spacing[0] * spec.axis_u
        + gy[..., None] * spec.pixel_spacing[1] * spec.axis_v
        + shift_mm[0] * spec.axis_u
        + shift_mm[1] * spec.axis_v
    )
    idx = (world.reshape(-1, 3) - geometry.origin) / geometry.spacing
    shape = (len(intensity_frames), spec.height, spec.width)
    dims = np.array(intensity_frames[0].shape)
    step = np.array([dims[1] * dims[2], dims[2], 1])
    c = np.clip(idx, 0.0, dims - 1.0)
    i0 = np.minimum(np.floor(c).astype(np.int64), dims - 2)
    f = c - i0
    base = i0 @ step
    corners = []  # (weight, flat offset from base) in accumulation order
    for dx in (0, 1):
        wx = f[:, 0] if dx else 1.0 - f[:, 0]
        for dy in (0, 1):
            wy = f[:, 1] if dy else 1.0 - f[:, 1]
            for dz in (0, 1):
                wz = f[:, 2] if dz else 1.0 - f[:, 2]
                corners.append((wx * wy * wz, (dx, dy, dz) @ step))
    image = np.empty(shape)
    for volume, out in zip(intensity_frames, image.reshape(len(image), -1)):
        flat = volume.ravel()
        out[:] = 0.0
        for weight, offset in corners:
            out += weight * flat[offset:][base]
    if label_frames is None:
        return image, None
    nearest = np.clip(np.rint(idx).astype(np.int64), 0, dims - 1) @ step
    labels = np.empty(shape, dtype=np.int16)
    for t, out in enumerate(labels):
        out[:] = label_frames[t].ravel()[nearest].reshape(out.shape)
    return image, labels


def slice_views(intensity_frames, label_frames, geometry, specs, sigma, rng):
    """Cut a ViewSet out of a volume sequence with injected misalignments.

    Each plane's content is sampled at positions shifted by a recorded
    in-plane displacement drawn from N(0, sigma) per axis (mm); the returned
    ground truth maps plane id to that injected shift.  Recovering alignment
    means driving each plane's correction toward minus the injected shift.
    """
    sax_specs, la2_spec, la4_spec = specs
    injected = {}

    def build(spec):
        shift = rng.normal(0.0, sigma, size=2) if sigma > 0 else np.zeros(2)
        injected[spec.plane_id] = shift.copy()
        image, labels = _sample_plane(
            spec, geometry, intensity_frames, label_frames, shift
        )
        return SlicePlane(
            origin=spec.origin,
            axis_u=spec.axis_u,
            axis_v=spec.axis_v,
            pixel_spacing=spec.pixel_spacing,
            image=image,
            label=labels,
            plane_id=spec.plane_id,
        )

    views = ViewSet(
        sax=[build(sp) for sp in sax_specs],
        la_2ch=build(la2_spec),
        la_4ch=build(la4_spec),
    )
    return views, injected


def plane_section(mesh, plane_origin, plane_normal):
    """Points where mesh edges cross a plane (an unordered contour sample)."""
    v = mesh.vertices
    n = np.asarray(plane_normal, dtype=np.float64)
    n = n / np.linalg.norm(n)
    d = (v - np.asarray(plane_origin, dtype=np.float64)) @ n
    edges = mesh.edges()
    da = d[edges[:, 0]]
    db = d[edges[:, 1]]
    crossing = (da > 0) != (db > 0)
    if not crossing.any():
        return np.zeros((0, 3))
    e = edges[crossing]
    t = (da[crossing] / (da[crossing] - db[crossing]))[:, None]
    return v[e[:, 0]] + t * (v[e[:, 1]] - v[e[:, 0]])
