import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from cardioshape import ssm, synth
from cardioshape.cli import build_parser
from cardioshape.mesh import STRUCTURES, ChamberSet, MeshSequence, TriMesh, devectorize, pooled, vectorize
from cardioshape.objectives import cycle_loss, surface_distances


class TestSphereMeshes:
    def test_icosphere_counts(self):
        for subdiv, count in ((0, 12), (1, 42), (2, 162), (3, 642)):
            assert synth.icosphere(subdiv).n_vertices == count

    def test_fibonacci_exact_count_closed(self):
        for n in (100, 431, 614, 642):  # 642 is also an icosphere count
            mesh = synth.sphere_mesh(n, "LV-endo")
            assert mesh.n_vertices == n
            assert mesh.is_closed()

    def test_fibonacci_outward_orientation(self):
        mesh = synth.sphere_mesh(200, "LV-endo")
        from cardioshape.mesh import vertex_normals

        normals = vertex_normals(mesh)
        assert (np.einsum("ij,ij->i", normals, mesh.vertices) > 0).all()


class TestMakeTemplate:
    def test_default_small_scale_budget(self):
        cfg = synth.SynthConfig(seed=0, n_frames=50)
        template, _ = synth.make_template(cfg)
        assert template.total_vertices == 2703

    def test_full_scale_budget(self):
        assert sum(synth.FULL_SCALE_BUDGETS) == 27034
        assert synth.FULL_SCALE_BUDGETS == (6141, 6141, 5696, 4305, 4751)

    def test_endo_epi_correspondence(self):
        cfg = synth.SynthConfig(scale=0.05, seed=0, n_frames=50)
        template, _ = synth.make_template(cfg)
        assert template["LV-endo"].n_vertices == template["LV-epi"].n_vertices
        assert np.array_equal(template["LV-endo"].faces, template["LV-epi"].faces)
        gaps = np.linalg.norm(
            template["LV-epi"].vertices - template["LV-endo"].vertices, axis=1
        )
        assert abs(gaps.mean() - 8.0) < 0.5

    def test_all_structures_closed(self):
        cfg = synth.SynthConfig(scale=0.04, seed=0, n_frames=50)
        template, _ = synth.make_template(cfg)
        for s in STRUCTURES:
            assert template[s].is_closed()

    def test_curvatures_returned(self):
        cfg = synth.SynthConfig(scale=0.03, seed=0, n_frames=50)
        template, curv = synth.make_template(cfg)
        for s in STRUCTURES:
            assert curv[s].shape == (template[s].n_vertices,)


class TestSynthPopulation:
    def test_deterministic_per_seed(self):
        cfg = synth.SynthConfig(scale=0.02, n_frames=3, seed=42)
        a = synth.synth_population(cfg, 3)
        b = synth.synth_population(cfg, 3)
        assert np.array_equal(a.weights, b.weights)
        for sa, sb in zip(a.sequences, b.sequences):
            assert np.array_equal(vectorize(sa), vectorize(sb))

    def test_cycle_consistent(self):
        cfg = synth.SynthConfig(scale=0.02, n_frames=5, seed=1)
        pop = synth.synth_population(cfg, 3)
        for seq in pop.sequences:
            value, _ = cycle_loss(*pooled(seq))
            assert value < 1e-9

    def test_zero_weight_subject_is_template_with_motion(self, monkeypatch):
        monkeypatch.setattr(synth, "MODE_AMPLITUDE", 0.0)
        monkeypatch.setattr(synth, "MOTION_JITTER", 0.0)
        cfg = synth.SynthConfig(scale=0.02, n_frames=4, seed=2)
        pop = synth.synth_population(cfg, 1)
        for t, frame in enumerate(pop.sequences[0].frames):
            for s in STRUCTURES:
                v_tpl = pop.template[s].vertices
                center = v_tpl.mean(axis=0)
                factor = synth._motion_factor(s, t, cfg.n_frames, synth.MOTION_AMPLITUDE)
                expected = center + factor * (v_tpl - center)
                assert np.abs(frame[s].vertices - expected).max() < 1e-9

    def test_attributes_present(self):
        cfg = synth.SynthConfig(scale=0.02, n_frames=2, seed=3)
        pop = synth.synth_population(cfg, 10)
        assert set(pop.attributes) >= {"group", "age", "sex"}
        assert len(pop.attributes["age"]) == 10


class TestVoxelize:
    def test_sphere_volume_fraction(self):
        from cardioshape.mesh import ChamberSet, TriMesh

        cfg = synth.SynthConfig(scale=0.03, seed=0, n_frames=50)
        template, _ = synth.make_template(cfg)
        sphere = synth.icosphere(3)
        meshes = dict(template.meshes)
        meshes["LV-endo"] = TriMesh(sphere.vertices * 10.0, sphere.faces, "LV-endo")
        meshes["LV-epi"] = TriMesh(sphere.vertices * 13.0, sphere.faces, "LV-epi")
        chambers = ChamberSet(meshes)
        geometry = synth.VolumeGeometry(
            origin=(-20.0, -20.0, -20.0), spacing=(1.0, 1.0, 1.0), dims=(41, 41, 41)
        )
        labels = synth.voxelize(
            ChamberSet(
                {
                    s: (
                        meshes[s]
                        if s in ("LV-endo", "LV-epi")
                        else TriMesh(
                            synth.icosphere(1).vertices * 2.0 + [15.0, 15.0, 15.0],
                            synth.icosphere(1).faces,
                            s,
                        )
                    )
                    for s in STRUCTURES
                }
            ),
            geometry,
        )
        count = int((labels == synth.STRUCTURE_LABELS["LV-endo"]).sum())
        analytic = 4.0 / 3.0 * np.pi * 10.0**3
        assert abs(count - analytic) / analytic < 0.02

    def test_empty_region_background(self):
        cfg = synth.SynthConfig(scale=0.02, n_frames=1, seed=4)
        pop = synth.synth_population(cfg, 1)
        geometry = synth.VolumeGeometry.default(2.0)
        labels = synth.voxelize(pop.sequences[0].frames[0], geometry)
        assert labels[0, 0, 0] == 0 and labels[-1, -1, -1] == 0

    def test_myocardium_is_epi_minus_endo(self):
        cfg = synth.SynthConfig(scale=0.03, n_frames=1, seed=5)
        pop = synth.synth_population(cfg, 1)
        geometry = synth.VolumeGeometry.default(2.0)
        labels = synth.voxelize(pop.sequences[0].frames[0], geometry)
        endo = synth.STRUCTURE_LABELS["LV-endo"]
        epi = synth.STRUCTURE_LABELS["LV-epi"]
        assert (labels == endo).sum() > 0 and (labels == epi).sum() > 0

    def test_roundtrip_with_surface_extraction(self):
        from cardioshape.fitting import extract_surface_points

        cfg = synth.SynthConfig(scale=0.05, n_frames=1, seed=6)
        pop = synth.synth_population(cfg, 1)
        geometry = synth.VolumeGeometry.default(2.0)
        labels = synth.voxelize(pop.sequences[0].frames[0], geometry)
        pts = extract_surface_points(
            labels,
            synth.STRUCTURE_LABELS["RV"],
            geometry.spacing,
            geometry.origin,
        )
        sd = surface_distances(pts, pop.sequences[0].frames[0]["RV"].vertices)
        assert sd["uni_assd_a_to_b"] < 2.0  # within one voxel

    def test_mesh_outside_bounds_rejected(self):
        cfg = synth.SynthConfig(scale=0.02, n_frames=1, seed=7)
        pop = synth.synth_population(cfg, 1)
        geometry = synth.VolumeGeometry(
            origin=(0.0, 0.0, 0.0), spacing=(1.0, 1.0, 1.0), dims=(4, 4, 4)
        )
        with pytest.raises(
            ValueError,
            match=r"^mesh RA extends outside the volume bounds: it reaches "
            r"[0-9.]+ mm past the (lower|upper) [xyz] bound$",
        ):
            synth.voxelize(pop.sequences[0].frames[0], geometry)
        # A sphere of radius 1.5 mm about (1.5, 1.5, 2.5) leaves the
        # [-0.5, 3.5] mm box through its top only.
        sphere = synth.icosphere(1)
        mesh = TriMesh(sphere.vertices * 1.5 + (1.5, 1.5, 2.5), sphere.faces, "LA")
        past = mesh.vertices[:, 2].max() - 3.5
        with pytest.raises(
            ValueError,
            match=rf"^mesh LA .*: it reaches {past:.3g} mm past the upper z bound$",
        ):
            synth._inside_mask(mesh, geometry)


@pytest.fixture(scope="module")
def volume_setup():
    cfg = synth.SynthConfig(scale=0.04, n_frames=2, seed=8)
    pop = synth.synth_population(cfg, 1)
    geometry = synth.VolumeGeometry.default(2.0)
    labels = synth.voxelize_sequence(pop.sequences[0], geometry)
    texture = synth.make_texture(
        geometry.dims, np.random.Generator(np.random.Philox(1))
    )
    intensity = [
        synth.intensity_volume(labels[t], texture=texture) for t in range(2)
    ]
    specs = synth.default_view_specs(geometry, n_sax=4, pixel_spacing=2.0)
    return intensity, labels, geometry, specs


class TestSliceViews:

    def test_sigma_zero_no_injection(self, volume_setup):
        intensity, labels, geometry, specs = volume_setup
        rng = np.random.Generator(np.random.Philox(2))
        views, injected = synth.slice_views(
            intensity, labels, geometry, specs, 0.0, rng
        )
        assert all(np.abs(v).max() == 0.0 for v in injected.values())

    def test_default_sigma_is_two(self):
        assert build_parser().parse_args(["synth"]).sigma == 2.0

    def test_negative_sigma_raises(self, volume_setup):
        intensity, labels, geometry, specs = volume_setup
        rng = np.random.Generator(np.random.Philox(2))
        with pytest.raises(ValueError, match="sigma"):
            synth.slice_views(intensity, labels, geometry, specs, -0.5, rng)

    def test_injected_statistics(self, volume_setup):
        intensity, labels, geometry, specs = volume_setup
        draws = []
        for trial in range(84):  # 84 view sets x 6 planes x 2 axes = 1008 draws
            rng = np.random.Generator(np.random.Philox(100 + trial))
            _, injected = synth.slice_views(
                intensity, labels, geometry, specs, 2.0, rng
            )
            draws.extend(float(x) for v in injected.values() for x in v)
        sd = np.std(draws)
        assert abs(sd - 2.0) / 2.0 < 0.1

    def test_views_have_labels_and_geometry(self, volume_setup):
        intensity, labels, geometry, specs = volume_setup
        rng = np.random.Generator(np.random.Philox(3))
        views, _ = synth.slice_views(intensity, labels, geometry, specs, 1.0, rng)
        assert len(views.sax) == 4
        for p in views.planes():
            assert p.label is not None
            assert p.image.shape == p.label.shape


class TestPlaneSection:
    def test_sphere_section_radius(self):
        sphere = synth.icosphere(3)
        pts = synth.plane_section(sphere, np.zeros(3), np.array([0.0, 0.0, 1.0]))
        assert len(pts) > 10
        radii = np.linalg.norm(pts[:, :2], axis=1)
        assert np.abs(radii - 1.0).max() < 0.05
        assert np.abs(pts[:, 2]).max() < 1e-12

    def test_no_intersection_empty(self):
        sphere = synth.icosphere(2)
        pts = synth.plane_section(
            sphere, np.array([0.0, 0.0, 5.0]), np.array([0.0, 0.0, 1.0])
        )
        assert pts.shape == (0, 3)


class TestVoxelizeProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        rotvec=st.tuples(*[st.floats(-np.pi, np.pi)] * 3),
        radius=st.floats(4.0, 15.0),
        centre=st.tuples(*[st.floats(-30.0, 30.0)] * 3),
        voxel_size=st.sampled_from((1.0, 2.0)),
    )
    def test_sphere_holds_inscribed_ball_within_vertex_radius(
        self, rotvec, radius, centre, voxel_size
    ):
        unit = synth.icosphere(2)
        verts = Rotation.from_rotvec(rotvec).apply(unit.vertices) * radius + centre
        mesh = TriMesh(verts, unit.faces, "LV-endo")
        tri = verts[unit.faces]
        normals = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
        normals /= np.linalg.norm(normals, axis=1)[:, None]
        inscribed = np.abs(np.einsum("ij,ij->i", tri[:, 0] - centre, normals)).min()
        outer = np.linalg.norm(verts - centre, axis=1).max()
        geometry = synth.VolumeGeometry.for_bounds(
            np.subtract(centre, outer), np.add(centre, outer), voxel_size
        )
        mask = synth._inside_mask(mesh, geometry)
        # voxel (i, j, k) is centred at origin + (i, j, k) * spacing
        axes = zip(geometry.origin, geometry.spacing, geometry.dims)
        grid = np.meshgrid(*(o + h * np.arange(n) for o, h, n in axes), indexing="ij")
        dist = np.linalg.norm(np.stack(grid, axis=-1) - centre, axis=-1)
        assert mask[dist < inscribed - 1e-6].all()
        assert not mask[dist > outer + 1e-6].any()


# ---------------------------------------------------------------------------
# Loop references: the per-face, per-column voxeliser and the per-frame plane
# sampler that synth's array code replaced.  The array code must reproduce
# them bit for bit.


def _ref_column_crossings(verts_idx, faces, dims):
    cols = {}
    v = verts_idx
    for a, b, c in faces:
        tri = v[[a, b, c]]
        y = tri[:, 1] - synth._RAY_JITTER[0]
        z = tri[:, 2] - synth._RAY_JITTER[1]
        det = (y[1] - y[0]) * (z[2] - z[0]) - (y[2] - y[0]) * (z[1] - z[0])
        if abs(det) < 1e-14:
            continue
        j0 = max(0, int(np.ceil(y.min())))
        j1 = min(dims[1] - 1, int(np.floor(y.max())))
        k0 = max(0, int(np.ceil(z.min())))
        k1 = min(dims[2] - 1, int(np.floor(z.max())))
        if j0 > j1 or k0 > k1:
            continue
        jj, kk = np.meshgrid(
            np.arange(j0, j1 + 1), np.arange(k0, k1 + 1), indexing="ij"
        )
        py = jj.ravel() - y[0]
        pz = kk.ravel() - z[0]
        u = ((z[2] - z[0]) * py - (y[2] - y[0]) * pz) / det
        w = (-(z[1] - z[0]) * py + (y[1] - y[0]) * pz) / det
        inside = (u >= 0) & (w >= 0) & (u + w <= 1)
        if not inside.any():
            continue
        xs = tri[0, 0] + u[inside] * (tri[1, 0] - tri[0, 0]) + w[inside] * (
            tri[2, 0] - tri[0, 0]
        )
        for j, k, x in zip(jj.ravel()[inside], kk.ravel()[inside], xs):
            cols.setdefault((int(j), int(k)), []).append(float(x))
    return cols


def _ref_inside_mask(mesh, geometry):
    verts_idx = (mesh.vertices - geometry.origin) / geometry.spacing
    cols = _ref_column_crossings(verts_idx, mesh.faces, geometry.dims)
    mask = np.zeros(geometry.dims, dtype=bool)
    nx = geometry.dims[0]
    for (j, k), xs in cols.items():
        xs = np.sort(xs)
        if len(xs) % 2 != 0:
            continue
        for lo_x, hi_x in zip(xs[0::2], xs[1::2]):
            i0 = max(0, int(np.ceil(lo_x)))
            i1 = min(nx - 1, int(np.floor(hi_x)))
            if i0 <= i1:
                mask[i0 : i1 + 1, j, k] = True
    return mask


def _ref_trilinear(volume, idx):
    dims = volume.shape
    idx = np.clip(idx, 0.0, np.array(dims, dtype=np.float64) - 1.0)
    i0 = np.minimum(np.floor(idx).astype(np.int64), np.array(dims) - 2)
    f = idx - i0
    out = np.zeros(len(idx))
    for dx in (0, 1):
        wx = f[:, 0] if dx else 1.0 - f[:, 0]
        for dy in (0, 1):
            wy = f[:, 1] if dy else 1.0 - f[:, 1]
            for dz in (0, 1):
                wz = f[:, 2] if dz else 1.0 - f[:, 2]
                out += (
                    wx
                    * wy
                    * wz
                    * volume[i0[:, 0] + dx, i0[:, 1] + dy, i0[:, 2] + dz]
                )
    return out


def _ref_nearest(volume, idx):
    dims = volume.shape
    i = np.clip(np.rint(idx).astype(np.int64), 0, np.array(dims) - 1)
    return volume[i[:, 0], i[:, 1], i[:, 2]]


def _ref_sample_plane(spec, geometry, intensity_frames, label_frames, shift_mm):
    xs = np.arange(spec.width)
    ys = np.arange(spec.height)
    gx, gy = np.meshgrid(xs, ys)
    world = (
        spec.origin
        + gx[..., None] * spec.pixel_spacing[0] * spec.axis_u
        + gy[..., None] * spec.pixel_spacing[1] * spec.axis_v
        + shift_mm[0] * spec.axis_u
        + shift_mm[1] * spec.axis_v
    )
    idx = (world.reshape(-1, 3) - geometry.origin) / geometry.spacing
    n_frames = len(intensity_frames)
    image = np.empty((n_frames, spec.height, spec.width))
    labels = None if label_frames is None else np.empty(
        (n_frames, spec.height, spec.width), dtype=np.int16
    )
    for t in range(n_frames):
        image[t] = _ref_trilinear(intensity_frames[t], idx).reshape(
            spec.height, spec.width
        )
        if labels is not None:
            labels[t] = _ref_nearest(label_frames[t], idx).reshape(
                spec.height, spec.width
            )
    return image, labels


def _same_bits(a, b):
    if a is None or b is None:
        return a is None and b is None
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestArrayCodeMatchesLoops:
    @pytest.mark.parametrize("voxel_size", (2.0, 1.5))
    @pytest.mark.parametrize("seed,scale", ((11, 0.05), (7, 0.04), (3, 0.1)))
    def test_masks_identical(self, seed, scale, voxel_size):
        cfg = synth.SynthConfig(
            scale=scale, n_frames=3, seed=seed, voxel_size=voxel_size
        )
        pop = synth.synth_population(cfg, 1)
        # The tightest grid (4 mm margin) puts runs against every border.
        geometry = synth.VolumeGeometry.for_population(pop.sequences, voxel_size)
        for frame in pop.sequences[0].frames:
            for s in STRUCTURES:
                mask = synth._inside_mask(frame[s], geometry)
                assert mask.any()
                assert np.array_equal(mask, _ref_inside_mask(frame[s], geometry))

    def test_open_mesh_identical(self):
        # Columns through the holes cross the surface an odd number of times
        # and are dropped.
        sphere = synth.icosphere(2)
        rng = np.random.Generator(np.random.Philox(4))
        faces = sphere.faces[rng.permutation(len(sphere.faces))[:-12]]
        mesh = TriMesh(sphere.vertices * 9.3 + (0.3, -0.2, 0.1), faces, "RV")
        geometry = synth.VolumeGeometry.for_bounds(
            mesh.vertices.min(axis=0), mesh.vertices.max(axis=0), 1.0
        )
        verts_idx = (mesh.vertices - geometry.origin) / geometry.spacing
        cols = _ref_column_crossings(verts_idx, faces, geometry.dims)
        assert any(len(xs) % 2 for xs in cols.values())
        assert np.array_equal(
            synth._inside_mask(mesh, geometry), _ref_inside_mask(mesh, geometry)
        )

    @pytest.mark.parametrize("with_labels", (True, False))
    @pytest.mark.parametrize("sigma", (2.0, 30.0))
    def test_slice_views_identical(self, volume_setup, monkeypatch, with_labels, sigma):
        intensity, labels, geometry, specs = volume_setup
        label_frames = labels if with_labels else None

        def cut():
            rng = np.random.Generator(np.random.Philox(9))
            return synth.slice_views(
                intensity, label_frames, geometry, specs, sigma, rng
            )

        views, injected = cut()
        with monkeypatch.context() as m:
            m.setattr(synth, "_sample_plane", _ref_sample_plane)
            ref_views, ref_injected = cut()
        for plane, ref in zip(views.planes(), ref_views.planes()):
            assert np.array_equal(injected[plane.plane_id], ref_injected[ref.plane_id])
            assert _same_bits(plane.image, ref.image)
            assert _same_bits(plane.label, ref.label)

    @pytest.mark.parametrize(
        "shift", ((0.0, 0.0), (0.37, -1.21), (60.0, -60.0), (-200.0, 150.0))
    )
    def test_sample_plane_identical_past_the_border(self, volume_setup, shift):
        intensity, labels, geometry, specs = volume_setup
        sax, la2, la4 = specs
        for spec in (*sax, la2, la4):
            got = synth._sample_plane(
                spec, geometry, intensity, labels, np.array(shift)
            )
            want = _ref_sample_plane(
                spec, geometry, intensity, labels, np.array(shift)
            )
            assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])


# The copies below are the code that ``contour_sample`` and ``contracted``
# replaced, kept as references for bit-for-bit comparisons.


def _old_criterion_7_contours(seq):
    sax = [
        (np.array([0.37, -0.61, z]), np.array([0.0, 0.0, 1.0]))
        for z in np.linspace(-46, 44, 10)
    ]
    la = [
        (np.array([0.37, -0.61, 0.29]), np.array([np.sin(a), -np.cos(a), 0.0]))
        for a in np.linspace(0.13, np.pi - 0.22, 10)
    ]
    planes = sax + la
    contours = []
    for t in range(seq.n_frames):
        frame = {}
        for s in STRUCTURES:
            pts = []
            for origin, normal in planes:
                p = synth.plane_section(seq.frames[t][s], origin, normal)
                if len(p) > 20:
                    p = p[:: len(p) // 20 + 1]
                if len(p):
                    pts.append(p)
            if pts:
                frame[s] = np.concatenate(pts)
        contours.append(frame)
    return contours


def _old_subject_sequence(template, fields, w, cfg, motion_scale):
    shape = template.with_all_vertices(
        template.all_vertices() + np.tensordot(w, fields, axes=1)
    )
    amplitude = synth.MOTION_AMPLITUDE * motion_scale
    frames = []
    for t in range(cfg.n_frames):
        coords = {}
        for s in STRUCTURES:
            v = shape[s].vertices
            center = v.mean(axis=0)
            f = synth._motion_factor(s, t, cfg.n_frames, amplitude)
            coords[s] = center + f * (v - center)
        frames.append(
            ChamberSet({s: shape[s].with_vertices(coords[s]) for s in STRUCTURES})
        )
    return MeshSequence(frames)


def _old_contracted(chambers, factor):
    out = {}
    for s in STRUCTURES:
        v = chambers[s].vertices
        center = v.mean(axis=0)
        out[s] = chambers[s].with_vertices(center + factor * (v - center))
    return ChamberSet(out)


class TestRecipesMatchTheirOldCopies:
    def test_contour_sample(self):
        cfg = synth.SynthConfig(scale=0.04, n_frames=3, seed=21)
        pop = synth.synth_population(cfg, 12)
        topology = pop.sequences[0].topology()
        model = ssm.ShapeModel(n_components=6, topology=topology)
        ssm.ipca_partial_fit(model, np.stack([vectorize(q) for q in pop.sequences]))
        w = np.random.Generator(np.random.Philox(7)).normal(size=model.n_active)
        seq = devectorize(ssm.decode(model, w * np.sqrt(model.explained_variance)), topology)
        got = synth.contour_sample(seq)
        want = _old_criterion_7_contours(seq)
        assert len(got) == len(want) == 3
        for g, r in zip(got, want):
            assert list(g) == list(r)
            assert all(np.array_equal(g[s], r[s]) for s in r)

    def test_a_structure_no_plane_cuts_is_absent(self):
        far = synth.icosphere(1).vertices * 2.0 + (200.0, 0.0, 0.0)
        meshes = {s: TriMesh(far, synth.icosphere(1).faces, s) for s in STRUCTURES}
        meshes["RV"] = TriMesh(synth.icosphere(2).vertices * 20.0, synth.icosphere(2).faces, "RV")
        (frame,) = synth.contour_sample(MeshSequence([ChamberSet(meshes)]))
        assert list(frame) == ["RV"]

    @pytest.mark.parametrize("scale,n_frames,seed", ((0.02, 3, 7), (0.04, 6, 7), (0.03, 1, 5)))
    def test_synth_population_frames(self, scale, n_frames, seed):
        cfg = synth.SynthConfig(scale=scale, n_frames=n_frames, seed=seed)
        pop = synth.synth_population(cfg, 3)
        fields = synth._mode_fields(pop.template, cfg, synth.seeded_rng(cfg.seed))
        for i, seq in enumerate(pop.sequences):
            ref = _old_subject_sequence(
                pop.template, fields, pop.weights[i], cfg, pop.motion_scales[i]
            )
            assert np.array_equal(vectorize(seq), vectorize(ref))

    @pytest.mark.parametrize("factor", (1.0, 0.843, 1.2))
    def test_contracted_with_one_factor(self, small_template, factor):
        template, _ = small_template
        got = synth.contracted(template, dict.fromkeys(STRUCTURES, factor))
        want = _old_contracted(template, factor)
        assert np.array_equal(got.all_vertices(), want.all_vertices())
