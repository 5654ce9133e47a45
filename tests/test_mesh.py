import numpy as np
import pytest

from cardioshape import synth
from cardioshape.mesh import (
    STRUCTURES,
    MeshSequence,
    Topology,
    TriMesh,
    devectorize,
    graph_laplacian,
    inflate_along_normals,
    mean_curvature,
    rigid_align,
    vectorize,
    vertex_normals,
)
from cardioshape.objectives import pearson_r
from cardioshape.phenotypes import mesh_volume

from conftest import cube_mesh, toy_chamber_set, toy_sequence


def random_rotation(rng):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


class TestTriMeshValidation:
    def test_rejects_bad_face_index(self):
        with pytest.raises(ValueError, match="face index"):
            TriMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 3]], "RV")

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            TriMesh([[0, 0, np.nan], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]], "RV")

    def test_rejects_unreferenced_vertex(self):
        with pytest.raises(ValueError, match="not referenced"):
            TriMesh(
                [[0, 0, 0], [1, 0, 0], [0, 1, 0], [5, 5, 5]], [[0, 1, 2]], "RV"
            )

    def test_edge_set_symmetric(self, icosphere3):
        edges = icosphere3.edges()
        pairs = {tuple(e) for e in edges}
        adj = set()
        for a, b, c in icosphere3.faces:
            adj |= {
                (min(a, b), max(a, b)),
                (min(b, c), max(b, c)),
                (min(c, a), max(c, a)),
            }
        assert pairs == adj

    @pytest.mark.parametrize("n_removed", [0, 1, 7, 60])
    def test_boundary_count_matches_row_unique(self, icosphere3, n_removed):
        # closed, once open and widely open, against the (E, 2) row-unique count
        rng = np.random.default_rng(n_removed)
        faces = icosphere3.faces[np.sort(rng.permutation(len(icosphere3.faces))[n_removed:])]
        used, faces = np.unique(faces, return_inverse=True)
        faces = faces.reshape(-1, 3)
        mesh = TriMesh(icosphere3.vertices[used], faces, "RV")
        sides = np.sort(np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]]), axis=1)
        _, counts = np.unique(sides, axis=0, return_counts=True)
        assert mesh.boundary_edge_count() == int(np.count_nonzero(counts != 2))
        assert mesh.is_closed() == (n_removed == 0)

    def test_boundary_count_non_manifold_edge(self):
        # edge (0, 1) is shared by three faces; every other edge by one
        v = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1]]
        tri = TriMesh(v, [[0, 1, 2], [1, 0, 3], [0, 1, 4]], "RV")
        assert tri.boundary_edge_count() == 7


class TestVertexNormals:
    def test_icosphere_normals_are_radial(self):
        sphere = synth.icosphere(4)
        n = vertex_normals(sphere)
        expected = sphere.vertices / np.linalg.norm(
            sphere.vertices, axis=1, keepdims=True
        )
        assert np.abs(n - expected).max() < 1e-2

    def test_cube_corner_normal(self):
        cube = cube_mesh()
        n = vertex_normals(cube)
        assert np.abs(n[7] - 1.0 / np.sqrt(3.0)).max() < 1e-12

    def test_degenerate_fan_errors(self):
        v = [[0, 0, 0], [1, 0, 0], [2, 0, 0]]  # collinear: zero-area fan
        with pytest.raises(ValueError, match="zero-area vertex star"):
            vertex_normals(TriMesh(v, [[0, 1, 2]], "RV"))


class TestGraphLaplacian:
    def test_constant_field_maps_to_zero(self, icosphere3):
        lap = graph_laplacian(icosphere3)
        field = np.full(icosphere3.n_vertices, 3.7)
        assert np.abs(lap @ field).max() < 1e-12

    def test_triangle_exhaustive(self):
        v = np.array([[0.0, 0, 0], [2.0, 0, 0], [0.0, 3, 0]])
        mesh = TriMesh(v, [[0, 1, 2]], "RV")
        lv = graph_laplacian(mesh) @ v
        for i in range(3):
            midpoint = (v[(i + 1) % 3] + v[(i + 2) % 3]) / 2
            assert np.abs(lv[i] - (v[i] - midpoint)).max() < 1e-12

    def test_sparsity_matches_adjacency(self, icosphere3):
        lap = graph_laplacian(icosphere3).tocoo()
        entries = {
            (i, j) for i, j in zip(lap.row, lap.col) if i != j
        }
        adj = set()
        for a, b, c in icosphere3.faces:
            adj |= {(a, b), (b, a), (b, c), (c, b), (c, a), (a, c)}
        assert entries == adj

    def test_rows_sum_to_zero(self, small_template):
        template, _ = small_template
        for s in STRUCTURES:
            lap = graph_laplacian(template[s])
            assert np.abs(lap @ np.ones(template[s].n_vertices)).max() < 1e-12


class TestMeanCurvature:
    def test_icosphere_sign_consistent_and_scales(self, icosphere3):
        h1 = mean_curvature(icosphere3)
        assert (h1 > 0).all() or (h1 < 0).all()
        h2 = mean_curvature(icosphere3.with_vertices(2.0 * icosphere3.vertices))
        assert abs(pearson_r(h1, h2) - 1.0) < 1e-9

    def test_flat_grid_interior_zero(self):
        k = 6
        xs, ys = np.meshgrid(np.arange(k), np.arange(k))
        v = np.column_stack([xs.ravel(), ys.ravel(), np.zeros(k * k)]).astype(float)
        faces = []
        for i in range(k - 1):
            for j in range(k - 1):
                a = i * k + j
                faces.append((a, a + 1, a + k))
                faces.append((a + 1, a + k + 1, a + k))
        mesh = TriMesh(v, np.array(faces), "RV")
        h = mean_curvature(mesh)
        interior = [
            i * k + j for i in range(1, k - 1) for j in range(1, k - 1)
        ]
        assert np.abs(h[interior]).max() < 1e-9

    def test_template_self_correlation(self, small_template):
        template, curv = small_template
        for s in STRUCTURES:
            assert pearson_r(curv[s], mean_curvature(template[s])) == 1.0

    def test_rigid_invariance_of_correlation(self, small_template):
        template, curv = small_template
        rng = np.random.default_rng(4)
        rot = random_rotation(rng)
        for s in STRUCTURES:
            moved = template[s].vertices @ rot.T + [7.0, -3.0, 11.0]
            h = mean_curvature(template[s].with_vertices(moved))
            assert abs(pearson_r(h, curv[s]) - 1.0) < 1e-9


class TestVectorize:
    def test_full_scale_length(self):
        counts = synth.FULL_SCALE_BUDGETS
        assert sum(counts) == 27034
        assert 3 * 50 * sum(counts) == 4055100

    def test_full_scale_template_vector_length(self):
        cfg = synth.SynthConfig(scale=1.0, n_frames=2, seed=0)
        template, _ = synth.make_template(cfg)
        assert template.total_vertices == 27034
        seq = MeshSequence([template, template])
        assert vectorize(seq).shape == (3 * 2 * 27034,)

    def test_single_triangle_per_structure_length(self):
        tri = TriMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]], "LV-endo")
        seq = toy_sequence(n_frames=1, base=tri)
        assert vectorize(seq).shape == (45,)

    def test_roundtrip_bit_exact(self):
        rng = np.random.default_rng(0)
        base = synth.icosphere(1)
        for _ in range(100):
            seq = toy_sequence(
                n_frames=int(rng.integers(1, 4)),
                motion=lambda t: rng.normal(size=3),
                base=base,
            )
            vec = vectorize(seq)
            back = devectorize(vec, seq.topology())
            for t in range(seq.n_frames):
                for s in STRUCTURES:
                    assert np.array_equal(
                        back.frames[t][s].vertices, seq.frames[t][s].vertices
                    )

    def test_length_mismatch_reports_both(self):
        seq = toy_sequence(n_frames=2)
        topo = seq.topology()
        with pytest.raises(ValueError, match=str(topo.vector_length)):
            devectorize(np.zeros(topo.vector_length + 3), topo)


class TestRigidAlign:
    def test_recover_known_transform(self):
        rng = np.random.default_rng(1)
        source = toy_chamber_set()
        for _ in range(50):
            rot = random_rotation(rng)
            t = rng.normal(0, 20, 3)
            target = source.transformed(rotation=rot, translation=t)
            r_hat, t_hat, aligned = rigid_align(source, target)
            assert np.abs(r_hat - rot).max() < 1e-9
            assert np.abs(t_hat - t).max() < 1e-9
            assert (
                np.abs(aligned.all_vertices() - target.all_vertices()).max() < 1e-9
            )

    def test_identity(self):
        source = toy_chamber_set()
        r, t, _ = rigid_align(source, source)
        assert np.abs(r - np.eye(3)).max() < 1e-12
        assert np.abs(t).max() < 1e-12

    def test_rotation_is_proper(self):
        rng = np.random.default_rng(2)
        source = toy_chamber_set()
        reflected = source.transformed(rotation=np.diag([-1.0, 1.0, 1.0]), translation=np.zeros(3))
        r, _, _ = rigid_align(source, reflected)
        assert np.linalg.det(r) > 0

    def test_degenerate_errors(self):
        base = synth.icosphere(0)
        collapsed = toy_chamber_set(
            base=TriMesh(np.zeros_like(base.vertices) + 1.0, base.faces, "LV-endo"),
            spread=0.0,
        )
        with pytest.raises(ValueError, match="degenerate"):
            rigid_align(collapsed, collapsed)


class TestInflate:
    def test_zero_offset_identity(self, icosphere3):
        out = inflate_along_normals(icosphere3, 0.0)
        assert np.array_equal(out.vertices, icosphere3.vertices)

    def test_sphere_offset_radius(self, icosphere3):
        out = inflate_along_normals(icosphere3, 0.5)
        radii = np.linalg.norm(out.vertices, axis=1)
        assert np.abs(radii - 1.5).max() < 1e-2

    def test_volume_increases_for_convex(self, icosphere3):
        out = inflate_along_normals(icosphere3, 0.3)
        assert mesh_volume(out) > mesh_volume(icosphere3)

    def test_open_mesh_rejected(self):
        tri = TriMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]], "RV")
        with pytest.raises(ValueError, match="closed"):
            inflate_along_normals(tri, 1.0)


class TestTopologyDigest:
    def test_digest_changes_with_topology(self, small_template):
        template, _ = small_template
        t1 = Topology.from_chamber_set(template, 4)
        t2 = Topology.from_chamber_set(template, 5)
        assert t1.digest() != t2.digest()
        t3 = Topology.from_chamber_set(template, 4)
        assert t1.digest() == t3.digest()
