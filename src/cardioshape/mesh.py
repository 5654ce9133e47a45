"""Triangle-mesh containers and differential-geometry kernels.

All meshes are fixed-connectivity triangle surfaces with coordinates in
millimetres.  A heart is represented by five labelled structures; sequences
of the same heart over a cardiac cycle share one connectivity, which is what
makes vertex-wise population statistics possible downstream.
"""

import hashlib
from functools import cached_property

import numpy as np
from scipy import sparse

# Canonical structure order.  LV-endo and LV-epi are built with index-wise
# vertex correspondence (epi is an inflated copy of endo).
STRUCTURES = ("LV-endo", "LV-epi", "RV", "LA", "RA")


class TriMesh:
    """A labelled triangle mesh.

    Parameters
    ----------
    vertices : array_like, shape (n, 3)
        Vertex coordinates in mm.
    faces : array_like, shape (m, 3)
        Vertex-index triples.  Faces are stored counter-clockwise when viewed
        from outside the surface.
    structure_id : str
        One of ``STRUCTURES``.
    """

    def __init__(self, vertices, faces, structure_id):
        v = np.asarray(vertices, dtype=np.float64)
        f = np.asarray(faces, dtype=np.int64)
        if v.ndim != 2 or v.shape[1] != 3:
            raise ValueError("vertices must have shape (n, 3)")
        if f.ndim != 2 or f.shape[1] != 3:
            raise ValueError("faces must have shape (m, 3)")
        if not np.all(np.isfinite(v)):
            raise ValueError("vertices contain NaN/Inf coordinates")
        if f.size and (f.min() < 0 or f.max() >= len(v)):
            raise ValueError("face index out of range")
        if structure_id not in STRUCTURES:
            raise ValueError(f"unknown structure_id {structure_id!r}")
        used = np.zeros(len(v), dtype=bool)
        used[f.ravel()] = True
        if not used.all():
            raise ValueError(
                f"{int((~used).sum())} vertices are not referenced by any face"
            )
        self.vertices = v
        self.faces = f
        self.structure_id = structure_id
        self._edges = None

    @property
    def n_vertices(self):
        return len(self.vertices)

    def with_vertices(self, vertices):
        """Same connectivity and label, new coordinates."""
        out = TriMesh(vertices, self.faces, self.structure_id)
        out._edges = self._edges
        return out

    def edges(self):
        """Unique undirected edges as a sorted (E, 2) index array (cached)."""
        if self._edges is None:
            self._edges = edges_from_faces(self.faces)
        return self._edges

    def boundary_edge_count(self):
        """Number of undirected edges not shared by exactly two faces."""
        _, counts = np.unique(_half_edge_keys(self.faces), return_counts=True)
        return int(np.count_nonzero(counts != 2))

    def is_closed(self):
        return self.boundary_edge_count() == 0


def _half_edge_keys(faces):
    """One int64 key per face side, its vertex pair sorted: a 1-D unique over
    these is ~4x faster than ``unique(axis=0)`` over the pairs."""
    e = np.sort(np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]]), axis=1)
    return e[:, 0] << 32 | e[:, 1]


def edges_from_faces(faces):
    """Unique undirected edge set of a triangle list, rows sorted."""
    key = np.unique(_half_edge_keys(faces))
    return np.stack([key >> 32, key & 0xFFFFFFFF], axis=1)


def _cross(a, b):
    """``np.cross`` of (n, 3) rows, term for term (the same bits), minus its set-up."""
    return np.stack([a[:, k - 2] * b[:, k - 1] - a[:, k - 1] * b[:, k - 2] for k in range(3)], 1)


def _scatter_rows(index, blocks, n):
    """(n, 3) sums of the rows of ``blocks``, taken in order, grouped by vertex
    ``index``: one bincount per axis, over that axis's column of every block."""
    cols = ([b[:, k] for b in blocks] for k in range(3))
    return np.stack([np.bincount(index, np.concatenate(c), minlength=n) for c in cols], axis=1)


def accumulated_normals(vertices, faces):
    """Per-vertex sums of incident face cross products (v1-v0) x (v2-v0), in
    k-major corner order so a mesh gets the same bits alone and pooled, and
    their norms; ValueError at a vertex with a zero-area triangle fan."""
    corners = faces.T.ravel()
    c = corners.reshape(3, -1)
    cr = _cross(*(np.take(vertices, c[1:], axis=0) - np.take(vertices, c[0], axis=0)))
    m = _scatter_rows(corners, [cr, cr, cr], len(vertices))
    norm = np.linalg.norm(m, axis=1)
    bad = norm < 1e-300
    if bad.any():
        raise ValueError(
            f"zero-area vertex star at vertex {int(np.flatnonzero(bad)[0])}"
        )
    return m, norm


def vertex_normals(mesh):
    """Outward unit vertex normals.

    Each vertex normal is the area-weighted average of its incident face
    normals (accumulated as raw face cross products, then normalised).
    Outward orientation relies on counter-clockwise face storage.

    Parameters
    ----------
    mesh : TriMesh

    Returns
    -------
    ndarray, shape (n, 3)

    Raises
    ------
    ValueError
        If some vertex has a zero-area triangle fan (no usable normal).
    """
    m, norm = accumulated_normals(mesh.vertices, mesh.faces)
    return m / norm[:, None]


def graph_laplacian(mesh):
    """Degree-normalised uniform graph Laplacian as a sparse CSR matrix.

    ``(L v)_i = v_i - mean of the neighbours of i``; rows sum to zero.
    """
    return _laplacian(mesh.edges(), mesh.n_vertices)


def _laplacian(e, n):
    i = np.concatenate([e[:, 0], e[:, 1]])
    j = np.concatenate([e[:, 1], e[:, 0]])
    deg = np.bincount(i, minlength=n).astype(np.float64)
    if np.any(deg == 0):
        raise ValueError(
            f"isolated vertex {int(np.flatnonzero(deg == 0)[0])} has no edges"
        )
    data = -1.0 / deg[i]
    lap = sparse.csr_matrix((data, (i, j)), shape=(n, n))
    lap = lap + sparse.identity(n, format="csr")
    return lap


def mean_curvature(mesh):
    """Per-vertex mean-curvature estimate (1/mm).

    ``H_i = -1/2 (L v)_i . n_i`` with the uniform graph Laplacian and
    area-weighted vertex normals.  Exactly invariant under translation
    (Laplacian rows sum to zero) and under rotation (both factors rotate).
    """
    lv = graph_laplacian(mesh) @ mesh.vertices
    n = vertex_normals(mesh)
    return -0.5 * np.einsum("ij,ij->i", lv, n)


def inflate_along_normals(mesh, offset):
    """Offset every vertex along its outward normal.

    Connectivity is unchanged, so the result corresponds index-wise with the
    input.  Self-intersection of the offset surface is not checked.
    """
    if offset < 0:
        raise ValueError("offset must be >= 0")
    if not mesh.is_closed():
        raise ValueError("inflate_along_normals requires a closed mesh")
    n = vertex_normals(mesh)
    return mesh.with_vertices(mesh.vertices + offset * n)


class ChamberSet:
    """The five labelled structures of one heart at one time point."""

    def __init__(self, meshes):
        if set(meshes) != set(STRUCTURES):
            missing = set(STRUCTURES) - set(meshes)
            extra = set(meshes) - set(STRUCTURES)
            raise ValueError(
                f"ChamberSet needs exactly {STRUCTURES}; missing={sorted(missing)}, "
                f"unexpected={sorted(extra)}"
            )
        for name, m in meshes.items():
            if m.structure_id != name:
                raise ValueError(
                    f"mesh stored under {name!r} is labelled {m.structure_id!r}"
                )
        if meshes["LV-endo"].n_vertices != meshes["LV-epi"].n_vertices:
            raise ValueError("LV-endo and LV-epi must have equal vertex counts")
        self.meshes = {name: meshes[name] for name in STRUCTURES}

    def __getitem__(self, name):
        return self.meshes[name]

    def __iter__(self):
        return iter(STRUCTURES)

    @property
    def total_vertices(self):
        return sum(m.n_vertices for m in self.meshes.values())

    def all_vertices(self):
        """All vertex coordinates pooled in structure order, shape (|V|, 3)."""
        return np.concatenate([self.meshes[s].vertices for s in STRUCTURES])

    def with_all_vertices(self, coords):
        """Rebuild from pooled coordinates in structure order."""
        out = {}
        k = 0
        for s in STRUCTURES:
            n = self.meshes[s].n_vertices
            out[s] = self.meshes[s].with_vertices(coords[k : k + n])
            k += n
        return ChamberSet(out)

    def transformed(self, rotation, translation):
        """Every vertex ``v`` moved to ``rotation @ v + translation``."""
        r = np.asarray(rotation, dtype=np.float64)
        t = np.asarray(translation, dtype=np.float64)
        return self.with_all_vertices(self.all_vertices() @ r.T + t)


class MeshSequence:
    """An ordered sequence of ChamberSets sharing one connectivity."""

    def __init__(self, frames):
        if len(frames) < 1:
            raise ValueError("MeshSequence needs at least one frame")
        first = frames[0]
        for fr in frames[1:]:
            for s in STRUCTURES:
                if fr[s].n_vertices != first[s].n_vertices or not np.array_equal(
                    fr[s].faces, first[s].faces
                ):
                    raise ValueError(f"frame connectivity differs for structure {s}")
        self.frames = list(frames)

    @property
    def n_frames(self):
        return len(self.frames)

    def __getitem__(self, t):
        return self.frames[t]

    def topology(self):
        return Topology.from_chamber_set(self.frames[0], self.n_frames)


class Topology:
    """Connectivity shared by every frame of a sequence (and a whole cohort).

    Pooled coordinates list the structures in canonical order: structure
    ``s`` owns the vertex rows ``rows[s]`` from ``starts[i]``, and ``labels``
    holds each row's structure index.  The pooled connectivity the fit
    regularisers pass over once per frame is built on first use and kept.
    """

    def __init__(self, counts, faces, n_frames):
        self.counts = {s: int(counts[s]) for s in STRUCTURES}
        self.faces = {s: np.asarray(faces[s], dtype=np.int64) for s in STRUCTURES}
        self.n_frames = int(n_frames)
        sizes = [self.counts[s] for s in STRUCTURES]
        ends = np.cumsum(sizes)
        self.rows = {s: slice(int(e - n), int(e)) for s, n, e in zip(STRUCTURES, sizes, ends)}
        self.starts = ends - sizes
        self.labels = np.repeat(np.arange(len(STRUCTURES)), sizes)

    @cached_property
    def corners(self):
        """All faces in pooled rows, k-major: (3, F) first, second, third corners."""
        return np.concatenate([self.faces[s] + self.rows[s].start for s in STRUCTURES]).T.copy()

    @cached_property
    def pooled_edges(self):
        """:func:`edges_from_faces` of ``corners``: structure by structure."""
        return edges_from_faces(self.corners.T)

    @cached_property
    def laplacian(self):
        """Each structure's :func:`graph_laplacian` as a block on one diagonal."""
        return _laplacian(self.pooled_edges, self.total_vertices)

    @classmethod
    def from_chamber_set(cls, chambers, n_frames):
        return cls(
            {s: chambers[s].n_vertices for s in STRUCTURES},
            {s: chambers[s].faces for s in STRUCTURES},
            n_frames,
        )

    @property
    def total_vertices(self):
        return sum(self.counts.values())

    @property
    def vector_length(self):
        return 3 * self.n_frames * self.total_vertices

    def template_chamber_set(self, coords):
        out = {}
        k = 0
        for s in STRUCTURES:
            n = self.counts[s]
            out[s] = TriMesh(coords[k : k + n], self.faces[s], s)
            k += n
        return ChamberSet(out)

    def digest(self):
        """64-bit digest of structure order, counts, faces and frame count."""
        h = hashlib.blake2b(digest_size=8)
        h.update(str(self.n_frames).encode())
        for s in STRUCTURES:
            h.update(s.encode())
            h.update(str(self.counts[s]).encode())
            h.update(np.ascontiguousarray(self.faces[s]).tobytes())
        return int.from_bytes(h.digest(), "little")


def vectorize(seq):
    """Flatten a MeshSequence to a 1-D coordinate vector.

    Layout: frame-major, then structure in canonical order, then vertex
    index, then (x, y, z).  Length is ``3 * T * |V|``.
    """
    parts = []
    for fr in seq.frames:
        for s in STRUCTURES:
            parts.append(fr[s].vertices.ravel())
    return np.concatenate(parts)


def devectorize(coords, topology):
    """Inverse of :func:`vectorize` for a known topology."""
    coords = np.asarray(coords, dtype=np.float64)
    expected = topology.vector_length
    if coords.shape != (expected,):
        raise ValueError(
            f"coordinate vector has length {coords.size}, expected {expected} "
            f"(3 x {topology.n_frames} frames x {topology.total_vertices} vertices)"
        )
    per_frame = 3 * topology.total_vertices
    frames = []
    for t in range(topology.n_frames):
        block = coords[t * per_frame : (t + 1) * per_frame].reshape(-1, 3)
        frames.append(topology.template_chamber_set(block))
    return MeshSequence(frames)


def rigid_align(source, target):
    """Least-squares rigid alignment of two hearts.

    Point correspondence is given by vertex index; all structures are pooled.
    Solves ``argmin sum ||R x + t - y||^2`` (Kabsch/Umeyama) with
    ``det(R) = +1``.

    Returns
    -------
    rotation : ndarray (3, 3)
    translation : ndarray (3,)
    aligned : ChamberSet
        ``source`` mapped by the recovered transform.
    """
    x = source.all_vertices()
    y = target.all_vertices()
    if x.shape != y.shape:
        raise ValueError("source and target must share connectivity")
    mx = x.mean(axis=0)
    my = y.mean(axis=0)
    xc = x - mx
    yc = y - my
    var_x = (xc**2).sum()
    if var_x < 1e-12:
        raise ValueError("degenerate source: all points coincident")
    cov = xc.T @ yc
    u, _, vt = np.linalg.svd(cov)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    flip = np.diag([1.0, 1.0, d])
    rot = vt.T @ flip @ u.T
    trans = my - rot @ mx
    aligned = source.transformed(rotation=rot, translation=trans)
    return rot, trans, aligned
