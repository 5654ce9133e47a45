"""File formats: OBJ mesh interchange, volume and view containers, the
binary shape-model container, control-grid records, and CSV emitters.

All writers are deterministic byte-for-byte: floats are rendered with %.17g
(text) or stored as little-endian float64 (binary), JSON uses sorted keys
and fixed separators.  Binary containers start with a one-line JSON header
(volumes: dims, spacing, origin, dtype, frames; views: planes, each with
frames, height, width, has_label; target clouds: structures, counts) or a
fixed magic, and every one is read through ``_container``: the payload must
match the header exactly, so a truncated payload and trailing bytes are both
rejected.  Every loader error is a ValidationError that names the file.
"""

import json
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

import numpy as np

from .ffd import ControlGrid
from .mesh import STRUCTURES, ChamberSet, MeshSequence, Topology, TriMesh
from .motion import SlicePlane, ViewSet
from .objectives import TargetClouds
from .phenotypes import PhenotypeTable
from .ssm import ShapeModel
from .synth import VolumeGeometry


class ValidationError(Exception):
    """A file or input failed validation (maps to CLI exit code 2)."""


def _fmt(x):
    return "%.17g" % float(x)


def _json_line(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _require(obj, keys, what):
    """Check that ``obj`` is a JSON object holding ``keys``."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{what} is not a JSON object")
    for key in keys:
        if key not in obj:
            raise ValidationError(f"{what} missing {key!r}")


@contextmanager
def _container(path, kind, keys=None):
    """Open a binary container and yield ``(header, take)``.

    Given ``keys``, the first line is a JSON object header holding them.
    ``take(dtype, count, what)`` reads the next ``count`` items; a clean exit
    requires the payload used up exactly.  Every error, a malformed value met
    in the ``with`` body included, is a ValidationError naming ``path``.
    """
    with open(path, "rb") as fh:
        size = Path(path).stat().st_size
        header = None
        if keys is not None:
            try:
                header = json.loads(fh.readline())
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ValidationError(f"{path}: invalid {kind} header ({exc})") from exc
            _require(header, keys, f"{path}: {kind} header")

        def take(dtype, count, what):
            dtype = np.dtype(dtype)
            # checked before reading, so a corrupt count allocates nothing
            if count < 0 or count * dtype.itemsize > size - fh.tell():
                raise ValidationError(f"{path}: truncated {what} (file too short)")
            return np.fromfile(fh, dtype, count=count)

        try:
            yield header, take
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise ValidationError(
                f"{path}: malformed {kind} file ({type(exc).__name__}: {exc})"
            ) from exc
        if fh.read(1):
            raise ValidationError(f"{path}: trailing bytes after the {kind} payload")


# ---------------------------------------------------------------------------
# OBJ meshes and sequence directories


def write_obj(path, mesh):
    # one format per mesh renders each coordinate as _fmt does
    v, f = mesh.vertices, mesh.faces + 1
    Path(path).write_text(
        "v %.17g %.17g %.17g\n" * len(v) % tuple(v.ravel().tolist())
        + "f %d %d %d\n" * len(f) % tuple(f.ravel().tolist())
    )


def read_obj(path, structure_id):
    verts = []
    faces = []
    for n, line in enumerate(Path(path).read_text().splitlines(), start=1):
        kind, *fields = line.split() or [""]
        try:
            if kind == "v":
                verts.append([float(fields[i]) for i in range(3)])
            elif kind == "f":
                face = [int(ref.split("/")[0]) - 1 for ref in fields]
                # polygons and relative (negative) indices are not read
                if len(face) != 3 or min(face) < 0:
                    raise ValueError
                faces.append(face)
        except (ValueError, IndexError):
            raise ValidationError(f"{path}, line {n}: malformed record {line.strip()!r}") from None
    if not verts or not faces:
        raise ValidationError(f"{path}: no usable v/f records")
    return TriMesh(np.array(verts), np.array(faces), structure_id)


def save_sequence(directory, seq):
    """One OBJ per structure per frame plus a JSON manifest."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {
        "structures": list(STRUCTURES),
        "vertex_counts": {s: seq.frames[0][s].n_vertices for s in STRUCTURES},
        "n_frames": seq.n_frames,
    }
    (directory / "manifest.json").write_text(_json_line(manifest))
    for t, frame in enumerate(seq.frames):
        for s in STRUCTURES:
            write_obj(directory / f"frame_{t:03d}_{s}.obj", frame[s])


def load_sequence(directory):
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.exists():
        raise ValidationError(f"{directory}: missing manifest.json")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{manifest_path}: invalid JSON ({exc})") from exc
    _require(manifest, ("structures", "n_frames", "vertex_counts"), manifest_path)
    _require(manifest["vertex_counts"], STRUCTURES, f"{manifest_path}: vertex_counts")
    if list(manifest["structures"]) != list(STRUCTURES):
        raise ValidationError(f"{manifest_path}: unexpected structure list")
    frames = []
    for t in range(int(manifest["n_frames"])):
        meshes = {}
        for s in STRUCTURES:
            mesh = read_obj(directory / f"frame_{t:03d}_{s}.obj", s)
            if mesh.n_vertices != manifest["vertex_counts"][s]:
                raise ValidationError(
                    f"{directory}: vertex count mismatch for {s} in frame {t}"
                )
            meshes[s] = mesh
        frames.append(ChamberSet(meshes))
    return MeshSequence(frames)


def load_chamber_set(directory):
    return load_sequence(directory).frames[0]


# ---------------------------------------------------------------------------
# Volume container: one JSON header line, then raw voxels per frame in
# Z, Y, X order, little-endian.

_VOLUME_DTYPES = {"float64": "<f8", "int16": "<i2", "uint8": "u1"}


def save_volume(path, frames, geometry):
    frames = np.asarray(frames)
    if frames.ndim != 4:
        raise ValueError("frames must have shape (T, X, Y, Z)")
    dtype_name = {"f": "float64", "i": "int16", "u": "uint8"}[frames.dtype.kind]
    header = {
        "dims": list(frames.shape[1:]),
        "spacing": [float(s) for s in geometry.spacing],
        "origin": [float(o) for o in geometry.origin],
        "axes": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        "dtype": dtype_name,
        "frames": frames.shape[0],
    }
    payload = b"".join(
        np.ascontiguousarray(
            frames[t].transpose(2, 1, 0).astype(_VOLUME_DTYPES[dtype_name])
        ).tobytes()
        for t in range(frames.shape[0])
    )
    with open(path, "wb") as fh:
        fh.write(_json_line(header).encode())
        fh.write(payload)


def load_volume(path):
    keys = ("dims", "spacing", "origin", "dtype", "frames")
    with _container(path, "volume", keys) as (header, take):
        if header["dtype"] not in _VOLUME_DTYPES:
            raise ValidationError(f"{path}: unknown dtype {header['dtype']!r}")
        nx, ny, nz = (int(d) for d in header["dims"])
        shape = (int(header["frames"]), nz, ny, nx)
        dtype = _VOLUME_DTYPES[header["dtype"]]
        voxels = take(dtype, shape[0] * nz * ny * nx, "voxel payload")
        frames = np.ascontiguousarray(voxels.reshape(shape).transpose(0, 3, 2, 1))
        geometry = VolumeGeometry(header["origin"], header["spacing"], (nx, ny, nz))
    return frames, geometry


# ---------------------------------------------------------------------------
# View container: one JSON header line describing all planes, then per plane
# the image payload (float64) and, if present, the label payload (int16).

_PLANE_SHAPE_KEYS = ("frames", "height", "width", "has_label")


def save_views(path, views):
    assert isinstance(views, ViewSet)
    planes = views.planes()
    roles = ["sax"] * len(views.sax) + ["la_2ch", "la_4ch"]
    header = {
        "planes": [
            {
                "id": p.plane_id,
                "role": role,
                "origin": [float(x) for x in p.origin],
                "axis_u": [float(x) for x in p.axis_u],
                "axis_v": [float(x) for x in p.axis_v],
                "pixel_spacing": [p.pixel_spacing[0], p.pixel_spacing[1]],
                "frames": p.n_frames,
                "height": p.shape[0],
                "width": p.shape[1],
                "has_label": p.label is not None,
            }
            for p, role in zip(planes, roles)
        ]
    }
    with open(path, "wb") as fh:
        fh.write(_json_line(header).encode())
        for p in planes:
            fh.write(np.ascontiguousarray(p.image, dtype="<f8").tobytes())
            if p.label is not None:
                fh.write(np.ascontiguousarray(p.label, dtype="<i2").tobytes())


def load_views(path):
    sax = []
    la = {}
    with _container(path, "views", ("planes",)) as (header, take):
        for i, meta in enumerate(header["planes"]):
            _require(meta, _PLANE_SHAPE_KEYS, f"{path}: views plane {i}")
            t, h, w = int(meta["frames"]), int(meta["height"]), int(meta["width"])
            image = take("<f8", t * h * w, "image payload").reshape(t, h, w)
            label = None
            if meta["has_label"]:
                label = take("<i2", t * h * w, "label payload").reshape(t, h, w)
            plane = SlicePlane(
                meta["origin"], meta["axis_u"], meta["axis_v"], meta["pixel_spacing"],
                image, label, plane_id=meta["id"],
            )
            if meta["role"] == "sax":
                sax.append(plane)
            else:
                la[meta["role"]] = plane
    if len(sax) < 3 or "la_2ch" not in la or "la_4ch" not in la:
        raise ValidationError(f"{path}: incomplete view set")
    return ViewSet(sax=sax, la_2ch=la["la_2ch"], la_4ch=la["la_4ch"])


# ---------------------------------------------------------------------------
# Target-cloud container: JSON header line, then per frame and structure the
# float64 point payload.


def save_target_clouds(path, targets):
    counts = [{s: len(frame[s]) for s in frame} for frame in targets.frames]
    header = {
        "frames": targets.n_frames,
        "structures": list(targets.structures()),
        "counts": counts,
    }
    with open(path, "wb") as fh:
        fh.write(_json_line(header).encode())
        for frame in targets.frames:
            for s in frame:
                fh.write(np.ascontiguousarray(frame[s], dtype="<f8").tobytes())


def load_target_clouds(path):
    with _container(path, "target-cloud", ("structures", "counts")) as (header, take):
        frames = [
            {
                s: take("<f8", 3 * int(counts[s]), "point payload").reshape(-1, 3)
                for s in header["structures"]
            }
            for counts in header["counts"]
        ]
        return TargetClouds(frames)


# ---------------------------------------------------------------------------
# Shape-model container.  Layout (all little-endian):
#   magic "HSSM" | version u32 | topology digest u64 | T u32 | |V| u32 |
#   M u32 | K u32 | n_seen u64 | total squared deviation f64 |
#   mean (D f64) | explained_variance (K f64) | components (K x D f64).
# K, n_seen and the deviation total extend the minimal field list so that
# compactness survives a round trip.

_HSSM_MAGIC = b"HSSM"
_HSSM_VERSION = 1
_HSSM_HEAD = np.dtype("S4,<u4,<u8,<u4,<u4,<u4,<u4,<u8,<f8")  # 48 bytes, unpadded


def save_model(path, model, topology):
    model.require_trained()
    header = (
        _HSSM_MAGIC, _HSSM_VERSION, topology.digest(), topology.n_frames,
        topology.total_vertices, model.n_components, model.n_active,
        model.n_seen, model.sq_dev_total,
    )
    with open(path, "wb") as fh:
        fh.write(np.array(header, _HSSM_HEAD).tobytes())
        for array in (model.mean, model.explained_variance, model.components):
            fh.write(np.ascontiguousarray(array, dtype="<f8").tobytes())


def load_model(path, template):
    """Read a ``.hssm`` model.

    The model's topology is built from the template ChamberSet and the
    header's frame count, and must match the stored digest.
    """
    with _container(path, "model") as (_, take):
        head = take(_HSSM_HEAD, 1, "model header")
        magic, version, digest, t, n_vertices, m, k, n_seen, sq_dev = head.tolist()[0]
        if magic != _HSSM_MAGIC:
            raise ValidationError(f"{path}: bad magic {magic!r}, expected 'HSSM'")
        if version != _HSSM_VERSION:
            raise ValidationError(f"{path}: unsupported version {version}")
        topology = Topology.from_chamber_set(template, t)
        if topology.digest() != digest:
            raise ValidationError(
                f"{path}: topology digest mismatch; the model was trained on a "
                "different template"
            )
        dim = 3 * t * n_vertices
        # read straight into the arrays: no whole-file buffer, no copies
        mean = take("<f8", dim, "mean payload")
        ev = take("<f8", k, "variance payload")
        comps = take("<f8", k * dim, "component payload").reshape(k, dim)
    model = ShapeModel(n_components=m, topology=topology)
    model.mean = mean
    model.components = comps
    model.explained_variance = ev
    model.n_seen = int(n_seen)
    model.sq_dev_total = float(sq_dev)
    return model


# ---------------------------------------------------------------------------
# Control-grid records: dims 3 x u32, origin 3 x f64, spacing 3 x f64, then
# row-major f64 displacements.  A grids file is "HFFD" | version | count |
# records.

_GRID_MAGIC = b"HFFD"
_GRIDS_HEAD = np.dtype("S4,<u4,<u4")
_GRID_HEAD = np.dtype("(3,)<u4,(3,)<f8,(3,)<f8")


def save_grids(path, grids):
    with open(path, "wb") as fh:
        fh.write(np.array((_GRID_MAGIC, 1, len(grids)), _GRIDS_HEAD).tobytes())
        for g in grids:
            fh.write(np.array((g.dims, g.origin, g.spacing), _GRID_HEAD).tobytes())
            fh.write(np.ascontiguousarray(g.displacements, dtype="<f8").tobytes())


def load_grids(path):
    with _container(path, "grids") as (_, take):
        magic, version, count = take(_GRIDS_HEAD, 1, "grids header").tolist()[0]
        if magic != _GRID_MAGIC:
            raise ValidationError(f"{path}: not a grids file")
        if version != 1:
            raise ValidationError(f"{path}: unsupported grids version {version}")
        grids = []
        for _ in range(count):
            dims, origin, spacing = take(_GRID_HEAD, 1, "grid record")[0]
            dims = tuple(dims.tolist())
            disp = take("<f8", 3 * dims[0] * dims[1] * dims[2], "grid displacements")
            grids.append(ControlGrid(dims, origin, spacing, disp.reshape(dims + (3,))))
        return grids


# ---------------------------------------------------------------------------
# CSV and JSON emitters


def save_csv(path, header, rows):
    """``header`` then one line per row, fields joined by commas: floats as
    %.17g, every other field as ``str`` renders it."""
    lines = [",".join(header) + "\n"]
    for row in rows:
        cells = [_fmt(x) if isinstance(x, (float, np.floating)) else str(x) for x in row]
        lines.append(",".join(cells) + "\n")
    Path(path).write_text("".join(lines))


def save_phenotype_csv(path, tables, subject_ids):
    header = ["subject_id"] + [
        f"{f.name} ({u})" for f, u in zip(fields(PhenotypeTable), PhenotypeTable.UNITS)
    ]
    rows = [[sid] + table.as_row() for sid, table in zip(subject_ids, tables, strict=True)]
    save_csv(path, header, rows)


def save_metric_csv(path, rows):
    """Rows of (subject_id, frame, structure, metric, value)."""
    save_csv(path, ["subject_id", "frame", "structure", "metric", "value"], rows)


def save_correlation_csv(path, topology, r, p, significant):
    rows = []
    vid = 0
    for s in STRUCTURES:
        for _ in range(topology.counts[s]):
            rows.append((vid, s, r[vid], p[vid], int(significant[vid])))
            vid += 1
    save_csv(path, ["vertex_id", "structure", "r", "p", "significant"], rows)


def save_features_csv(path, values):
    values = np.asarray(values, dtype=np.float64)
    header = ["subject_id"] + [f"f{j}" for j in range(values.shape[1])]
    save_csv(path, header, [[i] + list(row) for i, row in enumerate(values)])


def _csv_rows(path, width=None):
    """Yield (line number, fields) for each row after the header; every row
    must have ``width`` fields, by default as many as the header."""
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise ValidationError(f"{path}: empty CSV file")
    width = width or lines[0].count(",") + 1
    for n, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != width:
            raise ValidationError(f"{path}, line {n}: {len(parts)} fields, expected {width}")
        yield n, parts


def load_features_csv(path):
    ids = []
    rows = []
    for n, parts in _csv_rows(path):
        ids.append(parts[0])
        try:
            rows.append([float(x) for x in parts[1:]])
        except ValueError as exc:
            raise ValidationError(f"{path}, line {n}: {exc}") from exc
    return ids, np.array(rows)


def save_groups_csv(path, groups):
    save_csv(path, ["subject_id", "group"], [(i, str(g)) for i, g in enumerate(groups)])


def load_groups_csv(path):
    rows = [parts for _, parts in _csv_rows(path, width=2)]
    return [sid for sid, _ in rows], np.array([g for _, g in rows])


def save_json(path, obj):
    """``obj`` as indented JSON with sorted keys and a final newline."""
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")
