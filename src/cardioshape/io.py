"""File formats: OBJ mesh interchange, volume and view containers, the
binary shape-model container, control-grid records, and CSV emitters.

All writers are deterministic byte-for-byte: floats are rendered with %.17g
(text) or stored as little-endian float64 (binary), JSON uses sorted keys
and fixed separators.  Binary containers start with a one-line JSON header
or a fixed magic, and corrupt headers raise ValidationError rather than
crashing downstream.
"""

import json
import os
import struct
from pathlib import Path

import numpy as np

from .ffd import ControlGrid
from .mesh import STRUCTURES, ChamberSet, MeshSequence, Topology, TriMesh


class ValidationError(Exception):
    """A file or input failed validation (maps to CLI exit code 2)."""


def _fmt(x):
    return "%.17g" % float(x)


def _json_line(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


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
    for line in Path(path).read_text().splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "v":
            verts.append([float(x) for x in parts[1:4]])
        elif parts[0] == "f":
            faces.append([int(x.split("/")[0]) - 1 for x in parts[1:4]])
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
    if list(manifest.get("structures", [])) != list(STRUCTURES):
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
    from .synth import VolumeGeometry

    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline())
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid volume header ({exc})") from exc
        for key in ("dims", "spacing", "origin", "dtype", "frames"):
            if key not in header:
                raise ValidationError(f"{path}: volume header missing {key!r}")
        if header["dtype"] not in _VOLUME_DTYPES:
            raise ValidationError(f"{path}: unknown dtype {header['dtype']!r}")
        dims = tuple(int(d) for d in header["dims"])
        shape = (int(header["frames"]), dims[2], dims[1], dims[0])
        dtype = np.dtype(_VOLUME_DTYPES[header["dtype"]])
        expected = int(np.prod(shape)) * dtype.itemsize
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if size != expected:
            raise ValidationError(f"{path}: payload is {size} bytes, expected {expected}")
        voxels = np.fromfile(fh, dtype, count=int(np.prod(shape))).reshape(shape)
    frames = np.ascontiguousarray(voxels.transpose(0, 3, 2, 1))
    geometry = VolumeGeometry(header["origin"], header["spacing"], dims)
    return frames, geometry


# ---------------------------------------------------------------------------
# View container: one JSON header line describing all planes, then per plane
# the image payload (float64) and, if present, the label payload (int16).


def save_views(path, views):
    from .motion import ViewSet

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
    from .motion import SlicePlane, ViewSet

    sax = []
    la = {}
    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline())
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid views header ({exc})") from exc
        for meta in header.get("planes", []):
            t, h, w = int(meta["frames"]), int(meta["height"]), int(meta["width"])
            image = np.fromfile(fh, "<f8", count=t * h * w)
            if image.size != t * h * w:
                raise ValidationError(f"{path}: truncated image payload")
            label = None
            if meta["has_label"]:
                label = np.fromfile(fh, "<i2", count=t * h * w)
                if label.size != t * h * w:
                    raise ValidationError(f"{path}: truncated label payload")
                label = label.reshape(t, h, w)
            plane = SlicePlane(
                origin=meta["origin"],
                axis_u=meta["axis_u"],
                axis_v=meta["axis_v"],
                pixel_spacing=meta["pixel_spacing"],
                image=image.reshape(t, h, w),
                label=label,
                plane_id=meta["id"],
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
    counts = [
        {s: len(frame[s]) for s in frame} for frame in targets.frames
    ]
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
    from .objectives import TargetClouds

    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline())
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid target header ({exc})") from exc
        frames = []
        for counts in header["counts"]:
            frame = {}
            for s in header["structures"]:
                n = int(counts[s])
                pts = np.fromfile(fh, "<f8", count=3 * n)
                if pts.size != 3 * n:
                    raise ValidationError(f"{path}: truncated point payload")
                frame[s] = pts.reshape(n, 3)
            frames.append(frame)
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


def save_model(path, model, topology):
    model.require_trained()
    header = struct.pack(
        "<4sIQIIIIQd",
        _HSSM_MAGIC,
        _HSSM_VERSION,
        topology.digest(),
        topology.n_frames,
        topology.total_vertices,
        model.n_components,
        model.n_active,
        model.n_seen,
        model.sq_dev_total,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(model.mean, dtype="<f8").tobytes())
        fh.write(
            np.ascontiguousarray(model.explained_variance, dtype="<f8").tobytes()
        )
        fh.write(np.ascontiguousarray(model.components, dtype="<f8").tobytes())


def load_model(path, template=None):
    """Read a ``.hssm`` model.

    Given the template ChamberSet, the model's topology is built from it and
    the header's frame count, and must match the stored digest.
    """
    from .ssm import ShapeModel

    head_size = struct.calcsize("<4sIQIIIIQd")
    with open(path, "rb") as fh:
        head = fh.read(head_size)
        if len(head) < head_size:
            raise ValidationError(f"{path}: file too short for a model header")
        magic, version, digest, t, n_vertices, m, k, n_seen, sq_dev = struct.unpack(
            "<4sIQIIIIQd", head
        )
        if magic != _HSSM_MAGIC:
            raise ValidationError(f"{path}: bad magic {magic!r}, expected 'HSSM'")
        if version != _HSSM_VERSION:
            raise ValidationError(f"{path}: unsupported version {version}")
        topology = None if template is None else Topology.from_chamber_set(template, t)
        if topology is not None and topology.digest() != digest:
            raise ValidationError(
                f"{path}: topology digest mismatch; the model was trained on a "
                "different template"
            )
        dim = 3 * t * n_vertices
        expected = head_size + 8 * (dim + k + k * dim)
        size = os.fstat(fh.fileno()).st_size
        if size != expected:
            raise ValidationError(
                f"{path}: model payload is {size} bytes, expected {expected}"
            )
        # read straight into the arrays: no whole-file buffer, no copies
        mean = np.fromfile(fh, "<f8", count=dim)
        ev = np.fromfile(fh, "<f8", count=k)
        comps = np.fromfile(fh, "<f8", count=k * dim).reshape(k, dim)
    model = ShapeModel(n_components=m, topology=topology)
    model.mean = mean
    model.components = comps
    model.explained_variance = ev
    model.singular_values = np.sqrt(ev * max(n_seen - 1, 1))
    model.n_seen = int(n_seen)
    model.sq_dev_total = float(sq_dev)
    return model


# ---------------------------------------------------------------------------
# Control-grid records: dims 3 x u32, origin 3 x f64, spacing 3 x f64, then
# row-major f64 displacements.  A grids file is "HFFD" | version | count |
# records.

_GRID_MAGIC = b"HFFD"


def _write_grid_record(fh, grid):
    fh.write(struct.pack("<3I", *grid.dims))
    fh.write(np.ascontiguousarray(grid.origin, dtype="<f8").tobytes())
    fh.write(np.ascontiguousarray(grid.spacing, dtype="<f8").tobytes())
    fh.write(np.ascontiguousarray(grid.displacements, dtype="<f8").tobytes())


def _read_grid_record(fh, path):
    head = fh.read(60)
    if len(head) < 60:
        raise ValidationError(f"{path}: truncated grid record")
    dims = struct.unpack_from("<3I", head)
    origin, spacing = np.array(struct.unpack_from("<6d", head, 12)).reshape(2, 3)
    n = dims[0] * dims[1] * dims[2] * 3
    disp = np.fromfile(fh, "<f8", count=n)
    if disp.size != n:
        raise ValidationError(f"{path}: truncated grid displacements")
    return ControlGrid(dims, origin, spacing, disp.reshape(dims + (3,)))


def save_grids(path, grids):
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sII", _GRID_MAGIC, 1, len(grids)))
        for g in grids:
            _write_grid_record(fh, g)


def load_grids(path):
    with open(path, "rb") as fh:
        head = fh.read(12)
        if len(head) < 12 or head[:4] != _GRID_MAGIC:
            raise ValidationError(f"{path}: not a grids file")
        _, version, count = struct.unpack("<4sII", head)
        if version != 1:
            raise ValidationError(f"{path}: unsupported grids version {version}")
        return [_read_grid_record(fh, path) for _ in range(count)]


# ---------------------------------------------------------------------------
# CSV emitters


def save_phenotype_csv(path, tables, subject_ids=None):
    from .phenotypes import PhenotypeTable

    header = ["subject_id"] + [
        f"{c} ({u})" for c, u in zip(PhenotypeTable.COLUMNS, PhenotypeTable.UNITS)
    ]
    lines = [",".join(header) + "\n"]
    for i, table in enumerate(tables):
        sid = str(i) if subject_ids is None else str(subject_ids[i])
        lines.append(
            ",".join([sid] + [_fmt(x) for x in table.as_row()]) + "\n"
        )
    Path(path).write_text("".join(lines))


def save_metric_csv(path, rows):
    """Rows of (subject_id, frame, structure, metric, value)."""
    lines = ["subject_id,frame,structure,metric,value\n"]
    for sid, frame, structure, metric, value in rows:
        lines.append(f"{sid},{frame},{structure},{metric},{_fmt(value)}\n")
    Path(path).write_text("".join(lines))


def save_correlation_csv(path, topology, r, p, significant):
    lines = ["vertex_id,structure,r,p,significant\n"]
    vid = 0
    for s in STRUCTURES:
        for _ in range(topology.counts[s]):
            lines.append(
                f"{vid},{s},{_fmt(r[vid])},{_fmt(p[vid])},{int(significant[vid])}\n"
            )
            vid += 1
    Path(path).write_text("".join(lines))


def save_features_csv(path, values, subject_ids=None):
    values = np.asarray(values, dtype=np.float64)
    header = ["subject_id"] + [f"f{j}" for j in range(values.shape[1])]
    lines = [",".join(header) + "\n"]
    for i, row in enumerate(values):
        sid = str(i) if subject_ids is None else str(subject_ids[i])
        lines.append(",".join([sid] + [_fmt(x) for x in row]) + "\n")
    Path(path).write_text("".join(lines))


def load_features_csv(path):
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise ValidationError(f"{path}: empty features file")
    ids = []
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        ids.append(parts[0])
        rows.append([float(x) for x in parts[1:]])
    return ids, np.array(rows)


def save_groups_csv(path, groups, subject_ids=None):
    lines = ["subject_id,group\n"]
    for i, g in enumerate(groups):
        sid = str(i) if subject_ids is None else str(subject_ids[i])
        lines.append(f"{sid},{g}\n")
    Path(path).write_text("".join(lines))


def load_groups_csv(path):
    lines = Path(path).read_text().splitlines()
    ids = []
    groups = []
    for line in lines[1:]:
        sid, g = line.split(",")
        ids.append(sid)
        groups.append(g)
    return ids, np.array(groups)


def save_displacements_json(path, displacements):
    obj = {pid: [float(d[0]), float(d[1])] for pid, d in displacements.items()}
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")
