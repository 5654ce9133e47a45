import numpy as np
import pytest

from cardioshape import synth
from cardioshape.mesh import STRUCTURES, ChamberSet, MeshSequence, TriMesh


@pytest.fixture(scope="session")
def small_template():
    cfg = synth.SynthConfig(scale=0.03, n_frames=4, seed=0)
    return synth.make_template(cfg)


@pytest.fixture(scope="session")
def icosphere3():
    return synth.icosphere(3)


def cube_mesh():
    """Unit cube triangulated so corner (1,1,1) touches exactly one triangle
    per incident face (equal areas, outward CCW)."""
    v = np.array(
        [
            [0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0],
            [0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1],
        ],
        dtype=float,
    )
    # Diagonals avoid corner 7, so it touches exactly one triangle per face.
    f = [
        (1, 3, 5), (3, 7, 5),  # x = 1
        (3, 2, 6), (3, 6, 7),  # y = 1
        (4, 5, 6), (5, 7, 6),  # z = 1
        (0, 4, 6), (0, 6, 2),  # x = 0
        (0, 1, 5), (0, 5, 4),  # y = 0
        (0, 2, 3), (0, 3, 1),  # z = 0
    ]
    return TriMesh(v, np.array(f), "LV-endo")


def toy_chamber_set(base=None, spread=30.0):
    """Five translated copies of one small mesh (a valid ChamberSet)."""
    if base is None:
        base = synth.icosphere(1)
    meshes = {}
    for i, s in enumerate(STRUCTURES):
        offset = np.array([spread * i, 0.0, 0.0])
        meshes[s] = TriMesh(base.vertices + offset, base.faces, s)
    return ChamberSet(meshes)


def toy_sequence(n_frames=3, motion=None, base=None):
    """Sequence of translated toy chamber sets; ``motion(t)`` returns a world
    offset applied to every structure at frame t."""
    chambers = toy_chamber_set(base=base)
    frames = []
    for t in range(n_frames):
        offset = np.zeros(3) if motion is None else np.asarray(motion(t), float)
        frames.append(
            ChamberSet(
                {
                    s: TriMesh(chambers[s].vertices + offset, chambers[s].faces, s)
                    for s in STRUCTURES
                }
            )
        )
    return MeshSequence(frames)
