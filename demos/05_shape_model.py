"""Train a statistical shape model with incremental PCA and use it: encode,
decode, mode sampling, sparse-contour fitting and missing-frame completion.

Run:  python demos/05_shape_model.py
"""

import numpy as np

from cardioshape import synth
from cardioshape.mesh import STRUCTURES, devectorize, vectorize
from cardioshape.ssm import (
    ShapeModel,
    compactness,
    complete_sequence,
    decode,
    encode,
    fit_to_contours,
    generalization_error,
    ipca_partial_fit,
    sample_mode,
)

cfg = synth.SynthConfig(scale=0.03, n_frames=8, seed=21, n_modes=6)
pop = synth.synth_population(cfg, 90)
topology = pop.sequences[0].topology()

vectors = np.stack([vectorize(s) for s in pop.sequences])
train, test = vectors[:70], vectors[70:]

model = ShapeModel(n_components=20, topology=topology)
for start in range(0, len(train), 32):  # stream mini-batches
    ipca_partial_fit(model, train[start : start + 32])

print(f"model: {model.n_active} components over {model.dim}-dim shape vectors")
print("compactness:", " ".join(
    f"k={k}:{compactness(model, k):.3f}"
    for k in [k for k in (1, 2, 4, 8, 16) if k < model.n_active] + [model.n_active]
))

mean_err, sd_err, _ = generalization_error(model, test, model.n_active)
print(f"generalization on unseen subjects: {mean_err:.3f} +/- {sd_err:.3f} mm")

w = encode(model, test[0])
recon = decode(model, w)
print(f"encode/decode roundtrip residual: "
      f"{np.abs(recon - decode(model, encode(model, recon))).max():.2e}")

# +/- 2 SD of the first mode
for sd in (-2.0, 2.0):
    seq = sample_mode(model, 0, sd)
    lv = seq.frames[0]["LV-endo"].vertices
    print(f"mode 0 at {sd:+.0f} SD: LV-endo extent "
          f"{np.ptp(lv, axis=0).round(1)} mm")

# sparse contours from a held-out subject
subject = devectorize(test[1], topology)
planes = [
    (np.array([0.0, 0.0, z]), np.array([0.0, 0.0, 1.0]))
    for z in np.linspace(-45, 45, 9)
] + [
    (np.zeros(3), np.array([np.sin(a), -np.cos(a), 0.0]))
    for a in np.linspace(0.2, 2.8, 8)
]
contours = []
for t in range(topology.n_frames):
    frame = {}
    for s in STRUCTURES:
        pts = [synth.plane_section(subject.frames[t][s], o, n) for o, n in planes]
        pts = [p for p in pts if len(p)]
        if pts:
            frame[s] = np.concatenate(pts)
    contours.append(frame)
w_hat = fit_to_contours(model, contours)
w_direct = encode(model, test[1])
print(f"\ncontour fit vs direct encoding, first 5 weights:")
print("  fitted :", np.round(w_hat[:5], 2))
print("  direct :", np.round(w_direct[:5], 2))

# complete the sequence from two observed frames
observed = np.zeros(topology.n_frames, dtype=bool)
observed[[0, topology.n_frames // 2]] = True
completed = complete_sequence(model, subject, observed)
err = np.linalg.norm(
    (vectorize(completed) - test[1]).reshape(-1, 3), axis=1
).mean()
print(f"completion from 2 observed frames: mean vertex error {err:.3f} mm")
