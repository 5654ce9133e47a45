"""Fit the template to a subject's per-frame target clouds with multi-scale
free-form deformations.

Run:  python demos/04_fit_subject.py
"""

import numpy as np

from cardioshape import synth
from cardioshape.fitting import FitConfig, fit_sequence
from cardioshape.mesh import STRUCTURES, MeshSequence, vectorize
from cardioshape.objectives import TargetClouds, cycle_loss, recon_loss, surface_distances

cfg = synth.SynthConfig(scale=0.05, n_frames=6, seed=4)
pop = synth.synth_population(cfg, 1)
subject = pop.sequences[0]

# pretend we only observed the subject as per-frame surface point clouds
targets = TargetClouds.from_sequence(subject)


def pooled(seq):
    """(T, V, 3) coordinates and shared topology, as the losses take them."""
    return vectorize(seq).reshape(seq.n_frames, -1, 3), seq.topology()


fit_cfg = FitConfig(
    dims_coarse=(6, 6, 8),
    dims_mid=(8, 8, 10),
    dims_fine=(10, 10, 12),
    iterations=120,
    lr=0.5,
)
r0, _ = recon_loss(*pooled(MeshSequence([pop.template] * cfg.n_frames)), targets)
print(f"recon loss before fitting: {r0:.3f} mm")

seq, grids, trace = fit_sequence(pop.template, targets, fit_cfg)
r1, _ = recon_loss(*pooled(seq), targets)
cyc, _ = cycle_loss(*pooled(seq))
print(f"recon loss after fitting:  {r1:.3f} mm ({100 * r1 / r0:.1f}% of initial)")
print(f"cycle consistency of the fit: {cyc:.4f} mm")

print("\nper-structure surface distance at end-diastole (frame 0):")
for s in STRUCTURES:
    sd = surface_distances(seq.frames[0][s].vertices, targets.points(0, s))
    print(f"  {s:8s} assd {sd['assd']:.3f} mm   hd90 {sd['hd90']:.3f} mm")

print(f"\nfitted grids: coarse {grids['coarse'].dims}, mid {grids['mid'].dims}, "
      f"{len(grids['fine'])} per-frame fine grids {grids['fine'][0].dims}")
