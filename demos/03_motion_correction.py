"""Inject known in-plane misalignments into synthetic multi-view slices and
recover them by minimising the intersection-consistency objective.

Run:  python demos/03_motion_correction.py
"""

import numpy as np

from cardioshape import synth
from cardioshape.motion import eval_intersections, mc_objective, mc_optimize

cfg = synth.SynthConfig(scale=0.05, n_frames=6, seed=11, voxel_size=2.0)
pop = synth.synth_population(cfg, 1)
geometry = synth.VolumeGeometry.for_population(pop.sequences, cfg.voxel_size)

print("voxelising the subject...")
labels = synth.voxelize_sequence(pop.sequences[0], geometry)
texture = synth.make_texture(geometry.dims, np.random.Generator(np.random.Philox(99)))
intensity = [synth.intensity_volume(l, texture=texture) for l in labels]

specs = synth.default_view_specs(geometry, n_sax=7, pixel_spacing=1.5, size=64)
rng = np.random.Generator(np.random.Philox(42))
views, injected = synth.slice_views(intensity, labels, geometry, specs, sigma=2.0, rng=rng)

before = eval_intersections(views)
print(f"\nbefore correction: dice {before['dice']:.3f}, pearson r {before['pearson_r']:.3f}, "
      f"objective {mc_objective(views)[0]:.1f}")

displacements, _ = mc_optimize(views, epochs=200)
after = eval_intersections(views)
print(f"after  correction: dice {after['dice']:.3f}, pearson r {after['pearson_r']:.4f}, "
      f"objective {mc_objective(views)[0]:.1f}")

print("\nper-plane recovery (correction should cancel the injected shift):")
for pid in sorted(injected):
    err = np.linalg.norm(displacements[pid] + injected[pid])
    print(
        f"  {pid:8s} injected ({injected[pid][0]:+5.2f}, {injected[pid][1]:+5.2f}) mm"
        f"   recovered ({displacements[pid][0]:+5.2f}, {displacements[pid][1]:+5.2f})"
        f"   error {err:.2f} mm"
    )
