"""Build a synthetic five-structure heart template and inspect the fitting
objective on a generated subject.

Run:  python demos/01_template_and_losses.py
"""

import numpy as np

from cardioshape import synth
from cardioshape.mesh import STRUCTURES, mean_curvature, vectorize, vertex_normals
from cardioshape.objectives import TargetClouds, total_loss

cfg = synth.SynthConfig(scale=0.05, n_frames=8, seed=1)
template, curvatures = synth.make_template(cfg)

print("Template structures:")
for s in STRUCTURES:
    mesh = template[s]
    print(
        f"  {s:8s} {mesh.n_vertices:5d} vertices, {len(mesh.faces):5d} faces, "
        f"closed={mesh.is_closed()}"
    )
print(f"  total: {template.total_vertices} vertices")

# LV wall: epi is the endo surface pushed 8 mm along its normals
gap = np.linalg.norm(
    template["LV-epi"].vertices - template["LV-endo"].vertices, axis=1
)
print(f"\nLV wall gap: mean {gap.mean():.2f} mm (built by normal inflation)")

normals = vertex_normals(template["LV-endo"])
print(f"endo normals are unit: max |1 - |n|| = {abs(1 - np.linalg.norm(normals, axis=1)).max():.1e}")

h = mean_curvature(template["LV-endo"])
print(f"endo mean-curvature range: [{h.min():.4f}, {h.max():.4f}] 1/mm")

# one synthetic subject and the total objective against its own targets
pop = synth.synth_population(cfg, 1)
subject = pop.sequences[0]
targets = TargetClouds.from_sequence(subject)
# the losses take every frame's pooled vertices as one (T, V, 3) array plus
# the connectivity the frames share, and return one (T, V, 3) gradient
x = vectorize(subject).reshape(subject.n_frames, -1, 3)
value, grad, terms = total_loss(x, subject.topology(), targets, pop.curvatures)
print("\nObjective of a subject against its own vertices (recon term is 0):")
for name, term in terms.items():
    print(f"  {name:6s} {term:10.6f}")
print(f"  total  {value:10.6f}   (gradient shape {grad.shape})")
