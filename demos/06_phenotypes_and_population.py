"""Shape-derived phenotypes, vertex-wise correlation maps, retrieval and
longitudinal re-identification on a synthetic cohort.

Run:  python demos/06_phenotypes_and_population.py
"""

import numpy as np

from cardioshape import synth
from cardioshape.mesh import vectorize
from cardioshape.phenotypes import phenotype_table, volume_curve
from cardioshape.population import (
    FeatureMatrix,
    knn_retrieve,
    precision_at_k,
    recall_at_k,
    signed_variation,
    truncate_descriptor,
    vertex_correlation,
)
from cardioshape.ssm import ShapeModel, encode, ipca_partial_fit

cfg = synth.SynthConfig(scale=0.03, n_frames=9, seed=33, n_modes=6)
pop = synth.synth_population(cfg, 120)

table = phenotype_table(pop.sequences[0])
print("phenotypes of subject 0:")
print(f"  LVEDV {table.LVEDV:6.1f} mL   LVESV {table.LVESV:6.1f} mL   "
      f"LVEF {table.LVEF:5.1f} %")
print(f"  LVM   {table.LVM:6.1f} g    LVWT  {table.LVWT_mean:5.2f} mm (mean)")
curve = volume_curve(pop.sequences[0], "LV-endo")
print("  LV volume curve:", np.round(curve, 1))

# shape descriptors from a trained model
vectors = np.stack([vectorize(s) for s in pop.sequences])
model = ShapeModel(n_components=16, topology=pop.sequences[0].topology())
ipca_partial_fit(model, vectors)
descriptors = np.stack([encode(model, v) for v in vectors])

# vertex-wise correlation between shape variation and the group attribute
from cardioshape.mesh import devectorize

mean_seq = devectorize(model.mean, model.topology)
fields = np.stack(
    [signed_variation(seq, mean_seq) for seq in pop.sequences]
)
r, p, significant = vertex_correlation(
    fields, pop.attributes["group"].astype(float)
)
print(f"\nvertex correlation with the group attribute: "
      f"max |r| {np.abs(r).max():.2f}, "
      f"{significant.sum()} / {len(r)} vertices significant after Bonferroni")

features = FeatureMatrix(descriptors)
precision = precision_at_k(
    features, pop.attributes["group"], k=10, n_queries=2000, seed=1
)
print(f"\nretrieval precision@10 on the group attribute: {precision:.1f}% "
      f"(group is driven by mode 0)")
nearest = knn_retrieve(features, 0, 5)
print(f"subject 0 (group {pop.attributes['group'][0]}): nearest subjects {nearest.tolist()}, "
      f"groups {pop.attributes['group'][nearest].tolist()}")

# longitudinal re-identification: second 'scan' = re-encoded noisy meshes
noisy = descriptors + 0.05 * descriptors.std(axis=0) * np.random.default_rng(
    2
).normal(size=descriptors.shape)
recall_full = recall_at_k(features, FeatureMatrix(noisy), 1)
f1_trunc = truncate_descriptor(features, 6)
f2_trunc = truncate_descriptor(FeatureMatrix(noisy), 6)
recall_trunc = recall_at_k(f1_trunc, f2_trunc, 1)
print(f"re-identification recall@1: full descriptor {recall_full:.1f}%, "
      f"leading 6 PCs {recall_trunc:.1f}%")
