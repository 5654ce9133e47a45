"""Population analytics over per-subject descriptors and variation fields.

Feature matrices are z-scored per column before any distance computation,
so mixed-unit features cannot dominate retrieval.  Significance of
vertex-wise correlations uses the t-transform of Pearson r with Bonferroni
correction over vertices.
"""

import numpy as np
from scipy.special import stdtr

from .mesh import STRUCTURES, vertex_normals


class FeatureMatrix:
    """Subjects-by-features matrix with per-column standardization stats.

    Zero-variance columns are dropped from the standardized view (the
    indices of the others are kept in ``kept``); raw values are retained so
    descriptors can be truncated later.
    """

    def __init__(self, values):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError("features must be a 2-D array")
        if not np.all(np.isfinite(values)):
            raise ValueError("features contain NaN/Inf")
        self.raw = values
        mean = values.mean(axis=0)
        sd = values.std(axis=0)
        keep = sd > 0
        self.kept = np.flatnonzero(keep)
        self.mean = mean[keep]
        self.sd = sd[keep]
        self.z = (values[:, keep] - self.mean) / self.sd

    @property
    def n_subjects(self):
        return self.raw.shape[0]

    def standardize(self, vector):
        """Standardize a raw feature vector with the stored stats."""
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != (self.raw.shape[1],):
            raise ValueError(
                f"query has {vector.shape} entries, expected ({self.raw.shape[1]},)"
            )
        return (vector[self.kept] - self.mean) / self.sd


def truncate_descriptor(features, n_pcs):
    """Keep only the first ``n_pcs`` (variance-ordered) descriptor columns."""
    n_features = features.raw.shape[1]
    if not 1 <= n_pcs <= n_features:
        raise ValueError(f"n_pcs {n_pcs} must lie in 1..{n_features}, the column count")
    return FeatureMatrix(features.raw[:, :n_pcs])


def signed_variation(seq, mean_seq):
    """Time-averaged signed distance of a subject to the mean sequence.

    Per vertex and frame the displacement from the mean mesh is projected on
    the mean mesh's outward vertex normal, so outward expansion is positive;
    the per-vertex average over frames is returned pooled over structures.
    """
    if seq.n_frames != mean_seq.n_frames:
        raise ValueError("sequences must have the same frame count")
    total = None
    for fr, mean_fr in zip(seq.frames, mean_seq.frames):
        per_structure = []
        for s in STRUCTURES:
            if fr[s].n_vertices != mean_fr[s].n_vertices:
                raise ValueError(f"topology mismatch for structure {s}")
            normals = vertex_normals(mean_fr[s])
            diff = fr[s].vertices - mean_fr[s].vertices
            per_structure.append(np.einsum("ij,ij->i", diff, normals))
        frame_field = np.concatenate(per_structure)
        total = frame_field if total is None else total + frame_field
    return total / seq.n_frames


def vertex_correlation(fields, attribute):
    """Per-vertex Pearson correlation with an attribute plus a Bonferroni
    significance mask.

    ``fields`` is (n_subjects, n_vertices).  A vertex is significant when
    p < α / n_vertices with α = 0.05.  Zero-variance vertices get r = 0 and
    are marked insignificant.  Returns ``(r, p, significant)``.
    """
    fields = np.asarray(fields, dtype=np.float64)
    attribute = np.asarray(attribute, dtype=np.float64)
    n, n_vertices = fields.shape
    if attribute.shape != (n,):
        raise ValueError("attribute length must match the subject count")
    if n < 3:
        raise ValueError("need at least 3 subjects")
    if attribute.std() == 0:
        raise ValueError("attribute has zero variance")
    fc = fields - fields.mean(axis=0)
    ac = attribute - attribute.mean()
    f_norm = np.linalg.norm(fc, axis=0)
    a_norm = np.linalg.norm(ac)
    ok = f_norm > 0
    r = np.zeros(n_vertices)
    r[ok] = (ac @ fc[:, ok]) / (f_norm[ok] * a_norm)
    r = np.clip(r, -1.0, 1.0)
    p = np.ones(n_vertices)
    with np.errstate(divide="ignore"):
        t = r[ok] * np.sqrt((n - 2) / np.maximum(1.0 - r[ok] ** 2, 1e-300))
    # two-sided t tail: the bits of stats.t.sf without importing scipy.stats
    p[ok] = 2.0 * stdtr(n - 2, -np.abs(t))
    significant = ok & (p < 0.05 / n_vertices)
    return r, p, significant


def knn_retrieve(features, query, k):
    """Indices of the k nearest subjects in z-scored Euclidean distance.

    ``query`` is either a subject index, which is never among its own
    results, or a raw feature vector, which ranks every stored row.
    Distance ties break toward the lower index.
    """
    if not 1 <= k < features.n_subjects + 1:
        raise ValueError("k must satisfy 1 <= k <= subject count")
    if np.isscalar(query) or isinstance(query, (int, np.integer)):
        d = np.linalg.norm(features.z - features.z[int(query)], axis=1)
        d[int(query)] = np.inf
        if k == features.n_subjects:
            raise ValueError("k exceeds the number of candidates")
    else:
        d = np.linalg.norm(features.z - features.standardize(query), axis=1)
    order = np.argsort(d, kind="stable")
    return order[:k]


def precision_at_k(features, groups, k, n_queries, seed):
    """Mean fraction of the k retrieved subjects sharing the query's group,
    in percent.  Queries are drawn with replacement; the query subject is
    excluded from its own candidates."""
    groups = np.asarray(groups)
    if groups.shape != (features.n_subjects,):
        raise ValueError("groups length must match the subject count")
    if len(np.unique(groups)) < 1:
        raise ValueError("groups must be non-empty")
    rng = np.random.Generator(np.random.Philox(seed))
    queries = rng.integers(0, features.n_subjects, size=n_queries)
    hits = 0.0
    for q in queries:
        idx = knn_retrieve(features, int(q), k)
        hits += float(np.mean(groups[idx] == groups[q]))
    return 100.0 * hits / n_queries


def recall_at_k(features_t1, features_t2, k):
    """Fraction of subjects whose own first-scan row is among the k nearest
    to their second-scan query, in percent.

    Both matrices must list the same subjects in the same row order; queries
    are standardized with the first-scan statistics.
    """
    if features_t1.n_subjects != features_t2.n_subjects:
        raise ValueError("timepoints must have the same subject count")
    if features_t1.raw.shape[1] != features_t2.raw.shape[1]:
        raise ValueError("timepoints must have the same feature count")
    n = features_t1.n_subjects
    found = 0
    for i in range(n):
        idx = knn_retrieve(features_t1, features_t2.raw[i], k)
        found += int(i in idx)
    return 100.0 * found / n
