"""Population analytics over per-subject descriptors and variation fields.

Feature matrices are z-scored per column before any distance computation,
so mixed-unit features cannot dominate retrieval; queries are ranked in
blocks under a fixed memory budget, distance ties toward the lower index.
Significance of vertex-wise correlations uses the t-transform of Pearson r
with Bonferroni correction over vertices.
"""

import numpy as np
from scipy.special import stdtr

from .mesh import STRUCTURES, accumulated_normals

_BLOCK_BYTES = 4 * 2**20  # of one block's (queries, subjects, features) differences


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

    def standardize(self, rows):
        """Standardize raw feature rows, shape (..., F), with the stored stats."""
        rows = np.asarray(rows, dtype=np.float64)
        if rows.shape[-1:] != (self.raw.shape[1],):
            raise ValueError(
                f"query has {rows.shape} entries, expected (..., {self.raw.shape[1]})"
            )
        return (rows[..., self.kept] - self.mean) / self.sd


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
    The mean's normals come from one pass over a frame's pooled faces.
    """
    if seq.n_frames != mean_seq.n_frames:
        raise ValueError("sequences must have the same frame count")
    for s in STRUCTURES:
        if seq[0][s].n_vertices != mean_seq[0][s].n_vertices:
            raise ValueError(f"topology mismatch for structure {s}")
    faces = mean_seq.topology().corners.T
    total = None
    for fr, mean_fr in zip(seq.frames, mean_seq.frames):
        mean = mean_fr.all_vertices()
        m, norm = accumulated_normals(mean, faces)
        frame_field = np.einsum("ij,ij->i", fr.all_vertices() - mean, m / norm[:, None])
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


def _nearest(z, zq, exclude, k):
    """(Q, k) indices of the rows of ``z`` nearest each row of ``zq``, never
    row ``exclude[q]`` for query q (if given): blocks of queries fit
    ``_BLOCK_BYTES``, and stable sorts break ties toward the lower index."""
    if not 1 <= k <= len(z):
        raise ValueError("k must satisfy 1 <= k <= subject count")
    if exclude is not None and k == len(z):
        raise ValueError("k exceeds the number of candidates")
    step = max(1, _BLOCK_BYTES // max(z.nbytes, 1))
    out = np.empty((len(zq), k), dtype=np.intp)
    for i in range(0, len(zq), step):
        d = np.linalg.norm(z[None] - zq[i : i + step, None], axis=2)
        if exclude is not None:
            d[np.arange(len(d)), exclude[i : i + step]] = np.inf
        out[i : i + step] = np.argsort(d, axis=1, kind="stable")[:, :k]
    return out


def knn_retrieve(features, query, k):
    """Indices of the k nearest subjects in z-scored Euclidean distance.

    ``query`` is either a subject index, which is never among its own
    results, or a raw feature vector, which ranks every stored row.
    Distance ties break toward the lower index, as in the blocked ranking of
    :func:`precision_at_k` and :func:`recall_at_k`.
    """
    if np.isscalar(query) or isinstance(query, (int, np.integer)):
        q = np.array([int(query)])
        return _nearest(features.z, features.z[q], q, k)[0]
    if np.ndim(query) != 1:
        raise ValueError(f"query has shape {np.shape(query)}, expected one feature row")
    return _nearest(features.z, features.standardize(query)[None], None, k)[0]


def precision_at_k(features, groups, k, n_queries, seed):
    """Mean fraction of the k retrieved subjects sharing the query's group,
    in percent.  Queries are drawn with replacement; the query subject is
    excluded from its own candidates.  Each distinct query is ranked once,
    in blocks under a fixed memory budget; shares add up in draw order."""
    groups = np.asarray(groups)
    if groups.shape != (features.n_subjects,):
        raise ValueError("groups length must match the subject count")
    if n_queries < 1:
        raise ValueError(f"n_queries {n_queries} must be >= 1")
    rng = np.random.Generator(np.random.Philox(seed))
    queries = rng.integers(0, features.n_subjects, size=n_queries)
    subjects, draw = np.unique(queries, return_inverse=True)
    idx = _nearest(features.z, features.z[subjects], subjects, k)
    shares = np.count_nonzero(groups[idx] == groups[subjects, None], axis=1) / k
    # a running sum adds in draw order, as a loop over the queries would
    return 100.0 * float(np.cumsum(shares[draw])[-1]) / n_queries


def recall_at_k(features_t1, features_t2, k):
    """Fraction of subjects whose own first-scan row is among the k nearest
    to their second-scan query, in percent.

    Both matrices must list the same subjects in the same row order; queries
    are standardized with the first-scan statistics and ranked in blocks
    under a fixed memory budget.
    """
    if features_t1.n_subjects != features_t2.n_subjects:
        raise ValueError("timepoints must have the same subject count")
    if features_t1.raw.shape[1] != features_t2.raw.shape[1]:
        raise ValueError("timepoints must have the same feature count")
    idx = _nearest(features_t1.z, features_t1.standardize(features_t2.raw), None, k)
    return 100.0 * np.count_nonzero(idx == np.arange(len(idx))[:, None]) / len(idx)
