from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardioshape import population, synth
from cardioshape.mesh import (
    MeshSequence, inflate_along_normals, TriMesh, STRUCTURES, ChamberSet, vertex_normals,
)
from cardioshape.population import (
    FeatureMatrix,
    knn_retrieve,
    precision_at_k,
    recall_at_k,
    signed_variation,
    truncate_descriptor,
    vertex_correlation,
)


@pytest.fixture(scope="module")
def template_pair():
    cfg = synth.SynthConfig(scale=0.03, n_frames=2, seed=1)
    template, _ = synth.make_template(cfg)
    return template


class TestSignedVariation:
    def test_identical_is_zero(self, template_pair):
        seq = MeshSequence([template_pair] * 2)
        field = signed_variation(seq, seq)
        assert np.abs(field).max() == 0.0

    def test_inflation_positive_two_mm(self, template_pair):
        inflated = ChamberSet(
            {
                s: TriMesh(
                    inflate_along_normals(template_pair[s], 2.0).vertices,
                    template_pair[s].faces,
                    s,
                )
                for s in STRUCTURES
            }
        )
        seq = MeshSequence([inflated] * 2)
        mean_seq = MeshSequence([template_pair] * 2)
        field = signed_variation(seq, mean_seq)
        assert np.abs(field - 2.0).max() < 0.1
        assert (field > 0).all()  # outward displacement is positive

    def test_equals_per_structure_normals(self):
        # the reference takes each structure's normals on its own
        pop = synth.synth_population(synth.SynthConfig(scale=0.02, n_frames=3, seed=5), 4)
        mean_seq = pop.sequences[0]
        for seq in pop.sequences[1:]:
            frames = [
                np.concatenate([
                    np.einsum("ij,ij->i", fr[s].vertices - m[s].vertices, vertex_normals(m[s]))
                    for s in STRUCTURES
                ])
                for fr, m in zip(seq.frames, mean_seq.frames)
            ]
            assert np.array_equal(signed_variation(seq, mean_seq), sum(frames) / seq.n_frames)

    def test_topology_mismatch(self, template_pair):
        cfg = synth.SynthConfig(scale=0.02, n_frames=2, seed=1)
        other, _ = synth.make_template(cfg)
        with pytest.raises(ValueError, match="topology"):
            signed_variation(
                MeshSequence([template_pair] * 2), MeshSequence([other] * 2)
            )


class TestVertexCorrelation:
    def test_attribute_equals_field_column(self):
        rng = np.random.default_rng(0)
        fields = rng.normal(size=(40, 30))
        r, p, sig = vertex_correlation(fields, fields[:, 7])
        assert abs(r[7] - 1.0) < 1e-12
        assert sig[7]

    def test_matches_formula_oracle(self):
        rng = np.random.default_rng(1)
        fields = rng.normal(size=(50, 20))
        attr = rng.normal(size=50)
        r, p, _ = vertex_correlation(fields, attr)
        for j in range(20):
            x = fields[:, j]
            xc = x - x.mean()
            ac = attr - attr.mean()
            expected = xc @ ac / (np.linalg.norm(xc) * np.linalg.norm(ac))
            assert abs(r[j] - expected) < 1e-12

    def test_null_bonferroni_rate(self):
        rng = np.random.default_rng(2)
        fields = rng.normal(size=(1000, 2000))
        attr = rng.normal(size=1000)
        _, _, sig = vertex_correlation(fields, attr)
        assert sig.mean() <= 0.001

    def test_zero_variance_vertex_masked(self):
        rng = np.random.default_rng(3)
        fields = rng.normal(size=(30, 5))
        fields[:, 2] = 7.0
        r, p, sig = vertex_correlation(fields, rng.normal(size=30))
        assert r[2] == 0.0 and not sig[2]

    def test_recovers_generator_mode_link(self, monkeypatch):
        cfg = synth.SynthConfig(scale=0.02, n_frames=3, seed=11, n_modes=4)
        pop = synth.synth_population(cfg, 150)
        # the mean subject: zero mode weights and unjittered motion
        monkeypatch.setattr(synth, "MODE_AMPLITUDE", 0.0)
        monkeypatch.setattr(synth, "MOTION_JITTER", 0.0)
        mean_seq = synth.synth_population(
            synth.SynthConfig(scale=0.02, n_frames=3, seed=12, n_modes=4), 1
        ).sequences[0]
        fields = np.stack(
            [signed_variation(seq, mean_seq) for seq in pop.sequences]
        )
        r, _, _ = vertex_correlation(fields, pop.weights[:, 0])
        # the driven bump region correlates strongly with its weight
        assert r.max() > 0.9


class TestKnnRetrieve:
    def test_stored_row_first_without_exclusion(self):
        rng = np.random.default_rng(4)
        feats = FeatureMatrix(rng.normal(size=(30, 5)))
        idx = knn_retrieve(feats, feats.raw[13], 3)
        assert idx[0] == 13

    def test_exhaustive_sort_oracle_1d(self):
        values = np.array([[0.0], [1.0], [4.0], [4.5], [10.0]])
        feats = FeatureMatrix(values)
        got = knn_retrieve(feats, np.array([4.2]), 5)
        z = (values[:, 0] - values.mean()) / values.std()
        zq = (4.2 - values.mean()) / values.std()
        expected = np.argsort(np.abs(z - zq), kind="stable")
        assert np.array_equal(got, expected)

    def test_column_scaling_invariance(self):
        rng = np.random.default_rng(5)
        raw = rng.normal(size=(40, 4))
        scaled = raw.copy()
        scaled[:, 2] *= 1000.0
        f1 = FeatureMatrix(raw)
        f2 = FeatureMatrix(scaled)
        for q in range(5):
            assert np.array_equal(knn_retrieve(f1, q, 7), knn_retrieve(f2, q, 7))

    def test_tie_breaks_to_lower_index(self):
        values = np.array([[0.0], [1.0], [-1.0], [2.0]])
        feats = FeatureMatrix(values)
        idx = knn_retrieve(feats, np.array([0.0]), 3)
        assert idx[0] == 0 and idx[1] == 1 and idx[2] == 2

    def test_k_validated(self):
        feats = FeatureMatrix(np.random.default_rng(6).normal(size=(10, 2)))
        with pytest.raises(ValueError):
            knn_retrieve(feats, 0, 10)

    def test_query_of_several_rows_rejected(self):
        feats = FeatureMatrix(np.random.default_rng(6).normal(size=(10, 2)))
        with pytest.raises(ValueError, match="one feature row"):
            knn_retrieve(feats, feats.raw[:2], 3)


class TestPrecisionAtK:
    def test_single_group_is_100(self):
        rng = np.random.default_rng(7)
        feats = FeatureMatrix(rng.normal(size=(50, 4)))
        assert precision_at_k(feats, np.zeros(50, int), 5, n_queries=200, seed=0) == 100.0

    def test_separated_clusters_100(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(30, 3))
        b = rng.normal(size=(30, 3)) + 100.0
        feats = FeatureMatrix(np.vstack([a, b]))
        groups = np.array([0] * 30 + [1] * 30)
        assert precision_at_k(feats, groups, 10, n_queries=300, seed=3) == 100.0

    def test_random_two_groups_near_half(self):
        rng = np.random.default_rng(9)
        feats = FeatureMatrix(rng.normal(size=(400, 6)))
        groups = np.arange(400) % 2
        got = precision_at_k(feats, groups, 10, n_queries=5000, seed=4)
        assert abs(got - 50.0) <= 2.0

    @pytest.mark.parametrize("n_queries", [0, -3])
    def test_n_queries_below_one_rejected(self, n_queries):
        feats = FeatureMatrix(np.random.default_rng(18).normal(size=(10, 2)))
        with pytest.raises(ValueError, match="n_queries"):
            precision_at_k(feats, np.zeros(10, int), 3, n_queries=n_queries, seed=0)


def _ranked(z, zq, exclude, k):
    """One query's k nearest rows: norm, then a stable argsort."""
    d = np.linalg.norm(z - zq, axis=1)
    if exclude is not None:
        d[exclude] = np.inf
    return np.argsort(d, kind="stable")[:k]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 40),
    n_features=st.integers(1, 20),
    rounded=st.booleans(),
    k_last=st.booleans(),
    n_queries=st.integers(1, 120),
    per_block=st.integers(1, 4),
    noise=st.sampled_from([0.0, 0.05, 0.5]),
)
def test_retrieval_equals_one_query_at_a_time(
    seed, n, n_features, rounded, k_last, n_queries, per_block, noise
):
    # rounded features tie in distance, queries repeat (drawn with
    # replacement), k reaches n - 1, and a block holds only a few queries
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(n, n_features))
    if rounded:  # rows repeat, so distances tie
        raw = np.round(raw, 1)[rng.integers(0, n // 2 + 1, n)]
    raw2 = raw + noise * rng.normal(size=raw.shape)
    if rounded:
        raw2 = np.round(raw2, 1)
    groups = rng.integers(0, 3, n)
    k = n - 1 if k_last else int(rng.integers(1, n))
    feats, feats2 = FeatureMatrix(raw), FeatureMatrix(raw2)
    queries = np.random.Generator(np.random.Philox(seed)).integers(0, n, size=n_queries)
    hits = 0.0
    for q in queries:
        hits += float(np.mean(groups[_ranked(feats.z, feats.z[q], q, k)] == groups[q]))
    found = 0
    for i in range(n):
        zq = (raw2[i][feats.kept] - feats.mean) / feats.sd
        found += int(i in _ranked(feats.z, zq, None, k))
    with mock.patch.object(population, "_BLOCK_BYTES", per_block * feats.z.nbytes):
        assert precision_at_k(feats, groups, k, n_queries, seed) == 100.0 * hits / n_queries
        assert recall_at_k(feats, feats2, k) == 100.0 * found / n


class TestRecallAtK:
    def test_identical_timepoints(self):
        rng = np.random.default_rng(10)
        raw = rng.normal(size=(80, 5))
        assert recall_at_k(FeatureMatrix(raw), FeatureMatrix(raw.copy()), 1) == 100.0

    def test_monotone_in_k(self):
        rng = np.random.default_rng(11)
        t1 = rng.normal(size=(60, 4))
        t2 = t1 + 0.8 * rng.normal(size=(60, 4))
        f1, f2 = FeatureMatrix(t1), FeatureMatrix(t2)
        values = [recall_at_k(f1, f2, k) for k in (1, 3, 10, 30)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_pure_noise_near_one_over_n(self):
        rng = np.random.default_rng(12)
        n = 200
        f1 = FeatureMatrix(rng.normal(size=(n, 4)))
        f2 = FeatureMatrix(rng.normal(size=(n, 4)))
        got = recall_at_k(f1, f2, 1)
        assert got <= 5 * 100.0 / n + 1.0

    def test_row_count_mismatch(self):
        rng = np.random.default_rng(13)
        with pytest.raises(ValueError, match="same subject count"):
            recall_at_k(
                FeatureMatrix(rng.normal(size=(10, 3))),
                FeatureMatrix(rng.normal(size=(11, 3))),
                1,
            )


class TestTruncateDescriptor:
    def test_full_is_identity(self):
        rng = np.random.default_rng(14)
        feats = FeatureMatrix(rng.normal(size=(20, 6)))
        trunc = truncate_descriptor(feats, 6)
        assert np.array_equal(trunc.raw, feats.raw)

    def test_noisy_trailing_pcs_hurt_reid(self):
        rng = np.random.default_rng(15)
        n = 250
        signal = rng.normal(size=(n, 4))
        t1 = np.column_stack([signal, rng.normal(size=(n, 16))])
        t2 = np.column_stack(
            [signal + 0.01 * rng.normal(size=(n, 4)), rng.normal(size=(n, 16))]
        )
        f1, f2 = FeatureMatrix(t1), FeatureMatrix(t2)
        full = recall_at_k(f1, f2, 5)
        trunc = recall_at_k(
            truncate_descriptor(f1, 4), truncate_descriptor(f2, 4), 5
        )
        assert trunc >= full
        assert trunc > 90.0

    def test_too_many_pcs_rejected(self):
        feats = FeatureMatrix(np.random.default_rng(16).normal(size=(10, 3)))
        for n_pcs in (4, 0, -1):
            with pytest.raises(ValueError, match="must lie in 1..3"):
                truncate_descriptor(feats, n_pcs)


class TestFeatureMatrix:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            FeatureMatrix(np.array([[1.0, np.nan], [2.0, 3.0]]))

    def test_drops_constant_columns(self):
        rng = np.random.default_rng(17)
        raw = rng.normal(size=(20, 4))
        raw[:, 1] = 5.0
        feats = FeatureMatrix(raw)
        assert list(feats.kept) == [0, 2, 3]
        assert feats.z.shape == (20, 3)
