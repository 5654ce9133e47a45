import numpy as np
import pytest
from scipy.linalg import subspace_angles

from cardioshape import synth
from cardioshape.mesh import STRUCTURES, MeshSequence, devectorize, vectorize
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


@pytest.fixture(scope="module")
def rank10_data():
    rng = np.random.default_rng(0)
    basis = np.linalg.qr(rng.normal(size=(40, 10)))[0]
    scores = rng.normal(size=(500, 10)) * np.linspace(5, 0.5, 10)
    return scores @ basis.T + rng.normal(size=40)


@pytest.fixture(scope="module")
def trained_population():
    cfg = synth.SynthConfig(scale=0.02, n_frames=6, seed=21, n_modes=5)
    pop = synth.synth_population(cfg, 60)
    topo = pop.sequences[0].topology()
    vectors = np.stack([vectorize(s) for s in pop.sequences])
    model = ShapeModel(n_components=16, topology=topo)
    for start in (0, 25):
        ipca_partial_fit(model, vectors[start : start + 25])
    return pop, vectors, model


class TestIncrementalPCA:
    def test_streamed_matches_batch_oracle(self, rank10_data):
        data = rank10_data
        model = ShapeModel(n_components=12)
        for start in range(0, 500, 128):
            ipca_partial_fit(model, data[start : start + 128])
        mean = data.mean(axis=0)
        _, s, vt = np.linalg.svd(data - mean, full_matrices=False)
        angles = subspace_angles(model.components[:10].T, vt[:10].T)
        assert angles.max() < 1e-6
        assert np.abs(model.mean - mean).max() < 1e-10
        assert np.abs(model.explained_variance[:10] - s[:10] ** 2 / 499).max() < 1e-10

    def test_single_batch_equals_batch_pca(self, rank10_data):
        data = rank10_data
        model = ShapeModel(n_components=12)
        ipca_partial_fit(model, data)
        mean = data.mean(axis=0)
        _, s, vt = np.linalg.svd(data - mean, full_matrices=False)
        assert np.abs(model.explained_variance[:10] - s[:10] ** 2 / 499).max() < 1e-10
        for k in range(10):
            dot = abs(model.components[k] @ vt[k])
            assert abs(dot - 1.0) < 1e-10

    def test_orthonormal_after_every_batch(self, rank10_data):
        model = ShapeModel(n_components=12)
        for start in range(0, 500, 100):
            ipca_partial_fit(model, rank10_data[start : start + 100])
            k = model.n_active
            gram = model.components @ model.components.T
            assert np.abs(gram - np.eye(k)).max() < 1e-8

    def test_default_batch_size_in_cli(self):
        from cardioshape.cli import build_parser

        args = build_parser().parse_args(
            ["ssm", "train", "--template", "x", "--data", "y"]
        )
        assert args.batch_size == 128
        assert args.components == 128

    def test_dimension_mismatch_rejected(self, rank10_data):
        model = ShapeModel(n_components=4)
        ipca_partial_fit(model, rank10_data)
        with pytest.raises(ValueError, match="dimension"):
            ipca_partial_fit(model, np.zeros((5, 17)))

    def test_sign_convention(self, rank10_data):
        model = ShapeModel(n_components=6)
        ipca_partial_fit(model, rank10_data)
        for row in model.components:
            assert row[np.argmax(np.abs(row))] > 0


class TestEncodeDecode:
    def test_mean_encodes_to_zero(self, rank10_data):
        model = ShapeModel(n_components=8)
        ipca_partial_fit(model, rank10_data)
        assert np.abs(encode(model, model.mean)).max() == 0.0

    def test_unit_component_weight(self, rank10_data):
        model = ShapeModel(n_components=8)
        ipca_partial_fit(model, rank10_data)
        v = model.mean + 3.0 * model.components[2]
        w = encode(model, v)
        expected = np.zeros(model.n_active)
        expected[2] = 3.0
        assert np.abs(w - expected).max() < 1e-10

    def test_projection_contraction(self, rank10_data):
        model = ShapeModel(n_components=8)
        ipca_partial_fit(model, rank10_data)
        rng = np.random.default_rng(1)
        for _ in range(10):
            v = rng.normal(size=40)
            assert (
                np.linalg.norm(encode(model, v))
                <= np.linalg.norm(v - model.mean) + 1e-10
            )

    def test_decode_zero_is_mean(self, rank10_data):
        model = ShapeModel(n_components=8)
        ipca_partial_fit(model, rank10_data)
        assert np.array_equal(decode(model, np.zeros(model.n_active)), model.mean)

    def test_roundtrips(self, rank10_data):
        model = ShapeModel(n_components=12)
        ipca_partial_fit(model, rank10_data)
        rng = np.random.default_rng(2)
        w = rng.normal(size=model.n_active)
        assert np.abs(encode(model, decode(model, w)) - w).max() < 1e-10
        # training vectors of an exactly rank-10 dataset reconstruct exactly
        for v in rank10_data[:5]:
            recon = decode(model, encode(model, v))
            assert np.abs(recon - v).max() < 1e-8
        # decode(encode(.)) is idempotent (orthogonal projection)
        v = rng.normal(size=40)
        once = decode(model, encode(model, v))
        twice = decode(model, encode(model, once))
        assert np.abs(once - twice).max() < 1e-8


class TestCompactness:
    def test_full_rank_is_one(self, rank10_data):
        model = ShapeModel(n_components=12)
        ipca_partial_fit(model, rank10_data)
        assert abs(compactness(model, model.n_active) - 1.0) < 1e-8

    def test_monotone(self, rank10_data):
        model = ShapeModel(n_components=12)
        ipca_partial_fit(model, rank10_data)
        values = [compactness(model, k) for k in range(1, model.n_active + 1)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_out_of_range(self, rank10_data):
        model = ShapeModel(n_components=12)
        ipca_partial_fit(model, rank10_data)
        with pytest.raises(ValueError):
            compactness(model, 0)
        with pytest.raises(ValueError):
            compactness(model, model.n_active + 1)


class TestGeneralization:
    def test_in_span_is_zero(self):
        # coordinate vectors have length divisible by 3
        rng = np.random.default_rng(7)
        basis = np.linalg.qr(rng.normal(size=(42, 10)))[0]
        data = rng.normal(size=(100, 10)) @ basis.T + rng.normal(size=42)
        model = ShapeModel(n_components=12)
        ipca_partial_fit(model, data)
        mean, sd, per = generalization_error(model, data[:10], 10)
        assert mean < 1e-8

    def test_monotone_in_k_per_vector(self, trained_population):
        pop, vectors, model = trained_population
        test = vectors[50:]
        ks = [1, 2, 4, 8, model.n_active]
        per = np.stack([generalization_error(model, test, k)[2] for k in ks])
        assert np.all(np.diff(per, axis=0) <= 1e-12)


class TestFitToContours:
    def test_recovery_from_contours(self, trained_population):
        pop, vectors, model = trained_population
        topo = model.topology
        rng = np.random.default_rng(3)
        ev = model.explained_variance
        w_true = np.zeros(model.n_active)
        w_true[:4] = np.array([1.8, -1.5, 1.6, -1.4]) * np.sqrt(ev[:4])
        seq = devectorize(decode(model, w_true), topo)
        planes = [
            (np.array([0.37, -0.61, z]), np.array([0.0, 0.0, 1.0]))
            for z in np.linspace(-46, 44, 10)
        ] + [
            (np.array([0.37, -0.61, 0.29]), np.array([np.sin(a), -np.cos(a), 0.0]))
            for a in np.linspace(0.13, np.pi - 0.22, 10)
        ]
        contours = []
        for t in range(topo.n_frames):
            frame = {}
            for s in STRUCTURES:
                pts = [
                    synth.plane_section(seq.frames[t][s], o, n) for o, n in planes
                ]
                pts = [p for p in pts if len(p)]
                if pts:
                    frame[s] = np.concatenate(pts)
            contours.append(frame)
        w_hat = fit_to_contours(model, contours, lr=0.05, iters=400)
        rel = np.abs(w_hat[:4] - w_true[:4]) / np.abs(w_true[:4])
        assert rel.max() < 0.10

    def test_mean_contours_give_small_weights(self, trained_population):
        pop, vectors, model = trained_population
        topo = model.topology
        mean_seq = devectorize(model.mean, topo)
        contours = [
            {s: mean_seq.frames[t][s].vertices[::3].copy() for s in STRUCTURES}
            for t in range(topo.n_frames)
        ]
        w = fit_to_contours(model, contours, lr=0.05, iters=300)
        sd = np.sqrt(np.maximum(model.explained_variance, 1e-30))
        assert np.all(np.abs(w) < 0.1 * sd + 1e-9)

    def test_empty_contours_rejected(self, trained_population):
        _, _, model = trained_population
        empty = [{} for _ in range(model.topology.n_frames)]
        with pytest.raises(ValueError, match="no contour points"):
            fit_to_contours(model, empty)


class TestCompleteSequence:
    def test_all_observed_matches_projection(self, trained_population):
        pop, vectors, model = trained_population
        observed = np.ones(model.topology.n_frames, dtype=bool)
        completed = complete_sequence(model, pop.sequences[50], observed)
        projected = decode(model, encode(model, vectors[50]))
        assert np.abs(vectorize(completed) - projected).max() < 1e-6

    def test_more_frames_help(self, trained_population):
        pop, vectors, model = trained_population
        n_frames = model.topology.n_frames
        wins = 0
        for idx in range(50, 58):
            errors = {}
            for n_obs in (1, n_frames):
                observed = np.zeros(n_frames, dtype=bool)
                observed[np.linspace(0, n_frames - 1, n_obs).astype(int)] = True
                completed = complete_sequence(model, pop.sequences[idx], observed)
                diff = (vectorize(completed) - vectors[idx]).reshape(-1, 3)
                errors[n_obs] = np.linalg.norm(diff, axis=1).mean()
            wins += errors[n_frames] < errors[1]
        assert wins >= 7

    def test_observed_frames_within_generalization_bound(self, trained_population):
        pop, vectors, model = trained_population
        n_frames = model.topology.n_frames
        observed = np.ones(n_frames, dtype=bool)
        idx = 55
        completed = complete_sequence(model, pop.sequences[idx], observed)
        diff = (vectorize(completed) - vectors[idx]).reshape(-1, 3)
        err = np.sqrt((diff**2).sum(axis=1).mean())
        bound = generalization_error(model, vectors[idx : idx + 1], model.n_active)[0]
        assert err <= bound * 1.01 + 1e-6

    def test_matches_whitened_lstsq_reference(self, trained_population):
        pop, vectors, model = trained_population
        n_frames = model.topology.n_frames
        per_frame = vectors.shape[1] // n_frames
        scale = np.sqrt(np.maximum(model.explained_variance, 0.0))
        for idx, frames in ((50, [0]), (51, [1, 4]), (52, range(n_frames))):
            observed = np.zeros(n_frames, dtype=bool)
            observed[list(frames)] = True
            rows = np.concatenate(
                [np.arange(t * per_frame, (t + 1) * per_frame) for t in frames]
            )
            a = model.components[:, rows].T * scale
            z = np.linalg.lstsq(a, vectors[idx, rows] - model.mean[rows], rcond=None)[0]
            reference = model.mean + model.components.T @ (scale * z)
            completed = complete_sequence(model, pop.sequences[idx], observed)
            assert np.abs(vectorize(completed) - reference).max() < 1e-10

    def test_unobserved_frames_not_read(self, trained_population):
        pop, _, model = trained_population
        observed = np.zeros(model.topology.n_frames, dtype=bool)
        observed[[0, 3]] = True
        placeholder = pop.sequences[50].with_stacked(
            {s: np.zeros_like(v) for s, v in pop.sequences[50].stacked().items()}
        )
        frames = [
            pop.sequences[50][t] if observed[t] else placeholder[t]
            for t in range(model.topology.n_frames)
        ]
        a = complete_sequence(model, pop.sequences[50], observed)
        b = complete_sequence(model, MeshSequence(frames), observed)
        assert np.array_equal(vectorize(a), vectorize(b))

    def test_no_observed_frames_rejected(self, trained_population):
        pop, _, model = trained_population
        observed = np.zeros(model.topology.n_frames, dtype=bool)
        with pytest.raises(ValueError, match="at least one"):
            complete_sequence(model, pop.sequences[0], observed)


class TestSampleMode:
    def test_zero_multiplier_is_mean(self, trained_population):
        _, _, model = trained_population
        seq = sample_mode(model, 0, 0.0)
        assert np.array_equal(vectorize(seq), model.mean)

    def test_plus_minus_mirror(self, trained_population):
        _, _, model = trained_population
        plus = vectorize(sample_mode(model, 1, 2.0))
        minus = vectorize(sample_mode(model, 1, -2.0))
        assert np.abs((plus + minus) - 2.0 * model.mean).max() < 1e-10

    def test_pc_index_validated(self, trained_population):
        _, _, model = trained_population
        with pytest.raises(ValueError):
            sample_mode(model, model.n_active, 1.0)
