from dataclasses import replace

import numpy as np
import pytest
from helpers import (
    blob_features,
    paper_features,
    peak_allocation,
    random_labeled_states,
    random_unit_states,
    symmetric_dense_scores,
    symmetric_power,
    unblocked_scores,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from pgmclassifier import EncodingConfig, PgmConfig, fit_pgm, predict_batch
from pgmclassifier.encoding import ENCODINGS, encode
from pgmclassifier.errors import (
    DenseBlowup,
    DimMismatch,
    EmptyClass,
    InvalidFeature,
    InvalidOperator,
    LabelOutOfRange,
)
from pgmclassifier.pgm import (
    SCORE_BLOCK,
    LabeledStateSet,
    Priors,
    build_dense_pgm,
    build_pgm,
    build_gram_pgm,
    copies_centroid,
    labels_from_scores,
    make_priors,
    quantum_centroid,
    round_scores,
    stable_power,
)
from pgmclassifier.operators import one_blas_thread
from pgmclassifier.selection import DEFAULT_ALPHAS, DEFAULT_COPIES, GridPoint

_FLUSH = 1e-300

#: Exact zeros, magnitudes straddling the flush threshold, and +-1.
_POWER_EDGES = [0.0, -0.0, 1.0, -1.0] + [
    sign * v
    for sign in (1.0, -1.0)
    for v in (_FLUSH, np.nextafter(_FLUSH, 0.0), np.nextafter(_FLUSH, 1.0), 1e-301, 1e-299)
]


def reference_power(c, n):
    """``sign(c)^n * exp(n * log|c|)``, zero where ``|c| < 1e-300``."""
    mag = np.abs(c)
    with np.errstate(divide="ignore"):
        value = np.sign(c) ** n * np.exp(n * np.log(mag))
    return np.where(mag < _FLUSH, 0.0, value)


class TestLabeledStateSet:
    def test_counts_classes(self, rng):
        train = random_labeled_states(rng, 3, 4, 10)
        assert train.class_counts.sum() == 10
        assert train.class_counts.min() >= 1

    def test_rejects_label_out_of_range(self, rng):
        states = random_unit_states(rng, 3, 2)
        with pytest.raises(LabelOutOfRange):
            LabeledStateSet(states=states, labels=np.array([0, 1, 3]), n_classes=3)

    def test_rejects_missing_class(self, rng):
        states = random_unit_states(rng, 3, 2)
        with pytest.raises(EmptyClass):
            LabeledStateSet(states=states, labels=np.array([0, 0, 2]), n_classes=3)

    def test_rejects_non_unit_states(self):
        with pytest.raises(InvalidOperator):
            LabeledStateSet(
                states=np.array([[1.0, 1.0]]), labels=np.array([0]), n_classes=1
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e300])
    def test_rejects_non_finite_and_overflowing_states(self, bad):
        states = np.array([[1.0, 0.0], [bad, 0.0]])
        with pytest.raises(InvalidOperator, match="state 1 has norm"):
            LabeledStateSet(states=states, labels=np.array([0, 0]), n_classes=1)


class TestPriors:
    def test_uniform(self):
        np.testing.assert_allclose(make_priors("uniform", [1] * 4).values, [0.25] * 4)

    def test_empirical(self):
        np.testing.assert_allclose(make_priors("empirical", [3, 1]).values, [0.75, 0.25])

    def test_explicit_validation(self):
        Priors(mode="uniform", values=np.array([0.3, 0.7]))
        with pytest.raises(InvalidOperator):
            Priors(mode="uniform", values=np.array([0.5, 0.6]))
        with pytest.raises(InvalidOperator):
            Priors(mode="uniform", values=np.array([1.5, -0.5]))


class TestQuantumCentroid:
    def test_single_state_is_pure(self, rng):
        psi = random_unit_states(rng, 1, 3)
        np.testing.assert_allclose(quantum_centroid(psi), np.outer(psi[0], psi[0]))

    def test_two_basis_states_mix(self):
        rho = quantum_centroid(np.eye(3)[:2])
        np.testing.assert_allclose(rho, np.diag([0.5, 0.5, 0.0]))

    def test_trace_one_and_psd(self, rng):
        rho = quantum_centroid(random_unit_states(rng, 5, 4))
        assert abs(np.trace(rho) - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(rho).min() >= -1e-12

    def test_empty_class(self):
        with pytest.raises(EmptyClass):
            quantum_centroid(np.zeros((0, 2)))


class TestCopiesCentroid:
    def test_one_copy_equals_centroid(self, rng):
        states = random_unit_states(rng, 4, 3)
        np.testing.assert_array_equal(
            copies_centroid(states, 1), quantum_centroid(states)
        )

    def test_two_copy_lift_differs_from_tensor_square(self):
        states = np.eye(2)
        lifted = copies_centroid(states, 2)
        np.testing.assert_allclose(lifted, np.diag([0.5, 0.0, 0.0, 0.5]))
        plain = quantum_centroid(states)
        tensor_square = np.kron(plain, plain)
        np.testing.assert_allclose(tensor_square, np.eye(4) / 4.0)
        assert np.abs(lifted - tensor_square).max() > 0.2

    def test_single_state_stays_pure(self, rng):
        psi = random_unit_states(rng, 1, 2)
        rho = copies_centroid(psi, 3)
        eigs = np.linalg.eigvalsh(rho)
        assert abs(eigs[-1] - 1.0) <= 1e-12
        assert np.abs(eigs[:-1]).max() <= 1e-12

    def test_dense_blowup(self, rng):
        with pytest.raises(DenseBlowup):
            copies_centroid(random_unit_states(rng, 2, 10), 5)


class TestStablePower:
    def test_matches_plain_power(self, rng):
        c = rng.uniform(-1.0, 1.0, size=200)
        for n in (1, 2, 3, 5, 8):
            expected = c**n
            got = stable_power(c, n)
            assert np.abs(got - expected).max() <= 1e-12

    def test_high_power_no_overflow_warnings(self):
        c = np.array([0.999, -0.5, 0.0, 1.0])
        with np.errstate(all="raise"):
            out = stable_power(c, 60)
        np.testing.assert_allclose(out, [0.999**60, 0.5**60, 0.0, 1.0], rtol=1e-12)

    def test_tiny_magnitudes_flush_to_zero(self):
        assert stable_power(np.array([1e-301]), 1)[0] == 0.0

    def test_sign_handling(self):
        np.testing.assert_allclose(stable_power(np.array([-2.0]), 3), [-8.0])
        np.testing.assert_allclose(stable_power(np.array([-2.0]), 2), [4.0])

    def test_rejects_non_positive_exponent(self):
        with pytest.raises(ValueError):
            stable_power(np.ones(1), 0)

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(
            st.one_of(
                st.sampled_from(_POWER_EDGES),
                st.floats(min_value=-10.0, max_value=10.0),
                st.floats(min_value=-1e-290, max_value=1e-290),
            ),
            min_size=1,
            max_size=30,
        ),
        n=st.sampled_from([1, 2, 7, 60]),
    )
    def test_matches_reference_and_leaves_input_alone(self, values, n):
        c = np.array(values, dtype=float)
        before = c.tobytes()
        got = stable_power(c, n)
        np.testing.assert_array_equal(got, reference_power(c, n))
        assert c.tobytes() == before


class TestDensePgm:
    def test_single_class_scores_one(self, rng):
        train = random_labeled_states(rng, 1, 3, 4)
        model = build_dense_pgm(train)
        np.testing.assert_allclose(model.povm.sum(axis=0), np.eye(3), atol=1e-12)
        f = predict_batch(model, random_unit_states(rng, 5, 3))[1]
        np.testing.assert_allclose(f, np.ones((5, 1)), atol=1e-10)

    def test_orthogonal_classes_with_kernel(self):
        states = np.eye(3)[:2]
        train = LabeledStateSet(states=states, labels=np.array([0, 1]), n_classes=2)
        model = build_dense_pgm(train)
        kernel = np.diag([0.0, 0.0, 1.0])
        np.testing.assert_allclose(
            model.povm[0], np.diag([1.0, 0.0, 0.0]) + kernel / 2.0, atol=1e-10
        )
        np.testing.assert_allclose(
            model.povm[1], np.diag([0.0, 1.0, 0.0]) + kernel / 2.0, atol=1e-10
        )
        labels, _ = predict_batch(model, states)
        np.testing.assert_array_equal(labels, [0, 1])

    def test_completeness_and_psd_random(self, rng):
        train = random_labeled_states(rng, 3, 3, 9)
        model = build_dense_pgm(train)
        total = model.povm.sum(axis=0)
        assert np.abs(total - np.eye(3)).max() <= 1e-8
        for effect in model.povm:
            assert np.linalg.eigvalsh(effect).min() >= -1e-8


class TestGramPgm:
    def test_single_training_state_scores_one(self, rng):
        psi = random_unit_states(rng, 1, 4)
        train = LabeledStateSet(states=psi, labels=np.array([0]), n_classes=1)
        model = build_gram_pgm(train, copies=3)
        f = predict_batch(model, random_unit_states(rng, 6, 4))[1]
        np.testing.assert_allclose(f, np.ones((6, 1)), atol=1e-10)

    def test_matches_dense_on_orthonormal_states(self, rng):
        train = LabeledStateSet(
            states=np.eye(4)[:3], labels=np.array([0, 1, 1]), n_classes=2
        )
        dense = build_dense_pgm(train, copies=2)
        gram = build_gram_pgm(train, copies=2)
        tests = random_unit_states(rng, 10, 4)
        diff = predict_batch(dense, tests)[1] - predict_batch(gram, tests)[1]
        assert np.abs(diff).max() <= 1e-8

    def test_matches_dense_on_random_instances(self, rng):
        for _ in range(10):
            n_classes = int(rng.integers(2, 5))
            d = int(rng.integers(2, 6))
            copies = int(rng.integers(1, 4))
            m = int(rng.integers(n_classes, 20))
            train = random_labeled_states(rng, n_classes, d, max(m, n_classes))
            dense = build_dense_pgm(train, copies=copies)
            gram = build_gram_pgm(train, copies=copies)
            tests = random_unit_states(rng, 20, d)
            diff = predict_batch(dense, tests)[1] - predict_batch(gram, tests)[1]
            assert np.abs(diff).max() <= 1e-8

    def test_gram_matrix_consistency(self, rng):
        train = random_labeled_states(rng, 2, 3, 8)
        model = build_gram_pgm(train, copies=2)
        overlaps = train.states @ train.states.T
        sqw = np.sqrt(model.weights)
        gram = sqw[:, None] * overlaps**2 * sqw[None, :]
        projector = model.M @ gram @ model.M
        assert np.abs(projector @ projector - projector).max() <= 1e-8
        assert np.abs(projector @ gram - gram).max() <= 1e-8


class TestGramDenseOracle:
    """Gram scores against the dense engine at numerically awkward inputs."""

    @staticmethod
    def max_gap(train, copies, tests):
        dense = predict_batch(build_dense_pgm(train, copies=copies), tests)[1]
        gram = predict_batch(build_gram_pgm(train, copies=copies), tests)[1]
        return np.abs(dense - gram).max()

    @pytest.mark.parametrize("copies", [1, 2, 3])
    def test_duplicate_training_rows(self, rng, copies):
        base = random_labeled_states(rng, 3, 3, 8)
        train = LabeledStateSet(
            states=np.vstack([base.states, base.states[:4], base.states[:1]]),
            labels=np.concatenate([base.labels, base.labels[:4], base.labels[:1]]),
            n_classes=3,
        )
        assert self.max_gap(train, copies, random_unit_states(rng, 40, 3)) <= 1e-8

    @pytest.mark.parametrize("m", [5, 12, 40])
    def test_rank_deficient_gram_at_one_copy(self, rng, m):
        train = random_labeled_states(rng, 3, 3, m)
        gram = train.states @ train.states.T
        assert np.linalg.matrix_rank(gram) == 3 < m
        assert self.max_gap(train, 1, random_unit_states(rng, 40, 3)) <= 1e-8

    @pytest.mark.parametrize("alpha", [1e-3, 1e3])
    @pytest.mark.parametrize("encoding", ["stereographic", "amplitude"])
    @pytest.mark.parametrize("copies", [1, 2, 4])
    def test_extreme_alpha(self, alpha, encoding, copies):
        features, labels = blob_features(4.0, 15, seed=1)
        scores = [
            predict_batch(
                fit_pgm(
                    features,
                    labels,
                    3,
                    PgmConfig(
                        encoding=EncodingConfig(encoding=encoding, alpha=alpha),
                        copies=copies,
                        engine=engine,
                    ),
                ),
                features,
            )[1]
            for engine in ("dense", "gram")
        ]
        assert np.abs(scores[0] - scores[1]).max() <= 1e-8

    @pytest.mark.parametrize("dim, copies", [(3, 3), (3, 4), (5, 3), (4, 4)])
    def test_symmetric_embedding_matches_tensor_powers(self, dim, copies):
        rng = np.random.default_rng(dim * 10 + copies)
        train = random_labeled_states(rng, 3, dim, 30)
        tests = random_unit_states(rng, 40, dim)
        lifted = symmetric_power(tests, copies)
        np.testing.assert_allclose(lifted @ lifted.T, (tests @ tests.T) ** copies, atol=1e-14)
        dense = predict_batch(build_dense_pgm(train, copies=copies), tests)[1]
        assert np.abs(symmetric_dense_scores(train, copies, tests) - dense).max() <= 1e-12

    # Each default copy count, at a state dimension whose symmetric subspace
    # stays near 1000 dimensions or below: dim 5 is paper-shaped data (four
    # features), dims 3 and 2 are two features and one.
    @pytest.mark.parametrize(
        "dim, copies",
        [(5, 5), (5, 10), *((3, n) for n in range(15, 50, 5)), (2, 50), (2, 55)],
    )
    def test_gram_matches_symmetric_dense_at_default_copies(self, dim, copies):
        rng = np.random.default_rng(copies)
        train = random_labeled_states(rng, 3, dim, 40)
        tests = random_unit_states(rng, 40, dim)
        gram = predict_batch(build_gram_pgm(train, copies=copies), tests)[1]
        assert np.abs(gram - symmetric_dense_scores(train, copies, tests)).max() <= 1e-8

    @pytest.mark.parametrize(
        "seed",
        [
            pytest.param(
                seed,
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="eigenvalues of G straddle RANK_TOL, so the rank cut decides the scores",
                ),
            )
            if seed in (4, 9)
            else seed
            for seed in range(10)
        ],
    )
    def test_gram_matches_symmetric_dense_on_two_vectors_at_sixty_copies(self, seed):
        rng = np.random.default_rng(seed)
        train = random_labeled_states(rng, 3, 2, 40)
        tests = random_unit_states(rng, 40, 2)
        gram = predict_batch(build_gram_pgm(train, copies=60), tests)[1]
        assert np.abs(gram - symmetric_dense_scores(train, 60, tests)).max() <= 1e-8

    def test_sixty_copies_rows_sum_to_one(self, rng):
        features, labels = blob_features(4.0, 20, d=30, seed=1)
        model = fit_pgm(features, labels, 3, PgmConfig(copies=60, engine="gram"))
        for x in (features, 3.0 * rng.normal(size=(200, 30))):
            scores = predict_batch(model, x)[1]
            assert np.all(np.isfinite(scores))
            assert np.abs(scores.sum(axis=1) - 1.0).max() <= 1e-14


class TestScoreAndClassify:
    def test_orthogonal_model_scores_basis_vector(self):
        train = LabeledStateSet(states=np.eye(2), labels=np.array([0, 1]), n_classes=2)
        model = build_dense_pgm(train)
        np.testing.assert_allclose(
            predict_batch(model, np.eye(2)[:1])[1], [[1.0, 0.0]], atol=1e-12
        )

    def test_two_pure_states_reach_optimal_success(self):
        states = np.array([[1.0, 0.0], [1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)]])
        train = LabeledStateSet(states=states, labels=np.array([0, 1]), n_classes=2)
        model = build_dense_pgm(train)
        f = predict_batch(model, states)[1]
        success = 0.5 * f[0, 0] + 0.5 * f[1, 1]
        gamma = float(states[0] @ states[1])
        optimal = 0.5 * (1.0 + np.sqrt(1.0 - gamma**2))
        assert abs(success - optimal) <= 1e-10
        assert abs(success - 0.8535533906) <= 1e-10

    def test_argmax_takes_largest(self):
        labels = labels_from_scores([[0.2, 0.5, 0.3], [0.6, 0.1, 0.3]])
        np.testing.assert_array_equal(labels, [1, 0])
        assert labels.dtype == np.int64

    def test_exact_tie_takes_smallest_index(self):
        np.testing.assert_array_equal(labels_from_scores([[0.5, 0.5], [0.0, 1.0]]), [0, 1])

    def test_near_tie_rounds_before_comparison(self):
        np.testing.assert_array_equal(
            labels_from_scores([[0.5, 0.5 + 1e-13], [0.5, 0.5 + 5e-12]]), [0, 1]
        )
        np.testing.assert_array_equal(round_scores([0.5, 0.5 + 1e-13]), [0.5, 0.5])

    def test_single_class_classifies_zero(self, rng):
        train = random_labeled_states(rng, 1, 2, 3)
        model = build_dense_pgm(train)
        scores = predict_batch(model, random_unit_states(rng, 4, 2))[1]
        np.testing.assert_array_equal(labels_from_scores(scores), [0, 0, 0, 0])

    def test_dim_mismatch(self, rng):
        train = random_labeled_states(rng, 2, 3, 4)
        model = build_dense_pgm(train)
        with pytest.raises(DimMismatch):
            predict_batch(model, random_unit_states(rng, 2, 4))


def uniform_states(shape, n_states):
    """N unit states ``psi_k = U^k psi_0`` for the rotation U by 2 pi / N:
    the N-gon in R^2, or the cone ``(0.6 cos, 0.6 sin, 0.8)`` in R^3."""
    theta = 2.0 * np.pi * np.arange(n_states) / n_states
    if shape == "polygon":
        return np.column_stack([np.cos(theta), np.sin(theta)])
    return np.column_stack([0.6 * np.cos(theta), 0.6 * np.sin(theta), np.full(n_states, 0.8)])


_UNIFORM_ENSEMBLES = [(shape, n) for shape in ("polygon", "cone") for n in (3, 4, 5, 7, 12)]


class TestGeometricallyUniformOptimality:
    """For N equiprobable states ``psi_k = U^k psi_0`` (U orthogonal, U^N = I),
    one per class, the PGM is the optimal measurement, and its success is
    ``(sum_k sqrt(lambda_k))^2 / N^2``; the lambda_k are the eigenvalues of
    the circulant Gram matrix of the n-copy states, the real DFT of
    ``g_j = (psi_0 . psi_j)^n`` (Ban et al. 1997; Eldar and Forney 2001).
    n copies of such a set are again geometrically uniform, so the form
    holds at every copy count, and it shares no code with either engine."""

    @staticmethod
    def check(build, shape, n_states, copies):
        states = uniform_states(shape, n_states)
        train = LabeledStateSet(states=states, labels=np.arange(n_states), n_classes=n_states)
        model = build(train, make_priors("uniform", train.class_counts), copies)
        f = predict_batch(model, states)[1]
        lam = np.fft.fft((states[0] @ states.T) ** copies).real
        # Exactly-zero eigenvalues come out of the FFT as round-off, whose
        # square roots would add up; drop them.
        lam = lam[lam > 1e-12 * lam.max()]
        optimal = np.sqrt(lam).sum() ** 2 / n_states**2
        if shape == "polygon" and copies == 1:
            assert abs(optimal - 2.0 / n_states) <= 1e-14
        assert abs(np.trace(f) / n_states - optimal) <= 1e-12
        # f_i(psi_j) depends only on j - i mod N.
        shift = (np.arange(n_states)[None, :] - np.arange(n_states)[:, None]) % n_states
        np.testing.assert_allclose(f, f[0, shift], rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("copies", sorted({1, 2, *DEFAULT_COPIES}))
    @pytest.mark.parametrize("shape, n_states", _UNIFORM_ENSEMBLES)
    def test_gram_reaches_the_closed_form(self, shape, n_states, copies):
        self.check(build_gram_pgm, shape, n_states, copies)

    @pytest.mark.parametrize("copies", [1, 2, 5])
    @pytest.mark.parametrize("shape, n_states", _UNIFORM_ENSEMBLES)
    def test_dense_reaches_the_closed_form(self, shape, n_states, copies):
        self.check(build_dense_pgm, shape, n_states, copies)


class TestInvariants:
    def test_score_normalization(self, rng):
        for _ in range(8):
            n_classes = int(rng.integers(2, 5))
            d = int(rng.integers(2, 6))
            copies = int(rng.integers(1, 4))
            train = random_labeled_states(rng, n_classes, d, int(rng.integers(n_classes, 25)))
            for build in (build_dense_pgm, build_gram_pgm):
                model = build(train, copies=copies)
                f = predict_batch(model, random_unit_states(rng, 15, d))[1]
                assert np.abs(f.sum(axis=1) - 1.0).max() <= 1e-8
                assert f.min() >= -1e-10

    def test_label_permutation_equivariance(self, rng):
        train = random_labeled_states(rng, 3, 4, 12)
        perm = np.array([2, 0, 1])
        permuted = LabeledStateSet(
            states=train.states, labels=perm[train.labels], n_classes=3
        )
        tests = random_unit_states(rng, 8, 4)
        f = predict_batch(build_dense_pgm(train), tests)[1]
        g = predict_batch(build_dense_pgm(permuted), tests)[1]
        np.testing.assert_allclose(g[:, perm], f, atol=1e-10)
        base = np.argmax(round_scores(f), axis=1)
        moved = np.argmax(round_scores(g), axis=1)
        np.testing.assert_array_equal(moved, perm[base])

    def test_identical_representatives_follow_priors(self, rng):
        psi = random_unit_states(rng, 1, 3)[0]
        train = LabeledStateSet(
            states=np.vstack([psi, psi]), labels=np.array([0, 1]), n_classes=2
        )
        priors = make_priors("empirical", [1, 4])
        np.testing.assert_allclose(priors.values, [0.2, 0.8])
        skewed = build_dense_pgm(train, priors=priors)
        f = predict_batch(skewed, psi[None, :])[1]
        np.testing.assert_array_equal(labels_from_scores(f), [1])
        assert f[0, 1] > f[0, 0]
        even = build_dense_pgm(train)
        g = predict_batch(even, psi[None, :])[1]
        np.testing.assert_array_equal(labels_from_scores(g), [0])

    def test_orthogonal_supports_classified_perfectly(self, rng):
        states = np.eye(6)
        labels = np.array([0, 0, 1, 1, 2, 2])
        train = LabeledStateSet(states=states, labels=labels, n_classes=3)
        for build in (build_dense_pgm, build_gram_pgm):
            predicted, _ = predict_batch(build(train), states)
            np.testing.assert_array_equal(predicted, labels)


class TestMetamorphicRelations:
    """Fits that differ only in the order, the multiplicity or the naming of
    the training rows give the same scores within 1e-8, and the same labels.
    Paper-shaped data, one default grid point, the gram engine at one BLAS
    thread; the first four fifths of the rows train, the rest are scored.
    Uniform priors, so duplicating every row keeps the centroids."""

    @staticmethod
    def check(n, seed, encoding, alpha, copies):
        rng = np.random.default_rng(seed)
        features, labels = paper_features(rng, n)
        config = GridPoint(encoding, alpha, copies).to_config(engine="gram")
        cut = n - n // 5
        x, y, held_out = features[:cut], labels[:cut], features[cut:]
        order = rng.permutation(cut)

        def scores(x, y):
            return predict_batch(fit_pgm(x, y, 2, config), held_out)[1]

        with one_blas_thread():
            base = scores(x, y)
            variants = {
                "permuted": scores(x[order], y[order]),
                "duplicated": scores(np.vstack([x, x]), np.concatenate([y, y])),
                "relabelled": scores(x, 1 - y)[:, ::-1],
            }
        for name, got in variants.items():
            assert np.abs(got - base).max() <= 1e-8, name
            np.testing.assert_array_equal(
                labels_from_scores(got), labels_from_scores(base), err_msg=name
            )

    # A fixed search: one of 16,500 random draws broke a relation (the case
    # below), so a fresh random search would fail now and then.
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        n=st.integers(40, 143),
        seed=st.integers(0, 2**32 - 1),
        encoding=st.sampled_from(ENCODINGS),
        alpha=st.sampled_from(DEFAULT_ALPHAS),
        copies=st.sampled_from(DEFAULT_COPIES),
    )
    def test_permuting_duplicating_and_relabelling_training_rows(
        self, n, seed, encoding, alpha, copies
    ):
        self.check(n, seed, encoding, alpha, copies)

    @pytest.mark.xfail(
        strict=True,
        reason="duplicating the training rows moves a score by 1.08e-8: G has 26 "
        "eigenvalues within a decade of the rank cut, where the cut turns on round-off",
    )
    def test_duplication_near_the_rank_cut(self):
        self.check(130, 694323426, "stereographic", 16.0, 25)


class TestPredictBatch:
    def test_empty_batch(self, rng):
        train = random_labeled_states(rng, 2, 3, 4)
        model = build_dense_pgm(train)
        labels, scores = predict_batch(model, np.zeros((0, 3)))
        assert labels.shape == (0,)
        assert scores.shape == (0, 2)

    def test_batch_equals_scalar_calls(self, rng):
        features = rng.normal(size=(6, 3))
        labels = np.array([0, 1, 0, 1, 0, 1])
        model = fit_pgm(features, labels, 2, PgmConfig(copies=2))
        batch_labels, batch_scores = predict_batch(model, features)
        for i in range(6):
            row_labels, row_scores = predict_batch(model, features[i : i + 1])
            assert batch_labels[i] == row_labels[0]
            np.testing.assert_allclose(batch_scores[i], row_scores[0], atol=1e-12)


class TestScoreBlocks:
    SIZES = (0, 1, SCORE_BLOCK - 1, SCORE_BLOCK, SCORE_BLOCK + 1, 2 * SCORE_BLOCK + 3)

    @pytest.mark.parametrize("copies", [2, 3])
    def test_blocks_match_unblocked_scores(self, rng, copies):
        train = random_labeled_states(rng, 3, 3, 15)
        gram = build_gram_pgm(train, copies=copies)
        dense = build_dense_pgm(train, copies=copies)
        tests = random_unit_states(rng, max(self.SIZES), 3)
        for k in self.SIZES:
            states = tests[:k]
            gram_scores = predict_batch(gram, states)[1]
            dense_scores = predict_batch(dense, states)[1]
            for model, got in ((gram, gram_scores), (dense, dense_scores)):
                reference = unblocked_scores(model, states)
                assert got.shape == (k, 3)
                assert np.abs(got - reference).max(initial=0.0) <= 1e-12
                labels, _ = predict_batch(model, states)
                np.testing.assert_array_equal(
                    labels, np.argmax(round_scores(reference), axis=1)
                )
            assert np.abs(gram_scores - dense_scores).max(initial=0.0) <= 1e-8

    @staticmethod
    def fitted(encoding, engine):
        features, labels = blob_features(4.0, 10, d=3, seed=5)
        config = PgmConfig(
            encoding=EncodingConfig(encoding=encoding, alpha=0.5), copies=2, engine=engine
        )
        return fit_pgm(features, labels, 3, config)

    @pytest.mark.parametrize("engine", ["gram", "dense"])
    @pytest.mark.parametrize("encoding", ["stereographic", "amplitude"])
    def test_blockwise_encoding_matches_the_whole_batch(self, rng, encoding, engine):
        model = self.fitted(encoding, engine)
        bare = replace(model, encoding=None, normalizer=None)
        features = 3.0 * rng.normal(size=(max(self.SIZES), 3))
        for k in self.SIZES:
            scores = predict_batch(bare, encode(features[:k], model.encoding, model.normalizer))[1]
            labels, got = predict_batch(model, features[:k])
            np.testing.assert_array_equal(got, scores)
            np.testing.assert_array_equal(labels, labels_from_scores(scores))

    @pytest.mark.parametrize("encoding", ["stereographic", "amplitude"])
    def test_overflow_names_the_row_index_in_the_whole_input(self, rng, encoding):
        model = self.fitted(encoding, "gram")
        features = rng.normal(size=(SCORE_BLOCK + 10, 3))
        features[SCORE_BLOCK + 3, 1] = 1e200
        message = f"{encoding} encoding overflows: row index {SCORE_BLOCK + 3} "
        with pytest.raises(InvalidFeature, match=message):
            predict_batch(model, features)

    def test_block_size_does_not_change_bits(self, monkeypatch):
        """At one BLAS thread, where the blocks end does not change a score."""
        rows = paper_features(np.random.default_rng(3), 5000)[0]
        for m, encoding, copies in ((143, "stereographic", 8), (400, "amplitude", 20)):
            features, labels = paper_features(np.random.default_rng(m), m)
            config = PgmConfig(
                encoding=EncodingConfig(encoding=encoding, alpha=0.5), copies=copies, engine="gram"
            )
            model = fit_pgm(features, labels, 2, config)
            scores = []
            with one_blas_thread():
                for block in (512, 4096):
                    monkeypatch.setattr("pgmclassifier.pgm.SCORE_BLOCK", block)
                    scores.append(predict_batch(model, rows)[1])
            np.testing.assert_array_equal(scores[0], scores[1])

    def test_memory_grows_only_by_the_score_and_label_arrays(self, rng):
        model = self.fitted("stereographic", "gram")
        small, large = (rng.normal(size=(k, 3)) for k in (20_000, 40_000))
        growth = peak_allocation(predict_batch, model, large) - peak_allocation(
            predict_batch, model, small
        )
        per_row = 8 * model.n_classes + 8  # one float score per class and one int64 label
        assert growth <= 1.1 * per_row * 20_000


class TestFitPgm:
    def test_auto_engine_selects_by_lifted_dimension(self, rng):
        features = rng.normal(size=(8, 3))
        labels = np.array([0, 1] * 4)
        assert fit_pgm(features, labels, 2, PgmConfig(copies=3)).engine == "dense"
        assert fit_pgm(features, labels, 2, PgmConfig(copies=7)).engine == "gram"

    def test_auto_engine_past_the_float_range_is_gram(self, rng):
        train = random_labeled_states(rng, 2, 5, 8)
        priors = make_priors("uniform", train.class_counts)
        assert build_pgm(train, priors, 442, "auto").engine == "gram"

    def test_forced_dense_blowup(self, rng):
        features = rng.normal(size=(8, 3))
        labels = np.array([0, 1] * 4)
        with pytest.raises(DenseBlowup):
            fit_pgm(features, labels, 2, PgmConfig(copies=7, engine="dense"))

    def test_score_applies_stored_pipeline(self, rng):
        features = rng.normal(size=(10, 2))
        labels = np.array([0, 1] * 5)
        config = PgmConfig(
            encoding=EncodingConfig(encoding="amplitude", alpha=0.5), copies=2
        )
        model = fit_pgm(features, labels, 2, config)
        from pgmclassifier.encoding import _apply_normalizer, _encode_amplitude

        states = _encode_amplitude(_apply_normalizer(features, model.normalizer) * 0.5)
        np.testing.assert_allclose(
            predict_batch(model, features)[1],
            predict_batch(replace(model, encoding=None, normalizer=None), states)[1],
            atol=1e-12,
        )

    def test_empirical_priors_recorded(self, rng):
        features = rng.normal(size=(9, 2))
        labels = np.array([0, 0, 0, 0, 0, 0, 1, 1, 1])
        model = fit_pgm(features, labels, 2, PgmConfig(prior_mode="empirical"))
        np.testing.assert_allclose(model.priors.values, [2.0 / 3.0, 1.0 / 3.0])

    def test_config_validation(self):
        with pytest.raises(InvalidOperator):
            PgmConfig(engine="sparse")
        with pytest.raises(InvalidOperator):
            PgmConfig(prior_mode="explicit")
        for copies in (0, True, 2.0, "2"):
            with pytest.raises(ValueError):
                PgmConfig(copies=copies)


class TestBuilderValidation:
    def test_priors_shape_checked(self, rng):
        train = random_labeled_states(rng, 2, 3, 6)
        with pytest.raises(DimMismatch):
            build_dense_pgm(train, priors=make_priors("uniform", [1] * 3))
        with pytest.raises(DimMismatch):
            build_gram_pgm(train, priors=make_priors("uniform", [1] * 3))

    def test_prior_object_validation(self):
        with pytest.raises(InvalidOperator):
            Priors(mode="weighted", values=np.array([1.0]))
        with pytest.raises(InvalidOperator):
            Priors(mode="explicit", values=np.array([1.0]))

    def test_make_priors_rejects_unknown_mode(self, rng):
        train = random_labeled_states(rng, 2, 3, 6)
        with pytest.raises(InvalidOperator, match="unknown prior mode 'explicit'"):
            make_priors("explicit", train.class_counts)
