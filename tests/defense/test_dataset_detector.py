"""Unit tests for dataset generation and the end-to-end detector."""

import numpy as np
import pytest

from repro.defense.dataset import DatasetConfig, LabeledDataset, build_dataset
from repro.defense.detector import InaudibleVoiceDetector
from repro.errors import DefenseError


@pytest.fixture(scope="module")
def small_dataset():
    config = DatasetConfig(
        commands=("alexa",),
        distances_m=(1.0,),
        n_trials=4,
        attacker_kind="single_full",
        seed=21,
    )
    return build_dataset(config)


class TestDatasetConfig:
    def test_unknown_command_rejected(self):
        with pytest.raises(DefenseError):
            DatasetConfig(commands=("definitely_not_real",))

    def test_bad_distance_rejected(self):
        with pytest.raises(DefenseError):
            DatasetConfig(distances_m=(0.0,))

    def test_unknown_attacker_rejected(self):
        with pytest.raises(DefenseError):
            DatasetConfig(attacker_kind="quantum")

    def test_unknown_device_rejected(self):
        with pytest.raises(DefenseError):
            DatasetConfig(device="toaster")


class TestBuildDataset:
    def test_balanced_classes(self, small_dataset):
        assert small_dataset.n_samples == 8
        assert int(np.sum(small_dataset.labels)) == 4

    def test_metadata_matches_rows(self, small_dataset):
        kinds = {meta["kind"] for meta in small_dataset.metadata}
        assert kinds == {"genuine", "single_full"}

    def test_deterministic(self):
        config = DatasetConfig(
            commands=("alexa",), distances_m=(1.0,), n_trials=2, seed=5
        )
        a = build_dataset(config)
        b = build_dataset(config)
        assert np.allclose(a.features, b.features)

    def test_classes_actually_separate(self, small_dataset):
        genuine = small_dataset.features[small_dataset.labels == 0]
        attacked = small_dataset.features[small_dataset.labels == 1]
        # Trace power (feature 0) separates by several dB.
        assert np.mean(attacked[:, 0]) > np.mean(genuine[:, 0]) + 5.0


class TestSplitFilter:
    def test_split_partition(self, small_dataset, rng):
        train, test = small_dataset.split(0.5, rng)
        assert train.n_samples + test.n_samples == small_dataset.n_samples

    def test_bad_fraction_rejected(self, small_dataset, rng):
        with pytest.raises(DefenseError):
            small_dataset.split(1.5, rng)

    def test_filter_by_metadata(self, small_dataset):
        genuine_only = small_dataset.filter(
            lambda meta: meta["kind"] == "genuine"
        )
        assert np.all(genuine_only.labels == 0)

    def test_empty_filter_rejected(self, small_dataset):
        with pytest.raises(DefenseError):
            small_dataset.filter(lambda meta: False)

    def test_select_equals_building_with_the_subset(self, small_dataset):
        subset = ("envelope_correlation", "trace_power_db")
        built = build_dataset(
            DatasetConfig(
                commands=("alexa",),
                distances_m=(1.0,),
                n_trials=4,
                attacker_kind="single_full",
                feature_subset=subset,
                seed=21,
            )
        )
        selected = small_dataset.select(subset)
        assert selected.feature_names == built.feature_names == subset
        assert selected.features.tobytes() == built.features.tobytes()
        assert np.array_equal(selected.labels, built.labels)
        assert selected.metadata == built.metadata

    def test_select_unknown_feature_rejected(self, small_dataset):
        with pytest.raises(DefenseError):
            small_dataset.select(("trace_power_db", "loudness"))
        with pytest.raises(DefenseError):
            small_dataset.select(())

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(DefenseError):
            LabeledDataset(
                features=np.ones((3, 2)),
                labels=np.ones(2),
                metadata=[{}, {}, {}],
            )


class TestDetector:
    def test_fit_and_classify(self, small_dataset, attack_recording):
        detector = InaudibleVoiceDetector().fit(small_dataset)
        verdict = detector.classify(attack_recording)
        assert verdict.is_attack
        assert verdict.score > 0.5

    def test_evaluate_accuracy_high(self, small_dataset):
        detector = InaudibleVoiceDetector().fit(small_dataset)
        cm = detector.evaluate(small_dataset)
        assert cm.accuracy >= 0.9

    def test_svm_variant(self, small_dataset):
        detector = InaudibleVoiceDetector(model="svm").fit(small_dataset)
        cm = detector.evaluate(small_dataset)
        assert cm.accuracy >= 0.9

    def test_unknown_model_rejected(self):
        with pytest.raises(DefenseError):
            InaudibleVoiceDetector(model="forest")

    def test_use_before_fit_rejected(self, attack_recording):
        with pytest.raises(DefenseError):
            InaudibleVoiceDetector().classify(attack_recording)

    def test_subset_detector_requires_matching_dataset(
        self, small_dataset
    ):
        detector = InaudibleVoiceDetector(
            feature_subset=("trace_power_db",)
        )
        with pytest.raises(DefenseError):
            detector.fit(small_dataset)
