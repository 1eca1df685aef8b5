import numpy as np
import pytest

from lidarmoe.pipeline import DEFAULT_DATASET_CONFIG, RunConfig, generate_dataset


@pytest.fixture(scope="session")
def tiny_dataset(tmp_path_factory):
    """Small rendered dataset: 2 train + 1 val scans at reduced resolution."""
    doc = dict(DEFAULT_DATASET_CONFIG)
    doc.update(n_train=2, n_val=1, azimuth_steps=96, range_w=96)
    out = tmp_path_factory.mktemp("tiny_ds")
    generate_dataset(doc, out, seed=0)
    return out


@pytest.fixture()
def tiny_config(tiny_dataset):
    return RunConfig(dataset=str(tiny_dataset), seed=1, epochs=2, embed_dim=16,
                     centroid_count=16, knn_k=8, probe_epochs=3, sms_epochs=2)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def small_dataset(tmp_path_factory):
    """3 train + 2 val scans at reduced resolution, for batching and
    per-scan evaluation checks."""
    doc = dict(DEFAULT_DATASET_CONFIG)
    doc.update(n_train=3, n_val=2, azimuth_steps=64, range_w=64)
    out = tmp_path_factory.mktemp("small_ds")
    generate_dataset(doc, out, seed=0)
    return out
