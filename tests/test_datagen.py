import threading

import numpy as np
import pytest

from rthdg import datagen, pool
from rthdg.angular import build_angular_grid, scattering_kernel_matrix
from rthdg.basis import modal_nodal_transform
from rthdg.datagen import (DiscretizationConfig, SamplerConfig,
                           dataset_fingerprint, generate_dataset, load_dataset,
                           modal_decay, sample_rng, sample_sigma, save_dataset)
from rthdg.errors import FormatError, SolverFailure
from rthdg.local import SigmaField, solve_element
from rthdg.surrogate import flatten_operators

DESK_SAMPLER = SamplerConfig(p_x=3, p_y=3, c_sm=2.0, a_sigma=10.0)
DESK_DISC = DiscretizationConfig(p=3, n_a=8, omega=1.0, g_asym=0.8)


def test_sampler_validation():
    with pytest.raises(ValueError):
        SamplerConfig(p_x=3, p_y=3, c_sm=-1.0)
    with pytest.raises(ValueError):
        SamplerConfig(p_x=3, p_y=3, a_sigma=0.0)


def test_sample_range():
    for i in range(50):
        s = sample_sigma(DESK_SAMPLER, sample_rng(7, i))
        assert s.min() == 0.0  # positivity shift leaves an exact zero
        assert s.max() <= 10.0


def test_large_smoothness_kills_high_modes():
    # before post-processing, nearly all modal energy sits in the three
    # lowest modes when c_sm is large
    cfg = SamplerConfig(p_x=4, p_y=4, c_sm=1e3)
    rng = sample_rng(1, 0)
    modal = modal_decay(cfg) * (rng.random((5, 5)) - 0.5)
    total = np.sum(modal ** 2)
    keep = modal[0, 0] ** 2 + modal[1, 0] ** 2 + modal[0, 1] ** 2
    assert (total - keep) / total < 0.01


def test_smoothness_monotonicity():
    # mean high-mode (m + n > p/2) energy fraction decreases with c_sm
    p = 4
    tinv = modal_nodal_transform(p).inverse
    m_idx = np.add.outer(np.arange(p + 1), np.arange(p + 1)) > p / 2
    fractions = []
    for c_sm in (0.0, 2.0, 4.0):
        cfg = SamplerConfig(p_x=p, p_y=p, c_sm=c_sm)
        frac = []
        for i in range(200):
            nodal = sample_sigma(cfg, sample_rng(11, i))
            modal = tinv @ nodal @ tinv.T
            energy = modal ** 2
            frac.append(energy[m_idx].sum() / energy.sum())
        fractions.append(np.mean(frac))
    assert fractions[0] > fractions[1] > fractions[2]


def test_cached_transform_keeps_labels_bitwise(monkeypatch):
    cached = generate_dataset(DESK_SAMPLER, DESK_DISC, 20, seed=0)
    t = modal_nodal_transform(3)
    assert modal_nodal_transform(3) is t
    assert not t.forward.flags.writeable and not t.inverse.flags.writeable
    monkeypatch.setattr(datagen, "modal_nodal_transform", modal_nodal_transform.__wrapped__)
    fresh = generate_dataset(DESK_SAMPLER, DESK_DISC, 20, seed=0)
    assert np.array_equal(cached.inputs, fresh.inputs)
    assert np.array_equal(cached.labels, fresh.labels)


def test_generate_dataset_split_and_meta():
    ds = generate_dataset(DESK_SAMPLER, DESK_DISC, 20, seed=3)
    assert ds.inputs.shape == (20, 16)
    assert ds.train_idx.size == 16 and ds.test_idx.size == 4
    assert ds.meta["resamples"] == 0
    assert ds.meta["fingerprint"] == dataset_fingerprint(ds.inputs, ds.labels)
    with pytest.raises(ValueError):
        generate_dataset(DESK_SAMPLER, DESK_DISC, 3, seed=0)


def test_large_dataset_split_sizes():
    sampler = SamplerConfig(p_x=2, p_y=2, c_sm=2.0, a_sigma=10.0)
    disc = DiscretizationConfig(p=2, n_a=4, omega=1.0, g_asym=0.8)
    ds = generate_dataset(sampler, disc, 1000, seed=5)
    assert ds.train_idx.size == 800
    assert ds.test_idx.size == 200


def test_labels_match_local_solver_exactly():
    # spot-check: dataset rows reproduce the exact local pipeline bit for bit
    ds = generate_dataset(DESK_SAMPLER, DESK_DISC, 8, seed=21)
    grid = build_angular_grid(8)
    kernel = scattering_kernel_matrix(grid, 0.8)
    rng = np.random.default_rng(0)
    for i in rng.choice(8, size=5, replace=False):
        sigma_s = ds.inputs[i].reshape(4, 4)
        ops = solve_element(SigmaField.from_scattering(sigma_s, 1.0),
                            grid, kernel, h=2.0)
        np.testing.assert_array_equal(ds.labels[i], flatten_operators(ops))


def test_generate_dataset_bytes_independent_of_workers(monkeypatch, set_workers):
    # samples 3 and 11 fail on their first draw, and 11 on its first redraw
    # too: the redraws take the fresh streams 20, 21 and 22 in sample order
    fails = {"sample 3": 1, "sample 11": 2}
    lock = threading.Lock()

    def failing_solve(*args, element_index=None, **kwargs):
        with lock:
            left = fails.get(element_index, 0)
            fails[element_index] = left - 1
        if left > 0:
            raise SolverFailure(f"{element_index}: forced failure")
        return solve_element(*args, element_index=element_index, **kwargs)

    monkeypatch.setattr(datagen, "solve_element", failing_solve)
    runs = []
    for workers in (1, 2, 4):
        set_workers(workers)
        assert len(pool.element_bounds(20, 128 ** 3)) == workers + 1
        fails.update({"sample 3": 1, "sample 11": 2})
        runs.append(generate_dataset(DESK_SAMPLER, DESK_DISC, 20, seed=4))
    first = runs[0]
    assert first.meta["resamples"] == 3
    for i, stream in ((3, 20), (11, 22), (12, 12)):
        want = sample_sigma(DESK_SAMPLER, sample_rng(4, stream)).reshape(-1)
        assert first.inputs[i].tobytes() == want.tobytes()
    for ds in runs[1:]:
        assert ds.inputs.tobytes() == first.inputs.tobytes()
        assert ds.labels.tobytes() == first.labels.tobytes()
        assert ds.meta == first.meta


def test_generate_determinism():
    a = generate_dataset(DESK_SAMPLER, DESK_DISC, 10, seed=9)
    b = generate_dataset(DESK_SAMPLER, DESK_DISC, 10, seed=9)
    np.testing.assert_array_equal(a.inputs, b.inputs)
    np.testing.assert_array_equal(a.labels, b.labels)
    c = generate_dataset(DESK_SAMPLER, DESK_DISC, 10, seed=10)
    assert np.any(c.inputs != a.inputs)


def test_dataset_io_roundtrip(tmp_path):
    ds = generate_dataset(DESK_SAMPLER, DESK_DISC, 8, seed=1)
    path = tmp_path / "ds.npz"
    save_dataset(ds, path)
    back = load_dataset(path, expect=DESK_DISC)
    np.testing.assert_array_equal(back.inputs, ds.inputs)
    np.testing.assert_array_equal(back.labels, ds.labels)
    np.testing.assert_array_equal(back.train_idx, ds.train_idx)
    assert back.meta == ds.meta


def test_load_dataset_rejects_a_changed_label_byte(tmp_path):
    ds = generate_dataset(DESK_SAMPLER, DESK_DISC, 8, seed=1)
    path = tmp_path / "ds.npz"
    save_dataset(ds, path)
    assert load_dataset(path).labels.tobytes() == ds.labels.tobytes()
    with np.load(path) as npz:
        arrays = dict(npz)
    arrays["labels"].view(np.uint8).reshape(-1)[1000] ^= 1
    np.savez(path, **arrays)
    with pytest.raises(FormatError, match="fingerprint"):
        load_dataset(path)


def test_dataset_io_header_mismatch(tmp_path):
    ds = generate_dataset(DESK_SAMPLER, DESK_DISC, 8, seed=1)
    path = tmp_path / "ds.npz"
    save_dataset(ds, path)
    wrong = DiscretizationConfig(p=6, n_a=8, omega=1.0, g_asym=0.8)
    with pytest.raises(FormatError):
        load_dataset(path, expect=wrong)
    with pytest.raises((FormatError, OSError)):
        load_dataset(tmp_path / "missing.npz")


def test_sampler_disc_degree_consistency():
    sampler = SamplerConfig(p_x=2, p_y=2)
    with pytest.raises(ValueError):
        generate_dataset(sampler, DESK_DISC, 8, seed=0)
