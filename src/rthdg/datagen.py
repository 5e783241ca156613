"""Random optical-coefficient sampling and labeled-dataset construction.

Coefficient fields are drawn in the Legendre modal basis with a low-frequency
bias exp(-c_sm ((m/p_x)^2 + (n/p_y)^2)) on mode (m, n), transformed to nodal
values, shifted to min 0, normalized to max 1, and amplified by a uniform
draw on [0, A_sigma]. Labels are the flattened (in2out, in2mean) operator
pair computed by the exact local solver on the reference element, written
in place through the label-layout container (`unflatten_operators`).

Randomness uses the counter-based Philox generator keyed by
(seed, stream index). Sample i is first drawn from stream i, so the samples
are labelled in contiguous blocks on the element worker pool; a draw whose
field or solve fails is redrawn afterwards, in sample order, from the
streams n_samp, n_samp + 1, ... Every worker count gives the same bytes.
"""

import hashlib
import json
from dataclasses import asdict, dataclass

import numpy as np

from .angular import build_angular_grid, scattering_kernel_matrix
from .basis import modal_nodal_transform
from .errors import FormatError, SolverFailure
from .local import SigmaField, reference_kernels, solve_element
from .pool import element_bounds, run_blocks
from .surrogate import input_size, output_size, unflatten_operators

DATASET_FORMAT_VERSION = 1


@dataclass(frozen=True)
class SamplerConfig:
    """Modal sampling parameters on the reference element."""

    p_x: int
    p_y: int
    c_sm: float = 2.0
    a_sigma: float = 10.0

    def __post_init__(self):
        if self.c_sm < 0 or self.a_sigma <= 0:
            raise ValueError(f"need c_sm >= 0 and A_sigma > 0, got {(self.c_sm, self.a_sigma)}")


@dataclass(frozen=True)
class DiscretizationConfig:
    """Discretization and physics the labels are generated for."""

    p: int
    n_a: int
    omega: float = 1.0
    g_asym: float = 0.8


@dataclass
class Dataset:
    inputs: np.ndarray   # (n_samp, N_in) nodal scattering coefficients
    labels: np.ndarray   # (n_samp, N_out) flattened (A_i2o, A_i2m)
    train_idx: np.ndarray
    test_idx: np.ndarray
    meta: dict


def sample_rng(seed: int, sample_index: int) -> np.random.Generator:
    """Independent reproducible stream for one sample."""
    return np.random.Generator(np.random.Philox(key=[seed, sample_index]))


def modal_decay(cfg: SamplerConfig) -> np.ndarray:
    m = np.arange(cfg.p_x + 1)[:, None] / cfg.p_x
    n = np.arange(cfg.p_y + 1)[None, :] / cfg.p_y
    return np.exp(-cfg.c_sm * (m ** 2 + n ** 2))


class _DegenerateSample(Exception):
    pass


def sample_sigma(cfg: SamplerConfig, rng: np.random.Generator) -> np.ndarray:
    """One nodal coefficient sample on the reference element, in [0, A_sigma].

    Draw order per sample: the (p_x+1)(p_y+1) modal uniforms first, then the
    amplitude uniform. The minimum is exactly 0 before amplification.
    """
    modal = modal_decay(cfg) * (rng.random((cfg.p_x + 1, cfg.p_y + 1)) - 0.5)
    tx = modal_nodal_transform(cfg.p_x).forward
    ty = modal_nodal_transform(cfg.p_y).forward
    nodal = tx @ modal @ ty.T
    nodal = nodal - nodal.min()
    peak = nodal.max()
    if peak == 0.0:
        raise _DegenerateSample("all-equal field after the positivity shift")
    nodal /= peak
    nodal *= rng.uniform(0.0, cfg.a_sigma)
    return nodal


def dataset_fingerprint(inputs: np.ndarray, labels: np.ndarray) -> str:
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(inputs).tobytes())
    digest.update(np.ascontiguousarray(labels).tobytes())
    return digest.hexdigest()


def generate_dataset(sampler: SamplerConfig, disc: DiscretizationConfig,
                     n_samp: int, seed: int = 0, train_fraction: float = 0.8) -> Dataset:
    """Sample coefficients and label them with the exact local pipeline (h = 2).

    Deterministic under a fixed seed; the split is 80/20 by sample index.
    The samples are labelled in contiguous blocks on the element worker pool
    (`pool.default_workers()` threads) when each block's work, the condensed
    solve's multiply-adds per label (`solve_work`), reaches
    `pool.MIN_BLOCK_WORK`. A failed local solve is recorded and the sample
    redrawn from a fresh stream (a probability-zero event kept for
    robustness); the redraws run on the calling thread in sample order.
    """
    if n_samp < 5:
        raise ValueError(f"need at least 5 samples for a meaningful split, got {n_samp}")
    if sampler.p_x != disc.p or sampler.p_y != disc.p:
        raise ValueError("sampler degrees must match the label discretization")
    grid = build_angular_grid(disc.n_a)
    kernel = scattering_kernel_matrix(grid, disc.g_asym)
    n_in = input_size(disc.p, disc.p)
    inputs = np.empty((n_samp, n_in))
    labels = np.empty((n_samp, output_size(disc.p, disc.p, disc.n_a)))
    ops = unflatten_operators(labels, disc.p, disc.p, disc.n_a)

    def label(i, stream):
        """Fill row i from `stream`; False if the field or its solve fails."""
        try:
            sigma_s = sample_sigma(sampler, sample_rng(seed, stream))
            ops[i] = solve_element(SigmaField.from_scattering(sigma_s, disc.omega),
                                   grid, kernel, h=2.0, element_index=f"sample {i}")
        except (_DegenerateSample, SolverFailure):
            return False
        inputs[i] = sigma_s.reshape(-1)
        return True

    def label_block(lo, hi):
        return [i for i in range(lo, hi) if not label(i, i)]

    bounds = element_bounds(n_samp, reference_kernels(disc.p, grid).solve_work)
    failed = [i for block in run_blocks(label_block, bounds) for i in block]
    resamples = len(failed)
    fresh = n_samp  # next stream index for redraws
    for i in failed:
        while not label(i, fresh):
            resamples += 1
            fresh += 1
        fresh += 1
    n_train = int(round(train_fraction * n_samp))
    meta = {
        "version": DATASET_FORMAT_VERSION,
        "seed": int(seed),
        "n_samp": int(n_samp),
        "n_train": n_train,
        "resamples": resamples,
        "sampler": asdict(sampler),
        "disc": asdict(disc),
    }
    ds = Dataset(inputs=inputs, labels=labels,
                 train_idx=np.arange(n_train),
                 test_idx=np.arange(n_train, n_samp), meta=meta)
    ds.meta["fingerprint"] = dataset_fingerprint(inputs, labels)
    return ds


def save_dataset(ds: Dataset, path) -> None:
    """Binary container (npz): JSON header plus row-major float64 arrays."""
    np.savez(path, header=json.dumps(ds.meta, sort_keys=True),
             inputs=ds.inputs, labels=ds.labels,
             train_idx=ds.train_idx, test_idx=ds.test_idx)


def load_dataset(path, expect: DiscretizationConfig | None = None) -> Dataset:
    """Load a dataset; expect enforces the label discretization."""
    try:
        with np.load(path, allow_pickle=False) as npz:
            meta = json.loads(str(npz["header"]))
            ds = Dataset(inputs=npz["inputs"], labels=npz["labels"],
                         train_idx=npz["train_idx"], test_idx=npz["test_idx"], meta=meta)
    except (KeyError, ValueError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: corrupt dataset file ({exc})") from exc
    if meta.get("version") != DATASET_FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported dataset version {meta.get('version')}")
    if meta.get("fingerprint") != dataset_fingerprint(ds.inputs, ds.labels):
        raise FormatError(f"{path}: inputs and labels do not match the stored fingerprint")
    if expect is not None:
        got = meta.get("disc", {})
        want = asdict(expect)
        if any(got.get(k) != want[k] for k in want):
            raise FormatError(f"{path}: dataset generated for {got}, requested {want}")
    return ds
