"""Fully connected surrogate mapping rescaled nodal coefficients to local operators.

The network takes the flattened nodal coefficient field of one element
(rescaled by h/2, so training on the reference element covers every square
element size) and returns the flattened (in2out, in2mean) operator pair.
Hidden layers are twice the input width with ELU activation; the output
layer is linear. A 1-layer network is a pure affine map (the linear
regression baseline). Training minimizes the mean absolute error of the
flattened outputs with Adam over shuffled minibatches.

Everything runs in 64-bit numpy; forward passes and training are
deterministic for a fixed seed.
"""

import hashlib
import json
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from . import pool
from .errors import FormatError, ModelMismatch
from .local import ElementOperators, LocalOperators, SigmaField

MAGIC = b"RTHDGMLP"
FORMAT_VERSION = 1

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
#: elements per block of the in-place Adam update; the blocks of the four
#: arrays and the two scratch blocks stay in cache (best of 8K-128K tried)
_ADAM_CHUNK = 1 << 15
#: output-layer columns per block of the forward pass; the cuts do not depend
#: on the worker count. Each falls on a multiple of 64 columns, where
#: OpenBLAS's gemm sums every entry as the one-shot product does (a cut at
#: column 86,436 did not). Narrower outputs (desk scale: 5,120) are one block.
_FORWARD_BLOCK = 1 << 13

#: full-scale learning protocol: (epochs, learning rate) phases
DEFAULT_SCHEDULE = ((3000, 1e-3), (3000, 1e-4), (3000, 1e-5))
#: reduced protocol for desk-scale runs
DESK_SCHEDULE = ((300, 1e-3), (300, 1e-4), (300, 1e-5))


def trace_count(p_x: int, p_y: int, n_a: int) -> int:
    """Inflow (= outflow) trace slots of one element."""
    return (p_x + p_y + 2) * n_a


def input_size(p_x: int, p_y: int) -> int:
    return (p_x + 1) * (p_y + 1)


def output_size(p_x: int, p_y: int, n_a: int) -> int:
    n_tr = trace_count(p_x, p_y, n_a)
    return n_tr * (n_tr + (p_x + 1) * (p_y + 1))


@dataclass
class MlpModel:
    """Layer sizes, weights, biases, and the discretization they serve."""

    p_x: int
    p_y: int
    n_a: int
    dims: list
    weights: list
    biases: list
    activation: str = "elu"
    meta: dict = field(default_factory=dict)

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def check_discretization(self, p_x, p_y, n_a):
        if (self.p_x, self.p_y, self.n_a) != (p_x, p_y, n_a):
            raise ModelMismatch(
                f"model trained for (p_x={self.p_x}, p_y={self.p_y}, N_a={self.n_a}); "
                f"requested (p_x={p_x}, p_y={p_y}, N_a={n_a})")


def init_mlp(p_x: int, p_y: int, n_a: int, n_layers: int = 4, seed: int = 0) -> MlpModel:
    """Initialize weights uniform on [-1/sqrt(fan_in), 1/sqrt(fan_in)]."""
    if n_layers < 1:
        raise ValueError(f"need at least one layer, got {n_layers}")
    if p_x < 1 or p_y < 1 or n_a < 4:
        raise ValueError(f"invalid dimensions (p_x={p_x}, p_y={p_y}, N_a={n_a})")
    n_in = input_size(p_x, p_y)
    n_out = output_size(p_x, p_y, n_a)
    dims = [n_in] + [2 * n_in] * (n_layers - 1) + [n_out]
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(rng.uniform(-bound, bound, size=fan_out))
    return MlpModel(p_x=p_x, p_y=p_y, n_a=n_a, dims=dims,
                    weights=weights, biases=biases, meta={"seed": int(seed)})


def elu(z):
    return np.where(z >= 0, z, np.expm1(np.minimum(z, 0.0)))


def elu_grad(z):
    return np.where(z >= 0, 1.0, np.exp(np.minimum(z, 0.0)))


def _output_layer(h, w, b):
    """h @ w + b, in column blocks of `_FORWARD_BLOCK` on the element worker pool.

    Each block adds its bias in place, so no second output-sized array is made.
    """
    out = np.empty((h.shape[0], w.shape[1]))

    def output_block(lo, hi):
        np.matmul(h, w[:, lo:hi], out=out[:, lo:hi])
        out[:, lo:hi] += b[lo:hi]

    pool.run_blocks(output_block, _column_bounds(w.shape[1]))
    return out


def _column_bounds(n_cols):
    return [*range(0, n_cols, _FORWARD_BLOCK), n_cols]


def forward(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Forward propagation; x is one input vector or a (batch, N_in) array.

    The output layer is computed in column blocks of `_FORWARD_BLOCK`,
    spread over the element worker pool.
    """
    x = np.asarray(x, float)
    single = x.ndim == 1
    h = x[None, :] if single else x
    if h.shape[1] != model.dims[0]:
        raise ValueError(f"input width {h.shape[1]} does not match model N_in={model.dims[0]}")
    out = _forward_cached(model, h)[0][-1]
    return out[0] if single else out


def _forward_cached(model, x):
    acts = [x]  # post-activation values per layer, acts[0] is the input
    pre = []
    h = x
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        z = h @ w
        z += b
        pre.append(z)
        h = elu(z)
        acts.append(h)
    z = _output_layer(h, model.weights[-1], model.biases[-1])
    pre.append(z)
    acts.append(z)
    return acts, pre


def mae_loss(model: MlpModel, x: np.ndarray, y: np.ndarray) -> float:
    """Mean absolute error of the outputs, formed in place on the forward output."""
    resid = forward(model, x)
    resid -= y
    np.abs(resid, out=resid)
    return float(np.mean(resid))


def mae_gradients(model: MlpModel, x: np.ndarray, y: np.ndarray, out=None):
    """Analytic MAE gradients; subgradient 0 at exact zeros of the residual.

    Returns (loss, weight grads, bias grads). The output layer's weight
    gradient is written into `out` when given (an array of that weight's
    shape, which the caller reuses across steps), else into a new array;
    both output-layer products run in the forward pass's column blocks on
    the element worker pool.
    """
    x = np.atleast_2d(np.asarray(x, float))
    y = np.atleast_2d(np.asarray(y, float))
    acts, pre = _forward_cached(model, x)
    # in place on the forward output: pre[-1] aliases it, and the backward pass reads neither
    resid = np.subtract(acts[-1], y, out=acts[-1])
    delta = np.sign(resid)
    delta /= resid.size
    loss = float(np.mean(np.abs(resid, out=resid)))
    last = model.n_layers - 1
    gw = np.empty(model.weights[last].shape) if out is None else out
    h = acts[last].T

    def gradient_block(lo, hi):
        np.matmul(h, delta[:, lo:hi], out=gw[:, lo:hi])

    pool.run_blocks(gradient_block, _column_bounds(gw.shape[1]))
    gws = [None] * last + [gw]
    gbs = [None] * last + [delta.sum(axis=0)]
    for i in range(last, 0, -1):
        # one product, so its reduction over the output columns keeps its order
        delta = (delta @ model.weights[i].T) * elu_grad(pre[i - 1])
        gws[i - 1] = acts[i - 1].T @ delta
        gbs[i - 1] = delta.sum(axis=0)
    return loss, gws, gbs


@dataclass
class TrainState:
    """Adam moments, step/epoch counters, schedule, and the loss history."""

    schedule: tuple
    m_w: list
    v_w: list
    m_b: list
    v_b: list
    step: int = 0
    epoch: int = 0
    history: list = field(default_factory=list)  # dicts: epoch, lr, train_mae, test_mae, seconds


def _schedule_lr(schedule, epoch):
    upto = 0
    for n_epochs, lr in schedule:
        upto += n_epochs
        if epoch < upto:
            return lr
    return schedule[-1][1]


def _adam_step(param, grad, mom, vel, lr, corr1, corr2, scratch):
    """One Adam update of a parameter and its moments, in place.

    Walks the four arrays in blocks of at most `scratch[0].size` elements and
    evaluates, block by block, the same operations in the same order as

        mom = b1 * mom + (1 - b1) * grad
        vel = b2 * vel + ((1 - b2) * grad) * grad
        param -= (lr * (mom / corr1)) / (sqrt(vel / corr2) + eps)

    through the two scratch buffers, so the result is bitwise equal to that
    whole-array expression without its parameter-sized temporaries. Blocks
    are basic-index views, so every memory layout is updated in place.
    """
    s1, s2 = scratch
    arrays = [np.atleast_2d(a) for a in (param, grad, mom, vel)]
    n_rows, n_cols = arrays[0].shape
    chunk = s1.size
    rows = max(1, chunk // max(n_cols, 1))
    for r0 in range(0, n_rows, rows):
        for c0 in range(0, n_cols, chunk):
            block = (slice(r0, r0 + rows), slice(c0, c0 + chunk))
            p, g, m, v = (a[block] for a in arrays)
            t1 = s1[:p.size].reshape(p.shape)
            t2 = s2[:p.size].reshape(p.shape)
            m *= ADAM_BETA1
            np.multiply(g, 1 - ADAM_BETA1, out=t1)
            m += t1
            v *= ADAM_BETA2
            np.multiply(g, 1 - ADAM_BETA2, out=t1)
            t1 *= g
            v += t1
            np.divide(m, corr1, out=t1)
            t1 *= lr
            np.divide(v, corr2, out=t2)
            np.sqrt(t2, out=t2)
            t2 += ADAM_EPS
            t1 /= t2
            p -= t1


def _adam_update(param, grad, mom, vel, lr, corr1, corr2, scratches):
    """`_adam_step` on contiguous row blocks on the element worker pool, with
    `scratches[k]` the scratch pair of block k (one pair per worker).

    A parameter below `pool.MIN_BLOCK_WORK` elements stays one block on the
    calling thread. The update is elementwise, so every split gives the same bits.
    """
    n_rows = param.shape[0] if param.ndim == 2 else 1
    bounds = pool.element_bounds(n_rows, param.size // n_rows)
    arrays = [np.atleast_2d(a) for a in (param, grad, mom, vel)]

    def update_block(lo, hi):
        _adam_step(*(a[lo:hi] for a in arrays), lr, corr1, corr2,
                   scratches[bounds.index(lo)])

    pool.run_blocks(update_block, bounds)


def _check_state(model, state):
    """Raise ValueError unless every Adam moment has its parameter's shape."""
    for kind, params, moments in (("weight", model.weights, (state.m_w, state.v_w)),
                                  ("bias", model.biases, (state.m_b, state.v_b))):
        for mom in moments:
            if len(mom) != len(params):
                raise ValueError(f"resumed state has {len(mom)} {kind} moments "
                                 f"for a {len(params)}-layer model")
            for i, (p, m) in enumerate(zip(params, mom)):
                if m.shape != p.shape:
                    raise ValueError(f"resumed state does not fit layer {i}: {kind} "
                                     f"moment shape {m.shape}, parameter shape {p.shape}")


def check_training(schedule, batch_size: int) -> None:
    """Raise ValueError for a batch size below 1 or a schedule (None: not
    checked) of no epochs."""
    if batch_size < 1:
        raise ValueError(f"batch size must be at least 1, got {batch_size}")
    if schedule is not None and sum(n for n, _ in schedule) < 1:
        raise ValueError(f"the training schedule {tuple(map(tuple, schedule))} has no epochs")


def train(model: MlpModel, dataset, schedule=DEFAULT_SCHEDULE, batch_size: int = 50,
          seed: int = 0, state: TrainState | None = None, log_every: int = 0) -> TrainState:
    """Adam/MAE training over the dataset's train split, tracking test MAE.

    The recorded train MAE is the average of the minibatch losses seen
    during the epoch; the test MAE is a full evaluation of the held-out
    split at epoch end; each history entry also holds the epoch's wall time
    in seconds. The output-layer products and the Adam update of parameters
    above `pool.MIN_BLOCK_WORK` elements run in blocks on the element worker
    pool (`pool.default_workers()` threads); every worker count gives the same bits.
    Raises ArithmeticError if the loss goes non-finite, and ValueError for
    `batch_size < 1`, for a fresh schedule of no epochs and for a resumed
    `state` that does not fit the model's layers.
    Drops the model's cached fingerprint, since the weights change.
    """
    check_training(schedule if state is None else None, batch_size)
    xs = dataset.inputs[dataset.train_idx]
    ys = dataset.labels[dataset.train_idx]
    xt = dataset.inputs[dataset.test_idx]
    yt = dataset.labels[dataset.test_idx]
    if xs.shape[0] == 0:
        raise ValueError("empty training split")
    total_epochs = sum(n for n, _ in schedule)
    if state is None:
        state = TrainState(schedule=tuple(schedule),
                           m_w=[np.zeros_like(w) for w in model.weights],
                           v_w=[np.zeros_like(w) for w in model.weights],
                           m_b=[np.zeros_like(b) for b in model.biases],
                           v_b=[np.zeros_like(b) for b in model.biases])
    else:
        _check_state(model, state)
    model.meta.pop("fingerprint", None)
    rng = np.random.default_rng(seed)
    n_train = xs.shape[0]
    scratches = [(np.empty(_ADAM_CHUNK), np.empty(_ADAM_CHUNK))
                 for _ in range(pool.default_workers())]
    grad_out = np.empty(model.weights[-1].shape)
    while state.epoch < total_epochs:
        t0 = time.perf_counter()
        lr = _schedule_lr(schedule, state.epoch)
        perm = rng.permutation(n_train)
        batch_losses = []
        for lo in range(0, n_train, batch_size):
            idx = perm[lo:lo + batch_size]
            loss, gws, gbs = mae_gradients(model, xs[idx], ys[idx], out=grad_out)
            batch_losses.append(loss)
            state.step += 1
            t = state.step
            corr1 = 1.0 - ADAM_BETA1 ** t
            corr2 = 1.0 - ADAM_BETA2 ** t
            for i in range(model.n_layers):
                _adam_update(model.weights[i], gws[i], state.m_w[i], state.v_w[i],
                             lr, corr1, corr2, scratches)
                _adam_update(model.biases[i], gbs[i], state.m_b[i], state.v_b[i],
                             lr, corr1, corr2, scratches)
        train_mae = float(np.mean(batch_losses))
        test_mae = mae_loss(model, xt, yt) if xt.shape[0] else float("nan")
        if not np.isfinite(train_mae):
            raise ArithmeticError(
                f"non-finite training loss at epoch {state.epoch} (lr={lr}); "
                f"history tail: {[h['train_mae'] for h in state.history[-5:]]}")
        state.epoch += 1
        state.history.append({"epoch": state.epoch, "lr": lr,
                              "train_mae": train_mae, "test_mae": test_mae,
                              "seconds": time.perf_counter() - t0})
        if log_every and state.epoch % log_every == 0:
            print(f"epoch {state.epoch:5d}  lr {lr:.1e}  train {train_mae:.3e}  test {test_mae:.3e}")
    return state


def surrogate_input(sigma: SigmaField, h: float) -> np.ndarray:
    """Rescaled nodal input vector (h sigma_s / 2) for a square element of size h."""
    if not np.isscalar(h):
        raise ValueError("the surrogate serves square elements only")
    return 0.5 * float(h) * sigma.sigma_s.reshape(-1)


def flatten_operators(ops: LocalOperators) -> np.ndarray:
    """Training label layout: [A_i2o row-major, A_i2m row-major]."""
    return np.concatenate([ops.a_i2o.reshape(-1), ops.a_i2m.reshape(-1)])


def unflatten_operators(y: np.ndarray, p_x: int, p_y: int, n_a: int) -> ElementOperators:
    """The ElementOperators of a stack of label-layout rows y, shape (n, output_size).

    The a_i2o and a_i2m stacks are views into y's rows, not copies: reading
    them reads y, and ops[e] = LocalOperators(...) writes row e. The forcing
    responses are fresh zero arrays, writable.
    """
    n_tr = trace_count(p_x, p_y, n_a)
    n_sp = input_size(p_x, p_y)
    if y.ndim != 2 or y.shape[1] != output_size(p_x, p_y, n_a):
        raise ValueError(f"output shape {y.shape} does not match the operator layout")
    n = y.shape[0]
    return ElementOperators(a_i2o=y[:, :n_tr * n_tr].reshape(n, n_tr, n_tr),
                            a_i2m=y[:, n_tr * n_tr:].reshape(n, n_sp, n_tr),
                            fhat_u=np.zeros((n, n_tr)), f_mean=np.zeros((n, n_sp)))


def predict_local_ops_batch(model: MlpModel, sigmas, h: float, n_a: int) -> ElementOperators:
    """Surrogate replacement for the exact local phase (zero-forcing cases).

    One forward pass over the elements' SigmaFields, read in place. Raises
    ModelMismatch unless the model serves their degree and n_a angles.
    """
    p_x, p_y = (n - 1 for n in sigmas[0].sigma_s.shape)
    model.check_discretization(p_x, p_y, n_a)
    x = np.stack([surrogate_input(s, h) for s in sigmas])
    return unflatten_operators(forward(model, x), model.p_x, model.p_y, model.n_a)


def model_fingerprint(model: MlpModel) -> str:
    """SHA-256 over the weights/biases bytes in layer order (uncached).

    The arrays are hashed through zero-copy byte views; the digest equals
    the one over their `tobytes()` copies.
    """
    digest = hashlib.sha256()
    for w, b in zip(model.weights, model.biases):
        digest.update(memoryview(np.ascontiguousarray(w)).cast("B"))
        digest.update(memoryview(np.ascontiguousarray(b)).cast("B"))
    return digest.hexdigest()


def save_model(model: MlpModel, path) -> None:
    """Versioned binary container; round-trips bit-exactly.

    The fingerprint is computed afresh from the weights, written to the
    file's metadata and cached in `model.meta["fingerprint"]`.
    """
    model.meta["fingerprint"] = model_fingerprint(model)
    meta_bytes = json.dumps(model.meta, sort_keys=True).encode()
    act = model.activation.encode()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        # fixed header fields: angular degree p_a = 0, single-coefficient input = 1
        fh.write(struct.pack("<6IB", FORMAT_VERSION, model.p_x, model.p_y,
                             model.n_a, 0, model.n_layers, 1))
        fh.write(struct.pack("<B", len(act)))
        fh.write(act)
        fh.write(struct.pack("<I", len(model.dims)))
        fh.write(np.asarray(model.dims, dtype="<u4").tobytes())
        fh.write(struct.pack("<I", len(meta_bytes)))
        fh.write(meta_bytes)
        for w, b in zip(model.weights, model.biases):
            fh.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(b, dtype="<f8").tobytes())


def load_model(path, expect: tuple | None = None) -> MlpModel:
    """Load a model file; expect = (p_x, p_y, n_a) enforces a match."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:8] != MAGIC:
        raise FormatError(f"{path}: not a model file (bad magic)")
    off = 8
    try:
        version, p_x, p_y, n_a, p_a, n_layers, single = struct.unpack_from("<6IB", raw, off)
        off += struct.calcsize("<6IB")
        if version != FORMAT_VERSION:
            raise FormatError(f"{path}: unsupported model format version {version}")
        if p_a != 0:
            raise FormatError(f"{path}: unsupported angular degree p_a={p_a}")
        if single != 1:
            raise FormatError(f"{path}: unsupported two-coefficient model input")
        (act_len,) = struct.unpack_from("<B", raw, off)
        off += 1
        activation = raw[off:off + act_len].decode()
        off += act_len
        (n_dims,) = struct.unpack_from("<I", raw, off)
        off += 4
        dims = np.frombuffer(raw, dtype="<u4", count=n_dims, offset=off).astype(int).tolist()
        off += 4 * n_dims
        (meta_len,) = struct.unpack_from("<I", raw, off)
        off += 4
        meta = json.loads(raw[off:off + meta_len].decode())
        off += meta_len
        weights, biases = [], []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            w = np.frombuffer(raw, dtype="<f8", count=fan_in * fan_out,
                              offset=off).reshape(fan_in, fan_out).copy()
            off += 8 * fan_in * fan_out
            b = np.frombuffer(raw, dtype="<f8", count=fan_out, offset=off).copy()
            off += 8 * fan_out
            weights.append(w)
            biases.append(b)
        if off != len(raw):
            raise FormatError(f"{path}: trailing bytes ({len(raw) - off})")
    except (struct.error, ValueError, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: corrupt model file ({exc})") from exc
    model = MlpModel(p_x=p_x, p_y=p_y, n_a=n_a, dims=dims,
                     weights=weights, biases=biases, activation=activation, meta=meta)
    if meta.get("fingerprint") != model_fingerprint(model):
        raise FormatError(f"{path}: weights do not match the stored fingerprint")
    if expect is not None:
        model.check_discretization(*expect)
    return model
