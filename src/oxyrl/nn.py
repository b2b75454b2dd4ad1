"""Minimal feed-forward network engine: dense layers, batch normalization,
manual backpropagation and Adam updates.

Everything is float64 and functional: forward/backward never mutate their
inputs, and parameter updates return fresh containers. Train-mode forward
passes return a cache holding per-layer inputs, pre-activations and the
batch statistics needed for the exact batch-norm backward pass; the updated
running statistics are carried in that cache and applied explicitly with
:func:`commit_running_stats`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TRAIN = "train"
INFER = "infer"

DENSE = "dense"
BATCHNORM = "batchnorm"
ACTIVATION = "activation"

ACTIVATIONS = ("relu", "tanh", "sigmoid", "linear")

BN_MOMENTUM = 0.99
BN_EPS = 1e-5
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

CHECKPOINT_MAGIC = "oxyrl-net-v1"


class NonFiniteGradientError(ValueError):
    """Raised when an update is rejected because a gradient is not finite."""


@dataclass(frozen=True)
class LayerSpec:
    kind: str
    in_dim: int = 0
    out_dim: int = 0
    activation: str = "linear"

    def __post_init__(self):
        if self.kind not in (DENSE, BATCHNORM, ACTIVATION):
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.kind == DENSE and (self.in_dim <= 0 or self.out_dim <= 0):
            raise ValueError("dense layer dimensions must be positive")
        if self.kind == BATCHNORM and self.in_dim != self.out_dim:
            raise ValueError("batchnorm must preserve dimension")
        if self.kind == ACTIVATION and self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")


def dense(in_dim: int, out_dim: int) -> LayerSpec:
    return LayerSpec(DENSE, in_dim, out_dim)


def batchnorm(dim: int) -> LayerSpec:
    return LayerSpec(BATCHNORM, dim, dim)


def activation(name: str) -> LayerSpec:
    return LayerSpec(ACTIVATION, activation=name)


def validate_specs(specs) -> tuple[int, int]:
    """Check dimensional consistency; return (input_dim, output_dim)."""
    if not specs:
        raise ValueError("empty layer spec chain")
    width = None
    in_dim = None
    for spec in specs:
        if spec.kind == DENSE:
            if width is not None and spec.in_dim != width:
                raise ValueError(
                    f"dense in_dim {spec.in_dim} does not match width {width}")
            width = spec.out_dim
        elif spec.kind == BATCHNORM:
            if width is not None and spec.in_dim != width:
                raise ValueError(
                    f"batchnorm dim {spec.in_dim} does not match width {width}")
            width = spec.out_dim
        # activations are width-agnostic
        if in_dim is None and spec.kind in (DENSE, BATCHNORM):
            in_dim = spec.in_dim
    if in_dim is None:
        raise ValueError("chain declares no dimensions")
    return in_dim, width


@dataclass
class NetworkParams:
    """Layered parameter container mirroring a LayerSpec chain."""

    specs: tuple[LayerSpec, ...]
    layers: list[dict]

    @property
    def in_dim(self) -> int:
        return validate_specs(self.specs)[0]

    @property
    def out_dim(self) -> int:
        return validate_specs(self.specs)[1]

    def copy(self) -> "NetworkParams":
        """Fresh layer dicts sharing the arrays: every update rebinds arrays
        and none writes into one, so sharing is safe."""
        return NetworkParams(self.specs, [dict(layer) for layer in self.layers])


@dataclass
class ForwardCache:
    """Per-layer intermediates recorded for a backward pass."""

    layers: list[dict]
    batch_size: int
    mode: str = TRAIN


@dataclass
class OptimizerState:
    """Adam first/second moment accumulators plus the step counter."""

    moments: list[dict]
    step: int = 0


TRAINABLE_KEYS = {DENSE: ("W", "b"), BATCHNORM: ("gamma", "beta"), ACTIVATION: ()}


def init_params(specs, seed: int) -> NetworkParams:
    """Seeded init: dense weights uniform in +-1/sqrt(fan_in), biases zero,
    batch-norm at the identity transform."""
    specs = tuple(specs)
    validate_specs(specs)
    rng = np.random.default_rng(seed)
    layers = []
    for spec in specs:
        if spec.kind == DENSE:
            bound = 1.0 / np.sqrt(spec.in_dim)
            layers.append({
                "W": rng.uniform(-bound, bound, size=(spec.in_dim, spec.out_dim)),
                "b": np.zeros(spec.out_dim),
            })
        elif spec.kind == BATCHNORM:
            layers.append({
                "gamma": np.ones(spec.out_dim),
                "beta": np.zeros(spec.out_dim),
                "running_mean": np.zeros(spec.out_dim),
                "running_var": np.ones(spec.out_dim),
            })
        else:
            layers.append({})
    return NetworkParams(specs, layers)


def init_optimizer(params: NetworkParams) -> OptimizerState:
    moments = []
    for spec, layer in zip(params.specs, params.layers):
        entry = {}
        for key in TRAINABLE_KEYS[spec.kind]:
            entry[key] = (np.zeros_like(layer[key]), np.zeros_like(layer[key]))
        moments.append(entry)
    return OptimizerState(moments)


def _activate(name, z):
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "tanh":
        return np.tanh(z)
    if name == "sigmoid":
        return 1.0 / (1.0 + np.exp(-z))
    return z


def forward(params: NetworkParams, batch: np.ndarray, mode: str = TRAIN):
    """Run the network on a batch of rows.

    Train mode normalizes with batch statistics, records a ForwardCache and
    stores momentum-updated running statistics in the cache (apply them with
    commit_running_stats). Infer mode uses running statistics and is a pure,
    row-independent function of (params, batch); its cache is None.
    """
    if mode == TRAIN:
        return _forward_impl(params, batch, TRAIN, want_cache=True)
    y, _ = _forward_impl(params, batch, mode, want_cache=False)
    return y, None


def forward_cached(params: NetworkParams, batch: np.ndarray, mode: str):
    """Like :func:`forward` but always returns a backward-capable cache, in
    either mode. Infer-mode batch norm is affine in its input, so its
    backward pass carries no batch coupling."""
    return _forward_impl(params, batch, mode, want_cache=True)


def _forward_impl(params: NetworkParams, batch, mode, want_cache):
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("batch must be 2-D (rows x features)")
    if x.shape[1] != params.in_dim:
        raise ValueError(f"batch width {x.shape[1]} != input dim {params.in_dim}")
    if mode not in (TRAIN, INFER):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == TRAIN and x.shape[0] < 2:
        raise ValueError("train mode needs a batch of at least 2 rows")

    caches = [] if want_cache else None
    for spec, layer in zip(params.specs, params.layers):
        if spec.kind == DENSE:
            z = x @ layer["W"] + layer["b"]
            if want_cache:
                caches.append({"x": x})
            x = z
        elif spec.kind == BATCHNORM:
            if mode == TRAIN:
                mean = x.mean(axis=0)
                var = x.var(axis=0)
                ivar = 1.0 / np.sqrt(var + BN_EPS)
                xhat = (x - mean) * ivar
                if want_cache:
                    caches.append({
                        "xhat": xhat,
                        "ivar": ivar,
                        "new_running_mean": BN_MOMENTUM * layer["running_mean"]
                        + (1.0 - BN_MOMENTUM) * mean,
                        "new_running_var": BN_MOMENTUM * layer["running_var"]
                        + (1.0 - BN_MOMENTUM) * var,
                    })
            else:
                ivar = 1.0 / np.sqrt(layer["running_var"] + BN_EPS)
                xhat = (x - layer["running_mean"]) * ivar
                if want_cache:
                    caches.append({"xhat": xhat, "ivar": ivar})
            x = layer["gamma"] * xhat + layer["beta"]
        else:
            out = _activate(spec.activation, x)
            if want_cache:
                caches.append({"z": x, "out": out})
            x = out
    if want_cache:
        return x, ForwardCache(caches, x.shape[0], mode)
    return x, None


def backward(params: NetworkParams, cache: ForwardCache, upstream_grad: np.ndarray):
    """Exact gradients of the train-mode forward map.

    Returns (grads, input_grad) where grads mirrors the trainable entries of
    `params` (dense W/b, batch-norm gamma/beta). Batch-norm gradients include
    the dependence of the batch statistics on the inputs.
    """
    if cache is None:
        raise ValueError("backward requires the cache from a train-mode forward")
    dy = np.asarray(upstream_grad, dtype=np.float64)
    if len(cache.layers) != len(params.specs):
        raise ValueError("cache does not match the parameter container")
    grads = [dict() for _ in params.specs]
    for i in range(len(params.specs) - 1, -1, -1):
        spec, layer, lcache = params.specs[i], params.layers[i], cache.layers[i]
        if spec.kind == DENSE:
            x = lcache["x"]
            grads[i]["W"] = x.T @ dy
            grads[i]["b"] = dy.sum(axis=0)
            dy = dy @ layer["W"].T
        elif spec.kind == BATCHNORM:
            xhat, ivar = lcache["xhat"], lcache["ivar"]
            n = cache.batch_size
            grads[i]["gamma"] = (dy * xhat).sum(axis=0)
            grads[i]["beta"] = dy.sum(axis=0)
            dxhat = dy * layer["gamma"]
            if cache.mode == TRAIN:
                dy = (ivar / n) * (
                    n * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0)
                )
            else:
                # running statistics are constants; the map is affine
                dy = dxhat * ivar
        else:
            z, out = lcache["z"], lcache["out"]
            if spec.activation == "relu":
                dy = dy * (z > 0.0)
            elif spec.activation == "tanh":
                dy = dy * (1.0 - out * out)
            elif spec.activation == "sigmoid":
                dy = dy * out * (1.0 - out)
            # linear: unchanged
    return grads, dy


def commit_running_stats(params: NetworkParams, cache: ForwardCache) -> NetworkParams:
    """Return params with batch-norm running statistics advanced per the cache."""
    if cache.mode != TRAIN:
        raise ValueError("running statistics only advance on train-mode passes")
    out = params.copy()
    for spec, layer, lcache in zip(out.specs, out.layers, cache.layers):
        if spec.kind == BATCHNORM:
            layer["running_mean"] = lcache["new_running_mean"].copy()
            layer["running_var"] = lcache["new_running_var"].copy()
    return out


def apply_update(params: NetworkParams, grads, opt_state: OptimizerState,
                 learning_rate: float):
    """One Adam step with bias correction; returns (new_params, new_opt_state)."""
    for entry in grads:
        for g in entry.values():
            if not np.all(np.isfinite(g)):
                raise NonFiniteGradientError(
                    "non-finite gradient encountered; update rejected")
    new_params = params.copy()
    step = opt_state.step + 1
    new_moments = []
    corr1 = 1.0 - ADAM_BETA1 ** step
    corr2 = 1.0 - ADAM_BETA2 ** step
    for spec, layer, gentry, mentry in zip(
            new_params.specs, new_params.layers, grads, opt_state.moments):
        new_entry = {}
        for key in TRAINABLE_KEYS[spec.kind]:
            g = gentry[key]
            m, v = mentry[key]
            m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
            v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g * g
            layer[key] = layer[key] - learning_rate * (m / corr1) / (
                np.sqrt(v / corr2) + ADAM_EPS)
            new_entry[key] = (m, v)
        new_moments.append(new_entry)
    return new_params, OptimizerState(new_moments, step)


def blend_params(target: NetworkParams, online: NetworkParams, rho: float) -> NetworkParams:
    """Elementwise rho*target + (1-rho)*online over every array, running
    statistics included."""
    if target.specs != online.specs:
        raise ValueError("parameter containers have different layer specs")
    out = target.copy()
    for layer_t, layer_o in zip(out.layers, online.layers):
        for key in layer_t:
            layer_t[key] = rho * layer_t[key] + (1.0 - rho) * layer_o[key]
    return out


def iter_arrays(params: NetworkParams, trainable_only: bool = False):
    """Yield (layer_index, key, array) over the container, in a fixed order."""
    for i, (spec, layer) in enumerate(zip(params.specs, params.layers)):
        keys = TRAINABLE_KEYS[spec.kind] if trainable_only else sorted(layer)
        for key in keys:
            yield i, key, layer[key]


def zero_grads(params: NetworkParams):
    return [
        {key: np.zeros_like(layer[key]) for key in TRAINABLE_KEYS[spec.kind]}
        for spec, layer in zip(params.specs, params.layers)
    ]


# --- textual checkpoint ----------------------------------------------------
#
# Layout: a magic line, the layer chain, then one block per array. Floats
# are written with repr() so the write->read round trip is bit exact.


def _write_array(fh, name, arr):
    arr = np.asarray(arr, dtype=np.float64)
    shape = " ".join(str(d) for d in arr.shape)
    fh.write(f"array {name} {arr.ndim} {shape}\n")
    flat = arr.reshape(-1)
    fh.write(" ".join(repr(float(v)) for v in flat))
    fh.write("\n")


def _read_array(line, fh):
    parts = line.split()
    if parts[0] != "array":
        raise ValueError(f"expected array block, got {line!r}")
    name = parts[1]
    ndim = int(parts[2])
    shape = tuple(int(p) for p in parts[3:3 + ndim])
    values = fh.readline().split()
    arr = np.array([float(v) for v in values], dtype=np.float64).reshape(shape)
    return name, arr


def write_params(fh, params: NetworkParams) -> None:
    fh.write(f"specs {len(params.specs)}\n")
    for spec in params.specs:
        fh.write(f"{spec.kind} {spec.in_dim} {spec.out_dim} {spec.activation}\n")
    for i, key, arr in iter_arrays(params):
        _write_array(fh, f"{i}:{key}", arr)


def read_params(fh) -> NetworkParams:
    header = fh.readline().split()
    if not header or header[0] != "specs":
        raise ValueError("malformed checkpoint: missing spec header")
    n = int(header[1])
    specs = []
    for _ in range(n):
        kind, in_dim, out_dim, act = fh.readline().split()
        specs.append(LayerSpec(kind, int(in_dim), int(out_dim), act))
    params = init_params(specs, seed=0)
    count = sum(len(layer) for layer in params.layers)
    for _ in range(count):
        name, arr = _read_array(fh.readline(), fh)
        idx, key = name.split(":")
        params.layers[int(idx)][key] = arr
    return params


def write_optimizer(fh, opt_state: OptimizerState) -> None:
    fh.write(f"optimizer {opt_state.step}\n")
    for i, entry in enumerate(opt_state.moments):
        for key in sorted(entry):
            m, v = entry[key]
            _write_array(fh, f"{i}:{key}:m", m)
            _write_array(fh, f"{i}:{key}:v", v)


def read_optimizer(fh, params: NetworkParams) -> OptimizerState:
    header = fh.readline().split()
    if not header or header[0] != "optimizer":
        raise ValueError("malformed checkpoint: missing optimizer header")
    opt = init_optimizer(params)
    opt.step = int(header[1])
    pending = {}
    n_arrays = 2 * sum(len(entry) for entry in opt.moments)
    for _ in range(n_arrays):
        name, arr = _read_array(fh.readline(), fh)
        pending[name] = arr
    for i, entry in enumerate(opt.moments):
        for key in entry:
            entry[key] = (pending[f"{i}:{key}:m"], pending[f"{i}:{key}:v"])
    return opt


def save_checkpoint(path, params: NetworkParams, opt_state: OptimizerState | None = None) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(CHECKPOINT_MAGIC + "\n")
        write_params(fh, params)
        if opt_state is not None:
            write_optimizer(fh, opt_state)


def load_checkpoint(path):
    with open(path) as fh:
        magic = fh.readline().strip()
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"unrecognized checkpoint format {magic!r}")
        params = read_params(fh)
        pos = fh.tell()
        nxt = fh.readline()
        if nxt.startswith("optimizer"):
            fh.seek(pos)
            return params, read_optimizer(fh, params)
    return params, None
