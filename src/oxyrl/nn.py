"""Minimal feed-forward network engine: dense layers, batch normalization,
manual backpropagation and Adam updates.

Everything is float64. A :class:`NetworkParams` holds one contiguous
parameter buffer laid out by its :class:`Layout`: first the trainable arrays
in layer order (dense ``W`` then ``b``, batch-norm ``gamma`` then ``beta``),
then the batch-norm running statistics (``running_mean`` then
``running_var`` per batch-norm layer). Its ``layers`` entries are views into
that buffer, one read-only mapping per layer: a test or demo may write into
a view in place, but an entry cannot be rebound. Adam moments are two flat
vectors over the trainable part of the same layout.

A container may carry leading dimensions: a buffer of shape ``(F, size)``
holds F independent networks of one layout (one per cross-validation fold),
its views have shape ``(F, ...)``, its Adam moments ``(F, n_trainable)``,
and its batches ``(F, rows, features)``. Every function here is written
once for any leading shape, by ``...`` indexing, reductions over axis -2
and swapped last axes, so a plain container is simply the case with no
leading dimensions. Batch-norm statistics are per network. Stacked
matrix products, axis -2 reductions and elementwise updates give each
network the same bits as the same call on it alone (tests/test_nn.py
checks this against one network at a time). :meth:`NetworkParams.stack`
and :meth:`NetworkParams.take` move between the two forms.

Infer mode is row-independent: a row's output has the same bits whatever
rows surround it, so callers may gather, pad or split batches freely. A
dense layer with a single output computes each row's sum of products with
``np.add.reduce``, because a BLAS matrix-vector product sums a row in an
order that depends on the row count. Wider layers go through BLAS gemm,
which gives each row the same bits for the layer widths used here
(tests/test_nn.py checks the training networks' chains); a one-row batch is
multiplied as two equal rows, since numpy hands one-row products to gemv.
Without a cache, an infer pass runs at most ``INFER_BLOCK_ROWS`` rows at a
time into one preallocated output, and each layer after the first works in
place on the array the layer before it made, so its temporaries stay few
and the same size however long the batch is.

Updates write in place and blends do not. :func:`apply_update` and
:func:`commit_running_stats` write into the container and
:class:`OptimizerState` they are given and return those same objects, so a
training loop owns its online networks and their layer views are made once;
anything a caller wants to keep across an update it copies first. An update
checks its gradient before its first write, so a rejected one changes
nothing. :func:`blend_params` returns a container with a fresh buffer and
writes into nothing it was given. Whole-vector operations give each element
the same arithmetic as a per-array update. :func:`backward` writes the
parameter gradients into one flat vector laid out like the trainable part
of the buffer (:class:`Gradients`), so an update reads them without a
concatenation. Train-mode forward passes return a cache holding per-layer
inputs, pre-activations and the batch statistics needed for the exact
batch-norm backward pass; the momentum-advanced running statistics are
carried in that cache and applied explicitly with
:func:`commit_running_stats`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

TRAIN = "train"
INFER = "infer"

DENSE = "dense"
BATCHNORM = "batchnorm"
ACTIVATION = "activation"

ACTIVATIONS = ("relu", "tanh", "sigmoid", "linear")

# infer passes without a cache run at most this many rows at a time
INFER_BLOCK_ROWS = 1024

BN_MOMENTUM = 0.99
BN_EPS = 1e-5
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


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


TRAINABLE_KEYS = {DENSE: ("W", "b"), BATCHNORM: ("gamma", "beta"), ACTIVATION: ()}
RUNNING_KEYS = ("running_mean", "running_var")


class Layout:
    """Where every array of a validated spec chain sits in the flat buffer:
    the trainable arrays first, then the running statistics. Built once per
    chain and shared by every container derived from it."""

    def __init__(self, specs):
        self.specs = tuple(specs)
        self.in_dim, self.out_dim = validate_specs(self.specs)
        # (layer, key, slice, shape) per array, in buffer order
        self.entries = []
        offset = 0
        for i, spec in enumerate(self.specs):
            for key in TRAINABLE_KEYS[spec.kind]:
                shape = (spec.in_dim, spec.out_dim) if key == "W" else (spec.out_dim,)
                size = math.prod(shape)
                self.entries.append((i, key, slice(offset, offset + size), shape))
                offset += size
        self.n_trainable = offset
        self.trainable = list(self.entries)   # the trainable arrays' entries
        for i, spec in enumerate(self.specs):
            if spec.kind == BATCHNORM:
                for key in RUNNING_KEYS:
                    self.entries.append(
                        (i, key, slice(offset, offset + spec.out_dim), (spec.out_dim,)))
                    offset += spec.out_dim
        self.size = offset

    def views(self, buffer):
        """One read-only mapping of key -> view into `buffer` per layer; the
        views keep the buffer's leading dimensions."""
        return [MappingProxyType(layer) for layer in self._views(self.entries, buffer)]

    def _views(self, entries, buffer):
        """Per layer, a dict of key -> view into `buffer` for the given
        entries, behind the buffer's leading dimensions."""
        lead = buffer.shape[:-1]
        out = [{} for _ in self.specs]
        for i, key, where, shape in entries:
            view = buffer[..., where]
            out[i][key] = view if len(shape) == 1 else view.reshape(lead + shape)
        return out


@dataclass(eq=False)
class NetworkParams:
    """Parameters of a LayerSpec chain in one flat buffer, possibly behind
    leading dimensions; `layers` holds per-layer views into it, made on
    first use."""

    layout: Layout
    buffer: np.ndarray

    def __post_init__(self):
        if self.buffer.shape[-1:] != (self.layout.size,):
            raise ValueError(f"parameter buffer of shape {self.buffer.shape} "
                             f"does not match the layout size {self.layout.size}")

    @classmethod
    def stack(cls, items) -> "NetworkParams":
        """Containers of one layout stacked along a new leading axis."""
        items = list(items)
        if any(item.specs != items[0].specs for item in items):
            raise ValueError("stacked containers need one layer chain")
        return cls(items[0].layout, np.stack([item.buffer for item in items]))

    def take(self, index) -> "NetworkParams":
        """`buffer[index]` over the leading dimensions: one fold's plain
        network (a view) for a fold index, a smaller stack (a copy) for an
        index array, the container itself for `()`."""
        return NetworkParams(self.layout, self.buffer[index])

    @functools.cached_property
    def layers(self) -> list:
        return self.layout.views(self.buffer)

    @property
    def specs(self) -> tuple[LayerSpec, ...]:
        return self.layout.specs

    @property
    def in_dim(self) -> int:
        return self.layout.in_dim

    @property
    def out_dim(self) -> int:
        return self.layout.out_dim

    def copy(self) -> "NetworkParams":
        return NetworkParams(self.layout, self.buffer.copy())


@dataclass
class ForwardCache:
    """Per-layer intermediates recorded for a backward pass; `running` holds
    the momentum-advanced running statistics of a train-mode pass, flat in
    layout order (None when the chain has no batch norm or in infer mode)."""

    layers: list[dict]
    batch_size: int
    mode: str = TRAIN
    running: np.ndarray | None = None


class Gradients(list):
    """Per-layer mappings of key -> gradient for the trainable arrays
    (dense W/b, batch-norm gamma/beta), all views into `flat`: one vector
    laid out like the trainable part of the parameter buffer."""

    def __init__(self, layout: Layout, lead: tuple):
        self.flat = np.empty(lead + (layout.n_trainable,))
        super().__init__(layout._views(layout.trainable, self.flat))


@dataclass(eq=False)
class OptimizerState:
    """Adam first/second moments, flat over the trainable part of the
    layout (behind the parameters' leading dimensions), plus the step
    counter they share."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    def take(self, index) -> "OptimizerState":
        """As :meth:`NetworkParams.take`, for both moments."""
        return OptimizerState(self.m[index], self.v[index], self.step)


def init_params(specs, seed: int) -> NetworkParams:
    """Seeded init: dense weights uniform in +-1/sqrt(fan_in), biases zero,
    batch-norm at the identity transform."""
    layout = Layout(specs)
    rng = np.random.default_rng(seed)
    buffer = np.zeros(layout.size)
    params = NetworkParams(layout, buffer)
    for spec, layer in zip(layout.specs, params.layers):
        if spec.kind == DENSE:
            bound = 1.0 / np.sqrt(spec.in_dim)
            layer["W"][...] = rng.uniform(-bound, bound, size=(spec.in_dim, spec.out_dim))
        elif spec.kind == BATCHNORM:
            layer["gamma"][...] = 1.0
            layer["running_var"][...] = 1.0
    return params


def init_optimizer(params: NetworkParams) -> OptimizerState:
    shape = params.buffer.shape[:-1] + (params.layout.n_trainable,)
    return OptimizerState(np.zeros(shape), np.zeros(shape))


def _row(vector):
    """A per-feature vector broadcast over batch rows; behind leading dims
    it needs a row axis of its own."""
    return vector[..., None, :] if vector.ndim > 1 else vector


def _activate(name, z, out=None):
    """The activation of `z`, into `out` if given (which may be `z`)."""
    if name == "relu":
        return np.maximum(z, 0.0, out=out)
    if name == "tanh":
        return np.tanh(z, out=out)
    if name == "sigmoid":
        # 1 / (1 + exp(-z)), operation for operation
        s = np.negative(z, out=out)
        np.exp(s, out=s)
        s += 1.0
        return np.divide(1.0, s, out=s)
    return z


def _run_layers(layout: Layout, layers, x, mode, caches=None, stats=None):
    """The layer chain on a validated batch. With `caches`, records each
    layer's intermediates there; in train mode, appends the batch means
    and variances to `stats`. Without `caches`, each layer after the first
    works in place on the array the layer before it made (never on `x`):
    fresh temporaries as wide as a long infer pass cost more than the
    arithmetic."""
    batch, own = x, None   # own: an array of this pass that no cache holds
    for spec, layer in zip(layout.specs, layers):
        if spec.kind == DENSE:
            if caches is not None:
                caches.append({"x": x})
            if spec.out_dim == 1:
                # a row-wise sum: a matrix-vector product gives a row other
                # bits when the row count around it changes
                x = np.multiply(x, _row(layer["W"][..., 0]), out=own)
                x = np.add.reduce(x, axis=-1, keepdims=True)
            elif x.shape[-2] == 1:
                # numpy sends a one-row product to gemv, which sums in
                # another order than gemm: run the row twice, keep one
                x = (np.repeat(x, 2, axis=-2) @ layer["W"])[..., :1, :]
            else:
                x = x @ layer["W"]
            x += _row(layer["b"])
        elif spec.kind == BATCHNORM:
            if mode == TRAIN:
                # numpy's mean and var, operation for operation
                n = x.shape[-2]
                mean = np.add.reduce(x, axis=-2, keepdims=True) / n
                centered = x - mean
                var = np.add.reduce(centered * centered, axis=-2, keepdims=True) / n
                ivar = 1.0 / np.sqrt(var + BN_EPS)
                xhat = centered
                stats += (mean, var)
            else:
                ivar = 1.0 / np.sqrt(_row(layer["running_var"]) + BN_EPS)
                xhat = np.subtract(x, _row(layer["running_mean"]), out=own)
            xhat *= ivar
            if caches is not None:
                caches.append({"xhat": xhat, "ivar": ivar})
                x = _row(layer["gamma"]) * xhat
            else:
                xhat *= _row(layer["gamma"])
                x = xhat
            x += _row(layer["beta"])
        else:
            out = _activate(spec.activation, x, own)
            if caches is not None:
                caches.append({"z": x, "out": out})
            x = out
        # a linear activation hands on its input, which may be the batch
        own = x if caches is None and x is not batch else None
    return x


def _infer(layout: Layout, layers, x):
    """Infer-mode output, at most INFER_BLOCK_ROWS rows at a time into one
    preallocated array, so the temporaries do not grow with the batch."""
    n = x.shape[-2]
    if n <= INFER_BLOCK_ROWS:
        return _run_layers(layout, layers, x, INFER)
    out = np.empty(x.shape[:-1] + (layout.out_dim,))
    for start in range(0, n, INFER_BLOCK_ROWS):
        rows = slice(start, start + INFER_BLOCK_ROWS)
        out[..., rows, :] = _run_layers(layout, layers, x[..., rows, :], INFER)
    return out


def forward(params: NetworkParams, batch: np.ndarray, mode: str = TRAIN,
            want_cache: bool = False):
    """Run the network on a batch of rows; returns (output, cache).

    The batch is (rows x features) behind the parameters' leading
    dimensions; each network sees only its own rows.
    Train mode normalizes with batch statistics, always records a
    ForwardCache and stores momentum-updated running statistics in it (apply
    them with commit_running_stats). Infer mode uses running statistics and
    is a pure, row-independent function of (params, batch); its cache is
    None unless `want_cache`, and without a cache it runs in row blocks.
    Infer-mode batch norm is affine in its input, so that cache's backward
    pass carries no batch coupling.
    """
    x = np.asarray(batch, dtype=np.float64)
    layout = params.layout
    lead = params.buffer.shape[:-1]
    if x.ndim != len(lead) + 2 or x.shape[:-2] != lead:
        raise ValueError(f"batch of shape {x.shape} is not rows x features "
                         f"behind the parameters' leading dims {lead}")
    if x.shape[-1] != layout.in_dim:
        raise ValueError(f"batch width {x.shape[-1]} != input dim {layout.in_dim}")
    if mode == TRAIN:
        if x.shape[-2] < 2:
            raise ValueError("train mode needs a batch of at least 2 rows")
        want_cache = True
    elif mode != INFER:
        raise ValueError(f"unknown mode {mode!r}")
    if not want_cache:
        return _infer(layout, params.layers, x), None

    caches = []
    stats = []
    x = _run_layers(layout, params.layers, x, mode, caches, stats)
    running = None
    if stats:
        running = (BN_MOMENTUM * params.buffer[..., layout.n_trainable:]
                   + (1.0 - BN_MOMENTUM) * np.concatenate(stats, axis=-1)[..., 0, :])
    return x, ForwardCache(caches, x.shape[-2], mode, running)


# forward with a backward-capable cache in either mode
forward_cached = functools.partial(forward, want_cache=True)


def backward(params: NetworkParams, cache: ForwardCache, upstream_grad: np.ndarray,
             param_grads: bool = True, input_grad: bool = True):
    """Exact gradients of the forward map recorded in `cache`.

    Returns (grads, input_grad): grads is a :class:`Gradients` over the
    trainable entries of `params`, and input_grad the gradient with respect
    to the batch; either is None, and not computed, when its argument is
    false. Train-mode batch-norm gradients include the dependence of the
    batch statistics on the inputs.
    """
    if cache is None:
        raise ValueError("backward requires the cache from a train-mode forward")
    dy = np.asarray(upstream_grad, dtype=np.float64)
    specs = params.layout.specs
    if len(cache.layers) != len(specs):
        raise ValueError("cache does not match the parameter container")
    grads = Gradients(params.layout, params.buffer.shape[:-1]) if param_grads else None
    for i in range(len(specs) - 1, -1, -1):
        spec, layer, lcache = specs[i], params.layers[i], cache.layers[i]
        if grads is not None and spec.kind == DENSE:
            np.matmul(lcache["x"].swapaxes(-1, -2), dy, out=grads[i]["W"])
            np.add.reduce(dy, axis=-2, out=grads[i]["b"])
        elif grads is not None and spec.kind == BATCHNORM:
            np.add.reduce(dy * lcache["xhat"], axis=-2, out=grads[i]["gamma"])
            np.add.reduce(dy, axis=-2, out=grads[i]["beta"])
        if i == 0 and not input_grad:
            return grads, None
        if spec.kind == DENSE:
            dy = dy @ layer["W"].swapaxes(-1, -2)
        elif spec.kind == BATCHNORM:
            xhat, ivar = lcache["xhat"], lcache["ivar"]
            n = cache.batch_size
            dxhat = dy * _row(layer["gamma"])
            if cache.mode == TRAIN:
                # (ivar / n) * (n * dxhat - sum(dxhat) - xhat * sum(dxhat * xhat)),
                # operation for operation, in one fresh array
                dy = n * dxhat
                dy -= np.add.reduce(dxhat, axis=-2, keepdims=True)
                dxhat *= xhat
                dy -= xhat * np.add.reduce(dxhat, axis=-2, keepdims=True)
                dy *= ivar / n
            else:
                # running statistics are constants; the map is affine
                dxhat *= ivar
                dy = dxhat
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
    """Write the batch-norm running statistics advanced in `cache` into
    `params`' buffer; returns `params`."""
    if cache.mode != TRAIN:
        raise ValueError("running statistics only advance on train-mode passes")
    if cache.running is not None:
        running = params.buffer[..., params.layout.n_trainable:]
        if cache.running.shape != running.shape:
            raise ValueError(f"running statistics of shape {cache.running.shape} "
                             f"do not fit the container's {running.shape}")
        running[...] = cache.running
    return params


def check_gradient(params: NetworkParams, grads) -> np.ndarray:
    """The gradient as one vector laid out like the trainable part of
    `params`' buffer, from a :class:`Gradients` or from per-layer mappings
    of key -> array. Raises ValueError on a shape that does not fit and
    NonFiniteGradientError when a value is not finite."""
    layout = params.layout
    lead = params.buffer.shape[:-1]
    if isinstance(grads, Gradients):
        g = grads.flat
        if g.shape != lead + (layout.n_trainable,):
            raise ValueError(f"gradient vector of shape {g.shape} does not fit "
                             f"the layout's {lead + (layout.n_trainable,)}")
    else:
        flat = []
        for i, key, _, shape in layout.trainable:
            grad = grads[i][key]
            if grad.shape != lead + shape:
                raise ValueError(f"gradient {i}:{key} has shape {grad.shape}, "
                                 f"the layer layout needs {lead + shape}")
            flat.append(grad.reshape(lead + (-1,)))
        g = np.concatenate(flat, axis=-1)
    if not np.isfinite(g).all():
        raise NonFiniteGradientError("non-finite gradient encountered; update rejected")
    return g


def apply_update(params: NetworkParams, grads, opt_state: OptimizerState,
                 learning_rate: float):
    """One Adam step with bias correction, written into `params`' buffer and
    `opt_state`; returns (params, opt_state). The gradient is checked (see
    :func:`check_gradient`) before anything is written."""
    g = check_gradient(params, grads)
    opt_state.step += 1
    corr1 = 1.0 - ADAM_BETA1 ** opt_state.step
    corr2 = 1.0 - ADAM_BETA2 ** opt_state.step
    # b1*m + (1-b1)*g and b2*v + (1-b2)*g*g, operation for operation
    m, v = opt_state.m, opt_state.v
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    sq = (1.0 - ADAM_BETA2) * g
    sq *= g
    v *= ADAM_BETA2
    v += sq
    # learning_rate * (m / corr1) / (sqrt(v / corr2) + eps)
    step = m / corr1
    step *= learning_rate
    scale = v / corr2
    np.sqrt(scale, out=scale)
    scale += ADAM_EPS
    step /= scale
    params.buffer[..., :params.layout.n_trainable] -= step
    return params, opt_state


def blend_params(target: NetworkParams, online: NetworkParams, rho: float) -> NetworkParams:
    """Elementwise rho*target + (1-rho)*online over every array, running
    statistics included."""
    if target.specs != online.specs:
        raise ValueError("parameter containers have different layer specs")
    buffer = rho * target.buffer
    buffer += (1.0 - rho) * online.buffer
    return NetworkParams(target.layout, buffer)


def iter_arrays(params: NetworkParams, trainable_only: bool = False):
    """Yield (layer_index, key, array) over the container, in a fixed order."""
    for i, (spec, layer) in enumerate(zip(params.specs, params.layers)):
        keys = TRAINABLE_KEYS[spec.kind] if trainable_only else sorted(layer)
        for key in keys:
            yield i, key, layer[key]


# --- textual network blocks ------------------------------------------------
#
# The blocks the policy checkpoint (ddpg.save_policy) is made of: a network
# is its layer chain, then one block per array. Floats are written with
# repr() so the write->read round trip is bit exact. Readers check the
# structure and raise ValueError on any deviation.


def read_fields(fh, label, count=None):
    """The fields after `label` on the next line, which must be complete
    (newline-terminated) and, when `count` is given, hold that many."""
    line = fh.readline()
    if not line.endswith("\n"):
        raise ValueError(f"truncated checkpoint: expected a {label!r} line")
    parts = line.split()
    if not parts or parts[0] != label:
        raise ValueError(f"malformed checkpoint: expected {label!r}, got {line[:60]!r}")
    if count is not None and len(parts) - 1 != count:
        raise ValueError(f"malformed checkpoint: {label!r} line holds "
                         f"{len(parts) - 1} fields, expected {count}")
    return parts[1:]


def _write_array(fh, name, arr):
    arr = np.asarray(arr, dtype=np.float64)
    shape = " ".join(str(d) for d in arr.shape)
    fh.write(f"array {name} {arr.ndim} {shape}\n")
    flat = arr.reshape(-1)
    fh.write(" ".join(repr(float(v)) for v in flat))
    fh.write("\n")


def _read_array(fh):
    """Read one array block; returns (name, array)."""
    fields = read_fields(fh, "array")
    if len(fields) < 2:
        raise ValueError("malformed checkpoint: array header without name or rank")
    name, ndim = fields[0], int(fields[1])
    if ndim < 0 or len(fields) != 2 + ndim:
        raise ValueError(f"malformed checkpoint: array {name} declares rank {ndim} "
                         f"with {len(fields) - 2} dimensions")
    shape = tuple(int(d) for d in fields[2:])
    if any(d < 0 for d in shape):
        raise ValueError(f"malformed checkpoint: array {name} has shape {shape}")
    line = fh.readline()
    if not line.endswith("\n"):
        raise ValueError(f"truncated checkpoint: values of array {name}")
    values = np.array([float(v) for v in line.split()], dtype=np.float64)
    if values.size != math.prod(shape):
        raise ValueError(f"malformed checkpoint: array {name} holds {values.size} "
                         f"values, shape {shape} needs {math.prod(shape)}")
    if not np.isfinite(values).all():
        raise ValueError(f"malformed checkpoint: array {name} has non-finite values")
    return name, values.reshape(shape)


def write_params(fh, params: NetworkParams) -> None:
    fh.write(f"specs {len(params.specs)}\n")
    for spec in params.specs:
        fh.write(f"{spec.kind} {spec.in_dim} {spec.out_dim} {spec.activation}\n")
    for i, key, arr in iter_arrays(params):
        _write_array(fh, f"{i}:{key}", arr)


def read_params(fh) -> NetworkParams:
    (n,) = read_fields(fh, "specs", 1)
    specs = []
    for _ in range(int(n)):
        line = fh.readline()
        parts = line.split()
        if not line.endswith("\n") or len(parts) != 4:
            raise ValueError("malformed checkpoint: truncated layer spec")
        kind, in_dim, out_dim, act = parts
        specs.append(LayerSpec(kind, int(in_dim), int(out_dim), act))
    layout = Layout(specs)
    params = NetworkParams(layout, np.zeros(layout.size))
    # one array block per view, in any order, read into the view
    pending = {f"{i}:{key}": view for i, key, view in iter_arrays(params)}
    while pending:
        name, arr = _read_array(fh)
        if name not in pending:
            raise ValueError(f"malformed checkpoint: unexpected array {name!r}")
        view = pending.pop(name)
        if arr.shape != view.shape:
            raise ValueError(f"malformed checkpoint: array {name} has shape "
                             f"{arr.shape}, the layer layout needs {view.shape}")
        view[...] = arr
    return params
