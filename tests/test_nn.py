import dataclasses
import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import (
    adam_loop, backward_loop, blend_loop, commit_loop, copy_optimizer, forward_loop,
    zero_grads,
)
from oxyrl import ddpg, nn


def small_net(state_dim=4, seed=0):
    specs = [
        nn.dense(state_dim, 8),
        nn.batchnorm(8),
        nn.activation("relu"),
        nn.dense(8, 3),
        nn.activation("tanh"),
        nn.dense(3, 1),
    ]
    return nn.init_params(specs, seed=seed)


def finite_difference_grads(params, x, upstream, eps=1e-5):
    """Central differences of sum(forward(params, x) * upstream) over every
    trainable parameter."""
    fd = zero_grads(params)
    for i, key, arr in nn.iter_arrays(params, trainable_only=True):
        flat = arr.reshape(-1)
        g = fd[i][key].reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            hi, _ = nn.forward(params, x, nn.TRAIN)
            flat[j] = orig - eps
            lo, _ = nn.forward(params, x, nn.TRAIN)
            flat[j] = orig
            g[j] = float(((hi - lo) * upstream).sum() / (2 * eps))
    return fd


def safe_batch(params, rng, n=6, kink_tol=1e-3, tries=50):
    """Random batch whose relu pre-activations all sit away from zero."""
    for _ in range(tries):
        x = rng.normal(size=(n, params.in_dim))
        ok = True
        _, cache = nn.forward(params, x, nn.TRAIN)
        for spec, lcache in zip(params.specs, cache.layers):
            if spec.kind == nn.ACTIVATION and spec.activation == "relu":
                if np.any(np.abs(lcache["z"]) < kink_tol):
                    ok = False
                    break
        if ok:
            return x
    raise AssertionError("could not find a batch clear of relu kinks")


def max_rel_error(analytic, numeric):
    # floor keeps exactly-zero gradients (e.g. a bias feeding a batchnorm)
    # from turning finite-difference noise into a large ratio
    worst = 0.0
    for a_entry, n_entry in zip(analytic, numeric):
        for key in a_entry:
            a, b = a_entry[key], n_entry[key]
            denom = np.maximum(np.abs(a) + np.abs(b), 1e-5)
            worst = max(worst, float(np.max(np.abs(a - b) / denom)))
    return worst


# --- forward ---------------------------------------------------------------

def test_identity_batchnorm_infer_passes_input_through():
    params = nn.init_params([nn.batchnorm(3)], seed=0)
    # fresh batchnorm: gamma=1, beta=0, running mean 0, var 1
    x = np.array([[1.0, -2.0, 0.5], [3.0, 0.0, -1.0]])
    out, cache = nn.forward(params, x, nn.INFER)
    assert cache is None
    # identity up to the variance epsilon in the denominator
    np.testing.assert_allclose(out, x, rtol=1e-5, atol=1e-12)


def test_identity_dense_is_identity_map():
    params = nn.init_params([nn.dense(3, 3)], seed=0)
    params.layers[0]["W"][...] = np.eye(3)
    params.layers[0]["b"][...] = np.zeros(3)
    x = np.array([[0.1, 2.0, -7.0], [4.0, 5.0, 6.0]])
    out, _ = nn.forward(params, x, nn.INFER)
    np.testing.assert_array_equal(out, x)


def test_infer_row_is_batch_independent():
    params = small_net(seed=3)
    rng = np.random.default_rng(7)
    batch = rng.normal(size=(9, 4))
    full, _ = nn.forward(params, batch, nn.INFER)
    for i in range(batch.shape[0]):
        row, _ = nn.forward(params, batch[i:i + 1], nn.INFER)
        np.testing.assert_allclose(row[0], full[i], atol=1e-12, rtol=0)


def test_train_mode_rejects_single_row():
    params = small_net()
    with pytest.raises(ValueError):
        nn.forward(params, np.zeros((1, 4)), nn.TRAIN)


def test_forward_rejects_wrong_width():
    params = small_net()
    with pytest.raises(ValueError):
        nn.forward(params, np.zeros((4, 5)), nn.TRAIN)


def test_train_batchnorm_output_statistics():
    params = nn.init_params([nn.batchnorm(2)], seed=0)
    params.layers[0]["gamma"][...] = np.array([2.0, 0.5])
    params.layers[0]["beta"][...] = np.array([-1.0, 3.0])
    rng = np.random.default_rng(11)
    # large variance keeps the eps correction below the 1e-6 tolerance
    x = rng.normal(scale=20.0, size=(64, 2))
    out, _ = nn.forward(params, x, nn.TRAIN)
    np.testing.assert_allclose(out.mean(axis=0), [-1.0, 3.0], atol=1e-6)
    np.testing.assert_allclose(out.std(axis=0), [2.0, 0.5], atol=1e-6)


def test_running_stats_commit_matches_momentum_rule():
    params = nn.init_params([nn.batchnorm(2)], seed=0)
    rng = np.random.default_rng(0)
    x = rng.normal(loc=5.0, size=(32, 2))
    _, cache = nn.forward(params, x, nn.TRAIN)
    trainable = params.buffer[:params.layout.n_trainable].copy()
    updated = nn.commit_running_stats(params, cache)
    expect_mean = 0.99 * 0.0 + 0.01 * x.mean(axis=0)
    expect_var = 0.99 * 1.0 + 0.01 * x.var(axis=0)
    # written into the given container; its trainable arrays untouched
    assert updated is params
    np.testing.assert_allclose(params.layers[0]["running_mean"], expect_mean)
    np.testing.assert_allclose(params.layers[0]["running_var"], expect_var)
    assert params.buffer[:params.layout.n_trainable].tobytes() == trainable.tobytes()


# --- backward --------------------------------------------------------------

def test_gradients_match_finite_differences():
    rng = np.random.default_rng(123)
    for seed in range(5):
        params = small_net(seed=seed)
        x = safe_batch(params, rng)
        out, cache = nn.forward(params, x, nn.TRAIN)
        upstream = rng.normal(size=out.shape)
        grads, _ = nn.backward(params, cache, upstream)
        fd = finite_difference_grads(params, x, upstream)
        assert max_rel_error(grads, fd) < 1e-4


def test_input_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    params = small_net(seed=9)
    x = safe_batch(params, rng)
    out, cache = nn.forward(params, x, nn.TRAIN)
    upstream = rng.normal(size=out.shape)
    _, dx = nn.backward(params, cache, upstream)
    eps = 1e-5
    fd = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        orig = x[idx]
        x[idx] = orig + eps
        hi, _ = nn.forward(params, x, nn.TRAIN)
        x[idx] = orig - eps
        lo, _ = nn.forward(params, x, nn.TRAIN)
        x[idx] = orig
        fd[idx] = ((hi - lo) * upstream).sum() / (2 * eps)
    denom = np.maximum(np.abs(dx) + np.abs(fd), 1e-8)
    assert np.max(np.abs(dx - fd) / denom) < 1e-4


def test_zero_upstream_gives_zero_gradients():
    params = small_net(seed=2)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(5, 4))
    out, cache = nn.forward(params, x, nn.TRAIN)
    grads, dx = nn.backward(params, cache, np.zeros_like(out))
    assert np.all(dx == 0.0)
    for entry in grads:
        for g in entry.values():
            assert np.all(g == 0.0)


def test_linear_dense_weight_gradient_closed_form():
    params = nn.init_params([nn.dense(3, 2)], seed=4)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(6, 3))
    out, cache = nn.forward(params, x, nn.TRAIN)
    upstream = rng.normal(size=out.shape)
    grads, _ = nn.backward(params, cache, upstream)
    np.testing.assert_allclose(grads[0]["W"], x.T @ upstream, atol=1e-12)
    np.testing.assert_allclose(grads[0]["b"], upstream.sum(axis=0), atol=1e-12)


# --- optimizer -------------------------------------------------------------

def test_zero_gradients_leave_params_unchanged():
    params = small_net(seed=1)
    before = params.copy()
    opt = nn.init_optimizer(params)
    updated, _ = nn.apply_update(params, zero_grads(params), opt, 0.002)
    assert updated is params
    for (_, _, a), (_, _, b) in zip(nn.iter_arrays(before), nn.iter_arrays(updated)):
        np.testing.assert_array_equal(a, b)


def test_update_is_deterministic():
    params = small_net(seed=1)
    opt = nn.init_optimizer(params)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 4))
    out, cache = nn.forward(params, x, nn.TRAIN)
    grads, _ = nn.backward(params, cache, np.ones_like(out))
    a1, o1 = nn.apply_update(params.copy(), grads, copy_optimizer(opt), 0.002)
    a2, o2 = nn.apply_update(params.copy(), grads, copy_optimizer(opt), 0.002)
    assert o1.step == o2.step == 1
    assert (o1.m.tobytes(), o1.v.tobytes()) == (o2.m.tobytes(), o2.v.tobytes())
    assert a1.buffer.tobytes() == a2.buffer.tobytes()
    assert a1.buffer.tobytes() != params.buffer.tobytes()


def reachable_arrays(*objs):
    """Every array reachable from the objects through dataclass fields,
    dicts, lists and tuples, in a fixed order."""
    out = []

    def visit(o):
        if isinstance(o, np.ndarray):
            out.append(o)
        elif isinstance(o, dict):
            for key in sorted(o):
                visit(o[key])
        elif isinstance(o, (list, tuple)):
            for item in o:
                visit(item)
        elif dataclasses.is_dataclass(o):
            for f in dataclasses.fields(o):
                visit(getattr(o, f.name))

    for o in objs:
        visit(o)
    return out


def unchanged_by(fn, *objs):
    """The result of fn(), checking that every array reachable from `objs`
    is still the same object with the same bits afterwards."""
    before = reachable_arrays(*objs)
    snapshot = [a.copy() for a in before]
    result = fn()
    after = reachable_arrays(*objs)
    assert len(after) == len(before)
    for a, b, copy in zip(after, before, snapshot):
        assert a is b and a.tobytes() == copy.tobytes()
    return result


def test_updates_write_only_into_what_they_return():
    # an update writes into the container and optimizer state it is given,
    # in their own arrays, and returns them; a blend writes into nothing
    params = small_net(seed=1)
    other = small_net(seed=2)
    opt = nn.init_optimizer(params)
    x = np.random.default_rng(0).normal(size=(5, 4))
    out, cache = nn.forward(params, x, nn.TRAIN)
    grads, _ = nn.backward(params, cache, np.ones_like(out))
    nn.apply_update(params, grads, opt, 0.002)  # non-zero moments
    n = params.layout.n_trainable
    buffer, m, v, view = params.buffer, opt.m, opt.v, params.layers[0]["W"]

    running = buffer[n:].copy()
    result = unchanged_by(lambda: nn.apply_update(params, grads, opt, 0.002),
                          grads, cache, other)
    assert result[0] is params and result[1] is opt and opt.step == 2
    assert (params.buffer is buffer) and (opt.m is m) and (opt.v is v)
    assert buffer[n:].tobytes() == running.tobytes()

    trainable = buffer[:n].copy()
    result = unchanged_by(lambda: nn.commit_running_stats(params, cache),
                          grads, cache, other, opt)
    assert result is params and params.buffer is buffer
    assert buffer[:n].tobytes() == trainable.tobytes()

    blended = unchanged_by(lambda: nn.blend_params(params, other, 0.9),
                           params, other, grads, cache, opt)
    assert not np.shares_memory(blended.buffer, buffer)
    # the layer views were made once and still alias the buffer
    assert params.layers[0]["W"] is view and np.shares_memory(view, buffer)


def test_adam_converges_on_scalar_quadratic():
    # loss 0.5*(w - 0.5)^2, gradient (w - 0.5)
    params = nn.init_params([nn.dense(1, 1)], seed=0)
    params.layers[0]["W"][...] = np.array([[0.2]])
    opt = nn.init_optimizer(params)
    target = 0.5
    for _ in range(500):
        g = [{"W": params.layers[0]["W"] - target,
              "b": np.zeros(1)}]
        params, opt = nn.apply_update(params, g, opt, 0.002)
    assert abs(params.layers[0]["W"][0, 0] - target) < 1e-2


def test_non_finite_gradient_rejected():
    # a rejected update writes nothing: not the buffer, the moments or the step
    params = small_net(seed=3)
    opt = nn.init_optimizer(params)
    x = np.random.default_rng(3).normal(size=(5, 4))
    out, cache = nn.forward(params, x, nn.TRAIN)
    grads, _ = nn.backward(params, cache, np.ones_like(out))
    nn.apply_update(params, grads, opt, 0.002)  # non-zero moments
    per_array = [{key: g.copy() for key, g in entry.items()} for entry in grads]
    per_array[-1]["b"][0] = np.nan
    grads.flat[0] = np.inf
    for bad in (grads, per_array):
        before = (params.buffer.tobytes(), opt.m.tobytes(), opt.v.tobytes(), opt.step)
        with pytest.raises(nn.NonFiniteGradientError):
            nn.apply_update(params, bad, opt, 0.002)
        assert (params.buffer.tobytes(), opt.m.tobytes(), opt.v.tobytes(),
                opt.step) == before


# --- init ------------------------------------------------------------------

def test_init_is_seed_deterministic():
    a = small_net(seed=42)
    b = small_net(seed=42)
    for (_, _, u), (_, _, v) in zip(nn.iter_arrays(a), nn.iter_arrays(b)):
        np.testing.assert_array_equal(u, v)


def test_init_weight_bounds():
    params = nn.init_params([nn.dense(100, 20)], seed=7)
    w = params.layers[0]["W"]
    assert np.all(np.abs(w) <= 0.1)
    assert np.all(params.layers[0]["b"] == 0.0)


def test_inconsistent_chain_rejected():
    with pytest.raises(ValueError):
        nn.init_params([nn.dense(4, 8), nn.dense(9, 2)], seed=0)
    with pytest.raises(ValueError):
        nn.init_params([nn.dense(4, 8), nn.batchnorm(7)], seed=0)


# --- blending / checkpoint ---------------------------------------------------

def test_blend_endpoints():
    a = small_net(seed=1)
    b = small_net(seed=2)
    kept = nn.blend_params(a, b, 1.0)
    copied = nn.blend_params(a, b, 0.0)
    for (_, _, u), (_, _, v) in zip(nn.iter_arrays(kept), nn.iter_arrays(a)):
        np.testing.assert_array_equal(u, v)
    for (_, _, u), (_, _, v) in zip(nn.iter_arrays(copied), nn.iter_arrays(b)):
        np.testing.assert_array_equal(u, v)


def test_blend_midpoint_scalar():
    a = nn.init_params([nn.dense(1, 1)], seed=0)
    b = nn.init_params([nn.dense(1, 1)], seed=0)
    a.layers[0]["W"][...] = np.array([[2.0]])
    b.layers[0]["W"][...] = np.array([[4.0]])
    mid = nn.blend_params(a, b, 0.5)
    assert mid.layers[0]["W"][0, 0] == 3.0


def test_checkpoint_round_trip_bit_exact():
    params = small_net(seed=31)
    # drift the running stats so they are non-trivial
    rng = np.random.default_rng(0)
    _, cache = nn.forward(params, rng.normal(size=(16, 4)), nn.TRAIN)
    params = nn.commit_running_stats(params, cache)
    opt = nn.init_optimizer(params)
    out, cache = nn.forward(params, rng.normal(size=(8, 4)), nn.TRAIN)
    grads, _ = nn.backward(params, cache, np.ones_like(out))
    params, opt = nn.apply_update(params, grads, opt, 0.002)

    text = io.StringIO()
    nn.write_params(text, params)
    text.seek(0)
    loaded = nn.read_params(text)
    assert text.read() == ""
    assert loaded.specs == params.specs
    for (_, _, u), (_, _, v) in zip(nn.iter_arrays(params), nn.iter_arrays(loaded)):
        assert u.tobytes() == v.tobytes()



def test_networks_read_back_in_order_from_one_stream():
    # a policy file holds its networks one after another: each read must stop
    # at its own network's last array and leave the next one readable
    first = small_net(seed=5)
    second = nn.init_params([nn.dense(3, 4), nn.activation("tanh"), nn.dense(4, 1)],
                            seed=6)
    text = io.StringIO()
    nn.write_params(text, first)
    nn.write_params(text, second)
    text.seek(0)
    for params in (first, second):
        loaded = nn.read_params(text)
        assert loaded.specs == params.specs
        for (_, _, u), (_, _, v) in zip(nn.iter_arrays(params), nn.iter_arrays(loaded)):
            assert u.tobytes() == v.tobytes()
    assert text.read() == ""

# --- flat engine against the per-array oracle ------------------------------------

@st.composite
def layer_chains(draw):
    """Valid dense/batchnorm/activation chains of one to six layers."""
    width = draw(st.integers(1, 5))
    specs = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from((nn.DENSE, nn.BATCHNORM, nn.ACTIVATION)))
        if kind == nn.DENSE:
            out = draw(st.integers(1, 5))
            specs.append(nn.dense(width, out))
            width = out
        elif kind == nn.BATCHNORM:
            specs.append(nn.batchnorm(width))
        else:
            specs.append(nn.activation(draw(st.sampled_from(nn.ACTIVATIONS))))
    if all(spec.kind == nn.ACTIVATION for spec in specs):
        specs.append(nn.dense(width, draw(st.integers(1, 5))))
    return specs


def random_params(specs, rng):
    """A container with every array random; running variances positive."""
    params = nn.init_params(specs, seed=0)
    params.buffer[...] = rng.normal(size=params.buffer.shape)
    for layer in params.layers:
        if "running_var" in layer:
            layer["running_var"][...] = rng.uniform(0.2, 3.0, size=layer["running_var"].shape)
    return params


def as_dicts(params):
    return [{key: arr.copy() for key, arr in layer.items()} for layer in params.layers]


def assert_bits_equal(ours, oracle):
    assert len(ours) == len(oracle)
    for layer_a, layer_b in zip(ours, oracle):
        assert sorted(layer_a) == sorted(layer_b)
        for key in layer_a:
            a, b = np.asarray(layer_a[key]), np.asarray(layer_b[key])
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), key


@settings(max_examples=60, deadline=None)
@given(specs=layer_chains(), mode=st.sampled_from((nn.TRAIN, nn.INFER)),
       batch_size=st.integers(2, 9), seed=st.integers(0, 2**32 - 1),
       rho=st.floats(0.0, 1.0), lr=st.floats(1e-4, 0.1))
# an infer pass that hands the batch through a linear activation must not
# go on to work in place on it
@example(specs=[nn.activation("linear"), nn.batchnorm(3), nn.activation("sigmoid"),
                nn.activation("linear"), nn.dense(3, 1)],
         mode=nn.INFER, batch_size=4, seed=0, rho=0.5, lr=0.01)
def test_flat_engine_matches_per_array_oracle(specs, mode, batch_size, seed, rho, lr):
    rng = np.random.default_rng(seed)
    params = random_params(specs, rng)
    other = random_params(specs, rng)
    layers = as_dicts(params)
    x = rng.normal(size=(batch_size, params.in_dim))
    upstream = rng.normal(size=(batch_size, params.out_dim))
    inputs = [arr.copy() for arr in (x, upstream, params.buffer, other.buffer)]

    y, cache = nn.forward(params, x, mode)
    y_oracle, caches = forward_loop(specs, layers, x, mode)
    assert y.tobytes() == y_oracle.tobytes()
    assert (cache is None) == (mode == nn.INFER)
    y_cached, cache = nn.forward_cached(params, x, mode)
    assert y_cached.tobytes() == y_oracle.tobytes()

    grads, dx = nn.backward(params, cache, upstream)
    grads_oracle, dx_oracle = backward_loop(specs, layers, caches, mode, upstream)
    assert_bits_equal(grads, grads_oracle)
    assert dx.tobytes() == dx_oracle.tobytes()

    # two steps, so the second starts from non-zero moments: the first from
    # the flat gradient vector, the second from per-layer arrays
    opt = nn.init_optimizer(params)
    moments = [{key: (np.zeros_like(arr), np.zeros_like(arr))
                for key, arr in layer.items() if key in grads[i]}
               for i, layer in enumerate(layers)]
    updated, step = params.copy(), 0
    for scale in (1.0, -0.5):
        scaled = grads if scale == 1.0 else \
            [{key: scale * g for key, g in entry.items()} for entry in grads]
        assert nn.apply_update(updated, scaled, opt, lr)[0] is updated
        layers, moments, step = adam_loop(specs, layers, scaled, moments, step, lr)
    assert opt.step == step == 2
    assert_bits_equal(updated.layers, layers)
    # the moment vectors hold the trainable arrays in layout order
    for flat, which in ((opt.m, 0), (opt.v, 1)):
        oracle = [moments[i][key][which].reshape(-1)
                  for i, spec in enumerate(specs) for key in nn.TRAINABLE_KEYS[spec.kind]]
        assert flat.tobytes() == np.concatenate([np.zeros(0), *oracle]).tobytes()

    if mode == nn.TRAIN:
        committed = updated.copy()
        assert nn.commit_running_stats(committed, cache) is committed
        assert_bits_equal(committed.layers, commit_loop(specs, layers, caches))

    blended = nn.blend_params(updated, other, rho)
    assert_bits_equal(blended.layers, blend_loop(layers, as_dicts(other), rho))
    for before, after in zip(inputs, (x, upstream, params.buffer, other.buffer)):
        assert before.tobytes() == after.tobytes()


# --- leading fold axis against one network at a time ------------------------------

@settings(max_examples=60, deadline=None)
@given(specs=layer_chains(), mode=st.sampled_from((nn.TRAIN, nn.INFER)),
       n_folds=st.integers(1, 4), batch_size=st.integers(2, 9),
       seed=st.integers(0, 2**32 - 1), rho=st.floats(0.0, 1.0),
       lr=st.floats(1e-4, 0.1))
def test_stacked_engine_matches_each_network_alone(specs, mode, n_folds, batch_size,
                                                   seed, rho, lr):
    rng = np.random.default_rng(seed)
    plain = [random_params(specs, rng) for _ in range(n_folds)]
    others = [random_params(specs, rng) for _ in range(n_folds)]
    params = nn.NetworkParams.stack(plain)
    other = nn.NetworkParams.stack(others)
    x = rng.normal(size=(n_folds, batch_size, params.in_dim))
    upstream = rng.normal(size=(n_folds, batch_size, params.out_dim))
    given = (x, upstream, params.buffer, other.buffer, *(p.buffer for p in plain))
    inputs = [arr.copy() for arr in given]

    y, cache = nn.forward_cached(params, x, mode)
    grads, dx = nn.backward(params, cache, upstream)
    opt = nn.init_optimizer(params)
    updated = params.copy()
    for scale in (1.0, -0.5):
        scaled = grads if scale == 1.0 else \
            [{key: scale * g for key, g in entry.items()} for entry in grads]
        nn.apply_update(updated, scaled, opt, lr)
    if mode == nn.TRAIN:
        nn.commit_running_stats(updated, cache)
    blended = nn.blend_params(updated, other, rho)

    for f in range(n_folds):
        assert params.take(f).buffer.tobytes() == plain[f].buffer.tobytes()
        y_f, cache_f = nn.forward_cached(plain[f], x[f], mode)
        assert y[f].tobytes() == y_f.tobytes()
        grads_f, dx_f = nn.backward(plain[f], cache_f, upstream[f])
        assert_bits_equal([{k: g[f] for k, g in entry.items()} for entry in grads],
                          grads_f)
        assert dx[f].tobytes() == dx_f.tobytes()
        opt_f = nn.init_optimizer(plain[f])
        updated_f = plain[f].copy()
        for scale in (1.0, -0.5):
            scaled = grads_f if scale == 1.0 else \
                [{key: scale * g for key, g in entry.items()} for entry in grads_f]
            nn.apply_update(updated_f, scaled, opt_f, lr)
        if mode == nn.TRAIN:
            nn.commit_running_stats(updated_f, cache_f)
        assert updated.take(f).buffer.tobytes() == updated_f.buffer.tobytes()
        taken = opt.take(f)
        assert (taken.m.tobytes(), taken.v.tobytes(), taken.step) == \
            (opt_f.m.tobytes(), opt_f.v.tobytes(), opt_f.step)
        blended_f = nn.blend_params(updated_f, others[f], rho)
        assert blended.take(f).buffer.tobytes() == blended_f.buffer.tobytes()
    for before, after in zip(inputs, given):
        assert before.tobytes() == after.tobytes()


def test_stacked_views_share_the_buffer():
    params = nn.NetworkParams.stack([small_net(seed=s) for s in range(3)])
    assert params.layers[0]["W"].shape == (3, 4, 8)
    params.layers[0]["W"][1, 2, 3] = 7.0
    assert params.take(1).layers[0]["W"][2, 3] == 7.0
    smaller = params.take(np.array([2, 1]))
    assert smaller.buffer.shape == (2, params.layout.size)
    assert smaller.take(1).buffer.tobytes() == params.take(1).buffer.tobytes()
    with pytest.raises(ValueError, match="leading dims"):
        nn.forward(params, np.zeros((5, 4)), nn.INFER)
    with pytest.raises(ValueError, match="one layer chain"):
        nn.NetworkParams.stack([small_net(), small_net(state_dim=3)])


# --- infer passes are row-independent ---------------------------------------------

@st.composite
def training_chains(draw):
    """The actor, critic state-branch and critic trunk chains over a drawn
    state width: two single-output heads and one 32-wide output."""
    state_dim = draw(st.integers(1, 20))
    return draw(st.sampled_from((ddpg.actor_specs(state_dim),
                                 ddpg.critic_state_specs(state_dim),
                                 ddpg.critic_trunk_specs())))


@settings(max_examples=40, deadline=None)
@given(specs=st.one_of(training_chains(), layer_chains()), n_folds=st.integers(0, 3),
       n_rows=st.one_of(st.sampled_from((1, 2, 1023, 1024, 1025, 2049, 9068)),
                        st.integers(1, 40)),
       seed=st.integers(0, 2**32 - 1))
@example(specs=ddpg.critic_state_specs(14), n_folds=0, n_rows=1025, seed=1)
@example(specs=ddpg.actor_specs(14), n_folds=2, n_rows=1, seed=2)
def test_infer_rows_match_the_full_pass(specs, n_folds, n_rows, seed):
    # a row's output may depend neither on the rows around it nor on where
    # the row blocks of a long pass fall
    rng = np.random.default_rng(seed)
    nets = [random_params(specs, rng) for _ in range(max(n_folds, 1))]
    params = nn.NetworkParams.stack(nets) if n_folds else nets[0]
    lead = (n_folds,) if n_folds else ()
    x = rng.normal(size=lead + (n_rows, params.in_dim))
    full, _ = nn.forward(params, x, nn.INFER)
    assert full.shape == lead + (n_rows, params.out_dim)
    # the last row, alone in the last block of some passes, among others
    gathered = np.append(rng.integers(0, n_rows, size=rng.integers(1, n_rows + 3)),
                         n_rows - 1)
    prefix = int(rng.integers(1, n_rows + 1))
    out, _ = nn.forward(params, x[..., gathered, :], nn.INFER)
    assert out.tobytes() == full[..., gathered, :].tobytes()
    out, _ = nn.forward(params, x[..., :prefix, :], nn.INFER)
    assert out.tobytes() == full[..., :prefix, :].tobytes()
    for f in range(n_folds):
        out, _ = nn.forward(nets[f], x[f], nn.INFER)
        assert out.tobytes() == full[f].tobytes()
