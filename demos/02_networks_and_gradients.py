"""Exercise the network engine: forward passes, exact backprop, Adam.

The engine is a few hundred lines of numpy: dense layers, batch
normalization with momentum-tracked running statistics, manual gradients,
and Adam with bias correction. Gradients are verified here against central
finite differences.
"""

import io

import numpy as np

from oxyrl import nn

rng = np.random.default_rng(0)
specs = [nn.dense(6, 16), nn.batchnorm(16), nn.activation("relu"),
         nn.dense(16, 1)]
params = nn.init_params(specs, seed=1)

x = rng.normal(size=(8, 6))
out, cache = nn.forward(params, x, nn.TRAIN)
grads, dx = nn.backward(params, cache, np.ones_like(out))

eps = 1e-5
worst = 0.0
for i, key, arr in nn.iter_arrays(params, trainable_only=True):
    flat = arr.reshape(-1)
    g = grads[i][key].reshape(-1)
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + eps
        hi = nn.forward(params, x, nn.TRAIN)[0].sum()
        flat[j] = orig - eps
        lo = nn.forward(params, x, nn.TRAIN)[0].sum()
        flat[j] = orig
        fd = (hi - lo) / (2 * eps)
        worst = max(worst, abs(fd - g[j]) / max(abs(fd) + abs(g[j]), 1e-5))
print(f"max relative gradient error vs finite differences: {worst:.2e}")

# Adam walks a scalar quadratic to its minimum
w = nn.init_params([nn.dense(1, 1)], seed=0)
w.layers[0]["W"][:] = 0.0
opt = nn.init_optimizer(w)
g = nn.Gradients(w)   # one flat vector, viewed per layer
g.flat[...] = 0.0
for _ in range(800):
    np.subtract(w.layers[0]["W"], 0.7, out=g[0]["W"])
    w, opt = nn.apply_update(w, g, opt, 0.002)
print(f"Adam on 0.5*(w-0.7)^2 after 800 steps: w = {w.layers[0]['W'][0, 0]:.4f}")

# the text blocks a policy checkpoint stores its networks in round-trip bit exactly
text = io.StringIO()
nn.write_params(text, params)
text.seek(0)
restored = nn.read_params(text)
identical = all(a.tobytes() == restored.layers[i][k].tobytes()
                for i, k, a in nn.iter_arrays(params))
print(f"network text round trip bit-exact: {identical}")
