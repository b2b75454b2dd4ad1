"""Independent reference implementations used by the test suites.

These deliberately avoid the library's own code paths: partial likelihood
by double loop, maximization by zooming grid, concordance by exhaustive
pair counting, the penalized Cox fit by cold-start proximal gradient,
held flows and one-step transitions by per-step loops, the cohort CSV
loader by one record per patient and one tuple per row, the generator's
hazard one dose at a time, the network engine by per-layer, per-array
loops over lists of parameter dicts, and bootstrapped targets fold by fold
on each fold's live rows."""

import csv
import math
import warnings

import numpy as np

from oxyrl.cohort import (
    CODE_OUTCOME, CSV_HEADER, FIELD_EVENT_TIME, FIELD_OUTCOME, FIELD_OXYGEN,
    FLOW_MAX, FLOW_MIN, CohortDataWarning, CohortFormatError, PatientRecord,
    SchemaMismatchError, _dose_vertex,
)


def breslow_loglik_loop(x, t, e, beta):
    """Double-loop Breslow partial log-likelihood."""
    x = np.atleast_2d(x)
    total = 0.0
    for i in range(len(t)):
        if not e[i]:
            continue
        denom = 0.0
        for j in range(len(t)):
            if t[j] >= t[i]:
                denom += math.exp(float(x[j] @ beta))
        total += float(x[i] @ beta) - math.log(denom)
    return total


def brute_force_argmax(fn, ndim, half=4.0, stages=4, pts=41):
    """Iterated zooming grid maximization."""
    center = np.zeros(ndim)
    for _ in range(stages):
        axes = [np.linspace(c - half, c + half, pts) for c in center]
        best_val, best_pt = -np.inf, center
        if ndim == 1:
            for a in axes[0]:
                v = fn(np.array([a]))
                if v > best_val:
                    best_val, best_pt = v, np.array([a])
        else:
            for a in axes[0]:
                for b in axes[1]:
                    v = fn(np.array([a, b]))
                    if v > best_val:
                        best_val, best_pt = v, np.array([a, b])
        center = best_pt
        half = 2.0 * (2.0 * half / (pts - 1))
    return center


def concordance_loop(risk, t, e):
    """Exhaustive pair counting with half credit for risk ties."""
    num, den = 0.0, 0
    for i in range(len(t)):
        if not e[i]:
            continue
        for j in range(len(t)):
            if t[j] > t[i]:
                den += 1
                if risk[i] > risk[j]:
                    num += 1.0
                elif risk[i] == risk[j]:
                    num += 0.5
    return num / den


def breslow_loglik_sorted(x, t, e, beta):
    """Breslow partial log-likelihood and gradient, sorting on every call."""
    order = np.argsort(t, kind="stable")
    xs, ts, es = x[order], t[order], e[order]
    eta = xs @ beta
    shift = eta.max()
    w = np.exp(eta - shift)
    s0 = np.cumsum(w[::-1])[::-1]
    s1 = np.cumsum((w[:, None] * xs)[::-1], axis=0)[::-1]
    ev = np.flatnonzero(es)
    first = np.searchsorted(ts, ts[ev], side="left")
    ll = float(np.sum(eta[ev] - shift - np.log(s0[first])))
    grad = xs[ev].sum(axis=0) - (s1[first] / s0[first, None]).sum(axis=0)
    return ll, grad


def proximal_gradient_cox(x, t, e, l1, l2, max_iterations=10000, tolerance=1e-6):
    """Elastic-net Cox fit by proximal gradient with backtracking, started
    from zero; converged when the step-scaled proximal residual drops below
    `tolerance`. Returns (coef, converged)."""
    def smooth(beta):
        ll, grad = breslow_loglik_sorted(x, t, e, beta)
        return -ll + 0.5 * l2 * float(beta @ beta), -grad + l2 * beta

    beta = np.zeros(x.shape[1])
    g_val, g_grad = smooth(beta)
    step = 1.0
    for _ in range(max_iterations):
        while True:
            v = beta - step * g_grad
            candidate = np.sign(v) * np.maximum(np.abs(v) - step * l1, 0.0)
            delta = candidate - beta
            cand_val, cand_grad = smooth(candidate)
            bound = g_val + float(g_grad @ delta) + float(delta @ delta) / (2 * step)
            if cand_val <= bound + 1e-12 * (1 + abs(bound)):
                break
            step *= 0.5
            if step < 1e-16:
                raise RuntimeError("backtracking line search collapsed")
        residual = float(np.linalg.norm(delta)) / step
        beta, g_val, g_grad = candidate, cand_val, cand_grad
        if residual <= tolerance:
            return beta, True
        step *= 1.5
    return beta, False


def flow_at_loop(oxygen_series, t):
    """Flow in force at time t: last setting at or before t, 0 before any."""
    flow = 0.0
    for time, value in oxygen_series:
        if time <= t:
            flow = value
        else:
            break
    return flow


def transitions_loop(states, actions, reward):
    """One trajectory's one-step transitions as (state, action, reward,
    next_state, terminal) tuples: zero reward until the terminal step, and a
    single-step trajectory maps its only state onto itself."""
    n = len(actions)
    if n == 1:
        return [(states[0], float(actions[0]), reward, states[0], True)]
    out = []
    for i in range(n - 1):
        last = i == n - 2
        out.append((states[i], float(actions[i]), reward if last else 0.0,
                    states[i + 1], last))
    return out


# --- per-array network engine ----------------------------------------------
#
# Parameters are a list of per-layer dicts of separate arrays, Adam moments a
# list of per-layer dicts of (m, v) pairs; every update loops over layers and
# keys and uses numpy's mean/var/sum methods.

BN_MOMENTUM = 0.99
BN_EPS = 1e-5
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
TRAINABLE = {"dense": ("W", "b"), "batchnorm": ("gamma", "beta"), "activation": ()}


def _activate(name, z):
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "tanh":
        return np.tanh(z)
    if name == "sigmoid":
        return 1.0 / (1.0 + np.exp(-z))
    return z


def forward_loop(specs, layers, batch, mode):
    """Returns (output, per-layer caches); a single-output dense layer sums
    each row's products, and train-mode batch-norm caches carry the
    momentum-advanced running statistics."""
    x = np.asarray(batch, dtype=np.float64)
    caches = []
    for spec, layer in zip(specs, layers):
        if spec.kind == "dense":
            if spec.out_dim == 1:
                z = (x * layer["W"][:, 0]).sum(axis=-1, keepdims=True) + layer["b"]
            else:
                z = x @ layer["W"] + layer["b"]
            caches.append({"x": x})
            x = z
        elif spec.kind == "batchnorm":
            if mode == "train":
                mean = x.mean(axis=0)
                var = x.var(axis=0)
                ivar = 1.0 / np.sqrt(var + BN_EPS)
                xhat = (x - mean) * ivar
                caches.append({
                    "xhat": xhat, "ivar": ivar,
                    "new_running_mean": BN_MOMENTUM * layer["running_mean"]
                    + (1.0 - BN_MOMENTUM) * mean,
                    "new_running_var": BN_MOMENTUM * layer["running_var"]
                    + (1.0 - BN_MOMENTUM) * var,
                })
            else:
                ivar = 1.0 / np.sqrt(layer["running_var"] + BN_EPS)
                xhat = (x - layer["running_mean"]) * ivar
                caches.append({"xhat": xhat, "ivar": ivar})
            x = layer["gamma"] * xhat + layer["beta"]
        else:
            out = _activate(spec.activation, x)
            caches.append({"z": x, "out": out})
            x = out
    return x, caches


def backward_loop(specs, layers, caches, mode, upstream_grad):
    """Returns (per-layer gradient dicts, input gradient)."""
    dy = np.asarray(upstream_grad, dtype=np.float64)
    grads = [dict() for _ in specs]
    for i in range(len(specs) - 1, -1, -1):
        spec, layer, lcache = specs[i], layers[i], caches[i]
        if spec.kind == "dense":
            grads[i]["W"] = lcache["x"].T @ dy
            grads[i]["b"] = dy.sum(axis=0)
            dy = dy @ layer["W"].T
        elif spec.kind == "batchnorm":
            xhat, ivar = lcache["xhat"], lcache["ivar"]
            n = dy.shape[0]
            grads[i]["gamma"] = (dy * xhat).sum(axis=0)
            grads[i]["beta"] = dy.sum(axis=0)
            dxhat = dy * layer["gamma"]
            if mode == "train":
                dy = (ivar / n) * (
                    n * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0))
            else:
                dy = dxhat * ivar
        else:
            z, out = lcache["z"], lcache["out"]
            if spec.activation == "relu":
                dy = dy * (z > 0.0)
            elif spec.activation == "tanh":
                dy = dy * (1.0 - out * out)
            elif spec.activation == "sigmoid":
                dy = dy * out * (1.0 - out)
    return grads, dy


def zero_grads(params):
    """Zeros shaped like the trainable arrays of an `nn.NetworkParams`, in
    the per-layer dict layout `nn.apply_update` takes as gradients."""
    return [{key: np.zeros_like(layer[key]) for key in TRAINABLE[spec.kind]}
            for spec, layer in zip(params.specs, params.layers)]


def adam_loop(specs, layers, grads, moments, step, learning_rate):
    """One bias-corrected Adam step per array; `moments` holds per-layer
    dicts of (m, v). Returns (layers, moments, step), all new."""
    step += 1
    corr1 = 1.0 - ADAM_BETA1 ** step
    corr2 = 1.0 - ADAM_BETA2 ** step
    new_layers = [dict(layer) for layer in layers]
    new_moments = []
    for spec, layer, gentry, mentry in zip(specs, new_layers, grads, moments):
        entry = {}
        for key in TRAINABLE[spec.kind]:
            g = gentry[key]
            m, v = mentry[key]
            m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
            v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g * g
            layer[key] = layer[key] - learning_rate * (m / corr1) / (
                np.sqrt(v / corr2) + ADAM_EPS)
            entry[key] = (m, v)
        new_moments.append(entry)
    return new_layers, new_moments, step


def commit_loop(specs, layers, caches):
    """Layers with each batch norm's running statistics taken from a
    train-mode cache."""
    out = [dict(layer) for layer in layers]
    for spec, layer, lcache in zip(specs, out, caches):
        if spec.kind == "batchnorm":
            layer["running_mean"] = lcache["new_running_mean"].copy()
            layer["running_var"] = lcache["new_running_var"].copy()
    return out


def blend_loop(target_layers, online_layers, rho):
    """rho * target + (1 - rho) * online, array by array."""
    return [{key: rho * layer_t[key] + (1.0 - rho) * layer_o[key] for key in layer_t}
            for layer_t, layer_o in zip(target_layers, online_layers)]


def td_target_loop(batch, targets, discount):
    """Bootstrapped targets fold by fold, each fold's target networks run on
    its live next states alone."""
    out = batch.rewards.astype(np.float64)
    if discount == 0.0:
        return out
    live = ~batch.terminal
    for fold in np.ndindex(out.shape[:-1]):
        rows = live[fold]
        if rows.any():
            next_states = batch.next_states[fold][rows]
            nets = targets.take(fold)
            q_next = nets.critic.q_values(next_states, nets.actor.act(next_states))
            out[fold][rows] += discount * q_next
    return out


# --- cohort ------------------------------------------------------------------

def load_records_loop(path, schema):
    """Read a long-format cohort CSV into one validated PatientRecord per
    patient, row by row.

    Malformed headers, unknown fields, unparseable numerics and structurally
    incomplete patients raise; rows with out-of-range flow or non-monotone
    times are rejected individually with a warning naming the line.
    """
    known_fields = set(schema.names) | {FIELD_OXYGEN, FIELD_OUTCOME, FIELD_EVENT_TIME}
    raw: dict[str, dict] = {}  # insertion order is first-seen patient order
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_HEADER:
            raise SchemaMismatchError(
                f"malformed header {header!r}; expected {CSV_HEADER!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 5:
                raise CohortFormatError(f"line {lineno}: expected 5 columns")
            pid, hospital, time_s, fieldname, value_s = row
            if fieldname not in known_fields:
                raise SchemaMismatchError(
                    f"line {lineno}: field {fieldname!r} not in schema")
            try:
                t = float(time_s)
                value = float(value_s)
            except ValueError:
                raise CohortFormatError(
                    f"line {lineno}: unparseable numeric {time_s!r}/{value_s!r}") from None
            if not (math.isfinite(t) and math.isfinite(value)):
                raise CohortFormatError(
                    f"line {lineno}: non-finite numeric {time_s!r}/{value_s!r}")
            entry = raw.setdefault(pid, {
                "hospital": hospital, "rows": [], "outcome": None, "event_time": None})
            if entry["hospital"] != hospital:
                raise CohortFormatError(
                    f"line {lineno}: patient {pid} has conflicting hospitals")
            if fieldname == FIELD_OUTCOME:
                code = int(value)
                if code not in CODE_OUTCOME:
                    raise CohortFormatError(f"line {lineno}: unknown outcome code {code}")
                entry["outcome"] = CODE_OUTCOME[code]
            elif fieldname == FIELD_EVENT_TIME:
                entry["event_time"] = value
            else:
                entry["rows"].append((lineno, t, fieldname, value))

    records = []
    for pid, entry in raw.items():
        if entry["outcome"] is None or entry["event_time"] is None:
            raise CohortFormatError(f"patient {pid}: missing outcome or event_time")
        event_time = entry["event_time"]
        statics: dict[str, float] = {}
        series: dict[str, list] = {}
        oxygen: list = []
        last_time: dict[str, float] = {}
        for lineno, t, name, value in entry["rows"]:
            if name == FIELD_OXYGEN and not (FLOW_MIN <= value <= FLOW_MAX):
                warnings.warn(
                    f"line {lineno}: flow {value:g} outside [{FLOW_MIN:g}, {FLOW_MAX:g}], "
                    f"row rejected", CohortDataWarning)
                continue
            if name != FIELD_OXYGEN and schema.is_pointwise(name):
                statics[name] = value
                continue
            prev = last_time.get(name)
            if t < 0 or (prev is not None and t <= prev):
                warnings.warn(
                    f"line {lineno}: non-monotone time {t:g} for {name!r}, row rejected",
                    CohortDataWarning)
                continue
            if t > event_time:
                warnings.warn(
                    f"line {lineno}: observation at {t:g} after event_time "
                    f"{event_time:g}, row rejected", CohortDataWarning)
                continue
            last_time[name] = t
            if name == FIELD_OXYGEN:
                oxygen.append((t, value))
            else:
                series.setdefault(name, []).append((t, value))
        record = PatientRecord(pid, entry["hospital"], statics, series, oxygen,
                               entry["outcome"], event_time)
        record.validate()
        records.append(record)
    return records


def hazard_rate(config, statics, dose):
    """Instantaneous death hazard (per hour) for a patient with the given
    static covariates receiving a constant dose."""
    eta = sum(
        coef * (statics[name] - config.covariate_moments[name][0])
        for name, coef in config.hazard_coefficients.items())
    vertex = _dose_vertex(config, statics["age"])
    delta = dose - vertex
    eta += config.dose_coef * dose + config.over_dose_curvature * delta ** 2
    deficit = -(delta + config.under_dose_margin)
    if deficit > 0:
        extra = config.under_dose_curvature - config.over_dose_curvature
        eta += max(extra, 0.0) * deficit ** 2
    return config.baseline_hazard * float(np.exp(eta))
