"""Independent reference implementations used by the test suites.

These deliberately avoid the library's own code paths: partial likelihood
by double loop, maximization by zooming grid, concordance by exhaustive
pair counting, the penalized Cox fit by cold-start proximal gradient, and
held flows and one-step transitions by per-step loops."""

import math

import numpy as np


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
