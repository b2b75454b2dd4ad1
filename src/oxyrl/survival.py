"""Proportional-hazards survival modeling for outcome estimation.

The hazard for covariates ``s`` is ``lambda0(t) * exp(s @ coef)``. The
coefficient vector maximizes the Breslow-tie partial log-likelihood minus an
elastic-net penalty ``l1*||b||_1 + (l2/2)*||b||_2^2``, solved by proximal
Newton (Lee, Sun & Saunders, SIAM J. Optim. 2014): each iteration minimizes
the exact second-order model of the smooth part plus the l1 term by cyclic
coordinate descent, then backtracks on the penalized objective, so that
objective is non-increasing across iterations. A penalty grid is fitted as a
path (Simon, Friedman, Hastie & Tibshirani, J. Stat. Softw. 2011): the data
are sorted by duration once, and every cell starts from the coefficients of
the cell before it. The baseline cumulative hazard is the Breslow step
estimate at event times, and seven-day mortality is
``1 - exp(-Lambda0(7) * exp(s @ coef))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import textfile

MORTALITY_WINDOW_DAYS = 7.0
DEFAULT_PENALTY_VALUES = (0.01, 0.02, 0.04, 0.06, 0.08)


class FitError(ValueError):
    pass


class GridSearchError(ValueError):
    pass


@dataclass
class CoxModel:
    feature_names: tuple[str, ...]
    coef: np.ndarray
    baseline_times: np.ndarray     # ascending event times (days)
    baseline_cumhaz: np.ndarray    # cumulative hazard at those times
    converged: bool = True
    l1: float = 0.0
    l2: float = 0.0
    iterations: int = 0            # solver steps taken by the fit
    residual: float = 0.0          # final proximal-gradient residual norm

    def __post_init__(self):
        if len(self.coef) != len(self.feature_names):
            raise ValueError("coefficient/feature length mismatch")
        if len(self.baseline_times) and (
                np.any(np.diff(self.baseline_times) <= 0)
                or np.any(np.diff(self.baseline_cumhaz) < 0)
                or self.baseline_cumhaz[0] < 0):
            raise ValueError("baseline cumulative hazard must be a non-decreasing step")

    def cumulative_hazard(self, t: float):
        """Right-continuous step lookup; returns (value, extrapolated)."""
        if t < 0:
            raise ValueError("time must be non-negative")
        if len(self.baseline_times) == 0 or t < self.baseline_times[0]:
            return 0.0, False
        idx = int(np.searchsorted(self.baseline_times, t, side="right")) - 1
        return float(self.baseline_cumhaz[idx]), bool(t > self.baseline_times[-1])

    def risk(self, covariates) -> np.ndarray:
        """exp(x . coef) per row, summed row by row so that a row's risk
        never depends on the rows batched with it."""
        x = np.atleast_2d(np.asarray(covariates, dtype=np.float64))
        return np.exp((x * self.coef).sum(axis=1))


@dataclass(frozen=True)
class CoxDesign:
    """Survival data sorted by duration once, with what every likelihood
    evaluation needs: the event rows, the first row of each event's risk set
    (everyone with an equal or later duration), and the summed covariates of
    the events. One design serves every fit of a penalty grid."""

    x: np.ndarray            # (n, p) covariates, rows in ascending duration
    t: np.ndarray            # ascending durations
    events: np.ndarray       # row index of each event
    risk_start: np.ndarray   # first row of each event's risk set
    event_x_sum: np.ndarray  # (p,) covariates summed over the events

    @classmethod
    def of(cls, covariates, durations, events) -> "CoxDesign":
        """Design of (n, p) covariates, n durations in days and n event
        flags; rows with equal durations keep their order."""
        t = np.asarray(durations, dtype=np.float64)
        order = np.argsort(t, kind="stable")
        x = np.asarray(covariates, dtype=np.float64)[order]
        t = t[order]
        events = np.flatnonzero(np.asarray(events, dtype=bool)[order])
        return cls(x, t, events, np.searchsorted(t, t[events], side="left"),
                   x[events].sum(axis=0))


def partial_loglik(design: CoxDesign, beta):
    """Breslow-tie partial log-likelihood, its gradient and its information
    matrix (the negated Hessian), as (value, gradient, information)."""
    if len(design.events) == 0:
        raise FitError("no events in the sample set")
    x, first = design.x, design.risk_start
    eta = x @ beta
    shift = eta.max()
    w = np.exp(eta - shift)
    # suffix sums: risk set at row i is every row from i on
    s0 = np.cumsum(w[::-1])[::-1]
    s1 = np.cumsum((w[:, None] * x)[::-1], axis=0)[::-1]
    s0_ev = s0[first]
    mean_ev = s1[first] / s0_ev[:, None]  # risk-set mean covariates per event
    ll = float(np.sum(eta[design.events] - shift - np.log(s0_ev)))
    grad = design.event_x_sum - mean_ev.sum(axis=0)
    # sum over events of S2/S0 is X^T diag(w*c) X, where c[i] sums 1/S0 over
    # the events whose risk set holds row i
    c = np.cumsum(np.bincount(first, weights=1.0 / s0_ev, minlength=len(w)))
    info = (x.T * (w * c)) @ x - mean_ev.T @ mean_ev
    return ll, grad, info


def _soft_threshold(v, thresh):
    return np.sign(v) * np.maximum(np.abs(v) - thresh, 0.0)


def breslow_baseline(design: CoxDesign, beta):
    """Stepwise baseline cumulative hazard at the distinct event times."""
    ts = design.t
    eta = design.x @ beta
    shift = eta.max() if len(eta) else 0.0
    s0 = np.cumsum(np.exp(eta - shift)[::-1])[::-1]
    times, deaths = np.unique(ts[design.events], return_counts=True)
    first = np.searchsorted(ts, times, side="left")
    return times, np.cumsum(deaths / (s0[first] * np.exp(shift)))


def _newton_point(hess, grad, beta, l1, tolerance):
    """Minimizer z of the l1-penalized second-order model
    ``grad@(z-beta) + (z-beta)@hess@(z-beta)/2 + l1*||z||_1``.

    Cyclic coordinate descent from z = beta finds the signs of the minimizer.
    After each sweep the model is solved exactly on the current nonzero
    coordinates, and that point is returned once it keeps their signs and
    satisfies the optimality condition of the zero ones. Otherwise sweeps
    stop when no coordinate moves its model gradient by more than
    tolerance/10. The diagonal is damped so that a singular or zero Hessian
    cannot divide by zero.
    """
    p = len(beta)
    hess = hess + 1e-10 * (1.0 + float(np.abs(hess.diagonal()).max())) * np.eye(p)
    z = beta.copy()
    model_grad = grad.copy()  # grad + hess @ (z - beta)
    for _ in range(1000):  # sweep cap; the exact solve usually ends it in 1-3
        largest = 0.0
        for j in range(p):
            a = hess[j, j]
            v = z[j] - model_grad[j] / a
            new = math.copysign(max(abs(v) - l1 / a, 0.0), v)
            delta = new - z[j]
            if delta != 0.0:
                z[j] = new
                model_grad += delta * hess[:, j]
                largest = max(largest, a * abs(delta))
        if largest <= 0.1 * tolerance:
            break
        sign = np.sign(z)
        on = sign != 0
        step = -beta  # zero coordinates move to exactly 0
        step[on] = np.linalg.solve(
            hess[np.ix_(on, on)],
            -(grad[on] + l1 * sign[on] + hess[np.ix_(on, ~on)] @ step[~on]))
        exact = beta + step
        if (np.array_equal(np.sign(exact), sign)
                and np.all(np.abs((grad + hess @ step)[~on]) <= l1)):
            return exact
    return z


def fit_cox(design: CoxDesign, l1: float = 0.0, l2: float = 0.0, *, start=None,
            max_iterations: int = 10000, tolerance: float = 1e-6,
            debug: bool = False) -> CoxModel:
    """Penalized fit by proximal Newton with backtracking.

    The fit starts from `start` (zeros when omitted); a penalty path
    passes the coefficients of its previous fit. Each iteration solves the
    l1-penalized second-order model by coordinate descent and halves the
    step toward that point until the penalized objective decreases enough.
    Convergence is declared when the unit-step proximal-gradient residual
    norm ``||soft(b - grad, l1) - b||`` drops below `tolerance`; otherwise
    the model is returned with its converged flag cleared after
    `max_iterations` steps. The model records the steps taken and the final
    residual. With debug=True every accepted step is checked for a monotone
    decrease of the penalized objective.
    """
    if len(design.events) == 0:
        raise FitError("cannot fit without at least one event")
    p = design.x.shape[1]

    def smooth(beta):
        ll, grad, info = partial_loglik(design, beta)
        info[np.diag_indices(p)] += l2
        return -ll + 0.5 * l2 * float(beta @ beta), -grad + l2 * beta, info

    def objective(beta, g_val):
        return g_val + l1 * float(np.abs(beta).sum())

    beta = np.zeros(p) if start is None else np.array(start, dtype=np.float64)
    g_val, g_grad, g_hess = smooth(beta)
    obj = objective(beta, g_val)
    iterations = 0
    while True:
        residual = float(np.linalg.norm(_soft_threshold(beta - g_grad, l1) - beta))
        if residual <= tolerance or iterations == max_iterations:
            break
        iterations += 1
        direction = _newton_point(g_hess, g_grad, beta, l1, tolerance) - beta
        # predicted decrease of the penalized objective for the full step
        decrease = float(g_grad @ direction) + l1 * float(
            np.abs(beta + direction).sum() - np.abs(beta).sum())
        step = 1.0
        while True:
            candidate = beta + step * direction
            cand_val, cand_grad, cand_hess = smooth(candidate)
            new_obj = objective(candidate, cand_val)
            if new_obj <= obj + 0.25 * step * decrease + 1e-12 * (1 + abs(obj)):
                break
            step *= 0.5
            if step < 1e-16:
                raise FitError("backtracking line search collapsed")
        if debug and new_obj > obj + 1e-9 * (1 + abs(obj)):
            raise AssertionError(
                f"penalized objective increased: {obj} -> {new_obj}")
        beta, g_val, g_grad, g_hess, obj = (
            candidate, cand_val, cand_grad, cand_hess, new_obj)

    times, cumhaz = breslow_baseline(design, beta)
    names = tuple(f"x{i}" for i in range(p))
    return CoxModel(names, beta, times, cumhaz, converged=residual <= tolerance,
                    l1=l1, l2=l2, iterations=iterations, residual=residual)


def predict_survival(model: CoxModel, covariates, t: float) -> np.ndarray:
    """Probability of surviving past day t, one per covariate row."""
    if t < 0:
        raise ValueError("time must be non-negative")
    lam0, _ = model.cumulative_hazard(t)
    return np.exp(-lam0 * model.risk(covariates))


def predict_mortality7(model: CoxModel, covariates) -> np.ndarray:
    """Seven-day mortality, one per covariate row."""
    return 1.0 - predict_survival(model, covariates, MORTALITY_WINDOW_DAYS)


def concordance_index(model: CoxModel, design: CoxDesign) -> float:
    """Harrell's C over comparable pairs (i, j): i has an event and
    duration_i < duration_j. Concordant when risk_i > risk_j; risk ties
    count one half. The counts are sums of integers and halves, so they do
    not depend on the row order."""
    t, events = design.t, design.events
    risk = model.risk(design.x)
    concordant = 0.0
    comparable = 0
    # durations ascend: an event's later rows are those after its ties
    for i, later in zip(events, np.searchsorted(t, t[events], side="right")):
        comparable += len(t) - int(later)
        concordant += float(np.sum(risk[later:] < risk[i]))
        concordant += 0.5 * float(np.sum(risk[later:] == risk[i]))
    if comparable == 0:
        raise ValueError("no comparable pairs")
    return concordant / comparable


@dataclass
class GridCell:
    l1: float
    l2: float
    concordance: float
    converged: bool
    iterations: int
    residual: float


@dataclass
class ElasticNetGrid:
    l1_values: tuple[float, ...] = DEFAULT_PENALTY_VALUES
    l2_values: tuple[float, ...] = DEFAULT_PENALTY_VALUES
    results: list[GridCell] = field(default_factory=list)


def grid_search(train: CoxDesign, val: CoxDesign, grid: ElasticNetGrid | None = None):
    """Fit every (l1, l2) pair on the training design and score concordance
    on the validation design; ties break toward smaller l1, then smaller l2.
    Each fit starts from the previous cell's coefficients (cells run in
    ascending l1, then l2). Returns (best_l1, best_l2, best_model); scores
    land in grid.results."""
    if grid is None:
        grid = ElasticNetGrid()
    if not grid.l1_values or not grid.l2_values:
        raise GridSearchError("empty penalty grid")
    grid.results.clear()
    best = None
    coef = None
    for l1 in sorted(grid.l1_values):
        for l2 in sorted(grid.l2_values):
            model = fit_cox(train, l1, l2, start=coef)
            coef = model.coef
            score = concordance_index(model, val)
            grid.results.append(GridCell(l1, l2, score, model.converged,
                                         model.iterations, model.residual))
            if model.converged and (best is None or score > best[0]):
                best = (score, l1, l2, model)
    if best is None:
        raise GridSearchError("no grid fit converged")
    _, l1, l2, model = best
    return l1, l2, model


def cosine_similarity(pred, actual) -> float:
    u = np.asarray(pred, dtype=np.float64)
    v = np.asarray(actual, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError("vectors must have equal length")
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ValueError("cosine similarity undefined for a zero vector")
    return float(u @ v / (nu * nv))


def paired_binary_test(pred_labels, actual_labels):
    """McNemar statistic on discordant counts with a 1-df chi-squared
    p-value; (0, 1) when there is no discordance."""
    pred = np.asarray(pred_labels, dtype=bool)
    actual = np.asarray(actual_labels, dtype=bool)
    if pred.shape != actual.shape or pred.size == 0:
        raise ValueError("label vectors must be non-empty and equal length")
    b = int(np.sum(pred & ~actual))
    c = int(np.sum(~pred & actual))
    if b + c == 0:
        return 0.0, 1.0
    statistic = (b - c) ** 2 / (b + c)
    p_value = math.erfc(math.sqrt(statistic / 2.0))
    return float(statistic), float(p_value)


def prune_correlated(data, names, threshold: float = 0.7):
    """Greedy pass in the given order: drop a column whose absolute Pearson
    correlation with any already-retained column exceeds the threshold.
    Zero-variance columns correlate 0 with everything and are retained."""
    x = np.asarray(data, dtype=np.float64)
    if x.shape[0] < 2:
        raise ValueError("need at least two samples to compute correlations")
    if x.shape[1] != len(names):
        raise ValueError("column/name mismatch")
    centered = x - x.mean(axis=0)
    scale = x.std(axis=0)
    retained: list[int] = []
    for j in range(x.shape[1]):
        keep = True
        for k in retained:
            if scale[j] == 0.0 or scale[k] == 0.0:
                continue
            r = float(centered[:, j] @ centered[:, k]) / (
                x.shape[0] * scale[j] * scale[k])
            if abs(r) > threshold:
                keep = False
                break
        if keep:
            retained.append(j)
    return [names[j] for j in retained]


# --- model file ---------------------------------------------------------------

MODEL_MAGIC = "oxyrl-cox-v1"


def save_cox_model(path, model: CoxModel) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(MODEL_MAGIC + "\n")
        fh.write(f"penalty {float(model.l1)!r} {float(model.l2)!r}\n")
        fh.write(f"converged {int(model.converged)}\n")
        fh.write(f"features {len(model.feature_names)}\n")
        for name, value in zip(model.feature_names, model.coef):
            fh.write(f"{name} {float(value)!r}\n")
        fh.write(f"baseline {len(model.baseline_times)}\n")
        for t, h in zip(model.baseline_times, model.baseline_cumhaz):
            fh.write(f"{float(t)!r} {float(h)!r}\n")


def load_cox_model(path) -> CoxModel:
    """Read a model file, checking its structure: any truncated, malformed,
    non-finite or trailing content raises ValueError."""
    with open(path) as fh:
        textfile.fields(fh, MODEL_MAGIC, 0)
        l1, l2 = textfile.finite(*textfile.fields(fh, "penalty", 2))
        (converged,) = textfile.fields(fh, "converged", 1)
        if converged not in ("0", "1"):
            raise ValueError(f"model file holds converged {converged!r}")
        names, coef = [], []
        for _ in range(textfile.count(*textfile.fields(fh, "features", 1))):
            name, value = textfile.fields(fh, count=2)
            names.append(name)
            coef.extend(textfile.finite(value))
        times, cumhaz = [], []
        for _ in range(textfile.count(*textfile.fields(fh, "baseline", 1))):
            t, h = textfile.finite(*textfile.fields(fh, count=2))
            times.append(t)
            cumhaz.append(h)
        if fh.read():
            raise ValueError("malformed model file: trailing data")
    return CoxModel(tuple(names), np.asarray(coef), np.asarray(times),
                    np.asarray(cumhaz), converged=converged == "1",
                    l1=l1, l2=l2)


def write_grid_report(path, grid: ElasticNetGrid) -> None:
    textfile.write_table(path, "l1,l2,concordance,converged,iterations,residual",
                         (vars(cell).values() for cell in grid.results))
