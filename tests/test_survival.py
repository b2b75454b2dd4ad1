import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from _oracles import (
    breslow_loglik_loop, brute_force_argmax, concordance_loop,
    proximal_gradient_cox,
)
from oxyrl import survival
from oxyrl.survival import (
    CoxDesign, CoxModel, ElasticNetGrid, FitError, SurvivalSample,
    concordance_index, cosine_similarity, fit_cox, grid_search,
    paired_binary_test, partial_loglik, predict_mortality7, predict_survival,
    prune_correlated,
)


def samples_from(x, t, e):
    return [SurvivalSample(np.atleast_1d(np.asarray(xi, dtype=float)), float(ti), bool(ei))
            for xi, ti, ei in zip(x, t, e)]


# --- fitting against the brute-force oracle -------------------------------------

def test_fit_matches_brute_force_on_one_covariate():
    # smallest mixed dataset with an interior maximizer: two events, two
    # censored, covariate split across both
    x = np.array([[1.0], [0.0], [1.0], [0.0]])
    t = np.array([1.0, 2.0, 3.0, 4.0])
    e = np.array([True, True, False, False])
    model = fit_cox(samples_from(x, t, e))
    assert model.converged
    oracle = brute_force_argmax(lambda b: breslow_loglik_loop(x, t, e, b), 1)
    np.testing.assert_allclose(model.coef, oracle, atol=1e-3)


def test_fit_matches_brute_force_on_random_micro_datasets():
    rng = np.random.default_rng(42)
    for _ in range(3):
        for p in (1, 2):
            while True:
                n = int(rng.integers(5, 11))
                x = rng.normal(size=(n, p))
                t = rng.uniform(0.5, 10.0, size=n)
                e = rng.random(n) < 0.6
                if e.sum() >= 2 and (~e).sum() >= 1:
                    model = fit_cox(samples_from(x, t, e))
                    if model.converged and np.all(np.abs(model.coef) < 3.0):
                        break
            oracle = brute_force_argmax(
                lambda b: breslow_loglik_loop(x, t, e, b), p)
            np.testing.assert_allclose(model.coef, oracle, atol=1e-3)


def test_all_zero_covariates_recover_event_count_hazard():
    x = np.zeros((5, 2))
    t = np.array([1.0, 2.0, 2.0, 3.0, 4.0])
    e = np.array([True, True, True, False, True])
    model = fit_cox(samples_from(x, t, e))
    np.testing.assert_array_equal(model.coef, np.zeros(2))
    # risk sets shrink 5 -> 4 -> 1; two deaths share the t=2 denominator
    np.testing.assert_allclose(model.baseline_times, [1.0, 2.0, 4.0])
    np.testing.assert_allclose(model.baseline_cumhaz,
                               np.cumsum([1 / 5, 2 / 4, 1 / 1]))


def test_huge_l1_zeroes_every_coefficient():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(20, 3))
    t = rng.uniform(1, 5, 20)
    e = rng.random(20) < 0.5
    model = fit_cox(samples_from(x, t, e), l1=1e3)
    np.testing.assert_array_equal(model.coef, np.zeros(3))
    assert model.converged


def test_fit_requires_an_event():
    x = np.ones((3, 1))
    with pytest.raises(FitError):
        fit_cox(samples_from(x, [1, 2, 3], [False, False, False]))


def test_debug_mode_checks_monotone_objective():
    rng = np.random.default_rng(7)
    for l1, l2 in ((0.0, 0.0), (0.05, 0.0), (0.02, 0.04)):
        x = rng.normal(size=(30, 3))
        t = rng.uniform(1, 8, 30)
        e = rng.random(30) < 0.5
        model = fit_cox(samples_from(x, t, e), l1=l1, l2=l2, debug=True)
        assert model.converged


def test_scale_covariance_of_unpenalized_fit():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(25, 2))
    t = rng.uniform(1, 6, 25)
    e = rng.random(25) < 0.6
    base = fit_cox(samples_from(x, t, e))
    scaled_x = x.copy()
    scaled_x[:, 1] *= 10.0
    scaled = fit_cox(samples_from(scaled_x, t, e))
    np.testing.assert_allclose(scaled.coef[1], base.coef[1] / 10.0, atol=1e-6)
    np.testing.assert_allclose(scaled.risk(scaled_x), base.risk(x), atol=1e-6)


# --- partial likelihood derivatives ----------------------------------------------

@st.composite
def tied_cox_data(draw):
    """Small datasets whose durations come from four values, so ties and
    tied events are common."""
    p = draw(st.integers(1, 3))
    n = draw(st.integers(2, 12))
    x = draw(arrays(np.float64, (n, p), elements=st.floats(-2.0, 2.0)))
    t = draw(arrays(np.float64, n, elements=st.sampled_from([1.0, 2.0, 2.5, 4.0])))
    e = draw(arrays(bool, n))
    assume(e.any())
    beta = draw(arrays(np.float64, p, elements=st.floats(-1.0, 1.0)))
    return x, t, e, beta


def design_of(x, t, e):
    return CoxDesign.from_samples(samples_from(x, t, e))


def penalized_objective(x, t, e, beta, l1, l2):
    """The fit's objective, by the double-loop likelihood."""
    return (-breslow_loglik_loop(x, t, e, beta) + 0.5 * l2 * float(beta @ beta)
            + l1 * float(np.abs(beta).sum()))


@settings(max_examples=60, deadline=None)
@given(data=tied_cox_data(), l1=st.floats(0.0, 0.5), l2=st.floats(0.01, 0.5),
       warm=st.booleans())
def test_penalized_objective_never_rises(data, l1, l2, warm):
    # debug=True raises as soon as an accepted step raises the objective;
    # l2 > 0 keeps every drawn problem bounded below
    x, t, e, beta = data
    start = beta if warm else np.zeros(x.shape[1])
    model = fit_cox(samples_from(x, t, e), l1=l1, l2=l2, start=start,
                    max_iterations=200, debug=True)
    before = penalized_objective(x, t, e, start, l1, l2)
    after = penalized_objective(x, t, e, model.coef, l1, l2)
    assert after <= before + 1e-9 * (1 + abs(before))



@settings(max_examples=60, deadline=None)
@given(tied_cox_data())
def test_presorted_loglik_matches_double_loop(data):
    x, t, e, beta = data
    ll, _, _ = partial_loglik(design_of(x, t, e), beta)
    np.testing.assert_allclose(ll, breslow_loglik_loop(x, t, e, beta),
                               rtol=1e-12, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(tied_cox_data())
def test_gradient_and_information_match_central_differences(data):
    x, t, e, beta = data
    design = design_of(x, t, e)
    _, grad, info = partial_loglik(design, beta)
    h = 1e-6
    for j in range(len(beta)):
        step = np.zeros_like(beta)
        step[j] = h
        ll_hi, grad_hi, _ = partial_loglik(design, beta + step)
        ll_lo, grad_lo, _ = partial_loglik(design, beta - step)
        np.testing.assert_allclose(grad[j], (ll_hi - ll_lo) / (2 * h),
                                   rtol=1e-6, atol=1e-6)
        np.testing.assert_allclose(info[:, j], -(grad_hi - grad_lo) / (2 * h),
                                   rtol=1e-6, atol=1e-6)


# --- prediction -------------------------------------------------------------------

def fitted_toy_model():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(40, 2))
    t = rng.uniform(0.5, 9.0, 40)
    e = rng.random(40) < 0.5
    return fit_cox(samples_from(x, t, e)), x


def test_survival_is_one_at_time_zero():
    model, x = fitted_toy_model()
    assert predict_survival(model, x[0], 0.0) == 1.0


def test_zero_coef_gives_identical_survival():
    model, x = fitted_toy_model()
    flat = CoxModel(model.feature_names, np.zeros(2), model.baseline_times,
                    model.baseline_cumhaz)
    values = {predict_survival(flat, xi, 5.0) for xi in x}
    assert len(values) == 1


def test_doubling_relative_risk_squares_survival():
    model, _ = fitted_toy_model()
    coef = model.coef
    s1 = np.array([0.3, -0.2])
    # shift along coef so the linear predictor grows by exactly ln 2
    s2 = s1 + coef * (math.log(2.0) / float(coef @ coef))
    for t in (1.0, 3.0, 6.5):
        q1 = predict_survival(model, s1, t)
        q2 = predict_survival(model, s2, t)
        np.testing.assert_allclose(q2, q1 ** 2, rtol=1e-10)


def test_survival_monotone_in_time_and_bounded():
    model, x = fitted_toy_model()
    times = np.linspace(0, 12, 40)
    for xi in x[:5]:
        values = [predict_survival(model, xi, t) for t in times]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))


def test_extrapolation_flag_beyond_last_step():
    model, _ = fitted_toy_model()
    last = model.baseline_times[-1]
    held, extrapolated = model.cumulative_hazard(last + 100.0)
    assert extrapolated
    assert held == model.baseline_cumhaz[-1]
    inside, flag = model.cumulative_hazard(float(last))
    assert not flag and inside == model.baseline_cumhaz[-1]


def test_mortality7_zero_without_baseline_hazard():
    model = CoxModel(("a",), np.zeros(1), np.array([]), np.array([]))
    assert predict_mortality7(model, np.array([3.0])) == 0.0


def test_mortality7_in_unit_interval_and_monotone():
    rng = np.random.default_rng(11)
    model, x = fitted_toy_model()
    for xi in x[:10]:
        m = predict_mortality7(model, xi)
        assert 0.0 <= m <= 1.0
    # raising a coordinate with positive coefficient raises mortality
    k = int(np.argmax(np.abs(model.coef)))
    sign = math.copysign(1.0, model.coef[k])
    base = np.zeros(2)
    bumped = base.copy()
    bumped[k] += sign
    assert predict_mortality7(model, bumped) > predict_mortality7(model, base)


# --- concordance ----------------------------------------------------------------

def test_concordance_perfectly_anti_ordered_is_one():
    x = np.array([[3.0], [2.0], [1.0], [0.0]])
    t = [1.0, 2.0, 3.0, 4.0]
    e = [True, True, True, True]
    model = CoxModel(("a",), np.ones(1), np.array([]), np.array([]))
    assert concordance_index(model, samples_from(x, t, e)) == 1.0


def test_concordance_ordered_with_time_is_zero():
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    t = [1.0, 2.0, 3.0, 4.0]
    e = [True, True, True, True]
    model = CoxModel(("a",), np.ones(1), np.array([]), np.array([]))
    assert concordance_index(model, samples_from(x, t, e)) == 0.0


def test_concordance_matches_pair_counting_oracle():
    rng = np.random.default_rng(8)
    model = CoxModel(("a", "b"), np.array([0.7, -0.4]), np.array([]), np.array([]))
    for _ in range(10):
        n = int(rng.integers(5, 21))
        x = rng.normal(size=(n, 2))
        # duplicated covariates make risk ties reachable
        if n > 6:
            x[1] = x[0]
        t = rng.uniform(0, 5, n).round(1)
        e = rng.random(n) < 0.6
        if not e.any():
            e[0] = True
        samples = samples_from(x, t, e)
        risk = model.risk(x)
        assert concordance_index(model, samples) == concordance_loop(risk, t, e)


def test_concordance_rejects_no_comparable_pairs():
    model = CoxModel(("a",), np.ones(1), np.array([]), np.array([]))
    samples = samples_from(np.ones((2, 1)), [3.0, 1.0], [False, False])
    with pytest.raises(ValueError):
        concordance_index(model, samples)


# --- grid search -----------------------------------------------------------------

def grid_data(seed=0, n=60):
    rng = np.random.default_rng(seed)
    coef = np.array([1.0, 0.0, -0.8])
    x = rng.normal(size=(n, 3))
    hazard = np.exp(x @ coef)
    t = rng.exponential(1.0 / hazard)
    censor = rng.exponential(np.median(t) * 2, size=n)
    e = t <= censor
    obs = np.minimum(t, censor)
    return samples_from(x, obs, e)


def test_grid_search_singleton_grid():
    train, val = grid_data(1), grid_data(2)
    grid = ElasticNetGrid(l1_values=(0.04,), l2_values=(0.02,))
    l1, l2, model = grid_search(train, val, grid)
    assert (l1, l2) == (0.04, 0.02)
    assert len(grid.results) == 1


def test_grid_search_records_all_25_default_cells():
    train, val = grid_data(3), grid_data(4)
    grid = ElasticNetGrid()
    l1, l2, model = grid_search(train, val, grid)
    assert len(grid.results) == 25
    pairs = {(c.l1, c.l2) for c in grid.results}
    assert len(pairs) == 25
    # winner is the argmax under the smaller-l1-then-smaller-l2 tie-break
    best_score = max(c.concordance for c in grid.results if c.converged)
    tied = sorted((c.l1, c.l2) for c in grid.results
                  if c.converged and c.concordance == best_score)
    assert (l1, l2) == tied[0]


@pytest.mark.parametrize("train_seed, val_seed, n", [(3, 4, 60), (9, 10, 150)])
def test_warm_newton_grid_matches_cold_proximal_gradient(monkeypatch, train_seed,
                                                         val_seed, n):
    train, val = grid_data(train_seed, n), grid_data(val_seed, n)
    models = []
    fit = survival.fit_cox
    monkeypatch.setattr(survival, "fit_cox",
                        lambda *a, **k: models.append(fit(*a, **k)) or models[-1])
    grid = ElasticNetGrid()
    l1, l2, _ = grid_search(train, val, grid)
    assert len(models) == 25

    x = np.array([s.covariates for s in train])
    t = np.array([s.duration for s in train])
    e = np.array([s.event for s in train])
    xv = np.array([s.covariates for s in val])
    tv = np.array([s.duration for s in val])
    ev = np.array([s.event for s in val])
    best = None
    for cell, model in zip(grid.results, models):
        coef, converged = proximal_gradient_cox(x, t, e, cell.l1, cell.l2)
        np.testing.assert_allclose(model.coef, coef, rtol=0, atol=1e-5)
        assert cell.converged == converged
        score = concordance_loop(np.exp(xv @ coef), tv, ev)
        if converged and (best is None or score > best[0]):
            best = (score, cell.l1, cell.l2)
    assert (l1, l2) == best[1:]


def test_grid_search_tie_break_prefers_smaller_l1_then_l2():
    # all-zero covariates make every fit score exactly 0.5, so every cell ties
    x = np.zeros((12, 2))
    t = np.linspace(1, 12, 12)
    e = np.tile([True, False], 6)
    train = samples_from(x, t, e)
    val = samples_from(np.zeros((8, 2)), np.arange(1, 9), [True] * 8)
    grid = ElasticNetGrid(l1_values=(0.04, 0.02), l2_values=(0.04, 0.02))
    l1, l2, _ = grid_search(train, val, grid)
    assert (l1, l2) == (0.02, 0.02)
    assert all(c.concordance == 0.5 for c in grid.results)


# --- similarity metrics -------------------------------------------------------------

def test_cosine_identical_vectors():
    assert cosine_similarity([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(1.0)


def test_cosine_orthogonal_one_hots():
    assert cosine_similarity([1, 0, 0], [0, 1, 0]) == 0.0


def test_cosine_closed_form():
    assert cosine_similarity([1.0, 1.0], [1.0, 0.0]) == pytest.approx(1 / math.sqrt(2))


def test_cosine_zero_vector_rejected():
    with pytest.raises(ValueError):
        cosine_similarity([0.0, 0.0], [1.0, 0.0])


def test_mcnemar_identical_labels():
    stat, p = paired_binary_test([True, False, True], [True, False, True])
    assert (stat, p) == (0.0, 1.0)


def test_mcnemar_one_sided_discordance():
    pred = [True] * 10 + [False] * 5
    actual = [False] * 10 + [False] * 5
    stat, p = paired_binary_test(pred, actual)
    assert stat == 10.0
    assert p == pytest.approx(math.erfc(math.sqrt(5.0)), rel=1e-12)


def test_mcnemar_symmetric_discordance():
    pred = [True] * 5 + [False] * 5
    actual = [False] * 5 + [True] * 5
    stat, p = paired_binary_test(pred, actual)
    assert (stat, p) == (0.0, 1.0)


# --- correlation pruning --------------------------------------------------------------

def test_prune_drops_identical_duplicate():
    rng = np.random.default_rng(0)
    z = rng.normal(size=200)
    data = np.column_stack([z, z])
    assert prune_correlated(data, ["a", "b"]) == ["a"]


def test_prune_retains_independent_noise():
    rng = np.random.default_rng(1)
    data = rng.normal(size=(500, 2))
    r = abs(np.corrcoef(data.T)[0, 1])
    assert r < 0.2
    assert prune_correlated(data, ["a", "b"]) == ["a", "b"]


def test_prune_three_columns_keeps_first_only():
    rng = np.random.default_rng(2)
    n = 4000
    z, u, v = rng.normal(size=(3, n))
    x1 = z
    x2 = 0.8 * z + 0.6 * u
    x3 = 0.8 * z + 0.6 * v
    data = np.column_stack([x1, x2, x3])
    corr = np.corrcoef(data.T)
    assert abs(corr[0, 1]) > 0.7 and abs(corr[0, 2]) > 0.7
    assert abs(corr[1, 2]) < 0.7
    assert prune_correlated(data, ["x1", "x2", "x3"]) == ["x1"]


def test_prune_zero_variance_column_retained():
    rng = np.random.default_rng(3)
    data = np.column_stack([np.ones(50), rng.normal(size=50)])
    assert prune_correlated(data, ["const", "noise"]) == ["const", "noise"]


# --- persistence -----------------------------------------------------------------------

def test_model_file_round_trip(tmp_path):
    model, _ = fitted_toy_model()
    model = CoxModel(("age", "flow"), model.coef, model.baseline_times,
                     model.baseline_cumhaz, converged=True, l1=0.04, l2=0.02)
    path = tmp_path / "cox.txt"
    survival.save_cox_model(path, model)
    loaded = survival.load_cox_model(path)
    assert loaded.feature_names == model.feature_names
    np.testing.assert_array_equal(loaded.coef, model.coef)
    np.testing.assert_array_equal(loaded.baseline_times, model.baseline_times)
    np.testing.assert_array_equal(loaded.baseline_cumhaz, model.baseline_cumhaz)
    assert (loaded.l1, loaded.l2, loaded.converged) == (0.04, 0.02, True)


MODEL_TEXT = ("oxyrl-cox-v1\npenalty 0.04 0.02\nconverged 1\nfeatures 2\n"
              "age 0.5\noxygen_flow -0.25\nbaseline 2\n1.0 0.01\n3.0 0.05\n")


@pytest.mark.parametrize("text", [
    MODEL_TEXT[:MODEL_TEXT.index("converged")] + "conv",                # truncated header
    MODEL_TEXT.replace("penalty 0.04 0.02", "penalty 0.04"),              # short header line
    MODEL_TEXT.replace("features 2", "features 3"),                       # short coefficients
    MODEL_TEXT.replace("oxygen_flow -0.25\n", ""),                        # short coefficients
    MODEL_TEXT.replace("age 0.5", "age nan"),                             # non-finite
    MODEL_TEXT.replace("penalty 0.04", "penalty inf"),                    # non-finite
    MODEL_TEXT.replace("3.0 0.05", "3.0 -inf"),                           # non-finite
    MODEL_TEXT + "4.0 0.07\n",                                            # trailing data
    MODEL_TEXT.replace("3.0 0.05\n", "3.0 0.05"),                         # unterminated
    MODEL_TEXT.replace("baseline 2", "baseline -1"),                      # negative count
])
def test_malformed_model_file_rejected(tmp_path, text):
    path = tmp_path / "cox.txt"
    path.write_text(MODEL_TEXT)
    assert survival.load_cox_model(path).feature_names == ("age", "oxygen_flow")
    path.write_text(text)
    with pytest.raises(ValueError):
        survival.load_cox_model(path)


def test_grid_report_csv(tmp_path):
    train, val = grid_data(5), grid_data(6)
    grid = ElasticNetGrid(l1_values=(0.01, 0.02), l2_values=(0.01,))
    grid_search(train, val, grid)
    path = tmp_path / "grid.csv"
    survival.write_grid_report(path, grid)
    lines = path.read_text().splitlines()
    assert lines[0] == "l1,l2,concordance,converged,iterations,residual"
    assert len(lines) == 3
    for line, cell in zip(lines[1:], grid.results):
        fields = line.split(",")
        assert int(fields[4]) == cell.iterations
        assert float(fields[5]) == cell.residual <= 1e-6
