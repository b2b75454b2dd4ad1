"""Fit the regularized proportional-hazards outcome model.

Shows correlation pruning, the elastic-net grid search scored by
concordance on a held-out split, seven-day mortality prediction, and the
paired label metrics.
"""

import numpy as np

from oxyrl import survival

rng = np.random.default_rng(5)
n = 300
true_coef = np.array([0.9, 0.0, -0.6, 0.4])
x = rng.normal(size=(n, 4))
x[:, 1] = x[:, 0] * 0.95 + rng.normal(scale=0.2, size=n)  # near-duplicate
hazard = np.exp(x @ true_coef)
death = rng.exponential(4.0 / hazard)
censor = rng.uniform(1.0, 10.0, size=n)
duration = np.minimum(np.minimum(death, censor), 7.0)
event = (death <= censor) & (death <= 7.0)

retained = survival.prune_correlated(x, ["a", "b", "c", "d"])
print("retained after correlation pruning:", retained)
keep = [i for i, name in enumerate(["a", "b", "c", "d"]) if name in retained]

x = x[:, keep]
split = int(0.8 * n)
train = survival.CoxDesign.of(x[:split], duration[:split], event[:split])
val = survival.CoxDesign.of(x[split:], duration[split:], event[split:])
grid = survival.ElasticNetGrid()
l1, l2, model = survival.grid_search(train, val, grid)
print(f"grid searched {len(grid.results)} penalty pairs; "
      f"selected l1={l1}, l2={l2}")
print("coefficients:", np.round(model.coef, 3))
print(f"validation concordance: "
      f"{survival.concordance_index(model, val):.3f}")

mortality = survival.predict_mortality7(model, x[split:])
actual = event[split:]
predicted = mortality >= 0.5
alive_pred = (~predicted).astype(float)
alive_true = (~actual).astype(float)
print(f"seven-day mortality predictions: mean {mortality.mean():.3f}")
print(f"cosine similarity of survival labels: "
      f"{survival.cosine_similarity(alive_pred, alive_true):.4f}")
stat, p = survival.paired_binary_test(predicted, actual)
print(f"paired chi-squared test: statistic {stat:.2f}, p {p:.3g}")

survival.save_cox_model("demo_cox.txt", model)
print("model written to demo_cox.txt")
