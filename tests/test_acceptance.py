"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The end-to-end checks are
seed-frozen; every tolerance is fixed here, none are tuned at runtime.
"""

import os
import time
from collections import namedtuple
from contextlib import contextmanager

import numpy as np
import pytest

from _oracles import (
    breslow_loglik_loop, brute_force_argmax, concordance_loop, dense_memory,
)
from oxyrl import cli, cohort, ddpg, evaluation, nn, survival


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"\n[criterion {number}] FAIL - {title}")
        raise
    print(f"\n[criterion {number}] PASS - {title}")


def rel_err(analytic, numeric, floor=1e-5):
    return abs(analytic - numeric) / max(abs(analytic) + abs(numeric), floor)


# --- criterion 1: gradient oracle ------------------------------------------------

def _relu_clear(params, cache, tol=1e-3):
    for spec, lc in zip(params.specs, cache.layers):
        if spec.kind == nn.ACTIVATION and spec.activation == "relu":
            if np.any(np.abs(lc["z"]) < tol):
                return False
    return True


def _safe_setup(seed, state_dim=4, n=5):
    """Random nets and a batch whose relu pre-activations sit away from
    kinks in every pass the finite differences will traverse."""
    rng = np.random.default_rng(seed)
    critic = ddpg.CriticNet.build(state_dim, 1000 + seed)
    actor = ddpg.ActorNet.build(state_dim, 2000 + seed)
    for _ in range(60):
        states = rng.normal(size=(n, state_dim))
        actions = rng.uniform(5.0, 55.0, size=n)
        targets_vec = rng.normal(scale=2.0, size=n)
        _, (cs, ct) = critic.forward_train(states, actions)
        flows, actor_cache = actor.forward_train(states)
        _, (cs2, ct2) = critic.forward_infer_cached(states, flows)
        if all(_relu_clear(p, c) for p, c in (
                (critic.state_net, cs), (critic.trunk, ct),
                (actor.net, actor_cache),
                (critic.state_net, cs2), (critic.trunk, ct2))):
            return critic, actor, states, actions, targets_vec
    raise AssertionError("could not find a kink-free configuration")


def test_criterion_1_gradient_oracle():
    with criterion(1, "analytic gradients match central finite differences"):
        start = time.time()
        eps = 1e-5
        worst = 0.0
        for seed in range(20):
            critic, actor, states, actions, targets_vec = _safe_setup(seed)

            def critic_loss():
                q, _ = critic.forward_train(states, actions)
                d = q - targets_vec
                return 0.5 * float(np.mean(d * d))

            q, caches = critic.forward_train(states, actions)
            dq = (q - targets_vec) / len(q)
            (sg, tg), _, _ = critic.backward(caches, dq)
            for net, grads in ((critic.state_net, sg), (critic.trunk, tg)):
                for i, key, arr in nn.iter_arrays(net, trainable_only=True):
                    flat = arr.reshape(-1)
                    g = grads[i][key].reshape(-1)
                    for j in range(flat.size):
                        orig = flat[j]
                        flat[j] = orig + eps
                        hi = critic_loss()
                        flat[j] = orig - eps
                        lo = critic_loss()
                        flat[j] = orig
                        worst = max(worst, rel_err(g[j], (hi - lo) / (2 * eps)))

            def actor_objective():
                flows, _ = actor.forward_train(states)
                qv, _ = critic.forward_infer_cached(states, flows)
                return float(np.mean(qv))

            flows, actor_cache = actor.forward_train(states)
            qv, critic_caches = critic.forward_infer_cached(states, flows)
            dqv = np.full(len(qv), 1.0 / len(qv))
            _, _, daction = critic.backward(critic_caches, dqv)
            agrads = actor.backward(actor_cache, daction)
            for i, key, arr in nn.iter_arrays(actor.net, trainable_only=True):
                flat = arr.reshape(-1)
                g = agrads[i][key].reshape(-1)
                for j in range(flat.size):
                    orig = flat[j]
                    flat[j] = orig + eps
                    hi = actor_objective()
                    flat[j] = orig - eps
                    lo = actor_objective()
                    flat[j] = orig
                    worst = max(worst, rel_err(g[j], (hi - lo) / (2 * eps)))
        elapsed = time.time() - start
        print(f"  max relative error {worst:.2e} over 20 seeds in {elapsed:.1f}s")
        assert worst < 1e-4
        assert elapsed < 60.0


# --- criterion 2: Cox oracle -------------------------------------------------------

def test_criterion_2_cox_oracle():
    with criterion(2, "penalty-free fits match brute-force grid maximization"):
        start = time.time()
        rng = np.random.default_rng(2026)
        checked = 0
        while checked < 10:
            p = 1 + checked % 2
            n = int(rng.integers(5, 11))
            x = rng.normal(size=(n, p))
            t = rng.uniform(0.5, 10.0, size=n)
            e = rng.random(n) < 0.6
            if e.sum() < 2 or (~e).sum() < 1:
                continue
            model = fit = survival.fit_cox(survival.CoxDesign.of(x, t, e), debug=True)
            if not (fit.converged and np.all(np.abs(fit.coef) < 3.0)):
                continue
            oracle = brute_force_argmax(
                lambda b: breslow_loglik_loop(x, t, e, b), p, pts=31)
            np.testing.assert_allclose(model.coef, oracle, atol=1e-3)
            checked += 1
        elapsed = time.time() - start
        print(f"  10 micro-datasets matched within 1e-3 in {elapsed:.1f}s")
        assert elapsed < 60.0


# --- criterion 3: concordance oracle --------------------------------------------------

def test_criterion_3_concordance_oracle():
    with criterion(3, "concordance equals exhaustive pair counting"):
        rng = np.random.default_rng(3)
        model = survival.CoxModel(("a", "b"), np.array([0.8, -0.5]),
                                  np.array([]), np.array([]))
        for _ in range(100):
            n = int(rng.integers(4, 51))
            x = rng.normal(size=(n, 2))
            if n > 8:
                x[1] = x[0]  # risk ties exercised
            t = rng.uniform(0, 6, size=n).round(1)
            e = rng.random(n) < 0.6
            if not e.any():
                e[int(rng.integers(0, n))] = True
            design = survival.CoxDesign.of(x, t, e)
            risk = model.risk(x)
            try:
                ours = survival.concordance_index(model, design)
            except ValueError:
                continue
            assert ours == concordance_loop(risk, t, e)


# --- criterion 4: exact identities -----------------------------------------------------

def test_criterion_4_exact_identities():
    with criterion(4, "polyak endpoints, discount-zero targets, terminal "
                      "truncation, affine imputation, partition, null policy"):
        rng = np.random.default_rng(4)

        # polyak endpoints
        critic_a, actor_a = ddpg.CriticNet.build(3, 1), ddpg.ActorNet.build(3, 2)
        critic_b, actor_b = ddpg.CriticNet.build(3, 3), ddpg.ActorNet.build(3, 4)
        targets = ddpg.TargetPair(critic_a.copy(), actor_a.copy())
        kept = ddpg.polyak_update(targets, critic_b, actor_b, 1.0)
        copied = ddpg.polyak_update(targets, critic_b, actor_b, 0.0)
        for i, key, arr in nn.iter_arrays(kept.actor.net):
            np.testing.assert_array_equal(arr, actor_a.net.layers[i][key])
        for i, key, arr in nn.iter_arrays(copied.critic.trunk):
            np.testing.assert_array_equal(arr, critic_b.trunk.layers[i][key])

        # discount-zero and terminal bootstrap truncation
        batch = ddpg.Batch(
            states=rng.normal(size=(6, 3)), actions=rng.uniform(0, 60, 6),
            rewards=np.array([0.0, 15.0, -15.0, 0.0, 15.0, -15.0]),
            next_states=rng.normal(size=(6, 3)),
            terminal=np.array([False, True, True, False, True, True]))
        np.testing.assert_array_equal(
            ddpg.td_target(batch, targets, 0.0), batch.rewards)
        full = ddpg.td_target(batch, targets, 0.99)
        np.testing.assert_array_equal(full[batch.terminal],
                                      batch.rewards[batch.terminal])

        # affine interpolation exactness
        for _ in range(10):
            alpha, beta = rng.normal(size=2)
            times = np.sort(rng.uniform(0, 24, size=5))
            series = [(float(t), float(alpha * t + beta)) for t in times]
            grid = np.linspace(times[0], times[-1], 9)
            np.testing.assert_allclose(cohort.impute_linear(series, grid),
                                       alpha * grid + beta, atol=1e-12)

        # hospital partition is exact
        records = cohort.generate_synthetic_cohort(
            cohort.GeneratorConfig(n_patients=60, seed=6))
        schema = cohort.default_schema()
        matrix = cohort.stack_trajectories(records, schema, 8.0)
        folds = [([records[i] for i in train], [records[i] for i in test])
                 for train, test in cohort.split_by_hospital(matrix.hospital_ids)]
        collected = sorted(r.patient_id for _, test in folds for r in test)
        assert collected == sorted(r.patient_id for r in records)
        for train, test in folds:
            assert {r.patient_id for r in train}.isdisjoint(
                {r.patient_id for r in test})

        # null-policy evaluation identities
        everyone = np.arange(len(records))
        stats = cohort.compute_feature_stats(records, schema)
        normalized = cohort.apply_feature_stats(matrix, stats)
        model, grid_obj, retained, fstats = evaluation.fit_outcome_model(
            normalized, schema, seed=0)
        fold = evaluation.evaluate_patients(
            "all", matrix, everyone, schema, stats, evaluation.mirror_policy(),
            model, retained, fstats, grid=grid_obj)
        report = evaluation.build_report(
            [fold], evaluation.EvalOptions(n_bootstrap=100, seed=0))
        assert report.consistency == 1.0
        assert report.reduction == 0.0
        assert report.rl_mortality == report.logged_mortality
        assert report.rl_ci == report.logged_ci
        assert report.rl_flow == report.logged_flow
        for row in report.subgroups:
            if row.count:
                assert row.rl_mortality == row.logged_mortality


# --- criterion 5: toy-MDP value recovery --------------------------------------------------

TOY_GAMMA = 0.99
TOY_A = np.array([1.0, 0.0])
TOY_B = np.array([0.0, 1.0])
TOY_CENTER_A, TOY_CENTER_B, TOY_WINDOW = 20.0, 40.0, 10.0
ToyTransition = namedtuple("ToyTransition",
                           "state action reward next_state terminal")


def toy_transitions():
    """Two-state deterministic MDP in continuous coordinates: an in-window
    dose at A leads to B, anything else is an absorbing death; at B an
    in-window dose discharges (+15), anything else dies (-15)."""
    return [
        ToyTransition(TOY_A, 20.0, 0.0, TOY_B, False),
        ToyTransition(TOY_A, 0.0, -15.0, TOY_A, True),
        ToyTransition(TOY_A, 45.0, -15.0, TOY_A, True),
        ToyTransition(TOY_B, 40.0, 15.0, TOY_B, True),
        ToyTransition(TOY_B, 15.0, -15.0, TOY_B, True),
        ToyTransition(TOY_B, 59.0, -15.0, TOY_B, True),
    ]


def toy_q_star(state, action):
    """Exhaustive backward induction on the two-state MDP."""
    v_b = 15.0   # best continuation from B: discharge
    if state[0] == 1.0:
        return TOY_GAMMA * v_b if abs(action - TOY_CENTER_A) <= TOY_WINDOW else -15.0
    return 15.0 if abs(action - TOY_CENTER_B) <= TOY_WINDOW else -15.0


def test_criterion_5_toy_mdp_value_recovery():
    with criterion(5, "toy-MDP value and policy recovery"):
        start = time.time()
        toy = toy_transitions()
        memory = dense_memory(
            states=np.asarray([t.state for t in toy], dtype=np.float64),
            actions=np.asarray([t.action for t in toy], dtype=np.float64),
            rewards=np.asarray([t.reward for t in toy], dtype=np.float64),
            next_states=np.asarray([t.next_state for t in toy], dtype=np.float64),
            terminal=np.asarray([t.terminal for t in toy], dtype=bool), seed=0)
        config = ddpg.TrainingConfig(max_iterations=30000, patience=30000, seed=1)
        result = ddpg.train(memory, config)
        # the polyak-averaged value function is the algorithm's stabilized
        # estimate; the online snapshot dithers with fixed-rate Adam
        worst = 0.0
        for t in toy_transitions():
            q_hat = result.targets.critic.q_values(
                t.state[None, :], np.array([t.action]))[0]
            worst = max(worst, abs(q_hat - toy_q_star(t.state, t.action)))
        pi_a = ddpg.recommend(result.actor, TOY_A)
        pi_b = ddpg.recommend(result.actor, TOY_B)
        elapsed = time.time() - start
        print(f"  max |Q - Q*| = {worst:.3f}; policy ({pi_a:.1f}, {pi_b:.1f}) "
              f"vs optimal (20, 40); {elapsed:.0f}s")
        assert worst < 0.5
        assert abs(pi_a - TOY_CENTER_A) <= 5.0
        assert abs(pi_b - TOY_CENTER_B) <= 5.0
        assert elapsed < 300.0


# --- criterion 6: end-to-end directional reproduction ---------------------------------------

STANDARD_COHORT_SEED = 2024
STANDARD_TRAIN_SEED = 11
STANDARD_EVAL_SEED = 11


@pytest.fixture(scope="module")
def standard_loho():
    schema = cohort.default_schema()
    generator = cohort.GeneratorConfig(n_patients=2000, seed=STANDARD_COHORT_SEED)
    assert generator.behavior_bias == 5.0
    assert generator.under_dose_curvature > 0 and generator.over_dose_curvature > 0
    records = cohort.generate_synthetic_cohort(generator, schema)
    config = ddpg.TrainingConfig(max_iterations=10000, patience=10000,
                                 seed=STANDARD_TRAIN_SEED)
    runs = evaluation.loho_cross_validate(records, schema, config,
                                          interval_hours=8.0)
    options = evaluation.EvalOptions(seed=STANDARD_EVAL_SEED, curve_bin_width=10.0)
    report = evaluation.build_report([r.fold for r in runs], options)
    return runs, report


def test_criterion_6_directional_reproduction(standard_loho):
    with criterion(6, "LOHO mortality reduction with non-overlapping CIs and "
                      "curve minimum in the zero-difference bin"):
        start = time.time()
        runs, report = standard_loho
        assert len(runs) == 4
        print(f"  recommended {100 * report.rl_mortality:.2f}% "
              f"({100 * report.rl_ci[0]:.2f}-{100 * report.rl_ci[1]:.2f}) vs "
              f"logged {100 * report.logged_mortality:.2f}% "
              f"({100 * report.logged_ci[0]:.2f}-{100 * report.logged_ci[1]:.2f})")
        assert report.rl_mortality < report.logged_mortality
        assert report.rl_ci[1] < report.logged_ci[0]
        supported = [p for p in report.curve if not p.low_support]
        best = min(supported, key=lambda p: p.observed_mortality)
        print(f"  curve minimum bin [{best.low:g}, {best.high:g}) "
              f"mortality {best.observed_mortality:.3f} over {best.count} patients")
        assert best.low <= 0.0 < best.high
        assert time.time() - start < 1800.0


def test_td_error_reduction_on_standard_cohort(standard_loho):
    # training-loop health on the standard cohort: the mean squared TD error
    # settles well below its starting level in every fold
    runs, _ = standard_loho
    for run in runs:
        td = np.asarray(run.training_log.td_mse)
        initial = td[:50].mean()
        final = td[-50:].mean()
        assert final <= 0.5 * initial, (initial, final)


# --- criterion 7: early stopping ---------------------------------------------------------

def test_criterion_7_early_stopping_window():
    with criterion(7, "training halts exactly 500 iterations after the last "
                      "consistency improvement"):
        rng = np.random.default_rng(7)
        states = rng.normal(size=(120, 3))
        memory = dense_memory(
            states=states, actions=rng.uniform(0, 60, 120),
            rewards=np.zeros(120), next_states=rng.normal(size=(120, 3)),
            terminal=np.zeros(120, dtype=bool), seed=0)
        config = ddpg.TrainingConfig(max_iterations=5000, patience=500,
                                     consistency_every=50, seed=2)
        result = ddpg.train(memory, config, consistency_fn=lambda a, d: 1.0)
        assert result.log.stop_reason == "early_stop"
        # frozen metric: the first evaluation (iteration 50) is the only
        # improvement; the loop halts exactly 500 iterations later
        assert result.log.consistency[0][0] == 50
        assert result.log.n_iterations == 550


# --- criterion 8: grid search ---------------------------------------------------------------

def test_criterion_8_grid_search_audit():
    with criterion(8, "25 penalty pairs recorded; winner is the tie-broken "
                      "argmax of validation concordance"):
        rng = np.random.default_rng(8)

        def survival_set(seed, n=60):
            r = np.random.default_rng(seed)
            coef = np.array([1.0, 0.0, -0.8])
            x = r.normal(size=(n, 3))
            t = r.exponential(1.0 / np.exp(x @ coef))
            censor = r.exponential(np.median(t) * 2, size=n)
            return survival.CoxDesign.of(x, np.minimum(t, censor), t <= censor)

        grid = survival.ElasticNetGrid()
        l1, l2, model = survival.grid_search(survival_set(81), survival_set(82), grid)
        assert len(grid.results) == 25
        assert {(c.l1, c.l2) for c in grid.results} == {
            (a, b) for a in survival.DEFAULT_PENALTY_VALUES
            for b in survival.DEFAULT_PENALTY_VALUES}
        best_score = max(c.concordance for c in grid.results if c.converged)
        tied = sorted((c.l1, c.l2) for c in grid.results
                      if c.converged and c.concordance == best_score)
        assert (l1, l2) == tied[0]
        assert (model.l1, model.l2) == (l1, l2)


# --- criterion 9: byte determinism ------------------------------------------------------------

def _tree_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            out[os.path.relpath(path, root)] = open(path, "rb").read()
    return out


def test_criterion_9_cli_byte_determinism(tmp_path):
    with criterion(9, "generate/train/evaluate/loho byte-identical across "
                      "same-seed reruns"):
        trees = {}
        for attempt in ("a", "b"):
            base = tmp_path / attempt
            gen_dir = base / "cohort"
            assert cli.main(["generate", "--out", str(gen_dir),
                             "--n-patients", "80", "--seed", "17"]) == 0
            train_dir = base / "train"
            assert cli.main(["train", "--out", str(train_dir),
                             "--cohort", str(gen_dir / "cohort.csv"),
                             "--schema", str(gen_dir / "schema.txt"),
                             "--seed", "3", "--max-iterations", "40",
                             "--consistency-every", "10"]) == 0
            eval_dir = base / "eval"
            assert cli.main(["evaluate", "--out", str(eval_dir),
                             "--cohort", str(gen_dir / "cohort.csv"),
                             "--schema", str(gen_dir / "schema.txt"),
                             "--checkpoint", str(train_dir / "policy.ckpt"),
                             "--seed", "5", "--n-bootstrap", "100"]) == 0
            loho_dir = base / "loho"
            assert cli.main(["loho", "--out", str(loho_dir),
                             "--cohort", str(gen_dir / "cohort.csv"),
                             "--schema", str(gen_dir / "schema.txt"),
                             "--seed", "5", "--max-iterations", "12",
                             "--consistency-every", "6",
                             "--n-bootstrap", "60"]) == 0
            trees[attempt] = {
                name: _tree_bytes(base / name)
                for name in ("cohort", "train", "eval", "loho")}
        for name in ("cohort", "train", "eval", "loho"):
            assert trees["a"][name] == trees["b"][name], f"{name} outputs differ"
