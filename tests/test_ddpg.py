import os
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import (
    actor_step_functional, copy_optimizer, critic_step_functional, dense_memory,
    gather_each_iteration, polyak_functional, td_target_loop,
)
from oxyrl import cohort, ddpg, nn, parallel
from oxyrl.ddpg import (
    ActorNet, Batch, CriticNet, CriticOptState, PolicyBundle, ReplayMemory,
    TargetPair, TrainingConfig, actor_step, consistency_metric, critic_step,
    gather_minibatches, polyak_update, recommend, td_target, train, train_folds,
)


def constant_critic(state_dim, value, seed=0):
    critic = CriticNet.build(state_dim, seed)
    critic.trunk.layers[-1]["W"][...] = np.zeros_like(critic.trunk.layers[-1]["W"])
    critic.trunk.layers[-1]["b"][...] = np.array([value])
    return critic


def random_memory(rng, n=200, state_dim=3, seed=0):
    states = rng.normal(size=(n, state_dim))
    next_states = rng.normal(size=(n, state_dim))
    actions = rng.uniform(0, 60, n)
    terminal = rng.random(n) < 0.1
    rewards = np.where(terminal, rng.choice([-15.0, 15.0], n), 0.0)
    return dense_memory(states, actions, rewards, next_states, terminal, seed=seed)


def params_equal(a, b):
    return all(np.array_equal(u, v) for (_, _, u), (_, _, v)
               in zip(nn.iter_arrays(a), nn.iter_arrays(b)))


# --- replay memory -----------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(n_rows=st.integers(1, 60), state_dim=st.integers(1, 6), n_folds=st.integers(1, 4),
       sizes=st.lists(st.integers(1, 2600), min_size=4, max_size=4),
       batch_size=st.integers(1, 70), nan_rate=st.sampled_from((0.0, 0.3, 1.0)),
       seed=st.integers(0, 2**32 - 1))
@example(n_rows=5, state_dim=3, n_folds=3, sizes=[2049, 1, 1024, 7], batch_size=64,
         nan_rate=0.3, seed=0)
def test_gathers_and_consistency_match_normalizing_the_whole_matrix(
        n_rows, state_dim, n_folds, sizes, batch_size, nan_rate, seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(30.0, 20.0, size=(n_rows, state_dim))
    raw[rng.random(raw.shape) < nan_rate] = np.nan
    matrix = cohort.CohortMatrix(4.0, np.array([0, n_rows]), raw, np.zeros(n_rows),
                                 ("p0",), np.array(["H1"]), np.array([cohort.DIED]),
                                 np.array([4.0]))
    memories, dense = [], []
    for f, n in enumerate(sizes[:n_folds]):
        stats = cohort.FeatureStats(tuple("abcdef"[:state_dim]),
                                    rng.normal(30.0, 20.0, state_dim),
                                    rng.uniform(0.1, 30.0, state_dim))
        rows, next_rows = rng.integers(0, n_rows, size=(2, n))
        memories.append(ReplayMemory(raw, rows, next_rows, rng.uniform(0, 60, n),
                                     rng.normal(size=n), rng.random(n) < 0.3,
                                     stats.means, stats.sds, seed=f))
        dense.append(cohort.apply_feature_stats(matrix, stats).states)
    draws = [rng.integers(0, len(m), size=batch_size) for m in memories]
    stacked = gather_minibatches(memories, draws,
                                 *(np.stack([getattr(m, k) for m in memories])[:, None]
                                   for k in ("means", "sds")))
    actor = ActorNet.build(state_dim, seed)
    for f, (memory, normalized, idx) in enumerate(zip(memories, dense, draws)):
        expected = Batch(normalized[memory.rows[idx]], memory.actions[idx],
                         memory.rewards[idx], normalized[memory.next_rows[idx]],
                         memory.terminal[idx])
        alone = gather_minibatches([memory], [idx], memory.means, memory.sds).take(0)
        for batch in (alone, stacked.take(f)):
            for name in ("states", "actions", "rewards", "next_states", "terminal"):
                got, want = getattr(batch, name), getattr(expected, name)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()
        # the whole memory scored in one pass, as before gathers normalized
        recommended = actor.act(normalized[memory.rows])
        assert consistency_metric(actor, memory) == float(
            np.mean((recommended - memory.actions) ** 2))


# --- td_target ---------------------------------------------------------------

def test_td_target_terminal_ignores_networks():
    rng = np.random.default_rng(0)
    batch = Batch(states=rng.normal(size=(4, 3)),
                  actions=rng.uniform(0, 60, 4),
                  rewards=np.array([-15.0, 15.0, -15.0, 15.0]),
                  next_states=rng.normal(size=(4, 3)),
                  terminal=np.ones(4, dtype=bool))
    targets = TargetPair.from_online(CriticNet.build(3, 1), ActorNet.build(3, 2))
    np.testing.assert_array_equal(td_target(batch, targets, 0.99), batch.rewards)


def test_td_target_zero_discount_returns_rewards():
    rng = np.random.default_rng(1)
    batch = Batch(states=rng.normal(size=(5, 3)),
                  actions=rng.uniform(0, 60, 5),
                  rewards=rng.normal(size=5),
                  next_states=rng.normal(size=(5, 3)),
                  terminal=np.zeros(5, dtype=bool))
    targets = TargetPair.from_online(CriticNet.build(3, 3), ActorNet.build(3, 4))
    np.testing.assert_array_equal(td_target(batch, targets, 0.0), batch.rewards)


def test_td_target_constant_critic_hand_value():
    rng = np.random.default_rng(2)
    batch = Batch(states=rng.normal(size=(6, 3)),
                  actions=rng.uniform(0, 60, 6),
                  rewards=np.zeros(6),
                  next_states=rng.normal(size=(6, 3)),
                  terminal=np.zeros(6, dtype=bool))
    targets = TargetPair(constant_critic(3, 7.0), ActorNet.build(3, 5))
    np.testing.assert_allclose(td_target(batch, targets, 0.99),
                               np.full(6, 0.99 * 7.0), atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(n_folds=st.integers(1, 4), batch_size=st.integers(2, 70),
       terminal_rates=st.lists(st.sampled_from((0.0, 0.1, 0.5, 0.9, 1.0)),
                               min_size=4, max_size=4),
       discount=st.sampled_from((0.0, 0.5, 0.99, 1.0)), seed=st.integers(0, 2**32 - 1))
@example(n_folds=3, batch_size=64, terminal_rates=[1.0, 0.0, 1.0, 0.5], discount=0.99,
         seed=0)
def test_stacked_td_target_matches_each_fold_on_its_live_rows(
        n_folds, batch_size, terminal_rates, discount, seed):
    rng = np.random.default_rng(seed)
    state_dim = int(rng.integers(1, 15))
    critics = [CriticNet.build(state_dim, int(rng.integers(2**32))) for _ in range(n_folds)]
    actors = [ActorNet.build(state_dim, int(rng.integers(2**32))) for _ in range(n_folds)]
    if n_folds == 1:
        targets = TargetPair(critics[0], actors[0])
    else:
        targets = TargetPair(
            CriticNet(state_dim, nn.NetworkParams.stack([c.state_net for c in critics]),
                      nn.NetworkParams.stack([c.trunk for c in critics])),
            ActorNet(state_dim, nn.NetworkParams.stack([a.net for a in actors])))
    lead = (n_folds,) if n_folds > 1 else ()
    rates = np.array(terminal_rates[:n_folds]).reshape(lead + (1,))
    batch = Batch(states=rng.normal(size=lead + (batch_size, state_dim)),
                  actions=rng.uniform(0, 60, lead + (batch_size,)),
                  rewards=rng.normal(size=lead + (batch_size,)),
                  next_states=rng.normal(size=lead + (batch_size, state_dim)),
                  terminal=rng.random(lead + (batch_size,)) < rates)
    before = batch.rewards.copy()
    expected = td_target_loop(batch, targets, discount)
    assert td_target(batch, targets, discount).tobytes() == expected.tobytes()
    assert batch.rewards.tobytes() == before.tobytes()


# --- critic_step ---------------------------------------------------------------

def test_critic_perfect_fit_is_fixed_point():
    rng = np.random.default_rng(3)
    critic = CriticNet.build(3, 7)
    batch = Batch(states=rng.normal(size=(8, 3)),
                  actions=rng.uniform(0, 60, 8),
                  rewards=np.zeros(8),
                  next_states=rng.normal(size=(8, 3)),
                  terminal=np.zeros(8, dtype=bool))
    q, _ = critic.forward_train(batch.states, batch.actions)
    opt = CriticOptState(nn.init_optimizer(critic.state_net),
                         nn.init_optimizer(critic.trunk))
    before = critic.copy()
    updated, _, td_mse = critic_step(critic, batch, q, opt, 0.002)
    assert td_mse == 0.0
    assert updated is critic
    # trainable parameters untouched; only running statistics advance
    for net_a, net_b in ((before.state_net, updated.state_net),
                         (before.trunk, updated.trunk)):
        for (i, key, arr) in nn.iter_arrays(net_a, trainable_only=True):
            np.testing.assert_array_equal(arr, net_b.layers[i][key])
        assert net_a.buffer.tobytes() != net_b.buffer.tobytes()


def test_critic_overfits_one_batch():
    rng = np.random.default_rng(4)
    critic = CriticNet.build(3, 11)
    opt = CriticOptState(nn.init_optimizer(critic.state_net),
                         nn.init_optimizer(critic.trunk))
    batch = Batch(states=rng.normal(size=(16, 3)),
                  actions=rng.uniform(0, 60, 16),
                  rewards=np.zeros(16),
                  next_states=rng.normal(size=(16, 3)),
                  terminal=np.zeros(16, dtype=bool))
    targets_vec = rng.normal(size=16)
    losses = []
    for _ in range(50):
        critic, opt, td_mse = critic_step(critic, batch, targets_vec, opt, 0.002)
        losses.append(td_mse)
    assert losses[-1] < losses[0]


def test_critic_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    critic = CriticNet.build(3, 13)
    states = rng.normal(size=(6, 3))
    actions = rng.uniform(10, 50, 6)
    targets_vec = rng.normal(size=6)

    def loss_value():
        q, _ = critic.forward_train(states, actions)
        d = q - targets_vec
        return 0.5 * float(np.mean(d * d))

    q, caches = critic.forward_train(states, actions)
    dq = (q - targets_vec) / len(q)
    (state_grads, trunk_grads), _, _ = critic.backward(caches, dq)
    eps = 1e-5
    for net, grads in ((critic.state_net, state_grads), (critic.trunk, trunk_grads)):
        for i, key, arr in nn.iter_arrays(net, trainable_only=True):
            flat = arr.reshape(-1)
            g = grads[i][key].reshape(-1)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + eps
                hi = loss_value()
                flat[j] = orig - eps
                lo = loss_value()
                flat[j] = orig
                fd = (hi - lo) / (2 * eps)
                denom = max(abs(fd) + abs(g[j]), 1e-5)
                assert abs(fd - g[j]) / denom < 1e-4


@pytest.mark.parametrize("poisoned", [0, 1])   # state branch, trunk
def test_critic_step_rejects_a_non_finite_gradient_without_writing(monkeypatch,
                                                                   poisoned):
    rng = np.random.default_rng(10)
    critic = CriticNet.build(3, 41)
    opt = CriticOptState(nn.init_optimizer(critic.state_net),
                         nn.init_optimizer(critic.trunk))
    batch = Batch(rng.normal(size=(8, 3)), rng.uniform(0, 60, 8), np.zeros(8),
                  rng.normal(size=(8, 3)), np.zeros(8, dtype=bool))
    targets_vec = rng.normal(size=8)
    critic_step(critic, batch, targets_vec, opt, 0.002)   # non-zero moments
    backward = CriticNet.backward

    def poisoning(self, caches, dq):
        grads, dstates, daction = backward(self, caches, dq)
        grads[poisoned].flat[..., -1] = np.nan
        return grads, dstates, daction

    monkeypatch.setattr(CriticNet, "backward", poisoning)

    def written():
        arrays = (critic.state_net.buffer, critic.trunk.buffer, opt.state_net.m,
                  opt.state_net.v, opt.trunk.m, opt.trunk.v)
        return [a.tobytes() for a in arrays] + [opt.state_net.step, opt.trunk.step]

    before = written()
    with pytest.raises(nn.NonFiniteGradientError):
        critic_step(critic, batch, targets_vec, opt, 0.002)
    assert written() == before


# --- actor_step ------------------------------------------------------------------

class QuadraticCriticStub:
    """Analytic critic Q(s, a) = -(a - peak)^2 used to isolate the actor."""

    def __init__(self, peak):
        self.peak = peak

    def forward_infer_cached(self, states, actions):
        a = np.asarray(actions, dtype=np.float64)
        return -(a - self.peak) ** 2, a

    def action_gradient(self, cache, dq):
        return np.asarray(dq) * (-2.0 * (cache - self.peak))


def test_actor_climbs_quadratic_stub_to_peak():
    rng = np.random.default_rng(6)
    actor = ActorNet.build(3, 17)
    opt = nn.init_optimizer(actor.net)
    critic = QuadraticCriticStub(peak=30.0)
    states = rng.normal(size=(32, 3))
    batch = Batch(states, np.zeros(32), np.zeros(32), states,
                  np.zeros(32, dtype=bool))
    for _ in range(2000):
        actor, opt, _ = actor_step(actor, critic, batch, opt, 0.002)
    flows = actor.act(states)
    assert np.all(np.abs(flows - 30.0) <= 0.5)


def test_actor_climbs_offset_peak():
    rng = np.random.default_rng(7)
    actor = ActorNet.build(2, 19)
    opt = nn.init_optimizer(actor.net)
    critic = QuadraticCriticStub(peak=42.0)
    states = rng.normal(size=(32, 2))
    batch = Batch(states, np.zeros(32), np.zeros(32), states,
                  np.zeros(32, dtype=bool))
    for _ in range(2000):
        actor, opt, _ = actor_step(actor, critic, batch, opt, 0.002)
    flows = actor.act(states)
    assert np.all(np.abs(flows - 42.0) <= 1.0)


def test_actor_gradient_zero_when_critic_ignores_action():
    rng = np.random.default_rng(8)
    critic = CriticNet.build(3, 23)
    # sever the action column feeding the trunk
    critic.trunk.layers[0]["W"][ddpg.STATE_HIDDEN, :] = 0.0
    actor = ActorNet.build(3, 29)
    opt = nn.init_optimizer(actor.net)
    states = rng.normal(size=(8, 3))
    batch = Batch(states, np.zeros(8), np.zeros(8), states, np.zeros(8, dtype=bool))
    before = actor.copy()
    updated, _, _ = actor_step(actor, critic, batch, opt, 0.002)
    assert updated is actor
    for i, key, arr in nn.iter_arrays(before.net, trainable_only=True):
        np.testing.assert_array_equal(arr, updated.net.layers[i][key])


def test_actor_gradient_matches_finite_differences():
    rng = np.random.default_rng(9)
    critic = CriticNet.build(3, 31)
    actor = ActorNet.build(3, 37)
    states = rng.normal(size=(6, 3))

    def objective():
        flows, _ = actor.forward_train(states)
        q, _ = critic.forward_infer_cached(states, flows)
        return float(np.mean(q))

    flows, actor_cache = actor.forward_train(states)
    q, critic_caches = critic.forward_infer_cached(states, flows)
    dq = np.full(len(q), 1.0 / len(q))
    _, _, daction = critic.backward(critic_caches, dq)
    grads = actor.backward(actor_cache, daction)
    eps = 1e-5
    for i, key, arr in nn.iter_arrays(actor.net, trainable_only=True):
        flat = arr.reshape(-1)
        g = grads[i][key].reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            hi = objective()
            flat[j] = orig - eps
            lo = objective()
            flat[j] = orig
            fd = (hi - lo) / (2 * eps)
            denom = max(abs(fd) + abs(g[j]), 1e-5)
            assert abs(fd - g[j]) / denom < 1e-4


# --- polyak ------------------------------------------------------------------------

def test_polyak_endpoints_and_midpoint():
    critic_a, actor_a = CriticNet.build(2, 1), ActorNet.build(2, 2)
    critic_b, actor_b = CriticNet.build(2, 3), ActorNet.build(2, 4)
    targets = TargetPair(critic_a, actor_a)

    kept = polyak_update(targets, critic_b, actor_b, 1.0)
    assert params_equal(kept.critic.state_net, critic_a.state_net)
    assert params_equal(kept.actor.net, actor_a.net)

    copied = polyak_update(targets, critic_b, actor_b, 0.0)
    assert params_equal(copied.critic.trunk, critic_b.trunk)
    assert params_equal(copied.actor.net, actor_b.net)

    # scalar midpoint on one weight entry
    a = targets.critic.trunk.layers[-1]["b"].copy()
    b = critic_b.trunk.layers[-1]["b"].copy()
    mid = polyak_update(targets, critic_b, actor_b, 0.5)
    np.testing.assert_allclose(mid.critic.trunk.layers[-1]["b"], 0.5 * a + 0.5 * b)


# --- the whole step against the functional oracle ----------------------------------

def stacked_networks(state_dim, seeds):
    """A critic and an actor per seed, stacked along a fold axis; plain
    networks for a single seed given as an int."""
    if isinstance(seeds, int):
        return CriticNet.build(state_dim, seeds), ActorNet.build(state_dim, seeds + 1)
    nets = [stacked_networks(state_dim, int(seed)) for seed in seeds]
    stack = nn.NetworkParams.stack
    critic = CriticNet(state_dim, stack([c.state_net for c, _ in nets]),
                       stack([c.trunk for c, _ in nets]))
    return critic, ActorNet(state_dim, stack([a.net for _, a in nets]))


@settings(max_examples=30, deadline=None)
@given(n_folds=st.integers(0, 4), batch_size=st.integers(2, 64),
       state_dim=st.integers(1, 6), terminal_rate=st.sampled_from((0.0, 0.3, 1.0)),
       iterations=st.integers(1, 4), discount=st.sampled_from((0.0, 0.99)),
       seed=st.integers(0, 2**31))
@example(n_folds=4, batch_size=64, state_dim=14, terminal_rate=0.3, iterations=3,
         discount=0.99, seed=0)
def test_training_steps_match_the_functional_oracle(n_folds, batch_size, state_dim,
                                                    terminal_rate, iterations,
                                                    discount, seed):
    # consecutive in-place steps, as the training loop takes them (targets
    # blended into their own buffers, each network's gradients in the vector
    # it owns), equal functional ones that rebuild every container and
    # moment, bit for bit
    rng = np.random.default_rng(seed)
    lead = (n_folds,) if n_folds else ()
    critic, actor = stacked_networks(
        state_dim, rng.integers(0, 2**31, n_folds) if n_folds else seed)
    targets = TargetPair.from_online(critic, actor)
    critic_opt = CriticOptState(nn.init_optimizer(critic.state_net),
                                nn.init_optimizer(critic.trunk))
    actor_opt = nn.init_optimizer(actor.net)
    o_critic, o_actor = critic.copy(), actor.copy()
    o_targets = TargetPair.from_online(critic, actor)
    o_critic_opt = CriticOptState(copy_optimizer(critic_opt.state_net),
                                  copy_optimizer(critic_opt.trunk))
    o_actor_opt = copy_optimizer(actor_opt)
    for _ in range(iterations):
        shape = lead + (batch_size,)
        terminal = rng.random(shape) < terminal_rate
        batch = Batch(rng.normal(size=shape + (state_dim,)), rng.uniform(0, 60, shape),
                      np.where(terminal, rng.choice([-15.0, 15.0], shape), 0.0),
                      rng.normal(size=shape + (state_dim,)), terminal)
        targets_vec = td_target(batch, targets, discount)
        o_targets_vec = td_target_loop(batch, o_targets, discount)
        assert targets_vec.tobytes() == o_targets_vec.tobytes()
        _, _, td_mse = critic_step(critic, batch, targets_vec, critic_opt, 0.002)
        o_critic, o_critic_opt, o_td_mse = critic_step_functional(
            o_critic, batch, o_targets_vec, o_critic_opt, 0.002)
        _, _, objective = actor_step(actor, critic, batch, actor_opt, 0.002)
        o_actor, o_actor_opt, o_objective = actor_step_functional(
            o_actor, o_critic, batch, o_actor_opt, 0.002)
        assert polyak_update(targets, critic, actor, 0.9, out=targets) is targets
        o_targets = polyak_functional(o_targets, o_critic, o_actor, 0.9)
        assert np.asarray(td_mse).tobytes() == np.asarray(o_td_mse).tobytes()
        assert np.asarray(objective).tobytes() == np.asarray(o_objective).tobytes()
        log = ddpg.TrainingLog()
        assert result_bytes(ddpg.TrainResult(actor, critic, targets, log, critic_opt,
                                             actor_opt)) == \
            result_bytes(ddpg.TrainResult(o_actor, o_critic, o_targets, log,
                                          o_critic_opt, o_actor_opt))


# --- consistency / recommend ----------------------------------------------------------

def test_consistency_zero_when_actor_reproduces_logged():
    rng = np.random.default_rng(10)
    memory = random_memory(rng)
    actor = ActorNet.build(3, 41)
    everything = [np.arange(len(memory))]
    memory.actions = actor.act(
        gather_minibatches([memory], everything, memory.means, memory.sds).states[0])
    assert consistency_metric(actor, memory) == 0.0


def test_consistency_constant_actor_squared_gap():
    rng = np.random.default_rng(11)
    memory = random_memory(rng)
    memory.actions = np.full(len(memory), 10.0)
    actor = ActorNet.build(3, 43)
    # saturate the output head so the policy pins at 0 L/min
    actor.net.layers[-2]["W"][...] = np.zeros_like(actor.net.layers[-2]["W"])
    actor.net.layers[-2]["b"][...] = np.array([-40.0])
    assert consistency_metric(actor, memory) == pytest.approx(100.0, abs=1e-12)


def test_consistency_matches_loop_oracle():
    rng = np.random.default_rng(12)
    memory = random_memory(rng, n=37)
    actor = ActorNet.build(3, 47)
    everything = [np.arange(len(memory))]
    states = gather_minibatches([memory], everything, memory.means, memory.sds).states[0]
    expected = sum(
        (recommend(actor, states[i]) - memory.actions[i]) ** 2
        for i in range(len(memory))) / len(memory)
    assert consistency_metric(actor, memory) == pytest.approx(expected, rel=1e-12)


def test_recommend_bounds_and_determinism():
    rng = np.random.default_rng(13)
    actor = ActorNet.build(4, 53)
    states = rng.normal(scale=3.0, size=(10000, 4))
    flows = actor.act(states)
    assert np.all((flows >= 0.0) & (flows <= 60.0))
    for i in range(50):
        flow = recommend(actor, states[i])
        assert abs(flow - flows[i]) < 1e-12
        assert recommend(actor, states[i]) == flow


def test_recommend_fresh_actor_zero_state_is_midpoint():
    actor = ActorNet.build(5, 59)
    assert recommend(actor, np.zeros(5)) == 30.0


def test_recommend_rejects_wrong_dimension():
    actor = ActorNet.build(4, 61)
    with pytest.raises(ValueError):
        recommend(actor, np.zeros(3))


# --- train -------------------------------------------------------------------------

def test_train_zero_iterations_returns_initialized_networks():
    rng = np.random.default_rng(14)
    memory = random_memory(rng)
    config = TrainingConfig(max_iterations=0, seed=5)
    result = train(memory, config)
    assert result.log.n_iterations == 0
    assert result.log.td_mse == [] and result.log.consistency == []
    seeds = np.random.SeedSequence(5).spawn(2)
    assert params_equal(result.critic.state_net,
                        CriticNet.build(3, seeds[0]).state_net)
    assert params_equal(result.actor.net, ActorNet.build(3, seeds[1]).net)


def test_train_is_seed_deterministic():
    rng = np.random.default_rng(15)
    memory = random_memory(rng, n=120)
    config = TrainingConfig(max_iterations=30, consistency_every=10, seed=9)
    a = train(memory, config)
    b = train(memory, config)
    assert a.log.td_mse == b.log.td_mse
    assert params_equal(a.actor.net, b.actor.net)
    assert params_equal(a.critic.trunk, b.critic.trunk)
    assert params_equal(a.targets.actor.net, b.targets.actor.net)


def test_train_leaves_memory_untouched():
    rng = np.random.default_rng(16)
    memory = random_memory(rng, n=80)
    snapshot = {k: getattr(memory, k).copy()
                for k in ("source", "rows", "next_rows", "actions", "rewards", "terminal",
                          "means", "sds")}
    train(memory, TrainingConfig(max_iterations=25, consistency_every=5, seed=1))
    for k, v in snapshot.items():
        np.testing.assert_array_equal(getattr(memory, k), v)


def test_train_early_stops_exactly_patience_after_last_improvement():
    rng = np.random.default_rng(17)
    memory = random_memory(rng, n=60)
    config = TrainingConfig(max_iterations=2000, consistency_every=10,
                            patience=100, seed=2)
    result = train(memory, config, consistency_fn=lambda actor, data: 1.0)
    assert result.log.stop_reason == "early_stop"
    # frozen metric: the only improvement is the very first evaluation
    assert result.log.consistency[0] == (10, 1.0)
    assert result.log.n_iterations == 10 + 100


def test_train_runs_to_cap_when_metric_keeps_improving():
    rng = np.random.default_rng(18)
    memory = random_memory(rng, n=60)
    config = TrainingConfig(max_iterations=60, consistency_every=10,
                            patience=20, seed=3)
    ticks = iter(range(100, 0, -1))
    result = train(memory, config, consistency_fn=lambda a, d: float(next(ticks)))
    assert result.log.stop_reason == "max_iterations"
    assert result.log.n_iterations == 60


def test_targets_replay_as_exponential_average(monkeypatch):
    rng = np.random.default_rng(19)
    memory = random_memory(rng, n=60)
    history = []
    original = ddpg.polyak_update

    def recording(targets, critic, actor, rho, out=None):
        # the loop updates its online networks in place: keep copies
        history.append((critic.copy(), actor.copy(), rho))
        return original(targets, critic, actor, rho, out=out)

    monkeypatch.setattr(ddpg, "polyak_update", recording)
    config = TrainingConfig(max_iterations=40, consistency_every=10,
                            polyak=0.9, seed=4)
    result = train(memory, config)
    assert len(history) == 40
    # replay the exponential average from the recorded online parameters
    # (fold 0 of the loop's one-fold stack), into fresh containers: the
    # same two operations give the same bits
    seeds = np.random.SeedSequence(4).spawn(2)
    replay = TargetPair.from_online(CriticNet.build(3, seeds[0]),
                                    ActorNet.build(3, seeds[1]))
    for critic, actor, rho in history:
        assert critic.trunk.buffer.shape[:-1] == actor.net.buffer.shape[:-1] == (1,)
        replay = original(replay, critic.take(0), actor.take(0), rho)
    for net_a, net_b in ((replay.actor.net, result.targets.actor.net),
                         (replay.critic.state_net, result.targets.critic.state_net),
                         (replay.critic.trunk, result.targets.critic.trunk)):
        for (i, key, arr) in nn.iter_arrays(net_a):
            assert arr.tobytes() == net_b.layers[i][key].tobytes()


def test_training_step_makes_online_views_once_and_skips_unread_gradients(monkeypatch):
    # per iteration after the first: no layer views and no gradient vector
    # (the targets are blended into their own buffers and each network owns
    # its vector), and four backward passes (critic trunk and state
    # branch; the trunk's action gradient and the actor), against six and
    # five when every update built new containers and every gradient was
    # computed
    counts = {}
    views, backward = nn.Layout.views, nn.backward
    gradients = nn.Gradients.__init__

    def counting_views(self, buffer):
        counts["views"] += 1
        return views(self, buffer)

    def counting_backward(*args, **kwargs):
        counts["backward"] += 1
        return backward(*args, **kwargs)

    def counting_gradients(self, params):
        counts["gradients"] += 1
        gradients(self, params)

    monkeypatch.setattr(nn.Layout, "views", counting_views)
    monkeypatch.setattr(nn, "backward", counting_backward)
    monkeypatch.setattr(nn.Gradients, "__init__", counting_gradients)
    memory = random_memory(np.random.default_rng(24), n=60)
    runs = {}
    for iterations in (10, 30):
        counts.update(views=0, backward=0, gradients=0)
        train(memory, TrainingConfig(batch_size=8, max_iterations=iterations,
                                     consistency_every=1000, seed=1))
        runs[iterations] = dict(counts)
    assert runs[30]["backward"] == 4 * 30
    assert runs[30]["views"] == runs[10]["views"]
    assert runs[30]["gradients"] == runs[10]["gradients"]


def test_training_log_csv_layout(tmp_path):
    rng = np.random.default_rng(20)
    memory = random_memory(rng, n=60)
    config = TrainingConfig(max_iterations=10, consistency_every=5, seed=6)
    result = train(memory, config)
    path = tmp_path / "log.csv"
    ddpg.write_training_log(path, result.log)
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration,td_mse,consistency_mse"
    assert len(lines) == 11
    assert lines[1].endswith(",")            # no consistency at iteration 1
    assert not lines[5].endswith(",")        # evaluated at iteration 5
    assert not lines[10].endswith(",")


# --- lockstep folds ------------------------------------------------------------------

def result_bytes(result):
    """Every buffer, both Adam moments and the log of a TrainResult."""
    nets = (result.actor.net, result.critic.state_net, result.critic.trunk,
            result.targets.actor.net, result.targets.critic.state_net,
            result.targets.critic.trunk)
    opts = (result.actor_opt, result.critic_opt.state_net, result.critic_opt.trunk)
    log = result.log
    return ([net.buffer.shape for net in nets] + [net.buffer.tobytes() for net in nets]
            + [(opt.m.tobytes(), opt.v.tobytes(), opt.step) for opt in opts]
            + [np.array(log.td_mse).tobytes(), np.array(log.consistency).tobytes(),
               log.stop_reason, log.n_iterations])


def staggered_consistency(evaluations):
    """Consistency hook that follows the real metric for a memory's first
    `evaluations[memory.seed]` calls and then never improves, so folds stop
    at different iterations. State is per memory, so a fold sees the same
    values whether it trains alone or with others."""
    calls = {}

    def fn(actor, memory):
        calls[memory.seed] = calls.get(memory.seed, 0) + 1
        if calls[memory.seed] > evaluations[memory.seed]:
            return 1e9
        return consistency_metric(actor, memory)
    return fn


@settings(max_examples=25, deadline=None)
@given(sizes=st.lists(st.integers(1, 80), min_size=2, max_size=4),
       terminal_rate=st.sampled_from((0.0, 0.5, 0.9, 1.0)),
       batch_size=st.integers(2, 12), max_iterations=st.integers(0, 30),
       every=st.integers(1, 5), patience=st.integers(1, 10),
       improving=st.lists(st.integers(0, 6), min_size=4, max_size=4),
       seed=st.integers(0, 2**16))
@example(sizes=[5, 60, 1], terminal_rate=0.9, batch_size=8, max_iterations=0,
         every=1, patience=1, improving=[0, 0, 0, 0], seed=0)
@example(sizes=[30, 7, 64, 2], terminal_rate=0.5, batch_size=64, max_iterations=24,
         every=2, patience=3, improving=[0, 2, 5, 6], seed=1)
def test_lockstep_folds_match_training_each_alone(sizes, terminal_rate, batch_size,
                                                  max_iterations, every, patience,
                                                  improving, seed):
    rng = np.random.default_rng(seed)
    memories = []
    # sampler seeds that differ from the fold positions
    for n, memory_seed in zip(sizes, (9, 4, 30, 1)):
        memory = random_memory(rng, n=n, seed=memory_seed)
        memory.terminal = rng.random(n) < terminal_rate
        # each fold gathers with its own statistics
        memory.means, memory.sds = rng.normal(size=3), rng.uniform(0.5, 2.0, 3)
        memories.append(memory)
    evaluations = {memory.seed: k for memory, k in zip(memories, improving)}
    config = TrainingConfig(batch_size=batch_size, max_iterations=max_iterations,
                            consistency_every=every, patience=patience, seed=seed)
    together = train_folds(memories, config, staggered_consistency(evaluations))
    assert len(together) == len(memories)
    for memory, result in zip(memories, together):
        alone = train_folds([memory], config, staggered_consistency(evaluations))[0]
        assert result_bytes(result) == result_bytes(alone)
        assert result.actor.net.buffer.ndim == 1


@settings(max_examples=25, deadline=None)
@given(sizes=st.lists(st.integers(1, 80), min_size=1, max_size=4),
       batch_size=st.integers(2, 240), max_iterations=st.integers(0, 40),
       every=st.integers(1, 12), patience=st.integers(1, 10),
       improving=st.lists(st.integers(0, 6), min_size=4, max_size=4),
       seed=st.integers(0, 2**16))
# one fold: blocks of 7 iterations, cut at checks (every 10) and the cap
@example(sizes=[50], batch_size=64, max_iterations=33, every=10, patience=40,
         improving=[9, 9, 9, 9], seed=0)
# 2 x 230 rows exceed the block bound: one iteration per block
@example(sizes=[40, 70], batch_size=230, max_iterations=9, every=4, patience=4,
         improving=[0, 1, 0, 0], seed=1)
# folds that stop at different checks
@example(sizes=[30, 7, 64, 2], batch_size=8, max_iterations=37, every=3, patience=3,
         improving=[0, 2, 5, 6], seed=2)
def test_block_gathering_matches_gathering_each_iteration(sizes, batch_size,
                                                         max_iterations, every,
                                                         patience, improving, seed):
    # blocks of iterations gathered in one pass into one buffer give every
    # result and log the bits of a fresh gather per iteration; a block holds
    # at most GATHER_BLOCK_ROWS rows (or one iteration) and never crosses a
    # consistency check or the cap
    rng = np.random.default_rng(seed)
    memories = []
    for n, memory_seed in zip(sizes, (9, 4, 30, 1)):
        memory = random_memory(rng, n=n, seed=memory_seed)
        memory.means, memory.sds = rng.normal(size=3), rng.uniform(0.5, 2.0, 3)
        memories.append(memory)
    evaluations = {memory.seed: k for memory, k in zip(memories, improving)}
    config = TrainingConfig(batch_size=batch_size, max_iterations=max_iterations,
                            consistency_every=every, patience=patience, seed=seed)
    blocks = []
    gather = ddpg.gather_minibatches

    def recording(memories, draws, means, sds, out=None):
        blocks.append(len(draws[0]) // batch_size)
        return gather(memories, draws, means, sds, out=out)

    with pytest.MonkeyPatch.context() as patch:
        # the blocks are recorded in this process: train every fold here
        patch.setattr(parallel, "_usable_cpus", lambda: 1)
        patch.setattr(ddpg, "gather_minibatches", recording)
        blocked = train_folds(memories, config, staggered_consistency(evaluations))
        patch.setattr(ddpg, "gather_minibatches", gather_each_iteration)
        patch.setattr(ddpg, "GATHER_BLOCK_ROWS", 1)
        reference = train_folds(memories, config, staggered_consistency(evaluations))
    for result, expected in zip(blocked, reference):
        assert result_bytes(result) == result_bytes(expected)
    bound = max(1, ddpg.GATHER_BLOCK_ROWS // (len(memories) * batch_size))
    assert all(1 <= length <= bound for length in blocks)
    ends = set(np.cumsum(blocks).tolist())
    last = max(result.log.n_iterations for result in blocked)
    assert sum(blocks) == last
    assert all(check in ends for check in range(every, last + 1, every))


def test_lockstep_folds_stop_independently():
    rng = np.random.default_rng(22)
    memories = [random_memory(rng, n=50, seed=f) for f in range(3)]
    config = TrainingConfig(batch_size=8, max_iterations=40, consistency_every=5,
                            patience=10, seed=1)
    improving = {0: 1, 1: 4, 2: 99}    # evaluations that improve, per memory
    calls = dict.fromkeys(improving, 0)

    def consistency(actor, memory):
        calls[memory.seed] += 1
        return 100.0 - calls[memory.seed] if calls[memory.seed] <= improving[memory.seed] \
            else 1e9

    results = train_folds(memories, config, consistency)
    assert [r.log.n_iterations for r in results] == [15, 30, 40]
    assert [r.log.stop_reason for r in results] == ["early_stop", "early_stop",
                                                    "max_iterations"]


@pytest.mark.parametrize("n_folds, poisoned", [(1, 0), (3, 1)],
                         ids=["one_memory", "three_memories"])
def test_lockstep_non_finite_reward_names_fold_and_iteration(n_folds, poisoned):
    rng = np.random.default_rng(23)
    memories = [random_memory(rng, n=40, seed=f) for f in range(n_folds)]
    memories[poisoned].rewards = memories[poisoned].rewards.copy()
    memories[poisoned].rewards[7] = np.inf
    config = TrainingConfig(batch_size=4, max_iterations=200, seed=5)
    # the first iteration whose minibatch draws row 7 of the poisoned fold
    sampler = np.random.default_rng(np.random.SeedSequence(entropy=(5, poisoned)))
    expected = next(i for i in range(1, 201)
                    if 7 in sampler.integers(0, 40, size=config.batch_size))
    with pytest.raises(ddpg.TrainingAbortedError) as caught:
        train_folds(memories, config)
    assert (caught.value.fold, caught.value.iteration) == (poisoned, expected)
    assert f"fold {poisoned}, iteration {expected}" in str(caught.value)
    assert "critic loss" in str(caught.value)


def test_train_folds_rejects_mismatched_memories():
    rng = np.random.default_rng(24)
    with pytest.raises(ValueError, match="state dimension"):
        train_folds([random_memory(rng), random_memory(rng, state_dim=4)],
                    TrainingConfig(max_iterations=1))
    with pytest.raises(ValueError, match="no replay memories"):
        train_folds([], TrainingConfig(max_iterations=1))


# --- fold groups in forked workers ----------------------------------------------

def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def no_child_left():
    yield
    assert_no_child_left()


def force_workers(patch, count):
    patch.setattr(parallel, "_usable_cpus", lambda: count)


@settings(max_examples=20, deadline=None)
@given(sizes=st.lists(st.integers(1, 60), min_size=1, max_size=4),
       workers=st.integers(1, 4), batch_size=st.integers(2, 12),
       max_iterations=st.integers(0, 24), every=st.integers(1, 5),
       patience=st.integers(1, 8),
       improving=st.lists(st.integers(0, 6), min_size=4, max_size=4),
       seed=st.integers(0, 2**16))
@example(sizes=[30, 7, 64, 2], workers=2, batch_size=8, max_iterations=24, every=2,
         patience=3, improving=[0, 2, 5, 6], seed=1)
def test_fold_groups_in_workers_match_one_stack(sizes, workers, batch_size,
                                                max_iterations, every, patience,
                                                improving, seed):
    rng = np.random.default_rng(seed)
    memories = []
    for n, memory_seed in zip(sizes, (9, 4, 30, 1)):
        memory = random_memory(rng, n=n, seed=memory_seed)
        memory.means, memory.sds = rng.normal(size=3), rng.uniform(0.5, 2.0, 3)
        memories.append(memory)
    evaluations = {memory.seed: k for memory, k in zip(memories, improving)}
    config = TrainingConfig(batch_size=batch_size, max_iterations=max_iterations,
                            consistency_every=every, patience=patience, seed=seed)
    results = {}
    for count in (1, workers):
        with pytest.MonkeyPatch.context() as patch:
            force_workers(patch, count)
            results[count] = train_folds(memories, config,
                                         staggered_consistency(evaluations))
        assert_no_child_left()
    assert len(results[workers]) == len(memories)
    for sharded, stacked in zip(results[workers], results[1]):
        assert result_bytes(sharded) == result_bytes(stacked)


def poisoned_memories(poisoned_rows, n=40):
    """Four memories; memory f's reward row poisoned_rows[f] (if given) is
    infinite."""
    rng = np.random.default_rng(25)
    memories = [random_memory(rng, n=n, seed=f) for f in range(4)]
    for f, row in poisoned_rows.items():
        memories[f].rewards = memories[f].rewards.copy()
        memories[f].rewards[row] = np.inf
    return memories


def first_draw(fold, row, config, n=40):
    """The first iteration whose minibatch of memory `fold` draws `row`."""
    sampler = np.random.default_rng(np.random.SeedSequence(entropy=(config.seed, fold)))
    return next(i for i in range(1, config.max_iterations + 1)
                if row in sampler.integers(0, n, size=config.batch_size))


def test_a_failure_in_a_worker_names_the_global_fold(no_child_left, monkeypatch):
    force_workers(monkeypatch, 2)
    config = TrainingConfig(batch_size=4, max_iterations=200, seed=5)
    with pytest.raises(ddpg.TrainingAbortedError) as caught:
        train_folds(poisoned_memories({3: 7}), config)
    expected = first_draw(3, 7, config)
    assert (caught.value.fold, caught.value.iteration) == (3, expected)
    assert f"fold 3, iteration {expected}" in str(caught.value)


@pytest.mark.parametrize("workers", [1, 2, 4])
# (poisoned row per memory, the (iteration, fold) of the first failure): a
# later group's failure first, the first group's first, and a tie across
# groups that goes to the lower fold
@pytest.mark.parametrize("poisoned, first", [({1: 7, 2: 11, 3: 7}, (13, 2)),
                                             ({1: 4, 2: 11, 3: 5}, (11, 1)),
                                             ({1: 37, 2: 11, 3: 7}, (13, 1))])
def test_the_earliest_failure_of_any_group_is_raised(no_child_left, monkeypatch,
                                                     workers, poisoned, first):
    force_workers(monkeypatch, workers)
    config = TrainingConfig(batch_size=4, max_iterations=200, seed=5)
    assert min((first_draw(f, row, config), f) for f, row in poisoned.items()) == first
    with pytest.raises(ddpg.TrainingAbortedError) as caught:
        train_folds(poisoned_memories(poisoned), config)
    assert (caught.value.iteration, caught.value.fold) == first


def test_a_worker_that_dies_without_a_result_raises(no_child_left, monkeypatch):
    force_workers(monkeypatch, 2)
    rng = np.random.default_rng(26)
    memories = [random_memory(rng, n=30, seed=f) for f in range(2)]
    parent = os.getpid()

    def dying(actor, memory):
        if os.getpid() != parent:
            os._exit(3)
        return consistency_metric(actor, memory)
    config = TrainingConfig(batch_size=4, max_iterations=4, consistency_every=2)
    with pytest.raises(RuntimeError, match="status 3"):
        train_folds(memories, config, dying)


def test_a_hook_error_in_a_worker_is_raised_here(no_child_left, monkeypatch):
    force_workers(monkeypatch, 2)
    rng = np.random.default_rng(27)
    memories = [random_memory(rng, n=30, seed=f) for f in range(2)]
    parent = os.getpid()

    def failing(actor, memory):
        if os.getpid() != parent:
            raise KeyError(f"worker hook, memory {memory.seed}")
        return consistency_metric(actor, memory)
    config = TrainingConfig(batch_size=4, max_iterations=4, consistency_every=2)
    with pytest.raises(KeyError, match="worker hook, memory 1"):
        train_folds(memories, config, failing)


def test_an_error_here_kills_the_workers(no_child_left, monkeypatch):
    force_workers(monkeypatch, 2)
    rng = np.random.default_rng(28)
    memories = [random_memory(rng, n=30, seed=f) for f in range(2)]
    parent = os.getpid()

    def hook(actor, memory):
        if os.getpid() != parent:
            time.sleep(60)       # a worker that is not killed holds the test
        raise KeyError("hook in the calling process")
    config = TrainingConfig(batch_size=4, max_iterations=4, consistency_every=2)
    start = time.monotonic()
    with pytest.raises(KeyError, match="calling process"):
        train_folds(memories, config, hook)
    assert time.monotonic() - start < 30


# --- checkpoint ----------------------------------------------------------------------

def test_policy_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(21)
    memory = random_memory(rng, n=80)
    config = TrainingConfig(max_iterations=20, consistency_every=5, seed=7)
    result = train(memory, config)
    bundle = PolicyBundle(
        actor=result.actor, critic=result.critic, targets=result.targets,
        config=config, interval_hours=4.0,
        feature_names=("a", "b", "c"),
        feature_means=np.array([1.0, 2.0, 3.0]),
        feature_sds=np.array([0.5, 1.5, 2.5]))
    path = tmp_path / "policy.ckpt"
    ddpg.save_policy(path, bundle)
    loaded = ddpg.load_policy(path)
    assert loaded.config == config
    assert loaded.feature_names == ("a", "b", "c")
    np.testing.assert_array_equal(loaded.feature_means, bundle.feature_means)
    states = rng.normal(size=(100, 3))
    np.testing.assert_array_equal(result.actor.act(states), loaded.actor.act(states))
    np.testing.assert_array_equal(
        result.targets.critic.q_values(states, np.full(100, 20.0)),
        loaded.targets.critic.q_values(states, np.full(100, 20.0)))


def _policy_text(tmp_path):
    actor, critic = ActorNet.build(2, 1), CriticNet.build(2, 2)
    bundle = PolicyBundle(
        actor=actor, critic=critic, targets=TargetPair.from_online(critic, actor),
        config=TrainingConfig(), interval_hours=4.0, feature_names=("a", "b"),
        feature_means=np.zeros(2), feature_sds=np.ones(2))
    path = tmp_path / "policy.ckpt"
    ddpg.save_policy(path, bundle)
    return path.read_text()


@pytest.mark.parametrize("fault, message", [
    ("truncated_header", "truncated"),
    ("truncated_values", "truncated"),
    ("missing_net", "truncated"),
    ("unknown_name", "unexpected array"),
    ("wrong_shape", "layer layout"),
    ("wrong_count", "values"),
    ("non_finite", "non-finite"),
    ("trailing", "trailing"),
    ("wrong_features", "feature_means"),
    ("short_config", "config"),
    ("short_layer_spec", "malformed"),
    ("negative_specs", "empty layer spec chain"),
    ("negative_rank", "dimensions"),
    ("non_integer_dimension", "invalid literal"),
])
def test_load_policy_rejects_structural_faults(tmp_path, fault, message):
    text = _policy_text(tmp_path)
    first_w = f"array 0:W 2 2 {ddpg.STATE_HIDDEN}\n"
    assert first_w in text
    values_start = text.index(first_w) + len(first_w)
    values_end = text.index("\n", values_start)
    values = text[values_start:values_end].split()
    if fault == "truncated_header":
        text = text[:120]
    elif fault == "truncated_values":
        text = text[:values_start + 10]
    elif fault == "missing_net":
        text = text[:text.rindex("specs ")]
    elif fault == "unknown_name":
        text = text.replace(first_w, f"array 0:Q 2 2 {ddpg.STATE_HIDDEN}\n", 1)
    elif fault == "wrong_shape":
        text = text.replace(first_w, f"array 0:W 2 {ddpg.STATE_HIDDEN} 2\n", 1)
    elif fault == "wrong_count":
        text = text[:values_start] + " ".join(values[:-1]) + text[values_end:]
    elif fault == "non_finite":
        text = text[:values_start] + " ".join(["nan"] + values[1:]) + text[values_end:]
    elif fault == "trailing":
        text += "array extra 1 1\n0.0\n"
    elif fault == "wrong_features":
        text = text.replace("features a b\n", "features a b c\n", 1)
    elif fault == "short_config":
        text = text.replace("config ", "config 0.5 ", 1)
    elif fault == "short_layer_spec":
        spec = f"dense 2 {ddpg.STATE_HIDDEN}"
        text = text.replace(f"specs 5\n{spec} linear\n", f"specs 5\n{spec}\n", 1)
    elif fault == "negative_specs":
        text = text.replace("specs 5\n", "specs -1\n", 1)
    elif fault == "negative_rank":
        text = text.replace(first_w, f"array 0:W -1 2 {ddpg.STATE_HIDDEN}\n", 1)
    elif fault == "non_integer_dimension":
        text = text.replace(first_w, "array 0:W 2 2 x\n", 1)
    path = tmp_path / "bad.ckpt"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        ddpg.load_policy(path)
