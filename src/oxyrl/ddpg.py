"""Offline deterministic-policy actor-critic for continuous dosing.

The critic regresses one-step bootstrapped targets computed with slow-moving
target copies of both networks; the actor ascends the critic's value of its
own actions by chain-ruling through the critic's action input. The dataset
is fixed logged experience: no environment interaction, no exploration
noise. Early stopping watches the mean squared deviation between
recommended and logged flows and halts once it stops improving for a
configured number of iterations.

:func:`train_folds` trains one policy per replay memory (one per
cross-validation fold) in lockstep: every network is stacked along a
leading fold axis (see :mod:`oxyrl.nn`), so one step makes as many numpy
calls as a single fold's. :func:`td_target` runs the target networks once
over every fold's whole minibatch and keeps the bootstrap only on live
rows, which infer mode's row independence makes exact. Each fold keeps its
own sampler, batch-norm statistics, Adam moments and early stop, and its
result is bit-identical to training it alone. The step functions below
take plain or stacked networks alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nn

FLOW_MAX = 60.0
STATE_HIDDEN = 32
TRUNK_HIDDEN = 16


class TrainingAbortedError(RuntimeError):
    """Non-finite loss or objective; carries the failing iteration and
    fold. From :func:`train_folds` the fold is the index of the memory; from
    a step function it is the row of the stacked fold axis (None for plain
    networks) and the iteration is unknown."""

    def __init__(self, message, iteration=None, fold=None):
        super().__init__(message)
        self.iteration = iteration
        self.fold = fold


@dataclass
class TrainingConfig:
    discount: float = 0.99
    batch_size: int = 64
    critic_lr: float = 0.002
    actor_lr: float = 0.002
    polyak: float = 0.995
    max_iterations: int = 5000
    patience: int = 500            # early-stop window, in iterations
    consistency_every: int = 50
    seed: int = 0

    def validate(self) -> None:
        if not 0.0 <= self.discount <= 1.0:
            raise ValueError("discount must lie in [0, 1]")
        if not 0.0 <= self.polyak <= 1.0:
            raise ValueError("polyak must lie in [0, 1]")
        if self.batch_size < 2:
            raise ValueError("batch_size must be at least 2")
        if self.max_iterations < 0 or self.patience <= 0 or self.consistency_every <= 0:
            raise ValueError("iteration counts must be positive")
        if self.critic_lr <= 0 or self.actor_lr <= 0:
            raise ValueError("learning rates must be positive")


@dataclass
class Batch:
    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_states: np.ndarray
    terminal: np.ndarray

    def __len__(self):
        return len(self.actions)


@dataclass
class ReplayMemory(Batch):
    """Static store of every logged one-step transition plus the sampler
    seed."""

    seed: int = 0

    @property
    def state_dim(self):
        return self.states.shape[1]

    def minibatch(self, idx) -> Batch:
        return Batch(self.states[idx], self.actions[idx], self.rewards[idx],
                     self.next_states[idx], self.terminal[idx])


def _stack_batches(batches) -> Batch:
    """Equal-sized batches stacked along a leading fold axis."""
    return Batch(*(np.stack([getattr(b, name) for b in batches])
                   for name in ("states", "actions", "rewards", "next_states",
                                "terminal")))


def actor_specs(state_dim: int):
    return (nn.dense(state_dim, STATE_HIDDEN), nn.batchnorm(STATE_HIDDEN),
            nn.activation("relu"), nn.dense(STATE_HIDDEN, 1),
            nn.activation("sigmoid"))


def critic_state_specs(state_dim: int):
    return (nn.dense(state_dim, STATE_HIDDEN), nn.batchnorm(STATE_HIDDEN),
            nn.activation("relu"))


def critic_trunk_specs():
    return (nn.dense(STATE_HIDDEN + 1, TRUNK_HIDDEN), nn.batchnorm(TRUNK_HIDDEN),
            nn.activation("relu"), nn.dense(TRUNK_HIDDEN, 1))


@dataclass
class ActorNet:
    """Deterministic policy: dense(32)+batchnorm+relu into a single output
    squashed to [0, 60] by a scaled sigmoid."""

    state_dim: int
    net: nn.NetworkParams

    @classmethod
    def build(cls, state_dim: int, seed) -> "ActorNet":
        return cls(state_dim, nn.init_params(actor_specs(state_dim), seed))

    def forward_train(self, states):
        out, cache = nn.forward(self.net, states, nn.TRAIN)
        return FLOW_MAX * out[..., 0], cache

    def act(self, states) -> np.ndarray:
        out, _ = nn.forward(self.net, states, nn.INFER)
        return FLOW_MAX * out[..., 0]

    def backward(self, cache, dflow):
        return nn.backward(self.net, cache, FLOW_MAX * np.asarray(dflow)[..., None])[0]

    def copy(self) -> "ActorNet":
        return ActorNet(self.state_dim, self.net.copy())

    def take(self, index) -> "ActorNet":
        """Fold `index` of a stacked actor (see nn.NetworkParams.take)."""
        return ActorNet(self.state_dim, self.net.take(index))


@dataclass
class CriticNet:
    """Scalar action-value net: a state branch, the action concatenated onto
    its features, then a narrowing trunk with a linear head."""

    state_dim: int
    state_net: nn.NetworkParams
    trunk: nn.NetworkParams

    @classmethod
    def build(cls, state_dim: int, seed) -> "CriticNet":
        if not isinstance(seed, np.random.SeedSequence):
            seed = np.random.SeedSequence(seed)
        seeds = seed.spawn(2)
        return cls(state_dim, nn.init_params(critic_state_specs(state_dim), seeds[0]),
                   nn.init_params(critic_trunk_specs(), seeds[1]))

    def forward_train(self, states, actions):
        h, cache_s = nn.forward(self.state_net, states, nn.TRAIN)
        z = np.concatenate([h, np.asarray(actions, dtype=np.float64)[..., None]], axis=-1)
        q, cache_t = nn.forward(self.trunk, z, nn.TRAIN)
        return q[..., 0], (cache_s, cache_t)

    def forward_infer_cached(self, states, actions):
        """Deployment-mode value with a backward-capable cache (running
        statistics are constants, so the pass is row-independent)."""
        h, cache_s = nn.forward_cached(self.state_net, states, nn.INFER)
        z = np.concatenate([h, np.asarray(actions, dtype=np.float64)[..., None]], axis=-1)
        q, cache_t = nn.forward_cached(self.trunk, z, nn.INFER)
        return q[..., 0], (cache_s, cache_t)

    def q_values(self, states, actions) -> np.ndarray:
        h, _ = nn.forward(self.state_net, states, nn.INFER)
        z = np.concatenate([h, np.asarray(actions, dtype=np.float64)[..., None]], axis=-1)
        q, _ = nn.forward(self.trunk, z, nn.INFER)
        return q[..., 0]

    def backward(self, caches, dq):
        cache_s, cache_t = caches
        dq2d = np.asarray(dq, dtype=np.float64)[..., None]
        trunk_grads, dz = nn.backward(self.trunk, cache_t, dq2d)
        dh, daction = dz[..., :STATE_HIDDEN], dz[..., STATE_HIDDEN]
        state_grads, dstates = nn.backward(self.state_net, cache_s, dh)
        return (state_grads, trunk_grads), dstates, daction

    def copy(self) -> "CriticNet":
        return CriticNet(self.state_dim, self.state_net.copy(), self.trunk.copy())

    def take(self, index) -> "CriticNet":
        return CriticNet(self.state_dim, self.state_net.take(index),
                         self.trunk.take(index))


@dataclass
class TargetPair:
    critic: CriticNet
    actor: ActorNet

    @classmethod
    def from_online(cls, critic: CriticNet, actor: ActorNet) -> "TargetPair":
        return cls(critic.copy(), actor.copy())

    def take(self, index) -> "TargetPair":
        return TargetPair(self.critic.take(index), self.actor.take(index))


@dataclass
class CriticOptState:
    state_net: nn.OptimizerState
    trunk: nn.OptimizerState

    def take(self, index) -> "CriticOptState":
        return CriticOptState(self.state_net.take(index), self.trunk.take(index))


@dataclass
class TrainingLog:
    td_mse: list = field(default_factory=list)
    consistency: list = field(default_factory=list)   # (iteration, value)
    stop_reason: str = "max_iterations"
    n_iterations: int = 0


@dataclass
class TrainResult:
    actor: ActorNet
    critic: CriticNet
    targets: TargetPair
    log: TrainingLog
    critic_opt: CriticOptState
    actor_opt: nn.OptimizerState


def _check_finite(values, what):
    """Raise TrainingAbortedError naming the first fold whose value is not
    finite (values is a scalar, or one value per stacked fold)."""
    if np.isfinite(values).all():
        return
    first = int(np.flatnonzero(~np.isfinite(values))[0])
    raise TrainingAbortedError(f"non-finite {what} {np.ravel(values)[first]}",
                               fold=first if np.ndim(values) else None)


def td_target(batch: Batch, targets: TargetPair, discount: float) -> np.ndarray:
    """Bootstrapped regression target: r + discount * Q~(s', pi~(s')), with
    the bootstrap truncated to r at terminal (absorbing) transitions.

    The target networks run once over every fold's full minibatch of next
    states; infer mode is row-independent, so each live row gets the bits
    it would get alone, and terminal rows keep their reward."""
    out = batch.rewards.astype(np.float64)
    if discount == 0.0:
        return out
    q_next = targets.critic.q_values(batch.next_states,
                                     targets.actor.act(batch.next_states))
    np.add(out, discount * q_next, out=out, where=~batch.terminal)
    return out


def critic_step(critic: CriticNet, batch: Batch, targets_vec, opt: CriticOptState,
                lr: float):
    """One Adam step on the mean of half the squared TD error; the targets
    are constants. Returns (critic, opt, pre-update mean squared TD error,
    one per stacked fold)."""
    q, caches = critic.forward_train(batch.states, batch.actions)
    diff = q - np.asarray(targets_vec, dtype=np.float64)
    td_mse = np.mean(diff * diff, axis=-1)
    _check_finite(td_mse, "critic loss")
    dq = diff / diff.shape[-1]
    (state_grads, trunk_grads), _, _ = critic.backward(caches, dq)
    new_state, opt_state = nn.apply_update(critic.state_net, state_grads,
                                           opt.state_net, lr)
    new_trunk, opt_trunk = nn.apply_update(critic.trunk, trunk_grads, opt.trunk, lr)
    new_state = nn.commit_running_stats(new_state, caches[0])
    new_trunk = nn.commit_running_stats(new_trunk, caches[1])
    updated = CriticNet(critic.state_dim, new_state, new_trunk)
    return updated, CriticOptState(opt_state, opt_trunk), td_mse


def actor_step(actor: ActorNet, critic: CriticNet, batch: Batch,
               opt: nn.OptimizerState, lr: float):
    """One Adam ascent step on mean Q(s, pi(s)); the critic is frozen (its
    parameters receive no update). Returns (actor, opt, pre-update
    objective, one per stacked fold).

    The critic is evaluated in deployment mode here: with train-mode batch
    statistics active after the action merge, the objective would be
    invariant to a common shift of every action in the batch, leaving the
    policy's overall dose level unconstrained.
    """
    flows, actor_cache = actor.forward_train(batch.states)
    q, critic_caches = critic.forward_infer_cached(batch.states, flows)
    objective = np.mean(q, axis=-1)
    _check_finite(objective, "actor objective")
    dq = np.full(q.shape, 1.0 / q.shape[-1])
    _, _, daction = critic.backward(critic_caches, dq)
    grads = actor.backward(actor_cache, daction)
    ascent = [{k: -g for k, g in entry.items()} for entry in grads]
    new_net, new_opt = nn.apply_update(actor.net, ascent, opt, lr)
    new_net = nn.commit_running_stats(new_net, actor_cache)
    return ActorNet(actor.state_dim, new_net), new_opt, objective


def polyak_update(targets: TargetPair, critic: CriticNet, actor: ActorNet,
                  rho: float) -> TargetPair:
    """Convex blend of every parameter tensor, batch-norm scale/shift and
    running statistics included."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    blended_critic = CriticNet(
        critic.state_dim,
        nn.blend_params(targets.critic.state_net, critic.state_net, rho),
        nn.blend_params(targets.critic.trunk, critic.trunk, rho))
    blended_actor = ActorNet(
        actor.state_dim, nn.blend_params(targets.actor.net, actor.net, rho))
    return TargetPair(blended_critic, blended_actor)


def consistency_metric(actor: ActorNet, dataset) -> float:
    """Mean squared deviation between recommended and logged flows."""
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    recommended = actor.act(dataset.states)
    return float(np.mean((recommended - dataset.actions) ** 2))


def recommend(actor: ActorNet, state) -> float:
    """Deterministic flow recommendation in [0, 60] for one normalized state."""
    state = np.asarray(state, dtype=np.float64)
    if state.ndim != 1 or state.shape[0] != actor.state_dim:
        raise ValueError(f"state must be a vector of length {actor.state_dim}")
    return float(actor.act(state[None, :])[0])


def train(memory: ReplayMemory, config: TrainingConfig,
          consistency_fn=None) -> TrainResult:
    """Train one policy on one replay memory: :func:`train_folds` with a
    single fold."""
    return train_folds([memory], config, consistency_fn)[0]


def train_folds(memories, config: TrainingConfig,
                consistency_fn=None) -> list[TrainResult]:
    """Run the offline training loop, to early stop or the iteration cap,
    once per replay memory and all in lockstep; returns one result per
    memory, in order.

    Per iteration, each fold samples a uniform minibatch from its memory
    (sampler seed `(config.seed, memory.seed)`); then, for every fold at
    once, the critic regresses on its bootstrapped targets, the actor
    ascends through the frozen critic, and both target copies are blended.
    `consistency_fn(actor, memory)` is evaluated per fold every
    `consistency_every` iterations (a hook mainly for tests; defaults to
    :func:`consistency_metric`), and a fold halts once it has not improved
    within `patience` iterations; the others go on without it. Each result
    is bit-identical to training its memory alone, and fully reproducible
    from the config and memory seeds.
    """
    config.validate()
    memories = list(memories)
    if not memories:
        raise ValueError("no replay memories to train on")
    if any(len(memory) == 0 for memory in memories):
        raise ValueError("replay memory is empty")
    state_dim = memories[0].state_dim
    if any(memory.state_dim != state_dim for memory in memories):
        raise ValueError("replay memories differ in state dimension")
    if consistency_fn is None:
        consistency_fn = consistency_metric

    # every fold starts from the same networks; a single memory trains
    # plain ones, without a fold axis
    net_seeds = np.random.SeedSequence(config.seed).spawn(2)
    critic = CriticNet.build(state_dim, net_seeds[0])
    actor = ActorNet.build(state_dim, net_seeds[1])
    n_folds = len(memories)
    stacked = n_folds > 1
    if stacked:
        critic = CriticNet(
            state_dim, nn.NetworkParams.stack([critic.state_net] * n_folds),
            nn.NetworkParams.stack([critic.trunk] * n_folds))
        actor = ActorNet(state_dim, nn.NetworkParams.stack([actor.net] * n_folds))
    targets = TargetPair.from_online(critic, actor)
    critic_opt = CriticOptState(nn.init_optimizer(critic.state_net),
                                nn.init_optimizer(critic.trunk))
    actor_opt = nn.init_optimizer(actor.net)
    samplers = [np.random.default_rng(
        np.random.SeedSequence(entropy=(config.seed, memory.seed)))
        for memory in memories]

    logs = [TrainingLog() for _ in memories]
    best = [np.inf] * n_folds
    best_iteration = [0] * n_folds
    results = [None] * n_folds
    # the index of each training fold in the stack (() when unstacked) and
    # the memory it trains on
    slots = list(np.ndindex(actor.net.buffer.shape[:-1]))
    active = list(range(n_folds))

    def finish(rows):
        for row in rows:
            slot = slots[row]
            results[active[row]] = TrainResult(
                actor.take(slot), critic.take(slot), targets.take(slot),
                logs[active[row]], critic_opt.take(slot), actor_opt.take(slot))

    for iteration in range(1, config.max_iterations + 1):
        batches = [memories[f].minibatch(
            samplers[f].integers(0, len(memories[f]), size=config.batch_size))
            for f in active]
        batch = _stack_batches(batches) if stacked else batches[0]
        try:
            targets_vec = td_target(batch, targets, config.discount)
            critic, critic_opt, td_mse = critic_step(
                critic, batch, targets_vec, critic_opt, config.critic_lr)
            actor, actor_opt, _ = actor_step(
                actor, critic, batch, actor_opt, config.actor_lr)
        except TrainingAbortedError as err:
            fold = active[0 if err.fold is None else err.fold]
            raise TrainingAbortedError(f"fold {fold}, iteration {iteration}: {err}",
                                       iteration=iteration, fold=fold) from None
        targets = polyak_update(targets, critic, actor, config.polyak)
        for slot, f in zip(slots, active):
            logs[f].td_mse.append(float(td_mse[slot]))
            logs[f].n_iterations = iteration
        if iteration % config.consistency_every:
            continue
        stopped = []
        for row, (slot, f) in enumerate(zip(slots, active)):
            value = float(consistency_fn(actor.take(slot), memories[f]))
            logs[f].consistency.append((iteration, value))
            if value < best[f]:
                best[f] = value
                best_iteration[f] = iteration
            elif iteration - best_iteration[f] >= config.patience:
                logs[f].stop_reason = "early_stop"
                stopped.append(row)
        if stopped:
            finish(stopped)
            keep = np.array([row for row in range(len(active)) if row not in stopped])
            if not keep.size:
                return results
            active = [active[row] for row in keep]
            slots = slots[:len(keep)]
            actor, critic, targets = actor.take(keep), critic.take(keep), targets.take(keep)
            actor_opt, critic_opt = actor_opt.take(keep), critic_opt.take(keep)
    finish(range(len(active)))
    return results


def write_training_log(path, log: TrainingLog) -> None:
    """CSV `iteration,td_mse,consistency_mse`; consistency is blank on
    iterations where it was not evaluated."""
    evaluated = dict(log.consistency)
    with open(path, "w", newline="\n") as fh:
        fh.write("iteration,td_mse,consistency_mse\n")
        for i, mse in enumerate(log.td_mse, start=1):
            extra = repr(evaluated[i]) if i in evaluated else ""
            fh.write(f"{i},{mse!r},{extra}\n")


# --- policy checkpoint --------------------------------------------------------

POLICY_MAGIC = "oxyrl-policy-v1"

# the only policy kind; the line keeps the file format versionable
POLICY_KIND_ACTOR = "actor"


@dataclass
class PolicyBundle:
    actor: ActorNet
    critic: CriticNet
    targets: TargetPair
    config: TrainingConfig
    interval_hours: float
    feature_names: tuple[str, ...]
    feature_means: np.ndarray
    feature_sds: np.ndarray


_CONFIG_FIELDS = ("discount", "batch_size", "critic_lr", "actor_lr", "polyak",
                  "max_iterations", "patience", "consistency_every", "seed")


def save_policy(path, bundle: PolicyBundle) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(POLICY_MAGIC + "\n")
        fh.write(f"policy_kind {POLICY_KIND_ACTOR}\n")
        fh.write(f"interval_hours {float(bundle.interval_hours)!r}\n")
        values = " ".join(repr(getattr(bundle.config, name))
                          for name in _CONFIG_FIELDS)
        fh.write(f"config {values}\n")
        fh.write("features " + " ".join(bundle.feature_names) + "\n")
        nn._write_array(fh, "feature_means", bundle.feature_means)
        nn._write_array(fh, "feature_sds", bundle.feature_sds)
        for net in (bundle.actor.net, bundle.critic.state_net, bundle.critic.trunk,
                    bundle.targets.actor.net, bundle.targets.critic.state_net,
                    bundle.targets.critic.trunk):
            nn.write_params(fh, net)


def load_policy(path) -> PolicyBundle:
    """Read a policy checkpoint, checking its structure: any truncated,
    mis-shaped, unknown, non-finite or trailing content raises ValueError."""
    with open(path) as fh:
        if fh.readline().strip() != POLICY_MAGIC:
            raise ValueError("unrecognized policy checkpoint")
        (policy_kind,) = nn.read_fields(fh, "policy_kind", 1)
        if policy_kind != POLICY_KIND_ACTOR:
            raise ValueError(f"unknown policy kind {policy_kind!r}")
        interval_hours = float(nn.read_fields(fh, "interval_hours", 1)[0])
        if not (np.isfinite(interval_hours) and interval_hours > 0):
            raise ValueError(f"invalid interval_hours {interval_hours!r}")
        raw = nn.read_fields(fh, "config", len(_CONFIG_FIELDS))
        config = TrainingConfig(
            discount=float(raw[0]), batch_size=int(raw[1]), critic_lr=float(raw[2]),
            actor_lr=float(raw[3]), polyak=float(raw[4]), max_iterations=int(raw[5]),
            patience=int(raw[6]), consistency_every=int(raw[7]), seed=int(raw[8]))
        config.validate()
        feature_names = tuple(nn.read_fields(fh, "features"))
        state_dim = len(feature_names)
        stats = []
        for name in ("feature_means", "feature_sds"):
            got, arr = nn._read_array(fh)
            if got != name or arr.shape != (state_dim,):
                raise ValueError(f"expected {name} of shape ({state_dim},), "
                                 f"got {got} of shape {arr.shape}")
            stats.append(arr)
        expected = (actor_specs(state_dim), critic_state_specs(state_dim),
                    critic_trunk_specs()) * 2
        nets = []
        for specs in expected:
            net = nn.read_params(fh)
            if net.specs != specs:
                raise ValueError("checkpoint layer chain does not match the "
                                 f"{state_dim} features")
            nets.append(net)
        if fh.read():
            raise ValueError("malformed policy checkpoint: trailing data")
    actor = ActorNet(state_dim, nets[0])
    critic = CriticNet(state_dim, nets[1], nets[2])
    targets = TargetPair(CriticNet(state_dim, nets[4], nets[5]),
                         ActorNet(state_dim, nets[3]))
    return PolicyBundle(actor, critic, targets, config, interval_hours,
                        feature_names, stats[0], stats[1])
