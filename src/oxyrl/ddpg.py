"""Offline deterministic-policy actor-critic for continuous dosing.

The critic regresses one-step bootstrapped targets computed with slow-moving
target copies of both networks; the actor ascends the critic's value of its
own actions by chain-ruling through the critic's action input. The dataset
is fixed logged experience: no environment interaction, no exploration
noise. Early stopping watches the mean squared deviation between
recommended and logged flows and halts once it stops improving for a
configured number of iterations.

:func:`train_folds` trains one policy per replay memory (one per
cross-validation fold) in lockstep: every network is a stack along a
leading fold axis (see :mod:`oxyrl.nn`), so one step makes as many numpy
calls as a single fold's. :func:`td_target` runs the target networks once
over every fold's whole minibatch and keeps the bootstrap only on live
rows, which infer mode's row independence makes exact. Each fold keeps its
own sampler, batch-norm statistics, Adam moments and early stop, and its
result is bit-identical to training it alone; :func:`train` is a stack of
one. Contiguous groups of folds, one per usable CPU, each run that loop in a
forked worker (see :mod:`oxyrl.parallel`). The step functions below take
plain networks and stacks alike, and update the online networks and their
Adam moments in place, through the gradient vectors the networks own; the
loop also blends its targets in place and gathers minibatches in blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import cohort, nn, parallel, textfile

FLOW_MAX = cohort.FLOW_MAX
STATE_HIDDEN = 32
TRUNK_HIDDEN = 16

# minibatch rows (folds x iterations) train_folds gathers in one pass; its
# buffer then stays under glibc's 128 KiB mmap threshold at 16 features
GATHER_BLOCK_ROWS = 448


class TrainingAbortedError(RuntimeError):
    """Non-finite loss or objective; carries the failing iteration and
    fold. From :func:`train_folds` the fold is the index of the memory; from
    a step function it is the row of the stack's fold axis (None for plain
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
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not (0 < self.critic_lr < math.inf and 0 < self.actor_lr < math.inf):
            raise ValueError("learning rates must be positive and finite")


@dataclass
class Batch:
    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_states: np.ndarray
    terminal: np.ndarray

    def __len__(self):
        return len(self.actions)

    def take(self, fold, rows=slice(None)) -> "Batch":
        """Rows `rows` of fold `fold` (an index, or a slice of folds) of a
        batch with a leading fold axis."""
        return Batch(*(column[fold, rows] for column in vars(self).values()))


@dataclass
class ReplayMemory:
    """Every logged one-step transition, as row indices into a raw state
    matrix that the memories of all folds share, plus the sampler seed.
    Rows are normalized with `means` and `sds` as they are gathered."""

    source: np.ndarray       # (n_rows, state_dim), raw
    rows: np.ndarray         # (n,) state row in `source`
    next_rows: np.ndarray    # (n,) next-state row
    actions: np.ndarray
    rewards: np.ndarray
    terminal: np.ndarray
    means: np.ndarray        # (state_dim,)
    sds: np.ndarray          # (state_dim,)
    seed: int = 0

    def __len__(self):
        return len(self.rows)

    @property
    def state_dim(self):
        return self.source.shape[1]


def _batch_buffers(n_folds, size, state_dim):
    """Room for `size` gathered transitions of `n_folds` folds: the states
    over the next states, the actions over the rewards, the terminal flags."""
    return (np.empty((2, n_folds, size, state_dim)), np.empty((2, n_folds, size)),
            np.empty((n_folds, size), dtype=bool))


def gather_minibatches(memories, draws, means, sds, out=None) -> Batch:
    """The transitions `draws[f]` of each memory `memories[f]`, gathered along a
    leading fold axis and normalized in one pass with `means` and `sds`: the
    memories' own statistics, as (folds, 1, state_dim) arrays; into
    the leading folds and rows of `out` (from :func:`_batch_buffers`) if given."""
    n_folds, size = len(memories), len(draws[0])
    if out is None:
        out = _batch_buffers(n_folds, size, memories[0].state_dim)
    states = out[0][:, :n_folds, :size]
    actions, rewards = out[1][:, :n_folds, :size]
    terminal = out[2][:n_folds, :size]
    for f, (memory, idx) in enumerate(zip(memories, draws)):
        memory.source.take(memory.rows[idx], axis=0, out=states[0, f])
        memory.source.take(memory.next_rows[idx], axis=0, out=states[1, f])
        memory.actions.take(idx, out=actions[f])
        memory.rewards.take(idx, out=rewards[f])
        memory.terminal.take(idx, out=terminal[f])
    cohort.normalize_states(states, means, sds, out=states)
    return Batch(states[0], actions, rewards, states[1], terminal)


def critic_state_specs(state_dim: int):
    return (nn.dense(state_dim, STATE_HIDDEN), nn.batchnorm(STATE_HIDDEN),
            nn.activation("relu"))


def actor_specs(state_dim: int):
    return critic_state_specs(state_dim) + (nn.dense(STATE_HIDDEN, 1),
                                            nn.activation("sigmoid"))


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
        """Parameter gradients (`net.grads`) of sum(flow * dflow)."""
        return nn.backward(self.net, cache, FLOW_MAX * np.asarray(dflow)[..., None],
                           input_grad=False)[0]

    def copy(self) -> "ActorNet":
        return ActorNet(self.state_dim, self.net.copy())

    def take(self, index) -> "ActorNet":
        """Fold `index` of an actor stack (see nn.NetworkParams.take)."""
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
        """((state-branch gradients, trunk gradients), None, action
        gradient) of sum(q * dq), in the networks' own gradient vectors; the
        state gradient is not computed."""
        cache_s, cache_t = caches
        dq = np.asarray(dq, dtype=np.float64)[..., None]
        trunk_grads, dz = nn.backward(self.trunk, cache_t, dq)
        dh, daction = dz[..., :STATE_HIDDEN], dz[..., STATE_HIDDEN]
        state_grads, _ = nn.backward(self.state_net, cache_s, dh, input_grad=False)
        return (state_grads, trunk_grads), None, daction

    def action_gradient(self, caches, dq):
        """The gradient of sum(q * dq) with respect to the actions alone:
        the trunk's input gradient, without any parameter gradient."""
        dq = np.asarray(dq, dtype=np.float64)[..., None]
        _, dz = nn.backward(self.trunk, caches[1], dq, param_grads=False)
        return dz[..., STATE_HIDDEN]

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
    finite (values is a scalar, or one value per fold of a stack)."""
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
    are constants. Updates `critic` and `opt` in place and returns them with
    the pre-update mean squared TD error, one per fold of a stack. A
    non-finite gradient in either network raises before either is written."""
    q, caches = critic.forward_train(batch.states, batch.actions)
    diff = q - np.asarray(targets_vec, dtype=np.float64)
    n = diff.shape[-1]
    td_mse = np.add.reduce(diff * diff, axis=-1) / n   # np.mean's bits
    _check_finite(td_mse, "critic loss")
    (state_grads, trunk_grads), _, _ = critic.backward(caches, diff / n)
    # the trunk's gradient is checked here and the state branch's by its
    # own update, so a rejected step writes into neither network
    nn.check_gradient(critic.trunk, trunk_grads)
    nn.apply_update(critic.state_net, state_grads, opt.state_net, lr)
    nn.apply_update(critic.trunk, trunk_grads, opt.trunk, lr)
    nn.commit_running_stats(critic.state_net, caches[0])
    nn.commit_running_stats(critic.trunk, caches[1])
    return critic, opt, td_mse


def actor_step(actor: ActorNet, critic: CriticNet, batch: Batch,
               opt: nn.OptimizerState, lr: float):
    """One Adam ascent step on mean Q(s, pi(s)); the critic is frozen (its
    parameters receive no update). Updates `actor` and `opt` in place and
    returns them with the pre-update objective, one per fold of a stack.

    The critic is evaluated in deployment mode here: with train-mode batch
    statistics active after the action merge, the objective would be
    invariant to a common shift of every action in the batch, leaving the
    policy's overall dose level unconstrained.
    """
    flows, actor_cache = actor.forward_train(batch.states)
    q, critic_caches = critic.forward_infer_cached(batch.states, flows)
    n = q.shape[-1]
    objective = np.add.reduce(q, axis=-1) / n   # np.mean's bits
    _check_finite(objective, "actor objective")
    daction = critic.action_gradient(critic_caches, np.full(q.shape, 1.0 / n))
    grads = actor.backward(actor_cache, daction)
    np.negative(grads.flat, out=grads.flat)   # ascent
    nn.apply_update(actor.net, grads, opt, lr)
    nn.commit_running_stats(actor.net, actor_cache)
    return actor, opt, objective


def polyak_update(targets: TargetPair, critic: CriticNet, actor: ActorNet,
                  rho: float, out: TargetPair | None = None) -> TargetPair:
    """Convex blend of every parameter tensor, batch-norm scale/shift and
    running statistics included: written into `out`'s networks (`out` may
    be `targets`), by default fresh copies of the targets; returns `out`."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    if out is None:
        out = TargetPair.from_online(targets.critic, targets.actor)
    for target, online, blended in (
            (targets.critic.state_net, critic.state_net, out.critic.state_net),
            (targets.critic.trunk, critic.trunk, out.critic.trunk),
            (targets.actor.net, actor.net, out.actor.net)):
        nn.blend_params(target, online, rho, out=blended)
    return out


def consistency_metric(actor: ActorNet, memory: ReplayMemory) -> float:
    """Mean squared deviation between recommended and logged flows, by row blocks."""
    if len(memory) == 0:
        raise ValueError("empty dataset")
    recommended = np.empty(len(memory))
    # one block buffer per call: a fresh one per block made the heap thrash
    buffer = np.empty((min(len(memory), nn.INFER_BLOCK_ROWS), memory.state_dim))
    for start in range(0, len(memory), nn.INFER_BLOCK_ROWS):
        rows = memory.rows[start:start + nn.INFER_BLOCK_ROWS]
        states = memory.source.take(rows, axis=0, out=buffer[:len(rows)])
        recommended[start:start + len(rows)] = actor.act(
            cohort.normalize_states(states, memory.means, memory.sds, out=states))
    return float(np.mean((recommended - memory.actions) ** 2))


def recommend(actor: ActorNet, state) -> float:
    """Deterministic flow recommendation in [0, 60] for one normalized state."""
    state = np.asarray(state, dtype=np.float64)
    if state.ndim != 1 or state.shape[0] != actor.state_dim:
        raise ValueError(f"state must be a vector of length {actor.state_dim}")
    return float(actor.act(state[None, :])[0])


def train(memory: ReplayMemory, config: TrainingConfig,
          consistency_fn=None) -> TrainResult:
    """Train one policy on one replay memory: :func:`train_folds` on a stack
    of one, whose result holds plain views of it."""
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
    :func:`consistency_metric`). Its actor is a view of the online network,
    which later steps update in place, so a hook copies anything of it that
    it keeps. A fold halts once it has not improved within `patience`
    iterations; the others go on without it. Each result is bit-identical
    to training its memory alone, and fully reproducible from the config
    and memory seeds.

    Contiguous groups of folds train in forked workers, one per usable CPU,
    so the hook may run in a worker, where state it mutates stays. Of the
    groups' failures, the earliest iteration's is raised (then the lowest
    fold's), as one loop over every fold would have raised it.
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

    outcomes = parallel.run_shards(lambda group: _train_lockstep(
        memories[slice(*group)], group[0], config, consistency_fn),
        parallel.ranges(len(memories)))
    failures = [out for out in outcomes if isinstance(out, TrainingAbortedError)]
    if failures:
        raise min(failures, key=lambda err: (err.iteration, err.fold))
    return [result for results in outcomes for result in results]


def _train_lockstep(memories, first_fold, config: TrainingConfig, consistency_fn):
    """:func:`train_folds`' loop, in this process: the results, or the
    TrainingAbortedError that stopped it (memory f is fold first_fold + f)."""
    # every fold starts from the same networks, in a stack along the fold axis
    net_seeds = np.random.SeedSequence(config.seed).spawn(2)
    state_dim = memories[0].state_dim
    critic = CriticNet.build(state_dim, net_seeds[0])
    actor = ActorNet.build(state_dim, net_seeds[1])
    n_folds = len(memories)
    stack = nn.NetworkParams.stack
    critic = CriticNet(state_dim, stack([critic.state_net] * n_folds),
                       stack([critic.trunk] * n_folds))
    actor = ActorNet(state_dim, stack([actor.net] * n_folds))
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
    # the memory each row of the stack trains on
    active = list(range(n_folds))

    def finish(rows):
        for row in rows:
            results[active[row]] = TrainResult(
                actor.take(row), critic.take(row), targets.take(row),
                logs[active[row]], critic_opt.take(row), actor_opt.take(row))

    stats = [np.stack([getattr(m, k) for m in memories])[:, None] for k in ("means", "sds")]
    size, every = config.batch_size, config.consistency_every
    # a block of iterations' minibatches, gathered in one pass, ends at a
    # consistency check or the cap, so a fold that stops leaves none behind
    block = max(1, GATHER_BLOCK_ROWS // (n_folds * size))
    buffers = _batch_buffers(n_folds, block * size, state_dim)
    iteration = 0
    while iteration < config.max_iterations:
        n = min(block, config.max_iterations - iteration, every - iteration % every)
        batches = gather_minibatches([memories[f] for f in active], [np.concatenate([
            samplers[f].integers(0, len(memories[f]), size=size) for _ in range(n)])
            for f in active], *stats, out=buffers)
        for start in range(0, n * size, size):
            iteration += 1
            batch = batches.take(slice(None), slice(start, start + size))
            try:
                targets_vec = td_target(batch, targets, config.discount)
                _, _, td_mse = critic_step(critic, batch, targets_vec, critic_opt,
                                           config.critic_lr)
                actor_step(actor, critic, batch, actor_opt, config.actor_lr)
            except TrainingAbortedError as err:
                fold = first_fold + active[err.fold]
                return TrainingAbortedError(f"fold {fold}, iteration {iteration}: {err}",
                                            iteration=iteration, fold=fold)
            polyak_update(targets, critic, actor, config.polyak, out=targets)
            for f, mse in zip(active, td_mse.tolist()):
                logs[f].td_mse.append(mse)
                logs[f].n_iterations = iteration
        if iteration % every:
            continue
        stopped = []
        for row, f in enumerate(active):
            value = float(consistency_fn(actor.take(row), memories[f]))
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
            stats = [s[keep] for s in stats]
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


_CONFIG_FIELDS = tuple(f.name for f in fields(TrainingConfig))


def save_policy(path, bundle: PolicyBundle) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(POLICY_MAGIC + "\n")
        fh.write(f"policy_kind {POLICY_KIND_ACTOR}\n")
        fh.write(f"interval_hours {float(bundle.interval_hours)!r}\n")
        values = " ".join(repr(getattr(bundle.config, name))
                          for name in _CONFIG_FIELDS)
        fh.write(f"config {values}\n")
        fh.write("features " + " ".join(bundle.feature_names) + "\n")
        textfile.write_array(fh, "feature_means", bundle.feature_means)
        textfile.write_array(fh, "feature_sds", bundle.feature_sds)
        for net in (bundle.actor.net, bundle.critic.state_net, bundle.critic.trunk,
                    bundle.targets.actor.net, bundle.targets.critic.state_net,
                    bundle.targets.critic.trunk):
            nn.write_params(fh, net)


def load_policy(path) -> PolicyBundle:
    """Read a policy checkpoint, checking its structure: any truncated,
    mis-shaped, unknown, non-finite or trailing content raises ValueError."""
    with open(path) as fh:
        textfile.fields(fh, POLICY_MAGIC, 0)
        (policy_kind,) = textfile.fields(fh, "policy_kind", 1)
        if policy_kind != POLICY_KIND_ACTOR:
            raise ValueError(f"unknown policy kind {policy_kind!r}")
        interval_hours = float(textfile.fields(fh, "interval_hours", 1)[0])
        if not (np.isfinite(interval_hours) and interval_hours > 0):
            raise ValueError(f"invalid interval_hours {interval_hours!r}")
        raw = textfile.fields(fh, "config", len(_CONFIG_FIELDS))
        defaults = TrainingConfig()
        config = TrainingConfig(**{name: type(getattr(defaults, name))(value)
                                   for name, value in zip(_CONFIG_FIELDS, raw)})
        config.validate()
        feature_names = tuple(textfile.fields(fh, "features"))
        state_dim = len(feature_names)
        stats = []
        for name in ("feature_means", "feature_sds"):
            got, arr = textfile.read_array(fh)
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
