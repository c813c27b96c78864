"""Differential-evolution adaptation of the regularization pair.

A swarm of P individuals each carries a hyperparameter vector
v = (lam, lam_b) and a private copy of the factor model. Every outer
iteration each individual advances its model by one multiplicative-update
epoch under its own hyperparameters and is scored by the validation
fitness H = RMSE/2 + MAE/2. New vectors come from mutation around the
global best tau,

    candidate = tau + mu * (v_r1 - v_r2)    (clamped into bounds)

followed by binomial crossover with the previous vector.

Two best-selection rules are provided. "argmin_h" replaces tau whenever
an individual's H beats tau's recorded H, which makes the recorded-H
sequence non-increasing. "paper_f" scores individuals by the normalized
consecutive-H difference

    F_p = (H(v_p) - H(v_{p-1})) / (H(v_P) - H_prev)

with H(v_0) taken as H_prev, the last individual's H from the previous
iteration, and sweeps p = 1..P replacing tau whenever F_p > F_{p-1}
(F_0 = 0). When the F denominator is zero the fitness is undefined:
`paper_fitness` returns None and `update_best` applies argmin_h for that
iteration.

RNG is split into one stream per individual derived from the master
seed. Every draw runs on the main thread once the evaluations are back;
the streams stay because they fix the bytes of every adaptive run, and
merging them would change those bytes.

An iteration is one step of the trainer's epoch loop (`_run_epochs`),
which records the iteration-best scores, stops and builds the report.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .model import FactorModel, HyperParams, check_memory
from .trainer import (TrainConfig, TrainReport, _ordered_map, _run_epochs, nmu_epoch,
                      validation_metrics)


@dataclass
class DEAConfig:
    """Differential-evolution settings.

    bounds is (lam_min, lam_max, lam_b_min, lam_b_max). There is no
    iteration cap here: each iteration costs every individual one epoch,
    so the training config's max_epochs bounds the generations.
    """

    population: int = 10
    scale_factor: float = 0.4
    crossover_prob: float = 0.9
    bounds: tuple[float, float, float, float] = (1e-4, 0.5, 1e-4, 0.5)
    best_rule: str = "argmin_h"
    seed: int | np.random.SeedSequence = 0

    def __post_init__(self):
        self.population = operator.index(self.population)  # 4.5 fails here, not in the spawn
        if self.population < 4:
            raise ValueError("population must be >= 4")
        if not (0 <= self.crossover_prob <= 1):
            raise ValueError("crossover_prob must lie in [0, 1]")
        if not (0 <= self.scale_factor < math.inf):
            raise ValueError("scale_factor must be finite and nonnegative")
        lo1, hi1, lo2, hi2 = self.bounds
        if not (0 <= lo1 <= hi1 < math.inf and 0 <= lo2 <= hi2 < math.inf):
            raise ValueError("bounds must be finite, nonnegative and ordered (min <= max)")
        if self.best_rule not in ("argmin_h", "paper_f"):
            raise ValueError("best_rule must be 'argmin_h' or 'paper_f'")


@dataclass
class Individual:
    """One hyperparameter vector with its private model replica."""

    v: np.ndarray
    model: FactorModel = field(repr=False)
    rng: np.random.Generator = field(repr=False)
    h_current: float | None = None


@dataclass
class Swarm:
    individuals: list[Individual]
    tau: np.ndarray
    tau_h: float


def init_swarm(config: DEAConfig, template: FactorModel) -> Swarm:
    """Draw P vectors inside bounds and clone the template per individual.

    Each vector component is min + theta * (max - min) with a fresh
    theta ~ uniform[0, 1). tau starts as the first individual's vector
    with an infinite recorded H, pending the first evaluation. Raises
    MemoryError, before any copy, when P replicas exceed physical memory.
    """
    check_memory(template.n_nodes, template.n_slots, template.rank, template.window,
                 replicas=config.population)
    seed = config.seed
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    lo, hi = np.array(config.bounds[0::2]), np.array(config.bounds[1::2])  # as mutation clips
    rngs = [np.random.default_rng(child) for child in ss.spawn(config.population)]
    individuals = [Individual(v=lo + rng.random(2) * (hi - lo), model=template.copy(), rng=rng)
                   for rng in rngs]
    return Swarm(individuals=individuals, tau=individuals[0].v.copy(), tau_h=math.inf)


def mutate_and_bound(swarm: Swarm, p: int, config: DEAConfig) -> np.ndarray:
    """tau + mu * (v_r1 - v_r2) with r1 != r2, both != p, clamped into bounds."""
    if len(swarm.individuals) < 3:
        raise ValueError("mutation needs at least 3 individuals")
    ind = swarm.individuals[p]
    others = [q for q in range(len(swarm.individuals)) if q != p]
    pick = ind.rng.choice(len(others), size=2, replace=False)
    r1, r2 = others[pick[0]], others[pick[1]]
    # a step past the float range is +-inf, which the clamp maps onto a bound
    with np.errstate(over="ignore"):
        candidate = swarm.tau + config.scale_factor * (swarm.individuals[r1].v
                                                       - swarm.individuals[r2].v)
    return np.clip(candidate, config.bounds[0::2], config.bounds[1::2])


def crossover(previous: np.ndarray, mutant: np.ndarray, config: DEAConfig,
              rng: np.random.Generator) -> np.ndarray:
    """Binomial crossover: take the mutant component where theta <= C_p or
    at the one forced dimension m*, otherwise keep the previous component."""
    dim = previous.size
    m_star = int(rng.integers(dim))
    theta = rng.random(dim)
    take = theta <= config.crossover_prob
    take[m_star] = True
    return np.where(take, mutant, previous)


def evaluate_individual(individual: Individual, train, validation) -> tuple[float, float, float]:
    """One epoch on the individual's private model, then its validation
    (rmse, mae, h), which it returns. H is also kept as h_current, for
    update_best and for on_iteration watchers.
    """
    lam, lam_b = individual.v
    nmu_epoch(individual.model, train, HyperParams(lam=float(lam), lam_b=float(lam_b)))
    scores = validation_metrics(individual.model, validation)
    individual.h_current = scores[2]
    return scores


def paper_fitness(h_values, h_last: float) -> np.ndarray | None:
    """Normalized consecutive-H differences, or None when the denominator
    (H of the last individual this iteration minus h_last) is zero."""
    h = np.asarray(h_values, dtype=float)
    denom = h[-1] - h_last
    if denom == 0:
        return None
    prev = np.concatenate(([h_last], h[:-1]))
    return (h - prev) / denom


def update_best(swarm: Swarm, fitness=None) -> np.ndarray:
    """Refresh tau from the evaluated individuals and return it.

    With `fitness`, one value per individual (paper_fitness), the paper
    sweep replaces tau at every individual whose fitness exceeds the one
    before it (starting from 0). Without it, as under argmin_h or when
    paper_fitness is undefined, tau moves to the lowest h_current if that
    beats tau_h.
    """
    inds = swarm.individuals
    if fitness is not None:
        f_prev = 0.0
        for ind, f in zip(inds, fitness):
            if f > f_prev:
                swarm.tau = ind.v.copy()
                swarm.tau_h = ind.h_current
            f_prev = f
    else:
        best = min(range(len(inds)), key=lambda q: inds[q].h_current)
        if inds[best].h_current < swarm.tau_h:
            swarm.tau = inds[best].v.copy()
            swarm.tau_h = inds[best].h_current
    return swarm.tau


def adapt_train(template: FactorModel, train, validation, dea: DEAConfig,
                tc: TrainConfig, threads: int = 1,
                on_iteration=None) -> tuple[FactorModel, TrainReport]:
    """Full adaptive run: evolve (lam, lam_b) while training the swarm.

    Per iteration: evaluate every individual (one epoch each), build the
    next-iteration trial vectors from the current population and tau,
    compute fitness under the configured rule, update tau, then install
    the trial vectors. Stops after tc.max_epochs iterations or once
    the best H changes by less than the tolerance between iterations,
    where "best H" is the iteration's minimum H under argmin_h and tau's
    recorded H under paper_f.

    The returned model is the replica of the lowest-H individual; the
    report's final_hp echoes tau, and its per-epoch series track the
    iteration-best individual. `on_iteration(swarm)` runs after each
    tau update, for callers that want to watch the swarm. A
    DivergenceError names the iteration it happened in.

    Args:
        template: starting parameters, copied into each individual.
        threads: how many individuals are evaluated at once; each replica
            is private, so the thread count changes no result.
    """
    if validation.n_entries == 0:
        raise ValueError("empty validation set")
    template.validate()
    swarm = init_swarm(dea, template)
    # H of the untrained template stands in for the previous iteration's
    # last-individual H on the first fitness evaluation
    _, _, h_last = validation_metrics(template, validation)

    def step():
        nonlocal h_last
        scores = _ordered_map(lambda ind: evaluate_individual(ind, train, validation),
                              swarm.individuals, threads)
        h_values = [h for _, _, h in scores]

        # next-iteration vectors come from the evaluated population snapshot
        trials = [crossover(ind.v, mutate_and_bound(swarm, p, dea), dea, ind.rng)
                  for p, ind in enumerate(swarm.individuals)]
        update_best(swarm, paper_fitness(h_values, h_last)
                    if dea.best_rule == "paper_f" else None)
        if on_iteration is not None:
            on_iteration(swarm)

        for ind, trial in zip(swarm.individuals, trials):
            ind.v = trial
        h_last = h_values[-1]
        best = scores[int(np.argmin(h_values))]
        watched = best[2] if dea.best_rule == "argmin_h" else swarm.tau_h
        return *best, watched

    report = _run_epochs(step, tc.max_epochs, tc.tolerance,
                         lambda: HyperParams(lam=float(swarm.tau[0]),
                                             lam_b=float(swarm.tau[1])),
                         tuner={"population": dea.population, "best_rule": dea.best_rule})
    best = min(swarm.individuals, key=lambda ind: ind.h_current)
    return best.model, report
