import json
import math

import numpy as np
import pytest

import dyntf
from dyntf import (DEAConfig, DivergenceError, HyperParams, Individual, Swarm,
                   TrainConfig, adapt_train, crossover, evaluate_individual,
                   generate_synthetic, init_positive, init_swarm, model_to_dict,
                   mutate_and_bound, paper_fitness, train, update_best)


class _StubRng:
    """Fixed draw sequence standing in for a Generator in vector-level tests."""

    def __init__(self, choice=None, integers=None, random=None):
        self._choice = choice
        self._integers = integers
        self._random = random

    def choice(self, n, size=None, replace=True):
        return np.asarray(self._choice)

    def integers(self, n):
        return self._integers

    def random(self, shape=None):
        return np.asarray(self._random)


def _vector_swarm(vectors, tau, tau_h=math.inf, rngs=None):
    inds = [Individual(v=np.asarray(v, dtype=float), model=None,
                       rng=(rngs[q] if rngs else None))
            for q, v in enumerate(vectors)]
    return Swarm(individuals=inds, tau=np.asarray(tau, dtype=float), tau_h=tau_h)


class TestDEAConfig:
    def test_defaults(self):
        cfg = DEAConfig()
        assert cfg.population == 10
        assert cfg.scale_factor == 0.4
        assert cfg.crossover_prob == 0.9
        assert cfg.bounds == (1e-4, 0.5, 1e-4, 0.5)
        assert cfg.best_rule == "argmin_h"

    def test_validation(self):
        with pytest.raises(ValueError, match="population"):
            DEAConfig(population=3)
        with pytest.raises(ValueError, match="bounds"):
            DEAConfig(bounds=(0.5, 1e-4, 1e-4, 0.5))
        with pytest.raises(ValueError, match="crossover"):
            DEAConfig(crossover_prob=1.5)
        with pytest.raises(ValueError, match="best_rule"):
            DEAConfig(best_rule="other")

    @pytest.mark.parametrize("population", [4.5, 5.0, np.float64(5)], ids=["4.5", "5.0", "float64"])
    def test_population_must_be_an_integer(self, population):
        # caught here, not as a TypeError from the swarm's spawn inside adapt_train
        with pytest.raises(TypeError, match="integer"):
            DEAConfig(population=population)

    def test_integer_population_is_a_python_int(self):
        assert type(DEAConfig(population=np.int64(5)).population) is int

    @pytest.mark.parametrize("bounds", [(0.1, 0.2, 0.3), (0.1, 0.2, 0.1, 0.2, 0.3)])
    def test_bounds_must_be_four_numbers(self, bounds):
        with pytest.raises(ValueError, match="^bounds must be 4 "):
            DEAConfig(bounds=bounds)


class TestInitSwarm:
    def test_vectors_inside_bounds_and_deterministic(self):
        template = init_positive(5, 4, 2, 1, seed=3)
        cfg = DEAConfig(population=6, seed=9)
        a = init_swarm(cfg, template)
        b = init_swarm(DEAConfig(population=6, seed=9), template)
        lo1, hi1, lo2, hi2 = cfg.bounds
        for x, y in zip(a.individuals, b.individuals):
            assert np.array_equal(x.v, y.v)
            assert lo1 <= x.v[0] <= hi1 and lo2 <= x.v[1] <= hi2
        assert np.array_equal(a.tau, a.individuals[0].v)
        assert a.tau_h == math.inf

    def test_collapsed_bounds_pin_vectors(self):
        template = init_positive(4, 3, 1, 0, seed=0)
        cfg = DEAConfig(population=5, bounds=(0.02, 0.02, 0.005, 0.005), seed=1)
        swarm = init_swarm(cfg, template)
        for ind in swarm.individuals:
            assert np.array_equal(ind.v, np.array([0.02, 0.005]))

    def test_private_model_replicas(self):
        template = init_positive(4, 3, 1, 0, seed=0)
        swarm = init_swarm(DEAConfig(population=4, seed=0), template)
        swarm.individuals[0].model.S[0, 0] = 99.0
        assert template.S[0, 0] != 99.0
        assert swarm.individuals[1].model.S[0, 0] != 99.0


class TestMutateAndBound:
    def test_hand_value(self):
        # tau + mu * (v_r1 - v_r2) with r1=1, r2=2
        rng = _StubRng(choice=[0, 1])
        swarm = _vector_swarm([(0.9, 0.9), (0.3, 0.4), (0.1, 0.2)],
                              tau=(0.1, 0.2), rngs=[rng, None, None])
        cfg = DEAConfig(population=4, scale_factor=0.5, bounds=(0.0, 1.0, 0.0, 1.0))
        got = mutate_and_bound(swarm, 0, cfg)
        assert got == pytest.approx([0.2, 0.3], rel=1e-15)

    def test_equal_donors_return_tau(self):
        rng = _StubRng(choice=[0, 1])
        swarm = _vector_swarm([(0.9, 0.9), (0.3, 0.4), (0.3, 0.4)],
                              tau=(0.1, 0.2), rngs=[rng, None, None])
        cfg = DEAConfig(population=4, scale_factor=0.5, bounds=(0.0, 1.0, 0.0, 1.0))
        assert np.array_equal(mutate_and_bound(swarm, 0, cfg), np.array([0.1, 0.2]))

    def test_clamped_into_bounds(self):
        rng = _StubRng(choice=[0, 1])
        swarm = _vector_swarm([(0.9, 0.9), (0.1, 0.1), (0.9, 0.9)],
                              tau=(0.15, 0.15), rngs=[rng, None, None])
        cfg = DEAConfig(population=4, scale_factor=1.0, bounds=(0.1, 0.5, 0.1, 0.5))
        got = mutate_and_bound(swarm, 0, cfg)
        # raw candidate (-0.65, -0.65) clamps to the lower bounds
        assert np.array_equal(got, np.array([0.1, 0.1]))

    def test_overflowing_step_clamps_without_warning(self):
        # 1e308 * (1e308 - 1) overflows to +inf in the first component
        rng = _StubRng(choice=[0, 1])
        swarm = _vector_swarm([(0.9, 0.9), (1e308, 0.4), (1.0, 0.2)],
                              tau=(0.1, 0.2), rngs=[rng, None, None])
        cfg = DEAConfig(population=4, scale_factor=1e308, bounds=(0.0, 1e308, 0.0, 1.0))
        got = mutate_and_bound(swarm, 0, cfg)  # a RuntimeWarning fails the suite
        assert np.array_equal(got, np.array([1e308, 1.0]))

    def test_two_individuals_rejected(self):
        # two donors distinct from the target need at least three individuals
        swarm = _vector_swarm([(0.9, 0.9), (0.3, 0.4)], tau=(0.1, 0.2),
                              rngs=[_StubRng(choice=[0, 1])] * 2)
        cfg = DEAConfig(population=4, bounds=(0.0, 1.0, 0.0, 1.0))
        with pytest.raises(ValueError, match="^mutation needs at least 3 individuals$"):
            mutate_and_bound(swarm, 0, cfg)

    def test_donors_never_include_target(self):
        template = init_positive(4, 3, 1, 0, seed=0)
        swarm = init_swarm(DEAConfig(population=5, seed=7), template)
        cfg = DEAConfig(population=5, seed=7)
        lo1, hi1, lo2, hi2 = cfg.bounds
        for _ in range(50):
            for p in range(5):
                v = mutate_and_bound(swarm, p, cfg)
                assert lo1 <= v[0] <= hi1 and lo2 <= v[1] <= hi2


class TestCrossover:
    def test_cp_one_takes_mutant(self):
        cfg = DEAConfig(population=4, crossover_prob=1.0)
        prev = np.array([0.1, 0.1])
        mut = np.array([0.2, 0.3])
        got = crossover(prev, mut, cfg, np.random.default_rng(0))
        assert np.array_equal(got, mut)

    def test_cp_zero_changes_exactly_one_component(self):
        cfg = DEAConfig(population=4, crossover_prob=0.0)
        prev = np.array([0.1, 0.1])
        mut = np.array([0.2, 0.3])
        rng = np.random.default_rng(1)
        for _ in range(20):
            got = crossover(prev, mut, cfg, rng)
            assert int((got != prev).sum()) == 1

    def test_hand_value_forced_first_dimension(self):
        cfg = DEAConfig(population=4, crossover_prob=0.0)
        rng = _StubRng(integers=0, random=[0.9, 0.9])  # theta > C_p everywhere
        got = crossover(np.array([0.1, 0.1]), np.array([0.2, 0.3]), cfg, rng)
        assert np.array_equal(got, np.array([0.2, 0.1]))


class TestEvaluateIndividual:
    def test_perfect_model_scores_zero(self):
        data, truth = generate_synthetic(15, 6, 2, 0.25, 0.7, 0.0, seed=21)
        sp = dyntf.split(data, (7, 1, 2), seed=21)
        ind = Individual(v=np.array([0.0, 0.0]), model=truth.copy(),
                         rng=np.random.default_rng(0))
        r, m, h = evaluate_individual(ind, sp.train, sp.validation)
        assert h <= 1e-12
        assert ind.h_current == h
        assert r <= 1e-12 and m <= 1e-12

    def test_h_matches_metric_identity(self, fixture_split):
        ind = Individual(v=np.array([0.01, 0.01]),
                         model=init_positive(50, 20, 2, 19, seed=2),
                         rng=np.random.default_rng(0))
        r, m, h = evaluate_individual(ind, fixture_split.train, fixture_split.validation)
        assert h == (r + m) / 2.0
        assert ind.h_current == h


class TestPaperFitness:
    def test_two_individual_example(self):
        f = paper_fitness([0.8, 0.6], h_last=1.0)
        assert f == pytest.approx([0.5, 0.5], rel=1e-15)

    def test_single_individual(self):
        f = paper_fitness([0.5], h_last=1.0)
        assert f == pytest.approx([1.0], rel=1e-15)

    def test_zero_denominator_undefined(self):
        assert paper_fitness([0.4, 0.4, 0.7], h_last=0.7) is None


class TestUpdateBest:
    def test_argmin_selects_minimum(self):
        swarm = _vector_swarm([(0.1, 0.1), (0.2, 0.2), (0.3, 0.3)],
                              tau=(0.9, 0.9), tau_h=0.25)
        for ind, h in zip(swarm.individuals, (0.3, 0.2, 0.4)):
            ind.h_current = h
        update_best(swarm)
        assert np.array_equal(swarm.tau, np.array([0.2, 0.2]))
        assert swarm.tau_h == 0.2

    def test_argmin_keeps_tau_without_improvement(self):
        swarm = _vector_swarm([(0.1, 0.1), (0.2, 0.2)], tau=(0.9, 0.9), tau_h=0.25)
        for ind, h in zip(swarm.individuals, (0.3, 0.4)):
            ind.h_current = h
        update_best(swarm)
        assert np.array_equal(swarm.tau, np.array([0.9, 0.9]))
        assert swarm.tau_h == 0.25

    def test_paper_rule_strict_increase_sweep(self):
        # F = (0.5, 0.5): only the first comparison (against 0) fires
        swarm = _vector_swarm([(0.1, 0.1), (0.2, 0.2)], tau=(0.9, 0.9), tau_h=1.0)
        for ind, h in zip(swarm.individuals, (0.8, 0.6)):
            ind.h_current = h
        update_best(swarm, [0.5, 0.5])
        assert np.array_equal(swarm.tau, np.array([0.1, 0.1]))
        assert swarm.tau_h == 0.8

    def test_paper_rule_falls_back_when_fitness_undefined(self):
        swarm = _vector_swarm([(0.1, 0.1), (0.2, 0.2)], tau=(0.9, 0.9), tau_h=1.0)
        for ind, h in zip(swarm.individuals, (0.8, 0.6)):
            ind.h_current = h
        # paper_fitness gives None when its denominator is zero
        update_best(swarm, paper_fitness([0.8, 0.6], h_last=0.6))
        assert np.array_equal(swarm.tau, np.array([0.2, 0.2]))
        assert swarm.tau_h == 0.6


class TestAdaptTrain:
    def test_collapsed_bounds_match_plain_train(self, fixture_split):
        template = init_positive(50, 20, 2, 19, seed=5)
        tc = TrainConfig(max_epochs=15, tolerance=0.0)
        dea = DEAConfig(population=4, bounds=(0.02, 0.02, 0.005, 0.005), seed=8)
        model_a, rep_a = adapt_train(template, fixture_split.train,
                                     fixture_split.validation, dea, tc)
        model_b, rep_b = train(template, fixture_split.train,
                               fixture_split.validation,
                               HyperParams(0.02, 0.005), tc)
        assert rep_a.per_epoch_h == rep_b.per_epoch_h
        assert rep_a.per_epoch_rmse == rep_b.per_epoch_rmse
        assert np.array_equal(model_a.S, model_b.S)
        assert (rep_a.final_hp.lam, rep_a.final_hp.lam_b) == (0.02, 0.005)

    def test_bounds_closure_and_monotone_tau(self, fixture_split):
        template = init_positive(50, 20, 2, 19, seed=5)
        dea = DEAConfig(population=5, seed=12)
        tc = TrainConfig(max_epochs=10, tolerance=0.0)
        tau_hs = []

        def watch(swarm):
            lo1, hi1, lo2, hi2 = dea.bounds
            for ind in swarm.individuals:
                assert lo1 <= ind.v[0] <= hi1 and lo2 <= ind.v[1] <= hi2
            tau_hs.append(swarm.tau_h)

        adapt_train(template, fixture_split.train, fixture_split.validation,
                    dea, tc, on_iteration=watch)
        assert len(tau_hs) == 10
        assert all(b <= a for a, b in zip(tau_hs, tau_hs[1:]))

    def test_report_fields(self, fixture_split):
        template = init_positive(50, 20, 2, 19, seed=5)
        dea = DEAConfig(population=4, seed=2)
        _, report = adapt_train(template, fixture_split.train,
                                fixture_split.validation, dea,
                                TrainConfig(max_epochs=6, tolerance=0.0))
        assert report.epochs_run == 6
        assert report.tuner == {"population": 4, "best_rule": "argmin_h"}
        lo1, hi1, lo2, hi2 = dea.bounds
        assert lo1 <= report.final_hp.lam <= hi1
        assert lo2 <= report.final_hp.lam_b <= hi2
        doc = report.to_dict()
        assert list(doc)[-5:] == ["final_hp", "best_lambda", "best_lambda_b",
                                  "population", "best_rule"]
        assert doc["best_lambda"] == report.final_hp.lam
        assert doc["best_lambda_b"] == report.final_hp.lam_b
        assert doc["final_hp"] == {"lambda": report.final_hp.lam,
                                   "lambda_b": report.final_hp.lam_b}

    def test_deterministic_given_seed(self, fixture_split):
        reports = []
        for _ in range(2):
            template = init_positive(50, 20, 2, 19, seed=5)
            _, rep = adapt_train(template, fixture_split.train,
                                 fixture_split.validation,
                                 DEAConfig(population=4, seed=77),
                                 TrainConfig(max_epochs=5, tolerance=0.0))
            reports.append(rep)
        assert reports[0].per_epoch_h == reports[1].per_epoch_h
        assert reports[0].final_hp == reports[1].final_hp

    @pytest.mark.parametrize("best_rule", ["argmin_h", "paper_f"])
    def test_threaded_evaluation_matches_sequential(self, fixture_split, best_rule):
        reports, model_bytes = [], []
        for threads in (1, 3, 6):  # 6 asks for more threads than the 5 individuals
            template = init_positive(50, 20, 2, 19, seed=5)
            model, rep = adapt_train(template, fixture_split.train,
                                     fixture_split.validation,
                                     DEAConfig(population=5, seed=31, best_rule=best_rule),
                                     TrainConfig(max_epochs=5, tolerance=0.0),
                                     threads=threads)
            reports.append(rep)
            model_bytes.append(json.dumps(model_to_dict(model, rep.final_hp)).encode())
        for rep, data in zip(reports[1:], model_bytes[1:]):
            assert rep.per_epoch_h == reports[0].per_epoch_h
            assert rep.final_hp == reports[0].final_hp
            assert data == model_bytes[0]

    def test_paper_rule_runs(self, fixture_split):
        template = init_positive(50, 20, 2, 19, seed=5)
        _, report = adapt_train(template, fixture_split.train,
                                fixture_split.validation,
                                DEAConfig(population=4, seed=3, best_rule="paper_f"),
                                TrainConfig(max_epochs=5, tolerance=0.0))
        assert report.tuner["best_rule"] == "paper_f"
        assert report.epochs_run == 5

    def test_divergence_in_pool_worker_names_its_epoch(self):
        data, _ = generate_synthetic(6, 3, 1, 0.5, 0.5, 0.0, seed=1)
        template = init_positive(6, 3, 1, 1, seed=1)
        template.S = template.S * 1e200
        template.U = template.U * 1e200
        with pytest.raises(DivergenceError, match=r"^epoch 1: non-finite .* diverged"):
            adapt_train(template, data, data, DEAConfig(population=4),
                        TrainConfig(max_epochs=3), threads=2)

    def test_empty_validation_rejected(self, fixture_split):
        template = init_positive(50, 20, 2, 19, seed=5)
        empty = dyntf.SparseTensor(50, 20, [], [], [], [])
        with pytest.raises(ValueError, match="validation"):
            adapt_train(template, fixture_split.train, empty,
                        DEAConfig(population=4), TrainConfig(max_epochs=3))

    def test_beats_fixed_midpoint_hyperparameters(self):
        # adaptive regularization vs the fixed midpoint of the default
        # bounds, lambda = lambda_b = 0.25, median test RMSE over 5 seeds
        # (measured medians with these seeds: 0.0984 adaptive, 0.1418 fixed)
        adapt_scores, fixed_scores = [], []
        for seed in (7, 8, 9, 10, 11):
            data, _ = generate_synthetic(50, 20, 2, 0.05, 0.9, 0.01, seed=seed)
            sp = dyntf.split(data, (7, 1, 2), seed=seed)
            template = init_positive(50, 20, 2, 19, seed=seed + 17)
            tc = TrainConfig(max_epochs=400, tolerance=1e-5)
            best, _ = adapt_train(template, sp.train, sp.validation,
                                  DEAConfig(seed=seed), tc)
            adapt_scores.append(dyntf.validation_metrics(best, sp.test)[0])
            fixed, _ = train(template, sp.train, sp.validation,
                             HyperParams(0.25, 0.25), tc)
            fixed_scores.append(dyntf.validation_metrics(fixed, sp.test)[0])
        assert np.median(adapt_scores) <= np.median(fixed_scores)
