"""Tests for the experiment harness at reduced desk scale."""

import json
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wshift.distributions
import wshift.experiments
import wshift.limitlaw
from wshift._seeds import derive_rng
from wshift.distributions import (
    _sorted_blocks,
    sine_distribution,
    tail_distribution,
    uniform01,
)
from wshift.cli import main
from wshift.errors import ParameterError
from wshift.experiments import (
    Cell,
    ComparisonConfig,
    PhaseConfig,
    PowerMapConfig,
    WeightComparisonConfig,
    run_ks_comparison,
    run_phase_transition,
    run_power_map,
    run_weight_comparison,
)
from wshift.hypotest import ks_statistics_sorted
from wshift.transport import (
    displacement_interpolate,
    lebesgue,
    plan_scaled_statistic,
    quadratic_weight,
    scaled_statistics,
)


SMALL_PHASE = PhaseConfig(n=20_000, betas=(0.2, 0.5, 0.8), trials=60, seed=202)


class TestResultTable:
    def test_cell_lookup(self):
        table = run_phase_transition(SMALL_PHASE)
        c = table.cell("type1", 0.2)
        assert c.trials == 60
        with pytest.raises(KeyError):
            table.cell("nope", 0.2)

    def test_se_definition(self):
        table = run_phase_transition(SMALL_PHASE)
        for c in table.cells:
            if c.metric in ("type1", "type2"):
                assert abs(c.se - math.sqrt(c.value * (1 - c.value) / c.trials)) < 1e-15

    def test_csv_format(self):
        table = run_phase_transition(SMALL_PHASE)
        lines = table.csv_text().splitlines()
        assert lines[0] == "beta,metric,value,se,trials"
        assert len(lines) == 1 + len(table.cells)

    def test_json_round_trip(self):
        table = run_phase_transition(SMALL_PHASE)
        payload = json.loads(json.dumps(table.to_dict(), indent=2))
        assert payload["schema"] == "wshift-result-table/1"
        assert payload["config"]["seed"] == 202
        assert len(payload["cells"]) == len(table.cells)
        first = payload["cells"][0]
        assert first["value"] == table.cells[0].value  # binary-faithful floats

    def test_bit_reproducible(self):
        a = run_phase_transition(SMALL_PHASE)
        b = run_phase_transition(SMALL_PHASE)
        assert a == b


class TestPhaseTransition:
    def test_error_sum_shape(self):
        table = run_phase_transition(SMALL_PHASE)
        low = table.cell("error_sum", 0.2).value
        high = table.cell("error_sum", 0.8).value
        assert low <= 0.15
        assert high >= 0.85

    def test_calibration_band(self):
        table = run_phase_transition(SMALL_PHASE)
        for beta in SMALL_PHASE.betas:
            c = table.cell("type1", beta)
            band = 3.0 * math.sqrt(0.05 * 0.95 / c.trials)
            assert abs(c.value - 0.05) <= band + 1e-12

    def test_error_sum_se_combines(self):
        table = run_phase_transition(SMALL_PHASE)
        c1 = table.cell("type1", 0.5)
        c2 = table.cell("type2", 0.5)
        cs = table.cell("error_sum", 0.5)
        assert abs(cs.se - math.hypot(c1.se, c2.se)) < 1e-15

    @pytest.mark.parametrize("n", [12, 200])
    def test_block_size_does_not_change_table(self, monkeypatch, n):
        # a 50-value budget holds 4 rows of n = 12 per block, or one row of n = 200
        cfg = PhaseConfig(n=n, betas=(0.2, 0.8), trials=40, seed=5)
        want = run_phase_transition(cfg).csv_text()
        monkeypatch.setattr(wshift.distributions, "_BLOCK_SCALARS", 50)
        assert run_phase_transition(cfg).csv_text() == want

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            PhaseConfig(betas=(0.0, 0.5))
        with pytest.raises(ParameterError):
            PhaseConfig(trials=10)

    def test_boundary_exponent_matches_limit_law(self):
        # at beta = 1/2 the boundary constant is exactly 1 for every n, so the
        # error sum should approach alpha + (boundary Type II at gamma = 1)
        from wshift.distributions import gaussian, uniform01
        from wshift.limitlaw import BridgeGrid, LimitLawSampler, theoretical_type2
        from wshift.transport import lebesgue

        cfg = PhaseConfig(n=20_000, betas=(0.5,), trials=200, seed=88)
        table = run_phase_transition(cfg)
        sampler = LimitLawSampler.from_distributions(
            uniform01(), gaussian(0.0, 1.0, -8.0, 8.0), lebesgue(),
            BridgeGrid(2048), seed=5)
        alpha = 0.05  # the level of the tabulated cfg.critical
        predicted = alpha + theoretical_type2(sampler, 1.0, alpha, 30_000,
                                              critical=cfg.critical)
        assert abs(table.cell("error_sum", 0.5).value - predicted) <= 0.1


POWERMAP_CFG = PowerMapConfig(deltas=(0.05, 0.09), gammas=(5.0, 9.0), n=20_000,
                              trials=80, law_reps=20_000, grid_k=1024, seed=7)


@pytest.fixture(scope="module")
def powermap_table():
    return run_power_map(POWERMAP_CFG)


class TestPowerMap:
    CFG = POWERMAP_CFG

    @pytest.fixture()
    def table(self, powermap_table):
        return powermap_table

    def test_empirical_matches_theoretical(self, table):
        for delta in self.CFG.deltas:
            for gamma in self.CFG.gammas:
                emp = table.cell("type2_empirical", delta, gamma)
                theo = table.cell("type2_theoretical", delta, gamma)
                tol = max(0.05, 3.0 * math.hypot(emp.se, theo.se))
                assert abs(emp.value - theo.value) <= tol

    def test_monotone_along_gamma(self, table):
        # level-set structure: stronger boundary constant, smaller Type II
        slack = 2.0 * math.sqrt(0.25 / self.CFG.trials)
        for delta in self.CFG.deltas:
            t2 = [table.cell("type2_empirical", delta, g).value for g in self.CFG.gammas]
            assert all(t2[i + 1] <= t2[i] + slack for i in range(len(t2) - 1))

    def test_monotone_along_delta(self, table):
        # rows of the map: larger signal strength at fixed gamma, smaller Type II
        slack = 2.0 * math.sqrt(0.25 / self.CFG.trials)
        for gamma in self.CFG.gammas:
            t2 = [table.cell("type2_empirical", d, gamma).value for d in self.CFG.deltas]
            assert all(t2[i + 1] <= t2[i] + slack for i in range(len(t2) - 1))

    def test_calibration_cell(self, table):
        c = table.cell("type1", 0.0, 0.0)
        assert abs(c.value - 0.05) <= 3.0 * math.sqrt(0.05 * 0.95 / c.trials) + 1e-12

    def test_unrealizable_delta_rejected(self):
        with pytest.raises(ParameterError, match="realizable"):
            PowerMapConfig(deltas=(0.2,))

    @pytest.mark.parametrize("gammas", ["0,5", "5,-1"])
    def test_nonpositive_gamma_rejected_before_any_trial(self, monkeypatch, capsys, gammas):
        drawn = []
        monkeypatch.setattr(wshift.experiments, "_interleaved_blocks",
                            lambda *args, **kwargs: drawn.append(args) or iter(()))
        code = main(["powermap", "--gammas", gammas, "--deltas", "0.03", "--n", "500",
                     "--trials", "20", "--law-reps", "100", "--grid-k", "64"])
        assert code == 1
        assert "gammas must be positive" in capsys.readouterr().err
        assert drawn == []


KSCOMP_CFG = ComparisonConfig(family="sine", p_grid=(1.0,), gammas=(4.0, 10.0),
                              n=20_000, trials=60, seed=13)


@pytest.fixture(scope="module")
def kscomp_table():
    return run_ks_comparison(KSCOMP_CFG)


class TestKsComparison:
    CFG = KSCOMP_CFG

    @pytest.fixture()
    def table(self, kscomp_table):
        return kscomp_table

    def test_strong_regime(self, table):
        assert table.cell("power_w2", 1.0, 10.0).value >= 0.9
        assert table.cell("power_ks", 1.0, 10.0).value >= 0.9

    def test_weak_regime(self, table):
        assert table.cell("power_w2", 1.0, 4.0).value <= 0.5
        assert table.cell("power_ks", 1.0, 4.0).value <= 0.5

    def test_null_calibration_cells(self, table):
        for metric in ("type1_w2", "type1_ks"):
            c = table.cell(metric, 0.0, 0.0)
            assert abs(c.value - 0.05) <= 3.0 * math.sqrt(0.05 * 0.95 / c.trials) + 1e-12

    def test_family_validated(self):
        with pytest.raises(ParameterError, match="family"):
            ComparisonConfig(family="cosine")

    def test_alternatives_are_displacement_draws(self):
        # score one cell by hand: draws of the law eps = gamma / sqrt(n) of the
        # way from the null to the signal, on the cell's own labeled stream
        cfg = ComparisonConfig(family="sine", p_grid=(0.6,), gammas=(10.0,), n=2000,
                               trials=40, seed=7)
        table = run_ks_comparison(cfg)
        null = uniform01()
        shifted = displacement_interpolate(null, sine_distribution(0.6),
                                           10.0 / math.sqrt(cfg.n))
        rng = derive_rng(cfg.seed, "shift-trials", "sine", repr(0.6), repr(10.0), cfg.n)
        rows = np.concatenate(list(_sorted_blocks(shifted, cfg.n, cfg.trials, rng)))
        w2 = scaled_statistics(rows, plan_scaled_statistic(null, lebesgue(), cfg.n))
        ks = ks_statistics_sorted(rows, null)
        for metric, stat, critical in (("power_w2", w2, cfg.critical),
                                       ("power_ks", ks, cfg.ks_critical)):
            cell = table.cell(metric, 0.6, 10.0)
            rejected = int(np.count_nonzero(stat > critical))
            assert 0 < rejected < cfg.trials
            assert rejected == round(cell.value * cell.trials)


def _rejected(plan, critical, dist, n: int, trials: int, seed: int, *label) -> int:
    """Rows of one cell, drawn alone on its labelled stream, whose statistic exceeds critical."""
    rows = np.concatenate(list(_sorted_blocks(dist, n, trials, derive_rng(seed, *label))))
    return int(np.count_nonzero(scaled_statistics(rows, plan) > critical))


class TestTablesRebuiltCellByCell:
    """Every cell of a table equals its cell drawn alone: interleaving moves no draw."""

    def test_phase(self):
        cfg = PhaseConfig(n=2000, betas=(0.2, 0.5, 0.8), trials=40, seed=21)
        table = run_phase_transition(cfg)
        plan = plan_scaled_statistic(cfg.null, cfg.omega, cfg.n)
        for beta in cfg.betas:
            shifted = displacement_interpolate(cfg.null, cfg.signal, float(cfg.n) ** -beta)
            null = _rejected(plan, cfg.critical, cfg.null, cfg.n, cfg.trials, cfg.seed,
                             "phase-null", repr(beta), cfg.n)
            alt = _rejected(plan, cfg.critical, shifted, cfg.n, cfg.trials, cfg.seed,
                            "phase-alt", repr(beta), cfg.n)
            assert table.cell("type1", beta).value == null / cfg.trials
            assert table.cell("type2", beta).value == 1.0 - alt / cfg.trials

    def test_power_map(self):
        cfg = PowerMapConfig(deltas=(0.03, 0.07), gammas=(5.5, 9.5), n=2000, trials=30,
                             law_reps=100, grid_k=64, seed=22)
        table = run_power_map(cfg)
        null = uniform01()
        plan = plan_scaled_statistic(null, lebesgue(), cfg.n)
        type1 = _rejected(plan, cfg.critical, null, cfg.n, cfg.trials, cfg.seed,
                          "null-trials", cfg.n)
        assert table.cell("type1", 0.0, 0.0).value == type1 / cfg.trials
        for delta in cfg.deltas:
            p = delta * math.sqrt(8.0) * math.pi
            for gamma in cfg.gammas:
                shifted = displacement_interpolate(null, sine_distribution(p),
                                                   gamma / math.sqrt(cfg.n))
                rejected = _rejected(plan, cfg.critical, shifted, cfg.n, cfg.trials,
                                     cfg.seed, "shift-trials", "sine", repr(p), repr(gamma),
                                     cfg.n)
                assert (table.cell("type2_empirical", delta, gamma).value
                        == 1.0 - rejected / cfg.trials)

    def test_weight_comparison(self):
        cfg = WeightComparisonConfig(a_values=(0.0, 2.0), p_grid=(0.2, 0.4), gammas=(4.0, 10.0),
                                     n=2000, trials=30, law_reps=100, grid_k=64, seed=23)
        table = run_weight_comparison(cfg)
        null = uniform01()
        criticals = table.config["critical_values"]
        for a in cfg.a_values:
            omega = quadratic_weight(a) if a else lebesgue()
            plan = plan_scaled_statistic(null, omega, cfg.n)
            critical = criticals[f"{a:g}"]
            type1 = _rejected(plan, critical, null, cfg.n, cfg.trials, cfg.seed,
                              "null-trials", cfg.n)
            assert table.cell("type1", a, 0.0, 0.0).value == type1 / cfg.trials
            for p in cfg.p_grid:
                for gamma in cfg.gammas:
                    shifted = displacement_interpolate(null, tail_distribution(p),
                                                       gamma / math.sqrt(cfg.n))
                    rejected = _rejected(plan, critical, shifted, cfg.n, cfg.trials,
                                         cfg.seed, "shift-trials", "tail", repr(p), repr(gamma),
                                         cfg.n)
                    assert table.cell("power", a, p, gamma).value == rejected / cfg.trials


class TestWeightComparison:
    def test_unit_weight_column_matches_ks_comparison(self):
        # identical sample streams: the a = 0 powers must coincide exactly
        shared = dict(p_grid=(0.3,), gammas=(10.0,), n=5000, trials=40, seed=99)
        ks_table = run_ks_comparison(ComparisonConfig(family="tail", **shared))
        w_table = run_weight_comparison(WeightComparisonConfig(
            a_values=(0.0,), family="tail", law_reps=20, grid_k=64, **shared))
        assert (w_table.cell("power", 0.0, 0.3, 10.0).value
                == ks_table.cell("power_w2", 0.3, 10.0).value)

    def test_per_weight_calibration_and_ordering(self):
        cfg = WeightComparisonConfig(a_values=(0.0, 2.0), p_grid=(0.3,), gammas=(10.0,),
                                     n=20_000, trials=80, law_reps=20_000,
                                     grid_k=1024, seed=55)
        table = run_weight_comparison(cfg)
        band = 3.0 * math.sqrt(0.05 * 0.95 / cfg.trials)
        for a in cfg.a_values:
            assert abs(table.cell("type1", a, 0.0, 0.0).value - 0.05) <= band + 1e-12
        p0 = table.cell("power", 0.0, 0.3, 10.0)
        p2 = table.cell("power", 2.0, 0.3, 10.0)
        assert p2.value >= p0.value - 2.0 * p0.se

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            WeightComparisonConfig(a_values=(13.0,))

    @pytest.mark.parametrize("config, kwargs, match", [
        (WeightComparisonConfig, dict(p_grid=()), "p_grid"),
        (ComparisonConfig, dict(p_grid=()), "p_grid"),
        # every p is checked against the family, not only the largest
        (ComparisonConfig, dict(family="tail", p_grid=(0.0, 0.3)), "tail distribution"),
    ], ids=["WeightComparisonConfig", "ComparisonConfig", "ComparisonConfig-tail-p0"])
    def test_empty_p_grid_rejected(self, config, kwargs, match):
        with pytest.raises(ParameterError, match=match):
            config(**kwargs)


@pytest.mark.parametrize("config, field", [
    (PhaseConfig, "betas"),
    (PowerMapConfig, "deltas"),
    (PowerMapConfig, "gammas"),
    (ComparisonConfig, "gammas"),
    (WeightComparisonConfig, "a_values"),
    (WeightComparisonConfig, "gammas"),
])
def test_empty_grid_rejected(config, field):
    with pytest.raises(ParameterError, match=field):
        config(**{field: ()})


def _with_one(bad: st.SearchStrategy, good: st.SearchStrategy = st.floats(0.0, 20.0)):
    """Grids of good values with one ``bad`` value somewhere in them."""
    return st.tuples(st.lists(good, max_size=3), bad, st.lists(good, max_size=3)).map(
        lambda parts: (*parts[0], parts[1], *parts[2]))


_NONPOSITIVE = st.floats(max_value=0.0) | st.just(math.nan)
_NEGATIVE = st.floats(max_value=-1e-300) | st.just(math.nan)
_BAD_CRITICAL = _NONPOSITIVE | st.just(math.inf)  # an infinite critical value never rejects
_BAD_GRID_K = st.integers(-8, 1 << 20).filter(lambda k: k < 64 or k & (k - 1))
_SHARED = dict(n=st.integers(max_value=0), trials=st.integers(max_value=19))
# per config: an out-of-domain strategy for every field with a domain
OUT_OF_DOMAIN = {
    PhaseConfig: dict(_SHARED, critical=_BAD_CRITICAL,
                      betas=_with_one(_NONPOSITIVE | st.floats(min_value=1.0, exclude_min=True),
                                      st.floats(0.1, 1.0))),
    PowerMapConfig: dict(_SHARED, critical=_BAD_CRITICAL, grid_k=_BAD_GRID_K,
                         law_reps=st.integers(max_value=0),
                         gammas=_with_one(_NONPOSITIVE, st.floats(0.1, 20.0)),
                         deltas=_with_one(_NONPOSITIVE | st.floats(0.1126, 10.0),
                                          st.floats(0.01, 0.1))),
    ComparisonConfig: dict(_SHARED, critical=_BAD_CRITICAL, ks_critical=_BAD_CRITICAL,
                           gammas=_with_one(_NEGATIVE),
                           p_grid=_with_one(_NEGATIVE
                                            | st.floats(min_value=1.0, exclude_min=True),
                                            st.floats(0.0, 1.0)),
                           family=st.text().filter(lambda f: f not in ("sine", "tail"))),
    WeightComparisonConfig: dict(_SHARED, critical_lebesgue=_BAD_CRITICAL, grid_k=_BAD_GRID_K,
                                 alpha=_NONPOSITIVE | st.floats(min_value=1.0),
                                 # (1 - 0.05) * 10 < 10, and ceil(0.95 * 19) = 19
                                 law_reps=st.integers(max_value=19),
                                 gammas=_with_one(_NEGATIVE),
                                 a_values=_with_one(_NEGATIVE | st.floats(min_value=12.0),
                                                    st.floats(0.0, 11.0)),
                                 p_grid=_with_one(st.floats(max_value=0.0)
                                                  | st.floats(min_value=0.5, exclude_min=True),
                                                  st.floats(0.1, 0.5))),
}
_ONE_BAD_FIELD = st.sampled_from([(cls, name, bad) for cls, table in OUT_OF_DOMAIN.items()
                                  for name, bad in table.items()]).flatmap(
    lambda case: st.tuples(st.just(case[0]), st.just(case[1]), case[2]))


@given(_ONE_BAD_FIELD)
@settings(max_examples=300, deadline=None)
def test_out_of_domain_fields_fail_at_construction(case):
    # nothing may be drawn first: the sample blocks and the limit law raise if reached
    config, name, value = case

    def reached(*args, **kwargs):
        raise AssertionError("drawn before the config was checked")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wshift.experiments, "_interleaved_blocks", reached)
        for psi in ("sample_psi_null", "sample_psi_components"):
            mp.setattr(wshift.limitlaw, psi, reached)
        with pytest.raises(ParameterError):
            config(**{name: value})


@pytest.mark.parametrize("argv, message", [
    (["compare-ks", "--gammas=4,-4", "--p-grid", "0.5"], "gammas must be nonnegative"),
    (["compare-ks", "--ks-critical=-1"], "ks_critical must be positive"),
    (["phase", "--critical=-1", "--betas", "0.5"], "critical must be positive"),
    (["phase", "--critical=inf", "--betas", "0.5"], "critical must be positive and finite"),
    (["compare-ks", "--ks-critical=inf"], "ks_critical must be positive and finite"),
    (["powermap", "--grid-k", "100"], "power of two"),
    (["powermap", "--law-reps", "0"], "law_reps must be >= 1"),
], ids=["compare-ks-gammas", "compare-ks-ks-critical", "phase-critical", "phase-critical-inf",
        "compare-ks-ks-critical-inf", "powermap-grid-k", "powermap-law-reps"])
def test_cli_rejects_an_out_of_domain_config_before_any_draw(monkeypatch, capsys, tmp_path,
                                                             argv, message):
    drawn = []
    monkeypatch.setattr(wshift.experiments, "_interleaved_blocks",
                        lambda *args, **kwargs: drawn.append(args) or iter(()))
    code = main([*argv, "--n", "500", "--trials", "20", "--out", str(tmp_path / "out")])
    assert code == 1
    assert message in capsys.readouterr().err
    assert drawn == [] and not (tmp_path / "out").exists()


@pytest.mark.parametrize("cfg, run", [
    (PhaseConfig(n=500, betas=(0.5,), trials=20), run_phase_transition),
    (PowerMapConfig(deltas=(0.05,), gammas=(5.0,), n=500, trials=20, law_reps=100,
                    grid_k=64), run_power_map),
    (ComparisonConfig(p_grid=(0.5,), gammas=(4.0,), n=500, trials=20), run_ks_comparison),
    (WeightComparisonConfig(a_values=(0.0, 1.0), p_grid=(0.3,), gammas=(4.0,), n=500,
                            trials=20, law_reps=100, grid_k=64), run_weight_comparison),
], ids=["phase", "power_map", "ks_comparison", "weight_comparison"])
def test_json_echo_names_every_field(cfg, run):
    config = json.loads(json.dumps(run(cfg).to_dict()))["config"]
    assert {f.name for f in fields(cfg)} <= set(config)
    assert config["trials"] == cfg.trials and config["seed"] == cfg.seed


class TestCellValidation:
    def test_probability_cells_in_range(self):
        table = run_phase_transition(SMALL_PHASE)
        for c in table.cells:
            if c.metric != "error_sum":
                assert 0.0 <= c.value <= 1.0
            else:
                assert 0.0 <= c.value <= 2.0

    def test_cell_is_frozen(self):
        c = Cell((0.1,), "power", 0.5, 0.05, 100)
        with pytest.raises(AttributeError):
            c.value = 0.9
