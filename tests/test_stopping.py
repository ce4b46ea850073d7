import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from esdp import stopping
from esdp.core import (
    Constant,
    DEFAULT_OU_REWARD,
    EconomicEnvironment,
    Empirical,
    MarkovOU,
    Scenario,
)
from esdp.stopping import (
    GridSpec,
    PolicyGrid,
    ValueGrid,
    check_threshold_structure,
    extract_decision_boundary,
    initial_security_verdict,
    initial_value,
    solve,
    write_boundary_csv,
    write_grid_csv,
)
from esdp.thresholds import linear_threshold


def analytic_constant_values(vg):
    """Oracle: closed-form value of the deterministic problem.

    With a constant reward v, the only question is whether finishing
    strictly before the reveal is still possible; if so the best attack
    nets v minus the full remaining cost, floored at the idle value 0:
        J(s, v, t) = max(0, v - cost_rate*s/speedup)  if s/speedup < horizon - t
                   = 0                                otherwise.
    """
    env = vg.scenario.env
    horizon = env.seed_time + env.honest_delay
    s = vg.s_values[:, None, None]
    v = vg.v_values[None, :, None]
    t = vg.t_values[None, None, :]
    feasible = s / env.speedup < horizon - t
    return np.where(feasible,
                    np.maximum(0.0, v - env.cost_rate * s / env.speedup),
                    0.0)


@pytest.fixture(scope="module")
def constant_grids():
    env = EconomicEnvironment(3.0, 0.05, 600.0)
    scenario = Scenario(env, Constant(10.0))
    return solve(scenario, GridSpec(time_step=1.0, reward_points=101))


@pytest.fixture(scope="module")
def ou_grids():
    env = EconomicEnvironment(3.0, 0.05, 120.0)
    scenario = Scenario(env, DEFAULT_OU_REWARD)
    grid = GridSpec(time_step=1.0, reward_points=161, reward_max=32.0)
    return solve(scenario, grid)


class TestConstantSolve:
    def test_matches_analytic_solution(self, constant_grids):
        vg, _ = constant_grids
        analytic = analytic_constant_values(vg)
        error = np.abs(vg.values - analytic).max()
        dv = vg.v_values[1] - vg.v_values[0]
        assert error <= 0.05 * vg.spec.time_step + dv
        # the work grid divides this delay exactly, so the match is sharp
        assert error <= 1e-9

    def test_break_even_initial_value(self, constant_grids):
        vg, _ = constant_grids
        assert abs(initial_value(vg, 10.0)) <= 0.05 * vg.spec.time_step

    def test_long_delay_never_negative(self):
        env = EconomicEnvironment(3.0, 0.05, 1200.0)
        vg, pg = solve(Scenario(env, Constant(10.0)),
                       GridSpec(time_step=2.0, reward_points=51))
        assert initial_value(vg, 10.0) == 0.0
        assert vg.values.min() >= 0.0
        # optimal play is not to attack at the initial reward level
        v_idx = int(np.searchsorted(vg.v_values, 10.0))
        assert vg.v_values[v_idx] == 10.0
        assert not pg.compute[0, v_idx, 0]

    def test_value_bounds_and_monotonicity(self, constant_grids):
        vg, _ = constant_grids
        assert vg.values.min() >= 0.0
        assert vg.values.max() <= vg.v_values[-1]
        # value grows with the reward and shrinks with remaining work
        # (axis 0 indexes completed work steps, so s falls as j rises)
        assert np.all(np.diff(vg.values, axis=1) >= -1e-12)
        assert np.all(np.diff(vg.values, axis=0) >= -1e-12)

    def test_compute_never_true_when_infeasible(self, constant_grids):
        vg, pg = constant_grids
        env = vg.scenario.env
        horizon = env.seed_time + env.honest_delay
        s = vg.s_values[:, None, None]
        t = vg.t_values[None, None, :]
        infeasible = np.broadcast_to(s / env.speedup > horizon - t,
                                     pg.compute.shape)
        assert not pg.compute[infeasible].any()


class TestVerdict:
    def test_flip_within_one_cell_of_break_even(self, constant_grids):
        vg, _ = constant_grids
        verdict = initial_security_verdict(vg)
        dv = vg.v_values[1] - vg.v_values[0]
        break_even = 0.05 * 600.0 / 3.0
        assert verdict.flip_reward is not None
        assert break_even < verdict.flip_reward <= break_even + dv + 1e-12
        assert verdict.tolerance == 0.05 * vg.spec.time_step

    def test_dichotomy_against_linear_threshold(self, constant_grids):
        vg, _ = constant_grids
        verdict = initial_security_verdict(vg)
        dv = vg.v_values[1] - vg.v_values[0]
        env = vg.scenario.env
        for v, secure in zip(verdict.reward_values, verdict.secure):
            threshold = linear_threshold(env.speedup, env.cost_rate, v)
            if secure:
                assert env.honest_delay >= threshold - 60.0 * dv - 1e-9
            else:
                assert env.honest_delay < threshold

    def test_all_zero_reward_axis_secure_everywhere(self):
        env = EconomicEnvironment(3.0, 0.05, 60.0)
        vg, _ = solve(Scenario(env, Constant(0.0)),
                      GridSpec(time_step=1.0, reward_points=5,
                               reward_max=0.0))
        verdict = initial_security_verdict(vg)
        assert verdict.secure.all()
        assert verdict.flip_reward is None

    def test_one_step_horizon_insecure_above_cost(self):
        env = EconomicEnvironment(2.0, 0.05, 2.0)
        vg, _ = solve(Scenario(env, Constant(5.0)),
                      GridSpec(time_step=1.0, reward_points=11,
                               reward_max=10.0))
        verdict = initial_security_verdict(vg)
        assert verdict.flip_reward is not None
        assert verdict.flip_reward <= 1.0  # anything past one step of cost


class TestStructure:
    def test_constant_policy_monotone(self, constant_grids):
        _, pg = constant_grids
        report = check_threshold_structure(pg)
        assert report.passed
        assert report.violation_count == 0
        assert report.cells_checked == pg.compute.size

    def test_ou_policy_monotone(self, ou_grids):
        _, pg = ou_grids
        assert check_threshold_structure(pg).violation_count == 0

    def test_corrupted_policy_reports_exactly_one_violation(self,
                                                            constant_grids):
        _, pg = constant_grids
        corrupted = pg.compute.copy()
        # flip one interior True with computes below it in the reward axis
        j, k = 0, 0
        column = corrupted[j, :, k]
        true_idx = np.flatnonzero(column)
        assert true_idx.size >= 2
        target = int(true_idx[-1])
        corrupted[j, target, k] = False
        report = check_threshold_structure(
            type(pg)(corrupted, pg.s_values, pg.v_values, pg.t_values,
                     pg.spec, pg.scenario))
        assert report.violation_count == 1
        assert tuple(report.violations[0]) == (j, target, k)


def policy(compute):
    n_s, n_v, n_t = compute.shape
    return PolicyGrid(compute, np.arange(n_s, dtype=float),
                      np.linspace(0.0, 5.0, n_v), np.arange(n_t, dtype=float),
                      None, None)


class TestAuditFastPath:
    @given(data=st.data(), shape=st.tuples(st.integers(1, 4),
                                           st.integers(1, 6),
                                           st.integers(1, 4)),
           monotone=st.booleans(), reorder=st.booleans())
    def test_report_equals_the_full_pass(self, data, shape, monotone,
                                         reorder):
        compute = data.draw(arrays(bool, shape))
        if monotone:
            compute = np.sort(compute, axis=1)  # idle below, compute above
        if reorder:  # the layout `solve` returns: time slowest
            compute = np.moveaxis(
                np.ascontiguousarray(np.moveaxis(compute, 2, 0)), 0, 2)
        expected = np.argwhere(
            ~compute & np.logical_or.accumulate(compute, axis=1))
        report = check_threshold_structure(policy(compute))
        assert report.violation_count == expected.shape[0]
        assert report.violations.tolist() == expected.tolist()
        assert report.violations.shape == expected.shape
        assert report.violations.dtype == expected.dtype
        assert report.cells_checked == compute.size
        if monotone:
            assert report.passed

    def test_monotone_policy_allocates_no_grid(self):
        # (time, work, reward) = (100, 20, 500): 1 MB, time-major
        rng = np.random.default_rng(0)
        first = rng.integers(0, 501, size=(100, 20, 1))
        pg = policy(np.moveaxis(np.arange(500) >= first, 0, 2))
        tracemalloc.start()
        try:
            report = check_threshold_structure(pg)
            _, audit_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            extract_decision_boundary(pg)
            _, boundary_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.passed
        assert audit_peak < pg.compute.nbytes / 2
        assert boundary_peak < pg.compute.nbytes / 2


class TestBoundary:
    def test_constant_boundary_tracks_remaining_cost(self, constant_grids):
        vg, pg = constant_grids
        boundary = extract_decision_boundary(pg)
        env = vg.scenario.env
        dv = vg.v_values[1] - vg.v_values[0]
        horizon = env.seed_time + env.honest_delay
        for j in range(0, vg.s_values.size, 20):
            for k in range(0, vg.t_values.size - 1, 60):
                remaining_cost = env.cost_rate * vg.s_values[j] / env.speedup
                feasible = vg.s_values[j] / env.speedup < horizon - vg.t_values[k]
                # on-grid ties land exactly at a step boundary, so allow it
                on_grid_tie = math.isclose(
                    vg.s_values[j] / env.speedup, horizon - vg.t_values[k])
                if feasible:
                    assert remaining_cost - 1e-9 <= boundary[j, k] \
                        <= remaining_cost + dv + 1e-9
                elif not on_grid_tie:
                    assert boundary[j, k] == np.inf

    def test_completed_states_have_zero_boundary(self, constant_grids):
        _, pg = constant_grids
        boundary = extract_decision_boundary(pg)
        assert np.all(boundary[-1, :-1] == 0.0)

    def test_horizon_column_is_sentinel(self, constant_grids):
        _, pg = constant_grids
        boundary = extract_decision_boundary(pg)
        assert np.all(np.isinf(boundary[:, -1]))

    def test_non_monotone_policy_rejected(self, constant_grids):
        _, pg = constant_grids
        corrupted = pg.compute.copy()
        corrupted[0, int(np.flatnonzero(corrupted[0, :, 0])[-1]), 0] = False
        bad = type(pg)(corrupted, pg.s_values, pg.v_values, pg.t_values,
                       pg.spec, pg.scenario)
        with pytest.raises(ValueError, match="monotonicity"):
            extract_decision_boundary(bad)

    @given(data=st.data(), n_s=st.integers(1, 4), n_v=st.integers(1, 6),
           n_t=st.integers(1, 4))
    def test_boundary_agrees_with_the_audit(self, data, n_s, n_v, n_t):
        # monotone columns from random first-compute indices, then a few
        # flipped cells, which may or may not break monotonicity
        first = np.array(data.draw(st.lists(
            st.integers(0, n_v), min_size=n_s * n_t, max_size=n_s * n_t)))
        compute = np.arange(n_v)[None, :, None] >= \
            first.reshape(n_s, 1, n_t)
        for j, i, k in data.draw(st.lists(st.tuples(
                st.integers(0, n_s - 1), st.integers(0, n_v - 1),
                st.integers(0, n_t - 1)), max_size=4)):
            compute[j, i, k] = not compute[j, i, k]
        pg = policy(compute)
        report = check_threshold_structure(pg)
        if not report.passed:
            with pytest.raises(ValueError, match=(
                    f"^policy has {report.violation_count} "
                    "reward-monotonicity violations")):
                extract_decision_boundary(pg)
            return
        expected = np.where(compute.any(axis=1),
                            pg.v_values[compute.argmax(axis=1)], np.inf)
        np.testing.assert_array_equal(extract_decision_boundary(pg),
                                      expected)


class TestRefinement:
    def test_first_order_convergence(self):
        env = EconomicEnvironment(3.0, 0.05, 60.0)
        scenario = Scenario(env, DEFAULT_OU_REWARD)
        values = []
        for dt, points in [(4.0, 41), (2.0, 81), (1.0, 161)]:
            vg, _ = solve(scenario, GridSpec(time_step=dt,
                                             reward_points=points,
                                             reward_max=32.0,
                                             quadrature_nodes=15))
            values.append(initial_value(vg, 10.0))
        first = abs(values[1] - values[0])
        second = abs(values[2] - values[1])
        assert second <= 2.0 * first + 1e-9


class TestInputChecks:
    def test_distribution_only_models_rejected(self, baseline_env):
        scenario = Scenario(baseline_env, Empirical((1.0, 2.0)))
        with pytest.raises(ValueError, match="constant, markov_ou"):
            solve(scenario, GridSpec(time_step=1.0))

    def test_non_dividing_time_step_rejected(self, baseline_scenario):
        with pytest.raises(ValueError, match="divide"):
            solve(baseline_scenario, GridSpec(time_step=7.0))

    def test_too_coarse_grid_rejected(self):
        env = EconomicEnvironment(3.0, 0.05, 10.0)
        with pytest.raises(ValueError, match="coarse"):
            solve(Scenario(env, Constant(1.0)), GridSpec(time_step=5.0))

    def test_single_reward_point_rejected(self, baseline_scenario):
        with pytest.raises(ValueError, match="reward_points"):
            solve(baseline_scenario,
                  GridSpec(time_step=1.0, reward_points=1))

    def test_initial_reward_above_truncation_rejected(self, baseline_env):
        scenario = Scenario(baseline_env, Constant(10.0))
        with pytest.raises(ValueError, match="reward_max"):
            solve(scenario, GridSpec(time_step=1.0, reward_max=5.0))

    # 10 x long-run mean + 5 stationary std is 18.0 here: a start of 27.3
    # lies above it and gets 10 x itself + 5 std instead
    @pytest.mark.parametrize("initial, scaled", [(1.5, 1.03), (27.3, 27.3)])
    def test_default_axis_covers_the_initial_reward(self, baseline_env,
                                                    initial, scaled):
        model = MarkovOU(initial, 1.03, 0.32, 1.24)
        vg, _ = solve(Scenario(baseline_env, model),
                      GridSpec(time_step=10.0, reward_points=21))
        assert vg.v_values[-1] == 10.0 * scaled + 5.0 * model.stationary_std()

    def test_node_cap_keeps_the_hermite_rule_sound(self):
        x, w = np.polynomial.hermite.hermgauss(stopping._MAX_NODES)
        assert np.all(np.isfinite(x)) and np.all(w >= 0.0)
        assert math.fsum(w) == pytest.approx(math.sqrt(math.pi), rel=1e-12)

    def test_invalid_scenario_rejected(self):
        env = EconomicEnvironment(0.5, 0.05, 600.0)
        with pytest.raises(ValueError, match="speedup"):
            solve(Scenario(env, Constant(10.0)), GridSpec(time_step=1.0))


class TestCsvExport:
    def test_grid_and_boundary_files(self, tmp_path):
        env = EconomicEnvironment(2.0, 0.05, 10.0)
        vg, pg = solve(Scenario(env, Constant(4.0)),
                       GridSpec(time_step=1.0, reward_points=5,
                                reward_max=8.0))
        grid_path = tmp_path / "grid.csv"
        boundary_path = tmp_path / "boundary.csv"
        write_grid_csv(vg, pg, grid_path)
        boundary = extract_decision_boundary(pg)
        write_boundary_csv(boundary, pg.s_values, pg.t_values, boundary_path)

        grid_lines = grid_path.read_text().splitlines()
        assert grid_lines[0] == "s(s),v(USD),t(s),J(USD),compute"
        assert len(grid_lines) == 1 + vg.values.size
        first = grid_lines[1].split(",")
        assert float(first[0]) == vg.s_values[0]
        assert first[4] in ("0", "1")

        boundary_lines = boundary_path.read_text().splitlines()
        assert boundary_lines[0] == "s(s),t(s),v_star(USD)"
        assert len(boundary_lines) == 1 + boundary.size
        assert_grid_bytes_match(vg, pg, tmp_path)

    def test_grid_bytes_match_savetxt_at_edges(self, tmp_path):
        # 2*4096+3 rows cross two block edges; J is a transposed view,
        # as solve() returns it
        shape = (5, 11, 149)
        values = np.moveaxis(np.resize(EDGE_VALUES, (149, 5, 11)), 0, 2)
        compute = np.random.default_rng(0).random(shape) < 0.5
        axes = (np.resize(EDGE_VALUES, n) for n in shape)
        vg = ValueGrid(values, *axes, spec=None, scenario=None)
        pg = PolicyGrid(compute, vg.s_values, vg.v_values, vg.t_values,
                        spec=None, scenario=None)
        assert values.size == 2 * 4096 + 3
        assert_grid_bytes_match(vg, pg, tmp_path)

    def test_boundary_bytes_match_savetxt(self, tmp_path):
        s_values, t_values = EDGE_VALUES[:5], np.arange(1639.0) - 800.0
        boundary = np.resize(EDGE_VALUES, (5, 1639))
        assert boundary.size == 2 * 4096 + 3
        write_boundary_csv(boundary, s_values, t_values, tmp_path / "new.csv")
        s = np.broadcast_to(s_values[:, None], boundary.shape).ravel()
        t = np.broadcast_to(t_values[None, :], boundary.shape).ravel()
        np.savetxt(tmp_path / "old.csv",
                   np.column_stack([s, t, boundary.ravel()]), fmt="%.17g",
                   delimiter=",", comments="",
                   header="s(s),t(s),v_star(USD)")
        assert (tmp_path / "new.csv").read_bytes() == \
            (tmp_path / "old.csv").read_bytes()


EDGE_VALUES = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324,
                        2.0 ** 70, 1.5, -0.1, 1 / 3])


def assert_grid_bytes_match(vg, pg, tmp_path):
    """write_grid_csv against the np.savetxt writer it replaced."""
    write_grid_csv(vg, pg, tmp_path / "new.csv")
    shape = vg.values.shape
    s = np.broadcast_to(vg.s_values[:, None, None], shape).ravel()
    v = np.broadcast_to(vg.v_values[None, :, None], shape).ravel()
    t = np.broadcast_to(vg.t_values[None, None, :], shape).ravel()
    table = np.column_stack(
        [s, v, t, vg.values.ravel(), pg.compute.ravel().astype(float)])
    np.savetxt(tmp_path / "old.csv", table,
               fmt=["%.17g", "%.17g", "%.17g", "%.17g", "%d"],
               delimiter=",", comments="",
               header="s(s),v(USD),t(s),J(USD),compute")
    assert (tmp_path / "new.csv").read_bytes() == \
        (tmp_path / "old.csv").read_bytes()
