import numpy as np
import pytest

from stopgo.model import (
    ConfigurationError,
    ModelParams,
    SpacingContext,
    VehicleKind,
    next_speed,
)
from stopgo.scenario import (
    CollisionError,
    FleetConfig,
    OpenRoad,
    Ring,
    ScenarioState,
    init_scenario,
    place_intelligent,
    run,
    run_with_rng,
    step,
)

K = VehicleKind
DEFAULT = ModelParams()
NOISELESS = ModelParams(sigma_hat=0.0)
LEADER_22 = (22.0 - 7.5) / 1.5


def hv_fleet(n, spacing=None):
    return FleetConfig(kinds=[K.HV] * n, initial_spacing=spacing)


class TestInitScenario:
    def test_ring_equilibrium(self):
        state = init_scenario(Ring(2500.0), hv_fleet(100), DEFAULT)
        assert np.allclose(state.spacings, 25.0)
        assert np.allclose(state.speeds, 11.6667, atol=1e-4)

    def test_open_road_at_22m(self):
        state = init_scenario(OpenRoad(LEADER_22), hv_fleet(100, 22.0), DEFAULT)
        assert np.allclose(state.speeds, 9.6667, atol=1e-4)
        assert state.leader_position == 0.0

    def test_ring_exact_jam_packing_rejected(self):
        with pytest.raises(ConfigurationError):
            init_scenario(Ring(750.0), hv_fleet(100), DEFAULT)

    def test_ring_spacing_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            init_scenario(Ring(2500.0), hv_fleet(100, 30.0), DEFAULT)

    def test_open_road_needs_spacing(self):
        with pytest.raises(ConfigurationError):
            init_scenario(OpenRoad(10.0), hv_fleet(10), DEFAULT)

    def test_spacing_below_jam_rejected(self):
        with pytest.raises(ConfigurationError):
            init_scenario(OpenRoad(10.0), hv_fleet(10, 5.0), DEFAULT)


class TestStep:
    def test_equilibrium_fixed_point(self):
        geometry = Ring(2500.0)
        fleet = hv_fleet(100)
        state = init_scenario(geometry, fleet, NOISELESS)
        rng = np.random.default_rng(0)
        new = step(state, geometry, fleet, NOISELESS, rng)
        assert np.array_equal(new.spacings, state.spacings)
        assert np.array_equal(new.speeds, state.speeds)
        assert np.allclose(new.positions - state.positions, state.speeds * 1.5)

    def test_single_fcav_holds_ring_speed(self):
        geometry = Ring(2500.0)
        kinds = [K.HV] * 100
        kinds[30] = K.FCAV
        fleet = FleetConfig(kinds=kinds)
        record = run(geometry, fleet, DEFAULT, 5, 200)
        assert np.all(record.speeds[:, 30] == (25.0 - 7.5) / 1.5)

    def test_mav_behind_leader_falls_back_to_av(self):
        geometry = OpenRoad(LEADER_22)
        mav = FleetConfig([K.MAV, K.HV, K.HV], 22.0)
        av = FleetConfig([K.AV, K.HV, K.HV], 22.0)
        r1 = run(geometry, mav, DEFAULT, 11, 100)
        r2 = run(geometry, av, DEFAULT, 11, 100)
        assert np.array_equal(r1.speeds, r2.speeds)

    def test_synchronous_update_matches_scalar_model(self):
        # vectorized step against the per-vehicle pure functions, iterating
        # vehicles in shuffled order (order independence of the update)
        rng = np.random.default_rng(7)
        n = 12
        kinds = [K.HV, K.AV, K.MAV, K.PCV, K.PCAV, K.FCV, K.FCAV,
                 K.HV, K.MAV, K.PCV, K.HV, K.AV]
        geometry = Ring(float(n) * 24.0)
        spacings = rng.uniform(10.0, 38.0, size=n)
        spacings *= geometry.length / spacings.sum()
        positions = np.concatenate([[0.0], -np.cumsum(spacings[1:])])[::-1].copy()
        state = ScenarioState(
            t=0.0, spacings=spacings, speeds=np.zeros(n), positions=positions
        )
        fleet = FleetConfig(kinds=kinds)
        new = step(state, geometry, fleet, NOISELESS, np.random.default_rng(0))

        pool = [spacings[i] for i in range(n) if kinds[i].is_partially_connected]
        mean_spacing = geometry.length / n
        for i in rng.permutation(n):
            ctx = SpacingContext(
                own_spacing=spacings[i],
                leader_spacing=spacings[i - 1],
                connected_spacings=pool,
                mean_spacing=mean_spacing,
            )
            expected = next_speed(kinds[i], ctx, NOISELESS, 0.0)
            assert new.speeds[i] == pytest.approx(expected, abs=1e-12)

    def test_collision_aborts_with_context(self):
        # huge noise pushes a follower into a stopped leader
        params = ModelParams(sigma_hat=50.0)
        geometry = OpenRoad(0.0)
        fleet = hv_fleet(3, 8.0)
        with pytest.raises(CollisionError) as err:
            run(geometry, fleet, params, 2, 50)
        assert err.value.t > 0
        assert 0 <= err.value.vehicle < 3


class TestRun:
    def test_determinism(self):
        geometry = Ring(2500.0)
        fleet = hv_fleet(100)
        r1 = run(geometry, fleet, DEFAULT, 42, 200)
        r2 = run(geometry, fleet, DEFAULT, 42, 200)
        assert np.array_equal(r1.speeds, r2.speeds)
        assert np.array_equal(r1.positions, r2.positions)

    def test_hv_ring_develops_stop_and_go(self):
        hits = 0
        for seed in range(5):
            record = run(Ring(2500.0), hv_fleet(100), DEFAULT, seed, 600)
            if record.speeds.min() == 0.0 and record.speeds.max() > 20.0:
                hits += 1
        assert hits >= 4

    def test_noiseless_av_ring_stays_at_equilibrium(self):
        fleet = FleetConfig([K.AV] * 50)
        record = run(Ring(1250.0), fleet, NOISELESS, 3, 1000)
        assert np.all(record.speeds == record.speeds[0, 0])

    def test_ring_conserves_total_spacing(self):
        geometry = Ring(2500.0)
        fleet = hv_fleet(100)
        state = init_scenario(geometry, fleet, DEFAULT)
        rng = np.random.default_rng(9)
        for _ in range(300):
            state = step(state, geometry, fleet, DEFAULT, rng)
            assert state.spacings.sum() == pytest.approx(2500.0, abs=1e-9 * 2500.0)
            assert np.all(state.spacings >= 0.0)

    def test_leader_trajectory_exactly_linear(self):
        record = run(OpenRoad(LEADER_22), hv_fleet(20, 22.0), DEFAULT, 1, 100)
        expected = record.times * LEADER_22
        assert np.array_equal(record.leader_positions, expected)

    def test_noiseless_equilibrium_never_below_jam_spacing(self):
        geometry = OpenRoad(LEADER_22)
        fleet = hv_fleet(30, 22.0)
        state = init_scenario(geometry, fleet, NOISELESS)
        rng = np.random.default_rng(0)
        for _ in range(200):
            state = step(state, geometry, fleet, NOISELESS, rng)
            assert np.all(state.spacings >= DEFAULT.s_j)

    def test_rejects_zero_steps(self):
        with pytest.raises(ConfigurationError):
            run(Ring(2500.0), hv_fleet(100), DEFAULT, 1, 0)

    def test_record_shapes(self):
        record = run(Ring(2500.0), hv_fleet(100), DEFAULT, 1, 60)
        assert record.speeds.shape == (61, 100)
        assert record.positions.shape == (61, 100)
        assert record.n_steps == 60
        assert record.duration == pytest.approx(90.0)
        assert np.all((record.speeds >= 0) & (record.speeds <= 25.0))


class TestBatch:
    @pytest.mark.parametrize("geometry, spacing", [(Ring(40 * 25.0), None), (OpenRoad(LEADER_22), 22.0)])
    def test_batch_equals_runs_side_by_side(self, geometry, spacing):
        # every fleet mixes all kinds, two of them partially connected
        base = [K.HV] * 33 + [K.AV, K.MAV, K.PCV, K.PCAV, K.FCV, K.FCAV, K.MAV]
        fleets = [
            FleetConfig([base[i] for i in np.random.default_rng(s).permutation(40)], spacing)
            for s in range(3)
        ]
        batch = run_with_rng(geometry, fleets, DEFAULT,
                             [np.random.default_rng(10 + r) for r in range(3)], 90)
        assert batch.speeds.shape == (91, 120)
        for r, (speeds, positions) in enumerate(
            zip(np.hsplit(batch.speeds, 3), np.hsplit(batch.positions, 3))
        ):
            alone = run(geometry, fleets[r], DEFAULT, 10 + r, 90)
            assert np.array_equal(speeds, alone.speeds)
            assert np.array_equal(positions, alone.positions)

    def test_unequal_connected_counts_rejected(self):
        fleets = [FleetConfig([K.PCAV, K.HV, K.HV]), FleetConfig([K.PCAV, K.PCAV, K.HV])]
        rngs = [np.random.default_rng(0), np.random.default_rng(1)]
        with pytest.raises(ConfigurationError, match="partially connected"):
            run_with_rng(Ring(90.0), fleets, DEFAULT, rngs, 5)


class TestPlaceIntelligent:
    def test_counts_and_distinct_positions(self):
        rng = np.random.default_rng(0)
        kinds = place_intelligent(100, 0.02, K.MAV, rng)
        idx = [i for i, k in enumerate(kinds) if k is K.MAV]
        assert len(idx) == 2
        assert all(k is K.HV for i, k in enumerate(kinds) if i not in idx)

    def test_one_percent_of_200(self):
        rng = np.random.default_rng(0)
        kinds = place_intelligent(200, 0.01, K.FCAV, rng)
        assert sum(k is K.FCAV for k in kinds) == 2

    def test_zero_mpr_all_hv(self):
        rng = np.random.default_rng(0)
        kinds = place_intelligent(100, 0.0, K.AV, rng)
        assert all(k is K.HV for k in kinds)

    def test_rounding_to_zero_warns(self):
        rng = np.random.default_rng(0)
        with pytest.warns(UserWarning, match="pure-HV"):
            kinds = place_intelligent(10, 0.01, K.AV, rng)
        assert all(k is K.HV for k in kinds)

    def test_mpr_out_of_range(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError):
            place_intelligent(10, 1.5, K.AV, rng)

    def test_placement_varies_with_rng(self):
        draws = {
            tuple(i for i, k in enumerate(place_intelligent(100, 0.05, K.AV, np.random.default_rng(s)))
                  if k is K.AV)
            for s in range(20)
        }
        assert len(draws) > 1
