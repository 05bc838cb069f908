import numpy as np
import pytest

from stopgo.metrics import (
    MetricError,
    growth_exponent,
    over_time_std,
    per_vehicle_std,
    reduction_pct,
)
from stopgo.model import ModelParams, VehicleKind
from stopgo.scenario import FleetConfig, Ring, RunRecord, run

K = VehicleKind


def make_record(speeds, dt=1.5):
    speeds = np.asarray(speeds, dtype=float)
    n = speeds.shape[1]
    return RunRecord(
        dt=dt,
        speeds=speeds,
        start_positions=np.zeros(n),
        kinds=tuple([K.HV] * n),
        geometry=Ring(1e6),
    )


class TestPerVehicleStd:
    def test_constant_record_is_zero(self):
        record = make_record(np.full((10, 4), 9.0))
        curve = per_vehicle_std(record, (0.0, 100.0))
        assert np.all(curve.values == 0.0)

    def test_hand_computed_sample_std(self):
        record = make_record([[1.0], [2.0], [3.0]])
        curve = per_vehicle_std(record, (0.0, 10.0))
        assert curve.values[0] == pytest.approx(1.0)

    def test_window_restricts_samples(self):
        speeds = np.array([[0.0], [0.0], [1.0], [2.0], [3.0]])
        record = make_record(speeds, dt=1.0)
        curve = per_vehicle_std(record, (2.0, 4.0))
        assert curve.values[0] == pytest.approx(1.0)
        assert curve.window == (2.0, 4.0)

    def test_default_window_skips_warmup(self):
        record = make_record(np.zeros((200, 3)))
        curve = per_vehicle_std(record)
        assert curve.window[0] == pytest.approx(3 * 1.5)

    def test_window_too_short(self):
        record = make_record(np.zeros((10, 2)))
        with pytest.raises(MetricError):
            per_vehicle_std(record, (0.0, 0.5))

    def test_deterministic_run_is_zero(self):
        record = run(
            Ring(2500.0),
            FleetConfig([K.HV] * 100),
            ModelParams(sigma_hat=0.0),
            1,
            200,
        )
        assert np.allclose(per_vehicle_std(record).values, 0.0, atol=1e-12)

    def test_time_relabeling_invariance(self):
        rng = np.random.default_rng(0)
        speeds = rng.uniform(0, 25, size=(50, 5))
        record = make_record(speeds, dt=1.0)
        shuffled = make_record(speeds[rng.permutation(50)], dt=1.0)
        full = (0.0, 49.0)
        assert np.allclose(
            per_vehicle_std(record, full).values,
            per_vehicle_std(shuffled, full).values,
        )

    def test_scaling_speeds_scales_std(self):
        rng = np.random.default_rng(1)
        speeds = rng.uniform(0, 10, size=(30, 4))
        a = per_vehicle_std(make_record(speeds, dt=1.0), (0.0, 29.0)).values
        b = per_vehicle_std(make_record(3.0 * speeds, dt=1.0), (0.0, 29.0)).values
        assert np.allclose(b, 3.0 * a)


class TestOverTimeStd:
    def test_hand_computed(self):
        record = make_record([[10.0, 12.0, 14.0]])
        assert over_time_std(record).values[0] == pytest.approx(2.0)

    def test_equilibrium_start_is_zero_at_step0(self):
        record = run(Ring(2500.0), FleetConfig([K.HV] * 100), ModelParams(), 2, 50)
        assert over_time_std(record).values[0] == pytest.approx(0.0, abs=1e-12)

    def test_noiseless_ring_identically_zero(self):
        record = run(
            Ring(2500.0), FleetConfig([K.HV] * 100), ModelParams(sigma_hat=0.0), 2, 100
        )
        assert np.allclose(over_time_std(record).values, 0.0, atol=1e-12)

    def test_needs_two_vehicles(self):
        record = make_record(np.zeros((5, 1)))
        with pytest.raises(MetricError):
            over_time_std(record)

    def test_vehicle_relabeling_invariance(self):
        rng = np.random.default_rng(2)
        speeds = rng.uniform(0, 25, size=(20, 8))
        a = over_time_std(make_record(speeds)).values
        b = over_time_std(make_record(speeds[:, rng.permutation(8)])).values
        assert np.allclose(a, b)


class TestReductionPct:
    def test_quarter(self):
        assert reduction_pct(4.0, 3.0) == pytest.approx(25.0)

    def test_no_change(self):
        assert reduction_pct(4.0, 4.0) == 0.0

    def test_zero_baseline_rejected(self):
        with pytest.raises(MetricError):
            reduction_pct(0.0, 1.0)


class TestGrowthExponent:
    def test_exact_square_root_law(self):
        values = 0.3 * np.sqrt(np.arange(1, 101))
        assert growth_exponent(values, (10, 100)) == pytest.approx(0.5, abs=1e-6)

    def test_constant_curve(self):
        assert growth_exponent(np.full(100, 2.0), (10, 100)) == pytest.approx(0.0, abs=1e-12)

    def test_accepts_curve_object(self):
        from stopgo.metrics import PerVehicleStdCurve

        curve = PerVehicleStdCurve(values=np.sqrt(np.arange(1, 51)), window=(0, 1))
        assert growth_exponent(curve) == pytest.approx(0.5, abs=1e-6)

    def test_nonpositive_values_rejected(self):
        values = np.zeros(50)
        with pytest.raises(MetricError):
            growth_exponent(values, (10, 50))

    def test_too_few_points_rejected(self):
        with pytest.raises(MetricError):
            growth_exponent(np.sqrt(np.arange(1, 51)), (10, 13))

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        values = np.sqrt(np.arange(1, 101)) * np.exp(rng.normal(0, 0.05, 100))
        assert growth_exponent(values, (10, 100)) == pytest.approx(
            growth_exponent(7.0 * values, (10, 100))
        )
