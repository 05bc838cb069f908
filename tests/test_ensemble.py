import numpy as np
import pytest

from stopgo import ensemble
from stopgo.ensemble import (
    CompareRow,
    EnsembleSpec,
    build_fleet,
    compare_kinds,
    run_ensemble,
    run_seed_sequence,
)
from stopgo.metrics import over_time_std, per_vehicle_std
from stopgo.model import ConfigurationError, ModelParams, VehicleKind
from stopgo.scenario import CollisionError, OpenRoad, Ring, run_with_rng

K = VehicleKind
LEADER_22 = (22.0 - 7.5) / 1.5


def small_spec(**overrides):
    base = dict(
        geometry=OpenRoad(LEADER_22),
        n_vehicles=30,
        mpr=0.0,
        kind=K.HV,
        n_runs=5,
        n_steps=120,
        master_seed=17,
        metric="per_vehicle",
        window=(0.0, 180.0),
        initial_spacing=22.0,
    )
    base.update(overrides)
    return EnsembleSpec(**base)


def per_run_curve(spec, run_index):
    """One run's curve through the public single-run path."""
    rng = np.random.default_rng(run_seed_sequence(spec.master_seed, run_index))
    record = run_with_rng(spec.geometry, build_fleet(spec, rng), spec.params, rng, spec.n_steps)
    if spec.metric == "per_vehicle":
        return per_vehicle_std(record, spec.window).values
    return over_time_std(record).values


def cap_chunks_at(monkeypatch, spec, runs):
    monkeypatch.setattr(ensemble, "CHUNK_BYTES", runs * ensemble._run_bytes(spec))


RING_30 = dict(geometry=Ring(30 * 25.0), initial_spacing=None, window=None)


class TestSeeds:
    def test_per_run_seeds_distinct(self):
        firsts = {
            np.random.default_rng(run_seed_sequence(5, i)).integers(2**63)
            for i in range(500)
        }
        assert len(firsts) == 500

    def test_seed_derivation_stable(self):
        a = np.random.default_rng(run_seed_sequence(5, 3)).integers(2**63)
        b = np.random.default_rng(run_seed_sequence(5, 3)).integers(2**63)
        assert a == b


class TestRunEnsemble:
    def test_single_run_mean_is_curve_and_zero_stderr(self):
        spec = small_spec(n_runs=1)
        curve = run_ensemble(spec)
        assert np.array_equal(curve.mean, per_run_curve(spec, 0))
        assert np.all(curve.stderr == 0.0)

    def test_mean_is_average_of_run_curves(self):
        spec = small_spec(n_runs=3)
        curve = run_ensemble(spec)
        expected = np.mean([per_run_curve(spec, i) for i in range(3)], axis=0)
        assert np.array_equal(curve.mean, expected)

    @pytest.mark.parametrize("overrides", [
        dict(),
        dict(mpr=0.1, kind=K.MAV),
        dict(mpr=0.1, kind=K.PCV),
        dict(mpr=0.5, kind=K.PCAV),  # 15 PC vehicles: numpy sums them 8-way unrolled
        dict(mpr=0.1, kind=K.FCAV),
        dict(mpr=0.1, kind=K.FCV, window=None),
        dict(mpr=0.1, kind=K.MAV, metric="over_time", **RING_30),
        dict(mpr=0.1, kind=K.FCV, metric="over_time", **RING_30),
        dict(mpr=0.01, kind=K.PCAV, fixed_position=4, metric="over_time", **RING_30),
    ])
    def test_batched_curves_equal_per_run_curves(self, overrides, monkeypatch):
        spec = small_spec(n_runs=7, **overrides)
        cap_chunks_at(monkeypatch, spec, 3)  # chunks of 3, 3 and 1 runs
        curve = run_ensemble(spec)
        runs = np.stack([per_run_curve(spec, i) for i in range(7)])
        assert np.array_equal(curve.mean, runs.mean(axis=0))
        assert np.array_equal(curve.stderr, runs.std(axis=0, ddof=1) / np.sqrt(7))

    def test_reproducible(self):
        spec = small_spec()
        a = run_ensemble(spec)
        b = run_ensemble(spec)
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.stderr, b.stderr)

    def test_worker_count_does_not_change_result(self, monkeypatch):
        for metric, geometry in [("per_vehicle", {}), ("over_time", RING_30)]:
            for n_runs in (3, 10):  # below and above the cap of 4 runs per chunk
                spec = small_spec(n_runs=n_runs, mpr=0.1, kind=K.MAV, metric=metric, **geometry)
                cap_chunks_at(monkeypatch, spec, 4)
                serial = run_ensemble(spec, n_workers=1)
                for n_workers in (2, 3):
                    parallel = run_ensemble(spec, n_workers=n_workers)
                    assert np.array_equal(serial.mean, parallel.mean)
                    assert np.array_equal(serial.stderr, parallel.stderr)

    def test_chunk_size_is_bounded(self):
        spec = small_spec(n_runs=250, n_vehicles=200, n_steps=400)
        size = ensemble._chunk_size(spec, 1)
        assert 1 <= size < 250
        assert size * ensemble._run_bytes(spec) <= ensemble.CHUNK_BYTES
        assert ensemble._chunk_size(small_spec(n_runs=5), 2) == 3

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_collision_of_lowest_run_index_is_raised(self, n_workers, monkeypatch):
        # run 0 collides at t=33.0 s, run 1 earlier, at t=12.0 s
        spec = small_spec(
            n_vehicles=6, n_runs=6, n_steps=40, master_seed=16, window=(0.0, 60.0),
            initial_spacing=12.0, geometry=OpenRoad(5.0), params=ModelParams(sigma_hat=2.0),
        )
        cap_chunks_at(monkeypatch, spec, 2)
        with pytest.raises(CollisionError) as err:
            run_ensemble(spec, n_workers=n_workers)
        assert (err.value.t, err.value.vehicle) == (33.0, 3)

    def test_two_master_seeds_statistically_consistent(self):
        # all-HV baseline: different master seeds estimate the same curve
        a = run_ensemble(small_spec(n_runs=60, master_seed=100))
        b = run_ensemble(small_spec(n_runs=60, master_seed=200))
        pooled = np.sqrt(a.stderr**2 + b.stderr**2)
        assert np.all(np.abs(a.mean - b.mean) <= 3.0 * pooled)

    def test_fixed_position_pins_equipped_vehicle(self):
        spec = small_spec(mpr=0.01, kind=K.FCAV, fixed_position=10, n_runs=2,
                          metric="over_time", geometry=Ring(30 * 25.0),
                          initial_spacing=None, window=None)
        curve = run_ensemble(spec)
        assert curve.mean.shape == (121,)

    def test_over_time_metric_shape(self):
        spec = small_spec(metric="over_time", geometry=Ring(30 * 25.0),
                          initial_spacing=None, window=None)
        curve = run_ensemble(spec)
        assert curve.mean.shape == (121,)
        assert curve.mean[0] == pytest.approx(0.0, abs=1e-12)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ConfigurationError):
            small_spec(n_runs=0)
        with pytest.raises(ConfigurationError):
            small_spec(mpr=2.0)
        with pytest.raises(ConfigurationError):
            small_spec(metric="nope")

    @pytest.mark.parametrize("position", [-1, 30, 500])
    def test_fixed_position_out_of_range_rejected(self, position):
        with pytest.raises(ConfigurationError, match="fixed_position"):
            small_spec(mpr=0.01, kind=K.FCAV, fixed_position=position)


class TestCompareKinds:
    def test_baseline_only(self):
        rows = compare_kinds([small_spec()])
        assert len(rows) == 1
        assert rows[0].reduction_vs_baseline == 0.0
        assert rows[0].kind is K.HV

    def test_fcav_beats_av(self):
        base = small_spec(n_vehicles=50, n_runs=30, mpr=0.0)
        specs = [
            base,
            small_spec(n_vehicles=50, n_runs=30, mpr=0.02, kind=K.AV),
            small_spec(n_vehicles=50, n_runs=30, mpr=0.02, kind=K.FCAV),
        ]
        rows = {r.kind: r for r in compare_kinds(specs)}
        assert rows[K.FCAV].reduction_vs_baseline > rows[K.AV].reduction_vs_baseline
        # automation alone barely moves the needle
        assert abs(rows[K.AV].reduction_vs_baseline) < 10.0

    def test_av_reduction_indistinguishable_from_zero(self):
        base = small_spec(n_vehicles=50, n_runs=40)
        rows = compare_kinds([base, small_spec(n_vehicles=50, n_runs=40, mpr=0.02, kind=K.AV)])
        av = next(r for r in rows if r.kind is K.AV)
        hv = next(r for r in rows if r.kind is K.HV)
        pooled = np.sqrt(av.stderr_final**2 + hv.stderr_final**2)
        assert abs(av.mean_final - hv.mean_final) <= 2.0 * pooled

    def test_mismatched_specs_rejected(self):
        with pytest.raises(ConfigurationError):
            compare_kinds([small_spec(), small_spec(n_vehicles=40)])

    def test_requires_exactly_one_baseline(self):
        with pytest.raises(ConfigurationError):
            compare_kinds([small_spec(), small_spec(master_seed=99)])
        with pytest.raises(ConfigurationError):
            compare_kinds([small_spec(mpr=0.1, kind=K.MAV)])
