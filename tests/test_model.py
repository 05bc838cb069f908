import numpy as np
import pytest

from stopgo.model import (
    ConfigurationError,
    ModelParams,
    SpacingContext,
    VehicleKind,
    desired_spacing,
    effective_sigma,
    equilibrium_speed,
    next_speed,
)

K = VehicleKind
DEFAULT = ModelParams()


class TestModelParams:
    def test_defaults(self):
        assert DEFAULT.u0 == 25.0
        assert DEFAULT.s_j == 7.5
        assert DEFAULT.tau == 1.5
        assert DEFAULT.sigma_hat == 0.25

    def test_free_flow_spacing(self):
        assert DEFAULT.free_flow_spacing == pytest.approx(45.0)
        assert DEFAULT.free_flow_spacing > DEFAULT.s_j

    @pytest.mark.parametrize(
        "kwargs",
        [{"u0": 0.0}, {"u0": -1.0}, {"s_j": 0.0}, {"tau": -0.1}, {"sigma_hat": -0.25}],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            ModelParams(**kwargs)

    @pytest.mark.parametrize("name", ["u0", "s_j", "tau", "sigma_hat"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(ConfigurationError, match=f"{name} must be finite"):
            ModelParams(**{name: value})


class TestEquilibriumSpeed:
    def test_spacing_22(self):
        # 22 m is the equilibrium spacing of the 9.66 m/s leader scenario
        assert equilibrium_speed(22.0, DEFAULT) == pytest.approx(9.6667, abs=1e-4)

    def test_jam_spacing_gives_zero(self):
        assert equilibrium_speed(7.5, DEFAULT) == 0.0

    def test_capped_at_free_flow(self):
        assert equilibrium_speed(100.0, DEFAULT) == 25.0

    def test_negative_below_jam(self):
        assert equilibrium_speed(3.0, DEFAULT) < 0.0

    def test_nondecreasing_and_affine(self):
        rng = np.random.default_rng(0)
        spacings = np.sort(rng.uniform(0.0, 60.0, size=200))
        speeds = [equilibrium_speed(s, DEFAULT) for s in spacings]
        assert all(b >= a for a, b in zip(speeds, speeds[1:]))
        # slope 1/tau on the congested branch
        inside = [(s, v) for s, v in zip(spacings, speeds)
                  if DEFAULT.s_j < s < DEFAULT.free_flow_spacing]
        for (s1, v1), (s2, v2) in zip(inside, inside[1:]):
            assert (v2 - v1) == pytest.approx((s2 - s1) / DEFAULT.tau)


class TestDesiredSpacing:
    def test_hv_av_identity(self):
        ctx = SpacingContext(own_spacing=13.7)
        assert desired_spacing(K.HV, ctx) == 13.7
        assert desired_spacing(K.AV, ctx) == 13.7

    def test_mav_averages_two_leaders(self):
        ctx = SpacingContext(own_spacing=20.0, leader_spacing=30.0)
        assert desired_spacing(K.MAV, ctx) == 25.0

    def test_pc_mean_of_connected(self):
        ctx = SpacingContext(own_spacing=18.0, connected_spacings=[18.0, 22.0, 26.0])
        assert desired_spacing(K.PCAV, ctx) == pytest.approx(22.0)
        assert desired_spacing(K.PCV, ctx) == pytest.approx(22.0)

    def test_fc_uses_mean_spacing(self):
        ctx = SpacingContext(own_spacing=10.0, mean_spacing=25.0)
        assert desired_spacing(K.FCAV, ctx) == 25.0
        assert desired_spacing(K.FCV, ctx) == 25.0

    @pytest.mark.parametrize(
        "kind,ctx",
        [
            (K.MAV, SpacingContext(own_spacing=20.0)),
            (K.PCV, SpacingContext(own_spacing=20.0)),
            (K.PCAV, SpacingContext(own_spacing=20.0, connected_spacings=[])),
            (K.FCV, SpacingContext(own_spacing=20.0)),
        ],
    )
    def test_missing_context_field(self, kind, ctx):
        with pytest.raises(ConfigurationError, match=kind.value):
            desired_spacing(kind, ctx)


class TestNextSpeed:
    def test_zero_noise_is_equilibrium(self):
        ctx = SpacingContext(own_spacing=22.0)
        assert next_speed(K.HV, ctx, DEFAULT, 0.0) == equilibrium_speed(22.0, DEFAULT)

    def test_lower_clamp(self):
        ctx = SpacingContext(own_spacing=7.5)
        assert next_speed(K.HV, ctx, DEFAULT, -1.0) == 0.0

    def test_noise_shifts_speed_per_step(self):
        ctx = SpacingContext(own_spacing=22.0)
        expected = equilibrium_speed(22.0, DEFAULT) + 0.25
        assert next_speed(K.HV, ctx, DEFAULT, 1.0) == pytest.approx(expected)
        assert next_speed(K.HV, ctx, DEFAULT, 1.0) == pytest.approx(9.9167, abs=1e-4)

    def test_av_ignores_noise(self):
        ctx = SpacingContext(own_spacing=22.0)
        assert next_speed(K.AV, ctx, DEFAULT, 1.0) == pytest.approx(9.6667, abs=1e-4)

    def test_always_in_range(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            ctx = SpacingContext(own_spacing=rng.uniform(0, 100))
            v = next_speed(K.HV, ctx, DEFAULT, rng.normal() * 100)
            assert 0.0 <= v <= DEFAULT.u0

    def test_noiseless_kinds_independent_of_noise(self):
        rng = np.random.default_rng(2)
        for kind in (K.AV, K.MAV, K.PCAV, K.FCAV):
            ctx = SpacingContext(
                own_spacing=20.0, leader_spacing=24.0,
                connected_spacings=[20.0, 24.0], mean_spacing=22.0,
            )
            speeds = {next_speed(kind, ctx, DEFAULT, z) for z in rng.normal(size=100)}
            assert len(speeds) == 1

    def test_pcav_alone_equals_av(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            s = rng.uniform(0, 60)
            ctx = SpacingContext(own_spacing=s, connected_spacings=[s])
            z = rng.normal()
            assert next_speed(K.PCAV, ctx, DEFAULT, z) == next_speed(
                K.AV, SpacingContext(own_spacing=s), DEFAULT, z
            )

    def test_pcv_equals_pcav_at_zero_noise(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            ctx = SpacingContext(
                own_spacing=rng.uniform(5, 40),
                connected_spacings=list(rng.uniform(5, 40, size=4)),
            )
            assert next_speed(K.PCV, ctx, DEFAULT, 0.0) == next_speed(
                K.PCAV, ctx, DEFAULT, 0.0
            )


def test_effective_sigma_table():
    for kind in (K.HV, K.PCV, K.FCV):
        assert effective_sigma(kind, DEFAULT) == 0.25
    for kind in (K.AV, K.MAV, K.PCAV, K.FCAV):
        assert effective_sigma(kind, DEFAULT) == 0.0
