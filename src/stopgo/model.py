"""Stochastic Newell speed map and the desired-spacing rule of each vehicle type.

All functions here are pure and operate on scalars; the scenario module
applies the same math vectorized over a fleet.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence


class ConfigurationError(ValueError):
    """Inconsistent parameters, fleet setup, or vehicle context."""


class VehicleKind(Enum):
    """The seven controller types: human drivers plus six intelligent variants."""

    HV = "HV"      # human-driven, noisy spacing perception
    AV = "AV"      # automated, exact own spacing
    MAV = "MAV"    # multi-anticipation: averages own and leader's spacing
    PCV = "PCV"    # partially connected (V2V), noisy
    PCAV = "PCAV"  # partially connected and automated
    FCV = "FCV"    # fully connected (V2I mean density), noisy
    FCAV = "FCAV"  # fully connected and automated

    @property
    def is_noisy(self) -> bool:
        return self in _NOISY_KINDS

    @property
    def is_partially_connected(self) -> bool:
        return self in _PC_KINDS

    @property
    def is_fully_connected(self) -> bool:
        return self in _FC_KINDS


_NOISY_KINDS = frozenset({VehicleKind.HV, VehicleKind.PCV, VehicleKind.FCV})
_PC_KINDS = frozenset({VehicleKind.PCV, VehicleKind.PCAV})
_FC_KINDS = frozenset({VehicleKind.FCV, VehicleKind.FCAV})


@dataclass(frozen=True)
class ModelParams:
    """Fundamental-diagram and noise constants shared by every vehicle.

    u0: free-flow speed [m/s]
    s_j: jam spacing [m]
    tau: time gap, which is also the update interval [s]
    sigma_hat: speed-noise amplitude for noisy kinds [m/s]
    """

    u0: float = 25.0
    s_j: float = 7.5
    tau: float = 1.5
    sigma_hat: float = 0.25

    def __post_init__(self):
        for name in ("u0", "s_j", "tau", "sigma_hat"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value}")
        if self.u0 <= 0:
            raise ConfigurationError(f"u0 must be > 0, got {self.u0}")
        if self.s_j <= 0:
            raise ConfigurationError(f"s_j must be > 0, got {self.s_j}")
        if self.tau <= 0:
            raise ConfigurationError(f"tau must be > 0, got {self.tau}")
        if self.sigma_hat < 0:
            raise ConfigurationError(f"sigma_hat must be >= 0, got {self.sigma_hat}")

    @property
    def free_flow_spacing(self) -> float:
        """Equilibrium spacing at free-flow speed: s_j + u0 * tau."""
        return self.s_j + self.u0 * self.tau

    def equilibrium_spacing(self, speed: float) -> float:
        """Spacing at which `speed` is the equilibrium speed: s_j + v * tau."""
        return self.s_j + speed * self.tau


@dataclass
class SpacingContext:
    """Everything a single vehicle can observe when choosing its next speed.

    own_spacing: distance to its leader [m]
    leader_spacing: its leader's own spacing [m] (needed by MAV)
    connected_spacings: spacings reported by all PC-equipped vehicles [m],
        including the vehicle's own when it is PC-equipped
    mean_spacing: fleet mean spacing, i.e. 1 / density [m] (needed by FC kinds)
    """

    own_spacing: float
    leader_spacing: Optional[float] = None
    connected_spacings: Optional[Sequence[float]] = None
    mean_spacing: Optional[float] = None


def equilibrium_speed(spacing: float, params: ModelParams) -> float:
    """Deterministic speed-spacing map: min(u0, (s - s_j) / tau).

    May be negative below jam spacing; clamping is done in next_speed.
    """
    return min(params.u0, (spacing - params.s_j) / params.tau)


def desired_spacing(kind: VehicleKind, ctx: SpacingContext) -> float:
    """Spacing each controller feeds into the speed map."""
    if kind in (VehicleKind.HV, VehicleKind.AV):
        return ctx.own_spacing
    if kind is VehicleKind.MAV:
        if ctx.leader_spacing is None:
            raise ConfigurationError("MAV context is missing leader_spacing")
        return 0.5 * (ctx.own_spacing + ctx.leader_spacing)
    if kind in _PC_KINDS:
        if not ctx.connected_spacings:
            raise ConfigurationError(
                f"{kind.value} context is missing connected_spacings"
            )
        return sum(ctx.connected_spacings) / len(ctx.connected_spacings)
    # FCV / FCAV
    if ctx.mean_spacing is None:
        raise ConfigurationError(f"{kind.value} context is missing mean_spacing")
    return ctx.mean_spacing


def effective_sigma(kind: VehicleKind, params: ModelParams) -> float:
    """Noise amplitude actually applied: sigma_hat for noisy kinds, else 0."""
    return params.sigma_hat if kind.is_noisy else 0.0


def next_speed(
    kind: VehicleKind,
    ctx: SpacingContext,
    params: ModelParams,
    noise_sample: float,
) -> float:
    """Speed for the next step, clamped to [0, u0].

    noise_sample is a standard-normal draw supplied by the caller so the
    function stays deterministic and testable.
    """
    v = equilibrium_speed(desired_spacing(kind, ctx), params)
    v += effective_sigma(kind, params) * noise_sample
    return min(params.u0, max(0.0, v))
