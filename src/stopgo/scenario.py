"""Fleet stepping on an open road behind a constant-speed leader or a ring road.

The dynamic state variable is the spacing vector: speeds are a function of
spacings, and spacings evolve as s(t+dt) = s(t) + (v_ahead - v_own) * dt.
Integrating spacings directly (rather than differencing positions) keeps the
equilibrium an exact floating-point fixed point. Unwrapped odometer positions
are integrated alongside for trajectory output.

One kernel steps R independent runs of equal fleet size together as (R, N)
arrays: a chunk of Monte Carlo runs is one batch, and a single run or a
single step is a batch of one.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .model import ConfigurationError, ModelParams, VehicleKind, equilibrium_speed


class CollisionError(RuntimeError):
    """A vehicle's spacing went negative; the run is aborted."""

    def __init__(self, t: float, vehicle: int):
        self.t = t
        self.vehicle = vehicle
        super().__init__(f"collision at t={t:.1f} s: vehicle {vehicle} spacing < 0")

    def __reduce__(self):
        # rebuild from (t, vehicle), so the error crosses a process pool intact
        return (CollisionError, (self.t, self.vehicle))


@dataclass(frozen=True)
class OpenRoad:
    """Open platoon behind a deterministic leader at constant speed [m/s]."""

    leader_speed: float


@dataclass(frozen=True)
class Ring:
    """Circular road of the given length [m]."""

    length: float


Geometry = Union[OpenRoad, Ring]


@dataclass
class FleetConfig:
    """Vehicle-kind assignment and uniform initial spacing.

    On the open road the kinds cover the N followers (the leader is not a
    modeled vehicle); on the ring they cover all N vehicles. initial_spacing
    may be None on a ring, in which case it is derived as L / N.
    """

    kinds: Sequence[VehicleKind]
    initial_spacing: Optional[float] = None

    @property
    def n_vehicles(self) -> int:
        return len(self.kinds)


@dataclass
class ScenarioState:
    """Positions and speeds of all modeled vehicles at one instant.

    spacings[n] is the distance from vehicle n to the vehicle ahead of it
    (vehicle n-1; on the ring, vehicle 0 follows vehicle N-1). positions are
    unwrapped odometers; take them modulo L for ring plots.
    """

    t: float
    spacings: np.ndarray
    speeds: np.ndarray
    positions: np.ndarray
    leader_position: Optional[float] = None  # open road only


@dataclass
class RunRecord:
    """Full history of one run, or of R runs side by side: row 0 is the initial state.

    speeds has shape (n_steps + 1, N). A batch of R runs (see run_with_rng)
    lays them side by side: np.hsplit(speeds, R)[r] is run r, and metrics
    apply to one run at a time. Positions are derived from the speeds on
    first use. The open-road leader is kept separately so metrics never see it.
    """

    dt: float
    speeds: np.ndarray
    start_positions: np.ndarray
    kinds: Tuple[VehicleKind, ...]
    geometry: Geometry

    @cached_property
    def positions(self) -> np.ndarray:
        """Unwrapped odometers, same shape as speeds.

        A running sum adds in order, so positions[i] is exactly
        positions[i - 1] + speeds[i] * dt, as a step-by-step integration gives.
        """
        increments = self.speeds * self.dt
        increments[0] = self.start_positions
        return np.cumsum(increments, axis=0)

    @cached_property
    def leader_positions(self) -> Optional[np.ndarray]:
        """Open road only: the leader, at the origin at t = 0."""
        if not isinstance(self.geometry, OpenRoad):
            return None
        # time accumulated step by step, as the kernel does; multiply rather
        # than accumulate positions: the leader trajectory is exactly linear
        t = np.full(self.speeds.shape[0], self.dt)
        t[0] = 0.0
        return self.geometry.leader_speed * np.cumsum(t)

    @property
    def n_vehicles(self) -> int:
        return self.speeds.shape[1]

    @property
    def n_steps(self) -> int:
        return self.speeds.shape[0] - 1

    @property
    def duration(self) -> float:
        return self.n_steps * self.dt

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.speeds.shape[0]) * self.dt


def _resolve_spacing(geometry: Geometry, fleet: FleetConfig, params: ModelParams) -> float:
    n = fleet.n_vehicles
    if n < 1:
        raise ConfigurationError("fleet must contain at least one vehicle")
    if fleet.initial_spacing is not None and not np.isfinite(fleet.initial_spacing):
        raise ConfigurationError(f"initial_spacing must be finite, got {fleet.initial_spacing}")
    if isinstance(geometry, Ring):
        if geometry.length <= n * params.s_j:
            raise ConfigurationError(
                f"ring of length {geometry.length} m cannot hold {n} vehicles "
                f"at jam spacing {params.s_j} m"
            )
        derived = geometry.length / n
        if fleet.initial_spacing is None:
            return derived
        if not np.isclose(fleet.initial_spacing * n, geometry.length):
            raise ConfigurationError(
                f"N * initial_spacing = {fleet.initial_spacing * n} m does not "
                f"match ring length {geometry.length} m"
            )
        return fleet.initial_spacing
    if not 0.0 <= geometry.leader_speed <= params.u0:
        raise ConfigurationError(
            f"leader_speed {geometry.leader_speed} outside [0, {params.u0}]"
        )
    if fleet.initial_spacing is None:
        raise ConfigurationError("open-road fleet needs an initial_spacing")
    if fleet.initial_spacing < params.s_j:
        raise ConfigurationError(
            f"initial_spacing {fleet.initial_spacing} m below jam spacing {params.s_j} m"
        )
    return fleet.initial_spacing


def init_scenario(
    geometry: Geometry, fleet: FleetConfig, params: ModelParams
) -> ScenarioState:
    """Place vehicles at uniform spacing, all at the noise-free equilibrium speed."""
    n = fleet.n_vehicles
    s0 = _resolve_spacing(geometry, fleet, params)
    v0 = min(params.u0, max(0.0, equilibrium_speed(s0, params)))
    spacings = np.full(n, s0)
    speeds = np.full(n, v0)
    if isinstance(geometry, Ring):
        positions = (n - 1 - np.arange(n)) * s0
        return ScenarioState(0.0, spacings, speeds, positions)
    # leader at the origin, followers stacked behind it
    positions = -np.arange(1, n + 1) * s0
    return ScenarioState(0.0, spacings, speeds, positions, leader_position=0.0)


# Steps of noise drawn per generator call. A (block, N) draw gives the same
# numbers as block draws of N, and the buffer of a batch stays (R, block, N)
# whatever the horizon.
_NOISE_BLOCK = 64


class _FleetArrays:
    """Kind-derived (R, N) arrays of R fleets of equal size, reused across steps.

    The partially connected vehicles are gathered by index, so that each
    run's PC mean sums the same spacings in the same order as a lone run
    would; this needs every fleet to have as many of them.
    """

    def __init__(self, kinds_by_run: Sequence[Sequence[VehicleKind]], params: ModelParams):
        kinds = np.array(kinds_by_run, dtype=object)

        def flags(test) -> np.ndarray:
            return np.logical_or.reduce([kinds == k for k in VehicleKind if test(k)])

        self.sigma = np.where(flags(lambda k: k.is_noisy), params.sigma_hat, 0.0)
        self.any_noise = bool(self.sigma.any())
        mav = flags(lambda k: k is VehicleKind.MAV)
        self.mav = mav if mav.any() else None
        pc = flags(lambda k: k.is_partially_connected)
        self.pc_at = None  # (rows, columns) index of the PC vehicles, one row per run
        if pc.any():
            counts = pc.sum(axis=1)
            if np.any(counts != counts[0]):
                raise ConfigurationError(
                    "fleets stepped together must have equally many partially "
                    f"connected vehicles, got {sorted(set(counts.tolist()))}"
                )
            n_runs = pc.shape[0]
            self.pc_at = (np.arange(n_runs)[:, None], np.nonzero(pc)[1].reshape(n_runs, -1))
        fc = flags(lambda k: k.is_fully_connected)
        self.fc = fc if fc.any() else None


def _shift(x: np.ndarray, first) -> np.ndarray:
    """Column i holds x[:, i - 1], the value of the vehicle ahead; column 0 holds first."""
    out = np.empty_like(x)
    out[:, 1:] = x[:, :-1]
    out[:, 0] = first
    return out


def _steps(
    geometry: Geometry,
    fleets: _FleetArrays,
    params: ModelParams,
    spacings: np.ndarray,
    t: float,
    rngs: Sequence[np.random.Generator],
    n_steps: int,
) -> Iterator[Tuple[float, np.ndarray, np.ndarray]]:
    """The stepping kernel: advance R runs together, n_steps synchronous updates.

    spacings is (R, N); run r draws its noise from rngs[r], N normals per
    step whether or not any vehicle is noisy. Yields (t, spacings, speeds)
    after each update; every context reads the time-t spacings. A run whose
    spacing goes negative keeps stepping. Once every run has collided, or
    after the last step, the CollisionError of the lowest-index collided run
    is raised, the one a run-by-run loop would have hit first.
    """
    n_runs, n = spacings.shape
    dt = params.tau
    ring = isinstance(geometry, Ring)
    spac = spacings
    collisions: List[Optional[CollisionError]] = [None] * n_runs
    noise = np.empty((n_runs, min(_NOISE_BLOCK, n_steps), n))
    for i in range(n_steps):
        j = i % _NOISE_BLOCK
        if j == 0:
            rows = min(_NOISE_BLOCK, n_steps - i)
            for r, rng in enumerate(rngs):
                rng.standard_normal(out=noise[r, :rows])

        s_d = spac
        if fleets.mav is not None:
            # on the open road follower 0 sits behind the deterministic leader
            # and has no second spacing to average; it falls back to AV behavior
            leader_spac = _shift(spac, spac[:, -1] if ring else spac[:, 0])
            s_d = np.where(fleets.mav, 0.5 * (spac + leader_spac), spac)
        if fleets.pc_at is not None:
            if s_d is spac:
                s_d = spac.copy()
            s_d[fleets.pc_at] = spac[fleets.pc_at].mean(axis=1, keepdims=True)
        if fleets.fc is not None:
            mean_spacing = geometry.length / n if ring else spac.mean(axis=1, keepdims=True)
            s_d = np.where(fleets.fc, mean_spacing, s_d)

        v = np.minimum(params.u0, (s_d - params.s_j) / params.tau)
        if fleets.any_noise:
            v = v + fleets.sigma * noise[:, j]
        np.clip(v, 0.0, params.u0, out=v)

        v_ahead = _shift(v, v[:, -1] if ring else geometry.leader_speed)
        spac = spac + (v_ahead - v) * dt
        t = t + dt
        crashed = spac < 0.0
        if crashed.any():
            for r in np.flatnonzero(crashed.any(axis=1)):
                if collisions[r] is None:
                    collisions[r] = CollisionError(t, int(np.argmin(spac[r])))
            if all(c is not None for c in collisions):
                break
        yield t, spac, v
    for collision in collisions:
        if collision is not None:
            raise collision


def step(
    state: ScenarioState,
    geometry: Geometry,
    fleet: FleetConfig,
    params: ModelParams,
    rng: np.random.Generator,
) -> ScenarioState:
    """Advance the whole fleet by one interval of length tau."""
    fleets = _FleetArrays([fleet.kinds], params)
    ((t, spacings, speeds),) = _steps(
        geometry, fleets, params, state.spacings[None, :], state.t, [rng], 1
    )
    leader_pos = None
    if isinstance(geometry, OpenRoad):
        leader_pos = geometry.leader_speed * t
    return ScenarioState(
        t, spacings[0], speeds[0], state.positions + speeds[0] * params.tau, leader_pos
    )


def run_with_rng(
    geometry: Geometry,
    fleet: Union[FleetConfig, Sequence[FleetConfig]],
    params: ModelParams,
    rng: Union[np.random.Generator, Sequence[np.random.Generator]],
    n_steps: int,
) -> RunRecord:
    """Simulate n_steps updates, drawing noise from the given generator.

    Given a sequence of R fleets and as many generators, the runs are
    stepped together and recorded side by side; run r draws its noise from
    rng[r] and records exactly the speeds it would record alone. The fleets
    must share size and initial spacing and have equally many partially
    connected vehicles. If runs collide, the CollisionError of the
    lowest-index one is raised.
    """
    if n_steps < 1:
        raise ConfigurationError(f"n_steps must be >= 1, got {n_steps}")
    fleets = [fleet] if isinstance(fleet, FleetConfig) else list(fleet)
    rngs = [rng] if isinstance(rng, np.random.Generator) else list(rng)
    if len({(f.n_vehicles, f.initial_spacing) for f in fleets}) != 1:
        raise ConfigurationError("fleets stepped together must share size and initial spacing")
    if len(rngs) != len(fleets):
        raise ConfigurationError(f"{len(fleets)} fleets need as many generators, got {len(rngs)}")
    state = init_scenario(geometry, fleets[0], params)
    n_runs = len(fleets)

    speeds = np.empty((n_steps + 1, n_runs * fleets[0].n_vehicles))
    speeds[0] = np.tile(state.speeds, n_runs)
    arrays = _FleetArrays([f.kinds for f in fleets], params)
    spacings = np.tile(state.spacings, (n_runs, 1))
    kernel = _steps(geometry, arrays, params, spacings, state.t, rngs, n_steps)
    for i, (_, _, v) in enumerate(kernel, start=1):
        speeds[i] = v.ravel()

    return RunRecord(
        dt=params.tau,
        speeds=speeds,
        start_positions=np.tile(state.positions, n_runs),
        kinds=tuple(k for f in fleets for k in f.kinds),
        geometry=geometry,
    )


def run(
    geometry: Geometry,
    fleet: FleetConfig,
    params: ModelParams,
    seed: int,
    n_steps: int,
) -> RunRecord:
    """Simulate with a fresh generator; identical seeds give identical records."""
    return run_with_rng(geometry, fleet, params, np.random.default_rng(seed), n_steps)


def place_intelligent(
    n_vehicles: int,
    mpr: float,
    kind: VehicleKind,
    rng: np.random.Generator,
) -> List[VehicleKind]:
    """Assign round(mpr * N) vehicles of `kind` at uniform random positions."""
    if not 0.0 <= mpr <= 1.0:
        raise ConfigurationError(f"mpr must be in [0, 1], got {mpr}")
    n_equipped = int(round(mpr * n_vehicles))
    kinds = [VehicleKind.HV] * n_vehicles
    if n_equipped == 0:
        if mpr > 0:
            warnings.warn(
                f"mpr={mpr} rounds to zero equipped vehicles for N={n_vehicles}; "
                "running a pure-HV fleet"
            )
        return kinds
    for idx in rng.choice(n_vehicles, size=n_equipped, replace=False):
        kinds[int(idx)] = kind
    return kinds
