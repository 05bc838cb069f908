import numpy as np

from stopgo.svg import speed_color

STOPS = [(68, 1, 84), (33, 145, 140), (253, 231, 37)]


def reference_color(v, u0):
    """One speed at a time, with Python's round(): the colormap's definition."""
    x = min(max(v / u0, 0.0), 1.0) * (len(STOPS) - 1)
    i = min(int(x), len(STOPS) - 2)
    f = x - i
    return [round(a + (b - a) * f) for a, b in zip(STOPS[i], STOPS[i + 1])]


def test_speed_color_matches_scalar_reference():
    u0 = 25.0
    rng = np.random.default_rng(0)
    v = np.concatenate([
        rng.uniform(-5.0, 30.0, 5000),  # includes speeds outside [0, u0]
        np.linspace(0.0, u0, 4097),  # exact stop and half-way points
    ])
    assert speed_color(v, u0).tolist() == [reference_color(x, u0) for x in v.tolist()]


def test_speed_color_rounds_half_to_even():
    # a quarter of u0 is half way between the first two stops: 68 - 17.5 = 50.5
    assert speed_color(np.array([6.25]), 25.0).tolist() == [[50, 73, 112]]
