import pytest

from patrolsim.engine import SimConfig, run
from patrolsim.generators import cycle, path_dual
from patrolsim.metrics import (coverage_time, fit_growth, metrics_csv,
                               refresh_series, vertex_peak_refresh)
from patrolsim.policies import PolicyKind


def cycle4_trace(horizon=4):
    return run(SimConfig(graph=cycle(4), policy=PolicyKind.LRV_V,
                         starts=(0,), horizon=horizon))


def test_vertex_peak_refresh_hand_checked():
    # single robot walks 0,1,2,3,0; leading and trailing gaps both count
    assert vertex_peak_refresh(cycle4_trace()) == [4, 3, 2, 3]


def test_vertex_peak_refresh_after_filter():
    assert vertex_peak_refresh(cycle4_trace(), after=3) == [4, 3, 2, 1]


def test_path2_oscillation_peaks():
    trace = run(SimConfig(graph=path_dual(2), policy=PolicyKind.LRV_V,
                          starts=(0,), horizon=6))
    assert vertex_peak_refresh(trace) == [2, 2]


def test_unvisited_vertex_spans_run():
    trace = run(SimConfig(graph=path_dual(5), policy=PolicyKind.LRV_V,
                          starts=(0,), horizon=2))
    assert vertex_peak_refresh(trace)[4] == 2
    assert coverage_time(trace) is None


def test_refresh_series():
    series = refresh_series(cycle4_trace())
    assert series.round_max == (0, 1, 2, 3, 3)
    assert series.covered == (1, 2, 3, 4, 4)
    assert series.coverage_time == 3
    assert series.vertex_peak == (4, 3, 2, 3)


def test_metrics_csv():
    lines = metrics_csv(refresh_series(cycle4_trace())).splitlines()
    assert lines[0] == "round,max_refresh,coverage_fraction"
    assert lines[1] == "0,0,0.250000"
    assert lines[4] == "3,3,1.000000"


def test_fit_growth_power():
    points = [(k, 2.5 * k ** 2) for k in (2, 4, 8, 16)]
    assert fit_growth(points, "power") == pytest.approx(2.0)


def test_fit_growth_geometric():
    points = [(k, 7 * 3.0 ** k) for k in (1, 2, 3, 4)]
    assert fit_growth(points, "geometric") == pytest.approx(3.0)


def test_fit_growth_errors():
    with pytest.raises(ValueError):
        fit_growth([(1, 1.0), (2, 2.0)], "power")
    with pytest.raises(ValueError):
        fit_growth([(1, 1.0), (2, 0.0), (3, 2.0)], "power")
    with pytest.raises(ValueError):
        fit_growth([(1, 1.0), (2, 2.0), (3, 3.0)], "linear")
    with pytest.raises(ValueError, match="distinct"):
        fit_growth([(2, 1.0), (2, 2.0), (2, 3.0)], "power")
    with pytest.raises(ValueError, match="distinct"):
        fit_growth([(2, 1.0), (2, 2.0), (2, 3.0)], "geometric")
