"""Self-tests of the timed run's host-speed adjustment, task lists and
output checks."""

from types import SimpleNamespace

import pytest

import hostspeed
import suite

N = hostspeed.NOMINAL_S


def test_factor_scales_by_the_median_loop():
    assert hostspeed.factor([N, N]) == pytest.approx(1.0)
    assert hostspeed.factor([2 * N, 2 * N, 5 * N]) == pytest.approx(0.5)


def test_one_slow_loop_does_not_skew_its_stretches():
    loops = [N] * 3 + [4 * N] + [N] * 3
    assert hostspeed.factors(loops) == pytest.approx([1.0] * 6)


def test_a_slow_episode_scales_the_stretches_inside_it():
    loops = [N] * 6 + [2 * N] * 6
    scale = hostspeed.factors(loops)
    assert len(scale) == len(loops) - 1
    assert scale[0] == pytest.approx(1.0)
    assert scale[-1] == pytest.approx(0.5)


def test_ft_sweep_runs_the_whole_grid_in_seeded_order(tmp_path):
    def ids(seed):
        return [c.id for c in suite.ft_sweep(seed, tmp_path).cases]

    assert len(ids(1)) == len(suite.FT_CONFIGS) * len(suite.FT_STRATEGIES)
    assert sorted(ids(1)) == sorted(ids(2))
    assert ids(1) != ids(2)


def test_a_hit_must_reproduce_what_setup_stored():
    case = suite.ft_case(suite.FT_CONFIGS[0], "cpuspeed")
    ref = suite.load_refs()[case.id]
    # Within the FT tolerance of its reference, so it is stored.
    drifted = SimpleNamespace(energy=ref["energy"] * (1 + 1e-12), delay=ref["delay"])
    run = suite.Run([case], stored=[(case, drifted)])
    assert run.check(case, drifted)
    assert not run.check(case, SimpleNamespace(**ref))

    # Off its reference: every hit of it fails.
    off = SimpleNamespace(energy=ref["energy"] * 1.01, delay=ref["delay"])
    run = suite.Run([case], stored=[(case, off)])
    assert not run.check(case, off)
