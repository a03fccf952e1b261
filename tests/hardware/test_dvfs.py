"""Tests for DVFS operating points and the Pentium M ladder (paper Table 2)."""

import pytest

from repro.hardware.dvfs import (
    DVFSTable,
    OperatingPoint,
    PENTIUM_M_1400,
    alpha_power_frequency,
)
from repro.util.units import MHZ


def test_table2_has_five_points():
    assert len(PENTIUM_M_1400) == 5


def test_table2_exact_pairs():
    expected = {
        1400: 1.484,
        1200: 1.436,
        1000: 1.308,
        800: 1.180,
        600: 0.956,
    }
    for point in PENTIUM_M_1400:
        assert expected[point.mhz] == point.voltage


def test_points_are_sorted_slowest_first():
    freqs = PENTIUM_M_1400.frequencies
    assert freqs == sorted(freqs)
    assert PENTIUM_M_1400.slowest.mhz == 600
    assert PENTIUM_M_1400.fastest.mhz == 1400


def test_point_for_exact_lookup():
    p = PENTIUM_M_1400.point_for(1000 * MHZ)
    assert p.voltage == 1.308
    with pytest.raises(KeyError):
        PENTIUM_M_1400.point_for(900 * MHZ)


def test_index_of():
    assert PENTIUM_M_1400.index_of(600 * MHZ) == 0
    assert PENTIUM_M_1400.index_of(1400 * MHZ) == 4
    with pytest.raises(KeyError):
        PENTIUM_M_1400.index_of(1.0)


def test_closest_snaps_to_legal_point():
    assert PENTIUM_M_1400.closest(950 * MHZ).mhz == 1000
    assert PENTIUM_M_1400.closest(0.0).mhz == 600
    assert PENTIUM_M_1400.closest(9e9).mhz == 1400


def test_step_down_and_up_clamp_at_ends():
    t = PENTIUM_M_1400
    assert t.step_down(1400 * MHZ).mhz == 1200
    assert t.step_down(600 * MHZ).mhz == 600
    assert t.step_up(600 * MHZ).mhz == 800
    assert t.step_up(1400 * MHZ).mhz == 1400


def test_relative_fv2_is_one_at_fastest_and_decreases():
    t = PENTIUM_M_1400
    rel = [t.relative_fv2(p) for p in t]
    assert rel[-1] == pytest.approx(1.0)
    assert rel == sorted(rel)
    # 600 MHz: (600*0.956^2)/(1400*1.484^2) ~ 0.178 — the big DVS lever.
    assert rel[0] == pytest.approx(0.1779, abs=1e-3)


def test_relative_v2():
    t = PENTIUM_M_1400
    assert t.relative_v2(t.fastest) == pytest.approx(1.0)
    assert t.relative_v2(t.slowest) == pytest.approx((0.956 / 1.484) ** 2)


def test_operating_point_validation():
    with pytest.raises(ValueError):
        OperatingPoint(frequency=-1.0, voltage=1.0)
    with pytest.raises(ValueError):
        OperatingPoint(frequency=1e9, voltage=0.0)


def test_table_rejects_empty_and_duplicates():
    with pytest.raises(ValueError):
        DVFSTable([])
    p = OperatingPoint(1e9, 1.2)
    with pytest.raises(ValueError):
        DVFSTable([p, OperatingPoint(1e9, 1.3)])


def test_table_rejects_voltage_inversions():
    with pytest.raises(ValueError):
        DVFSTable(
            [OperatingPoint(1e9, 1.4), OperatingPoint(2e9, 1.2)]
        )


def test_fv2_term():
    p = OperatingPoint(1400 * MHZ, 1.484)
    assert p.fv2() == pytest.approx(1400 * MHZ * 1.484**2)


def test_alpha_power_law_roughly_fits_table2():
    """Eq. 1: f ∝ (V - Vt)/V.  Anchoring the law at the ladder's endpoints
    (which gives Vt ≈ 0.755 V) predicts the middle points within ~30 %
    (the real part's voltages are binned, so an exact fit is impossible)."""
    vt = 0.755
    fastest = PENTIUM_M_1400.fastest
    k = fastest.frequency / ((fastest.voltage - vt) / fastest.voltage)
    for point in PENTIUM_M_1400:
        predicted = alpha_power_frequency(point.voltage, vt, k)
        assert predicted == pytest.approx(point.frequency, rel=0.30)


def test_alpha_power_law_rejects_subthreshold_voltage():
    with pytest.raises(ValueError):
        alpha_power_frequency(0.5, 0.6, 1e9)


def _closest_by_scan(table, frequency):
    return min(table.points, key=lambda p: abs(p.frequency - frequency))


def test_closest_exact_hit_matches_the_scan():
    """``closest`` answers exact ladder frequencies from the index; the
    point must be the one the full scan picks, for every rung, for the
    midpoints between rungs (ties go to the slower point) and for
    requests outside the ladder."""
    t = PENTIUM_M_1400
    freqs = t.frequencies
    probes = list(freqs)
    probes += [(a + b) / 2.0 for a, b in zip(freqs, freqs[1:])]
    probes += [f + 1.0 for f in freqs] + [f - 1.0 for f in freqs]
    probes += [0.0, 1.0, freqs[0] / 2.0, freqs[-1] * 2.0, 9e12]
    for f in probes:
        assert t.closest(f) is _closest_by_scan(t, f), f
    for point in t:
        assert t.closest(point.frequency) is point
    assert t.closest((600 * MHZ + 800 * MHZ) / 2.0).mhz == 600
