"""Radio model: LoS mix, SNR curves, coverage radii, FDMA hover times.

The *_ORACLE constants were computed independently with 40-digit arithmetic
straight from the model definitions. Radii solved in the package by bisection
(1e-9 relative) agree with the exact roots to well under 1e-8 relative.
"""

import math

import numpy as np
import pytest

from skyhaul.channel import (CoverageError, InfeasibleConfigError,
                             coverage_radii,
                             los_probability, min_hover_time,
                             optimal_bandwidth_shares, path_loss, snr_g2u,
                             snr_u2b, upload_rate_g2u, upload_times)
from skyhaul.model import ChannelParams, db_to_linear

R_G2U_ORACLE = 1447.8607072889391
R_U2U_ORACLE = 3991.5738814517615
R_U2B_ORACLE = 4057.3236288479185
SNR_G2U_AT_ZERO_ORACLE = 70999.99999999996
# radius with a 10 degree elevation angle at 100 m altitude, and P_LoS there
R_TEN_DEG = 567.1281819617710
P_LOS_TEN_DEG_ORACLE = 0.6494118148773322
HOVER_SINGLE_UNDER_CP_ORACLE = 0.3102593126027140


@pytest.fixture(scope="module")
def params():
    return ChannelParams()


def test_los_probability_at_ten_degrees(params):
    assert los_probability(R_TEN_DEG, 100.0, params) == \
        pytest.approx(P_LOS_TEN_DEG_ORACLE, rel=1e-12)


def test_los_probability_limits_and_monotonicity(params):
    # overhead link is almost surely LoS; grazing link almost surely not
    assert los_probability(0.0, 100.0, params) == pytest.approx(1.0, abs=1e-12)
    assert los_probability(1e6, 100.0, params) < 0.15
    r = np.linspace(0.0, 5000.0, 200)
    p = los_probability(r, 100.0, params)
    assert (np.diff(p) <= 0).all()


def test_path_loss_overhead_is_near_free_space(params):
    # directly underneath, P_LoS ~ 1 so the kappa blend vanishes
    expected = params.beta0 / params.uav_height_m ** 2
    assert path_loss(0.0, params.uav_height_m, params) == \
        pytest.approx(expected, rel=1e-9)


def test_path_loss_blends_toward_kappa(params):
    # far out the mix tends to the NLoS floor kappa * beta0 * d^-alpha
    r = 1e6
    d = math.hypot(params.uav_height_m, r)
    floor = params.kappa * params.beta0 * d ** -params.alpha
    g = path_loss(r, params.uav_height_m, params)
    assert floor < g < 1.3 * floor


def test_snr_g2u_at_zero_frozen(params):
    assert snr_g2u(0.0, params) == \
        pytest.approx(SNR_G2U_AT_ZERO_ORACLE, rel=1e-12)


def test_snr_g2u_monotone_decreasing(params):
    r = np.linspace(0.0, 6000.0, 400)
    s = snr_g2u(r, params)
    assert (np.diff(s) < 0).all()


def _snr_u2u(d, params):
    """Free-space UAV-to-UAV SNR at distance d, both UAVs at one altitude."""
    return params.p_uav_w * params.beta0 / (params.noise_w * d * d)


def test_snr_u2u_closed_form(params):
    # r_u2u is where the free-space U2U SNR falls to its threshold
    r = coverage_radii(params, 20.0).r_u2u_m
    threshold = db_to_linear(params.snr_th_u2u_db)
    assert _snr_u2u(r, params) == pytest.approx(threshold, rel=1e-12)
    assert _snr_u2u(0.99 * r, params) > threshold > _snr_u2u(1.01 * r, params)


def test_snr_u2b_uses_height_gap(params):
    # same LoS model evaluated at the UAV-minus-BS altitude with UAV power
    r = 800.0
    manual = params.p_uav_w * path_loss(r, 80.0, params) / params.noise_w
    assert snr_u2b(r, params, 20.0) == pytest.approx(manual, rel=1e-12)
    with pytest.raises(InfeasibleConfigError):
        snr_u2b(r, params, params.uav_height_m)


def test_coverage_radii_frozen(params):
    radii = coverage_radii(params, 20.0)
    assert radii.r_g2u_m == pytest.approx(R_G2U_ORACLE, rel=1e-8)
    assert radii.r_u2u_m == pytest.approx(R_U2U_ORACLE, rel=1e-12)
    assert radii.r_u2b_m == pytest.approx(R_U2B_ORACLE, rel=1e-8)


def test_radii_sit_on_their_thresholds(params):
    radii = coverage_radii(params, 20.0)
    assert snr_g2u(radii.r_g2u_m, params) == \
        pytest.approx(db_to_linear(params.snr_th_g2u_db), rel=1e-6)
    assert _snr_u2u(radii.r_u2u_m, params) == \
        pytest.approx(db_to_linear(params.snr_th_u2u_db), rel=1e-12)
    assert snr_u2b(radii.r_u2b_m, params, 20.0) == \
        pytest.approx(db_to_linear(params.snr_th_u2b_db), rel=1e-6)


def test_radii_match_scipy_brentq(params):
    brentq = pytest.importorskip("scipy.optimize").brentq
    radii = coverage_radii(params, 20.0)
    th_g2u = db_to_linear(params.snr_th_g2u_db)
    th_u2b = db_to_linear(params.snr_th_u2b_db)
    r_g2u = brentq(lambda r: snr_g2u(r, params) - th_g2u, 1.0, 1e5, xtol=1e-9)
    r_u2b = brentq(lambda r: snr_u2b(r, params, 20.0) - th_u2b,
                   1.0, 1e5, xtol=1e-9)
    assert radii.r_g2u_m == pytest.approx(r_g2u, rel=1e-8)
    assert radii.r_u2b_m == pytest.approx(r_u2b, rel=1e-8)


def test_unattainable_threshold_raises():
    p = ChannelParams(snr_th_g2u_db=120.0)
    with pytest.raises(InfeasibleConfigError, match="zero range"):
        coverage_radii(p, 20.0)


def test_unbounded_threshold_raises():
    p = ChannelParams(snr_th_u2b_db=-300.0)
    with pytest.raises(InfeasibleConfigError, match="unbounded"):
        coverage_radii(p, 20.0)


def test_upload_rate_is_shannon(params):
    r = 700.0
    expected = params.bandwidth_hz * math.log2(1.0 + snr_g2u(r, params))
    assert upload_rate_g2u(r, params) == pytest.approx(expected, rel=1e-12)


def test_single_sensor_hover_frozen(params):
    hover = min_hover_time([[0.0, 0.0]], [1e7], [0.0, 0.0], params)
    assert hover == pytest.approx(HOVER_SINGLE_UNDER_CP_ORACLE, rel=1e-12)


def test_hover_is_sum_of_full_band_times(params):
    rng = np.random.default_rng(7)
    cp = np.array([500.0, 300.0])
    pos = cp + rng.uniform(-700, 700, size=(12, 2))
    data = rng.uniform(0.5e7, 2e7, size=12)
    dists = np.hypot(*(pos - cp).T)
    expected = float(np.sum(data / upload_rate_g2u(dists, params)))
    assert min_hover_time(pos, data, cp, params) == \
        pytest.approx(expected, rel=1e-12)


def test_optimal_shares_sum_and_equal_finish(params):
    rng = np.random.default_rng(8)
    cp = np.zeros(2)
    pos = rng.uniform(-900, 900, size=(20, 2))
    data = rng.uniform(0.5e7, 2e7, size=20)
    shares = optimal_bandwidth_shares(pos, data, cp, params)
    assert shares.sum() == pytest.approx(1.0, rel=1e-12)
    assert (shares > 0).all()
    dists = np.hypot(*pos.T)
    finish = data / (shares * upload_rate_g2u(dists, params))
    hover = min_hover_time(pos, data, cp, params)
    assert np.ptp(finish) <= 1e-9 * hover
    assert finish[0] == pytest.approx(hover, rel=1e-9)


def test_member_beyond_coverage_raises(params):
    radii = coverage_radii(params, 20.0)
    far = [[2.0 * radii.r_g2u_m, 0.0]]
    with pytest.raises(CoverageError):
        min_hover_time(far, [1e7], [0.0, 0.0], params)
    with pytest.raises(CoverageError):
        optimal_bandwidth_shares(far, [1e7], [0.0, 0.0], params)


def test_upload_times_with_a_cp_per_member_equal_one_call_per_cp(params):
    # one call over several clusters, each member with its own CP, gives
    # every member the time a call on its cluster alone gives it
    rng = np.random.default_rng(9)
    cps = rng.uniform(0, 8000, size=(5, 2))
    owner = rng.integers(5, size=60)
    pos = cps[owner] + rng.uniform(-900, 900, size=(60, 2))
    data = rng.uniform(0.5e7, 2e7, size=60)
    times = upload_times(pos, data, cps[owner], params)
    for j, cp in enumerate(cps):
        mine = owner == j
        assert times[mine].tobytes() == \
            upload_times(pos[mine], data[mine], cp, params).tobytes()
        assert times[mine].sum() == min_hover_time(pos[mine], data[mine], cp,
                                                   params)
    radii = coverage_radii(params, 20.0)
    pos[17] = cps[owner[17]] + [radii.r_g2u_m + 1.0, 0.0]
    with pytest.raises(CoverageError, match="member 17 "):
        upload_times(pos, data, cps[owner], params)


def test_custom_threshold_shifts_radius(params):
    # a 17 dB uplink threshold reaches farther than the 20 dB default
    loose = ChannelParams(snr_th_g2u_db=17.0)
    assert coverage_radii(loose, 20.0).r_g2u_m > coverage_radii(params, 20.0).r_g2u_m
