import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import spherical_jn

from oracles import (
    angular_average_l2,
    d_oracle_quadrature,
    polarization_sum,
    s_func_quadrature,
    t_func_quadrature,
)
from watched_decay.geometry import (
    DipoleGeometry,
    TWO_PI,
    d_func,
    d_oracle,
    dipole_factor_l,
    s_func,
    t_func,
)

ZHAT = np.array([0.0, 0.0, 1.0])
XHAT = np.array([1.0, 0.0, 0.0])


def geom(z, p_a=ZHAT, p_d=ZHAT, r_hat=XHAT):
    return DipoleGeometry(p_a=p_a, p_d=p_d, r_hat=r_hat, z=z)


def random_unit(rng, n=1):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


# -- special functions -----------------------------------------------------

def test_s_t_limits_at_zero():
    # 5e-324 is subnormal, where scipy's j2 alone would be nan; at the
    # other two, the elementary form of j2 would cancel to nothing.
    for z in (0.0, 5e-324, 1e-300, 1e-100):
        assert s_func(z) == pytest.approx(1.0, abs=1e-15)
        assert t_func(z) == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_t_func_at_pi():
    # sin(pi) terms vanish, leaving 4 cos(pi) / pi^2.
    assert t_func(math.pi) == pytest.approx(-4.0 / math.pi**2, rel=1e-14)


# 1e-4 and 0.1 sit where the elementary forms of S and T cancel.
@pytest.mark.parametrize("z", [*np.linspace(0.0, 50.0, 101), 1e-4, 0.1])
def test_s_t_match_quadrature(z):
    assert abs(s_func(z) - s_func_quadrature(z)) < 1e-10
    assert abs(t_func(z) - t_func_quadrature(z)) < 1e-10


def test_s_t_match_spherical_jn():
    # 20,000 log-spaced points and the series/elementary crossover of j2 at
    # z = 2 from both sides; test_s_t_limits_at_zero covers z -> 0.
    zs = np.concatenate([np.logspace(-6.0, 4.0, 20_000),
                         np.linspace(1.99, 2.01, 21),
                         [np.nextafter(2.0, 0.0), 2.0, np.nextafter(2.0, 3.0)]])
    j0 = spherical_jn(0, zs)
    t_ref = 2.0 / 3.0 * (j0 - 2.0 * spherical_jn(2, zs))
    s = np.array([s_func(z) for z in zs])
    t = np.array([t_func(z) for z in zs])
    assert np.max(np.abs(s - j0)) <= 1e-15
    assert np.max(np.abs(t - t_ref)) <= 1e-15


def test_negative_argument_rejected():
    for f in (s_func, t_func):
        with pytest.raises(ValueError):
            f(-0.1)


# -- polarization sum ------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9))
def test_polarization_sum_identity(raw):
    vecs = np.asarray(raw).reshape(3, 3)
    if np.any(np.linalg.norm(vecs, axis=1) < 1e-3):
        return
    a, b, k = (v / np.linalg.norm(v) for v in vecs)
    expected = float(np.dot(a, b) - np.dot(a, k) * np.dot(b, k))
    assert polarization_sum(a, b, k) == pytest.approx(expected, abs=1e-14)


def test_dipole_factor_l_matches_polarization_sum_integral():
    # l is the transverse overlap for propagation along r_hat.
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, b, r = random_unit(rng, 3)
        assert dipole_factor_l(a, b, r) == pytest.approx(
            polarization_sum(b, a, r), abs=1e-13)


# -- angular kernels -------------------------------------------------------

def test_d_func_contact_value_perpendicular():
    # Parallel dipoles transverse to the separation: S + T = 5/3 at z = 0.
    assert d_func(geom(0.0)) == pytest.approx(5.0 / 3.0, rel=1e-14)


def test_d_func_contact_value_collinear():
    g = DipoleGeometry(p_a=ZHAT, p_d=ZHAT, r_hat=ZHAT, z=0.0)
    # (S + T) + (S - 3T) = 2 - 4/3 at z = 0.
    assert d_func(g) == pytest.approx(2.0 / 3.0, rel=1e-14)


def test_d_oracle_matched_agrees_at_contact():
    # Parallel dipoles perpendicular to the separation at z = 0: the raw
    # integral is 8*pi/3 and d_func is 5/3, so they match up to 8*pi/5.
    assert d_oracle(geom(0.0)) == pytest.approx(
        8.0 * math.pi / 5.0 * d_func(geom(0.0)), rel=1e-12)


# Besides a spread of z, the arguments the program evaluates d_oracle at:
# 0.05 and 10 (normalization report), pi/2 (criterion 2, the benchmark and
# the shell) and 50.
@pytest.mark.parametrize("z", [0.0, 0.05, 0.3, 1.0, math.pi / 2.0, math.pi,
                               7.5, 10.0, 20.0, 50.0])
def test_oracle_identity_half_t(z):
    # The raw spherical integral equals 2*pi times the half-T combination,
    # the closed form d_oracle evaluates.
    rng = np.random.default_rng(int(z * 100) + 1)
    p_a, p_d, r_hat = random_unit(rng, 3)
    g = DipoleGeometry(p_a=p_a, p_d=p_d, r_hat=r_hat, z=z)
    raw = d_oracle(g)
    assert type(raw) is float
    assert abs(raw - d_oracle_quadrature(g)) < 1e-12


def test_printed_and_oracle_kernels_disagree_in_general():
    # The discrepancy between the printed kernel and the spherical integral
    # is real; it is reported, not hidden.
    g = geom(1.0)
    raw = d_oracle(g)
    assert abs(raw - TWO_PI * d_func(g)) > 1e-3


def test_half_t_far_field_limit():
    z = 40.0 * math.pi + math.pi / 2.0
    g = geom(z)
    l = dipole_factor_l(g.p_a, g.p_d, g.r_hat)
    assert d_oracle(g) / TWO_PI == pytest.approx(
        2.0 * l * math.sin(z) / z, rel=2e-3)


# -- angular averages ------------------------------------------------------

def test_angular_average_l2_deterministic_value():
    # Closed-form isotropic moment: <l^2> = 1/3 - 2/9 + ... = 2/9.
    assert angular_average_l2() == pytest.approx(2.0 / 9.0, abs=1e-12)


def test_angular_average_l2_quadrature_converged():
    assert abs(angular_average_l2(order=8)
               - angular_average_l2(order=20)) < 1e-12


def test_angular_average_l2_mc_matches_deterministic():
    mc, stderr = angular_average_l2(samples=200_000, seed=42)
    # stderr of l^2 at this sample count is ~5e-4.
    assert 0.0 < stderr < 1e-3
    assert mc == pytest.approx(2.0 / 9.0, abs=3e-3)
