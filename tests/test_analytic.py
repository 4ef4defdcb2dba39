import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from watched_decay.analytic import (
    DEFICIT_COEFF,
    L2_AVERAGE_ISOTROPIC,
    L2_AVERAGE_PRINTED,
    normalization_report,
    reduction_multi,
    reduction_shell,
    reduction_single,
    shell_reduction_mc,
)
from watched_decay.geometry import DipoleGeometry
from watched_decay.model import DetectorAtom

ZHAT = np.array([0.0, 0.0, 1.0])
XHAT = np.array([1.0, 0.0, 0.0])


def geom(z, p_d=ZHAT):
    return DipoleGeometry(p_a=ZHAT, p_d=p_d, r_hat=XHAT, z=z)


def test_deficit_coefficient():
    assert DEFICIT_COEFF == pytest.approx(9.0 / (64.0 * math.pi**2))


def test_far_field_example():
    rep = reduction_single(geom(math.pi / 2.0), beta=0.1)
    assert rep.l == pytest.approx(1.0)
    assert rep.u_far_field == pytest.approx(0.908811, abs=5e-7)


def test_near_field_limit():
    rep = reduction_single(geom(0.01), beta=0.2)
    assert rep.near_field_applicable
    assert rep.u_near_field == pytest.approx(1.0 - 0.2, rel=1e-14)
    # The oracle variant approaches the contact limit as z -> 0.
    assert rep.u_oracle == pytest.approx(rep.u_near_field, abs=1e-3)


def test_far_field_applicability_thresholds():
    assert not reduction_single(geom(1.0), 0.05).far_field_applicable
    assert reduction_single(geom(10.0), 0.05).far_field_applicable


def test_oracle_matches_far_field_in_wave_zone():
    z = 30.0 * math.pi + 1.3
    rep = reduction_single(geom(z), beta=0.3)
    assert rep.u_oracle == pytest.approx(rep.u_far_field, abs=1e-4)


def test_u_far_field_is_one_at_nodes():
    for z in (math.pi, 2.0 * math.pi, 3.0 * math.pi):
        rep = reduction_single(geom(z), beta=0.3)
        assert rep.u_far_field == pytest.approx(1.0, abs=1e-14)


@settings(max_examples=100, deadline=None)
@given(st.floats(0.0, 0.5), st.floats(0.0, 40.0))
def test_all_variants_at_most_one(beta, z):
    rep = reduction_single(geom(z), beta)
    for u in (rep.u_general, rep.u_oracle, rep.u_far_field,
              rep.u_near_field):
        assert u <= 1.0 + 1e-12


def test_reduction_single_rejects_negative_beta():
    with pytest.raises(ValueError):
        reduction_single(geom(1.0), -0.1)


def test_reduction_multi_single_atom_equals_far_field():
    z = 5.5
    atom = DetectorAtom(position=z * XHAT, dipole_dir=ZHAT)
    u_multi = reduction_multi([atom], ZHAT, beta=0.07)
    rep = reduction_single(geom(z), beta=0.07)
    assert u_multi == rep.u_far_field


def test_reduction_multi_rejects_origin():
    atom = DetectorAtom(position=np.zeros(3), dipole_dir=ZHAT)
    with pytest.raises(ValueError):
        reduction_multi([atom], ZHAT, beta=0.05)


def test_reduction_multi_warns_below_zero():
    atoms = [DetectorAtom(position=1.0 * XHAT, dipole_dir=ZHAT)
             for _ in range(40)]
    with pytest.warns(UserWarning):
        u = reduction_multi(atoms, ZHAT, beta=0.5)
    assert u < 0.0


def test_shell_example_printed():
    u = reduction_shell(100, math.pi / 2.0, 0.01)
    assert u == pytest.approx(1.0 - (9.0 / 14.0) * 4.0 / math.pi**2,
                              rel=1e-12)
    assert u == pytest.approx(0.73946, abs=1e-5)


def test_shell_empty_is_unity():
    assert reduction_shell(0, 1.0, 0.3) == 1.0


def test_shell_mc_reproducible_and_matches_isotropic_formula():
    mean1, err1 = shell_reduction_mc(100, math.pi / 2.0, 0.01, 2000, seed=11)
    mean2, _ = shell_reduction_mc(100, math.pi / 2.0, 0.01, 2000, seed=11)
    assert mean1 == mean2
    u_iso = reduction_shell(100, math.pi / 2.0, 0.01,
                            l2_average=L2_AVERAGE_ISOTROPIC)
    assert abs(mean1 - u_iso) < 4.0 * err1


def test_shell_mc_matches_per_sample_draws():
    # Each sample draws its n_atoms directions, then its n_atoms dipoles;
    # 600 samples cross a chunk boundary of the vectorized draw.
    n_atoms, z, beta, n_samples = 7, 1.3, 0.05, 600
    rng = np.random.default_rng(5)
    values = []
    for _ in range(n_samples):
        r_hat, p_d = rng.normal(size=(2, n_atoms, 3))
        r_hat /= np.linalg.norm(r_hat, axis=1, keepdims=True)
        p_d /= np.linalg.norm(p_d, axis=1, keepdims=True)
        l = p_d[:, 2] - r_hat[:, 2] * np.sum(r_hat * p_d, axis=1)
        values.append(1.0 - 2.25 * beta * (math.sin(z) / z) ** 2
                      * float(np.sum(l * l)))
    mean, stderr = shell_reduction_mc(n_atoms, z, beta, n_samples, seed=5)
    assert mean == pytest.approx(np.mean(values), rel=1e-14)
    assert stderr == pytest.approx(np.std(values, ddof=1)
                                   / math.sqrt(n_samples), rel=1e-10)


@pytest.mark.parametrize("n_samples", [0, 1])
def test_shell_mc_needs_two_samples(n_samples):
    with pytest.raises(ValueError, match="n_samples"):
        shell_reduction_mc(10, math.pi / 2.0, 0.01, n_samples, seed=1)


def test_l2_average_constants():
    assert L2_AVERAGE_PRINTED == pytest.approx(2.0 / 7.0)
    assert L2_AVERAGE_ISOTROPIC == pytest.approx(2.0 / 9.0)


def test_normalization_report_structure():
    reports = normalization_report(0.05)
    assert [r.z for r in reports] == [0.05, 10.0]
    for rep in reports:
        assert math.isfinite(rep.oracle_ratio)
        assert rep.discrepancy >= 0.0
    # Near contact the printed and oracle kernels differ most.
    assert reports[0].discrepancy > 0.0
