import math

import numpy as np
import pytest

from watched_decay import model
from watched_decay.model import AtomDipole, DetectorAtom, PhysicalSystem


def make_system(**kw):
    base = dict(gamma=0.01, omega_i=0.3, beta=0.05)
    base.update(kw)
    return PhysicalSystem(**base)


def test_unit_vector_rejects_non_normalized():
    with pytest.raises(ValueError):
        AtomDipole(np.array([0.0, 0.0, 2.0]))
    with pytest.raises(ValueError):
        AtomDipole(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        AtomDipole(np.array([np.nan, 0.0, 0.0]))


def test_mu_a_inverts_einstein_a():
    # Einstein A coefficient: gamma = 4 omega0^3 mu_a^2 / 3, omega0 = 1.
    system = make_system(gamma=0.0123)
    assert 4.0 * system.mu_a**2 / 3.0 == pytest.approx(
        0.0123, rel=1e-14)


def test_mu_c_consistent_with_beta():
    # Detector response: beta = 2 pi omega0^3 mu_c^2 rho(omega0) / 3,
    # omega0 = 1.
    system = make_system(beta=0.07)
    beta = 2.0 * math.pi * system.mu_c_sq_rho0 / 3.0
    assert beta == pytest.approx(0.07, rel=1e-14)
    assert system.mu_c_sq_rho0 == pytest.approx(
        3.0 * 0.07 / (2.0 * math.pi), rel=1e-14)


def test_detector_atom_direction():
    atom = DetectorAtom(position=np.array([3.0, 0.0, 4.0]),
                        dipole_dir=np.array([0.0, 1.0, 0.0]))
    assert atom.r == pytest.approx(5.0)
    np.testing.assert_allclose(atom.r_hat, [0.6, 0.0, 0.8])


def test_detector_atom_at_origin_has_no_direction():
    atom = DetectorAtom(position=np.zeros(3),
                        dipole_dir=np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        atom.r_hat


def test_system_accepts_reference_system():
    assert make_system().gamma == 0.01


def test_system_rejects_omega_i_range():
    for omega_i in (1.5, 0.0, math.nan):
        with pytest.raises(ValueError, match="omega_i"):
            make_system(omega_i=omega_i)


def test_system_rejects_gamma_outside_pole_regime():
    for gamma in (0.2, 0.0, math.nan):
        with pytest.raises(ValueError, match="gamma"):
            make_system(gamma=gamma)
    # Just under the hard cap: allowed.
    assert make_system(gamma=0.08).gamma == 0.08


def test_system_rejects_negative_beta():
    for beta in (-0.1, math.nan):
        with pytest.raises(ValueError, match="beta"):
            make_system(beta=beta)
    assert make_system(beta=0.0).beta == 0.0


def test_ww_gamma_cap_value():
    assert model.WW_GAMMA_CAP == 0.1


def test_system_is_immutable():
    system = make_system()
    with pytest.raises(Exception):
        system.gamma = 0.5
    with pytest.raises(ValueError):
        system.atom_dipole.dipole_dir[0] = 1.0
