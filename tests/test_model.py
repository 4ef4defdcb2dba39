import math

import numpy as np
import pytest

from watched_decay import model
from watched_decay.model import (
    AtomDipole,
    DetectorAtom,
    PhysicalSystem,
    validate,
)


def make_system(**kw):
    base = dict(gamma=0.01, omega_i=0.3, beta=0.05)
    base.update(kw)
    return PhysicalSystem(**base)


def test_unit_vector_rejects_non_normalized():
    with pytest.raises(ValueError):
        AtomDipole(np.array([0.0, 0.0, 2.0]))
    with pytest.raises(ValueError):
        AtomDipole(np.array([1.0, 0.0]))


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


def test_validate_accepts_reference_system():
    assert validate(make_system()) == []


def test_validate_flags_omega_i_range():
    assert "0 < omega_i < omega0" in validate(make_system(omega_i=1.5))


def test_validate_flags_large_gamma_as_regime_violation():
    assert any("omega0" in v for v in validate(make_system(gamma=0.2)))
    # Just under the hard cap: allowed.
    assert validate(make_system(gamma=0.08)) == []


def test_validate_flags_negative_beta():
    assert "beta >= 0" in validate(make_system(beta=-0.1))


def test_ww_gamma_cap_value():
    assert model.WW_GAMMA_CAP == 0.1


def test_system_is_immutable():
    system = make_system()
    with pytest.raises(Exception):
        system.gamma = 0.5
    with pytest.raises(ValueError):
        system.atom_dipole.dipole_dir[0] = 1.0
