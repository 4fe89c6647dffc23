import math

import pytest

from vortexcage import beam, coupling, dynamics, numerics, structure
from vortexcage.units import ev_to_hartree, nm_to_bohr

WAIST = nm_to_bohr(50.0)
DELTA = 1.6e-5
GAP_EV = 8.0


@pytest.fixture(scope="session")
def basis():
    return structure.build_basis()


@pytest.fixture(scope="session")
def symmetry_basis(tmp_path_factory):
    # e_g / t2g substates for l = 2: two- and three-dimensional blocks
    s = 1.0 / math.sqrt(2.0)
    path = tmp_path_factory.mktemp("table") / "table.dat"
    path.write_text("\n".join([
        f"2 eg 0 2 {s} 0.0", f"2 eg 0 -2 {s} 0.0",
        f"2 eg 1 2 {s} 0.0", f"2 eg 1 -2 {-s} 0.0",
        "2 t2g 0 1 1.0 0.0", "2 t2g 1 -1 1.0 0.0", "2 t2g 2 0 1.0 0.0"]))
    table = structure.load_symmetry_coefficients(path)
    return structure.build_basis(structure.default_bands(),
                                 symmetry_table=table)


@pytest.fixture(scope="session")
def grid():
    # covers all bands (l_max 9) plus beam windings up to |m| ~ 4
    return numerics.build_grid(0.0, 26.8, 160, 26)


def make_pulse(m_oam=1, omega_ev=GAP_EV, a0=0.05, rho0=0.0, **kw):
    return beam.VortexPulse(a0=a0, m_oam=m_oam, omega=ev_to_hartree(omega_ev),
                            delta=DELTA, waist=WAIST, offset=(rho0, 0.0), **kw)


@pytest.fixture(scope="session")
def pulse_m1():
    return make_pulse(1)


@pytest.fixture(scope="session")
def ts_m1(basis, grid, pulse_m1):
    return coupling.build_transition_set(basis, grid, pulse_m1)


@pytest.fixture(scope="session")
def exc_m1(basis, ts_m1):
    return dynamics.excite(ts_m1, basis)
