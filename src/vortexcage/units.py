# Hartree atomic units everywhere inside the package; conversions happen
# only at I/O boundaries (config parsing, CSV export, reports).
#
# Values from the CODATA 2018 adjustment (physics.nist.gov/cuu/Constants).

from __future__ import annotations

HARTREE_EV = 27.211386245988          # 1 hartree in eV
BOHR_NM = 0.0529177210903             # 1 bohr in nm
AU_TIME_FS = 2.4188843265857e-2       # 1 a.u. of time in fs
AU_BFIELD_T = 2.35051756758e5         # hbar/(e*a0^2), 1 a.u. of B in tesla
AU_INTENSITY_W_CM2 = 3.50944758e16    # (1/2) eps0 c E0^2 at E0 = 1 a.u.

FINE_STRUCTURE = 7.2973525693e-3
# mu0 = 4*pi*alpha^2 in Hartree atomic units (Gaussian-free SI-like form)
MU0_OVER_4PI_AU = FINE_STRUCTURE**2

# Bohr magneton e*hbar/(2 m_e) equals 1/2 in Hartree atomic units.
BOHR_MAGNETON_AU = 0.5


def ev_to_hartree(e_ev):
    return e_ev / HARTREE_EV


def nm_to_bohr(x_nm):
    return x_nm / BOHR_NM


def fs_to_au(t_fs):
    return t_fs / AU_TIME_FS


def au_to_fs(t_au):
    return t_au * AU_TIME_FS


def field_amplitude_au(intensity_w_cm2: float) -> float:
    """Peak electric-field amplitude E0 (a.u.) for I = (1/2) eps0 c E0^2."""
    if intensity_w_cm2 < 0:
        raise ValueError(f"intensity {intensity_w_cm2} W/cm^2 is negative")
    return (intensity_w_cm2 / AU_INTENSITY_W_CM2) ** 0.5

