"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one pass/fail line (collected in acceptance_report.txt)
and asserts the criterion.  Where a criterion asks for a computed value to
be reported beside a reference observation, the line carries both.
"""

import dataclasses
import filecmp
import math
from pathlib import Path

import numpy as np
import pytest

from vortexcage import (beam, cli, coupling, dynamics, numerics, observables,
                        structure)
from vortexcage.units import (MU0_OVER_4PI_AU, ev_to_hartree,
                              field_amplitude_au, nm_to_bohr)

WAIST = nm_to_bohr(50.0)
DELTA = 1.6e-5
GAP_EV = 8.0
REPORT = Path(__file__).resolve().parent.parent / "acceptance_report.txt"
_LINES = []


def report(num, ok, detail):
    line = f"[ACCEPTANCE {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}"
    _LINES.append(line)
    print(line)
    REPORT.write_text("\n".join(_LINES) + "\n")
    assert ok, line


def default_a0(omega_ev=GAP_EV):
    return field_amplitude_au(3.0e13) / ev_to_hartree(omega_ev)


def pulse_for(m_oam, omega_ev=GAP_EV, rho0=0.0, a0=None):
    return beam.VortexPulse(
        a0=default_a0() if a0 is None else a0, m_oam=m_oam,
        omega=ev_to_hartree(omega_ev), delta=DELTA, waist=WAIST,
        offset=(rho0, 0.0))


@pytest.fixture(scope="module")
def abasis():
    return structure.build_basis()


@pytest.fixture(scope="module")
def agrid():
    return numerics.build_grid(0.0, 26.8, 160, 26)


@pytest.fixture(scope="module")
def charge_data(abasis, agrid):
    """B(m), m_z(m) and fields for m = 0..10 at the vortex core, resonant."""
    out = {}
    for m in range(0, 11):
        ts = coupling.build_transition_set(abasis, agrid, pulse_for(m))
        exc = dynamics.excite(ts, abasis)
        field = observables.sample_current(exc, abasis, agrid)
        mag = observables.magnetics(field, warn=False)
        out[m] = {"ts": ts, "exc": exc, "field": field, "mag": mag}
    return out


@pytest.fixture(scope="module")
def selection_sets(abasis, agrid):
    """Unpruned M for m = 0..9 with its targets (rows) and sources
    (columns)."""
    sources, targets = coupling.transition_orbitals(abasis)
    mats = {m: coupling.interaction_matrix(pulse_for(m), abasis, targets,
                                           sources, agrid)
            for m in range(0, 10)}
    return mats, targets, sources


def test_01_null_vortex(abasis, agrid, charge_data):
    ref = charge_data[1]["mag"]
    ref_mz = abs(ref.moment_au[2])
    ref_b = abs(ref.b_center_au[2])
    ts0 = charge_data[0]["ts"]
    worst_mz = worst_b = 0.0
    for omega_ev in range(5, 19):
        shifted = dataclasses.replace(ts0, pulse=dataclasses.replace(
            ts0.pulse, omega=ev_to_hartree(float(omega_ev))))
        exc = dynamics.excite(shifted, abasis)
        field = observables.sample_current(exc, abasis, agrid)
        mag = observables.magnetics(field, warn=False)
        worst_mz = max(worst_mz, abs(mag.moment_au[2]))
        worst_b = max(worst_b, abs(mag.b_center_au[2]))
    ok = worst_mz < 1e-10 * ref_mz and worst_b < 1e-10 * ref_b
    report(1, ok, f"m_oam=0 over 5..18 eV: max|m_z| {worst_mz:.2e} au, "
                  f"max|B| {worst_b:.2e} au vs m_oam=1 resonant "
                  f"{ref_mz:.2e}/{ref_b:.2e} (tolerance 1e-10 relative)")


def test_02_azimuthal_selection(selection_sets):
    # charges whose allowed channels are all Pauli-blocked leave the whole
    # matrix at rounding level; scale those against the sweep-wide maximum
    mats, targets, sources = selection_sets
    global_max = max(np.abs(mat).max() for mat in mats.values())
    worst = 0.0
    for m, mat in mats.items():
        scale = max(np.abs(mat).max(), 1e-12 * global_max)
        for jr, oj in enumerate(targets):
            for kc, ok in enumerate(sources):
                if oj.lam - ok.lam not in (m - 1, m + 1):
                    worst = max(worst, abs(mat[jr, kc]) / scale)
    report(2, worst < 1e-10,
           f"azimuthal rule m_j - m_k = m_oam +- 1 for m_oam in 0..9: "
           f"worst off-channel |M|/max|M| = {worst:.2e} (tolerance 1e-10)")


def test_03_parity_selection(selection_sets):
    mats, targets, sources = selection_sets
    global_max = max(np.abs(mat).max() for mat in mats.values())
    worst = 0.0
    for m, mat in mats.items():
        scale = max(np.abs(mat).max(), 1e-12 * global_max)
        for jr, oj in enumerate(targets):
            for kc, ok in enumerate(sources):
                if (oj.l + ok.l + abs(m) + 1) % 2 == 1:
                    worst = max(worst, abs(mat[jr, kc]) / scale)
    report(3, worst < 1e-10,
           f"parity rule l_k + l_j + |m_oam| + 1 even: worst violating "
           f"|M|/max|M| = {worst:.2e} (tolerance 1e-10)")


def test_04_cutoff_charge(charge_data):
    resp = {m: abs(d["mag"].b_center_au[2]) for m, d in charge_data.items()}
    peak = max(resp.values())
    live = [m for m in range(1, 11) if resp[m] > 1e-10 * peak]
    cutoff = max(live)
    ok = cutoff < 10 and resp[cutoff + 1] < 1e-10 * peak
    report(4, ok, f"response vanishes above computed cutoff {cutoff} "
                  f"(reference observation: 7); B(cutoff+1)/peak = "
                  f"{resp[cutoff + 1] / peak:.2e} (tolerance 1e-10)")


def test_05_sign_antisymmetry(abasis, agrid, charge_data):
    worst = 0.0
    for m in (1, 2, 3):
        plus = charge_data[m]["mag"].moment_au[2]
        ts = coupling.build_transition_set(abasis, agrid, pulse_for(-m))
        exc = dynamics.excite(ts, abasis)
        field = observables.sample_current(exc, abasis, agrid)
        minus = observables.magnetic_moment(field)[2]
        worst = max(worst, abs(minus + plus) / abs(plus))
    report(5, worst < 1e-8,
           f"m_z(-m) = -m_z(m) for m in 1..3: worst relative deviation "
           f"{worst:.2e} (tolerance 1e-8)")


def test_06_intensity_scaling(abasis, agrid, charge_data):
    full = charge_data[1]["mag"]
    ts = coupling.build_transition_set(abasis, agrid,
                                       pulse_for(1, a0=default_a0() / 2))
    exc = dynamics.excite(ts, abasis)
    field = observables.sample_current(exc, abasis, agrid)
    half = observables.magnetics(field, warn=False)
    dev_m = abs(half.moment_au[2] / full.moment_au[2] - 0.25)
    dev_b = abs(half.b_center_au[2] / full.b_center_au[2] - 0.25)
    ok = dev_m < 1e-8 * 0.25 and dev_b < 1e-8 * 0.25
    report(6, ok, f"halving A0 quarters m_z and B: deviations "
                  f"{dev_m / 0.25:.2e}, {dev_b / 0.25:.2e} (tolerance 1e-8)")


def test_07_perturbation_vs_oracle():
    ref = structure.default_bands()
    bands = (ref[0],
             dataclasses.replace(ref[1], l_max=2, electron_count=18),
             dataclasses.replace(ref[2], l_max=2, electron_count=0))
    basis = structure.build_basis(bands)
    grid = numerics.build_grid(0.0, 26.8, 160, 12, l_basis_max=2)
    pulse = beam.VortexPulse(a0=0.004, m_oam=1, omega=ev_to_hartree(GAP_EV),
                             delta=DELTA, waist=WAIST)
    ts = coupling.build_transition_set(basis, grid, pulse)
    pops = dynamics.excite(ts, basis).populations()
    dt = 0.04 * 2 * math.pi / pulse.omega
    coeffs, states = dynamics.propagate_oracle(basis, pulse, grid, dt)
    p_o = np.abs(coeffs[np.isin([o.index for o in states], ts.unoccupied)]) ** 2
    pmax = float(pops.max())
    live = p_o > 1e-3 * pmax
    worst = float(np.max(np.abs(pops - p_o)[live] / p_o[live]))
    ok = pmax < 1e-3 and worst < 0.02
    report(7, ok, f"reduced-basis direct propagation vs first order: "
                  f"max population {pmax:.2e} (< 1e-3), worst relative "
                  f"deviation {worst:.2e} (tolerance 2e-2)")


def test_08_ring_oracles():
    current, radius = 0.42, 6.0
    ring = observables.ring_current_field(current, radius,
                                          sigma=0.01 * radius)
    mag = observables.magnetics(ring, warn=False)
    mz_err = abs(mag.moment_au[2] / (current * math.pi * radius**2) - 1)
    mu0 = 4 * math.pi * MU0_OVER_4PI_AU
    b_err = abs(abs(mag.b_center_au[2]) / (mu0 * current / (2 * radius)) - 1)
    ok = mz_err < 1e-3 and b_err < 1e-3
    report(8, ok, f"synthetic loop vs closed forms: m_z error {mz_err:.2e}, "
                  f"B(0) error {b_err:.2e} (tolerance 1e-3)")


def test_09_current_geometry(charge_data):
    field = charge_data[1]["field"]
    mag = charge_data[1]["mag"]
    jr, jp, jz = observables.cylindrical_decomposition(field)
    trans = max(abs(mag.moment_au[0]), abs(mag.moment_au[1]))
    ok = jr < 1e-6 * jp and jz < 1e-6 * jp and trans < 1e-8 * abs(mag.moment_au[2])
    report(9, ok, f"centered run: |j_rho|/|j_phi| {jr / jp:.2e}, "
                  f"|j_z|/|j_phi| {jz / jp:.2e} (tol 1e-6); "
                  f"|m_transverse|/|m_z| {trans / abs(mag.moment_au[2]):.2e} "
                  f"(tol 1e-8)")


def test_10_envelope_consistency():
    fwhm = beam.envelope_fwhm(1.6e-5)
    dev = abs(fwhm / 10.0 - 1.0)
    report(10, dev < 0.01,
           f"delta 1.6e-5 gives amplitude FWHM {fwhm:.4f} fs, {100 * dev:.2f}% "
           f"from 10 fs (tolerance 1%)")


def test_11_order_of_magnitude(charge_data):
    b_ut = abs(charge_data[1]["mag"].b_center_tesla[2]) * 1e6
    ok = 0.1 <= b_ut <= 1e4
    rows = [f"    defaults: |B(0)| = {b_ut:.4g} uT"]
    ref = structure.default_bands()
    for s3 in (1.5, 3.0, 4.5):
        for gap in (4.0, 8.0, 12.0):
            bands = (
                ref[0], ref[1],
                structure.BandSpec(n=3,
                                   energy_offset=ref[1].energy_offset
                                   + ev_to_hartree(gap),
                                   l_max=3, shell_radius=6.7, shell_width=s3,
                                   electron_count=0))
            basis = structure.build_basis(bands)
            grid = numerics.build_grid(0.0, 4 * 6.7 + 4 * s3, 160, 26)
            pulse = beam.VortexPulse(
                a0=field_amplitude_au(3.0e13) / ev_to_hartree(gap), m_oam=1,
                omega=ev_to_hartree(gap), delta=DELTA, waist=WAIST)
            ts = coupling.build_transition_set(basis, grid, pulse)
            exc = dynamics.excite(ts, basis)
            field = observables.sample_current(exc, basis, grid)
            mag = observables.magnetics(field, warn=False)
            rows.append(f"    sigma3={s3:3.1f} bohr, gap={gap:4.1f} eV: "
                        f"|B(0)| = {abs(mag.b_center_tesla[2]) * 1e6:.4g} uT, "
                        f"validity {exc.validity_metric:.2e}")
    detail = (f"|B(0)| = {b_ut:.4g} uT inside [0.1 uT, 10 mT]; sensitivity "
              f"(shell width, band gap +-50%):\n" + "\n".join(rows))
    report(11, ok, detail)


def test_12_charge_profile(charge_data):
    resp = {m: abs(d["mag"].b_center_au[2]) for m, d in charge_data.items()}
    peak = max(resp.values())
    argmax = max(resp, key=lambda m: resp[m])
    live = [m for m in range(1, 11) if resp[m] > 1e-10 * peak]
    cutoff = max(live)
    zero_at_0 = resp[0] < 1e-10 * peak
    interior = 0 < argmax <= cutoff
    beyond = all(resp[m] < 1e-10 * peak for m in range(cutoff + 1, 11))
    ok = zero_at_0 and interior and beyond
    report(12, ok, f"B(m) at the core: zero at m=0 ({resp[0] / peak:.1e} of "
                   f"peak), interior maximum at computed m={argmax} "
                   f"(reference observation: 3), vanishes beyond cutoff "
                   f"{cutoff}")


def test_13_offset_smoothness(abasis, agrid):
    # fixed resonant frequency on a delta-l = 2 line (band-2 l=0 to band-3
    # l=2); the moment must stay within one order of magnitude across the
    # spot positions
    bands = abasis.bands
    omega = structure.parabolic_energy(bands[2], 2, abasis.cage_radius) \
        - structure.parabolic_energy(bands[1], 0, abasis.cage_radius)
    vals = {}
    for ratio in (0.2, 0.4, 0.6, 0.8, 1.0):
        rho0 = ratio * beam.rho_max(1, WAIST)
        pulse = beam.VortexPulse(a0=default_a0(), m_oam=1, omega=omega,
                                 delta=DELTA, waist=WAIST, offset=(rho0, 0.0))
        ts = coupling.build_transition_set(abasis, agrid, pulse)
        exc = dynamics.excite(ts, abasis)
        field = observables.sample_current(exc, abasis, agrid)
        vals[ratio] = abs(observables.magnetic_moment(field)[2])
    spread = max(vals.values()) / min(vals.values())
    report(13, spread <= 10.0,
           f"|m_z| across rho0/rho_max in 0.2..1.0 at a fixed resonant "
           f"frequency: spread factor {spread:.2f} (tolerance: one order of "
           f"magnitude)")


def test_14_determinism(tmp_path):
    args = ["--override", "scan.omega_ev={start: 7.8, stop: 8.2, step: 0.2}",
            "spectrum"]
    rc1 = cli.main(["--out", str(tmp_path / "a")] + args)
    rc2 = cli.main(["--out", str(tmp_path / "b")] + args)
    rc3 = cli.main(["--out", str(tmp_path / "c"), "--threads", "4"] + args)
    same = filecmp.cmp(tmp_path / "a/spectrum.csv", tmp_path / "b/spectrum.csv",
                       shallow=False) and \
        filecmp.cmp(tmp_path / "a/spectrum.csv", tmp_path / "c/spectrum.csv",
                    shallow=False)
    ok = rc1 == rc2 == rc3 == 0 and same
    report(14, ok, "repeated runs and thread-count changes give "
                   "byte-identical CSV output")
