"""Command-line entry points: scans, plane dumps, and the self-check suite.

Subcommands
    spectrum      photon-energy scan at fixed charge and offset
    heatmap       photon-energy x offset-ratio grid
    charge-sweep  topological-charge sweep at fixed frequency
    planes        current-density lattice dumps (xy and xz)
    check         invariant suite; nonzero exit on failure

Exit codes: 0 success, 1 configuration error (a bad config value or
command line), 2 check failure, 3 numerical convergence failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, beam, coupling, dynamics, numerics, observables, structure
from .config import ConfigError, RunConfig, load_config
from .units import ev_to_hartree

WIDE_COLUMNS = [
    "omega_eV", "rho_ratio", "mz_au", "mz_muB", "B_center_uT", "validity",
    "m_oam", "rho0_bohr", "jrho_norm", "jphi_norm", "jz_norm", "breakdown",
    "dominant", "config_hash", "version",
]
LONG_OBSERVABLES = ["mz_au", "mz_muB", "B_center_uT", "validity",
                    "jrho_norm", "jphi_norm", "jz_norm"]


@dataclass
class ScanResult:
    records: list[dict]

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(WIDE_COLUMNS) + "\n")
            for rec in self.records:
                fh.write(",".join(_fmt(rec.get(c)) for c in WIDE_COLUMNS) + "\n")

    def write_long(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("omega_eV,rho_ratio,m_oam,observable,value,"
                     "config_hash,version\n")
            for rec in self.records:
                for name in LONG_OBSERVABLES:
                    fh.write(",".join([
                        _fmt(rec.get("omega_eV")), _fmt(rec.get("rho_ratio")),
                        _fmt(rec.get("m_oam")), name, _fmt(rec.get(name)),
                        rec["config_hash"], rec["version"]]) + "\n")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _dominant_transitions(exc: dynamics.ExcitationState,
                          basis: structure.Basis, top: int = 3) -> str:
    pops = exc.populations()
    if not np.any(pops):
        return ""
    ts = exc.transitions
    flat = np.argsort(pops, axis=None)[::-1][:top]
    total = float(pops.sum())
    parts = []
    for idx in flat:
        jr, kc = np.unravel_index(idx, pops.shape)
        if pops[jr, kc] <= 0.0:
            break
        ok = basis.orbitals[ts.occupied[kc]]
        oj = basis.orbitals[ts.unoccupied[jr]]
        parts.append(f"l{ok.l}m{ok.dominant_m()}>l{oj.l}m{oj.dominant_m()}"
                     f":{pops[jr, kc] / total:.3f}")
    return ";".join(parts)


def _evaluate_point(run: RunConfig, kernel: observables.ScanKernel, ts,
                    omega_ev: float, meta: dict) -> dict:
    """One scan record: excite with the given frequency, contract the
    kernel of the set's targets.

    The transition matrix has no frequency content (spatial operator only),
    so a family's set, built once, is reused across its photon energies
    with just the pulse carrier swapped.
    """
    shifted = dataclasses.replace(ts.pulse, omega=ev_to_hartree(omega_ev))
    ts_at_omega = dataclasses.replace(ts, pulse=shifted)
    exc = dynamics.excite(ts_at_omega, run.basis, run.validity_threshold)
    mag, (jr, jp, jz) = kernel.observables(exc)
    rec = {
        "omega_eV": omega_ev,
        "mz_au": float(mag.moment_au[2]),
        "mz_muB": float(mag.moment_mu_b[2]),
        "B_center_uT": float(mag.b_center_tesla[2]) * 1e6,
        "validity": exc.validity_metric,
        "breakdown": exc.breakdown,
        "jrho_norm": jr, "jphi_norm": jp, "jz_norm": jz,
        "dominant": _dominant_transitions(exc, run.basis),
        "config_hash": run.hash, "version": __version__,
    }
    rec.update(meta)
    return rec


def _map(func, items, threads: int) -> list:
    """Ordered ``func(item)`` results; the pool size never changes them
    (each result is a pure function of its item)."""
    if threads <= 1:
        return [func(item) for item in items]
    with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(func, items))


def _write_metadata(run: RunConfig, out_dir: Path, command: str) -> None:
    """Echo the resolved unit conversions next to the scan output."""
    lines = [
        f"command: {command}",
        f"config_hash: {run.hash}",
        f"version: {__version__}",
        f"a0_au: {run.a0:.17g}",
        f"omega_ev: {run.raw['pulse']['omega_ev']}",
        f"delta_au: {run.delta:.17g}",
        f"waist_bohr: {run.waist:.17g}",
        f"intensity_w_cm2: {run.make_pulse().intensity_w_cm2:.6g}",
        f"charge_convention: {run.charge_convention}",
        f"eta_hartree: {run.eta:.17g}",
        f"r_cut_bohr: {run.r_cut:.17g}",
    ]
    (out_dir / "run_metadata.txt").write_text("\n".join(lines) + "\n",
                                              encoding="utf-8")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _scan(run: RunConfig, out_dir: Path, threads: int, command: str, grid,
          families) -> ScanResult:
    """Scan ``(pulse, photon energies in eV, record metadata)`` families.

    Each family's transition set (``coupling.build_transition_set``) and
    the one ``observables.scan_kernel`` shared by every family tabulate no
    orbital on the full grid; the kernel integrates the targets' pair
    currents on the grid once.  One record per (family, energy) goes to
    ``<command>.csv`` and, if configured, ``<command>_long.csv``.
    """
    _write_metadata(run, out_dir, command)
    sets = _map(lambda family: coupling.build_transition_set(
        run.basis, grid, family[0]), families, threads)
    kernel = observables.scan_kernel(run.basis, grid, run.eta,
                                     run.charge_convention, run.r_cut)
    points = [(kernel, ts, omega_ev, meta)
              for ts, (_, omegas, meta) in zip(sets, families)
              for omega_ev in omegas]
    result = ScanResult([_evaluate_point(run, *point) for point in points])
    stem = command.replace("-", "_")
    result.write_csv(out_dir / f"{stem}.csv")
    if run.raw["output"]["long_format"]:
        result.write_long(out_dir / f"{stem}_long.csv")
    return result


def cmd_spectrum(run: RunConfig, out_dir: Path, threads: int) -> ScanResult:
    meta = {"m_oam": run.m_oam, "rho_ratio": run.raw["pulse"]["rho0_ratio"],
            "rho0_bohr": run.rho0()}
    return _scan(run, out_dir, threads, "spectrum", run.make_grid(),
                 [(run.make_pulse(), run.omega_grid_ev(), meta)])


def cmd_heatmap(run: RunConfig, out_dir: Path, threads: int) -> ScanResult:
    ratios = run.raw["scan"]["rho0_ratios"]
    if run.m_oam == 0 and any(r != 0 for r in ratios):
        raise ConfigError("offset ratios need m_oam != 0")
    omegas = run.omega_grid_ev()
    families = []
    for ratio in ratios:
        rho0 = 0.0 if ratio == 0 else ratio * beam.rho_max(run.m_oam, run.waist)
        families.append((run.make_pulse(rho0=rho0), omegas,
                         {"m_oam": run.m_oam, "rho_ratio": ratio,
                          "rho0_bohr": rho0}))
    return _scan(run, out_dir, threads, "heatmap", run.make_grid(), families)


def cmd_charge_sweep(run: RunConfig, out_dir: Path, threads: int) -> ScanResult:
    charges = run.raw["scan"]["charges"]
    grid = run.make_grid(max_abs_charge=max((abs(c) for c in charges),
                                            default=1))
    ratio = run.raw["pulse"]["rho0_ratio"]    # None with an absolute rho0_nm
    families = []
    for m in charges:
        pulse = run.make_pulse(m_oam=m)
        families.append((pulse, [run.raw["pulse"]["omega_ev"]],
                         {"m_oam": m,
                          "rho_ratio": 0.0 if m == 0 and ratio else ratio,
                          "rho0_bohr": pulse.offset[0]}))
    result = _scan(run, out_dir, threads, "charge-sweep", grid, families)

    resp = {r["m_oam"]: abs(r["B_center_uT"]) for r in result.records}
    peak = max(resp.values(), default=0.0)
    centred = not any(r["rho0_bohr"] for r in result.records)
    lines = []
    if peak > 0.0 and centred:
        live = [m for m, v in resp.items() if m >= 1 and v > 1e-10 * peak]
        if live and max(live) < max(charges):
            lines.append(f"cutoff charge: computed {max(live)} "
                         f"(reference value 7)")
        argmax = max(resp, key=lambda m: resp[m])
        lines.append(f"peak-field charge: computed {argmax} "
                     f"(reference value 3)")
    if peak > 0.0 and not centred:
        high = [m for m in (14, 20) if m in resp]
        if len(high) == 2 and resp[high[0]] > 0:
            flat = abs(resp[high[1]] - resp[high[0]]) / resp[high[0]]
            lines.append(f"saturation flatness |B(20)-B(14)|/|B(14)| = {flat:.3e}")
    for line in lines:
        print(line)
    with open(out_dir / "charge_sweep_summary.txt", "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))
    return result


def cmd_planes(run: RunConfig, out_dir: Path, threads: int) -> list[Path]:
    del threads
    _write_metadata(run, out_dir, "planes")
    grid = run.make_grid()
    pulse = run.make_pulse()
    ts = coupling.build_transition_set(run.basis, grid, pulse)
    exc = dynamics.excite(ts, run.basis, run.validity_threshold)
    extent = run.raw["scan"]["plane_extent_bohr"]
    resolution = run.raw["scan"]["plane_resolution"]
    paths = []
    ring_count = 0
    # cancellation leaves rounding residue well below the population scale
    zero_floor = 1e-10 * float(np.max(exc.populations(), initial=0.0))
    for plane in ("xy", "xz"):
        pts, j = observables.sample_current_plane(
            exc, run.basis, plane, extent, resolution, run.eta,
            run.charge_convention)
        if np.abs(j).max() <= zero_floor:
            j = np.zeros_like(j)
            print(f"warning: {plane} lattice is identically zero "
                  f"(no DC current for this pulse)", file=sys.stderr)
        elif plane == "xy":
            ring_count = observables.radial_ring_count(pts, j)
        path = out_dir / f"current_{plane}.dat"
        observables.write_plane(path, plane, extent, pts, j)
        paths.append(path)
    print(f"ring count (xy plane): {ring_count} (reference value 3)")
    with open(out_dir / "planes_summary.txt", "w", encoding="utf-8") as fh:
        fh.write(f"ring_count {ring_count}\n")
    return paths


# ---------------------------------------------------------------------------
# check suite
# ---------------------------------------------------------------------------

class _UniformField:
    """Constant real A_x test field (divergence-free)."""

    def __init__(self, amplitude: float = 1.0):
        self.amplitude = amplitude

    def spatial_amplitude(self, points):
        pts = np.atleast_2d(points)
        n = len(pts)
        return (np.full(n, self.amplitude, dtype=complex),
                np.zeros(n, dtype=complex))


def _run_checks(run: RunConfig):
    """Yield (name, ok, detail, kind) tuples; kind 'convergence' maps to
    exit code 3."""
    basis = run.basis
    grid = run.make_grid()

    w_sum = float(grid.angular_weights.sum())
    dev = abs(w_sum / (4 * math.pi) - 1)
    yield ("angular-weights-4pi", dev < 1e-12, f"rel dev {dev:.2e}", "check")

    vol = float(grid.integrate(np.ones(len(grid.points))))
    exact = 4 * math.pi / 3 * run.r_max**3
    dev = abs(vol / exact - 1)
    yield ("ball-volume", dev < 1e-10, f"rel dev {dev:.2e}", "check")

    gram = structure.product_grid_gram(basis, basis.orbitals, grid)
    dev = float(np.abs(gram - np.eye(len(gram))).max())
    yield ("basis-gram-identity", dev < 1e-8, f"max dev {dev:.2e}", "check")

    rng = np.random.default_rng(20240811)
    worst = 0.0
    for p, a, x in zip(rng.integers(0, 6, 40), rng.integers(0, 12, 40),
                       rng.uniform(0, 30, 40)):
        p = int(p) + 2
        lhs = p * numerics.laguerre(p, int(a), x)
        rhs = (2 * p - 1 + a - x) * numerics.laguerre(p - 1, int(a), x) \
            - (p - 1 + a) * numerics.laguerre(p - 2, int(a), x)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1.0))
    yield ("laguerre-recurrence", worst < 1e-12, f"residual {worst:.2e}", "check")

    worst = 0.0
    for m in range(-12, 13):
        pulse = beam.VortexPulse(a0=1.0, m_oam=m, omega=run.omega,
                                 delta=run.delta, waist=run.waist)
        rho = np.linspace(0.0, 6.0 * run.waist, 20001)
        peak = float(np.abs(beam.mode_profile(pulse, rho)).max())
        worst = max(worst, abs(peak - 1.0))
    yield ("beam-peak-normalization", worst < 1e-6, f"max dev {worst:.2e}",
           "check")

    fwhm = beam.envelope_fwhm(1.6e-5)
    dev = abs(fwhm / 10.0 - 1)
    yield ("envelope-fwhm-10fs", dev < 0.01, f"{fwhm:.3f} fs", "check")

    pick = [o for o in basis.orbitals if o.band in (2, 3)][:6]
    # the point pt, then pt + h e_i and pt - h e_i: central differences
    pt, h = np.array([3.1, -2.2, 4.9]), 1e-4
    stencil = pt + h * np.vstack([np.zeros(3), np.eye(3), -np.eye(3)])
    psi, grad = structure.orbital_tables(basis, pick, stencil)
    g_fd = (psi[:, 1:4] - psi[:, 4:]) / (2.0 * h)
    scale = np.maximum(np.abs(grad[:, 0]).max(axis=1), 1e-12)
    worst = float((np.abs(grad[:, 0] - g_fd).max(axis=1) / scale).max())
    yield ("analytic-gradients", worst < 1e-6, f"max rel dev {worst:.2e}",
           "check")

    gaps = np.diff(sorted({o.energy for o in basis.orbitals}))
    min_gap = float(gaps.min()) if gaps.size else math.inf
    ok = run.eta < min_gap / 10.0
    yield ("eta-degeneracy-sanity",
           ok, f"eta {run.eta:.2e} vs min level gap {min_gap:.2e}", "check")

    pulse = run.make_pulse(rho0=0.0)
    ts = coupling.build_transition_set(basis, grid, pulse)
    # a vanishing response (high charges) has a roundoff-level max|M|, so
    # the selection and convergence checks also scale by the centred
    # m = +1 set at the same A0 (|M| is the same for m = -1), and the
    # current-purity check skips a set below it
    floor = (ts if abs(pulse.m_oam) == 1 else coupling.build_transition_set(
        basis, grid, run.make_pulse(m_oam=1, rho0=0.0))).max_abs()
    mmax = max(ts.max_abs(), floor, 1e-300)
    bad_az = bad_par = 0.0
    for jr, j_idx in enumerate(ts.unoccupied):
        oj = basis.orbitals[j_idx]
        for kc, k_idx in enumerate(ts.occupied):
            ok_ = basis.orbitals[k_idx]
            v = float(abs(ts.matrix[jr, kc]))
            if oj.lam - ok_.lam not in (pulse.m_oam - 1, pulse.m_oam + 1):
                bad_az = max(bad_az, v)
            elif (ok_.l + oj.l + abs(pulse.m_oam) + 1) % 2:
                bad_par = max(bad_par, v)
    yield ("azimuthal-selection", bad_az <= 1e-10 * mmax,
           f"max violation {bad_az / mmax:.2e} of max|M|", "check")
    yield ("parity-selection", bad_par <= 1e-10 * mmax,
           f"max violation {bad_par / mmax:.2e} of max|M|", "check")

    uniform = _UniformField(0.7)
    group = basis.band_orbitals(2) + basis.band_orbitals(3)
    mat = coupling.interaction_matrix(uniform, basis, group, group, grid)
    dev = float(np.abs(mat - mat.conj().T).max())
    scale = max(float(np.abs(mat).max()), 1e-300)
    yield ("static-field-hermiticity", dev <= 1e-10 * scale,
           f"max dev {dev / scale:.2e} of max|M|", "check")

    ring = observables.ring_current_field(0.25, 5.0)
    mag = observables.magnetics(ring, warn=False)
    from .units import MU0_OVER_4PI_AU
    mz_err = abs(mag.moment_au[2] / (0.25 * math.pi * 25.0) - 1)
    b_err = abs(mag.b_center_au[2] / (4 * math.pi * MU0_OVER_4PI_AU
                                      * 0.25 / 10.0) - 1)
    yield ("ring-oracle-moment", mz_err < 1e-3, f"rel err {mz_err:.2e}", "check")
    yield ("ring-oracle-bfield", b_err < 1e-3, f"rel err {b_err:.2e}", "check")

    exc = dynamics.excite(ts, basis, run.validity_threshold)
    field = observables.sample_current(exc, basis, grid, run.eta,
                                       run.charge_convention)
    pop_max = float(np.max(exc.populations(), initial=0.0))
    if ts.max_abs() > 1e-10 * floor and np.abs(field.j).max() > 1e-10 * pop_max:
        jr, jp, jz = observables.cylindrical_decomposition(field)
        ok = jr < 1e-6 * jp and jz < 1e-6 * jp
        yield ("current-azimuthal-purity", ok,
               f"|j_rho|/|j_phi| {jr / jp:.2e}, |j_z|/|j_phi| {jz / jp:.2e}",
               "check")
    else:
        yield ("current-azimuthal-purity", None,
               "skipped (no DC current for this pulse)", "check")

    occupied, unoccupied = coupling.transition_orbitals(basis)
    ref = coupling.interaction_matrix(pulse, basis, unoccupied, occupied,
                                      numerics.refined_grid(grid))
    worst = float(np.abs(ref - ts.matrix).max()) / max(
        float(np.abs(ref).max()), floor, 1e-300)
    yield ("matrix-element-convergence", worst < 1e-6,
           f"max refinement drift {worst:.2e}", "convergence")

    oracle_ok, detail = _oracle_check(run)
    yield ("perturbation-vs-oracle", oracle_ok, detail, "convergence")

    table = run.raw["model"]["symmetry_table"]
    if table:
        try:
            structure.load_symmetry_coefficients(table)
            yield ("symmetry-table", True, f"loaded {table}", "check")
        except (OSError, ValueError) as exc_:
            yield ("symmetry-table", False, str(exc_), "check")
    else:
        yield ("symmetry-table", None, "skipped (no table configured)", "check")


def _oracle_check(run: RunConfig):
    bands = run.basis.bands
    reduced = (bands[0],
               dataclasses.replace(bands[1], l_max=1, electron_count=8),
               dataclasses.replace(bands[2], l_max=1, electron_count=0))
    basis = structure.build_basis(reduced, run.raw["model"]["cage_radius_bohr"])
    grid = numerics.build_grid(0.0, run.r_max, run.n_radial, 10, l_basis_max=1)
    omega = bands[2].energy_offset - bands[1].energy_offset
    pulse = beam.VortexPulse(a0=0.003, m_oam=1, omega=omega, delta=run.delta,
                             waist=run.waist)
    ts = coupling.build_transition_set(basis, grid, pulse)
    pops = dynamics.excite(ts, basis).populations()
    dt = 0.04 * 2 * math.pi / omega
    coeffs, states = dynamics.propagate_oracle(basis, pulse, grid, dt=dt)
    p_o = np.abs(coeffs[np.isin([o.index for o in states], ts.unoccupied)]) ** 2
    pmax = float(pops.max())
    live = p_o > 1e-3 * pmax
    worst = float(np.max(np.abs(pops - p_o)[live] / p_o[live], initial=0.0))
    return worst < 0.02, f"max pop {pmax:.2e}, worst rel dev {worst:.2e}"


def cmd_check(run: RunConfig, out_dir: Path, threads: int) -> int:
    del threads
    failures = []
    conv_failures = []
    lines = []
    for name, ok, detail, kind in _run_checks(run):
        if ok is None:
            status = "SKIP"
        else:
            status = "PASS" if ok else "FAIL"
            if not ok:
                (conv_failures if kind == "convergence" else failures).append(name)
        line = f"{status:4s} {name}: {detail}"
        lines.append(line)
        print(line)
    with open(out_dir / "check_report.txt", "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    if conv_failures:
        return 3
    if failures:
        return 2
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage errors are configuration errors (exit 1), not argparse's 2."""

    def error(self, message):
        raise ConfigError(message)


def _parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="vortexcage",
        description="Vortex-pulse-driven loop currents and optomagnetism "
                    "in a spherical-shell molecule model")
    ap.add_argument("--config", type=str, default=None, help="YAML config path")
    ap.add_argument("--out", type=str, default=None,
                    help="output directory (default from config)")
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--override", action="append", default=[],
                    metavar="KEY.PATH=VALUE",
                    help="override a config entry (repeatable)")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("spectrum", "heatmap", "charge-sweep", "planes", "check"):
        sub.add_parser(name)
    return ap


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        if args.threads < 1:
            raise ConfigError(f"--threads must be at least 1, "
                              f"got {args.threads}")
        cfg = load_config(args.config, args.override)
        run = RunConfig.resolve(cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    out_dir = Path(args.out if args.out else cfg["output"]["directory"])
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.command == "spectrum":
            cmd_spectrum(run, out_dir, args.threads)
        elif args.command == "heatmap":
            cmd_heatmap(run, out_dir, args.threads)
        elif args.command == "charge-sweep":
            cmd_charge_sweep(run, out_dir, args.threads)
        elif args.command == "planes":
            cmd_planes(run, out_dir, args.threads)
        elif args.command == "check":
            return cmd_check(run, out_dir, args.threads)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except dynamics.ConvergenceError as exc:
        print(f"numerical convergence failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
