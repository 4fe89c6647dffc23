"""Run configuration: defaults, YAML loading, overrides, validation.

Every default is either traceable to the reference setup (10 fs FWHM,
w0 = 50 nm, 3e13 W/cm^2, 5-18 eV scan window, 8 eV band gap placing the
band-2 -> band-3 lines inside that window) or a model choice flagged in the
shipped commentary.  All values convert to atomic units at resolve time.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import re
from dataclasses import dataclass

import yaml

from . import structure
from .beam import VortexPulse, delta_from_fwhm_fs, rho_max
from .coupling import transition_orbitals
from .dynamics import VALIDITY_THRESHOLD
from .numerics import build_grid, check_grid_args
from .observables import DEFAULT_R_CUT, MIN_PLANE_RESOLUTION
from .units import ev_to_hartree, field_amplitude_au, fs_to_au, nm_to_bohr

__all__ = ["ConfigError", "RunConfig", "config_hash", "load_config"]


class ConfigError(ValueError):
    pass


DEFAULTS: dict = {
    "model": {
        "cage_radius_bohr": 6.7,
        "band1_offset_hartree": -0.80,   # inert band, model choice
        "band2_offset_hartree": -0.30,   # model choice
        "band_gap_ev": 8.0,              # E3 - E2, model choice
        "shell_radii_bohr": [6.7, 6.7, 6.7],
        "shell_widths_bohr": [0.45, 0.9, 3.0],
        "l_max": [9, 5, 3],
        "electrons": [180, 60, 0],
        "symmetry_table": None,
        "eta_hartree": structure.DEFAULT_ETA,
    },
    "pulse": {
        "intensity_w_cm2": 3.0e13,
        "a0_au": None,
        "omega_ev": 8.0,
        "m_oam": 1,
        "p": 0,
        "waist_nm": 50.0,
        "fwhm_fs": 10.0,
        "delta_au": None,
        "rho0_ratio": 0.0,
        "rho0_nm": None,
        "legacy_normalization": False,
    },
    "numerics": {
        "n_radial": 160,
        "angular_margin": 6,
        "r_max_factor": 4.0,
        "r_cut_bohr": DEFAULT_R_CUT,
        "validity_threshold": VALIDITY_THRESHOLD,
        "charge_convention": "electron",
    },
    "scan": {
        "omega_ev": {"start": 5.0, "stop": 18.0, "step": 0.25},
        "rho0_ratios": [0.2, 0.4, 0.6, 0.8, 1.0],
        "charges": list(range(0, 13)),
        "plane_extent_bohr": 14.0,
        "plane_resolution": 64,
    },
    "output": {
        "directory": "runs",
        "long_format": True,
    },
}


class _Loader(yaml.SafeLoader):
    """SafeLoader that reads exponent-only numbers (1e-3, 3e13) as floats."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?[0-9][0-9_]*(\.[0-9_]*)?[eE][-+]?[0-9]+$"),
    list("-+0123456789"))


def _deep_merge(base: dict, extra: dict, path="") -> dict:
    out = copy.deepcopy(base)
    for key, val in extra.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown configuration key: {where}")
        if isinstance(base[key], dict) and isinstance(val, dict):
            out[key] = _deep_merge(base[key], val, where)
        else:
            out[key] = copy.deepcopy(val)
    return out


def _apply_override(cfg: dict, spec: str) -> None:
    if "=" not in spec:
        raise ConfigError(f"override must look like key.path=value: {spec!r}")
    path, raw = spec.split("=", 1)
    keys = path.strip().split(".")
    try:
        value = yaml.load(raw, Loader=_Loader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse override value {raw!r}: {exc}") from None
    node = cfg
    for key in keys[:-1]:
        if not isinstance(node, dict) or key not in node:
            raise ConfigError(f"unknown configuration key: {path}")
        node = node[key]
    if not isinstance(node, dict) or keys[-1] not in node:
        raise ConfigError(f"unknown configuration key: {path}")
    node[keys[-1]] = value


def load_config(path=None, overrides=()) -> dict:
    """Merged configuration dict: defaults <- file <- overrides."""
    cfg = copy.deepcopy(DEFAULTS)
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                user = yaml.load(fh, Loader=_Loader) or {}
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        except yaml.YAMLError as exc:
            raise ConfigError(f"config {path} is not valid YAML: {exc}") from None
        if not isinstance(user, dict):
            raise ConfigError(f"config {path} must be a mapping of blocks")
        cfg = _deep_merge(cfg, user)
    for spec in overrides:
        _apply_override(cfg, spec)
    _validate(cfg)
    return cfg


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


_INT_KEYS = {"pulse": ("m_oam", "p"),
             "numerics": ("n_radial", "angular_margin"),
             "scan": ("plane_resolution",)}
_REAL_KEYS = {"pulse": ("omega_ev", "waist_nm"),
              "numerics": ("r_max_factor", "r_cut_bohr", "validity_threshold"),
              "model": ("cage_radius_bohr", "band1_offset_hartree",
                        "band2_offset_hartree", "band_gap_ev", "eta_hartree"),
              "scan": ("plane_extent_bohr",)}
_OPTIONAL_REAL_KEYS = {"pulse": ("intensity_w_cm2", "a0_au", "fwhm_fs",
                                 "delta_au", "rho0_ratio", "rho0_nm")}
_INT_LISTS = {"scan": ("charges",), "model": ("l_max", "electrons")}
_REAL_LISTS = {"scan": ("rho0_ratios",),
               "model": ("shell_radii_bohr", "shell_widths_bohr")}
_BOOL_KEYS = {"pulse": ("legacy_normalization",), "output": ("long_format",)}
# sign bounds, checked on the value or on every entry of a list
_POSITIVE = {"model": ("cage_radius_bohr", "shell_widths_bohr", "eta_hartree"),
             "pulse": ("omega_ev",),
             "numerics": ("validity_threshold",),
             "scan": ("plane_extent_bohr",)}
_NON_NEGATIVE = {"model": ("shell_radii_bohr", "l_max", "electrons"),
                 "numerics": ("r_cut_bohr", "angular_margin")}


def _validate(cfg: dict) -> None:
    for keys, test, what in (
            (_INT_KEYS, _is_int, "an integer"),
            (_REAL_KEYS, _is_real, "a finite number"),
            (_OPTIONAL_REAL_KEYS, lambda v: v is None or _is_real(v),
             "a finite number or null"),
            (_INT_LISTS, lambda v: isinstance(v, list)
             and all(_is_int(x) for x in v), "a list of integers"),
            (_REAL_LISTS, lambda v: isinstance(v, list)
             and all(_is_real(x) for x in v), "a list of finite numbers"),
            (_BOOL_KEYS, lambda v: isinstance(v, bool), "true or false")):
        for block, names in keys.items():
            for key in names:
                if not test(cfg[block][key]):
                    raise ConfigError(f"{block}.{key} must be {what}, "
                                      f"got {cfg[block][key]!r}")
    for keys, ok, what in ((_POSITIVE, lambda v: v > 0, "positive"),
                           (_NON_NEGATIVE, lambda v: v >= 0, "non-negative")):
        for block, names in keys.items():
            for key in names:
                value = cfg[block][key]
                if not all(map(ok, value if isinstance(value, list) else [value])):
                    raise ConfigError(f"{block}.{key} must be {what}, "
                                      f"got {value!r}")
    model = cfg["model"]
    for key in ("shell_radii_bohr", "shell_widths_bohr", "l_max", "electrons"):
        if len(model[key]) != 3:
            raise ConfigError(f"model.{key} must list three bands")
    pulse = cfg["pulse"]
    if (pulse["intensity_w_cm2"] is None) == (pulse["a0_au"] is None):
        raise ConfigError(
            "pulse: specify exactly one of intensity_w_cm2 and a0_au")
    if (pulse["fwhm_fs"] is None) == (pulse["delta_au"] is None):
        raise ConfigError("pulse: specify exactly one of fwhm_fs and delta_au")
    if pulse["rho0_ratio"] is not None and pulse["rho0_nm"] is not None:
        raise ConfigError("pulse: specify at most one of rho0_ratio and rho0_nm")
    if pulse["rho0_ratio"] not in (None, 0, 0.0) and pulse["m_oam"] == 0:
        raise ConfigError("pulse: rho0_ratio needs m_oam != 0 (no ring radius)")
    rng = cfg["scan"]["omega_ev"]
    if not (isinstance(rng, dict) and {"start", "stop", "step"} <= set(rng)):
        raise ConfigError("scan.omega_ev needs start/stop/step")
    if not all(_is_real(rng[k]) for k in ("start", "stop", "step")):
        raise ConfigError(f"scan.omega_ev start/stop/step must be finite "
                          f"numbers, got {rng!r}")
    if rng["step"] <= 0 or rng["stop"] < rng["start"]:
        raise ConfigError("scan.omega_ev range is empty or inverted")
    if rng["start"] <= 0:
        raise ConfigError("scan.omega_ev photon energies must be positive")
    conv = cfg["numerics"]["charge_convention"]
    if conv not in ("electron", "probability"):
        raise ConfigError(f"numerics.charge_convention: unknown value {conv!r}")


def _square_in_range(key: str, value: float) -> None:
    """Refuse a value (in atomic units) whose square the model divides by,
    as in the l-dispersion l(l+1)/(2 R^2) and the envelope 4 ln 2/FWHM^2,
    when that square or its reciprocal leaves the float range."""
    square = value * value
    if not (0.0 < square < math.inf and 1.0 / square < math.inf):
        raise ValueError(f"{key} is out of range: its square in atomic "
                         f"units ({square:.3g}) must be a positive float "
                         f"with a finite reciprocal")


def config_hash(cfg: dict) -> str:
    """Stable short hash of the resolved configuration."""
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


@dataclass(frozen=True, eq=False)
class RunConfig:
    """Resolved, unit-converted run setup shared by all commands."""

    raw: dict
    hash: str
    basis: structure.Basis
    eta: float
    r_cut: float
    n_radial: int
    angular_margin: int
    r_max: float
    validity_threshold: float
    charge_convention: str
    a0: float
    omega: float          # hartree (scalar default; scans override per point)
    delta: float
    waist: float          # bohr
    m_oam: int
    p: int
    legacy_normalization: bool

    @classmethod
    def resolve(cls, cfg: dict) -> "RunConfig":
        """Unit-converted setup.  Values that the symmetry-table loader or
        the basis, pulse and grid constructors refuse, a plane resolution
        below ``MIN_PLANE_RESOLUTION``, a basis with no transitions, a grid
        that cuts off more than 1e-8 of a band's squared norm, and a
        Biot-Savart cutoff that excludes the whole grid raise ConfigError
        here, before any command starts, as do a symmetry table that is not
        a path string and a cage radius or pulse FWHM whose square leaves
        the float range."""
        try:
            table = cfg["model"]["symmetry_table"]
            if table is not None and not isinstance(table, str):
                raise ValueError(f"model.symmetry_table must be a path string "
                                 f"or null, got {table!r}")
            _square_in_range("model.cage_radius_bohr",
                             cfg["model"]["cage_radius_bohr"])
            if cfg["pulse"]["fwhm_fs"] is not None:
                _square_in_range("pulse.fwhm_fs",
                                 fs_to_au(cfg["pulse"]["fwhm_fs"]))
            run = cls._convert(cfg)
            transition_orbitals(run.basis)
            for m in [run.m_oam, *cfg["scan"]["charges"]]:
                run.make_pulse(m_oam=m)
            check_grid_args(*run._grid_args())
            tail = run.basis.shells.tail_norms(run.r_max)
            worst = int(tail.argmax())
            if tail[worst] > 1e-8:      # check's basis-gram-identity tolerance
                raise ValueError(
                    f"numerics.r_max_factor: the grid ends at r_max = "
                    f"{run.r_max:.4g} bohr, beyond which band "
                    f"{run.basis.bands[worst].n} keeps {tail[worst]:.2e} of "
                    f"its squared norm (limit 1e-08)")
            if run.r_cut >= run.r_max:
                raise ValueError(
                    f"numerics.r_cut_bohr = {run.r_cut:.4g} bohr leaves no "
                    f"grid point for the Biot-Savart field (r_max = "
                    f"{run.r_max:.4g} bohr)")
            if cfg["scan"]["plane_resolution"] < MIN_PLANE_RESOLUTION:
                raise ValueError(f"scan.plane_resolution must be at least "
                                 f"{MIN_PLANE_RESOLUTION}")
        except (OSError, ValueError) as exc:
            raise ConfigError(str(exc)) from None
        return run

    @classmethod
    def _convert(cls, cfg: dict) -> "RunConfig":
        model = cfg["model"]
        e2 = model["band2_offset_hartree"]
        bands = tuple(
            structure.BandSpec(
                n=i + 1,
                energy_offset=(model["band1_offset_hartree"], e2,
                               e2 + ev_to_hartree(model["band_gap_ev"]))[i],
                l_max=model["l_max"][i],
                shell_radius=model["shell_radii_bohr"][i],
                shell_width=model["shell_widths_bohr"][i],
                electron_count=model["electrons"][i],
            )
            for i in range(3))
        table = None
        if model["symmetry_table"] is not None:
            table = structure.load_symmetry_coefficients(model["symmetry_table"])
        basis = structure.build_basis(bands, model["cage_radius_bohr"],
                                      symmetry_table=table)
        pulse = cfg["pulse"]
        omega = ev_to_hartree(pulse["omega_ev"])
        if pulse["a0_au"] is not None:
            a0 = float(pulse["a0_au"])
        else:
            a0 = field_amplitude_au(pulse["intensity_w_cm2"]) / omega
        delta = (float(pulse["delta_au"]) if pulse["delta_au"] is not None
                 else delta_from_fwhm_fs(pulse["fwhm_fs"]))
        num = cfg["numerics"]
        r_max = num["r_max_factor"] * max(b.shell_radius for b in bands)
        return cls(
            raw=cfg, hash=config_hash(cfg), basis=basis,
            eta=model["eta_hartree"], r_cut=num["r_cut_bohr"],
            n_radial=num["n_radial"], angular_margin=num["angular_margin"],
            r_max=r_max, validity_threshold=num["validity_threshold"],
            charge_convention=num["charge_convention"], a0=a0, omega=omega,
            delta=delta, waist=nm_to_bohr(pulse["waist_nm"]),
            m_oam=pulse["m_oam"], p=pulse["p"],
            legacy_normalization=pulse["legacy_normalization"])

    def rho0(self, m_oam: int | None = None) -> float:
        """Offset in bohr for the configured placement (ratio or absolute)."""
        pulse = self.raw["pulse"]
        if pulse["rho0_nm"] is not None:
            return nm_to_bohr(pulse["rho0_nm"])
        ratio = pulse["rho0_ratio"] or 0.0
        m = self.m_oam if m_oam is None else m_oam
        if ratio == 0.0 or m == 0:
            return 0.0
        return ratio * rho_max(m, self.waist)

    def make_pulse(self, m_oam: int | None = None,
                   rho0: float | None = None) -> VortexPulse:
        m = self.m_oam if m_oam is None else m_oam
        off = self.rho0(m) if rho0 is None else rho0
        # a0 fixed by intensity at the scalar config frequency, so frequency
        # scans vary G only (conversion echoed in output metadata)
        return VortexPulse(
            a0=self.a0, m_oam=m, omega=self.omega,
            delta=self.delta, waist=self.waist, p=self.p,
            offset=(off, 0.0), legacy_normalization=self.legacy_normalization)

    def _grid_args(self, max_abs_charge: int | None = None) -> tuple:
        """``build_grid`` arguments for beam windings up to max_abs_charge
        (default: the configured charge)."""
        l2 = self.basis.bands[1].l_max
        l3 = self.basis.bands[2].l_max
        m = abs(self.m_oam) if max_abs_charge is None else abs(max_abs_charge)
        order = max(2 * self.basis.l_max + 4,
                    l2 + l3 + m + self.angular_margin)
        return 0.0, self.r_max, self.n_radial, order, self.basis.l_max

    def make_grid(self, max_abs_charge: int | None = None):
        return build_grid(*self._grid_args(max_abs_charge))

    def omega_grid_ev(self):
        rng = self.raw["scan"]["omega_ev"]
        count = int(math.floor((rng["stop"] - rng["start"]) / rng["step"]
                               + 1e-9)) + 1
        return [rng["start"] + i * rng["step"] for i in range(count)]
