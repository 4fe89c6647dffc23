import csv
import filecmp
import tracemalloc

import pytest
import yaml

from vortexcage import cli, config, dynamics, structure
from vortexcage.units import nm_to_bohr


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


FAST_SCAN = "scan.omega_ev={start: 7.5, stop: 8.5, step: 0.5}"


class TestConfig:
    def test_defaults_resolve(self):
        run = config.RunConfig.resolve(config.load_config())
        assert run.m_oam == 1
        assert run.basis.bands[1].l_max == 5
        assert run.waist == pytest.approx(944.863, abs=1e-2)

    def test_defaults_match_module_constants(self):
        # the numeric defaults come from the modules that use them; the hash
        # is the one every benchmark reference records
        cfg = config.load_config()
        basis, ref = config.RunConfig.resolve(cfg).basis, structure.build_basis()
        assert basis.bands == ref.bands
        assert basis.cage_radius == ref.cage_radius
        assert config.config_hash(cfg) == "c469bc94b0fa"

    def test_file_merge(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump(
            {"pulse": {"m_oam": 3, "omega_ev": 9.0}}))
        cfg = config.load_config(path)
        assert cfg["pulse"]["m_oam"] == 3
        assert cfg["pulse"]["waist_nm"] == 50.0

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump({"pulse": {"coherence": 1}}))
        with pytest.raises(config.ConfigError):
            config.load_config(path)

    def test_exclusive_intensity(self):
        with pytest.raises(config.ConfigError):
            config.load_config(overrides=["pulse.a0_au=0.05"])

    def test_exclusive_envelope(self):
        with pytest.raises(config.ConfigError):
            config.load_config(overrides=["pulse.delta_au=1.6e-5"])

    def test_ratio_needs_charge(self):
        with pytest.raises(config.ConfigError):
            config.load_config(overrides=["pulse.m_oam=0",
                                          "pulse.rho0_ratio=0.5"])

    def test_override_parsing(self):
        cfg = config.load_config(overrides=["pulse.m_oam=4",
                                            "scan.charges=[0, 2, 4]"])
        assert cfg["pulse"]["m_oam"] == 4
        assert cfg["scan"]["charges"] == [0, 2, 4]

    def test_bad_override(self):
        with pytest.raises(config.ConfigError):
            config.load_config(overrides=["pulse.no_such=1"])
        with pytest.raises(config.ConfigError):
            config.load_config(overrides=["pulse.m_oam"])

    def test_exponent_only_numbers_are_floats(self, tmp_path):
        # YAML 1.1 reads 1e-3 and 3e13 as strings (no dot in the mantissa)
        dotted = config.config_hash(config.load_config(
            overrides=["numerics.r_cut_bohr=1.0e-3"]))
        path = tmp_path / "run.yaml"
        path.write_text("numerics:\n  r_cut_bohr: 1e-3\n")
        for cfg in (config.load_config(path),
                    config.load_config(overrides=["numerics.r_cut_bohr=1e-3"])):
            assert cfg["numerics"]["r_cut_bohr"] == 1e-3
            assert config.config_hash(cfg) == dotted
        cfg = config.load_config(overrides=["pulse.intensity_w_cm2=3e13"])
        assert config.config_hash(cfg) == \
            config.config_hash(config.load_config())
        cfg = config.load_config(overrides=["pulse.m_oam=0x2",
                                            "numerics.n_radial=80",
                                            "output.directory=1e3x"])
        assert cfg["pulse"]["m_oam"] == 2
        assert cfg["numerics"]["n_radial"] == 80
        assert cfg["output"]["directory"] == "1e3x"

    def test_hash_stability(self):
        a = config.config_hash(config.load_config())
        b = config.config_hash(config.load_config())
        c = config.config_hash(config.load_config(
            overrides=["pulse.m_oam=2"]))
        assert a == b
        assert a != c

    def test_r_max_factor_3_accepted(self):
        # band 3 keeps 2.7e-9 of its squared norm beyond 3 * 6.7 bohr,
        # inside the 1e-8 gate (2.5 leaves 1.6e-5 and is refused)
        run = config.RunConfig.resolve(config.load_config(
            overrides=["numerics.r_max_factor=3.0"]))
        assert run.r_max == pytest.approx(20.1)
        assert run.basis.shells.tail_norms(run.r_max)[2] == \
            pytest.approx(2.71e-9, rel=1e-3)

    def test_resolve_does_not_build_the_plane_lattice(self):
        def peak(resolution):
            cfg = config.load_config(
                overrides=[f"scan.plane_resolution={resolution}"])
            tracemalloc.start()
            try:
                config.RunConfig.resolve(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(64)        # first call: one-off allocations
        assert peak(1000) <= peak(64) + 1_000_000

    def test_intensity_conversion_echoed(self):
        run = config.RunConfig.resolve(config.load_config())
        pulse = run.make_pulse()
        assert pulse.intensity_w_cm2 == pytest.approx(3.0e13, rel=1e-10)


class TestSpectrumCommand:
    @pytest.mark.parametrize("command, overrides", [
        ("spectrum", [FAST_SCAN]),
        ("heatmap", ["scan.omega_ev={start: 7.9, stop: 8.3, step: 0.4}",
                     "scan.rho0_ratios=[0.0, 0.2]"]),
        ("charge-sweep", ["scan.charges=[0, 1, 2]"]),
    ], ids=["spectrum", "heatmap", "charge-sweep"])
    def test_determinism_and_threads(self, tmp_path, command, overrides):
        args = [a for o in overrides for a in ("--override", o)] + [command]
        assert cli.main(["--out", str(tmp_path / "a")] + args) == 0
        assert cli.main(["--out", str(tmp_path / "b")] + args) == 0
        assert cli.main(["--out", str(tmp_path / "c"), "--threads", "2"]
                        + args) == 0
        stem = command.replace("-", "_")
        for name in (f"{stem}.csv", f"{stem}_long.csv"):
            for other in ("b", "c"):
                assert filecmp.cmp(tmp_path / "a" / name,
                                   tmp_path / other / name, shallow=False)

    def test_rows_carry_hash_and_version(self, tmp_path):
        assert cli.main(["--out", str(tmp_path), "--override", FAST_SCAN,
                         "spectrum"]) == 0
        rows = read_rows(tmp_path / "spectrum.csv")
        assert len(rows) == 3
        cfg_hash = config.config_hash(config.load_config(
            overrides=[FAST_SCAN]))
        for row in rows:
            assert row["config_hash"] == cfg_hash
            assert row["version"]
        assert (tmp_path / "spectrum_long.csv").exists()
        long_rows = read_rows(tmp_path / "spectrum_long.csv")
        assert len(long_rows) == 3 * len(cli.LONG_OBSERVABLES)

    def test_null_charge_scan_is_zero(self, tmp_path):
        assert cli.main(["--out", str(tmp_path), "--override", FAST_SCAN,
                         "--override", "pulse.m_oam=0", "spectrum"]) == 0
        for row in read_rows(tmp_path / "spectrum.csv"):
            assert abs(float(row["mz_au"])) < 1e-20
            assert abs(float(row["B_center_uT"])) < 1e-15


class TestHeatmapCommand:
    def test_grid_scan(self, tmp_path):
        rc = cli.main([
            "--out", str(tmp_path), "--threads", "2",
            "--override", "scan.omega_ev={start: 7.9, stop: 8.3, step: 0.4}",
            "--override", "scan.rho0_ratios=[0.0, 0.2]",
            "heatmap"])
        assert rc == 0
        rows = read_rows(tmp_path / "heatmap.csv")
        assert len(rows) == 4  # 2 ratios x 2 omegas
        # on-axis row couples through the m +- 1 channels: nonzero response
        on_axis = [r for r in rows if float(r["rho_ratio"]) == 0.0
                   and float(r["omega_eV"]) == 7.9]
        assert abs(float(on_axis[0]["mz_au"])) > 0.0

    def test_empty_range_rejected(self, tmp_path):
        rc = cli.main([
            "--out", str(tmp_path),
            "--override", "scan.omega_ev={start: 9.0, stop: 5.0, step: 0.5}",
            "heatmap"])
        assert rc == 1


class TestChargeSweepCommand:
    def test_sweep_summary(self, tmp_path, capsys):
        rc = cli.main(["--out", str(tmp_path),
                       "--override", "scan.charges=[0, 1, 2]",
                       "charge-sweep"])
        assert rc == 0
        rows = read_rows(tmp_path / "charge_sweep.csv")
        assert [int(r["m_oam"]) for r in rows] == [0, 1, 2]
        assert abs(float(rows[0]["B_center_uT"])) < 1e-20
        out = capsys.readouterr().out
        assert "peak-field charge" in out

    def test_absolute_offset_honoured(self, tmp_path):
        charges = ["--override", "scan.charges=[1, 2]"]
        absolute = ["--override", "pulse.rho0_ratio=null",
                    "--override", "pulse.rho0_nm=5.0"]
        assert cli.main(["--out", str(tmp_path / "centred")] + charges
                        + ["charge-sweep"]) == 0
        assert cli.main(["--out", str(tmp_path / "offset")] + charges
                        + absolute + ["charge-sweep"]) == 0
        centred = read_rows(tmp_path / "centred/charge_sweep.csv")
        offset = read_rows(tmp_path / "offset/charge_sweep.csv")
        for row in offset:
            assert float(row["rho0_bohr"]) == pytest.approx(nm_to_bohr(5.0))
        assert [r["B_center_uT"] for r in offset] != \
            [r["B_center_uT"] for r in centred]
        summary = (tmp_path / "offset/charge_sweep_summary.txt").read_text()
        assert "peak-field charge" not in summary


class TestScanTabulation:
    @pytest.mark.parametrize("command", ["spectrum", "heatmap",
                                         "charge-sweep"])
    def test_scans_tabulate_no_orbital(self, tmp_path, monkeypatch, command):
        # transition sets and the scan kernel take radial factors on the
        # radial nodes and angular fields on the angular nodes
        calls = []
        tabulate = structure.orbital_tables

        def spy(basis, orbitals, points, **kw):
            calls.append(len(orbitals))
            return tabulate(basis, orbitals, points, **kw)

        monkeypatch.setattr(structure, "orbital_tables", spy)
        assert cli.main(["--out", str(tmp_path), "--override", FAST_SCAN,
                         "--override", "scan.rho0_ratios=[0.5, 1.0]",
                         "--override", "scan.charges=[0, 1, 2, 3]",
                         command]) == 0
        assert calls == []

    def test_planes_tabulates_no_orbital(self, tmp_path, monkeypatch):
        # the lattices are R_b^2 / r times angular quadratic forms
        calls = []
        tabulate = structure.orbital_tables

        def spy(basis, orbitals, points, **kw):
            calls.append(len(orbitals))
            return tabulate(basis, orbitals, points, **kw)

        monkeypatch.setattr(structure, "orbital_tables", spy)
        assert cli.main(["--out", str(tmp_path), "--override",
                         "scan.plane_resolution=64", "planes"]) == 0
        assert calls == []


class TestPlanesCommand:
    def test_plane_files(self, tmp_path):
        rc = cli.main(["--out", str(tmp_path),
                       "--override", "scan.plane_resolution=32",
                       "planes"])
        assert rc == 0
        for name in ("current_xy.dat", "current_xz.dat"):
            lines = (tmp_path / name).read_text().splitlines()
            assert lines[0].startswith("# plane=")
            assert "resolution=32" in lines[0]
            assert len(lines) == 2 + 32 * 32
        summary = (tmp_path / "planes_summary.txt").read_text()
        assert int(summary.split()[1]) >= 2  # nodal shells give >= 2 rings

    def test_zero_charge_warns(self, tmp_path, capsys):
        rc = cli.main(["--out", str(tmp_path),
                       "--override", "pulse.m_oam=0",
                       "--override", "scan.plane_resolution=32",
                       "planes"])
        assert rc == 0
        assert "identically zero" in capsys.readouterr().err


class TestCheckCommand:
    def test_pristine_build_passes(self, tmp_path, monkeypatch):
        sizes = []
        tabulate = structure.orbital_tables

        def spy(basis, orbitals, points, **kw):
            orbitals = list(orbitals)
            sizes.append(len(orbitals))
            return tabulate(basis, orbitals, points, **kw)

        monkeypatch.setattr(structure, "orbital_tables", spy)
        assert cli.main(["--out", str(tmp_path), "check"]) == 0
        report = (tmp_path / "check_report.txt").read_text()
        assert "FAIL" not in report
        assert "SKIP symmetry-table" in report
        # the basis Gram is factored: nothing tabulates the whole basis,
        # at most the 36 + 16 band-2/3 orbitals
        assert sizes and max(sizes) <= 52

    def test_degeneracy_abuse_fails_loudly(self, tmp_path, capsys):
        rc = cli.main(["--out", str(tmp_path),
                       "--override", "model.eta_hartree=1.0", "check"])
        assert rc == 2
        assert "FAIL eta-degeneracy-sanity" in capsys.readouterr().out

    def test_vanishing_response_passes(self, tmp_path):
        # the centred m = 12 set is pure roundoff; the selection and
        # convergence checks measure it against the m = +1 set, and its
        # current is too small to grade
        assert cli.main(["--out", str(tmp_path),
                         "--override", "pulse.m_oam=12", "check"]) == 0
        report = (tmp_path / "check_report.txt").read_text()
        assert "PASS azimuthal-selection" in report
        assert "PASS matrix-element-convergence" in report
        assert "SKIP current-azimuthal-purity" in report

    def test_coarse_grid_fails_convergence(self, tmp_path):
        # 16 radial nodes leave the elements far from the refined grid's
        assert cli.main(["--out", str(tmp_path),
                         "--override", "numerics.n_radial=16", "check"]) == 3
        report = (tmp_path / "check_report.txt").read_text()
        assert "FAIL matrix-element-convergence" in report


class TestExitCodes:
    @pytest.mark.parametrize("override, command", [
        ("pulse.fwhm_fs=0", "spectrum"),
        ("pulse.omega_ev=0", "spectrum"),
        ("pulse.intensity_w_cm2=-1", "spectrum"),
        ("pulse.waist_nm=0", "spectrum"),
        ("pulse.m_oam=41", "spectrum"),
        ("pulse.p=9", "spectrum"),
        ("pulse.m_oam=1.5", "spectrum"),
        ("pulse.p=0.5", "spectrum"),
        ("scan.charges=[1.5, 2]", "charge-sweep"),
        ("scan.charges=[0, 41]", "charge-sweep"),
        ("numerics.n_radial=8", "spectrum"),
        ("numerics.r_max_factor=0", "spectrum"),
        ("numerics.r_max_factor=0.5", "spectrum"),
        ("numerics.r_max_factor=2.5", "spectrum"),
        ("model.symmetry_table={missing}", "spectrum"),
        ("scan.plane_resolution=16", "planes"),
        ("pulse.omega_ev=abc", "spectrum"),
        ("pulse.waist_nm=abc", "spectrum"),
        ("scan.rho0_ratios=[a]", "heatmap"),
        ("model.shell_widths_bohr=[0.45, 0, 3]", "spectrum"),
        ("model.cage_radius_bohr=0", "spectrum"),
        ("model.electrons=[180, 0, 0]", "spectrum"),
        ("model.l_max=[9, 5, -1]", "spectrum"),
        ("pulse.legacy_normalization=abc", "spectrum"),
        ("output.long_format=0", "spectrum"),
        ("model.shell_radii_bohr=[6.7, -1, 6.7]", "spectrum"),
        ("numerics.r_cut_bohr=-1", "spectrum"),
        ("numerics.validity_threshold=0", "spectrum"),
        ("numerics.validity_threshold=-1", "spectrum"),
        ("scan.plane_extent_bohr=0", "planes"),
        ("scan.plane_extent_bohr=-5", "planes"),
        ("model.eta_hartree=0", "spectrum"),
        ("model.eta_hartree=-1", "spectrum"),
        ("numerics.angular_margin=-1", "spectrum"),
        # braces doubled: the overrides go through str.format
        ("scan.omega_ev={{start: -1.0, stop: 0.0, step: 0.5}}", "spectrum"),
    ])
    def test_refused_before_the_command(self, tmp_path, capsys, override,
                                        command):
        override = override.format(missing=tmp_path / "missing.txt")
        out = tmp_path / "out"
        assert cli.main(["--out", str(out), "--override", override,
                         command]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("r_cut", ["100", "26.8"])
    def test_cutoff_beyond_grid_refused(self, tmp_path, capsys, r_cut):
        # the default grid ends at r_max = 4 * 6.7 = 26.8 bohr; a cutoff
        # there or beyond would leave no point for the Biot-Savart sum
        out = tmp_path / "out"
        assert cli.main(["--out", str(out), "--override",
                         f"numerics.r_cut_bohr={r_cut}", "spectrum"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: numerics.r_cut_bohr")
        assert "r_max = 26.8 bohr" in err
        assert not out.exists()

    @pytest.mark.parametrize("override", [
        "model.symmetry_table=2.5",
        "model.symmetry_table=0",
        "model.symmetry_table=[]",
        "model.cage_radius_bohr=1e300",
        "model.cage_radius_bohr=1e-300",
        "pulse.fwhm_fs=1e300",
        "pulse.fwhm_fs=1e-300",
    ])
    def test_refusal_names_the_key(self, tmp_path, capsys, override):
        # each of these ended in a TypeError, OverflowError or
        # ZeroDivisionError traceback rather than a configuration error
        out = tmp_path / "out"
        assert cli.main(["--out", str(out), "--override", override,
                         "spectrum"]) == 1
        err = capsys.readouterr().err
        key = override.split("=")[0]
        assert err.startswith(f"configuration error: {key} ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["bogus"],
        ["--threads", "abc", "spectrum"],
        ["--threads", "0", "spectrum"],
        ["--threads", "-3", "spectrum"],
    ])
    def test_bad_command_line(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert cli.main(["--out", str(out)] + argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("error, code", [
        (dynamics.ConvergenceError("norm drift"), 3),
        (NotImplementedError("not yet"), None),
    ])
    def test_exit_3_only_for_convergence(self, tmp_path, monkeypatch,
                                         error, code):
        def fail(*args):
            raise error

        monkeypatch.setattr(cli, "cmd_spectrum", fail)
        argv = ["--out", str(tmp_path), "spectrum"]
        if code is None:
            with pytest.raises(type(error)):
                cli.main(argv)
        else:
            assert cli.main(argv) == code

    def test_config_error(self, tmp_path):
        assert cli.main(["--out", str(tmp_path),
                         "--override", "pulse.m_oam=0",
                         "--override", "pulse.rho0_ratio=0.5",
                         "spectrum"]) == 1

    def test_missing_config_file(self, tmp_path):
        assert cli.main(["--config", str(tmp_path / "nope.yaml"),
                         "spectrum"]) == 1
