"""Self-tests of the benchmark: metric names and units, the output checks,
and the span arithmetic.  Run with ``python3 -m pytest benchmarks``."""

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run       # noqa: E402
import tracing   # noqa: E402
import verify    # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text())


class TestMetricNames:
    def test_end_to_end_match_the_benchmark(self, spec):
        assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
        setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
        assert setup["better"] == "lower"
        assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
        assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])

    def test_per_layer_match_the_tracer(self, spec):
        assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER

    def test_names_and_units_are_well_formed(self, spec):
        metrics = spec["end_to_end"] + spec["per_layer"]
        names = [m["name"] for m in metrics] + [w["name"] for w in spec["workloads"]]
        assert len(names) == len(set(names))
        assert all(NAME.match(n) for n in names)
        assert all(UNIT.match(m["unit"]) for m in metrics)

    def test_workloads_match(self, spec):
        assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
        assert all(0 < len(w["why"]) <= 200 and "\n" not in w["why"]
                   for w in spec["workloads"])

    def test_every_layer_metric_is_produced(self):
        assert set(tracing.layer_metrics([], {}, 1)) == set(tracing.METRICS)


class TestDominant:
    def test_tied_order_is_ignored(self):
        assert verify.compare_dominant(
            "l3m3>l3m3:0.080;l3m-3>l3m-3:0.080;l2m2>l2m2:0.074",
            "l3m-3>l3m-3:0.080;l3m3>l3m3:0.080;l2m2>l2m2:0.074")

    def test_zero_share_labels_are_ignored(self):
        assert verify.compare_dominant(
            "l1m-1>l0m0:0.503;l0m0>l1m1:0.497;l2m-2>l1m-1:0.000",
            "l1m-1>l0m0:0.503;l0m0>l1m1:0.497;l3m-3>l2m2:0.000")

    def test_tie_at_the_cut_may_change_label(self):
        assert verify.compare_dominant(
            "l3m3>l3m3:0.080;l3m-3>l3m-3:0.080;l2m2>l2m2:0.074",
            "l3m3>l3m3:0.080;l3m-3>l3m-3:0.080;l2m-2>l2m-2:0.074")

    def test_last_digit_rounding_is_tolerated(self):
        assert verify.compare_dominant("l3m-3>l1m-1:0.612", "l3m-3>l1m-1:0.613")

    def test_different_transition_fails(self):
        assert not verify.compare_dominant(
            "l3m-3>l1m-1:0.612;l3m-2>l1m0:0.204;l3m0>l1m0:0.061",
            "l3m-2>l1m0:0.612;l3m-3>l1m-1:0.204;l3m0>l1m0:0.061")

    def test_different_share_fails(self):
        assert not verify.compare_dominant("l4m-4>l3m3:1.000",
                                           "l4m-4>l3m3:0.900;l3m-3>l3m3:0.100")

    def test_missing_entry_fails(self):
        assert not verify.compare_dominant("", "l4m-4>l3m3:1.000")


def _write_csv(path, rows):
    path.write_text("\n".join(",".join(r) for r in rows) + "\n")


class TestTables:
    HEADER = ["omega_eV", "jrho_norm", "jphi_norm", "validity", "dominant",
              "config_hash"]

    def rows(self, jrho="3e-20", jphi="1.7e-4", validity="0.5",
             dominant="l1m0>l0m0:1.000", hash_="c469bc94b0fa"):
        return [self.HEADER,
                ["5", "1e-21", "2e-5", "1e-30", "l9m9>l9m9:1.000", "c469bc94b0fa"],
                ["8", jrho, jphi, validity, dominant, hash_]]

    def compare(self, tmp_path, **changes):
        _write_csv(tmp_path / "ref.csv", self.rows())
        _write_csv(tmp_path / "run.csv", self.rows(**changes))
        return verify.compare_table(tmp_path / "ref.csv", tmp_path / "run.csv")

    def test_identical(self, tmp_path):
        assert self.compare(tmp_path) == set()

    def test_within_tolerance(self, tmp_path):
        assert self.compare(tmp_path, jphi=repr(1.7e-4 * (1 + 5e-13))) == set()

    def test_beyond_tolerance(self, tmp_path):
        assert self.compare(tmp_path, jphi=repr(1.7e-4 * (1 + 2e-12))) == {1}

    def test_roundoff_component_uses_the_shared_scale(self, tmp_path):
        assert self.compare(tmp_path, jrho="6e-20") == set()

    def test_text_columns_are_exact(self, tmp_path):
        assert self.compare(tmp_path, hash_="000000000000") == {1}

    def test_dominant_checked_on_resolved_rows_only(self, tmp_path):
        assert self.compare(tmp_path, dominant="l2m0>l0m0:1.000") == {1}
        _write_csv(tmp_path / "ref.csv", self.rows())
        rows = self.rows()
        rows[1][4] = "l8m8>l8m8:1.000"    # validity 1e-30: roundoff level
        _write_csv(tmp_path / "run.csv", rows)
        assert verify.compare_table(tmp_path / "ref.csv", tmp_path / "run.csv") == set()

    def test_row_count_mismatch_is_unaligned(self, tmp_path):
        _write_csv(tmp_path / "ref.csv", self.rows())
        _write_csv(tmp_path / "run.csv", self.rows()[:2])
        assert verify.compare_table(tmp_path / "ref.csv", tmp_path / "run.csv") is None


class TestLattice:
    def test_quantized_reference_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        values = np.column_stack([rng.uniform(-14, 14, (16, 3)),
                                  rng.normal(0, 7e-6, (16, 2)),
                                  rng.normal(0, 1e-37, 16)])
        dat = tmp_path / "current_xy.dat"

        def write(vals):
            lines = ["# plane=xy extent=14 resolution=4", "# x y z jx jy jz"]
            lines += [" ".join(f"{v:.17g}" for v in row) for row in vals]
            dat.write_text("\n".join(lines) + "\n")

        write(values)
        ref_dir = tmp_path / "ref"
        ref_dir.mkdir()
        meta = verify.record_lattice(dat, ref_dir)
        assert verify.compare_lattice(ref_dir, meta, dat) == set()
        scale = np.abs(values[:, 3:]).max()
        values[5, 4] += 0.5e-12 * scale
        values[7, 5] += 1e-20                  # roundoff against |j|
        write(values)
        assert verify.compare_lattice(ref_dir, meta, dat) == set()
        values[9, 3] += 1.1e-12 * scale
        write(values)
        assert verify.compare_lattice(ref_dir, meta, dat) == {9}


def span(i, name, start, end, parent=None, tid=1):
    return [i, name, start, end, parent, tid]


class TestSpans:
    def test_self_time_subtracts_covered_children(self):
        spans = [span(1, "cli.cmd_x", 0, 100),
                 span(2, "a", 10, 40, 1),
                 span(3, "b", 30, 60, 1, tid=2),    # overlaps a on another thread
                 span(4, "c", 15, 20, 2),
                 span(5, "d", 90, 120, 1)]          # clipped to the parent
        assert tracing.self_times(spans) == {1: 40, 2: 25, 3: 30, 4: 5, 5: 30}

    def test_layer_metrics_sum_self_time_by_name(self):
        spans = [span(1, "cli.cmd_spectrum", 0, 10**9),
                 span(2, "observables.current_samples", 0, 6 * 10**8, 1),
                 span(3, "structure.orbital_tables", 0, 5 * 10**8, 2),
                 span(4, "structure.orbital_tables", 7 * 10**8, 8 * 10**8, 1)]
        out = tracing.layer_metrics(spans, {"structure.orbital_tables.distinct": 1}, 1)
        assert out["structure.orbital_tables.calls"] == 2
        assert out["structure.orbital_tables.s"] == pytest.approx(0.6)
        assert out["structure.orbital_tables.in_current_samples.s"] == pytest.approx(0.5)
        assert out["observables.current_samples.s"] == pytest.approx(0.1)
        assert out["observables.current_samples.incl_s"] == pytest.approx(0.6)
        assert out["structure.orbital_tables.distinct_ratio"] == 0.5
        assert out["cli.pool_utilisation"] == pytest.approx(0.7)

    def test_pool_utilisation_counts_worker_threads(self):
        spans = [span(1, "cli.cmd_charge_sweep", 0, 100),
                 span(2, "coupling.build_transition_set", 0, 80, None, tid=2),
                 span(3, "coupling.build_transition_set", 0, 60, None, tid=3),
                 span(4, "structure.orbital_tables", 10, 50, 3, tid=3)]
        assert tracing.pool_utilisation(spans, 2) == pytest.approx(0.7)


def test_traced_cli_run(tmp_path):
    """The tracer wraps the names callers look up and leaves outputs intact."""
    spans_path = tmp_path / "spans.json"
    done = subprocess.run(
        [sys.executable, str(BENCH / "tracing.py"), str(spans_path), "--",
         "--out", str(tmp_path / "out"), "planes"],
        env=run.child_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    trace = json.loads(spans_path.read_text())
    spans = trace["spans"]
    names = {s[0]: s[1] for s in spans}
    parents = {names[s[4]] for s in spans
               if s[1] == "numerics.build_grid" and s[4] is not None}
    assert parents == {"config.RunConfig.make_grid"}     # via config.build_grid
    roots = [s[1] for s in spans if s[4] is None]
    assert roots == ["cli.main"]
    assert "ring count (xy plane)" in done.stdout
    out = tracing.layer_metrics(spans, trace["counters"], 1)
    assert out["observables.write_plane.bytes"] > 0
    assert out["numerics.build_grid.calls"] == 1
