"""Correctness of a workload's outputs against the references recorded at the
seed commit (``benchmarks/reference/<workload>/``).

Numbers are compared cell by cell at an absolute tolerance of ``REL_TOL``
times the largest reference magnitude of the cell's scale group: a column,
or a set of columns that are components of one quantity (the three
cylindrical current norms, the three current components of a lattice), so a
component that is pure roundoff against its partners cannot false-fail.
Text columns such as ``config_hash`` and ``version`` must match exactly.

``compare_dominant`` compares the ``dominant`` transition summary without
depending on the order of tied populations or on the labels of entries
printed as 0.000.
"""

from __future__ import annotations

import csv
import io
import json
import lzma
import math
import shutil
from pathlib import Path

import numpy as np

REL_TOL = 1e-12
# lattice references store round(value / (scale * LATTICE_STEP)); the check
# subtracts half a step from the tolerance so it is never looser than REL_TOL
LATTICE_STEP = 2.0 ** -42
EXACT_COLUMNS = {"config_hash", "version", "observable", "dominant"}
SHARED_SCALE = {"jrho_norm": "j_norm", "jphi_norm": "j_norm", "jz_norm": "j_norm"}
LATTICE_GROUPS = (0, 0, 0, 1, 1, 1)       # x y z | jx jy jz
SHARE_RESOLUTION = 0.001                  # dominant shares print with 3 decimals
DOMINANT_TOP = 3                          # entries cli writes per row


class Outcome:
    """Items attempted and failed in one run, with the reasons."""

    def __init__(self, items):
        self.items = items
        self.failed = set()
        self.notes = []

    def fail(self, indices, note):
        if indices:
            self.failed.update(indices)
            self.notes.append(f"{note} ({len(indices)} items)")

    def fail_all(self, note):
        self.failed = set(range(self.items))
        self.notes.append(note)


# ---------------------------------------------------------------------------
# scan tables
# ---------------------------------------------------------------------------

def _number(text):
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def parse_dominant(text):
    entries = []
    for part in filter(None, text.split(";")):
        label, _, share = part.rpartition(":")
        entries.append((label, float(share)))
    return entries


def _covered(entry, other):
    label, share = entry
    if share <= SHARE_RESOLUTION:
        return True                       # printed 0.000/0.001: label is noise
    if any(lab == label and abs(s - share) <= SHARE_RESOLUTION + 1e-9
           for lab, s in other):
        return True
    # a tie at the top-N cut may keep another label of the same share
    return (len(other) == DOMINANT_TOP
            and share <= min(s for _, s in other) + SHARE_RESOLUTION + 1e-9)


def compare_dominant(ref, run):
    """True when two ``dominant`` strings agree up to ties and 0.000 labels."""
    a, b = parse_dominant(ref), parse_dominant(run)
    return all(_covered(e, b) for e in a) and all(_covered(e, a) for e in b)


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def compare_table(ref_path, run_path, items_per_row=1):
    """Row indices (in item units) whose cells differ, or None when the
    tables cannot be aligned (header or row count)."""
    header, ref_rows = _read_csv(ref_path)
    run_header, run_rows = _read_csv(run_path)
    if run_header != header or len(run_rows) != len(ref_rows):
        return None
    col = {name: i for i, name in enumerate(header)}

    def scale_key(name, row):
        if name == "value" and "observable" in col:
            return SHARED_SCALE.get(row[col["observable"]], row[col["observable"]])
        return SHARED_SCALE.get(name, name)

    scales = {}
    for row in ref_rows:
        for name, i in col.items():
            value = _number(row[i]) if name not in EXACT_COLUMNS else None
            if value is not None:
                key = scale_key(name, row)
                scales[key] = max(scales.get(key, 0.0), abs(value))
    resolved = None
    if "validity" in col and "dominant" in col:
        floor = REL_TOL * scales.get("validity", 0.0)
        resolved = [_number(r[col["validity"]]) > floor for r in ref_rows]

    bad = set()
    for r, (ref, run) in enumerate(zip(ref_rows, run_rows)):
        if len(run) != len(ref):
            bad.add(r)
            continue
        for name, i in col.items():
            ref_num = _number(ref[i]) if name not in EXACT_COLUMNS else None
            if name == "dominant":
                ok = not resolved[r] or compare_dominant(ref[i], run[i])
            elif ref_num is None:
                ok = ref[i] == run[i]
            else:
                run_num = _number(run[i])
                tol = REL_TOL * scales[scale_key(name, ref)]
                ok = run_num is not None and abs(run_num - ref_num) <= tol
            if not ok:
                bad.add(r)
                break
    return {r // items_per_row for r in bad}


# ---------------------------------------------------------------------------
# plane lattices
# ---------------------------------------------------------------------------

def _read_lattice(path):
    with open(path, encoding="utf-8") as fh:
        header = [fh.readline().rstrip("\n") for _ in range(2)]
        values = np.loadtxt(fh, ndmin=2)
    return header, values


def _group_scales(values):
    groups = np.array(LATTICE_GROUPS)
    scales = np.empty(len(groups))
    for g in set(LATTICE_GROUPS):
        scales[groups == g] = np.abs(values[:, groups == g]).max()
    return scales


def record_lattice(dat_path, ref_dir):
    header, values = _read_lattice(dat_path)
    scales = _group_scales(values)
    quanta = np.rint(values / (scales * LATTICE_STEP)).astype(np.int64)
    buf = io.BytesIO()
    np.save(buf, quanta, allow_pickle=False)
    name = Path(dat_path).name
    (ref_dir / f"{name}.npy.xz").write_bytes(lzma.compress(buf.getvalue(), preset=9))
    return {"header": header, "scales": scales.tolist(), "step": LATTICE_STEP}


def compare_lattice(ref_dir, meta, run_path):
    """Row indices whose six columns differ, or None when misaligned."""
    name = Path(run_path).name
    header, values = _read_lattice(run_path)
    quanta = np.load(io.BytesIO(lzma.decompress(
        (ref_dir / f"{name}.npy.xz").read_bytes())), allow_pickle=False)
    if header != meta["header"] or values.shape != quanta.shape:
        return None
    scales = np.asarray(meta["scales"])
    ref = quanta * (scales * meta["step"])
    tol = (REL_TOL - meta["step"] / 2) * scales
    return set(np.nonzero((np.abs(values - ref) > tol).any(axis=1))[0].tolist())


# ---------------------------------------------------------------------------
# per-workload checks
# ---------------------------------------------------------------------------

def _check_statuses(path):
    return [tuple(line.split(":", 1)[0].split(None, 1))
            for line in Path(path).read_text(encoding="utf-8").splitlines()]


def _ring_line(stdout):
    return [line for line in stdout.splitlines() if line.startswith("ring count")]


def _lattice_points(meta):
    """Points of a lattice file: resolution squared, from its header."""
    return int(meta["header"][0].rsplit("=", 1)[1]) ** 2


def _read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def items_of(kind, ref_dir):
    """Output items a run of this workload produces."""
    if kind == "check":
        return len(_check_statuses(ref_dir / "check_report.txt"))
    if kind == "planes":
        return sum(map(_lattice_points, _read_json(ref_dir / "lattice.json").values()))
    _, rows = _read_csv(ref_dir / _read_json(ref_dir / "tables.json")["wide"])
    return len(rows)


def check_outputs(kind, ref_dir, out_dir, stdout, exit_code):
    """Outcome of one run: every mismatch against the reference fails the
    items it touches; a nonzero exit or a missing file fails them all."""
    outcome = Outcome(items_of(kind, ref_dir))
    if exit_code != 0:
        outcome.fail_all(f"exit code {exit_code}")
        return outcome
    try:
        _check(kind, ref_dir, out_dir, stdout, outcome)
    except (OSError, ValueError) as exc:
        outcome.fail_all(f"unreadable output: {exc}")
    return outcome


def _check(kind, ref_dir, out_dir, stdout, outcome):
    if kind == "check":
        ref = _check_statuses(ref_dir / "check_report.txt")
        run = _check_statuses(out_dir / "check_report.txt")
        if len(run) != len(ref):
            outcome.fail_all("check list differs")
        else:
            outcome.fail({i for i, (a, b) in enumerate(zip(ref, run)) if a != b},
                         "check status differs")
        return
    if kind == "planes":
        if (out_dir / "planes_summary.txt").read_bytes() != \
                (ref_dir / "planes_summary.txt").read_bytes():
            outcome.fail_all("planes_summary.txt differs")
        if _ring_line(stdout) != _ring_line((ref_dir / "stdout.txt").read_text(
                encoding="utf-8")):
            outcome.fail_all("ring-count line differs")
        meta = _read_json(ref_dir / "lattice.json")
        offset = 0
        for name in sorted(meta):
            rows = compare_lattice(ref_dir, meta[name], out_dir / name)
            n = _lattice_points(meta[name])
            if rows is None:
                outcome.fail(set(range(offset, offset + n)), f"{name} misaligned")
            else:
                outcome.fail({offset + r for r in rows}, f"{name} values differ")
            offset += n
        return
    spec = _read_json(ref_dir / "tables.json")
    for name in spec["exact"]:
        if (out_dir / name).read_bytes() != (ref_dir / name).read_bytes():
            outcome.fail_all(f"{name} differs")
    _, wide_rows = _read_csv(ref_dir / spec["wide"])
    for name in (spec["wide"], spec["long"]):
        _, rows = _read_csv(ref_dir / name)
        bad = compare_table(ref_dir / name, out_dir / name,
                            items_per_row=len(rows) // len(wide_rows))
        if bad is None:
            outcome.fail_all(f"{name} misaligned")
        else:
            outcome.fail(bad, f"{name} values differ")


def record(kind, out_dir, stdout, ref_dir):
    """Store the outputs of a seed run as the workload's reference."""
    ref_dir.mkdir(parents=True, exist_ok=True)
    if kind == "check":
        shutil.copy(out_dir / "check_report.txt", ref_dir)
    elif kind == "planes":
        shutil.copy(out_dir / "planes_summary.txt", ref_dir)
        (ref_dir / "stdout.txt").write_text(stdout, encoding="utf-8")
        meta = {p.name: record_lattice(p, ref_dir)
                for p in sorted(out_dir.glob("current_*.dat"))}
        (ref_dir / "lattice.json").write_text(json.dumps(meta, indent=1) + "\n",
                                              encoding="utf-8")
    else:
        wide = next(p.name for p in out_dir.glob("*.csv")
                    if not p.name.endswith("_long.csv"))
        spec = {"wide": wide, "long": wide.replace(".csv", "_long.csv"),
                "exact": sorted(p.name for p in out_dir.glob("*_summary.txt"))}
        for name in [spec["wide"], spec["long"], *spec["exact"]]:
            shutil.copy(out_dir / name, ref_dir)
        (ref_dir / "tables.json").write_text(json.dumps(spec, indent=1) + "\n",
                                             encoding="utf-8")
