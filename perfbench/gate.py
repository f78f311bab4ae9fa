"""Correctness gate: decides whether one point's outputs are right.

A point passes when the call returned 0 and its output directory holds
outputs that agree with ``reference.json`` (recorded from the seed commit by
``make_reference.py``) and with the physics invariants:

* ``summary.json``: charge and norm drift <= DRIFT_TOL; with the oracle on,
  its convergence delta < ORACLE_TOL and its Trotter-vs-oracle distance
  matches the reference.
* ``observables.csv`` and ``density.csv``: every exact column matches the
  reference to EXACT_TOL (relative, floor 1).  Rounding differences from a
  kernel that reorders arithmetic are ~1e-13, so the gate accepts them.  A
  flipped boundary sign, the error selftest.py plants, moves them past
  EXACT_TOL at every point of every workload.
* Shot columns: the exact values do not depend on the seed, the shot values
  do, so they are checked statistically.  Each site density must lie within
  SHOT_SIGMAS standard errors (plus SHOT_SLACK counts) of the exact value,
  and the shot mean of the total occupation must equal the exact one,
  because every outcome of a fixed-charge state has the same occupation.
* The four SVG plots are well-formed XML.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import xml.etree.ElementTree as ET

DRIFT_TOL = 1e-10
ORACLE_TOL = 1e-10
EXACT_TOL = 1e-9
SHOT_SIGMAS = 8.0
SHOT_SLACK = 20.0

SVG_FILES = ("density_heatmap.svg", "correlation.svg", "polarization.svg", "chiral.svg")
OUTPUT_FILES = ("density.csv", "observables.csv") + SVG_FILES

# Columns of observables.csv that come from the exact state, not from shots.
EXACT_OBSERVABLES = ("t", "n_total", "C", "p_over_e", "p_ratio", "c", "energy", "total_sz", "norm")


def _read_csv(path: str) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _close(value: float, ref: float) -> bool:
    return abs(value - ref) <= EXACT_TOL * max(1.0, abs(ref))


def _num(text: str) -> float | None:
    return float(text) if text != "" else None


def exact_columns(point_dir: str) -> dict:
    """The seed-independent content of one point's outputs, as stored in the reference."""
    with open(os.path.join(point_dir, "summary.json"), encoding="utf-8") as fh:
        oracle = json.load(fh)["invariants"]["oracle"]
    observables = _read_csv(os.path.join(point_dir, "observables.csv"))
    density = _read_csv(os.path.join(point_dir, "density.csv"))
    return {
        "oracle_distance": oracle["state_distance"] if oracle else None,
        "observables": {k: [_num(row[k]) for row in observables] for k in EXACT_OBSERVABLES},
        "density": [[float(r["t"]), int(r["x"]), float(r["n_exact"])] for r in density],
    }


def output_hashes(point_dir: str) -> dict[str, str]:
    hashes = {}
    for name in OUTPUT_FILES:
        with open(os.path.join(point_dir, name), "rb") as fh:
            hashes[name] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


def check_point(point_dir: str, ref: dict, oracle: bool) -> list[str]:
    """Problems found in one point's outputs; empty when the point is correct."""
    try:
        return _check_point(point_dir, ref, oracle)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable outputs: {type(exc).__name__}: {exc}"]


def _check_point(point_dir: str, ref: dict, oracle: bool) -> list[str]:
    problems: list[str] = []
    with open(os.path.join(point_dir, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    inv = summary["invariants"]
    for key in ("charge_drift", "norm_drift"):
        if not inv[key] <= DRIFT_TOL:
            problems.append(f"{key} {inv[key]!r} > {DRIFT_TOL:g}")
    if oracle:
        report = inv["oracle"]
        if report is None:
            problems.append("oracle report missing")
        else:
            if not report["convergence_delta"] < ORACLE_TOL:
                problems.append(f"oracle convergence delta {report['convergence_delta']!r}")
            if not _close(report["state_distance"], ref["oracle_distance"]):
                problems.append(
                    f"oracle distance {report['state_distance']!r}, "
                    f"reference {ref['oracle_distance']!r}"
                )

    observables = _read_csv(os.path.join(point_dir, "observables.csv"))
    ref_obs = ref["observables"]
    if len(observables) != len(ref_obs["t"]):
        return problems + [f"observables.csv has {len(observables)} rows, expected {len(ref_obs['t'])}"]
    for key in EXACT_OBSERVABLES:
        for i, (row, want) in enumerate(zip(observables, ref_obs[key])):
            got = _num(row[key])
            if (got is None) != (want is None) or (got is not None and not _close(got, want)):
                problems.append(f"observables.csv row {i} {key} = {row[key]!r}, reference {want!r}")
                break

    density = _read_csv(os.path.join(point_dir, "density.csv"))
    if len(density) != len(ref["density"]):
        return problems + [f"density.csv has {len(density)} rows, expected {len(ref['density'])}"]
    hubble = float(summary["config"]["hubble"])
    shots = int(summary["config"]["shots"])
    for i, (row, (t, x, n_exact)) in enumerate(zip(density, ref["density"])):
        if int(row["x"]) != x or not _close(float(row["t"]), t) or not _close(float(row["n_exact"]), n_exact):
            problems.append(f"density.csv row {i} = {row}, reference {(t, x, n_exact)}")
            break
        if shots:
            slack = SHOT_SLACK * math.exp(hubble * t) / shots
            dev = abs(float(row["n_shot"]) - n_exact)
            if not dev <= SHOT_SIGMAS * float(row["n_shot_err"]) + slack:
                problems.append(f"density.csv row {i} shot estimate off by {dev:.3e}: {row}")
                break

    shot_records = summary.get("shot_records") or []
    if len(shot_records) != (len(ref_obs["t"]) if shots else 0):
        problems.append(f"summary.json has {len(shot_records)} shot records")
    for rec, want in zip(shot_records, ref_obs["n_total"]):
        if not _close(rec["n_total"], want):
            problems.append(f"shot n_total {rec['n_total']!r} at t={rec['t']!r}, exact {want!r}")
            break

    for name in SVG_FILES:
        try:
            ET.parse(os.path.join(point_dir, name))
        except ET.ParseError as exc:
            problems.append(f"{name}: {exc}")
    return problems


def check_sweep_index(out_dir: str, n_points: int) -> list[str] | None:
    """Per-point problems from the exit codes ``sweep`` records in its
    manifest ("" for a point that exited 0); None when the manifest is
    missing, unreadable or lists another number of points."""
    try:
        with open(os.path.join(out_dir, "sweep_index.json"), encoding="utf-8") as fh:
            points = json.load(fh)["points"]
    except (OSError, ValueError, KeyError):
        return None
    if len(points) != n_points:
        return None
    return [
        "" if p.get("exit_code") == 0 else f"sweep point exit code {p.get('exit_code')}: {p.get('status')}"
        for p in points
    ]
