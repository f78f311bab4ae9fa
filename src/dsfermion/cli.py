"""Experiment presets, output files and the command-line interface.

Subcommands: ``run`` (evolve and write CSV/JSON/SVG outputs), ``verify``
(structural identity checks), ``sweep`` (one-parameter scans), ``preset``
(print a canned configuration).

Config files are flat ``key = value`` text with the keys named exactly as
the RunConfig fields; command-line flags use the same names prefixed with
``--`` and override file values.  ``run --config`` also accepts a
summary.json from a previous run, which reproduces that run bit for bit.

Exit codes: 0 success, 1 usage error (including a readout beyond its size
guard or lost to underflow, or an oracle beyond its substep budget), 2 I/O
error, 3 invariant violation, 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields, replace
from operator import attrgetter

import numpy as np

from . import __version__
from .errors import (
    BILINEAR_QUBIT_LIMIT,
    CHARGE_DRIFT_TOL,
    IDENTITY_TOL,
    LOG_VALUE_LIMIT,
    NORM_DRIFT_TOL,
    ORACLE_SUBSTEP_BUDGET,
    P_RATIO_FLOOR,
    READOUT_LIMIT,
    SEED_LIMIT,
    SEED_STRIDE,
    SHOT_LIMIT,
    NormDriftError,
    ResourceLimitError,
)
from .evolve import exact_evolve_converged, trotter_evolve
from .model import ModelParams, hamiltonian_at, hamiltonian_parts, n8_fixture, verify_bilinears
from .observables import ObservableRecord, estimators_from_counts
from .pauli import PauliSum
from .state import read_out, sample_z_basis, snapshot_blocks, state_distance
from .svg import Series, heatmap, line_chart

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_INVARIANT = 3
EXIT_VERIFY = 4

# Exit code and stderr message of each failure `main` reports; a sweep
# records a failed point's exit code from the same table.
_ERROR_EXITS = {
    ValueError: (EXIT_USAGE, "{}"),
    ResourceLimitError: (EXIT_USAGE, "{}; rerun with --oracle off to skip the oracle"),
    OSError: (EXIT_IO, "I/O error: {}"),
    NormDriftError: (EXIT_INVARIANT, "invariant violation: {}"),
}

SWEEPABLE = ("hubble", "mass", "trotter_steps", "shots", "initial_state_index")


def _default_output_dir() -> str:
    return os.environ.get("DSFERMION_OUTPUT_DIR", "out")


@dataclass
class RunConfig:
    """One run.  The defaults are the published massless setup: N=8, h=0.1, t=1 over
    10 Trotter steps, 10000 shots, one hole at site 0, exact-propagator oracle on."""

    n_sites: int = 8
    hubble: float = 0.1
    mass: float = 0.0
    t_total: float = 1.0
    trotter_steps: int = 10
    time_sampling: str = "midpoint"
    shots: int = 10000
    seed: int = 1
    initial_state_index: int = 1
    snapshot_every: int = 1
    oracle: str = "on"
    oracle_substeps_start: int = 256
    output_dir: str = field(default_factory=_default_output_dir)

    def validate(self) -> None:
        """Reject, before any work, the fields that `run` would otherwise reject
        late (the readout's size, an overflow) or not at all; ModelParams checks the
        lattice and the couplings first, and trotter_evolve checks the rest."""
        ModelParams(self.n_sites, self.hubble, self.mass)
        if not 0 <= self.initial_state_index < 1 << self.n_sites:
            raise ValueError(
                f"initial_state_index must be in [0, 2^n_sites), got {self.initial_state_index}"
            )
        if not 1 <= self.trotter_steps < SEED_STRIDE:
            raise ValueError(f"trotter_steps must be in [1, 2^32), got {self.trotter_steps}")
        if not 0 <= self.shots <= SHOT_LIMIT:
            raise ValueError(f"shots must be in [0, 2^28], got {self.shots}")
        if not 0 <= self.seed < SEED_LIMIT - self.trotter_steps:
            raise ValueError(
                f"seed must be in [0, 2^64 - trotter_steps), since snapshot i samples with "
                f"the uint64 key seed + i; got {self.seed}"
            )
        if self.oracle not in ("on", "off"):
            raise ValueError(f"oracle must be 'on' or 'off', got {self.oracle!r}")
        if not 1 <= self.oracle_substeps_start <= ORACLE_SUBSTEP_BUDGET // 2:
            raise ValueError(
                f"oracle_substeps_start must be in [1, {ORACLE_SUBSTEP_BUDGET // 2}] so that "
                f"its first doubling fits the oracle's budget, got {self.oracle_substeps_start}"
            )
        if not (math.isfinite(self.t_total) and self.t_total > 0):
            raise ValueError(f"t_total must be positive, got {self.t_total}")
        # math.exp raises past e^709.78, so e^(h t_total) is formed only up to the
        # limit; beyond it the polarization bound fails.
        volume = math.exp(min(self.hubble * self.t_total, LOG_VALUE_LIMIT))
        n, mass_scale = self.n_sites, self.mass * volume
        for name, bound in (
            ("polarization bound e^(h t) N(N-1)/2", volume * n * (n - 1) / 2),
            ("energy bound N (2 + m e^(h t)) + h N/4", n * (2 + mass_scale) + self.hubble * n / 4),
            ("mass phase of a step dt m e^(h t)", self.t_total / self.trotter_steps * mass_scale),
        ):
            if not bound <= math.exp(LOG_VALUE_LIMIT):
                raise ValueError(
                    f"{name} passes e^{LOG_VALUE_LIMIT:g} at t = t_total; "
                    f"lower hubble, t_total or mass"
                )
        k = self.initial_state_index.bit_count()
        gathered = math.comb(self.n_sites, k) * k * k
        if (self.shots > 0 or self.oracle == "on") and gathered > READOUT_LIMIT:
            raise ValueError(
                f"shots and the oracle read out C({self.n_sites}, {k}) amplitudes from {gathered} "
                f"minor entries, above {READOUT_LIMIT}; rerun with --shots 0 --oracle off"
            )


def preset_paper(mass_choice: int) -> RunConfig:
    """The published N=8 setup, RunConfig's defaults, at mass 0 or 1."""
    if mass_choice not in (0, 1):
        raise ValueError(f"mass_choice must be 0 or 1, got {mass_choice}")
    return RunConfig(
        mass=float(mass_choice),
        output_dir=os.path.join(_default_output_dir(), f"paper_m{mass_choice}"),
    )


PRESETS = {"paper-m0": lambda: preset_paper(0), "paper-m1": lambda: preset_paper(1)}


# ---------------------------------------------------------------------------
# Config file handling
# ---------------------------------------------------------------------------

# The one field-type rule: config files, flags and sweep values all convert
# the text of a field's raw value (also a JSON one) with its type's converter.
_CONVERTERS = {f.name: {"int": int, "float": float}.get(f.type, str) for f in fields(RunConfig)}


def config_to_text(config: RunConfig) -> str:
    lines = [f"{f.name} = {getattr(config, f.name)}" for f in fields(config)]
    return "\n".join(lines) + "\n"


def config_from_mapping(mapping: dict) -> RunConfig:
    unknown = set(mapping) - set(_CONVERTERS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return RunConfig(**{k: _CONVERTERS[k](str(v)) for k, v in mapping.items()})


def parse_config_text(text: str) -> dict[str, str]:
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno} is not 'key = value': {raw!r}")
        key, _, value = line.partition("=")
        mapping[key.strip()] = value.strip()
    return mapping


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".json"):
        payload = json.loads(text)
        mapping = payload.get("config", payload) if isinstance(payload, dict) else payload
        if not isinstance(mapping, dict):
            raise ValueError(f"{path}: expected a JSON object, or one under \"config\"")
        return config_from_mapping(mapping)
    return config_from_mapping(parse_config_text(text))


# ---------------------------------------------------------------------------
# Output writers
# ---------------------------------------------------------------------------

def _write_text(path: str, text: str) -> None:
    # newline="\n": the same bytes on every platform, not "\r\n" on Windows.
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_csv(path: str, header: str, columns) -> None:
    """A number with 17 significant digits per cell, and a column that is None
    as empty cells: one ``%`` template, filled from the stacked other columns."""
    present = [column for column in columns if column is not None]
    line = ",".join("" if column is None else "%.17g" for column in columns)
    cells = np.column_stack(present).ravel().tolist()
    _write_text(path, "\n".join([header] + [line] * len(present[0])) % tuple(cells) + "\n")


def _p_ratio_scale(exact_records: list[ObservableRecord]) -> float | None:
    """p(0), or None where the polarization ratio p(t)/p(0) is undefined."""
    p0 = exact_records[0].polarization_over_e
    return p0 if abs(p0) > P_RATIO_FLOOR else None


def write_density_csv(
    path: str,
    exact_records: list[ObservableRecord],
    shot_records: list[ObservableRecord] | None,
) -> None:
    n_sites, shots = len(exact_records[0].density), shot_records or None
    _write_csv(path, "t,x,n_exact,n_shot,n_shot_err", (
        np.repeat([r.t for r in exact_records], n_sites),
        np.tile(np.arange(n_sites), len(exact_records)),
        np.ravel([r.density for r in exact_records]),
        shots and np.ravel([r.density for r in shots]),
        shots and np.ravel([r.shot_errors.density for r in shots]),
    ))


def write_observables_csv(
    path: str,
    exact_records: list[ObservableRecord],
    shot_records: list[ObservableRecord] | None,
) -> None:
    names = "t n_total correlation_C polarization_over_e chiral_c energy total_sz norm".split()
    exact = np.array([*map(attrgetter(*names), exact_records)])
    t, n_total, c, p, chi, energy, total_sz, norm = exact.T
    errors = [(r.shot_errors.correlation_C, r.shot_errors.chiral_c) for r in shot_records or ()]
    c_err, chi_err = np.array(errors).T if errors else (None, None)
    p_ratio = None if (p0 := _p_ratio_scale(exact_records)) is None else p / p0
    columns = (t, n_total, c, c_err, p, p_ratio, chi, chi_err, energy, total_sz, norm)
    _write_csv(path, "t,n_total,C,C_err,p_over_e,p_ratio,c,c_err,energy,total_sz,norm", columns)


def _leaves(record, shape: list, leaves: list) -> bool:
    """Append ``record``'s floats to ``leaves`` in _json's order and all else its text
    depends on to ``shape``; False for a field not a float, float list, None, str, int or record."""
    values = vars(record)
    shape.append(names := tuple(sorted(values)))
    for name in names:
        value = values[name]
        kind = type(value)
        if kind is float or kind in (list, tuple) and set(map(type, value)) <= {float}:
            leaves += (value,) if kind is float else value
            shape.append(float if kind is float else len(value))
        elif value is None or kind in (str, bool, int):
            shape.append((kind, value))
        elif not hasattr(value, "__dict__") or not _leaves(value, shape, leaves):
            return False
    return True


def _json(value, indent: str, leaf: str | None = None) -> str:
    """``value`` at ``indent`` as json.dumps(value, indent=2, sort_keys=True,
    default=vars, allow_nan=False) writes it (dict keys are strings), without its
    pure-Python encoder.  Records of one type in a list take one ``%`` each, on
    their shape's template (see _leaves): their text with ``leaf`` for each float."""
    if isinstance(value, float):
        if not (leaf or math.isfinite(value)):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        return leaf or float.__repr__(value)
    if isinstance(value, str):
        return json.encoder.encode_basestring_ascii(value).replace("%", "%%" if leaf else "%")
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if not isinstance(value, (list, tuple, dict)):
        return _json(vars(value), indent, leaf)
    if not value:
        return "[]" if isinstance(value, (list, tuple)) else "{}"
    inner = indent + "  "
    if isinstance(value, dict):
        pairs = sorted(value.items())
        items = [f"{_json(k, inner, leaf)}: {_json(v, inner, leaf)}" for k, v in pairs]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    items, templates = [], {}
    if not leaf and len(set(map(type, value))) == 1 and hasattr(value[0], "__dict__"):
        for record in value:
            shape, leaves = [], []
            if not (_leaves(record, shape, leaves) and all(map(math.isfinite, leaves))):
                items = []  # the generic path below writes it, or raises
                break
            key = tuple(shape)
            template = templates.get(key) or templates.setdefault(key, _json(record, inner, "%r"))
            items.append(template % tuple(leaves))
    items = items or [_json(v, inner, leaf) for v in value]
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"


def write_summary_json(path: str, payload: dict) -> None:
    """``payload`` as strict JSON: records and configs as their fields
    (``vars``), None as null; a NaN or infinity raises ValueError."""
    _write_text(path, _json(payload, "") + "\n")


def _config_meta(config: RunConfig) -> str:
    pairs = " ".join(f"{f.name}={getattr(config, f.name)}" for f in fields(config))
    return f"dsfermion {__version__} | {pairs}"


def _write_plots(
    out_dir: str,
    config: RunConfig,
    exact_records: list[ObservableRecord],
    shot_records: list[ObservableRecord] | None,
) -> None:
    meta = _config_meta(config)
    times, grid = [rec.t for rec in exact_records], [rec.density for rec in exact_records]
    sites = range(len(grid[0]))
    svg = heatmap("Fermion density n(x, t)", "t", "site x", times, sites, grid, meta=meta)
    _write_text(os.path.join(out_dir, "density_heatmap.svg"), svg)

    # The polarization is plotted relative to p(0) where that ratio is defined;
    # dividing by a scale of 1.0 leaves the other charts' values unchanged.
    p0 = _p_ratio_scale(exact_records)
    if p0 is not None:
        polarization = ("Polarization ratio p(t)/p(0)", "p(t)/p(0)", p0)
    else:
        polarization = ("Polarization p(t)/e", "p/e", 1.0)
    for name, (title, ylabel, scale), attr in (
        ("correlation.svg", ("Density correlation C(t)", "C", 1.0), "correlation_C"),
        ("polarization.svg", polarization, "polarization_over_e"),
        ("chiral.svg", ("Chiral condensate c(t)", "c", 1.0), "chiral_c"),
    ):
        series = [Series("exact", times, [getattr(r, attr) / scale for r in exact_records])]
        if shot_records:
            ys = [getattr(r, attr) / scale for r in shot_records]
            errs = [getattr(r.shot_errors, attr) / abs(scale) for r in shot_records]
            series.append(Series("shots", times, ys, yerr=errs))
        _write_text(os.path.join(out_dir, name), line_chart(title, "t", ylabel, series, meta=meta))


# ---------------------------------------------------------------------------
# run / verify / sweep
# ---------------------------------------------------------------------------

def run(config: RunConfig) -> int:
    """Evolve per the config and write density.csv, observables.csv,
    summary.json and the four SVG plots into config.output_dir."""
    config.validate()
    params = ModelParams(config.n_sites, config.hubble, config.mass)
    trajectory = trotter_evolve(
        config.initial_state_index,
        params,
        config.trotter_steps,
        config.t_total / config.trotter_steps,
        time_sampling=config.time_sampling,
        snapshot_every=config.snapshot_every,
    )
    records = trajectory.records

    # The oracle runs before any shot is drawn: past its step budget it stops
    # at once, and a run it stops reads nothing out.
    oracle_report = final = None
    if config.oracle == "on":
        oracle = exact_evolve_converged(
            config.initial_state_index,
            params,
            config.t_total,
            substeps_start=config.oracle_substeps_start,
        )
        final = read_out(trajectory.orbitals[-1], config.hubble, records[-1].t)
        exact = read_out(oracle.orbitals, config.hubble, config.t_total)
        oracle_report = {
            "substeps": oracle.substeps,
            "convergence_delta": oracle.delta,
            "state_distance": state_distance(final, exact),
        }

    shot_records = None
    if config.shots > 0:
        # Each snapshot is read out once, a block at a time (the last one by
        # the oracle check, if any), and snapshot i samples with key seed + i.
        count, n, k = trajectory.orbitals.shape
        times = [rec.t for rec in records]
        blocks = snapshot_blocks(count - (final is not None), n, k)
        shot_records = []
        for block in blocks + [slice(count - 1, count)] * (final is not None):
            states = (
                final if final is not None and block.stop == count
                else read_out(trajectory.orbitals[block], config.hubble, times[block])
            )
            counts = sample_z_basis(states, config.shots, config.seed + block.start)
            shot_records += estimators_from_counts(counts, times[block], config.hubble)

    charge_drift = max(abs(r.total_sz - records[0].total_sz) for r in records)
    norm_drift = max(abs(r.norm - 1.0) for r in records)

    os.makedirs(config.output_dir, exist_ok=True)
    write_density_csv(os.path.join(config.output_dir, "density.csv"), records, shot_records)
    write_observables_csv(
        os.path.join(config.output_dir, "observables.csv"), records, shot_records
    )
    summary = {
        "config": config,
        "seed": config.seed,
        "version": __version__,
        "invariants": {
            "charge_drift": charge_drift,
            "charge_drift_tolerance": CHARGE_DRIFT_TOL,
            "norm_drift": norm_drift,
            "norm_drift_tolerance": NORM_DRIFT_TOL,
            "oracle": oracle_report,
        },
    }
    if shot_records is not None:
        summary["shot_records"] = shot_records
    write_summary_json(os.path.join(config.output_dir, "summary.json"), summary)
    _write_plots(config.output_dir, config, records, shot_records)

    if not (charge_drift <= CHARGE_DRIFT_TOL and norm_drift <= NORM_DRIFT_TOL):  # NaN fails
        print(
            f"invariant violation: charge drift {charge_drift:.3e} "
            f"(tol {CHARGE_DRIFT_TOL:g}), norm drift {norm_drift:.3e} "
            f"(tol {NORM_DRIFT_TOL:g})",
            file=sys.stderr,
        )
        return EXIT_INVARIANT
    return EXIT_OK


def verify(max_n: int) -> int:
    """Structural checks: bilinear identities, charge commutator, lowest
    eigenvalue on the filled state, and the N=8 transcription fixture."""
    if not 4 <= max_n <= BILINEAR_QUBIT_LIMIT or max_n % 2 != 0:
        raise ValueError(
            f"max_n must be an even integer in [4, {BILINEAR_QUBIT_LIMIT}], got {max_n}"
        )
    failures = 0

    def report(name: str, ok: bool, detail: str) -> None:
        nonlocal failures
        if not ok:
            failures += 1
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")

    for n in range(4, max_n + 1, 2):
        dev = verify_bilinears(n)
        report(f"bilinear identities N={n}", dev < IDENTITY_TOL, f"max deviation {dev:.3e}")

    # [Q, aH]_ij = (q_i - q_j) aH_ij for the charge Q = sum Z, so the commutator
    # vanishes exactly when aH has no entry between states of different popcount.
    for n in range(4, max_n + 1, 2):
        params = ModelParams(n, 0.1, 1.0)
        popcount = np.bitwise_count(np.arange(1 << n))
        between = popcount[:, None] != popcount[None, :]
        residual = max(
            np.count_nonzero(hamiltonian_at(params, t).to_dense()[between]) for t in (0.0, 0.7)
        )
        report(
            f"charge commutator N={n}",
            residual == 0,
            f"{residual} entries between charge sectors",
        )

    for n in range(4, max_n + 1, 2):
        params = ModelParams(n, 0.1, 1.0)
        value = hamiltonian_at(params, 0.3).to_dense()[0, 0].real  # <0| aH |0>
        expected = n * params.hubble / 4.0
        report(
            f"filled-state eigenvalue N={n}",
            abs(value - expected) < IDENTITY_TOL,
            f"<H> = {value:.15g}, expected {expected:.15g}",
        )

    if max_n >= 8:
        h1, h2, h3 = n8_fixture()
        parts = hamiltonian_parts(8)
        checks = (
            ("hopping vs -h1", parts.hopping, [(-c, s) for c, s in h1.terms]),
            ("charge vs h2/2", parts.charge, [(0.5 * c, s) for c, s in h2.terms]),
            ("mass vs h3", parts.mass_term, h3.terms),
        )
        for name, built, terms in checks:
            ok = built == PauliSum(8, terms)
            report(f"N=8 fixture {name}", ok, "term-for-term exact" if ok else "mismatch")

    return EXIT_VERIFY if failures else EXIT_OK


def _error_exit(exc: Exception) -> tuple[int, str]:
    """Exit code and message for ``exc`` from _ERROR_EXITS; any other
    exception (reachable only inside a sweep point) counts as a usage error."""
    for kind, (code, template) in _ERROR_EXITS.items():
        if isinstance(exc, kind):
            return code, template.format(exc)
    return EXIT_USAGE, str(exc)


def sweep(base_config: RunConfig, parameter: str, values: list) -> int:
    """Run one point per value; point j runs with the seed base seed + j * 2^32."""
    if parameter not in SWEEPABLE:
        raise ValueError(f"parameter must be one of {SWEEPABLE}, got {parameter!r}")
    if not values:
        raise ValueError("sweep values list is empty")
    if len(set(values)) < len(values):
        raise ValueError(f"sweep values must be distinct, got {values}")
    if base_config.seed + len(values) * SEED_STRIDE > SEED_LIMIT:
        raise ValueError(f"{len(values)} sweep points need a seed <= 2^64 - {len(values)} * 2^32")
    # sweep_index.json echoes the base config as strict JSON, which has no NaN
    # or infinity, so these are rejected before any point runs.
    for name in ("hubble", "mass", "t_total"):
        if not math.isfinite(getattr(base_config, name)):
            raise ValueError(f"{name} must be finite, got {getattr(base_config, name)}")
    points = []
    worst = EXIT_OK
    for index, value in enumerate(values):
        point_config = replace(
            base_config,
            **{parameter: value},
            seed=base_config.seed + index * SEED_STRIDE,
            output_dir=os.path.join(base_config.output_dir, f"{parameter}={value}"),
        )
        try:
            code, message = run(point_config), ""
        except Exception as exc:  # per-point isolation; status lands in the manifest
            code, message = _error_exit(exc)[0], str(exc)
        if code == EXIT_OK:
            status = "ok"
        elif code == EXIT_INVARIANT:
            status = "invariant-violation" + (f": {message}" if message else "")
        else:
            status = f"error: {message}"
        worst = max(worst, code)
        points.append(
            {
                "value": value,
                "seed": point_config.seed,
                "output_dir": point_config.output_dir,
                "status": status,
                "exit_code": code,
            }
        )
    os.makedirs(base_config.output_dir, exist_ok=True)
    manifest = {
        "parameter": parameter,
        "base_config": base_config,
        "points": points,
    }
    write_summary_json(os.path.join(base_config.output_dir, "sweep_index.json"), manifest)
    return worst


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--config", help="config file (key = value) or a previous summary.json")
    source.add_argument("--preset", choices=sorted(PRESETS), help="start from a named preset")
    for f in fields(RunConfig):
        parser.add_argument(f"--{f.name}", type=_CONVERTERS[f.name], default=None)


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    if args.preset:
        config = PRESETS[args.preset]()
    elif args.config:
        config = load_config(args.config)
    else:
        config = RunConfig()
    overrides = {
        f.name: getattr(args, f.name)
        for f in fields(RunConfig)
        if getattr(args, f.name) is not None
    }
    return replace(config, **overrides)


def _parse_sweep_values(parameter: str, raw: str) -> list:
    items = [s for s in (piece.strip() for piece in raw.split(",")) if s]
    return [_CONVERTERS[parameter](s) for s in items]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dsfermion", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="evolve and write outputs")
    _add_config_flags(p_run)

    p_verify = sub.add_parser("verify", help="run structural identity checks")
    p_verify.add_argument("--max-n", type=int, default=8, dest="max_n")

    p_sweep = sub.add_parser("sweep", help="run one point per parameter value")
    _add_config_flags(p_sweep)
    p_sweep.add_argument("--parameter", required=True, choices=SWEEPABLE)
    p_sweep.add_argument("--values", required=True, help="comma-separated list")

    p_preset = sub.add_parser("preset", help="print a preset config")
    p_preset.add_argument("name", choices=sorted(PRESETS))
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return run(_config_from_args(args))
        if args.command == "verify":
            return verify(args.max_n)
        if args.command == "sweep":
            config = _config_from_args(args)
            return sweep(config, args.parameter, _parse_sweep_values(args.parameter, args.values))
        if args.command == "preset":
            sys.stdout.write(config_to_text(PRESETS[args.name]()))
            return EXIT_OK
    except tuple(_ERROR_EXITS) as exc:
        code, message = _error_exit(exc)
        print(f"dsfermion: {message}", file=sys.stderr)
        return code
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
