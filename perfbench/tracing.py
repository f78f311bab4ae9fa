"""Spans recorded from outside the package, and the per-layer metrics they give.

The package's modules call each other through names bound by
``from .x import f``, so a wrapper must replace the attribute the *caller*
looks up (``dsfermion.evolve.apply_pauli_rotation``, not
``dsfermion.state.apply_pauli_rotation``).  ``install`` lists every call
site the benchmark times.  Spans are kept in memory as
``[name, start, end, parent, op, child_time, count]`` and written out by the
caller when the run ends.

Every span's self time (its duration minus its children's) is charged to
exactly one ``*_s`` metric, so the self times of a pass add up to the
duration of its root spans; the worker checks that against the pass's wall
time, measured outside the spans.  A call site that no longer exists is
recorded in ``Tracer.missing``, and its layer reads 0.
"""

from __future__ import annotations

import statistics
import time
import types
from contextlib import contextmanager

NAME, START, END, PARENT, OP, CHILD, COUNT = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _enter(self, name: str, count: int) -> list:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        rec = [name, time.perf_counter(), 0.0, parent, self.op, 0.0, count]
        self.spans.append(rec)
        return rec

    def _exit(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()
        if rec[PARENT] >= 0:
            self.spans[rec[PARENT]][CHILD] += rec[END] - rec[START]

    @contextmanager
    def span(self, name: str):
        rec = self._enter(name, 0)
        try:
            yield
        finally:
            self._exit(rec)

    def wrap(self, owner, attr: str, name, count=None) -> None:
        """Replace ``owner.attr`` by a recording wrapper.

        ``name`` is a span name or a function of the call's (args, kwargs);
        ``count`` optionally maps (args, kwargs) to a work count kept on the span.
        """
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        namer = name if callable(name) else (lambda args, kwargs: name)

        def wrapper(*args, **kwargs):
            rec = self._enter(namer(args, kwargs), count(args, kwargs) if count else 0)
            try:
                return original(*args, **kwargs)
            finally:
                self._exit(rec)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def unwrap(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


CALIBRATION_CALLS = 20000
CALIBRATION_ROUNDS = 9


def wrapper_cost() -> float:
    """Seconds a recording wrapper adds to one call: the median over
    CALIBRATION_ROUNDS rounds of CALIBRATION_CALLS wrapped no-op calls minus
    as many plain ones, per call.  Times the span count of a pass, it is the
    tracing overhead of that pass, which is too small to resolve as the
    difference of a traced and an untraced pass's wall time."""
    plain = lambda: None  # noqa: E731
    owner = types.SimpleNamespace(__name__="calibration", f=plain)
    tracer = Tracer()
    tracer.wrap(owner, "f", "calibration")
    wrapped = owner.f
    costs = []
    for _ in range(CALIBRATION_ROUNDS):
        tracer.spans.clear()
        t0 = time.perf_counter()
        for _ in range(CALIBRATION_CALLS):
            plain()
        t1 = time.perf_counter()
        for _ in range(CALIBRATION_CALLS):
            wrapped()
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / CALIBRATION_CALLS)
    return statistics.median(costs)


def _arg(args, kwargs, index: int, key: str):
    return args[index] if len(args) > index else kwargs[key]


def rotation_class(args, kwargs) -> str:
    """Term class of a rotation from its generator: Z layer, bulk bond or boundary pair."""
    x_mask = _arg(args, kwargs, 1, "p").x_mask
    if x_mask == 0:
        return "state.rotation_z"
    if x_mask.bit_count() == 2 and x_mask & (x_mask >> 1):
        return "state.rotation_bond"
    return "state.rotation_boundary"


def install(tracer: Tracer, dsfermion) -> None:
    """Wrap every call site the per-layer metrics come from."""
    cli, evolve, model, pauli = dsfermion.cli, dsfermion.evolve, dsfermion.model, dsfermion.pauli
    tracer.wrap(cli, "run", "cli.run")
    tracer.wrap(cli, "sweep", "cli.run")
    tracer.wrap(cli, "trotter_evolve", "evolve.trotter_evolve")
    tracer.wrap(cli, "exact_evolve_converged", "evolve.oracle")
    tracer.wrap(cli, "sample_z_basis", "state.sample", count=lambda a, k: _arg(a, k, 1, "shots"))
    tracer.wrap(cli, "estimators_from_counts", "observables.estimators")
    for writer in ("write_density_csv", "write_observables_csv", "write_summary_json", "_write_text"):
        tracer.wrap(cli, writer, "cli.write")
    tracer.wrap(cli, "heatmap", "svg.render")
    tracer.wrap(cli, "line_chart", "svg.render")
    tracer.wrap(evolve, "trotter_step", "evolve.trotter_step")
    tracer.wrap(evolve, "apply_pauli_rotation", rotation_class)
    tracer.wrap(evolve, "exact_evolve", "evolve.exact_evolve", count=lambda a, k: _arg(a, k, 3, "substeps"))
    tracer.wrap(evolve, "hamiltonian_at", "model.hamiltonian_at")
    tracer.wrap(evolve, "hamiltonian_parts", "model.hamiltonian_parts")
    tracer.wrap(evolve, "expectation_pauli_sum", "state.energy")
    tracer.wrap(evolve, "exact_record", "observables.exact_record")
    tracer.wrap(model, "hamiltonian_parts", "model.hamiltonian_parts")
    tracer.wrap(pauli.PauliSum, "to_dense", "pauli.to_dense")


# Span name -> the metric its self time is charged to, where that is not
# simply ``<name>_s``.
SELF_METRIC = {
    "bench.op": "cli.run_s",
    "evolve.trotter_step": "evolve.trotter_evolve_s",
    "evolve.exact_evolve": "evolve.oracle_s",
}

SELF_TIME_METRICS = (
    "cli.run_s",
    "cli.write_s",
    "svg.render_s",
    "pauli.to_dense_s",
    "model.hamiltonian_parts_s",
    "model.hamiltonian_at_s",
    "state.rotation_bond_s",
    "state.rotation_boundary_s",
    "state.rotation_z_s",
    "state.energy_s",
    "state.sample_s",
    "evolve.trotter_evolve_s",
    "evolve.oracle_s",
    "observables.exact_record_s",
    "observables.estimators_s",
)

# Counts that depend only on the workload and the seed, so two traced passes
# must give identical values.
EXACT_REPEAT = (
    "evolve.oracle_substeps_total",
    "evolve.oracle_doublings",
    "state.rotation_calls",
    "state.rotation_bond_calls",
    "state.rotation_boundary_calls",
    "state.rotation_z_calls",
    "observables.snapshots",
    "state.shots_drawn",
    "cli.bytes_written",
)


def pass_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (the spans it recorded)."""
    m = dict.fromkeys(SELF_TIME_METRICS, 0.0)
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    steps: list[float] = []
    doublings: dict[int, list] = {}  # oracle span index -> its exact_evolve spans
    for rec in spans:
        name, duration = rec[NAME], rec[END] - rec[START]
        metric = SELF_METRIC.get(name, name + "_s")
        if metric not in m:
            raise KeyError(f"span {name!r} is charged to no metric")
        m[metric] += duration - rec[CHILD]
        calls[name] = calls.get(name, 0) + 1
        counts[name] = counts.get(name, 0) + rec[COUNT]
        if name == "evolve.trotter_step":
            steps.append(duration)
        elif name == "evolve.exact_evolve":
            doublings.setdefault(rec[PARENT], []).append(rec)

    rotation = {c: calls.get(f"state.rotation_{c}", 0) for c in ("bond", "boundary", "z")}
    final = [group[-1] for group in doublings.values()]
    substeps = counts.get("evolve.exact_evolve", 0)
    m.update(
        {
            "pauli.to_dense_calls": calls.get("pauli.to_dense", 0),
            "model.hamiltonian_at_calls": calls.get("model.hamiltonian_at", 0),
            "state.rotation_calls": sum(rotation.values()),
            **{f"state.rotation_{c}_calls": n for c, n in rotation.items()},
            "state.shots_drawn": counts.get("state.sample", 0),
            "evolve.trotter_step_s": statistics.median(steps) if steps else 0.0,
            "evolve.trotter_steps": len(steps),
            "evolve.oracle_doubling_s": sum((r[END] - r[START] for r in final), 0.0),
            "evolve.oracle_doublings": calls.get("evolve.exact_evolve", 0),
            "evolve.oracle_substeps_total": substeps,
            "evolve.oracle_useful_frac": sum(r[COUNT] for r in final) / substeps if substeps else 0.0,
            "observables.snapshots": calls.get("observables.exact_record", 0),
        }
    )
    return m
