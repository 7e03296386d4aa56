"""Spans around periflow's public functions, and the per-layer metrics made
from them.

The tracer replaces each function in `TARGETS` with a wrapper in every
periflow module namespace that binds it (``solver`` imports
``solve_linear_periodic`` by name, ``periflow`` re-exports
``galerkin_solve``), so no call path escapes.  Spans are kept in memory,
each with name, start, end, parent, op id and a few attributes, and written
out when the run ends.  A span's self time is its duration minus the
durations of its child spans (calls are nested on one thread, so children
never overlap).  The layers are the modules of ``src/periflow``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import statistics
import sys
import time
from collections import defaultdict

TARGETS = {
    "periodic_ode": (
        "integrate_rk4",
        "step_halving_error",
        "monodromy",
        "solve_linear_periodic",
        "linear_system_from_galerkin",
    ),
    "solver": (
        "apply_phi",
        "fixed_point",
        "residual_galerkin",
        "homotopy_sweep",
        "assemble_from_config",
        "galerkin_solve",
    ),
    "basis": ("build_basis", "assemble_system", "estimate_cq"),
    "geometry": ("build_mesh",),
    "womersley": ("solve_poiseuille",),
    "carrier": ("build_flux_carrier", "carrier_forces"),
    "diagnostics": (
        "diagnostics_bundle",
        "energy_report",
        "check_partial_bound",
        "check_particular_energy",
        "strong_regularity_monitor",
        "far_field_decay",
        "stokes_rhs_norm",
        "smallness_report",
        "resonance_probe",
    ),
    "cli": ("cmd_solve", "cmd_resonance"),
}


def _rk4_attrs(bound, result):
    system = bound.arguments["system"]
    x0 = bound.arguments["x0"]
    columns = 1 if getattr(x0, "ndim", 1) == 1 else x0.shape[1]
    steps = system.n_steps * bound.arguments.get("substeps", 1)
    return {"steps": steps, "columns": columns, "dim": system.dim}


def _fixed_point_attrs(bound, result):
    _, report = result
    return {"iterations": report["iterations"], "history": list(report["history"])}


ATTRS = {
    "periodic_ode.integrate_rk4": _rk4_attrs,
    "solver.fixed_point": _fixed_point_attrs,
}


class Span:
    __slots__ = ("name", "index", "start", "end", "parent", "op", "error", "attrs")

    def __init__(self, name, index, parent, op):
        self.name = name
        self.index = index
        self.parent = parent
        self.op = op
        self.start = self.end = 0.0
        self.error = None
        self.attrs = None

    @property
    def duration(self):
        return self.end - self.start

    def to_json(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Tracer:
    """Records spans while `enabled`; pass-through otherwise."""

    def __init__(self):
        self.spans = []
        self.enabled = False
        self.op = None
        self._stack = []
        self._patched = []  # (module, attribute, original)

    # --- installation -------------------------------------------------
    def install(self):
        import periflow

        modules = [periflow] + [
            importlib.import_module(f"periflow.{m.name}")
            for m in pkgutil.iter_modules(periflow.__path__)
        ]
        for mod_name, names in TARGETS.items():
            home = sys.modules[f"periflow.{mod_name}"]
            for name in names:
                original = getattr(home, name, None)
                if not callable(original):
                    raise RuntimeError(f"periflow.{mod_name}.{name} is not a function")
                wrapper = self._wrap(f"{mod_name}.{name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name, fn):
        signature = inspect.signature(fn)
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                self._close(span)
            if attrs is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.attrs = attrs(bound, result)
            return result

        return wrapper

    # --- recording ----------------------------------------------------
    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, len(self.spans), parent, self.op)
        self._stack.append(span.index)
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def run_op(self, op, traced, fn, *args):
        """Run fn(*args) as op `op`, under a root span "op" when traced."""
        self.op = op
        self.enabled = traced
        if not traced:
            return fn(*args)
        span = self._open("op")
        try:
            return fn(*args)
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            self._close(span)
            self.enabled = False

    def op_spans(self, op):
        return OpSpans([s for s in self.spans if s.op == op], self.spans)


class OpSpans:
    """The spans of one op, with the sums the per-layer metrics need."""

    def __init__(self, spans, all_spans):
        self._all = all_spans
        self.by_name = defaultdict(list)
        child_time = defaultdict(float)
        for s in spans:
            self.by_name[s.name].append(s)
            if s.parent is not None:
                child_time[s.parent] += s.duration
        self.self_time = {s.index: s.duration - child_time[s.index] for s in spans}

    def parent(self, span):
        return None if span.parent is None else self._all[span.parent]

    def children(self, span, name):
        return [s for s in self.by_name[name] if s.parent == span.index]

    def done(self, name):
        """Spans of `name` whose call returned (only those carry attrs)."""
        return [s for s in self.by_name[name] if s.error is None]

    def count(self, name):
        return len(self.by_name[name])

    def total(self, name):
        return sum(s.duration for s in self.by_name[name])

    def total_self(self, name):
        return sum(self.self_time[s.index] for s in self.by_name[name])


def _rk4_sweep_s(ops):
    inner = ("periodic_ode.monodromy", "periodic_ode.step_halving_error")
    return sum(
        s.duration
        for s in ops.by_name["periodic_ode.integrate_rk4"]
        if ops.parent(s).name not in inner
    )


def _rk4_work(ops, flops):
    total = 0
    for s in ops.done("periodic_ode.integrate_rk4"):
        a = s.attrs
        # per step and column: four dim x dim mat-vecs, 17 vector flops
        per = 8 * a["dim"] ** 2 + 17 * a["dim"] if flops else 1
        total += a["steps"] * a["columns"] * per
    return total


def _ratio(num, den):
    return num / den if den else 0.0


def _contraction_ratio(ops):
    ratios = []
    for s in ops.done("solver.fixed_point"):
        h = s.attrs["history"]
        ratios += [b / a for a, b in zip(h, h[1:]) if a > 0]
    return statistics.median(ratios) if ratios else 0.0


def _timer(span_name):
    return lambda ops: ops.total(span_name)


# name -> (unit, value from one op's spans).  Times are inclusive span
# durations summed over the op unless stated otherwise.
PER_LAYER = {
    "periodic_ode.monodromy_s": ("s", _timer("periodic_ode.monodromy")),
    "periodic_ode.step_halving_s": ("s", _timer("periodic_ode.step_halving_error")),
    "periodic_ode.rk4_sweep_s": ("s", _rk4_sweep_s),
    "periodic_ode.linear_system_s": ("s", _timer("periodic_ode.linear_system_from_galerkin")),
    "periodic_ode.solve_linear_s": ("s", _timer("periodic_ode.solve_linear_periodic")),
    "periodic_ode.rk4_steps": ("count", lambda o: _rk4_work(o, flops=False)),
    "periodic_ode.rk4_flops": ("flop", lambda o: _rk4_work(o, flops=True)),
    "periodic_ode.check_share": (
        "ratio",
        lambda o: _ratio(
            o.total("periodic_ode.step_halving_error"),
            o.total("periodic_ode.solve_linear_periodic"),
        ),
    ),
    "solver.iterations": (
        "count",
        lambda o: sum(s.attrs["iterations"] for s in o.done("solver.fixed_point")),
    ),
    "solver.apply_phi_s": ("s", _timer("solver.apply_phi")),
    "solver.fixed_point_s": ("s", _timer("solver.fixed_point")),
    "solver.residual_s": ("s", _timer("solver.residual_galerkin")),
    "solver.contraction_ratio": ("ratio", _contraction_ratio),
    "basis.build_basis_s": ("s", _timer("basis.build_basis")),
    "basis.assemble_system_s": ("s", _timer("basis.assemble_system")),
    "basis.estimate_cq_s": ("s", _timer("basis.estimate_cq")),
    "basis.assemblies": ("count", lambda o: o.count("basis.assemble_system")),
    "geometry.build_mesh_s": ("s", _timer("geometry.build_mesh")),
    "womersley.solve_poiseuille_s": ("s", _timer("womersley.solve_poiseuille")),
    "carrier.build_flux_carrier_s": ("s", _timer("carrier.build_flux_carrier")),
    "carrier.carrier_forces_s": ("s", _timer("carrier.carrier_forces")),
    "diagnostics.bundle_s": ("s", _timer("diagnostics.diagnostics_bundle")),
    "diagnostics.energy_report_s": ("s", _timer("diagnostics.energy_report")),
    "diagnostics.check_partial_bound_s": ("s", _timer("diagnostics.check_partial_bound")),
    "diagnostics.check_particular_energy_s": (
        "s",
        _timer("diagnostics.check_particular_energy"),
    ),
    "diagnostics.strong_regularity_s": ("s", _timer("diagnostics.strong_regularity_monitor")),
    "diagnostics.far_field_s": ("s", _timer("diagnostics.far_field_decay")),
    "diagnostics.stokes_rhs_s": ("s", _timer("diagnostics.stokes_rhs_norm")),
    "diagnostics.smallness_s": ("s", _timer("diagnostics.smallness_report")),
    "diagnostics.resonance_probe_s": ("s", _timer("diagnostics.resonance_probe")),
    # the CLI handler's self time: writing files, once the solve spans are out
    "cli.write_s": (
        "s",
        lambda o: o.total_self("cli.cmd_solve") + o.total_self("cli.cmd_resonance"),
    ),
}


def layer_values(ops):
    """Every PER_LAYER metric for one op."""
    return {
        name: fn(ops) if unit in ("count", "flop") else float(fn(ops))
        for name, (unit, fn) in PER_LAYER.items()
    }
