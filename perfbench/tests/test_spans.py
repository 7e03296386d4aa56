"""Span consistency of the traced benchmark run, and the reach of its
correctness checks.

    python3 -m pytest perfbench/tests -q

Runs one traced op of every workload (about 40 s in all on a 2-core Xeon).  A
wrapper missing from some module namespace leaves calls untraced, which
breaks the call-count identities below.
"""

import csv
import dataclasses
import json
import os
import shutil
import sys
import tempfile

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import run  # noqa: E402  (fixes the BLAS threads, puts src/ on sys.path)
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 7  # a nonzero seed, so every check goes through the phase shift


def _descendants(ops, span, name):
    found = []
    for s in ops.by_name[name]:
        p = ops.parent(s)
        while p is not None and p is not span:
            p = ops.parent(p)
        if p is span:
            found.append(s)
    return found


@pytest.fixture(scope="module")
def traced():
    """name -> (workload, op spans, op result, output dir) of one traced op."""
    out = {}
    with tempfile.TemporaryDirectory(dir=run.work_dir()) as root:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            for op, name in enumerate(run.WORKLOAD_NAMES):
                workload = workloads.make_workload(name, SEED)
                out_dir = os.path.join(root, name)
                os.makedirs(out_dir)
                result = tracer.run_op(op, True, workload.run, out_dir)
                out[name] = (workload, tracer.op_spans(op), result, out_dir)
        finally:
            tracer.uninstall()
        yield out


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_op_passes_its_check(traced, name):
    workload, _, result, out_dir = traced[name]
    assert workload.check(result, out_dir) == []


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_apply_phi_calls_equal_reported_iterations(traced, name):
    _, ops, _, _ = traced[name]
    fixed_points = ops.by_name["solver.fixed_point"]
    assert fixed_points
    for fp in fixed_points:
        assert len(ops.children(fp, "solver.apply_phi")) == fp.attrs["iterations"]
    values = tracing.layer_values(ops)
    assert ops.count("solver.apply_phi") == values["solver.iterations"]


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_each_apply_phi_builds_and_solves_once(traced, name):
    _, ops, _, _ = traced[name]
    for span in ops.by_name["solver.apply_phi"]:
        assert len(ops.children(span, "periodic_ode.linear_system_from_galerkin")) == 1
        assert len(ops.children(span, "periodic_ode.solve_linear_periodic")) == 1


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_four_rk4_sweeps_per_linear_solve(traced, name):
    """Monodromy, two step-halving sweeps and the trajectory sweep.  Only the
    decoupled oscillator at its natural period stops early, singular, after
    the monodromy sweep."""
    _, ops, _, _ = traced[name]
    solves = ops.by_name["periodic_ode.solve_linear_periodic"]
    rk4 = ops.by_name["periodic_ode.integrate_rk4"]
    singular = [s for s in solves if s.error]
    for s in solves:
        expected = 1 if s.error else 4
        assert len(_descendants(ops, s, "periodic_ode.integrate_rk4")) == expected
    assert all(s.error == "ResonantOrNonUnique" for s in singular)
    assert len(singular) == (1 if name == "period-sweep" else 0)
    assert len(rk4) == 4 * (len(solves) - len(singular)) + len(singular)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_assembly_once_per_period(traced, name):
    workload, ops, _, _ = traced[name]
    periods = len(workload.config.resonance_factors) if name == "period-sweep" else 1
    assert ops.count("basis.assemble_system") == periods
    for span in ops.by_name["solver.assemble_from_config"]:
        assert len(ops.children(span, "basis.assemble_system")) == 1


def test_every_target_is_traced_somewhere(traced):
    seen = set()
    for _, ops, _, _ in traced.values():
        seen.update(ops.by_name)
    wanted = {f"{mod}.{fn}" for mod, fns in tracing.TARGETS.items() for fn in fns}
    assert wanted <= seen


def test_install_patches_every_binding():
    import periflow

    originals = {
        id(getattr(sys.modules[f"periflow.{mod}"], fn))
        for mod, fns in tracing.TARGETS.items()
        for fn in fns
    }
    namespaces = [m for n, m in sys.modules.items() if n.split(".")[0] == "periflow"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module in namespaces:
            assert not [a for a, v in vars(module).items() if id(v) in originals], module
    finally:
        tracer.uninstall()
    assert id(periflow.galerkin_solve) in originals


def test_metric_names_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert tuple(workloads.WORKLOADS) == run.WORKLOAD_NAMES
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    per_layer = {name: unit for name, (unit, _) in tracing.PER_LAYER.items()}
    per_layer.update(run.EXTRA_PER_LAYER)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer


# --- the checks reject wrong answers and accept other converging paths ----


def _copy(out_dir):
    dst = tempfile.mkdtemp(dir=run.work_dir())
    shutil.copytree(out_dir, dst, dirs_exist_ok=True)
    return dst


def _edit_csv(path, row, column, fn):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index(column)
    rows[row][col] = repr(fn(float(rows[row][col])))
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


@pytest.mark.parametrize("rel, ok", [(1e-11, True), (1e-6, False)])
def test_trajectory_check_tolerance(traced, rel, ok):
    workload, _, code, out_dir = traced["reference-solve"]
    tmp = _copy(out_dir)
    try:
        _edit_csv(os.path.join(tmp, "trajectory.csv"), 100, "a1", lambda v: v + rel)
        assert (workload.check(code, tmp) == []) is ok
    finally:
        shutil.rmtree(tmp)


@pytest.mark.parametrize("rel, ok", [(1e-10, True), (1e-6, False)])
def test_sup_e_check_tolerance(traced, rel, ok):
    workload, _, code, out_dir = traced["period-sweep"]
    tmp = _copy(out_dir)
    try:
        _edit_csv(os.path.join(tmp, "resonance.csv"), 3, "sup_E", lambda v: v * (1 + rel))
        assert (workload.check(code, tmp) == []) is ok
    finally:
        shutil.rmtree(tmp)
    workload, _, rows, out_dir = traced["homotopy-sweep"]
    moved = [dict(r, sup_E=r["sup_E"] * (1 + rel)) for r in rows]
    assert (workload.check(moved, out_dir) == []) is ok


def test_singular_flag_is_checked(traced):
    workload, _, code, out_dir = traced["period-sweep"]
    tmp = _copy(out_dir)
    try:
        _edit_csv(os.path.join(tmp, "resonance.csv"), 1, "decoupled_singular", lambda v: 1.0)
        assert workload.check(code, tmp)
    finally:
        shutil.rmtree(tmp)


def test_other_converging_path_passes(traced):
    """A different damping takes a different iteration path to the same
    fixed points; the check must accept it."""
    workload = workloads.make_workload("period-sweep", SEED)
    workload.config = dataclasses.replace(workload.config, damping=0.5)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tempfile.TemporaryDirectory(dir=run.work_dir()) as out:
            code = tracer.run_op(0, True, workload.run, out)
            assert workload.check(code, out) == []
    finally:
        tracer.uninstall()

    def iterations(ops):
        return [s.attrs["iterations"] for s in ops.done("solver.fixed_point")]

    assert iterations(tracer.op_spans(0)) != iterations(traced["period-sweep"][1])
