"""Command-line front end: outputs, determinism, exit codes."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

import periflow
from periflow.cli import (
    EXIT_CONFIG,
    EXIT_GATE,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    _write_csv,
    main,
)

CHEAP_SOLVE = (
    "flowrate:\n"
    "  period: {period}\n"
    "  harmonics: [[1, 0.0, -0.5]]\n"
    "solver:\n"
    "  n_modes: 4\n"
    "  n_steps: 2048\n"
)


def _write(tmp_path, text, name="run.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_poiseuille_outputs(tmp_path):
    out = tmp_path / "out"
    cfg = _write(tmp_path, CHEAP_SOLVE.format(period=2.0 * math.pi))
    assert main(["--config", cfg, "--out", str(out), "poiseuille"]) == EXIT_OK
    for name in ("profile.csv", "pressure_signal.json", "profile_norms.csv", "manifest.json"):
        assert (out / name).exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "poiseuille"
    assert len(manifest["config_hash"]) == 16
    # profile CSV: header plus one row per grid node, no-slip at both walls
    lines = (out / "profile.csv").read_text().strip().split("\n")
    header = lines[0].split(",")
    assert header[0] == "x2"
    first = [float(v) for v in lines[1].split(",")]
    last = [float(v) for v in lines[-1].split(",")]
    assert first[0] == -1.0 and last[0] == 1.0
    assert all(abs(v) <= 1e-10 for v in first[1:] + last[1:])


def _write_csv_per_value(path, header, rows):
    """The former CSV writer: one f"{float(x):.17g}" per value."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{float(x):.17g}" for x in row) + "\n")


def test_csv_writer_bytes_match_per_value_format(tmp_path):
    specials = [
        (math.nan, math.inf, -math.inf),
        (-0.0, 0.0, 1e-300),
        (3, -7, 2**52),
        (0.1, -1.0 / 3.0, 6.02214076e23),
    ]
    x = np.linspace(-1.0, 1.0, 7)
    cols = [x, np.sin(x), np.zeros(7)]
    cases = [
        (["a", "b", "c"], lambda: specials),
        (["x", "s", "z"], lambda: zip(*cols)),
        (["t", "u", "v"], lambda: np.column_stack(cols)),
        (["e", "f", "g"], lambda: []),
    ]
    for header, rows in cases:
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        _write_csv(str(got), header, rows())
        _write_csv_per_value(str(want), header, rows())
        assert got.read_bytes() == want.read_bytes()


def test_solve_outputs_and_determinism(tmp_path):
    cfg = _write(tmp_path, CHEAP_SOLVE.format(period=2.0 * math.pi))
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["--config", cfg, "--out", str(out), "solve"]) == EXIT_OK
        outs.append(out)
    for name in ("trajectory.csv", "ledger.json", "manifest.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    manifest = json.loads((outs[0] / "manifest.json").read_text())
    assert manifest["gates_green"] is True
    assert len(manifest["check_ids"]) == 12

    ledger = json.loads((outs[0] / "ledger.json").read_text())
    assert ledger["report"]["converged"] is True
    assert all(row["pass"] for row in ledger["diagnostics"]["rows"])

    # trajectory CSV shape: t, a1..a4, z, zdot over n_steps+1 samples
    data = np.loadtxt(outs[0] / "trajectory.csv", delimiter=",", skiprows=1)
    assert data.shape == (2049, 7)
    assert data[0, 0] == 0.0
    assert data[-1, 0] == pytest.approx(2.0 * math.pi)
    # first and last rows agree up to the periodicity defect
    assert np.max(np.abs(data[-1, 1:] - data[0, 1:])) <= 1e-6


def test_solve_loads_no_scipy(tmp_path):
    # a fresh interpreter, so that any import, deferred ones included,
    # shows in sys.modules after the run
    cfg = _write(tmp_path, CHEAP_SOLVE.format(period=2.0 * math.pi))
    script = (
        "import sys\n"
        "from periflow.cli import main\n"
        f"code = main(['--config', {cfg!r}, '--out', {str(tmp_path / 'o')!r}, 'solve'])\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(periflow.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=600
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"{EXIT_OK} []"


def test_solve_prints_ledger(tmp_path, capsys):
    cfg = _write(tmp_path, CHEAP_SOLVE.format(period=2.0 * math.pi))
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "solve"]) == EXIT_OK
    printed = capsys.readouterr().out
    ledger = json.loads((out / "ledger.json").read_text())
    for row in ledger["diagnostics"]["rows"]:
        assert row["check_id"] in printed


def test_homotopy_outputs(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        CHEAP_SOLVE.format(period=2.0 * math.pi).replace("2048", "256")
        + "  alphas: [0.5, 1.0]\n",
    )
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["--config", cfg, "--out", str(out), "homotopy"]) == EXIT_OK
        outs.append(out)
    table = (outs[0] / "homotopy.csv").read_bytes()
    assert table == (outs[1] / "homotopy.csv").read_bytes()
    lines = table.decode().strip().split("\n")
    assert lines[0] == "alpha,sup_E,iterations,residual"
    assert [float(ln.split(",")[0]) for ln in lines[1:]] == [0.5, 1.0]
    manifest = json.loads((outs[0] / "manifest.json").read_text())
    assert manifest["command"] == "homotopy"
    assert "max sup E" in capsys.readouterr().out


def test_resonance_outputs(tmp_path):
    cfg = _write(
        tmp_path,
        CHEAP_SOLVE.format(period=2.0 * math.pi)
        + "  resonance_factors: [1.0, 1.3]\n",
    )
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "resonance"]) == EXIT_OK
    lines = (out / "resonance.csv").read_text().strip().split("\n")
    assert lines[0].split(",")[0] == "period_factor"
    rows = [list(map(float, ln.split(","))) for ln in lines[1:]]
    assert len(rows) == 2
    by_factor = {r[0]: r for r in rows}
    # at the natural period the coupled solve converges, the bare oscillator
    # is singular; off resonance both behave
    assert by_factor[1.0][2] == 1.0 and by_factor[1.0][4] == 1.0
    assert by_factor[1.3][2] == 1.0 and by_factor[1.3][4] == 0.0


def test_resonance_on_an_unresolved_grid_is_config_error(tmp_path, capsys):
    """The coupled solve's ResolutionError ends the sweep with exit 3, as in
    `solve`, instead of a non-converged row."""
    cfg = _write(tmp_path, CHEAP_SOLVE.format(period=2.0 * math.pi).replace("2048", "3"))
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "resonance"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert "increase solver.n_steps" in err
    assert not (out / "resonance.csv").exists()


def _recording_fixed_point(monkeypatch, fail_at=()):
    """Record every coupled fixed point the resonance probe runs: its
    period, its start, and its trajectory and iterations; the calls
    numbered in `fail_at` (from 1) fail without converging."""
    from periflow import solver
    from periflow.errors import NoConvergence

    real = solver.fixed_point
    calls = []

    def recording(gsys, cfg, start=None):
        calls.append({"period": gsys.period, "start": start})
        if len(calls) in fail_at:
            raise NoConvergence([1.0])
        traj, report = real(gsys, cfg, start=start)
        calls[-1].update(trajectory=traj, iterations=report["iterations"])
        return traj, report

    monkeypatch.setattr(solver, "fixed_point", recording)
    return calls, real


def _resonance_rows(out_dir):
    return np.loadtxt(os.path.join(out_dir, "resonance.csv"), delimiter=",", skiprows=1)


def test_resonance_continues_each_period_from_the_last(tmp_path, monkeypatch):
    """Each period starts from the previous period's solution, rescaled in
    phase; it reaches the cold solve's energy in fewer iterations."""
    from periflow.cli import cmd_resonance
    from periflow.config import reference_config
    from periflow.diagnostics import energy_E
    from periflow.solver import assemble_from_config

    config = reference_config(n_steps=512)
    assert config.resonance_factors == (0.8, 1.0, 1.2)
    calls, cold_fixed_point = _recording_fixed_point(monkeypatch)
    assert cmd_resonance(config, str(tmp_path)) == EXIT_OK
    rows = _resonance_rows(tmp_path)
    assert calls[0]["start"] is None
    for prev, call in zip(calls, calls[1:]):
        start = call["start"]
        assert start.period == call["period"]
        assert np.array_equal(start.states, prev["trajectory"].states)
        ratio = prev["period"] / call["period"]
        assert np.array_equal(start.derivs, ratio * prev["trajectory"].derivs)

    basis = None
    for row, call in zip(rows, calls):
        parts = assemble_from_config(config.with_period(row[1]), basis=basis)
        basis = parts["basis"]
        traj, report = cold_fixed_point(parts["system"], config.build_fixed_point())
        sup_e = float(energy_E(traj, config.params).max())
        assert row[2] == 1.0 and row[3] == pytest.approx(sup_e, rel=1e-9)
        if call["start"] is not None:
            assert call["iterations"] < report["iterations"]


def test_failed_period_hands_on_no_start(tmp_path, monkeypatch):
    from periflow.cli import cmd_resonance
    from periflow.config import reference_config

    config = reference_config(n_steps=512)
    calls, _ = _recording_fixed_point(monkeypatch, fail_at=(2,))
    assert cmd_resonance(config, str(tmp_path)) == EXIT_OK
    rows = _resonance_rows(tmp_path)
    assert [call["start"] is None for call in calls] == [True, False, True]
    assert rows[:, 2].tolist() == [1.0, 0.0, 1.0]
    assert math.isnan(rows[1, 3]) and math.isfinite(rows[2, 3])


def test_overflowing_flow_rate_is_config_error(tmp_path, capsys):
    """At 4096 times the reference flow rate, past the smallness gate that
    `warn_only` lets through, RK4 at 2048 steps overflows in the map build:
    exit 3 with one line, and no RuntimeWarning escapes."""
    cfg = _write(
        tmp_path,
        "flowrate:\n"
        "  period: 6.283185307179586\n"
        "  harmonics: [[1, 0.0, -2048.0]]\n"
        "warn_only: true\n",
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["--config", cfg, "--out", str(tmp_path / "o"), "solve"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert "not finite" in err and "increase solver.n_steps" in err


def test_missing_config_file_is_config_error(tmp_path):
    assert main(["--config", str(tmp_path / "absent.yaml"), "solve"]) == EXIT_CONFIG


def test_unknown_key_is_config_error(tmp_path):
    cfg = _write(tmp_path, "wavelength: 3\n")
    assert main(["--config", cfg, "solve"]) == EXIT_CONFIG


def test_inverted_cutoff_is_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, "cutoff: {inner: 0.7, outer: 0.6}\n")
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "solve"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert "Traceback" not in err


# an external force box past the channel's end, one inside the body, and a
# force along no direction: each would run as if there were no force
NO_FLUID_BOXES = tuple(
    "forces:\n  tilde_f: {box: %s, direction: [0.0, 1.0], harmonics: [[1, 0.1, 0.0]]}\n" % box
    for box in ("[20, 21, -0.4, 0.4]", "[-0.2, 0.2, -0.1, 0.1]")
)
NO_DIRECTION = (
    "forces:\n  tilde_f: {box: [1.0, 2.0, -0.4, 0.4], direction: [0, 0],"
    " harmonics: [[1, 0.1, 0.0]]}\n"
)
# boxes that overlap the fluid but hold no mesh cell centre at the reference
# mesh_h 1/32, or only centres on the box edge, where the force's bump is
# zero: only the forcing stage can judge them
NO_CELL_BOXES = tuple(
    "forces: {tilde_f: {box: [%s, 6.5, -0.4, 0.4], direction: [1, 0],"
    " harmonics: [[1, 5.0, 0.0]]}}\n" % x0
    for x0 in ("5.99", "5.984375")
)

# message fragments that the error line of an invalid config must contain
_MESSAGE_PARTS = {
    "solver: {n_steps: 1}\n": ("'n_steps'", ">= 2"),
    "solver: {n_steps: 2.5}\n": ("'solver.n_steps'", "integer"),
    "solver: {n_steps: true}\n": ("'solver.n_steps'", "number"),
    "solver: {n_modes: 4.5}\n": ("'solver.n_modes'", "integer"),
    "solver: {profile_nodes: 9.5}\n": ("'solver.profile_nodes'", "integer"),
    "solver: {max_iter: true}\n": ("'solver.max_iter'", "number"),
    "flowrate: {period: 6.0, harmonics: [[true, 0.0, -0.5]]}\n": (
        "'flowrate.harmonics[0][0]'",
    ),
    "forces:\n  tilde_f: {box: [1.5, 1.2, -0.4, 0.4], direction: [0.0, 1.0],"
    " harmonics: [[1, 0.1, 0.0]]}\n": ("'forces.tilde_f.box'",),
    "output: {dir: null}\n": ("'output.dir'",),
    **{text: ("'forces.tilde_f.box'",) for text in NO_FLUID_BOXES},
    NO_DIRECTION: ("'forces.tilde_f.direction'",),
    **{
        text: ("'forces'", "'forces.tilde_f.box'", "'solver.mesh_h'")
        for text in NO_CELL_BOXES
    },
}


@pytest.mark.parametrize(
    "text",
    [
        # values that only the geometry, mesh and basis stages can judge
        "geometry: {body: [-0.5, 0.5, 0.2, 0.9]}\n",
        "geometry: {body: [-0.5, 0.5, 0.5, 1.2]}\n",
        "geometry: {half_length: 1.0}\n",
        "solver: {mesh_h: 0.5}\n",
        "solver: {n_modes: 40}\n",
        # values out of range or not finite
        "flowrate: {period: 6.0, harmonics: [[1, .nan, 0.0]]}\n",
        "flowrate: {period: 6.0, harmonics: [[1, 1.0e400, 0.0]]}\n",
        "forces:\n  tilde_f: {box: [1.0, 2.0, -0.4, 0.4], direction: [0.0, 1.0],"
        " harmonics: [[1, .nan, 0.0]]}\n",
        "forces:\n  tilde_g: {harmonics: [[0, 1.0e400, 0.0]]}\n",
        "flowrate: {period: .inf, harmonics: [[1, 0.0, -0.5]]}\n",
        "geometry: {half_length: .nan}\n",
        "solver: {damping: 1.5}\n",
        "solver: {resonance_factors: [0.0]}\n",
        "solver: {resonance_factors: [-1.0]}\n",
        "solver: {resonance_factors: [.nan]}\n",
        "solver: {alphas: [0.0]}\n",
        "solver: {alphas: [1.5]}\n",
        "solver: {alphas: []}\n",
        "solver: {resonance_factors: []}\n",
        # harmonics that are not those of a real signal
        "flowrate: {period: 6.0, harmonics: [[0, 1.0, 0.5]]}\n",
        "flowrate: {period: 6.0, harmonics: [[1, 0.0, -0.5], [-1, 0.0, 0.7]]}\n",
        "forces: {tilde_g: {harmonics: [[0, 1.0, 0.3]]}}\n",
        # time or profile grid too coarse for the flow rate
        "solver: {n_steps: 128}\n",
        "solver: {n_steps: 64}\n",
        "solver: {profile_nodes: 5}\nflowrate: {period: 0.01, harmonics: [[1, 0.0, -0.5]]}\n",
        # a step count below the range check's own bound
        "solver: {n_steps: 1}\n",
        # integer fields given a fraction or a boolean
        "solver: {n_steps: 2.5}\n",
        "solver: {n_steps: true}\n",
        "solver: {n_modes: 4.5}\n",
        "solver: {profile_nodes: 9.5}\n",
        "solver: {max_iter: true}\n",
        "flowrate: {period: 6.0, harmonics: [[true, 0.0, -0.5]]}\n",
        # an external force box with x0 > x1
        "forces:\n  tilde_f: {box: [1.5, 1.2, -0.4, 0.4], direction: [0.0, 1.0],"
        " harmonics: [[1, 0.1, 0.0]]}\n",
        # an output directory that is not a string
        "output: {dir: null}\n",
        # an external force that acts on no fluid
        *NO_FLUID_BOXES,
        NO_DIRECTION,
        *NO_CELL_BOXES,
    ],
)
def test_invalid_config_is_config_error(tmp_path, capsys, text):
    cfg = _write(tmp_path, text)
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "solve"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    for part in _MESSAGE_PARTS.get(text, ()):
        assert part in err


def test_resonance_builds_one_basis(tmp_path, monkeypatch):
    import periflow.basis

    calls = []
    build_basis = periflow.basis.build_basis

    def counting(*args, **kwargs):
        calls.append(args)
        return build_basis(*args, **kwargs)

    monkeypatch.setattr(periflow.basis, "build_basis", counting)
    cfg = _write(
        tmp_path,
        CHEAP_SOLVE.format(period=2.0 * math.pi).replace("2048", "256")
        + "  resonance_factors: [0.8, 1.0, 1.2]\n",
    )
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "resonance"]) == EXIT_OK
    assert len(calls) == 1
    assert len((out / "resonance.csv").read_text().strip().split("\n")) == 4


def test_empty_resonance_factors_is_config_error(tmp_path):
    cfg = _write(
        tmp_path,
        CHEAP_SOLVE.format(period=2.0 * math.pi) + "  resonance_factors: []\n",
    )
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "resonance"]) == EXIT_CONFIG


def test_smallness_violation_is_gate_failure(tmp_path):
    cfg = _write(
        tmp_path,
        "flowrate:\n"
        "  period: {:.17g}\n"
        "  harmonics: [[1, 0.0, -250.0]]\n"
        "solver:\n"
        "  n_modes: 4\n"
        "  n_steps: 1024\n".format(2.0 * math.pi),
    )
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "solve"]) == EXIT_GATE


def test_non_convergence_exit_code(tmp_path):
    cfg = _write(
        tmp_path,
        CHEAP_SOLVE.format(period=2.0 * math.pi) + "  max_iter: 1\n",
    )
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "solve"]) == EXIT_NO_CONVERGENCE


def test_non_finite_iterate_exit_code(tmp_path, capsys, nan_map_after):
    nan_map_after(0)
    cfg = _write(tmp_path, CHEAP_SOLVE.format(period=2.0 * math.pi))
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "solve"]) == EXIT_NO_CONVERGENCE
    err = capsys.readouterr().err
    assert err.startswith("solver did not converge: ") and err.count("\n") == 1
    assert "non-finite" in err and "Traceback" not in err


def test_negative_seed_override_is_config_error(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["--out", str(out), "--seed", "-1", "solve"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert "'seed'" in err and "Traceback" not in err
    assert not (out / "manifest.json").exists()


def test_external_force_period_key_is_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, "forces:\n  tilde_g: {period: 2.0, harmonics: [[0, 0.2, 0.0]]}\n")
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "solve"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert "'period'" in err and "forces.tilde_g" in err


def test_seed_override_recorded(tmp_path):
    cfg = _write(tmp_path, CHEAP_SOLVE.format(period=2.0 * math.pi))
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "--seed", "5", "poiseuille"]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 5


_SCHEMA = {
    "geometry": ("half_length", "body"),
    "params": ("rho", "mu", "mass", "stiffness"),
    "flowrate": ("period", "harmonics"),
    "cutoff": ("inner", "outer"),
    "forces": ("tilde_f", "tilde_g"),
    "solver": (
        "n_modes", "n_steps", "mesh_h", "profile_nodes", "damping", "tol",
        "max_iter", "alphas", "resonance_factors",
    ),
    "output": ("dir",),
    "seed": (),
    "warn_only": (),
}
_KEYS = sorted({k for sub in _SCHEMA.values() for k in sub} | set(_SCHEMA) | {"box", "direction"})
_SCALARS = st.one_of(
    st.sampled_from([0, 1, -1, 2, 3, 0.5, -0.5, 1e-3, math.nan, math.inf, -math.inf]),
    st.integers(-5, 300),
    st.floats(-10.0, 10.0),
    st.text("ab1.-", max_size=4),
    st.booleans(),
    st.none(),
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_KEYS), inner, max_size=3),
    max_leaves=8,
)
_CONFIGS = st.fixed_dictionaries(
    {},
    optional={
        name: _VALUES | st.dictionaries(st.sampled_from(sub or ("x",)), _VALUES, max_size=3)
        for name, sub in _SCHEMA.items()
    },
)


@settings(max_examples=50, deadline=None)
@given(_CONFIGS)
def test_random_config_ends_in_documented_exit(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/run.yaml"
        with open(path, "w") as fh:
            yaml.safe_dump(data, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["--config", path, "--out", f"{tmp}/out", "poiseuille"])
    assert code in (EXIT_OK, EXIT_GATE, EXIT_CONFIG, EXIT_NO_CONVERGENCE)
    assert err.getvalue().count("\n") <= 1 and "Traceback" not in err.getvalue()
