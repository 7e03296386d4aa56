"""The benchmark's three workloads: generated configs, one op each, and the
correctness check every op must pass.

The workload seed rotates the phase of every flow-rate harmonic,
c_k -> c_k e^{ik theta}.  The periodic solution of the rotated problem is the
seed-0 solution shifted in time by theta / omega, so one stored seed-0
reference (``reference.json``, written by ``make_reference.py``) checks
every seed: its Fourier coefficients are multiplied by e^{ik theta} and
sampled on the op's time grid.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os

import numpy as np

from periflow import cli, solver
from periflow.config import SignalSpec, reference_config

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))

# The sweeps' step count.  The reference solve keeps the reference config's
# 2048 steps, so a kernel change that helps long RK4 loops but costs short
# ones shows on one side.
SWEEP_STEPS = 512
HOMOTOPY_ALPHAS = (0.25, 0.5, 0.75, 1.0)

# Relative tolerances of the checks.  The fixed point stops at a relative
# iterate distance of 1e-9, so any converging iteration path (acceleration,
# warm starts, a reordered RK4 sweep) lands within about 1e-9 of the stored
# solution; the seed shift itself reproduces it to about 1e-13.  A wrong
# answer is off by far more than 1e-7.
TRAJECTORY_RTOL = 1e-7
SUP_E_RTOL = 1e-7


def phase(seed):
    """Rotation angle of the flow-rate harmonics for a workload seed
    (0 for seed 0, then successive golden-angle turns)."""
    return (seed * GOLDEN_ANGLE) % (2.0 * math.pi)


def seeded_config(seed, **overrides):
    """Reference config with the seed set and every harmonic rotated."""
    config = reference_config(seed=seed, **overrides)
    theta = phase(seed)
    rotated = []
    for k, re, im in config.flowrate.harmonics:
        c = complex(re, im) * complex(math.cos(k * theta), math.sin(k * theta))
        rotated.append((k, c.real, c.imag))
    flowrate = SignalSpec(config.flowrate.period, tuple(rotated))
    return dataclasses.replace(config, flowrate=flowrate)


def fixed_point_config(config):
    return solver.FixedPointConfig(
        damping=config.damping,
        tol=config.fixed_point_tol,
        max_iter=config.max_iter,
        n_steps=config.n_steps,
    )


def shifted_samples(re, im, n, theta):
    """Samples on an n-point grid of the stored seed-0 series shifted by the
    phase theta (the series of the rotated problem)."""
    spec = np.zeros((n // 2 + 1,) + np.shape(re)[1:], dtype=complex)
    kept = np.asarray(re) + 1j * np.asarray(im)
    spec[: len(kept)] = kept
    k = np.arange(n // 2 + 1).reshape((-1,) + (1,) * (spec.ndim - 1))
    return np.fft.irfft(spec * np.exp(1j * k * theta), n=n, axis=0)


def _check_sup_e(problems, label, got, case, n, theta):
    want = float(shifted_samples(case["E_re"], case["E_im"], n, theta).max())
    err = abs(got - want) / (1.0 + abs(want))
    if not err <= SUP_E_RTOL:
        problems.append(f"{label}: sup_E {got!r} vs reference {want!r} (rel {err:.2e})")


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


class Workload:
    """A seeded config, one op (`run`) and its check (`check`, which returns
    the list of problems found; empty when the op is correct)."""

    name = None
    overrides = {}

    def __init__(self, seed, reference):
        self.seed = seed
        self.theta = phase(seed)
        self.config = seeded_config(seed, **self.overrides)
        self.reference = reference[self.name]


class ReferenceSolve(Workload):
    """`periflow solve` on the reference config (2048 steps, 8 modes)."""

    name = "reference-solve"

    def run(self, out_dir):
        return cli.cmd_solve(self.config, out_dir)

    def check(self, code, out_dir):
        problems = []
        if code != cli.EXIT_OK:
            problems.append(f"exit code {code}")
        manifest = _read_json(os.path.join(out_dir, "manifest.json"))
        ledger = _read_json(os.path.join(out_dir, "ledger.json"))
        if not manifest["gates_green"]:
            problems.append("manifest gates_green is false")
        red = [r["check_id"] for r in ledger["diagnostics"]["rows"] if not r["pass"]]
        if red or not ledger["report"]["converged"]:
            problems.append(f"ledger not green: failing rows {red}")
        with open(os.path.join(out_dir, "trajectory.csv")) as fh:
            rows = list(csv.reader(fh))
        ref = self.reference
        if rows[0][1:] != ref["columns"]:
            problems.append(f"trajectory columns {rows[0][1:]} != {ref['columns']}")
            return problems
        got = np.array(rows[1:], dtype=float)[:, 1:]
        n = ref["n_steps"]
        if got.shape != (n + 1, len(ref["columns"])):
            problems.append(f"trajectory shape {got.shape}")
            return problems
        want = shifted_samples(ref["spectrum_re"], ref["spectrum_im"], n, self.theta)
        err = float(np.abs(got[:-1] - want).max())
        tol = TRAJECTORY_RTOL * (1.0 + float(np.abs(want).max()))
        if not err <= tol:
            problems.append(f"trajectory off the shifted reference by {err:.3e} > {tol:.3e}")
        return problems


class PeriodSweep(Workload):
    """`periflow resonance` over the reference factors at 512 steps."""

    name = "period-sweep"
    overrides = {"n_steps": SWEEP_STEPS}

    def run(self, out_dir):
        return cli.cmd_resonance(self.config, out_dir)

    def check(self, code, out_dir):
        problems = []
        if code != cli.EXIT_OK:
            problems.append(f"exit code {code}")
        with open(os.path.join(out_dir, "resonance.csv")) as fh:
            rows = list(csv.DictReader(fh))
        cases = self.reference["cases"]
        if [float(r["period_factor"]) for r in rows] != [c["factor"] for c in cases]:
            problems.append(f"resonance rows {[r['period_factor'] for r in rows]}")
            return problems
        for row, case in zip(rows, cases):
            label = f"factor {case['factor']}"
            if float(row["coupled_converged"]) != 1.0:
                problems.append(f"{label}: coupled solve did not converge")
                continue
            singular = float(row["decoupled_singular"]) == 1.0
            if singular != (case["factor"] == 1.0):
                problems.append(f"{label}: decoupled_singular={singular}")
            _check_sup_e(problems, label, float(row["sup_E"]), case, SWEEP_STEPS, self.theta)
        return problems


class HomotopySweep(Workload):
    """`homotopy_sweep` over four forcing scales on one assembled system."""

    name = "homotopy-sweep"
    overrides = {"n_steps": SWEEP_STEPS, "alphas": HOMOTOPY_ALPHAS}

    def run(self, out_dir):
        parts = solver.assemble_from_config(self.config)
        rows, _ = solver.homotopy_sweep(
            parts["system"], self.config.alphas, fixed_point_config(self.config)
        )
        return rows

    def check(self, rows, out_dir):
        problems = []
        cases = self.reference["cases"]
        if [r["alpha"] for r in rows] != [c["alpha"] for c in cases]:
            problems.append(f"homotopy alphas {[r['alpha'] for r in rows]}")
            return problems
        for row, case in zip(rows, cases):
            label = f"alpha {case['alpha']}"
            if not row["iterations"] <= self.config.max_iter:
                problems.append(f"{label}: {row['iterations']} iterations")
            _check_sup_e(problems, label, row["sup_E"], case, SWEEP_STEPS, self.theta)
        return problems


WORKLOADS = {w.name: w for w in (ReferenceSolve, PeriodSweep, HomotopySweep)}


def load_reference():
    return _read_json(REFERENCE_PATH)


def make_workload(name, seed):
    return WORKLOADS[name](seed, load_reference())

