#!/usr/bin/env python3
"""Write perfbench/reference.json: the seed-0 solutions every benchmark op
is checked against.

    python3 perfbench/make_reference.py

Stores truncated Fourier coefficients of the reference-solve trajectory
(as `periflow solve` writes it) and of the energy series E(t) behind every
sup_E the two sweeps report.  Afterwards it runs one seed-0 op of every
workload and requires its check to pass.  Rerun it only when the solution
itself is meant to change, and say why in the change that does.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import tempfile

import numpy as np

import run  # noqa: F401  (sets the BLAS thread variables and sys.path)
import workloads as wl
from periflow import cli, solver
from periflow.diagnostics import energy_E


def truncated_spectrum(samples, rel_tail=1e-13):
    """rfft of periodic samples (axis 0), cut after the last harmonic whose
    magnitude exceeds rel_tail times the largest; returns (re, im, tail)."""
    spec = np.fft.rfft(np.asarray(samples, dtype=float), axis=0)
    mag = np.abs(spec).reshape(spec.shape[0], -1).max(axis=1)
    keep = int(np.nonzero(mag > rel_tail * mag.max())[0][-1]) + 1
    tail = float(mag[keep:].max()) if keep < len(mag) else 0.0
    return spec[:keep].real.tolist(), spec[:keep].imag.tolist(), tail


def _energy_case(config, alpha=1.0):
    """Seed-0 E(t_j) of one coupled fixed point, computed as the sweeps do."""
    parts = solver.assemble_from_config(config)
    cfg = dataclasses.replace(wl.fixed_point_config(config), alpha=alpha)
    traj, _ = solver.fixed_point(parts["system"], cfg)
    E = energy_E(traj, parts["params"])[:-1]
    re, im, tail = truncated_spectrum(E)
    return {"sup_E": float(E.max()), "E_re": re, "E_im": im, "tail": tail}


def main():
    out = {"seed": 0}

    config = wl.seeded_config(0)
    with tempfile.TemporaryDirectory(dir=run.work_dir()) as tmp:
        code = cli.cmd_solve(config, tmp)
        if code != cli.EXIT_OK:
            sys.exit(f"reference solve exited with {code}")
        data = np.genfromtxt(f"{tmp}/trajectory.csv", delimiter=",", names=True)
    columns = list(data.dtype.names[1:])
    states = np.column_stack([data[c] for c in columns])[:-1]
    re, im, tail = truncated_spectrum(states)
    out[wl.ReferenceSolve.name] = {
        "n_steps": config.n_steps,
        "columns": columns,
        "spectrum_re": re,
        "spectrum_im": im,
        "tail": tail,
    }

    config = wl.seeded_config(0, n_steps=wl.SWEEP_STEPS)
    cases = []
    for factor in config.resonance_factors:
        sub = config.with_period(factor * config.params.natural_period)
        cases.append({"factor": factor, **_energy_case(sub)})
    out[wl.PeriodSweep.name] = {"n_steps": wl.SWEEP_STEPS, "cases": cases}

    config = wl.seeded_config(0, n_steps=wl.SWEEP_STEPS)
    cases = [{"alpha": a, **_energy_case(config, a)} for a in wl.HOMOTOPY_ALPHAS]
    out[wl.HomotopySweep.name] = {"n_steps": wl.SWEEP_STEPS, "cases": cases}

    with open(wl.REFERENCE_PATH, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")

    for name in wl.WORKLOADS:
        workload = wl.make_workload(name, 0)
        with tempfile.TemporaryDirectory(dir=run.work_dir()) as tmp:
            problems = workload.check(workload.run(tmp), tmp)
        if problems:
            sys.exit(f"{name}: seed-0 op fails its own reference: {problems}")
        print(f"{name}: seed-0 op matches the reference")
    return 0


if __name__ == "__main__":
    sys.exit(main())
