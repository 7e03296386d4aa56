"""Batch command-line front end.

Subcommands:
  poiseuille  channel-profile solve: per-harmonic profiles, pressure signal,
              profile-norm table
  solve       full periodic solve: trajectory CSV, diagnostics ledger,
              run manifest
  resonance   period sweep around the oscillator's natural period, each
              period continued from the previous one: coupled vs decoupled
              outcome table
  homotopy    forcing-scale sweep over the config's alphas: sup E, iterations
              and residual per scale

Exit codes: 0 success, 2 diagnostic gate failure, 3 configuration error,
4 solver non-convergence.  Outputs are deterministic for a fixed config, and
every file records the configuration hash.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .config import load_config, reference_config
from .errors import BasisError, ConfigError, GeometryError, MeshError
from .errors import NoConvergence, PeriflowError, ResolutionError, StageError

EXIT_OK = 0
EXIT_GATE = 2
EXIT_CONFIG = 3
EXIT_NO_CONVERGENCE = 4


def _write_csv(path, header, rows):
    """Header, then every value of `rows` (an iterable of equal-length
    numeric rows) as a float in "%.17g", one line per row."""
    values = np.array(list(rows), dtype=float)
    line = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.write(line * len(values) % tuple(values.ravel().tolist()))


def _write_json(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _manifest(config, extra):
    data = {
        "config_hash": config.config_hash(),
        "seed": config.seed,
        "config": config.to_json_dict(),
    }
    data.update(extra)
    return data


def cmd_poiseuille(config, out_dir):
    from .womersley import chi_norm_report, solve_poiseuille

    phi = config.build_flowrate()
    flow = solve_poiseuille(phi, config.params, n_nodes=config.profile_nodes)

    header = ["x2"]
    cols = [flow.x2]
    for k in flow.harmonics:
        header += [f"chi{k}_re", f"chi{k}_im"]
        chi = flow.chi[k]
        cols += [np.real(chi), np.imag(chi)]
    _write_csv(os.path.join(out_dir, "profile.csv"), header, zip(*cols))

    _write_json(
        os.path.join(out_dir, "pressure_signal.json"),
        flow.pressure_factor_signal.to_json_dict(),
    )

    rows = chi_norm_report(flow)
    _write_csv(
        os.path.join(out_dir, "profile_norms.csv"),
        ["order", "wk_w22", "ck_w12", "wk1_l2", "phi_norm"],
        [(r.order, r.wk_w22, r.ck_w12, r.wk1_l2, r.phi_norm) for r in rows],
    )
    _write_json(
        os.path.join(out_dir, "manifest.json"),
        _manifest(config, {"command": "poiseuille", "harmonics": list(flow.harmonics)}),
    )
    return EXIT_OK


def cmd_solve(config, out_dir):
    from .solver import galerkin_solve

    result = galerkin_solve(config)
    traj = result.trajectory
    n = traj.states.shape[1] - 1

    header = ["t"] + [f"a{i+1}" for i in range(n)] + ["z", "zdot"]
    rows = np.column_stack([traj.times, traj.states, traj.derivs[:, -1]])
    _write_csv(os.path.join(out_dir, "trajectory.csv"), header, rows)

    ledger = {
        "report": {
            "iterations": result.report["iterations"],
            "residual": result.report["residual"],
            "periodicity_defect": result.report["periodicity_defect"],
            "converged": result.report["converged"],
            "smallness": result.report["smallness"],
            "c_q": result.report["c_q"],
        },
        "diagnostics": result.diagnostics,
        "warnings": list(result.warnings),
    }
    _write_json(os.path.join(out_dir, "ledger.json"), ledger)

    gates_ok = all(row["pass"] for row in result.diagnostics["rows"])
    _write_json(
        os.path.join(out_dir, "manifest.json"),
        _manifest(
            config,
            {
                "command": "solve",
                "gates_green": bool(gates_ok and not result.warnings),
                "warnings": list(result.warnings),
                "check_ids": [row["check_id"] for row in result.diagnostics["rows"]],
            },
        ),
    )
    return EXIT_OK if gates_ok else EXIT_GATE


def cmd_resonance(config, out_dir):
    from .diagnostics import resonance_probe
    from .solver import assemble_from_config

    t_nat = config.params.natural_period
    fp_cfg = config.build_fixed_point()
    rows = []
    basis = None  # built for the first factor, shared by the later ones
    last = None  # the previous period's converged trajectory
    for factor in config.resonance_factors:
        period = factor * t_nat
        parts = assemble_from_config(config.with_period(period), basis=basis)
        basis = parts["basis"]
        # natural-parameter continuation in the period: start from the
        # previous period's solution, rescaled in phase to this period
        start = None if last is None else last.with_period(period)
        probe = resonance_probe(parts["system"], fp_cfg, start=start)
        # each system holds its carrier fields; free this one before the next
        # period's assembly, which would otherwise peak with both alive
        del parts, start
        coupled = probe["coupled"]
        last = coupled.get("trajectory")  # a failed solve hands on no start
        rows.append(
            (
                factor,
                period,
                1.0 if coupled.get("converged") else 0.0,
                coupled.get("sup_E", math.nan),
                1.0 if probe["decoupled"].get("singular") else 0.0,
            )
        )
    _write_csv(
        os.path.join(out_dir, "resonance.csv"),
        ["period_factor", "period", "coupled_converged", "sup_E", "decoupled_singular"],
        rows,
    )
    _write_json(
        os.path.join(out_dir, "manifest.json"),
        _manifest(
            config,
            {"command": "resonance", "natural_period": t_nat},
        ),
    )
    return EXIT_OK


def cmd_homotopy(config, out_dir):
    from .solver import assemble_from_config, homotopy_sweep

    parts = assemble_from_config(config)
    rows, _ = homotopy_sweep(parts["system"], config.alphas, config.build_fixed_point())
    _write_csv(
        os.path.join(out_dir, "homotopy.csv"),
        ["alpha", "sup_E", "iterations", "residual"],
        [(r["alpha"], r["sup_E"], r["iterations"], r["residual"]) for r in rows],
    )
    _write_json(
        os.path.join(out_dir, "manifest.json"),
        _manifest(config, {"command": "homotopy"}),
    )
    return EXIT_OK


def _print_solve(config, out_dir):
    with open(os.path.join(out_dir, "ledger.json")) as fh:
        ledger = json.load(fh)
    rep = ledger["report"]
    print(f"config hash: {config.config_hash()}")
    print(f"converged in {rep['iterations']} iterations, residual {rep['residual']:.3e}")
    print(f"{'check':34s} {'lhs':>12s} {'rhs':>12s}  result")
    for row in ledger["diagnostics"]["rows"]:
        status = "pass" if row["pass"] else "FAIL"
        print(f"{row['check_id']:34s} {row['lhs']:12.4e} {row['rhs']:12.4e}  {status}")
    series = ledger["diagnostics"]["series"]
    print(
        f"sup E = {series['E_max']:.6f}, sup G = {series['G_max']:.6f}, "
        f"delta = {series['delta']:.4f}"
    )


def _print_table(path):
    with open(path) as fh:
        print(fh.read().rstrip())


def _print_resonance(config, out_dir):
    _print_table(os.path.join(out_dir, "resonance.csv"))


def _print_homotopy(config, out_dir):
    path = os.path.join(out_dir, "homotopy.csv")
    _print_table(path)
    sup_e = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 1]
    print(f"max sup E over the sweep: {sup_e.max():.6f}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="periflow",
        description="Periodic channel-flow / oscillating-body solver",
    )
    parser.add_argument("--config", help="YAML configuration file (default: built-in reference setup)")
    parser.add_argument("--out", help="output directory (default: from config)")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument(
        "--warn-only",
        action="store_true",
        help="downgrade data-smallness gate failures to warnings",
    )
    parser.add_argument(
        "command",
        choices=["poiseuille", "solve", "resonance", "homotopy"],
        help="what to run",
    )
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config) if args.config else reference_config()
        overrides = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.warn_only:
            overrides["warn_only"] = True
        if overrides:
            config = dataclasses.replace(config, **overrides)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = args.out or config.output_dir
    os.makedirs(out_dir, exist_ok=True)

    handler, summary = {
        "poiseuille": (cmd_poiseuille, None),
        "solve": (cmd_solve, _print_solve),
        "resonance": (cmd_resonance, _print_resonance),
        "homotopy": (cmd_homotopy, _print_homotopy),
    }[args.command]
    try:
        code = handler(config, out_dir)
    except PeriflowError as exc:
        # geometry, mesh, basis and resolution failures come from the config
        # values (resolution: solver.n_steps or solver.profile_nodes too small)
        cause = exc.original if isinstance(exc, StageError) else exc
        config_causes = (ConfigError, GeometryError, MeshError, BasisError, ResolutionError)
        if isinstance(cause, config_causes):
            print(f"configuration error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        if isinstance(cause, NoConvergence):
            print(f"solver did not converge: {exc}", file=sys.stderr)
            return EXIT_NO_CONVERGENCE
        prefix = "pipeline failure" if isinstance(exc, StageError) else "error"
        print(f"{prefix}: {exc}", file=sys.stderr)
        return EXIT_GATE
    if summary is not None:
        summary(config, out_dir)
    return code


if __name__ == "__main__":
    sys.exit(main())
