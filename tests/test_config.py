"""Configuration parsing, validation messages, and hashing."""

import math
import os
import re
from dataclasses import replace

import pytest
import yaml

from periflow.config import (
    _SCHEMA,
    RunConfig,
    SignalSpec,
    load_config,
    parse_config,
    reference_config,
)
from periflow.errors import ConfigError

NAN = float("nan")
FORCE_BOX = {"box": [1.0, 2.0, -0.4, 0.4], "direction": [0.0, 1.0]}
FORCE_F = {**FORCE_BOX, "harmonics": [[1, 0.1, 0.0]]}


def test_defaults_build():
    cfg = RunConfig()
    assert cfg.n_modes == 8
    assert cfg.params.rho == 1.0
    geom = cfg.build_geometry()
    assert geom.half_length == 6.0
    phi = cfg.build_flowrate()
    assert phi.period == pytest.approx(2.0 * math.pi)
    assert phi(phi.period / 4.0) == pytest.approx(1.0, abs=1e-12)


def test_parse_empty_mapping_gives_defaults():
    assert parse_config({}) == RunConfig()


def test_parse_full_document():
    cfg = parse_config(
        {
            "geometry": {"half_length": 7.0, "body": [-0.4, 0.4, -0.2, 0.2]},
            "params": {"rho": 2.0, "stiffness": 3.0},
            "flowrate": {"period": 1.0, "harmonics": [[1, 0.1, -0.2]]},
            "cutoff": {"inner": 0.1, "outer": 0.5},
            "solver": {
                "n_modes": 6,
                "n_steps": 512,
                "mesh_h": 0.05,
                "tol": 1e-8,
                "alphas": [0.5, 1.0],
            },
            "output": {"dir": "results"},
            "seed": 3,
            "warn_only": True,
        }
    )
    assert cfg.half_length == 7.0
    assert cfg.params.rho == 2.0 and cfg.params.stiffness == 3.0
    assert cfg.flowrate == SignalSpec(1.0, ((1, 0.1, -0.2),))
    assert cfg.cutoff_inner == 0.1
    assert cfg.n_modes == 6 and cfg.fixed_point_tol == 1e-8
    assert cfg.alphas == (0.5, 1.0)
    assert cfg.output_dir == "results" and cfg.seed == 3 and cfg.warn_only


@pytest.mark.parametrize(
    "doc, fragment",
    [
        ({"bogus": 1}, "bogus"),
        ({"geometry": {"radius": 2}}, "radius"),
        ({"geometry": {"body": [1, 2, 3]}}, "geometry.body"),
        ({"flowrate": {"period": 1, "harmonics": [[1, 0.0]]}}, "flowrate.harmonics[0]"),
        ({"flowrate": {"period": -1, "harmonics": []}}, "flowrate.period"),
        ({"flowrate": {"harmonics": [[1.5, 0.0, 0.0]], "period": 1}}, "integer"),
        ({"solver": {"n_modes": "many"}}, "solver.n_modes"),
        ({"seed": -1}, "seed"),
        ({"warn_only": "yes"}, "warn_only"),
        ({"forces": {"tilde_f": {"box": [0, 1, 0, 1]}}}, "direction"),
        ({"cutoff": {"inner": 0.7, "outer": 0.6}}, "cutoff"),
        ({"cutoff": {"inner": 0.6, "outer": 0.6}}, "cutoff"),
        ({"cutoff": {"inner": 0.0}}, "cutoff"),
        ({"flowrate": {"period": 1, "harmonics": [[1, NAN, 0.0]]}}, "flowrate.harmonics[0]"),
        ({"flowrate": {"period": 1, "harmonics": [[1, 0.0, "1.0e400"]]}}, "flowrate.harmonics[0]"),
        ({"forces": {"tilde_f": {**FORCE_BOX, "harmonics": [[1, NAN, 0.0]]}}}, "tilde_f.harmonics[0]"),
        ({"forces": {"tilde_g": {"harmonics": [[0, math.inf, 0.0]]}}}, "tilde_g.harmonics[0]"),
        ({"flowrate": {"period": math.inf, "harmonics": []}}, "flowrate.period"),
        ({"geometry": {"half_length": NAN}}, "geometry.half_length"),
        ({"solver": {"damping": 1.5}}, "damping"),
        ({"solver": {"resonance_factors": [0.0]}}, "resonance_factors"),
        ({"solver": {"resonance_factors": [-1.0]}}, "resonance_factors"),
        ({"solver": {"resonance_factors": [NAN]}}, "resonance_factors"),
        ({"solver": {"alphas": [0.0, 1.0]}}, "alphas"),
        ({"solver": {"alphas": [1.5]}}, "alphas"),
        ({"flowrate": {"period": 6.0, "harmonics": [[0, 1.0, 0.5]]}}, "flowrate.harmonics"),
        (
            {"flowrate": {"period": 6.0, "harmonics": [[1, 0.0, -0.5], [-1, 0.0, 0.7]]}},
            "flowrate.harmonics",
        ),
        ({"flowrate": {"period": 6.0, "harmonics": [[1, 0.0, -0.5], [1, 0.0, 0.2]]}}, "duplicate"),
        ({"forces": {"tilde_g": {"harmonics": [[0, 1.0, 0.3]]}}}, "tilde_g.harmonics"),
        ({"solver": {"alphas": []}}, "alphas"),
        ({"solver": {"resonance_factors": []}}, "resonance_factors"),
        ({"solver": {"n_steps": 2.5}}, "solver.n_steps"),
        ({"solver": {"n_steps": True}}, "solver.n_steps"),
        ({"solver": {"n_modes": 6.5}}, "solver.n_modes"),
        ({"solver": {"profile_nodes": False}}, "solver.profile_nodes"),
        ({"solver": {"max_iter": 20.5}}, "solver.max_iter"),
        ({"solver": {"damping": True}}, "solver.damping"),
        ({"flowrate": {"period": 1, "harmonics": [[True, 0.0, 0.0]]}}, "harmonics[0][0]"),
        ({"flowrate": {"period": True, "harmonics": []}}, "flowrate.period"),
        ({"seed": True}, "seed"),
        ({"seed": 1.5}, "seed"),
        ({"forces": {"tilde_f": {**FORCE_F, "box": [1.5, 1.2, -0.4, 0.4]}}}, "forces.tilde_f.box"),
        ({"forces": {"tilde_f": {**FORCE_F, "box": [1.0, 2.0, 0.4, 0.4]}}}, "forces.tilde_f.box"),
        ({"output": {"dir": None}}, "output.dir"),
        ({1: 2, "bogus": 3}, "bogus"),
        ({"output": {"dir": 3}}, "output.dir"),
        ({"forces": {"tilde_g": {"period": 2.0, "harmonics": [[0, 0.2, 0.0]]}}}, "'period'"),
        ({"forces": {"tilde_f": {**FORCE_F, "period": 2.0}}}, "'period'"),
        # a force that acts on no fluid: past the channel's end, inside the
        # body, or along no direction
        ({"forces": {"tilde_f": {**FORCE_F, "box": [20, 21, -0.4, 0.4]}}}, "forces.tilde_f.box"),
        ({"forces": {"tilde_f": {**FORCE_F, "box": [-0.2, 0.2, -0.1, 0.1]}}}, "forces.tilde_f.box"),
        ({"forces": {"tilde_f": {**FORCE_F, "direction": [0, 0]}}}, "forces.tilde_f.direction"),
    ],
)
def test_parse_errors_name_the_field(doc, fragment):
    with pytest.raises(ConfigError) as exc_info:
        parse_config(doc)
    assert fragment in str(exc_info.value)


def test_integral_floats_read_as_integers():
    cfg = parse_config(
        {
            "flowrate": {"period": 1.0, "harmonics": [[1.0, 0.1, -0.2]]},
            "solver": {"n_steps": 2048.0, "n_modes": 6.0, "max_iter": 20.0},
            "seed": 3.0,
        }
    )
    assert cfg.flowrate.harmonics == ((1, 0.1, -0.2),)
    assert (cfg.n_steps, cfg.n_modes, cfg.max_iter, cfg.seed) == (2048, 6, 20, 3)
    assert all(type(v) is int for v in (cfg.n_steps, cfg.n_modes, cfg.max_iter, cfg.seed))


def test_dataclass_validation():
    with pytest.raises(ConfigError):
        RunConfig(mesh_h=0.0)
    with pytest.raises(ConfigError):
        RunConfig(profile_nodes=256)
    with pytest.raises(ConfigError):
        RunConfig(n_modes=0)


def test_replace_meets_the_same_bounds():
    with pytest.raises(ConfigError, match="seed"):
        RunConfig(seed=-1)
    with pytest.raises(ConfigError, match="seed"):
        replace(RunConfig(), seed=-1)
    with pytest.raises(ConfigError, match="warn_only"):
        replace(RunConfig(), warn_only="yes")
    with pytest.raises(ConfigError, match="damping"):
        replace(RunConfig(), damping=0.0)
    with pytest.raises(ConfigError, match="profile_nodes"):
        replace(RunConfig(), profile_nodes=9.5)
    with pytest.raises(ConfigError, match="n_steps"):
        replace(RunConfig(), n_steps=True)


def test_external_force_inherits_flowrate_period():
    cfg = parse_config(
        {
            "flowrate": {"period": 2.0, "harmonics": [[1, 0.0, -0.5]]},
            "forces": {
                "tilde_f": {
                    "box": [1.0, 2.0, -0.4, 0.4],
                    "direction": [0.0, 1.0],
                    "harmonics": [[1, 0.1, 0.0]],
                },
                "tilde_g": {"harmonics": [[0, 0.2, 0.0]]},
            },
        }
    )
    assert cfg.tilde_f.signal.period == 2.0
    assert cfg.tilde_g.period == 2.0
    tf, tg = cfg.build_external_forces()
    assert tf.signal.period == 2.0
    assert tg(0.0) == pytest.approx(0.2)


def test_external_forces_take_the_flowrate_period_when_built_directly():
    cfg = RunConfig(tilde_g=SignalSpec(3.0, ((0, 0.2, 0.0),)))
    assert cfg.tilde_g == SignalSpec(cfg.flowrate.period, ((0, 0.2, 0.0),))


def test_with_period_rescales_all_signals():
    cfg = parse_config(
        {
            "flowrate": {"period": 2.0, "harmonics": [[1, 0.0, -0.5]]},
            "forces": {"tilde_g": {"harmonics": [[1, 0.1, 0.0]]}},
        }
    )
    moved = cfg.with_period(5.0)
    assert moved.flowrate.period == 5.0
    assert moved.tilde_g.period == 5.0
    assert moved.flowrate.harmonics == cfg.flowrate.harmonics


def test_config_hash_stable_and_sensitive():
    a = reference_config()
    b = reference_config()
    assert a.config_hash() == b.config_hash()
    c = reference_config(n_steps=1024)
    assert c.config_hash() != a.config_hash()
    assert len(a.config_hash()) == 16


def test_load_config_yaml_roundtrip(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(
        "geometry:\n  half_length: 6.5\n"
        "solver:\n  n_modes: 5\n  n_steps: 512\n"
        "seed: 11\n"
    )
    cfg = load_config(str(path))
    assert cfg.half_length == 6.5
    assert cfg.n_modes == 5 and cfg.n_steps == 512 and cfg.seed == 11


def test_load_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/run.yaml")


@pytest.mark.parametrize("text", ["", "# nothing set\n"])
def test_load_config_empty_file_gives_defaults(tmp_path, text):
    path = tmp_path / "run.yaml"
    path.write_text(text)
    assert load_config(str(path)) == RunConfig()


@pytest.mark.parametrize("text", ["[]\n", "0\n", "false\n"])
def test_load_config_non_mapping_document(tmp_path, text):
    path = tmp_path / "run.yaml"
    path.write_text(text)
    with pytest.raises(ConfigError, match="must be a mapping"):
        load_config(str(path))


def test_load_config_bad_yaml(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("geometry: [unclosed\n")
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_signal_spec_build_matches_closed_form():
    spec = SignalSpec(2.0 * math.pi, ((0, 0.3, 0.0), (2, 0.0, -0.5)))
    sig = spec.build()
    for t in (0.0, 0.4, 1.7):
        expect = 0.3 + math.sin(2.0 * t)
        assert sig(t) == pytest.approx(expect, abs=1e-12)


# every key path a configuration may set
ACCEPTED = {
    "geometry.half_length", "geometry.body",
    "params.rho", "params.mu", "params.mass", "params.stiffness",
    "flowrate.period", "flowrate.harmonics",
    "cutoff.inner", "cutoff.outer",
    "forces.tilde_f.box", "forces.tilde_f.direction", "forces.tilde_f.harmonics",
    "forces.tilde_g.harmonics",
    "solver.n_modes", "solver.n_steps", "solver.mesh_h", "solver.profile_nodes",
    "solver.damping", "solver.tol", "solver.max_iter", "solver.alphas",
    "solver.resonance_factors",
    "output.dir", "seed", "warn_only",
}


def _paths(doc, prefix=""):
    """Dotted paths of the non-mapping values of a nested mapping."""
    out = set()
    for key, val in doc.items():
        if isinstance(val, dict):
            out |= _paths(val, f"{prefix}{key}.")
        else:
            out.add(prefix + key)
    return out


def test_readme_example_lists_every_key():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        block = re.search(r"```yaml\n(.*?)```", fh.read(), re.S).group(1)
    doc = yaml.safe_load(block)
    assert _paths(doc) == ACCEPTED
    cfg = parse_config(doc)
    assert cfg.tilde_f.signal.period == cfg.tilde_g.period == cfg.flowrate.period
    # apart from the forces, the example is the reference setup
    assert replace(cfg, tilde_f=None, tilde_g=None) == RunConfig()
    # the sections of the table accept exactly their keys in ACCEPTED
    for section, keys in _SCHEMA.items():
        if isinstance(keys, dict) and section != "forces":
            assert {f"{section}.{k}" for k in keys} == {
                p for p in ACCEPTED if p.startswith(section + ".")
            }
