"""Run configuration: validated dataclass, YAML loading, reference presets.

The configuration is a nested key-value document (YAML).  Unknown keys and
malformed values raise ConfigError naming the offending field path, so batch
runs fail fast with actionable messages.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, asdict

from .errors import ConfigError

DEFAULT_PERIOD = 2.0 * math.pi


def _require(mapping, key, path, typ=None):
    if key not in mapping:
        raise ConfigError(f"missing required field '{path}.{key}'")
    val = mapping[key]
    if typ is not None and not isinstance(val, typ):
        raise ConfigError(
            f"field '{path}.{key}' has type {type(val).__name__}, expected "
            f"{typ.__name__ if isinstance(typ, type) else typ}"
        )
    return val


def _number(val, path):
    """float(val), or ConfigError naming the field unless it is a finite number."""
    try:
        if isinstance(val, bool):  # float(True) would read as 1.0
            raise TypeError
        out = float(val)
    except (TypeError, ValueError):
        raise ConfigError(f"'{path}' must be a number, got {val!r}") from None
    if not math.isfinite(out):
        raise ConfigError(f"'{path}' must be finite, got {val!r}")
    return out


def _integer(val, path):
    """int(val), or ConfigError naming the field unless it is an integer
    (an integral float such as 2048.0 counts; a bool does not)."""
    out = _number(val, path)
    if not out.is_integer():
        raise ConfigError(f"'{path}' must be an integer, got {val!r}")
    return int(out)


def _check_keys(mapping, allowed, path):
    if not isinstance(mapping, dict):
        raise ConfigError(f"'{path}' must be a mapping, got {mapping!r}")
    extra = set(mapping) - set(allowed)
    if extra:
        raise ConfigError(
            f"unknown field(s) {sorted(extra)} in '{path}' "
            f"(allowed: {sorted(allowed)})"
        )


@dataclass(frozen=True)
class SignalSpec:
    """Harmonic description of a T-periodic scalar signal."""

    period: float
    harmonics: tuple  # ((k, re, im), ...)

    def build(self):
        from .signals import make_signal

        return make_signal(self.period, [list(h) for h in self.harmonics])

    @staticmethod
    def parse(data, path, period=None):
        if not isinstance(data, dict):
            raise ConfigError(f"'{path}' must be a mapping")
        _check_keys(data, {"period", "harmonics"}, path)
        if period is None:
            period = _require(data, "period", path, (int, float))
        else:
            period = data.get("period", period)
        if isinstance(period, bool) or not (
            isinstance(period, (int, float)) and 0 < period < math.inf
        ):
            raise ConfigError(f"'{path}.period' must be a positive finite number")
        rows = _require(data, "harmonics", path, list)
        harm = []
        for i, row in enumerate(rows):
            if not (isinstance(row, (list, tuple)) and len(row) == 3):
                raise ConfigError(
                    f"'{path}.harmonics[{i}]' must be [k, re, im], got {row!r}"
                )
            k, re, im = row
            loc = f"{path}.harmonics[{i}]"
            harm.append((_integer(k, f"{loc}[0]"), _number(re, loc), _number(im, loc)))
        spec = SignalSpec(float(period), tuple(harm))
        try:
            spec.build()  # make_signal's rules for the harmonics of a real signal
        except ValueError as exc:
            raise ConfigError(f"'{path}.harmonics': {exc}") from None
        return spec


@dataclass(frozen=True)
class ExternalForceSpec:
    box: tuple  # (x0, x1, y0, y1)
    direction: tuple  # (d1, d2)
    signal: SignalSpec

    @staticmethod
    def parse(data, path, period):
        _check_keys(data, {"box", "direction", "harmonics", "period"}, path)
        box = _require(data, "box", path, list)
        if len(box) != 4:
            raise ConfigError(f"'{path}.box' must be [x0, x1, y0, y1]")
        direction = _require(data, "direction", path, list)
        if len(direction) != 2:
            raise ConfigError(f"'{path}.direction' must be [d1, d2]")
        sig_data = {k: v for k, v in data.items() if k in ("period", "harmonics")}
        sig = SignalSpec.parse(sig_data, path, period=period)
        return ExternalForceSpec(
            tuple(_number(v, f"{path}.box") for v in box),
            tuple(_number(v, f"{path}.direction") for v in direction),
            sig,
        )


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce one end-to-end solve."""

    half_length: float = 6.0
    body: tuple = (-0.5, 0.5, -0.3, 0.3)
    params: object = None  # PhysicalParams
    flowrate: SignalSpec = field(
        default_factory=lambda: SignalSpec(DEFAULT_PERIOD, ((1, 0.0, -0.5),))
    )
    cutoff_inner: float = 0.15
    cutoff_outer: float = 0.6
    tilde_f: ExternalForceSpec | None = None
    tilde_g: SignalSpec | None = None
    n_modes: int = 8
    n_steps: int = 2048
    mesh_h: float = 1.0 / 32.0
    profile_nodes: int = 257
    damping: float = 0.7  # Anderson mixing weight of the fixed point
    fixed_point_tol: float = 1e-9
    max_iter: int = 50
    alphas: tuple = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
    resonance_factors: tuple = (0.8, 1.0, 1.2)
    seed: int = 0
    warn_only: bool = False
    output_dir: str = "out"

    def __post_init__(self):
        if self.params is None:
            from .geometry import PhysicalParams

            object.__setattr__(self, "params", PhysicalParams())
        for name in ("fixed_point_tol", "mesh_h", "damping", "half_length"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(f"'{name}' must be positive and finite")
        if self.damping > 1:
            raise ConfigError(f"'damping' must lie in (0, 1], got {self.damping}")
        for name in ("alphas", "resonance_factors"):
            if not getattr(self, name):
                raise ConfigError(f"'{name}' must not be empty")
        if not all(0 < a <= 1 for a in self.alphas):
            raise ConfigError(f"'alphas' must lie in (0, 1], got {list(self.alphas)}")
        if not all(0 < f < math.inf for f in self.resonance_factors):
            raise ConfigError(
                "'resonance_factors' must be positive and finite, got "
                f"{list(self.resonance_factors)}"
            )
        for name, least in (("n_modes", 1), ("n_steps", 2), ("max_iter", 1)):
            if getattr(self, name) < least:
                raise ConfigError(
                    f"'{name}' must be >= {least}, got {getattr(self, name)}"
                )
        if self.profile_nodes < 3 or self.profile_nodes % 2 == 0:
            raise ConfigError("'profile_nodes' must be an odd number >= 3")
        if not (0.0 < self.cutoff_inner < self.cutoff_outer):
            raise ConfigError(
                "'cutoff' needs 0 < inner < outer, got inner "
                f"{self.cutoff_inner} and outer {self.cutoff_outer}"
            )

    # --- builders used by the solve pipeline -----------------------------
    def build_geometry(self):
        from .geometry import build_geometry

        return build_geometry(self.half_length, self.body)

    def build_flowrate(self):
        return self.flowrate.build()

    def build_cutoff(self):
        from .carrier import CutoffParams

        return CutoffParams(inner=self.cutoff_inner, outer=self.cutoff_outer)

    def build_fixed_point(self):
        from .solver import FixedPointConfig

        return FixedPointConfig(
            damping=self.damping,
            tol=self.fixed_point_tol,
            max_iter=self.max_iter,
            n_steps=self.n_steps,
        )

    def build_external_forces(self):
        from .carrier import ExternalBodyForce

        tf = None
        if self.tilde_f is not None:
            tf = ExternalBodyForce(
                box=self.tilde_f.box,
                direction=self.tilde_f.direction,
                signal=self.tilde_f.signal.build(),
            )
        tg = self.tilde_g.build() if self.tilde_g is not None else None
        return tf, tg

    def with_period(self, period):
        """Clone with the flow-rate (and external-force) period replaced."""
        fr = SignalSpec(float(period), self.flowrate.harmonics)
        tf = self.tilde_f
        if tf is not None:
            tf = ExternalForceSpec(
                tf.box, tf.direction, SignalSpec(float(period), tf.signal.harmonics)
            )
        tg = self.tilde_g
        if tg is not None:
            tg = SignalSpec(float(period), tg.harmonics)
        import dataclasses

        return dataclasses.replace(self, flowrate=fr, tilde_f=tf, tilde_g=tg)

    # --- identity ---------------------------------------------------------
    def to_json_dict(self):
        d = asdict(self)
        d["params"] = {
            "rho": self.params.rho,
            "mu": self.params.mu,
            "mass": self.params.mass,
            "stiffness": self.params.stiffness,
        }
        return d

    def config_hash(self):
        blob = json.dumps(self.to_json_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


_TOP_KEYS = {
    "geometry",
    "params",
    "flowrate",
    "cutoff",
    "forces",
    "solver",
    "output",
    "seed",
    "warn_only",
}
_PARAM_KEYS = ("rho", "mu", "mass", "stiffness")


def parse_config(data):
    """Build a RunConfig from a parsed YAML/JSON mapping."""
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be a mapping")
    _check_keys(data, _TOP_KEYS, "<root>")
    kwargs = {}

    geo = data.get("geometry", {})
    _check_keys(geo, {"half_length", "body"}, "geometry")
    if "half_length" in geo:
        kwargs["half_length"] = _number(geo["half_length"], "geometry.half_length")
    if "body" in geo:
        body = geo["body"]
        if not (isinstance(body, list) and len(body) == 4):
            raise ConfigError("'geometry.body' must be [x0, x1, y0, y1]")
        kwargs["body"] = tuple(_number(v, "geometry.body") for v in body)

    par = data.get("params", {})
    _check_keys(par, _PARAM_KEYS, "params")
    from .geometry import PhysicalParams

    try:
        kwargs["params"] = PhysicalParams(
            **{key: _number(par.get(key, 1.0), f"params.{key}") for key in _PARAM_KEYS}
        )
    except ValueError as exc:
        raise ConfigError(f"invalid 'params': {exc}") from exc

    if "flowrate" in data:
        kwargs["flowrate"] = SignalSpec.parse(data["flowrate"], "flowrate")
    period = kwargs.get(
        "flowrate", RunConfig.__dataclass_fields__["flowrate"].default_factory()
    ).period

    cut = data.get("cutoff", {})
    _check_keys(cut, {"inner", "outer"}, "cutoff")
    if "inner" in cut:
        kwargs["cutoff_inner"] = _number(cut["inner"], "cutoff.inner")
    if "outer" in cut:
        kwargs["cutoff_outer"] = _number(cut["outer"], "cutoff.outer")

    forces = data.get("forces", {})
    _check_keys(forces, {"tilde_f", "tilde_g"}, "forces")
    if forces.get("tilde_f") is not None:
        kwargs["tilde_f"] = ExternalForceSpec.parse(
            forces["tilde_f"], "forces.tilde_f", period
        )
    if forces.get("tilde_g") is not None:
        kwargs["tilde_g"] = SignalSpec.parse(
            forces["tilde_g"], "forces.tilde_g", period=period
        )

    sol = data.get("solver", {})
    _check_keys(
        sol,
        {
            "n_modes",
            "n_steps",
            "mesh_h",
            "profile_nodes",
            "damping",
            "tol",
            "max_iter",
            "alphas",
            "resonance_factors",
        },
        "solver",
    )
    for src, dst, cast in (
        ("n_modes", "n_modes", _integer),
        ("n_steps", "n_steps", _integer),
        ("mesh_h", "mesh_h", _number),
        ("profile_nodes", "profile_nodes", _integer),
        ("damping", "damping", _number),
        ("tol", "fixed_point_tol", _number),
        ("max_iter", "max_iter", _integer),
    ):
        if src in sol:
            kwargs[dst] = cast(sol[src], f"solver.{src}")
    for key in ("alphas", "resonance_factors"):
        if key in sol:
            if not isinstance(sol[key], list):
                raise ConfigError(f"'solver.{key}' must be a list")
            kwargs[key] = tuple(_number(a, f"solver.{key}") for a in sol[key])

    out = data.get("output", {})
    _check_keys(out, {"dir"}, "output")
    if "dir" in out:
        kwargs["output_dir"] = str(out["dir"])

    if "seed" in data:
        kwargs["seed"] = _integer(data["seed"], "seed")
        if kwargs["seed"] < 0:
            raise ConfigError("'seed' must be a non-negative integer")
    if "warn_only" in data:
        if not isinstance(data["warn_only"], bool):
            raise ConfigError("'warn_only' must be a boolean")
        kwargs["warn_only"] = data["warn_only"]

    return RunConfig(**kwargs)


def load_config(path):
    """Load a RunConfig from a YAML file."""
    import yaml

    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"configuration file not found: {path}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    return parse_config(data or {})


def reference_config(**overrides):
    """The small-data reference setup used throughout the test suite."""
    return RunConfig(**overrides)
