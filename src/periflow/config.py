"""Run configuration: validated dataclass, YAML loading, reference presets.

The configuration is a nested key-value document (YAML).  One table,
`_SCHEMA`, maps each key to the RunConfig field it sets and the reader that
converts its value; `RunConfig.__post_init__` then checks the bounds.
Unknown keys and malformed values raise ConfigError naming the offending
field path, so batch runs fail fast with actionable messages.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, replace

from .errors import ConfigError

DEFAULT_PERIOD = 2.0 * math.pi


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


def _numbers(length):
    """Reader of a list of numbers as a tuple: `length` of them, any number
    if `length` is None."""

    def read(val, path):
        if not isinstance(val, list) or (length is not None and len(val) != length):
            what = "numbers" if length is None else f"{length} numbers"
            raise ConfigError(f"'{path}' must be a list of {what}, got {val!r}")
        return tuple(_number(v, path) for v in val)

    return read


def _instance(typ, what):
    """Reader that passes a value of type `typ` through and rejects any other."""

    def read(val, path):
        if not isinstance(val, typ):
            raise ConfigError(f"'{path}' must be {what}, got {val!r}")
        return val

    return read


_boolean = _instance(bool, "a boolean")
_string = _instance(str, "a string")


def _harmonics(rows, path):
    """((k, re, im), ...) from a list of [k, re, im] rows, k an integer."""
    if not isinstance(rows, list):
        raise ConfigError(f"'{path}' must be a list of [k, re, im] rows, got {rows!r}")
    out = []
    for i, row in enumerate(rows):
        loc = f"{path}[{i}]"
        if not (isinstance(row, list) and len(row) == 3):
            raise ConfigError(f"'{loc}' must be [k, re, im], got {row!r}")
        out.append((_integer(row[0], f"{loc}[0]"), _number(row[1], loc), _number(row[2], loc)))
    return tuple(out)


@dataclass(frozen=True)
class SignalSpec:
    """Harmonic description of a T-periodic scalar signal."""

    period: float
    harmonics: tuple  # ((k, re, im), ...)

    def build(self):
        from .signals import make_signal

        return make_signal(self.period, [list(h) for h in self.harmonics])


@dataclass(frozen=True)
class ExternalForceSpec:
    box: tuple  # (x0, x1, y0, y1)
    direction: tuple  # (d1, d2)
    signal: SignalSpec


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce one end-to-end solve.

    `__post_init__` holds every bound on the fields, so a config built here,
    read from YAML or changed by `dataclasses.replace` meets the same rules.
    The external forces take the flow rate's period: the period of the
    `tilde_f` and `tilde_g` signals given here is replaced by it.
    """

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
    damping: float = 1.0  # Anderson mixing weight of the fixed point
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
        period = self.flowrate.period
        if not 0 < period < math.inf:
            raise ConfigError(f"'flowrate.period' must be positive and finite, got {period!r}")
        for name in ("fixed_point_tol", "mesh_h", "damping", "half_length"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(f"'{name}' must be positive and finite")
        signals = [("flowrate", self.flowrate)]
        if self.tilde_f is not None:
            tf = replace(self.tilde_f, signal=SignalSpec(period, self.tilde_f.signal.harmonics))
            object.__setattr__(self, "tilde_f", tf)
            signals.append(("forces.tilde_f", tf.signal))
            x0, x1, y0, y1 = tf.box
            if not (x0 < x1 and y0 < y1):
                raise ConfigError(
                    f"'forces.tilde_f.box' needs x0 < x1 and y0 < y1, got {list(tf.box)}"
                )
            L = self.half_length
            bx0, bx1, by0, by1 = self.body
            in_channel = max(x0, -L) < min(x1, L) and max(y0, -1.0) < min(y1, 1.0)
            in_body = bx0 <= x0 and x1 <= bx1 and by0 <= y0 and y1 <= by1
            if not in_channel or in_body:
                raise ConfigError(
                    f"'forces.tilde_f.box' {list(tf.box)} must overlap the fluid: "
                    f"the channel [{-L}, {L}] x [-1, 1] outside the body {list(self.body)}"
                )
            if not any(tf.direction):
                raise ConfigError("'forces.tilde_f.direction' must not be (0, 0)")
        if self.tilde_g is not None:
            object.__setattr__(self, "tilde_g", SignalSpec(period, self.tilde_g.harmonics))
            signals.append(("forces.tilde_g", self.tilde_g))
        for path, spec in signals:
            try:
                spec.build()  # make_signal's rules for the harmonics of a real signal
            except ValueError as exc:
                raise ConfigError(f"'{path}.harmonics': {exc}") from None
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
        for name, least in (
            ("n_modes", 1), ("n_steps", 2), ("max_iter", 1), ("profile_nodes", 3), ("seed", 0)
        ):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < least:
                raise ConfigError(f"'{name}' must be an integer >= {least}, got {value!r}")
        if self.profile_nodes % 2 == 0:
            raise ConfigError("'profile_nodes' must be an odd number >= 3")
        if not (0.0 < self.cutoff_inner < self.cutoff_outer):
            raise ConfigError(
                "'cutoff' needs 0 < inner < outer, got inner "
                f"{self.cutoff_inner} and outer {self.cutoff_outer}"
            )
        _boolean(self.warn_only, "warn_only")

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
        """Clone with the flow-rate period, and so the external forces' period,
        replaced."""
        return replace(self, flowrate=SignalSpec(float(period), self.flowrate.harmonics))

    # --- identity ---------------------------------------------------------
    def to_json_dict(self):
        return asdict(self)

    def config_hash(self):
        blob = json.dumps(self.to_json_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _read(table, data, path, required):
    """The keyword arguments that `table` reads from the mapping `data` found
    at `path`.  Each entry of `table` maps a key of `data` either to a nested
    table, a section whose keys are read alike, or to (name, reader), where
    reader(value, key path) returns the value of `name` or raises
    ConfigError.  A key that `data` lacks is left out, or an error if
    `required`."""
    where = path or "<root>"
    if not isinstance(data, dict):
        raise ConfigError(f"'{where}' must be a mapping, got {data!r}")
    extra = set(data) - set(table)
    if extra:
        raise ConfigError(
            f"unknown field(s) {sorted(extra, key=str)} in '{where}' "
            f"(allowed: {sorted(table)})"
        )
    out = {}
    for key, entry in table.items():
        loc = f"{path}.{key}" if path else key
        if key not in data:
            if required:
                raise ConfigError(f"missing required field '{loc}'")
        elif isinstance(entry, dict):
            out.update(_read(entry, data[key], loc, required=False))
        else:
            name, reader = entry
            out[name] = reader(data[key], loc)
    return out


_PARAMS = {key: (key, _number) for key in ("rho", "mu", "mass", "stiffness")}
_HARMONICS = {"harmonics": ("harmonics", _harmonics)}
_SIGNAL = {"period": ("period", _number), **_HARMONICS}
_FORCE = {"box": ("box", _numbers(4)), "direction": ("direction", _numbers(2)), **_HARMONICS}


def _params(data, path):
    from .geometry import PhysicalParams

    try:
        return PhysicalParams(**_read(_PARAMS, data, path, required=False))
    except ValueError as exc:
        raise ConfigError(f"invalid '{path}': {exc}") from exc


def _flowrate(data, path):
    return SignalSpec(**_read(_SIGNAL, data, path, required=True))


# The external forces carry no period of their own (None here): RunConfig
# gives them the flow rate's.  A null force is no force.
def _fluid_force(data, path):
    if data is None:
        return None
    read = _read(_FORCE, data, path, required=True)
    return ExternalForceSpec(read["box"], read["direction"], SignalSpec(None, read["harmonics"]))


def _mass_force(data, path):
    if data is None:
        return None
    return SignalSpec(None, **_read(_HARMONICS, data, path, required=True))


# YAML key -> (RunConfig field, reader), or a section: a table of its own keys
_SCHEMA = {
    "geometry": {"half_length": ("half_length", _number), "body": ("body", _numbers(4))},
    "params": ("params", _params),
    "flowrate": ("flowrate", _flowrate),
    "cutoff": {"inner": ("cutoff_inner", _number), "outer": ("cutoff_outer", _number)},
    "forces": {"tilde_f": ("tilde_f", _fluid_force), "tilde_g": ("tilde_g", _mass_force)},
    "solver": {
        "n_modes": ("n_modes", _integer),
        "n_steps": ("n_steps", _integer),
        "mesh_h": ("mesh_h", _number),
        "profile_nodes": ("profile_nodes", _integer),
        "damping": ("damping", _number),
        "tol": ("fixed_point_tol", _number),
        "max_iter": ("max_iter", _integer),
        "alphas": ("alphas", _numbers(None)),
        "resonance_factors": ("resonance_factors", _numbers(None)),
    },
    "output": {"dir": ("output_dir", _string)},
    "seed": ("seed", _integer),
    "warn_only": ("warn_only", _boolean),
}


def parse_config(data):
    """Build a RunConfig from a parsed YAML/JSON mapping."""
    return RunConfig(**_read(_SCHEMA, data, "", required=False))


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
    return parse_config({} if data is None else data)  # an empty file is {}


def reference_config(**overrides):
    """The small-data reference setup used throughout the test suite."""
    return RunConfig(**overrides)
