"""Strict flat key=value experiment configuration.

Sections in brackets, one `key = value` per line, `#` comments. Unknown
sections or keys, duplicate keys, and type errors are rejected with line
numbers. The schema below is the single source for parsing, defaults (a
key without one is required by the run that reads it), and the
per-subcommand help text. `ExperimentConfig` records the keys a run
reads, so that the CLI can reject a set key the run never read.
"""

from dataclasses import dataclass, field

from msopt.errors import ConfigError
from msopt.textio import key_values

KINDS = ("generate-data", "train-score", "optimize", "validate", "sample")

_PARSERS = {
    "str": lambda s: s.strip(),
    "int": lambda s: int(s.strip()),
    "float": lambda s: float(s.strip()),
    "floats": lambda s: tuple(float(v) for v in s.split(",")),
    "ints": lambda s: tuple(int(v) for v in s.split(",")),
}


@dataclass(frozen=True)
class Key:
    type: str
    kinds: tuple  # the subcommands whose --help lists the key
    default: object = None
    help: str = ""


# section -> key name -> Key
SCHEMA = {
    "experiment": {
        "kind": Key("str", KINDS, help="one of " + "|".join(KINDS)),
        "seed": Key("int", KINDS, default=0, help="master seed for all named random streams"),
    },
    "oracle": {
        "kind": Key("str", ("optimize", "validate"), help="empirical | quadrature | exact | mlp"),
        "sigma": Key("float", ("optimize",), default=0.05,
                     help="noise scale of the score oracle (validate sweeps [algorithm] sigmas)"),
        "dataset": Key("str", ("optimize", "validate", "train-score"),
                       help="points CSV or trajectory dataset directory"),
        "sample_count": Key("int", ("optimize", "validate"), default=10000,
                            help="without a dataset, sample this many manifold points as the "
                                 "empirical oracle's atoms"),
        "node_count": Key("int", ("optimize", "validate"), default=4096,
                          help="quadrature nodes (circle oracle)"),
        "model": Key("str", ("optimize", "validate", "sample"),
                     help="trained score network file"),
    },
    "manifold": {
        "kind": Key("str", ("generate-data", "optimize", "validate"),
                    help="circle | sphere | orthogonal | unicycle | double_pendulum "
                         "(on a tracking run, must match the dataset)"),
        "radius": Key("float", ("generate-data", "optimize", "validate"), default=1.0),
        "dim": Key("int", ("generate-data", "optimize", "validate"), default=3,
                   help="ambient dimension (sphere)"),
        "n": Key("int", ("generate-data", "optimize", "validate"), default=3,
                 help="matrix size (orthogonal group)"),
        "horizon": Key("int", ("generate-data", "optimize"), default=20,
                       help="trajectory horizon (systems; on a tracking run, must match "
                            "the dataset)"),
        "count": Key("int", ("generate-data",), help="points or trajectories to generate"),
        "dt": Key("float", ("generate-data", "optimize"),
                  help="discretization step override (systems; on a tracking run, must "
                       "match the dataset)"),
    },
    "objective": {
        "kind": Key("str", ("optimize",),
                    help="linear | brockett | tracking | zero"),
        "a": Key("floats", ("optimize",), help="coefficients of the linear objective"),
        "a_seed": Key("int", ("optimize",), default=0,
                      help="seed for the random symmetric Brockett matrix"),
        "reference": Key("str", ("optimize",), default="arc",
                         help="sinusoid | arc | figure_eight | CSV path"),
        "amplitude": Key("float", ("optimize",), default=1.0),
        "q_weight": Key("floats", ("optimize",),
                        help="diagonal of Q (tracking); default per system"),
        "r_weight": Key("floats", ("optimize",),
                        help="diagonal of R (tracking); default per system"),
    },
    "algorithm": {
        "kind": Key("str", ("optimize",), help="dlf | drgd"),
        "eta": Key("float", ("optimize", "validate"), default=3e3, help="landing gain"),
        "t_step": Key("float", ("optimize",), default=1e-4, help="Euler step (dlf)"),
        "gamma": Key("float", ("optimize",), default=1e-3, help="step size"),
        "max_steps": Key("int", ("optimize",), default=1000),
        "stop_grad_tol": Key("float", ("optimize",), default=1e-8),
        "record_every": Key("int", ("optimize", "validate"), default=1),
        "x0": Key("str", ("optimize",), default="auto",
                  help="auto | dataset_argmin | sample | comma-separated floats"),
        "check": Key("str", ("validate",), help="rate | landing"),
        "sigmas": Key("floats", ("validate",), default=(0.2, 0.1, 0.05, 0.025, 0.0125)),
        "offsets": Key("floats", ("validate",), default=(0.3,),
                       help="tube offsets as fractions of the safe tube radius"),
        "n_points": Key("int", ("validate",), default=100),
        "x0_distance": Key("float", ("validate",), default=0.3,
                           help="start distance for the landing check"),
        "t_end": Key("float", ("validate",), default=3.0),
        "euler_step": Key("float", ("validate",), default=1e-4),
        "slope_min": Key("float", ("validate",), default=1.9),
        "slope_max": Key("float", ("validate",), default=2.1),
        "max_rel_dev": Key("float", ("validate",), default=0.05),
        "epochs": Key("int", ("train-score",)),
        "batch": Key("int", ("train-score",), default=128),
        "hidden": Key("ints", ("train-score",), default=(128, 128, 128)),
        "t_max": Key("float", ("train-score", "sample"), default=3.0),
        "t_min": Key("float", ("train-score", "sample"), default=1e-4),
        "lr_hi": Key("float", ("train-score",), default=1e-3),
        "lr_lo": Key("float", ("train-score",), default=5e-5),
        "count": Key("int", ("sample",), default=1000, help="samples to draw"),
        "steps": Key("int", ("sample",), default=800, help="reverse SDE steps"),
    },
    "output": {
        "dir": Key("str", KINDS, default="out", help="artifact directory"),
    },
}

@dataclass
class ExperimentConfig:
    """The parsed (section, key) -> value pairs; unset keys read their schema
    default, and `get` of an unset key without one is a ConfigError: a key
    without a default is required by the run that reads it (ask `has` first
    where it is optional). `get` and `has` record each (section, key) they are
    asked for in `reads`. `kind` and `seed` are views of [experiment] kind and
    seed."""

    values: dict = field(default_factory=dict)
    reads: set = field(default_factory=set, compare=False, repr=False)

    @property
    def kind(self) -> str:
        return self.values[("experiment", "kind")]

    @property
    def seed(self) -> int:
        return self.get("experiment", "seed")

    def get(self, section, key):
        self.reads.add((section, key))
        if (section, key) in self.values:
            return self.values[(section, key)]
        default = SCHEMA[section][key].default
        if default is None:
            raise ConfigError(f"[{section}] {key} is required by this run ({self.describe_run()})")
        return default

    def has(self, section, key) -> bool:
        self.reads.add((section, key))
        return (section, key) in self.values

    def describe_run(self) -> str:
        """The run so far for error messages: its experiment kind and the
        kinds (and validate check) it has read."""
        kinds = "".join(f", [{s}] {k} = {self.values[(s, k)]}" for s, k in sorted(self.reads)
                        if k in ("kind", "check") and (s, k) in self.values)
        return f"[experiment] kind = {self.kind}{kinds}"

    def echo(self) -> str:
        """Canonical config text; reloads to an identical ExperimentConfig."""
        blocks = []
        for section in SCHEMA:
            keys = sorted(k for (s, k) in self.values if s == section)
            if keys:
                blocks.append(f"[{section}]\n"
                              + key_values((key, self.values[(section, key)]) for key in keys))
        return "\n".join(blocks)


def parse_config_text(text, source="<config>") -> ExperimentConfig:
    values = {}
    seen_lines = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in SCHEMA:
                raise ConfigError(f"{source}:{lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        if section is None:
            raise ConfigError(f"{source}:{lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in SCHEMA[section]:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r} in [{section}]")
        if (section, key) in values:
            first = seen_lines[(section, key)]
            raise ConfigError(
                f"{source}:{lineno}: duplicate key {key!r} in [{section}] "
                f"(first set at line {first})"
            )
        spec = SCHEMA[section][key]
        try:
            parsed = _PARSERS[spec.type](value)
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key!r}: {exc}") from exc
        values[(section, key)] = parsed
        seen_lines[(section, key)] = lineno

    kind = values.get(("experiment", "kind"))
    if kind is None:
        raise ConfigError(f"{source}: missing required key 'kind' in [experiment]")
    if kind not in KINDS:
        raise ConfigError(f"{source}: unknown experiment kind {kind!r}")
    return ExperimentConfig(values)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text, source=str(path))


def _as_written(value) -> str:
    """A default as a config line writes it: a float in its shortest form
    (0.05), not in the 17 digits of the artifacts (0.050000000000000003)."""
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def describe_keys(kind: str) -> str:
    """Accepted config keys for a subcommand, generated from the schema."""
    lines = []
    for section in SCHEMA:
        rows = []
        for key, spec in SCHEMA[section].items():
            if kind not in spec.kinds:
                continue
            suffix = "" if spec.default is None else f" (default {_as_written(spec.default)})"
            text = f"  {key} <{spec.type}>{suffix}"
            if spec.help:
                text += f": {spec.help}"
            rows.append(text)
        if rows:
            lines.append(f"[{section}]")
            lines.extend(rows)
    return "\n".join(lines)
