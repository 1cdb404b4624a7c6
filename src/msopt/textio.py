"""The text artifact formats: comma-separated float rows and `key = value` sidecars.

Every CSV artifact and every `key = value` text (sidecars, manifest, run
summary, config echo) renders its values here, so one rule holds
throughout: a float prints with 17 significant digits (`.17g`, enough to
round-trip every double; `-0.0` prints `-0`, and `nan` and `inf` print as
such), a bool as `true`/`false`, a float array or a tuple as its values
joined by commas, anything else with `str`. `read_csv` and
`read_key_values` read the two formats back.
"""

import numpy as np

_FLOAT = "{:.17g}".format


def _render(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _FLOAT(value)
    if isinstance(value, np.ndarray):
        return ",".join(map(_FLOAT, value.tolist()))
    if isinstance(value, tuple):
        return ",".join(map(_render, value))
    return str(value)


def write_csv(path, header, rows):
    """Write the 2-D array `rows` one comma-separated line per row, under the
    `header` line unless it is None. Every value prints with `.17g`, so an
    integral column (a step or epoch below 1e17) prints as integers."""
    with open(path, "w") as fh:
        if header is not None:
            fh.write(header + "\n")
        for row in np.asarray(rows, dtype=float):
            fh.write(_render(row) + "\n")


def read_csv(path) -> np.ndarray:
    """The float rows of a headerless CSV file, as a 2-D array (one row per line);
    a malformed or `nan`/`inf` entry raises ValueError naming the file."""
    try:
        rows = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if bad.size:
        with open(path) as fh:
            # loadtxt skips blank lines and `#` comments
            lines = [n for n, text in enumerate(fh, 1) if text.partition("#")[0].strip()]
        raise ValueError(f"{path} line {lines[bad[0]]}: non-finite entry")
    return rows


def key_values(pairs) -> str:
    """`key = value` lines, one per (key, value) pair, in the given order."""
    return "".join(f"{key} = {_render(value)}\n" for key, value in pairs)


def write_key_values(path, pairs):
    with open(path, "w") as fh:
        fh.write(key_values(pairs))


def read_key_values(path) -> dict:
    """The `key = value` lines of a sidecar as a dict of stripped strings;
    lines without a key are skipped, and a repeated key keeps its last value."""
    values = {}
    with open(path) as fh:
        for line in fh:
            key, _, value = line.partition("=")
            if key.strip():
                values[key.strip()] = value.strip()
    return values
