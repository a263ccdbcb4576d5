"""Reference for policy files: the loader as it was before policy files
refused unknown keys, kept to check that `covkit.cli.load_policy` still
builds the same model and raises the same row-naming messages.

It takes no view of the top-level or row keys it does not read, so it is
a reference only for files whose keys are the ones `load_policy` allows.
"""

import json

from covkit.harness import ConfigError, json_object
from covkit.models import TabularModel


def load_policy(path):
    """TabularModel of a policy file: one json_object check, hash check and
    membership test per row."""
    where = f"policy file {path}"
    with open(path, encoding="utf-8") as f:
        spec = json_object(json.load(f), where)
    if spec.get("type") != "tabular":
        raise ConfigError(f"unsupported policy type {spec.get('type')!r}")
    json_object(spec, where, ("V", "H"))
    rows = spec.get("tables", [])
    if not isinstance(rows, list):
        raise ConfigError(f"{where}: tables must be a list")
    tables = {}
    for i, row in enumerate(rows):
        json_object(row, f"{where}: tables[{i}]", ("x", "prefix", "p"))
        if not isinstance(row["prefix"], list):
            raise ConfigError(f"{where}: tables[{i}].prefix must be a list "
                              f"of tokens, got {row['prefix']!r}")
        x = tuple(row["x"]) if isinstance(row["x"], list) else row["x"]
        try:
            hash(x)
        except TypeError:
            raise ConfigError(f"{where}: tables[{i}].x must be a number, a "
                              f"string or a list of them, got {row['x']!r}")
        key = (x, tuple(row["prefix"]))
        try:
            seen = key in tables
        except TypeError:
            raise ConfigError(f"{where}: tables[{i}].prefix must be a list "
                              f"of tokens, got {row['prefix']!r}")
        if seen:
            raise ConfigError(f"{where}: tables[{list(tables).index(key)}] "
                              f"and tables[{i}] have the same (x, prefix) "
                              f"key {key!r}")
        tables[key] = row["p"]
    try:
        return TabularModel(tables, V=spec["V"], H=spec["H"],
                            default=spec.get("default"))
    except ValueError as e:
        raise ConfigError(f"{where}: {e}") from e
