"""A sweep of bad config values through ``surfspec run``, and the same
cases with more that probe the schema alone through ``validate_config``.

Each case takes one of three small base configs (the README's checks on
the README's domain, a warped cusp band and a sheared general metric)
and replaces one leaf with one bad value, or reverses one array: every
such single mutation, then PAIRS cases of two mutations of one base
drawn by a generator seeded with SEED.  Every case must exit 0, 1 or 2
without a traceback, and an exit 2 must name a config field.  The bases
run at resolution 4 so that the cases that still run stay fast.
"""

import copy
import json
import math
import random
import time

import pytest

from surfspec import cli

SEED = 20240613
PAIRS = 100

README = {
    "spec_version": 1,
    "metric": {"family": "euclidean"},
    "distance_function": "x",
    "domain": {
        "shape": "rectangle",
        "extents": [0.0, math.pi, 0.0, math.pi],
        "resolution": 4,
    },
    "checks": ["inequality", "lemma", "union", "hodge-dims",
               "curvature", "convergence", "oracle"],
    "check_params": {
        "inequality": {"levels": 2},
        "lemma": {"level": 0},
        "union": {"level": 0, "count": 3},
        "curvature": {"samples": 8},
        "convergence": {"bc": "dirichlet", "levels": 3},
        "oracle": {"max_index": 3},
    },
}

WARPED = {
    "spec_version": 1,
    "metric": {
        "family": "warped",
        "params": {
            "phi": "c*exp(r)",
            "constants": {"c": 1.0},
            "r_range": [-1.0, 0.0],
            "theta_period": 2 * math.pi,
        },
    },
    "distance_function": "r",
    "domain": {"shape": "periodic_band", "extents": [-1.0, 0.0], "resolution": 4},
    "checks": ["inequality", "lemma", "curvature", "union"],
    "check_params": {"inequality": {"levels": 2}, "curvature": {"samples": 8}},
}

GENERAL = {
    "spec_version": 1,
    "metric": {
        "family": "general",
        "params": {
            "g11": "1/y^2",
            "g12": "a/y^2",
            "g22": "(1+a^2)/y^2",
            "constants": {"a": 0.5},
            "vars": ["x", "y"],
            "validity": [-10.0, 10.0, 0.05, 10.0],
        },
    },
    "distance_function": "-log(y)",
    "domain": {"shape": "rectangle", "extents": [0.0, 1.0, 1.0, math.e],
               "resolution": 4},
    "solver": {"quadrature": "degree5", "tolerance": 1e-9, "seed": 42},
    "checks": ["curvature", "hodge-dims", "inequality"],
    "check_params": {"curvature": {"samples": 8}, "inequality": {"levels": 2}},
}

# a value of the wrong type for every leaf, the non-finite numbers, zero, a
# negative, a huge number, an empty string and an empty array
BAD_VALUES = (True, {}, math.nan, math.inf, -math.inf, 0, -1, 1e300, "", [])


class _Reversed:
    """The mutation of an array: its items in reverse order."""

    def __repr__(self):
        return "reversed"


REVERSED = _Reversed()


def _paths(node, path=()):
    """Every leaf path and every array path of a config, in document order."""
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, (*path, key))
    elif isinstance(node, list):
        yield path
        for index, child in enumerate(node):
            yield from _paths(child, (*path, index))
    else:
        yield path


def _mutations(base):
    """(path, value) of every single mutation of ``base``."""
    for path in _paths(base):
        parent = base
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent[path[-1]], list):
            yield path, REVERSED
        else:
            for value in BAD_VALUES:
                yield path, value


def _mutated(base, mutations):
    """A copy of ``base`` with the mutations applied; only leaves are
    replaced, so every path stays valid."""
    cfg = copy.deepcopy(base)
    for path, value in mutations:
        parent = cfg
        for key in path[:-1]:
            parent = parent[key]
        old = parent[path[-1]]
        parent[path[-1]] = old[::-1] if value is REVERSED else value
    return cfg


def _cases():
    """(label, config) of every case: the single mutations, then the pairs."""
    bases = {"readme": README, "warped": WARPED, "general": GENERAL}
    for name, base in bases.items():
        for path, value in _mutations(base):
            yield f"{name} {'/'.join(map(str, path))} = {value!r}", _mutated(
                base, [(path, value)]
            )
    rng = random.Random(SEED)
    for _ in range(PAIRS):
        name = rng.choice(sorted(bases))
        pair = rng.sample(list(_mutations(bases[name])), 2)
        label = " and ".join(f"{'/'.join(map(str, p))} = {v!r}" for p, v in pair)
        yield f"{name} {label}", _mutated(bases[name], pair)


def test_every_bad_value_exits_cleanly_and_names_its_field(tmp_path, capsys):
    cases = list(_cases())
    assert len(cases) > 700
    config = tmp_path / "config.json"
    problems = []
    # CPU time of this process, which other processes on the host do not
    # inflate as they do the wall time
    start = time.process_time()
    for label, cfg in cases:
        cfg["output"] = {"report": str(tmp_path / "report.json")}
        config.write_text(json.dumps(cfg))  # NaN and Infinity as Python writes them
        try:
            code = cli.main(["run", str(config)])
        except Exception as exc:  # a traceback, which is what the sweep looks for
            problems.append(f"{label}: {type(exc).__name__}: {exc}")
            continue
        err = capsys.readouterr().err
        if code not in (0, 1, 2):
            problems.append(f"{label}: exit {code}")
        elif code == 2 and "config field '" not in err:
            problems.append(f"{label}: exit 2 names no field: {err.strip()}")
    elapsed = time.process_time() - start
    assert not problems, "\n".join(problems)
    assert elapsed < 5.0, f"{len(cases)} cases took {elapsed:.1f} s of CPU"


def _objects(node, path=()):
    """The path of every object in a config, in document order."""
    if isinstance(node, dict):
        yield path
        for key, child in node.items():
            yield from _objects(child, (*path, key))
    elif isinstance(node, list):
        for index, child in enumerate(node):
            yield from _objects(child, (*path, index))


def _node(cfg, path):
    for key in path:
        cfg = cfg[key]
    return cfg


def _changed(base, path, change):
    """A copy of ``base`` after ``change`` is called on its node at ``path``."""
    cfg = copy.deepcopy(base)
    change(_node(cfg, path))
    return cfg


# array path -> label -> change of the array
ARRAY_EDITS = {
    ("checks",): {"empty": list.clear, "duplicated": lambda a: a.append(a[0])},
    ("domain", "extents"): {
        "one short": list.pop,
        "one too many": lambda a: a.append(0.0),
        "three too many": lambda a: a.extend([0.0] * 3),
    },
}


def _schema_cases():
    """(label, config) of the schema probes: every key deleted, an extra key
    in every object, the first key of every object renamed, the
    ARRAY_EDITS, and every number swapped for the equal number of the
    other type (spec_version also for true, and resolution for 1.0)."""
    bases = {"readme": README, "warped": WARPED, "general": GENERAL}
    for name, base in bases.items():
        for path in _objects(base):
            where = "/".join(map(str, path)) or "config root"
            for key in _node(base, path):
                yield f"{name} {where} without {key}", _changed(
                    base, path, lambda obj, key=key: obj.pop(key)
                )
            yield f"{name} {where} with an extra key", _changed(
                base, path, lambda obj: obj.update(extra=1)
            )
            # two violations at one path, where the schema's order decides
            yield f"{name} {where} with its first key renamed", _changed(
                base, path, lambda obj: obj.update(extra=obj.pop(next(iter(obj))))
            )
        for path, edits in ARRAY_EDITS.items():
            for label, edit in edits.items():
                yield f"{name} {'/'.join(path)} {label}", _changed(base, path, edit)
        swaps = [(("spec_version",), True), (("domain", "resolution"), 1.0)]
        for path in _paths(base):
            value = _node(base, path)
            if type(value) is int:
                swaps.append((path, float(value)))
            elif type(value) is float and value.is_integer():
                swaps.append((path, int(value)))
        for path, value in swaps:
            yield f"{name} {'/'.join(map(str, path))} = {value!r}", _mutated(
                base, [(path, value)]
            )


def test_schema_walker_matches_jsonschema(monkeypatch):
    # validate_config against itself with its schema walker swapped for the
    # jsonschema validator it replaced: jsonschema 4's choice of one error
    # by best_match, with "integer" redefined so that 3.0 is not one
    jsonschema = pytest.importorskip("jsonschema")
    draft = jsonschema.validators.validator_for(cli.CONFIG_SCHEMA)
    validator = jsonschema.validators.extend(
        draft,
        type_checker=draft.TYPE_CHECKER.redefine(
            "integer", lambda _, value: type(value) is int
        ),
    )(cli.CONFIG_SCHEMA)

    def jsonschema_errors(value, schema):
        error = jsonschema.exceptions.best_match(validator.iter_errors(value))
        if error is not None:
            yield tuple(error.absolute_path), error.message

    def outcome(cfg):
        try:
            cli.validate_config(cfg)
        except cli.ConfigError as exc:
            return str(exc)
        return "accepted"

    cases = [*_cases(), *_schema_cases()]
    assert len(cases) > 900
    walker = [outcome(cfg) for _, cfg in cases]
    monkeypatch.setattr(cli, "_schema_errors", jsonschema_errors)
    reference = [outcome(cfg) for _, cfg in cases]
    differences = [
        f"{label}: {ours} | {theirs}"
        for (label, _), ours, theirs in zip(cases, walker, reference)
        if ours != theirs
    ]
    assert not differences, "\n".join(differences)
    # const compares numbers by value and keeps booleans apart
    outcomes = {label: result for (label, _), result in zip(cases, walker)}
    assert outcomes["readme spec_version = 1.0"] == "accepted"
    assert outcomes["readme spec_version = True"] == (
        "config field 'spec_version': 1 was expected"
    )
