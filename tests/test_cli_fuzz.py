"""Seeded config fuzz: bad integer slots give clean exits, never tracebacks.

Every integer slot of a small README-shaped config for each command is
replaced, one at a time, by each value of a fixed vocabulary; structural
mutations replace whole term lists, single terms and sub-configs; a seeded
sample of two-slot mutations runs last.  Every case must exit 0, 1 or 2
from ``main`` with nothing escaping it, and a value of the wrong JSON type
must be a usage error.
"""

import copy
import json
import math
import random

import pytest

from detsieve.cli import main

F = {"nvars": 3, "terms": [[[2, 0, 0], 5], [[0, 2, 0], 1], [[0, 0, 2], 1], [[0, 0, 0], -6]]}
G = {"nvars": 3, "terms": [[[0, 2, 0], 1], [[0, 0, 2], 1], [[0, 0, 0], -6]]}

CONFIGS = {
    "enumerate": {"f": F, "g": G, "q": 5, "box": [2, 2, 2]},
    "certify": {"f": F, "g": G, "q": 5, "box": [2, 2, 2],
                "cutoff_base": 2, "cutoff_power": 3},
    "aux": {"f": F, "g": G, "q": 5, "box": [2, 2, 2], "epsilon": 0.5,
            "residue_primes": [3], "floor_const": 10},
    "quadric": {"a": [5, 1, 1], "n": 6, "B": 2, "mode": "brute"},
    "unlike": {"k": 3, "l": 2, "m": 2, "N": 5, "B": 3, "mode": "brute"},
    "fit": {"counts": [[10, 100], [20, 400], [40, 1600]],
            "quadric": {"a": [1, 1, 1], "n": 5},
            "unlike": {"k": 13, "l": 5, "m": 3, "N": 100}},
}

#: values of the wrong JSON type: each must be a usage error
WRONG_TYPE = (True, 2.5, "5", None, [1], math.inf)
#: integers that may be out of range: any clean exit will do
IN_TYPE = (-1, 0)

#: slots where README documents null as "use the default"
NULL_MEANS_DEFAULT = {("aux", ("floor_const",))}


def int_slots(node, path=()):
    """Paths of every integer (not bool) leaf of a config."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        if isinstance(node, int) and not isinstance(node, bool):
            yield path
        return
    for key, child in items:
        yield from int_slots(child, path + (key,))


def mutated(cfg, path, value):
    out = copy.deepcopy(cfg)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


def structural_cases():
    for command, cfg in CONFIGS.items():
        for key in ("f", "g"):
            if key not in cfg:
                continue
            for terms in (None, 2.5, -1, "x"):
                yield command, mutated(cfg, (key, "terms"), terms)
            yield command, mutated(cfg, (key, "terms", 0), 5)
            yield command, mutated(cfg, (key,), None)
        for key in ("quadric", "unlike"):
            if key in cfg:
                yield command, mutated(cfg, (key,), None)


def run_case(tmp_path, capsys, command, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    code = main([command, "--config", str(path)])
    return code, capsys.readouterr().err


def test_config_fuzz(tmp_path, capsys):
    failures = []

    def check(command, cfg, usage_expected):
        try:
            code, err = run_case(tmp_path, capsys, command, cfg)
        except Exception as exc:  # escaped main: record it beside the rest
            code, err = None, repr(exc)
        if code not in (0, 1, 2) or (usage_expected and not err.startswith("usage error:")):
            failures.append((command, json.dumps(cfg), code, err.strip()[:200]))

    cases = 0
    for command, cfg in CONFIGS.items():
        for path in int_slots(cfg):
            for value in WRONG_TYPE:
                null_default = value is None and (command, path) in NULL_MEANS_DEFAULT
                check(command, mutated(cfg, path, value), not null_default)
            for value in IN_TYPE:
                check(command, mutated(cfg, path, value), False)
            cases += len(WRONG_TYPE) + len(IN_TYPE)
    for command, cfg in structural_cases():
        check(command, cfg, True)
        cases += 1

    rng = random.Random(20261018)
    vocabulary = WRONG_TYPE + IN_TYPE
    for _ in range(150):
        command = rng.choice(sorted(CONFIGS))
        cfg = CONFIGS[command]
        first, second = rng.sample(list(int_slots(cfg)), 2)
        cfg = mutated(cfg, first, rng.choice(vocabulary))
        cfg = mutated(cfg, second, rng.choice(vocabulary))
        check(command, cfg, False)
        cases += 1

    assert cases > 1000
    assert not failures, "\n".join(map(repr, failures[:20]))


@pytest.mark.parametrize("command", sorted(CONFIGS))
def test_unmutated_configs_succeed(tmp_path, capsys, command):
    code, err = run_case(tmp_path, capsys, command, CONFIGS[command])
    assert code == 0, err
