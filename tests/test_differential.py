"""The differential script (tests/differential.py) is deterministic: one
seed gives one hash, whatever the interpreter's string hash seed."""

import os
import pathlib
import subprocess
import sys

from bockstein.oracle import Universe

import differential

HERE = pathlib.Path(__file__).resolve().parent


def test_law_family_repeats():
    small = (Universe((2,), 2), Universe((3,), 1))
    first = differential.digest(differential.law_records(3, small))
    second = differential.digest(differential.law_records(3, small))
    assert first == second


def test_cli_family_repeats_across_hash_seeds():
    outs = []
    for hash_seed in ("0", "1"):
        env = {**os.environ, "PYTHONPATH": str(HERE.parent / "src"),
               "PYTHONHASHSEED": hash_seed}
        done = subprocess.run(
            [sys.executable, str(HERE / "differential.py"), "--seed", "3",
             "--family", "cli"],
            env=env, capture_output=True, text=True, timeout=120, check=True)
        outs.append(done.stdout)
    assert outs[0] == outs[1]
    family, count, sha = outs[0].split()
    assert (family, len(sha)) == ("cli", 64)
    assert int(count) == len(differential.cli_runs(3))


def _digest_under_hash_seeds(call):
    """The record count and hash of differential.<call>, printed by one
    interpreter under each string hash seed 0 and 1."""
    code = f"import differential; print(*differential.digest({call})[:2])"
    outs = []
    for hash_seed in ("0", "1"):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(HERE.parent / "src"), str(HERE)]),
            "PYTHONHASHSEED": hash_seed}
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        outs.append(done.stdout)
    return outs


def test_cylinder_family_repeats_across_hash_seeds():
    # A small seed: three degree maps and six random maps, half of them
    # on wide labels, then their `verify mp-pair` runs.
    outs = _digest_under_hash_seeds(
        "differential.cylinder_records(3, (2, 3, 4), 6)")
    assert outs[0] == outs[1]
    count, sha = outs[0].split()
    assert (int(count), len(sha)) == (3 + 6 + 3 * 3 * 2, 64)


def test_complex_family_repeats_across_hash_seeds():
    # A small seed: eight complexes and twelve maps, of all four kinds,
    # half of them on wide labels.
    outs = _digest_under_hash_seeds("differential.complex_records(3, 8, 12)")
    assert outs[0] == outs[1]
    count, sha = outs[0].split()
    assert (int(count), len(sha)) == (8 + 12, 64)
