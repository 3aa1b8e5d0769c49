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
