"""Apply each recorded mutant to a fresh copy of the tree and check that
the tests named for it fail.

    python tests/mutants.py

The tree is `git archive HEAD` of the repository that holds this script,
so a change must be committed before its rows are checked.  The named
tests of every row are first run together on an unmutated copy, which
must pass them.  Then each row's substitution is made in a fresh copy,
where only its named tests run, stopping at the first failure, for at
most TIMEOUT seconds.  A mutant is killed when they fail, or when they
run past the timeout (a reducer fault that keeps a pivot from clearing
loops forever).  The script prints one line per row and the total time,
and exits 1 if a mutant survives.  An old text that does not occur
exactly once, or a named test that the unmutated copy does not pass (an
unknown test id included), is an error (exit 2), not a skip: a refactor
must update its rows.
The whole table takes ~2 min on a 2-CPU x86_64 machine with Python 3.11.

tests/test_mutants.py checks on every Tier-1 run that each old text
still occurs exactly once; it applies nothing.
"""

import io
import os
import pathlib
import signal
import subprocess
import sys
import tarfile
import tempfile
import time
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
TIMEOUT = 60  # seconds each mutant's tests may run


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple


SIMPLICIAL = "src/bockstein/simplicial.py"
CHAINS = "src/bockstein/chains.py"
CLEARING = "tests/test_chains.py::TestClearing"

MUTANTS = (
    # Face i of a simplex carries the sign (-1)^i; face 0 gets -1 too.
    # The sign lived in _boundary_column; it is now in
    # _chains_on_positions.
    Mutant("face-sign", SIMPLICIAL,
           "repeat(-1 if i % 2 else 1))",
           "repeat(-1 if i % 2 or not i else 1))",
           ("tests/test_simplicial.py::TestBuilders::test_sphere_homology",
            "tests/test_simplicial.py::TestPontryaginStages::"
            "test_chain_columns_pinned")),
    # Each degree's position tuples left in the order the closed set
    # lists them.  The sort was _by_dim's rebuild; it is now in
    # _on_positions, which every complex made from simplices goes
    # through, so TestChainRecord, which compares two such builds, no
    # longer sees it.
    Mutant("unsorted-degrees", SIMPLICIAL,
           "    for ss in degrees:\n        ss.sort()\n",
           "    for ss in degrees:\n        pass\n",
           ("tests/test_simplicial.py::TestTrustedPath::test_trusted_factories",
            "tests/test_simplicial.py::TestMappingCylinder::"
            "test_matches_pairwise_construction")),
    # The elimination over Z/p no longer reduces its entries mod p.  Some
    # random complexes then never clear a pivot, so a fixed input is
    # named.
    Mutant("no-mod-p", CHAINS,
           "w = (get(i, 0) - factor * v) % p",
           "w = get(i, 0) - factor * v",
           (CLEARING + "::test_basis_matches_uncleared_on_constructions",)),
    # Integral clearing records the pivot's column instead of its row.
    Mutant("clear-by-column", CHAINS,
           "pivots.add(i)",
           "pivots.add(j)",
           ("tests/test_chains.py::TestIntegralClearing",)),
    # A long vector pops its pivots off the heap without pushing the
    # rows that an elimination adds.
    Mutant("heap-no-push", CHAINS,
           "heappush(heap, -i)",
           "pass",
           ("tests/test_chains.py::TestLongVectors",)),
    # A column whose lead is -1 is claimed in place as if it were 1: its
    # pivot never clears, and the elimination loops until the timeout.
    Mutant("minus-one-lead", CHAINS,
           "if lead == 1 and low not in kept:",
           "if lead in (1, -1) and low not in kept:",
           ("tests/test_chains.py::TestKeptLayout::test_wide_complexes",)),
    # A column claimed in place by its index enters the coordinates with
    # the sign -1.
    Mutant("index-coords-sign", CHAINS,
           "_subtract(coords, ((owner, 1),), factor, p)",
           "_subtract(coords, ((owner, -1),), factor, p)",
           (CLEARING,)),
    # The tracked route eliminates without updating the coordinates.
    # There is now a second update, for columns claimed by their index:
    # this is the one of the reduced columns.
    Mutant("no-coords-update", CHAINS,
           "_subtract(coords, column_coords.items(), factor, p)",
           "pass",
           (CLEARING,)),
    # quotient_complex accepts a sub whose boundary leaks.
    Mutant("no-leak-check", CHAINS,
           "if any(_restrict(c._cols[k], inside.get(k, ()), kept[k - 1])):",
           "if False:",
           ("tests/test_chains.py::TestQuotient::test_refuses_a_leaking_sub",)),
    # ChainMap.quotient accepts a map that sends a sub cell outside.
    Mutant("no-escape-check", CHAINS,
           "if any(_restrict(cols, sub_source.get(k, ()), kept_t[k])):",
           "if False:",
           ("tests/test_chains.py::TestQuotient::"
            "test_refuses_a_map_that_sends_the_sub_outside",)),
    # has answers True for a label that is not a vertex.
    Mutant("has-non-vertex", SIMPLICIAL,
           "return None not in places and",
           "return None in places or",
           ("tests/test_simplicial.py::TestOneRecord::"
            "test_has_answers_false_for_a_label_that_is_not_a_vertex",)),
)


def archive():
    """The tar of HEAD, made once and extracted for every copy."""
    return subprocess.run(["git", "-C", str(ROOT), "archive", "HEAD"],
                          capture_output=True, check=True).stdout


def extract(tar, into):
    with tarfile.open(fileobj=io.BytesIO(tar)) as t:
        if hasattr(tarfile, "data_filter"):
            t.extractall(into, filter="data")
        else:
            t.extractall(into)


def source(tree, mutant):
    """The text of mutant's file in tree; ValueError unless the old text
    occurs in it exactly once."""
    text = (pathlib.Path(tree) / mutant.file).read_text()
    found = text.count(mutant.old)
    if found != 1:
        raise ValueError(f"{mutant.name}: the old text occurs {found} times "
                         f"in {mutant.file}")
    return text


def run_tests(tree, tests, timeout):
    """pytest's exit code on tests in tree, or None after the timeout."""
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(tree) / "src")}
    proc = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         *tests], cwd=tree, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return None


def main():
    start = time.monotonic()
    tar = archive()
    with tempfile.TemporaryDirectory() as tree:
        extract(tar, tree)
        try:
            for m in MUTANTS:
                source(tree, m)
        except ValueError as e:
            print(f"error: {e}")
            return 2
        named = sorted({t for m in MUTANTS for t in m.tests})
        code = run_tests(tree, named, len(MUTANTS) * TIMEOUT)
        if code != 0:
            print(f"error: the unmutated tree fails its named tests "
                  f"(pytest exit {code})")
            return 2
    survived = 0
    for m in MUTANTS:
        began = time.monotonic()
        with tempfile.TemporaryDirectory() as tree:
            extract(tar, tree)
            path = pathlib.Path(tree) / m.file
            path.write_text(source(tree, m).replace(m.old, m.new))
            code = run_tests(tree, m.tests, TIMEOUT)
        verdict = ("killed (timeout)" if code is None
                   else "killed" if code else "survived")
        survived += code == 0
        print(f"{m.name:20} {verdict:16} {time.monotonic() - began:6.1f} s")
    print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} killed in "
          f"{time.monotonic() - start:.1f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
