"""Reference answers for the benchmark, independent of the library.

Nothing here imports `bockstein`.  The references are frozen tables,
closed forms derived by hand, and the test suite's own oracles
(`tests/oracles.py`) and golden files (`tests/golden/`), which are
loaded lazily so that their sympy import never lands in a timed region.
"""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden"

# check_laws over Universe((p, q), 2) with samples=10**4, for any two
# distinct primes: (checked, verdict) per law, in suite order.  Every
# law is exhaustive there except conjugate-maximal, which is sampled.
LAW_TABLE_PAIR_BOUND2 = {
    "round-trip": 18, "closure-sum": 324, "closure-times": 324,
    "closure-wedge": 324, "distributivity-times-sum": 5832,
    "distributivity-sum-wedge": 5832, "norm-sandwich": 324,
    "conjugation-zero": 605, "conjugate-maximal": 10000,
    "bockstein-alternative": 18, "field-bound": 18,
    "field-additivity": 324, "deficiency-product": 324,
    "singular-zpinf-sum": 324, "power-dichotomy": 18,
    "norm-basis-formula": 18, "decompose-rewedge": 18,
    "regular-factor": 324, "full-valued-factor": 324,
    "torsion-free-subadd": 324, "same-type-product": 18,
    "testing-identity": 18, "scaling-identities": 1,
    "sigma-consistency": 18, "anr-basic": 18,
}

# The same suite over Universe((p,), 1): the smoke-size table.
LAW_TABLE_SINGLE_BOUND1 = dict.fromkeys(LAW_TABLE_PAIR_BOUND2, 1)
LAW_TABLE_SINGLE_BOUND1.update({"conjugation-zero": 21,
                                "conjugate-maximal": 441})

LAW_NAMES = tuple(LAW_TABLE_PAIR_BOUND2)

# CLI basis spellings for the row kinds of tests/oracles.py.
CLI_BASIS = {"Q": "Q", "Zloc": "Zloc", "Zp": "Zp", "ZpInf": "Zpinf"}


def primes_below(n):
    return [k for k in range(2, n)
            if all(k % d for d in range(2, int(k ** 0.5) + 1))]


_ORACLES = None


def oracles():
    """tests/oracles.py, imported on first use."""
    global _ORACLES
    if _ORACLES is None:
        path = ROOT / "tests" / "oracles.py"
        spec = importlib.util.spec_from_file_location("bench_oracles", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        _ORACLES = module
    return _ORACLES


def golden(name):
    return (GOLDEN_DIR / name).read_text()


# -- Pontryagin stages -------------------------------------------------------

def stage_f_vector(p, stage):
    """f-vector of L_stage for the prime p.

    L_1 is the boundary of the 3-simplex.  Each later stage subdivides
    every edge into 2p edges and replaces every triangle by the mapping
    cylinder of the p-fold circle covering, which has 12p triangles,
    12p + 6 edges off its boundary circle and 6 vertices off it.
    """
    f0, f1, f2 = 4, 6, 4
    for _ in range(stage - 1):
        f0, f1, f2 = (f0 + (2 * p - 1) * f1 + 6 * f2,
                      2 * p * f1 + (12 * p + 6) * f2,
                      12 * p * f2)
    return (f0, f1, f2)


def stage_euler(p, stage):
    f0, f1, f2 = stage_f_vector(p, stage)
    return f0 - f1 + f2


def stage_field_betti(p, stage, field_prime):
    """Betti numbers of L_stage over Q (field_prime None) or Z/r.

    L_stage is connected with H_2 = 0 and H_1 = Z^b + Z/p, so the Euler
    characteristic fixes b, and only r = p sees the torsion.
    """
    b1 = 1 - stage_euler(p, stage)
    if field_prime == p:
        return (1, b1 + 1, 1)
    return (1, b1, 0)


def l2_integral(p):
    """H_*(L_2; Z) as (free rank, torsion orders): Z, Z^3 + Z/p, 0."""
    return {0: (1, ()), 1: (3, (p,)), 2: (0, ())}


def ew_integral_top(p):
    """H_n of the Edwards-Walsh skeleton over Z/p: Z/p."""
    return (0, (p,))


# -- CLI texts ---------------------------------------------------------------

def decompose_text(kind, p, n):
    """Frozen decompositions: a Zp or Zpinf fundamental type is its own
    decomposition, and the README example, with the prime as parameter,
    for Phi(Zp(p), 2) [+] Phi(Q, 2)."""
    if kind == "sum":
        return (f"Phi(Q, 3) \\/ Phi(Zp({p}), 3) \\/ Phi(Zpinf(p), 3) "
                f"for p in all-{{{p}}}")
    return f"Phi({CLI_BASIS[kind]}({p}), {n})"


def sigma_text(kind, p, q):
    if kind == "Zinv":
        return f"Zloc(p) for all p != {p}"
    return f"Z/{min(p, q)}; Z/{max(p, q)}"


def group_text(free_rank, orders):
    if free_rank == 0 and not orders:
        return "0"
    return " + ".join(["Z"] * free_rank + [f"Z/{t}" for t in orders])
