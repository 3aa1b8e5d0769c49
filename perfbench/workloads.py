"""The four workloads: inputs from a seed, one pass of ops, and checks.

A pass is a fixed amount of work whose cost does not depend on the
seed; the seed varies the order of the ops and parameters that do not
change their cost (which primes, which groups, which queries).  Each op
returns a plain output, which is checked against `refs` after all
timing is done.
"""

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time

import refs

clock = time.perf_counter

MAX_PASSES = 64
CLI_TIMEOUT_S = 60


def _rng(seed, index):
    return random.Random(f"{seed}:{index}")


class Op:
    __slots__ = ("label", "run", "check")

    def __init__(self, label, run, check):
        self.label = label
        self.run = run
        self.check = check


class PassResult:
    """Latencies and checked outcomes of one pass."""

    def __init__(self):
        self.latencies = []
        self.records = []
        self.wall = 0.0

    def failures(self):
        out = []
        for label, value, error, check in self.records:
            if error is None:
                try:
                    error = check(value)
                except Exception as exc:  # a malformed output
                    error = f"check raised {type(exc).__name__}: {exc}"
            if error:
                out.append(f"{label}: {error}")
        return out


def run_ops(ops, tracer=None):
    """Run ops one after another; an exception is a failed op."""
    res = PassResult()
    start = clock()
    for op in ops:
        t0 = clock()
        try:
            if tracer is None:
                value = op.run()
            else:
                with tracer.span("bench.op", {"op": op.label}):
                    value = op.run()
            error = None
        except Exception as exc:
            value, error = None, f"{type(exc).__name__}: {exc}"
        res.latencies.append(clock() - t0)
        res.records.append((op.label, value, error, op.check))
    res.wall = clock() - start
    return res


def _expect(got, want):
    return None if got == want else f"got {got!r}, expected {want!r}"


def _groups(report):
    return {k: (report[k].free_rank, tuple(report[k].orders))
            for k in report.degrees()}


# -- laws --------------------------------------------------------------------

class Laws:
    """check_laws over a two-prime universe at bound 2; an op is one law
    tuple, timed through a wrapper on each law function."""

    name = "laws"
    # p99.9 also has ten tuples beyond it, but it reads garbage-collector
    # pauses and scattered by 28% between runs; p99 has 250 beyond.
    tail_pct = 99

    def setup(self, seed, smoke):
        from bockstein.oracle import Universe
        small = refs.primes_below(50)
        universes = []
        for i in range(1 if smoke else MAX_PASSES):
            pair = sorted(_rng(seed, i).sample(small, 2))
            universes.append(Universe(pair[:1], 1) if smoke
                             else Universe(pair, 2))
        table = (refs.LAW_TABLE_SINGLE_BOUND1 if smoke
                 else refs.LAW_TABLE_PAIR_BOUND2)
        return {"passes": universes, "table": table}

    def run_pass(self, inputs, index, tracer=None):
        from bockstein import oracle
        universe = inputs["passes"][index % len(inputs["passes"])]
        res = PassResult()
        spans = {}
        saved = {}
        for name, law in oracle.LAWS.items():
            saved[name] = law.fn
            fn = law.fn
            if tracer is not None:
                fn = tracer.wrap(f"oracle.law.{name}", _consume(fn))
            law.fn = _timed_law(fn, res.latencies, spans.setdefault(name, []))
        start = clock()
        try:
            reports = oracle.check_laws(universe, samples=10 ** 4)
            error = None
        except Exception as exc:
            reports, error = None, f"{type(exc).__name__}: {exc}"
        finally:
            res.wall = clock() - start
            for name, fn in saved.items():
                oracle.LAWS[name].fn = fn
        if tracer is not None:
            for name, (first, last) in spans.items():
                tracer.spans.append([len(tracer.spans), None,
                                     f"oracle.law.{name}", first, last,
                                     {"tuples": tracer.calls(
                                         f"oracle.law.{name}")}])
        table = inputs["table"]
        if reports is None:
            res.records.append((f"check_laws {universe!r}", None, error,
                                None))
        elif [r.law for r in reports] != list(table):
            res.records.append((f"check_laws {universe!r}", None,
                                "law list differs from the fixed table",
                                None))
        else:
            # One verdict per law: its checked count and its pass/FAIL.
            for r in reports:
                res.records.append((r.law, (r.checked, r.ok), None,
                                    lambda got, w=table[r.law]:
                                    _expect(got, (w, True))))
        return res


def _consume(fn):
    def consumed(*args):
        return list(fn(*args))
    return consumed


def _timed_law(fn, sink, span):
    def timed(*args):
        t0 = clock()
        out = list(fn(*args))
        t1 = clock()
        sink.append(t1 - t0)
        if span:
            span[1] = t1
        else:
            span.extend((t0, t1))
        return out
    return timed


# -- integral homology -------------------------------------------------------

class HomologyInt:
    """Integral homology (Smith normal form) of a batch of complexes."""

    name = "homology-int"
    tail_pct = 75

    # 15 ops per pass, an odd count, so that the median and the tail
    # percentile land inside the block of one op kind instead of between
    # two kinds of different cost; ops of a few milliseconds are kept
    # few, as their times scatter most.
    L2_PRIMES = (2, 3, 5)
    CYLINDER_PRIMES = (5, 7, 11, 13, 17, 19, 23)
    EW_DIMS = (4, 5, 6)
    JOINS = 2

    def setup(self, seed, smoke):
        import bockstein  # noqa: F401  (the import is part of set-up)
        specs = []
        for i in range(1 if smoke else MAX_PASSES):
            rng = _rng(seed, i)
            if smoke:
                spec = [("L2", 2), ("cyl", 3), ("ew", 2, 2), ("join", 2, 4)]
            else:
                spec = ([("L2", p) for p in self.L2_PRIMES]
                        + [("cyl", p) for p in self.CYLINDER_PRIMES]
                        + [("ew", n, rng.choice(refs.primes_below(30)))
                           for n in self.EW_DIMS]
                        + [("join", rng.randint(2, 30), rng.randint(2, 30))
                           for _ in range(self.JOINS)])
                rng.shuffle(spec)
            specs.append(spec)
        return {"passes": specs}

    def ops(self, spec):
        from bockstein import chains, simplicial
        from bockstein.groups import Zmod
        out = []
        for item in spec:
            kind = item[0]
            if kind == "L2":
                p = item[1]

                def run(p=p):
                    stages, _ = simplicial.pontryagin_stage(p, 1)
                    return _groups(simplicial.homology_of(stages[-1]))
                out.append(Op(f"L2 p={p}", run,
                              lambda got, p=p: _expect(got,
                                                       refs.l2_integral(p))))
            elif kind == "cyl":
                p = item[1]

                def run(p=p):
                    cyl = simplicial.mapping_cylinder(
                        simplicial.degree_map_circle(p))
                    return _groups(simplicial.homology_of(
                        cyl.complex, relative_to=cyl.domain))
                out.append(Op(f"M_p rel circle p={p}", run,
                              lambda got, p=p: _expect(
                                  got, refs.oracles().mp_pair_integral(p))))
            elif kind == "ew":
                n, p = item[1], item[2]

                def run(n=n, p=p):
                    ew, _ = simplicial.ew_skeleton(
                        simplicial.full_simplex(n + 1), Zmod(p), n)
                    return _groups(chains.homology(ew))[n]
                out.append(Op(f"EW n={n} p={p}", run,
                              lambda got, p=p: _expect(
                                  got, refs.ew_integral_top(p))))
            else:
                a, b = item[1], item[2]

                def run(a=a, b=b):
                    return _groups(chains.join_homology(
                        chains.moore_space(a, 1), chains.moore_space(b, 1)))
                out.append(Op(f"join M(Z/{a},1)*M(Z/{b},1)", run,
                              lambda got, g=math.gcd(a, b): _expect(
                                  got, refs.oracles().join_expect(g))))
        return out

    def run_pass(self, inputs, index, tracer=None):
        specs = inputs["passes"]
        return run_ops(self.ops(specs[index % len(specs)]), tracer)


# -- field homology ----------------------------------------------------------

class HomologyField:
    """Rational and mod-p cohomology of the Pontryagin stage L_3, with the
    bonding-map checks of `verify pontryagin --stages 2`."""

    name = "homology-field"
    tail_pct = 75

    # Three stage builds per pass, five ops each: an odd count, as in
    # HomologyInt.
    PRIMES = (2, 2, 3)

    def setup(self, seed, smoke):
        import bockstein  # noqa: F401  (the import is part of set-up)
        specs = []
        for i in range(1 if smoke else MAX_PASSES):
            rng = _rng(seed, i)
            primes = [2] if smoke else list(self.PRIMES)
            rng.shuffle(primes)
            specs.append([(p, rng.choice([r for r in refs.primes_below(50)
                                          if r != p]))
                          for p in primes])
        return {"passes": specs, "stages": 1 if smoke else 2}

    def ops(self, spec, k):
        from bockstein import simplicial
        from bockstein.groups import Q, Zmod
        top = k + 1
        out = []
        for p, q in spec:
            state = {}

            def build(p=p, state=state):
                state["stages"], state["bonds"] = \
                    simplicial.pontryagin_stage(p, k)
                c = state["stages"][-1].chain_complex()
                return ([s.f_vector() for s in state["stages"]],
                        tuple(c.rank(j) for j in range(c.top + 1)))

            def field_dims(coeff, state=state):
                rep = simplicial.cohomology_of(state["stages"][-1], coeff)
                return tuple(rep[j].free_rank + len(rep[j].orders)
                             for j in rep.degrees())

            def bonds(p=p, state=state):
                isos = [simplicial.induced(b, 2, Zmod(p),
                                           cohomology=True).iso
                        for b in state["bonds"]]
                state.clear()  # the last op on these stages frees them
                return isos

            want_f = [refs.stage_f_vector(p, s) for s in range(1, top + 1)]
            out.append(Op(f"build L_1..L_{top} and chains p={p}", build,
                          lambda got, w=want_f: _expect(got, (w, w[-1]))))
            for label, coeff, r in (("Q", Q, None), (f"Z/{p}", Zmod(p), p),
                                    (f"Z/{q}", Zmod(q), q)):
                want = refs.stage_field_betti(p, top, r)
                out.append(Op(f"H^*(L_{top}; {label}) p={p}",
                              lambda c=coeff, f=field_dims: f(c),
                              lambda got, w=want, p=p: _betti_check(
                                  got, w, refs.stage_euler(p, top))))
            out.append(Op(f"bonding maps on H^2(.; Z/{p})", bonds,
                          lambda got: _expect(got, [True] * k)))
        return out

    def run_pass(self, inputs, index, tracer=None):
        specs = inputs["passes"]
        return run_ops(self.ops(specs[index % len(specs)], inputs["stages"]),
                       tracer)


def _betti_check(got, want, euler):
    alternating = sum((-1) ** j * b for j, b in enumerate(got))
    if alternating != euler:
        return f"alternating Betti sum {alternating} != Euler {euler}"
    return _expect(got, want)


# -- CLI queries -------------------------------------------------------------

GOLDEN_CASES = {
    "eval_norm.txt": ["eval", "norm(Phi(Zp(2),3) [+] Phi(Q,2))"],
    "eval_dim.txt": ["eval", "dim(nat(3), Z/2^2)"],
    "eval_inorm.txt": ["eval", "inorm(nat(5))"],
    "table_fundamental.txt": ["table", "fundamental", "--n", "3"],
    "table_products.txt": ["table", "products", "--n", "4", "--m", "3"],
    "verify_mp_pair.txt": ["verify", "mp-pair", "--p", "2", "--coeff", "Q"],
    "check_laws.txt": ["check-laws", "--primes", "2", "--max", "2",
                       "--laws",
                       "round-trip,norm-sandwich,field-bound,"
                       "conjugation-zero"],
}

SEVEN_COLUMNS = (("Zloc", True), ("Zp", True), ("ZpInf", True),
                 ("Q", True), ("Zloc", False), ("Zp", False),
                 ("ZpInf", False))
ROW_KINDS = ("Q", "Zloc", "Zp", "ZpInf")


def _phi(kind, prime, n):
    if kind == "Q":
        return f"Phi(Q,{n})"
    return f"Phi({refs.CLI_BASIS[kind]}({prime}),{n})"


def _group(kind, prime):
    return {"Q": "Q", "Zloc": f"Zloc{{{prime}}}", "Zp": f"Z/{prime}",
            "ZpInf": f"Zpinf({prime})"}[kind]


def _text_is(want_fn, newline=True):
    """stdout must be want_fn() (plus print's newline) and exit 0."""
    def check(out):
        code, stdout = out
        if code != 0:
            return f"exit {code}"
        return _expect(stdout, want_fn() + ("\n" if newline else ""))
    return check


def _table_is(rows_fn):
    def check(out):
        code, stdout = out
        if code != 0:
            return f"exit {code}"
        cells = [row["cells"] for row in json.loads(stdout)["rows"]]
        return _expect(cells, rows_fn())
    return check


def _mp_pair_is(p):
    def check(out):
        code, stdout = out
        if code != 0:
            return f"exit {code}"
        groups = refs.oracles().mp_pair_integral(p)
        want = ", ".join(refs.group_text(*groups[k]) for k in (0, 1, 2))
        lines = stdout.splitlines()
        if not lines[1].startswith(f"  H_*(M_p, dM_p; Z): {want} "):
            return f"integral line {lines[1]!r}, expected {want}"
        return _expect(lines[-1], "pass")
    return check


def cli_queries(rng, smoke):
    """One pass of the CLI stream: (label, argv, check) triples."""
    small = refs.primes_below(30)
    p, q = rng.sample(small, 2)
    out = []
    m = rng.randint(2, 4)
    n = rng.randint(m, m + 2)
    j = rng.randrange(7)
    ck, own = SEVEN_COLUMNS[j]
    rk = rng.choice(ROW_KINDS)
    expr = f"norm({_phi(ck, p if own else q, n)} [+] {_phi(rk, p, m)})"
    out.append(("eval norm", ["eval", expr], _text_is(lambda: str(
        refs.oracles().fig2_row(rk, n, m)[j]))))
    if not smoke:
        n2 = rng.randint(2, 6)
        j2 = rng.randrange(7)
        ck2, own2 = SEVEN_COLUMNS[j2]
        rk2 = rng.choice(ROW_KINDS)
        expr = f"dim({_phi(rk2, p, n2)}, {_group(ck2, p if own2 else q)})"
        out.append(("eval dim", ["eval", expr], _text_is(lambda: str(
            refs.oracles().fig1_row(rk2, n2)[j2]))))
        n3 = rng.randint(1, 6)
        if rng.random() < 0.5:
            out.append(("eval inorm", ["eval", f"inorm(nat({n3}))"],
                        _text_is(lambda: str(n3))))
        else:
            rk3 = rng.choice(ROW_KINDS)
            out.append(("eval inorm",
                        ["eval", f"inorm({_phi(rk3, p, n3 + 1)})"],
                        _text_is(lambda: str(min(refs.oracles().fig1_row(
                            rk3, n3 + 1))))))
        dk = rng.choice(("Zp", "ZpInf", "sum"))
        n4 = rng.randint(2, 6)
        expr = ("Phi(Zp({0}),2) [+] Phi(Q,2)".format(p) if dk == "sum"
                else _phi(dk, p, n4))
        out.append(("decompose", ["decompose", expr],
                    _text_is(lambda: refs.decompose_text(dk, p, n4))))
        sk = rng.choice(("Zinv", "sum"))
        group = f"Zinv({p})" if sk == "Zinv" else f"Z/{p} + Z/{q}"
        out.append(("sigma", ["sigma", group],
                    _text_is(lambda: refs.sigma_text(sk, p, q))))
        m5 = rng.randint(2, 4)
        n5 = rng.randint(m5, m5 + 2)
        out.append(("table products",
                    ["table", "products", "--n", str(n5), "--m", str(m5),
                     "--p", str(p), "--q", str(q), "--json"],
                    _table_is(lambda: [list(refs.oracles().fig2_row(
                        kind, n5, m5)) for kind in ROW_KINDS])))
        p7 = rng.choice((2, 3, 5, 7))
        out.append(("verify mp-pair",
                    ["verify", "mp-pair", "--p", str(p7), "--coeff", "Q"],
                    _mp_pair_is(p7)))
    n6 = rng.randint(2, 6)
    out.append(("table fundamental",
                ["table", "fundamental", "--n", str(n6), "--p", str(p),
                 "--q", str(q), "--json"],
                _table_is(lambda: [list(refs.oracles().fig1_row(kind, n6))
                                   for kind in ROW_KINDS])))
    goldens = rng.sample(sorted(GOLDEN_CASES), 1 if smoke else 2)
    for name in goldens:
        out.append((f"golden {name}", GOLDEN_CASES[name],
                    _text_is(lambda name=name: refs.golden(name),
                             newline=False)))
    rng.shuffle(out)
    return out


class CliQueries:
    """A closed loop with one client: each op is one `python -m
    bockstein.cli` process, started after the previous one exits."""

    name = "cli-queries"
    tail_pct = 75

    def setup(self, seed, smoke):
        import bockstein  # noqa: F401  (the import is part of set-up)
        streams = [cli_queries(_rng(seed, i), smoke)
                   for i in range(1 if smoke else MAX_PASSES)]
        return {"passes": streams, "env": cli_env()}

    def run_pass(self, inputs, index, tracer=None):
        stream = inputs["passes"][index % len(inputs["passes"])]
        env = inputs["env"]
        return run_ops([Op(label, lambda argv=argv: _run_cli(argv, env),
                           check) for label, argv, check in stream])

    def replay(self, inputs, index, tracer=None):
        """The same stream through cli.main in this process."""
        from bockstein import cli
        stream = inputs["passes"][index % len(inputs["passes"])]

        def call(argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(list(argv))
            return code, buf.getvalue()
        return run_ops([Op(label, lambda argv=argv: call(argv), check)
                        for label, argv, check in stream], tracer)


def cli_env():
    """Environment of a CLI process as a user would run it: sources on
    the path and the bytecode cache in use."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(refs.ROOT / "src")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _run_cli(argv, env):
    proc = subprocess.run([sys.executable, "-m", "bockstein.cli", *argv],
                          cwd=refs.ROOT, env=env, capture_output=True,
                          text=True, timeout=CLI_TIMEOUT_S)
    return proc.returncode, proc.stdout


WORKLOADS = {w.name: w for w in (Laws(), HomologyInt(), HomologyField(),
                                 CliQueries())}
