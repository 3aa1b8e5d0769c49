"""Record hashes of the law checker, the command line, the finite
complexes and the dimension-type values.

    PYTHONPATH=<tree>/src python tests/differential.py --seed 1 [--dump DIR]

prints one line per family: its name, how many records it made and the
SHA-256 of those records.  Run it on two trees with the same seed: equal
hashes mean equal outputs on every input of the family.  `--dump DIR`
also writes each family's records to DIR/<family>.jsonl, one JSON line
per record, so that two dumps can be compared with diff.  `--family`
picks families: the laws family takes ~30 s and the cli family ~1 s on
a 2-CPU x86_64 machine with Python 3.11.  No record holds a raw hash:
group expressions hash by their class's slots, and values holding inf
hash differently under each PYTHONHASHSEED.

Families:

  laws  the rendered reports of `check_laws` on three reference
        universes; seeded `check_laws` runs on small universes; law
        selections resolved by `select_laws`; sample counts, valid or not
  cli   seeded `eval`, `decompose` and `sigma` calls over every query
        kind, as text and --json, with inputs that must be refused;
        `table`; small `verify` and `check-laws` runs.  Each record is
        the argument list, the exit code, stdout and stderr of
        `cli.main`.
  cylinders
        mapping cylinders of the circle coverings of degree 2..53 and
        of 50 seeded random maps (half of them on labels drawn from a
        wide range): the text of the complex and of both ends, the
        indices of the domain end, the homology and cohomology of the
        pair over Z, Q, Z/2, Z/q and Z(q^inf), and the collapse map on
        the pair over Z/q in every degree, q a prime dividing the degree
        (seeded for random maps); then `verify mp-pair` for p = 2..53
        over Z, Q and Z/p, as text and --json, records as in cli.  It
        takes ~5 s.
  complexes
        80 seeded complexes (every other one on labels drawn from a wide
        range): the f-vector, the vertices, every degree's simplices,
        `has` on faces and on non-faces, the text of every skeleton and
        of a full subcomplex, the `complex_to_text` round trip, the
        chain complex, and the chain data of the Edwards-Walsh skeleta
        over Z, Z/2 and Z/3; then 120 seeded vertex maps between such
        complexes, of the four kinds of `_map_between_complexes`: the
        outcome or error text of `SimplicialMap(...)`, and of a map it
        accepts the `map_to_text`, the chain map columns and the induced
        maps in homology and cohomology over Z, Q and Z/2.  It takes
        ~0.5 s.
  types
        seeded triples (S, D; d) with levels 1..3, with extended levels
        -2..2 and with infinite levels: `render`, `repr`, the JSON round
        trip, `to_phi`, both norms, `sum`, `times`, `wedge`, `scale`,
        `conjugate` and `leq` with the triple drawn before, `dim` over
        nine groups and `decompose`; seeded Bockstein functions, valid
        or not, through `validate` and `from_phi`; seeded group
        expressions through `normalize` and `sigma`; the basis elements
        and their Kuzminov types.  Each value is compared by `==` with
        a twin built apart, with the value drawn before and with a
        value of another class, and each equal pair records whether
        the hashes agree.  It takes ~0.3 s.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import sys

from bockstein import cli, simplicial
from bockstein.cdtype import (
    Basis,
    BocksteinFn,
    CdType,
    decompose,
    nat,
    phi_basis,
    validate,
)
from bockstein.dimension import dim
from bockstein.groups import (
    DirectSum,
    Q,
    SumOverPrimes,
    Z,
    Zinv,
    Zloc,
    Zmod,
    ZpInf,
    normalize,
    sigma,
)
from bockstein.oracle import (
    LAW_NAMES,
    Universe,
    check_laws,
    render_reports,
    select_laws,
)
from bockstein.primes import ALL_PRIMES, INF, PrimeFn, PrimeSet

REFERENCE_UNIVERSES = (Universe((2, 3), 2), Universe((2,), 3),
                       Universe((3, 5), 2, True))

# Laws that finish in milliseconds on a universe of bound 2.
_QUICK_LAWS = ("round-trip", "closure-sum", "closure-wedge", "norm-sandwich",
               "conjugation-zero", "bockstein-alternative", "field-bound",
               "field-additivity", "deficiency-product", "decompose-rewedge",
               "full-valued-factor", "scaling-identities")


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _outcome(call):
    try:
        return call()
    except (ValueError, ArithmeticError) as exc:
        return f"{type(exc).__name__}: {exc}"


# -- laws ---------------------------------------------------------------------


def law_records(seed, universes=REFERENCE_UNIVERSES):
    rng = random.Random(seed)
    out = []
    for u in universes:
        text = render_reports(check_laws(u))
        out.append(["check_laws", repr(u), _sha(text), text])
    for _ in range(6):
        u = Universe(rng.sample((2, 3, 5, 7), rng.randint(1, 2)),
                     rng.randint(1, 2))
        laws = ",".join(rng.sample(_QUICK_LAWS, 3))
        samples = rng.randint(1, 300)
        out.append(["check_laws", repr(u), laws, samples,
                    [r.to_json() for r in check_laws(u, laws, samples)]])
    selections = ["all", None, "", ",,", " , ", "round-trip",
                  "norm-sandwich, round-trip", "all,round-trip",
                  "round-trip,,field-bound", "bogus", "field-bound,bogus",
                  [], ["field-bound"], ("all",), ["round-trip", "all"]]
    for _ in range(12):
        names = rng.sample(LAW_NAMES, rng.randint(1, 5))
        if rng.random() < 0.2:
            names.append(rng.choice(("all", "no-such-law", "Round-Trip")))
        sep = rng.choice((",", ", ", " ,", ",,"))
        selections.append(sep.join(names) if rng.random() < 0.7 else names)
    for sel in selections:
        out.append(["select_laws", repr(sel), _outcome(
            lambda: [law.name for law in select_laws(sel)])])
    sampled = Universe((2, 3), 4)     # 196^3 triples: ternary laws sample
    for samples in (True, False, 1, 60, 0, -1, "many", 2.5, None,
                    rng.randint(2, 100)):
        out.append(["samples", repr(samples), _outcome(lambda: [
            r.to_json() for r in check_laws(
                sampled, "distributivity-times-sum", samples)])])
    return out


# -- cli ----------------------------------------------------------------------

_PRIMES = (2, 3, 5, 7)


def _basis(rng):
    kind = rng.choice(("Q", "Zp", "Zpinf", "Zloc"))
    return kind if kind == "Q" else f"{kind}({rng.choice(_PRIMES)})"


def _group(rng, depth=0):
    p = rng.choice(_PRIMES)
    pick = rng.randrange(10 if depth < 1 else 9)
    if pick == 9:
        return f"{_group(rng, 1)} + {_group(rng, 1)}"
    return ("Q", "Z", f"Z/{p}", f"Z/{p}^{rng.randint(1, 3)}",
            f"Zloc{{{p}}}", "Zloc{}", f"Zpinf({p})", f"Zinv({p})",
            rng.choice(("SumAll(Zp)", "SumAll(Zpinf)",
                        f"SumOver({{{p}}}, Zp)",
                        f"SumOver({{2,{p}}}, Zpinf)")))[pick]


def _value(rng):
    return rng.choice(("inf", "-inf", "0", "1", "2", "3", "-1"))


def _cdexpr(rng, depth=0):
    pick = rng.randrange(9 if depth < 2 else 4)
    if pick == 0:
        return f"nat({rng.randint(1, 4)})"
    if pick in (1, 2):
        return f"Phi({_basis(rng)}, {rng.randint(1, 4)})"
    if pick == 3:
        p = rng.choice(_PRIMES)
        d = f"{{default: {_value(rng)}, {p}: {_value(rng)}}}"
        return f"triple(S={{{p}}}, D={rng.choice(('{}', f'{{{p}}}'))}, d={d})"
    if pick == 4:
        return f"test({_group(rng)}, {rng.randint(1, 3)})"
    if pick == 5:
        return f"conj({_cdexpr(rng, depth + 1)})"
    if pick == 6:
        return f"pow({_cdexpr(rng, depth + 1)}, {rng.randint(1, 3)})"
    if pick == 7:
        fn = rng.choice(("prod", "times", "wedge"))
        return (f"{fn}({_cdexpr(rng, depth + 1)}, "
                f"{_cdexpr(rng, depth + 1)})")
    op = rng.choice((" [+] ", " [x] ", " \\/ "))
    return f"({_cdexpr(rng, depth + 1)}{op}{_cdexpr(rng, depth + 1)})"


def _query(rng):
    kind = rng.choice(("norm", "inorm", "dim", "sigma", "decompose", "leq",
                       "phi", "value"))
    if kind == "value":
        return _cdexpr(rng)
    if kind == "dim":
        return f"dim({_cdexpr(rng)}, {_group(rng)})"
    if kind == "sigma":
        return f"sigma({_group(rng)})"
    if kind == "leq":
        return f"leq({_cdexpr(rng)}, {_cdexpr(rng)})"
    return f"{kind}({_cdexpr(rng)})"


_BAD_QUERIES = ("Phi(Z,3)", "norm(nat(2)", "nat(2) nat(3)", "Phi(Zp(4),2)",
                "frob(nat(1))", "dim(nat(2), Z/4)", "norm()", "dim(nat(1))",
                "leq(nat(1))", "sigma(nat(1))", "phi(Q)", "norm(nat(1), Q)",
                "decompose(conj(nat(2)))", "norm", "", "nat(0)", "nat(-1)",
                "triple(S={2}, D={}, d={zero: 1})", "sigma(Z/2^0)",
                "dim(nat(2), SumOver({}, Zp))", "Phi(Zp(2), 0)")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:     # argparse refuses the argument list
            code = exc.code
    return [argv, code, out.getvalue(), err.getvalue()]


def cli_runs(seed):
    """The argument lists of the cli family, in order."""
    rng = random.Random(seed)
    queries = [_query(rng) for _ in range(80)] + list(_BAD_QUERIES)
    # a truncated query is mostly a syntax error
    for _ in range(10):
        q = _query(rng)
        queries.append(q[:rng.randrange(len(q))])
    runs = [["eval", q] for q in queries]
    runs += [["decompose", _cdexpr(rng)] for _ in range(10)]
    runs += [["decompose", "conj(nat(2))"], ["decompose", "norm(nat(1))"]]
    runs += [["sigma", _group(rng)] for _ in range(10)]
    runs += [["sigma", "nat(1)"], ["sigma", "Z/6"]]
    runs += [["table", "fundamental", "--n", "2"],
             ["table", "fundamental", "--n", "3", "--p", "3", "--q", "5"],
             ["table", "products", "--n", "4", "--m", "3"],
             ["table", "products", "--n", "3"],
             ["table", "fundamental", "--n", "0"],
             ["table", "fundamental", "--n", "2", "--p", "3", "--q", "3"],
             ["table", "bogus", "--n", "2"]]
    runs += [["verify", "mp-pair", "--p", "2", "--coeff", c]
             for c in ("Q", "Z", "Z/2", "Z/3", "Zpinf(2)", "Zloc{2}", "Zloc(")]
    runs += [["verify", "mp-pair", "--p", "3"],
             ["verify", "mp-pair", "--p", "997"],
             ["verify", "ew", "--p", "2", "--n", "2"],
             ["verify", "ew", "--n", "11"],
             ["verify", "join", "--p", "2", "--q", "3"],
             ["verify", "join", "--p", "3", "--q", "3"],
             ["verify", "join", "--q", "4"],
             ["verify", "pontryagin", "--p", "2"],
             ["verify", "pontryagin", "--p", "3", "--stages", "3"],
             ["verify", "bogus"]]
    runs += [["check-laws", "--primes", "2", "--max", "2", "--laws",
              "round-trip,norm-sandwich,field-bound,conjugation-zero"],
             ["check-laws", "--primes", "3", "--max", "1"],
             ["check-laws", "--primes", "2", "--max", "2", "--laws",
              ",".join(rng.sample(_QUICK_LAWS, 3))],
             ["check-laws", "--laws", ",,"],
             ["check-laws", "--laws", "bogus"],
             ["check-laws", "--max", "0"],
             ["check-laws", "--primes", "2,9"],
             ["check-laws", "--primes", ","],
             ["check-laws", "--primes", "2,3", "--max", "9",
              "--laws", "round-trip"]]
    return [argv for run in runs
            for argv in (run, [run[0], "--json", *run[1:]])]


def cli_records(seed):
    return [_run(argv) for argv in cli_runs(seed)]


# -- cylinders ----------------------------------------------------------------


def _random_map(rng, wide):
    """A simplicial map of small random complexes, on labels 0..10 or on
    11 labels drawn from a wide range."""
    names = (rng.sample(range(-10 ** 6, 10 ** 6), 11) if wide
             else list(range(11)))
    target = simplicial.SimplicialComplex(
        rng.sample(names[6:], rng.randint(1, 3))
        for _ in range(rng.randint(1, 4)))
    vmap = {v: rng.choice(target.vertices()) for v in names[:6]}
    simplices = [s for k in (1, 2, 3)
                 for s in itertools.combinations(names[:6], k)
                 if target.has({vmap[v] for v in s})]
    source = simplicial.SimplicialComplex(
        rng.sample(simplices, rng.randint(1, 6)))
    return simplicial.SimplicialMap(
        source, target, {v: vmap[v] for v in source.vertices()})


def _cylinder_record(name, f, q):
    cyl = simplicial.mapping_cylinder(f)
    x, a = cyl.complex, cyl.domain
    groups = {}
    for coeff in (Z, Q, Zmod(2), Zmod(q), ZpInf(q)):
        groups[coeff.render()] = [
            simplicial.homology_of(x, coeff, relative_to=a).render(),
            simplicial.cohomology_of(x, coeff, relative_to=a).render()]
    cone, xi, base = cyl.collapse()
    collapse = [simplicial.induced(xi, k, Zmod(q), relative=(a, base),
                                   cohomology=True).render()
                for k in range(x.dim + 1)]
    return ["cylinder", name, q, simplicial.complex_to_text(x),
            simplicial.complex_to_text(a),
            simplicial.complex_to_text(cyl.target),
            sorted(x.indices_of(a).items()), groups, collapse]


def cylinder_records(seed, degrees=range(2, 54), maps=50):
    rng = random.Random(seed)
    out = []
    for p in degrees:
        q = next(d for d in range(2, p + 1) if p % d == 0)
        out.append(_cylinder_record(f"degree {p}",
                                    simplicial.degree_map_circle(p), q))
    for i in range(maps):
        out.append(_cylinder_record(f"random {i}", _random_map(rng, i % 2),
                                    rng.choice((2, 3, 5))))
    for p in degrees:
        for coeff in ("Z", "Q", f"Z/{p}"):
            argv = ["verify", "mp-pair", "--p", str(p), "--coeff", coeff]
            out += [_run(argv), _run([argv[0], "--json", *argv[1:]])]
    return out


# -- complexes ----------------------------------------------------------------


def _random_complex(rng, wide):
    """A complex of up to 6 faces of 1 to 5 vertices, on labels 0..8 or
    on 9 labels drawn from a wide range."""
    names = (rng.sample(range(-10 ** 6, 10 ** 6), 9) if wide
             else list(range(9)))
    return simplicial.SimplicialComplex(
        rng.sample(names, rng.choice((1, 2, 2, 3, 3, 4, 5)))
        for _ in range(rng.randint(1, 6)))


def _chain_data(c):
    return [c.ranks, sorted(c._cols.items())]


def _complex_record(name, x, rng):
    vertices = x.vertices()
    faces = list(x.all_simplices())
    probes = [rng.choice(faces) for _ in range(4)]
    probes += [rng.sample(vertices, rng.randint(1, min(4, len(vertices))))
               for _ in range(6)]
    probes.append([vertices[0], 10 ** 7])      # 10 ** 7 is no vertex
    keep = set(rng.sample(vertices, rng.randint(0, len(vertices))))
    sub = x.full_subcomplex(keep.__contains__)
    text = simplicial.complex_to_text(x)
    ew = {}
    for group in (Z, Zmod(2), Zmod(3)):
        for n in (2, 3):
            c, inclusion = simplicial.ew_skeleton(x, group, n)
            ew[f"{group.render()} {n}"] = [_chain_data(c),
                                           sorted(inclusion._cols.items())]
    return ["complex", name, x.f_vector(), x.dim, vertices,
            [x.simplices(k) for k in range(x.dim + 1)],
            [[p, x.has(p)] for p in probes],
            [[k, simplicial.complex_to_text(x.skeleton(k)),
              x.skeleton(k).vertices()] for k in range(-1, x.dim + 2)],
            [sorted(keep), simplicial.complex_to_text(sub), sub.vertices()],
            [text, simplicial.complex_from_text(text) == x],
            _chain_data(x.chain_complex()), ew]


def _map_between_complexes(rng, wide, kind):
    """Two random complexes and a vertex map between them: arbitrary
    (kind 0); carrying simplices into one simplex of the target (kind 1);
    such a map with one vertex dropped, one key outside the source or one
    image outside the target (kind 2); or such a map into the target
    with that simplex taken out, so that only simplices whose image is
    all of it, collapsed or not, fail (kind 3)."""
    source, target = _random_complex(rng, wide), _random_complex(rng, wide)
    sv, tv = source.vertices(), target.vertices()
    if kind == 0:
        return source, target, {v: rng.choice(tv) for v in sv}
    top = rng.choice(list(target.all_simplices()))
    vmap = {v: rng.choice(top) for v in sv}
    if kind == 2:
        broken = rng.randrange(3)
        if broken == 0:
            del vmap[rng.choice(sv)]
        else:
            vmap[rng.choice(sv) if broken == 2 else 10 ** 7] = (
                10 ** 7 if broken == 2 else tv[0])
    if kind == 3 and len(top) > 1:
        target = simplicial.SimplicialComplex(
            s for s in target.all_simplices() if not set(top) <= set(s))
    return source, target, vmap


def _map_record(name, source, target, vmap):
    f = _outcome(lambda: simplicial.SimplicialMap(source, target, vmap))
    if isinstance(f, str):
        return ["map", name, sorted(vmap.items(), key=repr), f]
    induced = [[k, coeff.render(), cohomology, _outcome(
        lambda: simplicial.induced(f, k, coeff,
                                   cohomology=cohomology).render())]
               for k in range(source.dim + 1) for coeff in (Z, Q, Zmod(2))
               for cohomology in (False, True)]
    return ["map", name, sorted(vmap.items(), key=repr), "ok",
            simplicial.map_to_text(f), sorted(f.chain_map()._cols.items()),
            induced]


def complex_records(seed, complexes=80, maps=120):
    rng = random.Random(seed)
    out = [_complex_record(f"complex {i}", _random_complex(rng, i % 2), rng)
           for i in range(complexes)]
    for i in range(maps):
        out.append(_map_record(f"map {i}", *_map_between_complexes(
            rng, i % 2, i // 2 % 4)))
    return out


# -- types --------------------------------------------------------------------

# The d levels of the three kinds of seeded triples.
_LEVELS = {"standard": (1, 2, 3), "extended": (-2, -1, 0, 1, 2),
           "infinite": (1, 2, INF)}
# Nine coefficient groups: every kind of member sigma can list.
_GROUPS = (Z, Q, Zmod(2), Zmod(3, 2), ZpInf(2), Zloc([3]), Zinv(5),
           SumOverPrimes(ALL_PRIMES), Z + ZpInf(3))


def _equality(a, b):
    """a == b, b == a and a != b; for an equal pair, whether the hashes
    agree.  The hash itself is never recorded."""
    same = [a == b, b == a, a != b]
    return same + [hash(a) == hash(b)] if a == b else same


def _prime_set(rng):
    return PrimeSet(rng.sample(_PRIMES, rng.randint(0, 2)),
                    cofinite=rng.random() < 0.3)


def _triple(rng, levels):
    """A seeded valid triple: d is d(0) off S and any level on S."""
    s = _prime_set(rng)
    d0 = rng.choice(levels)
    on_s = {p: rng.choice(levels) for p in rng.sample(_PRIMES, 2) if p in s}
    off_s = dict.fromkeys(s.primes, d0) if s.cofinite else {}
    default = rng.choice(levels) if s.cofinite else d0
    return CdType.triple(s, s & _prime_set(rng),
                         PrimeFn(d0, default, {**on_s, **off_s}))


def _decomposition(t):
    dec = decompose(t)
    return [repr(dec), [[kind, repr(over), repr(n)]
                        for kind, over, n in dec.entries()],
            dec.rewedge() == t]


def _type_record(name, t, u):
    """t alone, and t with u, the triple drawn before it."""
    back = CdType.from_json(json.loads(json.dumps(t.to_json())))
    ops = {"sum": lambda: t.sum(u), "times": lambda: t.times(u),
           "wedge": lambda: t.wedge(u), "scale": lambda: t.scale(3),
           "conjugate": t.conjugate, "leq": lambda: [t.leq(u), u.leq(t)]}
    return ["type", name, t.render(), repr(t), t.to_json(), repr(back),
            repr(t.to_phi()), repr(t.norm()), repr(t.inferior_norm()),
            [[op, _outcome(lambda: repr(call()))] for op, call in ops.items()],
            [_outcome(lambda: repr(dim(t, g))) for g in _GROUPS],
            _outcome(lambda: _decomposition(t)),
            _equality(t, back), _equality(t, u),
            _equality(t.to_phi(), back.to_phi()), _equality(t, t.to_phi()),
            _equality(t.d, back.d), _equality(t.S, t.D)]


def _bockstein_fn(rng):
    """Seeded values on the basis: half of them a seeded triple's, half
    drawn freely, valid or not, exceptional at up to two primes per
    coordinate."""
    if rng.random() < 0.5:
        return _triple(rng, rng.choice(tuple(_LEVELS.values()))).to_phi()
    q = rng.choice((0, 1, 2, INF))
    return BocksteinFn(q, *(PrimeFn(q, rng.choice((q, q, q + 1)), {
        p: rng.choice((0, 1, 2, 3, INF))
        for p in rng.sample(_PRIMES, rng.randint(0, 2))}) for _ in range(3)))


def _phi_record(name, phi, prev):
    twin = BocksteinFn(phi.phi_q, *(PrimeFn.from_json(f.to_json())
                                    for f in (phi.zp, phi.zpinf, phi.zloc)))
    return ["phi", name, repr(phi), [list(v) for v in validate(phi)],
            _outcome(lambda: repr(CdType.from_phi(phi))),
            _outcome(lambda: CdType.from_phi(phi).to_phi() == phi),
            repr(phi.sup()), repr(phi.inf()), repr(phi.at(2)),
            repr(phi.max_with(prev)), phi.leq(prev),
            _equality(phi, twin), _equality(phi, prev)]


def _group_expr(rng, depth=0):
    p = rng.choice(_PRIMES)
    pick = rng.randrange(8 if depth else 9)
    if pick == 8:
        return DirectSum([_group_expr(rng, 1)
                          for _ in range(rng.randint(2, 3))])
    return (Q, Z, Zmod(p), Zmod(p, rng.randint(2, 3)), ZpInf(p),
            Zloc(_prime_set(rng)), Zinv(p),
            SumOverPrimes(_prime_set(rng), rng.choice(("Zp", "ZpInf"))))[pick]


def _group_record(name, g, twin, prev):
    return ["group", name, repr(g), g.render(), repr(normalize(g)),
            _outcome(lambda: [repr(sigma(g)), sigma(g).render()]),
            _equality(g, twin), _equality(g, prev),
            _equality(normalize(g), normalize(twin)),
            _outcome(lambda: _equality(sigma(g), sigma(twin))),
            _equality(g, normalize(g))]


def type_records(seed, triples=60, fns=80, groups=80):
    rng = random.Random(seed)
    out = []
    prev = nat(1)
    for kind, levels in _LEVELS.items():
        for i in range(triples):
            t = _triple(rng, levels)
            out.append(_type_record(f"{kind} {i}", t, prev))
            prev = t
    prev = nat(2).to_phi()
    for i in range(fns):
        phi = _bockstein_fn(rng)
        out.append(_phi_record(f"phi {i}", phi, prev))
        prev = phi
    prev = Z
    for i in range(groups):
        sub = rng.randrange(2 ** 32)
        g = _group_expr(random.Random(sub))
        out.append(_group_record(f"group {i}", g,
                                 _group_expr(random.Random(sub)), prev))
        prev = g
    bases = [Basis.q()] + [Basis(kind, p) for kind in Basis.KINDS[1:]
                           for p in _PRIMES]
    for b, prev in zip(bases, bases[-1:] + bases):
        out.append(["basis", repr(b), b.render(),
                    [repr(phi_basis(b, n)) for n in (1, 2, 3, INF)],
                    _equality(b, Basis(b.kind, b.p)), _equality(b, prev)])
    out.append(["classes", _equality(Q, Z), _equality(Q, "Q"),
                _equality(Zmod(2), ZpInf(2)),
                _equality(nat(1), nat(1).to_phi()),
                _equality(Basis.q(), Q), _equality(PrimeSet(), PrimeFn(0, 0))])
    return out


# -- driver -------------------------------------------------------------------

FAMILIES = {"laws": law_records, "cli": cli_records,
            "cylinders": cylinder_records, "complexes": complex_records,
            "types": type_records}


def digest(records):
    """The record count and the SHA-256 of the records as JSON lines."""
    lines = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    return len(records), _sha(lines), lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dump", help="write each family's records here")
    ap.add_argument("--family", action="append", choices=sorted(FAMILIES),
                    help="run only this family (repeatable)")
    args = ap.parse_args(argv)
    for name in args.family or FAMILIES:
        count, sha, lines = digest(FAMILIES[name](args.seed))
        if args.dump:
            os.makedirs(args.dump, exist_ok=True)
            with open(os.path.join(args.dump, f"{name}.jsonl"), "w") as fh:
                fh.write(lines)
        print(f"{name} {count} {sha}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
