"""Finite-model verification of the cd-type calculus.

The calculus asserts identities and inequalities about dimension
types.  This module checks them mechanically over truncated models:
all Bockstein functions whose exceptional primes lie in a fixed list
and whose values stay under a bound.  Small tuple spaces are swept
exhaustively; larger ones are sampled with a fixed seed, so reports
are reproducible byte for byte.
"""

from __future__ import annotations

import random
from itertools import product

from .cdtype import (
    _bi_failures,
    Basis,
    BocksteinFn,
    CdType,
    decompose,
    nat,
    phi_basis,
    validate,
)
from .dimension import (
    anr_admissible,
    deficiency,
    dim,
    is_full_valued,
    p_regular,
    power_report,
    testing_dim,
)
from .groups import Q, SumOverPrimes, Z, Zinv, Zloc, Zmod, ZpInf, sigma
from .primes import INF, PrimeFn, PrimeSet, check_prime, is_finite

__all__ = [
    "LAWS",
    "LAW_NAMES",
    "LawReport",
    "Universe",
    "check_laws",
    "enumerate_types",
    "render_reports",
    "select_laws",
]

_SEED = 20260814
_EXHAUSTIVE_LIMIT = 10 ** 5
_MAX_FAILURES = 8
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


class Universe:
    """A truncated model of the dimension types.

    Exceptional primes are confined to `primes`; finite values are
    bounded by `value_bound`.  The standard model keeps every basis
    value in [1, bound]; the extended one admits values in
    [-bound, bound], which the conjugation laws need.
    """

    __slots__ = ("primes", "value_bound", "allow_extended")

    def __init__(self, primes, value_bound, allow_extended=False):
        ps = tuple(sorted(set(primes)))
        if not ps:
            raise ValueError("a universe needs at least one prime")
        for p in ps:
            check_prime(p)
        if (not isinstance(value_bound, int) or isinstance(value_bound, bool)
                or value_bound < 1):
            raise ValueError(
                f"value bound must be an integer >= 1: {value_bound!r}")
        self.primes = ps
        self.value_bound = value_bound
        self.allow_extended = bool(allow_extended)

    def __repr__(self):
        return (f"Universe(primes={list(self.primes)!r}, "
                f"value_bound={self.value_bound!r}, "
                f"allow_extended={self.allow_extended!r})")

    def type_count(self):
        """How many types enumerate_types lists, in closed form.

        Each value v0 of phi(Q) in [1, b] admits 2b - 1 slot profiles at
        a listed prime.  An extended type picks one of 2b + 1 values at
        0 and, per listed prime, one of 4b + 3 choices: outside S, or in
        S, in or out of D, with one of 2b + 1 values.

        >>> Universe([2, 3], 3).type_count()
        75
        >>> Universe([2, 3], 3, True).type_count()
        1575
        """
        b, k = self.value_bound, len(self.primes)
        if self.allow_extended:
            return (2 * b + 1) * (4 * b + 3) ** k
        return b * (2 * b - 1) ** k

    def render(self):
        tag = "extended" if self.allow_extended else "standard"
        inner = ",".join(str(p) for p in self.primes)
        return "{" + inner + "}" + f" bound {self.value_bound} ({tag})"


def _slot_profiles(v0, bound):
    vals = range(1, bound + 1)
    return [(l, z, i) for l in vals for z in vals for i in vals
            if not _bi_failures(v0, l, z, i)]


def _standard_types(u: Universe):
    out = []
    for v0 in range(1, u.value_bound + 1):
        profiles = _slot_profiles(v0, u.value_bound)
        for combo in product(profiles, repeat=len(u.primes)):
            zloc, zp, zpinf = {}, {}, {}
            for p, (l, z, i) in zip(u.primes, combo):
                zloc[p] = l
                zp[p] = z
                zpinf[p] = i
            phi = BocksteinFn(v0,
                              PrimeFn(v0, v0, zp),
                              PrimeFn(v0, v0, zpinf),
                              PrimeFn(v0, v0, zloc))
            out.append(CdType.from_phi(phi))
    return out


def _extended_types(u: Universe):
    vals = range(-u.value_bound, u.value_bound + 1)
    out = []
    for szero in vals:
        for s_bits in product((False, True), repeat=len(u.primes)):
            s = tuple(p for p, bit in zip(u.primes, s_bits) if bit)
            s_set = PrimeSet.of(*s)
            for d_bits in product((False, True), repeat=len(s)):
                d_set = PrimeSet.of(*(p for p, bit in zip(s, d_bits) if bit))
                for assign in product(vals, repeat=len(s)):
                    fn = PrimeFn(szero, szero, dict(zip(s, assign)))
                    out.append(CdType.triple(s_set, d_set, fn))
    return out


def enumerate_types(u: Universe):
    """Every type of the model, as canonical triples.

    In the standard model the default region is tied to the regular
    profile at d(0), which the Bockstein inequalities force; listed
    primes range over all valid slot profiles.  The extended model
    enumerates raw triples, whose functions are valid automatically.

    >>> [f.render() for f in enumerate_types(Universe([2], 1))]
    ['nat(1)']
    >>> len(enumerate_types(Universe([2], 2)))
    6
    """
    if u.allow_extended:
        return _extended_types(u)
    return _standard_types(u)


# -- shared law context -------------------------------------------------------


class _Context:
    def __init__(self, universe, samples):
        self.universe = universe
        self.samples = samples
        self.types = enumerate_types(universe)
        self.primes = universe.primes
        self.bound = universe.value_bound
        self._extended = self.types if universe.allow_extended else None
        p0 = universe.primes[0]
        self.tf_groups = [Z, Q] + [Zloc([p]) for p in universe.primes]
        torsion = []
        for p in universe.primes:
            torsion.extend((Zmod(p), Zmod(p, 2), ZpInf(p)))
        self.all_groups = self.tf_groups + torsion + [Z + Zmod(p0)]
        self.sigma_groups = self.all_groups + [
            Zinv(p0),
            Q + Zmod(p0, 2),
            SumOverPrimes(PrimeSet.all_except(p0), "Zp"),
            SumOverPrimes(universe.primes, "ZpInf"),
        ]
        self.test_groups = [Z, Q] + [g for p in universe.primes
                                     for g in (Zmod(p), ZpInf(p), Zloc([p]))]
        self.bases = [Basis.q()] + [b for p in universe.primes
                                    for b in (Basis.zp(p), Basis.zpinf(p),
                                              Basis.zloc(p))]
        # Distinct triples with one Bockstein function exist only with
        # infinite values; a pair per prime witnesses representation
        # independence of the norm.
        self.inf_twins = []
        for p in universe.primes:
            fn = PrimeFn(1, 1, {p: INF})
            s = PrimeSet.of(p)
            self.inf_twins.append((CdType.triple(s, s, fn),
                                   CdType.triple(s, PrimeSet.of(), fn)))

    @property
    def extended(self):
        if self._extended is None:
            self._extended = enumerate_types(
                Universe(self.universe.primes, self.universe.value_bound,
                         True))
        return self._extended


def _fail(inputs, expected, got):
    return {"inputs": inputs, "expected": str(expected), "got": str(got)}


def _tuple_text(fs):
    return " ; ".join(f.render() for f in fs)


def _phi_at(phi, basis):
    if basis.kind == "Q":
        return phi.phi_q
    if basis.kind == "Zp":
        return phi.zp(basis.p)
    if basis.kind == "ZpInf":
        return phi.zpinf(basis.p)
    return phi.zloc(basis.p)


class _Law:
    __slots__ = ("name", "arity", "domain", "text", "fn")

    def __init__(self, name, domain, text, fn):
        self.name = name
        self.arity = fn.__code__.co_argcount - 1    # arguments after ctx
        self.domain = domain
        self.text = text
        self.fn = fn

    def __repr__(self):
        return f"_Law({self.name!r})"


LAWS = {}


def _law(name, text, domain="types"):
    """Register the decorated function in LAWS, in suite order."""
    def register(fn):
        LAWS[name] = _Law(name, domain, text, fn)
        return fn
    return register


# -- the laws -----------------------------------------------------------------


@_law("round-trip", "to_phi and from_phi are mutually inverse")
def _law_round_trip(ctx, f):
    phi = f.to_phi()
    bad = validate(phi)
    if bad:
        yield _fail(f.render(), "no violated inequalities", repr(bad))
        return
    back = CdType.from_phi(phi)
    if back != f:
        yield _fail(f.render(), f.render(), back.render())
    elif back.to_phi() != phi:
        yield _fail(f.render(), "stable function", repr(back.to_phi()))


def _closure_failures(fs, g):
    bad = validate(g.to_phi())
    if bad:
        yield _fail(_tuple_text(fs), "valid result", repr(bad))
        return
    back = CdType.from_phi(g.to_phi())
    if back != g:
        yield _fail(_tuple_text(fs), g.render(), back.render())


@_law("closure-sum", "[+] of valid types is a valid type")
def _law_closure_sum(ctx, f1, f2):
    yield from _closure_failures((f1, f2), f1.sum(f2))


@_law("closure-times", "[x] of valid types is a valid type")
def _law_closure_times(ctx, f1, f2):
    yield from _closure_failures((f1, f2), f1.times(f2))


@_law("closure-wedge", "wedge of valid types is a valid type")
def _law_closure_wedge(ctx, f1, f2):
    yield from _closure_failures((f1, f2), f1.wedge(f2))


@_law("distributivity-times-sum", "[x] distributes over [+]")
def _law_dist_times_sum(ctx, f1, f2, f3):
    left = f1.times(f2.sum(f3))
    right = f1.times(f2).sum(f1.times(f3))
    if left != right:
        yield _fail(_tuple_text((f1, f2, f3)), right.render(), left.render())


@_law("distributivity-sum-wedge", "[+] distributes over wedge")
def _law_dist_sum_wedge(ctx, f1, f2, f3):
    left = f1.sum(f2.wedge(f3))
    right = f1.sum(f2).wedge(f1.sum(f3))
    if left != right:
        yield _fail(_tuple_text((f1, f2, f3)), right.render(), left.render())


@_law("norm-sandwich", "|F1| + ||F2|| <= ||F1 [+] F2|| <= ||F1|| + ||F2||")
def _law_norm_sandwich(ctx, f1, f2):
    total = f1.sum(f2).norm()
    lower = f1.inferior_norm() + f2.norm()
    upper = f1.norm() + f2.norm()
    if not (lower <= total and total <= upper):
        yield _fail(_tuple_text((f1, f2)),
                    f"within [{lower}, {upper}]", total)


@_law("conjugation-zero",
      "conjugation is an involution and F [+] conj(F) = (S, S; 0)",
      domain="extended")
def _law_conjugation_zero(ctx, f):
    c = f.conjugate()
    if c.conjugate() != f:
        yield _fail(f.render(), f.render(), c.conjugate().render())
    s = f.sum(c)
    expected = CdType.triple(f.S, f.S, PrimeFn.constant(0))
    if s != expected:
        yield _fail(f.render(), expected.render(), s.render())
    if s.norm() != 0:
        yield _fail(f.render(), "norm 0", s.norm())


@_law("conjugate-maximal",
      "conj(F) is maximal among F' with ||F [+] F'|| <= 0",
      domain="extended")
def _law_conjugate_maximal(ctx, f, fp):
    if f.sum(fp).norm() <= 0 and not fp.leq(f.conjugate()):
        yield _fail(_tuple_text((f, fp)),
                    "F' below the conjugate", "leq failed")


@_law("bockstein-alternative",
      "phi(Zloc) is phi(Q) or phi(Zpinf) + 1, the max on singular primes")
def _law_bockstein_alternative(ctx, f):
    phi = f.to_phi()
    spots = [(str(p), *phi.at(p)) for p in ctx.primes]
    spots.append(("default", phi.zloc.default, phi.zp.default,
                  phi.zpinf.default))
    for where, l, _, i in spots:
        if l != phi.phi_q and l != i + 1:
            yield _fail(f"{f.render()} at {where}",
                        "phi(Zloc) = phi(Q) or phi(Zpinf) + 1", l)
    for p in ctx.primes:
        if p in f.S:
            l, _, i = phi.at(p)
            if l != max(phi.phi_q, i + 1):
                yield _fail(f"{f.render()} at singular {p}",
                            max(phi.phi_q, i + 1), l)


@_law("field-bound", "the norm is at most sup d + 1")
def _law_field_bound(ctx, f):
    cap = f.d.sup() + 1
    if f.norm() > cap:
        yield _fail(f.render(), f"norm at most {cap}", f.norm())


@_law("field-additivity", "dim at Q and at Z/p is additive under [+]")
def _law_field_additivity(ctx, f1, f2):
    s = f1.sum(f2)
    for g in [Q] + [Zmod(p) for p in ctx.primes]:
        want = dim(f1, g) + dim(f2, g)
        got = dim(s, g)
        if got != want:
            yield _fail(f"{_tuple_text((f1, f2))} at {g.render()}",
                        want, got)


@_law("deficiency-product", "deficiency of a sum is e1 + e2 - e1*e2")
def _law_deficiency_product(ctx, f1, f2):
    s = f1.sum(f2)
    for p in ctx.primes:
        e1 = deficiency(f1, p)
        e2 = deficiency(f2, p)
        want = e1 + e2 - e1 * e2
        if deficiency(s, p) != want:
            yield _fail(f"{_tuple_text((f1, f2))} at {p}",
                        want, deficiency(s, p))


@_law("singular-zpinf-sum", "phi(Zpinf) of a sum on common singular primes")
def _law_singular_zpinf(ctx, f1, f2):
    phi1 = f1.to_phi()
    phi2 = f2.to_phi()
    phi_s = None
    for p in ctx.primes:
        if p in f1.S and p in f2.S:
            if phi_s is None:
                phi_s = f1.sum(f2).to_phi()
            want = (phi1.zpinf(p) + phi2.zpinf(p)
                    + deficiency(f1, p) * deficiency(f2, p))
            if phi_s.zpinf(p) != want:
                yield _fail(f"{_tuple_text((f1, f2))} at {p}",
                            want, phi_s.zpinf(p))


@_law("power-dichotomy", "||kF|| equals k||F|| or k||F|| - k + 1 for k <= 4")
def _law_power_dichotomy(ctx, f):
    if not f.is_positive:
        return
    n = f.norm()
    if not is_finite(n) or n < 1:
        return
    try:
        report = power_report(f, 4)
    except RuntimeError as err:
        yield _fail(f.render(), "kind matches the power norms", str(err))
        return
    for k in range(2, 5):
        if report.power_norms[k] not in (k * n, k * n - k + 1):
            yield _fail(f"{f.render()} at k={k}",
                        f"{k * n} or {k * n - k + 1}",
                        report.power_norms[k])


@_law("norm-basis-formula", "||F [+] Phi(G, n)|| by the closed formula")
def _law_norm_basis(ctx, f):
    if not f.is_positive:
        return
    nf = f.norm()
    phi = f.to_phi()
    for basis in ctx.bases:
        pg = _phi_at(phi, basis)
        for n in range(1, ctx.bound + 3):
            total = f.sum(phi_basis(basis, n)).norm()
            want = max(nf + 1, n + pg) if nf >= n else n + pg
            if total != want:
                yield _fail(f"{f.render()} ; {basis.render()} ; n={n}",
                            want, total)


@_law("decompose-rewedge", "the wedge of the decomposition returns the type")
def _law_decompose(ctx, f):
    if not f.is_positive:
        return
    back = decompose(f).rewedge()
    if back != f:
        yield _fail(f.render(), f.render(), back.render())


@_law("regular-factor", "a p-regular factor adds dimensions on the p slots")
def _law_regular_factor(ctx, f1, f2):
    s = f1.sum(f2)
    for p in ctx.primes:
        if not p_regular(f1, p):
            continue
        for g in (Zmod(p), ZpInf(p), Zloc([p])):
            want = dim(f1, g) + dim(f2, g)
            got = dim(s, g)
            if got != want:
                yield _fail(f"{_tuple_text((f1, f2))} at {g.render()}",
                            want, got)


@_law("full-valued-factor", "a full-valued factor adds norms")
def _law_full_valued(ctx, f1, f2):
    if not is_full_valued(f1):
        return
    want = f1.norm() + f2.norm()
    got = f1.sum(f2).norm()
    if got != want:
        yield _fail(_tuple_text((f1, f2)), want, got)


@_law("torsion-free-subadd",
      "subadditive dim: exact bound torsion free, +1 in general")
def _law_tf_subadd(ctx, f1, f2):
    s = f1.sum(f2)
    for g in ctx.tf_groups:
        cap = dim(f1, g) + dim(f2, g)
        if dim(s, g) > cap:
            yield _fail(f"{_tuple_text((f1, f2))} at {g.render()}",
                        f"at most {cap}", dim(s, g))
    for g in ctx.all_groups:
        cap = dim(f1, g) + dim(f2, g) + 1
        if dim(s, g) > cap:
            yield _fail(f"{_tuple_text((f1, f2))} at {g.render()}",
                        f"at most {cap}", dim(s, g))


@_law("same-type-product",
      "equal Bockstein functions give equal product norms")
def _law_same_type(ctx, f):
    for fa, fb in ctx.inf_twins:
        if fa.to_phi() != fb.to_phi():
            yield _fail(f"{fa.render()} ; {fb.render()}",
                        "equal Bockstein functions", "they differ")
            continue
        na = fa.sum(f).norm()
        nb = fb.sum(f).norm()
        if na != nb:
            yield _fail(f"{fa.render()} ; {fb.render()} ; {f.render()}",
                        na, nb)


@_law("testing-identity", "the testing space recovers dim from a norm")
def _law_testing(ctx, f):
    if not f.is_positive:
        return
    nf = f.norm()
    if not is_finite(nf):
        return
    for g in ctx.test_groups:
        dg = dim(f, g)
        for n in range(max(1, nf - dg + 1), nf + 3):
            got = testing_dim(f, g, n)
            if got != dg:
                yield _fail(f"{f.render()} ; G={g.render()} ; n={n}",
                            dg, got)


@_law("scaling-identities", "scale(k, Phi(G, n)) in closed form")
def _law_scaling(ctx):
    for n in range(1, ctx.bound + 3):
        for k in range(2, 5):
            for basis in ctx.bases:
                left = phi_basis(basis, n).scale(k)
                if basis.kind == "ZpInf":
                    right = phi_basis(basis, k * n - k + 1).wedge(nat(k))
                else:
                    right = phi_basis(basis, k * n).wedge(nat(k))
                if left != right:
                    yield _fail(f"{basis.render()} ; n={n} ; k={k}",
                                right.render(), left.render())


def _dim_brute(f, group):
    fam = sigma(group)
    phi = f.to_phi()
    vals = []
    if fam.has_q:
        vals.append(phi.phi_q)
    for fn, over in ((phi.zloc, fam.loc), (phi.zp, fam.zp),
                     (phi.zpinf, fam.zpinf)):
        for p in _SMALL_PRIMES:
            if p in over:
                vals.append(fn(p))
    return max(vals)


@_law("sigma-consistency", "dim agrees with brute force over primes up to 100")
def _law_sigma_consistency(ctx, f):
    for g in ctx.sigma_groups:
        want = _dim_brute(f, g)
        got = dim(f, g)
        if got != want:
            yield _fail(f"{f.render()} at {g.render()}", want, got)


@_law("anr-basic", "admissible types are of the basic kind")
def _law_anr_basic(ctx, f):
    if not f.is_positive:
        return
    ok, _ = anr_admissible(f)
    if not ok:
        return
    n = f.norm()
    if not is_finite(n) or n < 1:
        return
    kind = power_report(f, 2).kind
    if kind != "Basic":
        yield _fail(f.render(), "Basic", kind)


LAW_NAMES = tuple(LAWS)


class LawReport:
    """Outcome of one law: tuples checked and surviving counterexamples."""

    __slots__ = ("law", "checked", "failures")

    def __init__(self, law, checked, failures):
        self.law = law
        self.checked = checked
        self.failures = list(failures)

    @property
    def ok(self):
        return not self.failures

    def to_json(self):
        return {"law": self.law, "checked": self.checked,
                "failures": [dict(f) for f in self.failures]}

    def __repr__(self):
        status = "ok" if self.ok else f"{len(self.failures)} failures"
        return f"LawReport({self.law!r}, checked={self.checked}, {status})"


def select_laws(laws):
    """Resolve a law selection: 'all', a comma list, or an iterable.

    Laws come in the order named; an unknown name, or a selection that
    names no law, is a ValueError.
    """
    if laws is None or laws == "all":
        return list(LAWS.values())
    names = ([t.strip() for t in laws.split(",") if t.strip()]
             if isinstance(laws, str) else list(laws))
    out = []
    for name in names:
        if name == "all":
            out.extend(LAWS.values())
            continue
        if name not in LAWS:
            raise ValueError(f"unknown law {name!r}; known laws: "
                             + ", ".join(LAW_NAMES))
        out.append(LAWS[name])
    if not out:
        raise ValueError("no laws selected")
    return out


def _run_law(ctx, law):
    domain = ctx.types if law.domain == "types" else ctx.extended
    failures = []

    def collect(found):
        for item in found:
            if len(failures) < _MAX_FAILURES:
                failures.append(item)

    if law.arity == 0:
        collect(law.fn(ctx))
        return LawReport(law.name, 1, failures)
    checked = 0
    space = len(domain) ** law.arity
    if space <= _EXHAUSTIVE_LIMIT:
        tuples = product(domain, repeat=law.arity)
    else:
        rng = random.Random(_SEED)
        tuples = (tuple(rng.choice(domain) for _ in range(law.arity))
                  for _ in range(ctx.samples))
    for tup in tuples:
        checked += 1
        collect(law.fn(ctx, *tup))
    return LawReport(law.name, checked, failures)


def check_laws(universe: Universe, laws="all", samples=10 ** 4):
    """Check the selected laws over the universe; a list of LawReport.

    `laws` is resolved by select_laws, so an empty selection is refused.
    A law is exhaustive when its tuple space has at most 10^5 members,
    else it checks `samples` tuples (a positive int, not a bool) drawn
    with a fixed seed.  Laws about conjugation always run over the
    extended variant of the universe.  Each law is called through
    `LAWS[name].fn` at call time.

    >>> reports = check_laws(Universe([2], 2), laws="norm-sandwich")
    >>> reports[0].law, reports[0].checked, reports[0].ok
    ('norm-sandwich', 36, True)
    """
    if (not isinstance(samples, int) or isinstance(samples, bool)
            or samples < 1):
        raise ValueError(f"samples must be a positive integer: {samples!r}")
    selected = select_laws(laws)
    ctx = _Context(universe, samples)
    return [_run_law(ctx, law) for law in selected]


def render_reports(reports):
    """A fixed-width text table, one line per law plus failure detail."""
    lines = []
    for r in reports:
        status = "pass" if r.ok else "FAIL"
        lines.append(f"{r.law:<26} checked {r.checked:>8}  {status}")
        for fl in r.failures[:3]:
            lines.append(f"    inputs:   {fl['inputs']}")
            lines.append(f"    expected: {fl['expected']}")
            lines.append(f"    got:      {fl['got']}")
    return "\n".join(lines) + "\n"
