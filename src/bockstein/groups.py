"""Abelian group descriptions and their Bockstein families.

A closed grammar of group expressions is normalized to a profile holding
exactly the two predicates the Bockstein family rules consume: by which
primes the torsion-free quotient G/Tor G is divisible, and per prime the
status of the p-torsion subgroup (zero, nonzero but not p-divisible, or
nonzero and p-divisible).  The family sigma(G) then follows from the four
classical membership rules:

    Z_(p)    in sigma(G)  iff  G/Tor G is not divisible by p,
    Z/p      in sigma(G)  iff  p-Tor G is not divisible by p,
    Z(p^inf) in sigma(G)  iff  p-Tor G != 0 is divisible by p,
    Q        in sigma(G)  iff  G/Tor G != 0 is divisible by every p.

Every class here is equal by class and slots (primes._Value): Q != Z.
"""

from __future__ import annotations

from .primes import (ALL_PRIMES, EMPTY, PrimeFn, PrimeSet, _Value,
                     check_prime, select)

__all__ = [
    "BocksteinFamily",
    "DirectSum",
    "GroupExpr",
    "GroupProfile",
    "Q",
    "SumOverPrimes",
    "TOR_DIV",
    "TOR_NONDIV",
    "TOR_ZERO",
    "Z",
    "Zinv",
    "Zloc",
    "Zmod",
    "ZpInf",
    "normalize",
    "sigma",
]

# Status of the p-torsion subgroup, per prime.
TOR_ZERO = "zero"
TOR_NONDIV = "nondiv"
TOR_DIV = "div"


def _tor_add(a, b):
    # Torsion of a direct sum: a nonzero non-divisible part wins; both
    # parts must be divisible (or absent) for the sum to stay divisible.
    if a == TOR_ZERO:
        return b
    if b == TOR_ZERO:
        return a
    if TOR_NONDIV in (a, b):
        return TOR_NONDIV
    return TOR_DIV


class GroupExpr(_Value):
    """Base class for group expression nodes.  Immutable, comparable."""

    __slots__ = ()

    def __add__(self, other):
        if not isinstance(other, GroupExpr):
            return NotImplemented
        return DirectSum([self, other])


class _Q(GroupExpr):
    __slots__ = ()

    def __repr__(self):
        return "Q"

    def render(self):
        return "Q"


class _Z(GroupExpr):
    __slots__ = ()

    def __repr__(self):
        return "Z"

    def render(self):
        return "Z"


Q = _Q()
Z = _Z()


class Zmod(GroupExpr):
    """The cyclic group Z/p^k."""

    __slots__ = ("p", "k")

    def __init__(self, p, k=1):
        self.p = check_prime(p)
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise ValueError(f"exponent must be a positive integer: {k!r}")
        self.k = k

    def __repr__(self):
        return f"Zmod({self.p})" if self.k == 1 else f"Zmod({self.p}, {self.k})"

    def render(self):
        return f"Z/{self.p}" if self.k == 1 else f"Z/{self.p}^{self.k}"


class ZpInf(GroupExpr):
    """The p-primary divisible torsion group Z(p^inf) = dirlim Z/p^k."""

    __slots__ = ("p",)

    def __init__(self, p):
        self.p = check_prime(p)

    def __repr__(self):
        return f"ZpInf({self.p})"

    def render(self):
        return f"Zpinf({self.p})"


class Zloc(GroupExpr):
    """Integers localized away from L: fractions m/n with n prime to L.

    Zloc({p}) is the usual Z_(p); Zloc({}) is Q; Zloc(all) is Z.
    """

    __slots__ = ("at",)

    def __init__(self, at):
        self.at = at if isinstance(at, PrimeSet) else PrimeSet(at)

    def __repr__(self):
        return f"Zloc({self.at!r})"

    def render(self):
        return "Zloc%s" % self.at.render()


def Zinv(p):
    """Z with p inverted, i.e. Z[1/p] = Zloc(all - {p})."""
    return Zloc(PrimeSet.all_except(p))


class DirectSum(GroupExpr):
    __slots__ = ("parts",)

    def __init__(self, parts):
        flat = []
        for g in parts:
            if isinstance(g, DirectSum):
                flat.extend(g.parts)
            elif isinstance(g, GroupExpr):
                flat.append(g)
            else:
                raise TypeError(f"not a group expression: {g!r}")
        self.parts = tuple(flat)
        if not self.parts:
            raise ValueError("DirectSum needs at least one summand")

    def __repr__(self):
        return "DirectSum(%s)" % ", ".join(repr(g) for g in self.parts)

    def render(self):
        return " + ".join(g.render() for g in self.parts)


class SumOverPrimes(GroupExpr):
    """A direct sum of one pattern group per prime of a set.

    pattern is "Zp" for sum of Z/p, or "ZpInf" for sum of Z(p^inf).
    """

    __slots__ = ("over", "pattern")

    def __init__(self, over, pattern="Zp"):
        self.over = over if isinstance(over, PrimeSet) else PrimeSet(over)
        if pattern not in ("Zp", "ZpInf"):
            raise ValueError(f"unknown pattern: {pattern!r}")
        self.pattern = pattern

    def __repr__(self):
        return f"SumOverPrimes({self.over!r}, {self.pattern!r})"

    def render(self):
        base = "Zp" if self.pattern == "Zp" else "Zpinf"
        if self.over.is_all:
            return f"SumAll({base})"
        return f"SumOver({self.over.render()}, {base})"


class GroupProfile(_Value):
    """Divisibility and torsion data of a group expression.

    tf_div is None when the group is pure torsion; otherwise it is the
    set of primes by which G/Tor G is divisible.  tor is a PrimeFn over
    the TOR_* statuses describing each p-torsion subgroup.
    """

    __slots__ = ("tf_div", "tor")

    def __init__(self, tf_div, tor):
        if tf_div is not None and not isinstance(tf_div, PrimeSet):
            raise TypeError("tf_div must be a PrimeSet or None")
        self.tf_div = tf_div
        self.tor = tor

    @property
    def is_trivial(self):
        return self.tf_div is None and self.tor == PrimeFn.constant(TOR_ZERO)


def normalize(expr: GroupExpr) -> GroupProfile:
    """Compute the divisibility/torsion profile of a group expression."""
    if isinstance(expr, GroupProfile):
        return expr
    if expr is Q:
        return GroupProfile(ALL_PRIMES, PrimeFn.constant(TOR_ZERO))
    if expr is Z:
        return GroupProfile(EMPTY, PrimeFn.constant(TOR_ZERO))
    if isinstance(expr, Zmod):
        return GroupProfile(
            None, PrimeFn(TOR_ZERO, TOR_ZERO, [(expr.p, TOR_NONDIV)])
        )
    if isinstance(expr, ZpInf):
        return GroupProfile(
            None, PrimeFn(TOR_ZERO, TOR_ZERO, [(expr.p, TOR_DIV)])
        )
    if isinstance(expr, Zloc):
        # Division by q is possible exactly when q is invertible, i.e.
        # q outside the localization set.
        return GroupProfile(~expr.at, PrimeFn.constant(TOR_ZERO))
    if isinstance(expr, SumOverPrimes):
        status = TOR_NONDIV if expr.pattern == "Zp" else TOR_DIV
        tor = select(
            expr.over,
            PrimeFn.constant(status),
            PrimeFn.constant(TOR_ZERO),
        )
        return GroupProfile(None, tor)
    if isinstance(expr, DirectSum):
        profiles = [normalize(g) for g in expr.parts]
        divs = [pr.tf_div for pr in profiles if pr.tf_div is not None]
        if divs:
            tf_div = divs[0]
            for d in divs[1:]:
                tf_div = tf_div & d
        else:
            tf_div = None
        tor = profiles[0].tor
        for pr in profiles[1:]:
            tor = tor.combine(pr.tor, _tor_add)
        return GroupProfile(tf_div, tor)
    raise TypeError(f"not a group expression: {expr!r}")


class BocksteinFamily(_Value):
    """The subset sigma(G) of the Bockstein basis, finitely described.

    has_q flags Q; loc, zp, zpinf are the prime sets contributing
    Z_(p), Z/p and Z(p^inf) respectively.  zp and zpinf are disjoint
    because the two torsion rules exclude each other.
    """

    __slots__ = ("has_q", "loc", "zp", "zpinf")

    def __init__(self, has_q, loc, zp, zpinf):
        if not (zp & zpinf).is_empty:
            raise ValueError("Z/p and Z(p^inf) rules are mutually exclusive")
        self.has_q = bool(has_q)
        self.loc = loc
        self.zp = zp
        self.zpinf = zpinf

    def render(self):
        """Readable listing, e.g. 'Zloc(p) for all p != 3'."""
        parts = []
        if self.has_q:
            parts.append("Q")
        for s, name in ((self.loc, "Zloc"), (self.zp, "Z/p as"),
                        (self.zpinf, "Zpinf")):
            if s.is_empty:
                continue
            if s.is_finite:
                if name == "Z/p as":
                    parts.extend(f"Z/{p}" for p in s.primes)
                else:
                    parts.extend(f"{name}({p})" for p in s.primes)
            else:
                var = {"Zloc": "Zloc(p)", "Z/p as": "Z/p",
                       "Zpinf": "Zpinf(p)"}[name]
                if s.is_all:
                    parts.append(f"{var} for all p")
                else:
                    out = ", ".join(str(p) for p in s.primes)
                    parts.append(f"{var} for all p != {out}")
        return "; ".join(parts)


def sigma(group) -> BocksteinFamily:
    """The Bockstein family of a group expression or profile.

    >>> sigma(Z)
    BocksteinFamily(has_q=False, loc=PrimeSet.all_except(), zp=PrimeSet.of(), zpinf=PrimeSet.of())
    >>> sigma(Q).has_q
    True
    >>> sigma(Zmod(3, 2)).zp
    PrimeSet.of(3)
    """
    profile = normalize(group) if isinstance(group, GroupExpr) else group
    if not isinstance(profile, GroupProfile):
        raise TypeError(f"not a group expression or profile: {group!r}")
    if profile.is_trivial:
        raise ValueError("the trivial group has no Bockstein family")
    if profile.tf_div is not None:
        loc = ~profile.tf_div
        has_q = profile.tf_div.is_all
    else:
        loc = EMPTY
        has_q = False
    zp = profile.tor.where_equal(TOR_NONDIV)
    zpinf = profile.tor.where_equal(TOR_DIV)
    return BocksteinFamily(has_q, loc, zp, zpinf)
