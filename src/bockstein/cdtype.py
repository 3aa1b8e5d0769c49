"""The dimension-type algebra: triples (S, D; d) and Bockstein functions.

A cd-type is a triple of a singularity prime set S, a deficiency
prime set D inside S, and a field dimension function d on the primes
plus a slot at 0, constant equal to d(0) outside S; the zero type of
points and other 0-dimensional things is (∅, ∅; 0).  The dual coordinate
system is the Bockstein function phi giving, per prime p, the values at
Z/p, Z(p^inf) and Z_(p), plus one value at Q; the two determine each
other (to_phi / from_phi below).

Operations: [+] (product of compacta), [x] (a formal multiplication),
wedge (pointwise max of phi), norm (the integral dimension), inferior
norm, conjugation, the partial order, the Kuzminov basis Phi(G, n), and
the wedge decomposition of an arbitrary positive type over that basis.
"""

from __future__ import annotations

from functools import reduce

from .primes import (
    EMPTY,
    INF,
    PrimeFn,
    PrimeSet,
    check_prime,
    indicator,
    is_finite,
    select,
)

__all__ = [
    "Basis",
    "BocksteinFn",
    "CdType",
    "Decomposition",
    "UniformFamily",
    "ZERO_TYPE",
    "nat",
    "phi_basis",
    "validate",
]

BI_RULES = (
    ("BI1", "phi(Zpinf) <= phi(Zp)"),
    ("BI2", "phi(Zp) <= phi(Zpinf) + 1"),
    ("BI3", "phi(Zp) <= phi(Zloc)"),
    ("BI4", "phi(Q) <= phi(Zloc)"),
    ("BI5", "phi(Zloc) <= max(phi(Q), phi(Zpinf) + 1)"),
    ("BI6", "phi(Zpinf) <= max(phi(Q), phi(Zloc) - 1)"),
)


def _with_zero(fn: PrimeFn, value) -> PrimeFn:
    # fn with its 0 slot set to value; fn itself when it already is.
    if fn.at_zero == value:
        return fn
    return PrimeFn._make(value, fn.default, fn.exceptions)


class BocksteinFn:
    """Values of a dimension type on the Bockstein basis.

    phi_q is the value at Q; zp, zpinf, zloc are PrimeFns whose 0 slots
    are normalized to phi_q so that pointwise operations and comparisons
    can treat all four coordinates uniformly.
    """

    __slots__ = ("phi_q", "zp", "zpinf", "zloc")

    def __init__(self, phi_q, zp, zpinf, zloc):
        self.phi_q = phi_q
        self.zp = _with_zero(zp, phi_q)
        self.zpinf = _with_zero(zpinf, phi_q)
        self.zloc = _with_zero(zloc, phi_q)

    def __eq__(self, other):
        if not isinstance(other, BocksteinFn):
            return NotImplemented
        return (self.phi_q, self.zp, self.zpinf, self.zloc) == (
            other.phi_q, other.zp, other.zpinf, other.zloc)

    def __hash__(self):
        return hash((self.phi_q, self.zp, self.zpinf, self.zloc))

    def __repr__(self):
        return (f"BocksteinFn(phi_q={self.phi_q!r}, zp={self.zp!r}, "
                f"zpinf={self.zpinf!r}, zloc={self.zloc!r})")

    def at(self, p):
        """The triple (phi(Zloc), phi(Zp), phi(Zpinf)) at a prime."""
        return (self.zloc(p), self.zp(p), self.zpinf(p))

    def sup(self):
        return max(self.phi_q, self.zp.sup(), self.zpinf.sup(), self.zloc.sup())

    def inf(self):
        return min(self.phi_q, self.zp.inf(), self.zpinf.inf(), self.zloc.inf())

    def max_with(self, other):
        return BocksteinFn(
            max(self.phi_q, other.phi_q),
            self.zp.max_with(other.zp),
            self.zpinf.max_with(other.zpinf),
            self.zloc.max_with(other.zloc),
        )

    def leq(self, other):
        return (self.phi_q <= other.phi_q
                and self.zp.leq(other.zp)
                and self.zpinf.leq(other.zpinf)
                and self.zloc.leq(other.zloc))


def _bi_failures(v0, a, b, c):
    """Names of the BI_RULES broken at one prime region.

    v0 = phi(Q); a = phi(Zloc), b = phi(Zp), c = phi(Zpinf) there.
    """
    holds = (c <= b, b <= c + 1, b <= a, v0 <= a,
             a <= max(v0, c + 1), c <= max(v0, a - 1))
    return [name for (name, _), ok in zip(BI_RULES, holds) if not ok]


def validate(phi: BocksteinFn):
    """All Bockstein inequality violations of phi, as (rule, slot) pairs.

    An empty list means phi is a valid Bockstein function.  The default
    region (all primes off the exceptions) is checked once under the
    slot name "default".
    """
    v0 = phi.phi_q
    violations = [(name, "default") for name in _bi_failures(
        v0, phi.zloc.default, phi.zp.default, phi.zpinf.default)]
    primes = sorted({*phi.zp.exception_primes, *phi.zpinf.exception_primes,
                     *phi.zloc.exception_primes})
    for p in primes:
        violations.extend((name, p) for name in _bi_failures(
            v0, phi.zloc._value(p), phi.zp._value(p), phi.zpinf._value(p)))
    return violations


class CdType:
    """A dimension type: a triple (S, D; d); the zero type is (∅, ∅; 0).

    Use the factories: CdType.triple(...), nat(n), phi_basis(...),
    and the module constant ZERO_TYPE, the one object that holds the
    zero triple.  Values of d may be extended (negative or INF);
    is_positive tells whether the type lies in the positive class,
    where every basis value is at least 1.
    """

    __slots__ = ("S", "D", "d")

    def __init__(self, S, D, d):
        self.S = S
        self.D = D
        self.d = d

    @classmethod
    def _build(cls, S, D, d):
        # Trusted: (S, D; d) already satisfies the triple conditions.
        if S.is_empty and D.is_empty and d == ZERO_TYPE.d:
            return ZERO_TYPE
        return cls(S, D, d)

    @classmethod
    def triple(cls, S: PrimeSet, D: PrimeSet, d: PrimeFn):
        """Build and check a triple; the all-zero triple collapses to ZERO_TYPE."""
        if not (D - S).is_empty:
            raise ValueError(f"D must lie inside S; offending {(D - S).render()}")
        bad = d.differ(PrimeFn.constant(d.at_zero)) - S
        if bad.cofinite:
            raise ValueError(f"default d = {d.default!r} must equal d(0) = "
                             f"{d.at_zero!r} outside S")
        if bad.primes:
            p = bad.primes[0]
            raise ValueError(f"d({p}) = {d._value(p)!r} must equal d(0) = "
                             f"{d.at_zero!r} outside S")
        return cls._build(S, D, d)

    @property
    def zero(self):
        """Whether this is the zero type (∅, ∅; 0)."""
        return self is ZERO_TYPE

    def __eq__(self, other):
        if not isinstance(other, CdType):
            return NotImplemented
        return (self.S, self.D, self.d) == (other.S, other.D, other.d)

    def __hash__(self):
        return hash((self.S, self.D, self.d))

    def __repr__(self):
        return f"CdType.triple({self.S!r}, {self.D!r}, {self.d!r})"

    @property
    def is_positive(self):
        """Membership in the positive class: every phi value at least 1."""
        return self.to_phi().inf() >= 1

    @property
    def is_finite(self):
        return all(is_finite(v) for v in
                   (self.d.at_zero, self.d.default,
                    *(v for _, v in self.d.exceptions)))

    def to_phi(self) -> BocksteinFn:
        """The Bockstein function of this type.

        phi(Q) = d(0); phi(Zp) = d(p); phi(Zpinf) = d(p) - chi_D(p);
        phi(Zloc) = d(0) off S and max(d(0), d(p) - chi_D(p) + 1) on S.
        """
        d0 = self.d.at_zero
        zpinf = self.d.sub(indicator(self.D))
        const0 = PrimeFn.constant(d0)
        on_s = zpinf.map(lambda v: v + 1).max_with(const0)
        zloc = select(self.S, on_s, const0)
        return BocksteinFn(d0, self.d, zpinf, zloc)

    @classmethod
    def from_phi(cls, phi: BocksteinFn) -> "CdType":
        """Invert to_phi on a valid Bockstein function.

        S is where the slots leave the regular profile (phi(Q) in all
        three): where Z_(p) and Z(p^inf) values split, or Z/p differs
        from Q.  D is where Z/p and Z(p^inf) split (the deficient
        primes), and d is read off the field slots.
        """
        bad = validate(phi)
        if bad:
            raise ValueError(f"invalid Bockstein function: {bad}")
        s = (phi.zloc.differ(phi.zpinf)
             | phi.zp.differ(PrimeFn.constant(phi.phi_q)))
        # d = d(0) off S by the second term; on D with phi(Zp) = phi(Q),
        # phi(Zpinf) < phi(Q) <= phi(Zloc) (BI1, BI4), so D lies in S.
        return cls._build(s, phi.zp.differ(phi.zpinf), phi.zp)

    # -- algebra ---------------------------------------------------------

    def sum(self, other: "CdType") -> "CdType":
        """The operation [+]; the type of a product of compacta."""
        return CdType.triple(
            self.S | other.S, self.D | other.D, self.d.add(other.d))

    def times(self, other: "CdType") -> "CdType":
        """The formal operation [x] of the type algebra."""
        # Zero absorbs even nat(inf), where the formula meets inf - inf.
        if self.zero or other.zero:
            return ZERO_TYPE
        a0, b0 = self.d.at_zero, other.d.at_zero
        ea = self.d.map(lambda v: v - a0)
        eb = other.d.map(lambda v: v - b0)
        prod = ea.mul(eb)
        const = a0 * b0
        return CdType.triple(
            self.S & other.S, self.D & other.D,
            prod.map(lambda v: v + const))

    def wedge(self, other: "CdType") -> "CdType":
        """Pointwise max of the two Bockstein functions.

        The zero type is the unit even for extended types, whose
        negative values a max with its phi = 0 would lift.
        """
        if self.zero:
            return other
        if other.zero:
            return self
        return CdType.from_phi(self.to_phi().max_with(other.to_phi()))

    def scale(self, k: int) -> "CdType":
        """The k-fold sum [+] of this type with itself."""
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise ValueError(f"scale needs an integer k >= 1: {k!r}")
        return CdType.triple(self.S, self.D, self.d.map(lambda v: v * k))

    def norm(self):
        """sup over primes and 0 of d + chi_{S-D}; the integral dimension."""
        return self.d.add(indicator(self.S - self.D)).sup()

    def inferior_norm(self):
        """min over primes and 0 of d - chi_D; the least phi value."""
        return self.d.sub(indicator(self.D)).inf()

    def conjugate(self) -> "CdType":
        """The conjugate (S, S - D; -d); defined for finite d only."""
        if not self.is_finite:
            raise ValueError("conjugation needs finite d values")
        return CdType.triple(self.S, self.S - self.D,
                             self.d.map(lambda v: -v))

    def leq(self, other: "CdType") -> bool:
        """The partial order: pointwise on Bockstein functions."""
        return self.to_phi().leq(other.to_phi())

    # -- serialization ---------------------------------------------------

    def to_json(self):
        if self.zero:
            return {"kind": "cdtype", "zero": True}
        return {
            "kind": "cdtype",
            "zero": False,
            "S": self.S.to_json(),
            "D": self.D.to_json(),
            "d": self.d.to_json(),
        }

    @classmethod
    def from_json(cls, obj):
        if obj.get("kind") != "cdtype":
            raise ValueError("not a cd-type object")
        if obj.get("zero"):
            return ZERO_TYPE
        return cls.triple(
            PrimeSet.from_json(obj["S"]),
            PrimeSet.from_json(obj["D"]),
            PrimeFn.from_json(obj["d"]),
        )

    def render(self):
        """Surface syntax that the expression parser accepts back."""
        if self.zero:
            return "nat(0)"
        if (self.S.is_empty and self.D.is_empty and not self.d.exceptions
                and self.d.at_zero == self.d.default
                and isinstance(self.d.default, int) and self.d.default >= 1):
            return f"nat({self.d.default})"
        return (f"triple(S={self.S.render()}, D={self.D.render()}, "
                f"d={self.d.render()})")


ZERO_TYPE = CdType(EMPTY, EMPTY, PrimeFn.constant(0))


def _level(n, message):
    """n when it is an int >= 1 (a bool is not) or INF, else ValueError."""
    if n is INF or (isinstance(n, int) and not isinstance(n, bool) and n >= 1):
        return n
    raise ValueError(f"{message}: {n!r}")


def nat(n) -> CdType:
    """The type (0, 0; n) of n-cubes; nat(0) is the zero type."""
    if n == 0 and isinstance(n, int) and not isinstance(n, bool):
        return ZERO_TYPE
    n = _level(n, "nat needs an integer n >= 0 or INF")
    return CdType.triple(EMPTY, EMPTY, PrimeFn.constant(n))


class Basis:
    """A Bockstein basis element: Q, Zp(p), ZpInf(p) or Zloc(p)."""

    __slots__ = ("kind", "p")
    KINDS = ("Q", "Zp", "ZpInf", "Zloc")

    def __init__(self, kind, p=None):
        if kind not in self.KINDS:
            raise ValueError(f"unknown basis kind: {kind!r}")
        if kind == "Q":
            if p is not None:
                raise ValueError("Q takes no prime")
        else:
            p = check_prime(p)
        self.kind = kind
        self.p = p

    @classmethod
    def q(cls):
        return cls("Q")

    @classmethod
    def zp(cls, p):
        return cls("Zp", p)

    @classmethod
    def zpinf(cls, p):
        return cls("ZpInf", p)

    @classmethod
    def zloc(cls, p):
        return cls("Zloc", p)

    def __eq__(self, other):
        if not isinstance(other, Basis):
            return NotImplemented
        return (self.kind, self.p) == (other.kind, other.p)

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return f"Basis({self.kind!r})" if self.p is None \
            else f"Basis({self.kind!r}, {self.p})"

    def render(self):
        return {"Q": "Q", "Zp": f"Zp({self.p})",
                "ZpInf": f"Zpinf({self.p})",
                "Zloc": f"Zloc({self.p})"}[self.kind]


def phi_basis(basis: Basis, n) -> CdType:
    """The Kuzminov basis type Phi(G, n); Phi(G, 1) is the 1-type.

    For n >= 2:
        Phi(Q, n)      = (all, {};  d(0)=n, d=1)
        Phi(Zloc(p),n) = (all-{p}, {}; d(0)=n, d(p)=n, d=1)
        Phi(Zp(p), n)  = ({p}, {p}; d(0)=1, d(p)=n, d=1)
        Phi(Zpinf(p),n)= ({p}, {};  d(0)=1, d(p)=n-1, d=1)
    """
    _level(n, "Phi needs n >= 1")
    if n == 1:
        return nat(1)
    if basis.kind == "Q":
        # Z localized at no prime is Q.
        return _kuzminov("Zloc", n, EMPTY)
    return _kuzminov(basis.kind, n, PrimeSet._make((basis.p,), False))


def _kuzminov(kind, n, over: PrimeSet) -> CdType:
    """The wedge of Phi(kind(p), n) over the primes p of P = over, n >= 2:
        Zp:    (P, P;      d(0)=1, d=n on P, d=1 off P)
        ZpInf: (P, {};     d(0)=1, d=n-1 on P, d=1 off P)
        Zloc:  (all-P, {}; d(0)=n, d=n on P, d=1 off P)
    """
    d = select(over, PrimeFn.constant(n - 1 if kind == "ZpInf" else n),
               PrimeFn._make(n if kind == "Zloc" else 1, 1, ()))
    if kind == "Zloc":
        return CdType.triple(~over, EMPTY, d)
    return CdType.triple(over, over if kind == "Zp" else EMPTY, d)


class UniformFamily:
    """A prime-indexed family {Phi(kind(p), n) : p in over}.

    kind is "Zp", "ZpInf" or "Zloc"; finitely many families plus
    finitely many explicit types are all a wedge ever needs here.
    """

    __slots__ = ("kind", "n", "over")

    def __init__(self, kind, n, over: PrimeSet):
        if kind not in ("Zp", "ZpInf", "Zloc"):
            raise ValueError(f"not a prime-indexed basis kind: {kind!r}")
        self.kind = kind
        self.n = _level(n, "family needs n >= 1")
        self.over = over

    def __repr__(self):
        return f"UniformFamily({self.kind!r}, {self.n!r}, {self.over!r})"


def wedge_family(explicit=(), families=()) -> CdType:
    """Wedge of finitely many types and uniform prime-indexed families.

    The wedge of nothing is the zero type.  Families over empty sets
    contribute nothing.
    """
    members = [t for t in explicit if not t.zero]
    members.extend(nat(1) if fam.n == 1 else
                   _kuzminov(fam.kind, fam.n, fam.over)
                   for fam in families if not fam.over.is_empty)
    if not members:
        return ZERO_TYPE
    return CdType.from_phi(
        reduce(BocksteinFn.max_with, [t.to_phi() for t in members]))


class Decomposition:
    """The wedge decomposition of a positive type over the Kuzminov basis.

    k_q is the exponent at Q; k_zloc, k_zp, k_zpinf give per prime the
    exponent of the corresponding basis family (1 means the trivial
    one-dimensional type).
    """

    __slots__ = ("k_q", "k_zloc", "k_zp", "k_zpinf")

    def __init__(self, k_q, k_zloc, k_zp, k_zpinf):
        self.k_q = k_q
        self.k_zloc = k_zloc
        self.k_zp = k_zp
        self.k_zpinf = k_zpinf

    def __repr__(self):
        return (f"Decomposition(k_q={self.k_q!r}, k_zloc={self.k_zloc!r}, "
                f"k_zp={self.k_zp!r}, k_zpinf={self.k_zpinf!r})")

    def rewedge(self) -> CdType:
        """Wedge the described basis types back together."""
        explicit = [nat(1), phi_basis(Basis.q(), self.k_q)]
        families = [UniformFamily(kind, value, over)
                    for kind, over, value in self.entries() if kind != "Q"]
        return wedge_family(explicit, families)

    def entries(self):
        """All (basis-kind, prime-set, exponent) groups with exponent > 1."""
        out = []
        if self.k_q != 1:
            out.append(("Q", None, self.k_q))
        for kind, fn in (("Zloc", self.k_zloc), ("Zp", self.k_zp),
                         ("ZpInf", self.k_zpinf)):
            for value, over in fn.level_sets():
                if value == 1 or over.is_empty:
                    continue
                out.append((kind, over, value))
        return out


def decompose(f: CdType) -> Decomposition:
    """Write a positive type as a wedge of Kuzminov basis types.

    Recipe: k_Q = d(0); k_Zloc(p) = d(p) off S; k_Zp(p) = d(p) on D;
    k_Zpinf(p) = d(p) + 1 on S - D; everything else 1.
    """
    if not f.is_positive:
        raise ValueError("decompose needs a type from the positive class")
    one = PrimeFn.constant(1)
    if f.norm() == 1:
        return Decomposition(1, one, one, one)
    d = f.d
    k_zloc = select(f.S, one, d)
    k_zp = select(f.D, d, one)
    k_zpinf = select(f.S - f.D, d.map(lambda v: v + 1), one)
    return Decomposition(d.at_zero, _with_zero(k_zloc, 1),
                         _with_zero(k_zp, 1), _with_zero(k_zpinf, 1))
