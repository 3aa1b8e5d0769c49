"""Prime sets, extended integers, and prime-indexed functions.

The dimension-type algebra works over the full set of primes, but every
object it needs is constant off a finite set.  Two encodings make the
algebra exactly computable: a set of primes is stored as a finite or a
cofinite list, and a function on the primes (plus a separate slot at 0)
is stored as a default value with finitely many exceptions.

Values are plain ints or the extended points INF and NEG_INF.  Extended
arithmetic follows fixed conventions: inf + k = inf for finite k,
inf * 0 = 0, inf * k = inf for k > 0.  Expressions with no assigned
value, such as inf - inf or inf times a negative, raise
UndefinedArithmetic instead of silently producing something.

Primality (check_prime) is decided by the standard library alone:
trial division by the primes up to 41, then Miller-Rabin to the first
k of the thirteen prime bases 2..41, where psi_k, the least strong
pseudoprime to those k bases, exceeds n (Jaeschke, Math. Comp. 61
(1993); Jiang & Deng, Math. Comp. 83 (2014)).  With all thirteen this
is deterministic below psi_13 = 3317044064679887385961981 (Sorenson &
Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 86
(2017)); above that bound, the strong Baillie-PSW test (Baillie &
Wagstaff, "Lucas pseudoprimes", Math. Comp. 35 (1980)): Miller-Rabin
to base 2 plus a strong Lucas test with Selfridge's parameters.  No
composite passing BPSW is known.

One equality rule serves the symbolic half: PrimeSet, PrimeFn and the
values of cdtype and groups derive from _Value, equal by their slots.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import total_ordering
from math import isqrt
from operator import attrgetter

__all__ = [
    "ALL_PRIMES",
    "EMPTY",
    "INF",
    "NEG_INF",
    "PrimeFn",
    "PrimeSet",
    "UndefinedArithmetic",
    "check_prime",
    "indicator",
    "is_finite",
    "select",
    "value_from_json",
    "value_to_json",
]


class UndefinedArithmetic(ArithmeticError):
    """An extended-arithmetic expression with no assigned value."""


class _Value:
    """Equal when of one class with equal __slots__, in order; another
    class gives NotImplemented.  Hashed as the tuple of slot values; the
    repr names each slot as a keyword."""

    __slots__ = ()

    def __init_subclass__(cls):
        names = cls.__slots__
        # One C call reads every slot; attrgetter gives no tuple for one.
        cls._fields = (attrgetter(*names) if len(names) > 1 else staticmethod(
            lambda obj: tuple(map(obj.__getattribute__, names))))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields(self) == other._fields(other)

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            f"{n}={v!r}" for n, v in zip(self.__slots__, self._fields(self))))


@total_ordering
class _Extended:
    """A point at infinity.  Only the module constants INF, NEG_INF exist."""

    __slots__ = ("_sign",)

    def __init__(self, sign):
        self._sign = sign

    def __repr__(self):
        return "inf" if self._sign > 0 else "-inf"

    def __eq__(self, other):
        return self is other

    def __hash__(self):
        return hash(("extended", self._sign))

    def __neg__(self):
        return NEG_INF if self._sign > 0 else INF

    def __lt__(self, other):
        if isinstance(other, _Extended):
            return self._sign < other._sign
        if isinstance(other, int):
            return self._sign < 0
        return NotImplemented

    def __add__(self, other):
        if isinstance(other, _Extended):
            if other._sign != self._sign:
                raise UndefinedArithmetic("inf + -inf has no assigned value")
            return self
        if isinstance(other, int):
            return self
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (_Extended, int)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (_Extended, int)):
            return (-self) + other
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, _Extended):
            sign = other._sign
        elif isinstance(other, int):
            if other == 0:
                return 0
            sign = 1 if other > 0 else -1
        else:
            return NotImplemented
        return self if sign > 0 else -self

    __rmul__ = __mul__


INF = _Extended(1)
NEG_INF = _Extended(-1)


def is_finite(value):
    """True for ordinary ints, False for INF and NEG_INF."""
    return not isinstance(value, _Extended)


def value_to_json(value):
    """Render a value for JSON: ints pass through, infinities become strings."""
    if value is INF:
        return "inf"
    if value is NEG_INF:
        return "-inf"
    return value


def _json_object(obj, what, *keys):
    """obj when it is a JSON object holding keys, else ValueError."""
    if not isinstance(obj, dict):
        raise ValueError(f"not a {what} object: {obj!r}")
    for key in keys:
        if key not in obj:
            raise ValueError(f"{what} object has no {key!r}")
    return obj


def value_from_json(obj):
    if obj == "inf":
        return INF
    if obj == "-inf":
        return NEG_INF
    if isinstance(obj, int) and not isinstance(obj, bool):
        return obj
    raise ValueError(f"not a value: {obj!r}")


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# The least strong pseudoprime to every base in _MR_BASES.
_MR_BOUND = 3317044064679887385961981
# psi_k, the least strong pseudoprime to the first k bases, k = 1 .. 13:
# below psi_k those k bases decide primality.
_MR_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747,
           3474749660383, 341550071728321, 341550071728321,
           3825123056546413051, 3825123056546413051, 3825123056546413051,
           318665857834031151167461, _MR_BOUND)


def _strong_prp(n, a):
    """Miller-Rabin: is odd n > a a strong probable prime to base a?"""
    d = n - 1
    s = (d & -d).bit_length() - 1
    x = pow(a, d >> s, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a, n):
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas_prp(n):
    """Is odd n > 2 a strong Lucas probable prime for Selfridge's
    parameters: the first D in 5, -7, 9, -11, ... with (D/n) = -1,
    P = 1, Q = (1 - D)/4?"""
    if isqrt(n) ** 2 == n:
        return False
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0 and D % n:
            return False
        D = -D - 2 if D > 0 else 2 - D
    Q = (1 - D) // 4
    # n + 1 = d * 2**s with d odd.
    d = n + 1
    s = (d & -d).bit_length() - 1
    d >>= s
    # U_k, V_k, Q^k mod n for the leading bits k of d (P = 1); half is
    # the inverse of 2 mod n.
    half = (n + 1) // 2
    u, v, qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v = (u + v) * half % n, (D * u + v) * half % n
            qk = qk * Q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def _isprime(n):
    """Primality of the int n; see the module docstring."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    if n < 43 * 43:
        return True
    if n < _MR_BOUND:
        k = bisect_right(_MR_PSI, n) + 1
        return all(_strong_prp(n, a) for a in _MR_BASES[:k])
    return _strong_prp(n, 2) and _strong_lucas_prp(n)


def check_prime(p):
    """Return p unchanged if it is a prime number, else raise ValueError.

    >>> check_prime(7)
    7
    >>> check_prime(6)
    Traceback (most recent call last):
        ...
    ValueError: not a prime: 6
    """
    if not isinstance(p, int) or isinstance(p, bool) or not _isprime(p):
        raise ValueError(f"not a prime: {p!r}")
    return p


class PrimeSet(_Value):
    """A finite or cofinite set of primes, closed under Boolean algebra.

    Finite sets store their members; cofinite sets store the missing
    primes.  The empty set and the set of all primes are distinct
    (mode matters, membership decides equality only within a mode,
    and the representation is canonical so == is extensional).

    >>> s = PrimeSet.of(2, 3) | PrimeSet.all_except(2)
    >>> s
    PrimeSet.all_except()
    >>> 97 in PrimeSet.all_except(3)
    True
    >>> ~PrimeSet.all_except(2)
    PrimeSet.of(2)
    """

    __slots__ = ("cofinite", "primes")

    def __init__(self, primes=(), cofinite=False):
        self.primes = tuple(sorted({check_prime(p) for p in primes}))
        self.cofinite = bool(cofinite)

    @classmethod
    def _make(cls, primes, cofinite):
        # Trusted: primes is already a strictly ascending tuple of primes.
        s = object.__new__(cls)
        s.primes = primes
        s.cofinite = cofinite
        return s

    @classmethod
    def of(cls, *primes):
        return cls(primes)

    @classmethod
    def all_except(cls, *primes):
        return cls(primes, cofinite=True)

    def __contains__(self, p):
        # Membership is only meaningful for prime p; not re-validated here.
        return (p in self.primes) != self.cofinite

    def __repr__(self):
        inner = ", ".join(str(p) for p in self.primes)
        name = "all_except" if self.cofinite else "of"
        return f"PrimeSet.{name}({inner})"

    def render(self):
        """The surface syntax: {2,3}, all, all-{3}."""
        inner = ",".join(str(p) for p in self.primes)
        if not self.cofinite:
            return "{%s}" % inner
        return "all" if not self.primes else "all-{%s}" % inner

    @property
    def is_empty(self):
        return not self.cofinite and not self.primes

    @property
    def is_all(self):
        return self.cofinite and not self.primes

    @property
    def is_finite(self):
        return not self.cofinite

    def __or__(self, other):
        a, b = self, other
        if not a.cofinite and not b.cofinite:
            return PrimeSet._make(tuple(sorted({*a.primes, *b.primes})), False)
        if a.cofinite and b.cofinite:
            return PrimeSet._make(
                tuple(p for p in a.primes if p in b.primes), True)
        if not a.cofinite:
            a, b = b, a
        return PrimeSet._make(
            tuple(p for p in a.primes if p not in b.primes), True)

    def __and__(self, other):
        return ~((~self) | (~other))

    def __sub__(self, other):
        return self & ~other

    def __invert__(self):
        return PrimeSet._make(self.primes, not self.cofinite)

    def to_json(self):
        return {
            "mode": "cofinite" if self.cofinite else "finite",
            "primes": list(self.primes),
        }

    @classmethod
    def from_json(cls, obj):
        mode = _json_object(obj, "PrimeSet").get("mode")
        if mode not in ("finite", "cofinite"):
            raise ValueError(f"bad PrimeSet mode: {mode!r}")
        return cls(obj.get("primes", ()), cofinite=(mode == "cofinite"))


EMPTY = PrimeSet()
ALL_PRIMES = PrimeSet(cofinite=True)


class PrimeFn(_Value):
    """A function on the primes plus a slot at 0, constant off a finite set.

    Stored as (at_zero, default, exceptions) where exceptions is a sorted
    tuple of (prime, value) pairs whose values all differ from the
    default.  That keeps the representation canonical: two functions are
    pointwise equal exactly when their representations coincide.  Values
    are ints or INF/NEG_INF; the group layer also stores small status
    tokens in one, so nothing here insists on arithmetic types.

    The constructor validates its primes; the results of the operations
    below are built from already canonical inputs and are not re-checked.

    >>> f = PrimeFn(3, 1, {2: 4})
    >>> f(2), f(5), f(0)
    (4, 1, 3)
    >>> f.sup()
    4
    >>> PrimeFn(1, 1, {3: 1})   # exception equal to default is dropped
    PrimeFn(at_zero=1, default=1)
    """

    __slots__ = ("at_zero", "default", "exceptions")

    def __init__(self, at_zero, default, exceptions=()):
        items = exceptions.items() if isinstance(exceptions, dict) else exceptions
        seen = {}
        for p, v in items:
            check_prime(p)
            if p in seen and seen[p] != v:
                raise ValueError(f"conflicting values at prime {p}")
            seen[p] = v
        self.at_zero = at_zero
        self.default = default
        self.exceptions = tuple(
            (p, v) for p, v in sorted(seen.items()) if v != default
        )

    @classmethod
    def _make(cls, at_zero, default, pairs):
        # Trusted: pairs ascend by prime; those equal to the default drop.
        f = object.__new__(cls)
        f.at_zero = at_zero
        f.default = default
        f.exceptions = tuple((p, v) for p, v in pairs if v != default)
        return f

    @classmethod
    def constant(cls, value):
        return cls._make(value, value, ())

    @property
    def exception_primes(self):
        return tuple(p for p, _ in self.exceptions)

    def __call__(self, x):
        if x == 0:
            return self.at_zero
        return self._value(check_prime(x))

    def __repr__(self):
        parts = [f"at_zero={self.at_zero!r}", f"default={self.default!r}"]
        if self.exceptions:
            parts.append(f"exceptions={self.exceptions!r}")
        return "PrimeFn(%s)" % ", ".join(parts)

    def _value(self, p):
        for q, v in self.exceptions:
            if q == p:
                return v
        return self.default

    def combine(self, other, op):
        """Pointwise op against another PrimeFn, slot by slot.

        UndefinedArithmetic raised by op is re-raised with the offending
        slot named.
        """
        def run(slot, a, b):
            try:
                return op(a, b)
            except UndefinedArithmetic as err:
                raise UndefinedArithmetic(f"{err} (at slot {slot})") from None

        primes = sorted({*self.exception_primes, *other.exception_primes})
        return PrimeFn._make(
            run(0, self.at_zero, other.at_zero),
            run("default", self.default, other.default),
            [(p, run(p, self._value(p), other._value(p))) for p in primes],
        )

    def map(self, fn):
        """Apply fn to every slot value."""
        def run(slot, a):
            try:
                return fn(a)
            except UndefinedArithmetic as err:
                raise UndefinedArithmetic(f"{err} (at slot {slot})") from None

        return PrimeFn._make(
            run(0, self.at_zero),
            run("default", self.default),
            [(p, run(p, v)) for p, v in self.exceptions],
        )

    def add(self, other):
        return self.combine(other, lambda a, b: a + b)

    def sub(self, other):
        return self.combine(other, lambda a, b: a - b)

    def mul(self, other):
        return self.combine(other, lambda a, b: a * b)

    def max_with(self, other):
        return self.combine(other, max)

    def min_with(self, other):
        return self.combine(other, min)

    def sup(self):
        """Exact supremum over the primes and the 0 slot.

        The default is attained at the cofinitely many unexceptional
        primes, so the candidates are just the stored values.
        """
        return max(self.default, self.at_zero, *(v for _, v in self.exceptions))

    def inf(self):
        """Exact infimum over the primes and the 0 slot."""
        return min(self.default, self.at_zero, *(v for _, v in self.exceptions))

    def sup_over(self, s: PrimeSet):
        """Supremum of values over the primes of s; None for empty s."""
        if s.is_empty:
            return None
        if s.is_finite:
            return max(self._value(p) for p in s.primes)
        return max([self.default, *(v for p, v in self.exceptions if p in s)])

    def where_equal(self, value) -> PrimeSet:
        """The set of primes at which the function takes the given value."""
        if self.default == value:
            # Exceptions all differ from the default, hence from value.
            return PrimeSet._make(self.exception_primes, True)
        return PrimeSet._make(
            tuple(p for p, v in self.exceptions if v == value), False)

    def differ(self, other) -> PrimeSet:
        """The set of primes where two functions disagree (slot 0 ignored)."""
        primes = sorted({*self.exception_primes, *other.exception_primes})
        if self.default == other.default:
            return PrimeSet._make(tuple(
                p for p in primes if self._value(p) != other._value(p)), False)
        return PrimeSet._make(tuple(
            p for p in primes if self._value(p) == other._value(p)), True)

    def leq(self, other) -> bool:
        """Pointwise <= over the primes and the 0 slot."""
        if not (self.at_zero <= other.at_zero and self.default <= other.default):
            return False
        primes = {*self.exception_primes, *other.exception_primes}
        return all(self._value(p) <= other._value(p) for p in primes)

    def level_sets(self):
        """Partition of the primes by value: [(value, PrimeSet), ...].

        The default's (cofinite) set comes first, then the exception
        values grouped into finite sets, ordered by first occurrence.
        """
        out = [(self.default, PrimeSet._make(self.exception_primes, True))]
        groups: dict = {}
        for p, v in self.exceptions:
            groups.setdefault(v, []).append(p)
        out.extend((v, PrimeSet._make(tuple(ps), False))
                   for v, ps in groups.items())
        return out

    def render(self, with_zero=True):
        """The d-spec surface syntax: {zero: a, default: b, p: v, ...}."""
        pieces = [f"zero: {self.at_zero}"] if with_zero else []
        pieces.append(f"default: {self.default}")
        pieces.extend(f"{p}: {v}" for p, v in self.exceptions)
        return "{" + ", ".join(pieces) + "}"

    def to_json(self):
        return {
            "at_zero": value_to_json(self.at_zero),
            "default": value_to_json(self.default),
            "exceptions": {str(p): value_to_json(v) for p, v in self.exceptions},
        }

    @classmethod
    def from_json(cls, obj):
        _json_object(obj, "PrimeFn", "at_zero", "default")
        exc = [(int(k), value_from_json(v))
               for k, v in obj.get("exceptions", {}).items()]
        return cls(
            value_from_json(obj["at_zero"]),
            value_from_json(obj["default"]),
            exc,
        )


def indicator(s: PrimeSet) -> PrimeFn:
    """The characteristic function of a prime set; 0 at the 0 slot."""
    if s.cofinite:
        return PrimeFn._make(0, 1, [(p, 0) for p in s.primes])
    return PrimeFn._make(0, 0, [(p, 1) for p in s.primes])


def select(s: PrimeSet, on_true: PrimeFn, on_false: PrimeFn) -> PrimeFn:
    """Pointwise: on_true(p) for p in s, else on_false(p).

    The 0 slot is never in a prime set, so it comes from on_false.
    """
    primes = sorted({
        *s.primes, *on_true.exception_primes, *on_false.exception_primes
    })
    default = on_true.default if s.cofinite else on_false.default
    exc = [(p, on_true._value(p) if p in s else on_false._value(p))
           for p in primes]
    return PrimeFn._make(on_false.at_zero, default, exc)
