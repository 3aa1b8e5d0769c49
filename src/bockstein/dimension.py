"""Dimension queries built on the type algebra and the group layer.

Everything here reads off a cd-type: dimension with respect to an
arbitrary coefficient group (Bockstein's theorem), regularity and
deficiency at a prime, behavior of powers, testing spaces, products of
fundamental types, full-valuedness, admissibility constraints for
ANRs, and the standard bounds for fibrations.
"""

from __future__ import annotations

from .cdtype import Basis, CdType, UniformFamily, phi_basis, wedge_family
from .groups import BocksteinFamily, Q, Zloc, Zmod, ZpInf, sigma
from .primes import check_prime, is_finite

__all__ = [
    "PowerReport",
    "anr_admissible",
    "deficiency",
    "dim",
    "fibration_bounds",
    "fundamental_product_dim",
    "is_full_valued",
    "p_regular",
    "p_singular",
    "power_report",
    "test_space",
    "testing_dim",
]


def dim(f: CdType, group):
    """dim_G of a compactum of type f, as a supremum over sigma(G).

    group may be a GroupExpr, a GroupProfile, or a BocksteinFamily.

    >>> from .cdtype import nat
    >>> from .groups import Zmod
    >>> dim(nat(3), Zmod(2, 2))
    3
    """
    fam = group if isinstance(group, BocksteinFamily) else sigma(group)
    phi = f.to_phi()
    values = []
    if fam.has_q:
        values.append(phi.phi_q)
    for fn, over in ((phi.zloc, fam.loc), (phi.zp, fam.zp),
                     (phi.zpinf, fam.zpinf)):
        v = fn.sup_over(over)
        if v is not None:
            values.append(v)
    return max(values)


def deficiency(f: CdType, p) -> int:
    """phi(Zp) - phi(Zpinf) at p; always 0 or 1."""
    check_prime(p)
    return 1 if p in f.D else 0


def p_regular(f: CdType, p) -> bool:
    """Whether all four dimensions at p agree with the rational one."""
    check_prime(p)
    return p not in f.S


def p_singular(f: CdType, p) -> bool:
    return not p_regular(f, p)


class PowerReport:
    """Norms of the powers of a type, with its basic/exceptional kind."""

    __slots__ = ("base_norm", "kind", "power_norms")

    def __init__(self, base_norm, kind, power_norms):
        self.base_norm = base_norm
        self.kind = kind
        self.power_norms = dict(power_norms)

    def __repr__(self):
        return (f"PowerReport(base_norm={self.base_norm!r}, "
                f"kind={self.kind!r}, power_norms={self.power_norms!r})")


def power_report(f: CdType, k_max: int) -> PowerReport:
    """Norms of f, 2f, ..., k_max f and the dichotomy kind.

    Basic means some field attains the norm, equivalently the norm of a
    power is multiplicative; exceptional types lose k - 1 from the
    multiplicative value.  The dichotomy is recomputed directly from
    the scaled types and cross-checked against the closed form.
    """
    if not isinstance(k_max, int) or isinstance(k_max, bool) or k_max < 1:
        raise ValueError(f"k_max must be an integer >= 1: {k_max!r}")
    n = f.norm()
    if not is_finite(n):
        raise ValueError("power report needs a finite norm")
    if n < 1:
        raise ValueError("power report needs norm at least 1")
    kind = "Basic" if f.d.sup() == n else "Exceptional"
    norms = {}
    for k in range(1, k_max + 1):
        norms[k] = f.scale(k).norm()
        expected = k * n if kind == "Basic" else k * n - k + 1
        if norms[k] != expected:
            raise RuntimeError(
                f"power dichotomy violated at k={k}: got {norms[k]}, "
                f"expected {expected} for {kind}")
    return PowerReport(n, kind, norms)


def test_space(group, n) -> CdType:
    """The testing type T_n(G): wedge of Phi(H, n) over H in sigma(G)."""
    if not (isinstance(n, int) and n >= 1):
        raise ValueError(f"test_space needs an integer n >= 1: {n!r}")
    fam = group if isinstance(group, BocksteinFamily) else sigma(group)
    explicit = [phi_basis(Basis.q(), n)] if fam.has_q else []
    families = [UniformFamily(kind, n, over)
                for kind, over in (("Zloc", fam.loc), ("Zp", fam.zp),
                                   ("ZpInf", fam.zpinf))
                if not over.is_empty]
    return wedge_family(explicit, families)


def testing_dim(f: CdType, group, n):
    """dim_G recovered by multiplying with the testing space.

    Valid on the class where norm(f) - dim(f, G) < n; returns
    norm(f [+] T_n(G)) - n, which the testing theorem makes equal to
    dim(f, G).
    """
    d_g = dim(f, group)
    n_f = f.norm()
    if not (is_finite(n_f) and n_f - d_g < n):
        raise ValueError(
            f"testing space needs norm - dim < n; got {n_f} - {d_g} vs {n}")
    total = f.sum(test_space(group, n)).norm()
    return total - n


_BASIS_GROUP = {
    "Q": lambda p: Q,
    "Zp": lambda p: Zmod(p),
    "ZpInf": lambda p: ZpInf(p),
    "Zloc": lambda p: Zloc([p]),
}


def fundamental_product_dim(g: Basis, n: int, g2: Basis, m: int):
    """dim of the product of two fundamental compacta, n >= m >= 2.

    Computed as the norm of the type sum; cross-checked against the
    closed form dim_G F(G', m) + n.
    """
    if not (isinstance(n, int) and isinstance(m, int) and n >= m >= 2):
        raise ValueError(f"need integers n >= m >= 2: {n!r}, {m!r}")
    value = phi_basis(g, n).sum(phi_basis(g2, m)).norm()
    check = dim(phi_basis(g2, m), _BASIS_GROUP[g.kind](g.p)) + n
    if value != check:
        raise RuntimeError(
            f"product-dimension routes disagree: norm {value}, formula {check}")
    return value


def is_full_valued(f: CdType) -> bool:
    """Whether every dimension of f equals the covering dimension."""
    phi = f.to_phi()
    return phi.inf() == phi.sup()


ANR_CLAUSES = {
    "a": "phi(Zloc) = phi(Zp) at every prime",
    "b": "phi(G) >= phi(Q) for every G in sigma",
    "c": "a type of norm 2 must be nat(2)",
}


def anr_admissible(f: CdType):
    """Necessary conditions for f to be the type of an ANR compactum.

    Returns (ok, violated) where violated lists clause keys from
    ANR_CLAUSES.  Passing does not certify that an ANR of this type
    exists; these are filters, not a characterization.
    """
    violated = []
    phi = f.to_phi()
    if not phi.zloc.differ(phi.zp).is_empty:
        violated.append("a")
    low = min(phi.zloc.inf(), phi.zp.inf(), phi.zpinf.inf())
    if low < phi.phi_q:
        violated.append("b")
    if f.norm() == 2 and not is_full_valued(f):
        violated.append("c")
    return (not violated, violated)


def fibration_bounds(dim_g_base, dim_base, max_fiber_dim, max_fiber_dim_g):
    """The four upper bounds for dim_G of the total space of a fibration.

    Returns (b1, b2, b3, b4):
        b1 = dim_G(base) + max fiber dim
        b2 = dim(base) + max fiber dim_G
        b3 = dim_G(base) + max fiber dim_G, valid only when the
             coefficients form a PID with unity (the caller decides;
             the value is reported either way)
        b4 = b3 + 1, valid for arbitrary coefficients
    Infinite inputs propagate.
    """
    b1 = dim_g_base + max_fiber_dim
    b2 = dim_base + max_fiber_dim_g
    b3 = dim_g_base + max_fiber_dim_g
    return (b1, b2, b3, b3 + 1)
