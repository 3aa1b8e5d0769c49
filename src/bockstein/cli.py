"""Command-line front end for the dimension-type calculus.

Subcommands:

  eval EXPR          evaluate a query or a cd-type expression
  table KIND         emit the fundamental-dimension or product table
  decompose EXPR     wedge decomposition of a positive cd-type
  sigma GROUP        Bockstein family of a group expression
  verify TARGET      run a finite homology verification
  check-laws         run the algebra-law suite over a finite universe

The expression language uses `[+]`, `[x]` and `\\/` as infix operators
with precedence [x] > [+] > \\/, all left associative; `prod`, `times`
and `wedge` are equivalent function spellings.  A cd-type expression is
evaluated as it is parsed: each operation runs as soon as its operands
are read, so a long operator chain is a loop, never a deep tree.
Infinity is the token `inf` on input and output.  Exit codes: 0
success, 1 verification failure, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from math import gcd

from . import chains, simplicial
from .chains import GroupReport
from .cdtype import Basis, CdType, decompose, nat, phi_basis
from .dimension import _BASIS_GROUP, dim, fundamental_product_dim, test_space
from .groups import Q, SumOverPrimes, Z, Zinv, Zloc, Zmod, ZpInf, sigma
from .oracle import Universe, check_laws, render_reports, select_laws
from .primes import (
    ALL_PRIMES,
    INF,
    NEG_INF,
    PrimeFn,
    PrimeSet,
    UndefinedArithmetic,
    check_prime,
    value_to_json,
)

__all__ = [
    "CliError",
    "emit_table",
    "evaluate",
    "main",
    "parse",
    "parse_cdexpr",
    "parse_group",
    "verify",
]


class CliError(Exception):
    """A user-facing error: bad syntax or an invalid argument."""


# -- tokenizer ---------------------------------------------------------------

_PUNCT = "(){},=:^/+-"
_OPS = ("[+]", "[x]", "\\/")


def _tokenize(text):
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        hit = next((op for op in _OPS if text.startswith(op, i)), None)
        if hit is not None:
            out.append((hit, hit, i))
            i += len(hit)
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(("NUM", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(("IDENT", text[i:j], i))
            i = j
            continue
        if ch in _PUNCT:
            out.append((ch, ch, i))
            i += 1
            continue
        raise CliError(f"syntax error at position {i}: "
                       f"unexpected character {ch!r}")
    out.append(("EOF", "", n))
    return out


# -- recursive-descent parser ------------------------------------------------

# Each function form is a name and its argument slots; a slot names the
# _Parser method that reads it, after "key=" for a keyword slot.

# Constructors: a ValueError is an input error at the form's position.
_CD_FORMS = {
    "Phi": (phi_basis, ("basis", "nat")),
    "nat": (nat, ("nat",)),
    "test": (test_space, ("group", "nat")),
    "triple": (CdType.triple, ("S=prime_set", "D=prime_set", "d=dspec")),
}
_GROUP_FORMS = {
    "Zpinf": (ZpInf, ("prime",)),
    "Zinv": (Zinv, ("prime",)),
    "SumAll": (partial(SumOverPrimes, ALL_PRIMES), ("sum_pattern",)),
    "SumOver": (SumOverPrimes, ("primes", "sum_pattern")),
}

# Operations on cd-types; their errors pass as they are.
_CD_OPS = {
    "conj": (CdType.conjugate, ("cdexpr",)),
    "pow": (CdType.scale, ("cdexpr", "nat")),
    "prod": (CdType.sum, ("cdexpr", "cdexpr")),
    "times": (CdType.times, ("cdexpr", "cdexpr")),
    "wedge": (CdType.wedge, ("cdexpr", "cdexpr")),
}

_BASIS_KINDS = {"Zp": Basis.zp, "Zpinf": Basis.zpinf, "Zloc": Basis.zloc}

# Each nested cd-type expression costs the parser a few interpreter
# frames; deeper input is refused before it reaches the recursion limit.
_MAX_NESTING = 100


class _Parser:
    __slots__ = ("tokens", "pos", "depth")

    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self, ahead=0):
        k = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[k]

    def advance(self):
        tok = self.tokens[self.pos]
        if tok[0] != "EOF":
            self.pos += 1
        return tok

    def accept(self, kind, text=None):
        tok = self.peek()
        if tok[0] == kind and (text is None or tok[1] == text):
            return self.advance()
        return None

    def expect(self, kind, what=None):
        tok = self.accept(kind)
        if tok is None:
            bad = self.peek()
            shown = repr(bad[1]) if bad[0] != "EOF" else "end of input"
            raise CliError(f"syntax error at position {bad[2]}: "
                           f"expected {what or kind}, got {shown}")
        return tok

    def expect_eof(self):
        tok = self.peek()
        if tok[0] != "EOF":
            raise CliError(f"syntax error at position {tok[2]}: "
                           f"unexpected trailing input {tok[1]!r}")

    def args(self, slots):
        """A parenthesized argument list, one reader per slot."""
        self.expect("(")
        out = []
        for i, slot in enumerate(slots):
            if i:
                self.expect(",")
            key, _, reader = slot.rpartition("=")
            if key:
                self.expect_ident(key)
                self.expect("=")
            out.append(getattr(self, reader)())
        self.expect(")")
        return out

    # queries

    def query(self):
        tok = self.peek()
        if (tok[0] == "IDENT" and tok[1] in _QUERIES
                and self.peek(1)[0] == "("):
            name = self.advance()[1]
            return ("query", name, tuple(self.args(_QUERIES[name][0])))
        return ("cdexpr", self.cdexpr())

    # cd-type expressions, precedence [x] > [+] > \/, each operation
    # applied as soon as its operands are read

    def cdexpr(self):
        if self.depth > _MAX_NESTING:
            raise CliError(f"at position {self.peek()[2]}: expression "
                           f"nested deeper than {_MAX_NESTING} levels")
        self.depth += 1
        value = self.pterm()
        while self.accept("\\/"):
            value = value.wedge(self.pterm())
        self.depth -= 1
        return value

    def pterm(self):
        value = self.xterm()
        while self.accept("[+]"):
            value = value.sum(self.xterm())
        return value

    def xterm(self):
        value = self.atom()
        while self.accept("[x]"):
            value = value.times(self.atom())
        return value

    def atom(self):
        if self.accept("("):
            value = self.cdexpr()
            self.expect(")")
            return value
        tok = self.expect("IDENT", "a cd-type expression")
        if tok[1] in _CD_FORMS:
            fn, slots = _CD_FORMS[tok[1]]
            return self._guard(tok, fn, *self.args(slots))
        if tok[1] in _CD_OPS:
            fn, slots = _CD_OPS[tok[1]]
            return fn(*self.args(slots))
        raise CliError(f"syntax error at position {tok[2]}: "
                       f"unknown form {tok[1]!r}")

    @staticmethod
    def _guard(tok, fn, *args):
        try:
            return fn(*args)
        except ValueError as exc:
            raise CliError(f"at position {tok[2]}: {exc}") from exc

    def expect_ident(self, text):
        tok = self.peek()
        if tok[0] == "IDENT" and tok[1] == text:
            return self.advance()
        shown = repr(tok[1]) if tok[0] != "EOF" else "end of input"
        raise CliError(f"syntax error at position {tok[2]}: "
                       f"expected {text!r}, got {shown}")

    def basis(self):
        tok = self.expect("IDENT", "a basis kind (Q, Zp, Zpinf, Zloc)")
        if tok[1] == "Q":
            return Basis.q()
        maker = _BASIS_KINDS.get(tok[1])
        if maker is None:
            raise CliError(f"at position {tok[2]}: not a Bockstein basis "
                           f"kind: {tok[1]!r} (expected Q, Zp, Zpinf, Zloc)")
        return maker(*self.args(("prime",)))

    def prime_set(self):
        tok = self.peek()
        if tok[0] == "IDENT" and tok[1] == "all":
            self.advance()
            if self.accept("-"):
                return PrimeSet.all_except(*self.primes())
            return ALL_PRIMES
        return PrimeSet.of(*self.primes(empty=True))

    def primes(self, empty=False):
        """A braced list of primes, nonempty unless empty is set."""
        self.expect("{")
        primes = []
        if not empty or self.peek()[0] == "NUM":
            primes.append(self.prime())
            while self.accept(","):
                primes.append(self.prime())
        self.expect("}")
        return primes

    def dspec(self):
        brace = self.expect("{")
        keys = {}
        exceptions = []
        while True:
            tok = self.peek()
            if tok[0] == "IDENT" and tok[1] in ("zero", "default"):
                self.advance()
                if tok[1] in keys:
                    raise CliError(f"syntax error at position {tok[2]}: "
                                   f"repeated key {tok[1]!r} in a d-spec")
                self.expect(":")
                keys[tok[1]] = self.val()
            else:
                p = self.prime()
                self.expect(":")
                exceptions.append((p, self.val()))
            if not self.accept(","):
                break
        self.expect("}")
        if "default" not in keys:
            tok = self.peek()
            raise CliError(f"syntax error at position {tok[2]}: "
                           "d-spec needs a default value")
        default = keys["default"]
        return self._guard(brace, PrimeFn, keys.get("zero", default),
                           default, exceptions)

    def val(self):
        negate = self.accept("-") is not None
        tok = self.peek()
        if tok[0] == "NUM":
            self.advance()
            v = int(tok[1])
            return -v if negate else v
        if tok[0] == "IDENT" and tok[1] == "inf":
            self.advance()
            return NEG_INF if negate else INF
        shown = repr(tok[1]) if tok[0] != "EOF" else "end of input"
        raise CliError(f"syntax error at position {tok[2]}: "
                       f"expected a value, got {shown}")

    def nat(self):
        tok = self.expect("NUM", "a natural number")
        return int(tok[1])

    def prime(self):
        tok = self.expect("NUM", "a prime")
        try:
            return check_prime(int(tok[1]))
        except ValueError as exc:
            raise CliError(f"at position {tok[2]}: {exc}") from exc

    # group expressions

    def group(self):
        node = self.group_atom()
        while self.accept("+"):
            node = node + self.group_atom()
        return node

    def group_atom(self):
        tok = self.expect("IDENT", "a group expression")
        name = tok[1]
        if name == "Q":
            return Q
        if name == "Z":
            if self.accept("/"):
                p = self.prime()
                k = self.nat() if self.accept("^") else 1
                return self._guard(tok, Zmod, p, k)
            return Z
        if name == "Zloc":
            return Zloc(self.primes(empty=True))
        if name in _GROUP_FORMS:
            fn, slots = _GROUP_FORMS[name]
            return self._guard(tok, fn, *self.args(slots))
        raise CliError(f"syntax error at position {tok[2]}: "
                       f"unknown group {name!r}")

    def sum_pattern(self):
        tok = self.expect("IDENT", "Zp or Zpinf")
        if tok[1] == "Zp":
            return "Zp"
        if tok[1] == "Zpinf":
            return "ZpInf"
        raise CliError(f"at position {tok[2]}: the summand pattern must "
                       f"be Zp or Zpinf, not {tok[1]!r}")


def parse(text):
    """Parse a query or a bare cd-type expression, evaluating each
    cd-type expression as it is read: ("cdexpr", CdType) or ("query",
    name, args) with the cd-type arguments already evaluated.

    >>> kind, name, (f,) = parse("inorm(nat(5) [+] nat(1))")
    >>> kind, name, f.render()
    ('query', 'inorm', 'nat(6)')
    """
    ps = _Parser(text)
    node = ps.query()
    ps.expect_eof()
    return node


def parse_cdexpr(text):
    ps = _Parser(text)
    node = ps.cdexpr()
    ps.expect_eof()
    return node


def parse_group(text):
    ps = _Parser(text)
    node = ps.group()
    ps.expect_eof()
    return node


# -- evaluation --------------------------------------------------------------

def _fn_json(fn: PrimeFn):
    out = {"default": value_to_json(fn.default)}
    for p, v in fn.exceptions:
        out[str(p)] = value_to_json(v)
    return out


def _phi_text(phi):
    zp, zpinf, zloc = (fn.render(with_zero=False)
                       for fn in (phi.zp, phi.zpinf, phi.zloc))
    return f"Q: {phi.phi_q}; Zp: {zp}; Zpinf: {zpinf}; Zloc: {zloc}"


def _phi_json(phi):
    return {"Q": value_to_json(phi.phi_q), "Zp": _fn_json(phi.zp),
            "Zpinf": _fn_json(phi.zpinf), "Zloc": _fn_json(phi.zloc)}


_ENTRY_SPELLING = {"Zloc": "Zloc", "Zp": "Zp", "ZpInf": "Zpinf"}


def _decomposition_text(dec):
    parts = []
    for kind, over, value in dec.entries():
        if kind == "Q":
            parts.append(f"Phi(Q, {value})")
            continue
        spelled = _ENTRY_SPELLING[kind]
        if over.is_finite:
            parts.extend(f"Phi({spelled}({p}), {value})"
                         for p in sorted(over.primes))
        else:
            parts.append(f"Phi({spelled}(p), {value}) "
                         f"for p in {over.render()}")
    return " \\/ ".join(parts) if parts else "nat(1)"


def _decomposition_json(dec):
    return {"Q": value_to_json(dec.k_q), "Zloc": _fn_json(dec.k_zloc),
            "Zp": _fn_json(dec.k_zp), "ZpInf": _fn_json(dec.k_zpinf)}


def _family_json(fam):
    return {"has_q": fam.has_q, "loc": fam.loc.to_json(),
            "zp": fam.zp.to_json(), "zpinf": fam.zpinf.to_json()}


# Each query: its argument slots (as for the function forms), the
# function that answers it from the parsed arguments, and the text and
# JSON renderings of the answer.
_QUERIES = {
    "norm": (("cdexpr",), CdType.norm, str, value_to_json),
    "inorm": (("cdexpr",), CdType.inferior_norm, str, value_to_json),
    "dim": (("cdexpr", "group"), dim, str, value_to_json),
    "sigma": (("group",), sigma, lambda fam: fam.render(), _family_json),
    "decompose": (("cdexpr",), decompose, _decomposition_text,
                  _decomposition_json),
    "leq": (("cdexpr", "cdexpr"), CdType.leq,
            lambda flag: "true" if flag else "false", bool),
    "phi": (("cdexpr",), CdType.to_phi, _phi_text, _phi_json),
}


def evaluate(parsed):
    """Answer a parsed query by its _QUERIES entry, or render a bare
    cd-type expression; a dict with `text` and `json` renderings.

    >>> evaluate(parse("norm(Phi(Zp(2),3) [+] Phi(Q,2))"))["text"]
    '4'
    >>> evaluate(parse("dim(nat(3), Z/2^2)"))["text"]
    '3'
    >>> evaluate(parse("inorm(nat(5))"))["text"]
    '5'
    """
    if parsed[0] == "cdexpr":
        f = parsed[1]
        return {"text": f.render(),
                "json": {"query": "value", "value": f.to_json()}}
    _, name, args = parsed
    _, answer, text, to_json = _QUERIES[name]
    value = answer(*args)
    return {"text": text(value),
            "json": {"query": name, "value": to_json(value)}}


# -- table emitters ----------------------------------------------------------

def _row_bases(p):
    return [Basis.q(), Basis.zloc(p), Basis.zp(p), Basis.zpinf(p)]


def _column_bases(p, q):
    return [Basis.zloc(p), Basis.zp(p), Basis.zpinf(p), Basis.q(),
            Basis.zloc(q), Basis.zp(q), Basis.zpinf(q)]


def _format_table(title, headers, labels, cells):
    widths = [max(len(h), *(len(str(row[j])) for row in cells))
              for j, h in enumerate(headers)]
    label_w = max(len(label) for label in labels)
    lines = [title,
             "  ".join([" " * label_w]
                       + [h.rjust(w) for h, w in zip(headers, widths)])]
    for label, row in zip(labels, cells):
        lines.append("  ".join(
            [label.ljust(label_w)]
            + [str(v).rjust(w) for v, w in zip(row, widths)]))
    return "\n".join(lines)


def emit_table(kind, n, m=None, p=2, q=3):
    """The fundamental-dimension table or the product-dimension table.

    Returns (text, json_object).  Rows list the four basis kinds at the
    prime p; columns run over both primes.  For `products` the rows
    carry the lower level m and the columns the higher level n.
    """
    check_prime(p)
    check_prime(q)
    if p == q:
        raise CliError(f"the table needs two distinct primes, got p=q={p}")
    if kind == "fundamental":
        if not (isinstance(n, int) and n >= 1):
            raise CliError(f"the fundamental table needs n >= 1: {n!r}")
        rows = _row_bases(p)
        cols = _column_bases(p, q)
        groups = [_BASIS_GROUP[b.kind](b.p) for b in cols]
        labels = [f"F({b.render()}, {n})" for b in rows]
        headers = [b.render() for b in cols]
        cells = [[dim(phi_basis(rb, n), g) for g in groups] for rb in rows]
        title = f"dim_G F(G', {n}) with p={p}, q={q}"
    elif kind == "products":
        if m is None:
            raise CliError("the products table needs --m")
        if not (isinstance(n, int) and isinstance(m, int) and n >= m >= 2):
            raise CliError(f"the products table needs n >= m >= 2: "
                           f"n={n!r}, m={m!r}")
        rows = _row_bases(p)
        cols = _column_bases(p, q)
        labels = [f"F({b.render()}, {m})" for b in rows]
        headers = [f"({b.render()}, {n})" for b in cols]
        cells = [[fundamental_product_dim(cb, n, rb, m) for cb in cols]
                 for rb in rows]
        title = f"||Phi(G, {n}) [+] Phi(G', {m})|| with p={p}, q={q}"
    else:
        raise CliError(f"unknown table kind {kind!r}")
    jobj = {"table": kind, "n": n, "p": p, "q": q,
            "columns": headers,
            "rows": [{"label": label, "cells": row}
                     for label, row in zip(labels, cells)]}
    if kind == "products":
        jobj["m"] = m
    return _format_table(title, headers, labels, cells), jobj


# -- verification drivers ----------------------------------------------------

# Input sizes are checked from closed forms before anything is built.
# Timings below are taken past start-up, in the process, on a shared
# 2-CPU Xeon with Python 3.11, and vary up to twofold with its load;
# start-up (import included) adds ~0.1 s to a CLI process.  The largest
# admitted runs, mp-pair at p = 53 (1920 cells) and ew at n = 9 (2047
# cells), take ~0.02 s and ~0.013 s (medians of 9); the work grows a
# little faster than the cell count (mp-pair at p = 199, 7176 cells:
# ~0.08 s), so this limit is well inside what finishes.
_MAX_CELLS = 2048
# pontryagin counts the cells of L_{stages+1}, which it reduces over Z/p
# and Q.  Its largest admitted runs take ~1.1 s (stages 1 at p = 829,
# 99 526 cells) and ~0.5 s (stages 2 at p = 7, 72 574 cells) as CLI
# processes (medians of 8, Python 3.11 on a 2-CPU x86_64 machine under
# shared load).  Refused runs would still finish: stages 1 at p = 997
# (119 686 cells) and stages 2 at p = 11 (175 294 cells) take ~1.0 s
# each in the process.  The limit stays where it was: one number for
# every stage count cannot admit more stages at small p without
# admitting stages 1 far past p = 829, and memory, not time, bounds the
# larger runs.  At p = 829 the eliminations cost the most (1.0 of 1.6 s
# under cProfile), then the one-triangle template (0.43 s; ~0.3 s of
# ~0.7 s in the process without the profiler).
_MAX_PONTRYAGIN_CELLS = 100_000


def _check_cells(what, cells, limit=_MAX_CELLS):
    if cells > limit:
        raise CliError(f"{what} builds {cells} cells; the limit is {limit}")


def _pontryagin_cells(p, stages):
    """Cells of L_{stages+1}: L_1 is the boundary of the 3-simplex, and
    each stage replaces every triangle by a mapping cylinder of the
    p-fold circle covering glued along its subdivided boundary."""
    f0, f1, f2 = 4, 6, 4
    for _ in range(stages):
        f0, f1, f2 = (f0 + (2 * p - 1) * f1 + 6 * f2,
                      2 * p * f1 + (12 * p + 6) * f2, 12 * p * f2)
    return f0 + f1 + f2


def _check_line(checks, lines, name, ok, detail):
    checks.append({"name": name, "ok": ok, "detail": detail})
    lines.append(f"  {name}: {detail}  {'ok' if ok else 'FAIL'}")


def _ext_mod_p(p, coeff):
    """Ext(Z/p, coeff): the expected relative H^2."""
    divides = coeff is Z or (isinstance(coeff, Zmod) and coeff.p == p)
    return GroupReport(0, (p,) if divides else (), coeff)


def _verify_mp_pair(p, coeff):
    cyl = simplicial.mapping_cylinder(simplicial.degree_map_circle(p))
    boundary = cyl.domain
    checks, lines = [], [f"mp-pair: M_{p} rel its source circle"]

    integral = simplicial.homology_of(cyl.complex, relative_to=boundary)
    got = [integral[k] for k in (0, 1, 2)]
    exp = [GroupReport(0, orders, Z) for orders in ((), (p,), ())]
    _check_line(checks, lines, "H_*(M_p, dM_p; Z)", got == exp,
                f"{', '.join(g.render() for g in got)} "
                f"(expected {', '.join(g.render() for g in exp)})")

    rep = simplicial.cohomology_of(cyl.complex, coeff,
                                   relative_to=boundary)
    exp = _ext_mod_p(p, coeff)
    _check_line(checks, lines, f"H^2(M_p, dM_p; {coeff.render()})",
                rep[2] == exp, f"{rep[2].render()} (expected {exp.render()})")

    cone, xi, base = cyl.collapse()
    induced = simplicial.induced(xi, 2, Zmod(p),
                                 relative=(boundary, base),
                                 cohomology=True)
    _check_line(checks, lines, f"xi* on H^2(.; Z/{p})",
                induced.iso, induced.render())
    return checks, lines


def _verify_pontryagin(p, stages):
    built, bondings = simplicial.pontryagin_stage(p, stages)
    checks, lines = [], [f"pontryagin: stages L_1 .. L_{stages + 1}, p={p}"]
    for j, bonding in enumerate(bondings, start=1):
        rep = simplicial.induced(bonding, 2, Zmod(p), cohomology=True)
        _check_line(checks, lines, f"(q^{j + 1}_{j})* on H^2(.; Z/{p})",
                    rep.iso, rep.render())
    rational = simplicial.cohomology_of(built[-1], Q)
    _check_line(checks, lines, f"H^2(L_{stages + 1}; Q)",
                rational[2].is_zero, rational[2].render() + " (expected 0)")
    return checks, lines


def _verify_ew(p, n):
    model = simplicial.full_simplex(n + 1)
    ew, inclusion = simplicial.ew_skeleton(model, Zmod(p), n)
    checks, lines = [], [f"ew: EW skeleton of the {n + 1}-simplex, "
                         f"group Z/{p}, n={n}"]
    integral = chains.homology(ew)
    exp = GroupReport(0, (p,), Z)
    _check_line(checks, lines, f"H_{n}(EW; Z)", integral[n] == exp,
                f"{integral[n].render()} (expected {exp.render()})")
    rep = chains.induced_map(inclusion, n, Zmod(p))
    _check_line(checks, lines,
                f"skeleton inclusion on H_{n}(.; Z/{p})",
                rep.injective, rep.render())
    return checks, lines


def _verify_join(p, q):
    left = chains.moore_space(p, 1)
    right = chains.moore_space(q, 1)
    rep = chains.join_homology(left, right)
    g = gcd(p, q)
    checks, lines = [], [f"join: M(Z/{p}, 1) * M(Z/{q}, 1)"]
    for i in range(max(rep.degrees(), default=4) + 1):
        exp = GroupReport(0, (g,) if g > 1 and i in (3, 4) else (), Z)
        _check_line(checks, lines, f"H~_{i}", rep[i] == exp,
                    f"{rep[i].render()} (expected {exp.render()})")
    return checks, lines


def verify(target, p=2, q=3, n=2, stages=1, coeff=Q):
    """Run one verification driver; (ok, text, json_object)."""
    check_prime(p)
    if target == "mp-pair":
        # M_p: 6p + 6 vertices, 18p + 6 edges and 12p triangles.
        _check_cells(f"verify mp-pair --p {p}", 36 * p + 12)
        checks, lines = _verify_mp_pair(p, coeff)
    elif target == "pontryagin":
        if stages in (1, 2):    # pontryagin_stage refuses other counts
            _check_cells(f"verify pontryagin --p {p} --stages {stages}",
                         _pontryagin_cells(p, stages), _MAX_PONTRYAGIN_CELLS)
        checks, lines = _verify_pontryagin(p, stages)
    elif target == "ew":
        # Faces of the (n+1)-simplex: its n-skeleton plus one glued cell.
        # (n is clamped so that a huge n does not build a huge int.)
        _check_cells(f"verify ew --n {n}", 2 ** (min(n, 64) + 2) - 1)
        checks, lines = _verify_ew(p, n)
    elif target == "join":
        check_prime(q)
        checks, lines = _verify_join(p, q)
    else:
        raise CliError(f"unknown verification target {target!r}")
    ok = all(c["ok"] for c in checks)
    lines.append("pass" if ok else "FAIL")
    jobj = {"target": target, "ok": ok, "checks": checks}
    return ok, "\n".join(lines), jobj


# -- subcommand plumbing -----------------------------------------------------

def _parse_prime_csv(text):
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            out.append(check_prime(int(piece)))
        except ValueError as exc:
            raise CliError(str(exc)) from exc
    if not out:
        raise CliError(f"no primes in {text!r}")
    return out


def _parse_coeff(text):
    grp = parse_group(text)
    if grp is Z or grp is Q or isinstance(grp, (Zmod, ZpInf)):
        return grp
    raise CliError(f"unsupported coefficient group: {text!r}")


def _query(parsed):
    result = evaluate(parsed)
    return 0, result["text"], result["json"]


def _cmd_eval(args):
    return _query(parse(args.expr))


def _cmd_table(args):
    text, jobj = emit_table(args.kind, args.n, args.m, args.p, args.q)
    return 0, text, jobj


def _cmd_decompose(args):
    return _query(("query", "decompose", (parse_cdexpr(args.expr),)))


def _cmd_sigma(args):
    return _query(("query", "sigma", (parse_group(args.group),)))


def _cmd_verify(args):
    ok, text, jobj = verify(args.target, p=args.p, q=args.q, n=args.n,
                            stages=args.stages,
                            coeff=_parse_coeff(args.coeff))
    return (0 if ok else 1), text, jobj


# The one-type laws check every type of the model: a standard type costs
# them ~20 ms together (2000 types: ~40 s on top of the ~30 s the sampled
# laws take), an extended one under 0.2 ms.  The standard model is always
# built, the extended one only when a selected law needs it.
_MAX_LAW_TYPES = {False: 2000, True: 10 ** 5}


def _cmd_check_laws(args):
    primes = _parse_prime_csv(args.primes)
    if not (isinstance(args.max, int) and args.max >= 1):
        raise CliError(f"--max needs a positive bound: {args.max!r}")
    universe = Universe(primes, args.max)
    models = [universe]
    if any(law.domain == "extended" for law in select_laws(args.laws)):
        models.append(Universe(primes, args.max, True))
    for model in models:
        count, limit = model.type_count(), _MAX_LAW_TYPES[model.allow_extended]
        if count > limit:
            raise CliError(f"the model {model.render()} holds {count} "
                           f"types; the limit is {limit}")
    reports = check_laws(universe, laws=args.laws)
    ok = all(r.ok for r in reports)
    text = render_reports(reports) + ("suite: pass" if ok else "suite: FAIL")
    jobj = {"universe": {"primes": primes, "bound": args.max}, "ok": ok,
            "reports": [r.to_json() for r in reports]}
    return (0 if ok else 1), text, jobj


def _build_argparser():
    ap = argparse.ArgumentParser(
        prog="bockstein",
        description="Exact cohomological-dimension calculus with finite "
                    "homology verifiers.")
    sub = ap.add_subparsers(dest="command", required=True)

    def with_json(sp):
        sp.add_argument("--json", action="store_true",
                        help="emit JSON instead of text")
        return sp

    sp = with_json(sub.add_parser("eval", help="evaluate a query"))
    sp.add_argument("expr")
    sp.set_defaults(fn=_cmd_eval)

    sp = with_json(sub.add_parser("table", help="emit a golden table"))
    sp.add_argument("kind", choices=("fundamental", "products"))
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--m", type=int)
    sp.add_argument("--p", type=int, default=2)
    sp.add_argument("--q", type=int, default=3)
    sp.set_defaults(fn=_cmd_table)

    sp = with_json(sub.add_parser("decompose",
                                  help="wedge decomposition of a cd-type"))
    sp.add_argument("expr")
    sp.set_defaults(fn=_cmd_decompose)

    sp = with_json(sub.add_parser("sigma",
                                  help="Bockstein family of a group"))
    sp.add_argument("group")
    sp.set_defaults(fn=_cmd_sigma)

    sp = with_json(sub.add_parser("verify",
                                  help="run a homology verification"))
    sp.add_argument("target",
                    choices=("mp-pair", "pontryagin", "ew", "join"))
    sp.add_argument("--p", type=int, default=2)
    sp.add_argument("--q", type=int, default=3)
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--stages", type=int, default=1)
    sp.add_argument("--coeff", default="Q")
    sp.set_defaults(fn=_cmd_verify)

    sp = with_json(sub.add_parser("check-laws",
                                  help="run the algebra-law suite"))
    sp.add_argument("--primes", default="2,3")
    sp.add_argument("--max", type=int, default=3)
    sp.add_argument("--laws", default="all")
    sp.set_defaults(fn=_cmd_check_laws)
    return ap


def main(argv=None):
    args = _build_argparser().parse_args(argv)
    try:
        code, text, jobj = args.fn(args)
    except (CliError, ValueError, UndefinedArithmetic) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(jobj, sort_keys=True) if args.json else text)
    return code


if __name__ == "__main__":
    sys.exit(main())
