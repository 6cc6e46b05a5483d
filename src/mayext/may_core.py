"""Trigraded F_p algebra underlying the first May term at an odd prime.

For p odd and q = 2(p-1) the algebra is

    E(h[i,j] : i > 0, j >= 0)  (x)  P(b[i,j] : i > 0, j >= 0)  (x)  P(a[i] : i >= 0)

with tridegrees (filtration s, internal degree t, weight u)

    h[i,j]: (1, 2(p^i - 1)p^j,     2i - 1)
    b[i,j]: (2, 2(p^i - 1)p^(j+1), p(2i - 1))
    a[i]:   (1, 2p^i - 1,          2i + 1)

Monomials keep their factors in a fixed canonical order: a's by index,
then h's lexicographically, then b's lexicographically.  Commutation
signs use stem parity ((t - s) mod 2): the h's are odd, the a's and b's
even; multiply_factors applies that rule to every product of factor
tuples, and may_diff builds d1 on generators with it.  Filtration parity
would make the a's odd as well, and that convention is not compatible
with the degree-(1,0,-1) differential squaring to zero, so it is not
used anywhere.

A PrimeContext is a plain value, p and q.  Every per-generator table
lives in a column: basis enumeration works a column (one internal degree
t) at a time, and a Column enumerates each of its cells, a dict of
weight blocks, when it is first read, and keeps its cells, its generator
list with their degrees and its Coding, with the Coding's d1 term
tables, for later cells.  The state of a read's search ends with the
read.  A session.Session holds one Column per t, the one way to a basis.
Its search finds factor tuples, and the Coding, the one home of the code
layout, codes each finished block: it ranks the generators below t
canonically and packs one exponent digit per rank, so an h's one-bit
digit makes the h part of a code its h bitmask.  may_diff forms d1 on
these codes, where the sign rule is a popcount parity.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import accumulate
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple


class MayextError(Exception):
    """Base for all package errors."""


class InvalidParams(MayextError):
    """A parameter is outside the domain an operation supports."""


class WorkBudgetExceeded(InvalidParams):
    """An input would need more work than a fixed budget allows."""


class ParseError(MayextError):
    """Input text does not conform to the expected grammar."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


# The power and literal budget (power, read_literal).  The largest '^' in
# the README, the claim corpus and the benchmark inputs is p^12, 34 bits at
# p = 7, and the largest value 48 bits.
MAX_POWER_BITS = 1024
_MAX_LITERAL_DIGITS = len(str(1 << MAX_POWER_BITS))


def power(base: int, exp: int) -> int:
    """base^exp, exp >= 0, the one guard of powers by a user's exponent: it
    raises WorkBudgetExceeded, before computing, when (bits(|base|) - 1) exp
    >= MAX_POWER_BITS, so that the power would have more than that many bits."""
    if (abs(base).bit_length() - 1) * exp >= MAX_POWER_BITS:
        raise WorkBudgetExceeded(
            f"{base}^{exp} has more than {MAX_POWER_BITS} bits, the budget for '^'"
        )
    return base**exp


def read_literal(text: str) -> int:
    """The integer an optional '-' and ASCII digits spell, refused with
    WorkBudgetExceeded when it has more digits than 2^MAX_POWER_BITS."""
    digits = len(text) - text.startswith("-")
    if digits > _MAX_LITERAL_DIGITS:
        raise WorkBudgetExceeded(
            f"a literal of {digits} digits has more than {MAX_POWER_BITS} bits, "
            "the budget for a value"
        )
    return int(text)


# Miller-Rabin on these bases is exact below 3.18e23 (Sorenson, Webster 2015)
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MAX_PRIME = 1 << 64


def _is_prime(n: int) -> bool:
    if n < 2 or n in _WITNESSES:
        return n in _WITNESSES
    r = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^r with d odd
    for w in _WITNESSES:
        x = pow(w, (n - 1) >> r, n)
        if x != 1 and n - 1 not in (pow(x, 1 << i, n) for i in range(r)):
            return False
    return True


@dataclass(frozen=True)
class PrimeContext:
    """An odd prime p together with q = 2(p - 1)."""

    p: int
    q: int = field(init=False)

    def __post_init__(self):
        if isinstance(self.p, int) and self.p >= MAX_PRIME:
            raise WorkBudgetExceeded(f"p must be below 2^64, the budget, got {self.p}")
        if not isinstance(self.p, int) or self.p < 3 or not _is_prime(self.p):
            raise InvalidParams(f"p must be an odd prime, got {self.p!r}")
        object.__setattr__(self, "q", 2 * (self.p - 1))


class TriDegree(NamedTuple):
    s: int
    t: int
    u: int


KIND_A, KIND_H, KIND_B = 0, 1, 2
_KIND_LETTER = {KIND_A: "a", KIND_H: "h", KIND_B: "b"}


class Generator(tuple):
    """A single algebra generator, the tuple (kind, i, j).

    Tuple order is the canonical factor order, and hashing, equality and
    ordering run as the built-in tuple's: generators are the keys of every
    factor tuple, so these are the hottest calls of the algebra.
    """

    __slots__ = ()

    def __new__(cls, kind: int, i: int, j: int = 0):
        if kind not in (KIND_A, KIND_H, KIND_B):
            raise InvalidParams(f"unknown generator kind {kind!r}")
        if kind == KIND_A:
            if i < 0 or j != 0:
                raise InvalidParams(f"a[i] needs i >= 0, got i={i}, j={j}")
        else:
            if i < 1 or j < 0:
                raise InvalidParams(
                    f"{_KIND_LETTER[kind]}[i,j] needs i >= 1, j >= 0, "
                    f"got i={i}, j={j}"
                )
        return tuple.__new__(cls, (kind, i, j))

    kind = property(itemgetter(0))
    i = property(itemgetter(1))
    j = property(itemgetter(2))

    def __getnewargs__(self):
        # pickle and copy rebuild through __new__, which takes the fields
        return tuple(self)

    def __repr__(self):
        return f"Generator(kind={self[0]!r}, i={self[1]!r}, j={self[2]!r})"

    @property
    def is_odd(self) -> bool:
        return self.kind == KIND_H

    def tridegree(self, ctx: PrimeContext) -> TriDegree:
        return TriDegree(*_degree(self, ctx.p))

    def text(self) -> str:
        if self.kind == KIND_A:
            return f"a{self.i}"
        return f"{_KIND_LETTER[self.kind]}[{self.i},{self.j}]"


def _degree(g: tuple, p: int) -> tuple[int, int, int]:
    """(s, t, u) of the generator (kind, i, j): the one home of the
    degree formulas."""
    kind, i, j = g
    if kind == KIND_A:
        return 1, 2 * p**i - 1, 2 * i + 1
    if kind == KIND_H:
        return 1, 2 * (p**i - 1) * p**j, 2 * i - 1
    return 2, 2 * (p**i - 1) * p ** (j + 1), p * (2 * i - 1)


def a(i: int) -> Generator:
    return Generator(KIND_A, i)


def h(i: int, j: int) -> Generator:
    return Generator(KIND_H, i, j)


def b(i: int, j: int) -> Generator:
    return Generator(KIND_B, i, j)


Factors = tuple  # tuple[tuple[Generator, int], ...] in canonical order


@dataclass(frozen=True)
class Monomial:
    """A scalar multiple of a product of generator powers in canonical order."""

    factors: Factors
    coeff: int = 1

    @staticmethod
    def build(pairs: list[tuple[Generator, int]], coeff: int = 1) -> "Monomial":
        """coeff times the product of the written factors, with its graded
        sign from multiply_factors; an exterior square is refused."""
        merged: dict[Generator, int] = {}
        for g, e in pairs:
            if e < 0:
                raise InvalidParams(f"negative exponent on {g.text()}")
            merged[g] = merged.get(g, 0) + e
        for g, e in merged.items():
            if g.is_odd and e > 1:
                raise InvalidParams(f"{g.text()} is exterior; exponent {e} is not allowed")
        factors, sign = multiply_factors(*(((g, e),) for g, e in pairs if e))
        return Monomial(factors, coeff * sign)

    @staticmethod
    def one(coeff: int = 1) -> "Monomial":
        return Monomial((), coeff)

    def tridegree(self, ctx: PrimeContext) -> TriDegree:
        s = t = u = 0
        for g, e in self.factors:
            ds, dt, du = _degree(g, ctx.p)
            s += ds * e
            t += dt * e
            u += du * e
        return TriDegree(s, t, u)

    @property
    def parity(self) -> int:
        return sum(g.is_odd for g, _ in self.factors) & 1

    def scaled(self, c: int) -> "Monomial":
        return Monomial(self.factors, self.coeff * c)

    def text(self) -> str:
        parts = []
        if self.coeff != 1 or not self.factors:
            parts.append(str(self.coeff))
        for g, e in self.factors:
            parts.append(g.text() if e == 1 else f"{g.text()}^{e}")
        return " ".join(parts)


class Element:
    """A finite F_p linear combination of canonical monomials."""

    __slots__ = ("p", "_terms")

    def __init__(self, p: int, terms: dict[Factors, int] | None = None):
        self.p = p
        self._terms: dict[Factors, int] = {}
        if terms:
            for key, c in terms.items():
                c %= p
                if c:
                    self._terms[key] = c

    @staticmethod
    def zero(ctx: PrimeContext) -> "Element":
        return Element(ctx.p)

    @staticmethod
    def from_monomials(ctx: PrimeContext, monomials: Iterable[Monomial]) -> "Element":
        out = Element(ctx.p)
        for m in monomials:
            out._add_term(m.factors, m.coeff)
        return out

    def _add_term(self, key: Factors, coeff: int) -> None:
        c = (self._terms.get(key, 0) + coeff) % self.p
        if c:
            self._terms[key] = c
        else:
            self._terms.pop(key, None)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def monomials(self) -> Iterator[Monomial]:
        for key in sorted(self._terms):
            yield Monomial(key, self._terms[key])

    def __add__(self, other: "Element") -> "Element":
        if self.p != other.p:
            raise InvalidParams("cannot add elements over different primes")
        out = Element(self.p, dict(self._terms))
        for key, c in other._terms.items():
            out._add_term(key, c)
        return out

    def scaled(self, c: int) -> "Element":
        return Element(self.p, {key: v * c for key, v in self._terms.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Element)
            and self.p == other.p
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.p, tuple(sorted(self._terms.items()))))

    def tridegree(self, ctx: PrimeContext) -> TriDegree | None:
        degrees = {Monomial(key).tridegree(ctx) for key in self._terms}
        if len(degrees) != 1:
            return None
        return degrees.pop()

    def text(self) -> str:
        if self.is_zero:
            return "0"
        return " + ".join(m.text() for m in self.monomials())

    def __repr__(self):
        return f"Element({self.text()})"


MulOperand = Generator | Monomial | Element


def _as_element(x: MulOperand, ctx: PrimeContext) -> Element:
    if isinstance(x, Element):
        if x.p != ctx.p:
            raise InvalidParams("element prime does not match context")
        return x
    if isinstance(x, Generator):
        x = Monomial.build([(x, 1)])
    if isinstance(x, Monomial):
        return Element.from_monomials(ctx, [x])
    raise InvalidParams(f"cannot interpret {x!r} as an algebra element")


def tridegree(x: MulOperand, ctx: PrimeContext) -> TriDegree:
    """Tridegree of a generator, monomial, or homogeneous element."""
    if not isinstance(x, (Generator, Monomial, Element)):
        raise InvalidParams(f"cannot take the tridegree of {x!r}")
    d = x.tridegree(ctx)
    if d is None:
        raise InvalidParams("element is not homogeneous")
    return d


_first = itemgetter(0)


def multiply_factors(*parts: Factors) -> tuple[Factors, int] | None:
    """Product of factor tuples: the canonical factors and the sign, or
    None when an exterior generator repeats.

    The sign is (-1) to the number of transpositions of odd factors that
    sorting the concatenated parts takes, the graded-commutativity rule.
    """
    merged: dict[Generator, int] = {}
    odd_seen: list[Generator] = []
    inversions = 0
    for part in parts:
        for g, e in part:
            if g.kind == KIND_H:
                if g in merged:
                    return None
                for g0 in odd_seen:
                    if g0 > g:
                        inversions += 1
                odd_seen.append(g)
                merged[g] = e
            else:
                merged[g] = merged.get(g, 0) + e
    return tuple(sorted(merged.items(), key=_first)), -1 if inversions & 1 else 1


def multiply(x: MulOperand, y: MulOperand, ctx: PrimeContext) -> Element:
    """Product in the algebra; the sign counts transpositions of odd factors."""
    ex = _as_element(x, ctx)
    ey = _as_element(y, ctx)
    out = Element(ctx.p)
    for k1, c1 in ex._terms.items():
        for k2, c2 in ey._terms.items():
            prod = multiply_factors(k1, k2)
            if prod is not None:
                out._add_term(prod[0], c1 * c2 * prod[1])
    return out


def product(factors: Iterable[MulOperand], ctx: PrimeContext) -> Element:
    out = _as_element(Monomial.one(), ctx)
    for f in factors:
        out = multiply(out, f, ctx)
    return out


def generators_bounded(
    ctx: PrimeContext, t_max: int
) -> list[tuple[Generator, tuple[int, int, int]]]:
    """All generators of internal degree <= t_max, in canonical order,
    each with its (s, t, u).

    The degrees are _degree's formulas on running powers of p.  Internal
    degree grows with i and with j, so a kind ends at the first i whose
    j = 0 generator is past t_max, and each i at its first j past it.
    Every (kind, i, j) built here is valid, so the list skips Generator's
    argument checks."""
    p, new = ctx.p, tuple.__new__
    out: list[tuple[Generator, tuple[int, int, int]]] = []
    i, p_i = 0, 1
    while 2 * p_i - 1 <= t_max:
        out.append((new(Generator, (KIND_A, i, 0)), (1, 2 * p_i - 1, 2 * i + 1)))
        i, p_i = i + 1, p_i * p
    # h[i,j] has internal degree 2 (p^i - 1) p^j, b[i,j] p times that
    for kind, s, scale in ((KIND_H, 1, 1), (KIND_B, 2, p)):
        i, p_i = 1, p
        while (dt := 2 * scale * (p_i - 1)) <= t_max:
            j, u = 0, scale * (2 * i - 1)
            while dt <= t_max:
                out.append((new(Generator, (kind, i, j)), (s, dt, u)))
                j, dt = j + 1, dt * p
            i, p_i = i + 1, p_i * p
    return out


class Coding:
    """Packed exponent codes of the monomials over an alphabet of generators.

    The alphabet is ranked in canonical order, and each generator owns a
    digit of width[g] bits at offset[g], above the digits of the lower
    ranks.  A monomial's code is the sum of e << offset[g] over its
    factors g^e.  An exterior h's digit is one bit wide, so the h digits
    of a code (hmask) are the monomial's h bitmask, in canonical order.
    While no digit overflows, the code of a product is the sum of the
    codes: multiplying by a monomial is an addition.

    The coding of a column (Column.coding) is a function of the context
    and the internal degree alone, so two columns of one t code their
    cells alike.  d1_terms holds the d1 term table of each generator a
    d1 image on these codes reached, which may_diff builds on first use:
    the one per-generator d1 cache.
    """

    __slots__ = ("gens", "offset", "width", "hmask", "d1_terms")

    def __init__(self, widths: dict[Generator, int]):
        self.gens = sorted(widths)
        self.width = widths
        self.offset: dict[Generator, int] = {}
        self.hmask = bit = 0
        for g in self.gens:
            self.offset[g] = bit
            if g[0] == KIND_H:
                self.hmask |= 1 << bit
            bit += widths[g]
        self.d1_terms: dict[Generator, list] = {}

    def encode(self, factors: Factors) -> int:
        offset = self.offset
        code = 0
        for g, e in factors:
            code += e << offset[g]
        return code

    def decode(self, code: int) -> Factors:
        offset, width = self.offset, self.width
        return tuple(
            (g, e) for g in self.gens if (e := code >> offset[g] & (1 << width[g]) - 1)
        )


class Block:
    """The monomials of one weight of a cell: canonical factor tuples,
    sorted, and their codes in the column's coding."""

    __slots__ = ("keys", "codes")

    def __init__(self, keys: list[Factors], codes: list[int]):
        self.keys = keys
        self.codes = codes


# Memory bounds of a column: the largest reachability table, in bits (4
# MiB), and the most entries the wide search memoises at a time (a few
# MiB; a cell of the corpus needs at most 12k).  Past the second the memo
# is cleared: a cell too hard for it then costs time, not memory.
_REACH_TABLE_BITS = 1 << 25
_REACH_MEMO_ENTRIES = 1 << 15
# Search steps the enumeration of one cell may take: the corpus needs 46k,
# p = 3 (40,400) 0.9M, p = 5 (5,5^14) 2.6M, and a step took 0.2-3 us on a Xeon.
MAX_ENUMERATION_STEPS = 3 * 10**6


class Column:
    """The canonical basis monomials of the cells (s, t) of one internal
    degree t, grouped by weight and coded, each cell enumerated once, when
    it is first read.

    A cell is its blocks, {u: Block} with the weights ascending; an empty
    cell is {}.  An a adds 1 to s and to t mod q, an h or a b adds 0 to t
    mod q, so a cell with t mod q > s is empty, and is read without a
    search.  A column builds its generator list and their degrees once,
    for its first search, and its coding when the first cell with blocks
    needs codes, so a column whose cells are all empty builds none.  It
    keeps its cells, its generator list and its coding; the state of a
    read's search (below) ends with the read.

    Exponent multisets are found by depth-first search over the bounded
    generator list.  The search is output-sensitive: it enters a branch
    (generator k with exponent e) only when the generators after k can
    still make up the remaining filtration and internal degree exactly, so
    every branch it enters ends in a monomial.  It carries the weight of
    the factors taken so far, so monomials are grouped by weight as they
    are found, and coded a block at a time once the cell is complete.  The
    reachability test of a cell is one of two, chosen by the size of the
    table it needs:

    * Narrow t, where (t + 1)(s + 1) len(gens) <= _REACH_TABLE_BITS:
      levels[r][k] is a Python-int bitset of the internal degrees up to t
      that gens[k:] reach with filtration exactly r.  Level r is built
      from levels r - 1 and r - 2, so a higher cell of one read extends
      the levels a lower one built; they end with the read.  The search
      reads them inline, and closes the last filtration unit by a lookup
      of the unit generator of the degree left, counting the steps the
      search would have taken there.
    * Wide t (up to p^12 q, about 1.4e10 at p = 7, where a table t bits
      wide cannot be built): a search memoised on (k, s_rem, t_rem),
      pruned by the least and the largest internal degree per filtration
      unit of gens[k:] and by the number of a's left mod q.  It closes the
      last one or two filtration units by a dict lookup on internal degree
      (one a or h; one b, a square of an a, or a pair of distinct degree-1
      generators) instead of looping over the generators.  Neither key
      depends on s, so a later cell of one read starts from the memo and
      the closings the earlier ones left.  They end with the read, and
      hold at most _REACH_MEMO_ENTRIES entries.

    The cutoff exists because the table grows with t; below it the table
    is several times faster than the memoised search, so it is a memory
    bound, not a tuning option.  Both searches fill the same factor
    tuples.  They recurse only into a generator they take, never past one
    they skip, so their depth is at most s.  Each cell counts its own
    steps and raises WorkBudgetExceeded, naming (s, t), once it has taken
    more than MAX_ENUMERATION_STEPS of them.  Codes rank the generators
    canonically, whatever the order of the list the search walks.
    """

    __slots__ = ("ctx", "t", "gens", "degrees", "cells", "_coding")

    def __init__(self, ctx: PrimeContext, t: int):
        self.ctx, self.t = ctx, t
        self.gens: list[Generator] | None = None
        self.degrees: list[tuple[int, int, int]] = []  # (s_g, t_g, u_g)
        self.cells: dict[int, dict[int, Block]] = {}
        self._coding: Coding | None = None

    @property
    def coding(self) -> Coding:
        """The column's coding: g^e has internal degree e t_g <= t, so a
        digit of the bit length of t // t_g holds every exponent g takes
        in the column; an h's, one bit."""
        if self._coding is None:
            t = self.t
            self._coding = Coding({
                g: 1 if g[0] == KIND_H else (t // dt).bit_length()
                for g, (_, dt, _) in zip(self.generators(), self.degrees)
            })
        return self._coding

    def generators(self) -> list[Generator]:
        """The generator list, built on first use with its degrees."""
        if self.gens is None:
            pairs = generators_bounded(self.ctx, self.t)
            self.gens = [g for g, _ in pairs]
            self.degrees = [d for _, d in pairs]
        return self.gens

    def read(self, ss: Iterable[int]) -> Iterator[dict[int, Block]]:
        """The blocks of the cell (s, t) of each s in ss, in order, as the
        caller asks for them: a caller that stops early enumerates no later
        cell.  The cells one read enumerates share one search."""
        cells, t, q = self.cells, self.t, self.ctx.q
        find = close = None
        try:
            for s in ss:
                cell = cells.get(s)
                if cell is None:
                    if 0 < s <= t and t % q <= s:
                        if find is None:
                            find, close = _search(self)
                        cell = find(s)
                    elif s == t == 0:
                        cell = {0: Block([()], [0])}
                    else:
                        cell = {}  # no monomial
                    cells[s] = cell
                yield cell
        finally:
            if close is not None:
                close()


def _search(column: Column):
    """(find, close): find(s) enumerates the cell (s, t) of column, for
    0 < s <= t, and the cells it finds share the reachability levels and
    the wide search's memo and closings, which the search owns; close()
    frees them."""
    gens = column.generators()
    t, degrees = column.t, column.degrees
    n = len(gens)
    # by_s[r][k]: the reachability level r of gens[k:] (see Column)
    by_s: list[list[int]] = []
    # exterior h's are taken at most once, the others at most t times
    e_top = [1 if g[0] == KIND_H else t for g in gens]
    # unit[t_g] / double[t_g]: index of the generator of filtration 1 / 2
    # with internal degree t_g (unique within each filtration)
    unit: dict[int, int] = {}
    double: dict[int, int] = {}
    for k, (ds, dt, _) in enumerate(degrees):
        (unit if ds == 1 else double)[dt] = k
    closed: dict[tuple[int, int], list[tuple[int, Factors, int]]] = {}
    memo: dict[tuple[int, int, int], bool] = {}
    stack: list[tuple[Generator, int]] = []
    # one (g, 1) per generator, shared by every key that takes g once
    ones = [(g, 1) for g in gens]
    found: dict[int, list[Factors]] = {}
    min_rate = max_rate = a_left = None  # the wide search's bounds, on its first cell
    cell = steps = 0
    q = column.ctx.q

    def spend(n: int) -> None:
        nonlocal steps
        steps += n
        if steps > MAX_ENUMERATION_STEPS:
            raise WorkBudgetExceeded(
                f"basis of ({cell},{t}) needs more than {MAX_ENUMERATION_STEPS} "
                "search steps, the budget for enumeration"
            )

    def reach(s: int) -> None:
        """Extend the reachability levels up to filtration s."""
        if not by_s:
            by_s.append([1] * (n + 1))
        mask = (1 << (t + 1)) - 1
        for r in range(len(by_s), s + 1):
            row = [0] * (n + 1)
            acc = 0
            for k in range(n - 1, -1, -1):
                ds, dt, _ = degrees[k]
                if ds <= r:
                    # knapsack step: an exterior h is taken at most once, an
                    # a or b any number of times (level r - ds of gens[k:])
                    src = by_s[r - ds][k + (gens[k][0] == KIND_H)]
                    acc = (acc | src << dt) & mask
                row[k] = acc
            by_s.append(row)

    def closings(s_rem: int, t_rem: int) -> list[tuple[int, Factors, int]]:
        """(first index, factors, weight) of each way to make up the last
        s_rem <= 2 filtration units and t_rem internal degrees, by degree
        lookup."""
        key = (s_rem, t_rem)
        ways = closed.get(key)
        if ways is None:
            ways = []
            if s_rem == 0:
                if t_rem == 0:
                    ways.append((n, (), 0))
            elif s_rem == 1:
                k = unit.get(t_rem)
                if k is not None:
                    ways.append((k, (ones[k],), degrees[k][2]))
            else:
                k = double.get(t_rem)
                if k is not None:
                    ways.append((k, (ones[k],), degrees[k][2]))
                spend(len(unit))
                for dt, k in unit.items():
                    k2 = unit.get(t_rem - dt)
                    if k2 is None or dt > t_rem - dt:
                        continue
                    if k2 == k:
                        if gens[k][0] != KIND_H:
                            ways.append((k, ((gens[k], 2),), 2 * degrees[k][2]))
                    else:
                        lo, hi = min(k, k2), max(k, k2)
                        u = degrees[lo][2] + degrees[hi][2]
                        ways.append((lo, (ones[lo], ones[hi]), u))
            closed[key] = ways
        return ways

    def fill_table(k: int, s_rem: int, t_rem: int, u: int) -> None:
        # s_rem > 0, (k, s_rem, t_rem) is reachable (by_s[s_rem][k] has
        # bit t_rem), and the factors on the stack have weight u.  Skip
        # gens[k], gens[k+1], ... while that stays reachable, then take
        # each skipped generator e >= 1 times, last first: the order of
        # a recursion on e = 0, without a frame per skip
        col = by_s[s_rem]
        top = k
        while col[top + 1] >> t_rem & 1:
            top += 1
        spend(top - k + 1)
        for j in range(top, k - 1, -1):
            ds, dt, du = degrees[j]
            e, s2, t2 = 1, s_rem - ds, t_rem - dt
            while s2 >= 0 and t2 >= 0 and e <= e_top[j]:
                if by_s[s2][j + 1] >> t2 & 1:
                    stack.append(ones[j] if e == 1 else (gens[j], e))
                    if s2 > 1:
                        fill_table(j + 1, s2, t2, u + e * du)
                    else:
                        # close here.  With no unit left (so t2 = 0 too)
                        # that is one step.  One unit left only gens[j2],
                        # the unit generator of degree t2, makes up: the
                        # call on (j + 1, 1, t2) would skip to it in
                        # j2 - j steps and then close
                        key, w = tuple(stack), u + e * du
                        if s2:
                            j2 = unit[t2]
                            key += (ones[j2],)
                            w += degrees[j2][2]
                        spend(j2 - j + 1 if s2 else 1)
                        found.setdefault(w, []).append(key)
                    stack.pop()
                e, s2, t2 = e + 1, s2 - ds, t2 - dt

    def reach_memo(k: int, s_rem: int, t_rem: int) -> bool:
        if s_rem <= 2:
            return any(way[0] >= k for way in closings(s_rem, t_rem))
        # (k, s_rem, t_rem) is reachable when gens[k] taken e >= 0 times
        # leaves a reachable (k + 1, ...).  Skip generators (e = 0) down
        # to a memo entry or a pruned one, then try e >= 1 on the way
        # back up, in the order of a recursion on e = 0 but without a
        # stack frame per skipped generator (wide t has over a thousand).
        # An a has t = 1 mod q and an h or b t = 0 mod q, so the
        # c <= s_rem a-units still to come satisfy c = t_rem mod q.
        k0 = k
        hit = memo.get((k, s_rem, t_rem))
        while hit is None and (
            k < n
            and s_rem * min_rate[k] <= 2 * t_rem <= s_rem * max_rate[k]
            and t_rem % q <= (s_rem if a_left[k] else 0)
        ):
            k += 1
            hit = memo.get((k, s_rem, t_rem))
        spend(k - k0 + 1)
        # gens[k0:k] were skipped; a pruned k (hit None) is recorded too
        top = k if hit is None else k - 1
        hit = bool(hit)
        for j in range(top, k0 - 1, -1):
            if not hit and j < k:
                ds, dt, _ = degrees[j]
                for e in range(1, min(e_top[j], s_rem // ds, t_rem // dt) + 1):
                    if reach_memo(j + 1, s_rem - e * ds, t_rem - e * dt):
                        hit = True
                        break
            if len(memo) >= _REACH_MEMO_ENTRIES:
                memo.clear()
                closed.clear()
            memo[(j, s_rem, t_rem)] = hit
        return hit

    def fill_memo(k: int, s_rem: int, t_rem: int, u: int) -> None:
        # (k, s_rem, t_rem) is reachable, and the factors on the stack
        # have weight u
        if s_rem <= 2:
            spend(1)
            prefix = tuple(stack)
            for first, tail, tail_u in closings(s_rem, t_rem):
                if first >= k:
                    found.setdefault(u + tail_u, []).append(prefix + tail)
            return
        # the skip-then-take order of fill_table
        top = k
        while reach_memo(top + 1, s_rem, t_rem):
            top += 1
        spend(top - k + 1)
        for j in range(top, k - 1, -1):
            g, (ds, dt, du) = gens[j], degrees[j]
            for e in range(1, min(e_top[j], s_rem // ds, t_rem // dt) + 1):
                if reach_memo(j + 1, s_rem - e * ds, t_rem - e * dt):
                    stack.append(ones[j] if e == 1 else (g, e))
                    fill_memo(j + 1, s_rem - e * ds, t_rem - e * dt, u + e * du)
                    stack.pop()

    def find(s: int) -> dict[int, Block]:
        nonlocal cell, steps, found, min_rate, max_rate, a_left
        cell, steps, found = s, 0, {}
        if (t + 1) * (s + 1) * n <= _REACH_TABLE_BITS:
            reach(s)
            if by_s[s][0] >> t & 1:
                fill_table(0, s, t, 0)
        else:
            if min_rate is None:
                # min_rate[k] / max_rate[k]: min / max over gens[k:] of
                # 2 t_g / s_g, exact since s_g is 1 or 2; a_left[k]: whether
                # gens[k:] holds an a
                rates = [2 * dt // ds for ds, dt, _ in degrees][::-1]
                min_rate = list(accumulate(rates, min))[::-1]
                max_rate = list(accumulate(rates, max))[::-1]
                a_left = list(accumulate([g[0] == KIND_A for g in reversed(gens)], max))[::-1]
            if reach_memo(0, s, t):
                fill_memo(0, s, t, 0)
        if not found:
            return {}
        coding = column.coding
        # the factor tuples come out in the order of gens: canonical unless
        # a caller reordered the list
        canonical = gens == coding.gens
        blocks = {}
        for u, keys in sorted(found.items()):
            if not canonical:
                keys = [tuple(sorted(key)) for key in keys]
            keys.sort()
            blocks[u] = Block(keys, list(map(coding.encode, keys)))
        return blocks

    def close() -> None:
        # the recursive searches reach themselves through their closure
        # cells; breaking those cycles frees the search with its read
        nonlocal fill_table, reach_memo, fill_memo
        fill_table = reach_memo = fill_memo = None

    return find, close


_TOKEN = re.compile(
    r"\s*(?:(?P<int>-?[0-9]+)"
    r"|(?P<a>a(?P<ai>[0-9]+))"
    r"|(?P<hb>[hb])\[(?P<i>[0-9]+),(?P<j>[0-9]+)\])"
    r"(?:\^(?P<exp>[0-9]+))?\s*"
)


def parse_monomial(text: str, ctx: PrimeContext) -> Monomial:
    """Parse the text form, e.g. ``2 a0^2 h[1,0] b[1,3]``.  Numbers are
    ASCII digits (read_literal), and a generator is refused when p^(i+j+1)
    is past the power budget: its degree and its d1 could not be formed.
    The unit is "1"; empty text is no monomial."""
    if not text.strip():
        raise ParseError("empty monomial")
    pos = 0
    coeff = 1
    pairs: list[tuple[Generator, int]] = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            raise ParseError(f"bad monomial syntax near {text[pos:pos+12]!r}", column=pos)
        if m.group("int") is not None:
            if pos:
                raise ParseError("coefficient must come first", column=pos)
            if m.group("exp") is not None:
                raise ParseError("coefficient cannot carry an exponent", column=pos)
            coeff = read_literal(m.group("int"))
        else:
            exp = read_literal(m.group("exp")) if m.group("exp") else 1
            if m.group("a"):
                gen = a(read_literal(m.group("ai")))
            else:
                kind = KIND_H if m.group("hb") == "h" else KIND_B
                i, j = read_literal(m.group("i")), read_literal(m.group("j"))
                try:
                    gen = Generator(kind, i, j)
                except InvalidParams as exc:
                    raise ParseError(str(exc), column=pos) from exc
            power(ctx.p, gen.i + gen.j + 1)
            pairs.append((gen, exp))
        pos = m.end()
    try:
        mono = Monomial.build(pairs, coeff % ctx.p)
    except InvalidParams as exc:
        raise ParseError(str(exc)) from exc
    if mono.coeff == 0:
        raise ParseError("coefficient is zero mod p")
    return Monomial(mono.factors, mono.coeff % ctx.p)


def parse_element(text: str, ctx: PrimeContext) -> Element:
    text = text.strip()
    if text == "0":
        return Element.zero(ctx)
    return Element.from_monomials(
        ctx, (parse_monomial(part, ctx) for part in text.split("+"))
    )
