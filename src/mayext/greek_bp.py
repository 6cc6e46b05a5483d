"""Degree-admissibility combinatorics for Greek-letter families.

Indexes are solved against internal-degree equations with exact integer
arithmetic; nothing here touches the trigraded complex except through
the named-class table, which the dictionary lookups and stem_of read.

A power of p by an index field or a parameter is formed by may_core.power,
which refuses one past the power budget before computing it.  That is the
only budget here: enumerate_ext0_KR solves its column once per p-adic
valuation, so its work and output grow with n, not with p^n.

Beta admissibility for beta[a,s,b,c] (the class beta_{ap^s/b,c+1} of
internal degree a p^s (p+1) q - b q) requires b >= 1, c >= 0, a >= 1
prime to p, and

    (i)   a = 1  implies  b <= p^s
    (ii)  p^c | b  and  b <= B(s-c)
    (iii) p^(c+1) | b  implies  b > B(s-c-1)

with B(k) = p^k + p^(k-1) - 1 for k >= 1, B(0) = 1, B(k<0) = 0.  The
strict flag switches (i) to the verbatim bound b <= s, which rejects
part of the standard second-periodicity lists; it exists only so the
discrepancy stays visible.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .adams_certify import NamedClass, UnknownName, _need, resolve_named
from .may_core import (
    InvalidParams,
    MayextError,
    ParseError,
    PrimeContext,
    power,
    read_literal,
)


class NoDictionaryEntry(MayextError):
    """The index matches no pattern in the correspondence table."""


class UnknownFamily(MayextError):
    """stem_of knows no family of that name."""


@dataclass(frozen=True)
class BetaIndex:
    a: int
    s: int
    b: int
    c: int = 0

    def __post_init__(self):
        if self.a < 1 or self.s < 0 or self.b < 1 or self.c < 0:
            raise InvalidParams(f"bad beta index {self!r}")

    def degree(self, ctx: PrimeContext) -> int:
        p, q = ctx.p, ctx.q
        return self.a * power(p, self.s) * (p + 1) * q - self.b * q

    def text(self) -> str:
        return f"beta[{self.a},{self.s},{self.b},{self.c}]"


@dataclass(frozen=True)
class GammaIndex:
    t: int
    b: int
    c: int = 1

    def __post_init__(self):
        if self.t < 1 or self.b < 1 or self.c < 0:
            raise InvalidParams(f"bad gamma index {self!r}")

    def degree(self, ctx: PrimeContext) -> int:
        p, q = ctx.p, ctx.q
        return self.t * (p**2 + p + 1) * q - self.b * (p + 1) * q - self.c * q

    def text(self) -> str:
        return f"gamma[{self.t},{self.b},{self.c}]"


@dataclass(frozen=True)
class AlphaIndex:
    t: int
    n: int

    def __post_init__(self):
        if self.t < 1 or self.n < 0:
            raise InvalidParams(f"bad alpha index {self!r}")

    @property
    def denominator(self) -> int:
        return self.n + 1

    def degree(self, ctx: PrimeContext) -> int:
        return self.t * power(ctx.p, self.n) * ctx.q

    def text(self) -> str:
        return f"alpha[{self.t},{self.n}]"


def _bound(p: int, k: int) -> int:
    if k < 0:
        return 0
    if k == 0:
        return 1
    return p**k + p ** (k - 1) - 1


def beta_admissible(ctx: PrimeContext, idx: BetaIndex, strict: bool = False) -> bool:
    p = ctx.p
    ps, pc = power(p, idx.s), power(p, idx.c)
    return not (
        idx.a % p == 0
        or idx.a == 1 and idx.b > (idx.s if strict else ps)
        or idx.b % pc
        or idx.b > _bound(p, idx.s - idx.c)
        or idx.b % (pc * p) == 0 and idx.b <= _bound(p, idx.s - idx.c - 1)
    )


def enumerate_beta(
    ctx: PrimeContext, t_internal: int, strict: bool = False
) -> list[BetaIndex]:
    """All admissible beta indexes of the given internal degree."""
    p, q = ctx.p, ctx.q
    if t_internal <= 0 or t_internal % q:
        return []
    d = t_internal // q
    out = []
    s = 0
    while True:
        base = p**s * (p + 1)
        bmax = _bound(p, s)
        if base > d + bmax:
            break
        a_lo = -((-(d + 1)) // base)
        a_hi = (d + bmax) // base
        for a in range(a_lo, a_hi + 1):
            if a % p == 0:
                continue
            b = a * base - d
            for c in range(s + 1):
                idx = BetaIndex(a, s, b, c)
                if beta_admissible(ctx, idx, strict=strict):
                    out.append(idx)
        s += 1
    return sorted(out, key=lambda i: (i.s, i.a, i.b, i.c))


def alpha_generators(ctx: PrimeContext, t_internal: int) -> list[AlphaIndex]:
    """The alpha index of the given internal degree (at most one exists)."""
    if t_internal <= 0 or t_internal % ctx.q:
        return []
    m = t_internal // ctx.q
    n = 0
    while m % ctx.p == 0:
        m //= ctx.p
        n += 1
    return [AlphaIndex(m, n)]


@dataclass(frozen=True)
class BPGen:
    """One additive generator of a BP-side Ext group.

    kind "v2": v2^e.  kind "v1c1": v1^v1exp c1~[a,s].  kind "v2h":
    v2^e h_i (e = 0 renders as the bare h_i).  kind "c2": c2[a,s], whose
    degree is only pinned for a = 1.
    """

    kind: str
    e: int = 0
    v1exp: int = 0
    a: int = 0
    s: int = 0
    i: int = 0

    def degree(self, ctx: PrimeContext) -> int | None:
        p, q = ctx.p, ctx.q
        if self.kind == "v2":
            return self.e * (p + 1) * q
        if self.kind == "v1c1":
            return self.v1exp * q + self.a * p**self.s * (p + 1) * q
        if self.kind == "v2h":
            return self.e * (p + 1) * q + p**self.i * q
        if self.kind == "c2":
            if self.a != 1:
                return None
            return self.a * p**self.s * (p**2 + p + 1) * q - p**self.s * (p + 1) * q
        raise InvalidParams(f"unknown generator kind {self.kind!r}")

    def text(self) -> str:
        if self.kind == "v2":
            return f"v2^{self.e}"
        if self.kind == "v1c1":
            return f"v1^{self.v1exp} c1~[{self.a},{self.s}]"
        if self.kind == "v2h":
            return f"h{self.i}" if self.e == 0 else f"v2^{self.e} h{self.i}"
        return f"c2[{self.a},{self.s}]"


def enumerate_ext0_KR(ctx: PrimeContext, n: int, t: int) -> list[BPGen]:
    """Generators of the Ext^0 column in internal degree t p^n (p+1) q.

    Solves v1exp * q + a p^s (p+1) q = t p^n (p+1) q, a prime to p,
    subject to the v1-exponent window for the height-n truncation:
    p^s | v1exp, v1exp <= p^n - 1, and v1exp >= p^n - B(s) - 1 (t = 1)
    respectively v1exp >= p^n - B(s) (t >= 2), B as in the module
    docstring.  The pure power v2^(t p^n) comes first, the others follow
    in ascending v1 exponent.

    Every v1exp is d (p+1) with 1 <= d <= (p^n - 1)/(p+1) < p^n, so s, the
    valuation of t p^n - d, is that of d: s < n, p^s | v1exp, and a =
    (t p^n - d)/p^s > p^2/(p+1) > 1.  So the column is solved once per
    s < n, and each s costs O(1): its window holds fewer than p^(s-1) + 2
    values of d, of which at most two are multiples of p^s.
    """
    p = ctx.p
    if n < 1 or t < 1 or t % p == 0:
        raise InvalidParams(f"need n >= 1 and t >= 1 prime to p, got n={n}, t={t}")
    pn = power(p, n)
    d_top = (pn - 1) // (p + 1)
    found = []
    for s in range(n):
        ps = p**s
        # d = m p^s from the least m whose v1 exponent reaches the window
        m_low = -((_bound(p, s) + (t == 1) - pn) // (ps * (p + 1)))
        for m in range(m_low, d_top // ps + 1):
            if m % p:
                a = t * pn // ps - m
                found.append(BPGen("v1c1", v1exp=m * ps * (p + 1), a=a, s=s))
    return [BPGen("v2", e=t * pn), *sorted(found, key=lambda g: g.v1exp)]


def enumerate_ext1_BPK(ctx: PrimeContext, n: int) -> list[BPGen]:
    """Generators of the first Ext column of the height-2 quotient in
    internal degree p^n q: one torsion class and a v2-power ladder."""
    p, q = ctx.p, ctx.q
    if n < 2:
        raise InvalidParams(f"need n >= 2, got n={n}")
    pn = power(p, n)
    out = []
    for k in range(n // 2 + 1):
        e = (p ** (2 * k) - 1) // (p + 1) * p ** (n - 2 * k)
        gen = BPGen("v2h", e=e, i=n - 2 * k)
        if gen.degree(ctx) != pn * q:
            raise AssertionError(f"{gen.text()} misses degree p^{n}q")
        out.append(gen)
    c2 = BPGen("c2", a=1, s=n - 2)
    if c2.degree(ctx) != pn * q:
        raise AssertionError("torsion generator misses degree p^nq")
    out.append(c2)
    return out


def _p_power_exponent(p: int, value: int) -> int | None:
    if value < 1:
        return None
    k = 0
    while value % p == 0:
        value //= p
        k += 1
    return k if value == 1 else None


def thom_image(ctx: PrimeContext, idx) -> NamedClass:
    """Image of a BP-side index in the named-class table, if the index
    matches a dictionary pattern; degree equality is re-checked."""
    p = ctx.p
    if isinstance(idx, BetaIndex):
        ps = power(p, idx.s)
        if idx.c == 0 and idx.a == 1 and idx.s >= 1:
            if idx.b == ps - 1:
                cls = resolve_named("h0h", {"n": idx.s + 1}, ctx)
                _check_degrees(ctx, idx, cls)
                return cls
            if idx.b == ps:
                cls = resolve_named("b", {"n": idx.s}, ctx)
                _check_degrees(ctx, idx, cls)
                return cls
        raise NoDictionaryEntry(f"{idx.text()} matches no dictionary pattern")
    if isinstance(idx, GammaIndex):
        k = _p_power_exponent(p, idx.t)
        m_exp = _p_power_exponent(p, idx.c + 1)
        if (
            k is not None
            and k >= 1
            and m_exp is not None
            and idx.b == p**k - p**m_exp
        ):
            cls = resolve_named("h0hh", {"n": k + 2, "m": m_exp + 1}, ctx)
            _check_degrees(ctx, idx, cls)
            return cls
        raise NoDictionaryEntry(f"{idx.text()} matches no dictionary pattern")
    raise NoDictionaryEntry(f"no dictionary for {type(idx).__name__} indices")


def _check_degrees(ctx: PrimeContext, idx, cls: NamedClass) -> None:
    if idx.degree(ctx) != cls.t:
        raise AssertionError(
            f"dictionary degree mismatch: {idx.text()} -> {cls.text()}"
        )


def stem_of(ctx: PrimeContext, family: str, params: dict) -> int:
    """Stem t - s of one family member, read from where its degree is
    defined.

    A class that resolve_named knows (h0h, gamma_tilde, g0, ...) has stem
    cls.t - cls.s.  An index family has stem its index degree minus its
    filtration: beta[a,s,b,c], or beta_{tp^n/s} given as t, n, s, minus 2;
    gamma[t,b,c], or gamma_{p^n/s} given as n, s (c = 1), minus 3; and
    alpha[t,n] minus 1.  Parameters outside the class's domain raise
    InvalidParams (ParamsOutOfRange for a named class or a missing key), a
    key the family does not take ParseError; an unknown family raises
    UnknownFamily.
    """
    params = dict(params or {})
    if family == "beta":
        if "a" in params:
            return BetaIndex(*_need(params, "a", "s", "b", "c")).degree(ctx) - 2
        t, n, s = _need(params, "t", "n", "s")
        for name, value, least in (("t", t, 1), ("n", n, 0), ("s", s, 1)):
            if value < least:
                raise InvalidParams(
                    f"beta[t,n,s] needs {name} >= {least}, got {name}={value}"
                )
        return BetaIndex(t, n, s).degree(ctx) - 2
    if family == "gamma":
        if "t" in params:
            return GammaIndex(*_need(params, "t", "b", "c")).degree(ctx) - 3
        n, s = _need(params, "n", "s")
        if n < 0:
            raise InvalidParams(f"gamma[n,s] needs n >= 0, got n={n}")
        return GammaIndex(power(ctx.p, n), s).degree(ctx) - 3
    if family == "alpha":
        return AlphaIndex(*_need(params, "t", "n")).degree(ctx) - 1
    try:
        cls = resolve_named(family, params, ctx)
    except UnknownName as exc:
        raise UnknownFamily(f"no stem formula for {family!r}") from exc
    return cls.t - cls.s


_INDEX_RE = re.compile(r"^(beta|gamma|alpha)\[([0-9,\s]+)\]$")


def parse_index(text: str):
    """Parse beta[a,s,b,c], gamma[t,b,c], or alpha[t,n] text forms."""
    m = _INDEX_RE.match(text.strip())
    if not m:
        raise ParseError(f"bad index syntax: {text!r}")
    name = m.group(1)
    try:
        nums = [read_literal(x.strip()) for x in m.group(2).split(",")]
    except ValueError as exc:
        raise ParseError(f"bad index numbers in {text!r}") from exc
    shapes = {"beta": 4, "gamma": 3, "alpha": 2}
    if len(nums) != shapes[name]:
        raise ParseError(f"{name} index takes {shapes[name]} integers")
    try:
        if name == "beta":
            return BetaIndex(*nums)
        if name == "gamma":
            return GammaIndex(*nums)
        return AlphaIndex(*nums)
    except InvalidParams as exc:
        raise ParseError(str(exc)) from exc
