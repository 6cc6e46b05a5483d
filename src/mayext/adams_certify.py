"""Vanishing and dimension certificates with named-class bookkeeping.

A bidegree is certified zero when its first term is already empty
(E1Empty) or when every weight block dies at the second term (E2Zero).
A surviving dimension is only certified exact when both neighbor
bidegrees (s-1, t) and (s+1, t) vanish at the second term, summed over
all weights; that collapse test deliberately ignores the weight grading
of higher differentials, so it can only under-certify, never overstate.
Everything else is an upper bound.  The lower neighbor is read first,
and the upper one only when the lower one vanishes, so a cell whose
lower neighbor survives costs no record of (s+1, t).

Differential-window reports follow the (r, r-1) bidegree convention: a
class at (s, t) can hit (s+r, t+r-1) and can be hit from (s-r, t-r+1),
the latter being vacuous once r exceeds s.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from .may_core import (
    Element,
    InvalidParams,
    MayextError,
    Monomial,
    ParseError,
    PrimeContext,
    WorkBudgetExceeded,
    power,
    product,
    tridegree,
    a,
    b,
    h,
)
from .may_diff import E2Report, d1, e2_rank
from .session import Session

E1_EMPTY = "E1Empty"
E2_ZERO = "E2Zero"
DIM_CERTIFIED = "DimCertified"
UPPER_BOUND = "UpperBound"

# Where second-term records come from: reports(s, t), such as
# Session.report.  Certificates and les intervals read it.
ReportSource = Callable[[int, int], E2Report]

# adams_dr_window certifies two cells per row, and cells grow with r: at
# p = 7 from (2, 100), 400 rows took 0.35 s, 500 rows 0.67 s and 800 rows
# 2.1 s on a 2-core Xeon host
MAX_WINDOW_ROWS = 500


class UnknownName(MayextError):
    """No class with that name is in the table."""


class ParamsOutOfRange(InvalidParams):
    """The class exists but not for these parameter values."""


class InvalidRange(MayextError):
    """A differential-window range is malformed."""


class MissingRepresentative(MayextError):
    """The class is known by bidegree only; no cocycle is available."""


@dataclass
class Certificate:
    verdict: str
    report: E2Report

    @property
    def certified_zero(self) -> bool:
        return self.verdict in (E1_EMPTY, E2_ZERO)

    @property
    def certified_exact(self) -> bool:
        return self.certified_zero or self.verdict == DIM_CERTIFIED

    @property
    def dim(self) -> int:
        return 0 if self.certified_zero else self.report.e2_total

    def serialize(self) -> dict:
        out = {
            "s": self.report.s,
            "t": self.report.t,
            "verdict": self.verdict,
            "dim": self.dim,
            "e1": self.report.e1_total,
            "e2": self.report.e2_total,
        }
        if self.report.e2_total:
            out["basis"] = [rep.text() for rep in self.report.representatives]
        return out


def _zero_verdict(report: E2Report) -> str | None:
    if report.e1_total == 0:
        return E1_EMPTY
    return E2_ZERO if report.e2_total == 0 else None


def certify_ext_vanishing(reports: ReportSource, s: int, t: int) -> Certificate:
    """Certificate for the cohomology group at (s, t), zero side only."""
    report = reports(s, t)
    return Certificate(_zero_verdict(report) or UPPER_BOUND, report)


def certify_ext_dim(reports: ReportSource, s: int, t: int) -> Certificate:
    """Like certify_ext_vanishing, upgrading to an exact dimension when
    both neighbor bidegrees die at the second term.  Reads (s, t), then
    (s-1, t) when s >= 1, then (s+1, t) only when (s-1, t) dies: a live
    lower neighbor decides UpperBound alone."""
    report = reports(s, t)
    verdict = _zero_verdict(report)
    if verdict is None:
        below = reports(s - 1, t).e2_total if s >= 1 else 0
        exact = below == 0 and reports(s + 1, t).e2_total == 0
        verdict = DIM_CERTIFIED if exact else UPPER_BOUND
    return Certificate(verdict, report)


@dataclass
class NamedClass:
    """A standing class by name, with its bidegree and, where one is
    known, a representative cocycle in the second term.

    The bidegree of a class with a representative is the representative's
    tridegree; resolve_named states it by hand only for classes without
    one.  params are kept in the name's signature order, as text() shows
    them."""

    name: str
    params: dict
    s: int
    t: int
    rep: Element | None = None
    conjectural: bool = False

    def text(self) -> str:
        if not self.params:
            return self.name
        return f"{self.name}[{','.join(str(v) for v in self.params.values())}]"


def _need(params: dict, *keys: str) -> list[int]:
    """The integer values of keys in params.  A key params holds beyond
    them raises ParseError, a missing key or a value that is not an integer
    ParamsOutOfRange."""
    for key in params:
        if key not in keys:
            raise ParseError(f"unknown parameter {key!r}")
    out = []
    for key in keys:
        if key not in params:
            raise ParamsOutOfRange(f"missing parameter {key!r}")
        val = params[key]
        if not isinstance(val, int):
            raise ParamsOutOfRange(f"parameter {key!r} must be an integer")
        out.append(val)
    return out


def _represented(name: str, params: dict, rep: Element, ctx: PrimeContext) -> NamedClass:
    deg = tridegree(rep, ctx)
    return NamedClass(name, params, deg.s, deg.t, rep)


# the two-family names, of which only g[0] has a representative here: their
# filtration s and the coefficients (x, y, z) of t = (x p^(n+1) + y p^n + z) q
_TWO_FAMILY = {
    "g": (2, 1, 2, 0),
    "k": (2, 2, 1, 0),
    "l": (3, 1, 2, 0),
    "l_prime": (3, 2, 1, 0),
    "h0g": (3, 1, 2, 1),
    "h0l": (4, 1, 2, 1),
    "h0k": (3, 2, 1, 1),
    "h0l_prime": (4, 2, 1, 1),
}

# the parameter keys of each class name, in signature order
_KEYS = {
    **dict.fromkeys(("a0", "alpha2_tilde", "g0"), ()),
    **dict.fromkeys(("h", "b", "h0h", "h0b", *_TWO_FAMILY), ("n",)),
    **dict.fromkeys(("h0hh", "h0hb"), ("n", "m")),
    **dict.fromkeys(("gamma_tilde", "beta_tilde"), ("s",)),
}


def resolve_named(name: str, params: dict, ctx: PrimeContext) -> NamedClass:
    """Bidegree, representative, and conjectural flag for a standing
    class name.

    The name and the parameter keys are checked before any value is
    used.  A class with a representative has the representative's
    bidegree.  The two-family names other than g[0] (g, k, l, l_prime and
    their h0 multiples) and beta_tilde have no representative here; their
    bidegrees are closed formulas in p and q.
    """
    keys = _KEYS.get(name)
    if keys is None:
        raise UnknownName(f"no class named {name!r}")
    given = dict(zip(keys, _need(params or {}, *keys)))
    p, q = ctx.p, ctx.q
    # n and m are exponents of p, in degrees up to p^(n+1) and p^(m+1):
    # the power budget refuses them before any degree is formed
    for key in ("n", "m"):
        if key in given:
            power(p, given[key] + 1)
    n, m, s = given.get("n"), given.get("m"), given.get("s")

    if name == "a0":
        return _represented(name, given, product((a(0),), ctx), ctx)
    if name == "alpha2_tilde":
        return _represented(name, given, product((a(1), h(1, 0)), ctx), ctx)
    if name == "g0":
        return _represented(name, given, product((h(2, 0), h(1, 0)), ctx), ctx)
    if name == "h":
        if n < 0:
            raise ParamsOutOfRange("h[n] needs n >= 0")
        return _represented(name, given, product((h(1, n),), ctx), ctx)
    if name == "b":
        if n < 0:
            raise ParamsOutOfRange("b[n] needs n >= 0")
        return _represented(name, given, product((b(1, n),), ctx), ctx)
    if name == "gamma_tilde":
        if not 3 <= s < p:
            raise ParamsOutOfRange(f"gamma_tilde[s] needs 3 <= s < p, got s={s}")
        # a3^(s-3) is one factor: s runs up to p - 1
        a3_power = Monomial.build([(a(3), s - 3)])
        rep = product((h(2, 1), h(1, 2), h(3, 0), a3_power), ctx)
        return _represented(name, given, rep, ctx)
    if name == "h0h":
        if n < 1:
            raise ParamsOutOfRange("h0h[n] needs n >= 1")
        return _represented(name, given, product((h(1, 0), h(1, n)), ctx), ctx)
    if name == "h0b":
        if n < 1:
            raise ParamsOutOfRange("h0b[n] needs n >= 1")
        return _represented(name, given, product((h(1, 0), b(1, n - 1)), ctx), ctx)
    if name == "h0hh":
        if not (m >= 1 and n >= m + 2):
            raise ParamsOutOfRange("h0hh[n,m] needs n >= m + 2, m >= 1")
        rep = product((h(1, 0), h(1, n), h(1, m)), ctx)
        return _represented(name, given, rep, ctx)
    if name == "h0hb":
        if not (m >= 1 and n >= m + 2):
            raise ParamsOutOfRange("h0hb[n,m] needs n >= m + 2, m >= 1")
        rep = product((h(1, 0), h(1, n), b(1, m - 1)), ctx) + product(
            (h(1, 0), h(1, m), b(1, n - 1)), ctx
        ).scaled(-1)
        return _represented(name, given, rep, ctx)
    if name == "beta_tilde":
        if s < 2:
            raise ParamsOutOfRange("beta_tilde[s] needs s >= 2")
        return NamedClass(
            name, given, s, s * p * q + (s - 1) * q + s - 2, None, conjectural=True
        )

    if n < 0:
        raise ParamsOutOfRange(f"{name}[n] needs n >= 0")
    if name == "g" and n == 0:
        return _represented(name, given, product((h(2, 0), h(1, 0)), ctx), ctx)
    s_deg, x, y, z = _TWO_FAMILY[name]
    conjectural = n >= 3 or name in ("h0g", "h0l", "h0k", "h0l_prime")
    return NamedClass(
        name, given, s_deg, (x * p ** (n + 1) + y * p**n + z) * q, conjectural=conjectural
    )


@dataclass
class WindowRow:
    """The certificates of d_r's target and, unless vacuous, its source."""

    r: int
    target: Certificate
    source: Certificate | None

    def serialize(self) -> dict:
        out: dict = {"r": self.r}
        for side, cert in (("target", self.target), ("source", self.source)):
            out[side] = (
                {"bidegree": [cert.report.s, cert.report.t], **cert.serialize()}
                if cert is not None
                else {"vacuous": True}
            )
        return out


@dataclass
class WindowReport:
    s: int
    t: int
    r_min: int
    r_max: int
    rows: list[WindowRow] = field(default_factory=list)

    @property
    def targets_all_zero(self) -> bool:
        return all(row.target.certified_zero for row in self.rows)

    @property
    def sources_all_zero(self) -> bool:
        return all(
            row.source.certified_zero for row in self.rows if row.source is not None
        )

    @property
    def permanent_cycle_up_to(self) -> int:
        """Largest r <= r_max with every target in [r_min, r] certified zero."""
        out = self.r_min - 1
        for row in self.rows:
            if not row.target.certified_zero:
                break
            out = row.r
        return out

    @property
    def not_boundary(self) -> str:
        """'full' needs every real source zero and the window to reach r = s."""
        if self.s < self.r_min:
            return "full"
        if not self.sources_all_zero:
            return "no"
        return "full" if self.r_max >= self.s else "partial"

    def serialize(self) -> dict:
        return {
            "s": self.s,
            "t": self.t,
            "r_min": self.r_min,
            "r_max": self.r_max,
            "permanent_cycle_up_to": self.permanent_cycle_up_to,
            "not_boundary": self.not_boundary,
            "rows": [row.serialize() for row in self.rows],
        }


def adams_dr_window(
    reports: ReportSource, bidegree: tuple[int, int], r_min: int, r_max: int
) -> WindowReport:
    """Vanishing certificates for every d_r target and source in a range.

    Raises WorkBudgetExceeded when the range has more than MAX_WINDOW_ROWS
    values of r.  The constant bounds the number of rows, not the cost of
    one cell, which grows with the bidegree.
    """
    s, t = bidegree
    if s < 0 or t < 0:
        raise InvalidParams(f"bidegree out of range: ({s},{t})")
    if r_min < 2 or r_max < r_min:
        raise InvalidRange(f"need 2 <= r_min <= r_max, got [{r_min},{r_max}]")
    if r_max - r_min + 1 > MAX_WINDOW_ROWS:
        raise WorkBudgetExceeded(
            f"window r_min={r_min}, r_max={r_max} has {r_max - r_min + 1} rows, "
            f"budget is {MAX_WINDOW_ROWS}"
        )
    report = WindowReport(s, t, r_min, r_max)
    for r in range(r_min, r_max + 1):
        target = certify_ext_vanishing(reports, s + r, t + r - 1)
        vacuous = r > s or t - r + 1 < 0
        source = None if vacuous else certify_ext_vanishing(reports, s - r, t - r + 1)
        report.rows.append(WindowRow(r, target, source))
    return report


def product_nonzero_at_e2(session: Session, classes: list) -> dict:
    """Multiply the representatives of NamedClasses and decide whether the
    product is nonzero mod the boundaries of its bidegree (s, t): its
    e2_rank in session.column(t), which a zero product does not read.

    A nonzero answer means the product survives to the second term; it is
    a statement about the second term, not yet about the abutment.
    """
    ctx = session.ctx
    if not classes:
        raise InvalidParams("empty product")
    for cls in classes:
        if not isinstance(cls, NamedClass):
            raise InvalidParams(f"expected a NamedClass, got {cls!r}")
        if cls.rep is None:
            raise MissingRepresentative(
                f"{cls.text()} has a bidegree but no representative"
            )
    prod = product([cls.rep for cls in classes], ctx)
    expected = (sum(cls.s for cls in classes), sum(cls.t for cls in classes))
    conjectural = any(cls.conjectural for cls in classes)
    if not d1(prod, ctx).is_zero:
        raise AssertionError("product of cocycles failed to be a cocycle")
    s, t = expected
    nonzero = not prod.is_zero and e2_rank(session.column(t), s, [prod]) > 0
    return {"nonzero": nonzero, "bidegree": expected, "conjectural": conjectural}
