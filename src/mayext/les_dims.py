"""Dimension intervals for Moore-type spectra propagated from sphere cells.

Every group dimension here is an interval [lo, hi].  Upper bounds come
from second-term totals on the sphere; lower bounds only from witnesses
at the second term: the rank of a_0- or h_0-multiples of a cell's
representatives modulo the target cell's boundary data, not its
record.  Long exact sequences then transport intervals through
kernel/cokernel arithmetic

    dim ker f in [dim src - rank_hi, dim src - rank_lo]
    dim cok f in [dim tgt - rank_hi, dim tgt - rank_lo]

clipped at zero, where rank f is itself only known inside an interval.
A query reads its sphere cells through one SphereTable, which certifies
a cell on its first read, so it reads a number of cells fixed by its
column; the query's window only decides which witnesses into a cell
count.

Columns:
    M  = mod-p Moore spectrum, first variable: the coefficient sequence
         splits each group into ker/cok of a_0-multiplication with a
         degree shift of one in t.
    M2 = the same spectrum in the second variable (a_0 acts with
         bidegree (1, 1) on that side), which is M shifted by one in t:
         M2(s, t) = M(s, t+1).
    L  = cofiber of the first alpha element: h_0-multiplication, degree
         shift q.
    K  = cofiber of the Adams self-map on M, first variable: the
         connecting map raises bidegree by (1, q+1) between M-cells.
    K2 = second variable of K, connecting map on M2-cells, which is K
         shifted by q+2 in t: K2(s, t) = K(s, t+q+2), with its maps
         named in M2 coordinates.

M, L and K are one rule: the kernel out of (s, t-d) and the cokernel into
(s, t) of a map of bidegree (1, d) between cells of a base column, with
a_0 and d = 1 on sphere cells (M), h_0 and d = q on sphere cells (L), and
the connecting map with d = q+1 on M-cells (K).  Connecting-map lower
bounds use a composite factorization: the K-column connecting map
composed with the Moore inclusion and projection is h_0-multiplication on
the sphere, so its rank is bounded below by the sphere witness rank at
its source.
"""

from __future__ import annotations

from dataclasses import dataclass

from .adams_certify import Certificate, certify_ext_dim
from .may_core import InvalidParams, PrimeContext, a, h, multiply
from .may_diff import e2_rank
from .session import Session


@dataclass(frozen=True)
class DimInterval:
    lo: int
    hi: int
    provenance: str = ""

    def __post_init__(self):
        if not 0 <= self.lo <= self.hi:
            raise AssertionError(f"bad interval [{self.lo},{self.hi}]")

    @property
    def exact(self) -> bool:
        return self.lo == self.hi

    def contains(self, d: int) -> bool:
        return self.lo <= d <= self.hi

    def __add__(self, other: "DimInterval") -> "DimInterval":
        prov = " + ".join(x for x in (self.provenance, other.provenance) if x)
        return DimInterval(self.lo + other.lo, self.hi + other.hi, prov)

    def serialize(self) -> dict:
        return {
            "lo": self.lo,
            "hi": self.hi,
            "exact": self.exact,
            "provenance": self.provenance,
        }


class SphereTable:
    """Sphere cells, each certified from session.report on its first read.

    The same read ranks the cell's a_0 and h_0 witnesses against
    session.boundaries.  The window s_range x t_range reads no cell; it is
    the rule for which witnesses count: a witness into a cell raises the
    cell's lower bound only when the witness's source cell lies inside
    the window.  A read outside the window is an invariant violation.
    """

    def __init__(self, session: Session, s_range, t_range):
        self.ctx = session.ctx
        self.session = session
        self.s_range = tuple(s_range)
        self.t_range = tuple(t_range)
        # each witness: its name, its generator and its degree in t
        self.witnesses = (("a0", a(0), 1), ("h0", h(1, 0), self.ctx.q))
        self.cells: dict[tuple[int, int], tuple[Certificate, dict[str, int]]] = {}

    @staticmethod
    def _empty(s: int, t: int) -> bool:
        return s < 0 or t < 0 or t < s

    def _inside(self, s: int, t: int) -> bool:
        (s_min, s_max), (t_min, t_max) = self.s_range, self.t_range
        return s_min <= s <= s_max and t_min <= t <= t_max

    def _cell(self, s: int, t: int) -> tuple[Certificate, dict[str, int]]:
        """The certificate of (s, t) and the rank of each witness out of it."""
        cell = self.cells.get((s, t))
        if cell is not None:
            return cell
        if not self._inside(s, t):
            raise AssertionError(
                f"cell ({s},{t}) is outside the table window "
                f"s in {self.s_range}, t in {self.t_range}"
            )
        cert = certify_ext_dim(self.session.report, s, t)
        ranks = {op: 0 for op, _, _ in self.witnesses}
        if cert.dim:
            reps = cert.report.representatives
            for op, gen, d in self.witnesses:
                products = [multiply(rep, gen, self.ctx) for rep in reps]
                ranks[op] = e2_rank(self.session.boundaries(s + 1, t + d), products)
        cell = self.cells[(s, t)] = (cert, ranks)
        return cell

    def dim(self, s: int, t: int) -> DimInterval:
        if self._empty(s, t):
            return DimInterval(0, 0, f"({s},{t}) empty")
        cert, ranks = self._cell(s, t)
        dim = DimInterval(cert.dim if cert.certified_exact else 0, cert.dim, cert.verdict)
        if dim.exact:
            return dim
        lo = max(ranks.values())
        for op, _, d in self.witnesses:
            if self._inside(s - 1, t - d):
                lo = max(lo, self.rank_lower(s - 1, t - d, op))
        if lo > dim.hi:
            raise AssertionError(f"witness exceeds upper bound at ({s},{t})")
        return DimInterval(lo, dim.hi, dim.provenance + "+witness") if lo else dim

    def rank_lower(self, s: int, t: int, op: str) -> int:
        if self._empty(s, t):
            return 0
        return self._cell(s, t)[1][op]


def _map_rank(
    table: SphereTable,
    src: DimInterval,
    tgt: DimInterval,
    witness_cell: tuple[int, int],
    op: str,
) -> tuple[int, int]:
    hi = min(src.hi, tgt.hi)
    lo = table.rank_lower(*witness_cell, op)
    if lo > hi:
        raise AssertionError(
            f"witness rank out of {witness_cell} exceeds endpoint bounds"
        )
    return lo, hi


def _less_rank(dim: DimInterval, rank: tuple[int, int], label: str) -> DimInterval:
    return DimInterval(
        max(dim.lo - rank[1], 0), dim.hi - rank[0], f"{label} rank[{rank[0]},{rank[1]}]"
    )


def _sequence(table, cell, op, d, s, t, name, prefix="", shift=0):
    """Kernel out of (s, t-d) and cokernel into (s, t) of a map of bidegree
    (1, d) between base cells cell(a, b).

    The map's rank out of (a, b) is bounded below by the sphere op witness
    at (a, b). Labels name the map name:prefix(a,b)->prefix(a+1,b+d), with
    t written shift lower.
    """

    def arrow(a, b):
        return f"{name}:{prefix}({a},{b - shift})->{prefix}({a + 1},{b + d - shift})"

    ker_src, cok_tgt = cell(s, t - d), cell(s, t)
    ker_rank = _map_rank(table, ker_src, cell(s + 1, t), (s, t - d), op)
    cok_rank = _map_rank(table, cell(s - 1, t - d), cok_tgt, (s - 1, t - d), op)
    return (
        _less_rank(ker_src, ker_rank, "ker " + arrow(s, t - d)),
        _less_rank(cok_tgt, cok_rank, "cok " + arrow(s - 1, t - d)),
    )


# The columns; M2 and K2 are the second-variable ones.
_SPECTRA = ("S", "M", "M2", "L", "K", "K2")


def _first_variable(ctx: PrimeContext, spectrum: str, t: int) -> tuple[str, int]:
    """The first-variable column a query reads, and the t it reads it at:
    M2(s, t) = M(s, t+1) and K2(s, t) = K(s, t+q+2)."""
    if spectrum not in _SPECTRA:
        raise InvalidParams(f"unknown spectrum {spectrum!r}")
    if spectrum == "M2":
        return "M", t + 1
    if spectrum == "K2":
        return "K", t + ctx.q + 2
    return spectrum, t


def _map(ctx: PrimeContext, column: str) -> tuple[str, int, bool]:
    """The map of a first-variable column's sequence: the sphere witness
    that bounds its rank, its degree d in t, and whether it runs between
    Moore cells rather than sphere cells."""
    q = ctx.q
    maps = {"M": ("a0", 1, False), "L": ("h0", q, False), "K": ("h0", q + 1, True)}
    return maps[column]


def _window(ctx: PrimeContext, spectrum: str, s: int, t: int):
    """Smallest sphere window that serves one column query: a sequence reads
    s-1..s+1 and t-d..t, and Moore cells reach one step further in s each
    way and one step further down in t."""
    column, t = _first_variable(ctx, spectrum, t)
    ds = dt = 0
    if column != "S":
        _, d, moore = _map(ctx, column)
        ds, dt = 1 + moore, d + moore
    return (max(s - ds, 0), s + ds), (max(t - dt, 0), t)


def _column(
    ctx: PrimeContext, table: SphereTable, spectrum: str, s: int, t: int
) -> DimInterval:
    """The column's interval at (s, t), read from a table whose window
    serves it."""
    column, t1 = _first_variable(ctx, spectrum, t)
    if column == "S":
        return table.dim(s, t)
    op, d, moore = _map(ctx, column)
    if not moore:
        ker, cok = _sequence(table, table.dim, op, d, s, t1, op)
        return ker + cok

    def moore_cell(a, b):
        if SphereTable._empty(a, b):
            return DimInterval(0, 0, f"M({a},{b}) empty")
        return _column(ctx, table, "M", a, b)

    # K2 names its maps in M2 coordinates, M2(a, b) = M(a, b+1)
    prefix, shift = ("M2", 1) if spectrum == "K2" else ("M", 0)
    ker, cok = _sequence(table, moore_cell, op, d, s, t1, "d", prefix, shift)
    return cok + ker


def ext_dims(session: Session, spectrum: str, s: int, t: int) -> DimInterval:
    """Dimension interval of one column at (s, t), read from session
    through a sphere table over the smallest window that serves it.  Every
    column is zero at a negative bidegree."""
    ctx = session.ctx
    _first_variable(ctx, spectrum, t)  # an unknown spectrum raises first
    if s < 0 or t < 0:
        return DimInterval(0, 0, "out of range")
    table = SphereTable(session, *_window(ctx, spectrum, s, t))
    return _column(ctx, table, spectrum, s, t)
