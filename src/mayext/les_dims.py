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
from .may_core import (
    InvalidParams, MayextError, PrimeContext, WorkBudgetExceeded, a, h, multiply
)
from .may_diff import e2_rank

# Most sphere cells one table may certify.
MAX_CELLS = 20000


class WindowTooLarge(WorkBudgetExceeded):
    """The requested table would exceed the cell budget."""


class InsufficientWindow(MayextError):
    """A lookup needs a cell the table was not built to cover."""


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


@dataclass
class SphereCell:
    s: int
    t: int
    cert: Certificate
    dim: DimInterval
    h0_rank_lower: int = 0
    a0_rank_lower: int = 0


class SphereTable:
    """Certified sphere cells over a rectangular (s, t) window."""

    def __init__(self, ctx: PrimeContext, s_range, t_range):
        self.ctx = ctx
        self.s_range = tuple(s_range)
        self.t_range = tuple(t_range)
        self.cells: dict[tuple[int, int], SphereCell] = {}

    @staticmethod
    def _empty(s: int, t: int) -> bool:
        return s < 0 or t < 0 or t < s

    def dim(self, s: int, t: int) -> DimInterval:
        if self._empty(s, t):
            return DimInterval(0, 0, f"({s},{t}) empty")
        cell = self.cells.get((s, t))
        if cell is None:
            raise InsufficientWindow(
                f"cell ({s},{t}) is outside the table window "
                f"s in {self.s_range}, t in {self.t_range}"
            )
        return cell.dim

    def rank_lower(self, s: int, t: int, op: str) -> int:
        if self._empty(s, t):
            return 0
        cell = self.cells.get((s, t))
        if cell is None:
            raise InsufficientWindow(f"cell ({s},{t}) is outside the table window")
        return cell.h0_rank_lower if op == "h0" else cell.a0_rank_lower


def _witness_rank(ctx: PrimeContext, session, cell: SphereCell, gen, t_shift: int) -> int:
    """E2 rank of multiplication by gen out of cell into (s+1, t+t_shift)."""
    products = [multiply(rep, gen, ctx) for rep in cell.cert.report.representatives]
    return e2_rank(ctx, session.boundaries(cell.s + 1, cell.t + t_shift), products)


def sphere_table(ctx: PrimeContext, s_range, t_range, session) -> SphereTable:
    """Certify every cell in the window and pin witness lower bounds.

    Cells are certified from session.report and witness targets reduced
    against session.boundaries (a cli_runner.Session), so windows reuse both.
    """
    s_min, s_max = s_range
    t_min, t_max = t_range
    if s_min < 0 or t_min < 0 or s_max < s_min or t_max < t_min:
        raise InvalidParams(f"bad window s={tuple(s_range)}, t={tuple(t_range)}")
    count = (s_max - s_min + 1) * (t_max - t_min + 1)
    if count > MAX_CELLS:
        raise WindowTooLarge(f"{count} cells requested, budget is {MAX_CELLS}")
    table = SphereTable(ctx, s_range, t_range)
    for s in range(s_min, s_max + 1):
        for t in range(t_min, t_max + 1):
            cert = certify_ext_dim(session.report, s, t)
            lo = cert.dim if cert.certified_exact else 0
            cell = SphereCell(s, t, cert, DimInterval(lo, cert.dim, cert.verdict))
            if cert.dim:
                cell.a0_rank_lower = _witness_rank(ctx, session, cell, a(0), 1)
                cell.h0_rank_lower = _witness_rank(ctx, session, cell, h(1, 0), ctx.q)
            table.cells[(s, t)] = cell

    for (s, t), cell in table.cells.items():
        if cell.dim.exact:
            continue
        lo = max(cell.dim.lo, cell.a0_rank_lower, cell.h0_rank_lower)
        into_a0 = table.cells.get((s - 1, t - 1))
        if into_a0 is not None:
            lo = max(lo, into_a0.a0_rank_lower)
        into_h0 = table.cells.get((s - 1, t - ctx.q))
        if into_h0 is not None:
            lo = max(lo, into_h0.h0_rank_lower)
        if lo > cell.dim.hi:
            raise AssertionError(f"witness exceeds upper bound at ({s},{t})")
        if lo > cell.dim.lo:
            cell.dim = DimInterval(lo, cell.dim.hi, cell.dim.provenance + "+witness")
    return table


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
    """The column's interval at (s, t), read from a table covering its window."""
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


def ext_dims(ctx: PrimeContext, spectrum: str, s: int, t: int, session) -> DimInterval:
    """Dimension interval of one column at (s, t), over the smallest sphere
    table that serves it, read from session (see sphere_table).  Every
    column is zero at a negative bidegree."""
    _first_variable(ctx, spectrum, t)  # an unknown spectrum raises first
    if s < 0 or t < 0:
        return DimInterval(0, 0, "out of range")
    s_range, t_range = _window(ctx, spectrum, s, t)
    table = sphere_table(ctx, s_range, t_range, session)
    return _column(ctx, table, spectrum, s, t)
