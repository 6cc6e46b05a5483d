"""Dimension intervals for Moore-type spectra propagated from sphere cells.

Every group dimension here is an interval [lo, hi].  Upper bounds come
from second-term totals on the sphere; lower bounds come only from
multiplication witnesses computed at the second term (rank of a_0- or
h_0-multiplication on representatives after reduction mod boundaries).
Long exact sequences then transport intervals through kernel/cokernel
arithmetic

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
    K2 = second variable of K, connecting map on M2-cells; it reads each
         M2-cell as the M-cell one step up in t.

Connecting-map lower bounds use a composite factorization: the K-column
connecting map composed with the Moore inclusion and projection is
h_0-multiplication on the sphere, so its rank is bounded below by the
sphere witness rank; the second-variable analogue is the same with t
shifted by one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .adams_certify import Certificate, ReportSource, certify_ext_dim
from .may_core import InvalidParams, MayextError, PrimeContext, a, h, multiply
from .may_diff import _vector, echelon, reduce_mod_boundaries

# Most sphere cells one table may certify.
MAX_CELLS = 20000


class WindowTooLarge(MayextError):
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


def _witness_rank(
    ctx: PrimeContext, cells: ReportSource, cell: SphereCell, gen, t_shift: int
) -> int:
    """E2 rank of multiplication by gen out of cell into (s+1, t+t_shift)."""
    tgt = cells(cell.s + 1, cell.t + t_shift)
    if tgt.e1_total == 0:
        return 0
    total = 0
    gen_u = gen.tridegree(ctx).u
    for u, weight in cell.cert.report.weights.items():
        tgt_blk = tgt.weights.get(u + gen_u)
        if not weight.representatives or tgt_blk is None:
            continue
        where = f"({tgt.s},{tgt.t},{tgt_blk.u})"
        rows = [
            _vector(
                reduce_mod_boundaries(ctx, tgt, multiply(rep, gen, ctx)),
                tgt_blk.index,
                where,
            )
            for rep in weight.representatives
        ]
        total += len(echelon(rows, ctx.p)[1])
    return total


def sphere_table(
    ctx: PrimeContext, s_range, t_range, cells: ReportSource
) -> SphereTable:
    """Certify every cell in the window and pin witness lower bounds.

    Cells are read from cells(s, t), which must return records that carry
    their boundary data, such as Session.cell; a memoising source lets
    repeated windows over the same prime reuse cell computations.
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
            cert = certify_ext_dim(cells, s, t)
            hi = 0 if cert.certified_zero else cert.e2_total
            lo = hi if cert.certified_exact else 0
            cell = SphereCell(s, t, cert, DimInterval(lo, hi, cert.verdict))
            if hi:
                cell.a0_rank_lower = _witness_rank(ctx, cells, cell, a(0), 1)
                cell.h0_rank_lower = _witness_rank(ctx, cells, cell, h(1, 0), ctx.q)
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


def _ker(src: DimInterval, rank: tuple[int, int], label: str) -> DimInterval:
    return DimInterval(
        max(src.lo - rank[1], 0),
        src.hi - rank[0],
        f"ker {label} rank[{rank[0]},{rank[1]}]",
    )


def _coker(tgt: DimInterval, rank: tuple[int, int], label: str) -> DimInterval:
    return DimInterval(
        max(tgt.lo - rank[1], 0),
        tgt.hi - rank[0],
        f"cok {label} rank[{rank[0]},{rank[1]}]",
    )


def ext_dims_M(ctx: PrimeContext, table: SphereTable, s: int, t: int) -> DimInterval:
    """First-variable Moore column at (s, t)."""
    ker_src, ker_tgt = table.dim(s, t - 1), table.dim(s + 1, t)
    rank1 = _map_rank(table, ker_src, ker_tgt, (s, t - 1), "a0")
    cok_src, cok_tgt = table.dim(s - 1, t - 1), table.dim(s, t)
    rank2 = _map_rank(table, cok_src, cok_tgt, (s - 1, t - 1), "a0")
    return _ker(ker_src, rank1, f"a0:({s},{t-1})->({s+1},{t})") + _coker(
        cok_tgt, rank2, f"a0:({s-1},{t-1})->({s},{t})"
    )


def ext_dims_M2(ctx: PrimeContext, table: SphereTable, s: int, t: int) -> DimInterval:
    """Second-variable Moore column at (s, t), which is M(s, t+1)."""
    return ext_dims_M(ctx, table, s, t + 1)


def ext_dims_L(ctx: PrimeContext, table: SphereTable, s: int, t: int) -> DimInterval:
    """First-variable column of the alpha-element cofiber at (s, t)."""
    q = ctx.q
    ker_src, ker_tgt = table.dim(s, t - q), table.dim(s + 1, t)
    rank1 = _map_rank(table, ker_src, ker_tgt, (s, t - q), "h0")
    cok_src, cok_tgt = table.dim(s - 1, t - q), table.dim(s, t)
    rank2 = _map_rank(table, cok_src, cok_tgt, (s - 1, t - q), "h0")
    return _ker(ker_src, rank1, f"h0:({s},{t-q})->({s+1},{t})") + _coker(
        cok_tgt, rank2, f"h0:({s-1},{t-q})->({s},{t})"
    )


def _moore(ctx, table, s, t):
    if s < 0 or t < 0 or t < s:
        return DimInterval(0, 0, f"M({s},{t}) empty")
    return ext_dims_M(ctx, table, s, t)


def ext_dims_K(ctx: PrimeContext, table: SphereTable, s: int, t: int) -> DimInterval:
    """First-variable column of the Adams self-map cofiber at (s, t).

    The connecting map raises M-cells by (1, q+1); its rank lower bound
    is the sphere h_0 witness at the source bidegree.
    """
    q = ctx.q
    cok_src, cok_tgt = _moore(ctx, table, s - 1, t - q - 1), _moore(ctx, table, s, t)
    rank1 = _map_rank(table, cok_src, cok_tgt, (s - 1, t - q - 1), "h0")
    ker_src, ker_tgt = _moore(ctx, table, s, t - q - 1), _moore(ctx, table, s + 1, t)
    rank2 = _map_rank(table, ker_src, ker_tgt, (s, t - q - 1), "h0")
    return _coker(cok_tgt, rank1, f"d:M({s-1},{t-q-1})->M({s},{t})") + _ker(
        ker_src, rank2, f"d:M({s},{t-q-1})->M({s+1},{t})"
    )


def ext_dims_K2(ctx: PrimeContext, table: SphereTable, s: int, t: int) -> DimInterval:
    """Second-variable column of the Adams self-map cofiber at (s, t).

    Composite anchoring for the second variable shifts the witness cell
    by one in t: the connecting map out of M2(s, t) = M(s, t+1) is bounded
    below by the sphere h_0 rank at (s, t+1).
    """
    q, t1 = ctx.q, t + 1
    cok_src, cok_tgt = _moore(ctx, table, s - 1, t1), _moore(ctx, table, s, t1 + q + 1)
    rank1 = _map_rank(table, cok_src, cok_tgt, (s - 1, t1), "h0")
    ker_src, ker_tgt = _moore(ctx, table, s, t1), _moore(ctx, table, s + 1, t1 + q + 1)
    rank2 = _map_rank(table, ker_src, ker_tgt, (s, t1), "h0")
    return _coker(cok_tgt, rank1, f"d:M2({s-1},{t})->M2({s},{t+q+1})") + _ker(
        ker_src, rank2, f"d:M2({s},{t})->M2({s+1},{t+q+1})"
    )


_COLUMNS = {
    "S": lambda ctx, table, s, t: table.dim(s, t),
    "M": ext_dims_M,
    "M2": ext_dims_M2,
    "L": ext_dims_L,
    "K": ext_dims_K,
    "K2": ext_dims_K2,
}


def window_for(ctx: PrimeContext, spectrum: str, s: int, t: int):
    """Smallest sphere window that serves one column query."""
    q = ctx.q
    pads = {
        "S": (0, 0, 0, 0),
        "M": (1, 1, 1, 0),
        "M2": (1, 1, 0, 1),
        "L": (1, 1, q, 0),
        "K": (2, 2, q + 2, 0),
        "K2": (2, 2, 0, q + 2),
    }
    if spectrum not in pads:
        raise InvalidParams(f"unknown spectrum {spectrum!r}")
    down, up, left, right = pads[spectrum]
    return (max(s - down, 0), s + up), (max(t - left, 0), t + right)


def ext_dims(
    ctx: PrimeContext, table: SphereTable, spectrum: str, s: int, t: int
) -> DimInterval:
    if spectrum not in _COLUMNS:
        raise InvalidParams(f"unknown spectrum {spectrum!r}")
    if s < 0 or t < 0:
        return DimInterval(0, 0, "out of range")
    return _COLUMNS[spectrum](ctx, table, s, t)
