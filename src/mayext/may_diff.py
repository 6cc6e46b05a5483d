"""First differential and second term of the trigraded complex.

d1 has tridegree (1, 0, -1) and is determined by

    d1(h[i,j]) = - sum_{0<k<i} h[i-k, k+j] h[k, j]
    d1(a[i])   = - sum_{0<=k<i} a[k] h[i-k, k]
    d1(b[i,j]) = 0

extended as a derivation with the stem-parity Leibniz sign.  Because d1
preserves the internal degree and shifts the weight by exactly -1, the
second-term computation splits into independent blocks, one per weight,
inside each bidegree (s, t).

All linear algebra is dense Gaussian elimination over F_p with exact
integer arithmetic and first-nonzero pivoting in canonical column order,
so every run of the same query produces identical matrices, kernels, and
representatives.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .may_core import (
    Element,
    Generator,
    InvalidParams,
    KIND_A,
    KIND_H,
    Monomial,
    MulOperand,
    PrimeContext,
    _as_element,
    a,
    enumerate_basis,
    h,
    multiply,
)

SCHEMA_VERSION = "mayv1"


def d1_generator(g: Generator, ctx: PrimeContext) -> Element:
    terms = []
    if g.kind == KIND_H:
        for k in range(1, g.i):
            terms.append(
                multiply(h(g.i - k, k + g.j), h(k, g.j), ctx).scaled(-1)
            )
    elif g.kind == KIND_A:
        for k in range(g.i):
            terms.append(multiply(a(k), h(g.i - k, k), ctx).scaled(-1))
    out = Element.zero(ctx)
    for t in terms:
        out = out + t
    return out


def d1(x: MulOperand, ctx: PrimeContext) -> Element:
    """Apply the differential to a generator, monomial, or element."""
    ex = _as_element(x, ctx)
    out = Element.zero(ctx)
    for mono in ex.monomials():
        pairs = mono.factors
        odd_before = 0
        for idx, (g, e) in enumerate(pairs):
            dg = d1_generator(g, ctx)
            if not dg.is_zero:
                sign = -1 if odd_before & 1 else 1
                left = Monomial(pairs[:idx], mono.coeff * e * sign)
                right_pairs = pairs[idx + 1 :]
                if e > 1:
                    right_pairs = ((g, e - 1),) + right_pairs
                term = multiply(multiply(left, dg, ctx), Monomial(right_pairs), ctx)
                out = out + term
            if g.is_odd:
                odd_before += 1
    return out


def echelon(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over F_p; returns (rows, pivot columns)."""
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot = next((k for k in range(r, len(mat)) if mat[k][col] % p), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = pow(mat[r][col], p - 2, p)
        mat[r] = [v * inv % p for v in mat[r]]
        for k in range(len(mat)):
            if k != r and mat[k][col] % p:
                c = mat[k][col] % p
                mat[k] = [(v - c * w) % p for v, w in zip(mat[k], mat[r])]
        pivots.append(col)
        r += 1
    return mat[:r], pivots


def reduce_vector(
    vec: list[int], ech: list[list[int]], pivots: list[int], p: int
) -> list[int]:
    out = [v % p for v in vec]
    for row, col in zip(ech, pivots):
        c = out[col]
        if c:
            out = [(v - c * w) % p for v, w in zip(out, row)]
    return out


def kernel(rows: list[list[int]], p: int, dim: int) -> list[list[int]]:
    """Basis of {v : sum_i v_i rows_i = 0} for `dim` rows, echelonized."""
    if dim == 0:
        return []
    width = len(rows[0]) if rows and rows[0] else 0
    aug = [list(rows[i]) + [1 if k == i else 0 for k in range(dim)] for i in range(dim)]
    ech, pivots = echelon(aug, p)
    out = [row[width:] for row, col in zip(ech, pivots) if col >= width]
    return out


@dataclass
class WeightBlock:
    u: int
    e1_dim: int
    cycle_dim: int
    boundary_dim: int
    e2_dim: int
    representatives: list[Element]


@dataclass
class CellHomology:
    """Per-weight kernel/boundary data of one bidegree (s, t)."""

    s: int
    t: int
    basis: list[Monomial]
    blocks: dict[int, "_Block"] = field(default_factory=dict)

    def block(self, u: int) -> "_Block | None":
        return self.blocks.get(u)

    @property
    def e1_total(self) -> int:
        return len(self.basis)

    @property
    def e2_total(self) -> int:
        return sum(blk.e2_dim for blk in self.blocks.values())


@dataclass
class _Block:
    u: int
    monomials: list[Monomial]
    index: dict
    cycle_vecs: list[list[int]]
    boundary_ech: list[list[int]]
    boundary_pivots: list[int]
    rep_vecs: list[list[int]]

    @property
    def e1_dim(self) -> int:
        return len(self.monomials)

    @property
    def boundary_dim(self) -> int:
        return len(self.boundary_ech)

    @property
    def e2_dim(self) -> int:
        return len(self.rep_vecs)


def _group_by_weight(ctx, monomials):
    groups: dict[int, list[Monomial]] = {}
    for m in monomials:
        groups.setdefault(m.tridegree(ctx).u, []).append(m)
    return groups


def _vector(elem: Element, index: dict, width: int, where: str) -> list[int]:
    vec = [0] * width
    for mono in elem.monomials():
        if mono.factors not in index:
            raise AssertionError(f"term {mono.text()} missing from basis of {where}")
        vec[index[mono.factors]] = mono.coeff
    return vec


def cell_homology(
    ctx: PrimeContext, s: int, t: int, cache: dict | None = None
) -> CellHomology:
    """Cycles, boundaries, and reduced representatives at bidegree (s, t)."""
    if s < 0 or t < 0:
        raise InvalidParams(f"bidegree out of range: ({s},{t})")
    key = (ctx.p, s, t)
    if cache is not None and key in cache:
        return cache[key]
    p = ctx.p
    basis0 = enumerate_basis(ctx, s, t)
    groups0 = _group_by_weight(ctx, basis0)
    groups1 = _group_by_weight(ctx, enumerate_basis(ctx, s + 1, t))
    below = enumerate_basis(ctx, s - 1, t) if s >= 1 else []
    groups_below = _group_by_weight(ctx, below)

    cell = CellHomology(s, t, basis0)
    for u, monos in sorted(groups0.items()):
        index = {m.factors: k for k, m in enumerate(monos)}
        width = len(monos)

        target = groups1.get(u - 1, [])
        target_index = {m.factors: k for k, m in enumerate(target)}
        out_rows = [
            _vector(d1(m, ctx), target_index, len(target), f"({s+1},{t},{u-1})")
            for m in monos
        ]
        cycles = kernel(out_rows, p, width)

        boundary_rows = []
        for m in groups_below.get(u + 1, []):
            img = d1(m, ctx)
            if not img.is_zero:
                boundary_rows.append(_vector(img, index, width, f"({s},{t},{u})"))
        b_ech, b_piv = echelon(boundary_rows, p)

        reduced = [reduce_vector(v, b_ech, b_piv, p) for v in cycles]
        rep_vecs, _ = echelon([v for v in reduced if any(v)], p)
        if len(rep_vecs) != len(cycles) - len(b_ech):
            raise AssertionError(
                f"boundary space escapes the cycle space at ({s},{t},{u})"
            )
        cell.blocks[u] = _Block(u, monos, index, cycles, b_ech, b_piv, rep_vecs)
    if cache is not None:
        cache[key] = cell
    return cell


def _block_element(blk: _Block, vec: list[int], p: int) -> Element:
    out = Element(p)
    for c, m in zip(vec, blk.monomials):
        if c % p:
            out = out + Element(p, {m.factors: c})
    return out


def reduce_mod_boundaries(
    ctx: PrimeContext, cell: CellHomology, elem: Element
) -> Element:
    """elem, an element of bidegree (cell.s, cell.t), reduced modulo the d1
    boundaries of each weight block it meets; zero iff elem is a boundary.

    Raises AssertionError when a term of elem has no block or no basis
    monomial in the cell.
    """
    out = Element.zero(ctx)
    for u, monos in sorted(_group_by_weight(ctx, elem.monomials()).items()):
        where = f"({cell.s},{cell.t},{u})"
        blk = cell.block(u)
        if blk is None:
            raise AssertionError(f"term {monos[0].text()} has no block at {where}")
        vec = _vector(Element.from_monomials(ctx, monos), blk.index, blk.e1_dim, where)
        vec = reduce_vector(vec, blk.boundary_ech, blk.boundary_pivots, ctx.p)
        out = out + _block_element(blk, vec, ctx.p)
    return out


@dataclass
class E2Report:
    """Second-term dimensions of one bidegree, split by weight."""

    s: int
    t: int
    p: int
    weights: dict[int, WeightBlock]

    @property
    def e1_total(self) -> int:
        return sum(w.e1_dim for w in self.weights.values())

    @property
    def e2_total(self) -> int:
        return sum(w.e2_dim for w in self.weights.values())

    def serialize(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "p": self.p,
            "s": self.s,
            "t": self.t,
            "e1": self.e1_total,
            "e2": self.e2_total,
            "weights": [
                {
                    "u": u,
                    "e1": w.e1_dim,
                    "cycles": w.cycle_dim,
                    "boundaries": w.boundary_dim,
                    "e2": w.e2_dim,
                    "reps": [r.text() for r in w.representatives],
                }
                for u, w in sorted(self.weights.items())
            ],
        }


def e2_at(
    ctx: PrimeContext, s: int, t: int, cache: dict | None = None
) -> E2Report:
    """Kernel-mod-boundary dimensions at (s, t), one block per weight."""
    cell = cell_homology(ctx, s, t, cache=cache)
    weights = {}
    for u, blk in sorted(cell.blocks.items()):
        reps = [_block_element(blk, v, ctx.p) for v in blk.rep_vecs]
        weights[u] = WeightBlock(
            u, blk.e1_dim, len(blk.cycle_vecs), blk.boundary_dim, blk.e2_dim, reps
        )
    return E2Report(s, t, ctx.p, weights)
