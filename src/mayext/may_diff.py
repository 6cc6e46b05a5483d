"""First differential and second term of the trigraded complex.

d1 has tridegree (1, 0, -1) and is determined by

    d1(h[i,j]) = - sum_{0<k<i} h[i-k, k+j] h[k, j]
    d1(a[i])   = - sum_{0<=k<i} a[k] h[i-k, k]
    d1(b[i,j]) = 0

extended as a derivation with the stem-parity Leibniz sign.  d1 on a
generator is computed once per PrimeContext and tabulated (d1_generator);
d1 on a monomial forms each Leibniz term left * term * right directly on
factor tuples through may_core.multiply_factors, the one home of the
sign rule.  Because d1 preserves the internal degree and shifts the
weight by exactly -1, the second-term computation splits into
independent blocks, one per weight, inside each bidegree (s, t).
cell_homology reads the bases of (s-1, t), (s, t) and (s+1, t) from the
caller's memo of weight-grouped bases and enumerates the ones it lacks in
one column call (may_core.enumerate_bases), so a session (Session.report)
enumerates each cell once.

All linear algebra is over F_p on sparse rows {column: coefficient}, in
the canonical column order of each weight block.  echelon returns the
reduced row echelon form, unique for a row space, so no output depends
on the order of rows or of elimination.  A block's representatives are
the cycle echelon rows whose pivot is not a boundary pivot.

A record (E2Report) is plain data, what serialize writes.  Reduction
modulo boundaries, for products (reduce_mod_boundaries) and les witness
ranks (e2_rank), reads a private slot of the record through _reduce.
A record rebuilt from disk fills that slot on its first reduction with
the boundary data alone (_boundary_blocks, shared with cell_homology):
the bases of its cell and of the one below, and the echelon form of the
d1 images between them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .may_core import (
    Element,
    Factors,
    Generator,
    InvalidParams,
    KIND_A,
    KIND_H,
    Monomial,
    MulOperand,
    PrimeContext,
    _as_element,
    a,
    enumerate_bases,
    h,
    multiply_factors,
    parse_element,
)

SCHEMA_VERSION = "mayv1"


def d1_generator(g: Generator, ctx: PrimeContext) -> Element:
    """d1 on one generator, computed once per context and tabulated in
    ctx.d1_table.  The Element returned is shared: callers must not
    mutate it."""
    dg = ctx.d1_table.get(g)
    if dg is None:
        if g.kind == KIND_H:
            pairs = [(h(g.i - k, k + g.j), h(k, g.j)) for k in range(1, g.i)]
        elif g.kind == KIND_A:
            pairs = [(a(k), h(g.i - k, k)) for k in range(g.i)]
        else:
            pairs = []
        dg = Element.zero(ctx)
        for x, y in pairs:
            prod = multiply_factors(((x, 1),), ((y, 1),))
            if prod is not None:
                dg._add_term(prod[0], -prod[1])
        ctx.d1_table[g] = dg
    return dg


def d1(x: MulOperand, ctx: PrimeContext) -> Element:
    """Apply the differential to a generator, monomial, or element.

    Leibniz rule on factor tuples: for the factor g^e at position idx of
    a monomial and each term of d1(g), the term is left * d1(g)-term *
    right, with left the factors before idx and right g^(e-1) and the
    factors after it, times e and the sign of d1 passing the odd factors
    of left."""
    if isinstance(x, Monomial):
        terms = ((x.factors, x.coeff),)
    else:
        terms = _as_element(x, ctx)._terms.items()
    out = Element.zero(ctx)
    for factors, coeff in terms:
        odd_before = 0
        for idx, (g, e) in enumerate(factors):
            dg = d1_generator(g, ctx)._terms
            if dg:
                c = -coeff * e if odd_before & 1 else coeff * e
                left = factors[:idx]
                right = factors[idx + 1 :]
                if e > 1:
                    right = ((g, e - 1),) + right
                for term, tc in dg.items():
                    prod = multiply_factors(left, term, right)
                    if prod is not None:
                        out._add_term(prod[0], c * tc * prod[1])
            if g.kind == KIND_H:
                odd_before += 1
    return out


Row = dict[int, int]


def _add_multiple(x: Row, c: int, y: Row, p: int) -> None:
    """x += c * y over F_p, in place; c and the entries of y are nonzero."""
    for col, v in y.items():
        w = (x.get(col, 0) + c * v) % p
        if w:
            x[col] = w
        else:
            del x[col]


def reduce_vector(vec: Row, by_pivot: dict[int, Row], p: int) -> Row:
    """vec mod p, reduced by the rows of an echelon form keyed by pivot;
    a row clears its pivot and touches no other pivot column."""
    out = {col: v % p for col, v in vec.items() if v % p}
    for col in [col for col in out if col in by_pivot]:
        _add_multiple(out, p - out[col], by_pivot[col], p)
    return out


def echelon(rows: list[Row], p: int) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form over F_p; returns (rows, pivot columns) in
    ascending pivot order.  Each row, reduced by the rows kept so far,
    pivots on its smallest column and clears that column from them, so
    the kept rows stay reduced."""
    by_pivot: dict[int, Row] = {}
    for row in rows:
        r = reduce_vector(row, by_pivot, p)
        if not r:
            continue
        col = min(r)
        inv = pow(r[col], p - 2, p)
        r = {c: v * inv % p for c, v in r.items()}
        for other in by_pivot.values():
            c = other.get(col)
            if c:
                _add_multiple(other, p - c, r, p)
        by_pivot[col] = r
    pivots = sorted(by_pivot)
    return [by_pivot[col] for col in pivots], pivots


def kernel(rows: list[Row], p: int, dim: int) -> list[Row]:
    """Basis of {v : sum_i v_i rows_i = 0} for `dim` rows, echelonized:
    row i gets an identity entry in a column past every column of the
    rows, and the echelon rows that pivot there are the kernel."""
    width = 1 + max((max(r) for r in rows[:dim] if r), default=-1)
    ech, pivots = echelon([{**rows[i], width + i: 1} for i in range(dim)], p)
    rank = sum(c < width for c in pivots)
    return [{c - width: v for c, v in row.items()} for row in ech[rank:]]


@dataclass
class WeightBlock:
    """One weight u of a bidegree: the fields E2Report.serialize writes."""

    u: int
    e1_dim: int
    cycle_dim: int
    boundary_dim: int
    e2_dim: int
    representatives: list[Element]


@dataclass
class E2Report:
    """Second term of one bidegree, one block per weight in ascending u."""

    s: int
    t: int
    p: int
    weights: dict[int, WeightBlock]
    # not part of the record: per weight, the column of each basis monomial
    # and the boundary echelon rows keyed by pivot (see _reduce)
    _boundaries: dict | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def e1_total(self) -> int:
        return sum(w.e1_dim for w in self.weights.values())

    @property
    def e2_total(self) -> int:
        return sum(w.e2_dim for w in self.weights.values())

    @property
    def representatives(self) -> list[Element]:
        return [r for w in self.weights.values() for r in w.representatives]

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


def summary_to_report(ctx: PrimeContext, data: dict) -> E2Report:
    """Rebuild a report from its serialized form, reparsing representatives."""
    weights = {}
    for e in data["weights"]:
        reps = [parse_element(txt, ctx) for txt in e["reps"]]
        weights[e["u"]] = WeightBlock(
            e["u"], e["e1"], e["cycles"], e["boundaries"], e["e2"], reps
        )
    return E2Report(data["s"], data["t"], data["p"], weights)


def _group_by_weight(ctx, monomials):
    groups: dict[int, list[Monomial]] = {}
    for m in monomials:
        groups.setdefault(m.tridegree(ctx).u, []).append(m)
    return groups


def _vector(elem: Element, index: dict, where: str) -> Row:
    try:
        return {index[key]: c for key, c in elem._terms.items()}
    except KeyError:
        key = min(k for k in elem._terms if k not in index)
        term = Monomial(key, elem._terms[key]).text()
        raise AssertionError(f"term {term} missing from basis of {where}") from None


def _block_element(keys: list[Factors], vec: Row, p: int) -> Element:
    return Element(p, {keys[col]: c for col, c in sorted(vec.items())})


def _boundary_blocks(
    ctx: PrimeContext, s: int, t: int, groups: dict, groups_below: dict
) -> dict[int, tuple[dict[Factors, int], dict[int, Row]]]:
    """Per weight u of `groups`, the weight-grouped basis of (s, t): the
    column of each basis monomial, and the echelon rows of the d1 images
    of block u + 1 of `groups_below`, the basis of (s - 1, t), keyed by
    pivot.  The boundary data of cell_homology and of _reduce."""
    out = {}
    for u, monos in groups.items():
        index = {m.factors: k for k, m in enumerate(monos)}
        below = groups_below.get(u + 1, [])
        rows = [_vector(d1(m, ctx), index, f"({s},{t},{u})") for m in below]
        b_ech, b_piv = echelon(rows, ctx.p)
        out[u] = (index, dict(zip(b_piv, b_ech)))
    return out


def cell_homology(
    ctx: PrimeContext, s: int, t: int, bases: dict | None = None
) -> E2Report:
    """The second-term record of (s, t): per weight, the dimensions and the
    representatives, with the boundary data that reduction needs in the
    record's private slot.

    The bases of (s, t), (s+1, t) and (s-1, t), grouped by weight, come
    from `bases`, the caller's memo keyed by (s, t); those it lacks are
    enumerated into it in one column call (enumerate_bases).  Without a
    memo the call uses a fresh dict.  Records are not memoised here:
    Session.report keeps them, and passes its own memo of bases."""
    if s < 0 or t < 0:
        raise InvalidParams(f"bidegree out of range: ({s},{t})")
    if bases is None:
        bases = {}
    missing = [x for x in (s, s + 1, s - 1) if (x, t) not in bases]
    for x, groups in enumerate_bases(ctx, t, missing).items():
        bases[(x, t)] = groups
    p = ctx.p
    groups0 = bases[(s, t)]
    groups1 = bases[(s + 1, t)]
    boundaries = _boundary_blocks(ctx, s, t, groups0, bases[(s - 1, t)])

    weights = {}
    for u, monos in sorted(groups0.items()):
        index, boundary = boundaries[u]
        target = {m.factors: k for k, m in enumerate(groups1.get(u - 1, []))}
        out_rows = [_vector(d1(m, ctx), target, f"({s+1},{t},{u-1})") for m in monos]
        cycles = kernel(out_rows, p, len(monos))

        # boundaries lie among the cycles, so every boundary pivot is a
        # cycle pivot, and the cycle rows pivoting elsewhere are the reduced
        # row echelon form of cycles mod boundaries
        cyc = {min(z): z for z in cycles}
        if any(reduce_vector(row, cyc, p) for row in boundary.values()):
            where = f"({s},{t},{u})"
            raise AssertionError(f"boundary space escapes the cycle space at {where}")
        keys = list(index)
        reps = [_block_element(keys, z, p) for c, z in cyc.items() if c not in boundary]
        weights[u] = WeightBlock(
            u, len(monos), len(cycles), len(boundary), len(reps), reps
        )
    report = E2Report(s, t, p, weights)
    report._boundaries = boundaries
    return report


def _reduce(ctx: PrimeContext, report: E2Report, elem: Element) -> dict[int, Row]:
    """elem's weight components as block rows reduced modulo the boundaries.
    A record rebuilt from disk builds that data first, from the bases of
    its cell and of the one below.  Raises AssertionError on a term with no
    block or basis monomial."""
    s, t = report.s, report.t
    rows = {}
    for u, monos in sorted(_group_by_weight(ctx, elem.monomials()).items()):
        if report._boundaries is None:
            bases = enumerate_bases(ctx, t, [s, s - 1])
            report._boundaries = _boundary_blocks(ctx, s, t, bases[s], bases[s - 1])
        where = f"({s},{t},{u})"
        if u not in report._boundaries:
            raise AssertionError(f"term {monos[0].text()} has no block at {where}")
        index, boundary = report._boundaries[u]
        vec = _vector(Element.from_monomials(ctx, monos), index, where)
        rows[u] = reduce_vector(vec, boundary, ctx.p)
    return rows


def reduce_mod_boundaries(ctx: PrimeContext, report: E2Report, elem: Element) -> Element:
    """elem, an element of bidegree (report.s, report.t), reduced modulo the
    d1 boundaries of each weight block it meets; zero iff elem is a boundary."""
    out = Element.zero(ctx)
    for u, vec in _reduce(ctx, report, elem).items():
        out = out + _block_element(list(report._boundaries[u][0]), vec, ctx.p)
    return out


def e2_rank(ctx: PrimeContext, report: E2Report, elems: list[Element]) -> int:
    """Dimension of the span of the weight components of elems, elements of
    bidegree (report.s, report.t), modulo the d1 boundaries: for cycles of
    one weight each, the rank of their span in the second term."""
    by_weight: dict[int, list[Row]] = {}
    for elem in elems:
        for u, vec in _reduce(ctx, report, elem).items():
            by_weight.setdefault(u, []).append(vec)
    return sum(len(echelon(rows, ctx.p)[1]) for rows in by_weight.values())
