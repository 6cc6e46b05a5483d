"""First differential and second term of the trigraded complex.

d1 has tridegree (1, 0, -1) and is determined by

    d1(h[i,j]) = - sum_{0<k<i} h[i-k, k+j] h[k, j]
    d1(a[i])   = - sum_{0<=k<i} a[k] h[i-k, k]
    d1(b[i,j]) = 0

extended as a derivation with the stem-parity Leibniz sign.  d1 on a
generator (d1_generator) is built with may_core.multiply_factors, the
sign rule of products.  d1 on monomials is formed on packed exponent
codes (may_core.Coding) in one place, _d1_image, from per-generator term
tables (_term_table), which each coding keeps in its d1_terms, the one
per-generator d1 cache: a Leibniz term is one AND (a repeated h), one
addition (its target code) and one popcount parity (its sign).  Weight
blocks are assembled on the codes that enumeration gave their monomials
(_d1_rows); d1 on an element codes its terms, applies _d1_image and
decodes the image.

Because d1 preserves the internal degree and shifts the weight by
exactly -1, the second-term computation splits into independent blocks,
one per weight, inside each bidegree (s, t).  Coded bases come from the
session's may_core.Column of t, which enumerates each cell once.  A
record reads the cells (s +- 1, t) only when (s, t) has a basis, and in
the same search, so an empty cell costs one search.

All linear algebra is over F_p on sparse rows {column: coefficient}, in
the canonical column order of each weight block.  echelon returns the
reduced row echelon form, unique for a row space, so no output depends
on the order of rows or of elimination.  A block's representatives are
the cycle echelon rows whose pivot is not a boundary pivot.

A record (E2Report) is plain data, what serialize writes.  A cell's
boundary data (Boundaries(column, s)) is memoised apart by
Session.boundaries; cell_homology, reduce_mod_boundaries and e2_rank
read it.  It builds each weight's block on the block's first read, so a
reduction builds the weights its elements meet and cell_homology, which
reads every weight, the rest.
"""

from __future__ import annotations

from dataclasses import dataclass

from .may_core import (
    Block, Coding, Column, Element, Factors, Generator, KIND_A, KIND_H,
    Monomial, MulOperand, PrimeContext, _as_element, a, h, multiply_factors, parse_element,
)

SCHEMA_VERSION = "mayv1"


def d1_generator(g: Generator, ctx: PrimeContext) -> Element:
    """d1 on one generator, built afresh on each call; a coding keeps the
    term tables made from it (_term_table)."""
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
    return dg


def _term_table(coding: Coding, g: Generator, ctx: PrimeContext) -> list:
    """The terms of d1(g) in the coding: (code delta, clash mask, sign
    mask, coefficient) for each, which _d1_image reads.

    For g^e in a monomial m, the Leibniz term of a term T of d1(g) is
    e * left * T * right, with left the factors of m before g and right
    g^(e-1) and the factors after g.  T adds its code and g loses one:
    the delta.  T's h's and m's h's meet when (m & clash) is nonzero,
    and the term vanishes.  Otherwise its sign is (-1) to the number of
    odd factors d1 passes (the h's of left) plus the transpositions that
    sorting left, T, right takes (an h of left above an h of T, an h of T
    above an h of right).  Each count is the popcount of m's h's under a
    mask, so the sign is the parity of m & (the xor of those masks)."""
    offset, hmask = coding.offset, coding.hmask

    def h_digits(lo: int, hi: int) -> int:
        # the h digits of a code at bits lo <= b < hi
        return hmask & ~((1 << lo) - 1) & ((1 << hi) - 1)

    low, high = offset[g], offset[g] + coding.width[g]
    out = []
    for term, c in d1_generator(g, ctx)._terms.items():
        hs = [offset[x] for x, _ in term if x[0] == KIND_H]
        signs = h_digits(0, low)
        for y in hs:
            signs ^= h_digits(y + 1, low) ^ h_digits(high, y)
        clash = sum(1 << y for y in hs)
        out.append((coding.encode(term) - (1 << low), clash, signs, c))
    return out


def _d1_image(
    ctx: PrimeContext, coding: Coding, key: Factors, code: int, coeff: int, out: dict
) -> None:
    """Add d1 of coeff times the monomial (key, code) to out, {code:
    coefficient}, coefficients not reduced mod p.  The one home of d1 on
    monomials: a repeated h is one AND, the sign one popcount and the
    target one addition (see _term_table)."""
    tables = coding.d1_terms
    for g, e in key:
        table = tables.get(g)
        if table is None:
            table = tables[g] = _term_table(coding, g, ctx)
        for delta, clash, signs, c in table:
            if not code & clash:
                target = code + delta
                v = coeff * e * c
                if (code & signs).bit_count() & 1:
                    v = -v
                out[target] = out.get(target, 0) + v


def d1(x: MulOperand, ctx: PrimeContext) -> Element:
    """Apply the differential to a generator, monomial, or element.

    The terms of x are coded over the generators they hold and those of
    their d1 terms, with digits wide enough for one more of each, and
    _d1_image forms the image on the codes."""
    terms = _as_element(x, ctx)._terms
    # the largest exponent of each generator in x, and in the d1 terms of
    # the generators of x
    top: dict[Generator, int] = {}
    extra: dict[Generator, int] = {}
    for key in terms:
        for g, e in key:
            top[g] = max(top.get(g, 0), e)
    for g in top:
        for term in d1_generator(g, ctx)._terms:
            for y, e in term:
                extra[y] = max(extra.get(y, 0), e)
    coding = Coding({
        g: 1 if g[0] == KIND_H else (top.get(g, 0) + extra.get(g, 0)).bit_length()
        for g in top.keys() | extra.keys()
    })
    out: dict[int, int] = {}
    for key, coeff in terms.items():
        _d1_image(ctx, coding, key, coding.encode(key), coeff, out)
    return Element(ctx.p, {coding.decode(code): c for code, c in out.items()})


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
    """Basis of {v : sum_i v_i rows_i = 0} for `dim` rows, in reduced row
    echelon form, from one echelon of the transposed rows.

    The transpose has a row per column of the rows, over the indices i
    renamed dim - 1 - i, so that each of its echelon rows pivots on its
    largest index c and has its other entries at free indices f < c: it
    says v_c = -sum_f a_f v_f.  The null vector of a free f is then e_f -
    sum a_f e_c over those rows, whose smallest column is f and which
    meets no other free index: in ascending f, the reduced row echelon
    form itself."""
    top = dim - 1
    transposed: dict[int, Row] = {}
    for i in range(dim):
        for col, v in rows[i].items():
            transposed.setdefault(col, {})[top - i] = v
    ech, pivots = echelon(list(transposed.values()), p)
    bound = set(pivots)
    null = {f: {f: 1} for f in range(dim) if top - f not in bound}
    for row, c in zip(ech, pivots):
        for f, v in row.items():
            if f != c:
                null[top - f][top - c] = p - v
    return list(null.values())


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


def _vector(terms: dict, index: dict, where: str, decode=None) -> Row:
    """terms, {key: coefficient}, as a row over the columns of index.
    Raises AssertionError naming the first term in canonical order that
    index lacks, with its coefficient; decode maps a key to its factors
    when the keys are codes."""
    try:
        return {index[key]: c for key, c in terms.items()}
    except KeyError:
        missing = {
            decode(key) if decode else key: c for key, c in terms.items() if key not in index
        }
        key = min(missing)
        term = Monomial(key, missing[key]).text()
        raise AssertionError(f"term {term} missing from basis of {where}") from None


def _d1_rows(
    ctx: PrimeContext, coding: Coding, source: Block | None, target: Block | None, where: str
) -> list[Row]:
    """The d1 image of each monomial of the block `source` as a row over
    the columns of the block `target`, formed on codes."""
    if source is None:
        return []
    p = ctx.p
    index = {code: k for k, code in enumerate(target.codes)} if target else {}
    rows = []
    for key, code in zip(source.keys, source.codes):
        image: dict[int, int] = {}
        _d1_image(ctx, coding, key, code, 1, image)
        try:
            rows.append({index[c]: w for c, v in image.items() if (w := v % p)})
        except KeyError:
            # _vector names the missing term
            image = {c: w for c, v in image.items() if (w := v % p)}
            rows.append(_vector(image, index, where, coding.decode))
    return rows


def _block_element(keys: list[Factors], vec: Row, p: int) -> Element:
    return Element(p, {keys[col]: c for col, c in sorted(vec.items())})


class Boundaries:
    """The boundary data of (s, t), t the internal degree of column: one
    block per weight u of the basis (blocks), each built on its first read
    (block): the column of each basis monomial, and the echelon rows of
    the d1 images of block u + 1 of (s-1, t), keyed by pivot.  The cells
    are read here, (s - 1, t) only when (s, t) has blocks."""

    def __init__(self, column: Column, s: int):
        self.column, self.ctx, self.s, self.t = column, column.ctx, s, column.t
        cells = column.read((s, s - 1))
        self.blocks = next(cells)
        self.below = next(cells) if self.blocks else None
        self.built: dict[int, tuple[dict[Factors, int], dict[int, Row]]] = {}

    def block(self, u: int) -> tuple[dict[Factors, int], dict[int, Row]]:
        """Block u, built on first read; KeyError when (s, t) has no
        monomial of weight u."""
        got = self.built.get(u)
        if got is None:
            block = self.blocks[u]
            source = self.below.get(u + 1)
            where = f"({self.s},{self.t},{u})"
            rows = _d1_rows(self.ctx, self.column.coding, source, block, where)
            b_ech, b_piv = echelon(rows, self.ctx.p)
            index = {key: k for k, key in enumerate(block.keys)}
            got = self.built[u] = (index, dict(zip(b_piv, b_ech)))
        return got


def cell_homology(column: Column, s: int, boundaries) -> E2Report:
    """The second-term record of (s, t), t the internal degree of column:
    per weight, the dimensions and the representatives.

    The coded bases come from column, which reads (s + 1, t) and (s - 1, t)
    in the search of (s, t), and only when (s, t) has blocks; only then are
    the column's coding and the boundary data read, the latter from
    boundaries(s, t) (Session.boundaries).  s and t are not negative."""
    ctx, t = column.ctx, column.t
    p = ctx.p
    cells = column.read((s, s + 1, s - 1))
    here = next(cells)
    if not here:
        return E2Report(s, t, p, {})
    above, _ = cells  # (s - 1, t) too, for the boundary data
    coding, data = column.coding, boundaries(s, t)

    weights = {}
    for u, block in here.items():
        boundary = data.block(u)[1]
        where = f"({s+1},{t},{u-1})"
        out_rows = _d1_rows(ctx, coding, block, above.get(u - 1), where)
        cycles = kernel(out_rows, p, len(block.keys))

        # boundaries lie among the cycles, so every boundary pivot is a
        # cycle pivot, and the cycle rows pivoting elsewhere are the reduced
        # row echelon form of cycles mod boundaries
        cyc = {min(z): z for z in cycles}
        if any(reduce_vector(row, cyc, p) for row in boundary.values()):
            where = f"({s},{t},{u})"
            raise AssertionError(f"boundary space escapes the cycle space at {where}")
        reps = [_block_element(block.keys, z, p) for c, z in cyc.items() if c not in boundary]
        weights[u] = WeightBlock(
            u, len(block.keys), len(cycles), len(boundary), len(reps), reps
        )
    return E2Report(s, t, p, weights)


def _reduce(data: Boundaries, elem: Element) -> dict[int, Row]:
    """elem's weight components as block rows reduced modulo the boundaries;
    AssertionError on a term with no block or basis monomial."""
    ctx = data.ctx
    groups: dict[int, dict[Factors, int]] = {}
    for m in elem.monomials():
        groups.setdefault(m.tridegree(ctx).u, {})[m.factors] = m.coeff
    rows = {}
    for u, terms in sorted(groups.items()):
        where = f"({data.s},{data.t},{u})"
        if u not in data.blocks:
            first = Monomial(min(terms), terms[min(terms)]).text()
            raise AssertionError(f"term {first} has no block at {where}")
        index, boundary = data.block(u)
        rows[u] = reduce_vector(_vector(terms, index, where), boundary, ctx.p)
    return rows


def reduce_mod_boundaries(data: Boundaries, elem: Element) -> Element:
    """elem, an element of bidegree (data.s, data.t), reduced modulo the d1
    boundaries of each weight block it meets; zero iff elem is a boundary."""
    out = Element.zero(data.ctx)
    for u, vec in _reduce(data, elem).items():
        out = out + _block_element(data.blocks[u].keys, vec, data.ctx.p)
    return out


def e2_rank(data: Boundaries, elems: list[Element]) -> int:
    """Dimension of the span of the weight components of elems, elements of
    bidegree (data.s, data.t), modulo the d1 boundaries: for cycles of one
    weight each, the rank of their span in the second term."""
    by_weight: dict[int, list[Row]] = {}
    for elem in elems:
        for u, vec in _reduce(data, elem).items():
            by_weight.setdefault(u, []).append(vec)
    return sum(len(echelon(rows, data.ctx.p)[1]) for rows in by_weight.values())
