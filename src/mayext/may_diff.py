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

A record (E2Report) is plain data that stores each number once:
serialize derives the totals and each weight's e2.  Boundary rows are
formed where they are read, by _boundaries, and kept by nothing:
cell_homology forms each weight's once for its record, and e2_rank forms
those of the weights its elements meet, once per call.
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


def _term_table(coding: Coding, g: Generator, terms: dict[Factors, int]) -> list:
    """The terms of d1(g), terms, in the coding: (code delta, clash mask,
    sign mask, coefficient) for each, which _d1_image reads.

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
    for term, c in terms.items():
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
            table = tables[g] = _term_table(coding, g, d1_generator(g, ctx)._terms)
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
    their d1 terms, which seed the coding's term tables, with digits wide
    enough for one more of each; _d1_image forms the image on the codes."""
    terms = _as_element(x, ctx)._terms
    # the largest exponent of each generator in x, and in the d1 terms of
    # the generators of x
    top: dict[Generator, int] = {}
    extra: dict[Generator, int] = {}
    for key in terms:
        for g, e in key:
            top[g] = max(top.get(g, 0), e)
    images = {g: d1_generator(g, ctx)._terms for g in top}
    for image in images.values():
        for term in image:
            for y, e in term:
                extra[y] = max(extra.get(y, 0), e)
    coding = Coding({
        g: 1 if g[0] == KIND_H else (top.get(g, 0) + extra.get(g, 0)).bit_length()
        for g in top.keys() | extra.keys()
    })
    coding.d1_terms.update((g, _term_table(coding, g, image)) for g, image in images.items())
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
    ascending pivot order.  Each row is reduced at its leading column only,
    against the rows kept so far, until it leads on a new column, where it
    is kept scaled to lead with 1, or vanishes.  One pass in descending
    pivot order then clears each pivot column from the rows above it: the
    rows it subtracts are reduced already, so they bring in no pivot
    column."""
    by_pivot: dict[int, Row] = {}
    for row in rows:
        r = {col: v % p for col, v in row.items() if v % p}
        while r:
            col = min(r)
            kept = by_pivot.get(col)
            if kept is None:
                inv = pow(r[col], p - 2, p)
                by_pivot[col] = {c: v * inv % p for c, v in r.items()}
                break
            _add_multiple(r, p - r[col], kept, p)
    pivots = sorted(by_pivot)
    for col in reversed(pivots):
        r = by_pivot[col]
        for c in [c for c in r if c != col and c in by_pivot]:
            _add_multiple(r, p - r[c], by_pivot[c], p)
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
    """One weight of a bidegree, keyed by its u in E2Report.weights; its
    second-term dimension is len(representatives), one per cycle pivot
    that is not a boundary pivot, so its boundary dimension is
    cycle_dim - len(representatives)."""

    e1_dim: int
    cycle_dim: int
    representatives: list[Element]

    @property
    def boundary_dim(self) -> int:
        return self.cycle_dim - len(self.representatives)


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
        return sum(len(w.representatives) for w in self.weights.values())

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
                    "e2": len(w.representatives),
                    "reps": [r.text() for r in w.representatives],
                }
                for u, w in sorted(self.weights.items())
            ],
        }


def summary_to_report(ctx: PrimeContext, s: int, t: int, data: dict) -> E2Report:
    """The record of (s, t) rebuilt from data, its serialized form.
    ValueError unless data is exactly what that record serializes and each
    weight has an integer u and counts with e1 >= cycles >= boundaries >= 0.
    A value rewritten so that it stays consistent passes: only a checksum,
    not in the format, would catch it."""
    weights = {}
    for e in data["weights"]:
        reps = [parse_element(x, ctx) for x in e["reps"]]
        weights[e["u"]] = WeightBlock(e["e1"], e["cycles"], reps)
    report = E2Report(s, t, ctx.p, weights)
    if report.serialize() != data or not all(
        {type(n) for n in (u, w.e1_dim, w.cycle_dim)} == {int}
        and w.e1_dim >= w.cycle_dim >= w.boundary_dim >= 0
        for u, w in weights.items()
    ):
        raise ValueError("the value disagrees with the record it rebuilds")
    return report


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


def _boundaries(
    ctx: PrimeContext, coding: Coding, source: Block | None, block: Block, where: str
) -> dict[int, Row]:
    """The d1 boundaries in block, a weight block u of (s, t): the echelon
    rows of the d1 images of source, block u + 1 of (s - 1, t), keyed by
    pivot."""
    rows, pivots = echelon(_d1_rows(ctx, coding, source, block, where), ctx.p)
    return dict(zip(pivots, rows))


def cell_homology(column: Column, s: int) -> E2Report:
    """The second-term record of (s, t), t the internal degree of column:
    per weight, the dimensions and the representatives.

    The coded bases come from column, which reads (s + 1, t) and (s - 1, t)
    in the search of (s, t), and only when (s, t) has blocks; only then is
    the column's coding read.  Each weight's boundary rows are formed once,
    from that read's (s - 1, t), and dropped with the record done.  s and t
    are not negative."""
    ctx, t = column.ctx, column.t
    p = ctx.p
    cells = column.read((s, s + 1, s - 1))
    here = next(cells)
    if not here:
        return E2Report(s, t, p, {})
    above, below = cells
    coding = column.coding

    weights = {}
    for u, block in here.items():
        boundary = _boundaries(ctx, coding, below.get(u + 1), block, f"({s},{t},{u})")
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
        reps = [
            Element(p, {block.keys[col]: v for col, v in sorted(z.items())})
            for c, z in cyc.items() if c not in boundary
        ]
        weights[u] = WeightBlock(len(block.keys), len(cycles), reps)
    return E2Report(s, t, p, weights)


def e2_rank(column: Column, s: int, elems: list[Element]) -> int:
    """Dimension of the span of the weight components of elems, elements of
    bidegree (s, t), t the internal degree of column, modulo the d1
    boundaries: for cycles of one weight each, the rank of their span in
    the second term.  A component is reduced against the boundary rows of
    its weight, formed once per call for each weight the elements meet;
    (s - 1, t) is read only when (s, t) has blocks.  AssertionError on a
    term with no block or basis monomial."""
    ctx, t = column.ctx, column.t
    cells = column.read((s, s - 1))
    here = next(cells)
    below = next(cells) if here else {}
    cells.close()
    built: dict[int, tuple[dict[Factors, int], dict[int, Row]]] = {}
    by_weight: dict[int, list[Row]] = {}
    for elem in elems:
        groups: dict[int, dict[Factors, int]] = {}
        for m in elem.monomials():
            groups.setdefault(m.tridegree(ctx).u, {})[m.factors] = m.coeff
        for u, terms in sorted(groups.items()):
            where = f"({s},{t},{u})"
            if u not in here:
                first = Monomial(min(terms), terms[min(terms)]).text()
                raise AssertionError(f"term {first} has no block at {where}")
            got = built.get(u)
            if got is None:
                block = here[u]
                index = {key: k for k, key in enumerate(block.keys)}
                boundary = _boundaries(ctx, column.coding, below.get(u + 1), block, where)
                got = built[u] = (index, boundary)
            index, boundary = got
            vec = reduce_vector(_vector(terms, index, where), boundary, ctx.p)
            by_weight.setdefault(u, []).append(vec)
    return sum(len(echelon(rows, ctx.p)[1]) for rows in by_weight.values())
