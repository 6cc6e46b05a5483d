"""First differential, linear algebra mod p, and second-term dimensions."""

import functools
import hashlib
import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mayext import may_core, may_diff
from mayext.may_core import (
    Element,
    InvalidParams,
    Monomial,
    PrimeContext,
    WorkBudgetExceeded,
    a,
    b,
    generators_bounded,
    h,
    multiply,
    parse_element,
    tridegree,
)
from mayext.may_diff import (
    SCHEMA_VERSION,
    d1,
    d1_generator,
    e2_rank,
    echelon,
    kernel,
    reduce_mod_boundaries,
    reduce_vector,
)
from mayext.session import Session

from test_may_core import fresh_basis, monomials, read_column

C5 = PrimeContext(5)
C7 = PrimeContext(7)


def fresh_record(ctx, s, t):
    """The record of (s, t) from a fresh session."""
    return Session(ctx).report(s, t)


def dense_echelon(rows, p):
    """Gauss-Jordan on dense rows, first-nonzero pivoting in column order:
    the elimination may_diff used before its rows were sparse, kept as the
    reference for the sparse one.  Returns (rows, pivot columns)."""
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    pivots = []
    r = 0
    for col in range(len(mat[0])):
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


def dense_reduce(vec, ech, pivots, p):
    out = [v % p for v in vec]
    for row, col in zip(ech, pivots):
        c = out[col]
        if c:
            out = [(v - c * w) % p for v, w in zip(out, row)]
    return out


def sparse(vec):
    return {col: v for col, v in enumerate(vec) if v}


def dense(row, width):
    return [row.get(col, 0) for col in range(width)]


@st.composite
def matrices(draw, p, max_rows=7):
    """(rows, width): a dense matrix with entries in [0, 2p), half zeros."""
    width = draw(st.integers(min_value=1, max_value=7))
    entry = st.one_of(st.just(0), st.integers(min_value=0, max_value=2 * p - 1))
    rows = draw(st.lists(st.lists(entry, min_size=width, max_size=width), max_size=max_rows))
    return rows, width


@given(st.sampled_from([3, 5, 7]), st.data())
@settings(max_examples=200, deadline=None)
def test_echelon_is_the_dense_rref(p, data):
    rows, width = data.draw(matrices(p))
    ech, pivots = echelon([sparse(r) for r in rows], p)
    want, want_pivots = dense_echelon(rows, p)
    assert pivots == want_pivots
    assert ech == [sparse(r) for r in want]


@given(st.sampled_from([3, 5, 7]), st.data())
@settings(max_examples=200, deadline=None)
def test_kernel_annihilates_and_is_reduced(p, data):
    rows, width = data.draw(matrices(p))
    ker = kernel([sparse(r) for r in rows], p, len(rows))
    assert len(ker) == len(rows) - len(dense_echelon(rows, p)[1])
    for v in ker:
        assert all(
            sum(c * rows[i][col] for i, c in v.items()) % p == 0 for col in range(width)
        )
    assert echelon(ker, p)[0] == ker


@given(st.sampled_from([3, 5, 7]), st.data())
@settings(max_examples=200, deadline=None)
def test_pivot_filter_is_cycles_mod_boundaries(p, data):
    # cell_homology's representatives: the rows of the cycle echelon whose
    # pivot is no boundary pivot, against reducing each cycle row modulo
    # the boundaries and echelonizing what is left, on dense rows
    cycles, width = data.draw(matrices(p))
    combos = data.draw(
        st.lists(st.lists(st.integers(0, p - 1), min_size=len(cycles), max_size=len(cycles)))
    )
    boundaries = [
        [sum(c * r[col] for c, r in zip(combo, cycles)) % p for col in range(width)]
        for combo in combos
    ]
    z_ech, _ = echelon([sparse(r) for r in cycles], p)
    b_ech, b_piv = echelon([sparse(r) for r in boundaries], p)
    filtered = [z for z in z_ech if min(z) not in b_piv]

    dz, _ = dense_echelon(cycles, p)
    db, db_piv = dense_echelon(boundaries, p)
    reduced = [dense_reduce(v, db, db_piv, p) for v in dz]
    want, _ = dense_echelon([v for v in reduced if any(v)], p)
    assert [dense(z, width) for z in filtered] == want
    assert len(filtered) == len(z_ech) - len(b_ech)


C3 = PrimeContext(3)
# p=3 cells of at most 9 monomials with boundaries in two or more weights
E2_RANK_CELLS = [(5, 55), (6, 29), (6, 52), (6, 55), (6, 57)]


@functools.cache
def rank_cell(s, t):
    """The boundary data of a p=3 cell; its columns, per weight the basis
    factors in canonical order; the d1 images of the cell below; and the
    elements to draw from: basis monomials, representatives and those
    images."""
    session = Session(C3)
    reps = session.report(s, t).representatives
    basis = session.basis(s, t)
    columns = {}
    for m in basis:
        columns.setdefault(m.tridegree(C3).u, []).append(m.factors)
    images = [d1(m, C3) for m in session.basis(s - 1, t)]
    pool = [Element.from_monomials(C3, [m]) for m in basis] + reps + images
    return session.boundaries(s, t), columns, images, pool


def dense_rank_mod(elems, boundaries, columns, p):
    """Per weight, rank(boundaries + elems) - rank(boundaries) on dense rows."""
    total = 0
    for keys in columns.values():
        b = [[x._terms.get(k, 0) for k in keys] for x in boundaries]
        e = [[x._terms.get(k, 0) for k in keys] for x in elems]
        total += len(dense_echelon(b + e, p)[1]) - len(dense_echelon(b, p)[1])
    return total


@given(st.sampled_from(E2_RANK_CELLS), st.data())
@settings(max_examples=200, deadline=None)
def test_e2_rank_is_the_dense_rank_mod_boundaries(cell, data):
    boundaries, columns, images, pool = rank_cell(*cell)
    terms = st.tuples(st.integers(0, len(pool) - 1), st.integers(1, 2))
    elems = []
    for combo in data.draw(st.lists(st.lists(terms, min_size=1, max_size=3), max_size=5)):
        x = Element.zero(C3)
        for i, c in combo:
            x = x + pool[i].scaled(c)
        elems.append(x)
    assert e2_rank(boundaries, elems) == dense_rank_mod(elems, images, columns, 3)


class TestLinearAlgebra:
    def test_echelon_identity(self):
        rows, pivots = echelon([{0: 1}, {1: 1}], 5)
        assert rows == [{0: 1}, {1: 1}]
        assert pivots == [0, 1]

    def test_echelon_dependent_rows(self):
        rows, pivots = echelon([{0: 1, 1: 2, 2: 3}, {0: 2, 1: 4, 2: 6}, {1: 1, 2: 1}], 5)
        assert pivots == [0, 1]
        assert len(rows) == 2
        # reduced form: pivot columns are cleared above and below
        assert rows[0].get(1, 0) == 0

    def test_rank(self):
        def rank(rows, p):
            return len(echelon(rows, p)[1])

        assert rank([{0: 2, 1: 4}, {0: 1, 1: 2}], 5) == 1
        assert rank([{0: 2, 1: 4}, {0: 1, 1: 3}], 5) == 2
        assert rank([], 5) == 0
        # rank depends on the prime: [[5]] is zero mod 5
        assert rank([{0: 5}], 5) == 0
        assert rank([{0: 5}], 7) == 1

    def test_kernel_of_dependent_rows(self):
        # 2*row0 - row1 = 0 mod 5
        rows = [{0: 1, 1: 2}, {0: 2, 1: 4}]
        ker = kernel(rows, 5, 2)
        assert len(ker) == 1
        v = ker[0]
        combo = [
            (v.get(0, 0) * rows[0][k] + v.get(1, 0) * rows[1][k]) % 5 for k in range(2)
        ]
        assert combo == [0, 0]

    def test_reduce_vector_against_echelon(self):
        ech, piv = echelon([{0: 1, 2: 2}], 5)
        assert reduce_vector({0: 3, 1: 1, 2: 6}, dict(zip(piv, ech)), 5) == {1: 1}


class TestD1OnGenerators:
    def test_b_and_bottom_generators_are_cycles(self):
        for g in [b(1, 0), b(2, 1), a(0), h(1, 0), h(1, 3)]:
            assert d1(g, C5).is_zero

    def test_h_two_term(self):
        assert d1(h(2, 0), C5) == parse_element("h[1,0] h[1,1]", C5)
        assert d1(h(2, 1), C5) == parse_element("h[1,1] h[1,2]", C5)

    def test_a_two(self):
        assert d1(a(2), C7) == parse_element("6 a0 h[2,0] + 6 a1 h[1,1]", C7)

    def test_table_holds_reached_generators_unchanged(self):
        # a column's coding keeps the d1 term table of each generator a d1
        # image on its codes reached: the generators of the cell's
        # monomials and of the monomials below whose images are boundaries
        session = Session(C3)
        first = session.report(6, 55).serialize()
        column = session.columns[55]
        here, below = column.cells[6], column.cells[5]
        sources = list(here.values()) + [
            below[u + 1] for u in here if u + 1 in below
        ]
        reached = {g for blk in sources for key in blk.keys for g, _ in key}
        tables = column.coding.d1_terms
        assert set(tables) == reached and a(1) in reached
        before = {g: list(table) for g, table in tables.items()}
        # a second computation of the record reuses the same tables, and no
        # use changes them
        session.memo.clear()
        session.boundary_memo.clear()
        assert session.report(6, 55).serialize() == first
        assert {g: list(table) for g, table in tables.items()} == before
        # d1 on an element codes it afresh: repeated images are equal
        x = parse_element("a2^2 h[3,0] + 3 a1 h[2,0] b[1,0]", C7)
        image = d1(x, C7)
        assert d1(x, C7) + d1(d1(x, C7), C7) == image
        assert d1_generator(a(2), C7) == parse_element("6 a0 h[2,0] + 6 a1 h[1,1]", C7)

    def test_context_is_a_plain_value(self):
        # no computation leaves state on the context: per-generator tables
        # live in the session's columns
        ctx = PrimeContext(7)
        Session(ctx).report(6, 588)
        d1(parse_element("a2^2 h[3,0] + 3 a1 h[2,0] b[1,0]", ctx), ctx)
        assert vars(ctx) == {"p": 7, "q": 12}

    def test_degree_shift(self):
        # image sits one filtration up, same t, one weight down
        for g in [h(2, 0), h(3, 1), a(1), a(2)]:
            img = d1(g, C5)
            assert not img.is_zero
            d = tridegree(g, C5)
            assert tridegree(img, C5) == (d.s + 1, d.t, d.u - 1)

    def test_five_factor_boundary(self):
        # pins the single-term image that kills the six-factor product cell
        x = parse_element("h[1,0] h[1,2] h[2,0] h[2,1] h[4,0]", C7)
        m = parse_element("6 h[1,0] h[1,2] h[1,3] h[2,0] h[2,1] h[3,0]", C7)
        assert d1(x, C7) == m


@given(st.sampled_from([3, 5, 7]), st.data())
@settings(max_examples=334, deadline=None)
def test_d1_squares_to_zero(p, data):
    ctx = PrimeContext(p)
    m = data.draw(monomials(p))
    assert d1(d1(m, ctx), ctx).is_zero


@given(st.sampled_from([3, 5, 7]), st.data())
@settings(max_examples=150, deadline=None)
def test_derivation_law(p, data):
    ctx = PrimeContext(p)
    x = data.draw(monomials(p))
    y = data.draw(monomials(p))
    sign = -1 if x.parity else 1
    lhs = d1(multiply(x, y, ctx), ctx)
    rhs = multiply(d1(x, ctx), y, ctx) + multiply(x, d1(y, ctx), ctx).scaled(sign)
    assert lhs == rhs


class TestCellHomology:
    def test_single_class_cell(self):
        cell = fresh_record(C7, 1, 588)
        assert cell.e1_total == 1
        assert cell.e2_total == 1

    def test_bad_bidegree(self):
        with pytest.raises(InvalidParams):
            fresh_record(C7, -1, 10)

    def test_weight_blocks_partition_basis(self):
        cell = fresh_record(C3, 6, 55)
        basis = fresh_basis(C3, 6, 55)
        assert cell.e1_total == len(basis) > 0
        assert list(cell.weights) == sorted(cell.weights)
        by_u = Counter(m.tridegree(C3).u for m in basis)
        assert {u: blk.e1_dim for u, blk in cell.weights.items()} == by_u

    def test_term_outside_the_basis_is_named(self):
        # h[1,1] and h[1,2] share the weight of (1,8) but not its t; the
        # first in canonical order is named, with its coefficient
        data = Session(C5).boundaries(1, 8)
        elem = parse_element("4 h[1,2] + 3 h[1,1] + h[1,0]", C5)
        with pytest.raises(AssertionError) as err:
            reduce_mod_boundaries(data, elem)
        assert str(err.value) == "term 3 h[1,1] missing from basis of (1,8,1)"
        inside = parse_element("2 h[1,0]", C5)
        assert reduce_mod_boundaries(data, inside) == inside


class TestBoundaryBlocks:
    def test_blocks_are_built_per_weight_on_first_read(self, monkeypatch):
        # p=3 (6,55) has weights 6, 9, 13, 14 and 17; the boundary rows of
        # a block are the d1 rows formed with `where` naming (6,55,u)
        formed = []
        real_rows = may_diff._d1_rows

        def counting_rows(ctx, coding, source, target, where):
            formed.append(where)
            return real_rows(ctx, coding, source, target, where)

        monkeypatch.setattr(may_diff, "_d1_rows", counting_rows)
        basis = {}
        for m in fresh_basis(C3, 6, 55):
            basis.setdefault(m.tridegree(C3).u, Element.from_monomials(C3, [m]))
        assert sorted(basis) == [6, 9, 13, 14, 17]
        session = Session(C3)
        data = session.boundaries(6, 55)
        assert formed == []
        e2_rank(data, [basis[9], basis[13] + basis[9]])
        reduce_mod_boundaries(data, basis[17])
        e2_rank(data, [basis[13]])
        assert formed == ["(6,55,9)", "(6,55,13)", "(6,55,17)"]
        # the record builds the remaining weights, and none twice
        want = fresh_record(C3, 6, 55).serialize()
        formed.clear()
        assert session.report(6, 55).serialize() == want
        rest = Counter(w for w in formed if w.startswith("(6,55,"))
        assert rest == {"(6,55,6)": 1, "(6,55,14)": 1}
        assert session.boundaries(6, 55) is data


class TestBasisMemo:
    @pytest.fixture()
    def built(self, monkeypatch):
        # what columns build, one entry each: ("gens", t) per generator
        # list, ("coding",) per coding and ("cell", s, t) per enumerated cell
        built = []
        real_gens, real_search = may_core.generators_bounded, may_core._search

        def counting_gens(ctx, t_max):
            built.append(("gens", t_max))
            return real_gens(ctx, t_max)

        class CountingCoding(may_core.Coding):
            __slots__ = ()

            def __init__(self, widths):
                built.append(("coding",))
                super().__init__(widths)

        def counting_search(column):
            find, close = real_search(column)

            def counting_find(s):
                built.append(("cell", s, column.t))
                return find(s)

            return counting_find, close

        monkeypatch.setattr(may_core, "generators_bounded", counting_gens)
        monkeypatch.setattr(may_core, "Coding", CountingCoding)
        monkeypatch.setattr(may_core, "_search", counting_search)
        return built

    def test_session_enumerates_each_cell_once(self, built):
        # one generator list and one coding per column, across records; (3,
        # 60) is empty without a search (test_cell_past_its_a_count_needs_no_search)
        session = Session(C5)
        low, high = session.report(3, 60), session.report(4, 60)
        session.boundaries(5, 60)
        cells = {("cell", s, 60): 1 for s in (4, 5)}
        assert Counter(built) == {("gens", 60): 1, ("coding",): 1, **cells}
        assert low.serialize() == fresh_record(C5, 3, 60).serialize()
        assert high.serialize() == fresh_record(C5, 4, 60).serialize()

    def test_call_without_a_memo_enumerates_its_three_cells(self, built):
        # no column outlives its session, so nothing hides a change of
        # enumeration order from a fresh session on the same context
        Session(C5).report(5, 100)
        Session(C5).report(5, 100)
        cells = {("cell", s, 100): 2 for s in (4, 5, 6)}
        assert Counter(built) == {("gens", 100): 2, ("coding",): 2, **cells}

    def test_one_generator_list_per_column(self, built):
        # the three cells of a record share one generator list and one
        # search; a record whose cells the column holds builds nothing
        session = Session(C3)
        session.report(6, 55)
        want = [("gens", 55), ("cell", 6, 55), ("coding",), ("cell", 7, 55), ("cell", 5, 55)]
        assert built == want
        session.memo.clear()
        session.report(6, 55)
        assert built == want

    def test_bases_and_records_share_one_column(self, built):
        # a basis read first leaves its cell in the session's column, and
        # the record of the same bidegree reads that cell, not a new one
        session = Session(C3)
        basis = session.basis(6, 55)
        cell = session.columns[55].cells[6]
        rep = session.report(6, 55)
        assert session.columns[55].cells[6] is cell
        assert list(session.columns) == [55]
        assert Counter(built)[("cell", 6, 55)] == 1
        assert rep.e1_total == len(basis) == 9

    @pytest.mark.parametrize("table_bits", [None, 0], ids=["table", "memoised"])
    def test_refused_basis_leaves_the_column_usable(self, table_bits, monkeypatch):
        # a cell refused by the step budget is not kept: once the budget is
        # back, the same session answers as a fresh one, for that cell and
        # for the record of a lower cell, which reads it as a neighbour
        if table_bits is not None:
            monkeypatch.setattr(may_core, "_REACH_TABLE_BITS", table_bits)
        budget = may_core.MAX_ENUMERATION_STEPS
        session = Session(C3)
        monkeypatch.setattr(may_core, "MAX_ENUMERATION_STEPS", 10)
        with pytest.raises(WorkBudgetExceeded):
            session.basis(6, 55)
        assert 6 not in session.columns[55].cells
        monkeypatch.setattr(may_core, "MAX_ENUMERATION_STEPS", budget)
        fresh = Session(C3)
        assert session.basis(6, 55) == fresh.basis(6, 55)
        assert session.report(5, 55).serialize() == fresh.report(5, 55).serialize()

    def test_e1_empty_record_reads_only_its_cell(self, built):
        # (1, 8) holds h[1,0], but the record of the empty (2, 8) does not
        # read it or (3, 8), builds no coding and needs no boundary data
        session = Session(C5)
        assert session.report(2, 8).serialize()["weights"] == []
        assert built == [("gens", 8), ("cell", 2, 8)]
        assert list(session.columns[8].cells) == [2]
        assert session.boundary_memo == {}
        assert session.report(1, 8).e1_total == 1

    def test_cell_past_its_a_count_needs_no_search(self, built):
        # t = 60 is 4 mod q = 8, so a monomial of (3, 60) would need at least
        # four a's: the column builds no generator list for it
        session = Session(C5)
        assert session.report(3, 60).e1_total == 0
        assert built == []
        assert session.report(4, 60).e1_total == 1
        assert built[0] == ("gens", 60)


class TestE2At:
    def test_record_pinned_at_dense_elimination(self):
        # sha256 of the record that dense elimination produced at p=3
        # (16,160), 17 representatives: sparse rows change no output
        data = fresh_record(PrimeContext(3), 16, 160).serialize()
        assert sum(len(w["reps"]) for w in data["weights"]) == 17
        blob = json.dumps(data, sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == (
            "d51ae4229adcde270fe24c92eff534634a1ebac16fddc2853111ee1c2f804a98"
        )

    def test_three_class_cell_dies(self):
        # three chains, all cycles killed by boundaries or non-cycles
        rep = fresh_record(C7, 5, 29413)
        assert rep.e1_total == 3
        assert rep.e2_total == 0

    def test_survivor_with_representative(self):
        rep = fresh_record(C7, 1, 588)
        assert rep.e2_total == 1
        (blk,) = rep.weights.values()
        assert [r.text() for r in blk.representatives] == ["h[1,2]"]

    def test_six_factor_cell_has_one_survivor(self):
        rep = fresh_record(C7, 6, 6168)
        by_u = {u: w.e2_dim for u, w in rep.weights.items() if w.e1_dim}
        assert by_u == {14: 0, 21: 0, 33: 0, 45: 1}
        assert rep.weights[14].e1_dim == 2
        assert rep.weights[14].boundary_dim == 2

    def test_reverse_enumeration_invariance(self, reversed_generators):
        for s, t in [(4, 60), (4, 100), (2, 588), (5, 29413), (3, 4128)]:
            ctx = C7 if t > 500 else C5
            fwd = fresh_record(ctx, s, t)
            with reversed_generators() as calls:
                rev = fresh_record(ctx, s, t)
            assert calls
            assert fwd.e2_total == rev.e2_total
            assert {u: w.e2_dim for u, w in fwd.weights.items()} == {
                u: w.e2_dim for u, w in rev.weights.items()
            }

    @pytest.mark.parametrize(
        "p, s_max, t_max, digest",
        [
            (3, 12, 120, "81728f5df15c830e34fb1beeb0211ab6857d4eca99c929f66a576bbe91bbce00"),
            (5, 6, 420, "3c1b1f26fceb57ff852ad918f2d88fbd20dd919e9c8ec29b43dadebd86ab3e69"),
            (7, 4, 700, "fc192f0ebd4f98470c2e8f42651b731ac08bd4d1ec890313716c35abea35f148"),
        ],
    )
    def test_grid_records_pinned(self, p, s_max, t_max, digest):
        # sha256 over every record of the grid, s then t ascending, read
        # through one session: pinned before d1 was formed on codes
        session = Session(PrimeContext(p))
        blob = hashlib.sha256()
        for s in range(s_max + 1):
            for t in range(t_max + 1):
                data = session.report(s, t).serialize()
                blob.update(json.dumps(data, sort_keys=True).encode() + b"\n")
        assert blob.hexdigest() == digest

    def test_representatives_are_cycles(self):
        rep = fresh_record(C5, 3, 60)
        for blk in rep.weights.values():
            for r in blk.representatives:
                assert d1(r, C5).is_zero

    def test_serialize_shape(self):
        data = fresh_record(C7, 1, 588).serialize()
        assert data["schema"] == SCHEMA_VERSION
        assert data["p"] == 7
        assert data["e1"] == 1 and data["e2"] == 1
        (w,) = data["weights"]
        assert w["reps"] == ["h[1,2]"]
        assert w["cycles"] - w["boundaries"] == w["e2"]


@pytest.mark.parametrize("p, t_max", [(3, 48), (5, 80)])
def test_euler_characteristic_per_weight_complex(p, t_max):
    # d1 has tridegree (1, 0, -1), so for fixed t and w = s + u the cells
    # (s, t, w - s) form one finite complex, whose Euler characteristic is
    # the same at the first and the second term; this checks every rank
    ctx = PrimeContext(p)
    for t in range(t_max + 1):
        chi1, chi2 = Counter(), Counter()
        # every generator has t >= s, so no cell with s > t is inhabited
        for s in range(t + 1):
            for u, blk in fresh_record(ctx, s, t).weights.items():
                chi1[s + u] += (-1) ** s * blk.e1_dim
                chi2[s + u] += (-1) ** s * blk.e2_dim
        assert chi1 == chi2, f"p={p}, t={t}"


def e1_counts(ctx, s_max, t_max):
    """rows[t][(s, u)]: the number of first-term monomials of tridegree
    (s, t, u), for s <= s_max and t <= t_max.  These are the coefficients
    of prod (1 + x^|h|) prod (1 - x^|a|)^-1 prod (1 - x^|b|)^-1, taken
    by one knapsack pass over the generators."""
    rows = [{} for _ in range(t_max + 1)]
    rows[0][(0, 0)] = 1
    for g, (ds, dt, du) in generators_bounded(ctx, t_max):
        # descending t takes an exterior h at most once; ascending t
        # lets an a or b add to what it already reached
        order = range(t_max - dt, -1, -1) if g.is_odd else range(t_max - dt + 1)
        for t in order:
            target = rows[t + dt]
            for (s, u), n in list(rows[t].items()):
                if s + ds <= s_max:
                    key = (s + ds, u + du)
                    target[key] = target.get(key, 0) + n
    return rows


@pytest.mark.parametrize("p, s_max, t_max", [(3, 12, 100), (7, 6, 700)])
def test_weight_blocks_match_the_e1_count(p, s_max, t_max):
    # the first-term Poincare series, keyed by weight, against the block
    # sizes of every cell in range: this guards the grouping by weight
    ctx = PrimeContext(p)
    rows = e1_counts(ctx, s_max, t_max)
    inhabited = 0
    for t in range(t_max + 1):
        for s in range(s_max + 1):
            want = {u: n for (s2, u), n in rows[t].items() if s2 == s}
            got = {u: blk.e1_dim for u, blk in fresh_record(ctx, s, t).weights.items()}
            assert got == want, f"p={p}, ({s},{t})"
            inhabited += bool(want)
    assert inhabited > 400


def block_rows_by_d1(ctx, blocks, target, u):
    """The d1 rows of block u of the cell `blocks` over block u - 1 of the
    cell `target`, from the public d1 and the target's factor tuples."""
    keys = target[u - 1].keys if u - 1 in target else []
    index = {key: k for k, key in enumerate(keys)}
    return [
        {index[k]: c for k, c in d1(Monomial(key), ctx)._terms.items()}
        for key in blocks[u].keys
    ]


class TestCodedKernel:
    """d1 rows formed on the packed exponent codes of a column."""

    @pytest.mark.parametrize("s", range(1, 9))
    def test_rows_match_d1_at_high_exponents(self, s):
        # p=3 cells from a0^s at (s, s) on, whose targets hold a0^(s+1) at
        # (s+1, s+1) and powers of a0 next to a1, h[1,0] and b[1,0]: the
        # rows on codes equal the public d1 on factor tuples
        for t in range(s, s + 13):
            col, cells = read_column(C3, t, [s, s + 1])
            here, above = cells[s], cells[s + 1]
            for u, block in here.items():
                rows = may_diff._d1_rows(C3, col.coding, block, above.get(u - 1), "")
                assert rows == block_rows_by_d1(C3, here, above, u), (s, t, u)
        (block,) = read_column(C3, s, [s])[1][s].values()
        assert block.keys == [((a(0), s),)]
        assert block.codes == [s]

    def test_full_digit(self):
        # the digit of a0 at t = 7 is 3 bits wide, and a0^7 fills it
        coding = read_column(C3, 7, [7])[0].coding
        assert coding.offset[a(0)] == 0 and coding.width[a(0)] == 3
        assert coding.encode(((a(0), 7),)) == 0b111
        assert coding.decode(0b111) == ((a(0), 7),)
        # the next digit starts above it
        assert coding.offset[coding.gens[1]] == 3

    def test_exterior_zero_terms_with_absent_generators(self):
        # d1 h[4,0] = -h[2,2] h[2,0] - h[3,0] h[1,3] - ...  on h[1,3] h[2,0]
        # h[4,0] at p=5 (3,2296): the first two terms repeat an h, and their
        # h[2,2] and h[3,0] occur in no monomial of (4,2296).  A coding built
        # from the generators of the bases alone cannot code them
        _, cells = read_column(C5, 2296, [3, 4])
        (block,) = cells[3].values()
        assert [Monomial(key).text() for key in block.keys] == ["h[1,3] h[2,0] h[4,0]"]
        occurring = {g for blk in cells[4].values() for key in blk.keys for g, _ in key}
        assert h(2, 2) not in occurring and h(3, 0) not in occurring
        terms = d1_generator(h(4, 0), C5)._terms
        assert ((h(2, 0), 1), (h(2, 2), 1)) in terms
        assert ((h(1, 3), 1), (h(3, 0), 1)) in terms
        data = fresh_record(C5, 3, 2296).serialize()
        assert (data["e1"], data["e2"]) == (1, 0)
        blob = json.dumps(data, sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == (
            "297edd073f9893a82c9188df1d9a52ed3de9e74e2abe8a45b6eb7e0a5889a200"
        )

    @pytest.mark.parametrize(
        "p, s, t", [(3, 8, 56), (3, 12, 96), (5, 3, 2296), (5, 4, 100), (7, 3, 4128)]
    )
    def test_codes_under_generator_reversal(self, reversed_generators, p, s, t):
        # ranks are canonical positions, not positions in the list the
        # search walks, so a reversed list gives the same codes and records
        ctx = PrimeContext(p)
        ss = [s, s + 1, s - 1]
        fwd_col, fwd = read_column(ctx, t, ss)
        # (2, q) is empty, but t = q mod q, so its column searches for it
        fwd_empty, _ = read_column(ctx, ctx.q, [2])
        record = fresh_record(ctx, s, t).serialize()
        with reversed_generators() as calls:
            rev_col, rev = read_column(ctx, t, ss)
            rev_empty, _ = read_column(ctx, ctx.q, [2])
            assert fresh_record(ctx, s, t).serialize() == record
        assert calls == [t, ctx.q, t]
        # an all-empty column builds no coding
        assert fwd_empty._coding is None and rev_empty._coding is None
        assert fwd_empty.gens is not None and rev_empty.gens is not None
        assert any(fwd.values())
        assert rev_col.coding.gens == fwd_col.coding.gens
        assert rev_col.coding.offset == fwd_col.coding.offset
        for x in fwd:
            assert {u: (blk.keys, blk.codes) for u, blk in rev[x].items()} == {
                u: (blk.keys, blk.codes) for u, blk in fwd[x].items()
            }

    def test_missing_d1_term_is_named(self):
        # a target block that lacks terms of a d1 image: the row names the
        # first of them in canonical order, with its coefficient
        session = Session(C3)
        session.report(6, 55)
        column = session.columns[55]
        here, above = column.cells[6], column.cells[7]
        u, first = next(
            (u, blk.keys[0]) for u, blk in here.items()
            if len(d1(Monomial(blk.keys[0]), C3)._terms) >= 2
        )
        image = d1(Monomial(first), C3)._terms
        dropped = sorted(image)[-2:]
        target = above[u - 1]
        kept = [(k, c) for k, c in zip(target.keys, target.codes) if k not in dropped]
        column.cells[7] = {
            **above,
            u - 1: may_core.Block([k for k, _ in kept], [c for _, c in kept]),
        }
        session.memo.clear()
        with pytest.raises(AssertionError) as err:
            session.report(6, 55)
        named = Monomial(dropped[0], image[dropped[0]]).text()
        assert str(err.value) == f"term {named} missing from basis of (7,55,{u - 1})"
