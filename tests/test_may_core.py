"""Generator arithmetic, canonical monomials, and basis enumeration."""

import copy
import itertools
import math
import pickle
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mayext import may_core
from mayext.may_core import (
    KIND_A,
    KIND_B,
    KIND_H,
    Element,
    Generator,
    InvalidParams,
    Monomial,
    ParseError,
    PrimeContext,
    WorkBudgetExceeded,
    a,
    b,
    generators_bounded,
    h,
    multiply,
    parse_element,
    parse_monomial,
    product,
    tridegree,
)
from mayext.session import Session

C3 = PrimeContext(3)
C5 = PrimeContext(5)
C7 = PrimeContext(7)


class TestPrimeContext:
    def test_q_is_twice_p_minus_one(self):
        assert C3.q == 4
        assert C5.q == 8
        assert C7.q == 12
        assert PrimeContext(11).q == 20

    @pytest.mark.parametrize("bad", [2, 4, 9, 1, 0, -3, 15])
    def test_rejects_non_odd_primes(self, bad):
        with pytest.raises(InvalidParams):
            PrimeContext(bad)

    def test_rejects_non_integers(self):
        with pytest.raises(InvalidParams):
            PrimeContext("5")

    def test_primality_agrees_with_trial_division(self):
        def trial(n):
            return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

        assert [n for n in range(10**5) if may_core._is_prime(n) != trial(n)] == []

    @pytest.mark.parametrize("n", [3215031751, 3825123056546413051])
    def test_rejects_strong_pseudoprimes(self, n):
        # strong pseudoprimes to the bases up to 7 and up to 23
        assert not may_core._is_prime(n)
        with pytest.raises(InvalidParams):
            PrimeContext(n)

    def test_prime_budget(self):
        assert PrimeContext((1 << 64) - 59).q == (1 << 65) - 120
        with pytest.raises(WorkBudgetExceeded):
            PrimeContext((1 << 64) + 13)


class TestTridegrees:
    def test_a_family(self):
        assert tridegree(a(0), C5) == (1, 1, 1)
        assert tridegree(a(1), C5) == (1, 9, 3)
        assert tridegree(a(2), C5) == (1, 49, 5)
        assert tridegree(a(2), C7) == (1, 97, 5)

    def test_h_family(self):
        # t = 2(p^i - 1)p^j, u = 2i - 1
        assert tridegree(h(1, 0), C5) == (1, 8, 1)
        assert tridegree(h(1, 2), C5) == (1, 200, 1)
        assert tridegree(h(2, 1), C5) == (1, 240, 3)
        assert tridegree(h(1, 0), C7) == (1, 12, 1)

    def test_b_family(self):
        # filtration 2, one extra p on t, u scaled by p
        assert tridegree(b(1, 0), C5) == (2, 40, 5)
        assert tridegree(b(2, 1), C3) == (2, 144, 9)
        assert tridegree(b(1, 1), C7) == (2, 588, 7)

    def test_monomial_degree_is_sum(self):
        m = Monomial.build([(a(0), 2), (h(1, 0), 1), (b(1, 0), 1)])
        assert m.tridegree(C5) == (1 + 1 + 1 + 2, 1 + 1 + 8 + 40, 1 + 1 + 1 + 5)

    def test_generator_validation(self):
        with pytest.raises(InvalidParams):
            a(-1)
        with pytest.raises(InvalidParams):
            h(0, 0)
        with pytest.raises(InvalidParams):
            b(1, -1)
        with pytest.raises(InvalidParams):
            Generator(7, 1, 0)


class TestGenerator:
    @pytest.mark.parametrize("ctx, t_max", [(C3, 400), (C5, 2000), (C7, 10**6)])
    def test_order_is_kind_i_j(self, ctx, t_max):
        gens = generators_below(ctx, t_max)
        by_fields = sorted(gens, key=lambda g: (g.kind, g.i, g.j))
        assert gens == by_fields
        assert sorted(gens[::-1]) == by_fields

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_list_is_every_generator_up_to_t(self, p):
        # against validated generators over a box of indices, at every t
        # where the list grows and one below it; the degrees it pairs them
        # with are the generators' own
        ctx = PrimeContext(p)
        box = [Generator(KIND_A, i) for i in range(12)] + [
            Generator(kind, i, j) for kind in (KIND_H, KIND_B)
            for i in range(1, 12) for j in range(12)
        ]
        t_max = 2 * p**6
        edges = sorted({g.tridegree(ctx).t for g in box if g.tridegree(ctx).t <= t_max})
        for t in [0] + [e + d for e in edges for d in (-1, 0)]:
            pairs = generators_bounded(ctx, t)
            gens = [g for g, _ in pairs]
            assert gens == sorted(g for g in box if g.tridegree(ctx).t <= t)
            assert all(type(g) is Generator for g in gens)
            assert all(type(d) is tuple and d == g.tridegree(ctx) for g, d in pairs)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((7, 1, 0), "unknown generator kind 7"),
            ((KIND_A, -1), "a[i] needs i >= 0, got i=-1, j=0"),
            ((KIND_A, 1, 2), "a[i] needs i >= 0, got i=1, j=2"),
            ((KIND_H, 0, 0), "h[i,j] needs i >= 1, j >= 0, got i=0, j=0"),
            ((KIND_B, 1, -1), "b[i,j] needs i >= 1, j >= 0, got i=1, j=-1"),
        ],
    )
    def test_bad_indices(self, args, message):
        with pytest.raises(InvalidParams) as err:
            Generator(*args)
        assert str(err.value) == message

    def test_repr(self):
        assert repr(a(3)) == "Generator(kind=0, i=3, j=0)"
        assert repr(h(2, 1)) == "Generator(kind=1, i=2, j=1)"
        assert repr(Generator(kind=KIND_B, i=1, j=4)) == "Generator(kind=2, i=1, j=4)"

    def test_fields_are_read_only(self):
        g = h(2, 1)
        assert (g.kind, g.i, g.j) == (KIND_H, 2, 1)
        with pytest.raises(AttributeError):
            g.i = 3

    def test_dict_keys(self):
        gens = generators_below(C5, 2000)
        table = {g: k for k, g in enumerate(gens)}
        assert len(table) == len(gens)
        assert table[Generator(KIND_H, 1, 2)] == gens.index(h(1, 2))
        assert h(1, 2) != b(1, 2) and h(1, 2) != a(1)

    def test_copy_and_pickle_keep_the_class(self):
        g = b(2, 1)
        for back in (copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
            assert type(back) is Generator and back == g


class TestMonomial:
    def test_exterior_exponent_rejected(self):
        with pytest.raises(InvalidParams):
            Monomial.build([(h(1, 0), 2)])
        # split pairs that merge to an illegal power are also rejected
        with pytest.raises(InvalidParams):
            Monomial.build([(h(1, 0), 1), (h(1, 0), 1)])

    def test_polynomial_powers_allowed(self):
        m = Monomial.build([(a(0), 3), (b(1, 0), 2)])
        assert m.text() == "a0^3 b[1,0]^2"

    def test_canonical_order_is_input_independent(self):
        m1 = Monomial.build([(b(1, 0), 1), (a(0), 1), (h(2, 0), 1)])
        m2 = Monomial.build([(h(2, 0), 1), (b(1, 0), 1), (a(0), 1)])
        assert m1 == m2
        assert m1.text() == "a0 h[2,0] b[1,0]"

    def test_zero_exponents_dropped(self):
        assert Monomial.build([(a(0), 0)]) == Monomial.one()


class TestMultiply:
    def test_h_generators_anticommute(self):
        xy = multiply(h(1, 0), h(2, 0), C5)
        yx = multiply(h(2, 0), h(1, 0), C5)
        assert xy == yx.scaled(-1)
        assert xy.text() == "h[1,0] h[2,0]"
        assert yx.text() == "4 h[1,0] h[2,0]"

    def test_h_squares_vanish(self):
        assert multiply(h(1, 0), h(1, 0), C5).is_zero

    def test_a_and_b_are_even(self):
        assert multiply(a(0), h(1, 0), C5) == multiply(h(1, 0), a(0), C5)
        assert multiply(b(1, 0), h(1, 0), C5) == multiply(h(1, 0), b(1, 0), C5)
        sq = multiply(a(0), a(0), C5)
        assert not sq.is_zero
        assert sq.text() == "a0^2"

    def test_coefficients_multiply_mod_p(self):
        m1 = Monomial.build([(a(0), 1)], coeff=3)
        m2 = Monomial.build([(a(1), 1)], coeff=4)
        out = multiply(m1, m2, C5)
        assert out.text() == "2 a0 a1"

    def test_product_folds_left(self):
        factors = [a(0), h(1, 0), h(2, 0), b(1, 0)]
        lhs = product(factors, C5)
        rhs = multiply(multiply(multiply(a(0), h(1, 0), C5), h(2, 0), C5), b(1, 0), C5)
        assert lhs == rhs

    def test_prime_mismatch_rejected(self):
        x = parse_element("a0", C5)
        with pytest.raises(InvalidParams):
            multiply(x, a(0), C7)


class TestElement:
    def test_addition_cancels_mod_p(self):
        x = parse_element("2 a0", C5)
        y = parse_element("3 a0", C5)
        assert (x + y).is_zero

    def test_scaled_reduces(self):
        x = parse_element("a0 + 2 a1", C5)
        assert x.scaled(3).text() == "3 a0 + a1"

    def test_tridegree_requires_homogeneous(self):
        x = parse_element("a0 + a1", C5)
        with pytest.raises(InvalidParams):
            tridegree(x, C5)

    def test_equality_and_hash(self):
        x = parse_element("a0 h[1,0]", C5)
        y = multiply(a(0), h(1, 0), C5)
        assert x == y
        assert hash(x) == hash(y)
        assert x != Element.zero(C5)


class TestParse:
    @pytest.mark.parametrize(
        "text",
        ["a0", "2 a0^2 h[1,0] b[1,3]", "h[2,1]", "b[3,0]^2", "6 a1"],
    )
    def test_monomial_round_trip(self, text):
        assert parse_monomial(text, C7).text() == text

    def test_element_round_trip(self):
        text = "a0 h[2,0] + 3 a1 h[1,1]"
        assert parse_element(text, C7).text() == text

    def test_zero_literal(self):
        assert parse_element("0", C7).is_zero

    def test_written_factors_are_their_product(self):
        # h[2,0] h[1,2] is the product in that order: sorting its two odd
        # factors is one transposition, so the sign is -1
        assert parse_element("h[2,0] h[1,2]", C3) == multiply(h(2, 0), h(1, 2), C3)
        assert parse_monomial("h[2,0] h[1,2]", C3).text() == "2 h[1,2] h[2,0]"

    def test_coefficient_normalizes_mod_p(self):
        assert parse_monomial("12 a0", C7).coeff == 5
        assert parse_monomial("-1 a0", C7).coeff == 6

    @pytest.mark.parametrize(
        "bad",
        ["c[1,0]", "h[1]", "h[1,0]^2", "a0 3", "3 4 a0", "3^2 a0", "0 a0", "h[1,0"],
    )
    def test_parse_errors(self, bad):
        with pytest.raises(ParseError):
            parse_monomial(bad, C7)

    @pytest.mark.parametrize("text", ["", "  ", "+", "a0 +", " + a0", "a0 +  + a1"])
    def test_empty_monomial_is_an_error(self, text):
        # an empty summand once parsed as the unit: "a0 +" read 1 + a0
        with pytest.raises(ParseError, match="^empty monomial$"):
            parse_element(text, C7)

    def test_unit_is_one(self):
        one = parse_monomial("1", C7)
        assert (one.coeff, one.factors) == (1, ())
        assert parse_element("a0 + 1", C7).text() == "1 + a0"

    def test_out_of_domain_generator_is_a_parse_error(self):
        # h[i,j] and b[i,j] need i >= 1: malformed input, as an exterior
        # square is; an index past the literal budget stays over budget
        for text in ("h[0,0]", "a0 b[0,3]"):
            with pytest.raises(ParseError, match="needs i >= 1"):
                parse_monomial(text, C7)
        with pytest.raises(WorkBudgetExceeded):
            parse_monomial("h[" + "1" * 400 + ",0]", C7)

    @pytest.mark.parametrize("bad", ["a\u0663", "h[\u00b9,0]", "\u0662 a0", "a0^\u0662"])
    def test_digits_are_ascii(self, bad):
        with pytest.raises(ParseError):
            parse_monomial(bad, C7)

    def test_literal_budget(self):
        assert parse_monomial("a0^" + "9" * 300, C7).factors == ((a(0), 10**300 - 1),)
        with pytest.raises(WorkBudgetExceeded) as err:
            parse_monomial("1" * 310 + " a0", C7)
        assert str(err.value) == (
            "a literal of 310 digits has more than 1024 bits, the budget for a value"
        )

    def test_generator_power_budget(self):
        # a generator is refused when p^(i+j+1) would pass MAX_POWER_BITS
        # (3^(i+j+1) from i+j+1 = 1024 on): its degree and its d1 are too
        # large to form
        assert may_core.MAX_POWER_BITS == 1024
        assert parse_monomial("h[1000,22]", C3).factors == ((h(1000, 22), 1),)
        for text in ("h[1000,23]", "b[1023,0]", "a1023"):
            with pytest.raises(WorkBudgetExceeded) as err:
                parse_monomial(text, C3)
            assert str(err.value) == "3^1024 has more than 1024 bits, the budget for '^'"


class TestDegreeResidue:
    def test_values(self):
        # h[1,j] has internal degree q p^j, a multiple of q
        assert tridegree(h(1, 2), C5).t % C5.q == 0
        assert tridegree(a(0), C5).t % C5.q == 1


def _t(ctx, *gens):
    return sum(g.tridegree(ctx).t for g in gens)


# non-empty cells far too wide for a reachability table (t ~ 10^7 .. 10^10)
WIDE_CELLS = [
    (C5, 2, _t(C5, h(1, 10), a(0))),
    (C5, 2, _t(C5, a(9), a(9))),
    (C7, 1, _t(C7, h(2, 9))),
    (C7, 2, _t(C7, b(1, 10))),
    (C7, 2, _t(C7, h(1, 3), h(2, 9))),
]


def generators_below(ctx, t):
    """The generators of internal degree <= t, in canonical order."""
    return [g for g, _ in generators_bounded(ctx, t)]


def brute_force_basis(ctx, s, t):
    """Exhaustive multiset enumeration, independent of the search order."""
    if s == 0:
        return [()] if t == 0 else []
    gens = generators_below(ctx, t)
    degree = {g: g.tridegree(ctx) for g in gens}
    found = set()
    for k in range(1, s + 1):
        for combo in itertools.combinations_with_replacement(gens, k):
            degrees = [degree[g] for g in combo]
            deg_s = sum(d.s for d in degrees)
            deg_t = sum(d.t for d in degrees)
            if deg_s != s or deg_t != t:
                continue
            odd = [g for g in combo if g.is_odd]
            if len(odd) != len(set(odd)):
                continue
            pairs = [(g, combo.count(g)) for g in set(combo)]
            found.add(Monomial.build(pairs).factors)
    return sorted(found)


def fresh_basis(ctx, s, t):
    """The basis of (s, t) read through a fresh session."""
    return Session(ctx).basis(s, t)


class TestEnumerateBasis:
    def test_degenerate_windows(self):
        assert fresh_basis(C5, 0, 0) == [Monomial.one()]
        assert fresh_basis(C5, 0, 5) == []
        assert fresh_basis(C5, 3, 2) == []
        # a negative bidegree is refused, as a record of it is
        for s, t in ((-1, 4), (2, -10)):
            with pytest.raises(InvalidParams) as err:
                fresh_basis(C5, s, t)
            assert str(err.value) == f"bidegree out of range: ({s},{t})"

    def test_single_generator_cells(self):
        assert [m.text() for m in fresh_basis(C7, 1, 588)] == ["h[1,2]"]
        assert [m.text() for m in fresh_basis(C5, 1, 1)] == ["a0"]
        assert [m.text() for m in fresh_basis(C5, 2, 40)] == ["b[1,0]"]

    def test_mixed_cells(self):
        assert [m.text() for m in fresh_basis(C5, 2, 9)] == ["a0 h[1,0]"]
        assert [m.text() for m in fresh_basis(C5, 2, 10)] == ["a0 a1"]

    @pytest.mark.parametrize(
        "contexts, table_bits, memo_entries",
        [([C3], None, None), ([C5], None, None), ([C3, C5], 0, None), ([C3, C5], 0, 8)],
        ids=["ctx0", "ctx1", "memoised", "memo-cleared"],
    )
    def test_matches_brute_force(self, contexts, table_bits, memo_entries, monkeypatch):
        # table_bits 0 sends every cell of the grid through the memoised
        # search that wide t needs (the wide cells take it at any cutoff);
        # a tiny memo bound makes that search clear its memo again and again.
        # Every t below 16 is in the grid, so cells made of a0 alone are too.
        ts = [*range(16), *range(21, 121, 7)]
        cells = [(ctx, s, t) for ctx in contexts for s in range(0, 5) for t in ts]
        if table_bits is not None:
            monkeypatch.setattr(may_core, "_REACH_TABLE_BITS", table_bits)
            cells += WIDE_CELLS
        if memo_entries is not None:
            monkeypatch.setattr(may_core, "_REACH_MEMO_ENTRIES", memo_entries)
        for ctx, s, t in cells:
            fast = [m.factors for m in fresh_basis(ctx, s, t)]
            assert fast == brute_force_basis(ctx, s, t), (ctx.p, s, t)
            if (ctx, s, t) in WIDE_CELLS:
                assert fast, (ctx.p, s, t)

    def test_every_monomial_has_requested_bidegree(self):
        for m in fresh_basis(C5, 4, 100):
            d = m.tridegree(C5)
            assert (d.s, d.t) == (4, 100)

    def test_wide_t_search_depth_is_bounded_by_s(self, reversed_generators):
        # at p = 3 this t (about 2^55) has more generators below it than the
        # interpreter's recursion limit; a search that recursed once per
        # skipped generator overflowed the stack here
        factors = (h(14, 6), h(16, 18), h(19, 14))
        t = _t(C3, *factors)
        assert len(generators_below(C3, t)) > sys.getrecursionlimit()
        fwd = [m.factors for m in fresh_basis(C3, 3, t)]
        with reversed_generators() as calls:
            rev = [m.factors for m in fresh_basis(C3, 3, t)]
        assert calls
        assert fwd == rev
        assert len(fwd) == 6
        assert Monomial.build([(g, 1) for g in factors]).factors in fwd

    @pytest.mark.parametrize("table_bits", [None, 0], ids=["table", "memoised"])
    def test_step_budget(self, table_bits, monkeypatch):
        # both searches count their steps and stop past the budget, naming
        # the cell; each call starts from zero
        if table_bits is not None:
            monkeypatch.setattr(may_core, "_REACH_TABLE_BITS", table_bits)
        want = fresh_basis(C3, 6, 55)
        assert len(want) == 9
        monkeypatch.setattr(may_core, "MAX_ENUMERATION_STEPS", 10)
        for _ in range(2):
            with pytest.raises(WorkBudgetExceeded) as err:
                fresh_basis(C3, 6, 55)
            assert str(err.value) == (
                "basis of (6,55) needs more than 10 search steps, the budget for enumeration"
            )
        monkeypatch.setattr(may_core, "MAX_ENUMERATION_STEPS", 10**6)
        assert fresh_basis(C3, 6, 55) == want

    def test_reverse_order_gives_same_set(self, reversed_generators):
        # (5, 6, 156) is narrow; the p=7 cell needs the memoised search
        cells = [(C5, 6, 156), (C7, 3, _t(C7, a(0), h(1, 0), h(1, 11)))]
        for ctx, s, t in cells:
            fwd = {m.factors for m in fresh_basis(ctx, s, t)}
            with reversed_generators() as calls:
                rev = {m.factors for m in fresh_basis(ctx, s, t)}
            assert calls
            assert len(fwd) >= 2
            assert fwd == rev, (ctx.p, s, t)


def read_column(ctx, t, ss):
    """The cells (s, t), s in ss, of a fresh session's column, read in one
    search: (the column, {s: blocks})."""
    ss = list(dict.fromkeys(ss))
    col = Session(ctx).column(t)
    return col, dict(zip(ss, col.read(ss)))


def column(ctx, t, ss):
    """The cells of read_column(ctx, t, ss) as plain data, {s: {u: (keys,
    codes)}}, which compares by value."""
    return {
        s: {u: (blk.keys, blk.codes) for u, blk in blocks.items()}
        for s, blocks in read_column(ctx, t, ss)[1].items()
    }


def check_cell(ctx, s, t, col, blocks):
    """The block keys of the cell (s, t) of col against the brute-force
    oracle, with each block of the weight it is filed under, in order, and
    its codes decoding to its keys in the column's coding."""
    assert list(blocks) == sorted(blocks), (ctx.p, s, t)
    found = []
    for u, blk in blocks.items():
        keys = blk.keys
        assert keys and keys == sorted(keys), (ctx.p, s, t, u)
        degrees = {Monomial(key).tridegree(ctx) for key in keys}
        assert degrees == {(s, t, u)}, (ctx.p, s, t, u)
        assert list(map(col.coding.decode, blk.codes)) == keys, (ctx.p, s, t, u)
        found += keys
    assert sorted(found) == brute_force_basis(ctx, s, t), (ctx.p, s, t)


def keeps_no_levels(col):
    """Whether col holds no reachability levels, a list of bitset rows per
    filtration: a column keeps its cells, its generator list with their
    degrees and its coding, and a read's search state ends with it."""
    values = [getattr(col, name, None) for name in type(col).__slots__]
    return not any(isinstance(v, list) and v and isinstance(v[0], list) for v in values)


def check_column(ctx, t, ss):
    """check_cell on each cell of read_column(ctx, t, ss); the cells."""
    col, cells = read_column(ctx, t, ss)
    assert list(cells) == list(dict.fromkeys(ss)), (ctx.p, t)
    for s, blocks in cells.items():
        check_cell(ctx, s, t, col, blocks)
    return cells


class TestEnumerateBases:
    # duplicate, negative and zero filtrations, and cells with t < s
    SS = [3, -1, 0, 5, 1, 3, 2, 4]
    TS = [0, 1, 2, 4, 9, 13, *range(21, 100, 13)]

    @pytest.mark.parametrize(
        "table_bits, memo_entries",
        [(None, None), (0, None), (0, 8)],
        ids=["table", "memoised", "memo-cleared"],
    )
    def test_column_matches_brute_force(self, table_bits, memo_entries, monkeypatch):
        # table_bits 0 sends every cell to the memoised search, whose memo
        # and closings a later cell of the column starts from; a tiny memo
        # bound clears them again and again
        if table_bits is not None:
            monkeypatch.setattr(may_core, "_REACH_TABLE_BITS", table_bits)
        if memo_entries is not None:
            monkeypatch.setattr(may_core, "_REACH_MEMO_ENTRIES", memo_entries)
        for ctx in (C3, C5):
            for t in self.TS:
                check_column(ctx, t, self.SS)
        for ctx, s, t in WIDE_CELLS:
            assert check_column(ctx, t, [s, s - 1])[s], (ctx.p, s, t)

    @pytest.mark.parametrize("table_bits", [None, 0], ids=["table", "memoised"])
    def test_ascending_reads_extend_the_levels(self, table_bits, monkeypatch):
        # one column, one cell per read in ascending s: each read starts a
        # search of its own, which builds the levels its cell needs, and
        # the column keeps none of them once the read ends
        if table_bits is not None:
            monkeypatch.setattr(may_core, "_REACH_TABLE_BITS", table_bits)
        s_max = max(self.SS)
        for ctx in (C3, C5):
            for t in self.TS:
                column = may_core.Column(ctx, t)
                for s in range(min(self.SS), s_max + 1):
                    (blocks,) = column.read([s])
                    check_cell(ctx, s, t, column, blocks)
                    assert keeps_no_levels(column), (ctx.p, s, t)

    def test_column_under_generator_reversal(self, reversed_generators, monkeypatch):
        # the p = 7 column is too wide for a table; the p = 5 one is narrow,
        # and is then run again through the memoised search
        wide = _t(C7, a(0), h(1, 0), h(1, 11))
        columns = [(C5, 156, [6, 5, 7]), (C7, wide, [3, 2, 4])]
        want = [column(ctx, t, ss) for ctx, t, ss in columns]
        check_column(*columns[0])
        assert sum(len(keys) for keys, _ in want[1][3].values()) >= 2
        for table_bits in (None, 0):
            if table_bits is not None:
                monkeypatch.setattr(may_core, "_REACH_TABLE_BITS", table_bits)
            with reversed_generators() as calls:
                got = [column(ctx, t, ss) for ctx, t, ss in columns]
            assert calls == [156, wide]
            assert got == want

    @pytest.mark.parametrize("table_bits, steps", [(None, 82), (0, 341)], ids=["table", "memoised"])
    def test_step_budget_is_per_cell(self, table_bits, steps, monkeypatch):
        # in the column [5, 6] at p = 3, t = 55, (6,55) takes `steps` steps,
        # more than (5,55): a budget of `steps` lets both answer, which a
        # counter shared by the column would not, and one step less refuses,
        # naming (6,55)
        if table_bits is not None:
            monkeypatch.setattr(may_core, "_REACH_TABLE_BITS", table_bits)
        want = column(C3, 55, [5, 6])
        monkeypatch.setattr(may_core, "MAX_ENUMERATION_STEPS", steps)
        assert column(C3, 55, [5, 6]) == want
        monkeypatch.setattr(may_core, "MAX_ENUMERATION_STEPS", steps - 1)
        assert column(C3, 55, [5]) == {5: want[5]}
        with pytest.raises(WorkBudgetExceeded) as err:
            column(C3, 55, [5, 6])
        assert str(err.value) == (
            f"basis of (6,55) needs more than {steps - 1} search steps, "
            "the budget for enumeration"
        )
        if table_bits == 0:
            # alone, (6,55) takes 441 steps: in the column it starts from
            # the memo that (5,55) left
            monkeypatch.setattr(may_core, "MAX_ENUMERATION_STEPS", 440)
            with pytest.raises(WorkBudgetExceeded):
                column(C3, 55, [6])


def generator_pool(p):
    return [a(0), a(1), a(2), h(1, 0), h(1, 1), h(2, 0), h(2, 1), b(1, 0), b(1, 1), b(2, 0)]


@st.composite
def monomials(draw, p):
    pool = generator_pool(p)
    picks = draw(
        st.lists(st.sampled_from(range(len(pool))), min_size=0, max_size=4, unique=True)
    )
    pairs = []
    for k in picks:
        g = pool[k]
        e = 1 if g.is_odd else draw(st.integers(min_value=1, max_value=3))
        pairs.append((g, e))
    coeff = draw(st.integers(min_value=1, max_value=p - 1))
    return Monomial.build(pairs, coeff)


@given(st.sampled_from([3, 5, 7]), st.data())
@settings(max_examples=150, deadline=None)
def test_degree_additivity(p, data):
    ctx = PrimeContext(p)
    m1 = data.draw(monomials(p))
    m2 = data.draw(monomials(p))
    out = multiply(m1, m2, ctx)
    if out.is_zero:
        return
    d1_, d2_ = m1.tridegree(ctx), m2.tridegree(ctx)
    assert tridegree(out, ctx) == (d1_.s + d2_.s, d1_.t + d2_.t, d1_.u + d2_.u)


@given(st.sampled_from([3, 5, 7]), st.data())
@settings(max_examples=150, deadline=None)
def test_graded_commutativity(p, data):
    # sign rule: xy = (-1)^(|x||y|) yx with |.| counting exterior factors
    ctx = PrimeContext(p)
    m1 = data.draw(monomials(p))
    m2 = data.draw(monomials(p))
    sign = (-1) ** (m1.parity * m2.parity)
    assert multiply(m1, m2, ctx) == multiply(m2, m1, ctx).scaled(sign)


@given(st.sampled_from([3, 5, 7]), st.data())
@settings(max_examples=100, deadline=None)
def test_associativity(p, data):
    ctx = PrimeContext(p)
    x = data.draw(monomials(p))
    y = data.draw(monomials(p))
    z = data.draw(monomials(p))
    lhs = multiply(multiply(x, y, ctx), z, ctx)
    rhs = multiply(x, multiply(y, z, ctx), ctx)
    assert lhs == rhs
