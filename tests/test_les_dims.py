"""Dimension intervals propagated through cofiber sequences."""

import pytest

from mayext import les_dims
from mayext.may_core import InvalidParams, PrimeContext
from mayext.session import Session
from mayext.les_dims import (
    _SPECTRA,
    DimInterval,
    SphereTable,
    _column,
    _window,
    ext_dims,
)

C5 = PrimeContext(5)
C7 = PrimeContext(7)


class TestDimInterval:
    def test_exact_and_contains(self):
        d = DimInterval(2, 2)
        assert d.exact and d.contains(2) and not d.contains(1)
        w = DimInterval(0, 3)
        assert not w.exact and w.contains(0) and w.contains(3)

    def test_addition_tracks_endpoints(self):
        assert (DimInterval(1, 2) + DimInterval(0, 1)) == DimInterval(1, 3, "")

    def test_invalid_interval(self):
        with pytest.raises(AssertionError):
            DimInterval(2, 1)
        with pytest.raises(AssertionError):
            DimInterval(-1, 0)

    def test_serialize(self):
        data = DimInterval(1, 1, "witness").serialize()
        assert data == {"lo": 1, "hi": 1, "exact": True, "provenance": "witness"}


def dims(ctx, spectrum, s, t):
    return ext_dims(Session(ctx), spectrum, s, t)


def build(ctx, spectrum, s, t):
    return SphereTable(Session(ctx), *_window(ctx, spectrum, s, t))


class TestSphereTable:
    def test_out_of_window_raises(self):
        table = SphereTable(Session(C5), (0, 2), (0, 10))
        with pytest.raises(AssertionError, match=r"cell \(0,11\) is outside the table window"):
            table.dim(0, 11)
        with pytest.raises(AssertionError, match=r"cell \(3,4\) is outside"):
            table.rank_lower(3, 4, "a0")

    def test_empty_region_is_free(self):
        # cells with s < 0, t < 0, or t < s need no table entry
        session = Session(C5)
        table = SphereTable(session, (0, 1), (0, 4))
        assert (table.dim(-1, 3).lo, table.dim(-1, 3).hi) == (0, 0)
        assert table.dim(3, 2).lo == 0
        assert table.rank_lower(2, 1, "h0") == 0
        assert table.cells == {} and session.memo == {}

    def test_unit_cell(self):
        table = SphereTable(Session(C5), (0, 1), (0, 2))
        assert (table.dim(0, 0).lo, table.dim(0, 0).hi) == (1, 1)
        assert table.dim(1, 1).lo == 1

    def test_homology_memo_is_shared(self):
        session = Session(C5)
        reads = [(s, t) for s in range(3) for t in range(11)]
        table = SphereTable(session, (0, 2), (0, 10))
        for cell in reads:
            table.dim(*cell)
        assert session.memo
        size = len(session.memo)
        table = SphereTable(session, (0, 2), (0, 10))
        for cell in reads:
            table.dim(*cell)
        assert len(session.memo) == size

    def test_a_table_certifies_only_the_cells_it_reads(self):
        # the window bounds no work: reading one cell of a window of 10^5
        # cells certifies that cell alone, from its record and its
        # neighbours' records
        session = Session(C5)
        table = SphereTable(session, (0, 9), (0, 9999))
        assert table.dim(1, 8) == DimInterval(1, 1, "DimCertified")
        assert set(table.cells) == {(1, 8)}
        assert set(session.memo) == {(0, 8), (1, 8), (2, 8)}

    def test_a_query_certifies_a_number_of_cells_fixed_by_its_column(self):
        # K(2, p^2 q) at p=7 reads 14 sphere cells; certifying its whole
        # window of 75 cells once built 75 records
        session = Session(C7)
        got = ext_dims(session, "K", 2, 7**2 * C7.q)
        assert (got.lo, got.hi) == (1, 1)
        assert len(session.memo) <= 14

    def test_witnesses_into_a_cell_count_only_from_inside_the_window(self):
        # M(2, 40) at p=3 reads S(2, 40) and S(3, 40), whose h0 witnesses
        # come from S(1, 36) and S(2, 36), outside the query's window (t >=
        # 39), so the interval stays [0,1]; counting every witness would
        # give [1,1]
        got = dims(PrimeContext(3), "M", 2, 40)
        assert (got.lo, got.hi) == (0, 1)

    def test_witness_targets_get_boundary_data_alone(self):
        # a witness raises lo at S(1, 200); its a0 and h0 targets are
        # reduced into, so they get boundary data and no record.  Of the
        # certified cells, the E1-empty (0, 200) needs no boundary data
        session = Session(C5)
        assert ext_dims(session, "S", 1, 200) == DimInterval(1, 1, "UpperBound+witness")
        certified = {(0, 200), (1, 200), (2, 200)}
        assert set(session.memo) == certified
        assert session.memo[(0, 200)].e1_total == 0
        assert set(session.boundary_memo) == {(1, 200), (2, 200), (2, 201), (2, 208)}


class TestMooreColumns:
    @pytest.mark.parametrize("p,n", [(5, 2), (5, 3), (7, 2), (7, 3)])
    def test_rank_one_cell(self, p, n):
        ctx = PrimeContext(p)
        T = p**n * ctx.q
        got = dims(ctx, "M", 1, T)
        assert (got.lo, got.hi) == (1, 1)

    @pytest.mark.parametrize("p,n", [(5, 2), (7, 3)])
    def test_zero_cells(self, p, n):
        ctx = PrimeContext(p)
        T = p**n * ctx.q
        for s, t in [(1, T + 1), (1, T + 2), (4, T + 2)]:
            got = dims(ctx, "M", s, t)
            assert (got.lo, got.hi) == (0, 0), (s, t)

    def test_second_variable_zero_cells(self):
        T = 7**2 * 12
        for s, t in [(2, T), (3, T + 1), (2, T + 1)]:
            got = dims(C7, "M2", s, t)
            assert (got.lo, got.hi) == (0, 0)


class TestCofiberColumns:
    @pytest.mark.parametrize("p,n", [(5, 2), (5, 3), (7, 2), (7, 3)])
    def test_connecting_image_survives(self, p, n):
        ctx = PrimeContext(p)
        T = p**n * ctx.q
        got = dims(ctx, "K", 1, T)
        assert (got.lo, got.hi) == (1, 1)

    def test_zero_cells(self):
        T = 5**2 * 8
        for s, t in [(2, T + 1), (2, T + 2), (3, T + 1), (3, T + 2)]:
            got = dims(C5, "K", s, t)
            assert (got.lo, got.hi) == (0, 0), (s, t)

    def test_second_variable_zero_cells(self):
        T = 5**2 * 8
        for s, t in [(2, T), (3, T + 1)]:
            got = dims(C5, "K2", s, t)
            assert (got.lo, got.hi) == (0, 0)

    @pytest.mark.parametrize("p,n", [(5, 2), (7, 2)])
    def test_alpha_cofiber_zero_cell(self, p, n):
        ctx = PrimeContext(p)
        T = p**n * ctx.q
        got = dims(ctx, "L", 2, T + ctx.q)
        assert (got.lo, got.hi) == (0, 0)

    def test_honest_interval_stays_wide(self):
        # kernel witness cannot pin this cell: the candidate product is an
        # exterior square, so only the upper endpoint is certified
        T = 5**2 * 8
        got = dims(C5, "L", 2, T + 2 * C5.q)
        assert (got.lo, got.hi) == (0, 1)
        assert not got.exact

    def test_second_variable_honest_intervals(self):
        T = 5**2 * 8
        q = C5.q
        cases = [(2, T + q - 1, 1), (2, T + q, 1), (3, T + q, 2)]
        for s, t, hi in cases:
            got = dims(C5, "K2", s, t)
            assert (got.lo, got.hi) == (0, hi), (s, t)


class TestTableViews:
    def test_zero_maps_turn_columns_into_sums(self, monkeypatch):
        T = 5**2 * 8
        table = build(C5, "M", 1, T)
        monkeypatch.setattr(les_dims, "_map_rank", lambda *args: (0, 0))
        got = _column(C5, table, "M", 1, T)
        want = table.dim(1, T - 1) + table.dim(1, T)
        assert (got.lo, got.hi) == (want.lo, want.hi)

    def test_widening_a_cell_loosens_the_answer(self):
        T = 5**2 * 8
        tight = _column(C5, build(C5, "M", 1, T), "M", 1, T)

        class Widened(SphereTable):
            # cell (1, T) degraded to [0, hi] and witness-free
            def dim(self, s, t):
                got = super().dim(s, t)
                return DimInterval(0, got.hi, "widened") if (s, t) == (1, T) else got

            def rank_lower(self, s, t, op):
                return 0 if (s, t) == (1, T) else super().rank_lower(s, t, op)

        widened = Widened(Session(C5), *_window(C5, "M", 1, T))
        loose = _column(C5, widened, "M", 1, T)
        assert widened.dim(1, T).lo == 0
        assert loose.lo <= tight.lo and loose.hi >= tight.hi


class TestDispatch:
    def test_window_for_covers_each_spectrum(self):
        for spectrum in ("S", "M", "M2", "L", "K", "K2"):
            dims(C5, spectrum, 2, 50)

    def test_unknown_spectrum(self):
        table = SphereTable(Session(C5), (0, 2), (0, 10))
        with pytest.raises(InvalidParams):
            _column(C5, table, "X", 1, 5)
        with pytest.raises(InvalidParams):
            dims(C5, "X", 1, 5)
        # the spectrum is checked before the bidegree
        with pytest.raises(InvalidParams):
            dims(C5, "X", -1, 5)

    @pytest.mark.parametrize("s,t", [(-1, 5), (2, -3), (0, -20)])
    @pytest.mark.parametrize("spectrum", _SPECTRA)
    def test_negative_cells_are_zero(self, spectrum, s, t):
        assert dims(C5, spectrum, s, t) == DimInterval(0, 0, "out of range")

    def test_sphere_column_is_table_lookup(self):
        table = SphereTable(Session(C5), (0, 2), (0, 10))
        assert _column(C5, table, "S", 1, 1) == table.dim(1, 1)
