"""Named classes, vanishing certificates, and differential windows."""

import pytest

from mayext.may_core import (
    InvalidParams,
    PrimeContext,
    WorkBudgetExceeded,
    parse_element,
    tridegree,
)
from mayext.adams_certify import (
    DIM_CERTIFIED,
    E1_EMPTY,
    E2_ZERO,
    MAX_WINDOW_ROWS,
    UPPER_BOUND,
    Certificate,
    InvalidRange,
    MissingRepresentative,
    ParamsOutOfRange,
    UnknownName,
    adams_dr_window,
    certify_ext_dim,
    certify_ext_vanishing,
    product_nonzero_at_e2,
    resolve_named,
)
from mayext.session import Session

C5 = PrimeContext(5)
C7 = PrimeContext(7)


@pytest.fixture(scope="module")
def sessions():
    # shared across the module so repeated cells are computed once
    return {5: Session(C5), 7: Session(C7)}


@pytest.fixture(scope="module")
def reports(sessions):
    return sessions[7].report


class TestResolveNamed:
    def test_fixed_classes(self):
        a0 = resolve_named("a0", {}, C5)
        assert (a0.s, a0.t) == (1, 1)
        alpha2 = resolve_named("alpha2_tilde", {}, C5)
        assert (alpha2.s, alpha2.t) == (2, 17)
        g0 = resolve_named("g0", {}, C5)
        assert (g0.s, g0.t) == (2, 56)

    def test_h_family(self):
        h0 = resolve_named("h", {"n": 0}, C7)
        assert (h0.s, h0.t) == (1, 12)
        h3 = resolve_named("h", {"n": 3}, C7)
        assert (h3.s, h3.t) == (1, 4116)

    def test_b_family(self):
        b1 = resolve_named("b", {"n": 1}, C7)
        assert (b1.s, b1.t) == (2, 588)

    def test_composite_names(self):
        for name, params, ctx, bidegree in [
            ("h0h", {"n": 2}, C7, (2, 600)),
            ("h0b", {"n": 2}, C7, (3, 600)),
            ("h0hh", {"n": 4, "m": 2}, C5, (3, 5208)),
            ("h0hb", {"n": 4, "m": 2}, C5, (4, 5208)),
        ]:
            cls = resolve_named(name, params, ctx)
            assert (cls.s, cls.t) == bidegree

    def test_text_uses_signature_order(self):
        cls = resolve_named("h0hh", {"n": 4, "m": 2}, C5)
        assert cls.text() == "h0hh[4,2]"
        assert resolve_named("gamma_tilde", {"s": 3}, C7).text() == "gamma_tilde[3]"
        assert resolve_named("a0", {}, C5).text() == "a0"

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_representative_degrees_match(self, p):
        # a represented class takes its bidegree from its representative;
        # the closed formulas here are the independent reference
        ctx = PrimeContext(p)
        q = ctx.q
        cases = [
            ("a0", {}, (1, 1)),
            ("alpha2_tilde", {}, (2, 2 * q + 1)),
            ("g0", {}, (2, p * q + 2 * q)),
            ("g", {"n": 0}, (2, p * q + 2 * q)),
        ]
        cases += [("h", {"n": n}, (1, p**n * q)) for n in range(0, 5)]
        cases += [("b", {"n": n}, (2, p ** (n + 1) * q)) for n in range(0, 4)]
        cases += [("h0h", {"n": n}, (2, p**n * q + q)) for n in range(1, 5)]
        cases += [("h0b", {"n": n}, (3, p**n * q + q)) for n in range(1, 5)]
        for n, m in [(3, 1), (4, 2), (4, 1)]:
            t = p**n * q + p**m * q + q
            cases.append(("h0hh", {"n": n, "m": m}, (3, t)))
            cases.append(("h0hb", {"n": n, "m": m}, (4, t)))
        cases += [
            (
                "gamma_tilde",
                {"s": s},
                (s, s * p**2 * q + (s - 1) * p * q + (s - 2) * q + s - 3),
            )
            for s in range(3, p)
        ]
        for name, params, bidegree in cases:
            cls = resolve_named(name, params, ctx)
            got = tridegree(cls.rep, ctx)
            assert (got.s, got.t) == (cls.s, cls.t) == bidegree, cls.text()

    def test_conjectural_flags(self):
        assert resolve_named("g", {"n": 0}, C7).conjectural is False
        assert resolve_named("g", {"n": 3}, C7).conjectural is True
        assert resolve_named("h0g", {"n": 1}, C7).conjectural is True
        assert resolve_named("beta_tilde", {"s": 2}, C7).conjectural is True

    def test_unknown_name(self):
        with pytest.raises(UnknownName):
            resolve_named("zeta", {}, C5)

    @pytest.mark.parametrize(
        "name,params",
        [
            ("h", {"n": -1}),
            ("h", {}),
            ("h", {"n": "2"}),
            ("b", {"n": -2}),
            ("h0h", {"n": 0}),
            ("h0hh", {"n": 2, "m": 1}),
            ("h0hh", {"n": 4, "m": 0}),
            ("h0hb", {"n": 3, "m": 2}),
            ("gamma_tilde", {"s": 2}),
            ("gamma_tilde", {"s": 7}),
            ("beta_tilde", {"s": 1}),
            ("g", {"n": -1}),
        ],
    )
    def test_params_out_of_range(self, name, params):
        with pytest.raises(ParamsOutOfRange):
            resolve_named(name, params, C7)


class TestCertificates:
    def test_empty_cell(self, reports):
        cert = certify_ext_vanishing(reports, 4, 29400 + 2 * 12 - 1)
        assert cert.verdict == E1_EMPTY
        assert cert.certified_zero and cert.certified_exact
        assert cert.dim == 0 and cert.report.e1_total == 0

    def test_killed_cell(self, reports):
        cert = certify_ext_vanishing(reports, 5, 29400 + 12 + 1)
        assert cert.verdict == E2_ZERO
        assert cert.certified_zero
        assert cert.report.e1_total == 3 and cert.report.e2_total == 0

    def test_upper_bound_cell(self, reports):
        cert = certify_ext_vanishing(reports, 1, 588)
        assert cert.verdict == UPPER_BOUND
        assert not cert.certified_zero
        assert cert.dim == 1

    def test_dim_certified_when_neighbors_die(self, reports):
        cert = certify_ext_dim(reports, 1, 12)
        assert cert.verdict == DIM_CERTIFIED
        assert cert.certified_exact
        assert cert.dim == 1

    def test_live_neighbor_blocks_upgrade(self, reports):
        # the cell below carries a class, so only an upper bound is issued
        cert = certify_ext_dim(reports, 2, 588)
        assert cert.verdict == UPPER_BOUND
        assert cert.dim == 1

    @pytest.mark.parametrize(
        "s, t, verdict, asked",
        [
            # the lower neighbour carries a class and decides the verdict
            (2, 588, UPPER_BOUND, [(2, 588), (1, 588)]),
            # the lower neighbour is zero, so the upper one is read
            (1, 84, UPPER_BOUND, [(1, 84), (0, 84), (2, 84)]),
            (1, 12, DIM_CERTIFIED, [(1, 12), (0, 12), (2, 12)]),
            # a zero cell reads no neighbour
            (4, 29423, E1_EMPTY, [(4, 29423)]),
            (5, 29413, E2_ZERO, [(5, 29413)]),
            # s = 0 has no lower neighbour
            (0, 0, DIM_CERTIFIED, [(0, 0), (1, 0)]),
        ],
    )
    def test_neighbours_are_read_until_one_decides(self, reports, s, t, verdict, asked):
        got = []

        def recording(s, t):
            got.append((s, t))
            return reports(s, t)

        assert certify_ext_dim(recording, s, t).verdict == verdict
        assert got == asked

    def test_verdicts_match_reading_both_neighbours(self):
        # over small p=3 and p=5 grids, against the rule that reads both
        # neighbours of every cell that is not zero
        seen = set()
        for p, s_max, t_max in [(3, 12, 120), (5, 6, 420)]:
            reports = Session(PrimeContext(p)).report
            for t in range(t_max + 1):
                for s in range(s_max + 1):
                    report = reports(s, t)
                    if report.e1_total == 0:
                        want = E1_EMPTY
                    elif report.e2_total == 0:
                        want = E2_ZERO
                    else:
                        below = reports(s - 1, t).e2_total if s else 0
                        above = reports(s + 1, t).e2_total
                        want = DIM_CERTIFIED if below == above == 0 else UPPER_BOUND
                        seen.add((p, want, below == 0))
                    cert = certify_ext_dim(reports, s, t)
                    assert (cert.verdict, cert.dim) == (want, report.e2_total), (p, s, t)
        # both primes reach all three nonzero cases
        assert len(seen) == 6

    def test_six_factor_product_cell(self, reports):
        cert = certify_ext_dim(reports, 4, 29400)
        assert cert.verdict == UPPER_BOUND
        assert cert.dim == 1

    def test_serialize_includes_basis_for_live_cells(self, reports):
        cert = certify_ext_vanishing(reports, 1, 588)
        data = cert.serialize()
        assert data["verdict"] == UPPER_BOUND
        assert data["basis"] == ["h[1,2]"]
        zero = certify_ext_vanishing(reports, 3, 29400 + 2 * 12 + 1)
        assert "basis" not in zero.serialize()


class TestWindow:
    def test_live_target_is_reported(self, reports):
        report = adams_dr_window(reports, (1, 588), 2, 2)
        (row,) = report.rows
        assert (row.target.report.s, row.target.report.t) == (3, 589)
        assert row.target.verdict == UPPER_BOUND
        assert row.target.dim == 1
        # s < r_min: every source is vacuous
        assert row.source is None
        assert report.not_boundary == "full"
        assert report.targets_all_zero is False
        assert report.permanent_cycle_up_to == 1

    def test_live_source_blocks_not_boundary(self, reports):
        report = adams_dr_window(reports, (3, 589), 2, 2)
        assert report.sources_all_zero is False
        assert report.not_boundary == "no"

    def test_partial_when_window_stops_short(self, reports):
        report = adams_dr_window(reports, (6, 6168), 2, 3)
        assert report.sources_all_zero is True
        assert report.not_boundary == "partial"
        assert report.permanent_cycle_up_to == 1

    def test_full_window_for_six_factor_cell(self, reports):
        report = adams_dr_window(reports, (6, 6168), 2, 6)
        assert report.sources_all_zero is True
        assert report.not_boundary == "full"
        sources = [(row.source.report.s, row.source.report.t) for row in report.rows]
        assert sources == [(4, 6167), (3, 6166), (2, 6165), (1, 6164), (0, 6163)]
        for row in report.rows:
            assert row.source.verdict == E1_EMPTY
        data = report.serialize()
        assert data["not_boundary"] == "full"
        assert len(data["rows"]) == 5

    def test_invalid_ranges(self, reports):
        with pytest.raises(InvalidRange):
            adams_dr_window(reports, (1, 588), 1, 3)
        with pytest.raises(InvalidRange):
            adams_dr_window(reports, (1, 588), 3, 2)

    def test_row_budget_is_checked_before_any_cell(self):
        class Reached(Exception):
            pass

        def first_cell(s, t):
            raise Reached

        # MAX_WINDOW_ROWS rows pass the budget and reach the first cell
        with pytest.raises(Reached):
            adams_dr_window(first_cell, (2, 100), 2, MAX_WINDOW_ROWS + 1)
        with pytest.raises(WorkBudgetExceeded) as err:
            adams_dr_window(first_cell, (2, 100), 2, MAX_WINDOW_ROWS + 2)
        assert str(err.value) == (
            f"window r_min=2, r_max={MAX_WINDOW_ROWS + 2} has "
            f"{MAX_WINDOW_ROWS + 1} rows, budget is {MAX_WINDOW_ROWS}"
        )


class TestProducts:
    def test_pairwise_products(self, sessions):
        g0 = resolve_named("g0", {}, C7)
        h3 = resolve_named("h", {"n": 3}, C7)
        gt = resolve_named("gamma_tilde", {"s": 3}, C7)
        assert product_nonzero_at_e2(sessions[7], [g0, h3])["nonzero"] is True
        assert product_nonzero_at_e2(sessions[7], [g0, gt])["nonzero"] is True
        assert product_nonzero_at_e2(sessions[7], [h3, gt])["nonzero"] is False

    def test_triple_product_is_a_boundary(self, sessions):
        classes = [
            resolve_named("g0", {}, C7),
            resolve_named("h", {"n": 3}, C7),
            resolve_named("gamma_tilde", {"s": 3}, C7),
        ]
        out = product_nonzero_at_e2(sessions[7], classes)
        assert out["nonzero"] is False
        assert out["bidegree"] == (6, 6168)
        assert out["conjectural"] is False

    def test_triple_product_at_next_index_survives(self, sessions):
        # only at n=3 does h[1,n] h[3,0] occur in some d1(h[i,0])
        classes = [
            resolve_named("g0", {}, C7),
            resolve_named("h", {"n": 4}, C7),
            resolve_named("gamma_tilde", {"s": 3}, C7),
        ]
        out = product_nonzero_at_e2(sessions[7], classes)
        assert out["nonzero"] is True
        assert out["bidegree"] == (6, 30864)
        assert out["conjectural"] is False

    def test_order_invariance(self, sessions):
        g0 = resolve_named("g0", {}, C7)
        h3 = resolve_named("h", {"n": 3}, C7)
        fwd = product_nonzero_at_e2(sessions[7], [g0, h3])
        rev = product_nonzero_at_e2(sessions[7], [h3, g0])
        assert fwd["nonzero"] == rev["nonzero"]
        assert fwd["bidegree"] == rev["bidegree"]

    def test_exterior_square_is_zero(self, sessions):
        h2 = resolve_named("h", {"n": 2}, C7)
        assert product_nonzero_at_e2(sessions[7], [h2, h2])["nonzero"] is False

    def test_conjectural_factor_marks_result(self, sessions):
        cls = resolve_named("h0hb", {"n": 4, "m": 2}, C7)
        # not conjectural itself; pair with a conjectural partner
        g3 = resolve_named("g", {"n": 3}, C7)
        assert g3.rep is None
        with pytest.raises(MissingRepresentative):
            product_nonzero_at_e2(sessions[7], [g3])

    def test_single_class_self_check(self, sessions):
        cls = resolve_named("h0hb", {"n": 4, "m": 2}, C5)
        out = product_nonzero_at_e2(sessions[5], [cls])
        assert out["nonzero"] is True

    def test_empty_class_list_rejected(self):
        with pytest.raises(InvalidParams):
            product_nonzero_at_e2(Session(C7), [])

    def test_raw_element_rejected(self):
        g0 = resolve_named("g0", {}, C7)
        with pytest.raises(InvalidParams, match="expected a NamedClass"):
            product_nonzero_at_e2(Session(C7), [g0, parse_element("h[1,0]", C7)])
