"""Family index admissibility, BP-side enumeration, and the detection dictionary."""

import itertools

import pytest

from mayext import greek_bp
from mayext.may_core import InvalidParams, ParseError, PrimeContext, WorkBudgetExceeded
from mayext.greek_bp import (
    AlphaIndex,
    BetaIndex,
    BPGen,
    ColumnTooLarge,
    GammaIndex,
    NoDictionaryEntry,
    UnknownFamily,
    _bound,
    alpha_generators,
    beta_admissible,
    enumerate_beta,
    enumerate_ext0_KR,
    enumerate_ext1_BPK,
    parse_index,
    stem_of,
    thom_image,
)
from mayext.adams_certify import resolve_named

C3 = PrimeContext(3)
C5 = PrimeContext(5)
C7 = PrimeContext(7)


class TestIndexBasics:
    def test_degrees(self):
        assert BetaIndex(1, 1, 4).degree(C5) == 5 * 6 * 8 - 4 * 8
        assert GammaIndex(25, 20, 4).degree(C5) == (25 * 31 - 20 * 6 - 4) * 8
        assert AlphaIndex(2, 1).degree(C5) == 2 * 5 * 8

    def test_alpha_denominator(self):
        assert AlphaIndex(1, 1).denominator == 2
        assert AlphaIndex(3, 0).denominator == 1

    def test_text_forms(self):
        assert BetaIndex(1, 2, 24, 0).text() == "beta[1,2,24,0]"
        assert GammaIndex(5, 4, 0).text() == "gamma[5,4,0]"
        assert AlphaIndex(1, 1).text() == "alpha[1,1]"

    @pytest.mark.parametrize(
        "ctor,args",
        [
            (BetaIndex, (0, 1, 1, 0)),
            (BetaIndex, (1, -1, 1, 0)),
            (BetaIndex, (1, 1, 0, 0)),
            (GammaIndex, (0, 1, 1)),
            (GammaIndex, (1, 0, 1)),
            (AlphaIndex, (0, 1)),
            (AlphaIndex, (1, -1)),
        ],
    )
    def test_invalid_indexes(self, ctor, args):
        with pytest.raises(InvalidParams):
            ctor(*args)


class TestAdmissibility:
    def test_bound_table(self):
        # B(0) = 1, B(k) = p^k + p^(k-1) - 1
        assert _bound(5, 0) == 1
        assert _bound(5, 1) == 5
        assert _bound(5, 2) == 29
        assert _bound(3, 2) == 11
        assert _bound(5, -1) == 0

    def test_multiples_of_p_in_a_are_rejected(self):
        assert not beta_admissible(C5, BetaIndex(5, 1, 4, 0))
        assert beta_admissible(C5, BetaIndex(6, 1, 4, 0))

    def test_b_window_for_a_equal_one(self):
        # with a = 1 the denominator may not exceed p^s (s in strict mode)
        assert beta_admissible(C5, BetaIndex(1, 1, 5, 0))
        assert not beta_admissible(C5, BetaIndex(1, 1, 6, 0))
        assert beta_admissible(C5, BetaIndex(1, 1, 1, 0), strict=True)
        assert not beta_admissible(C5, BetaIndex(1, 1, 4, 0), strict=True)

    def test_c_divisibility(self):
        # b must be divisible by p^c but not sit in the smaller window
        assert beta_admissible(C5, BetaIndex(2, 2, 5, 1))
        assert not beta_admissible(C5, BetaIndex(2, 2, 4, 1))

    def test_upper_bound_in_s_minus_c(self):
        assert beta_admissible(C5, BetaIndex(2, 1, 5, 0))
        assert not beta_admissible(C5, BetaIndex(2, 1, 6, 0))


def brute_force_beta(ctx, t_internal, strict=False):
    """Direct scan over the index cube, admissibility as the only filter."""
    p, q = ctx.p, ctx.q
    if t_internal <= 0 or t_internal % q:
        return []
    d = t_internal // q
    out = []
    s = 0
    while p**s * (p + 1) <= d + _bound(p, s):
        for b in range(1, _bound(p, s) + 1):
            if (d + b) % (p**s * (p + 1)):
                continue
            a = (d + b) // (p**s * (p + 1))
            for c in range(0, s + 1):
                idx = BetaIndex(a, s, b, c)
                if beta_admissible(ctx, idx, strict=strict):
                    out.append(idx)
        s += 1
    return sorted(out, key=lambda i: (i.s, i.a, i.b, i.c))


class TestEnumerateBeta:
    def test_off_lattice_degrees_are_empty(self):
        assert enumerate_beta(C5, 0) == []
        assert enumerate_beta(C5, 7) == []
        assert enumerate_beta(C5, -8) == []

    @pytest.mark.parametrize("ctx", [C3, C5])
    def test_matches_brute_force(self, ctx):
        for d in range(1, 260):
            t_internal = d * ctx.q
            got = enumerate_beta(ctx, t_internal)
            assert got == brute_force_beta(ctx, t_internal), t_internal
            strict = enumerate_beta(ctx, t_internal, strict=True)
            assert strict == brute_force_beta(ctx, t_internal, strict=True)

    def test_enumerated_degrees_match(self):
        t_internal = 5**3 * 6 * 8 - (5**3 - 1) * 8
        for idx in enumerate_beta(C5, t_internal):
            assert idx.degree(C5) == t_internal

    def test_second_family_ladder(self):
        # degrees p^n (p+1) q - (p^n - 1) q for n = 1..4
        expects = {
            1: ["beta[1,1,4,0]"],
            2: ["beta[1,2,24,0]"],
            3: ["beta[21,1,4,0]", "beta[1,3,124,0]"],
            4: ["beta[21,2,24,0]", "beta[1,4,624,0]"],
        }
        for n, want in expects.items():
            t_internal = 5**n * 6 * 8 - (5**n - 1) * 8
            got = [i.text() for i in enumerate_beta(C5, t_internal)]
            assert got == want, n


class TestAlphaGenerators:
    def test_prime_power_split(self):
        assert alpha_generators(C5, 40) == [AlphaIndex(1, 1)]
        assert alpha_generators(C5, 16) == [AlphaIndex(2, 0)]
        assert alpha_generators(C5, 25 * 8) == [AlphaIndex(1, 2)]

    def test_off_lattice_is_empty(self):
        assert alpha_generators(C5, 12) == []
        assert alpha_generators(C5, 0) == []


class TestBPGen:
    def test_degrees(self):
        assert BPGen("v2", e=5).degree(C5) == 5 * 6 * 8
        assert BPGen("v1c1", v1exp=24, a=21, s=0).degree(C5) == 24 * 8 + 21 * 6 * 8
        assert BPGen("v2h", e=4, i=0).degree(C5) == 4 * 6 * 8 + 8
        assert BPGen("c2", a=1, s=0).degree(C5) == 31 * 8 - 6 * 8

    def test_c2_degree_only_pinned_for_a_one(self):
        assert BPGen("c2", a=2, s=0).degree(C5) is None
        assert BPGen("c2", a=1, s=0).degree(C5) is not None

    def test_text_forms(self):
        assert BPGen("v2", e=25).text() == "v2^25"
        assert BPGen("v2h", e=0, i=3).text() == "h3"
        assert BPGen("v2h", e=4, i=0).text() == "v2^4 h0"
        assert BPGen("v1c1", v1exp=600, a=21, s=2).text() == "v1^600 c1~[21,2]"
        assert BPGen("c2", a=1, s=4).text() == "c2[1,4]"

    def test_unknown_kind(self):
        with pytest.raises(InvalidParams):
            BPGen("v3").degree(C5)


class TestExt0Column:
    def test_ladders(self):
        expects = {
            (1, 1): ["v2^5"],
            (2, 1): ["v2^25", "v1^24 c1~[21,0]"],
            (3, 1): ["v2^125", "v1^120 c1~[21,1]"],
            (4, 1): ["v2^625", "v1^600 c1~[21,2]", "v1^624 c1~[521,0]"],
            (2, 2): ["v2^50", "v1^24 c1~[46,0]"],
        }
        for (n, t), want in expects.items():
            got = [g.text() for g in enumerate_ext0_KR(C5, n, t)]
            assert got == want, (n, t)

    def test_torsion_part_degrees(self):
        t_internal = 5**4 * 6 * 8
        for g in enumerate_ext0_KR(C5, 4, 1):
            assert g.degree(C5) == t_internal

    def test_leading_coefficients_track_truncation(self):
        # the c1~ numerators are (p^(2r+1) + 1)/(p + 1)
        assert (5**3 + 1) // 6 == 21
        assert (5**5 + 1) // 6 == 521
        got = [g.a for g in enumerate_ext0_KR(C5, 4, 1) if g.kind == "v1c1"]
        assert got == [21, 521]

    def test_bad_params(self):
        with pytest.raises(InvalidParams):
            enumerate_ext0_KR(C5, 0, 1)
        with pytest.raises(InvalidParams):
            enumerate_ext0_KR(C5, 1, 5)

    def test_budget_counts_the_v1_exponents(self, monkeypatch):
        # (5^4 - 1)/6 = 104 exponents at n = 4
        monkeypatch.setattr(greek_bp, "MAX_EXT0_CANDIDATES", 104)
        assert len(enumerate_ext0_KR(C5, 4, 2)) == 3
        monkeypatch.setattr(greek_bp, "MAX_EXT0_CANDIDATES", 103)
        with pytest.raises(ColumnTooLarge) as err:
            enumerate_ext0_KR(C5, 4, 2)
        assert str(err.value) == (
            "ext0 at n=4, t=2 has 104 v1 exponents to try, budget is 103"
        )
        assert isinstance(err.value, WorkBudgetExceeded)
        assert isinstance(err.value, InvalidParams)


class TestExt1Column:
    def test_ladders(self):
        expects = {
            2: ["h2", "v2^4 h0", "c2[1,0]"],
            3: ["h3", "v2^20 h1", "c2[1,1]"],
            4: ["h4", "v2^100 h2", "v2^104 h0", "c2[1,2]"],
            5: ["h5", "v2^500 h3", "v2^520 h1", "c2[1,3]"],
            6: ["h6", "v2^2500 h4", "v2^2600 h2", "v2^2604 h0", "c2[1,4]"],
        }
        for n, want in expects.items():
            assert [g.text() for g in enumerate_ext1_BPK(C5, n)] == want, n

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_ladder_exponents_are_integral(self, p):
        # (p^2k - 1) is always divisible by p + 1
        for k in range(1, 5):
            assert (p ** (2 * k) - 1) % (p + 1) == 0
        for n in range(2, 7):
            for g in enumerate_ext1_BPK(PrimeContext(p), n):
                if g.kind == "v2h":
                    k = (n - g.i) // 2
                    assert g.e == p ** (n - 2 * k) * (p ** (2 * k) - 1) // (p + 1)

    def test_needs_height_two(self):
        with pytest.raises(InvalidParams):
            enumerate_ext1_BPK(C5, 1)


class TestThomDictionary:
    @pytest.mark.parametrize(
        "p,index,want",
        [
            (5, "beta[1,1,4,0]", "h0h[2]"),
            (5, "beta[1,2,24,0]", "h0h[3]"),
            (5, "beta[1,2,25,0]", "b[2]"),
            (5, "gamma[25,20,4]", "h0hh[4,2]"),
            (5, "gamma[5,4,0]", "h0hh[3,1]"),
            (7, "beta[1,1,6,0]", "h0h[2]"),
            (7, "beta[1,1,7,0]", "b[1]"),
        ],
    )
    def test_entries(self, p, index, want):
        ctx = PrimeContext(p)
        assert thom_image(ctx, parse_index(index)).text() == want

    @pytest.mark.parametrize(
        "p,index",
        [
            (5, "gamma[2,1,1]"),
            (5, "alpha[1,1]"),
            (5, "beta[2,1,4,0]"),
            (5, "beta[1,0,1,0]"),
            (5, "beta[1,1,3,1]"),
        ],
    )
    def test_no_entry(self, p, index):
        ctx = PrimeContext(p)
        with pytest.raises(NoDictionaryEntry):
            thom_image(ctx, parse_index(index))

    @pytest.mark.parametrize("p", [5, 7])
    def test_degree_identity_through_the_dictionary(self, p):
        ctx = PrimeContext(p)
        for s in (1, 2, 3):
            idx = BetaIndex(1, s, p**s - 1, 0)
            cls = thom_image(ctx, idx)
            assert cls.text() == f"h0h[{s + 1}]"
            assert idx.degree(ctx) == cls.t
            idx = BetaIndex(1, s, p**s, 0)
            assert thom_image(ctx, idx).text() == f"b[{s}]"
        for k in (1, 2):
            for m in (1, k):
                idx = GammaIndex(p**k, p**k - p ** (m - 1), p ** (m - 1) - 1)
                if p ** (m - 1) - 1 < 1 or idx.b < 1:
                    continue
                cls = thom_image(ctx, idx)
                assert cls.text() == f"h0hh[{k + 2},{m}]"
                assert idx.degree(ctx) == cls.t


# every parameter form of every family stem_of answers for
STEM_PARAMS = {
    "beta": [("a", "s", "b", "c"), ("t", "n", "s")],
    "gamma": [("t", "b", "c"), ("n", "s")],
    "alpha": [("t", "n")],
    "gamma_tilde": [("s",)],
    "beta_tilde": [("s",)],
    "h0hh": [("n", "m")],
    "h0hb": [("n", "m")],
    **{name: [()] for name in ("a0", "alpha2_tilde", "g0")},
    **{
        name: [("n",)]
        for name in (
            "h0h", "h0b", "h0g", "h0l", "h0k", "h0l_prime",
            "h", "b", "g", "k", "l", "l_prime",
        )
    },
}


class TestStems:
    def test_h0_ladders(self):
        for p in (5, 7):
            ctx = PrimeContext(p)
            for n in range(1, 5):
                cls = resolve_named("h0h", {"n": n}, ctx)
                assert stem_of(ctx, "h0h", {"n": n}) == cls.t - cls.s
                cls = resolve_named("h0b", {"n": n}, ctx)
                assert stem_of(ctx, "h0b", {"n": n}) == cls.t - cls.s

    def test_two_index_ladders(self):
        for p in (5, 7):
            ctx = PrimeContext(p)
            for n, m in [(3, 1), (4, 2), (4, 1)]:
                for fam in ("h0hh", "h0hb"):
                    cls = resolve_named(fam, {"n": n, "m": m}, ctx)
                    assert stem_of(ctx, fam, {"n": n, "m": m}) == cls.t - cls.s

    def test_third_family_witness(self):
        for p in (5, 7):
            ctx = PrimeContext(p)
            for s in range(3, p):
                cls = resolve_named("gamma_tilde", {"s": s}, ctx)
                assert stem_of(ctx, "gamma_tilde", {"s": s}) == cls.t - cls.s

    def test_index_route_agrees_with_degree(self):
        # beta and gamma stems are the index degree minus the filtration
        idx = BetaIndex(1, 2, 48, 0)
        assert stem_of(C7, "beta", {"a": 1, "s": 2, "b": 48, "c": 0}) == (
            idx.degree(C7) - 2
        )
        g = GammaIndex(25, 20, 4)
        assert stem_of(C5, "gamma", {"t": 25, "b": 20, "c": 4}) == g.degree(C5) - 3
        al = AlphaIndex(2, 2)
        assert stem_of(C7, "alpha", {"t": 2, "n": 2}) == al.degree(C7) - 1

    def test_quotient_route_values(self):
        assert stem_of(C5, "beta", {"t": 2, "n": 1, "s": 3}) == 454
        p, q = 7, 12
        want = p**4 * q + (p**2 - 3) * (p + 1) * q - q - 3
        assert stem_of(C7, "gamma", {"n": 2, "s": 3}) == want

    def test_conjectural_partner_stems(self):
        p, q = 7, 12
        assert stem_of(C7, "h0g", {"n": 2}) == p**3 * q + 2 * p**2 * q + q - 3
        assert stem_of(C7, "h0l", {"n": 2}) == p**3 * q + 2 * p**2 * q + q - 4
        assert stem_of(C7, "h0k", {"n": 2}) == 2 * p**3 * q + p**2 * q + q - 3
        assert stem_of(C7, "h0l_prime", {"n": 2}) == 2 * p**3 * q + p**2 * q + q - 4
        assert stem_of(C7, "beta_tilde", {"s": 2}) == 2 * p * q + q - 2

    def test_unknown_family(self):
        with pytest.raises(UnknownFamily):
            stem_of(C5, "delta", {"n": 1})
        # the name is checked before the power budget sees p^(n+1)
        with pytest.raises(UnknownFamily, match="no stem formula for 'nosuch'"):
            stem_of(C5, "nosuch", {"n": 10**9})

    def test_missing_params(self):
        with pytest.raises(InvalidParams):
            stem_of(C5, "beta", {"a": 1, "s": 1})
        with pytest.raises(InvalidParams):
            stem_of(C5, "h0h", {})

    @pytest.mark.parametrize("family", sorted(STEM_PARAMS))
    def test_answer_is_an_int_or_a_typed_error(self, family):
        for p in (3, 5, 7):
            ctx = PrimeContext(p)
            for keys in STEM_PARAMS[family]:
                for values in itertools.product(range(-2, 6), repeat=len(keys)):
                    params = dict(zip(keys, values))
                    try:
                        got = stem_of(ctx, family, params)
                    except (InvalidParams, UnknownFamily):
                        continue
                    assert type(got) is int, (p, params, got)


class TestParseIndex:
    def test_round_trips(self):
        for text in ["beta[1,2,24,0]", "gamma[25,20,4]", "alpha[1,1]"]:
            assert parse_index(text).text() == text

    def test_whitespace_tolerated(self):
        assert parse_index(" beta[1, 2, 24, 0] ").text() == "beta[1,2,24,0]"

    @pytest.mark.parametrize(
        "bad",
        [
            "beta[1,2]",
            "gamma[1,2,3,4]",
            "alpha[1]",
            "delta[1,2]",
            "beta[1,-1,2,0]",
            "beta[x,1,2,0]",
            "beta 1 2 24 0",
        ],
    )
    def test_errors(self, bad):
        with pytest.raises(ParseError):
            parse_index(bad)


class TestPowerBudget:
    """Every power of p by a user's exponent is formed by may_core.power
    first: 5^512 is the least power of 5 it refuses, and 5^511 is formed."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda k: BetaIndex(1, k, 1).degree(C5),
            lambda k: AlphaIndex(1, k).degree(C5),
            lambda k: beta_admissible(C5, BetaIndex(1, k, 1)),
            lambda k: beta_admissible(C5, BetaIndex(1, 1, 1, k)),
            lambda k: enumerate_ext1_BPK(C5, k),
            lambda k: stem_of(C5, "gamma", {"n": k, "s": 1}),
            lambda k: resolve_named("h", {"n": k - 1}, C5),
            lambda k: resolve_named("h0hh", {"n": k - 1, "m": 1}, C5),
        ],
    )
    def test_refused_before_it_is_computed(self, call):
        call(511)
        with pytest.raises(WorkBudgetExceeded) as err:
            call(512)
        assert str(err.value) == "5^512 has more than 1024 bits, the budget for '^'"

    def test_thom_image(self):
        with pytest.raises(NoDictionaryEntry):
            thom_image(C5, BetaIndex(1, 511, 1))
        with pytest.raises(WorkBudgetExceeded):
            thom_image(C5, BetaIndex(1, 512, 1))

    def test_ext0_refuses_the_power_before_its_candidates(self):
        with pytest.raises(WorkBudgetExceeded) as err:
            enumerate_ext0_KR(C5, 10**9, 1)
        assert str(err.value) == "5^1000000000 has more than 1024 bits, the budget for '^'"

    def test_index_literal_budget(self):
        with pytest.raises(WorkBudgetExceeded):
            parse_index("alpha[" + "1" * 400 + ",0]")
