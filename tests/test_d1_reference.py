"""d1 against a reference Leibniz expansion built from generic products.

`reference_d1` expands d1 the slow way: d1 on each generator from its
defining sum, and each Leibniz term as two calls of `multiply` on
Monomials.  `may_diff.d1` builds per-generator term tables and forms
each term on packed exponent codes, so the two must agree term for term,
sign included.  d1 o d1 = 0 alone does not pin every sign: a sign error
that is consistent across a whole complex can still square to zero.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mayext.may_core import (
    KIND_A,
    KIND_H,
    Element,
    Monomial,
    PrimeContext,
    a,
    b,
    h,
    multiply,
    parse_element,
)
from mayext.may_diff import d1
from mayext.session import Session


def reference_d1_generator(g, ctx):
    terms = []
    if g.kind == KIND_H:
        for k in range(1, g.i):
            terms.append(multiply(h(g.i - k, k + g.j), h(k, g.j), ctx).scaled(-1))
    elif g.kind == KIND_A:
        for k in range(g.i):
            terms.append(multiply(a(k), h(g.i - k, k), ctx).scaled(-1))
    out = Element.zero(ctx)
    for t in terms:
        out = out + t
    return out


def reference_d1(x, ctx):
    if isinstance(x, Monomial):
        x = Element.from_monomials(ctx, [x])
    out = Element.zero(ctx)
    for mono in x.monomials():
        pairs = mono.factors
        odd_before = 0
        for idx, (g, e) in enumerate(pairs):
            dg = reference_d1_generator(g, ctx)
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


# generators whose d1 has one, two or three terms, and the h's those
# terms are made of, so that products with a repeated h come up often
POOL = [
    a(0), a(1), a(2), a(3),
    h(1, 0), h(1, 1), h(1, 2), h(2, 0), h(2, 1), h(3, 0),
    b(1, 0), b(1, 1), b(2, 0),
]


@st.composite
def rich_monomials(draw, p):
    picks = draw(
        st.lists(st.sampled_from(range(len(POOL))), min_size=0, max_size=6, unique=True)
    )
    pairs = []
    for k in picks:
        g = POOL[k]
        e = 1 if g.is_odd else draw(st.integers(min_value=1, max_value=4))
        pairs.append((g, e))
    return Monomial.build(pairs, draw(st.integers(min_value=1, max_value=p - 1)))


@given(st.sampled_from([3, 5, 7]), st.data())
@settings(max_examples=300, deadline=None)
def test_monomials_match_reference(p, data):
    ctx = PrimeContext(p)
    m = data.draw(rich_monomials(p))
    assert d1(m, ctx) == reference_d1(m, ctx)


@given(st.sampled_from([3, 5, 7]), st.data())
@settings(max_examples=150, deadline=None)
def test_elements_match_reference(p, data):
    ctx = PrimeContext(p)
    monos = data.draw(st.lists(rich_monomials(p), min_size=1, max_size=4))
    x = Element.from_monomials(ctx, monos)
    assert d1(x, ctx) == reference_d1(x, ctx)
    # the image of a boundary: its terms cancel to zero on both sides
    y = reference_d1(x, ctx)
    assert d1(y, ctx) == reference_d1(y, ctx)
    assert d1(y, ctx).is_zero


@pytest.mark.parametrize(
    "p, s, t",
    [(3, 8, 56), (3, 10, 103), (3, 12, 96), (5, 6, 1498), (5, 8, 1493), (7, 6, 1466)],
)
def test_every_basis_monomial_of_a_dense_cell(p, s, t):
    # every monomial of the cell, and a seeded random combination of them
    ctx = PrimeContext(p)
    basis = Session(ctx).basis(s, t)
    assert len(basis) >= 10
    assert any(e > 1 for m in basis for _, e in m.factors)
    for m in basis:
        assert d1(m, ctx) == reference_d1(m, ctx), m.text()
    rng = random.Random(f"{p}:{s}:{t}")
    x = Element.from_monomials(
        ctx, (m.scaled(rng.randrange(p)) for m in rng.sample(basis, 10))
    )
    assert d1(x, ctx) == reference_d1(x, ctx)


@pytest.mark.parametrize(
    "text, image",
    [
        # d1(h[2,0]) = -h[1,1] h[1,0] meets both h's already present
        ("h[1,0] h[1,1] h[2,0]", "0"),
        # d1(h[3,0]) = -h[2,1] h[1,0] - h[1,2] h[2,0]: the first term
        # repeats h[1,0] and vanishes, the second passes h[1,0]
        ("h[1,0] h[3,0]", "h[1,0] h[1,2] h[2,0]"),
        # the exponent 3 on a1 multiplies its term by 3; d1(b[1,0]) = 0
        ("a1^3 b[1,0]^2", "-3 a0 a1^2 h[1,0] b[1,0]^2"),
    ],
)
def test_pinned_images(text, image):
    ctx = PrimeContext(7)
    x = parse_element(text, ctx)
    assert d1(x, ctx) == parse_element(image, ctx) == reference_d1(x, ctx)
