"""End-to-end acceptance checks.

Each test covers one headline capability, prints exactly one verdict line
of the form ``criterion N: PASS|FAIL  detail  [elapsed]`` straight to the
real stdout (so the line survives pytest's output capture), then asserts
the same condition so the suite status matches the printed verdict.
"""

import random
import time

from mayext.may_core import (
    Monomial,
    PrimeContext,
    multiply,
    tridegree,
)
from mayext.may_diff import d1
from mayext.adams_certify import (
    DIM_CERTIFIED,
    E1_EMPTY,
    E2_ZERO,
    UPPER_BOUND,
    adams_dr_window,
    certify_ext_dim,
    product_nonzero_at_e2,
    resolve_named,
)
from mayext.les_dims import ext_dims
from mayext.greek_bp import (
    BetaIndex,
    GammaIndex,
    enumerate_beta,
    enumerate_ext0_KR,
    enumerate_ext1_BPK,
    stem_of,
    thom_image,
)
from mayext.cli_runner import load_claims, run_claims
from mayext.session import Session

from test_may_core import brute_force_basis, generator_pool

C5 = PrimeContext(5)
C7 = PrimeContext(7)

# shared across criteria so overlapping cells are computed once
SESSIONS = {5: Session(C5), 7: Session(C7)}
C7_REPORTS = SESSIONS[7].report


def verdict(capsys, num, ok, detail, started):
    elapsed = time.monotonic() - started
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"criterion {num}: {status}  {detail}  [{elapsed:.1f}s]", flush=True)
    return elapsed


def window_bases(ctx, n, m):
    """The eight stated first-term bases around t = (p^n + p^m) q."""
    E = (ctx.p**n + ctx.p**m) * ctx.q
    q = ctx.q
    return E, {
        (3, E): [f"h[1,{n}] b[1,{m - 1}]", f"h[1,{m}] b[1,{n - 1}]"],
        (3, E + 1): [f"a0 h[1,{m}] h[1,{n}]"],
        (3, E + q): [f"h[1,0] h[1,{m}] h[1,{n}]"],
        (4, E): [f"b[1,{m - 1}] b[1,{n - 1}]"],
        (4, E + 1): [f"a0 h[1,{n}] b[1,{m - 1}]", f"a0 h[1,{m}] b[1,{n - 1}]"],
        (4, E + 2): [f"a0^2 h[1,{m}] h[1,{n}]"],
        (4, E + q): [
            f"h[1,0] h[1,{n}] b[1,{m - 1}]",
            f"h[1,0] h[1,{m}] b[1,{n - 1}]",
        ],
        (4, E + 2 * q + 1): [f"a1 h[1,0] h[1,{m}] h[1,{n}]"],
    }


def test_five_generator_window_reproduces_exactly(capsys):
    started = time.monotonic()
    ok = True
    checked = 0
    for n, m in ((4, 2), (5, 3)):
        E, bases = window_bases(C7, n, m)
        for (s, t), want in bases.items():
            got = sorted(mono.text() for mono in Session(C7).basis(s, t))
            ok = ok and got == sorted(want)
            checked += 1
        cert = certify_ext_dim(C7_REPORTS, 5, E + C7.q + 1)
        ok = ok and cert.verdict == E2_ZERO
        survivor = Session(C7).report(6, E + 2)
        reps = [r for w in survivor.serialize()["weights"] for r in w["reps"]]
        ok = ok and survivor.e2_total == 1
        ok = ok and reps == [f"a0^2 b[1,{m - 1}] b[1,{n - 1}]"]
    elapsed = verdict(
        capsys,
        1,
        ok,
        f"{checked} first-term bases exact at both index pairs, "
        "top cell certified zero, double-b survivor present",
        started,
    )
    assert ok
    assert elapsed < 60


def test_one_line_generators_over_the_tower_cofiber(capsys):
    started = time.monotonic()
    expects = {
        2: ["h2", "v2^4 h0", "c2[1,0]"],
        4: ["h4", "v2^100 h2", "v2^104 h0", "c2[1,2]"],
        6: ["h6", "v2^2500 h4", "v2^2600 h2", "v2^2604 h0", "c2[1,4]"],
    }
    ok = True
    for n, want in expects.items():
        gens = enumerate_ext1_BPK(C5, n)
        ok = ok and [g.text() for g in gens] == want
        for g in gens:
            if g.kind == "v2h":
                k = (n - g.i) // 2
                ok = ok and g.e == 5 ** (n - 2 * k) * (5 ** (2 * k) - 1) // 6
    elapsed = verdict(
        capsys,
        2,
        ok,
        "one-line generator sets match for n in {2,4,6}, "
        "exponents follow the quotient law",
        started,
    )
    assert ok
    assert elapsed < 1


def test_zero_line_and_second_family_enumeration(capsys):
    started = time.monotonic()
    ext0_expects = {
        1: ["v2^5"],
        2: ["v2^25", "v1^24 c1~[21,0]"],
        3: ["v2^125", "v1^120 c1~[21,1]"],
        4: ["v2^625", "v1^600 c1~[21,2]", "v1^624 c1~[521,0]"],
    }
    beta_expects = {
        1: ["beta[1,1,4,0]"],
        2: ["beta[1,2,24,0]"],
        3: ["beta[21,1,4,0]", "beta[1,3,124,0]"],
        4: ["beta[21,2,24,0]", "beta[1,4,624,0]"],
    }
    ok = True
    for n, want in ext0_expects.items():
        ok = ok and [g.text() for g in enumerate_ext0_KR(C5, n, 1)] == want
    for n, want in beta_expects.items():
        t_internal = 5**n * 6 * C5.q - (5**n - 1) * C5.q
        ok = ok and [i.text() for i in enumerate_beta(C5, t_internal)] == want
    # the two torsion parameters are (p^3+1)/(p+1) and (p^5+1)/(p+1)
    ok = ok and (5**3 + 1) // 6 == 21 and (5**5 + 1) // 6 == 521
    params = [g.a for g in enumerate_ext0_KR(C5, 4, 1) if g.kind == "v1c1"]
    ok = ok and params == [21, 521]
    elapsed = verdict(
        capsys,
        3,
        ok,
        "zero-line ladders n=1..4 and second-family lists match, "
        "torsion parameters 21 and 521 appear",
        started,
    )
    assert ok
    assert elapsed < 1


def test_supposition_audit_certifies_every_cell(capsys):
    started = time.monotonic()
    claims = [
        c for c in load_claims() if c["source"].startswith("supposition audit")
    ]
    zero = [c for c in claims if c["source"].endswith("zero cell")]
    witness = [c for c in claims if c["source"].endswith("witness cell")]
    ok = len(zero) == 62 and len(witness) == 16
    results = run_claims(claims)
    ok = ok and all(r.status == "pass" for r in results)
    for n in (2, 3):
        T = 7**n * C7.q
        for s, t in ((2, T + C7.q), (2, T + 1), (3, T + C7.q)):
            cert = certify_ext_dim(C7_REPORTS, s, t)
            ok = ok and cert.verdict in (UPPER_BOUND, DIM_CERTIFIED)
            ok = ok and cert.dim >= 1
    elapsed = verdict(
        capsys,
        4,
        ok,
        f"{len(zero)} zero cells certified at n=2,3, "
        "all witness cells live with dim >= 1",
        started,
    )
    assert ok
    assert elapsed < 300


def test_differential_window_and_second_term_product(capsys):
    started = time.monotonic()
    # g0 h[4] gamma_tilde[3] sits at (6, p^4 q + 3(p^2+p+1) q). At h[3] the
    # product is a first-differential boundary (test_five_factor_boundary
    # pins the witness), so the criterion is checked one index higher.
    bidegree = (6, 7**4 * C7.q + 3 * (7**2 + 7 + 1) * C7.q)
    report = adams_dr_window(C7_REPORTS, bidegree, 2, 6)
    window_ok = report.sources_all_zero and report.not_boundary == "full"
    for row in report.rows:
        window_ok = window_ok and row.source is not None
        window_ok = window_ok and row.source.verdict in (E1_EMPTY, E2_ZERO)
    classes = [
        resolve_named("g0", {}, C7),
        resolve_named("h", {"n": 4}, C7),
        resolve_named("gamma_tilde", {"s": 3}, C7),
    ]
    product = product_nonzero_at_e2(SESSIONS[7], classes)
    product_ok = product["nonzero"] is True and product["bidegree"] == bidegree
    detail = (
        f"window r=2..6 sources {'' if window_ok else 'NOT '}certified zero, "
        f"product {'' if product_ok else 'NOT '}nonzero at the second term "
        f"at {bidegree}"
    )
    elapsed = verdict(capsys, 5, window_ok and product_ok, detail, started)
    assert window_ok
    assert product_ok
    assert elapsed < 120


def test_cofiber_dimension_propagation(capsys):
    started = time.monotonic()
    ok = True
    zeros = 0
    for p in (5, 7):
        ctx = PrimeContext(p)
        session = SESSIONS[p]

        def dims(spectrum, s, t):
            return ext_dims(session, spectrum, s, t)

        for n in (2, 3):
            T = p**n * ctx.q
            zero_cells = [
                ("M", 1, T + 1),
                ("M", 1, T + 2),
                ("M", 4, T + 2),
                ("M2", 2, T),
                ("M2", 2, T + 1),
                ("M2", 3, T + 1),
                ("K", 2, T + 1),
                ("K", 2, T + 2),
                ("K", 3, T + 1),
                ("K", 3, T + 2),
                ("K2", 2, T),
                ("K2", 3, T + 1),
                ("L", 2, T + ctx.q),
            ]
            for spectrum, s, t in zero_cells:
                d = dims(spectrum, s, t)
                ok = ok and (d.lo, d.hi) == (0, 0)
                zeros += 1
            unit = dims("M", 1, T)
            ok = ok and (unit.lo, unit.hi) == (1, 1)
            ok = ok and dims("K", 1, T).lo >= 1
    elapsed = verdict(
        capsys,
        6,
        ok,
        f"{zeros} zero cells exact across both primes, "
        "unit cells pinned, cofiber lower bound holds",
        started,
    )
    assert ok
    assert elapsed < 120


def random_monomial(rng, ctx):
    pool = generator_pool(ctx.p)
    pairs = []
    for k in rng.sample(range(len(pool)), rng.randint(0, 4)):
        g = pool[k]
        e = 1 if g.is_odd else rng.randint(1, 3)
        pairs.append((g, e))
    return Monomial.build(pairs, rng.randint(1, ctx.p - 1))


def test_algebra_property_suites(capsys, reversed_generators):
    started = time.monotonic()
    rng = random.Random(20260819)
    ok = True
    contexts = [PrimeContext(p) for p in (3, 5, 7)]

    for i in range(1000):
        ctx = contexts[i % 3]
        ok = ok and d1(d1(random_monomial(rng, ctx), ctx), ctx).is_zero

    for i in range(300):
        ctx = contexts[i % 3]
        x, y = random_monomial(rng, ctx), random_monomial(rng, ctx)
        sign = -1 if x.parity else 1
        lhs = d1(multiply(x, y, ctx), ctx)
        rhs = multiply(d1(x, ctx), y, ctx) + multiply(x, d1(y, ctx), ctx).scaled(sign)
        ok = ok and lhs == rhs
        comm = (-1) ** (x.parity * y.parity)
        ok = ok and multiply(x, y, ctx) == multiply(y, x, ctx).scaled(comm)
        out = multiply(x, y, ctx)
        if not out.is_zero:
            dx, dy = x.tridegree(ctx), y.tridegree(ctx)
            ok = ok and tridegree(out, ctx) == (dx.s + dy.s, dx.t + dy.t, dx.u + dy.u)

    oracle_cells = {3: [(6, 244)], 5: [(6, 2000)], 7: [(6, 2000)]}
    caps = {3: 400, 5: 2000, 7: 2000}
    for p, cells in oracle_cells.items():
        for _ in range(3):
            cells.append((rng.randint(3, 6), rng.randint(0, caps[p])))
    checked = 0
    for p, cells in oracle_cells.items():
        ctx = PrimeContext(p)
        for s, t in cells:
            fast = [mono.factors for mono in Session(ctx).basis(s, t)]
            ok = ok and fast == brute_force_basis(ctx, s, t)
            checked += 1

    reversal_cells = [
        (C5, 1, 40), (C5, 2, 48), (C5, 2, 200), (C5, 3, 201),
        (C5, 3, 208), (C5, 4, 248), (C7, 2, 588), (C7, 3, 589),
    ]
    for ctx, s, t in reversal_cells:
        fwd = Session(ctx).report(s, t)
        with reversed_generators() as calls:
            rev = Session(ctx).report(s, t)
        ok = ok and bool(calls)
        fwd_dims = {u: w.e2_dim for u, w in fwd.weights.items()}
        rev_dims = {u: w.e2_dim for u, w in rev.weights.items()}
        ok = ok and fwd_dims == rev_dims and fwd.e2_total == rev.e2_total

    elapsed = verdict(
        capsys,
        7,
        ok,
        "1000 double-differential, 300 derivation/commutativity/degree, "
        f"{checked} basis-oracle, {len(reversal_cells)} reversal checks clean",
        started,
    )
    assert ok


def test_stem_bookkeeping_matches_resolved_bidegrees(capsys):
    started = time.monotonic()
    ok = True
    checked = 0

    def agree(ctx, family, params):
        cls = resolve_named(family, params, ctx)
        return stem_of(ctx, family, params) == cls.t - cls.s

    for p in (5, 7):
        ctx = PrimeContext(p)
        for n in range(1, 5):
            ok = ok and agree(ctx, "h0h", {"n": n})
            ok = ok and agree(ctx, "h0b", {"n": n})
            checked += 2
        for n, m in ((3, 1), (4, 2), (4, 1)):
            ok = ok and agree(ctx, "h0hh", {"n": n, "m": m})
            ok = ok and agree(ctx, "h0hb", {"n": n, "m": m})
            checked += 2
        for s in range(3, p):
            ok = ok and agree(ctx, "gamma_tilde", {"s": s})
            cls = resolve_named("gamma_tilde", {"s": s}, ctx)
            got = tridegree(cls.rep, ctx)
            t = s * p**2 * ctx.q + (s - 1) * p * ctx.q + (s - 2) * ctx.q + s - 3
            ok = ok and (got.s, got.t) == (cls.s, cls.t) == (s, t)
            checked += 2
        # index routes: the stem is the internal degree minus the filtration
        for s in (1, 2, 3):
            idx = BetaIndex(1, s, p**s - 1, 0)
            image = thom_image(ctx, idx)
            ok = ok and image.text() == f"h0h[{s + 1}]"
            ok = ok and idx.degree(ctx) == image.t
            ok = ok and stem_of(
                ctx, "beta", {"a": 1, "s": s, "b": p**s - 1, "c": 0}
            ) == idx.degree(ctx) - 2
            idx = BetaIndex(1, s, p**s, 0)
            image = thom_image(ctx, idx)
            ok = ok and image.text() == f"b[{s}]"
            ok = ok and idx.degree(ctx) == image.t
            checked += 4
        for k in (1, 2):
            for m in (1, k):
                idx = GammaIndex(p**k, p**k - p ** (m - 1), p ** (m - 1) - 1)
                if idx.c < 1 or idx.b < 1:
                    continue
                image = thom_image(ctx, idx)
                ok = ok and image.text() == f"h0hh[{k + 2},{m}]"
                ok = ok and idx.degree(ctx) == image.t
                ok = ok and stem_of(
                    ctx, "gamma", {"t": idx.t, "b": idx.b, "c": idx.c}
                ) == idx.degree(ctx) - 3
                checked += 3

    elapsed = verdict(
        capsys,
        8,
        ok,
        f"{checked} stem identities agree across families, index routes, "
        "and the detection dictionary",
        started,
    )
    assert ok
