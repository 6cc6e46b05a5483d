"""Command-line surface, expression parsing, disk cache, and claim runner."""

import hashlib
import json
import logging
import os
import resource
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from collections import Counter
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

import mayext
from mayext import cli_runner, may_diff, session as session_module
from mayext.adams_certify import product_nonzero_at_e2, resolve_named
from mayext.les_dims import ext_dims
from mayext.may_core import (
    InvalidParams,
    ParseError,
    PrimeContext,
    WorkBudgetExceeded,
    product,
)
from mayext.may_diff import (
    SCHEMA_VERSION,
    e2_rank,
    summary_to_report,
)
from mayext.cli_runner import (
    WindowTooLarge,
    chart_data,
    eval_expr,
    load_claims,
    main,
    run_claims,
)
from mayext.session import DiskCache, Session

from test_may_core import keeps_no_levels

C3 = PrimeContext(3)
C5 = PrimeContext(5)
C7 = PrimeContext(7)

# g0, h[3] and gamma_tilde[3] at p=7: g0 h[3] survives, h[3] gamma_tilde[3]
# and the triple product, in (6, 6168), are boundaries
PRODUCT_CLASSES = [
    resolve_named(name, params, C7)
    for name, params in (("g0", {}), ("h", {"n": 3}), ("gamma_tilde", {"s": 3}))
]


@pytest.fixture()
def runner():
    return CliRunner()


def run_module(args, memory_mb=None):
    """`python -m mayext ARGS` in a fresh interpreter, stopped after 10 s,
    with its address space capped at memory_mb MiB when that is given."""

    def cap():
        limit = memory_mb << 20
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return subprocess.run(
        [sys.executable, "-m", "mayext", *args],
        capture_output=True, text=True, timeout=10,
        env={**os.environ, "PYTHONPATH": str(Path(mayext.__file__).parents[1])},
        preexec_fn=cap if memory_mb else None,
    )


class TestEvalExpr:
    def test_precedence(self):
        assert eval_expr("2+3*4", C5) == 14
        assert eval_expr("2*3^2", C5) == 18
        assert eval_expr("(2+3)*4", C5) == 20
        assert eval_expr("2^3^2", C5) == 512

    def test_variables(self):
        assert eval_expr("p^2*q", C5) == 200
        assert eval_expr("p*(p+1)*q - 4*q", C5) == 208

    def test_unary_minus(self):
        assert eval_expr("-p^2", C7) == -49
        assert eval_expr("3--2", C5) == 5
        assert eval_expr("-(p+1)", C5) == -6

    def test_int_passthrough(self):
        assert eval_expr(12, C5) == 12
        assert eval_expr(-3, C5) == -3

    def test_whitespace(self):
        assert eval_expr("  p ^ 2  * q ", C5) == 200

    def test_unknown_name_reports_column(self):
        with pytest.raises(ParseError) as err:
            eval_expr("q + foo", C5)
        assert "foo" in str(err.value)

    def test_power_budget(self):
        # a power is refused when its result has more than MAX_POWER_BITS bits
        assert cli_runner.MAX_POWER_BITS == 1024
        assert eval_expr("2^1023", C5) == 2**1023
        assert eval_expr("3^1023", C5) == 3**1023
        assert eval_expr("1^(10^300)", C5) == 1
        assert eval_expr("0^(10^300)", C5) == 0
        with pytest.raises(WorkBudgetExceeded) as err:
            eval_expr("2^1024", C5)
        assert str(err.value) == "2^1024 has more than 1024 bits, the budget for '^'"

    def test_value_budget(self):
        # literals, sums, differences and products of more than
        # MAX_POWER_BITS bits are refused; a literal before int() reads it
        assert eval_expr("2^1023 + (2^1023 - 1)", C5) == 2**1024 - 1
        assert eval_expr("1 - 2^1023 - 2^1023", C5) == 1 - 2**1024
        assert eval_expr("9" * 308, C5) == 10**308 - 1
        cases = {
            "2^1023 + 2^1023": "a sum of 1025 bits",
            "-2^1023 - 2^1023": "a difference of 1025 bits",
            "2^1023 * 2": "a product of 1025 bits",
            "3^1023 + 0": "a sum of 1622 bits",
            "1" * 5000: "a literal of 5000 digits",
            "1" * 310: "a literal of 310 digits",
        }
        for text, what in cases.items():
            with pytest.raises(WorkBudgetExceeded) as err:
                eval_expr(text, C5)
            assert str(err.value) == f"{what} has more than 1024 bits, the budget for a value"
        # an int, as a claims file gives it, is under the same budget
        assert eval_expr(1 - 2**1024, C5) == 1 - 2**1024
        for value, bits in ((2**1024, 1025), (-(2**1400), 1401)):
            with pytest.raises(WorkBudgetExceeded) as err:
                eval_expr(value, C5)
            assert str(err.value) == (
                f"a number of {bits} bits has more than 1024 bits, the budget for a value"
            )

    def test_nesting_bound(self):
        # MAX_NESTING factors one inside another answer, one more is refused
        assert cli_runner.MAX_NESTING == 100
        assert eval_expr("(" * 99 + "p" + ")" * 99, C5) == 5
        assert eval_expr("-" * 99 + "2", C5) == -2
        assert eval_expr("1^" * 99 + "2", C5) == 1
        for text in ("(" * 100 + "p" + ")" * 100, "-" * 100 + "2", "1^" * 100 + "2"):
            with pytest.raises(ParseError) as err:
                eval_expr(text, C5)
            assert str(err.value) == "more than 100 nested factors"

    @pytest.mark.parametrize("text", ["\u00b2", "\u0663", "1\u0663", "p + \uff11"])
    def test_ascii_digits_only(self, text):
        # a superscript two, an Arabic-Indic three and a fullwidth one are
        # digits to str.isdigit, not to the grammar
        with pytest.raises(ParseError):
            eval_expr(text, C5)

    @pytest.mark.parametrize("bad", ["", "2+", "(2", "2^-1", "p q", "3..2", True, None, 2.5])
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            eval_expr(bad, C5)


class TestDiskCache:
    def test_round_trip(self, tmp_path):
        cache = DiskCache(tmp_path)
        key = {"module": "e2", "p": 5, "s": 1, "t": 8, "schema_version": SCHEMA_VERSION}
        assert cache.get(key) is None
        cache.put(key, {"answer": 41})
        assert cache.get(key) == {"answer": 41}

    def test_path_is_key_canonical(self, tmp_path):
        cache = DiskCache(tmp_path)
        a = cache.path_for({"x": 1, "y": 2})
        b = cache.path_for({"y": 2, "x": 1})
        assert a == b

    def test_corrupt_file_is_a_miss(self, tmp_path, caplog, capsys):
        cache = DiskCache(tmp_path)
        key = {"p": 5}
        cache.put(key, 7)
        path = cache.path_for(key)
        path.write_text("{not json")
        with caplog.at_level(logging.WARNING, logger="mayext"):
            assert cache.get(key) is None
        assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
            ("mayext", logging.WARNING, f"corrupt cache file {path.name}, recomputing")
        ]
        # the warning is a log record; only the command line prints it
        assert capsys.readouterr().err == ""

    def test_key_mismatch_is_a_miss(self, tmp_path, caplog):
        cache = DiskCache(tmp_path)
        key = {"p": 5, "s": 1}
        cache.put(key, 7)
        cache.path_for(key).write_text(json.dumps({"key": {"p": 7}, "value": 9}))
        assert cache.get(key) is None
        assert "mismatch" in caplog.text

    def test_no_stray_tmp_files(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put({"p": 5}, list(range(50)))
        assert not list(tmp_path.glob("*.tmp"))


class TestSession:
    def test_memo_returns_same_report(self):
        session = Session(C7)
        assert session.report(1, 588) is session.report(1, 588)

    @pytest.mark.parametrize("s, t", [(2, -10), (-1, 5)])
    def test_negative_bidegree_builds_no_column(self, s, t):
        # records and bases both refuse it, before a column
        session = Session(C7)
        for read in (session.report, session.basis):
            with pytest.raises(InvalidParams) as err:
                read(s, t)
            assert str(err.value) == f"bidegree out of range: ({s},{t})"
        assert session.columns == {} and session.memo == {}

    def test_disk_round_trip(self, tmp_path):
        first = Session(C7, cache_dir=tmp_path)
        direct = first.report(1, 588)
        assert list(tmp_path.glob("*.json"))
        second = Session(C7, cache_dir=tmp_path)
        cached = second.report(1, 588)
        assert cached.serialize() == direct.serialize()

    def test_summary_round_trip(self):
        # the reader accepts every record as its JSON text stores it: one at
        # p=7, and every record of p=3 with s <= 12 and t <= 120
        cells = [(C7, 5, 29413)] + [(C3, s, t) for t in range(121) for s in range(13)]
        sessions = {}
        for ctx, s, t in cells:
            rep = sessions.setdefault(ctx.p, Session(ctx)).report(s, t)
            back = summary_to_report(ctx, s, t, json.loads(json.dumps(rep.serialize())))
            assert back.e1_total == rep.e1_total
            assert back.e2_total == rep.e2_total
            assert back.serialize() == rep.serialize()

    def test_a_session_keeps_answers_not_scratch_work(self):
        # records form boundary rows of their own and drop them, and a read
        # drops its reachability levels: the session keeps the records and
        # the columns' cells, and nothing else
        session = Session(C3)
        for t in range(121):
            for s in range(13):
                session.report(s, t)
        assert len(session.memo) == 121 * 13
        assert set(vars(session)) == {"ctx", "memo", "columns", "disk"}
        assert all(keeps_no_levels(col) for col in session.columns.values())

    def test_disk_record_reduction_builds_boundary_data_once(self, tmp_path, monkeypatch):
        Session(C7, cache_dir=tmp_path).report(6, 6168)
        formed, cells = [], []
        real_cell, real_boundaries = may_diff.cell_homology, may_diff._boundaries

        def counting_boundaries(ctx, coding, source, block, where):
            formed.append(where)
            return real_boundaries(ctx, coding, source, block, where)

        def counting_cell(column, s):
            cells.append((s, column.t))
            return real_cell(column, s)

        monkeypatch.setattr(may_diff, "_boundaries", counting_boundaries)
        monkeypatch.setattr(session_module, "cell_homology", counting_cell)
        session = Session(C7, cache_dir=tmp_path)
        loaded = session.report(6, 6168)
        text = loaded.serialize()
        # g0 h[3] gamma_tilde[3] is a nonzero d1 boundary in (6, 6168)
        out = product_nonzero_at_e2(session, PRODUCT_CLASSES)
        assert (out["bidegree"], out["nonzero"]) == ((6, 6168), False)
        boundary = product([cls.rep for cls in PRODUCT_CLASSES], C7)
        assert not boundary.is_zero
        # the product's weight is one block of the cell, whose boundary rows
        # the product's reduction formed once
        (u,) = {m.tridegree(C7).u for m in boundary.monomials()}
        where = f"(6,6168,{u})"
        assert formed == [where]
        # each later reduction forms the rows of the weights it meets, once
        # each; the representative lies in another weight
        column = session.columns[6168]
        (rep,) = loaded.representatives
        (v,) = {m.tridegree(C7).u for m in rep.monomials()}
        assert v != u
        assert e2_rank(column, 6, [rep]) == 1
        assert e2_rank(column, 6, [rep, boundary]) == 1
        assert e2_rank(column, 6, [boundary]) == 0
        assert formed == [where, f"(6,6168,{v})", f"(6,6168,{v})", where, where]
        # no record is computed
        assert cells == []
        # the record is still what was written, and stays the memo's
        assert loaded.serialize() == text
        assert session.report(6, 6168) is loaded

    def test_failed_write_warns_once_and_answers(self, tmp_path, caplog):
        # the directory goes after the session made it, so every write
        # fails; the first once ended in a FileNotFoundError traceback
        root = tmp_path / "cache"
        session = Session(C5, cache_dir=root)
        root.rmdir()
        cells = [(1, 8), (2, 16), (1, 200)]
        with caplog.at_level(logging.WARNING, logger="mayext"):
            got = [session.report(s, t).serialize() for s, t in cells]
        assert got == [Session(C5).report(s, t).serialize() for s, t in cells]
        [record] = caplog.records
        assert record.getMessage().startswith("cache write failed (")
        assert not root.exists()

    def test_les_and_products_read_a_warm_cache(self, tmp_path):
        queries = [("S", 1, 200), ("M", 2, 201), ("L", 2, 208), ("K2", 3, 207)]
        g0, h3, gt = PRODUCT_CLASSES

        def answers(cache_dir=None):
            s5, s7 = Session(C5, cache_dir), Session(C7, cache_dir)
            dims = [ext_dims(s5, *query) for query in queries]
            products = [
                product_nonzero_at_e2(s7, classes)["nonzero"]
                for classes in ([g0, h3], [h3, gt], [g0, h3, gt])
            ]
            return dims, products

        plain = answers()
        assert plain[1] == [True, False, False]
        assert answers(tmp_path) == plain
        written = sorted(tmp_path.glob("*.json"))
        assert written
        # the warm run reads every record from disk, so it writes none
        assert answers(tmp_path) == plain
        assert sorted(tmp_path.glob("*.json")) == written


# `les --json` at p=5, one cell per column: (s, t, t as evaluated, lo, hi,
# provenance). Each map has witness rank 1 on both sides, except at S, at K
# (the unit cell) and at K2 (an honest interval).
LES_JSON = {
    "S": ("1", "p^2*q", 200, 1, 1, "UpperBound+witness"),
    "M": (
        "2", "201", 201, 0, 0,
        "ker a0:(2,200)->(3,201) rank[1,1] + cok a0:(1,200)->(2,201) rank[1,1]",
    ),
    "M2": (
        "2", "200", 200, 0, 0,
        "ker a0:(2,200)->(3,201) rank[1,1] + cok a0:(1,200)->(2,201) rank[1,1]",
    ),
    "L": (
        "2", "208", 208, 0, 0,
        "ker h0:(2,200)->(3,208) rank[1,1] + cok h0:(1,200)->(2,208) rank[1,1]",
    ),
    "K": (
        "1", "p^2*q", 200, 1, 1,
        "cok d:M(0,191)->M(1,200) rank[0,0] + ker d:M(1,191)->M(2,200) rank[0,0]",
    ),
    "K2": (
        "3", "207", 207, 0, 2,
        "cok d:M2(2,207)->M2(3,216) rank[0,1] + ker d:M2(3,207)->M2(4,216) rank[0,1]",
    ),
}


class TestBasicCommands:
    def test_basis(self, runner):
        res = runner.invoke(main, ["-p", "7", "basis", "1", "p^2*q"])
        assert res.exit_code == 0
        assert res.stdout == "h[1,2]  u=1\n"
        assert "total 1" in res.stderr

    @pytest.mark.parametrize("command", ["basis", "e2"])
    def test_negative_bidegree_exit_one(self, runner, command):
        res = runner.invoke(main, ["-p", "7", command, "--", "2", "-10"])
        assert res.exit_code == 1
        assert res.stdout == ""
        assert res.stderr == "Error: bidegree out of range: (2,-10)\n"

    def test_d1(self, runner):
        res = runner.invoke(main, ["-p", "7", "d1", "a2"])
        assert res.exit_code == 0
        assert res.stdout.strip() == "6 a0 h[2,0] + 6 a1 h[1,1]"

    def test_d1_of_written_product(self, runner):
        # the factors as written are their product, sign included:
        # d1(h[2,0] h[1,2]) = d1(h[2,0]) h[1,2] = h[1,0] h[1,1] h[1,2]
        res = runner.invoke(main, ["-p", "3", "d1", "h[2,0] h[1,2]"])
        assert res.exit_code == 0
        assert res.stdout == "h[1,0] h[1,1] h[1,2]\n"

    @pytest.mark.parametrize("group", [[], ["greek"]])
    def test_command_list_reads_as_sentences(self, runner, group):
        # click cuts a short help after the first word that ends in ".",
        # which left "First differential of ELEMENT, e.g." in the list, and
        # one too long for the line with "...": each line is a sentence.  A
        # terminal gets at most 78 columns (CliRunner's 80 would hide a cut)
        res = runner.invoke(main, [*group, "--help"], terminal_width=78)
        assert res.exit_code == 0
        commands = [line.rstrip() for line in res.stdout.split("Commands:\n", 1)[1].splitlines()]
        assert len(commands) >= 6
        assert [line for line in commands if not line.endswith(".") or line.endswith("...")] == []
        assert not [line for line in commands if line.endswith("e.g.")]

    def test_e2_text(self, runner):
        res = runner.invoke(main, ["-p", "7", "e2", "1", "588"])
        assert res.exit_code == 0
        assert "first-term dim 1" in res.stdout
        assert "second-term dim 1" in res.stdout
        assert "h[1,2]" in res.stdout

    def test_e2_json(self, runner):
        res = runner.invoke(main, ["-p", "7", "e2", "1", "p^2*q", "--json"])
        data = json.loads(res.stdout)
        assert data["schema"] == SCHEMA_VERSION
        assert (data["p"], data["s"], data["t"]) == (7, 1, 588)
        assert data["e2"] == 1

    def test_vanish_exact(self, runner):
        res = runner.invoke(main, ["-p", "7", "vanish", "1", "q"])
        assert res.exit_code == 0
        assert res.stdout.strip() == "(1,12): DimCertified, dim = 1"

    def test_vanish_at_wide_t(self, runner):
        # t = 7^12 is far too wide for a reachability table
        res = runner.invoke(main, ["-p", "7", "vanish", "3", "p^12"])
        assert res.exit_code == 0
        assert res.stdout.strip() == "(3,13841287201): E1Empty, dim = 0"

    def test_vanish_upper_bound(self, runner):
        res = runner.invoke(main, ["-p", "7", "vanish", "1", "p^2*q"])
        assert res.stdout.strip() == "(1,588): UpperBound, dim <= 1"

    def test_window_text(self, runner):
        res = runner.invoke(main, ["-p", "7", "window", "1", "p^2*q", "--r-max", "2"])
        assert res.exit_code == 0
        assert "r=2: target (3,589) UpperBound; source vacuous" in res.stdout
        assert "permanent cycle up to r=1; not a boundary: full" in res.stdout

    def test_window_json(self, runner):
        res = runner.invoke(
            main, ["-p", "7", "window", "1", "p^2*q", "--r-max", "3", "--json"]
        )
        data = json.loads(res.stdout)
        assert data["not_boundary"] == "full"
        assert len(data["rows"]) == 2
        assert data["rows"][0]["source"] == {"vacuous": True}

    def test_les_text(self, runner):
        res = runner.invoke(main, ["-p", "5", "les", "M", "1", "p^2*q"])
        assert res.exit_code == 0
        assert res.stdout.splitlines()[0] == "M(1,200): dim in [1,1] (exact)"

    @pytest.mark.parametrize(
        "args,want",
        [
            (
                ["-p", "5", "les", "M2", "2", "p^2*q+q-1"],
                [
                    "M2(2,207): dim in [0,1]",
                    "  via ker a0:(2,207)->(3,208) rank[0,0]"
                    " + cok a0:(1,207)->(2,208) rank[0,0]",
                ],
            ),
            (
                ["-p", "5", "les", "K2", "3", "p^2*q+q"],
                [
                    "K2(3,208): dim in [0,2]",
                    "  via cok d:M2(2,208)->M2(3,217) rank[0,1]"
                    " + ker d:M2(3,208)->M2(4,217) rank[0,1]",
                ],
            ),
            (
                ["-p", "7", "les", "K2", "1", "p^2*q-q-2"],
                [
                    "K2(1,574): dim in [1,1] (exact)",
                    "  via cok d:M2(0,574)->M2(1,587) rank[0,0]"
                    " + ker d:M2(1,574)->M2(2,587) rank[0,0]",
                ],
            ),
        ],
        ids=["M2", "K2-wide", "K2-exact"],
    )
    def test_les_second_variable_provenance(self, runner, args, want):
        res = runner.invoke(main, args)
        assert res.exit_code == 0
        assert res.stdout.splitlines() == want

    def test_les_negative_bidegree(self, runner):
        res = runner.invoke(main, ["-p", "5", "les", "--", "S", "-1", "5"])
        assert res.exit_code == 0
        assert res.stdout.splitlines() == [
            "S(-1,5): dim in [0,0] (exact)",
            "  via out of range",
        ]

    @pytest.mark.parametrize("spectrum", LES_JSON)
    def test_les_json(self, runner, spectrum):
        s, t, t_val, lo, hi, provenance = LES_JSON[spectrum]
        res = runner.invoke(main, ["-p", "5", "les", spectrum, s, t, "--json"])
        data = json.loads(res.stdout)
        assert data == {
            "spectrum": spectrum,
            "s": int(s),
            "t": t_val,
            "lo": lo,
            "hi": hi,
            "exact": lo == hi,
            "provenance": provenance,
        }

    def test_les_json_grid_is_pinned(self, runner):
        # every column at p=3, s 1..4, t 9..20, which holds witness-raised
        # lower bounds and nonzero map ranks, pinned by the sha256 of the
        # outputs in order
        text = ""
        for spectrum in ("S", "M", "M2", "L", "K", "K2"):
            for s in range(1, 5):
                for t in range(9, 21):
                    res = runner.invoke(main, ["-p", "3", "les", spectrum, str(s), str(t), "--json"])
                    assert res.exit_code == 0
                    text += res.stdout
        assert text.count("+witness") == 9
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "213d7990c2dacf0edcaf99a90b6a7ed023806fbfa8c59fa5d76c9fe00b8b342b"

    def test_stems(self, runner):
        res = runner.invoke(main, ["-p", "5", "stems", "h0h", "-P", "n=2"])
        assert res.stdout.strip() == str(5**2 * 8 + 8 - 2)

    def test_stems_expression_value(self, runner):
        res = runner.invoke(main, ["-p", "5", "stems", "alpha", "-P", "t=1", "-P", "n=1"])
        assert res.stdout.strip() == "39"

    def test_stems_bad_param(self, runner):
        res = runner.invoke(main, ["-p", "5", "stems", "h0h", "-P", "n2"])
        assert res.exit_code == 2

    def test_stems_repeated_param(self, runner):
        # this once printed 1398, the stem of g[2]
        res = runner.invoke(main, ["stems", "g", "-P", "n=1", "-P", "n=2"])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert "-P gives 'n' more than once" in res.stderr

    @pytest.mark.parametrize(
        "args, key",
        [
            (["h", "-P", "n=1", "-P", "m=5", "-P", "bogus=7"], "m"),
            (["g0", "-P", "n=1"], "n"),
            # the keys are checked before the power budget sees p^(n+1)
            (["g0", "-P", "n=10^9"], "n"),
            (["alpha", "-P", "t=1", "-P", "n=1", "-P", "s=9"], "s"),
            (["beta", "-P", "a=1", "-P", "s=1", "-P", "b=1", "-P", "c=0", "-P", "t=1"], "t"),
        ],
        ids=[
            "named", "named-without-parameters", "named-past-the-budget", "index", "index-form"
        ],
    )
    def test_stems_unknown_param(self, runner, args, key):
        # the first of these once printed 39, the stem of h[1]
        res = runner.invoke(main, ["-p", "5", "stems", *args])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr.endswith(f"\nError: unknown parameter {key!r}\n")

    @pytest.mark.parametrize(
        "args, key",
        [(["beta", "-P", "a=1", "-P", "s=1", "-P", "b=1"], "c"), (["h"], "n")],
        ids=["index", "named"],
    )
    def test_stems_missing_param_exit_one(self, runner, args, key):
        # an index family and a named class say the same thing
        res = runner.invoke(main, ["-p", "5", "stems", *args])
        assert res.exit_code == 1
        assert res.stdout == ""
        assert res.stderr == f"Error: missing parameter {key!r}\n"

    @pytest.mark.parametrize(
        "args, message",
        [
            (["h0h", "-P", "n=-1"], "h0h[n] needs n >= 1"),
            (["h0g", "-P", "n=-1"], "h0g[n] needs n >= 0"),
            (
                ["beta", "-P", "a=0", "-P", "s=0", "-P", "b=0", "-P", "c=0"],
                "bad beta index BetaIndex(a=0, s=0, b=0, c=0)",
            ),
            (["beta_tilde", "-P", "s=0"], "beta_tilde[s] needs s >= 2"),
            (
                ["beta", "-P", "t=1", "-P", "n=-1", "-P", "s=1"],
                "beta[t,n,s] needs n >= 0, got n=-1",
            ),
        ],
        ids=["h0h", "h0g", "beta", "beta_tilde", "beta_tns"],
    )
    def test_stems_out_of_domain_exit_one(self, runner, args, message):
        # these once printed 7.6, 16.2, -2 and -10
        res = runner.invoke(main, ["-p", "5", "stems", *args])
        assert res.exit_code == 1
        assert res.stdout == ""
        assert res.stderr == f"Error: {message}\n"


class TestGreekCommands:
    def test_beta_list(self, runner):
        res = runner.invoke(main, ["greek", "beta-list", "p*(p+1)*q-4*q"])
        assert res.stdout.strip() == "beta[1,1,4,0]"

    def test_beta_check_admissible(self, runner):
        res = runner.invoke(main, ["greek", "beta-check", "beta[1,1,4,0]"])
        assert res.exit_code == 0
        assert res.stdout.strip() == "admissible"

    def test_beta_check_inadmissible_exit_one(self, runner):
        res = runner.invoke(main, ["greek", "beta-check", "beta[5,1,4,0]"])
        assert res.exit_code == 1
        assert res.stdout.strip() == "inadmissible"

    def test_beta_check_strict(self, runner):
        res = runner.invoke(main, ["greek", "beta-check", "beta[1,1,4,0]", "--strict"])
        assert res.exit_code == 1

    def test_beta_check_wrong_family(self, runner):
        res = runner.invoke(main, ["greek", "beta-check", "alpha[1,1]"])
        assert res.exit_code == 2

    def test_ext0(self, runner):
        res = runner.invoke(main, ["greek", "ext0", "2"])
        assert res.stdout.splitlines() == ["v2^25", "v1^24 c1~[21,0]"]
        assert "degree 1200" in res.stderr

    def test_ext0_outer_exponent(self, runner):
        res = runner.invoke(main, ["greek", "ext0", "2", "-t", "2"])
        assert res.stdout.splitlines() == ["v2^50", "v1^24 c1~[46,0]"]

    def test_ext0_answers_past_a_million_v1_exponents(self, runner):
        # about 1.6e20 v1 exponents at p = 5, once refused by a budget on
        # trying them one by one; the column is solved per valuation
        res = runner.invoke(main, ["-p", "5", "greek", "ext0", "30"])
        assert res.exit_code == 0
        lines = res.stdout.splitlines()
        assert len(lines) == 16
        assert lines[-1] == "v1^931322574615478515624 c1~[776102145512898763021,0]"
        assert res.stderr == "degree 44703483581542968750000\n"

    def test_ext1(self, runner):
        res = runner.invoke(main, ["greek", "ext1", "4"])
        assert res.stdout.splitlines() == ["h4", "v2^100 h2", "v2^104 h0", "c2[1,2]"]

    def test_alpha(self, runner):
        res = runner.invoke(main, ["greek", "alpha", "p*q"])
        assert res.stdout.strip() == "alpha[1,1]  denominator 2"

    def test_thom(self, runner):
        res = runner.invoke(main, ["greek", "thom", "beta[1,1,4,0]"])
        assert res.stdout.strip() == "h0h[2]"

    def test_thom_no_entry(self, runner):
        res = runner.invoke(main, ["greek", "thom", "alpha[1,1]"])
        assert res.exit_code == 0
        assert res.stdout.strip() == "NoDictionaryEntry"

    def test_thom_parse_error(self, runner):
        res = runner.invoke(main, ["greek", "thom", "beta[1,2]"])
        assert res.exit_code == 2


class TestChart:
    def test_json_cells(self, runner):
        res = runner.invoke(main, ["chart", "--s-max", "2", "--t-max", "20"])
        data = json.loads(res.stdout)
        assert data["schema"] == SCHEMA_VERSION and data["p"] == 5
        cells = {(c["s"], c["t"]): c for c in data["cells"]}
        assert cells[(1, 1)]["reps"] == ["a0"]
        assert cells[(1, 8)]["reps"] == ["h[1,0]"]
        assert cells[(2, 2)]["reps"] == ["a0^2"]
        for cell in data["cells"]:
            assert cell["stem"] == cell["t"] - cell["s"]
            assert cell["e2"] >= 1

    def test_tsv(self, runner):
        res = runner.invoke(main, ["chart", "--s-max", "1", "--t-max", "10", "--format", "tsv"])
        lines = res.stdout.splitlines()
        assert lines[0] == "s\tt\tstem\te1\te2\tverdict\treps"
        assert any(line.startswith("1\t1\t0\t") for line in lines[1:])

    def test_svg_is_well_formed(self, runner):
        res = runner.invoke(main, ["chart", "--s-max", "2", "--t-max", "20", "--format", "svg"])
        root = ET.fromstring(res.stdout)
        assert root.tag.endswith("svg")
        ns = {"svg": "http://www.w3.org/2000/svg"}
        assert len(root.findall(".//svg:circle", ns)) >= 3
        assert root.findall(".//svg:title", ns)

    def test_output_file(self, runner, tmp_path):
        out = tmp_path / "chart.json"
        res = runner.invoke(
            main, ["chart", "--s-max", "1", "--t-max", "10", "-o", str(out)]
        )
        assert res.exit_code == 0
        assert json.loads(out.read_text())["cells"]

    def test_bad_window(self, runner):
        res = runner.invoke(main, ["chart", "--s-max", "-1", "--t-max", "10"])
        assert res.exit_code == 1

    def test_chart_walks_a_column_at_a_time(self, monkeypatch):
        # a certificate reads only its own column, so the chart holds one
        # column at a time and leaves none in the session; the cells still
        # come in (s, t) order
        session, held = Session(C3), []
        real_column = session.column

        def counting_column(t):
            col = real_column(t)
            held.append(len(session.columns))
            return col

        monkeypatch.setattr(session, "column", counting_column)
        data = chart_data(session, 6, 40)
        assert session.columns == {} and max(held) == 1
        fresh = Session(C3)
        want = [(s, t) for s in range(7) for t in range(s, 41) if fresh.report(s, t).e2_total]
        assert [(c["s"], c["t"]) for c in data["cells"]] == want
        assert len(want) > 10

    def test_cell_budget(self, monkeypatch):
        # the budget counts the cells s <= t of the window and its rows,
        # before any is read
        def unread(s, t):
            raise AssertionError(f"read ({s},{t})")

        session = Session(C5)
        monkeypatch.setattr(session, "report", unread)
        # 20001, 20100 and 20015 cells, and 20001 rows of 21 cells
        for s_max, t_max in [(0, 20000), (199, 199), (9, 2005), (20000, 5)]:
            with pytest.raises(WindowTooLarge) as err:
                chart_data(session, s_max, t_max)
            assert isinstance(err.value, WorkBudgetExceeded)
        monkeypatch.setattr(cli_runner, "MAX_CELLS", 20015)
        with pytest.raises(AssertionError, match=r"read \(0,0\)"):
            chart_data(session, 9, 2005)
        with pytest.raises(WindowTooLarge):
            chart_data(session, 9, 2006)


SMALL_CLAIMS = {
    "claims": [
        {"kind": "e2_dim", "p": 5, "s": 1, "t": "q", "expect": 1},
        {"kind": "e2_dim", "p": 5, "s": 1, "t": "q", "expect": 2},
        {"kind": "ext_vanishing", "p": 5, "s": 1, "t": "q", "expect": "zero"},
        {
            "kind": "stem",
            "p": 5,
            "family": "beta_tilde",
            "params": {"s": 2},
            "expect": "2*p*q+q-2",
            "conjectural": True,
        },
        {"kind": "no_such_kind", "p": 5, "expect": 1},
        {"kind": "e2_dim", "s": 1, "t": 8, "expect": 1},
    ]
}


def write_claims(tmp_path, doc):
    path = tmp_path / "claims.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestRunClaims:
    def test_statuses(self, tmp_path):
        results = run_claims(SMALL_CLAIMS["claims"])
        statuses = [r.status for r in results]
        assert statuses == [
            "pass",
            "fail",
            "uncertified",
            "skipped-conjectural",
            "error",
            "error",
        ]
        assert "cannot certify zero" in results[2].detail
        assert "unknown claim kind" in results[4].detail
        assert "needs a prime" in results[5].detail

    def test_shipped_corpus_statuses(self):
        # the whole shipped corpus in process, its les_dim claims included
        results = run_claims(load_claims())
        assert Counter(r.status for r in results) == {
            "pass": 301,
            "skipped-conjectural": 6,
        }
        assert sum(r.claim["kind"] == "les_dim" for r in results) == 80

    def test_shipped_corpus_with_conjectures(self):
        # the six conjectural claims run too; the one product among them,
        # h0hb[4,2] at p=7, is reduced modulo the boundaries of its cell
        results = run_claims(load_claims(), include_conjectures=True)
        assert Counter(r.status for r in results) == {"pass": 307}
        conjectural = [r for r in results if r.claim.get("conjectural")]
        assert [r.claim["kind"] for r in conjectural] == ["product_nonzero"] + ["stem"] * 5
        assert conjectural[0].claim["classes"] == [{"name": "h0hb", "params": {"n": 4, "m": 2}}]

    @pytest.mark.parametrize(
        "claim",
        [
            {"kind": "dr_window", "p": 5, "s": 1, "t": 8, "r_max": 3, "expect": 5},
            {"kind": "stem", "p": 5, "family": "h0h", "params": [1], "expect": "q"},
            {"kind": "thom", "p": 5, "index": 5, "expect": "h0h[2]"},
        ],
        ids=["window-expect-int", "stem-params-list", "thom-index-int"],
    )
    def test_malformed_claim_is_an_error(self, runner, tmp_path, claim):
        (result,) = run_claims([claim])
        assert result.status == "error"
        assert result.detail.startswith("AttributeError")
        res = runner.invoke(main, ["verify", write_claims(tmp_path, [claim])])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert "1 claims: 1 error" in res.stdout

    def test_claim_numbers_are_budgeted(self, runner, tmp_path):
        # an s = 0 cell needs no search, so t = 2^1400 once passed at once
        claim = {"kind": "e2_dim", "p": 3, "s": 0, "t": 2**1400, "expect": 0}
        (result,) = run_claims([claim])
        assert result.status == "error"
        assert result.detail == (
            "WorkBudgetExceeded: a number of 1401 bits has more than 1024 bits, "
            "the budget for a value"
        )
        res = runner.invoke(main, ["verify", write_claims(tmp_path, [claim])])
        assert res.exit_code == 1
        assert "1 claims: 1 error" in res.stdout

    def test_list_expect_must_be_a_list_of_strings(self, runner, tmp_path):
        # a string expect was once read one character at a time
        claims = [
            {"kind": "beta_list", "p": 5, "t_internal": "2*p*q", "expect": "beta"},
            {"kind": "ext0_list", "p": 5, "n": 1, "expect": "alpha"},
            {"kind": "ext1_bpk_list", "p": 5, "n": 2, "expect": [1]},
            {"kind": "e1_basis", "p": 5, "s": 1, "t": 1, "expect": "a0"},
        ]
        res = runner.invoke(main, ["verify", "--json", write_claims(tmp_path, claims)])
        assert res.exit_code == 1
        results = json.loads(res.stdout)["results"]
        assert {r["status"] for r in results} == {"error"}
        assert {r["detail"] for r in results} == {
            "InvalidParams: expect must be a list of strings"
        }

    def test_include_conjectures_runs_them(self):
        results = run_claims(SMALL_CLAIMS["claims"][3:4], include_conjectures=True)
        assert results[0].status == "pass"

    def test_load_claims_accepts_bare_list(self, tmp_path):
        path = write_claims(tmp_path, [{"kind": "e2_dim"}])
        assert load_claims(path) == [{"kind": "e2_dim"}]

    def test_load_claims_rejects_other_shapes(self, tmp_path):
        from mayext.may_core import InvalidParams

        path = write_claims(tmp_path, {"claims": 3})
        with pytest.raises(InvalidParams):
            load_claims(path)

    def test_shipped_corpus_loads(self):
        claims = load_claims()
        assert len(claims) > 200
        assert all("kind" in c and "p" in c and "source" in c for c in claims)


class TestVerifyCommand:
    def test_mixed_file_exits_one(self, runner, tmp_path):
        path = write_claims(tmp_path, SMALL_CLAIMS)
        res = runner.invoke(main, ["verify", path])
        assert res.exit_code == 1
        assert "6 claims:" in res.stdout
        assert "1 error" not in res.stdout  # two errors aggregate
        assert "2 error" in res.stdout

    def test_passing_file_exits_zero(self, runner, tmp_path):
        doc = {"claims": [SMALL_CLAIMS["claims"][0], SMALL_CLAIMS["claims"][3]]}
        path = write_claims(tmp_path, doc)
        res = runner.invoke(main, ["verify", path])
        assert res.exit_code == 0
        assert "skipped-conjectural" in res.stdout

    def test_include_conjectures_flag(self, runner, tmp_path):
        doc = {"claims": [SMALL_CLAIMS["claims"][3]]}
        path = write_claims(tmp_path, doc)
        res = runner.invoke(main, ["verify", path, "--include-conjectures"])
        assert res.exit_code == 0
        assert "skipped" not in res.stdout

    def test_json_output(self, runner, tmp_path):
        path = write_claims(tmp_path, SMALL_CLAIMS)
        res = runner.invoke(main, ["verify", path, "--json"])
        data = json.loads(res.stdout)
        assert data["ok"] is False
        assert data["counts"]["pass"] == 1
        assert data["counts"]["error"] == 2
        assert data["results"][0]["status"] == "pass"

    def test_json_output_is_deterministic(self, runner, tmp_path):
        path = write_claims(tmp_path, SMALL_CLAIMS)
        one = runner.invoke(main, ["verify", path, "--json"]).stdout
        two = runner.invoke(main, ["verify", path, "--json"]).stdout
        assert one == two

    def test_source_is_echoed(self, runner, tmp_path):
        doc = {"claims": [dict(SMALL_CLAIMS["claims"][0], source="unit fixture")]}
        path = write_claims(tmp_path, doc)
        res = runner.invoke(main, ["verify", path])
        assert "(unit fixture)" in res.stdout

    def test_invalid_json_file(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        res = runner.invoke(main, ["verify", str(path)])
        assert res.exit_code == 2


class TestCacheThroughCli:
    def invoke_e2(self, runner, cache_dir):
        return runner.invoke(
            main,
            ["-p", "7", "--cache-dir", str(cache_dir), "e2", "1", "p^2*q", "--json"],
        )

    def test_cached_rerun_matches(self, runner, tmp_path):
        first = self.invoke_e2(runner, tmp_path)
        assert first.exit_code == 0
        assert list(tmp_path.glob("*.json"))
        second = self.invoke_e2(runner, tmp_path)
        assert second.stdout == first.stdout

    def test_corrupt_cache_recovers(self, runner, tmp_path):
        first = self.invoke_e2(runner, tmp_path)
        for path in tmp_path.glob("*.json"):
            path.write_text("{nope")
        second = self.invoke_e2(runner, tmp_path)
        assert second.exit_code == 0
        assert second.stdout == first.stdout
        assert "corrupt" in second.stderr

    def test_warning_is_one_stderr_line_per_invocation(self, runner, tmp_path):
        self.invoke_e2(runner, tmp_path)
        (path,) = tmp_path.glob("*.json")
        for _ in range(2):
            path.write_text("{nope")
            res = self.invoke_e2(runner, tmp_path)
            assert res.stderr == f"warning: corrupt cache file {path.name}, recomputing\n"
        # the handler the invocation installed is gone with it
        assert logging.getLogger("mayext").handlers == []

    def test_foreign_record_recovers(self, runner, tmp_path):
        first = self.invoke_e2(runner, tmp_path)
        for path in tmp_path.glob("*.json"):
            path.write_text(json.dumps({"key": {"module": "other"}, "value": {}}))
        second = self.invoke_e2(runner, tmp_path)
        assert second.exit_code == 0
        assert second.stdout == first.stdout
        assert "mismatch" in second.stderr

    def test_malformed_value_recovers(self, runner, tmp_path):
        first = self.invoke_e2(runner, tmp_path)
        for path in tmp_path.glob("*.json"):
            record = json.loads(path.read_text())
            record["value"] = {}
            path.write_text(json.dumps(record))
        second = self.invoke_e2(runner, tmp_path)
        assert second.exit_code == 0
        assert second.stdout == first.stdout
        assert "malformed" in second.stderr

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda value: value["weights"][0].update(reps=["h[1,"]),
            lambda value: value["weights"][0].update(reps=[5]),
            # numbers that disagree with the representatives, with each
            # other or with the requested bidegree
            lambda value: value["weights"][0].update(e1=0),
            lambda value: value["weights"][0].update(e2=0),
            lambda value: value["weights"][0].update(cycles=value["weights"][0]["cycles"] + 1),
            lambda value: value.update(s=value["s"] + 1),
        ],
        ids=["h[1,", "5", "e1-zero", "e2-zero", "cycles-plus-one", "s-plus-one"],
    )
    def test_malformed_representative_recovers(self, runner, tmp_path, tamper):
        first = self.invoke_e2(runner, tmp_path)
        (path,) = tmp_path.glob("*.json")
        record = json.loads(path.read_text())
        tamper(record["value"])
        path.write_text(json.dumps(record))
        second = self.invoke_e2(runner, tmp_path)
        assert second.exit_code == 0
        assert second.stdout == first.stdout
        assert second.stderr == f"warning: malformed cache value in {path.name}, recomputing\n"
        # the recomputed report overwrote the bad record
        third = self.invoke_e2(runner, tmp_path)
        assert third.stdout == first.stdout
        assert third.stderr == ""

    @pytest.mark.parametrize(
        "args, records",
        [
            # targets (3,589) and (4,590); s = 1 < r_min leaves no sources
            (["window", "1", "p^2*q", "--r-max", "3"], 2),
            # the cell (2,588) and its lower neighbour (1,588), which is
            # nonzero and so decides UpperBound without (3,588)
            (["vanish", "2", "p^2*q"], 2),
            # the cell (1,84), its lower neighbour (0,84), which is zero,
            # and so its upper neighbour (2,84)
            (["vanish", "1", "p*q"], 3),
        ],
    )
    def test_certificates_read_through_the_disk_cache(
        self, runner, tmp_path, monkeypatch, args, records
    ):
        argv = ["-p", "7", "--cache-dir", str(tmp_path), *args, "--json"]
        cold = runner.invoke(main, argv)
        assert cold.exit_code == 0
        # one record per certified bidegree: the CLI read through the session
        assert len(list(tmp_path.glob("*.json"))) == records

        def no_computing(*args, **kwargs):
            raise AssertionError("warm run recomputed a cell")

        monkeypatch.setattr(session_module, "cell_homology", no_computing)
        warm = runner.invoke(main, argv)
        assert warm.exit_code == 0
        assert warm.stdout == cold.stdout

    def test_envvar_cache_dir(self, runner, tmp_path):
        res = runner.invoke(
            main,
            ["-p", "7", "e2", "1", "q", "--json"],
            env={"MAYEXT_CACHE": str(tmp_path)},
        )
        assert res.exit_code == 0
        assert list(tmp_path.glob("*.json"))


class TestErrorSurface:
    @pytest.mark.parametrize("source", ["option", "envvar"])
    def test_unusable_cache_dir_is_usage_error(self, runner, tmp_path, source):
        # a directory under a regular file cannot be made; this once ended
        # in a NotADirectoryError traceback
        (tmp_path / "file").write_text("")
        path = str(tmp_path / "file" / "x")
        if source == "option":
            res = runner.invoke(main, ["--cache-dir", path, "e2", "1", "1"])
        else:
            res = runner.invoke(main, ["e2", "1", "1"], env={"MAYEXT_CACHE": path})
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert res.stdout == ""
        errors = [line for line in res.stderr.splitlines() if line.startswith("Error")]
        assert errors == [
            f"Error: Invalid value for '--cache-dir': cannot use {path!r} "
            "as a cache directory (Not a directory)"
        ]

    def test_bad_prime_is_usage_error(self, runner):
        res = runner.invoke(main, ["-p", "4", "basis", "1", "1"])
        assert res.exit_code == 2
        assert "odd prime" in res.stderr

    def test_parse_error_is_usage_error(self, runner):
        res = runner.invoke(main, ["basis", "1", "p+"])
        assert res.exit_code == 2

    def test_domain_error_is_exit_one(self, runner):
        res = runner.invoke(main, ["e2", "0-1", "5"])
        assert res.exit_code == 1
        assert "Error" in res.stderr

    def test_window_range_error(self, runner):
        res = runner.invoke(main, ["window", "1", "q", "--r-min", "1", "--r-max", "2"])
        assert res.exit_code == 1

    @staticmethod
    def _leaves(group, path=()):
        for name, cmd in group.commands.items():
            if isinstance(cmd, click.Group):
                yield from TestErrorSurface._leaves(cmd, (*path, name))
            else:
                yield " ".join((*path, name)), cmd

    def test_every_leaf_command_is_a_boundary(self):
        leaves = dict(self._leaves(main))
        assert len(leaves) == 15
        assert [
            name
            for name, cmd in leaves.items()
            if not isinstance(cmd, cli_runner.BoundaryCommand)
        ] == []

    def test_injected_parse_error_is_usage_error(self, runner, monkeypatch):
        def broken(*args, **kwargs):
            raise ParseError("injected")

        monkeypatch.setattr(cli_runner, "enumerate_ext1_BPK", broken)
        res = runner.invoke(main, ["greek", "ext1", "2"])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr.startswith("Usage: main greek ext1 [OPTIONS] N\n")
        assert res.stderr.endswith("\nError: injected\n")

    def test_injected_domain_error_is_exit_one(self, runner, monkeypatch):
        def broken(*args, **kwargs):
            raise InvalidParams("injected")

        monkeypatch.setattr(cli_runner, "certify_ext_dim", broken)
        res = runner.invoke(main, ["vanish", "1", "q"])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert res.stdout == ""
        assert res.stderr == "Error: injected\n"

    @pytest.mark.parametrize(
        "args, message",
        [
            # each of these once ran until killed
            (["basis", "2", "9^9^9"], "9^387420489 has more than 1024 bits, the budget for '^'"),
            (
                ["-p", "7", "window", "2", "100", "--r-max", "100000"],
                "window r_min=2, r_max=100000 has 99999 rows, budget is 500",
            ),
            (
                ["e2", "1", " * ".join(["(2^1000)"] * 16)],
                "a product of 2001 bits has more than 1024 bits, the budget for a value",
            ),
            # these two once ended in a ValueError traceback
            (
                ["basis", "1", "1" * 5000],
                "a literal of 5000 digits has more than 1024 bits, the budget for a value",
            ),
            (
                ["basis", "1", "2^(" + " * ".join(["(2^1000)"] * 16) + ")"],
                "a product of 2001 bits has more than 1024 bits, the budget for a value",
            ),
            # these two once ran until killed, in the basis search
            (
                ["-p", "3", "e2", "100", "1000000"],
                "basis of (100,1000000) needs more than 3000000 search steps, "
                "the budget for enumeration",
            ),
            (
                ["-p", "7", "basis", "20", "10000000"],
                "basis of (20,10000000) needs more than 3000000 search steps, "
                "the budget for enumeration",
            ),
            # this one once ran until killed, one cell after another
            (
                ["-p", "3", "chart", "--s-max", "0", "--t-max", "2^1000", "--format", "tsv"],
                "chart window has more than 20000 cells, the budget",
            ),
            # this one once printed all 332 digits of r
            (
                ["-p", "3", "window", "0", "0", "--r-min", str(2**1100), "--r-max", str(2**1100)],
                "a number of 1101 bits has more than 1024 bits, the budget for a value",
            ),
        ],
    )
    def test_work_budget_exits_one(self, args, message):
        res = run_module(args)
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr == f"Error: {message}\n"

    @pytest.mark.parametrize(
        "text",
        ["(" * 10**4 + "1" + ")" * 10**4, "2^" * 10**4 + "1", "0+" + "-" * 10**4 + "1"],
        ids=["parentheses", "powers", "minus-signs"],
    )
    def test_deep_nesting_exits_two(self, text):
        # 300 parentheses once ended in a RecursionError traceback
        res = run_module(["e2", "1", text])
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.endswith("\nError: more than 100 nested factors\n")
        assert "Traceback" not in res.stderr

    def test_verify_refuses_deeply_nested_claims(self, tmp_path):
        # 100,000 nested '[' once ended in a RecursionError traceback
        path = tmp_path / "deep.json"
        path.write_text("[" * 10**5)
        res = run_module(["verify", str(path)])
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.splitlines()[-1].startswith("Error: claims file is not valid JSON: ")
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize(
        "p, code, stderr",
        [
            ("1000000000000000003", 0, ""),
            ("1000000000000000001", 2, "Error: p must be an odd prime, got 1000000000000000001"),
            (str(2**64 + 13), 1, f"Error: p must be below 2^64, the budget, got {2**64 + 13}"),
        ],
        ids=["prime", "composite", "over-budget"],
    )
    def test_large_primes_answer_fast(self, p, code, stderr):
        # trial division once ran for minutes on the first of these
        started = time.monotonic()
        res = run_module(["-p", p, "e2", "1", "1"])
        assert time.monotonic() - started < 2
        assert res.returncode == code
        assert res.stderr.splitlines()[-1:] == ([stderr] if stderr else [])
        if not code:
            assert res.stdout.startswith("(1,1): first-term dim 1, second-term dim 1\n")

    def test_les_at_a_large_prime_answers_fast(self):
        # its window of 6000000039 sphere cells was once refused by a
        # cell budget; the query reads a few of them
        started = time.monotonic()
        res = run_module(["-p", "1000000007", "les", "L", "1", "p^2*q"])
        assert time.monotonic() - started < 2
        assert res.returncode == 0
        assert res.stderr == ""
        assert res.stdout.startswith(
            "L(1,2000000040000000266000000588): dim in [1,1] (exact)\n"
        )

    def test_gamma_tilde_at_a_large_prime_answers_fast(self):
        # its representative once took one multiplication per a3 factor,
        # about 10 microseconds each, from a list of s - 3 references (8 GB
        # at this s), and s runs up to p - 1
        p, s = 1000000007, 1000000006
        q = 2 * (p - 1)
        t = s * p**2 * q + (s - 1) * p * q + (s - 2) * q + s - 3
        started = time.monotonic()
        args = ["-p", str(p), "stems", "gamma_tilde", "-P", f"s={s}"]
        res = run_module(args, memory_mb=512)
        assert time.monotonic() - started < 2
        assert res.returncode == 0
        assert res.stdout == f"{t - s}\n"

    @pytest.mark.parametrize(
        "element, message",
        [
            ("", "empty monomial"),
            ("a0 +", "empty monomial"),
            ("h[0,0]", "h[i,j] needs i >= 1, j >= 0, got i=0, j=0"),
        ],
        ids=["empty", "empty-summand", "generator-index"],
    )
    def test_malformed_monomial_exits_two(self, element, message):
        # the first two once printed 0 and 1's d1, the third exited 1
        res = run_module(["d1", element])
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.endswith(f"\nError: {message}\n")

    def test_verify_reports_the_claim_after_a_nested_one(self, tmp_path):
        nested = "(" * 3000 + "1" + ")" * 3000
        doc = [dict(SMALL_CLAIMS["claims"][0], t=nested), SMALL_CLAIMS["claims"][0]]
        res = run_module(["verify", "--json", write_claims(tmp_path, doc)])
        assert res.returncode == 1
        assert res.stderr == ""
        results = json.loads(res.stdout)["results"]
        assert [r["status"] for r in results] == ["error", "pass"]
        assert results[0]["detail"] == "ParseError: more than 100 nested factors"

    @pytest.mark.parametrize(
        "args, message",
        [
            (["e2", "1", "\u00b2"], "Error: expected a number, p, q, or '('\n"),
            (["d1", "a\u0663"], "Error: bad monomial syntax near 'a\u0663'\n"),
            (
                ["d1", "a" + "1" * 5000],
                "Error: a literal of 5000 digits has more than 1024 bits, "
                "the budget for a value\n",
            ),
        ],
        ids=["superscript-two", "arabic-indic-three", "5000-digit-index"],
    )
    def test_literals_that_are_not_ascii_or_not_budgeted(self, args, message):
        # each once ended in a ValueError traceback
        res = run_module(args)
        assert res.returncode == (1 if "budget" in message else 2)
        assert res.stdout == ""
        assert res.stderr.endswith(message)
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize(
        "args, power",
        [
            # these four once ran until killed
            (["stems", "h", "-P", "n=10^9"], "5^1000000001"),
            (["stems", "gamma", "-P", "n=2^60", "-P", "s=1"], "5^1152921504606846976"),
            (
                ["greek", "beta-check", "beta[1," + "9" * 30 + ",1,0]"],
                "5^" + "9" * 30,
            ),
            (["d1", "h[99999999999999999999,0]"], "5^100000000000000000000"),
            # these two once ended in a ValueError traceback
            (["greek", "ext1", "10000"], "5^10000"),
            (["stems", "beta", "-P", "t=1", "-P", "n=100000", "-P", "s=1"], "5^100000"),
            # keys the class takes: the budget refuses the power
            (["stems", "h0hh", "-P", "n=10^9", "-P", "m=1"], "5^1000000001"),
        ],
        ids=[
            "stems-h", "stems-gamma", "beta-check", "d1-generator", "ext1", "stems-beta",
            "stems-h0hh",
        ],
    )
    def test_p_power_of_a_user_exponent_exits_one(self, args, power):
        start = time.monotonic()
        res = run_module(args)
        assert time.monotonic() - start < 2
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr == f"Error: {power} has more than 1024 bits, the budget for '^'\n"

    @pytest.mark.parametrize(
        "args, code, first_line",
        [
            (
                ["-p", "5", "e2", "2", "2^400"],
                0,
                "(2," + str(2**400) + "): first-term dim 0, second-term dim 0",
            ),
            (
                # the record of the E1-empty (3, 2^300) reads no neighbour:
                # (4, 2^300) needs more than the step budget
                ["-p", "5", "e2", "3", "2^300"],
                0,
                "(3," + str(2**300) + "): first-term dim 0, second-term dim 0",
            ),
            (
                ["-p", "5", "e2", "2", "2*(p^300-1)+q"],
                1,
                "Error: basis of (3," + str(2 * (5**300 - 1) + 8) + ") needs more "
                "than 3000000 search steps, the budget for enumeration",
            ),
        ],
        ids=["answers", "answers-an-empty-cell", "refuses-the-column"],
    )
    def test_wide_columns_fit_in_512_mb(self, args, code, first_line):
        # a wide column's set-up is linear in its code width: at t = 2^400
        # (29,413 generators, 1,986,041-bit codes) a table of one shifted
        # one per generator once took 2.3 GB
        res = run_module(args, memory_mb=512)
        assert res.returncode == code
        assert (res.stdout or res.stderr).splitlines()[0] == first_line
        assert "MemoryError" not in res.stderr

    def test_wide_t_answers_or_fails_typed(self):
        # 1,407 generators lie below t = 2^60 at p = 3; the basis search
        # once recursed through each and ended in a RecursionError traceback
        res = run_module(["-p", "3", "e2", "2", "2^60"])
        if res.returncode == 0:
            assert res.stdout == (
                "(2,1152921504606846976): first-term dim 0, second-term dim 0\n"
            )
        else:
            assert res.returncode == 1
            assert res.stderr.startswith("Error: ")
        assert "Traceback" not in res.stderr
