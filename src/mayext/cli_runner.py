"""Command line front end: expressions, claim checking, charts and the CLI.

Each query runs in one session.Session for its prime, and verify and
run_claims keep one per prime; the session's disk cache is the
--cache-dir directory (or MAYEXT_CACHE).  A directory that cannot be
created is a usage error (exit 2).  The package's warnings go to the
"mayext" logger, which the command line prints on stderr.

Claims are JSON dicts with a "kind", a prime "p", kind-specific
parameters, and an "expect" value.  Any numeric parameter may be an
arithmetic expression in p and q, evaluated per claim.  A claim result
is one of: pass, fail (the computed value provably differs),
uncertified (the machinery can neither certify nor refute, e.g. an
interval that merely contains the expected dimension), error, or
skipped-conjectural.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import click

from .adams_certify import (
    DIM_CERTIFIED,
    E1_EMPTY,
    E2_ZERO,
    adams_dr_window,
    certify_ext_dim,
    certify_ext_vanishing,
    product_nonzero_at_e2,
    resolve_named,
)
from .greek_bp import (
    BetaIndex,
    NoDictionaryEntry,
    alpha_generators,
    beta_admissible,
    enumerate_beta,
    enumerate_ext0_KR,
    enumerate_ext1_BPK,
    parse_index,
    stem_of,
    thom_image,
)
from .les_dims import _SPECTRA, ext_dims
from .may_core import (
    MAX_POWER_BITS,
    InvalidParams,
    MayextError,
    ParseError,
    PrimeContext,
    WorkBudgetExceeded,
    parse_element,
    parse_monomial,
    power,
    read_literal,
)
from .may_diff import SCHEMA_VERSION, d1
from .session import Session

logger = logging.getLogger("mayext")


# ---------------------------------------------------------------------------
# expression evaluation

# the most factors one inside another (a '(', '^' or unary '-' opens one,
# in at most four stack frames); the README and the corpus nest 3 deep
MAX_NESTING = 100


class _ExprParser:
    """Recursive-descent arithmetic over integers, p, and q.

    expr := term (('+'|'-') term)*;  term := factor ('*' factor)*;
    factor := atom ('^' factor)?  with right-associative '^'.

    A power b^e past the power budget is refused with WorkBudgetExceeded
    before it is computed (power), and so is a literal of more digits than
    2^MAX_POWER_BITS (read_literal) and a sum, difference or product of
    more than MAX_POWER_BITS bits.  Numbers are ASCII digits; factors nested
    more than MAX_NESTING deep are a ParseError.
    """

    def __init__(self, text: str, variables: dict[str, int]):
        self.text = text
        self.pos = 0
        self.depth = 0
        self.vars = variables

    def parse(self) -> int:
        value = self._expr()
        if self._peek():
            self._fail(f"unexpected {self.text[self.pos]!r}")
        return value

    def _peek(self) -> str:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _fail(self, message: str):
        raise ParseError(message, column=self.pos + 1)

    def _expr(self) -> int:
        value = self._term()
        while self._peek() in ("+", "-"):
            op = self.text[self.pos]
            self.pos += 1
            rhs = self._term()
            if op == "+":
                value = _bounded(value + rhs, "sum")
            else:
                value = _bounded(value - rhs, "difference")
        return value

    def _term(self) -> int:
        value = self._factor()
        while self._peek() == "*":
            self.pos += 1
            value = _bounded(value * self._factor(), "product")
        return value

    def _factor(self) -> int:
        self.depth += 1
        if self.depth > MAX_NESTING:
            self._fail(f"more than {MAX_NESTING} nested factors")
        # unary minus binds looser than '^', so -p^2 means -(p^2)
        if self._peek() == "-":
            self.pos += 1
            value = -self._factor()
        else:
            value = self._atom()
            if self._peek() == "^":
                self.pos += 1
                exp = self._factor()
                if exp < 0:
                    self._fail("negative exponent")
                value = power(value, exp)
        self.depth -= 1
        return value

    def _atom(self) -> int:
        ch = self._peek()
        if ch == "(":
            self.pos += 1
            value = self._expr()
            if self._peek() != ")":
                self._fail("expected ')'")
            self.pos += 1
            return value
        if "0" <= ch <= "9":
            start = self.pos
            while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
                self.pos += 1
            return read_literal(self.text[start : self.pos])
        if ch.isalpha() or ch == "_":
            start = self.pos
            while self.pos < len(self.text) and (
                self.text[self.pos].isalnum() or self.text[self.pos] == "_"
            ):
                self.pos += 1
            name = self.text[start : self.pos]
            if name in self.vars:
                return self.vars[name]
            self._fail(f"unknown name {name!r}")
        self._fail("expected a number, p, q, or '('")


def _bounded(value: int, what: str) -> int:
    bits = abs(value).bit_length()
    if bits > MAX_POWER_BITS:
        raise WorkBudgetExceeded(
            f"a {what} of {bits} bits has more than {MAX_POWER_BITS} bits, "
            f"the budget for a value"
        )
    return value


def eval_expr(value, ctx: PrimeContext) -> int:
    """An int passes through under the value budget (_bounded); a string is
    arithmetic in p and q."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ParseError(f"expected an integer or expression, got {value!r}")
    if isinstance(value, int):
        return _bounded(value, "number")
    return _ExprParser(value, {"p": ctx.p, "q": ctx.q}).parse()


# ---------------------------------------------------------------------------
# claim checking


def _texts(expect) -> list[str]:
    """A list claim's expect, which must be a JSON list of strings."""
    if not (isinstance(expect, list) and all(isinstance(txt, str) for txt in expect)):
        raise InvalidParams("expect must be a list of strings")
    return expect


def _norm_monomials(texts, ctx: PrimeContext) -> list[str]:
    return sorted(parse_monomial(txt, ctx).text() for txt in _texts(texts))


def _norm_plain(texts) -> list[str]:
    return sorted(" ".join(txt.split()) for txt in _texts(texts))


def _list_verdict(got: list[str], want: list[str]):
    if got == want:
        return "pass", f"{len(got)} entries match"
    missing = [x for x in want if x not in got]
    extra = [x for x in got if x not in want]
    parts = []
    if missing:
        parts.append("missing " + ", ".join(missing))
    if extra:
        parts.append("unexpected " + ", ".join(extra))
    return "fail", "; ".join(parts) if parts else f"got {got}, want {want}"


def _check_e1_basis(session: Session, claim: dict):
    ctx = session.ctx
    s = eval_expr(claim["s"], ctx)
    t = eval_expr(claim["t"], ctx)
    got = sorted(m.text() for m in session.basis(s, t))
    expect = claim["expect"]
    if isinstance(expect, int):
        if len(got) == expect:
            return "pass", f"({s},{t}) has {expect} monomials"
        return "fail", f"({s},{t}) has {len(got)} monomials, expected {expect}"
    status, detail = _list_verdict(got, _norm_monomials(expect, ctx))
    return status, f"({s},{t}): {detail}"


def _check_e2_dim(session: Session, claim: dict):
    ctx = session.ctx
    s = eval_expr(claim["s"], ctx)
    t = eval_expr(claim["t"], ctx)
    got = session.report(s, t).e2_total
    expect = claim["expect"]
    if isinstance(expect, dict):
        lo = eval_expr(expect.get("lo", 0), ctx)
        hi = eval_expr(expect["hi"], ctx) if "hi" in expect else None
        if got >= lo and (hi is None or got <= hi):
            return "pass", f"({s},{t}) second-term dim {got} within bounds"
        return "fail", f"({s},{t}) second-term dim {got}, expected in [{lo},{hi}]"
    want = eval_expr(expect, ctx)
    if got == want:
        return "pass", f"({s},{t}) second-term dim {got}"
    return "fail", f"({s},{t}) second-term dim {got}, expected {want}"


def _check_ext_vanishing(session: Session, claim: dict):
    ctx = session.ctx
    s = eval_expr(claim["s"], ctx)
    t = eval_expr(claim["t"], ctx)
    cert = certify_ext_vanishing(session.report, s, t)
    expect = claim["expect"]
    if expect == "zero":
        if cert.certified_zero:
            return "pass", f"({s},{t}) {cert.verdict}"
        return (
            "uncertified",
            f"({s},{t}) second term has dim {cert.report.e2_total}, cannot certify zero",
        )
    if cert.verdict == expect:
        return "pass", f"({s},{t}) {cert.verdict}"
    return "fail", f"({s},{t}) verdict {cert.verdict}, expected {expect}"


_WINDOW_KEYS = (
    "permanent_cycle_up_to",
    "not_boundary",
    "targets_all_zero",
    "sources_all_zero",
)


def _check_dr_window(session: Session, claim: dict):
    ctx = session.ctx
    s = eval_expr(claim["s"], ctx)
    t = eval_expr(claim["t"], ctx)
    r_min = eval_expr(claim.get("r_min", 2), ctx)
    r_max = eval_expr(claim["r_max"], ctx)
    report = adams_dr_window(session.report, (s, t), r_min, r_max)
    expect = claim["expect"]
    bad = []
    for key, want in expect.items():
        if key not in _WINDOW_KEYS:
            raise InvalidParams(f"unknown window field {key!r}")
        got = getattr(report, key)
        if got != want:
            bad.append(f"{key}={got!r}, expected {want!r}")
    if not bad:
        return "pass", f"({s},{t}) window r=[{r_min},{r_max}] as expected"
    return "fail", f"({s},{t}) " + "; ".join(bad)


def _check_les_dim(session: Session, claim: dict):
    ctx = session.ctx
    spectrum = claim["spectrum"]
    s = eval_expr(claim["s"], ctx)
    t = eval_expr(claim["t"], ctx)
    res = ext_dims(session, spectrum, s, t)
    expect = claim["expect"]
    where = f"{spectrum}({s},{t})"
    if isinstance(expect, dict) and "min_lo" in expect:
        floor = eval_expr(expect["min_lo"], ctx)
        if res.lo >= floor:
            return "pass", f"{where} dim >= {res.lo}"
        return "fail", f"{where} lower bound {res.lo}, expected >= {floor}"
    if isinstance(expect, dict):
        lo = eval_expr(expect["lo"], ctx)
        hi = eval_expr(expect["hi"], ctx)
        if (res.lo, res.hi) == (lo, hi):
            return "pass", f"{where} dim in [{res.lo},{res.hi}]"
        return "fail", f"{where} dim in [{res.lo},{res.hi}], expected [{lo},{hi}]"
    want = eval_expr(expect, ctx)
    if res.exact and res.lo == want:
        return "pass", f"{where} dim = {want}"
    if res.contains(want):
        return "uncertified", f"{where} dim in [{res.lo},{res.hi}], expected exactly {want}"
    return "fail", f"{where} dim in [{res.lo},{res.hi}], excludes {want}"


def _check_beta_list(session: Session, claim: dict):
    ctx = session.ctx
    t_internal = eval_expr(claim["t_internal"], ctx)
    strict = bool(claim.get("strict", False))
    got = sorted(idx.text() for idx in enumerate_beta(ctx, t_internal, strict=strict))
    status, detail = _list_verdict(got, _norm_plain(claim["expect"]))
    return status, f"degree {t_internal}: {detail}"


def _check_ext0_list(session: Session, claim: dict):
    ctx = session.ctx
    n = eval_expr(claim["n"], ctx)
    t = eval_expr(claim.get("t", 1), ctx)
    gens = enumerate_ext0_KR(ctx, n, t)
    got = sorted(g.text() for g in gens)
    status, detail = _list_verdict(got, _norm_plain(claim["expect"]))
    return status, f"n={n}, t={t}: {detail}"


def _check_ext1_bpk_list(session: Session, claim: dict):
    ctx = session.ctx
    n = eval_expr(claim["n"], ctx)
    gens = enumerate_ext1_BPK(ctx, n)
    got = sorted(g.text() for g in gens)
    status, detail = _list_verdict(got, _norm_plain(claim["expect"]))
    return status, f"n={n}: {detail}"


def _check_stem(session: Session, claim: dict):
    ctx = session.ctx
    params = {key: eval_expr(val, ctx) for key, val in claim["params"].items()}
    got = stem_of(ctx, claim["family"], params)
    want = eval_expr(claim["expect"], ctx)
    if got == want:
        return "pass", f"{claim['family']} stem {got}"
    return "fail", f"{claim['family']} stem {got}, expected {want}"


def _check_thom(session: Session, claim: dict):
    ctx = session.ctx
    idx = parse_index(claim["index"])
    try:
        got = thom_image(ctx, idx).text()
    except NoDictionaryEntry:
        got = "NoDictionaryEntry"
    want = " ".join(str(claim["expect"]).split())
    if got == want:
        return "pass", f"{claim['index']} -> {got}"
    return "fail", f"{claim['index']} -> {got}, expected {want}"


def _check_product_nonzero(session: Session, claim: dict):
    ctx = session.ctx
    classes = [
        resolve_named(entry["name"], entry.get("params", {}), ctx)
        for entry in claim["classes"]
    ]
    result = product_nonzero_at_e2(session, classes)
    want = bool(claim["expect"])
    names = " * ".join(cls.text() for cls in classes)
    note = " (conjectural factor)" if result["conjectural"] else ""
    if result["nonzero"] == want:
        word = "nonzero" if result["nonzero"] else "zero"
        return "pass", f"{names} is {word} at {result['bidegree']}{note}"
    return (
        "fail",
        f"{names} nonzero={result['nonzero']} at {result['bidegree']}, "
        f"expected {want}{note}",
    )


CHECKERS = {
    "e1_basis": _check_e1_basis,
    "e2_dim": _check_e2_dim,
    "ext_vanishing": _check_ext_vanishing,
    "dr_window": _check_dr_window,
    "les_dim": _check_les_dim,
    "beta_list": _check_beta_list,
    "ext0_list": _check_ext0_list,
    "ext1_bpk_list": _check_ext1_bpk_list,
    "stem": _check_stem,
    "thom": _check_thom,
    "product_nonzero": _check_product_nonzero,
}


@dataclass
class ClaimResult:
    index: int
    claim: dict
    status: str
    detail: str

    def serialize(self) -> dict:
        out = {
            "index": self.index,
            "kind": self.claim.get("kind"),
            "status": self.status,
            "detail": self.detail,
        }
        if "p" in self.claim:
            out["p"] = self.claim["p"]
        if self.claim.get("source"):
            out["source"] = self.claim["source"]
        return out


def run_claims(
    claims: list,
    cache_dir=None,
    include_conjectures: bool = False,
    sessions: dict | None = None,
) -> list[ClaimResult]:
    """Check every claim in order, reusing one session per prime."""
    sessions = {} if sessions is None else sessions

    def run_one(index: int, claim: dict) -> ClaimResult:
        if not isinstance(claim, dict):
            return ClaimResult(index, {"kind": None}, "error", "claim must be an object")
        if claim.get("conjectural") and not include_conjectures:
            return ClaimResult(
                index, claim, "skipped-conjectural", "re-run with --include-conjectures"
            )
        try:
            checker = CHECKERS.get(claim.get("kind"))
            if checker is None:
                raise InvalidParams(f"unknown claim kind {claim.get('kind')!r}")
            if "p" not in claim:
                raise InvalidParams("claim needs a prime p")
            p = claim["p"]
            if p not in sessions:
                sessions[p] = Session(PrimeContext(p), cache_dir)
            session = sessions[p]
            status, detail = checker(session, claim)
            return ClaimResult(index, claim, status, detail)
        except (MayextError, AttributeError, KeyError, TypeError, ValueError) as exc:
            return ClaimResult(index, claim, "error", f"{type(exc).__name__}: {exc}")

    return [run_one(i, c) for i, c in enumerate(claims)]


def load_claims(path=None) -> list:
    """Claims from a JSON file, or the shipped corpus when path is None."""
    if path is None:
        raw = resources.files("mayext").joinpath("data/corpus.json").read_text()
    else:
        raw = Path(path).read_text()
    try:
        doc = json.loads(raw)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"claims file is not valid JSON: {exc}") from None
    claims = doc.get("claims") if isinstance(doc, dict) else doc
    if not isinstance(claims, list):
        raise InvalidParams("claims file must be a list or an object with 'claims'")
    return claims


# ---------------------------------------------------------------------------
# charts

# Most cells one chart may read, and most rows it may hold.
MAX_CELLS = 20000


class WindowTooLarge(WorkBudgetExceeded):
    """The requested chart window would exceed the cell budget."""


def chart_data(session: Session, s_max: int, t_max: int) -> dict:
    """Every nonzero second-term cell with 0 <= s <= s_max, s <= t <= t_max,
    in (s, t) order.  The cells are read a column at a time, and each
    column leaves the session once its cells are done.

    Raises WindowTooLarge, before reading any cell, when the window holds
    more than MAX_CELLS cells or more than MAX_CELLS rows: the loop and the
    SVG go over every s up to s_max, empty rows too."""
    if s_max < 0 or t_max < 0:
        raise InvalidParams(f"bad chart window s_max={s_max}, t_max={t_max}")
    if s_max + 1 > MAX_CELLS:
        raise WindowTooLarge(f"chart window has more than {MAX_CELLS} rows, the budget")
    # the rows s = 0 .. rows - 1 hold t_max + 1 - s cells each
    rows = min(s_max, t_max) + 1
    count = rows * (t_max + 1) - rows * (rows - 1) // 2
    if count > MAX_CELLS:
        raise WindowTooLarge(f"chart window has more than {MAX_CELLS} cells, the budget")
    # a certificate reads only its own column
    cells = []
    for t in range(t_max + 1):
        for s in range(min(s_max, t) + 1):
            cert = certify_ext_dim(session.report, s, t)
            if cert.report.e2_total == 0:
                continue
            cells.append(
                {
                    "s": s,
                    "t": t,
                    "stem": t - s,
                    "e1": cert.report.e1_total,
                    "e2": cert.report.e2_total,
                    "verdict": cert.verdict,
                    "reps": [rep.text() for rep in cert.report.representatives],
                }
            )
        session.columns.pop(t, None)
    cells.sort(key=lambda cell: (cell["s"], cell["t"]))
    return {
        "schema": SCHEMA_VERSION,
        "p": session.ctx.p,
        "s_max": s_max,
        "t_max": t_max,
        "cells": cells,
    }


def _render_tsv(data: dict) -> str:
    lines = ["s\tt\tstem\te1\te2\tverdict\treps"]
    for cell in data["cells"]:
        reps = "; ".join(cell["reps"])
        lines.append(
            f"{cell['s']}\t{cell['t']}\t{cell['stem']}\t{cell['e1']}\t"
            f"{cell['e2']}\t{cell['verdict']}\t{reps}"
        )
    return "\n".join(lines) + "\n"


def _render_svg(data: dict) -> str:
    from xml.sax.saxutils import escape

    unit = 24
    pad = 48
    max_stem = max((c["stem"] for c in data["cells"]), default=0)
    max_s = data["s_max"]
    width = pad * 2 + unit * (max_stem + 1)
    height = pad * 2 + unit * (max_s + 1)

    def x_of(stem: int) -> int:
        return pad + unit // 2 + stem * unit

    def y_of(s: int) -> int:
        return height - pad - unit // 2 - s * unit

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<desc>second-term chart, p={data["p"]}, '
        f's&lt;={data["s_max"]}, t&lt;={data["t_max"]}</desc>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad + 8}" '
        f'y2="{height - pad}" stroke="#888"/>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{pad}" y2="{pad - 8}" '
        f'stroke="#888"/>',
    ]
    for stem in range(0, max_stem + 1, max(1, (max_stem + 1) // 12)):
        parts.append(
            f'<text x="{x_of(stem)}" y="{height - pad + 16}" font-size="10" '
            f'text-anchor="middle" fill="#888">{stem}</text>'
        )
    for s in range(max_s + 1):
        parts.append(
            f'<text x="{pad - 10}" y="{y_of(s) + 3}" font-size="10" '
            f'text-anchor="end" fill="#888">{s}</text>'
        )
    for cell in data["cells"]:
        cx, cy = x_of(cell["stem"]), y_of(cell["s"])
        exact = cell["verdict"] in (DIM_CERTIFIED, E1_EMPTY, E2_ZERO)
        fill = "#1f6feb" if exact else "none"
        label = escape("; ".join(cell["reps"]) or f"({cell['s']},{cell['t']})")
        parts.append(f'<g data-s="{cell["s"]}" data-t="{cell["t"]}">')
        parts.append(f"<title>{label}</title>")
        count = cell["e2"]
        if count <= 3:
            offsets = [(0, 0), (-5, 5), (5, 5)][:count]
            for dx, dy in offsets:
                parts.append(
                    f'<circle cx="{cx + dx}" cy="{cy + dy}" r="4" fill="{fill}" '
                    f'stroke="#1f6feb" stroke-width="1.5"/>'
                )
        else:
            parts.append(
                f'<circle cx="{cx}" cy="{cy}" r="6" fill="{fill}" '
                f'stroke="#1f6feb" stroke-width="1.5"/>'
            )
            parts.append(
                f'<text x="{cx + 8}" y="{cy - 6}" font-size="9" '
                f'fill="#1f6feb">{count}</text>'
            )
        parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_chart(data: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(data, indent=2) + "\n"
    if fmt == "tsv":
        return _render_tsv(data)
    if fmt == "svg":
        return _render_svg(data)
    raise InvalidParams(f"unknown chart format {fmt!r}")


# ---------------------------------------------------------------------------
# command tree


class _StderrHandler(logging.Handler):
    """Prints each record as "<level>: <message>" through click.echo, on
    the stderr current at the time, like the CLI's other stderr lines."""

    def emit(self, record):
        try:
            click.echo(f"{record.levelname.lower()}: {record.getMessage()}", err=True)
        except Exception:
            self.handleError(record)


class BoundaryCommand(click.Command):
    """A leaf command whose package errors become the README's exit codes:
    a ParseError is a usage error (exit 2, under this command's usage
    line) and any other MayextError is an error (exit 1)."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ParseError as exc:
            raise click.UsageError(str(exc), ctx) from exc
        except MayextError as exc:
            raise click.ClickException(str(exc)) from exc


class BoundaryGroup(click.Group):
    """Makes every command registered under it a BoundaryCommand, and every
    subgroup a BoundaryGroup."""

    command_class = BoundaryCommand
    group_class = type


@click.group(cls=BoundaryGroup)
@click.option("--prime", "-p", default=5, show_default=True, type=int, help="Odd prime.")
@click.option(
    "--cache-dir",
    envvar="MAYEXT_CACHE",
    type=click.Path(file_okay=False),
    default=None,
    help="Directory for the on-disk result cache.",
)
@click.pass_context
def main(ctx, prime, cache_dir):
    """Second-term cohomology computations and degree bookkeeping."""
    try:
        prime_ctx = PrimeContext(prime)
    except WorkBudgetExceeded as exc:
        raise click.ClickException(str(exc)) from exc
    except InvalidParams as exc:
        raise click.UsageError(str(exc)) from exc
    try:
        ctx.obj = Session(prime_ctx, cache_dir)
    except OSError as exc:
        raise click.BadParameter(
            f"cannot use {cache_dir!r} as a cache directory ({exc.strerror})",
            param_hint="'--cache-dir'",
        ) from exc
    # the package's warnings go to this invocation's stderr, and the
    # handler goes when the invocation ends
    handler = _StderrHandler()
    logger.addHandler(handler)
    ctx.call_on_close(lambda: logger.removeHandler(handler))


@main.command()
@click.argument("s")
@click.argument("t")
@click.pass_obj
def basis(session, s, t):
    """First-term monomial basis at filtration S, internal degree T."""
    ctx = session.ctx
    monomials = session.basis(eval_expr(s, ctx), eval_expr(t, ctx))
    for mono in monomials:
        click.echo(f"{mono.text()}  u={mono.tridegree(ctx).u}")
    click.echo(f"total {len(monomials)}", err=True)


@main.command("d1")
@click.argument("element")
@click.pass_obj
def d1_command(session, element):
    """First differential of ELEMENT.

    ELEMENT is a sum of monomials, such as 'a2' or '2 h[1,0] b[1,1]'."""
    ctx = session.ctx
    click.echo(d1(parse_element(element, ctx), ctx).text())


@main.command()
@click.argument("s")
@click.argument("t")
@click.option("--json", "as_json", is_flag=True, help="Machine-readable output.")
@click.pass_obj
def e2(session, s, t, as_json):
    """Second-term summary at (S, T): weights, dims, representatives."""
    ctx = session.ctx
    s_val, t_val = eval_expr(s, ctx), eval_expr(t, ctx)
    report = session.report(s_val, t_val)
    if as_json:
        click.echo(json.dumps(report.serialize(), indent=2))
        return
    click.echo(f"({s_val},{t_val}): first-term dim {report.e1_total}, "
               f"second-term dim {report.e2_total}")
    for u, blk in report.weights.items():
        line = (
            f"  u={u}: e1={blk.e1_dim} cycles={blk.cycle_dim} "
            f"boundaries={blk.boundary_dim} e2={len(blk.representatives)}"
        )
        if blk.representatives:
            line += "  [" + "; ".join(r.text() for r in blk.representatives) + "]"
        click.echo(line)


@main.command()
@click.argument("s")
@click.argument("t")
@click.option("--json", "as_json", is_flag=True, help="Machine-readable output.")
@click.pass_obj
def vanish(session, s, t, as_json):
    """Vanishing/dimension certificate at (S, T)."""
    ctx = session.ctx
    s_val, t_val = eval_expr(s, ctx), eval_expr(t, ctx)
    cert = certify_ext_dim(session.report, s_val, t_val)
    if as_json:
        click.echo(json.dumps(cert.serialize(), indent=2))
        return
    rel = "=" if cert.certified_exact else "<="
    click.echo(f"({s_val},{t_val}): {cert.verdict}, dim {rel} {cert.dim}")


@main.command()
@click.argument("s")
@click.argument("t")
@click.option("--r-min", default=2, show_default=True, type=int)
@click.option("--r-max", required=True, type=int)
@click.option("--json", "as_json", is_flag=True, help="Machine-readable output.")
@click.pass_obj
def window(session, s, t, r_min, r_max, as_json):
    """Differential targets and sources for a class at (S, T)."""
    ctx = session.ctx
    bidegree = (eval_expr(s, ctx), eval_expr(t, ctx))
    r_min, r_max = eval_expr(r_min, ctx), eval_expr(r_max, ctx)
    report = adams_dr_window(session.report, bidegree, r_min, r_max)
    if as_json:
        click.echo(json.dumps(report.serialize(), indent=2))
        return
    for row in report.rows:
        sides = [
            f"{side} vacuous" if cert is None
            else f"{side} ({cert.report.s},{cert.report.t}) {cert.verdict}"
            for side, cert in (("target", row.target), ("source", row.source))
        ]
        click.echo(f"r={row.r}: {'; '.join(sides)}")
    click.echo(
        f"permanent cycle up to r={report.permanent_cycle_up_to}; "
        f"not a boundary: {report.not_boundary}"
    )


@main.command()
@click.argument("spectrum", type=click.Choice(sorted(_SPECTRA)))
@click.argument("s")
@click.argument("t")
@click.option("--json", "as_json", is_flag=True, help="Machine-readable output.")
@click.pass_obj
def les(session, spectrum, s, t, as_json):
    """Propagated dimension interval for SPECTRUM at (S, T)."""
    ctx = session.ctx
    s_val, t_val = eval_expr(s, ctx), eval_expr(t, ctx)
    res = ext_dims(session, spectrum, s_val, t_val)
    if as_json:
        out = {"spectrum": spectrum, "s": s_val, "t": t_val, **res.serialize()}
        click.echo(json.dumps(out, indent=2))
        return
    exact = " (exact)" if res.exact else ""
    click.echo(f"{spectrum}({s_val},{t_val}): dim in [{res.lo},{res.hi}]{exact}")
    if res.provenance:
        click.echo(f"  via {res.provenance}")


@main.group()
def greek():
    """Degree bookkeeping for the periodic family indices."""


@greek.command("beta-list")
@click.argument("t_internal")
@click.option("--strict", is_flag=True, help="Use the stricter a=1 cap.")
@click.pass_obj
def greek_beta_list(session, t_internal, strict):
    """Admissible second-family indices in one internal degree."""
    ctx = session.ctx
    for idx in enumerate_beta(ctx, eval_expr(t_internal, ctx), strict=strict):
        click.echo(idx.text())


@greek.command("beta-check")
@click.argument("index")
@click.option("--strict", is_flag=True, help="Use the stricter a=1 cap.")
@click.pass_context
def greek_beta_check(ctx_click, index, strict):
    """Exit 0 if INDEX (beta[a,s,b,c]) is admissible, 1 otherwise."""
    idx = parse_index(index)
    if not isinstance(idx, BetaIndex):
        raise ParseError(f"expected a beta index, got {index!r}")
    ok = beta_admissible(ctx_click.obj.ctx, idx, strict=strict)
    click.echo("admissible" if ok else "inadmissible")
    if not ok:
        ctx_click.exit(1)


@greek.command("ext0")
@click.argument("n")
@click.option("-t", "--t", "t_param", default="1", help="Outer exponent (default 1).")
@click.pass_obj
def greek_ext0(session, n, t_param):
    """Zero-line generators of the height-N truncation.

    They lie in the one internal degree t p^N (p+1) q, t the outer exponent."""
    ctx = session.ctx
    gens = enumerate_ext0_KR(ctx, eval_expr(n, ctx), eval_expr(t_param, ctx))
    for gen in gens:
        click.echo(gen.text())
    # the first generator is always v2^(t p^n), of the column's degree
    click.echo(f"degree {gens[0].degree(ctx)}", err=True)


@greek.command("ext1")
@click.argument("n")
@click.pass_obj
def greek_ext1(session, n):
    """One-line generators in the degree p^n q column."""
    ctx = session.ctx
    for gen in enumerate_ext1_BPK(ctx, eval_expr(n, ctx)):
        click.echo(gen.text())


@greek.command("alpha")
@click.argument("t_internal")
@click.pass_obj
def greek_alpha(session, t_internal):
    """First-family index in one internal degree, if any."""
    ctx = session.ctx
    for idx in alpha_generators(ctx, eval_expr(t_internal, ctx)):
        click.echo(f"{idx.text()}  denominator {idx.denominator}")


@greek.command("thom")
@click.argument("index")
@click.pass_obj
def greek_thom(session, index):
    """Named cohomology class detecting INDEX, or NoDictionaryEntry."""
    idx = parse_index(index)
    try:
        text = thom_image(session.ctx, idx).text()
    except NoDictionaryEntry:
        text = "NoDictionaryEntry"
    click.echo(text)


@main.command()
@click.argument("family")
@click.option(
    "-P",
    "--param",
    "params",
    multiple=True,
    help="key=value; value may be an expression in p and q.",
)
@click.pass_obj
def stems(session, family, params):
    """Stem (t - s) of a family member named by FAMILY and its -P keys.

    For example: stems h0h -P n=2."""
    ctx = session.ctx
    kv = {}
    for item in params:
        key, sep, val = item.partition("=")
        if not sep:
            raise click.UsageError(f"-P takes key=value, got {item!r}")
        key = key.strip()
        if key in kv:
            raise click.UsageError(f"-P gives {key!r} more than once")
        kv[key] = eval_expr(val.strip(), ctx)
    click.echo(str(stem_of(ctx, family, kv)))


@main.command()
@click.option("--s-max", required=True, type=int)
@click.option("--t-max", "t_max", required=True)
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["json", "svg", "tsv"]),
    default="json",
    show_default=True,
)
@click.option("-o", "--output", type=click.Path(dir_okay=False), default=None)
@click.pass_obj
def chart(session, s_max, t_max, fmt, output):
    """Nonzero second-term cells for s <= S_MAX, t <= T_MAX."""
    data = chart_data(session, s_max, eval_expr(t_max, session.ctx))
    text = render_chart(data, fmt)
    if output:
        Path(output).write_text(text)
        click.echo(f"wrote {output}", err=True)
    else:
        click.echo(text, nl=False)


@main.command()
@click.argument(
    "claims_file", required=False, type=click.Path(exists=True, dir_okay=False)
)
@click.option("--include-conjectures", is_flag=True)
@click.option("--json", "as_json", is_flag=True, help="Machine-readable output.")
@click.pass_context
def verify(ctx_click, claims_file, include_conjectures, as_json):
    """Check a JSON claims file (default: the shipped regression corpus)."""
    session = ctx_click.obj
    try:
        claims = load_claims(claims_file)
    except InvalidParams as exc:
        raise click.UsageError(str(exc)) from exc
    cache_dir = session.disk.root if session.disk else None
    results = run_claims(
        claims,
        cache_dir=cache_dir,
        include_conjectures=include_conjectures,
        sessions={session.ctx.p: session},
    )
    counts: dict[str, int] = {}
    for res in results:
        counts[res.status] = counts.get(res.status, 0) + 1
    ok = all(res.status in ("pass", "skipped-conjectural") for res in results)
    if as_json:
        out = {
            "ok": ok,
            "counts": counts,
            "results": [res.serialize() for res in results],
        }
        click.echo(json.dumps(out, indent=2))
    else:
        for res in results:
            kind = res.claim.get("kind") or "?"
            source = res.claim.get("source")
            tail = f"  ({source})" if source else ""
            click.echo(f"{res.index:3d} {res.status:<19} {kind:<15} {res.detail}{tail}")
        summary = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
        click.echo(f"{len(results)} claims: {summary}")
    if not ok:
        ctx_click.exit(1)


if __name__ == "__main__":
    main()
