"""Workload inputs: the shipped corpus and two seeded CLI query mixes.

A generated workload is a fixed pool of CLI queries, split into strata
(prime, command, filtration s, band of internal degrees t).  A stratum
that contributes n queries to a run has n slots spread evenly over its
band, each holding CHOICES neighbouring degrees; the run seed picks one
query in each slot and then shuffles the whole list.  So every seed
queries other cells through a mix of the same shape and about the same
cost, the same seed always gives the same list, and the golden output of
every query any seed can draw is recorded once (see make_golden.py).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

POOL_SEED = 20080929
CHOICES = 4  # pool queries per slot; the seed picks one of them

WORKLOADS = ("corpus", "sparse_windows", "dense_cells")


@dataclass(frozen=True)
class Stratum:
    p: int
    kind: str  # "e2", "vanish", "window", "les" or "beta-list"
    s: int
    band: str  # "mid", "wide" or "ratioLO-HI", see t_range
    per_pass: int
    r_max: int = 0
    spectrum: str = ""

    def t_range(self) -> tuple[int, int, int]:
        """(lo, hi, step): t = k * step (+ a small offset), lo <= k < hi."""
        p, q = self.p, 2 * (self.p - 1)
        if self.band == "mid":
            return p**3, p**4, q
        if self.band == "wide":
            return p**10, p**12, 1
        lo, hi = (int(x) for x in self.band[len("ratio"):].split("-"))
        return lo * self.s, hi * self.s + 1, 1

    def args(self, t: int) -> list[str]:
        """The argument vector of one `mayext` invocation."""
        if self.kind == "les":
            return ["-p", str(self.p), "les", self.spectrum, str(self.s), str(t)]
        if self.kind == "beta-list":
            return ["-p", str(self.p), "greek", "beta-list", str(t)]
        args = ["-p", str(self.p), self.kind, str(self.s), str(t)]
        if self.kind == "window":
            args += ["--r-max", str(self.r_max)]
        return args


def _sparse_strata() -> list[Stratum]:
    # t between p^3 q and p^4 q and a few above a multiple of q (t mod q
    # counts the a-generators, so small offsets keep cells populated), or
    # a very wide t (p^10 to p^12) at low filtration.  s stops at 6 so that
    # a pass takes a few seconds and every query is timed many times a run
    out = []
    for p in (5, 7):
        for s, n in ((3, 6), (4, 5), (5, 5), (6, 2 if p == 5 else 3)):
            out.append(Stratum(p, "e2", s, "mid", n))
        for s, n in ((3, 5), (4, 4), (5, 3), (6, 1 if p == 5 else 0)):
            if n:
                out.append(Stratum(p, "vanish", s, "mid", n))
        out.append(Stratum(p, "window", 3, "mid", 3, r_max=3))
        for s in (1, 2):
            out.append(Stratum(p, "e2", s, "wide", 3))
            out.append(Stratum(p, "vanish", s, "wide", 3))
        # the bookkeeping a user asks for around the same degrees
        out.append(Stratum(p, "les", 3, "mid", 2, spectrum="S"))
        out.append(Stratum(p, "beta-list", 0, "mid", 2))
    return out


def _dense_strata() -> list[Stratum]:
    # p = 3, s from 6 to 12 and t/s from 5 to 9: cells of tens to a few
    # hundred monomials.  Larger s would make a pass too long to time
    # every query many times a run
    out = []
    for kind, counts in (
        ("e2", ((6, 9), (7, 12), (8, 19), (9, 12), (10, 4), (11, 1), (12, 1))),
        ("vanish", ((6, 6), (7, 10), (8, 6))),
        ("les", ((6, 8), (7, 10))),
    ):
        for s, n in counts:
            band = "ratio5-8" if kind == "les" else "ratio5-9"
            out.append(Stratum(3, kind, s, band, n, spectrum="S" if kind == "les" else ""))
    out.append(Stratum(3, "beta-list", 0, "mid", 2))
    return out


STRATA = {"sparse_windows": _sparse_strata, "dense_cells": _dense_strata}


def _stratum_pool(st: Stratum) -> list[list[str]]:
    """per_pass slots of CHOICES queries each.

    Slot j takes a base degree t from the j-th of per_pass equal parts of
    the band; its choices are t, t + q, t + 2q, ... which keep t mod q and
    hence cost about the same, so the seed moves every query to another
    cell without moving the cost of the mix.
    """
    # one generator per stratum, so editing one stratum leaves the other
    # strata's queries (and golden outputs) as they were
    rng = random.Random(f"{POOL_SEED}:{st.p}:{st.kind}:{st.s}:{st.band}:{st.r_max}")
    lo, hi, step = st.t_range()
    q = 2 * (st.p - 1)
    n = st.per_pass
    out = []
    for j in range(n):
        k = rng.randrange(lo + (hi - lo) * j // n, lo + (hi - lo) * (j + 1) // n)
        offset = st.band == "mid" and st.kind != "beta-list"
        t = k * step + (rng.randint(0, 3) if offset else 0)
        out.extend(st.args(t + i * q) for i in range(CHOICES))
    return out


def pool(workload: str) -> list[list[list[str]]]:
    """Every query a seed can draw, grouped by stratum."""
    return [_stratum_pool(st) for st in STRATA[workload]()]


def generate(workload: str, seed: int) -> list[list[str]]:
    """The query list of one run: one query per slot of every stratum."""
    rng = random.Random(f"{workload}:{seed}")
    queries = []
    for group in pool(workload):
        for slot in range(0, len(group), CHOICES):
            queries.append(rng.choice(group[slot : slot + CHOICES]))
    rng.shuffle(queries)
    return queries


def key(args: list[str]) -> str:
    return " ".join(args)
