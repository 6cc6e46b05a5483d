#!/usr/bin/env python3
"""Self-test of the benchmark's own machinery (not of mayext).

    python3 perfbench/selftest.py

Checks that the same seed gives the same input list and another seed a
different one, that every query any seed can draw has a golden output,
that the calibration loop does fixed work, and that the tracer wraps
every binding of a traced function, records nested spans and restores
the originals.  Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import sys

import hostspeed
import run
import tracing
import workloads

SEEDS = (1, 2, 3, 17, 4242)


def check(ok: bool, what: str) -> None:
    if not ok:
        print(f"FAIL: {what}", file=sys.stderr)
        sys.exit(1)
    print(f"ok: {what}")


def test_generator() -> None:
    for workload in ("sparse_windows", "dense_cells"):
        first = workloads.generate(workload, 1)
        check(first == workloads.generate(workload, 1), f"{workload}: same seed, same inputs")
        check(first != workloads.generate(workload, 2), f"{workload}: seeds 1 and 2 differ")
        check(len(first) >= 100, f"{workload}: {len(first)} operations per pass")
        golden = run.load_golden(workload)
        keys = {workloads.key(q) for group in workloads.pool(workload) for q in group}
        missing = keys - golden.keys()
        check(not missing, f"{workload}: golden outputs cover all {len(keys)} pool queries")
        drawn = {workloads.key(q) for seed in SEEDS for q in workloads.generate(workload, seed)}
        check(drawn <= keys, f"{workload}: seeds draw only pool queries")


def test_tracer() -> None:
    _, cli, _ = run.setup_once("sparse_windows", 1)
    import mayext.may_core as core
    import mayext.may_diff as diff

    original = core.enumerate_basis
    tracer = tracing.Tracer()
    tracer.install()
    try:
        check(cli.enumerate_basis is not original, "importers' bindings are wrapped")
        check(diff.enumerate_basis is cli.enumerate_basis, "one wrapper per function")
        print(f"note: absent traced functions: {tracer.absent or 'none'}")
        session = cli.Session(core.PrimeContext(5))
        tracer.span(tracing.DISPATCH, session.report, 4, 60)
        tracer.span(tracing.DISPATCH, session.report, 4, 60)
    finally:
        tracer.uninstall()
    check(core.enumerate_basis is original and cli.enumerate_basis is original, "uninstall restores")
    stats = tracer.summary()
    check(stats[tracing.DISPATCH]["calls"] == 2, "two root spans")
    check(stats["may_core.enumerate_basis"]["calls"] > 0, "nested enumerate_basis spans")
    check(stats["cli_runner.session_report"]["hits"] >= 1, "second query hits the report memo")
    total = sum(st["self_s"] for st in stats.values())
    roots = [i for i in range(len(tracer.start)) if tracer.parent[i] < 0]
    wall = sum(tracer.end[i] - tracer.start[i] for i in roots)
    check(abs(total - wall) < 1e-6, "self times add up to the root spans")

    absent = tracing.Tracer({**tracing.LAYERS, "greek_bp": [("greek_bp", "no_such_function")]})
    absent.install()
    absent.uninstall()
    check(absent.absent == ["greek_bp.no_such_function"], "a missing function is reported absent")


def test_hostspeed() -> None:
    check(hostspeed.loop() == hostspeed.loop(), "the calibration loop does fixed work")


def test_metric_names() -> None:
    doc = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in doc["per_layer"]]
    check(names == [*tracing.PER_LAYER, "trace.wall_ratio"], "per-layer names match BENCHMARK.json")
    check(doc["paths"] == [run.HERE.name], "BENCHMARK.json paths name this directory")


if __name__ == "__main__":
    test_metric_names()
    test_hostspeed()
    test_generator()
    test_tracer()
    print("selftest passed")
