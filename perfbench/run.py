#!/usr/bin/env python3
"""mayext benchmark: one workload, one process, one closed-loop caller.

    python3 perfbench/run.py --workload dense_cells --seed 1 --seconds 60 --trace 0

Run from the repository root.  The package is imported from ./src, so
nothing needs installing.  The run

1. imports the package and builds the inputs;
2. runs passes over the input list until the next pass would end after
   --seconds (at least one pass).  Each operation starts when the
   previous one has returned, and gets a deadline; an overrun aborts that
   operation, counts as a failure, and the run goes on.  A calibration
   loop (hostspeed.py) runs before every tenth operation, and every time
   measured in a pass is scaled by the loop's median time in that pass
   to the speed of the reference host: other tenants of a shared host
   slow this process by up to 2x for up to minutes at a time.  After
   every pass the run sets up again (imports the package from scratch
   and builds the inputs);
3. reports setup_s as the median set-up time, each operation's latency
   as its median over the passes, latency_p50_ms and latency_p90_ms over
   those per-operation latencies, and wall_s as their sum, the time of
   one typical pass; the values as measured, before scaling, are printed
   too;
4. compares every output byte for byte with the golden output recorded
   at the reference commit (perfbench/golden/);
5. prints one line per metric and, last, one JSON object.

With --trace 1 the passes alternate untraced and traced, the traced ones
wrapping the public functions of every layer (see tracing.py).  The
per-layer metrics are per traced pass, and trace.wall_ratio is the
tracing overhead: wall_s of the traced passes over wall_s of the
untraced ones.  The spans of the last traced pass are written to
perfbench/out/.

Workloads: sparse_windows and dense_cells (seeded cold CLI queries, one
`mayext` invocation each), and corpus (the shipped claims through
run_claims, one session per prime; runnable, but not in BENCHMARK.json,
see perfbench/README.md).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import importlib
import json
import resource
import signal
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import hostspeed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
GOLDEN = HERE / "golden"
OUT = HERE / "out"

# per-operation deadline: this many times the golden run's time, at least MIN
DEADLINE_FACTOR = 8.0
DEADLINE_MIN_S = 2.0
# no operation starts later than this after the process starts
RUN_LIMIT_S = 150.0
# operations per sample of the host speed
CALIBRATE_EVERY = 10

_PROCESS_START = perf_counter()


class Overrun(BaseException):
    """Raised by the deadline timer inside a running operation.

    A BaseException, so that neither the package nor click swallows it.
    """


class SetupError(Exception):
    pass


# ---------------------------------------------------------------------------
# set-up


def _purge_package() -> None:
    for name in [m for m in sys.modules if m == "mayext" or m.startswith("mayext.")]:
        del sys.modules[name]


def _import_package():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        cli = importlib.import_module("mayext.cli_runner")
    except ImportError as exc:
        raise SetupError(f"cannot import mayext from {SRC}: {exc}") from exc
    origin = Path(cli.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SetupError(f"imported mayext from {origin}, not from {SRC}")
    return cli


def setup_once(workload: str, seed: int):
    """Import the package from scratch and build the workload's inputs."""
    _purge_package()
    # free the previous import now, so that repeated set-ups do not pile
    # up garbage and move peak_rss_mb with the number of passes
    gc.collect()
    started = perf_counter()
    cli = _import_package()
    if workload == "corpus":
        ops = cli.load_claims()
    else:
        ops = workloads.generate(workload, seed)
    return perf_counter() - started, cli, ops


def load_golden(workload: str) -> dict:
    path = GOLDEN / f"{workload}.json"
    try:
        return json.loads(path.read_text())["ops"]
    except (OSError, ValueError, KeyError) as exc:
        raise SetupError(f"cannot read golden outputs {path}: {exc}") from exc


def op_key(workload: str, index: int, op) -> str:
    if workload == "corpus":
        return str(index)
    return workloads.key(op)


# ---------------------------------------------------------------------------
# operations


class Runner:
    """Executes the operations of one workload against one import of mayext."""

    def __init__(self, workload: str, cli):
        self.workload = workload
        self.cli = cli
        self.sessions: dict = {}
        # one pair of buffers for every CLI call: click caches a text
        # wrapper per stream object and never frees it, so a fresh stream
        # per call (as click.testing.CliRunner makes) grows memory with
        # the number of calls
        self.out = io.StringIO()
        self.err = io.StringIO()

    def new_pass(self) -> None:
        # the corpus keeps one session per prime for a whole pass, as
        # `mayext verify` does; claims go to run_claims one at a time so
        # that each is timed as one operation.  CLI queries make a fresh
        # session per call
        self.sessions = {}

    def __call__(self, op):
        if self.workload == "corpus":
            res = self.cli.run_claims([op], sessions=self.sessions)[0]
            return {"status": res.status, "detail": res.detail}
        return self.invoke(op)

    def invoke(self, args):
        """Run `mayext <args>` in this process: its stdout and exit code."""
        out, err = self.out, self.err
        for buf in (out, err):
            buf.seek(0)
            buf.truncate()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                self.cli.main.main(args=args, prog_name="mayext")
                code = 0
            except SystemExit as exc:
                code = exc.code
                if code is None:
                    code = 0
                elif not isinstance(code, int):
                    print(code)
                    code = 1
            except Exception as exc:  # reported as a wrong output
                print(f"{type(exc).__name__}: {exc}")
                code = 1
        return {"stdout": out.getvalue(), "exit_code": code}


class Deadline:
    """SIGALRM-based per-operation deadline for the single caller thread."""

    def __init__(self):
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            self.armed = False
            raise Overrun()

    def run(self, fn, seconds: float):
        """(latency, output or None, overran)."""
        started = perf_counter()
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            out = fn()
            self.armed = False
            overran = False
        except Overrun:
            out, overran = None, True
        finally:
            self.armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
        latency = perf_counter() - started
        return latency, out, overran or latency > seconds


def deadline_for(golden_entry) -> float:
    seconds = golden_entry.get("seconds", 0.0) if golden_entry else 0.0
    return max(DEADLINE_MIN_S, DEADLINE_FACTOR * seconds)


@dataclass
class Pass:
    wall: float  # seconds, as measured
    latencies: list  # seconds per operation, as measured; None if not started
    failures: list  # (key, why)
    loop_s: float  # median time of the calibration loop during the pass
    setup: float = 0.0  # seconds the set-up after the pass took, as measured

    @property
    def scale(self) -> float:
        """Factor that brings a time measured in this pass to reference speed."""
        return hostspeed.REFERENCE_S / self.loop_s


def run_pass(workload, ops, runner, golden, deadline, tracer=None) -> Pass:
    """One closed-loop pass over ops.

    The calibration loop runs before every CALIBRATE_EVERY-th operation.
    """
    runner.new_pass()
    latencies = []
    failures = []
    loops = []
    started = perf_counter()
    for index, op in enumerate(ops):
        if index % CALIBRATE_EVERY == 0:
            loops.append(hostspeed.time_loop())
        key = op_key(workload, index, op)
        want = golden.get(key)
        budget = min(deadline_for(want), RUN_LIMIT_S - (perf_counter() - _PROCESS_START))
        if budget <= 0:
            latencies.append(None)
            failures.append((key, "not started: run time limit reached"))
            continue
        if tracer is None:
            call = lambda: runner(op)  # noqa: E731
        else:
            call = lambda: tracer.span(tracing.DISPATCH, runner, op)  # noqa: E731
        latency, got, overran = deadline.run(call, budget)
        latencies.append(latency)
        if overran:
            failures.append((key, f"deadline {budget:.3g}s overrun ({latency:.3g}s)"))
        elif want is None:
            failures.append((key, "no golden output"))
        elif any(got[field] != want[field] for field in got):
            failures.append((key, f"output differs from golden: {got!r}"))
    return Pass(perf_counter() - started, latencies, failures, statistics.median(loops))


def op_latencies(passes, scaled=True) -> list[float]:
    """Each operation's median latency over the passes that started it.

    Scaled to reference speed, unless scaled is false.
    """
    per_op = zip(*([(x, p.scale if scaled else 1.0) for x in p.latencies] for p in passes))
    return [
        statistics.median(started)
        for started in ([x * k for x, k in lats if x is not None] for lats in per_op)
        if started
    ]


# ---------------------------------------------------------------------------
# reporting


def percentile(values, pct: int) -> float:
    """pct-th percentile by statistics.quantiles (exclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[pct - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def emit(correct, attempted, failed, metrics, lines):
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        # not a set-up sample: the first import in a fresh checkout also
        # compiles the package to bytecode
        _, cli, ops = setup_once(args.workload, args.seed)
        golden = load_golden(args.workload)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    runner = Runner(args.workload, cli)
    deadline = Deadline()
    tracer = tracing.Tracer() if args.trace else None
    plain: list[Pass] = []
    traced: list[Pass] = []
    layer_totals: dict = {}
    run_started = perf_counter()
    while True:
        trace_this = tracer is not None and len(plain) > len(traced)
        if trace_this:
            tracer.reset()
            tracer.install()
            try:
                result = run_pass(args.workload, ops, runner, golden, deadline, tracer)
            finally:
                tracer.uninstall()
            traced.append(result)
            for name, (value, unit) in tracing.per_layer_metrics(tracer.summary()).items():
                layer_totals.setdefault(name, ([], unit))[0].append(value)
        else:
            result = run_pass(args.workload, ops, runner, golden, deadline)
            plain.append(result)
        # set up again after every pass, so that the set-up samples are
        # spread over the run like the operations; the next pass uses the
        # fresh import
        result.setup, runner.cli, ops = setup_once(args.workload, args.seed)
        elapsed = perf_counter() - run_started
        if tracer is not None and len(traced) < len(plain):
            continue
        if elapsed + result.wall > args.seconds:
            break

    passes = plain + traced
    failures = [f for p in passes for f in p.failures]
    attempted = sum(len(ops) for _ in passes)
    for key, why in failures[:20]:
        print(f"FAILED {key}: {why}", file=sys.stderr)
    lines = [
        f"workload {args.workload} seed {args.seed} passes {len(passes)} "
        f"operations/pass {len(ops)}",
        "pass wall s: " + " ".join(f"{p.wall:.3f}" for p in plain)
        + ("; traced: " + " ".join(f"{p.wall:.3f}" for p in traced) if traced else ""),
        "calibration loop ms (median per pass): "
        + " ".join(f"{p.loop_s * 1e3:.3f}" for p in passes)
        + f"; reference {hostspeed.REFERENCE_S * 1e3:.4g}",
        f"fail_ratio {len(failures) / attempted:.6g} ratio "
        f"({len(failures)} of {attempted} operations)",
    ]
    if tracer is None:
        latencies = op_latencies(plain)
        measured = op_latencies(plain, scaled=False)
        lines += [
            f"latency samples {len(latencies)} (each the median of {len(plain)} passes)",
            "as measured, before scaling to reference speed: "
            f"setup_s {statistics.median(p.setup for p in plain):.6g}, "
            f"wall_s {sum(measured):.6g}, "
            f"latency_p50_ms {percentile(measured, 50) * 1e3:.6g}, "
            f"latency_p90_ms {percentile(measured, 90) * 1e3:.6g}",
        ]
        metrics = {
            "setup_s": (statistics.median(p.setup * p.scale for p in plain), "s"),
            "wall_s": (sum(latencies), "s"),
            "latency_p50_ms": (percentile(latencies, 50) * 1e3, "ms"),
            "latency_p90_ms": (percentile(latencies, 90) * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    else:
        metrics = {
            name: (statistics.median(values), unit)
            for name, (values, unit) in layer_totals.items()
        }
        ratio = sum(op_latencies(traced)) / sum(op_latencies(plain))
        metrics["trace.wall_ratio"] = (ratio, "ratio")
        if tracer.absent:
            print("absent (not traced): " + ", ".join(tracer.absent), file=sys.stderr)
        OUT.mkdir(exist_ok=True)
        dump = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(dump)
        lines.append(f"spans of the last traced pass: {dump.relative_to(HERE.parent)}")
    emit(not failures, attempted, len(failures), metrics, lines)
    return 0


if __name__ == "__main__":
    sys.exit(main())
