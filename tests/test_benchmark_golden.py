"""Every query the benchmark can draw, against its golden output.

The benchmark (perfbench/) times a seeded draw from a fixed pool of CLI
queries per workload and compares each output with the copy recorded in
perfbench/golden/.  A run covers one seed, so this test runs the whole
pool of both CLI workloads in process and compares stdout and exit code
with the golden copies, the way perfbench/run.py does.  It reads
perfbench/ and changes nothing there.
"""

import importlib
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from mayext.cli_runner import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    # perfbench/workloads.py, imported with perfbench/ on sys.path for the
    # import only
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))
        module = importlib.import_module("workloads")
    return module


@pytest.mark.parametrize("workload", ["sparse_windows", "dense_cells"])
def test_every_pool_query_matches_its_golden_output(workloads, workload):
    golden = json.loads((PERFBENCH / "golden" / f"{workload}.json").read_text())["ops"]
    runner = CliRunner()
    queries = [args for stratum in workloads.pool(workload) for args in stratum]
    assert len(queries) == 400
    wrong = []
    for args in queries:
        key = workloads.key(args)
        res = runner.invoke(main, args)
        want = golden[key]
        if (res.stdout, res.exit_code) != (want["stdout"], want["exit_code"]):
            wrong.append(f"{key}: exit {res.exit_code}, {res.stdout[:200]!r}")
    assert wrong == []
