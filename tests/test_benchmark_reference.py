"""The benchmark's seed goldens, checked in tier-1: every op of each
workload's pool, regenerated from the reference file's seed and run
through ``flowgame.cli.main`` in process, passes the benchmark's own
output check, including the sha256 of its stdout. A refactor that moves
one byte of CLI output on those instances fails here, not only when the
benchmark runs."""

import json
import sys
from pathlib import Path

import pytest

from flowgame.cli import main

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"
REFERENCE = json.loads((BENCHMARK / "reference.json").read_text())


def _benchmark_modules():
    # checks.py imports instances.py by its bare name, as run.py does; no
    # bytecode is written, so the test leaves nothing under benchmark/
    sys.path.insert(0, str(BENCHMARK))
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import checks
        import instances
    finally:
        sys.path.remove(str(BENCHMARK))
        sys.dont_write_bytecode = dont_write
    return checks, instances


@pytest.mark.parametrize("workload", sorted(REFERENCE["goldens"]))
def test_seed_goldens_of_the_benchmark(workload, tmp_path, capsys):
    checks, instances = _benchmark_modules()
    seed = REFERENCE["seed"]
    goldens = REFERENCE["goldens"][workload]
    failures = []
    for index, golden in enumerate(goldens):
        instance = instances.generate(workload, seed, index)
        argv = instances.write(instance, tmp_path / f"{index:03d}")
        capsys.readouterr()
        code = main(argv)
        cause = checks.check_op(instance, code, capsys.readouterr().out, golden)
        if cause is not None:
            failures.append((index, cause))
    assert failures == []
