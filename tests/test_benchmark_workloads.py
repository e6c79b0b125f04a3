"""The benchmark's workloads (`benchmarks/workloads.py`) against the program:
at seed 1 each one sets up, runs one pass and passes every check it makes
of that pass's outputs. The workloads are read as a file and not changed."""

import pytest

from conftest import load_benchmark_module

WORKLOADS = load_benchmark_module("workloads").WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_pass_passes_its_checks(tmp_path, name):
    workload = WORKLOADS[name]
    ctx = workload.setup(tmp_path / "setup", 1)
    out_dir = tmp_path / "pass"
    outcome = workload.check(ctx, workload.run(ctx, out_dir), out_dir)
    assert (outcome.failed, outcome.messages) == (0, [])
    assert outcome.ops == workload.ops_per_pass(ctx)
