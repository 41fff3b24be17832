"""The benchmark's own output checks, run on every op of the seed-1
completion workload and of the seed-1 cli-mixed stream, and its trace
table checked against the package.

A change of representation that breaks what the benchmark reads, such as
``Poly.coeffs`` and ``FieldElement.coeffs``, the recorded catalog or a
function the per-layer trace names, fails here rather than at benchmark
time.  The workloads are built from the package this suite already
imported.
"""

import importlib.util
from pathlib import Path

import sdconv
import sdconv.cli  # noqa: F401  (the cli-mixed workload calls sdconv.cli.main)


def _load(name: str):
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
layers = _load("layers")


def verdicts(wl, ops):
    return [(op, wl.check(op, wl.run(op))) for op in ops]


def test_completion_slice_passes_the_bench_check():
    # every seed-1 op: the bench's own GF(2)[z] arithmetic checks each output
    wl = workloads.Completion(sdconv, 1)
    ops = wl.ops()
    assert len(ops) == 528
    results = verdicts(wl, ops)
    bad = [(op, v) for op, v in results if v != workloads.OK]
    assert not bad


def test_cli_mixed_slice_passes_the_bench_check():
    # the whole seed-1 stream: every request goes through the text parsers,
    # and each of the malformed ones, ten of every kind, must exit 2 or 3
    wl = workloads.CliMixed(sdconv, 1)
    ops = wl.ops()
    assert len(ops) == 600
    assert sum(malformed for _, malformed in ops) == 10 * len(workloads.MALFORMED_KINDS) == 70
    results = verdicts(wl, ops)
    bad = [(op, v) for op, v in results if v != workloads.OK]
    assert not bad


def test_every_traced_function_exists():
    # a renamed function would read 0 in its per-layer bench metrics
    assert layers.missing_functions(sdconv) == []
