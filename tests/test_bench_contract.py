"""The benchmark's own output checks, run on every op of the seed-1
completion workload and of the seed-1 cli-mixed stream.

A change of representation that breaks what the benchmark reads, such as
``Poly.coeffs`` and ``FieldElement.coeffs`` or the recorded catalog, fails
here rather than at benchmark time.  The workloads are built from the
package this suite already imported.
"""

import importlib.util
from pathlib import Path

import sdconv
import sdconv.cli  # noqa: F401  (the cli-mixed workload calls sdconv.cli.main)

_PATH = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
_SPEC = importlib.util.spec_from_file_location("bench_workloads", _PATH)
workloads = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)


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
