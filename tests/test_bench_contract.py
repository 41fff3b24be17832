"""The benchmark's own output checks, run on a slice of each workload.

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
    wl = workloads.Completion(sdconv, 1)
    results = verdicts(wl, wl.ops()[:16])
    assert [v for _, v in results] == [workloads.OK] * 16, results


def test_cli_mixed_slice_passes_the_bench_check():
    wl = workloads.CliMixed(sdconv, 1)
    ops = wl.ops()
    chosen = ops[:40] + [op for op in ops if op[0] == workloads.FOUR_TWO_ARGV]
    assert len(chosen) == 41
    results = verdicts(wl, chosen)
    bad = [(op, v) for op, v in results if v != workloads.OK]
    assert not bad
