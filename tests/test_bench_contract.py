"""The benchmark's own output checks, run on every op of the seed-1
completion workload and of the seed-1 cli-mixed stream, its trace table
checked against the package, and the outputs of the completion passes and
the bytes the cli-mixed streams print checked against recorded digests.

A change of representation that breaks what the benchmark reads, such as
``Poly.coeffs`` and ``FieldElement.coeffs``, the recorded catalog or a
function the per-layer trace names, fails here rather than at benchmark
time.  The workloads are built from the package this suite already
imported.
"""

import hashlib
import json
from pathlib import Path

import sdconv
import sdconv.cli  # noqa: F401  (the cli-mixed workload calls sdconv.cli.main)
from helpers import load_bench

workloads = load_bench("workloads")
layers = load_bench("layers")


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


def test_completion_passes_give_the_recorded_outputs():
    # the bench checks that each result is a self-dual completion of the
    # right kind; this pins which one, over the 1,584 ops of seeds 1-3: one
    # SHA-256 over each op's JSON-encoded [extension, kind, witness,
    # generator] text and a newline, in pass order
    fmt, fmt_vec = sdconv.format_matrix, sdconv.format_vector
    digest = hashlib.sha256()
    for seed in (1, 2, 3):
        wl = workloads.Completion(sdconv, seed)
        for op in wl.ops():
            gt, result = wl.run(op)
            fields = [fmt(gt), result.kind, fmt_vec(result.witness), fmt(result.generator)]
            digest.update(json.dumps(fields).encode() + b"\n")
    recorded = Path(__file__).with_name("data") / "completion.sha256"
    assert digest.hexdigest() == recorded.read_text(encoding="utf-8").strip()


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


def test_cli_mixed_streams_print_the_recorded_bytes():
    # the bench checks exit codes and that JSON parses; this pins every byte
    # the 600 requests of seeds 1-3 print, one SHA-256 over each request's
    # JSON-encoded [exit code, stdout] and a newline, in stream order
    digest = hashlib.sha256()
    for seed in (1, 2, 3):
        for argv, _ in workloads.cli_requests(seed):
            rc, stdout, _ = workloads.call_cli(sdconv.cli, argv)
            digest.update(json.dumps([rc, stdout]).encode() + b"\n")
    recorded = Path(__file__).with_name("data") / "cli_mixed.sha256"
    assert digest.hexdigest() == recorded.read_text(encoding="utf-8").strip()


def test_every_traced_function_exists():
    # a renamed function would read 0 in its per-layer bench metrics
    assert layers.missing_functions(sdconv) == []
