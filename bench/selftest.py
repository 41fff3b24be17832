"""Self-tests of the benchmark itself (not of sdconv).

    python3 bench/selftest.py

They check that a seed fixes the inputs byte for byte, that two traced
passes count the same calls, that a corrupted output is counted as failed,
and that the compare mode refuses runs whose ``__debug__`` differs.  The
traced passes use a prefix of each workload's ops to keep this short.
"""

from __future__ import annotations

import cProfile
import dataclasses
import json
import tempfile
import unittest
from pathlib import Path

import run  # sets the source path
import compare
import layers
import workloads

HERE = Path(__file__).resolve().parent
PER_LAYER = [m["name"] for m in compare.benchmark_spec()["per_layer"]]


class BenchmarkFileTest(unittest.TestCase):
    def test_workloads_match_benchmark_json(self):
        spec = compare.benchmark_spec()
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(workloads.WORKLOADS))


class ScaleTest(unittest.TestCase):
    def test_times_follow_the_kernel_around_them(self):
        ref = run.REF_KERNEL_S
        self.assertEqual(run.at_reference_speed([1.0, 2.0], [ref, ref], 1), [1.0, 2.0])
        # the host at half speed for the last ten samples: those ops halve
        samples = [ref] * 10 + [2 * ref] * 10
        scaled = run.at_reference_speed([1.0] * 40, samples, 2)
        self.assertEqual(scaled[:16], [1.0] * 16)
        self.assertEqual(scaled[-16:], [0.5] * 16)


class SeedTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name in ("cli-mixed", "completion"):
            first = run.set_up(name, 11)[0].describe().encode()
            again = run.set_up(name, 11)[0].describe().encode()
            other = run.set_up(name, 12)[0].describe().encode()
            self.assertEqual(first, again, name)
            self.assertNotEqual(first, other, name)

    def test_stream_shape(self):
        requests = workloads.cli_requests(5)
        self.assertEqual(len(requests), workloads.STREAM_LENGTH)
        malformed = sum(bad for _, bad in requests)
        self.assertEqual(malformed, len(workloads.MALFORMED_KINDS) * workloads.PER_MALFORMED_KIND)
        self.assertEqual(sum("2^40" in argv for argv, _ in requests), workloads.PER_MALFORMED_KIND)
        self.assertEqual(sum(argv == workloads.FOUR_TWO_ARGV for argv, _ in requests), 1)


class TraceTest(unittest.TestCase):
    def traced_calls(self, name: str, prefix: int) -> dict:
        wl, sd = run.set_up(name, 3)
        ops = wl.ops()[:prefix]
        wl.ops = lambda: ops
        profile = cProfile.Profile()
        run.Tally().run_pass(wl, profile)
        metrics = layers.layer_metrics(profile, sd, PER_LAYER)
        return {k: v for k, v in metrics.items() if k.endswith(".calls")}

    def test_traced_call_counts_repeat(self):
        for name, prefix in (("cli-mixed", 60), ("completion", 24)):
            first = self.traced_calls(name, prefix)
            self.assertEqual(first, self.traced_calls(name, prefix), name)
            self.assertTrue(all(isinstance(v, int) for v in first.values()))
            self.assertGreater(first["polys.init.calls"], 0)

    def test_every_layer_metric_is_reported(self):
        wl, sd = run.set_up("completion", 3)
        ops = wl.ops()[:4]
        wl.ops = lambda: ops
        profile = cProfile.Profile()
        run.Tally().run_pass(wl, profile)
        reported = set(layers.layer_metrics(profile, sd, PER_LAYER)) | {"trace_overhead"}
        self.assertEqual(reported, set(PER_LAYER))
        self.assertEqual(layers.missing_functions(sd), [])

    def test_gone_function_reads_zero(self):
        wl, sd = run.set_up("completion", 3)
        self.assertEqual(layers.missing_functions(sd), [])
        del sd.constructions._exact_completion_witness
        self.assertEqual(layers.missing_functions(sd), ["constructions._exact_completion_witness"])


class StubWorkload:
    """Serves fixed outputs through a real workload's check."""

    def __init__(self, real, ops, outputs):
        self.real, self._ops, self.outputs = real, ops, outputs

    def ops(self):
        return self._ops

    def run(self, op):
        return self.outputs[self._ops.index(op)]

    def check(self, op, output):
        return self.real.check(op, output)


class CorruptionTest(unittest.TestCase):
    def assert_counted(self, real, ops, outputs, failed, wrong):
        tally = run.Tally()
        tally.run_pass(StubWorkload(real, ops, outputs))
        result = tally.result({}, [])
        self.assertEqual(result["failed"], failed)
        self.assertEqual(result["correct"], wrong == 0)

    def test_corrupted_catalog(self):
        wl, _ = run.set_up("cli-mixed", 4)
        op = next(op for op in wl.ops() if op[0] == workloads.FOUR_TWO_ARGV)
        good = (0, wl.four_two, None)
        bad = (0, wl.four_two.replace('"dfree": 4', '"dfree": 5', 1), None)
        self.assertEqual(wl.check(op, wl.run(op)), workloads.OK)
        self.assertEqual(wl.check(op, good), workloads.OK)
        self.assertEqual(wl.check(op, bad), workloads.WRONG)
        self.assert_counted(wl, [op], [bad], failed=1, wrong=1)
        self.assert_counted(wl, [op], [(1, "", None)], failed=1, wrong=0)

    def test_corrupted_cli_output(self):
        wl, _ = run.set_up("cli-mixed", 4)
        ok_json = [op for op in wl.ops() if not op[1] and "json" in op[0]][:2]
        bad_input = next(op for op in wl.ops() if op[1])
        self.assertEqual(wl.check(ok_json[0], wl.run(ok_json[0])), workloads.OK)
        outputs = [
            (0, '{"generator": ', None),  # JSON cut short
            (0, "", None),  # success exit that prints nothing
        ]
        self.assert_counted(wl, ok_json, outputs, failed=2, wrong=2)
        self.assertEqual(wl.check(bad_input, (0, "x", None)), workloads.FAILED)
        self.assertEqual(wl.check(ok_json[0], (None, "", "ValueError")), workloads.FAILED)

    def test_corrupted_completion(self):
        wl, sd = run.set_up("completion", 4)
        op = wl.ops()[0]
        gt, result = wl.run(op)
        flipped = sd.TRIVIAL_ONLY if result.kind == sd.NON_TRIVIAL else sd.NON_TRIVIAL
        corrupted = (gt, dataclasses.replace(result, kind=flipped))
        self.assertEqual(wl.check(op, corrupted), workloads.WRONG)
        self.assertEqual(wl.check(op, (gt, result)), workloads.OK)
        # a completing row that breaks self-orthogonality
        rows = [list(r) for r in result.generator.entries]
        rows[0][2] = rows[0][2] + sd.Poly.z(sd.make_field(2))
        broken = dataclasses.replace(result, generator=sd.PolyMatrix(gt.spec, rows))
        self.assertEqual(wl.check(op, (gt, broken)), workloads.WRONG)
        # an extension whose pairing column does not match the op
        other = next(o for o in wl.ops() if o[1] != op[1])
        self.assertEqual(wl.check(other, (gt, result)), workloads.WRONG)

    def test_completion_check_is_independent(self):
        """The check's own GF(2)[z] arithmetic agrees with the library's."""
        wl, sd = run.set_up("completion", 5)
        for code, a in wl.ops()[:40]:
            gt = sd.hm_extend(code, a)
            ones = tuple(sd.Poly.one(gt.spec) for _ in range(gt.cols))
            ext = workloads._gf2_rows(gt)
            self.assertEqual(workloads._solve_left(ext, [1] * gt.cols) is not None,
                             sd.solve_left(gt, ones) is not None)
            self.assertTrue(workloads._is_self_dual(workloads._gf2_rows(code.generator)))
            self.assertFalse(workloads._is_self_dual(ext))


class CompareTest(unittest.TestCase):
    def write(self, directory, name, debug, values):
        path = Path(directory) / name
        lines = [
            {"env": {"workload": "completion", "trace": 0, "debug": debug},
             "result": {"metrics": {"wall_s": {"value": v, "unit": "s"}}}}
            for v in values
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in lines))
        return str(path)

    def test_refuses_mixed_debug(self):
        with tempfile.TemporaryDirectory(dir=HERE) as d:
            base = self.write(d, "a.jsonl", True, [1.0, 1.1])
            change = self.write(d, "b.jsonl", False, [1.0, 1.1])
            self.assertEqual(compare.main(base, change), 2)

    def test_verdicts(self):
        base = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
        self.assertEqual(compare.verdict(base, [x * 0.8 for x in base], 0.1, "lower"), "better")
        self.assertEqual(compare.verdict(base, [x * 1.3 for x in base], 0.1, "lower"), "worse")
        self.assertEqual(compare.verdict(base, [x * 1.02 for x in base], 0.1, "lower"), "within-bound")
        noisy = [1.0, 1.5, 0.7, 1.3, 0.8, 1.2, 0.9, 1.4, 0.6, 1.0]
        self.assertEqual(compare.verdict(noisy, [x * 1.05 for x in noisy], 0.1, "lower"), "unresolved")


if __name__ == "__main__":
    unittest.main()
