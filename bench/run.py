"""Benchmark of sdconv: end-to-end workloads, and a traced run per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload completion --seed 1 --seconds 55 --trace 0

Every workload is driven in-process from one Python process, with no
threads, as a closed loop with one client: each op starts when the previous
one has returned.  A run sets the workload up several times (reporting the
median set-up time), then runs whole passes over the workload's ops for as
long as another pass fits in ``--seconds`` (at least one), checking every
output outside the timed region.  Times are reported at reference host
speed: see :func:`kernel_s`.

With ``--trace 0`` the last line of standard output is the end-to-end
result; with ``--trace 1`` the run makes one untraced and one profiled pass
and reports the per-layer metrics of the profiled one.  The line before it
records the environment.  ``--record FILE`` also appends both to a JSON-lines
file, and ``--compare BASE CHANGE`` compares two such files (see
``compare.py``).  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import compare  # noqa: E402
import workloads  # noqa: E402  (after the source path is set)

SETUP_REPEATS = 20
# Ops between two timings of the reference kernel within a pass, and the
# number of timings around an op whose median scales its time.
SAMPLE_EVERY = 25
SCALE_WINDOW = 5
# The reference kernel's time at reference speed: that of the host the
# benchmark was defined on (see README.md, "Host noise").
REF_KERNEL_S = 3.0e-3


def _kernel() -> None:
    """A fixed pure-Python job in the style of the library's inner loops
    (products of coefficient tuples mod 7, kept in a dict); it uses no
    sdconv code, so no change to the program changes its time."""
    p, u, acc = 7, tuple(range(1, 24)), {}
    for r in range(40):
        v = tuple((x * (r + 3)) % p for x in u)
        out = [0] * (len(u) + len(v) - 1)
        for i, a in enumerate(u):
            for j, b in enumerate(v):
                out[i + j] = (out[i + j] + a * b) % p
        key = tuple(out)
        acc[key] = acc.get(key, 0) + 1


def kernel_s() -> float:
    """One timing of the reference kernel, with the collector off.

    The host's speed moves by up to 2x in phases of seconds to minutes.
    Every time the benchmark reports is multiplied by ``REF_KERNEL_S``
    divided by the kernel's time sampled beside it (see
    :func:`at_reference_speed`), which takes out the host's speed at that
    moment and leaves the program's.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        _kernel()
        return time.perf_counter() - start
    finally:
        gc.enable()


def at_reference_speed(times: list[float], samples: list[float], per_sample: int) -> list[float]:
    """``times`` scaled to reference speed.  ``times[n]`` ran beside
    ``samples[n // per_sample]`` and is scaled by the median of the
    ``SCALE_WINDOW`` samples around that one, which follows a change of
    host speed within a run."""
    r = SCALE_WINDOW // 2
    scales = [REF_KERNEL_S / statistics.median(samples[max(0, b - r):b + r + 1])
              for b in range(len(samples))]
    return [t * scales[n // per_sample] for n, t in enumerate(times)]


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (0 <= q <= 1) of a non-empty list."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """SHA-256 over the package sources; identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "sdconv").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "debug": __debug__,
    }


def set_up(name: str, seed: int):
    """Import, build fields and make inputs; returns (workload, package)."""
    sd = workloads.import_sdconv()
    if not Path(sd.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"sdconv was imported from {sd.__file__}, not from {SRC}")
    return workloads.WORKLOADS[name](sd, seed), sd


class Tally:
    """Op outcomes and timings over the passes of a run.

    ``pass_s`` and ``op_s`` are at reference speed, ``raw_pass_s`` as
    measured.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.pass_s: list[float] = []
        self.raw_pass_s: list[float] = []
        self.op_s: list[float] = []
        self.kernel_samples: list[float] = []

    def run_pass(self, wl, profile=None) -> float:
        """Runs and checks one pass; returns its time as measured.  The
        reference kernel is timed every ``SAMPLE_EVERY`` ops, except under
        the profiler."""
        ops = wl.ops()
        outputs, op_s, samples = [], [], []
        clock = time.perf_counter
        if profile is not None:
            profile.enable()
        for n, op in enumerate(ops):
            if profile is None and n % SAMPLE_EVERY == 0:
                samples.append(kernel_s())
            t = clock()
            outputs.append(wl.run(op))
            op_s.append(clock() - t)
        if profile is not None:
            profile.disable()
        wall = sum(op_s)
        for op, output in zip(ops, outputs):
            verdict = wl.check(op, output)
            self.attempted += 1
            self.failed += verdict != workloads.OK
            self.wrong += verdict == workloads.WRONG
        self.raw_pass_s.append(wall)
        if samples:
            scaled = at_reference_speed(op_s, samples, SAMPLE_EVERY)
            self.kernel_samples.extend(samples)
            self.pass_s.append(sum(scaled))
            self.op_s.extend(scaled)
        return wall

    def result(self, values: dict, metrics: list[dict]) -> dict:
        """The result line, reporting ``values`` of the BENCHMARK.json
        ``metrics`` in their order."""
        return {
            "correct": self.wrong == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
        }


def measure(args, spec: dict) -> tuple[dict, dict]:
    """Returns the result and the raw (unscaled) figures behind it."""
    setups, samples = [], []
    kernel_s()  # warm-up, not a sample
    for _ in range(SETUP_REPEATS):
        samples.append(kernel_s())
        start = time.perf_counter()
        wl, sd = set_up(args.workload, args.seed)
        setups.append(time.perf_counter() - start)
    tally = Tally()
    if args.trace:
        import layers

        untraced = tally.run_pass(wl)
        profile = cProfile.Profile()
        traced = tally.run_pass(wl, profile)
        names = [m["name"] for m in spec["per_layer"]]
        values = layers.layer_metrics(profile, sd, names)
        values["trace_overhead"] = traced / untraced
        raw = {"untraced_pass_s": untraced, "traced_pass_s": traced}
        return tally.result(values, spec["per_layer"]), raw
    # Whole passes only: stop when one more pass like the last would
    # overrun the budget, so a run ends within --seconds of set-up.
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        tally.run_pass(wl)
        now = time.perf_counter()
        if now - start + (now - pass_start) > args.seconds:
            break
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "wall_s": statistics.median(tally.pass_s),
        "op_p50_ms": percentile(tally.op_s, 0.5) * 1e3,
        "op_p90_ms": percentile(tally.op_s, 0.9) * 1e3,
        "setup_s": statistics.median(at_reference_speed(setups, samples, 1)),
        "peak_rss_mb": peak_kib / 1024,
        "ok_op_share": 1 - tally.failed / tally.attempted,
    }
    raw = {
        "wall_s": statistics.median(tally.raw_pass_s),
        "setup_s": statistics.median(setups),
        "setup_kernel_ms": statistics.median(samples) * 1e3,
        "pass_kernel_ms": statistics.median(tally.kernel_samples) * 1e3,
    }
    return tally.result(values, spec["end_to_end"]), raw


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the environment and result to this JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"),
                        help="compare two --record files instead of running")
    args = parser.parse_args(argv)
    if args.compare:
        return compare.main(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    env = environment(args)
    try:
        result, env["raw"] = measure(args, compare.benchmark_spec())
    except ImportError as exc:
        print(f"error: cannot import the sdconv sources: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"env": env}))
    if args.record:
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"env": env, "result": result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
