"""Per-layer metrics of a traced pass, read from the stdlib profiler.

The layers are the modules of ``sdconv``; ``errors`` does no work.  A
layer's self time is the time spent in its own functions plus the time of
the built-in (C) functions they call directly, since the profiler books a
built-in call apart from its caller.  Counts and cumulative times are read
for named functions, found by their code objects so a method name shared
by two classes of one module is never confused.  A named function that the
package no longer defines counts 0 calls.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from pathlib import Path

LAYERS = ("fields", "polys", "matrices", "codes", "constructions", "classify", "cli")


def _module_of(filename: str):
    path = Path(filename)
    if path.parent.name == "sdconv" and path.stem in LAYERS:
        return path.stem
    return None


# Metric stem -> the function it counts, as a dotted path inside the
# package; "outer/inner" names the function ``inner`` defined in ``outer``.
FUNCTIONS = {
    "fields.mul": "fields.FieldElement.__mul__",
    "fields.add": "fields.FieldElement.__add__",
    "fields.eq": "fields.FieldElement.__eq__",
    "fields.inverse": "fields.FieldElement.inverse",
    "fields.make_field": "fields.make_field",
    "polys.init": "polys.Poly.__init__",
    "polys.mul": "polys.Poly.__mul__",
    "polys.add": "polys.Poly.__add__",
    "polys.divmod": "polys.Poly.__divmod__",
    "polys.xgcd": "polys.xgcd",
    "matrices.hermite_core": "matrices._hermite_core",
    "matrices.smith": "matrices.smith",
    "matrices.solve_left": "matrices.solve_left",
    "matrices.right_kernel_basis": "matrices.right_kernel_basis",
    "matrices.determinant": "matrices.determinant",
    "codes.init": "codes.ConvolutionalCode.__init__",
    "codes.is_self_dual": "codes.ConvolutionalCode.is_self_dual",
    "codes.dual": "codes.ConvolutionalCode.dual",
    "codes.code_degree": "codes.ConvolutionalCode.code_degree",
    "codes.free_distance": "codes.ConvolutionalCode.free_distance",
    "constructions.find_completion": "constructions.find_completion",
    "constructions.attempt": "constructions.find_completion/attempt",
    "constructions.exact_witness": "constructions._exact_completion_witness",
    "classify.record": "classify._record",
    "cli.build_parser": "cli._build_parser",
    "cli.emit": "cli._emit",
}
# Text parsers and formatters whose time, when called from ``cli``, is
# ``cli.parse_s`` and ``cli.format_s``.
PARSERS = ("matrices.parse_matrix", "matrices.parse_vector", "fields.parse_element", "polys.parse_poly")
FORMATTERS = ("matrices.format_matrix", "matrices.format_vector", "classify.format_catalog")


def _label_of(code) -> tuple:
    return code.co_filename, code.co_firstlineno, code.co_name


def _resolve(sd, path: str):
    """Profiler label of the function at ``path``, or None if it is gone."""
    dotted, _, inner = path.partition("/")
    obj = sd
    for part in dotted.split("."):
        obj = getattr(obj, part, None)
    code = getattr(obj, "__code__", None)
    if code is not None and inner:
        code = next((c for c in code.co_consts if getattr(c, "co_name", None) == inner), None)
    return None if code is None else _label_of(code)


def missing_functions(sd) -> list[str]:
    """Paths this module counts that the package no longer defines; their
    metrics read 0."""
    paths = [*FUNCTIONS.values(), *PARSERS, *FORMATTERS]
    return [p for p in paths if _resolve(sd, p) is None]


def layer_metrics(profile: cProfile.Profile, sd, names: list[str]) -> dict[str, float]:
    """The per-layer metrics of the profiled pass: the self time of every
    layer, the ``classify``, ``cli.parse_s`` and ``cli.format_s`` figures,
    and each ``<stem>.calls`` or ``<stem>.cum_s`` in ``names`` for a stem of
    :data:`FUNCTIONS`."""
    for path in missing_functions(sd):
        print(f"warning: sdconv.{path} is gone; its metrics read 0", file=sys.stderr)
    stats = pstats.Stats(profile).stats
    named = {stem: _resolve(sd, path) for stem, path in FUNCTIONS.items()}
    out: dict[str, float] = {}

    self_s = dict.fromkeys(LAYERS, 0.0)
    for (filename, _, _), (_, _, tt, _, callers) in stats.items():
        layer = _module_of(filename)
        if layer is not None:
            self_s[layer] += tt
        elif filename == "~":  # a built-in: book its time to each caller
            for caller, (_, _, caller_tt, _) in callers.items():
                caller_layer = _module_of(caller[0])
                if caller_layer is not None:
                    self_s[caller_layer] += caller_tt
    for layer, seconds in self_s.items():
        out[f"{layer}.self_s"] = seconds

    def calls(stem: str) -> int:
        entry = stats.get(named[stem])
        return entry[1] if entry else 0

    def cum_s(stem: str) -> float:
        entry = stats.get(named[stem])
        return entry[3] if entry else 0.0

    def from_layer(label: tuple, layer: str, index: int) -> float:
        """Calls (index 0) or cumulative time (index 3) of ``label`` made
        directly from functions of ``layer``."""
        entry = stats.get(label)
        if entry is None:
            return 0
        return sum(v[index] for caller, v in entry[4].items() if _module_of(caller[0]) == layer)

    for name in names:
        stem, _, kind = name.rpartition(".")
        if kind == "calls":
            out[name] = calls(stem)
        elif kind == "cum_s":
            out[name] = cum_s(stem)

    candidates = from_layer(named["codes.init"], "classify", 0)
    records = calls("classify.record")
    out["classify.candidates"] = candidates
    out["classify.records"] = records
    out["classify.dedup_yield"] = records / candidates if candidates else 0.0

    parsers = [_label_of(argparse.ArgumentParser.parse_args.__code__)]
    parsers += [_resolve(sd, path) for path in PARSERS]
    out["cli.parse_s"] = sum((from_layer(label, "cli", 3) for label in parsers), 0.0)
    formatters = [_resolve(sd, path) for path in FORMATTERS]
    out["cli.format_s"] = cum_s("cli.emit") + sum(
        (from_layer(label, "cli", 3) for label in formatters), 0.0
    )
    return out
