"""Per-layer tracer for the secondlook CLI, installed from outside the package.

A layer is one module of the package.  Every public function a layer defines
is replaced by a wrapper that counts calls and accumulates self time (time
inside the function minus time inside wrapped callees), kept as aggregates
on a call stack because the grid commands make millions of calls.  Modules
import functions by name (``from .incentives import willingness_to_pay``), so
each wrapper is rebound under every name, in every module of the package,
that held the original, including the values of module-level dicts such as
the CLI's command table.

Individual spans are stored only at coarse boundaries: each command, each
``grid_theorem_check``, each ``render_table`` and each
``mc_pattern_frequency``.

Run as a script it traces one CLI invocation and writes the report as JSON::

    PYTHONPATH=src python3 perfbench/tracer.py REPORT.json -- verify --grid 11
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

PACKAGE = "secondlook"
LAYERS = ("model", "incentives", "sets", "patterns", "oracle", "config", "cli")

#: Functions the tracer hooks by name beyond counting; a rename must fail here.
UNIQUE_KEYED = {
    # name -> (layer, leading positional arguments that form the key; callers pass them
    # positionally)
    "willingness_to_pay": ("incentives", 4),  # (p, info, payoffs, s1)
    "realized_posterior": ("patterns", 5),  # (p, info, payoffs, cost, signal)
}
SPANNED = {
    "grid_theorem_check": "oracle",
    "render_table": "config",
    "mc_pattern_frequency": "oracle",
}
PAIR_EVALUATOR = ("patterns", "pairwise_outcome")
COMMAND_PREFIX = "cmd_"

#: Grid checks that evaluate prior pairs; the rest evaluate single priors.
PAIRWISE_CHECKS = frozenset(
    ("polarization", "one_sided_updating", "ordered_gap_contraction", "mirrored_no_divergence")
)


class Tracer:
    """Call counts, self times, argument reuse and coarse spans of one process."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # "layer.function" -> [calls, self seconds]
        self.unique: dict[str, set] = {name: set() for name in UNIQUE_KEYED}
        self.spans: list[dict] = []
        self.pairs_evaluated = 0
        self.pairs_on_grid = 0
        self.render_bytes = 0
        self._stack = [0.0]  # child-time accumulator per open wrapped call
        self._open_spans: list[int] = []
        self._pair_keys: list = [None]  # set of pairs while a pairwise check runs

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of every layer and rebind all references."""
        modules = [importlib.import_module(PACKAGE)]
        modules += [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name, fn in vars(module).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and not name.startswith("_")
                ):
                    wrappers[fn] = self._wrap(layer, name, fn)
        required = [(layer, name) for name, (layer, _) in UNIQUE_KEYED.items()]
        required += [(layer, name) for name, layer in SPANNED.items()]
        required.append(PAIR_EVALUATOR)
        for layer, name in required:
            if f"{layer}.{name}" not in self.stats:
                raise LookupError(f"{PACKAGE}.{layer}.{name} not found; update perfbench/tracer.py")
        if not any(key.startswith(f"cli.{COMMAND_PREFIX}") for key in self.stats):
            raise LookupError(f"no {PACKAGE}.cli.{COMMAND_PREFIX}* command functions found")
        for module in modules:
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, name, wrappers[value])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if inspect.isfunction(item) and item in wrappers:
                            value[key] = wrappers[item]

    def _wrap(self, layer, name, fn):
        stat = self.stats.setdefault(f"{layer}.{name}", [0, 0.0])
        if name in SPANNED or (layer == "cli" and name.startswith(COMMAND_PREFIX)):
            wrapper = self._wrap_span(layer, name, fn, stat)
        elif name in UNIQUE_KEYED:
            remember, width = self.unique[name].add, UNIQUE_KEYED[name][1]
            wrapper = self._wrap_counted(fn, stat, lambda args: remember(args[:width]))
        elif (layer, name) == PAIR_EVALUATOR:
            # (p_i, p_j, info, payoffs, cost): one prior pair at one grid point
            sink = self._pair_keys
            wrapper = self._wrap_counted(
                fn, stat, lambda args: sink[0] is not None and sink[0].add(args[:5])
            )
        else:
            wrapper = self._wrap_counted(fn, stat)
        return functools.update_wrapper(wrapper, fn)

    def _wrap_counted(self, fn, stat, note=None):
        """Count calls and self time; ``note(args)`` sees each call's positional arguments."""
        stack, clock = self._stack, time.perf_counter

        def counted(*args, **kwargs):
            if note is not None:
                note(args)
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat[0] += 1
                stat[1] += elapsed - stack.pop()
                stack[-1] += elapsed

        return counted

    def _wrap_span(self, layer, name, fn, stat):
        stack, clock = self._stack, time.perf_counter
        signature = inspect.signature(fn)

        def spanned(*args, **kwargs):
            span = {"name": f"{layer}.{name}", "detail": None,
                    "parent": self._open_spans[-1] if self._open_spans else None}
            if name == "grid_theorem_check":
                self._enter_grid_check(signature, args, kwargs, span)
            self._open_spans.append(len(self.spans))
            self.spans.append(span)
            result = None
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                elapsed = end - start
                stat[0] += 1
                stat[1] += elapsed - stack.pop()
                stack[-1] += elapsed
                span["start"], span["end"] = start, end
                self._open_spans.pop()
                if name == "grid_theorem_check" and self._pair_keys[0] is not None:
                    self.pairs_evaluated += len(self._pair_keys[0])
                    self._pair_keys[0] = None
                elif name == "render_table" and isinstance(result, str):
                    self.render_bytes += len(result.encode("utf-8"))

        return spanned

    def _enter_grid_check(self, signature, args, kwargs, span):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        check = bound.arguments["check"]
        span["detail"] = check
        if check in PAIRWISE_CHECKS:
            priors = bound.arguments["priors"]
            if priors is None:
                priors = sys.modules[f"{PACKAGE}.oracle"].default_prior_grid()
            n = len(priors)
            thetas, costs = bound.arguments["thetas"], bound.arguments["costs"]
            self.pairs_on_grid += len(thetas) * len(costs) * n * (n - 1) // 2
            self._pair_keys[0] = set()

    # -- report -------------------------------------------------------------

    def report(self) -> dict:
        return {
            "stats": self.stats,
            "unique": {name: len(keys) for name, keys in self.unique.items()},
            "spans": self.spans,
            "pairs_evaluated": self.pairs_evaluated,
            "pairs_on_grid": self.pairs_on_grid,
            "render_bytes": self.render_bytes,
        }


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(reports: list[dict], grid_checks) -> dict[str, float]:
    """Combine the reports of one round's invocations into per-layer metrics.

    ``grid_checks`` names the checks that get an ``oracle.grid_s.<check>`` metric.
    """
    calls = dict.fromkeys(LAYERS, 0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    by_function: dict[str, int] = {}
    spans_s: dict[str, float] = {}
    grid_s = dict.fromkeys(grid_checks, 0.0)
    unique = dict.fromkeys(UNIQUE_KEYED, 0)
    pairs_evaluated = pairs_on_grid = render_bytes = 0
    for report in reports:
        for key, (count, seconds) in report["stats"].items():
            layer = key.split(".", 1)[0]
            calls[layer] += count
            self_s[layer] += seconds
            by_function[key] = by_function.get(key, 0) + count
        for span in report["spans"]:
            duration = span["end"] - span["start"]
            kind = "cli.command" if span["name"].startswith(f"cli.{COMMAND_PREFIX}") else span["name"]
            spans_s[kind] = spans_s.get(kind, 0.0) + duration
            if span["name"] == "oracle.grid_theorem_check" and span["detail"] in grid_s:
                grid_s[span["detail"]] += duration
        for name, count in report["unique"].items():
            unique[name] += count
        pairs_evaluated += report["pairs_evaluated"]
        pairs_on_grid += report["pairs_on_grid"]
        render_bytes += report["render_bytes"]

    def function_calls(name):
        layer = UNIQUE_KEYED[name][0]
        return by_function.get(f"{layer}.{name}", 0)

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = calls[layer]
        metrics[f"{layer}.self_s"] = self_s[layer]
    metrics["model.check_probability_calls"] = by_function.get("model.check_probability", 0)
    metrics["incentives.wtp_unique_ratio"] = _ratio(
        unique["willingness_to_pay"], function_calls("willingness_to_pay")
    )
    metrics["patterns.realized_unique_ratio"] = _ratio(
        unique["realized_posterior"], function_calls("realized_posterior")
    )
    for check, seconds in grid_s.items():
        metrics[f"oracle.grid_s.{check}"] = seconds
    metrics["oracle.pairs_evaluated_ratio"] = _ratio(pairs_evaluated, pairs_on_grid)
    metrics["oracle.mc_s"] = spans_s.get("oracle.mc_pattern_frequency", 0.0)
    metrics["config.render_s"] = spans_s.get("config.render_table", 0.0)
    metrics["config.render_bytes"] = render_bytes
    metrics["cli.compute_s"] = spans_s.get("cli.command", 0.0) - metrics["config.render_s"]
    return metrics


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py REPORT.json -- <secondlook arguments>", file=sys.stderr)
        return 1
    tracer = Tracer()
    tracer.install()
    cli_main = sys.modules[f"{PACKAGE}.cli"].main  # the wrapped entry point
    try:
        code = cli_main(argv[2:])
    except SystemExit as exc:  # argparse exits for --version and usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    sys.stdout.flush()
    with open(argv[0], "w", encoding="utf-8") as handle:
        json.dump(tracer.report(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
