"""Benchmark of the secondlook CLI, driven the way a user drives it.

One run spawns one CLI process at a time, from the checkout's own source
tree, for ``--seconds`` seconds of one workload (see ``workloads.py``), checks
every output, and prints its metrics; the last line is one JSON object::

    python3 perfbench/run.py --workload verify-grid --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics, scaled to a fixed machine
speed by a reference task timed in the same run.  ``--trace 1`` alternates
untraced rounds with rounds traced by ``tracer.py`` and reports the per-layer
metrics.  ``--workload all`` runs every workload in turn.  The metrics, the
workloads and the layer map are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import LAYERS, layer_metrics
from workloads import VERIFY_CHECKS, WORKLOADS, Outcome

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: What the installed ``secondlook`` console script runs.
LAUNCH = "import sys; from secondlook.cli import main; sys.exit(main())"
#: A fixed task that uses no secondlook code: interpreter start, numpy import
#: and a pure-Python loop.  The host this benchmark was written on changes
#: speed by up to 2x within minutes, and this task slows with it, so timings
#: are scaled by REFERENCE_S / (its median wall time in the same run).
REFERENCE = "import numpy\ns = 0\nfor i in range(1_500_000):\n    s += i * i\n"
#: Timings are reported at the machine speed at which the reference task takes this long.
REFERENCE_S = 0.3
PROBES = 3  # set-up and reference probes before the first round; one more of each per round
MIN_ROUNDS = 2
INVOCATION_TIMEOUT_S = 150.0
GUARD_TIMEOUT_S = 170.0
GUARD_EXPECTED = {**dict.fromkeys(VERIFY_CHECKS, 0), "mirrored_no_divergence": 1070}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    names = [f"{layer}.{kind}" for layer in LAYERS for kind in ("calls", "self_s")]
    names += ["model.check_probability_calls", "incentives.wtp_unique_ratio",
              "patterns.realized_unique_ratio"]
    names += [f"oracle.grid_s.{check}" for check in VERIFY_CHECKS]
    names += ["oracle.pairs_evaluated_ratio", "oracle.mc_s", "config.render_s",
              "config.render_bytes", "cli.compute_s", "trace.overhead_s"]

    def unit(name):
        if name.endswith("calls"):
            return "count"
        if name.endswith("ratio"):
            return "ratio"
        if name.endswith("bytes"):
            return "bytes"
        return "s"

    return {name: unit(name) for name in names}


class Runner:
    """Spawns CLI invocations, times them and counts failures for one benchmark run."""

    def __init__(self, work: Path):
        self.work = work
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.attempted = 0
        self.failures: list[str] = []
        self.problems: list[str] = []
        self.memo: dict = {}
        self._trace_report = work / "trace.json"

    def invoke(self, args, traced=False, command=None) -> tuple[Outcome, dict | None]:
        """Run one process and wait for it: the CLI with ``args``, or ``command``."""
        if traced:
            self._trace_report.unlink(missing_ok=True)
            command = [sys.executable, str(BENCH_DIR / "tracer.py"),
                       str(self._trace_report), "--", *args]
        elif command is None:
            command = [sys.executable, "-c", LAUNCH, *args]
        with open(self.work / "stdout", "w+b") as out, open(self.work / "stderr", "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(command, stdout=out, stderr=err, env=self.env, cwd=self.work)
            timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
            out.seek(0)
            err.seek(0)
            outcome = Outcome(tuple(args), proc.returncode, wall, usage.ru_maxrss / 1024.0,
                              out.read().decode("utf-8", "replace"),
                              err.read().decode("utf-8", "replace"))
        report = None
        if traced and outcome.code == 0:
            report = json.loads(self._trace_report.read_text(encoding="utf-8"))
        return outcome, report

    def record(self, outcome: Outcome, failure: str | None) -> None:
        self.attempted += 1
        if failure:
            self.failures.append(f"{' '.join(outcome.args)}: {failure}")

    def setup_probe(self) -> float:
        outcome, _ = self.invoke(["--version"])
        ok = outcome.code == 0 and outcome.stdout.startswith("secondlook ")
        self.record(outcome, None if ok else f"exit {outcome.code}, {outcome.stdout!r}")
        return outcome.wall_s

    def reference_probe(self) -> float:
        outcome, _ = self.invoke(["<reference>"], command=[sys.executable, "-c", REFERENCE])
        if outcome.code != 0:
            self.problems.append(f"reference task exited {outcome.code}: {outcome.stderr[-300:]}")
        return outcome.wall_s

    def run_round(self, round_, traced=False):
        outcomes, reports = [], []
        for call in round_.calls:
            outcome, report = self.invoke(call.args, traced)
            failure = call.check(outcome, self.memo)
            if traced and report is None and not failure:
                failure = "no trace report"
            self.record(outcome, failure)
            outcomes.append(outcome)
            if report is not None:
                reports.append(report)
        return outcomes, reports


def _rounds(runner: Runner, round_, deadline: float, traced: bool, before_round=None):
    """Alternate untraced (and, if traced, traced) rounds until the deadline."""
    plain, tracing = [], []
    while True:
        if before_round is not None:
            before_round()
        plain.append(runner.run_round(round_))
        if traced:
            tracing.append(runner.run_round(round_, traced=True))
        if len(plain) >= (1 if traced else MIN_ROUNDS) and time.perf_counter() >= deadline:
            return plain, tracing


def measure(workload, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """One benchmark run of one workload; returns metrics and failure counts."""
    runner = Runner(WORK)
    round_ = workload.round(size, seed, WORK)
    runner.setup_probe()  # warm-up: bytecode caches, page cache
    deadline = time.perf_counter() + seconds
    items = sum(call.items for call in round_.calls)
    details = {"invocations_per_round": len(round_.calls), "items_per_round": items}
    if not trace:
        # Probes run between rounds, so they see the same machine load as the rounds.
        setup_walls, reference_walls = [], []

        def probe():
            setup_walls.append(runner.setup_probe())
            reference_walls.append(runner.reference_probe())

        for _ in range(PROBES):
            probe()
        plain, _ = _rounds(runner, round_, deadline, traced=False, before_round=probe)
        setup = statistics.median(setup_walls)
        walls = [o.wall_s for outcomes, _ in plain for o in outcomes]
        # Compute time of a round: wall minus set-up of the invocations that do items.
        compute = [sum(o.wall_s - setup for o, call in zip(outcomes, round_.calls) if call.items)
                   for outcomes, _ in plain]
        items_per_s = statistics.median(items / c for c in compute)
        speed = REFERENCE_S / statistics.median(reference_walls)
        metrics = {
            "wall_s": statistics.median(walls) * speed,
            "setup_s": setup * speed,
            "items_per_s": items_per_s / speed,
            "peak_rss_mb": max(o.rss_mb for outcomes, _ in plain for o in outcomes),
        }
        units = END_TO_END
        details.update(rounds=len(plain), invocations=len(walls), probes=len(setup_walls),
                       speed_scale=speed, raw_wall_quartiles_s=_quartiles(walls),
                       raw_setup_s=setup, raw_items_per_s=items_per_s,
                       reference_quartiles_s=_quartiles(reference_walls))
    else:
        plain, tracing = _rounds(runner, round_, deadline, traced=True)
        per_round = [layer_metrics(reports, VERIFY_CHECKS) for _, reports in tracing
                     if len(reports) == len(round_.calls)]
        metrics = {key: statistics.median(m[key] for m in per_round)
                   for key in per_round[0]} if per_round else {}
        round_wall = lambda rounds: statistics.median(
            sum(o.wall_s for o in outcomes) for outcomes, _ in rounds)
        metrics["trace.overhead_s"] = round_wall(tracing) - round_wall(plain)
        units = per_layer_units()
        details.update(rounds=len(tracing), traced_rounds_complete=len(per_round))
    missing = [name for name in units if name not in metrics]
    problems = runner.problems + ([f"metrics not measured: {missing}"] if missing else [])
    details["within_3se_misses"] = runner.memo.get("within_3se_misses", 0)
    return {
        "workload": workload.name,
        "attempted": runner.attempted,
        "failures": runner.failures,
        "problems": problems,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
        "details": details,
    }


def _quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "secondlook").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    digest.update((BENCH_DIR / "guard.py").read_bytes())
    return digest.hexdigest()


def run_guard(source_sha256: str) -> tuple[bool, str]:
    """Known-red guard, once per source tree: cached under the work directory."""
    cache = WORK / f"guard-{source_sha256[:16]}.json"
    if cache.is_file():
        counts = json.loads(cache.read_text(encoding="utf-8"))
    else:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "guard.py")], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)}, cwd=WORK, timeout=GUARD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            return False, f"guard exited {proc.returncode}: {proc.stderr.strip()[-300:]}"
        counts = json.loads(proc.stdout)
        cache.write_text(json.dumps(counts), encoding="utf-8")
    if counts != GUARD_EXPECTED:
        return False, f"guard counts {counts} != expected {GUARD_EXPECTED}"
    return True, f"guard ok: {counts}"


def git_commit() -> str | None:
    """HEAD of the checkout if it is a git work tree, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args, source_sha256: str) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), None)
    except OSError:
        pass
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    return {
        "cpu": cpu or platform.processor() or platform.machine(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "git_commit": git_commit(),
        "source_sha256": source_sha256,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": {name: WORKLOADS[name].sizes["full"] for name in names},
    }


def _print_result(result: dict) -> None:
    print(f"workload {result['workload']}: {result['details']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:36s} {metric['value']:.6g} {metric['unit']}")
    failed = len(result["failures"])
    print(f"  {'error_rate':36s} {failed / result['attempted']:.6g} "
          f"({failed} failed of {result['attempted']} invocations)")
    for failure in result["failures"][:10] + result["problems"]:
        print(f"  FAILED {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "secondlook" / "cli.py").is_file():
        print(f"error: no secondlook sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    source_sha256 = source_digest()
    env = environment(args, source_sha256)
    guard_ok, guard_note = run_guard(source_sha256)
    print(guard_note)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        _print_result(result)
        results.append(result)
    print("env " + json.dumps(env))
    failed = sum(len(r["failures"]) for r in results)
    problems = sum(len(r["problems"]) for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": metric
                   for r in results for name, metric in r["metrics"].items()}
    print(json.dumps({
        "correct": guard_ok and failed == 0 and problems == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
