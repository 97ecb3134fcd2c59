"""The votedim benchmark: workloads run through the CLI, outputs checked.

    python3 perfbench/run.py --workload fence-noUK --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  Every command is a fresh
`python3 -m votedim.cli ... --threads 1` subprocess with ``src`` on
PYTHONPATH, so nothing is installed.  A run repeats the workload's
command sequence (a *round*) until ``--seconds`` have passed, always
finishing at least one round and never starting one that the previous
round's time says would overrun.  Each command's output is checked by
``check.py``, which does not use votedim.

``--trace 0`` prints the end-to-end metrics: medians over rounds, plus the
median set-up time of ``SETUP_REPEATS`` bare start-ups.  ``--trace 1``
makes each round one untraced pass and one pass under ``traced.py``, and
prints the per-layer metrics of the traced pass, the untraced command
times and the tracing overhead.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  A command fails on a wrong exit code or on
output the checker rejects; ``failed / attempted`` is the failure rate.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import check
import certgen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
NO_UK = ("--data", "builtin:2018", "--exclude", "United Kingdom")
CERT_8 = "src/votedim/certs/eu2018_noUK_8.txt"
SETUP_REPEATS = 5
# A run must end within 180 s; a command still running at this point of
# the run is killed and counted as failed.
RUN_LIMIT_S = 170
STEP_METRICS = ("analyze_s", "verify_s", "lb_verify_s", "lb_search_s")

END_TO_END = {
    "setup_s": "s",
    "total_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "calls": "count",
    "s": "s",
    "bytes": "B",
    "items": "count",
    "masks": "count",
}
PER_LAYER = {
    "sweep.win_table": ("calls", "s", "bytes"),
    "sweep.pattern": ("calls", "s"),
    "sweep.full_table": ("calls", "s"),
    "sweep.closure": ("calls", "s"),
    "sweep.expr_table": ("s",),
    "sweep.maximal": ("s", "items"),
    "sweep.table_members": ("s", "items"),
    "sweep.players_in_all": ("s",),
    "sweep.min_member_weight": ("s",),
    "sweep.equivalent": ("s",),
    "sweep.evaluate_many": ("calls", "s", "masks"),
    "decompose.gap_summary": ("s",),
    "decompose.union_as_intersection": ("s",),
    "lowerbound.find_certificate": ("calls", "s"),
    "data.build_eu_rule": ("s",),
}
# Spans whose time is reported inclusive of their children.
INCLUSIVE = {
    "decompose.gap_summary",
    "decompose.union_as_intersection",
    "lowerbound.find_certificate",
}


@dataclass(frozen=True)
class Step:
    """One CLI command of a round and the check of its output."""

    metric: str
    argv: tuple[str, ...]
    checker: Callable[[bytes, int], None]


@dataclass
class Result:
    wall_s: float
    cpu_s: float
    rss_mb: float
    error: str | None


def _env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_process(
    argv: list[str], out_path: Path, timeout: float = RUN_LIMIT_S
) -> tuple[int, bytes, float, float, float]:
    """Run argv to completion; return exit code, stdout, wall, cpu and peak RSS.

    Output goes to a file, not a pipe, so the child is reaped with
    ``os.wait4`` for its own resource usage.  After ``timeout`` seconds
    the child is killed.
    """
    with open(out_path, "wb") as out, open(out_path.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=_env(), cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, out_path.read_bytes(), wall, cpu, usage.ru_maxrss / 1024


def run_step(step: Step, out_path: Path, timeout: float, spans_path: Path | None = None) -> Result:
    if spans_path is None:
        argv = [sys.executable, "-m", "votedim.cli", *step.argv, "--threads", "1"]
    else:
        argv = [sys.executable, str(HERE / "traced.py"), str(spans_path), "--", *step.argv, "--threads", "1"]
    code, stdout, wall, cpu, rss = run_process(argv, out_path, timeout)
    try:
        step.checker(stdout, code)
        error = None
    except (ValueError, KeyError, TypeError) as e:
        error = f"{' '.join(step.argv[:2])}: {e}"
    return Result(wall, cpu, rss, error)


# --- workloads ----------------------------------------------------------------


def _exit_code(want: int, check_output: Callable[[bytes], None]) -> Callable[[bytes, int], None]:
    def checked(stdout: bytes, code: int) -> None:
        if code != want:
            raise ValueError(f"exit code {code}, expected {want}")
        check_output(stdout)

    return checked


def _cert_check(rule: check.Rule, expected=None, bound=None):
    def checked(stdout: bytes, code: int) -> None:
        report = check.parse_cert_report(rule, stdout.decode())
        check.check_cert_report(rule, report, code, expected)
        if bound is not None and report.lower_bound != bound:
            raise ValueError(f"lower bound {report.lower_bound}, expected {bound}")

    return checked


def _search_check(rule: check.Rule):
    def checked(stdout: bytes, code: int) -> None:
        report = check.parse_cert_report(rule, stdout.decode())
        check.check_cert_report(rule, report, code)
        if report.lower_bound is None or report.lower_bound < 2:
            raise ValueError(f"search certified {report.lower_bound}, expected at least 2")

    return checked


def steps_for(workload: str, seed: int, work: Path) -> list[Step]:
    """The command sequence of one round; certify writes its inputs here."""
    no_uk = check.load_rule(ROOT, "2018", ("United Kingdom",))
    if workload == "boost-2014":
        want = dict(bound=24, gap_count=10, core_size=22, frontier_count=1, alternate_bound=None)
        return [
            Step(
                "analyze_s",
                ("analyze", "--data", "builtin:2014", "--json"),
                _exit_code(0, lambda out: check.check_analyze(out, "builtin:2014", want)),
            )
        ]
    if workload == "fence-noUK":
        want = dict(bound=1364, gap_count=20, core_size=12, frontier_count=1351, alternate_bound=2)
        return [
            Step(
                "analyze_s",
                ("analyze", *NO_UK, "--json"),
                _exit_code(0, lambda out: check.check_analyze(out, "builtin:2018-noUK", want)),
            ),
            Step(
                "verify_s",
                ("verify", *NO_UK),
                _exit_code(0, lambda out: check.check_verify(out, 1364, no_uk.n)),
            ),
            Step(
                "lb_verify_s",
                ("lower-bound", "verify", *NO_UK, "--coalitions", CERT_8),
                _cert_check(no_uk, bound=8),
            ),
            Step(
                "lb_search_s",
                ("lower-bound", "search", *NO_UK, "--budget", "32", "--seed", str(seed)),
                _search_check(no_uk),
            ),
        ]
    if workload == "certify":
        steps = []
        for path, coalitions in certgen.generate(no_uk, seed, work / "inputs"):
            k = len(coalitions)
            expected = {
                (i, j): bool(check.pair_certifiable(no_uk, coalitions[i], coalitions[j]))
                for i in range(k)
                for j in range(i + 1, k)
            }
            steps.append(
                Step(
                    "lb_verify_s",
                    ("lower-bound", "verify", *NO_UK, "--coalitions", str(path.relative_to(ROOT))),
                    _cert_check(no_uk, expected),
                )
            )
        return steps
    raise KeyError(workload)


WORKLOADS = ("boost-2014", "fence-noUK", "certify")
SETUP_RULE = {
    "boost-2014": ("2014", ()),
    "fence-noUK": ("2018", ("United Kingdom",)),
    "certify": ("2018", ("United Kingdom",)),
}


# --- measurement ----------------------------------------------------------------


def machine_record() -> dict:
    """What a result depends on besides the code: commit, cores, versions, memory."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown (not a git checkout)"
    with open("/proc/meminfo", encoding="ascii") as f:
        mem_kb = next(int(line.split()[1]) for line in f if line.startswith("MemTotal:"))
    return {
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": check.np.__version__,
        "mem_total_mb": mem_kb // 1024,
        "machine": platform.machine(),
    }


def setup_seconds(workload: str, work: Path) -> float:
    """Median wall time of a bare start-up: interpreter, import, rule build."""
    year, exclude = SETUP_RULE[workload]
    code = (
        "import votedim.cli\n"
        "from votedim import data\n"
        f"data.build_eu_rule(data.builtin_table({year!r}), exclude={exclude!r})\n"
    )
    times = []
    for _ in range(SETUP_REPEATS):
        rc, _, wall, _, _ = run_process([sys.executable, "-c", code], work / "setup.out")
        if rc != 0:
            raise RuntimeError(f"set-up probe exited {rc}: {(work / 'setup.err').read_text()}")
        times.append(wall)
    return statistics.median(times)


def layer_metrics(span_files: list[Path]) -> dict[str, float]:
    """Per-layer calls, self (or inclusive) seconds and counters, summed."""
    calls: dict[str, int] = defaultdict(int)
    seconds: dict[str, float] = defaultdict(float)
    extra: dict[str, float] = defaultdict(float)
    decomposition = None
    import_s = cli_self = 0.0
    for path in span_files:
        record = json.loads(path.read_text())
        spans = record["spans"]
        import_s += record["import_s"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
        for (name, start, end, _, counts), inner in zip(spans, child_time):
            if name == "cli":
                cli_self += end - start - inner
                continue
            calls[name] += 1
            seconds[name] += (end - start) if name in INCLUSIVE else (end - start - inner)
            for key, value in counts.items():
                extra[f"{name}.{key}"] += value
            if name == "decompose.union_as_intersection" and decomposition is None:
                decomposition = counts
    metrics: dict[str, float] = {}
    for name, fields in PER_LAYER.items():
        for field in fields:
            key = f"{name}.{field}"
            metrics[key] = {"calls": calls[name], "s": seconds[name]}.get(field, extra[key])
    for key in ("gap_count", "core_size", "frontier_count"):
        metrics[f"decompose.{key}"] = (decomposition or {}).get(key, 0)
    found = extra["lowerbound.find_certificate.splits"]
    attempted = calls["lowerbound.find_certificate"]
    metrics["lowerbound.splits"] = found
    metrics["lowerbound.splits_per_s"] = found / seconds["lowerbound.find_certificate"] if attempted else 0.0
    metrics["lowerbound.certified_ratio"] = (
        extra["lowerbound.find_certificate.certified"] / attempted if attempted else 0.0
    )
    metrics["cli.import_s"] = import_s
    metrics["cli.self_s"] = cli_self
    return metrics


def layer_units() -> dict[str, str]:
    units = {f"{n}.{f}": LAYER_UNITS[f] for n, fs in PER_LAYER.items() for f in fs}
    units.update(
        {
            "decompose.gap_count": "count",
            "decompose.core_size": "count",
            "decompose.frontier_count": "count",
            "lowerbound.splits": "count",
            "lowerbound.splits_per_s": "1/s",
            "lowerbound.certified_ratio": "ratio",
            "cli.import_s": "s",
            "cli.self_s": "s",
            "trace.overhead": "ratio",
        }
    )
    units.update({m: "s" for m in STEP_METRICS})
    return units


class Run:
    def __init__(self, steps: list[Step], work: Path, limit: float) -> None:
        self.steps = steps
        self.work = work
        self.limit = limit
        self.attempted = 0
        self.errors: list[str] = []
        self.peak_rss = 0.0

    def round(self, index: int, traced: bool) -> tuple[dict[str, float], float, float, list[Path]]:
        """Run every step once; return per-metric wall, total wall, cpu, span files."""
        walls: dict[str, float] = defaultdict(float)
        cpu = 0.0
        span_files = []
        tag = "traced" if traced else "plain"
        for k, step in enumerate(self.steps):
            out = self.work / f"r{index}-{tag}-{k}.out"
            spans = self.work / f"r{index}-{k}.spans.json" if traced else None
            result = run_step(step, out, max(1.0, self.limit - time.perf_counter()), spans)
            self.attempted += 1
            if result.error is not None:
                self.errors.append(result.error)
            walls[step.metric] += result.wall_s
            cpu += result.cpu_s
            self.peak_rss = max(self.peak_rss, result.rss_mb)
            if spans is not None and spans.exists():
                span_files.append(spans)
        return walls, sum(walls.values()), cpu, span_files


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    limit = time.perf_counter() + RUN_LIMIT_S
    steps = steps_for(workload, seed, work)
    run = Run(steps, work, limit)
    setup = None if trace else setup_seconds(workload, work)
    deadline = time.perf_counter() + seconds
    plain, traced, layers, rounds = [], [], [], 0
    while True:
        started = time.perf_counter()
        plain.append(run.round(rounds, traced=False))
        if trace:
            traced.append(run.round(rounds, traced=True))
            layers.append(layer_metrics(traced[-1][3]))
        rounds += 1
        if time.perf_counter() + (time.perf_counter() - started) > deadline:
            break

    med = statistics.median
    print(f"machine: {json.dumps(machine_record())}")
    print(f"{workload} seed {seed}: {rounds} round(s), {len(steps)} command(s) each")
    if trace:
        metrics = {k: med([layer[k] for layer in layers]) for k in layers[0]}
        metrics["trace.overhead"] = med([t[1] / p[1] for p, t in zip(plain, traced)])
        units = layer_units()
    else:
        metrics = {
            "setup_s": setup,
            "total_s": med([p[1] for p in plain]),
            "cpu_s": med([p[2] for p in plain]),
            "peak_rss_mb": run.peak_rss,
        }
        units = END_TO_END
    for name in STEP_METRICS:
        value = med([p[0].get(name, 0.0) for p in plain])
        if trace:
            metrics[name] = value
        elif value:
            print(f"  {name:<12} {value:10.3f} s  (untraced, median of {rounds})")
    for error in run.errors:
        print(f"  FAILED {error}")
    for name, value in metrics.items():
        print(f"  {name:<36} {value:14.6g} {units[name]}")
    return {
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": len(run.errors),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="votedim benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "votedim" / "cli.py").is_file():
        print(f"no votedim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
