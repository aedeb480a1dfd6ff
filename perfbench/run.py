#!/usr/bin/env python3
"""Benchmark of the `grassmap` command line, one fresh process per invocation.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cell-363 --seed 1 --seconds 36 --trace 0

Every invocation starts a fresh interpreter, because a user pays the program's
in-process caches (`enumerate_fixed_graphs`, `qbinomial`, the closed-form
results, the interned weights) on every call; a second call inside one process
would time dict lookups.  Invocations run one at a time from this process,
which starts no threads: a closed loop with one client and the default
`--jobs 1`.

`--trace 0` prints the end-to-end metrics.  `--trace 1` alternates traced
invocations (see traced.py) with untraced ones and prints the per-layer
metrics.  Every output is checked, in both modes; the last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.
See definition.json for what each metric means and why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# The console script `grassmap` runs exactly this.
ENTRY = "import sys; from grassmap.cli import main; sys.exit(main())"
SETUP_PROBE = "import time, grassmap.cli; print(repr(time.monotonic()))"

SETUP_PER_SET = 3   # set-up probes shuffled into every untraced set
MIN_SETS = {0: 3, 1: 2}
HARD_LIMIT_S = 150  # the whole run must end within 180 s

SWEEP = ["--method", "closed", "--format", "json"]


@dataclass(frozen=True)
class Workload:
    args: dict[str, list[str]]  # size -> grassmap arguments
    warm_passes: int  # betti passes against the cache the cold pass filled; 0: no cache


WORKLOADS = {
    "cell-363": Workload(
        args={
            "full": ["betti", "-k", "3", "-n", "6", "-d", "3", "--method", "both", "--format", "json"],
            "small": ["betti", "-k", "2", "-n", "4", "-d", "3", "--method", "both", "--format", "json"],
        },
        warm_passes=5,  # each costs under 2% of the cold pass; more samples steady warm_s
    ),
    "verify-small": Workload(
        args={
            "full": ["verify", "--suite", "all", "--max-n", "4"],
            "small": ["verify", "--suite", "all", "--max-n", "3"],
        },
        warm_passes=0,
    ),
    "closed-sweep": Workload(
        args={
            "full": ["betti", *SWEEP, "--k-range", "1..27", "--n-range", "2..28", "--d-range", "1..3"],
            "small": ["betti", *SWEEP, "--k-range", "1..4", "--n-range", "2..5", "--d-range", "1..3"],
        },
        warm_passes=1,
    ),
}


def child_env() -> dict[str, str]:
    """The caller's environment with the interpreter's defaults restored: the
    bytecode cache is written, as an installed package has it, and stdout is
    buffered.  The program comes from this checkout and no result cache is
    inherited."""
    drop = {"GRASSMAP_CACHE", "PYTHONPATH", "PYTHONDONTWRITEBYTECODE", "PYTHONUNBUFFERED"}
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise Timeout


@dataclass
class Call:
    code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    started: float  # time.monotonic() just before the spawn


@dataclass
class Run:
    """Child processes of one benchmark run, with their failures."""

    workdir: Path
    deadline: float
    env: dict[str, str] = field(default_factory=child_env)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)  # one per failed invocation
    maxrss_kb: int = 0

    def spawn(self, argv: list[str]) -> Call:
        """Run one child to completion; time it and take its own rusage."""
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        budget = self.deadline - time.monotonic()
        if budget <= 0:
            raise Timeout
        self.attempted += 1
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            started = time.monotonic()
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=self.env)
            signal.setitimer(signal.ITIMER_REAL, budget)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # Timeout, or this run being stopped: stop the child too
                proc.kill()
                proc.wait()
                raise
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.maxrss_kb = max(self.maxrss_kb, usage.ru_maxrss)
        return Call(proc.returncode, out_path.read_bytes(), err_path.read_bytes(),
                    wall, started)

    def grassmap(self, args: list[str], trace: Path | None = None, trace_id: str = "") -> Call:
        if trace is None:
            return self.spawn([sys.executable, "-c", ENTRY, *args])
        return self.spawn([sys.executable, str(HERE / "traced.py"), trace_id, str(trace), "--", *args])


# -- output checks ----------------------------------------------------------------


def census_total(k: int, n: int, d: int) -> int:
    """Number of fixed trees, from its closed form (independent of the program)."""
    b, m = math.comb(n, k), k * (n - k)
    total = b * m // 2
    if d == 2:
        total += b * math.comb(m + 1, 2)
    elif d == 3:
        total += b * m * m + b * math.comb(m + 2, 3) + b * m**3 // 2
    return total


def expected_cells(args: list[str]) -> list[tuple[int, int, int, str]]:
    """(k, n, d, method) of every payload a `betti` command must print, in order."""
    opts = dict(zip(args[1::2], args[2::2]))
    axes = []
    for name in "knd":
        if f"-{name}" in opts:
            axes.append([int(opts[f"-{name}"])])
        else:
            lo, hi = opts[f"--{name}-range"].split("..")
            axes.append(range(int(lo), int(hi) + 1))
    methods = {"loc": ["localization"], "closed": ["closedform"],
               "both": ["localization", "closedform"]}[opts["--method"]]
    return [(k, n, d, m) for k in axes[0] for n in axes[1] for d in axes[2]
            if 1 <= k < n for m in methods]


def payload_problems(payload: dict) -> list[str]:
    k, n, d = payload["k"], payload["n"], payload["d"]
    betti, dim = payload["betti"], payload["dim"]
    where = f"({k},{n},{d}) {payload['method']}"
    problems = []
    if dim != k * (n - k) + d * n - 3 or len(betti) != dim + 1:
        problems.append(f"{where}: dim {dim}, {len(betti)} Betti numbers")
    if betti != betti[::-1]:
        problems.append(f"{where}: not palindromic")
    if not betti or betti[0] != 1 or betti[-1] != 1:
        problems.append(f"{where}: ends are not 1")
    if sum(betti) != census_total(k, n, d):
        problems.append(f"{where}: P(1) = {sum(betti)} != census {census_total(k, n, d)}")
    coeffs = {int(e): int(c) for e, c in payload["poincare"]["coeffs"]}
    if coeffs != {i: b for i, b in enumerate(betti) if b}:
        problems.append(f"{where}: poincare does not match betti")
    return problems


def betti_problems(args: list[str], stdout: bytes) -> list[str]:
    doc = json.loads(stdout)
    payloads = doc if isinstance(doc, list) else [doc]
    got = [(p["k"], p["n"], p["d"], p["method"]) for p in payloads]
    if got != expected_cells(args):
        return [f"printed {len(got)} payloads, not the {len(expected_cells(args))} expected"]
    problems = [msg for p in payloads for msg in payload_problems(p)]
    by_cell: dict[tuple[int, int, int], list[int]] = {}
    for p in payloads:
        cell = (p["k"], p["n"], p["d"])
        if by_cell.setdefault(cell, p["betti"]) != p["betti"]:
            problems.append(f"{cell}: the two routes disagree")
    for (k, n, d), betti in by_cell.items():
        dual = by_cell.get((n - k, n, d))
        if dual is not None and dual != betti:
            problems.append(f"({k},{n},{d}): differs from its k <-> n-k dual")
    return problems


def problems_of(args: list[str], call: Call, golden: str) -> list[str]:
    """Why the call is not a correct run of `args`: exit code, digest, invariants."""
    problems = []
    if call.code != 0:
        problems.append(f"exit code {call.code}: {call.stderr[-300:].decode(errors='replace')}")
    digest = hashlib.sha256(call.stdout).hexdigest()
    if digest != golden:
        problems.append(f"stdout sha256 {digest} != recorded {golden}")
    if not problems:
        if args[0] == "betti":
            problems = betti_problems(args, call.stdout)
        elif call.stdout.decode().splitlines()[-1:] != ["all checks passed"]:
            problems.append("last line is not 'all checks passed'")
    return problems


# -- cache accounting from outside the program -------------------------------------


def snapshot(directory: Path) -> dict[str, tuple[int, int]]:
    if not directory.is_dir():
        return {}
    return {e.name: (e.stat().st_size, e.stat().st_mtime_ns) for e in os.scandir(directory)}


def cache_counts(before: dict, after: dict, lookups: int) -> dict[str, float]:
    """Every result file written or rewritten by a pass was a miss."""
    written = [name for name, meta in after.items() if before.get(name) != meta]
    misses = len(written)
    return {
        "lookups": lookups,
        "hits": lookups - misses,
        "misses": misses,
        "hit_ratio": (lookups - misses) / lookups if lookups else 0.0,
        "bytes_written": sum(after[name][0] for name in written),
    }


# -- one set of invocations --------------------------------------------------------


@dataclass
class Pass:
    call: Call
    ok: bool
    cache: dict[str, float]
    spans: Path | None


def run_pass(run: Run, name: str, args: list[str], golden: str, what: str,
             cache_dir: Path | None, trace: Path | None, trace_id: str,
             cold_stdout: bytes | None = None) -> Pass:
    """One invocation; a warm pass passes the cold pass's stdout to compare."""
    full = args + ["--cache-dir", str(cache_dir)] if cache_dir else args
    before = snapshot(cache_dir) if cache_dir else {}
    call = run.grassmap(full, trace, trace_id)
    lookups = len(expected_cells(args)) if cache_dir else 0
    counts = cache_counts(before, snapshot(cache_dir) if cache_dir else {}, lookups)
    problems = problems_of(args, call, golden)
    if cold_stdout is not None and call.stdout != cold_stdout:
        problems.append("stdout differs from the cold pass")
    if cache_dir and counts["hit_ratio"] != (1.0 if what == "warm" else 0.0):
        problems.append(f"cache hit ratio {counts['hit_ratio']} on the {what} pass")
    if problems:
        run.failures.append(f"{name} {what}: " + "; ".join(problems[:3]))
    return Pass(call, not problems, counts, trace)


def run_workload(run: Run, name: str, args: list[str], golden: str, warm_passes: int,
                 traced: bool, trace_id: str) -> tuple[Pass, list[Pass]]:
    """The cold pass, then the warm passes against the cache it filled."""
    spans = (run.workdir / f"{trace_id}-cold.json") if traced else None
    if not warm_passes:
        return run_pass(run, name, args, golden, "cold", None, spans, trace_id), []
    cache_dir = Path(tempfile.mkdtemp(dir=run.workdir, prefix="cache-"))
    try:
        cold = run_pass(run, name, args, golden, "cold", cache_dir, spans, trace_id)
        warm_spans = (run.workdir / f"{trace_id}-warm.json") if traced else None
        warms = [run_pass(run, name, args, golden, "warm", cache_dir, warm_spans,
                          trace_id + "-warm", cold_stdout=cold.call.stdout)
                 for _ in range(warm_passes)]
        return cold, warms
    finally:
        shutil.rmtree(cache_dir)


def setup_probe(run: Run) -> float | None:
    call = run.spawn([sys.executable, "-c", SETUP_PROBE])
    try:
        return float(call.stdout) - call.started
    except ValueError:
        run.failures.append(f"set-up probe: exit code {call.code}, stdout {call.stdout[:80]!r}")
        return None


# -- span analysis -----------------------------------------------------------------


def span_metrics(path: Path) -> dict[str, float]:
    """Per span name: calls, total_s, self_s; plus the enumeration sizes."""
    doc = json.loads(path.read_text())
    names = doc["names"]
    spans = {sid: (parent, names[idx], start, end) for sid, parent, idx, start, end in doc["spans"]}
    children: dict[int, list[tuple[int, int]]] = {}
    for parent, _, start, end in spans.values():
        children.setdefault(parent, []).append((start, end))
    out: dict[str, float] = {}
    for sid, (_, name, start, end) in spans.items():
        covered, reach = 0, start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        out[f"{name}.total_s"] = out.get(f"{name}.total_s", 0.0) + (end - start) / 1e9
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + (end - start - covered) / 1e9
    # Enumeration sizes: each distinct cell once (the function is cached), and
    # the share of it reached from the localization sum.
    cells: dict[tuple, int] = {}
    loc_trees, loc_enum_ns, rss_kb = 0, 0, 0
    for sid, size in doc["sizes"].items():
        parent, _, start, end = spans[int(sid)]
        cells[tuple(size["args"])] = size["items"] or 0
        rss_kb = max(rss_kb, size["maxrss_kb"])
        while parent and spans[parent][1] != "localization.poincare_localization":
            parent = spans[parent][0]
        if parent:
            loc_trees += size["items"] or 0
            loc_enum_ns += end - start
    out["trees"] = sum(cells.values())
    out["loc_trees"] = loc_trees
    out["loc_enum_s"] = loc_enum_ns / 1e9
    out["enum_rss_mb"] = rss_kb / 1024
    return out


LAYERS = ("fixedgraphs", "weights", "localization", "qpoly", "closedform", "cli")


def layer_metrics(cold: Pass, warm: Pass | None, untraced_wall: float) -> dict[str, float]:
    s = span_metrics(cold.spans)

    def get(key: str) -> float:
        return s.get(key, 0)  # a function that no longer exists reads 0

    trees = get("trees")
    m = {
        "fixedgraphs.enumerate.calls": get("fixedgraphs.enumerate_fixed_graphs.calls"),
        "fixedgraphs.enumerate.self_s": get("fixedgraphs.enumerate_fixed_graphs.self_s"),
        "fixedgraphs.trees": trees,
        "fixedgraphs.us_per_tree": 1e6 * get("fixedgraphs.enumerate_fixed_graphs.total_s") / trees if trees else 0.0,
        "fixedgraphs.enumerate.rss_mb": get("enum_rss_mb"),
        "localization.poincare.calls": get("localization.poincare_localization.calls"),
        "localization.poincare.self_s": get("localization.poincare_localization.self_s"),
        "localization.tangent_weights.calls": get("localization.tangent_weights.calls"),
        "localization.tangent_weights.self_s": get("localization.tangent_weights.self_s"),
        "localization.us_per_tree": (
            1e6 * (get("localization.poincare_localization.total_s") - get("loc_enum_s")) / get("loc_trees")
            if get("loc_trees") else 0.0
        ),
        "localization.embedding_cross_check.calls": get("localization.embedding_cross_check.calls"),
        "localization.embedding_cross_check.self_s": get("localization.embedding_cross_check.self_s"),
    }
    for name in ("weights.sign_counts", "weights.embedding_weight_delta", "weights.embed_tree",
                 "closedform.closed_form_result", "qpoly.exact_div", "qpoly.qbinomial"):
        m[f"{name}.calls"] = get(f"{name}.calls")
        m[f"{name}.self_s"] = get(f"{name}.self_s")
    m["qpoly.to_json_dict.self_s"] = get("qpoly.to_json_dict.self_s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in s.items() if k.startswith(layer + ".") and k.endswith(".self_s"))
    m["cli.main.self_s"] = get("cli.main.self_s")
    for key, value in cold.cache.items():
        m[f"cli.cache.{key}"] = value
    m["cli.stdout_bytes"] = len(cold.call.stdout)
    ws = span_metrics(warm.spans) if warm else {}
    m["warm.cli.main.self_s"] = ws.get("cli.main.self_s", 0.0)
    m["warm.cli.self_s"] = sum(v for k, v in ws.items() if k.startswith("cli.") and k.endswith(".self_s"))
    for key in ("lookups", "hits", "misses", "hit_ratio"):
        m[f"warm.cli.cache.{key}"] = warm.cache[key] if warm else 0
    wall = cold.call.wall_s
    m["trace.wall_s"] = wall
    m["trace.spans"] = sum(v for k, v in s.items() if k.endswith(".calls"))
    m["trace.coverage_frac"] = (m["fixedgraphs.self_s"] + m["weights.self_s"] + m["localization.self_s"]) / wall
    m["trace.overhead_frac"] = wall / untraced_wall - 1
    return m


# -- the run -----------------------------------------------------------------------


def summary(values: list[float]) -> dict[str, float]:
    """Median, sample count and maximum.  No percentile above the median has ten
    samples beyond it at these counts, so the maximum stands for the tail."""
    return {"median": statistics.median(values), "n": len(values), "max": max(values)}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "small"), default="full",
                    help="small: reduced inputs, for the harness self-check")
    opts = ap.parse_args(argv)

    if not (ROOT / "src" / "grassmap" / "cli.py").is_file():
        print(f"error: no grassmap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    golden = json.loads((HERE / "golden.json").read_text())[opts.size][opts.workload]
    workload = WORKLOADS[opts.workload]
    args = workload.args[opts.size]

    rng = random.Random(opts.seed)
    t_start = time.monotonic()
    workdir = Path(tempfile.mkdtemp(dir=ROOT, prefix=".perfbench-"))
    run = Run(workdir=workdir, deadline=t_start + HARD_LIMIT_S + 20)
    signal.signal(signal.SIGALRM, _alarm)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    walls: list[float] = []
    warms: list[float] = []
    setups: list[float] = []
    layers: list[dict[str, float]] = []
    order: list[list[str]] = []
    try:
        setup_probe(run)  # untimed: compiles the bytecode once, as an installed package has it
        warm_passes = min(workload.warm_passes, 1) if opts.trace else workload.warm_passes
        sets, last = 0, 0.0
        while True:
            elapsed = time.monotonic() - t_start
            if elapsed + last > HARD_LIMIT_S and sets:
                break
            if sets >= MIN_SETS[opts.trace] and elapsed + last > opts.seconds:
                break
            t_set = time.monotonic()
            trace_id = f"{opts.workload}-{opts.seed}-{sets}"
            items = ["traced", "untraced"] if opts.trace else ["work"] + ["setup"] * SETUP_PER_SET
            rng.shuffle(items)
            order.append(items)
            results: dict[str, tuple[Pass, list[Pass]]] = {}
            for item in items:
                if item == "setup":
                    value = setup_probe(run)
                    if value is not None:
                        setups.append(value)
                else:
                    results[item] = run_workload(run, opts.workload, args, golden, warm_passes,
                                                 item == "traced", trace_id)
            if opts.trace:
                (cold, warm), (plain, _) = results["traced"], results["untraced"]
                if cold.ok and plain.ok:
                    layers.append(layer_metrics(cold, warm[0] if warm else None, plain.call.wall_s))
            else:
                cold, warm = results["work"]
                if cold.ok:
                    walls.append(cold.call.wall_s)
                    if not workload.warm_passes and sets:
                        warms.append(cold.call.wall_s)  # no cache: each later call repeats the first
                warms.extend(p.call.wall_s for p in warm if p.ok)
            sets += 1
            last = time.monotonic() - t_set
    except Timeout:
        run.failures.append("a child ran past the time limit and was killed")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if opts.trace:
        names = sorted({key for m in layers for key in m})
        metrics = {key: {"value": statistics.median(m[key] for m in layers), "unit": unit_of(key)}
                   for key in names}
        detail = {"traced_sets": len(layers)}
    else:
        metrics = {}
        detail = {}
        for key, values in (("setup_s", setups), ("wall_s", walls), ("warm_s", warms)):
            if values:
                metrics[key] = {"value": statistics.median(values), "unit": "s"}
                detail[key] = summary(values)
        metrics["peak_rss_mb"] = {"value": run.maxrss_kb / 1024, "unit": "MB"}
    detail.update({
        "workload": opts.workload, "size": opts.size, "seed": opts.seed, "order": order,
        "failed_frac": len(run.failures) / max(run.attempted, 1), "failures": run.failures[:10],
        "elapsed_s": time.monotonic() - t_start,
        "env": {"nproc": os.cpu_count(), "python": sys.version.split()[0]},
    })
    print(json.dumps({"detail": detail}))
    correct = len(run.failures) == 0 and bool(metrics) and (bool(layers) if opts.trace else bool(walls))
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": len(run.failures),
                      "metrics": metrics}))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("us_per_tree"):
        return "us"
    if name.endswith(("_frac", "_ratio")):
        return "frac"
    if name.endswith("bytes_written") or name.endswith("_bytes"):
        return "B"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
