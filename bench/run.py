"""circdist benchmark: end-to-end metrics per workload, or per-layer metrics
from a traced run.  Run from the root of a checkout:

    python3 bench/run.py --workload tower_deep --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py and BENCHMARK.json for why each exists):
tower_deep, solve_small, lattice_grid, cli_oneshot.

Every timed pass is a fresh interpreter importing circdist from src/ (the
library's lru_caches never carry over), sequential, one child at a time.  A
run makes three set-up samples, then whole passes for as long as the next
one still fits in --seconds (always at least one).

--trace 0 prints the end-to-end metrics:
  setup_s      median time from a fresh interpreter to inputs ready
  wall_s       median over passes of the pass's summed op times
  op_p50_ms    median op latency within a pass, median over the passes
  op_p90_ms    90th-percentile op latency within a pass, median over the
               passes (a pass of tower_deep has only 14 ops, cli_oneshot 10)
  peak_rss_mb  largest peak RSS of a pass process (cli_oneshot: of a CLI child)
  ok_ratio     ops whose exact check passed / ops attempted
The times cover the ops whose check passed: a failed op is counted in
failed and ok_ratio (and named in the output), not in the times, so that a
rare failure does not swamp them (a failed solve_exponent costs 5-7 s).
The four times are at reference host speed (see hostspeed.py: each is
scaled by a probe sampled, in the process doing the work, while it ran);
their values as measured are printed too and kept in the record.  fail_ratio =
failed / attempted is printed; ok_ratio stands for it among the metrics,
which must never read 0.
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics of tracing.py (self times as measured) plus trace.overhead_ratio
(traced / untraced wall_s); it also requires every op result to be
identical with tracing on and off.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Each run's full record (environment, every op) is written to
.bench_out/ in the checkout.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import workloads  # noqa: E402

SETUP_SAMPLES = 3        # set-up-only children; each pass adds one more sample
RUN_DEADLINE_S = 165.0   # no op runs later than this into the run
CHILD_TIMEOUT_S = 175.0
OUT_DIR = ".bench_out"


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["BENCH_SRC"] = src
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(root, args):
    """Run one worker to completion; return (spawn time, end time, its JSON)."""
    t0 = now()
    proc = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "worker.py"), *args],
                          cwd=root, env=child_env(root), capture_output=True,
                          timeout=CHILD_TIMEOUT_S)
    t1 = now()
    if proc.returncode != 0:
        raise RuntimeError("worker %s exited %d: %s" % (
            " ".join(args), proc.returncode, proc.stderr.decode(errors="replace")[-2000:]))
    return t0, t1, json.loads(proc.stdout.decode().rstrip("\n").rsplit("\n", 1)[-1])


def percentile(values, q):
    """q-th percentile, linear between closest ranks (the inclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def setup_time(t0, out):
    """(as measured, at reference speed) from a worker's set-up report."""
    secs = out["ready"] - t0 - out["setup_probe_s"]
    return secs, secs * out["setup_factor"]


def timed(p, col):
    """One column of a pass's op times: seconds as measured (1) or at
    reference speed (2), of the ops whose check passed (of all, if none did).
    A failed op is counted in failed and ok_ratio, not in the times."""
    ok = [r[col] for r in p["ops"] if r[3] is None]
    return ok or [r[col] for r in p["ops"]]


def pass_wall(passes, col):
    """Median over the passes of the summed op times."""
    return statistics.median(sum(timed(p, col)) for p in passes)


def per_pass(passes, q, col):
    """q-th percentile of op times within each pass, in ms, median over the
    passes."""
    return statistics.median(percentile(sorted(timed(p, col)), q) for p in passes) * 1e3


def environment(root):
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    sha = None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, timeout=10)
        if proc.returncode == 0:
            sha = proc.stdout.decode().strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    src = hashlib.sha256()
    pkg = os.path.join(root, "src", "circdist")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {"git_sha": sha, "src_sha256": src.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "numpy": version("numpy"), "mpmath": version("mpmath"),
            "loadavg_1m": os.getloadavg()[0]}


def measure(root, workload, seed, seconds, trace, tiny=False):
    """One run.  Returns (record, result line)."""
    root = os.path.abspath(root)
    base = [workload, str(seed)] + (["--tiny"] if tiny else [])
    start = now()
    deadline = start + RUN_DEADLINE_S
    env = environment(root)
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES):
            t0, _, out = spawn(root, ["setup"] + base)
            setups.append(setup_time(t0, out))
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    tag = "%s-seed%d-trace%d" % (workload, seed, trace)
    spans = os.path.join(root, OUT_DIR, "spans-%s.jsonl" % tag)
    passes, traced = [], []
    t_measure = now()
    while True:
        for traced_pass in ((False, True) if trace else (False,)):
            args = ["pass"] + base + ["--deadline", repr(deadline)]
            if traced_pass:
                args += ["--trace", "--spans", spans]
            t0, t1, out = spawn(root, args)
            out["seconds"] = t1 - t0
            (traced if traced_pass else passes).append(out)
            if not traced_pass:
                setups.append(setup_time(t0, out))
        per_round = sum(p["seconds"] for p in passes[-1:] + traced[-1:])
        if now() - t_measure + per_round > seconds or now() + per_round > deadline:
            break

    rows = [r for p in passes for r in p["ops"]]
    attempted = len(rows)
    failed = sum(1 for r in rows if r[3] is not None)
    problems = sorted({"%s: %s" % (r[0], r[3]) for r in rows if r[3] is not None})
    digests = passes[0]["digests"]
    if any(p["digests"] != digests for p in passes[1:]):
        problems.append("op results differ between untraced passes")
    if any(p["digests"] != digests for p in traced):
        problems.append("op results differ with tracing on and off")
    for p in traced:
        problems += ["traced %s: %s" % (r[0], r[3]) for r in p["ops"] if r[3] is not None]
        silent = [f for f in workloads.ENTRY_POINTS[workload]
                  if not p["trace"]["metrics"][f + ".calls"][0]]
        if silent:
            problems.append("traced pass recorded no call of %s" % ", ".join(silent))
    if trace:
        metrics = {}
        for name, (_, unit) in traced[0]["trace"]["metrics"].items():
            vals = [p["trace"]["metrics"][name][0] for p in traced]
            metrics[name] = (statistics.median(vals), unit)
        metrics["trace.overhead_ratio"] = (pass_wall(traced, 2) / pass_wall(passes, 2), "1")
    else:
        metrics = {
            "setup_s": (statistics.median(s[1] for s in setups), "s"),
            "wall_s": (pass_wall(passes, 2), "s"),
            "op_p50_ms": (per_pass(passes, 50, 2), "ms"),
            "op_p90_ms": (per_pass(passes, 90, 2), "ms"),
            "peak_rss_mb": (max(p["peak_rss_kb"] for p in passes) / 1024.0, "MB"),
            "ok_ratio": ((attempted - failed) / attempted, "1"),
        }
    env["bigint"] = passes[0]["bigint"]
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": env, "passes": len(passes), "traced_passes": len(traced),
              "ops_per_pass": len(passes[0]["ops"]), "input_notes": passes[0]["notes"],
              "measured": {"setup_s": statistics.median(s[0] for s in setups),
                           "wall_s": pass_wall(passes, 1),
                           "op_p50_ms": per_pass(passes, 50, 1),
                           "op_p90_ms": per_pass(passes, 90, 1)},
              "setup_samples": setups, "problems": problems,
              "pass_op_s": [[r[1:3] for r in p["ops"]] for p in passes],
              "fail_ratio": failed / attempted, "run_s": now() - start,
              "ops": passes[0]["ops"], "result": result}
    if traced:
        record["trace_bindings"] = traced[0]["trace"]["bindings"]
    with open(os.path.join(root, OUT_DIR, "run-%s.json" % tag), "w") as fh:
        json.dump(record, fh, indent=1)
    return record, result


def report(record):
    """Human-readable lines: environment, each metric with its unit, op
    counts, failures."""
    lines = ["environment %s" % json.dumps(record["environment"], sort_keys=True)]
    res = record["result"]
    lines.append("workload %s seed %d: %d passes, %d ops per pass, %d ops attempted, "
                 "%d failed (fail_ratio %.4f)" % (
                     record["workload"], record["seed"], record["passes"],
                     record["ops_per_pass"], res["attempted"], res["failed"],
                     record["fail_ratio"]))
    if "redrawn" in record["input_notes"]:
        lines.append("  %d exponents redrawn: beyond solve_exponent's float solve "
                     "(workloads.SOLVE_KAPPA_MAX)" % record["input_notes"]["redrawn"])
    for name, m in res["metrics"].items():
        lines.append("  %-48s %14.6g %s" % (name, m["value"], m["unit"]))
    if record["trace"] == 0:
        for name, value in record["measured"].items():
            lines.append("  %-48s %14.6g %s" % (name + " as measured", value,
                                                res["metrics"][name]["unit"]))
    for p in record["problems"][:20]:
        lines.append("  FAIL %s" % p)
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "circdist", "__init__.py")):
        print("error: run from the root of a circdist checkout (src/circdist "
              "not found in %s)" % root, file=sys.stderr)
        return 2
    record, result = measure(root, args.workload, args.seed, args.seconds, args.trace)
    for line in report(record):
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
