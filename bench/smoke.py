"""The benchmark's own smoke test.  From the root of a checkout:

    python3 bench/smoke.py

It runs every workload at a tiny size, untraced and traced, and checks that:

* every op passes, and every metric named in BENCHMARK.json is printed
  with its name and unit;
* a deliberately wrong expected value (or a wrong output, for solve_small,
  whose checks need no reference) is counted as a failure;
* solve_small's redraw rule catches a solve known to fail;
* run.py exits non-zero, printing no result, outside a checkout.

Exits 0 when all hold, 1 otherwise.  Takes about a minute.
"""

import copy
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def check_metrics(name, trace, wanted, problems):
    record, result = run.measure(ROOT, name, 1, 1, trace, tiny=True)
    lines = run.report(record)
    print("\n".join(lines))
    if not result["correct"] or result["failed"]:
        problems.append("%s trace=%d: failures %s" % (name, trace, record["problems"]))
    got = result["metrics"]
    for m in wanted:
        if m["name"] not in got or got[m["name"]]["unit"] != m["unit"]:
            problems.append("%s trace=%d: metric %s missing or in the wrong unit"
                            % (name, trace, m["name"]))
        elif not any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                     for line in lines):
            problems.append("%s trace=%d: metric %s not printed with its unit"
                            % (name, trace, m["name"]))
    extra = set(got) - {m["name"] for m in wanted}
    if extra:
        problems.append("%s trace=%d: unlisted metrics %s" % (name, trace, sorted(extra)))


def wrong_reference(ref):
    """Every captured digest replaced by one that matches nothing."""
    bad = copy.deepcopy(ref)
    for key in ("formula", "tn_rows"):
        bad[key] = {k: "0" * 64 for k in bad[key]}
    bad["tower"] = {k: ["0" * 64] * len(v) for k, v in bad["tower"].items()}
    bad["cli"] = ["0" * 64] * len(bad["cli"])
    return bad


def wrong_output(op):
    """The op with its output replaced by one that differs from it."""
    from circdist import groupring

    def run_wrong():
        j = op.run()
        return j + groupring.grelt(j.level, True, {1: 1})

    return workloads.Op(op.label, run_wrong, op.result, op.check)


def check_failures_counted(problems):
    ref = workloads.load_reference()
    bad = wrong_reference(ref)
    for name in ("tower_deep", "lattice_grid", "cli_oneshot"):
        ops = workloads.build(name, 1, tiny=True, ref=bad)
        in_process = name not in workloads.CHILD_PROCESS_WORKLOADS
        rows, _, _ = worker.run_ops(ops, in_process=in_process)
        failed = sum(1 for r in rows if r[3] is not None)
        print("%s with a wrong expected value: %d of %d ops failed" % (name, failed, len(rows)))
        if not failed:
            problems.append("%s: a wrong expected value was not counted" % name)
    ops = workloads.build("solve_small", 1, tiny=True)
    first = next(i for i, op in enumerate(ops) if op.label.startswith("solve"))
    ops[first] = wrong_output(ops[first])
    rows, _, _ = worker.run_ops(ops)
    failed = sum(1 for r in rows if r[3] is not None)
    print("solve_small with a wrong output: %d of %d ops failed" % (failed, len(rows)))
    if failed != 1:
        problems.append("solve_small: a wrong output gave %d failures, not 1" % failed)


def check_redraw_rule(problems):
    """solve_small's redraw rule catches a solve known to fail, n = 96,
    r = 2 + 3 s(23) - 3 s(29), and keeps a plain one."""
    from circdist import groupring
    for r, redrawn in (({1: 2, 23: 3, 29: -3}, True), ({1: 1, 5: -1}, False)):
        r = groupring.grelt(96, True, r)
        u = r.act_on(groupring.eps_n(96), assume_tau_fixed=True)
        kappa = workloads.conditioning(96, groupring.group_reps(96, True), r, u)
        print("conditioning of n=96 r=%s: %.2f" % (r.coeffs, kappa))
        if (kappa >= workloads.SOLVE_KAPPA_MAX) != redrawn:
            problems.append("solve_small: the redraw rule misjudges n=96 r=%s" % (r.coeffs,))


def check_outside_checkout(problems):
    bare = os.path.join(ROOT, run.OUT_DIR, "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "tower_deep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    print("outside a checkout: exit %d, stderr %r" % (proc.returncode, proc.stderr[-200:]))
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("run.py did not refuse a directory without src/")


def main():
    bench = spec()
    problems = []
    for name in workloads.WORKLOADS:
        check_metrics(name, 0, bench["end_to_end"], problems)
        check_metrics(name, 1, bench["per_layer"], problems)
    check_failures_counted(problems)
    check_redraw_rule(problems)
    check_outside_checkout(problems)
    for p in problems:
        print("SMOKE FAIL", p)
    print("smoke: %s" % ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
