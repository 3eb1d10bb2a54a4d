"""One fresh interpreter of the benchmark: a set-up sample, a pass, or one
CLI command.  Started by run.py with PYTHONPATH pointing at src/.

    worker.py setup WORKLOAD SEED [--tiny]
        build the workload's inputs, print the CLOCK_MONOTONIC time at which
        they were ready, exit.
    worker.py pass WORKLOAD SEED [--tiny] [--trace] [--deadline T] [--spans FILE]
        build the inputs, run every op once, check every output, print one
        JSON line with the timings, failures and result digests.
    worker.py cli [--trace] ARGV...
        one cli_oneshot command: run circdist.cli.main(ARGV), sampling the
        host's speed (and tracing, with --trace), exit with its code; the
        samples and trace counters go to the last line of stderr.

A fresh interpreter per pass keeps the module-level lru_caches of one pass
from warming the next.
"""

import json
import os
import signal
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import hostspeed  # noqa: E402

# A cli_oneshot command is timed from its process's start, so the modules
# only the other modes need are imported inside them.

OP_CAP_S = 60.0          # per-op cap: 10x the slowest passing op


class OpTimeout(BaseException):
    """Raised by the alarm when an op runs past its cap.  A BaseException,
    so that no handler inside circdist can swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def check_source():
    """Refuse to measure an installed circdist instead of the checkout's."""
    import circdist
    src = os.environ.get("BENCH_SRC")
    if src and not os.path.abspath(circdist.__file__).startswith(src + os.sep):
        raise SystemExit("circdist was imported from %s, not from %s"
                         % (circdist.__file__, src))


def run_ops(ops, tracer=None, cap_s=OP_CAP_S, deadline=None, in_process=True):
    """Run the ops in order, each under the cap and none past the deadline
    (CLOCK_MONOTONIC), sampling the host's speed when the ops run in this
    process; then check every output.  Returns (per-op rows [label, seconds,
    seconds at reference speed, error], digests, raw outputs)."""
    import workloads
    signal.signal(signal.SIGALRM, _on_alarm)
    probe = hostspeed.HostProbe(tracer) if in_process else None
    raws = []
    if probe is not None:
        probe.start()
    for i, op in enumerate(ops):
        cap = cap_s if deadline is None else min(cap_s, deadline - now())
        if cap <= 0:
            raws.append((0.0, 0, None, None, "not started: the run's deadline passed"))
            continue
        first, excluded = 0, 0.0
        if probe is not None:
            probe.sample()
            first, excluded = len(probe.samples) - 1, probe.total
        if tracer is not None:
            tracer.op = i
        err = None
        raw = None
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, cap)
        try:
            raw = op.run()
        except OpTimeout:
            err = "ran past its %.1f s cap" % cap
        except Exception as exc:   # an op that raises is a failed op
            err = "raised %s: %s" % (type(exc).__name__, str(exc)[:200])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        secs, end = time.perf_counter() - t0, None
        if probe is not None:
            secs -= probe.total - excluded
            end = len(probe.samples)
        raws.append((secs, first, end, raw, err))
        if tracer is not None:
            tracer.op = None
    if probe is not None:
        probe.stop()
    rows, digests = [], []
    for op, (secs, first, end, raw, err) in zip(ops, raws):
        dig = None
        if err is None:
            try:
                err = op.check(raw)
                dig = workloads.digest(op.result(raw))
            except Exception as exc:   # a check that cannot run is a failure
                err = "check raised %s: %s" % (type(exc).__name__, str(exc)[:200])
        factor = 1.0
        if end is not None:
            factor = probe.factor(first, end)
        elif op.speed is not None and err is None:
            excluded, factor = op.speed(raw)
            secs -= excluded
        rows.append([op.label, secs, secs * factor, err])
        digests.append(dig)
    return rows, digests, [r[3] for r in raws]


def setup_done(probe):
    """End of set-up: the ready time, and the host-speed samples taken since
    the process started (their time is not set-up time)."""
    probe.sample()
    probe.stop()
    return {"ready": now(), "setup_probe_s": probe.total, "setup_factor": probe.factor()}


def cmd_setup(args, probe):
    import workloads
    workloads.build(args.workload, args.seed, tiny=args.tiny)
    out = setup_done(probe)
    check_source()
    print(json.dumps(out))


def cmd_pass(args, probe):
    import resource
    import statistics
    import tracing
    import workloads
    tracer = None
    import_s = 0.0
    if args.trace:
        t0, excluded = time.perf_counter(), probe.total
        import circdist.cli  # noqa: F401
        import_s = time.perf_counter() - t0 - (probe.total - excluded)
    in_process = args.workload not in workloads.CHILD_PROCESS_WORKLOADS
    if args.trace and args.spans and not in_process:
        open(args.spans, "w").close()
        os.environ["BENCH_CLI_SPANS"] = args.spans
    notes = {}
    ops = workloads.build(args.workload, args.seed, tiny=args.tiny,
                          traced=args.trace, cap_s=OP_CAP_S, notes=notes)
    out = setup_done(probe)
    check_source()
    if args.trace:
        tracer = tracing.install(tracing.Tracer())
    rows, digests, outputs = run_ops(ops, tracer, deadline=args.deadline,
                                     in_process=in_process)
    from circdist import polys
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    out.update({"ops": rows, "digests": digests, "notes": notes,
                "peak_rss_kb": resource.getrusage(who).ru_maxrss,
                "bigint": "int" if polys.mpz is int else polys.mpz.__module__})
    if args.trace:
        if in_process:
            counters = [tracer.counters()]
            if args.spans:
                with open(args.spans, "w") as fh:
                    tracer.dump(fh)
        else:
            children = [raw[2] for raw in outputs if raw is not None and raw[2]]
            if len(children) != len(ops):
                raise SystemExit("%d of %d traced CLI processes reported a trace"
                                 % (len(children), len(ops)))
            counters = [c["counters"] for c in children]
            import_s = statistics.median(c["import_s"] for c in children)
        out["trace"] = {"metrics": tracing.layer_metrics(counters, import_s),
                        "bindings": tracer.bindings}
    print(json.dumps(out))


def cmd_cli(argv, probe):
    """One CLI process: circdist.cli.main(argv), sampling the host's speed
    (and tracing, after --trace); the samples and counters go to the last
    line of stderr."""
    traced = argv[:1] == ["--trace"]
    if traced:
        argv = argv[1:]
    t0, excluded = time.perf_counter(), probe.total
    import circdist.cli
    info = {"import_s": time.perf_counter() - t0 - (probe.total - excluded)}
    tracer = None
    if traced:
        import tracing
        tracer = tracing.install(tracing.Tracer())
        probe.tracer = tracer
        tracer.op = 0
    code = circdist.cli.main(argv)
    probe.sample()
    probe.stop()
    info["probe_s"] = probe.total
    info["probe_mean"] = sum(probe.samples) / len(probe.samples)
    if traced:
        tracer.op = None
        info["counters"] = tracer.counters()
        spans = os.environ.get("BENCH_CLI_SPANS")
        if spans:
            with open(spans, "a") as fh:
                tracer.dump(fh)
    sys.stdout.flush()
    sys.stderr.write(hostspeed.CLI_MARK + json.dumps(info) + "\n")
    return code


def main(argv):
    probe = hostspeed.HostProbe()   # samples the host's speed during set-up
    probe.start()
    probe.sample()
    if argv and argv[0] == "cli":
        return cmd_cli(argv[1:], probe)
    import argparse
    import workloads
    ap = argparse.ArgumentParser(prog="worker.py")
    ap.add_argument("mode", choices=("setup", "pass"))
    ap.add_argument("workload", choices=workloads.WORKLOADS)
    ap.add_argument("seed", type=int)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--deadline", type=float, default=None)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)
    if args.mode == "setup":
        cmd_setup(args, probe)
    else:
        cmd_pass(args, probe)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
