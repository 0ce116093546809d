"""Benchmark for the bfel simulator.

    python3 perfbench/run.py --workload fedcurv-mlp --seed 0 --seconds 25 --trace 0

Runs one workload (see BENCHMARK.json) in a closed loop for about
`--seconds` seconds after one checked warm-up operation, and with
`--trace 0` until it also holds the workload's tail sample count. With
`--trace 0` it reports the end-to-end metrics from untraced operations. With
`--trace 1` it alternates untraced and traced operations and reports the
per-layer metrics from the traced ones, plus the tracing overhead. Every
operation's outputs are checked; the last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`. Details,
the environment and (when traced) the spans go to `.perfbench-work/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from cryptography.hazmat.primitives.asymmetric.ed25519 import (  # noqa: E402
    Ed25519PrivateKey,
)

from perfbench import environment  # noqa: E402  (imports no numpy)

# A slow program extends a run to its tail sample count up to this many
# seconds, so that a run still ends well within three minutes.
LIMIT_S = 120.0

# The host's speed changes from minute to minute (see end_to_end), so the
# end-to-end timings are scaled by the speed of a fixed kernel timed between
# the operations: they read as on a host where the kernel takes REFERENCE_S,
# its time in the fast state of a 2-vCPU Xeon VM at 2.1 GHz.
REFERENCE_S = 0.0015
HOST_KEY = Ed25519PrivateKey.from_private_bytes(bytes(range(32)))


def host_kernel_s():
    """Time of a fixed Ed25519 and SHA-256 kernel that uses neither bfel
    nor numpy, so the program cannot change it."""
    public, message = HOST_KEY.public_key(), bytes(64)
    t0 = time.perf_counter()
    for _ in range(10):
        signature = HOST_KEY.sign(message)
        public.verify(signature, message)
        hashlib.sha256(signature * 20).digest()
    return time.perf_counter() - t0


def tail(samples, count):
    """(value, percentile, samples beyond): the percentile that has 10
    samples beyond it when there are `count` samples, by nearest rank."""
    xs = sorted(samples)
    k = max(0, -(-len(xs) * (count - 10) // count) - 1)
    return xs[k], 100.0 * (count - 10) / count, len(xs) - 1 - k


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def load_program():
    if not (ROOT / "src" / "bfel" / "__init__.py").is_file():
        sys.exit(f"error: no bfel sources under {ROOT / 'src'}")
    import bfel
    import bfel.cli  # noqa: F401  (loads every bfel module)

    if Path(bfel.__file__).resolve().parent != ROOT / "src" / "bfel":
        sys.exit(f"error: imported bfel from {bfel.__file__}, not from src/")
    return bfel


def closed_loop(workload, tracer, seconds, trace, log):
    """Warm up, then run operations until the next would overrun `seconds`.
    Untraced, the run also goes on until it holds the workload's tail
    sample count, or until the next operation would overrun LIMIT_S.
    The host kernel is timed three times before each operation."""
    from perfbench.workloads import run_checked

    host_s = [host_kernel_s() for _ in range(3)]
    warm = run_checked(workload, tracer, log)
    ops = []  # (traced, OpResult, per-op stats or None)
    start = time.perf_counter()
    last = 0.0
    samples = 0
    while True:
        kinds = {traced for traced, _, _ in ops}
        complete = False in kinds and (True in kinds or not trace)
        enough = trace or samples >= workload.tail_samples
        elapsed = time.perf_counter() - start + last
        if complete and (elapsed > LIMIT_S or enough and elapsed > seconds):
            break
        traced = bool(trace) and len(ops) % 2 == 1
        host_s += [host_kernel_s() for _ in range(3)]
        if traced:
            tracer.install()
            mark = len(tracer.spans)
        t0 = time.perf_counter()
        result = run_checked(workload, tracer, log)
        last = time.perf_counter() - t0
        stats = None
        if traced:
            tracer.uninstall()
            stats = tracer.stats(mark)
        ops.append((traced, result, stats))
        if not traced and not result.problems:
            samples += len(result.rounds_s)
    return warm, ops, host_s


def end_to_end(results, step, tail_samples, host_s):
    """Timings as the mean over the untraced operations, and the tail, each
    scaled by the same statistic of the host kernel's times `host_s`.

    The host runs this process at a fast or a slow core speed, switching
    within milliseconds, and the share of slow time changes from minute to
    minute. A timing's mean follows that share, and so does the mean of the
    host kernel timed between the operations; their ratio does not. The
    same holds for a tail percentile, which reads the slow state. A minimum
    or a median does not cancel that way: it depends on how long the fast
    bursts last. The tail percentile is fixed per workload, so that it does
    not depend on how many rounds a faster or slower program fits in the
    run."""
    samples = {
        "setup_s": [x for r in results for x in r.setup_s],
        "round_s": [x for r in results for x in r.rounds_s],
        "run_s": [r.run_s for r in results],
        "validate_s": [x for r in results for x in r.validate_s],
    }
    values, notes = {}, {}
    for name, xs in samples.items():
        values[name] = statistics.fmean(xs)
        notes[name] = f"mean of {len(xs)}; median {statistics.median(xs):.6g}"
    rounds = samples["round_s"]
    values["round_s_tail"], pct, beyond = tail(rounds, tail_samples)
    notes["round_s_tail"] = f"p{pct:.2f}: {beyond} of {len(rounds)} {step}s beyond"
    mean_scale = REFERENCE_S / statistics.fmean(host_s)
    tail_scale = REFERENCE_S / tail(host_s, tail_samples)[0]
    for name in values:
        notes[name] += f"; unscaled {values[name]:.6g}"
        values[name] *= tail_scale if name == "round_s_tail" else mean_scale
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    notes["peak_rss_mb"] = "ru_maxrss of this process"
    return values, notes, samples


def per_layer(names, tracer, traced_ops, untraced_ops):
    """Per-operation values of the declared per-layer metrics."""
    per_op = [stats for _, stats in traced_ops]
    results = [r for r, _ in traced_ops]
    values, absent = {}, []
    for name in names:
        if name == "ledger.chain_bytes":
            values[name] = results[0].chain_bytes
        elif name == "gossip.hops":
            values[name] = results[0].hops
        elif name == "trace.overhead_run_s":  # the operations alternate
            values[name] = (statistics.fmean(r.run_s for r in results)
                            - statistics.fmean(r.run_s for r in untraced_ops))
        elif name == "trace.overhead_round_s":
            values[name] = (
                statistics.fmean(x for r in results for x in r.rounds_s)
                - statistics.fmean(x for r in untraced_ops for x in r.rounds_s))
        else:
            span, stat = name.rsplit(".", 1)
            if span not in tracer.wrapped:
                absent.append(span)
            total = sum(s.get(span, {}).get(stat, 0) for s in per_op)
            values[name] = total // len(per_op) if stat == "calls" else total / len(per_op)
    counts = [{k: v["calls"] for k, v in s.items()} for s in per_op]
    problems = [] if all(c == counts[0] for c in counts) else [
        "call counts differ between traced operations"
    ]
    return values, sorted(set(absent)), problems


def main(argv=None):
    args = parse_args(argv)
    threads_as_set = environment.cap_blas_threads()
    bfel = load_program()
    import numpy as np

    from perfbench import expectations, tracing, workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out_root = ROOT / ".perfbench-work"
    workdir = out_root / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    log = lambda text: print(text, file=sys.stderr)  # noqa: E731
    try:
        make = workloads.WORKLOADS[args.workload]
        workload = make(bfel, workdir, args.seed)
        tracer = tracing.Tracer()
        warm, ops, host_s = closed_loop(
            workload, tracer, args.seconds, args.trace, log)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    all_results = [warm] + [r for _, r, _ in ops]
    failed = sum(1 for r in all_results if r.problems)
    problems = [p for r in all_results for p in r.problems]
    good_untraced = [r for t, r, _ in ops if not t and not r.problems]
    good_traced = [(r, s) for t, r, s in ops if t and not r.problems]
    if not good_untraced or (args.trace and not good_traced):
        for p in problems:
            log(f"problem: {p}")
        sys.exit("error: no operation passed its checks")

    env = environment.record(ROOT, np, threads_as_set, args.workload, args.seed)
    report = {"environment": env, "host_kernel_s": host_s}
    if args.trace:
        declared = spec["per_layer"]
        names = [m["name"] for m in declared]
        values, absent, count_problems = per_layer(
            names, tracer, good_traced, good_untraced)
        problems += count_problems
        failed += bool(count_problems)
        notes = {name: expectations.describe(name) for name in names}
        spans_path = out_root / f"{args.workload}-seed{args.seed}-spans.jsonl"
        tracer.write_spans(spans_path)
        report.update(absent=absent, spans=str(spans_path.relative_to(ROOT)))
    else:
        declared = spec["end_to_end"]
        values, notes, samples = end_to_end(
            good_untraced, workload.step, workload.tail_samples, host_s)
        report["samples"] = samples
        if workload.kind == "training" and workload.acc_floor is not None:
            report["final_acc"] = good_untraced[0].final_acc  # same every call
    units = {m["name"]: m["unit"] for m in declared}
    attempted = len(all_results)
    report.update(problems=problems, attempted=attempted, failed=failed,
                  fail_rate=failed / attempted, metrics=values, notes=notes)
    (out_root / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True)
    )

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"blas_threads={env['threads_in_use']['OPENBLAS_NUM_THREADS']} "
          f"nproc={env['nproc']} commit={env['git_commit'][:12]}")
    print(f"# host kernel: mean {statistics.fmean(host_s):.6g} s of {len(host_s)}; "
          f"timings scaled to its {REFERENCE_S} s reference")
    print(f"fail_rate {report['fail_rate']:.4f} fraction "
          f"({failed} of {attempted} operations, 1 warm-up)")
    if "final_acc" in report:
        print(f"final_acc {report['final_acc']:.4f} fraction")
    for p in problems:
        print(f"# problem: {p}")
    if report.get("absent"):
        print(f"# absent (no such public name): {', '.join(absent)}")
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}  # {notes[name]}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
    }))


if __name__ == "__main__":
    main()
