"""kacfusion benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload modular --seed 1 --seconds 30 --trace 0

Runs sweeps of the workload's seeded job list, each in a fresh interpreter
(``sweep.py``), until another sweep would overrun ``--seconds``; there is
always at least one. With ``--trace 0`` it reports the end-to-end metrics,
medians over the sweeps. With ``--trace 1`` it alternates untraced and traced
sweeps and reports the per-layer metrics of the traced ones, and the tracing
overhead. Every run checks every job's output, prints a report with every
metric by name and unit, writes a record of the run (seed, job list,
versions, per-job results, spans) under ``perfbench/out/``, and prints one
JSON object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``failed`` counts unexpected failures. Failures pinned in
``workloads.KNOWN_FAILURES`` are counted in ``fail_frac`` and listed in the
report, but they leave ``correct`` true as long as each fails as pinned.
"""

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracer import PER_LAYER  # noqa: E402

END_TO_END = [
    ("setup_s", "s"),
    ("sweep_s", "s"),
    ("job_s.p50", "s"),
    ("job_s.tail", "s"),
    ("peak_rss_mb", "MB"),
]
# Reported with the end-to-end metrics but not bounded: fail_frac is zero
# wherever no known failure sits, and resid_log10 is a negative log.
REPORTED = [("fail_frac", "1"), ("resid_log10", "log10")]
RUN_LIMIT_S = 170.0  # a run must end within 180 s


def tail_quantile(n: int) -> float:
    """The highest percentile of n jobs that still has ten jobs beyond it."""
    if n < 11:
        raise ValueError(f"a sweep needs at least 11 jobs for the tail, has {n}")
    return (n - 10) / n


def hd_quantile(xs, p: float, steps: int = 64) -> float:
    """Harrell-Davis estimate of the p-quantile of xs.

    A weighted mean of all order statistics, with weights from the
    Beta((n+1)p, (n+1)(1-p)) distribution: it has the meaning of a single
    order statistic but moves far less with the noise in any one value.
    """
    xs = sorted(xs)
    n = len(xs)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(u):
        return math.exp((a - 1) * math.log(u) + (b - 1) * math.log1p(-u) - log_norm)

    weights = [
        sum(density((i + (k + 0.5) / steps) / n) for k in range(steps)) / (steps * n)
        for i in range(n)
    ]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def run_sweep(workload, seed, trace, deadline):
    env = dict(os.environ)
    env.pop("KACFUSION_THREADS", None)
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, os.path.join(HERE, "sweep.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"sweep exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["wall_s"] = wall
    return res


def end_to_end(sweeps):
    """Medians over the sweeps. A job's time is its median over the sweeps;
    job_s.p50 and job_s.tail are Harrell-Davis quantiles of those times."""
    per_job = {}
    for sw in sweeps:
        for o in sw["outcomes"]:
            per_job.setdefault(o["id"], []).append(o["s"])
    times = [statistics.median(v) for v in per_job.values()]
    return {
        "setup_s": statistics.median(sw["setup_s"] for sw in sweeps),
        "sweep_s": statistics.median(sw["sweep_s"] for sw in sweeps),
        "job_s.p50": hd_quantile(times, 0.5),
        "job_s.tail": hd_quantile(times, tail_quantile(len(times))),
        "peak_rss_mb": statistics.median(sw["peak_rss_mb"] for sw in sweeps),
    }


def outcome_summary(sweeps):
    """Failure counts over all sweeps, and the worst passing residual."""
    attempted = failed_all = unexpected = 0
    failures = {}
    worst = None
    for sw in sweeps:
        for o in sw["outcomes"]:
            attempted += 1
            if o["fail"] is not None:
                failed_all += 1
                unexpected += not o["known"]
                failures.setdefault(o["id"], (o["fail"], o["known"], o["detail"]))
            for name, value, tol in o["resid"]:
                if value < tol:
                    r = (max(value, 1e-300) / tol, f"{o['id']} {name} {value:.2e} < {tol:.0e}")
                    worst = r if worst is None or r[0] > worst[0] else worst
    return attempted, failed_all, unexpected, failures, worst


def digest_mismatches(sweeps):
    """Job ids whose output differs between sweeps of the same seed."""
    ref = {o["id"]: o["digest"] for o in sweeps[0]["outcomes"]}
    return sorted({o["id"] for sw in sweeps[1:] for o in sw["outcomes"]
                   if ref.get(o["id"]) != o["digest"]})


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "kacfusion", "__init__.py")):
        print(f"perfbench: no kacfusion sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    # on SIGTERM, unwind through subprocess.run, which kills and reaps the sweep
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    untraced, traced = [], []
    try:
        while True:
            trace = args.trace and len(traced) <= len(untraced)
            (traced if trace else untraced).append(
                run_sweep(args.workload, args.seed, int(trace), deadline))
            walls = [s["wall_s"] for s in untraced + traced]
            elapsed = time.monotonic() - start
            enough = untraced and (traced or not args.trace)
            if enough and elapsed + statistics.median(walls) > args.seconds:
                break
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    sweeps = untraced + traced
    attempted, failed_all, unexpected, failures, worst = outcome_summary(sweeps)
    mismatched = digest_mismatches(sweeps)
    correct = unexpected == 0 and not mismatched
    n_jobs = len(untraced[0]["outcomes"])
    e2e = end_to_end(untraced)
    extra = {
        "fail_frac": failed_all / attempted,
        "resid_log10": math.log10(worst[0]) if worst else float("nan"),
    }

    env = untraced[0]["env"]
    lines = [
        f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
        f"seconds={args.seconds:g}",
        f"  env: python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
        f"{env['kacfusion']}",
        f"  sweeps: {len(untraced)} untraced, {len(traced)} traced; "
        f"{n_jobs} jobs per sweep, closed loop, one process and thread",
    ]
    units = dict(END_TO_END + REPORTED)
    notes = {
        "setup_s": f"median of {len(untraced)} set-ups (import kacfusion, make job list)",
        "sweep_s": f"median over {len(untraced)} sweeps, output checks excluded",
        "job_s.p50": f"median job of {n_jobs} (Harrell-Davis, per-job medians)",
        "job_s.tail": f"p{100 * tail_quantile(n_jobs):.1f} of {n_jobs} jobs, "
                      "10 beyond it (Harrell-Davis, per-job medians)",
        "peak_rss_mb": "ru_maxrss at the end of the sweep, median",
        "fail_frac": f"{failed_all} failed of {attempted} attempted "
                     f"({failed_all - unexpected} known, {unexpected} unexpected)",
        "resid_log10": "log10(residual / tolerance), worst passing check: "
                       + (worst[1] if worst else "none"),
    }
    for name, value in list(e2e.items()) + list(extra.items()):
        lines.append(f"  {name:<12} {value:>12.6g} {units[name]:<6} {notes[name]}")
    for job_id, (sig, known, detail) in sorted(failures.items()):
        tag = "known" if known else "UNEXPECTED"
        lines.append(f"  failed op [{tag}] {job_id}: {sig}: {detail[:160]}")
    if mismatched:
        lines.append(f"  OUTPUT MISMATCH between sweeps of one seed: {', '.join(mismatched)}")
    caches = untraced[0]["caches"]
    lines.append("  caches after a sweep: " + "; ".join(
        f"{k} hits {v['hits']} misses {v['misses']} size {v['currsize']}"
        for k, v in caches.items()))

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "env": env, "jobs": untraced[0]["jobs"],
        "end_to_end": e2e, "reported": extra,
        "attempted": attempted, "failed_ops": failed_all, "unexpected": unexpected,
        "sweeps": [{k: v for k, v in sw.items() if k != "jobs"} for sw in sweeps],
    }
    if args.trace:
        layer, unsteady = traced_metrics(traced)
        if unsteady:
            correct = False
            lines.append("  COUNT MISMATCH between traced sweeps: " + ", ".join(unsteady))
        overhead = (statistics.median(s["sweep_s"] for s in traced)
                    - statistics.median(s["sweep_s"] for s in untraced))
        record["per_layer"] = layer
        record["trace_overhead_s"] = overhead
        lines.append(f"  tracing overhead: {overhead:+.4f} s per sweep "
                     f"(traced minus untraced sweep_s, medians)")
        for name, unit, _ in PER_LAYER:
            lines.append(f"  {name:<42} {layer[name]:>14.6g} {unit}")
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit, _ in PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh)
    lines.append(f"  record: {os.path.relpath(path, ROOT)}")
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": unexpected, "metrics": metrics}))
    return 0


def traced_metrics(traced):
    """Per-layer metrics of the traced sweeps: self times as medians, counts
    from the first sweep, and the names of counts the sweeps disagree on."""
    per = [sw["trace"]["metrics"] for sw in traced]
    out, unsteady = {}, []
    for name, _, _ in PER_LAYER:
        values = [m[name] for m in per]
        if name.endswith(".self_s"):
            out[name] = statistics.median(values)
        else:
            out[name] = values[0]
            if len(set(values)) != 1:
                unsteady.append(name)
    return out, unsteady


if __name__ == "__main__":
    sys.exit(main())
