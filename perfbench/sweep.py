"""One sweep of a workload, run in a fresh interpreter by run.py.

Imports kacfusion from the checkout's ``src``, generates the job list from
the seed, runs every job once in a closed loop (one process, one thread, the
next job only after the last returns), checks each output after its timer
stops, and prints one JSON object on stdout. Every job runs under a
catch-all, so an exception never ends the sweep.

    python3 perfbench/sweep.py --workload modular --seed 1 --trace 0
"""

import argparse
import bisect
import cmath
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracer import Tracer, cache_stats  # noqa: E402

# Tolerances of tests/test_acceptance.py; none is looser.
TOL_SL2 = 1e-9            # acceptance 2: S^4 = 1, (ST)^3 = S^2, unitarity
TOL_SINE = 1e-12          # acceptance 3: A1 integrable sine closed form
TOL_THETA = 1e-8          # acceptance 4 (scalar 1e-8; lattice 1e-6, tightened)
TOL_CHI_A1 = 1e-5         # acceptance 5
TOL_CHI = 1e-3            # acceptance 5, rank > 1
TOL_ROUNDING = 1e-6       # acceptance 6: Verlinde rounding
TOL_PSI_ROW = 1e-4        # acceptance 8
TOL_PSI_DEGENERATE = 1e-6  # acceptance 8


class CheckFailed(Exception):
    """An output oracle rejected a job's result."""


# -- library jobs: the same computations as acceptance checks 2, 5 and 8 -------


def _level(kf, job):
    return kf.LevelData.from_pq(kf.build_root_system(job["type"]), job["p"], job["q"])


def run_chi(kf, job):
    """Worst |chi(-1/tau, x/tau) - Gaussian * sum_j S_ij chi_j(tau, x)|."""
    ld = _level(kf, job)
    tau = complex(*job["tau"])
    x = tuple(complex(*v) for v in job["x"])
    tol = 1e-10 if ld.rs.rank == 1 else 1e-8
    labels = kf.enumerate_admissible(ld)
    S = kf.build_smatrix(ld).matrix
    rs = ld.rs
    G = [[float(v) for v in row] for row in rs.gram]
    xx = sum(x[i] * sum(G[i][j] * x[j] for j in range(rs.rank)) for i in range(rs.rank))
    pref = cmath.exp(1j * cmath.pi * float(ld.k) * xx / tau)
    vals = [kf.char_chi(ld, lab, kf.EvalPoint(tau, x), tol=tol).value for lab in labels]
    point = kf.EvalPoint(-1 / tau, tuple(v / tau for v in x))
    worst = 0.0
    for i, lab in enumerate(labels):
        lhs = kf.char_chi(ld, lab, point, tol=tol).value
        rhs = pref * sum(S[i, j] * vals[j] for j in range(len(labels)))
        worst = max(worst, abs(lhs - rhs))
    return {"chi_residual": worst, "labels": len(labels)}


def run_psi(kf, job):
    """psi row residual against the S-matrix, and the largest degenerate |psi|."""
    ld = _level(kf, job)
    tau = complex(*job["tau"])
    labels = kf.enumerate_admissible(ld)
    S = kf.build_smatrix(ld).matrix
    degenerate = [kf.label_is_degenerate(ld, lab) for lab in labels]
    vals = [kf.psi_w(ld, lab, tau)[0] for lab in labels]
    worst_deg = max((abs(v) for v, d in zip(vals, degenerate) if d), default=0.0)
    pref = (-1j) ** ld.rs.num_positive_roots
    worst = 0.0
    for i, lab in enumerate(labels):
        if degenerate[i]:
            continue
        lhs = kf.psi_w(ld, lab, -1 / tau)[0]
        rhs = pref * sum(S[i, j] * vals[j] for j in range(len(labels)))
        worst = max(worst, abs(lhs - rhs))
    return {"psi_row_residual": worst, "psi_degenerate_max": worst_deg,
            "labels": len(labels)}


def run_sl2(kf, job):
    report = kf.verify_sl2_relations(_level(kf, job))
    return {k: v for k, v in sorted(report.items()) if isinstance(v, (int, float, bool))}


def run_cli(kf, job):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = kf.cli.main(job["argv"])
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


RUNNERS = {"chi": run_chi, "psi": run_psi, "sl2": run_sl2, "cli": run_cli}


# -- output oracles, applied after the job's timer has stopped -------------------


def _require(cond, what):
    if not cond:
        raise CheckFailed(what)


def _cli_json(res, rc=0):
    _require(res["rc"] == rc, f"exit code {res['rc']}, expected {rc}: "
             f"{res['stderr'].strip()[:200]}")
    return json.loads(res["stdout"])


def _relations(rel, resid):
    _require(rel["is_permutation"], "S^2 is not a signed permutation")
    resid("sl2", rel["max_error"], TOL_SL2)


def check_smatrix(job, res, resid):
    d = _cli_json(res)
    _relations(d["relations"], resid)
    n = d["size"]
    _require(len(d["matrix"]) == n, "matrix size disagrees with size")
    if job["type"] == "A1" and job["q"] == 1:
        p = job["p"]
        worst = max(
            abs(complex(*d["matrix"][a][b])
                - math.sqrt(2.0 / p) * math.sin(math.pi * (a + 1) * (b + 1) / p))
            for a in range(n) for b in range(n)
        )
        resid("sine", worst, TOL_SINE)


def check_verify(job, res, resid):
    d = _cli_json(res)
    _relations(d["relations"], resid)
    _require(d["pass"], "verify reports pass = false")


def check_tmatrix(job, res, resid):
    d = _cli_json(res)
    _require(0 < len(d["exponents"]) == len(d["values"]), "malformed T exponents")


def check_enumerate(job, res, resid):
    d = _cli_json(res)
    _require(d["all_verified"], "a label failed verify_admissible")
    _require(d["count"] == len(d["labels"]) > 0, "label count disagrees")


def check_wlabels(job, res, resid):
    d = _cli_json(res)
    _require(d["count"] == len(d["labels"]), "label count disagrees")


def check_fusion(job, res, resid):
    d = _cli_json(res)
    n = d["count"]
    N = [[[0] * n for _ in range(n)] for _ in range(n)]
    for e in d["table"]:
        _require(e["N"] > 0, "nonpositive fusion entry listed")
        N[e["a"]][e["b"]][e["c"]] = e["N"]
    v = d["vacuum"]
    _require(all(N[v][b][c] == (b == c) for b in range(n) for c in range(n)),
             "the vacuum is not the fusion unit")
    resid("verlinde_rounding", d["max_rounding_error"], TOL_ROUNDING)
    if (job["type"], job["p"], job["q"]) == ("A1", 3, 4):
        # Ising: vacuum, sigma, epsilon
        _require(N[1][1] == [1, 0, 1] and N[1][2] == [0, 1, 0] and N[2][2] == [1, 0, 0],
                 "Ising fusion rules")


def _fundamental_group_order(t):
    n = workloads.rank_of(t)
    return {"A": n + 1, "D": 4, "E": {6: 3, 7: 2, 8: 1}.get(n)}.get(t[0])


def check_factorize(job, res, resid):
    # the hypothesis holds for simply laced types with gcd(q, |J|) = 1
    order = _fundamental_group_order(job["type"])
    expected = order is not None and math.gcd(job["q"], order) == 1
    d = _cli_json(res, rc=0 if expected else 2)
    _require(d["hypothesis_ok"] == expected, f"hypothesis_ok should be {expected}")
    if expected:
        _require(d["equal"] and d["max_abs_diff"] == 0, "fusion does not factorize")


def check_chars_eval(job, res, resid):
    d = _cli_json(res)
    _require(0 < len(d["values"]) == len(d["labels"]), "one value per label")
    _require(all(math.isfinite(v) for e in d["values"] for v in e["value"]),
             "non-finite character value")


def check_theta(job, res, resid):
    d = _cli_json(res)
    _require(d["pass"], "theta-check reports pass = false")
    resid("theta_scalar", d["scalar_residual"], TOL_THETA)
    resid("theta_lattice", d["lattice_residual"], TOL_THETA)


def check_rootsys(job, res, resid):
    d = _cli_json(res)
    _require(d["coxeter_number"] == 1 + sum(d["marks"]), "h != 1 + sum of marks")
    _require(d["dual_coxeter_number"] == 1 + sum(d["comarks"]),
             "hvee != 1 + sum of comarks")


def check_chi(job, res, resid):
    resid("chi", res["chi_residual"], TOL_CHI_A1 if job["type"] == "A1" else TOL_CHI)


def check_psi(job, res, resid):
    resid("psi_row", res["psi_row_residual"], TOL_PSI_ROW)
    resid("psi_degenerate", res["psi_degenerate_max"], TOL_PSI_DEGENERATE)


def check_sl2(job, res, resid):
    _relations(res, resid)


CHECKS = {
    "smatrix": check_smatrix, "verify": check_verify, "tmatrix": check_tmatrix,
    "enumerate": check_enumerate, "wlabels": check_wlabels, "fusion": check_fusion,
    "factorize": check_factorize, "chars-eval": check_chars_eval,
    "theta-check": check_theta, "rootsys": check_rootsys, "chi": check_chi,
    "psi": check_psi, "sl2": check_sl2,
}


def evaluate(job, res):
    """Apply the job's oracle: (failure signature or None, detail, residuals).

    Every residual check is recorded; the first one at or above its tolerance
    makes the op fail with signature ``check:<name>``.
    """
    resids = []
    failed = []

    def resid(name, value, tol):
        resids.append([name, value, tol])
        if not value < tol:
            failed.append(f"{name} {value:.3e} >= {tol:.0e}")

    try:
        CHECKS[job["check"]](job, res, resid)
    except CheckFailed as exc:
        return "check:" + job["check"], str(exc), resids
    except (KeyError, TypeError, ValueError) as exc:
        return "check:" + job["check"], f"malformed output: {exc!r}", resids
    if failed:
        return "check:" + failed[0].split()[0], "; ".join(failed), resids
    return None, "", resids


class SpeedProbe:
    """Samples how fast this core runs Python while the jobs run.

    On a shared host the speed of a core changes by up to 2x within seconds,
    with whatever else runs beside it. Every ``PERIOD`` seconds of this
    process's CPU time, a SIGPROF handler times a fixed slice of interpreter
    and Fraction work (``SLICE_ITERS`` iterations, with the garbage collector
    off). A job's time is then scaled by ``REF_SLICE_S`` over the median slice
    time around the job, after removing the handler's own time. The result
    is CPU seconds at the speed where the slice takes ``REF_SLICE_S``.
    """

    PERIOD = 0.02
    SLICE_ITERS = 60
    REF_SLICE_S = 400e-6

    def __init__(self):
        self.stamps = []  # process time at the end of each sample
        self.slices = []  # CPU seconds of each slice
        self.spent = 0.0  # CPU seconds spent in the handler

    @staticmethod
    def _slice() -> float:
        # wall time: inside a SIGPROF handler the process CPU clock stands still
        t0 = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, SpeedProbe.SLICE_ITERS):
            acc += Fraction(i % 17, 13) * Fraction(3, i % 11 + 1)
        return time.perf_counter() - t0

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            c = self._slice()
        finally:
            if was_enabled:
                gc.enable()
        self.stamps.append(time.process_time())
        self.slices.append(c)
        self.spent += time.perf_counter() - t0

    def start(self):
        self._sample()
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, self.PERIOD, self.PERIOD)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        self._sample()

    def scale(self, t0, t1) -> float:
        """REF_SLICE_S over the median slice time from the third-last sample
        before t0 to the third sample after t1 (process-time stamps)."""
        lo = max(bisect.bisect_left(self.stamps, t0) - 3, 0)
        hi = min(bisect.bisect_right(self.stamps, t1) + 3, len(self.stamps))
        return self.REF_SLICE_S / statistics.median(self.slices[lo:hi])


def digest(res) -> str:
    return hashlib.sha256(json.dumps(res, sort_keys=True).encode()).hexdigest()[:16]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # Times are CPU seconds of this single-threaded process, corrected by the
    # SpeedProbe; raw CPU and wall times are recorded beside them.
    t_setup, w_setup = time.process_time(), time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import kacfusion
    import kacfusion.cli
    import numpy

    jobs = workloads.make_jobs(args.workload, args.seed)
    setup_s = time.process_time() - t_setup
    setup_wall_s = time.perf_counter() - w_setup

    modules = [m for name, m in sorted(sys.modules.items())
               if name == "kacfusion" or name.startswith("kacfusion.")]
    tracer = None
    if args.trace:
        tracer = Tracer(kacfusion)
        tracer.install(modules)

    known = workloads.KNOWN_FAILURES[args.workload]
    outcomes = []
    probe = SpeedProbe()
    probe.start()
    for job in jobs:
        if tracer:
            tracer.begin_job(job["id"])
        t0, w0, spent0 = time.process_time(), time.perf_counter(), probe.spent
        try:
            res = RUNNERS[job["kind"]](kacfusion, job)
            err = None
        except Exception as exc:  # one failed op; the sweep goes on
            res = None
            err = exc
        t1, wall = time.process_time(), time.perf_counter() - w0
        cpu = t1 - t0 - (probe.spent - spent0)
        if tracer:
            tracer.end_job()
        if err is not None:
            sig, detail, resids = type(err).__name__, str(err)[:300], []
            out = {"exception": sig, "message": str(err)}
        else:
            sig, detail, resids = evaluate(job, res)
            out = res
            if tracer and job["kind"] == "cli":
                tracer.add_output_bytes(len(res["stdout"].encode()))
        outcomes.append({
            "id": job["id"], "cpu_s": cpu, "wall_s": wall, "t": (t0, t1),
            "fail": sig, "detail": detail,
            "known": sig is not None and known.get(job["id"]) == sig,
            "resid": resids, "digest": digest(out),
        })
    probe.stop()
    for o in outcomes:
        o["s"] = o["cpu_s"] * probe.scale(*o.pop("t"))
    sweep_s = sum(o["s"] for o in outcomes)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(tracer),
        "setup_s": setup_s * probe.scale(0.0, 0.0),
        "setup_cpu_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "sweep_s": sweep_s,
        "sweep_cpu_s": sum(o["cpu_s"] for o in outcomes),
        "sweep_wall_s": sum(o["wall_s"] for o in outcomes),
        "probe": {"samples": len(probe.slices), "spent_s": probe.spent,
                  "slice_median_s": statistics.median(probe.slices)},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outcomes": outcomes,
        "caches": cache_stats({"weyl": kacfusion.weyl, "admissible": kacfusion.admissible}),
        "jobs": jobs,
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "kacfusion": os.path.relpath(kacfusion.__file__, ROOT),
        },
    }
    if tracer:
        result["trace"] = tracer.result()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
