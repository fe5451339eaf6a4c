"""Per-layer tracing of kacfusion from outside the library.

``Tracer.install`` rebinds each public function listed in ``WRAPPED`` in every
``kacfusion`` module namespace that holds it (the defining module, the
package and every module that imported it by name), so calls between layers
pass through a wrapper that keeps:

- per function: calls, self time and calls that raised;
- spans (id, name, start, end, parent id, job id) for the coarse calls, kept in
  memory and returned by ``result()``. The hot inner calls (``HOT``, and cache
  hits of the two cached enumerations) are only summed into the counters;
- work counts at the same boundaries (S entries, Weyl terms, lattice points,
  Verlinde triples, ...).

Times are CPU seconds of the sweep's process (``time.process_time``), the
clock the end-to-end metrics use. Self time is a call's duration minus the
time covered by the wrapped calls it made. The wrapper's bookkeeping after a
call returns is charged to neither; the little it does before the call counts
as the call's own. Cache hits and misses come from the original functions'
``cache_info()``.
"""

import time
from collections import defaultdict

# (module, attribute, metric prefix)
WRAPPED = [
    ("rootsys", "build_root_system", "rootsys.build"),
    ("weyl", "enumerate_weyl", "weyl.enumerate"),
    ("admissible", "enumerate_admissible", "admissible.enumerate"),
    ("admissible", "verify_admissible", "admissible.verify"),
    ("admissible", "label_is_degenerate", "admissible.degenerate"),
    ("admissible", "label_from_mu", "admissible.label_from_mu"),
    ("smatrix", "build_smatrix", "smatrix.build"),
    ("smatrix", "smatrix_entry", "smatrix.entry"),
    ("smatrix", "norm_index", "smatrix.norm_index"),
    ("smatrix", "verify_sl2_relations", "smatrix.verify"),
    ("smatrix", "tmatrix_exponents", "smatrix.tmatrix"),
    ("chars", "char_chi", "chars.char_chi"),
    ("chars", "theta_lattice", "chars.theta_lattice"),
    ("chars", "psi_w", "chars.psi_w"),
    ("chars", "theta_g", "chars.theta_g"),
    ("walg", "enumerate_wlabels", "walg.wlabels"),
    ("walg", "w_smatrix", "walg.w_smatrix"),
    ("walg", "verlinde", "walg.verlinde"),
    ("walg", "check_fkw_factorization", "walg.factorize"),
    ("cli", "main", "cli.main"),
]

HOT = {
    "smatrix.entry", "smatrix.norm_index", "chars.theta_lattice", "chars.theta_g",
    "admissible.verify", "admissible.degenerate", "admissible.label_from_mu",
}

# (module, attribute, metric prefix) of the unbounded lru_caches
CACHES = [
    ("weyl", "enumerate_weyl", "weyl.enumerate"),
    ("admissible", "enumerate_admissible", "admissible.enumerate"),
    ("weyl", "extended_generators", "weyl.extended_generators"),
]

# Every per-layer metric a traced sweep reports: (name, unit, better).
PER_LAYER = (
    [(f"{prefix}.{field}", unit, "lower")
     for _, _, prefix in WRAPPED
     for field, unit in (("calls", "count"), ("self_s", "s"), ("errors", "count"))]
    + [
        ("weyl.enumerate.misses", "count", "lower"),
        ("weyl.enumerate.hits", "count", "higher"),
        ("weyl.cache_entries", "count", "lower"),
        ("weyl.elements", "count", "lower"),
        ("admissible.enumerate.misses", "count", "lower"),
        ("admissible.enumerate.hits", "count", "higher"),
        ("admissible.labels", "count", "lower"),
        ("admissible.cache_entries", "count", "lower"),
        ("weyl.extended_generators.misses", "count", "lower"),
        ("weyl.extended_generators.hits", "count", "higher"),
        ("weyl.extended_generators.cache_entries", "count", "lower"),
        ("smatrix.entries", "count", "lower"),
        ("smatrix.weyl_terms", "count", "lower"),
        ("smatrix.useful_frac", "1", "higher"),
        ("walg.s_entries_used_frac", "1", "higher"),
        ("chars.lattice_points", "count", "lower"),
        ("walg.verlinde.triples", "count", "lower"),
        ("cli.output_bytes", "bytes", "lower"),
    ]
)


def cache_stats(modules) -> dict:
    """hits, misses and currsize of each unbounded cache, by metric prefix."""
    out = {}
    for mod, attr, prefix in CACHES:
        info = getattr(modules[mod], attr).cache_info()
        out[prefix] = {"hits": info.hits, "misses": info.misses,
                       "currsize": info.currsize}
    return out


class Tracer:
    """Wraps kacfusion's public functions and accumulates per-layer data."""

    def __init__(self, kacfusion_pkg):
        self.modules = {mod: getattr(kacfusion_pkg, mod) for mod, _, _ in WRAPPED}
        self.weyl_order = self.modules["weyl"].weyl_order
        self.stats = {prefix: [0, 0.0, 0] for _, _, prefix in WRAPPED}
        self.counts = defaultdict(int)
        self.spans = []
        self.builds = []  # (level data, labels) of every S-matrix build
        self.next_id = 0
        # frames: [time covered by wrapped children, span id, metric prefix]
        self.stack = [[0.0, None, "bench"]]
        self.job = None

    # -- installation ---------------------------------------------------

    def install(self, all_modules):
        """Rebind every WRAPPED function wherever a kacfusion module holds it."""
        for mod, attr, prefix in WRAPPED:
            fn = getattr(self.modules[mod], attr)
            wrapper = self._wrap(prefix, fn)
            for module in all_modules:
                for name, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, name, wrapper)

    def _wrap(self, prefix, fn):
        stats = self.stats[prefix]
        stack = self.stack
        spans = self.spans
        post = getattr(self, "_post_" + prefix.replace(".", "_"), None)
        hot = prefix in HOT
        cached = hasattr(fn, "cache_info")
        perf = time.process_time

        def wrapper(*args, **kwargs):
            t0 = perf()
            misses = fn.cache_info().misses if cached else 0
            parent = stack[-1]
            if hot:
                span_id = parent[1]
            else:
                self.next_id += 1
                span_id = self.next_id
            frame = [0.0, span_id, prefix]
            stack.append(frame)
            result = None
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = perf()
                stack.pop()
                stats[0] += 1
                stats[1] += (t1 - t0) - frame[0]
                if not ok:
                    stats[2] += 1
                miss = cached and fn.cache_info().misses > misses
                if not hot and (miss or not cached):
                    spans.append((span_id, prefix, t0, t1, parent[1], self.job))
                if ok and post is not None:
                    post(args, kwargs, result, parent, miss)
                parent[0] += perf() - t0

        if cached:
            wrapper.cache_info = fn.cache_info
        return wrapper

    # -- work counters, one hook per function that has any ----------------

    def _post_weyl_enumerate(self, args, kwargs, result, parent, miss):
        if miss:
            self.counts["weyl.elements"] += len(result)
            self.counts["weyl.elements_expected"] += self.weyl_order(args[0])

    def _post_admissible_enumerate(self, args, kwargs, result, parent, miss):
        if miss:
            self.counts["admissible.labels"] += len(result)

    def _post_smatrix_build(self, args, kwargs, result, parent, miss):
        n = len(result.labels)
        entries = n * (n + 1) // 2
        ld = args[0] if args else kwargs["ld"]
        self.counts["smatrix.entries"] += entries
        self.counts["smatrix.weyl_terms"] += entries * self.weyl_order(ld.rs)
        self.builds.append((ld, result.labels))
        if parent[2] == "walg.w_smatrix":
            self.counts["walg.s_entries_built"] += n * n

    def _post_smatrix_entry(self, args, kwargs, result, parent, miss):
        if parent[2] == "smatrix.build":
            self.counts["smatrix.entry_calls_in_build"] += 1

    def _post_walg_w_smatrix(self, args, kwargs, result, parent, miss):
        # w_smatrix reads one class member's row, and a second one when
        # check_reps is on, at the n_W * |W| columns of all the classes
        ld = args[0] if args else kwargs["ld"]
        check_reps = kwargs.get("check_reps", args[1] if len(args) > 1 else True)
        n_w = len(result.labels)
        rows = (2 if check_reps else 1) * n_w
        self.counts["walg.s_entries_used"] += rows * n_w * self.weyl_order(ld.rs)

    def _post_walg_verlinde(self, args, kwargs, result, parent, miss):
        self.counts["walg.verlinde.triples"] += result.N.shape[0] ** 3

    def _post_chars_theta_lattice(self, args, kwargs, result, parent, miss):
        self.counts["chars.lattice_points"] += result.truncation_order

    # -- jobs and results ---------------------------------------------------

    def begin_job(self, job_id):
        self.job = job_id
        self.next_id += 1
        self.stack.append([0.0, self.next_id, "bench.job"])
        self._job_t0 = time.process_time()

    def end_job(self):
        t1 = time.process_time()
        frame = self.stack.pop()
        self.spans.append((frame[1], "bench.job", self._job_t0, t1, None, self.job))
        self.job = None
        return frame

    def add_output_bytes(self, n):
        self.counts["cli.output_bytes"] += n

    def result(self) -> dict:
        """Per-layer metrics, the raw counters behind the self-checks, spans."""
        metrics = {}
        for prefix, (calls, self_s, errors) in self.stats.items():
            metrics[f"{prefix}.calls"] = calls
            metrics[f"{prefix}.self_s"] = self_s
            metrics[f"{prefix}.errors"] = errors
        caches = cache_stats(self.modules)
        for prefix, info in caches.items():
            metrics[f"{prefix}.misses"] = info["misses"]
            metrics[f"{prefix}.hits"] = info["hits"]
        metrics["weyl.extended_generators.cache_entries"] = (
            caches["weyl.extended_generators"]["currsize"])
        metrics["weyl.cache_entries"] = caches["weyl.enumerate"]["currsize"]
        metrics["admissible.cache_entries"] = caches["admissible.enumerate"]["currsize"]
        c = self.counts
        for name in ("weyl.elements", "admissible.labels", "smatrix.entries",
                     "smatrix.weyl_terms", "chars.lattice_points",
                     "walg.verlinde.triples", "cli.output_bytes"):
            metrics[name] = c[name]
        distinct = len({(ld, labels) for ld, labels in self.builds})
        metrics["smatrix.useful_frac"] = distinct / len(self.builds) if self.builds else 1.0
        built = c["walg.s_entries_built"]
        metrics["walg.s_entries_used_frac"] = c["walg.s_entries_used"] / built if built else 1.0
        return {
            "metrics": metrics,
            "counters": dict(c),
            "spans": [
                {"id": i, "name": n, "start": a, "end": b, "parent": p, "job": j}
                for i, n, a, b, p, j in self.spans
            ],
        }
