"""Seeded job lists for the four benchmark workloads.

A job is a plain dict that names one operation on kacfusion:

- ``id``: stable name of the operation, the same for every seed
  (for example ``"smatrix A2 7,2"``);
- ``kind``: ``"cli"`` (``kacfusion.cli.main(argv)`` in-process) or one of the
  library jobs ``"chi"``, ``"psi"`` and ``"sl2"``;
- ``check``: the output oracle applied to its result (see ``sweep.py``);
- the inputs: ``argv`` for CLI jobs, ``type``/``p``/``q`` (and ``tau``/``x``
  where the job evaluates characters) for library jobs.

The seed sets the job order (it shuffles the levels; the jobs on one level
keep their order), the evaluation points (tau, x) and the
``--seed`` values passed to ``verify`` and ``theta-check``. It never sets the
level list, so the cost of a sweep hardly depends on it. This module uses the
standard library only, so a job list can be generated without kacfusion.
"""

import math
import random

WORKLOADS = ("modular", "w-fusion", "characters", "high-rank")

# Operations that fail on the code as it stands, with the failure each one
# raises or the output check it fails. They stay in the job lists: each
# counts as a failed op in fail_frac, but not as an unexpected failure.
KNOWN_FAILURES = {
    "modular": {},
    "w-fusion": {
        # enumerate_wlabels cross-checks |labels| * |W| against the
        # nondegenerate admissible count, which fails off the simply laced types
        **{f"{cmd} {lvl}": "AssertionError"
           for cmd in ("wlabels", "fusion")
           for lvl in ("B2 3,5", "C2 3,5", "G2 4,7")},
    },
    "characters": {
        # the default first psi sample x = 0.2 rho_vee lies on a wall
        "psi G2 7,3": "PolarPointError",
        # Neville extrapolation leaves |psi| ~ 1e-4 on degenerate labels
        "psi B2 5,2": "check:psi_degenerate",
        "psi C2 5,2": "check:psi_degenerate",
    },
    "high-rank": {
        # enumerate_weyl refuses groups above 10**6 elements
        f"sl2 {t} {p},1": "CapacityError"
        for t, p in (("E7", 18), ("E8", 30), ("B8", 15), ("C8", 9), ("D8", 14))
    },
}

# (type, p, q) levels of each workload; see README.md for why each is there.
MODULAR_LEVELS = [
    ("A1", 5, 2), ("A1", 7, 3), ("A1", 3, 4),
    ("A2", 4, 3), ("A2", 7, 2),
    ("B2", 5, 2), ("C2", 5, 2), ("G2", 7, 3),
    ("B3", 7, 2),
] + [("A1", p, 1) for p in range(3, 9)]
MODULAR_TMATRIX_ONLY = [("A2", 5, 4)]

W_MINIMAL_MAX_Q = 9
W_FULL_LEVELS = [("A2", 3, 4), ("A2", 3, 5), ("B2", 3, 5), ("C2", 3, 5), ("G2", 4, 7)]
W_LABEL_ONLY_LEVELS = [("A2", 4, 5), ("A2", 7, 5), ("A3", 5, 3)]

CHAR_LEVELS = [
    ("A1", 5, 2), ("A1", 3, 4), ("A1", 2, 5), ("A1", 5, 7),
    ("A2", 4, 3), ("B2", 5, 2), ("C2", 5, 2), ("G2", 7, 3),
]
CHARS_EVAL_LEVELS = [
    ("A1", 5, 2), ("A2", 4, 3), ("B2", 5, 2), ("G2", 7, 3),
    ("A3", 4, 1), ("B3", 5, 1), ("A4", 5, 1), ("D4", 6, 1),
]
THETA_TYPES = ["A1", "A2", "G2", "A3", "B3", "A4", "D4"]
THETA_INDEX = 2

# (type, p) at q = 1: p = hvee gives one label, hvee + 1 a few.
HIGH_RANK_LEVELS = [
    ("A4", 5), ("A5", 6), ("B4", 7), ("C4", 5), ("D4", 6), ("D5", 8), ("F4", 9),
    ("A6", 7), ("A4", 6), ("D4", 7),
    ("E7", 18), ("E8", 30), ("B8", 15), ("C8", 9), ("D8", 14),
]


def rank_of(type_name: str) -> int:
    return int(type_name[1:])


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.6f}{z.imag:+.6f}i"


def _tau(rng: random.Random) -> complex:
    """A point of the unit circle with Re tau in [-0.3, 0.3]; there
    -1/tau = -conj(tau), so both sides of an S-transform check, and the
    lattice sums behind them, cost the same for every seed."""
    re = rng.uniform(-0.3, 0.3)
    return complex(round(re, 6), round(math.sqrt(1 - re * re), 6))


def _x(rng: random.Random, rank: int) -> list:
    """A small generic point: positive real parts keep it off every wall."""
    return [
        complex(round(rng.uniform(0.05, 0.14), 6), round(rng.uniform(0.005, 0.025), 6))
        for _ in range(rank)
    ]


def _cli(cmd: str, t: str, p: int, q: int, *extra: str) -> dict:
    argv = [cmd, "--type", t, "--pq", f"{p},{q}", "--format", "json", *extra]
    return {"id": f"{cmd} {t} {p},{q}", "kind": "cli", "check": cmd,
            "argv": argv, "type": t, "p": p, "q": q}


# Each function below returns groups of jobs: the jobs on one level (or one type) in
# a fixed order, so that the job that fills a level's caches is the same for
# every seed.


def _modular(rng):
    groups = [[_cli("smatrix", t, p, q, "--verify"),
               _cli("verify", t, p, q, "--seed", str(rng.randrange(10**6))),
               _cli("tmatrix", t, p, q)]
              for t, p, q in MODULAR_LEVELS]
    groups += [[_cli("tmatrix", t, p, q)] for t, p, q in MODULAR_TMATRIX_ONLY]
    return groups


def _w_fusion(rng):
    levels = [("A1", p, q) for q in range(3, W_MINIMAL_MAX_Q + 1)
              for p in range(2, q) if math.gcd(p, q) == 1]
    groups = [[_cli(cmd, t, p, q) for cmd in ("enumerate", "wlabels", "fusion", "factorize")]
              for t, p, q in levels + W_FULL_LEVELS]
    groups += [[_cli(cmd, t, p, q) for cmd in ("enumerate", "wlabels")]
               for t, p, q in W_LABEL_ONLY_LEVELS]
    return groups


def _characters(rng):
    groups = []
    for t, p, q in CHAR_LEVELS:
        group = []
        for kind in ("chi", "psi"):
            tau = _tau(rng)
            job = {"id": f"{kind} {t} {p},{q}", "kind": kind, "check": kind,
                   "type": t, "p": p, "q": q, "tau": [tau.real, tau.imag]}
            if kind == "chi":
                job["x"] = [[v.real, v.imag] for v in _x(rng, rank_of(t))]
            group.append(job)
        groups.append(group)
    for t, p, q in CHARS_EVAL_LEVELS:
        x = ",".join(_fmt_complex(v) for v in _x(rng, rank_of(t)))
        groups.append([_cli("chars-eval", t, p, q,
                            f"--tau={_fmt_complex(_tau(rng))}", f"--x={x}")])
    for t in THETA_TYPES:
        argv = ["theta-check", "--type", t, "--index", str(THETA_INDEX),
                f"--tau={_fmt_complex(_tau(rng))}",
                "--seed", str(rng.randrange(10**6)), "--format", "json"]
        groups.append([{"id": f"theta-check {t}", "kind": "cli", "check": "theta-check",
                        "argv": argv, "type": t}])
    return groups


def _high_rank(rng):
    groups = {}
    for t, p in HIGH_RANK_LEVELS:
        group = groups.setdefault(t, [{
            "id": f"rootsys {t}", "kind": "cli", "check": "rootsys",
            "argv": ["rootsys", "--type", t, "--format", "json"], "type": t}])
        group.append({"id": f"sl2 {t} {p},1", "kind": "sl2", "check": "sl2",
                      "type": t, "p": p, "q": 1})
    return list(groups.values())


_JOB_GROUPS = {
    "modular": _modular,
    "w-fusion": _w_fusion,
    "characters": _characters,
    "high-rank": _high_rank,
}


def make_jobs(workload: str, seed: int) -> list:
    """The workload's job list for this seed, in the order it is run: the
    seed shuffles the groups, and each group keeps its order."""
    rng = random.Random(f"{workload}:{seed}")
    groups = _JOB_GROUPS[workload](rng)
    rng.shuffle(groups)
    return [job for group in groups for job in group]
