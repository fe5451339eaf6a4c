"""Command line front end.

Subcommands enumerate labels, build modular data, evaluate characters, and
run verification suites. Output formats: json (machine readable, stable key
order), csv, and pretty (human readable). Exit codes: 0 success, 1 invalid
input or computation error, 2 a mathematical verification exceeded its
tolerance.
"""

import argparse
import csv
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .admissible import (
    LevelData,
    enumerate_admissible,
    label_is_degenerate,
    verify_admissible,
)
from .chars import EvalPoint, char_chi, theta_jacobi_check, theta_lattice_check
from .errors import KacfusionError
from .rootsys import build_root_system, langlands_dual_datum
from .smatrix import (
    _sl2_report,
    build_smatrix,
    smatrix_entry,
    tmatrix_exponents,
)
from .walg import (
    central_charge_w,
    check_fkw_factorization,
    enumerate_wlabels,
    vacuum_index,
    verlinde,
    w_smatrix,
)
from .weyl import weyl_order

COMMANDS = (
    "rootsys",
    "enumerate",
    "smatrix",
    "tmatrix",
    "verify",
    "chars-eval",
    "theta-check",
    "wlabels",
    "fusion",
    "factorize",
)


@dataclass
class CommandConfig:
    """Parsed invocation: one command plus its shared numeric options."""

    command: str
    type: Optional[str] = None
    p: Optional[int] = None
    q: Optional[int] = None
    level: Optional[Fraction] = None
    tol: float = 1e-9
    trunc: int = 2_000_000
    fmt: str = "pretty"
    seed: int = 0
    tau: complex = 1j
    x: Optional[Tuple[complex, ...]] = None
    t: complex = 0j
    verify: bool = False
    lattice: str = "Qvee"
    index: int = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_complex(text: str) -> complex:
    s = text.strip().replace(" ", "").replace("i", "j")
    if s in ("j", "+j"):
        return 1j
    if s == "-j":
        return -1j
    return complex(s)


def _parse_xlist(text: str) -> Tuple[complex, ...]:
    return tuple(_parse_complex(tok) for tok in text.split(",") if tok.strip())


def _rat(x) -> object:
    f = Fraction(x)
    return int(f) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _rats(xs) -> List[object]:
    return [_rat(v) for v in xs]


def _cx(z: complex) -> List[float]:
    z = complex(z)
    return [z.real, z.imag]


def _matrix(m: np.ndarray) -> List[List[List[float]]]:
    return [[_cx(v) for v in row] for row in m]


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="kacfusion", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, level=True, point=False):
        p.add_argument("--type", required=True, help="root system, e.g. A1, G2, E8")
        if level:
            g = p.add_mutually_exclusive_group(required=True)
            g.add_argument("--pq", help="level numerator,denominator e.g. 5,2")
            g.add_argument("--level", help="level k as a rational, e.g. -4/3")
        p.add_argument("--format", choices=("json", "csv", "pretty"),
                       default="pretty", dest="fmt")
        p.add_argument("--tol", type=float, default=1e-9)
        p.add_argument("--seed", type=int, default=0)
        if point:
            p.add_argument("--tau", default="i", help="upper half plane point")
            p.add_argument("--x", default=None, help="comma separated coordinates")
            p.add_argument("--t", default="0", help="central coordinate")

    p = sub.add_parser("rootsys", help="structural data of a root system")
    p.add_argument("--type", required=True)
    p.add_argument("--format", choices=("json", "csv", "pretty"),
                   default="pretty", dest="fmt")

    common(sub.add_parser("enumerate", help="admissible weights at level p/q"))

    p = sub.add_parser("smatrix", help="modular S-matrix over admissible weights")
    common(p)
    p.add_argument("--verify", action="store_true",
                   help="exit 2 if the modular group relations exceed --tol")

    common(sub.add_parser("tmatrix", help="T-matrix exponents"))
    common(sub.add_parser("verify", help="modular group relation residuals"))
    common(sub.add_parser("chars-eval", help="evaluate all characters at a point"),
           point=True)

    p = sub.add_parser("theta-check", help="theta transformation residuals")
    p.add_argument("--type", default="A1")
    p.add_argument("--format", choices=("json", "csv", "pretty"),
                   default="pretty", dest="fmt")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tau", default="i")
    p.add_argument("--x", default=None)
    p.add_argument("--lattice", choices=("Q", "Qvee"), default="Qvee")
    p.add_argument("--index", type=int, default=4, help="theta index m")
    p.add_argument("--trunc", type=int, default=2_000_000,
                   help="lattice point budget")

    common(sub.add_parser("wlabels", help="W-algebra module labels"))
    common(sub.add_parser("fusion", help="W-algebra fusion rules via Verlinde"))
    common(sub.add_parser("factorize", help="compare W fusion with the product "
                          "of integrable fusions"))
    return top


def _config(args) -> CommandConfig:
    cfg = CommandConfig(command=args.command)
    for field in ("type", "fmt", "tol", "seed", "verify", "lattice", "trunc",
                  "index"):
        if hasattr(args, field):
            setattr(cfg, field, getattr(args, field))
    if getattr(args, "pq", None):
        parts = args.pq.split(",")
        if len(parts) != 2:
            raise KacfusionError("--pq expects two comma separated integers")
        cfg.p, cfg.q = int(parts[0]), int(parts[1])
    if getattr(args, "level", None):
        cfg.level = Fraction(args.level)
    if hasattr(args, "tau"):
        cfg.tau = _parse_complex(args.tau)
    if getattr(args, "x", None):
        cfg.x = _parse_xlist(args.x)
    if getattr(args, "t", None):
        cfg.t = _parse_complex(args.t)
    return cfg


def _level_data(cfg: CommandConfig) -> LevelData:
    rs = build_root_system(cfg.type)
    if cfg.p is not None:
        return LevelData.from_pq(rs, cfg.p, cfg.q)
    return LevelData.from_level(rs, cfg.level)


def _emit(payload: dict, cfg: CommandConfig, csv_rows=None, pretty=None) -> None:
    if cfg.fmt == "json":
        print(json.dumps(payload, sort_keys=True))
    elif cfg.fmt == "csv":
        writer = csv.writer(sys.stdout)
        for row in csv_rows or _flat_rows(payload):
            writer.writerow(row)
    else:
        for line in pretty or _pretty_lines(payload):
            print(line)


def _flat_rows(payload, prefix=""):
    rows = []
    if isinstance(payload, dict):
        for k in sorted(payload):
            rows.extend(_flat_rows(payload[k], f"{prefix}{k}." if prefix else f"{k}."))
    elif isinstance(payload, (list, tuple)):
        rows.append([prefix.rstrip("."), json.dumps(payload)])
    else:
        rows.append([prefix.rstrip("."), payload])
    return rows


def _pretty_lines(payload, indent=0):
    pad = "  " * indent
    lines = []
    if isinstance(payload, dict):
        for k, v in payload.items():
            if isinstance(v, (dict,)):
                lines.append(f"{pad}{k}:")
                lines.extend(_pretty_lines(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {json.dumps(v) if isinstance(v, (list, tuple)) else v}")
    else:
        lines.append(f"{pad}{payload}")
    return lines


def _cmd_rootsys(cfg: CommandConfig) -> int:
    rs = build_root_system(cfg.type)
    twisted = None
    if rs.rvee > 1:
        twisted = langlands_dual_datum(rs).twisted_type
    payload = {
        "type": str(rs.spec),
        "rank": rs.rank,
        "positive_roots": rs.num_positive_roots,
        "coxeter_number": rs.h,
        "dual_coxeter_number": rs.hvee,
        "lacing": rs.rvee,
        "weyl_order": weyl_order(rs),
        "marks": list(rs.marks),
        "comarks": list(rs.comarks),
        "dual_marks": list(rs.dual_marks),
        "cartan_determinant": rs.fundamental_group_order,
        "node_orbit": list(rs.J),
        "dual_node_orbit": list(rs.LJ),
        "twisted_partner": twisted,
    }
    _emit(payload, cfg)
    return 0


def _label_payload(ld: LevelData, lab) -> dict:
    return {
        "lam": _rats(lab.lam.finite),
        "nu": _rats(lab.nu.finite),
        "beta": _rats(lab.beta),
        "ybar_sign": lab.ybar.sign,
        "degenerate": label_is_degenerate(ld, lab),
    }


def _cmd_enumerate(cfg: CommandConfig) -> int:
    ld = _level_data(cfg)
    labels = enumerate_admissible(ld)
    ok = all(verify_admissible(ld, lab.lam)[0] for lab in labels)
    payload = {
        "type": str(ld.rs.spec),
        "p": ld.p,
        "q": ld.q,
        "variant": ld.variant,
        "level": _rat(ld.k),
        "count": len(labels),
        "all_verified": ok,
        "labels": [_label_payload(ld, lab) for lab in labels],
    }
    rows = [["lam", "nu", "beta", "ybar_sign", "degenerate"]] + [
        [json.dumps(d["lam"]), json.dumps(d["nu"]), json.dumps(d["beta"]),
         d["ybar_sign"], d["degenerate"]]
        for d in payload["labels"]
    ]
    _emit(payload, cfg, csv_rows=rows)
    return 0 if ok else 2


def _relation_payload(report: dict) -> dict:
    return {k: v for k, v in sorted(report.items()) if isinstance(v, (int, float, bool))}


def _cmd_smatrix(cfg: CommandConfig) -> int:
    ld = _level_data(cfg)
    sm = build_smatrix(ld)
    report = _sl2_report(sm)
    n = len(sm.labels)
    payload = {
        "type": str(ld.rs.spec),
        "p": ld.p,
        "q": ld.q,
        "size": n,
        "norm_index": sm.norm_const,
        "relations": _relation_payload(report),
        "matrix": _matrix(sm.matrix),
    }
    rows = [["i", "j", "re", "im"]] + [
        [i, j, sm.matrix[i, j].real, sm.matrix[i, j].imag]
        for i in range(n) for j in range(n)
    ]
    pretty = [f"{k}: {v}" for k, v in payload.items() if k != "matrix"]
    if n <= 10:
        pretty.append("matrix (real, imag):")
        for i in range(n):
            pretty.append("  " + "  ".join(
                f"{sm.matrix[i, j].real:+.6f}{sm.matrix[i, j].imag:+.6f}i"
                for j in range(n)))
    _emit(payload, cfg, csv_rows=rows, pretty=pretty)
    if cfg.verify and report["max_error"] > cfg.tol:
        print(f"modular relation residual {report['max_error']:.3e} exceeds "
              f"tolerance {cfg.tol:.3e}", file=sys.stderr)
        return 2
    return 0


def _cmd_tmatrix(cfg: CommandConfig) -> int:
    ld = _level_data(cfg)
    exps = tmatrix_exponents(ld)
    payload = {
        "type": str(ld.rs.spec),
        "p": ld.p,
        "q": ld.q,
        "exponents": _rats(exps),
        "values": [_cx(np.exp(2j * np.pi * float(e))) for e in exps],
    }
    rows = [["exponent", "re", "im"]] + [
        [payload["exponents"][i]] + payload["values"][i] for i in range(len(exps))
    ]
    _emit(payload, cfg, csv_rows=rows)
    return 0


def _cmd_verify(cfg: CommandConfig) -> int:
    ld = _level_data(cfg)
    sm = build_smatrix(ld)
    report = _sl2_report(sm)
    labels = sm.labels
    rng = np.random.default_rng(cfg.seed)
    n = len(labels)
    spots = min(8, n * n)
    pairs = {(int(rng.integers(n)), int(rng.integers(n))) for _ in range(spots)}
    # the built matrix against the exact per-entry reference
    spot_diff = float(max(
        abs(sm.matrix[i, j] - smatrix_entry(ld, labels[i], labels[j]))
        for i, j in sorted(pairs)
    ))
    payload = {
        "type": str(ld.rs.spec),
        "p": ld.p,
        "q": ld.q,
        "seed": cfg.seed,
        "relations": _relation_payload(report),
        "spot_check_max_diff": spot_diff,
        "tolerance": cfg.tol,
    }
    worst = max(report["max_error"], spot_diff)
    payload["pass"] = bool(worst <= cfg.tol)
    _emit(payload, cfg)
    if not payload["pass"]:
        print(f"verification residual {worst:.3e} exceeds tolerance "
              f"{cfg.tol:.3e}", file=sys.stderr)
        return 2
    return 0


def _cmd_chars_eval(cfg: CommandConfig) -> int:
    ld = _level_data(cfg)
    labels = enumerate_admissible(ld)
    rank = ld.rs.rank
    x = cfg.x if cfg.x is not None else tuple([0.1 + 0.05 * i for i in range(rank)])
    if len(x) != rank:
        raise KacfusionError(f"--x needs {rank} coordinates for {cfg.type}")
    point = EvalPoint(cfg.tau, tuple(x), cfg.t)
    values = []
    for lab in labels:
        ev = char_chi(ld, lab, point, tol=cfg.tol)
        values.append({
            "value": _cx(ev.value),
            "tail_bound": ev.tail_bound,
            "N": ev.truncation_order,
        })
    payload = {
        "type": str(ld.rs.spec),
        "p": ld.p,
        "q": ld.q,
        "tau": _cx(cfg.tau),
        "x": [_cx(v) for v in x],
        "labels": [_rats(lab.lam.finite) for lab in labels],
        "values": values,
    }
    rows = [["lam", "re", "im", "tail_bound", "N"]] + [
        [json.dumps(payload["labels"][i])] + values[i]["value"]
        + [values[i]["tail_bound"], values[i]["N"]]
        for i in range(len(labels))
    ]
    _emit(payload, cfg, csv_rows=rows)
    return 0


def _cmd_theta_check(cfg: CommandConfig) -> int:
    rs = build_root_system(cfg.type)
    rng = np.random.default_rng(cfg.seed)
    if cfg.x is not None:
        z = cfg.x if len(cfg.x) > 1 else cfg.x[0]
        zs = cfg.x[0]
    else:
        draw = rng.uniform(0.05, 0.4, size=2 * rs.rank)
        z = tuple(complex(draw[2 * i], draw[2 * i + 1] / 4) for i in range(rs.rank))
        zs = z[0]
    scalar = theta_jacobi_check(cfg.tau, zs)
    # the theta label must pair integrally with the lattice
    if cfg.lattice == "Q":
        lattice, mu = rs.latt_Q, rs.theta
    else:
        lattice, mu = rs.latt_Qvee, rs.rho
    zvec = z if isinstance(z, tuple) else (z,) * rs.rank
    lat = theta_lattice_check(
        rs, lattice, mu, cfg.index, cfg.tau, zvec,
        tol=min(cfg.tol * 1e-2, 1e-10), max_points=cfg.trunc,
    )
    payload = {
        "type": str(rs.spec),
        "seed": cfg.seed,
        "tau": _cx(cfg.tau),
        "scalar_residual": scalar["abs_error"],
        "lattice_residual": lat["abs_error"],
        "lattice": cfg.lattice,
        "index": cfg.index,
        "tolerance": cfg.tol,
    }
    worst = max(scalar["abs_error"], lat["abs_error"])
    payload["pass"] = bool(worst <= cfg.tol)
    _emit(payload, cfg)
    if not payload["pass"]:
        print(f"theta transform residual {worst:.3e} exceeds tolerance "
              f"{cfg.tol:.3e}", file=sys.stderr)
        return 2
    return 0


def _cmd_wlabels(cfg: CommandConfig) -> int:
    ld = _level_data(cfg)
    labels = enumerate_wlabels(ld)
    payload = {
        "type": str(ld.rs.spec),
        "p": ld.p,
        "q": ld.q,
        "central_charge": _rat(central_charge_w(ld)),
        "count": len(labels),
        "labels": [
            {"lam": _rats(l.lam.finite), "lamprime": _rats(l.lamprime.finite)}
            for l in labels
        ],
    }
    rows = [["lam", "lamprime"]] + [
        [json.dumps(d["lam"]), json.dumps(d["lamprime"])] for d in payload["labels"]
    ]
    _emit(payload, cfg, csv_rows=rows)
    return 0


def _cmd_fusion(cfg: CommandConfig) -> int:
    ld = _level_data(cfg)
    sm = w_smatrix(ld)
    ft = verlinde(sm)
    n = len(sm.labels)
    vac = vacuum_index(sm.labels)
    table = [
        {"a": a, "b": b, "c": c, "N": int(ft.N[a, b, c])}
        for a in range(n) for b in range(n) for c in range(n)
        if ft.N[a, b, c]
    ]
    payload = {
        "type": str(ld.rs.spec),
        "p": ld.p,
        "q": ld.q,
        "count": n,
        "vacuum": vac,
        "central_charge": _rat(central_charge_w(ld)),
        "max_rounding_error": ft.max_rounding_error,
        "labels": [
            {"lam": _rats(l.lam.finite), "lamprime": _rats(l.lamprime.finite)}
            for l in sm.labels
        ],
        "table": table,
    }
    rows = [["a", "b", "c", "N"]] + [[d["a"], d["b"], d["c"], d["N"]] for d in table]
    pretty = [f"{k}: {v}" for k, v in payload.items() if k not in ("table", "labels")]
    for a in range(n):
        for b in range(a, n):
            terms = [
                (f"{ft.N[a, b, c]}*" if ft.N[a, b, c] > 1 else "") + f"[{c}]"
                for c in range(n) if ft.N[a, b, c]
            ]
            pretty.append(f"  [{a}] x [{b}] = " + (" + ".join(terms) or "0"))
    _emit(payload, cfg, csv_rows=rows, pretty=pretty)
    return 0


def _cmd_factorize(cfg: CommandConfig) -> int:
    ld = _level_data(cfg)
    report = check_fkw_factorization(ld)
    payload = {
        "type": report["type"],
        "p": ld.p,
        "q": ld.q,
        "hypothesis_ok": report["hypothesis_ok"],
    }
    if not report["hypothesis_ok"]:
        payload["reason"] = report["reason"]
        _emit(payload, cfg)
        print(f"hypothesis violated: {report['reason']}", file=sys.stderr)
        return 2
    payload["equal"] = report["equal"]
    payload["max_abs_diff"] = report["max_abs_diff"]
    payload["count"] = len(report["lhs"].labels)
    _emit(payload, cfg)
    if not report["equal"]:
        print("factorization mismatch: fusion tensors differ", file=sys.stderr)
        return 2
    return 0


_DISPATCH = {
    "rootsys": _cmd_rootsys,
    "enumerate": _cmd_enumerate,
    "smatrix": _cmd_smatrix,
    "tmatrix": _cmd_tmatrix,
    "verify": _cmd_verify,
    "chars-eval": _cmd_chars_eval,
    "theta-check": _cmd_theta_check,
    "wlabels": _cmd_wlabels,
    "fusion": _cmd_fusion,
    "factorize": _cmd_factorize,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _config(args)
        return _DISPATCH[cfg.command](cfg)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (KacfusionError, ValueError, OverflowError) as exc:
        print(f"kacfusion: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
