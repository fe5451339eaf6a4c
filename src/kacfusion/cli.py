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
import math
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .admissible import (
    LevelData,
    enumerate_admissible,
    is_admissible,
    label_is_degenerate,
)
from .chars import EvalPoint, char_chi, theta_jacobi_check, theta_lattice_check
from .errors import KacfusionError
from .ratlin import transpose
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_pq(text: str) -> Tuple[int, int]:
    try:
        p, q = (int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            "--pq expects two comma separated integers") from None
    return p, q


def _parse_level(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"--level expects a rational number, got {text!r}") from None


def _parse_index(text: str) -> int:
    if not text.strip().isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"--index expects a positive integer, got {text!r}")
    return int(text)


def _parse_complex(text: str) -> complex:
    s = text.strip().replace(" ", "").replace("i", "j")
    if s in ("j", "+j"):
        return 1j
    if s == "-j":
        return -1j
    try:
        return complex(s)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_xlist(text: str) -> Optional[Tuple[complex, ...]]:
    """Comma separated coordinates; a blank --x means not given."""
    xs = tuple(_parse_complex(tok) for tok in text.split(",") if tok.strip())
    if text and not xs:
        raise argparse.ArgumentTypeError("--x expects comma separated coordinates")
    return xs or None


def _rat(x) -> object:
    if isinstance(x, int):
        return int(x)
    f = x if isinstance(x, Fraction) else Fraction(x)
    return int(f) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _rats(xs) -> List[object]:
    return [_rat(v) for v in xs]


def _cx(z: complex) -> List[float]:
    z = complex(z)
    return [z.real, z.imag]


def _matrix(m: np.ndarray) -> List[List[List[float]]]:
    return [[_cx(v) for v in row] for row in m]


def _level_data(args) -> LevelData:
    rs = build_root_system(args.type)
    if args.pq is not None:
        return LevelData.from_pq(rs, *args.pq)
    return LevelData.from_level(rs, args.level)


def _head(ld: LevelData) -> dict:
    """The type and level that open every level command's payload."""
    return {"type": str(ld.rs.spec), "p": ld.p, "q": ld.q}


def _emit(payload: dict, args, csv_rows=None, pretty=None) -> None:
    if args.fmt == "json":
        print(json.dumps(payload, sort_keys=True))
    elif args.fmt == "csv":
        writer = csv.writer(sys.stdout)
        for row in csv_rows or _flat_rows(payload):
            writer.writerow(row)
    else:
        for line in pretty or _pretty_lines(payload):
            print(line)


def _gate(payload: dict, args, worst: float, what: str) -> int:
    """Record pass, emit the payload, and exit 2 when worst exceeds --tol."""
    payload["pass"] = bool(worst <= args.tol)
    _emit(payload, args)
    if payload["pass"]:
        return 0
    print(f"{what} residual {worst:.3e} exceeds tolerance {args.tol:.3e}",
          file=sys.stderr)
    return 2


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


def _cmd_rootsys(args) -> int:
    rs = build_root_system(args.type)
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
    _emit(payload, args)
    return 0


def _label_payload(ld: LevelData, lab) -> dict:
    return {
        "lam": _rats(lab.lam.finite),
        "nu": _rats(lab.nu.finite),
        "beta": _rats(lab.beta),
        "ybar_sign": lab.ybar.sign,
        "degenerate": label_is_degenerate(ld, lab),
    }


def _cmd_enumerate(args) -> int:
    ld = _level_data(args)
    labels = enumerate_admissible(ld)
    ok = all(is_admissible(ld, lab.lam) for lab in labels)
    payload = {
        **_head(ld),
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
    _emit(payload, args, csv_rows=rows)
    return 0 if ok else 2


def _relation_payload(report: dict) -> dict:
    return {k: v for k, v in sorted(report.items()) if isinstance(v, (int, float, bool))}


def _cmd_smatrix(args) -> int:
    ld = _level_data(args)
    sm = build_smatrix(ld)
    report = _sl2_report(sm)
    n = len(sm.labels)
    payload = {
        **_head(ld),
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
    _emit(payload, args, csv_rows=rows, pretty=pretty)
    if args.verify and report["max_error"] > args.tol:
        print(f"modular relation residual {report['max_error']:.3e} exceeds "
              f"tolerance {args.tol:.3e}", file=sys.stderr)
        return 2
    return 0


def _cmd_tmatrix(args) -> int:
    ld = _level_data(args)
    exps = tmatrix_exponents(ld)
    payload = {
        **_head(ld),
        "exponents": _rats(exps),
        "values": [_cx(np.exp(2j * np.pi * float(e))) for e in exps],
    }
    rows = [["exponent", "re", "im"]] + [
        [payload["exponents"][i]] + payload["values"][i] for i in range(len(exps))
    ]
    _emit(payload, args, csv_rows=rows)
    return 0


def _cmd_verify(args) -> int:
    ld = _level_data(args)
    sm = build_smatrix(ld)
    report = _sl2_report(sm)
    labels = sm.labels
    rng = np.random.default_rng(args.seed)
    n = len(labels)
    spots = min(8, n * n)
    pairs = {(int(rng.integers(n)), int(rng.integers(n))) for _ in range(spots)}
    # the built matrix against the exact per-entry reference
    spot_diff = float(max(
        abs(sm.matrix[i, j] - smatrix_entry(ld, labels[i], labels[j]))
        for i, j in sorted(pairs)
    ))
    payload = {
        **_head(ld),
        "seed": args.seed,
        "relations": _relation_payload(report),
        "spot_check_max_diff": spot_diff,
        "tolerance": args.tol,
    }
    return _gate(payload, args, max(report["max_error"], spot_diff),
                 "verification")


def _cmd_chars_eval(args) -> int:
    ld = _level_data(args)
    labels = enumerate_admissible(ld)
    rank = ld.rs.rank
    x = args.x if args.x is not None else tuple([0.1 + 0.05 * i for i in range(rank)])
    if len(x) != rank:
        raise KacfusionError(f"--x needs {rank} coordinates for {args.type}")
    point = EvalPoint(args.tau, tuple(x), args.t)
    values = []
    for lab in labels:
        ev = char_chi(ld, lab, point, tol=args.tol)
        values.append({
            "value": _cx(ev.value),
            "tail_bound": ev.tail_bound,
            # the most lattice points kept for one theta function of the numerator
            "N": ev.truncation_order,
        })
    payload = {
        **_head(ld),
        "tau": _cx(args.tau),
        "x": [_cx(v) for v in x],
        "labels": [_rats(lab.lam.finite) for lab in labels],
        "values": values,
    }
    rows = [["lam", "re", "im", "tail_bound", "N"]] + [
        [json.dumps(payload["labels"][i])] + values[i]["value"]
        + [values[i]["tail_bound"], values[i]["N"]]
        for i in range(len(labels))
    ]
    _emit(payload, args, csv_rows=rows)
    return 0


def _cmd_theta_check(args) -> int:
    rs = build_root_system(args.type)
    # the theta label must pair integrally with the lattice
    if args.lattice == "Q":
        lattice, mu = rs.latt_Q, rs.theta
    else:
        lattice, mu = rs.latt_Qvee, rs.rho
    cols = transpose(lattice)
    step = math.lcm(*(rs.inner_finite(a, b).denominator for a in cols for b in cols))
    if args.index % step:
        raise KacfusionError(
            f"--index {args.index} leaves m (L_i, L_j) non-integral on the "
            f"{args.lattice} lattice of {rs.spec}: use a multiple of {step}")
    rng = np.random.default_rng(args.seed)
    if args.x is not None:
        if len(args.x) not in (1, rs.rank):
            raise KacfusionError(
                f"--x needs {rs.rank} coordinates for {args.type}, or one for all")
        zvec = args.x if len(args.x) > 1 else (args.x[0],) * rs.rank
    else:
        draw = rng.uniform(0.05, 0.4, size=2 * rs.rank)
        zvec = tuple(complex(draw[2 * i], draw[2 * i + 1] / 4) for i in range(rs.rank))
    scalar = theta_jacobi_check(args.tau, zvec[0])
    lat = theta_lattice_check(
        rs, lattice, mu, args.index, args.tau, zvec,
        tol=min(args.tol * 1e-2, 1e-10), max_points=args.trunc,
    )
    # rounding grows with |Theta|, so the gate reads each residual relative to
    # the larger side (and absolute below 1)
    rel = [
        r["abs_error"] / max(1.0, abs(r["lhs"]), abs(r["rhs"])) for r in (scalar, lat)
    ]
    payload = {
        "type": str(rs.spec),
        "seed": args.seed,
        "tau": _cx(args.tau),
        "scalar_residual": scalar["abs_error"],
        "lattice_residual": lat["abs_error"],
        "scalar_relative_residual": rel[0],
        "lattice_relative_residual": rel[1],
        "lattice": args.lattice,
        "index": args.index,
        "tolerance": args.tol,
    }
    return _gate(payload, args, max(rel), "theta transform relative")


def _cmd_wlabels(args) -> int:
    ld = _level_data(args)
    labels = enumerate_wlabels(ld)
    payload = {
        **_head(ld),
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
    _emit(payload, args, csv_rows=rows)
    return 0


def _cmd_fusion(args) -> int:
    ld = _level_data(args)
    sm = w_smatrix(ld)
    ft = verlinde(sm)
    n = len(sm.labels)
    vac = vacuum_index(sm.labels)
    # np.nonzero lists the entries in row-major (a, b, c) order: the table's
    # order, on which the groupby over (a, b) below relies
    nz = np.nonzero(ft.N)
    table = [
        {"a": a, "b": b, "c": c, "N": v}
        for a, b, c, v in zip(*(x.tolist() for x in nz), ft.N[nz].tolist())
    ]
    payload = {
        **_head(ld),
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
    sums = {
        ab: " + ".join((f"{d['N']}*" if d["N"] > 1 else "") + f"[{d['c']}]" for d in ds)
        for ab, ds in groupby(table, key=lambda d: (d["a"], d["b"]))
    }
    pretty += [f"  [{a}] x [{b}] = {sums.get((a, b), '0')}"
               for a in range(n) for b in range(a, n)]
    _emit(payload, args, csv_rows=rows, pretty=pretty)
    return 0


def _cmd_factorize(args) -> int:
    ld = _level_data(args)
    report = check_fkw_factorization(ld)
    payload = {**_head(ld), "hypothesis_ok": report["hypothesis_ok"]}
    if not report["hypothesis_ok"]:
        payload["reason"] = report["reason"]
        _emit(payload, args)
        print(f"hypothesis violated: {report['reason']}", file=sys.stderr)
        return 2
    payload["equal"] = report["equal"]
    payload["max_abs_diff"] = report["max_abs_diff"]
    payload["count"] = len(report["lhs"].labels)
    _emit(payload, args)
    if not report["equal"]:
        print("factorization mismatch: fusion tensors differ", file=sys.stderr)
        return 2
    return 0


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; each parse is a fresh namespace."""
    top = _Parser(prog="kacfusion", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, run, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        return p

    def common(p, level=True, point=False):
        p.add_argument("--type", required=True, help="root system, e.g. A1, G2, E8")
        if level:
            g = p.add_mutually_exclusive_group(required=True)
            g.add_argument("--pq", type=_parse_pq,
                           help="level numerator,denominator e.g. 5,2")
            g.add_argument("--level", type=_parse_level,
                           help="level k as a rational, e.g. -4/3")
        p.add_argument("--format", choices=("json", "csv", "pretty"),
                       default="pretty", dest="fmt")
        p.add_argument("--tol", type=float, default=1e-9)
        p.add_argument("--seed", type=int, default=0)
        if point:
            p.add_argument("--tau", type=_parse_complex, default="i",
                           help="upper half plane point")
            p.add_argument("--x", type=_parse_xlist, default=None,
                           help="comma separated coordinates")
            # a blank --t means not given
            p.add_argument("--t", type=lambda s: _parse_complex(s or "0"),
                           default="0", help="central coordinate")

    p = add("rootsys", _cmd_rootsys, "structural data of a root system")
    p.add_argument("--type", required=True)
    p.add_argument("--format", choices=("json", "csv", "pretty"),
                   default="pretty", dest="fmt")

    common(add("enumerate", _cmd_enumerate, "admissible weights at level p/q"))

    p = add("smatrix", _cmd_smatrix, "modular S-matrix over admissible weights")
    common(p)
    p.add_argument("--verify", action="store_true",
                   help="exit 2 if the modular group relations exceed --tol")

    common(add("tmatrix", _cmd_tmatrix, "T-matrix exponents"))
    common(add("verify", _cmd_verify, "modular group relation residuals"))
    common(add("chars-eval", _cmd_chars_eval, "evaluate all characters at a point"),
           point=True)

    p = add("theta-check", _cmd_theta_check, "theta transformation residuals")
    p.add_argument("--type", default="A1")
    p.add_argument("--format", choices=("json", "csv", "pretty"),
                   default="pretty", dest="fmt")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tau", type=_parse_complex, default="i")
    p.add_argument("--x", type=_parse_xlist, default=None)
    p.add_argument("--lattice", choices=("Q", "Qvee"), default="Qvee")
    p.add_argument("--index", type=_parse_index, default=4, help="theta index m")
    p.add_argument("--trunc", type=int, default=2_000_000,
                   help="lattice point budget")

    common(add("wlabels", _cmd_wlabels, "W-algebra module labels"))
    common(add("fusion", _cmd_fusion, "W-algebra fusion rules via Verlinde"))
    common(add("factorize", _cmd_factorize,
               "compare W fusion with the product of integrable fusions"))
    return top


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (KacfusionError, ValueError, OverflowError) as exc:
        print(f"kacfusion: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
