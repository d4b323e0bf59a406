"""Command line interface.

Every invocation writes a single JSON document to stdout (the `--csv` sweep
flag of `eval` is the one documented exception); human-oriented progress for
`verify` goes to stderr.  Exit codes: 0 success, 1 internal numeric failure,
2 input validation error.
"""

from __future__ import annotations

import argparse
import json
import re as _re
import sys
import time

import numpy as np

from .acceptance import run_acceptance
from .covering_domains import (
    PlaneDomain,
    find_pole_with_value,
    green_plane,
    lempert_N_plane,
    lempert_poleset_plane,
    parse_domain,
)
from .disc_domain import PoleSet, green_disc, lempert_disc, lempert_disc_N
from .interpolation import Lemma4Problem, lemma4_solve
from .node_optimizer import OptimizerSettings, bidisc_lempert
from .product_engine import (
    corollary8_sample,
    prop9_extend,
    prop10_construct,
    prop11_construct,
    theorem5_bounds,
    theorem7_decide,
)


class CliError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        # treat leading-minus complex literals like -0.3+0.2i as values
        self._negative_number_matcher = _re.compile(r"^-\d+.*$|^-\.\d+.*$")

    def error(self, message):
        raise CliError(message)


def parse_complex(text: str) -> complex:
    """Parse RE+IMi literals like 0.5+0i, -0.3+0.2i, 0.32+-0.64i; bare reals
    allowed."""
    s = text.strip().replace(" ", "")
    if not s:
        raise CliError("empty complex literal")
    if not s.endswith("i"):
        try:
            return complex(float(s), 0.0)
        except ValueError as e:
            raise CliError(f"cannot parse complex literal {text!r}") from e
    body = s[:-1]
    split = None
    for j in range(len(body) - 1, 0, -1):
        if body[j] in "+-" and body[j - 1] not in "eE":
            split = j
            break
    if split is None:
        raise CliError(f"cannot parse complex literal {text!r}; use RE+IMi")
    re_part = body[:split]
    if re_part.endswith("+"):
        # RE+-IMi: the imaginary part carries its own sign
        re_part = re_part[:-1]
    try:
        return complex(float(re_part), float(body[split:]))
    except ValueError as e:
        raise CliError(f"cannot parse complex literal {text!r}") from e


def parse_complex_list(text: str) -> list:
    return [parse_complex(p) for p in text.split(",") if p.strip()]


def format_complex(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}i"


def _nodes_json(nodes) -> list:
    return [[complex(n).real, complex(n).imag] for n in nodes]


def _report(command: str, inputs: dict, t0: float, seed: int, **fields) -> dict:
    rep = {"command": command, "inputs": inputs, "seed": seed}
    rep.update(fields)
    rep["runtime_ms"] = 1e3 * (time.perf_counter() - t0)
    return rep


def _jsonify(obj):
    """Collapse numpy scalars and complex values into JSON-clean types."""
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, complex):
        return format_complex(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    return obj


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_eval(args) -> tuple:
    t0 = time.perf_counter()
    domain = parse_domain(args.domain)
    ats = parse_complex_list(args.at)
    inputs = {"domain": args.domain, "at": args.at,
              "poles": args.poles, "pole": args.pole, "N": args.N,
              "green": args.green, "find_pole": args.find_pole,
              "direction": args.direction}
    rows = []
    certificate = None
    for z in ats:
        if args.find_pole is not None:
            d = parse_complex(args.direction or "1+0i")
            a = find_pole_with_value(domain, z, args.find_pole, d)
            rows.append({"at": format_complex(z), "pole": format_complex(a),
                         "value": args.find_pole})
            continue
        if args.poles:
            pts = tuple(parse_complex_list(args.poles))
            A = PoleSet(points=pts, domain=None if domain.kind == "disc" else domain)
            if args.green:
                if domain.kind == "disc":
                    value, tail = green_disc(A, z), 0.0
                else:
                    value = tail = 0.0
                    for a in A:
                        v, tb = green_plane(domain, a, z)
                        value = v if value == 0.0 else value * v
                        tail += tb
                rows.append({"at": format_complex(z), "value": value, "tail_bound": tail})
            else:
                res = lempert_disc(A, z) if domain.kind == "disc" \
                    else lempert_poleset_plane(domain, A, z)
                rows.append({"at": format_complex(z), "value": res.value})
                certificate = res
        elif args.pole:
            a = parse_complex(args.pole)
            if args.green:
                value, tail = green_plane(domain, a, z)
                rows.append({"at": format_complex(z), "value": value, "tail_bound": tail})
            else:
                N = args.N or 1
                res = lempert_disc_N(a, z, N) if domain.kind == "disc" \
                    else lempert_N_plane(domain, a, z, N)
                rows.append({"at": format_complex(z), "value": res.value})
                certificate = res
        else:
            raise CliError("eval needs --poles or --pole or --find-pole")
    if args.csv:
        lines = ["at,value"] + [f"{r['at']},{r.get('value', '')}" for r in rows]
        return "\n".join(lines), 0, True
    fields = {"value": rows[0].get("value"), "values": rows}
    if certificate is not None and certificate.certificate is not None:
        fields["certificate"] = {"expression": certificate.certificate.describe(),
                                 "nodes": _nodes_json(certificate.nodes)}
    if "tail_bound" in rows[0]:
        fields["tail_bound"] = rows[0]["tail_bound"]
    return _report("eval", inputs, t0, seed=args.seed, **fields), 0, False


def _cmd_lemma4(args) -> tuple:
    t0 = time.perf_counter()
    mu = tuple(parse_complex_list(args.mu))
    sol = lemma4_solve(Lemma4Problem(mu=mu, q=args.q))
    product = float(np.prod([abs(e) for e in sol.eta]))
    rep = _report("lemma4", {"mu": args.mu, "q": args.q}, t0, seed=args.seed,
                  value=product,
                  a=sol.a, branch=sol.branch,
                  reduction_alpha=sol.reduction_alpha,
                  residual=sol.residual, product_error=sol.product_error,
                  certificate={"expression": sol.f.describe(),
                               "nodes": _nodes_json(sol.eta)},
                  tolerances={"residual": 1e-9, "product": 1e-9})
    return rep, 0, False


def _cmd_bidisc(args) -> tuple:
    t0 = time.perf_counter()
    A = PoleSet(points=tuple(parse_complex_list(args.A)))
    B = PoleSet(points=tuple(parse_complex_list(args.B)))
    z = parse_complex(args.z)
    w = parse_complex(args.w)
    settings = OptimizerSettings(restarts=args.restarts, seed=args.seed)
    cfg, value = bidisc_lempert(A, B, z, w, settings)
    rotation = None
    if len(A) == 2 and len(B) == 2 and abs(z) < 1e-14 and abs(w) < 1e-14:
        try:
            t7 = theorem7_decide(A, B)
            rotation = t7.rotation
        except ValueError:
            rotation = None
    floor = max(lempert_disc(A, z).value, lempert_disc(B, w).value)
    rep = _report("bidisc", {"A": args.A, "B": args.B, "z": args.z, "w": args.w,
                             "restarts": args.restarts},
                  t0, seed=args.seed,
                  value=value,
                  bounds={"lower": floor, "upper": value},
                  rotation=rotation,
                  subset=[list(p) for p in cfg.subset],
                  certificate={"expression": "node configuration (subset of A x B)",
                               "nodes": _nodes_json(cfg.nodes),
                               "pick_margins": list(cfg.margins)})
    return rep, 0, False


def _cmd_bounds(args) -> tuple:
    t0 = time.perf_counter()
    D = parse_domain(args.D)
    G = parse_domain(args.G)
    A = PoleSet(points=tuple(parse_complex_list(args.A)),
                domain=None if D.kind == "disc" else D)
    b = parse_complex(args.b)
    z = parse_complex(args.z)
    w = parse_complex(args.w)
    rep = theorem5_bounds(D, G, A, b, z, w)
    out = _report("bounds", {"D": args.D, "G": args.G, "A": args.A, "b": args.b,
                             "z": args.z, "w": args.w}, t0, seed=args.seed,
                  value=None,
                  bounds={"lower": rep.lower, "upper": rep.upper},
                  equality_flag=rep.equality_flag,
                  meta=rep.meta,
                  certificate=(
                      {"expression": rep.certificate.describe(),
                       "nodes": _nodes_json(rep.certificate_nodes)}
                      if rep.certificate is not None else None),
                  tolerances={"equality": 1e-10})
    return out, 0, False


def _cmd_counterexample(args) -> tuple:
    t0 = time.perf_counter()
    if args.kind == "cor8":
        A = PoleSet(points=tuple(parse_complex_list(args.A)))
        B = PoleSet(points=tuple(parse_complex_list(args.B)))
        z = parse_complex(args.z)
        samples = corollary8_sample(A, B, z, count=args.count, seed=args.seed)
        rep = _report("counterexample", {"kind": "cor8", "A": args.A, "B": args.B,
                                         "z": args.z, "count": args.count},
                      t0, seed=args.seed,
                      value=lempert_disc(A, z).value,
                      samples=[{"w": format_complex(s.w),
                                "level_residual": s.level_residual,
                                "automorphism": s.automorphism} for s in samples])
        return rep, 0, False
    D = parse_domain(args.D)
    G = parse_domain(args.G)
    z = parse_complex(args.z)
    w = parse_complex(args.w)
    b = parse_complex(args.b)
    if args.kind == "prop10":
        A_N, rep10 = prop10_construct(D, G, z, w, b, N=args.N, seed=args.seed)
        rep = _report("counterexample", {"kind": "prop10", "D": args.D, "G": args.G,
                                         "z": args.z, "w": args.w, "b": args.b,
                                         "N": args.N}, t0, seed=args.seed,
                      value=rep10["l_G_N"],
                      poles=[format_complex(a) for a in A_N], report=rep10)
        return rep, 0, False
    if args.kind == "prop11":
        extra = PoleSet(points=tuple(parse_complex_list(args.extra)),
                        domain=None if D.kind == "disc" else D)
        rep11 = prop11_construct(D, G, z, w, b, extra, seed=args.seed)
        rep11 = {k: ([format_complex(v) for v in val] if k == "A2" else val)
                 for k, val in rep11.items()}
        rep = _report("counterexample", {"kind": "prop11", "D": args.D, "G": args.G,
                                         "z": args.z, "w": args.w, "b": args.b,
                                         "extra": args.extra}, t0, seed=args.seed,
                      value=rep11["chain_floor"], report=rep11)
        return rep, 0, False
    if args.kind == "prop9":
        A = PoleSet(points=tuple(parse_complex_list(args.A)),
                    domain=None if D.kind == "disc" else D)
        B = PoleSet(points=tuple(parse_complex_list(args.B)),
                    domain=None if G.kind == "disc" else G)
        A1 = PoleSet(points=tuple(parse_complex_list(args.A1)),
                     domain=None if D.kind == "disc" else D)
        B1 = PoleSet(points=tuple(parse_complex_list(args.B1)),
                     domain=None if G.kind == "disc" else G)
        rep9 = prop9_extend(D, G, A, B, z, w, args.q, A1, B1)
        rep = _report("counterexample", {"kind": "prop9", "D": args.D, "G": args.G,
                                         "q": args.q}, t0, seed=args.seed,
                      value=rep9["g_product"], report=rep9)
        return rep, 0, False
    raise CliError(f"unknown counterexample kind {args.kind!r}")


def _cmd_verify(args) -> tuple:
    t0 = time.perf_counter()
    results = run_acceptance(only=args.only)
    if not results:
        raise CliError(f"no acceptance criterion matches --only {args.only!r}")
    all_pass = all(r.passed for r in results)
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        margin = f" margin={r.margin:.3e}" if r.margin is not None else ""
        print(f"[{mark}] {r.key}: {r.name}{margin} ({r.runtime_ms:.0f} ms)",
              file=sys.stderr)
    rep = _report("verify", {"only": args.only}, t0,
                  seed=args.seed,
                  value=None,
                  passed=all_pass,
                  criteria=[{"key": r.key, "name": r.name, "passed": r.passed,
                             "margin": r.margin, "runtime_ms": r.runtime_ms,
                             "details": r.details} for r in results])
    return rep, 0 if all_pass else 1, False


def build_parser() -> _Parser:
    p = _Parser(prog="lempertpoles",
                description="Lempert/Green functions with poles on plane domains")
    sub = p.add_subparsers(dest="subcommand", required=True)

    pe = sub.add_parser("eval", help="evaluate Lempert / Green functions")
    pe.add_argument("--domain", required=True, help="disc | punctured | annulus:R")
    pe.add_argument("--at", required=True, help="base point(s), comma separated")
    pe.add_argument("--poles", help="pole set, comma separated RE+IMi")
    pe.add_argument("--pole", help="single pole for l^N / green")
    pe.add_argument("--N", type=int, help="number of visits for l^N")
    pe.add_argument("--green", action="store_true", help="Green function instead of Lempert")
    pe.add_argument("--find-pole", dest="find_pole", type=float,
                    help="invert: find pole with this Lempert value")
    pe.add_argument("--direction", help="ray direction for --find-pole")
    pe.add_argument("--csv", action="store_true", help="flatten sweep output as CSV")
    pe.add_argument("--seed", type=int, default=0)
    pe.set_defaults(fn=_cmd_eval)

    pl = sub.add_parser("lemma4", help="constructive interpolation solver")
    pl.add_argument("--mu", required=True, help="targets, comma separated RE+IMi")
    pl.add_argument("--q", required=True, type=float, help="node-moduli product in (p,1)")
    pl.add_argument("--seed", type=int, default=0)
    pl.set_defaults(fn=_cmd_lemma4)

    pb = sub.add_parser("bidisc", help="bidisc Lempert upper bound by node optimization")
    pb.add_argument("--A", required=True)
    pb.add_argument("--B", required=True)
    pb.add_argument("--z", default="0+0i")
    pb.add_argument("--w", default="0+0i")
    pb.add_argument("--restarts", type=int, default=200)
    pb.add_argument("--seed", type=int, default=0)
    pb.set_defaults(fn=_cmd_bidisc)

    po = sub.add_parser("bounds", help="Theorem 5 two-sided bounds with certificate")
    po.add_argument("--D", required=True)
    po.add_argument("--G", required=True)
    po.add_argument("--A", required=True)
    po.add_argument("--b", required=True)
    po.add_argument("--z", required=True)
    po.add_argument("--w", required=True)
    po.add_argument("--seed", type=int, default=0)
    po.set_defaults(fn=_cmd_bounds)

    pc = sub.add_parser("counterexample", help="product-property counterexample builders")
    pc.add_argument("--kind", required=True, choices=["cor8", "prop9", "prop10", "prop11"])
    pc.add_argument("--D", default="disc")
    pc.add_argument("--G", default="disc")
    pc.add_argument("--A")
    pc.add_argument("--B")
    pc.add_argument("--A1")
    pc.add_argument("--B1")
    pc.add_argument("--z", default="0+0i")
    pc.add_argument("--w", default="0+0i")
    pc.add_argument("--b")
    pc.add_argument("--q", type=float)
    pc.add_argument("--N", type=int, default=2)
    pc.add_argument("--extra")
    pc.add_argument("--count", type=int, default=8)
    pc.add_argument("--seed", type=int, default=0)
    pc.set_defaults(fn=_cmd_counterexample)

    pv = sub.add_parser("verify", help="run the acceptance criteria suite")
    pv.add_argument("--only", help="filter criteria by key substring")
    pv.add_argument("--seed", type=int, default=0)
    pv.set_defaults(fn=_cmd_verify)
    return p


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        out, code, raw = args.fn(args)
    except ValueError as e:  # CliError included
        print(json.dumps({"error": str(e), "kind": "validation"}))
        return 2
    except Exception as e:  # numeric / internal failure
        print(json.dumps({"error": str(e), "kind": "internal"}))
        return 1
    if raw:
        print(out)
    else:
        print(json.dumps(_jsonify(out)))
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
