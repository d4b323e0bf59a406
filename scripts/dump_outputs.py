#!/usr/bin/env python3
"""Write the repr of every output of one benchmark round, one line per operation.

Two checkouts give bit-identical outputs on a round exactly when their dumps
are equal, so a change is checked against its parent with one `diff`:

    python scripts/dump_outputs.py --workload certify --seed 1 --out new.txt
    python scripts/dump_outputs.py --workload certify --seed 1 --out old.txt \
        --root ../parent-checkout
    diff old.txt new.txt

The round is the one perfbench/run.py times: `workloads.make_round` of the
checkout named by --root (default: this repository), run against that
checkout's ./src.  --panel dumps the fixed bound_gap panel round instead of
the seeded one.  Floats are written with repr, so every bit shows.  An
analytic disc (a certificate) is written as its values at 0 and at each of
the output's nodes; an operation that raises is written as its exception.
Nothing under perfbench/ is changed.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np


def _certificate_points(obj) -> tuple:
    for name in ("certificate_nodes", "nodes"):
        if hasattr(obj, name):
            return (0j,) + tuple(complex(v) for v in getattr(obj, name))
    return (0j,)


def describe(obj, points=(0j,)) -> str:
    """repr of an output with certificates replaced by their values."""
    if hasattr(obj, "eval") and hasattr(obj, "describe"):
        return "<disc " + ", ".join(repr(obj.eval(v)) for v in points) + ">"
    if dataclasses.is_dataclass(obj):
        pts = _certificate_points(obj)
        body = ", ".join(f"{f.name}={describe(getattr(obj, f.name), pts)}"
                         for f in dataclasses.fields(obj))
        return f"{type(obj).__name__}({body})"
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{k!r}: {describe(v, points)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(describe(v, points) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        return repr(obj.tolist())
    return repr(obj)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--panel", action="store_true",
                   help="dump the fixed bound_gap panel round, not the seeded one")
    p.add_argument("--root", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   help="checkout whose src/ and perfbench/ are used")
    p.add_argument("--out", default="-", help="output file (default: stdout)")
    args = p.parse_args(argv)

    root = os.path.abspath(args.root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import lempertpoles
    import lempertpoles.covering_domains
    import lempertpoles.disc_domain
    import lempertpoles.interpolation
    import lempertpoles.node_optimizer
    import lempertpoles.product_engine
    import workloads

    if not os.path.abspath(lempertpoles.__file__).startswith(os.path.join(root, "src") + os.sep):
        sys.exit(f"dump_outputs: lempertpoles was imported from {lempertpoles.__file__}")
    ops = workloads.make_round(lempertpoles, args.workload, args.seed, panel=args.panel)
    lines = []
    for k, op in enumerate(ops):
        try:
            text = describe(op.run())
        except Exception as exc:  # noqa: BLE001 - a raised operation is an output too
            text = f"raised {exc!r}"
        lines.append(f"{k} {op.stratum} {text}\n")
    if args.out == "-":
        sys.stdout.writelines(lines)
    else:
        with open(args.out, "w") as f:
            f.writelines(lines)
    return 0


if __name__ == "__main__":
    sys.exit(main())
