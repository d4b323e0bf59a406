#!/usr/bin/env python3
"""Write the repr of every output of one benchmark round, one line per operation.

Two checkouts give bit-identical outputs on a round exactly when their dumps
are equal, so a change is checked against its parent with one `diff`:

    python scripts/dump_outputs.py --workload certify --seed 1 --out new.txt
    python scripts/dump_outputs.py --workload certify --seed 1 --out old.txt \
        --root ../parent-checkout
    diff old.txt new.txt

Where the dumps differ, `--compare old.txt new.txt` says how: for each
line, the fields that are not byte-identical (a field of `meta` counts on
its own), the largest distance in ulps among their floats, and "different
root" where a node of `certificate_nodes` or `nodes` moved by more than
1e-12, so that a last-bits change is told from a different solution; a
moved node's move is also given relative to its modulus, in units of
2^-52, since a small component's ulps overstate it.  It ends with a count
per field.

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
import ast
import dataclasses
import math
import os
import re
import struct
import sys
from collections import Counter

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


NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|inf)")
NODE_FIELDS = ("certificate_nodes", "nodes")
# numpy 2's scalar repr, np.complex128(...) or np.float64(...), around a literal
NUMPY_SCALAR = re.compile(r"np\.\w+\(([^()]*)\)")
ROOT_MOVE = 1e-12
EPS = 2.0 ** -52


def _split_top(text: str, sep: str = ",") -> list:
    """text split at the separators outside brackets and quotes."""
    parts, depth, quote, start = [], 0, None, 0
    for i, ch in enumerate(text):
        if quote:
            quote = None if ch == quote else quote
        elif ch in "'\"":
            quote = ch
        elif ch in "([{<":
            depth += 1
        elif ch in ")]}>":
            depth -= 1
        elif ch == sep and depth == 0:
            parts.append(text[start:i].strip())
            start = i + 1
    parts.append(text[start:].strip())
    return [p for p in parts if p]


def fields(text: str) -> dict:
    """The named fields of one dumped output: name=value of a dataclass, and
    each entry of a dict-valued field as field.key; a list that starts with a
    dataclass, such as a bidisc (config, value), gives the fields of its
    dataclasses and output[i] for its other items; other outputs are one
    field, "output"."""
    if re.match(r"\[\w+\(", text):
        out = {}
        for i, item in enumerate(_split_top(text[1:-1])):
            out.update(fields(item) if re.fullmatch(r"\w+\(.*\)", item, re.S)
                       else {f"output[{i}]": item})
        return out
    m = re.fullmatch(r"\w+\((.*)\)", text, re.S)
    if not m:
        return {"output": text}
    out = {}
    for part in _split_top(m.group(1)):
        name, _, value = part.partition("=")
        if value.startswith("{") and value.endswith("}"):
            for entry in _split_top(value[1:-1]):
                key, _, v = entry.partition(":")
                out[f"{name}.{key.strip().strip(chr(39))}"] = v.strip()
        else:
            out[name] = value
    return out


def _ordered(x: float) -> int:
    i = struct.unpack("<q", struct.pack("<d", x))[0]
    return i if i >= 0 else -(i & 0x7FFFFFFFFFFFFFFF)


def ulps(old: str, new: str):
    """Largest distance in ulps between the floats of two field texts, None
    when they do not have the same count of numbers."""
    a, b = NUMBER.findall(old), NUMBER.findall(new)
    if len(a) != len(b):
        return None
    return max((abs(_ordered(float(x)) - _ordered(float(y))) for x, y in zip(a, b)), default=0)


def node_moves(old: str, new: str) -> tuple:
    """Largest move of a node between two field texts, absolute and relative
    to the node's modulus; infinite when they do not pair up."""
    try:
        a, b = (ast.literal_eval(NUMPY_SCALAR.sub(r"\1", text)) for text in (old, new))
    except (ValueError, SyntaxError):
        return math.inf, math.inf
    if len(a) != len(b):
        return math.inf, math.inf
    moves = [(abs(complex(x) - complex(y)), abs(complex(x) - complex(y)) / abs(complex(x)))
             for x, y in zip(a, b) if x != y]
    return tuple(max(m) for m in zip(*moves)) if moves else (0.0, 0.0)


def compare(old_path: str, new_path: str, out) -> int:
    """Write the field-by-field comparison of two dumps; 1 if they differ."""
    with open(old_path) as f:
        old = f.read().splitlines()
    with open(new_path) as f:
        new = f.read().splitlines()
    if len(old) != len(new):
        out.write(f"{len(old)} lines against {len(new)}\n")
        return 1
    changed, worst, roots, moved, rel = Counter(), {}, 0, 0, 0.0
    for lo, ln in zip(old, new):
        k, stratum, text_old = lo.split(" ", 2)
        text_new = ln.split(" ", 2)[2]
        fo, fn = fields(text_old), fields(text_new)
        notes = []
        for name in list(fo) + [n for n in fn if n not in fo]:
            if fo.get(name) == fn.get(name):
                continue
            changed[name] += 1
            if name not in fo or name not in fn:
                notes.append(f"{name} ({'new' if name in fn else 'old'} only)")
                continue
            d = ulps(fo[name], fn[name])
            worst[name] = max(worst.get(name, 0), d if d is not None else float("inf"))
            note = f"{name} ({'not comparable' if d is None else f'{d} ulps'})"
            if name.rpartition(".")[2] in NODE_FIELDS:
                move, move_rel = node_moves(fo[name], fn[name])
                moved += 1
                rel = max(rel, move_rel)
                note += f", moved {move:.3g} = {move_rel / EPS:.3g} ulps of |node|"
                if move > ROOT_MOVE:
                    note += " different root"
                    roots += 1
            notes.append(note)
        out.write(f"{k} {stratum}: {', '.join(notes) if notes else 'identical'}\n")
    out.write(f"{len(old)} lines, {sum(lo != ln for lo, ln in zip(old, new))} differ; nodes "
              f"moved on {moved}, at most {rel / EPS:.3g} ulps of |node|, "
              f"{roots} to a different root\n")
    for name, count in changed.most_common():
        out.write(f"  {name}: {count} lines" + (f", at most {worst[name]} ulps" if name in worst else "")
                  + "\n")
    return int(old != new)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                   help="compare two dumps field by field instead of dumping")
    p.add_argument("--panel", action="store_true",
                   help="dump the fixed bound_gap panel round, not the seeded one")
    p.add_argument("--root", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   help="checkout whose src/ and perfbench/ are used")
    p.add_argument("--out", default="-", help="output file (default: stdout)")
    args = p.parse_args(argv)
    if args.compare:
        return compare(*args.compare, sys.stdout)
    if args.workload is None or args.seed is None:
        p.error("--workload and --seed are required to dump a round")

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
