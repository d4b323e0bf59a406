"""Time the README's CLI examples in-process through lempertpoles.cli.run.

    python3 perfbench/cli_examples.py [--repeat 3]

Run from the repository root.  Each example runs --repeat times (once for
the slow `bidisc` and `verify` examples); the median wall time and the exit
code are printed as one JSON object per line.  These are reference figures
for the README, not part of the benchmark's gated metrics.
"""

import argparse
import contextlib
import io
import json
import os
import statistics
import sys
import time

EXAMPLES = (
    ("eval --domain disc --poles 0.5+0i,0+0.5i --at 0+0i", 0),
    ("eval --domain annulus:0.3 --pole 0.6+0.1i --at 0.5+0i --N 4", 0),
    ("eval --domain punctured --pole 0.4+0.2i --at -0.3+0.1i --green", 0),
    ("eval --domain annulus:0.2 --at 0.5+0i --find-pole 0.8 --direction 0+1i", 0),
    ("lemma4 --mu 0.3+0i,0+0.4i --q 0.9", 0),
    ("bidisc --A 0.5+0i,0+0.5i --B 0+0.5i,-0.5+0i --seed 7", 1),
    ("bounds --D disc --G annulus:0.1 --A 0.12+0.02i,-0.05+0.13i --b=-0.43+0.14i"
     " --z 0.1+0i --w 0.4+0i", 0),
    ("counterexample --kind prop10 --D annulus:0.3 --G annulus:0.5 --z 0.52+0.28i"
     " --w 0.32+-0.64i --b=-0.28+0.62i --N 4", 0),
    ("verify --only lemma4", 1),
)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--repeat", type=int, default=3)
    args = p.parse_args()
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from lempertpoles.cli import run

    for line, slow in EXAMPLES:
        argv = line.split()
        times, code = [], None
        for _ in range(1 if slow else args.repeat):
            sink = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
                code = run(argv)
            times.append(time.perf_counter() - t0)
        print(json.dumps({"example": line, "exit": code, "runs": len(times),
                          "median_ms": round(1e3 * statistics.median(times), 2)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
