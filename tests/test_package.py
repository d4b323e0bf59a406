import os
import subprocess
import sys
from pathlib import Path

import lempertpoles


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition is deleted would break
    # `from lempertpoles import *`
    missing = [name for name in lempertpoles.__all__ if not hasattr(lempertpoles, name)]
    assert missing == []


SCIPY_FREE = """
import sys
sys.modules["scipy"] = None  # an import of scipy or of any submodule raises ImportError
import lempertpoles
import lempertpoles.cli as cli
from lempertpoles import PlaneDomain, PoleSet, green_plane, lempert_N_plane, theorem5_bounds
disc, punctured = PlaneDomain("disc"), PlaneDomain("punctured")
green_plane(punctured, 0.4 + 0.2j, -0.3 + 0.1j)
lempert_N_plane(punctured, 0.4 + 0.2j, -0.3 + 0.1j, 4)
A = PoleSet(points=(0.12 + 0.02j, -0.05 + 0.13j), domain=disc)
theorem5_bounds(disc, punctured, A, -0.43 + 0.14j, 0.1, 0.4)
assert cli.run(["eval", "--domain", "punctured", "--pole", "0.4+0.2i", "--at", "-0.3+0.1i",
                "--green"]) == 0
print("scipy modules:", sorted(m for m, v in sys.modules.items()
                               if m.split(".")[0] == "scipy" and v is not None))
"""


def test_package_runs_without_scipy():
    # in a child interpreter where scipy cannot be imported, on the import
    # path and on a punctured Green, Lempert, Theorem-5 and CLI call, so a
    # deferred import on any of these paths fails too
    src = Path(lempertpoles.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src),
                                                                     os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", SCIPY_FREE], env=env, capture_output=True,
                         text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "scipy modules: []"
