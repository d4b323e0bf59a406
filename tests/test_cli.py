import io
import json
import shlex
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from lempertpoles.cli import parse_complex, run
from lempertpoles.interpolation import BISECT_RTOL, RESIDUAL_TOL
from lempertpoles.product_engine import EQUALITY_TOL


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(argv)
    return code, buf.getvalue()


def test_parse_complex_forms():
    assert parse_complex("0.5+0i") == 0.5
    assert parse_complex("-0.3+0.2i") == complex(-0.3, 0.2)
    assert parse_complex("0+0.5i") == 0.5j
    assert parse_complex("0.25") == 0.25
    assert parse_complex("1e-3+2e-2i") == complex(1e-3, 2e-2)
    assert parse_complex("0.32+-0.64i") == complex(0.32, -0.64)
    assert parse_complex("1e-3+-2e-2i") == complex(1e-3, -2e-2)
    with pytest.raises(ValueError):
        parse_complex("abc")


def test_eval_disc_product():
    code, out = run_cli(["eval", "--domain", "disc", "--poles", "0.5+0i,0+0.5i",
                         "--at", "0+0i"])
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == 0.25
    assert doc["command"] == "eval"
    assert doc["seed"] == 0


def test_single_json_document_on_stdout():
    code, out = run_cli(["eval", "--domain", "disc", "--poles", "0.5+0i", "--at", "0.1+0i"])
    assert code == 0
    json.loads(out)  # a single valid document, nothing else
    assert out.strip().count("\n") == 0


def test_lemma4_report():
    code, out = run_cli(["lemma4", "--mu", "0.3+0i,0+0.4i", "--q", "0.9"])
    assert code == 0
    doc = json.loads(out)
    assert doc["residual"] <= 1e-9
    assert abs(doc["value"] - 0.9) <= 1e-9
    assert len(doc["certificate"]["nodes"]) == 2


def test_seed_is_echoed():
    code, out = run_cli(["lemma4", "--mu", "0.3+0i,0+0.4i", "--q", "0.9", "--seed", "5"])
    assert code == 0
    assert json.loads(out)["seed"] == 5
    code, out = run_cli(["eval", "--domain", "disc", "--poles", "0.5+0i", "--at", "0+0i",
                         "--seed", "3"])
    assert json.loads(out)["seed"] == 3


def test_lemma4_zero_target_below_old_alpha_floor():
    code, out = run_cli(["lemma4", "--mu", "0+0i,0.5+0i", "--q", "1e-12"])
    assert code == 0
    doc = json.loads(out)
    assert doc["residual"] <= 1e-9 and doc["product_error"] <= 1e-9


def _readme_cli_examples():
    """argv of every line of the README's CLI block but `verify`, which has
    its own tests."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```")[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(ln)[1:] for ln in lines
            if ln.startswith("lempertpoles ") and not ln.startswith("lempertpoles verify")]


README_CLI_EXAMPLES = _readme_cli_examples()


@pytest.mark.parametrize("argv", README_CLI_EXAMPLES,
                         ids=[f"{i}-{argv[0]}" for i, argv in enumerate(README_CLI_EXAMPLES)])
def test_readme_cli_example_runs(argv):
    code, out = run_cli(argv)
    assert code == 0
    assert out.strip().count("\n") == 0
    assert json.loads(out)["command"] == argv[0]


def test_bidisc_rotation_flag_and_roundtrip():
    argv = ["bidisc", "--A", "0.5+0i,0+0.5i", "--B", "0+0.5i,-0.5+0i",
            "--seed", "7", "--restarts", "40"]
    code, out1 = run_cli(argv)
    assert code == 0
    doc = json.loads(out1)
    assert abs(doc["value"] - 0.25) <= 1e-6
    assert doc["rotation"] == pytest.approx(1.5707963267948966)
    margins = doc["certificate"]["pick_margins"]
    assert len(margins) == 2 and min(margins) > 0.0
    # re-running with the echoed inputs reproduces the value bit for bit
    argv2 = ["bidisc", "--A", doc["inputs"]["A"], "--B", doc["inputs"]["B"],
             "--z", doc["inputs"]["z"], "--w", doc["inputs"]["w"],
             "--seed", str(doc["seed"]), "--restarts", str(doc["inputs"]["restarts"])]
    _, out2 = run_cli(argv2)
    assert json.loads(out2)["value"] == doc["value"]


def test_bounds_command():
    code, out = run_cli(["bounds", "--D", "disc", "--G", "annulus:0.1",
                         "--A", "0.12+0.02i,-0.05+0.13i", "--b", "-0.43+0.14i",
                         "--z", "0.1+0i", "--w", "0.4+0i"])
    assert code == 0
    doc = json.loads(out)
    assert doc["bounds"]["lower"] <= doc["bounds"]["upper"] + 1e-12
    assert doc["equality_flag"] is False
    # the slack ladder's outcome: every rung certified, the bound the last
    meta = doc["meta"]
    assert meta["rungs_tried"] >= 1 and meta["rungs_certified"] == meta["rungs_tried"]


def test_reported_tolerances_are_the_solver_constants():
    code, out = run_cli(["lemma4", "--mu", "0.3+0i,0+0.4i", "--q", "0.9"])
    assert code == 0
    assert json.loads(out)["tolerances"] == {"residual": RESIDUAL_TOL, "product": BISECT_RTOL}
    code, out = run_cli(["bounds", "--D", "disc", "--G", "disc", "--A", "0.5+0i,0+0.5i",
                         "--b", "0.3-0.2i", "--z", "0.1+0.05i", "--w", "-0.2+0.1i"])
    assert code == 0
    assert json.loads(out)["tolerances"] == {"equality": EQUALITY_TOL}


def test_counterexample_cor8():
    code, out = run_cli(["counterexample", "--kind", "cor8", "--A", "0.5+0i,0+0.5i",
                         "--B", "0+0.5i,-0.5+0i", "--z", "0.2+0i", "--count", "5"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["samples"]) == 5
    assert sum(s["automorphism"] for s in doc["samples"]) <= 2


def test_validation_errors_exit_2():
    code, out = run_cli(["eval", "--domain", "nope", "--at", "0+0i", "--poles", "0.1+0i"])
    assert code == 2
    assert json.loads(out)["kind"] == "validation"
    code, out = run_cli(["eval", "--domain", "disc", "--at", "0+0i"])
    assert code == 2
    code, out = run_cli(["lemma4", "--mu", "0.5+0i", "--q", "0.2"])
    assert code == 2  # q below p


@pytest.mark.parametrize("domain", ["punctured", "disc"])
def test_green_pole_set_hit_is_zero_in_either_order(domain):
    # a pole at the base point makes the Green product 0, wherever it stands
    for poles in ("0.5+0i,0.3+0i", "0.3+0i,0.5+0i"):
        code, out = run_cli(["eval", "--domain", domain, "--poles", poles,
                             "--at", "0.5+0i", "--green"])
        assert code == 0
        assert json.loads(out)["value"] == 0.0, poles


@pytest.mark.parametrize("argv, missing", [
    (["--kind", "cor8", "--A", "0.5+0i,0+0.5i"], "--B"),
    (["--kind", "prop9", "--A", "0.3+0i", "--B", "0.4+0i", "--A1", "0.9+0i",
      "--B1", "0.5+0i"], "--q"),
    (["--kind", "prop10", "--G", "annulus:0.3"], "--b"),
    (["--kind", "prop11", "--G", "annulus:0.3", "--b", "0.5+0i"], "--extra"),
])
def test_counterexample_missing_flag_exits_2(argv, missing):
    code, out = run_cli(["counterexample", *argv])
    doc = json.loads(out)
    assert code == 2
    assert doc["kind"] == "validation"
    assert missing in doc["error"]


def test_counterexample_prop9_needs_no_b():
    code, out = run_cli(["counterexample", "--kind", "prop9", "--A", "0.3+0i", "--B", "0.4+0i",
                         "--A1", "0.9+0i", "--B1", "0.5+0i", "--q", "0.5"])
    assert code == 0
    assert json.loads(out)["report"]["q"] == 0.5


def test_unknown_flag_rejected():
    for argv in (["eval", "--domain", "disc", "--poles", "0.5+0i", "--at", "0+0i",
                  "--bogus", "1"],
                 ["bidisc", "--A", "0.5+0i,0+0.5i", "--B", "0+0.5i,-0.5+0i",
                  "--threads", "2"],
                 ["verify", "--only", "lemma4", "--threads", "4"]):
        code, out = run_cli(argv)
        assert code == 2, argv
        assert json.loads(out)["kind"] == "validation"


def test_numeric_failure_exits_1(monkeypatch):
    # an internal consistency failure is not an input error
    from lempertpoles import cli
    from lempertpoles.product_engine import BoundsReport

    def inconsistent(*args):
        return BoundsReport(lower=0.5, upper=0.4, certificate=None,
                            certificate_nodes=(), equality_flag=False)

    monkeypatch.setattr(cli, "theorem5_bounds", inconsistent)
    code, out = run_cli(["bounds", "--D", "disc", "--G", "disc", "--A", "0.5+0i",
                         "--b", "0.3+0i", "--z", "0+0i", "--w", "0+0i"])
    assert code == 1
    doc = json.loads(out)
    assert doc["kind"] == "internal"
    assert doc["error"] == "lower bound exceeds upper bound"


@pytest.mark.parametrize("argv", [
    ["bounds", "--D", "disc", "--G", "disc", "--A", "0.5+0i", "--b", "0.3+0i",
     "--z", "1.5+0i", "--w", "0+0i"],
    ["eval", "--domain", "punctured", "--pole", "0+0i", "--at", "0.5+0i"],
    ["bidisc", "--A", "0.5+0i", "--B", "0.5j", "--restarts", "0"],
    ["counterexample", "--kind", "prop10", "--G", "annulus:0.3", "--b", "0.1+0i"],
])
def test_inputs_built_from_flags_exit_2(argv):
    # points outside their domain and settings the optimizer rejects are
    # input errors, found before any computation starts
    code, out = run_cli(argv)
    assert code == 2
    assert json.loads(out)["kind"] == "validation"


def test_value_error_inside_a_computation_exits_1(monkeypatch):
    from lempertpoles import cli

    def failing(problem):
        raise ValueError("no crossing")

    monkeypatch.setattr(cli, "lemma4_solve", failing)
    code, out = run_cli(["lemma4", "--mu", "0.3+0i,0+0.4i", "--q", "0.9"])
    assert code == 1
    assert json.loads(out) == {"error": "no crossing", "kind": "internal"}


def test_lemma4_tiny_q():
    code, out = run_cli(["lemma4", "--mu", "0+0i,0.5+0i", "--q", "1e-300"])
    assert code == 0
    assert abs(json.loads(out)["value"] - 1e-300) <= 1e-9 * 1e-300


def test_lemma4_residual_above_tol_exits_1():
    code, out = run_cli(["lemma4", "--mu", "0.3+0i,0+0.4i", "--q", "0.999999999"])
    assert code == 1
    doc = json.loads(out)
    assert doc["kind"] == "internal" and "residual" in doc["error"]


def test_eval_find_pole_readme_example():
    from lempertpoles.covering_domains import PlaneDomain, lempert_poleset_plane
    from lempertpoles.disc_domain import PoleSet

    code, out = run_cli(["eval", "--domain", "annulus:0.2", "--at", "0.5+0i",
                         "--find-pole", "0.8", "--direction", "0+1i"])
    assert code == 0
    (row,) = json.loads(out)["values"]
    dom = PlaneDomain("annulus", R=0.2)
    pole = parse_complex(row["pole"])
    assert abs(lempert_poleset_plane(dom, PoleSet(points=(pole,), domain=dom), 0.5).value
               - 0.8) <= 1e-10


def test_eval_find_pole_small_level():
    # a level below l at the scan's first grid point is bracketed from z
    from lempertpoles.covering_domains import PlaneDomain, lempert_poleset_plane
    from lempertpoles.disc_domain import PoleSet

    code, out = run_cli(["eval", "--domain", "annulus:0.2", "--at", "0.5+0i",
                         "--find-pole", "1e-9", "--direction", "0+1i"])
    assert code == 0
    (row,) = json.loads(out)["values"]
    dom = PlaneDomain("annulus", R=0.2)
    pole = parse_complex(row["pole"])
    assert abs(lempert_poleset_plane(dom, PoleSet(points=(pole,), domain=dom), 0.5).value
               - 1e-9) <= 1e-10


def test_eval_find_pole_level_outside_unit_interval_exits_1():
    code, out = run_cli(["eval", "--domain", "annulus:0.2", "--at", "0.5+0i",
                         "--find-pole", "1.5", "--direction", "0+1i"])
    assert code == 1
    assert json.loads(out) == {"error": "t must be in (0, 1)", "kind": "internal"}


def test_eval_find_pole_zero_direction_exits_1():
    code, out = run_cli(["eval", "--domain", "disc", "--at", "0+0i",
                         "--find-pole", "0.5", "--direction", "0+0i"])
    assert code == 1
    assert json.loads(out) == {"error": "direction must be nonzero", "kind": "internal"}


def test_eval_N_zero_is_refused_not_read_as_one():
    code, out = run_cli(["eval", "--domain", "disc", "--pole", "0.5+0i", "--at", "0+0i",
                         "--N", "0"])
    assert code == 1
    assert json.loads(out) == {"error": "N must be in 1..1000", "kind": "internal"}


def test_csv_sweep():
    code, out = run_cli(["eval", "--domain", "disc", "--poles", "0.5+0i",
                         "--at", "0+0i,0.1+0i,0.2+0i", "--csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "at,value"
    assert len(lines) == 4


def test_verify_single_fast_criterion(capsys):
    code, out = run_cli(["verify", "--only", "annulus_green"])
    doc = json.loads(out)
    assert doc["criteria"][0]["key"] == "annulus_green_oracle"
    assert doc["criteria"][0]["passed"] is True
    assert code == 0


def test_verify_negative_control():
    # a tampered tolerance must fail with the criterion named
    from lempertpoles.acceptance import c4_annulus_green
    r = c4_annulus_green(rel_tol=1e-16)
    assert not r.passed
    assert r.key == "annulus_green_oracle"
