import csv
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import bvis.counting
from bvis.cli import main, parse_b_spec
from bvis.errors import UsageError
from bvis.visibility import constrained_exponents, is_visible_int, is_visible_rat, is_visible_signed
from bvis.zeta import inv_zeta


@pytest.fixture()
def runner():
    return CliRunner()


def test_version(runner):
    # read from bvis.__version__, so it works from a source tree too
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0, result.output
    assert "0.1.0" in result.output


# ---------------------------------------------------------------- b-spec parsing


def test_parse_b_spec_inference():
    case, vec = parse_b_spec("2,4,3,7", None)
    assert case == "int"
    assert vec.entries == (2, 4, 3, 7)

    case, vec = parse_b_spec("2/3,1/2", None)
    assert case == "rat"
    assert vec.numerators == (2, 1)

    case, vec = parse_b_spec("1,-2", None)
    assert case == "signed"
    assert vec.negative_indices == frozenset({1})

    # integers are valid rationals when the case is forced
    case, vec = parse_b_spec("1,2", "rat")
    assert case == "rat"
    assert vec.denominators == (1, 1)


def test_parse_b_spec_rejections():
    with pytest.raises(UsageError):
        parse_b_spec("1,x", None)
    with pytest.raises(UsageError):
        parse_b_spec("", None)
    with pytest.raises(UsageError):
        parse_b_spec("1/2,1/2", "int")  # fractions cannot be demoted
    with pytest.raises(UsageError):
        parse_b_spec("1,-2", "rat")  # negatives require the signed case
    with pytest.raises(UsageError):
        parse_b_spec("1/0", None)


# ---------------------------------------------------------------- check


def test_check_invisible_json(runner):
    result = runner.invoke(
        main, ["check", "--b", "2,4,3,7", "--point", "4,16,40,128", "--format", "json"]
    )
    assert result.exit_code == 0
    assert json.loads(result.stdout) == {
        "b": ["2", "4", "3", "7"],
        "case": "int",
        "point": [4, 16, 40, 128],
        "visible": False,
        "witness_prime": 2,
        "image": [1, 1, 5, 1],
    }


def test_check_plain(runner):
    visible = runner.invoke(main, ["check", "--b", "2,4,3,7", "--point", "1,1,5,1"])
    assert visible.exit_code == 0
    assert visible.stdout == "visible\n"

    invisible = runner.invoke(main, ["check", "--b", "2,4,3,7", "--point", "4,16,40,128"])
    assert invisible.exit_code == 0
    assert invisible.stdout == "invisible: witness prime 2, image 1,1,5,1\n"


def test_check_expanded_point(runner):
    # b=(2/3,1/2): expanded (16,8) = (4**2, 2**3) sits over the base (4,2),
    # which 2 witnesses (2**2 | 4 and 2**1 | 2)
    result = runner.invoke(
        main,
        ["check", "--b", "2/3,1/2", "--point", "16,8", "--expanded", "--format", "json"],
    )
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload["point"] == [4, 2]
    assert payload["visible"] is False
    assert payload["witness_prime"] == 2

    off_lattice = runner.invoke(
        main, ["check", "--b", "2/3,1/2", "--point", "16,7", "--expanded"]
    )
    assert off_lattice.exit_code == 2

    not_fractional = runner.invoke(
        main, ["check", "--b", "1,2", "--point", "4,8", "--expanded"]
    )
    assert not_fractional.exit_code == 2


# (args, stdout in plain, json and csv)
_CHECK_CASES = {
    "int-invisible": (
        "--b 2,4,3,7 --point 4,16,40,128",
        "invisible: witness prime 2, image 1,1,5,1\n",
        '{"b": ["2", "4", "3", "7"], "case": "int", "point": [4, 16, 40, 128], '
        '"visible": false, "witness_prime": 2, "image": [1, 1, 5, 1]}\n',
        'b,case,point,visible,witness_prime,image\n"2,4,3,7",int,"4,16,40,128",False,2,"1,1,5,1"\n',
    ),
    "int-visible": (
        "--b 2,4,3,7 --point 1,1,5,1",
        "visible\n",
        '{"b": ["2", "4", "3", "7"], "case": "int", "point": [1, 1, 5, 1], '
        '"visible": true, "witness_prime": null, "image": null}\n',
        'b,case,point,visible,witness_prime,image\n"2,4,3,7",int,"1,1,5,1",True,,\n',
    ),
    "rat-expanded-invisible": (
        "--b 2/3,1/2 --point 16,8 --expanded",
        "invisible: witness prime 2\n",
        '{"b": ["2/3", "1/2"], "case": "rat", "point": [4, 2], '
        '"visible": false, "witness_prime": 2, "image": null}\n',
        'b,case,point,visible,witness_prime,image\n"2/3,1/2",rat,"4,2",False,2,\n',
    ),
    "rat-expanded-visible": (
        "--b 2/3,1/2 --point 9,8 --expanded",
        "visible\n",
        '{"b": ["2/3", "1/2"], "case": "rat", "point": [3, 2], '
        '"visible": true, "witness_prime": null, "image": null}\n',
        'b,case,point,visible,witness_prime,image\n"2/3,1/2",rat,"3,2",True,,\n',
    ),
    # t = 2 maps (5, 4) to (10, 1)
    "signed-invisible": (
        "--b 1,-2 --point 5,4",
        "invisible: witness prime 2\n",
        '{"b": ["1", "-2"], "case": "signed", "point": [5, 4], '
        '"visible": false, "witness_prime": 2, "image": null}\n',
        'b,case,point,visible,witness_prime,image\n"1,-2",signed,"5,4",False,2,\n',
    ),
    "signed-visible": (
        "--b 1,-2 --point 5,6",
        "visible\n",
        '{"b": ["1", "-2"], "case": "signed", "point": [5, 6], '
        '"visible": true, "witness_prime": null, "image": null}\n',
        'b,case,point,visible,witness_prime,image\n"1,-2",signed,"5,6",True,,\n',
    ),
    "signed-no-negative-entry": (
        "--b 1,2 --case signed --point 4,8",
        "visible\n",
        '{"b": ["1", "2"], "case": "signed", "point": [4, 8], '
        '"visible": true, "witness_prime": null, "image": null}\n',
        'b,case,point,visible,witness_prime,image\n"1,2",signed,"4,8",True,,\n',
    ),
}


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
@pytest.mark.parametrize("name", list(_CHECK_CASES))
def test_check_frozen_output(runner, name, fmt):
    args, plain, as_json, as_csv = _CHECK_CASES[name]
    result = runner.invoke(main, ["check", *args.split(), "--format", fmt])
    assert result.exit_code == 0
    assert result.stdout == {"plain": plain, "json": as_json, "csv": as_csv}[fmt]
    assert result.stderr == ""


def test_check_factors_a_61_bit_gcd(runner):
    p = 2**61 - 1
    result = runner.invoke(main, ["check", "--b", "1,1", "--point", f"{p},{2 * p}"])
    assert result.exit_code == 0
    assert result.stdout == f"invisible: witness prime {p}, image 1,2\n"


@pytest.mark.parametrize(
    "gcd,reason",
    [
        # rho would need about 2**32 steps
        ((2**64 - 59) * (2**64 - 83), "error: cannot split a 128-bit composite"),
        # past the bound where Miller-Rabin to the bases 2..41 is exact
        (2**90 - 33, "error: cannot certify a 90-bit probable prime"),
    ],
    ids=["two-64-bit-primes", "90-bit-prime"],
)
def test_check_refuses_an_unfactorable_gcd_quickly(runner, gcd, reason):
    start = time.perf_counter()
    result = runner.invoke(main, ["check", "--b", "1,1", "--point", f"{gcd},{2 * gcd}"])
    assert time.perf_counter() - start < 5
    assert result.exit_code == 4
    assert result.stdout == ""
    assert result.stderr.startswith(reason)


# ---------------------------------------------------------------- count


def test_count_explicit_box(runner):
    result = runner.invoke(
        main,
        ["count", "--b", "2/3,1/2", "--case", "rat", "--box", "8,4", "--format", "json"],
    )
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload == {
        "b": ["2/3", "1/2"],
        "case": "rat",
        "box": [8, 4],
        "visible": "28",
        "total": "32",
    }


def test_count_requires_box_or_n(runner):
    result = runner.invoke(main, ["count", "--b", "1,1"])
    assert result.exit_code == 2
    assert "error" in result.stderr

    both = runner.invoke(main, ["count", "--b", "1,1", "--N", "5", "--box", "5,5"])
    assert both.exit_code == 2


@pytest.mark.parametrize(
    "args,stdout,stderr",
    [
        (
            "count --b 1,1 --box 0,5",
            "b: 1,1\ncase: int\nbox: 0,5\nvisible: 0\ntotal: 0\n",
            "",
        ),
        (
            "count --b 1,-2 --box 8,4 --format json",
            '{"b": ["1", "-2"], "case": "signed", "box": [8, 4], "visible": "24", "total": "32"}\n',
            "",
        ),
        (  # a signed vector with no negative entry: every point is visible
            "count --b 1,1 --N 10 --case signed",
            "b: 1,1\ncase: signed\nbox: 10,10\nvisible: 100\ntotal: 100\n",
            "",
        ),
        (
            "density --b 1/2,2/3 --N 50",
            "b: 1/2,2/3\ncase: rat\nbox: 3,7\nvisible: 20\ntotal: 21\n"
            "empirical: 0.9523809523809523\nexponent_sum: 3\n"
            "theoretical: 0.8319073725807075\nabs_error: 0.12047357980024487\n",
            "",
        ),
        (
            "density --b 1 --N 10",
            "b: 1\ncase: int\nbox: 10\nvisible: 1\ntotal: 10\nempirical: 0.1\n"
            "exponent_sum: 1\ntheoretical: -\nabs_error: -\n",
            "",
        ),
        (
            "density --b 2,4 --N 50 --format csv",
            "b,case,box,visible,total,empirical,exponent_sum,theoretical,abs_error\n"
            '"2,4",int,"50,50",2101,2500,0.8404,3,0.8319073725807075,0.008492627419292575\n',
            "note: exponents share gcd 2; visibility is equivalent to the reduced "
            "vector (1,2), which sets the density\n",
        ),
    ],
)
def test_count_and_density_frozen_output(runner, args, stdout, stderr):
    result = runner.invoke(main, args.split())
    assert result.exit_code == 0
    assert result.stdout == stdout
    assert result.stderr == stderr


# ---------------------------------------------------------------- density


def test_density_json_is_consistent(runner):
    result = runner.invoke(
        main, ["density", "--b", "1,2", "--N", "200", "--format", "json"]
    )
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload["case"] == "int"
    assert payload["box"] == [200, 200]
    visible = int(payload["visible"])
    total = int(payload["total"])
    assert total == 200 * 200
    assert payload["empirical"] == pytest.approx(visible / total, abs=1e-12)
    assert payload["exponent_sum"] == 3
    assert payload["theoretical"] == pytest.approx(inv_zeta(3, 1e-9), abs=1e-5)
    assert payload["abs_error"] == pytest.approx(
        abs(payload["empirical"] - payload["theoretical"]), abs=1e-12
    )


def test_density_gcd_note_goes_to_stderr(runner):
    result = runner.invoke(
        main, ["density", "--b", "2,4", "--N", "50", "--format", "json"]
    )
    assert result.exit_code == 0
    assert "reduced vector (1,2)" in result.stderr
    payload = json.loads(result.stdout)  # stdout stays machine-readable
    assert payload["b"] == ["2", "4"]
    assert payload["exponent_sum"] == 3


def test_density_csv_matches_json(runner):
    args = ["density", "--b", "1,-2", "--N", "500"]
    as_json = json.loads(
        runner.invoke(main, args + ["--format", "json"]).stdout
    )
    as_csv = runner.invoke(main, args + ["--format", "csv"]).stdout
    row = next(csv.DictReader(io.StringIO(as_csv)))
    assert row["visible"] == as_json["visible"]
    assert row["total"] == as_json["total"]
    assert float(row["empirical"]) == pytest.approx(as_json["empirical"], abs=1e-12)
    assert float(row["theoretical"]) == pytest.approx(as_json["theoretical"], abs=1e-12)
    assert row["box"] == "500,500"


# ---------------------------------------------------------------- sieve


def test_sieve_frozen_output(runner):
    plain = runner.invoke(main, ["sieve", "--N", "3", "--b", "1,1"])
    assert plain.exit_code == 0
    assert plain.stdout.splitlines() == [
        "1,1",
        "1,2",
        "1,3",
        "2,1",
        "2,3",
        "3,1",
        "3,2",
    ]

    as_json = json.loads(
        runner.invoke(main, ["sieve", "--N", "3", "--b", "1,1", "--format", "json"]).stdout
    )
    assert as_json["count"] == 7
    assert as_json["points"] == [
        [x, y] for x in range(1, 4) for y in range(1, 4) if math.gcd(x, y) == 1
    ]

    as_csv = runner.invoke(
        main, ["sieve", "--N", "3", "--b", "1,1", "--format", "csv"]
    ).stdout
    assert as_csv.splitlines()[0] == "x1,x2"
    assert len(as_csv.splitlines()) == 8


@pytest.mark.parametrize(
    "spec,case,edges",
    [
        ("2,4", None, (12, 12)),
        ("2/3,3/2", None, (12, 12)),
        ("3,-2,-3", None, (5, 6, 8)),
        ("1,2", "signed", (3, 3)),  # no negative entry: every point is visible
    ],
)
def test_sieve_lists_the_points_the_predicates_accept(runner, spec, case, edges):
    kind, vector = parse_b_spec(spec, case)
    predicate = {"int": is_visible_int, "rat": is_visible_rat, "signed": is_visible_signed}[kind]
    args = ["sieve", "--b", spec, "--box", ",".join(map(str, edges)), "--format", "json"]
    result = runner.invoke(main, args + (["--case", case] if case else []))
    assert result.exit_code == 0
    expected = [
        list(pt) for pt in itertools.product(*(range(1, e + 1) for e in edges)) if predicate(pt, vector)
    ]
    assert json.loads(result.stdout)["points"] == expected


_RAT_SIEVE = "1,1\n1,2\n1,3\n1,4\n2,1\n2,2\n2,3\n2,4\n3,1\n3,2\n3,3\n3,4\n4,1\n4,3\n"
_SIGNED_SIEVE = "1,1\n1,2\n1,3\n1,5\n2,1\n2,2\n2,3\n2,5\n3,1\n3,2\n3,3\n3,5\n"


@pytest.mark.parametrize(
    "args,stdout",
    [
        # numerators (2, 1): 2**2 | 4 and 2 | 2, 4 drop out
        ("--b 2/3,1/2 --box 4,4", _RAT_SIEVE),
        ("--b 2/3,1/2 --box 4,4 --format csv", "x1,x2\n" + _RAT_SIEVE),
        # only the second coordinate decides: 4 = 2**2 drops out
        ("--b 1,-2 --box 3,5", _SIGNED_SIEVE),
        ("--b 1,-2 --box 3,5 --format csv", "x1,x2\n" + _SIGNED_SIEVE),
    ],
)
def test_sieve_frozen_rational_and_signed_output(runner, args, stdout):
    result = runner.invoke(main, ["sieve", *args.split()])
    assert result.exit_code == 0
    assert result.stdout == stdout
    assert result.stderr == ""


def test_sieve_resource_limits(runner):
    over_default = runner.invoke(main, ["sieve", "--N", "4000", "--b", "1,1"])
    assert over_default.exit_code == 4
    assert "error" in over_default.stderr

    env_narrowed = runner.invoke(
        main, ["sieve", "--N", "30", "--b", "1,1"], env={"BVIS_BRUTE_LIMIT": "100"}
    )
    assert env_narrowed.exit_code == 4

    raised = runner.invoke(
        main,
        ["sieve", "--N", "30", "--b", "1,1", "--limit", "1000", "--format", "json"],
    )
    assert raised.exit_code == 0
    assert json.loads(raised.stdout)["count"] == 555


@pytest.mark.parametrize(
    "fmt,stdout",
    [
        ("plain", ""),
        ("csv", "x1,x2\n"),
        ("json", '{"b": ["1", "1"], "case": "int", "box": [5, 0], "count": 0, "points": []}\n'),
    ],
)
def test_sieve_of_an_empty_box(runner, fmt, stdout):
    result = runner.invoke(main, ["sieve", "--b", "1,1", "--box", "5,0", "--format", fmt])
    assert result.exit_code == 0
    assert result.stdout == stdout
    assert result.stderr == ""


_SIEVE_VECTORS = (
    # int, with and without a common factor
    "1", "2", "1,1", "1,2", "2,4", "3,3", "1,1,1", "1,2,3",
    # rat
    "1/2", "2/3,1/2", "2/3,3/2", "1/2,1/3,1/5",
    # signed: free coordinates before, between and after the constrained ones
    "-1", "-1/2", "-1,2", "1,-2", "2,-1,3", "1,-2,3", "3,-2,-3", "-1,-1,-1",
)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(_SIEVE_VECTORS + ("1,2 signed", "1 signed")).flatmap(
        lambda spec: st.tuples(
            st.just(spec),
            st.tuples(*[st.integers(min_value=0, max_value=12)] * len(spec.split()[0].split(","))),
        )
    )
)
def test_sieve_lists_what_the_witness_loop_accepts(spec_edges):
    # "1,2 signed" has no negative entry, so the marker gets no rows
    spec, edges = spec_edges
    b_spec, *case = spec.split()
    kind, vector = parse_b_spec(b_spec, case[0] if case else None)
    witness = constrained_exponents(kind, vector).witness
    grid = itertools.product(*(range(1, m + 1) for m in edges))
    expected = [list(pt) for pt in grid if witness(pt) is None]
    args = ["sieve", "--b", b_spec, "--box", ",".join(map(str, edges)), "--format", "json"]
    result = CliRunner().invoke(main, args + ["--case", case[0]] if case else args)
    assert result.exit_code == 0, result.output
    assert json.loads(result.stdout)["points"] == expected


@pytest.mark.parametrize(
    "args,env,stderr",
    [
        ("--limit 0", {}, "error: --limit must be an integer >= 1, got 0\n"),
        ("--limit -1", {}, "error: --limit must be an integer >= 1, got -1\n"),
        ("", {"BVIS_BRUTE_LIMIT": "abc"}, "error: BVIS_BRUTE_LIMIT must be an integer >= 1, got 'abc'\n"),
    ],
)
def test_sieve_rejects_a_bad_limit(runner, args, env, stderr):
    result = runner.invoke(main, ["sieve", "--b", "1,1", "--N", "3", *args.split()], env=env)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == stderr


# ---------------------------------------------------------------- zeta


def test_zeta_command(runner):
    result = runner.invoke(main, ["zeta", "--s", "3", "--format", "json"])
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    zeta3 = 1.2020569031595943
    assert abs(payload["value"] - zeta3) <= payload["tail_bound"] <= 1e-9
    assert payload["terms"] >= 1

    bad = runner.invoke(main, ["zeta", "--s", "1"])
    assert bad.exit_code == 2


# ---------------------------------------------------------------- numpy on demand

_NUMPY_PROBE = """
import sys
from bvis import arith
from bvis.cli import main

def run(*args):
    try:
        main(list(args), prog_name="bvis")
    except SystemExit as exc:
        assert not exc.code, (args, exc.code)

assert "numpy" not in sys.modules, "import bvis.cli"
run("check", "--b", "2,4,3,7", "--point", "4,16,40,128")
assert "numpy" not in sys.modules, "check"
run("sieve", "--b", "1,-2", "--N", "3", "--format", "csv")
assert "numpy" not in sys.modules, "sieve"
run("verify", "--profile", "quick")
assert "numpy" not in sys.modules, "verify"
run("zeta", "--s", "2", "--euler-limit", "100000", "--format", "json")
assert "numpy" not in sys.modules, "zeta"
run("density", "--b", "1,1", "--N", "1000000", "--format", "json")
assert "numpy" not in sys.modules, "density"
run("count", "--b", "1,1", "--N", "100", "--format", "json")
assert "numpy" not in sys.modules, "count"
# b = (1, 2) sums over every d up to the depth, so this table is the crossover's size
run("count", "--b", "1,2", "--N", str(arith.PURE_SIEVE_LIMIT**2), "--format", "csv")
assert "numpy" in sys.modules, "count past the crossover"
"""


def test_check_sieve_and_zeta_never_import_numpy():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0] == "invisible: witness prime 2, image 1,1,5,1"
    assert lines[1:5] == ["x1,x2", "1,1", "1,2", "1,3"]  # 9 points, none with 4 | x2
    assert lines[24] == "12/12 checks passed (quick profile)"  # verify, 14 lines from 11 on
    zeta = json.loads(lines[-5])
    assert zeta["value"] == pytest.approx(math.pi**2 / 6, abs=1e-9)
    assert 0 < zeta["value"] - zeta["euler_product"] < 1e-5
    assert json.loads(lines[-4])["visible"] == "607927104783"  # OEIS A018805(10**6)
    assert json.loads(lines[-3])["visible"] == "6087"  # OEIS A018805(100)


# ---------------------------------------------------------------- exit codes


def test_usage_errors_exit_2(runner):
    mismatched = runner.invoke(main, ["check", "--b", "1,2", "--point", "1,2,3"])
    assert mismatched.exit_code == 2
    assert "error" in mismatched.stderr

    bad_spec = runner.invoke(main, ["check", "--b", "1,x", "--point", "1,2"])
    assert bad_spec.exit_code == 2


@pytest.mark.parametrize(
    "args,stderr",
    [
        # the choice of --N or --box is checked before the exponent spec
        ("count --b 1,x", "error: need exactly one of --N or --box\n"),
        ("sieve --b 1,x", "error: need exactly one of --N or --box\n"),
        ("count --b 1,x --box 3", "error: bad exponent entry 'x'; expected [-]digits[/digits]\n"),
        ("count --b 1,1 --box 3", "error: --box has 1 edges, exponent vector has 2\n"),
        ("count --b 1,1 --box 3,x", "error: --box must be comma-separated integers, got '3,x'\n"),
        ("count --b 1,1 --N 0", "error: --N must be >= 1, got 0\n"),
        ("density --b 1,1 --N 0", "error: --N must be >= 1, got 0\n"),
        ("density --b 1,x --N 0", "error: bad exponent entry 'x'; expected [-]digits[/digits]\n"),
        # a bad N is reported before the gcd-one condition (exit 3)
        ("density --b 2/3,2/3 --N 0", "error: --N must be >= 1, got 0\n"),
        ("check --b 1,2 --point 1,2,3", "error: point has 3 coordinates, exponent vector has 2\n"),
    ],
)
def test_usage_error_precedence(runner, args, stderr):
    result = runner.invoke(main, args.split())
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == stderr


def test_precondition_errors_exit_3(runner):
    result = runner.invoke(main, ["check", "--b", "2/3,2/3", "--point", "2,3"])
    assert result.exit_code == 3
    assert "gcd-one condition" in result.stderr


def test_count_and_density_share_the_gcd_one_error(runner):
    message = (
        "error: exponent vector (2/3, -2/3) violates the gcd-one condition: "
        "no integer combination of the entries equals 1\n"
    )
    for args in (
        ["count", "--b", "2/3,-2/3", "--box", "8,4"],
        ["density", "--b", "2/3,-2/3", "--N", "100"],
    ):
        result = runner.invoke(main, args)
        assert result.exit_code == 3
        assert result.stderr == message


def test_density_past_the_mertens_budget_exits_4(runner):
    tracemalloc.start()
    try:
        result = runner.invoke(main, ["density", "--b", "1,1", "--N", str(10**30)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.exit_code == 4
    assert "exceeds memory budget" in result.stderr
    assert "bytes" in result.stderr
    assert peak < 4 << 20  # refused before any sieve array existed


def test_zeta_euler_limit_past_the_sieve_budget_exits_4(runner):
    result = runner.invoke(main, ["zeta", "--s", "2", "--euler-limit", "300000000"])
    assert result.exit_code == 4
    assert "exceeds memory budget" in result.stderr


def test_count_coprime_pairs_at_1e9(runner):
    result = runner.invoke(main, ["count", "--b", "1,1", "--N", "1000000000", "--format", "json"])
    assert result.exit_code == 0
    assert json.loads(result.stdout)["visible"] == "607927102346016827"  # OEIS A018805


# ---------------------------------------------------------------- verify


def test_verify_quick_passes(runner):
    result = runner.invoke(main, ["verify", "--profile", "quick"])
    assert result.exit_code == 0
    lines = result.stdout.splitlines()
    assert lines[-1].endswith("checks passed (quick profile)")
    body = "\n".join(lines[1:-1])
    assert "FAIL" not in body
    assert body.count("PASS") == len(lines) - 2


def test_verify_reports_failures(runner, monkeypatch):
    # sabotage one counting route; verify must notice and exit nonzero
    monkeypatch.setattr(bvis.counting, "count_visible_int", lambda N, b: 0)
    result = runner.invoke(main, ["verify", "--profile", "quick"])
    assert result.exit_code == 1
    assert "FAIL" in result.stdout


_VERIFY_QUICK = """\
worked-example                       PASS  witness p=2, image (1, 1, 5, 1)
oracle-equivalence                   PASS  800 points, 0 disagreements
gcd-reduction                        PASS  800 points, 0 disagreements; (2,4) invisible for b=(2,4): True
mobius-vs-bruteforce                 PASS  N <= 30, 3 vectors, 0 mismatches
grid-marking-vs-mobius               PASS  edges (500, 500), exps (1,1) and (1,2), grid == mobius
density-int-(1,1)-N1000              PASS  abs_error 0.000456 vs tol 0.002
density-int-(2,3)-N500               PASS  abs_error 0.000397 vs tol 0.005
density-rat-(1/2,1/2)-N1000000       PASS  abs_error 0.000000 vs tol 0.002
density-rat-(2/3,3/2)-N1000000       PASS  abs_error 0.002283 vs tol 0.005
density-signed-(1,-2)-N4000          PASS  abs_error 0.000323 vs tol 0.005
zeta-certification                   PASS  |value - pi^2/6| = 0.00e+00, tail 1.00e-08
euler-product                        PASS  worst gap 1.32e-06 vs 1e-4
12/12 checks passed (quick profile)
"""

_VERIFY_FULL = """\
worked-example                       PASS  witness p=2, image (1, 1, 5, 1)
oracle-equivalence                   PASS  9500 points, 0 disagreements
gcd-reduction                        PASS  4800 points, 0 disagreements; (2,4) invisible for b=(2,4): True
mobius-vs-bruteforce                 PASS  N <= 60, 5 vectors, 0 mismatches
grid-marking-vs-mobius               PASS  edges (2000, 2000), exps (1,1) and (1,2), grid == mobius
density-int-(1,1)-N1000              PASS  abs_error 0.000456 vs tol 0.002
density-int-(2,3)-N500               PASS  abs_error 0.000397 vs tol 0.005
density-rat-(1/2,1/2)-N1000000       PASS  abs_error 0.000000 vs tol 0.002
density-rat-(2/3,3/2)-N1000000       PASS  abs_error 0.002283 vs tol 0.005
density-signed-(1,-2)-N4000          PASS  abs_error 0.000323 vs tol 0.005
density-int-(1,2)-N1000              PASS  abs_error 0.000093 vs tol 0.005
density-int-(1,1,1)-N200             PASS  abs_error 0.001217 vs tol 0.01
density-rat-(2/3,3/2)-N8000000       PASS  abs_error 0.000277 vs tol 0.01
density-rat-(2/3,1/2)-N8000000       PASS  abs_error 0.000451 vs tol 0.01
density-signed-(1,-2)-N10000         PASS  abs_error 0.000373 vs tol 0.005
density-signed-(3,-2,-3)-N300        PASS  abs_error 0.000568 vs tol 0.01
zeta-certification                   PASS  |value - pi^2/6| = 0.00e+00, tail 1.00e-11
euler-product                        PASS  worst gap 1.32e-06 vs 1e-4
18/18 checks passed (full profile)
"""


@pytest.mark.parametrize(
    "args, expected",
    [
        (["--profile", "quick"], _VERIFY_QUICK),
        (["--profile", "full", "--seed", "26"], _VERIFY_FULL),
    ],
    ids=["quick", "full"],
)
def test_verify_frozen_output(runner, args, expected):
    result = runner.invoke(main, ["verify", *args])
    assert result.exit_code == 0
    header, *lines = result.stdout.splitlines(keepends=True)
    assert header == "check                                status      time  detail\n"
    # the timing column is the only part that varies from run to run
    masked = [re.sub(r" +\d+\.\d\ds  ", "  ", line, count=1) for line in lines]
    assert "".join(masked) == expected
