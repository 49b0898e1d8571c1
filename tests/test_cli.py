import contextlib
import csv
import io
import itertools
import json
import math
import os
import re
import resource
import shlex
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bvis.cli
import bvis.counting
import make_cli_corpus
from bvis import visibility
from bvis.cli import main, parse_b_spec
from bvis.errors import UsageError
from bvis.visibility import constrained_exponents, family, is_visible_int, is_visible_signed
from bvis.zeta import inv_zeta


@pytest.mark.parametrize("command", [None, *bvis.cli.COMMANDS])
def test_help_lists_every_option(runner, command):
    result = runner.invoke(main, [command, "--help"] if command else ["--help"])
    assert result.exit_code == 0
    assert result.stderr == ""
    assert result.stdout.startswith(f"Usage: bvis {command or ''}".rstrip() + " [OPTIONS]")
    names = [opt[0] for opt in bvis.cli.COMMANDS[command][1]] if command else list(bvis.cli.COMMANDS)
    assert all(name in result.stdout for name in names)


# ---------------------------------------------------------------- b-spec parsing


def test_parse_b_spec_inference():
    # the spec is only parsed; its label is read off the vector for output
    vec = parse_b_spec("2,4,3,7")
    assert family(vec) == "int"
    assert vec == (2, 4, 3, 7)

    vec = parse_b_spec("2/3,1/2")
    assert family(vec) == "rat"
    assert tuple(f.numerator for f in vec) == (2, 1)

    vec = parse_b_spec("1,-2")
    assert family(vec) == "signed"
    assert constrained_exponents(vec).positions == (1,)

    # integers are rationals with denominator 1, and every position constrains
    vec = parse_b_spec("1,2")
    assert tuple(f.denominator for f in vec) == (1, 1)
    assert tuple(constrained_exponents(vec).positions) == (0, 1)


def test_parse_b_spec_rejections():
    with pytest.raises(UsageError):
        parse_b_spec("1,x")
    with pytest.raises(UsageError):
        parse_b_spec("")
    with pytest.raises(UsageError):
        parse_b_spec("1/0")
    # no family can be forced on a spec: there is no second argument
    with pytest.raises(TypeError):
        parse_b_spec("1/2,1/2", "int")
    with pytest.raises(TypeError):
        parse_b_spec("1,-2", "rat")


# ---------------------------------------------------------------- check


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


@pytest.mark.parametrize("coords", [(2, 2), (6, 10)], ids=["2q,2q", "6q,10q"])
def test_check_finds_a_trial_prime_beside_an_unfactorable_cofactor(runner, coords):
    # the gcd's cofactor q = (2**64 - 59) * (2**64 - 83) is the one refused above
    q = (2**64 - 59) * (2**64 - 83)
    point = [c * q for c in coords]
    start = time.perf_counter()
    result = runner.invoke(main, ["check", "--b", "1,1", "--point", ",".join(map(str, point)), "--format", "json"])
    assert time.perf_counter() - start < 1
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert (payload["visible"], payload["witness_prime"]) == (False, 2)
    assert payload["image"] == [c // 2 for c in point]


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
    assert payload["theoretical"] == pytest.approx(inv_zeta(3), abs=1e-5)
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


# predicates by name: the three names are one function, and the name keeps each case's id
@pytest.mark.parametrize(
    "spec,predicate,edges",
    [
        ("2,4", "is_visible_int", (12, 12)),
        ("2/3,3/2", "is_visible_rat", (12, 12)),
        ("3,-2,-3", "is_visible_signed", (5, 6, 8)),
        # no negative entry: the signed predicate constrains every position, as the sieve does
        ("1,2", "is_visible_signed", (3, 3)),
    ],
)
def test_sieve_lists_the_points_the_predicates_accept(runner, spec, predicate, edges):
    predicate = getattr(visibility, predicate)
    vector = parse_b_spec(spec)
    args = ["sieve", "--b", spec, "--box", ",".join(map(str, edges)), "--format", "json"]
    result = runner.invoke(main, args)
    assert result.exit_code == 0
    expected = [
        list(pt) for pt in itertools.product(*(range(1, e + 1) for e in edges)) if predicate(pt, vector)
    ]
    assert json.loads(result.stdout)["points"] == expected


def test_sieve_reads_no_ceiling_from_the_environment(runner, monkeypatch):
    # --limit is the only way to move the ceiling
    monkeypatch.setenv("BVIS_BRUTE_LIMIT", "100")
    result = runner.invoke(main, ["sieve", "--N", "30", "--b", "1,1"])
    assert result.exit_code == 0
    assert len(result.stdout.splitlines()) == 555


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
    st.sampled_from(_SIEVE_VECTORS + ("1,-9", "-9")).flatmap(
        lambda spec: st.tuples(
            st.just(spec),
            st.tuples(*[st.integers(min_value=0, max_value=12)] * len(spec.split(","))),
        )
    )
)
def test_sieve_lists_what_the_witness_loop_accepts(runner, spec_edges):
    # "1,-9" and "-9" constrain with 2**9 > 12, so the marker strikes nothing
    spec, edges = spec_edges
    witness = constrained_exponents(parse_b_spec(spec)).witness
    grid = itertools.product(*(range(1, m + 1) for m in edges))
    expected = [list(pt) for pt in grid if witness(pt) is None]
    args = ["sieve", "--b", spec, "--box", ",".join(map(str, edges)), "--format", "json"]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    assert json.loads(result.stdout)["points"] == expected


@pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
@pytest.mark.parametrize(
    "b, case, box, visible",
    [
        ("1,-2", "signed", (7, 9), lambda pt: is_visible_signed(pt, (1, -2))),
        ("1", "int", (30,), lambda pt: is_visible_int(pt, (1,))),
        ("1,1,1", "int", (3, 4, 5), lambda pt: is_visible_int(pt, (1, 1, 1))),
        # the rows x = 4, 8, 9, 12, ... keep no point; x runs past 10, so the table holds x's last digit
        ("-2,1", "signed", (30, 4), lambda pt: is_visible_signed(pt, (-2, 1))),
    ],
    ids=["2-D", "1-D", "3-D", "empty-rows"],
)
def test_sieve_writes_the_same_payload_in_any_chunk_size(runner, monkeypatch, fmt, b, case, box, visible):
    points = [list(pt) for pt in itertools.product(*(range(1, m + 1) for m in box)) if visible(pt)]
    lines = "".join(",".join(map(str, pt)) + "\n" for pt in points)
    whole = {
        "json": json.dumps({"b": b.split(","), "case": case, "box": list(box), "count": len(points), "points": points})
        + "\n",
        "csv": ",".join(f"x{i + 1}" for i in range(len(box))) + "\r\n" + lines.replace("\n", "\r\n"),
        "plain": lines,
    }[fmt]
    args = ["sieve", "--b", b, "--box", ",".join(map(str, box)), "--format", fmt]
    # from one point per block, through a table of whole rows, to the whole box in one block
    for size in (1, 2, 5, len(points), bvis.cli.SIEVE_CHUNK):
        monkeypatch.setattr(bvis.cli, "SIEVE_CHUNK", size)
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        assert result.stdout == whole, size


class _CountingSink:
    """A stdout that keeps only the number of characters written to it."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("box", ["1,1000000", "1000000,1"])
def test_sieve_holds_the_grid_and_a_block(box):
    # every point of either box is visible; the marker's grid is one byte per point
    sink = _CountingSink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            main(["sieve", "--b", "1,1", "--box", box])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.chars == sum(len(str(n)) + 3 for n in range(1, 10**6 + 1))
    assert peak < 10**6 + (1 << 20)


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
# b = (1, 2) has no tail: it reads its PURE_SIEVE_LIMIT values of mu in bytes windows
run("count", "--b", "1,2", "--N", str(arith.PURE_SIEVE_LIMIT**2), "--format", "csv")
assert "numpy" not in sys.modules, "count without a tail"
# b = (1, 1) tabulates M up to 2,000,000, past the crossover
run("count", "--b", "1,1", "--N", "1000000000", "--format", "csv")
assert "numpy" in sys.modules, "count with a table past the crossover"
"""


def _src_env() -> dict:
    """The environment for a child Python that imports bvis from this tree."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def test_check_sieve_and_zeta_never_import_numpy():
    out = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE],
        capture_output=True,
        text=True,
        env=_src_env(),
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0] == "invisible: witness prime 2, image 1,1,5,1"
    assert lines[1:5] == ["x1,x2", "1,1", "1,2", "1,3"]  # 9 points, none with 4 | x2
    assert lines[24] == "12/12 checks passed (quick profile)"  # verify, 14 lines from 11 on
    zeta = json.loads(lines[-7])
    assert zeta["value"] == pytest.approx(math.pi**2 / 6, abs=1e-9)
    assert 0 < zeta["value"] - zeta["euler_product"] < 1e-5
    assert json.loads(lines[-6])["visible"] == "607927104783"  # OEIS A018805(10**6)
    assert json.loads(lines[-5])["visible"] == "6087"  # OEIS A018805(100)
    assert lines[-1].endswith(",607927102346016827,1000000000000000000")  # OEIS A018805(10**9)


# ---------------------------------------------------------------- start-up imports

# click alone took about 28 ms of each process's start-up, and dataclasses
# brings inspect with it.  The probe runs RUNS, each a command line and the
# modules that must still be unloaded after it, in one fresh interpreter.
_STARTUP_PROBE = """
import sys
from bvis.cli import main

SLOW = {"click", "dataclasses", "inspect"}
# loaded only by the commands and formats that use them
LAZY = {"bvis.arith", "bvis.counting", "bvis.theorems", "bvis.visibility", "bvis.zeta", "json", "csv"}
assert not (SLOW | LAZY) & set(sys.modules), ("import bvis.cli", sorted((SLOW | LAZY) & set(sys.modules)))
for args, unloaded in RUNS:
    try:
        main(args, prog_name="bvis")
    except SystemExit as exc:
        assert not exc.code, (args, exc.code)
    loaded = (SLOW | set(unloaded)) & set(sys.modules)
    assert not loaded, (args[0], sorted(loaded))
print("ok")
"""


def _run_startup_probe(runs) -> None:
    out = subprocess.run(
        [sys.executable, "-c", f"RUNS = {runs!r}\n{_STARTUP_PROBE}"],
        capture_output=True,
        text=True,
        env=_src_env(),
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "ok"


def test_no_command_imports_click_dataclasses_or_inspect():
    _run_startup_probe(
        [
            (["check", "--b", "2,4,3,7", "--point", "4,16,40,128"], ()),
            (["count", "--b", "1,1", "--N", "100", "--format", "csv"], ()),
            (["density", "--b", "1,-2", "--N", "1000", "--format", "json"], ()),
            (["sieve", "--b", "1,1", "--N", "3", "--format", "json"], ()),
            (["zeta", "--s", "2", "--euler-limit", "1000"], ()),
            (["verify", "--profile", "quick"], ()),
        ]
    )


@pytest.mark.parametrize(
    "args, unloaded",
    [
        (
            ["zeta", "--s", "2", "--euler-limit", "1000"],
            ("bvis.counting", "bvis.theorems", "bvis.visibility", "json", "csv", "array"),
        ),
        (
            ["check", "--b", "2,4,3,7", "--point", "4,16,40,128", "--format", "plain"],
            ("bvis.counting", "bvis.theorems", "bvis.zeta", "json", "csv", "array"),
        ),
        (["count", "--b", "1,1", "--N", "100", "--format", "csv"], ("bvis.theorems", "bvis.zeta", "json")),
        (["density", "--b", "1,-2", "--N", "1000", "--format", "json"], ("bvis.theorems", "csv")),
        (
            ["sieve", "--b", "1,1", "--N", "3", "--format", "plain"],
            ("bvis.theorems", "bvis.zeta", "json", "csv", "array"),
        ),
    ],
    ids=["zeta", "check", "count", "density", "sieve"],
)
def test_a_command_loads_only_its_own_modules(args, unloaded):
    _run_startup_probe([(args, unloaded)])


# `python -m bvis.cli` runs cli.py as __main__; a module that imported
# bvis.cli from there would compile and run cli.py a second time.
_RUN_AS_MAIN = """
import runpy
import sys

sys.argv = ["bvis", "verify", "--profile", "quick"]
try:
    runpy.run_module("bvis.cli", run_name="__main__")
finally:
    print("bvis.cli" in sys.modules)
"""


def test_verify_as_main_loads_the_cli_once():
    out = subprocess.run(
        [sys.executable, "-c", _RUN_AS_MAIN], capture_output=True, text=True, env=_src_env(), timeout=60
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[-2:] == ["12/12 checks passed (quick profile)", "False"]


# In a fresh interpreter, since pytest has imported every submodule already:
# each public name and each submodule attribute loads on first access, and
# bvis.zeta is the module whichever is reached first.
_PACKAGE_PROBE = """
import sys
import types
import bvis

assert not {"bvis.arith", "bvis.counting", "bvis.visibility", "bvis.zeta"} & set(sys.modules)
SUBMODULES = ("arith", "counting", "visibility", "zeta")
assert isinstance(bvis.zeta, types.ModuleType)
assert bvis.zeta_euler_product is bvis.zeta.zeta_euler_product
missing = [name for name in bvis.__all__ if not hasattr(bvis, name)]
assert not missing, missing
for name in SUBMODULES:
    assert isinstance(getattr(bvis, name), types.ModuleType), name
    assert getattr(bvis, name) is sys.modules["bvis." + name], name
assert not hasattr(bvis, "count_box")
print("ok")
"""


def test_bare_import_resolves_every_export_and_submodule():
    out = subprocess.run(
        [sys.executable, "-c", _PACKAGE_PROBE],
        capture_output=True,
        text=True,
        env=_src_env(),
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "ok"


# ---------------------------------------------------------------- huge exponents

_ROOTS_OF_HUGE_POWERS = """
from bvis.arith import iroot
assert iroot(10, 10**9) == 1
for k in (3, 64, 1000, 10**5):
    assert iroot(2**k, k) == 2, k
    assert iroot(2**k - 1, k) == 1, k
print("ok")
"""


_ORACLE_REFUSES_HUGE_POWERS = """
import time
from bvis.errors import ResourceLimitError
from bvis.visibility import find_parametric_witness
# the tables would hold 2**(10**8) and 2**(10**12)
for b in ((10**8, 1), (10**12, 1)):
    start = time.perf_counter()
    try:
        find_parametric_witness((2, 2), b)
    except ResourceLimitError:
        assert time.perf_counter() - start < 1.0, b
    else:
        raise AssertionError(b)
print("ok")
"""


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize(
    "args,line",
    [
        # box_edges took floor_root(10, 3000000, alpha), which built 10**3000000
        # and then a Newton step of 4**(alpha - 1)
        (["-m", "bvis.cli", "density", "--b", "1/3000000,1/3000001", "--N", "10"], "box: 1,1"),
        # the witness test built 2**(10**12) to see that it does not divide 2
        (["-m", "bvis.cli", "check", "--b", "1000000000000,1", "--point", "2,2"], "visible"),
        (["-c", _ROOTS_OF_HUGE_POWERS], "ok"),
        (["-c", _ORACLE_REFUSES_HUGE_POWERS], "ok"),
    ],
    ids=["density-box-edges", "check-witness", "iroot-floor-root", "oracle-tables"],
)
def test_huge_exponents_build_no_huge_powers(args, line):
    # in a child capped at 1 GiB of address space, so that a huge power
    # fails this test instead of exhausting the machine's memory
    out = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=_src_env(),
        timeout=10,
        preexec_fn=_cap_address_space,
    )
    assert out.returncode == 0, out.stderr
    assert line in out.stdout.splitlines()


# ---------------------------------------------------------------- benchmark tracer


def test_benchmark_tracer_sees_the_grid_marker(tmp_path):
    # perfbench/tracing.py wraps library functions by module and name; a
    # rename it no longer finds would silently empty a layer of traced runs
    spans_file = tmp_path / "spans.json"
    out = subprocess.run(
        [sys.executable, "perfbench/tracing.py", str(spans_file), "0", "verify", "--profile", "quick"],
        capture_output=True,
        text=True,
        cwd=os.path.join(os.path.dirname(__file__), os.pardir),
        env=_src_env(),
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert "12/12 checks passed (quick profile)" in out.stdout.splitlines()
    trace = json.loads(spans_file.read_text())
    names = trace["names"]
    # the grid row's two counts, each over the quick profile's 500 x 500 box
    cells = [span[5] for span in trace["spans"] if names[span[0]] == "kernels.count_visible_box"]
    assert cells == [250_000, 250_000]


# ---------------------------------------------------------------- exit codes


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


def test_zeta_euler_limit_past_the_sieve_budget_exits_4_above_the_cut(runner):
    # s = 5 would only sieve to 2352, but the limit is refused all the same
    tracemalloc.start()
    try:
        result = runner.invoke(main, ["zeta", "--s", "5", "--euler-limit", "300000000"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.exit_code == 4
    assert "exceeds memory budget" in result.stderr
    assert peak < 4 << 20  # refused before any sieve array existed
    s2 = runner.invoke(main, ["zeta", "--s", "2", "--euler-limit", "300000000"])
    assert result.stderr == s2.stderr


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


@pytest.mark.parametrize("route", ["count_visible_int", "count_visible_box", "mobius_box_count"])
def test_verify_reports_failures(runner, monkeypatch, route):
    # sabotage one counting route on its module; verify must notice and exit nonzero
    monkeypatch.setattr(bvis.counting, route, lambda *args: 0)
    result = runner.invoke(main, ["verify", "--profile", "quick"])
    assert result.exit_code == 1
    assert "FAIL" in result.stdout


# ---------------------------------------------------------------- output corpus


@pytest.mark.parametrize(
    "entry",
    [
        pytest.param(entry, id=" ".join(entry["argv"]) or "<no args>")
        for entry in json.loads(make_cli_corpus.CORPUS.read_text())
    ],
)
def test_cli_corpus_replays_byte_for_byte(runner, entry):
    # tests/make_cli_corpus.py recorded each entry from a `python -m bvis.cli` process
    argv = entry["argv"]
    result = runner.invoke(main, argv)
    got = {"argv": argv, "exit": result.exit_code, "stderr": result.stderr}
    got.update(make_cli_corpus.stdout_fields(make_cli_corpus.masked(argv, result.stdout)))
    assert got == entry


def test_cli_corpus_records_every_generated_command():
    # a command added to the generator but never recorded would go unreplayed
    recorded = [entry["argv"] for entry in json.loads(make_cli_corpus.CORPUS.read_text())]
    assert recorded == make_cli_corpus.commands()


# ---------------------------------------------------------------- README


def _readme_command_examples():
    """(argv, shown output lines) for each `$ bvis` line of README's Command line block.

    An output line that starts with a space continues the line above it, as
    the wrapped density JSON does; a trailing `# ...` comment is dropped.
    """
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = re.search(r"^## Command line\n+```sh\n(.*?)^```$", readme, re.M | re.S).group(1)
    examples = []
    for line in block.splitlines():
        if line.startswith("$ bvis "):
            examples.append((shlex.split(line[2:], comments=True)[1:], []))
        elif line.startswith(" "):
            examples[-1][1][-1] += line
        elif line:
            examples[-1][1].append(line)
    return examples


@pytest.mark.parametrize(
    "args, shown",
    [pytest.param(args, shown, id=" ".join(args)) for args, shown in _readme_command_examples()],
)
def test_readme_command_line_examples(runner, args, shown):
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    text = "".join(line + "\n" for line in shown)
    # README cannot show csv's "\r"
    stdout = result.stdout.replace("\r\n", "\n")
    if "..." in text:
        # the README elides the rest of the output from here on
        assert stdout.startswith(text.split("...")[0])
    elif shown:
        assert stdout == text
