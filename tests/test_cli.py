import csv
import functools
import json
import os
import platform
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from diracindex import algebra, report
from diracindex.cli import main
from diracindex.report import SIGNIFICANT_DIGITS, write_spectrum_csv
from diracindex.spectral import (SpectralSystem, build_torus_gauge, build_wilson_dirac,
                                 heat_kernel_system, sphere_monopole_fixture)

ROOT = Path(__file__).resolve().parent.parent
DEMO_DIR = ROOT / "demos" / "curvature"
DATA_DIR = Path(__file__).resolve().parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_algebra_check_passes(capsys):
    code, out, _ = run(capsys, "algebra-check")
    assert code == 0
    assert "PASS" in out


def test_algebra_check_rejects_bad_n(capsys):
    # the suite always covers half-dimensions 1..4; there is no --n knob
    code, _, err = run(capsys, "algebra-check", "--n", "2")
    assert code == 2
    assert "unrecognized arguments: --n 2" in err


def test_algebra_check_json_reports_defect_ratios(capsys):
    code, out, _ = run(capsys, "algebra-check", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    ratios = doc["phi_defect_ratios"]
    assert len(ratios) == 2
    assert all(80 <= r <= 120 for r in ratios)


def test_algebra_check_json_is_pinned(capsys):
    # this path calls no LAPACK, and its samples come from random.Random,
    # whose random() sequence Python keeps across versions, so the bytes in
    # tests/data hold on every host
    code, out, _ = run(capsys, "algebra-check", "--format", "json")
    assert code == 0
    assert out == (DATA_DIR / "algebra_check.json").read_text(encoding="utf-8")


def test_index_torus_json(capsys):
    code, out, _ = run(capsys, "index-torus", "--N", "8", "--q", "3",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["analytic_index"] == 3
    assert doc["topological_index"] == 3
    assert doc["pair_check_violations"] == 0
    assert doc["pass"] is True
    assert len(doc["witten_values"]) == 4
    assert "timings_ms" not in doc


def test_index_torus_zero_flux(capsys):
    code, out, _ = run(capsys, "index-torus", "--q", "0", "--format", "json")
    assert code == 0
    assert json.loads(out)["analytic_index"] == 0


def test_index_torus_heat_method_custom_grid(capsys):
    code, out, _ = run(capsys, "index-torus", "--q", "2", "--method", "heat",
                       "--tau", "0.5,1,2,5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    taus = [t for t, _ in doc["witten_values"]]
    assert taus == [0.5, 1, 2, 5]


def test_index_torus_usage_errors(capsys):
    code, _, _ = run(capsys, "index-torus")  # --q is required
    assert code == 2
    code, _, err = run(capsys, "index-torus", "--q", "40")  # outside N^2/2
    assert code == 2
    assert "invalid arguments" in err


def test_index_torus_ambiguous_kernel_exits_3(capsys):
    # the free field crosses zero at m = 0; a mass on the crossing has no
    # well-defined kernel sign and must refuse rather than pick a side
    code, _, err = run(capsys, "index-torus", "--q", "0", "--m", "1e-15")
    assert code == 3
    assert "ambiguous" in err.lower()


def test_index_torus_mass_outside_window_warns_on_one_line(capsys):
    # the overlap counts doubler branches there, so the integers disagree
    # (exit 1); the warning is one stderr line, the same wherever the
    # package is installed, and repeats on every call
    warning = ("index-torus: warning: mass 2.5 is outside the (0, 2) window, "
               "the overlap count will include doubler branches\n")
    for _ in range(2):
        code, out, err = run(capsys, "index-torus", "--q", "1", "--m", "2.5")
        assert (code, err) == (1, warning)
        assert out.endswith("\nFAIL\n")


def test_index_torus_refuses_oversized_lattice(capsys, monkeypatch):
    from diracindex import cli
    from diracindex.spectral import torus_case_bytes

    def must_not_run(*args, **kwargs):
        raise AssertionError("the case ran")

    monkeypatch.setattr(cli, "run_torus_case", must_not_run)
    code, out, err = run(capsys, "index-torus", "--N", "98", "--q", "1")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "--N 98" in err and "budget" in err
    # the limit the README documents: N = 97 fits, N = 98 does not
    assert torus_case_bytes(97) <= cli.TORUS_MEMORY_BUDGET < torus_case_bytes(98)


def test_parser_is_built_once_and_keeps_no_state(capsys, monkeypatch, tmp_path):
    # main reuses one parser a process; the options of each call must be
    # exactly those a fresh parser reads from its argv, none carried over
    from diracindex import cli
    from diracindex.report import DEFAULT_TAUS

    fresh, parse = cli.build_parser, cli._Parser.parse_args
    cli._parser()
    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("main built a parser"))
    seen = []

    def spy(self, args=None, namespace=None):
        seen.append(parse(self, args, namespace))
        return seen[-1]

    monkeypatch.setattr(cli._Parser, "parse_args", spy)
    calls = [["index-torus", "--N", "6", "--q", "1", "--m", "0.9", "--method", "heat",
              "--tau", "1,2", "--format", "json", "--csv", str(tmp_path / "a.csv")],
             ["index-torus", "--q", "-1"],
             ["index-sphere", "--q", "1", "--kmax", "3", "--format", "json"],
             ["index-sphere", "--q", "2"]]
    for argv in calls:
        assert main(argv) == 0
    capsys.readouterr()
    assert [vars(ns) for ns in seen] == [vars(parse(fresh(), argv)) for argv in calls]
    assert (seen[1].N, seen[1].m, seen[1].method, seen[1].tau, seen[1].csv) == (
        8, 1.0, "overlap", DEFAULT_TAUS, None)
    assert (seen[3].kmax, seen[3].format) == (30, "text")


def test_index_sphere_refuses_oversized_fixture(capsys, monkeypatch):
    from diracindex import cli
    from diracindex.spectral import sphere_case_bytes

    def must_not_run(*args, **kwargs):
        raise AssertionError("the case ran")

    monkeypatch.setattr(cli, "run_sphere_case", must_not_run)
    for argv in (("--q", "1", "--kmax", "1000000"), ("--q", "-100000000000", "--kmax", "1")):
        code, out, err = run(capsys, "index-sphere", *argv)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and " ".join(argv) in err and "budget" in err
    # the limit the README documents: kmax = 2990 fits at q = 0, 2991 does not
    assert sphere_case_bytes(0, 2990) <= cli.TORUS_MEMORY_BUDGET < sphere_case_bytes(0, 2991)


@pytest.mark.parametrize("argv, message", [
    (("index-sphere", "--q", "0", "--kmax", "-1000000000"),
     "invalid arguments: k_max must be an integer >= 1\n"),
    (("index-torus", "--N", "-1000", "--q", "0"),
     "invalid arguments: lattice size must be an integer >= 4\n")])
def test_invalid_case_sizes_get_the_builders_errors(capsys, argv, message):
    # the size model refuses what the builder refuses, before any budget
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", message)


OUT_OF_DOMAIN = {
    "--tau": ("index-torus", "--q", "1", "--tau", "1,inf", "--format", "json"),
    "--m": ("index-torus", "--q", "1", "--m", "nan"),
    "--y": ("genfun", "--y", "inf"),
    "--order": ("characteristic", "--file", str(DEMO_DIR / "torus_flux.json"),
                "--order", "-1"),
}


@pytest.mark.parametrize("flag", OUT_OF_DOMAIN)
def test_out_of_domain_numbers_are_usage_errors(capsys, flag):
    # rejected while parsing: nothing runs, nothing reaches stdout
    code, out, err = run(capsys, *OUT_OF_DOMAIN[flag])
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and f"argument {flag}:" in err


MALFORMED = {
    "--m": (("index-torus", "--q", "1", "--m", "abc"),
            "diracindex index-torus: error: argument --m: bad number 'abc'"),
    "--tau": (("index-sphere", "--q", "1", "--tau", "0"),
              "diracindex index-sphere: error: argument --tau: tau values must be positive"),
    "--order": (("characteristic", "--file", str(DEMO_DIR / "torus_flux.json"), "--order", "x"),
                "diracindex characteristic: error: argument --order: bad integer 'x'"),
    "--cutoff": (("genfun", "--cutoff", "20,x"),
                 "diracindex genfun: error: argument --cutoff: bad list '20,x'"),
}


@pytest.mark.parametrize("flag", MALFORMED)
def test_malformed_numbers_are_usage_errors(capsys, flag):
    argv, line = MALFORMED[flag]
    assert run(capsys, *argv) == (2, "", line + "\n")


def test_index_torus_csv_export(capsys, tmp_path):
    path = tmp_path / "spectrum.csv"
    code, _, _ = run(capsys, "index-torus", "--q", "2", "--csv", str(path))
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "lambda,chirality,source"
    from diracindex.spectral import (build_torus_gauge, build_wilson_dirac,
                                     heat_kernel_system)
    system = heat_kernel_system(build_wilson_dirac(build_torus_gauge(8, 2)))
    assert len(lines) == 1 + len(system.eigenvalues)
    first = lines[1].split(",")
    assert first[1] in ("-1", "1")
    assert first[2].startswith("torus")


def test_index_sphere_json(capsys):
    code, out, _ = run(capsys, "index-sphere", "--q", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["analytic_index"] == 2
    assert "tail_bounds" not in doc
    # the bytes in tests/data were written before the torus and sphere
    # runners shared their report; this path calls no BLAS, and at q = 2
    # every Witten value rounds to 2.0, so they hold on every host
    assert out == (DATA_DIR / "index_sphere_q2.json").read_text(encoding="utf-8")
    # the fixture refuses the cutoff; main maps its ValueError to exit 2
    code, out, err = run(capsys, "index-sphere", "--q", "1", "--kmax", "0")
    assert (code, out) == (2, "")
    assert err == "invalid arguments: k_max must be an integer >= 1\n"


def _assert_unwritable_output_exits_2(capsys, tmp_path, command):
    path = tmp_path / "missing-dir" / "x.csv"
    code, _, err = run(capsys, command, "--q", "1", "--csv", str(path))
    assert code == 2
    assert err.startswith("cannot write output:")
    assert str(path) in err
    assert len(err.strip().splitlines()) == 1


def test_unwritable_output_exits_2(capsys, tmp_path):
    _assert_unwritable_output_exits_2(capsys, tmp_path, "index-sphere")


def test_unwritable_torus_csv_exits_2(capsys, tmp_path):
    _assert_unwritable_output_exits_2(capsys, tmp_path, "index-torus")


def _csv_reference(path, system):
    # the spectrum CSV written row by row through csv.writer
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda", "chirality", "source"])
        for lam, chi in zip(system.eigenvalues.tolist(), system.chiralities.tolist()):
            writer.writerow([f"{lam:.{SIGNIFICANT_DIGITS}g}", chi, system.source])


def test_spectrum_csv_equals_csv_writer(tmp_path):
    torus = heat_kernel_system(build_wilson_dirac(build_torus_gauge(12, -3)))
    sphere = sphere_monopole_fixture(2, 40)
    systems = [torus, sphere]
    # sources the dialect has to quote, and an empty one
    for source in ("a,b", 'say "hi"', "", "two\nlines", " pad "):
        systems.append(SpectralSystem(sphere.eigenvalues[:600], sphere.chiralities[:600],
                                      source=source))
    # no rows, one row, and two chunks exactly and with one row more
    systems += [SpectralSystem([], [], "torus"), SpectralSystem([0.25], [-1], "torus")]
    for rows in (2 * report._CSV_ROWS, 2 * report._CSV_ROWS + 1):
        systems.append(SpectralSystem(sphere.eigenvalues[:rows], sphere.chiralities[:rows],
                                      "sphere"))
    for system in systems:
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_spectrum_csv(got, system)
        _csv_reference(want, system)
        assert got.read_bytes() == want.read_bytes()


def test_spectrum_csv_peak_memory_is_one_chunk(tmp_path):
    system = sphere_monopole_fixture(2, 300)
    assert system.eigenvalues.size == 181802
    tracemalloc.start()
    try:
        write_spectrum_csv(tmp_path / "sphere.csv", system)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # copies of the whole spectrum would take 7 MB here
    assert peak <= 2**20


def test_characteristic_torus_integral(capsys):
    code, out, _ = run(capsys, "characteristic", "--file",
                       str(DEMO_DIR / "torus_flux.json"), "--which", "chern",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["integral"] == pytest.approx(3.0, abs=1e-12)
    code, out, _ = run(capsys, "characteristic", "--file",
                       str(DEMO_DIR / "torus_flux.json"))
    assert code == 0
    assert "3" in out


def test_characteristic_two_block_genus(capsys):
    code, out, _ = run(capsys, "characteristic", "--file",
                       str(DEMO_DIR / "two_blocks.json"), "--which", "ahat",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    # -p1/24 with p1 = (2*0.5*0.25 + 2*0.3*(-0.2)) / (2 pi)^2
    want = -(0.25 - 0.12) / (24.0 * (2 * np.pi) ** 2)
    assert doc["top_coefficient"] == pytest.approx(want, rel=1e-10)
    assert doc["series"].startswith("1.0")


@pytest.mark.parametrize("name,which", [("two_blocks", "ahat"), ("two_blocks", "density"),
                                        ("torus_flux", "chern")])
def test_characteristic_order_above_dimension_gives_full_series(capsys, name, which):
    argv = ("characteristic", "--file", str(DEMO_DIR / f"{name}.json"), "--which", which)
    full = run(capsys, *argv)
    assert full[0] == 0
    for order in ("4", "52", "1000"):
        assert run(capsys, *argv, "--order", order) == full


def test_characteristic_file_errors_exit_4(capsys, tmp_path):
    code, _, err = run(capsys, "characteristic", "--file",
                       str(tmp_path / "absent.json"))
    assert code == 4
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 1, "twist": [["e1 ^"]]}))
    code, _, err = run(capsys, "characteristic", "--file", str(bad))
    assert code == 4
    assert "twist[0][0]" in err
    # digits are ASCII only: an Arabic-Indic two is an unknown character
    bad.write_text(json.dumps({"n": 1, "twist": [["\u0662*e\u0661^e\u0662"]]}))
    code, out, err = run(capsys, "characteristic", "--file", str(bad))
    assert (code, out) == (4, "")
    assert err == ("curvature input error: twist[0][0]: "
                   "unexpected character '\u0662' (bytes 0..2)\n")
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"n": 1}))
    code, _, err = run(capsys, "characteristic", "--file", str(empty))
    assert code == 4


@pytest.mark.parametrize("cell, line", [
    ("e1 + e2^(e3*e4)", "'*' multiplies by scalars; combine forms with '^' (bytes 8..15)"),
    ("e1*e2 + (", "expected a number, i, a generator, or '(', found end (bytes 9..9)"),
    ("e1*e2 )", "unexpected rparen after a complete expression (bytes 6..7)"),
    ("(1e300*e1)^(1e300*e2)", "a product coefficient is not finite (bytes 0..21)"),
    ("(" * 101 + "e1^e2" + ")" * 101, "expression nested deeper than 100 levels "
     "of parentheses and unary minus (bytes 100..101)"),
], ids=["paren-operation", "open-end", "stray-rparen", "product-overflow", "nested-101"])
def test_characteristic_error_lines_are_pinned(capsys, tmp_path, cell, line):
    # the lines a tree-building parser printed: an operation in parentheses
    # has their span, and a syntax error wins over an evaluation error
    path = tmp_path / "curvature.json"
    path.write_text(json.dumps({"n": 2, "twist": [[cell]]}))
    code, out, err = run(capsys, "characteristic", "--file", str(path))
    assert (code, out) == (4, "")
    assert err == f"curvature input error: twist[0][0]: {line}\n"


def test_characteristic_error_line_matches_its_data_file(capsys):
    # the pair CI compares byte for byte
    code, out, err = run(capsys, "characteristic", "--file",
                         str(DATA_DIR / "curvature_paren_wedge.json"))
    assert (code, out) == (4, "")
    assert err == (DATA_DIR / "characteristic_paren_wedge.stderr").read_text(encoding="utf-8")


def test_characteristic_non_utf8_file_is_a_curvature_error(capsys, monkeypatch):
    # one 0xff byte: a file error, exit 4, not a usage error; the relative
    # path is the one CI passes, so the line matches its data file
    monkeypatch.chdir(ROOT)
    code, out, err = run(capsys, "characteristic", "--file", "tests/data/curvature_not_utf8.json")
    assert (code, out) == (4, "")
    assert err == ("curvature input error: tests/data/curvature_not_utf8.json is not UTF-8: "
                   "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n")
    assert err == (DATA_DIR / "characteristic_not_utf8.stderr").read_text(encoding="utf-8")


def test_characteristic_deep_or_long_expressions(capsys, tmp_path):
    cell = " + ".join(["0.001*e1^e2"] * 1500)
    long = tmp_path / "long.json"
    long.write_text(json.dumps({"n": 1, "riemann": [[0, cell], [f"-({cell})", 0]]}))
    code, out, _ = run(capsys, "characteristic", "--file", str(long), "--which", "ahat")
    assert code == 0 and out.startswith("ahat series")
    for cell in ("(" * 200 + "e1^e2" + ")" * 200, "-" * 3000 + "e1^e2"):
        deep = tmp_path / "deep.json"
        deep.write_text(json.dumps({"n": 1, "riemann": [[0, cell], ["-e1^e2", 0]]}))
        code, out, err = run(capsys, "characteristic", "--file", str(deep))
        assert code == 4 and out == ""
        assert err.count("\n") == 1 and "riemann[0][1]" in err and "nested deeper" in err


# a twist whose series has no overflow, for the volume cases
_UNIT_TWIST = '"twist": [["e1^e2"]]'
# 2x2 diagonal blocks of a 2-form whose square is 2e400 e1^e2^e3^e4
_BIG_BLOCK = "1e200*e1^e2 + 1e200*e3^e4"
# at dim 8, all 28 blades: the curvature products take the numpy kernel
_BIG_DENSE = " + ".join(f"1e200*e{i}^e{j}" for i in range(1, 9) for j in range(i + 1, 9))

# its square's two products are finite; their sum is not
_BIG_SUM = "4.5e154*e1^e2 + 4.5e154*e3^e4"


def _blocks(dim, form):
    rows = [[0] * dim for _ in range(dim)]
    for k in range(0, dim, 2):
        rows[k][k + 1], rows[k + 1][k] = form, f"-({form})"
    return json.dumps({"n": dim // 2, "riemann": rows})


@pytest.mark.parametrize("text,which,message", [
    ('{"n": 1, "twist": [["1e999*e1^e2"]]}', "chern",
     "twist[0][0]: number '1e999' is too large for a float (bytes 0..5)"),
    ('{"n": 1, "metadata": {"volume": NaN}, %s}' % _UNIT_TWIST, "density",
     "metadata.volume must be finite"),
    ('{"n": 1, "metadata": {"volume": -Infinity}, %s}' % _UNIT_TWIST, "chern",
     "metadata.volume must be finite"),
    ('{"n": 1, "metadata": {"volume": true}, %s}' % _UNIT_TWIST, "density",
     "metadata.volume must be a number"),
    (_blocks(4, _BIG_BLOCK), "ahat", "the series overflows"),
    (_blocks(8, _BIG_DENSE), "ahat", "the series overflows"),
    ('{"n": 1, "metadata": {"volume": 1e300}, "twist": [["1e300*e1^e2"]]}', "chern",
     "a series coefficient or the integral is not finite"),
    # at dim 6 each product in the trace is finite but their sum is not, on
    # a grade-4 coefficient below the top
    ('{"n": 3, "twist": [["%s", 0], [0, "%s"]]}' % (_BIG_SUM, _BIG_SUM), "chern",
     "a series coefficient or the integral is not finite"),
    # finite parts whose magnitude is past the float range
    ('{"n": 1, "twist": [[0, "1.5e308*(1+i)*e1^e2"], ["1.5e308*(1-i)*e1^e2", 0]]}', "chern",
     "twist: absolute value too large"),
], ids=["literal", "volume-nan", "volume-inf", "volume-bool", "product", "product-kernel",
     "integral", "series-sum", "magnitude"])
@pytest.mark.filterwarnings("error")
def test_characteristic_non_finite_input_exits_4(capsys, tmp_path, text, which, message):
    # each of these printed NaN or a wrong number and exited 0; a warning,
    # which would print more lines on stderr, is an error here
    path = tmp_path / "curvature.json"
    path.write_text(text)
    for fmt in ("json", "text"):
        code, out, err = run(capsys, "characteristic", "--file", str(path), "--which", which,
                             "--format", fmt)
        assert (code, out) == (4, "")
        assert err.count("\n") == 1 and err.endswith("\n") and message in err


@pytest.mark.parametrize("name,which", [("two_blocks", "ahat"), ("two_blocks", "density"),
                                        ("torus_flux", "chern"), ("torus_flux", "density"),
                                        ("seeded_dim8", "density"), ("seeded_dim12", "density"),
                                        ("seeded_dim12", "ahat")])
def test_characteristic_json_is_pinned(capsys, monkeypatch, name, which):
    # this path calls no BLAS, so the bytes in tests/data hold on every host.
    # The demo files' products are all small enough for the dictionary loop;
    # tests/data/seeded_dim8.json and seeded_dim12.json
    # (perfbench.inputs.curvature_case at default_rng(8), dim 8, and at
    # default_rng(12), dim 12) also reach the numpy kernel
    calls = []
    kernel = algebra._pair_sums

    def spy(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(algebra, "_pair_sums", spy)
    seeded = name.startswith("seeded")
    source = DATA_DIR if seeded else DEMO_DIR
    pinned = DATA_DIR / f"characteristic_{name}_{which}.json"
    code, out, _ = run(capsys, "characteristic", "--file", str(source / f"{name}.json"),
                       "--which", which, "--format", "json")
    assert code == 0
    assert out == pinned.read_text(encoding="utf-8")
    assert bool(calls) == seeded


def test_genfun_table_converges_but_misses_target(capsys):
    code, out, _ = run(capsys, "genfun", "--y", "0.5", "--cutoff", "20,30")
    doc_lines = [l for l in out.splitlines() if l.strip() and l.lstrip()[0].isdigit()]
    assert len(doc_lines) == 2
    diffs = [float(l.split()[-1]) for l in doc_lines]
    assert diffs[1] < diffs[0]  # larger basis, smaller error
    # at y = 0.5 the cutoff-30 error is still about 2e-5: far from 1e-6
    assert code == 1
    assert "FAIL" in out
    code, out, _ = run(capsys, "genfun", "--y", "0.1", "--cutoff", "20")
    assert code == 1
    assert out.endswith("\nFAIL (matrix element not converged to 1e-06 "
                        "at the largest cutoff)\n")


def test_genfun_rejects_nonpositive_y(capsys):
    # partition_sum refuses y; main maps its ValueError to exit 2
    for y in ("-1", "0"):
        code, out, err = run(capsys, "genfun", "--y", y)
        assert (code, out) == (2, "")
        assert err == "invalid arguments: y must be positive\n"


def test_genfun_large_y(capsys):
    # the closed form stays finite where sinh overflows, so the table prints
    code, out, err = run(capsys, "genfun", "--y", "2000")
    lines = out.splitlines()
    assert (code, err) == (0, "")
    assert [l.split()[:2] for l in lines[1:4]] == [["2000", c] for c in ("20", "40", "60")]
    assert lines[4:] == ["PASS"]
    # here the matrix element's eigensolve fails; LinAlgError is a ValueError
    code, out, err = run(capsys, "genfun", "--y", "1e200")
    assert (code, out) == (2, "")
    assert err.startswith("invalid arguments:") and err.count("\n") == 1


def test_genfun_json_partition_cross_check(capsys):
    code, out, _ = run(capsys, "genfun", "--y", "0.5", "--cutoff", "20",
                       "--format", "json")
    doc = json.loads(out)
    assert doc["rows"][0]["partition_dev"] <= 1e-12


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "index-torus", "--help")[0] == 0


def test_verify_all_byte_stable_and_honest(verify_all_twice):
    (code1, a), (code2, b) = verify_all_twice
    assert a == b
    # the whole document is pinned; the torus sums keep their roundoff below
    # the 1e-12 it is printed to on every BLAS kernel (the test further down)
    assert a == (DATA_DIR / "verify_all.json").read_bytes()
    assert code1 == code2
    doc = json.loads(a)
    assert list(doc) == ["algebra", "characteristic", "torus", "sphere", "genfun"]
    for name in ("algebra", "characteristic", "torus", "sphere"):
        assert doc[name]["pass"] is True
    # the exit code is 0 exactly when every category, genfun included, passes
    assert code1 == (0 if doc["genfun"]["pass"] else 1)


@pytest.mark.parametrize("tolerance, stage", [
    ("ALGEBRA_TOL", "algebra"),
    ("ORACLE_TOL", "characteristic"),
    ("PLATEAU_TOL", "torus"),
    ("GENFUN_TOL", "genfun"),
    ("PARTITION_TOL", "genfun"),
])
def test_each_tolerance_governs_its_own_stage(monkeypatch, tolerance, stage):
    # every deviation the tolerance bounds is above 0 at the seed (the
    # associativity 1.4e-15, the oracle 8.7e-19, each unrounded torus
    # plateau, genfun at y = 0.5 2.2e-7, the partition sums 1.1e-16), so
    # a zero bound must fail the stage whose rows read it
    monkeypatch.setattr(report, tolerance, 0.0)
    assert getattr(report, f"stage_{stage}")()["pass"] is False


def run_child(argv, **env):
    """A fresh interpreter on this checkout's sources; env entries of None are unset."""
    full = dict(os.environ)
    full["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       full.get("PYTHONPATH")]))
    for key, value in env.items():
        if value is None:
            full.pop(key, None)
        else:
            full[key] = value
    return subprocess.run([sys.executable, *argv], env=full, capture_output=True,
                          text=True, timeout=300)


_VERIFY_ALL_MODULES = """
import sys
from diracindex.cli import main
code = main(["verify-all", "--out", sys.argv[1]])
print("numpy.random" in sys.modules)
sys.exit(code)
"""


@functools.cache
def cold_verify_all():
    """One cold verify-all child on the default BLAS kernel, shared by the two
    tests below and run when the first of them gets past its skip: the
    finished process, whose stdout says whether numpy.random was loaded, and
    the document's bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "doc.json"
        child = run_child(["-c", _VERIFY_ALL_MODULES, str(out)], OPENBLAS_CORETYPE=None)
        return child, out.read_bytes() if child.returncode == 0 else None


def test_verify_all_never_loads_numpy_random():
    # the sampled checks draw from random.Random; numpy.random would add
    # about 6 MB and 15 ms to every cold verify-all
    plain = run_child(["-c", "import sys, numpy; print('numpy.random' in sys.modules)"])
    assert plain.returncode == 0, plain.stderr
    if plain.stdout.split() == ["True"]:
        pytest.skip("this numpy loads numpy.random on a plain import numpy")
    child, _ = cold_verify_all()
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == ["False"]


def _forced_kernels_unavailable():
    """Why OPENBLAS_CORETYPE cannot be tested here, or None if it can."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return f"OPENBLAS_CORETYPE needs x86-64, this is {platform.machine()}"
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if "DYNAMIC_ARCH" not in str(blas.get("openblas configuration", "")):
        return f"OPENBLAS_CORETYPE needs a DYNAMIC_ARCH OpenBLAS, numpy has {blas.get('name')}"
    return None


def test_verify_all_bytes_do_not_depend_on_the_blas_kernel(tmp_path):
    # each kernel sums the torus spectra in its own order; the document
    # publishes plateau_dev to 1e-12, so that roundoff stays out of it.
    # Prescott needs SSE3 and Nehalem SSE4.2, which every current x86-64 has
    reason = _forced_kernels_unavailable()
    if reason:
        pytest.skip(reason)
    child, default = cold_verify_all()
    assert child.returncode == 0, child.stderr
    docs = {None: default}
    for kernel in ("Prescott", "Nehalem"):
        out = tmp_path / f"{kernel}.json"
        done = run_child(["-m", "diracindex.cli", "verify-all", "--out", str(out)],
                         OPENBLAS_CORETYPE=kernel)
        assert done.returncode == 0, done.stderr
        docs[kernel] = out.read_bytes()
    assert docs["Prescott"] == docs[None]
    assert docs["Nehalem"] == docs[None]
