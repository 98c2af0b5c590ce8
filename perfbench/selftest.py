"""Self-test of the benchmark: corrupted results must count as failures, and the
printed metric names must match BENCHMARK.json.

    python3 perfbench/selftest.py

Takes about two minutes: it runs one cold verify-all and every workload once
in each trace mode.  Exits non-zero on the first failed assertion.
"""

import json
import shutil
import subprocess
import sys

import run  # sets the BLAS thread count before numpy loads

sys.path.insert(0, str(run.SRC))

import inputs  # noqa: E402
from diracindex import algebra, cli  # noqa: E402


def corrupted_torus_case_fails(tmp):
    case = (8, "overlap", 2, 1.0)
    csv_path = tmp / "spectrum.csv"
    code, stdout = run._quiet_call(cli.main, ["index-torus", "--N", "8", "--q", "2",
                                              "--format", "json", "--csv", str(csv_path)])
    op, _ = run.check_torus_case(run.Op("N8", 0.0), case, code, stdout, csv_path)
    assert op.ok, op.problem
    doc = json.loads(stdout)
    doc["analytic_index"] += 1
    op, _ = run.check_torus_case(run.Op("N8", 0.0), case, code, json.dumps(doc), csv_path)
    assert not op.ok and op.problem, "an index off by one passed"
    op, _ = run.check_torus_case(run.Op("N8", 0.0), case, 3, stdout, csv_path)
    assert not op.ok and op.problem, "exit code 3 passed"


def corrupted_verify_all_fails(tmp):
    out = tmp / "verify-all.json"
    code, _ = run.run_child([sys.executable, "-c",
                             "import sys; from diracindex.cli import main; sys.exit(main())",
                             "verify-all", "--out", str(out)], tmp / "verify-all.log")
    payload = out.read_bytes()
    ops = run.check_verify_all(payload, code, payload)
    assert [op.ok for op in ops] == [True, True, True, True, False], [op.ok for op in ops]
    assert ops[4].known == run.KNOWN_GENFUN and not any(op.problem for op in ops)

    at = payload.index(b'"plateau_dev": ') + len(b'"plateau_dev": ')
    digit = payload[at:at + 1]
    changed = payload[:at] + (b"9" if digit != b"9" else b"8") + payload[at + 1:]
    ops = run.check_verify_all(changed, code, payload)
    assert all(not op.ok and op.problem for op in ops), "a changed byte passed"

    doc = json.loads(payload)
    doc["torus"]["cases"][0]["overlap"] += 1
    ops = run.check_verify_all(json.dumps(doc).encode(), code, None)
    assert not ops[2].ok and ops[2].problem, "an overlap index off by one passed"


def corrupted_characteristic_fails(tmp):
    import numpy as np

    case = inputs.curvature_case(np.random.default_rng(7), 8)
    case["which"] = "density"
    inputs.write_curvature_files([{"chars": [case]}], tmp)
    code, stdout = run._quiet_call(cli.main, ["characteristic", "--file", case["path"],
                                              "--which", "density", "--format", "json"])
    oracle = inputs.curvature_oracle(case)
    assert run.check_characteristic(run.Op("char.dim8", 0.0), case, code, stdout, oracle).ok
    doc = json.loads(stdout)
    doc["integral"] += 1.0
    op = run.check_characteristic(run.Op("char.dim8", 0.0), case, code, json.dumps(doc), oracle)
    assert not op.ok and op.problem, "a wrong integral passed"


def corrupted_product_fails():
    ctx = algebra.AlgebraContext(4)
    a = ctx.blade((1, 2), algebra.CLIFFORD) + ctx.blade((3,), algebra.CLIFFORD)
    b = ctx.blade((2, 3), algebra.CLIFFORD)
    c = ctx.blade((1, 4), algebra.CLIFFORD)
    left = algebra.clifford_mul(algebra.clifford_mul(a, b), c)
    right = algebra.clifford_mul(a, algebra.clifford_mul(b, c))
    assert run.identity_gap(left, right) <= run.PRODUCT_RTOL
    tampered = right + ctx.blade((4,), algebra.CLIFFORD) * 1e-6
    assert run.identity_gap(left, tampered) > run.PRODUCT_RTOL, "a wrong product passed"


def printed_metrics_match():
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
                    "--seed", "3", "--seconds", "0", "--trace", str(trace)]
            done = subprocess.run(argv, capture_output=True, text=True, cwd=run.ROOT,
                                  timeout=170)
            assert done.returncode == 0, done.stderr
            result = json.loads(done.stdout.splitlines()[-1])
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
            assert result["correct"] is True, done.stdout
            printed = [(name, m["unit"]) for name, m in result["metrics"].items()]
            assert printed == run.expected_metrics(trace), (workload, trace)


def bare_directory_fails(tmp):
    bare = tmp / "bare"
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "forms",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=bare, timeout=170)
    assert done.returncode != 0, "ran without the package source"
    assert '"metrics"' not in done.stdout, "printed a result without the package source"


def main():
    run.OUT_DIR.mkdir(exist_ok=True)
    tmp = run.OUT_DIR / "selftest"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir()
    try:
        corrupted_torus_case_fails(tmp)
        corrupted_characteristic_fails(tmp)
        corrupted_product_fails()
        corrupted_verify_all_fails(tmp)
        bare_directory_fails(tmp)
        printed_metrics_match()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
