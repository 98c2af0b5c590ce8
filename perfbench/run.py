"""Benchmark of the diracindex checker.

    python3 perfbench/run.py --workload verify-all|torus-sweep|forms \
        --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout: the package is imported from
``src/`` next to this directory, never from an installed copy.  One process
drives a closed loop, one operation at a time.  BLAS runs on one thread: on a
shared two-core host a two-thread OpenBLAS stalls at its barriers whenever
the other core is busy, which made timings both slower and far noisier.  The
thread count in effect is recorded in the ``env`` line together with the
versions and the source digest.

Workloads (``BENCHMARK.json`` records why each was chosen):

* ``verify-all``: each operation is one cold ``diracindex verify-all --out``
  in a fresh interpreter; the five stage verdicts of each run are checked.
  It takes no seed: its inputs are the fixed canonical set.
* ``torus-sweep``: in-process ``index-torus`` cases at N = 12, 16, 20, each
  size with both index methods per round, q and the kernel mass seeded.
* ``forms``: in-process ``characteristic`` runs on seeded dim-8 and dim-12
  curvature files, plus batches of dense dim-8 and sparse dim-16
  ``clifford_mul``/``wedge`` products.

A round is one operation of every kind the workload has; ``round_s`` sums,
over the kinds, the median time of that kind times its count per round.
With ``--trace 0`` the last line carries the end-to-end metrics; ``setup_s`` is the median of
several fresh-interpreter set-ups (start, import, inputs, warm-up).  With
``--trace 1`` untraced and traced rounds alternate, the traced ones record
spans around the package's public functions (see ``tracing.py``), and the
last line carries the per-layer metrics plus the tracing overhead.

Every operation is checked.  ``failed`` counts every operation whose
verification did not pass.  ``correct`` is false when the benchmark sees a
wrong or unstable output, or a failure that is not one of the known ones
recorded in ``BENCHMARK.json``: the generating-function stage of
``verify-all`` (basis truncation, acceptance checks A3/A9) and torus plateau
deviations above PLATEAU_TOL with every integer right (the chirality
labelling inside degenerate clusters).
"""

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import inputs  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / ".out"

WORKLOADS = ("verify-all", "torus-sweep", "forms")
SETUP_PROBES = 9
CHILD_TIMEOUT_S = 150
STAGES = ("algebra", "characteristic", "torus", "sphere", "genfun")

# Known failures at the seed commit, classified by signature, never by input.
KNOWN_GENFUN = "genfun stage: cutoff-60 basis truncation (A3/A9)"
KNOWN_PLATEAU = "torus plateau above PLATEAU_TOL, integers right (chirality labelling)"
KNOWN_PLATEAU_MAX = 1e-4     # beyond this a plateau miss is not the labelling error
ORACLE_RTOL = 1e-8
PRODUCT_RTOL = 1e-9


class Op:
    """One checked operation: its kind, wall time and verdict."""

    __slots__ = ("kind", "seconds", "ok", "known", "problem")

    def __init__(self, kind, seconds):
        self.kind = kind
        self.seconds = seconds
        self.ok = True
        self.known = None
        self.problem = None

    def fail(self, known=None, problem=None):
        self.ok = False
        if known is not None and self.known is None:
            self.known = known
        if problem is not None and self.problem is None:
            self.problem = problem
        return self


def _close(got, want, rtol, atol=0.0):
    return abs(got - want) <= rtol * abs(want) + atol


def _quiet_call(fn, argv):
    """Call a CLI entry point with stdout/stderr captured; returns (code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = fn(argv)
    return code, out.getvalue()


def _child_env():
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv, log_path):
    """Run a child interpreter to completion; returns (exit code, wall seconds)."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=_child_env(), cwd=ROOT, stdout=log,
                                stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise
        return code, time.perf_counter() - start


# ---------------------------------------------------------------------------
# checks


def check_verify_all(payload, code, reference):
    """Five stage operations for one verify-all document.

    ``payload`` is the document's bytes (None if it was not written) and
    ``reference`` the bytes of the first document of the run.
    """
    ops = [Op(f"stage.{s}", 0.0) for s in STAGES]
    if payload is None:
        return [op.fail(problem=f"no document, exit code {code}") for op in ops]
    if reference is not None and payload != reference:
        return [op.fail(problem="document differs from the first one of this run")
                for op in ops]
    try:
        doc = json.loads(payload)
    except ValueError:
        return [op.fail(problem="document is not JSON") for op in ops]
    if list(doc) != list(STAGES):
        return [op.fail(problem=f"stage keys {list(doc)}") for op in ops]
    from diracindex.report import PLATEAU_TOL, GENFUN_TOL

    for op, stage in zip(ops, STAGES):
        if doc[stage].get("pass") is not True:
            op.fail()
    torus, sphere, genfun = doc["torus"], doc["sphere"], doc["genfun"]
    for case in torus["cases"]:
        q = case["q"]
        integers_ok = (case["flux"] == case["overlap"] == case["asymmetry"] == q
                       and case["pair_violations"] == 0)
        if not integers_ok:
            ops[2].fail(problem=f"torus N={case['N']} q={q} integers {case}")
        elif case["pass"] != (case["plateau_dev"] <= PLATEAU_TOL):
            ops[2].fail(problem=f"torus N={case['N']} q={q} verdict disagrees with plateau")
    if torus["gauge_sweep"]["integer_changes"] != 0:
        ops[2].fail(problem="a gauge transformation moved an integer")
    for case in sphere["cases"]:
        if case["asymmetry"] != case["q"] or case["pair_violations"] != 0:
            ops[3].fail(problem=f"sphere q={case['q']} integers {case}")
    top = max(row["cutoff"] for row in genfun["rows"])
    converged = True
    for row in genfun["rows"]:
        y = row["y"]
        closed = (y / 2.0) / math.sinh(y / 2.0)
        if (not _close(row["closed_form"], closed, 1e-11)
                or not _close(row["abs_diff"], abs(row["value"] - closed), 1e-6, 1e-15)):
            ops[4].fail(problem=f"genfun row y={y} cutoff={row['cutoff']} inconsistent")
        if row["cutoff"] == top:
            converged = converged and abs(row["value"] - closed) < GENFUN_TOL
    if genfun["converged_at_max_cutoff"] != converged:
        ops[4].fail(problem="genfun convergence flag disagrees with its rows")
    if (not ops[4].ok and not converged
            and genfun["partition_check_max_dev"] <= 1e-12):
        ops[4].fail(known=KNOWN_GENFUN)
    want_code = 0 if all(doc[s]["pass"] for s in STAGES) else 1
    if code != want_code:
        ops[0].fail(problem=f"exit code {code}, document says {want_code}")
    for op in ops:
        if not op.ok and op.known is None and op.problem is None:
            op.fail(problem=f"{op.kind} failed")
    return ops


def verify_all_figures(payload):
    """(genfun max |value - closed form| at the largest cutoff, torus plateau max dev)."""
    doc = json.loads(payload)
    rows = doc["genfun"]["rows"]
    top = max(row["cutoff"] for row in rows)
    genfun_err = max(abs(r["value"] - (r["y"] / 2.0) / math.sinh(r["y"] / 2.0))
                     for r in rows if r["cutoff"] == top)
    plateau = max(case["plateau_dev"] for case in doc["torus"]["cases"])
    return genfun_err, plateau


def check_torus_case(op, case, code, stdout, csv_path):
    """Verdict of one index-torus call against q, its own JSON and its CSV."""
    from diracindex.report import PLATEAU_TOL
    from diracindex.spectral import ZERO_TOL

    size, method, q, _ = case
    if code not in (0, 1):
        return op.fail(problem=f"N={size} q={q} {method}: exit code {code}"), None
    try:
        report = json.loads(stdout)
        analytic, topological = report["analytic_index"], report["topological_index"]
        plateau = max(abs(v - analytic) for _, v in report["witten_values"])
        with open(csv_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        zero_chirality = sum(int(chi) for lam, chi, _ in rows[1:] if float(lam) <= ZERO_TOL)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return op.fail(problem=f"N={size} q={q} {method}: unreadable output ({exc})"), None
    integers_ok = (analytic == topological == q == zero_chirality
                   and report["pair_check_violations"] == 0
                   and rows[0] == ["lambda", "chirality", "source"])
    passed = integers_ok and plateau <= PLATEAU_TOL
    if report["pass"] != passed or code != (0 if passed else 1):
        return op.fail(problem=f"N={size} q={q} {method}: verdict {report['pass']}, "
                               f"exit {code}, benchmark says {passed}"), plateau
    if not integers_ok:
        return op.fail(problem=f"N={size} q={q} {method}: integers {analytic}, "
                               f"{topological}, zero modes {zero_chirality}"), plateau
    if not passed:
        if plateau <= KNOWN_PLATEAU_MAX:
            return op.fail(known=KNOWN_PLATEAU), plateau
        return op.fail(problem=f"N={size} q={q} {method}: plateau {plateau:.3e}"), plateau
    return op, plateau


def check_characteristic(op, case, code, stdout, oracle):
    """Top coefficient and integral of one characteristic call against the oracle."""
    if code != 0:
        return op.fail(problem=f"characteristic dim {case['dim']}: exit code {code}")
    try:
        doc = json.loads(stdout)
        top, integral = doc["top_coefficient"], doc["integral"]
        labels = (doc["which"], doc["n"])
    except (ValueError, KeyError, TypeError) as exc:
        return op.fail(problem=f"characteristic dim {case['dim']}: unreadable output ({exc})")
    genus_top, density_top = oracle
    want = genus_top if case["which"] == "ahat" else density_top
    if (labels != (case["which"], case["dim"] // 2)
            or not _close(top, want, ORACLE_RTOL)
            or not _close(integral, want * case["volume"], ORACLE_RTOL)):
        return op.fail(problem=f"characteristic dim {case['dim']} {case['which']}: "
                               f"top {top!r} integral {integral!r}, oracle {want!r}")
    return op


def identity_gap(lhs, rhs):
    """Largest coefficient of lhs - rhs relative to the size of lhs."""
    return (lhs - rhs).max_norm() / max(1.0, lhs.max_norm())


# ---------------------------------------------------------------------------
# workloads


class VerifyAll:
    name = "verify-all"
    in_process = False      # each operation is a child interpreter; it traces itself

    def __init__(self, seed, tmp):
        self.tmp = tmp
        self.reference = None
        self.payloads = []
        self.spans = []

    def setup(self):
        import diracindex  # noqa: F401  (the set-up of a cold run is the import)

    def warm_up(self):
        """Nothing to warm: users pay the cold cost on every run, so it is measured."""

    def run_round(self, index, traced):
        out = self.tmp / f"verify-all-{index}.json"
        log = self.tmp / f"verify-all-{index}.log"
        if traced:
            spans_path = self.tmp / f"spans-{index}.json"
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path),
                    "verify-all", "--out", str(out)]
        else:
            argv = [sys.executable, "-c",
                    "import sys; from diracindex.cli import main; sys.exit(main())",
                    "verify-all", "--out", str(out)]
        code, seconds = run_child(argv, log)
        payload = out.read_bytes() if out.exists() else None
        if self.reference is None:
            self.reference = payload
        ops = check_verify_all(payload, code, self.reference)
        ops[0].seconds = seconds
        if payload is not None:
            self.payloads.append(payload)
            out.unlink()
        if traced and spans_path.exists():
            with open(spans_path, encoding="utf-8") as fh:
                self.spans.append(json.load(fh))
            spans_path.unlink()
        return ops

    def figures(self, ops):
        out = {"verify_all_s": ("s", [op.seconds for op in ops if op.kind == "stage.algebra"])}
        if self.payloads:
            genfun_err, plateau = verify_all_figures(self.payloads[0])
            out["genfun_max_abs_err"] = ("abs", genfun_err)
            out["plateau_max_dev"] = ("abs", plateau)
        return out

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


class TorusSweep:
    name = "torus-sweep"
    in_process = True

    def __init__(self, seed, tmp):
        self.seed = seed
        self.tmp = tmp
        self.plateaus = []

    def setup(self):
        from diracindex import cli

        self.cli = cli
        self.rounds = inputs.torus_rounds(self.seed)

    def warm_up(self):
        _quiet_call(self.cli.main, ["index-torus", "--N", "8", "--q", "2", "--format", "json",
                                    "--csv", str(self.tmp / "warm.csv")])

    def run_round(self, index, traced):
        ops = []
        csv_path = self.tmp / "spectrum.csv"
        for case in self.rounds[index % len(self.rounds)]:
            size, method, q, mass = case
            argv = ["index-torus", "--N", str(size), "--q", str(q), "--m", repr(mass),
                    "--method", method, "--format", "json", "--csv", str(csv_path)]
            start = time.perf_counter()
            code, stdout = _quiet_call(self.cli.main, argv)
            op = Op(f"N{size}.{method}", time.perf_counter() - start)
            op, plateau = check_torus_case(op, case, code, stdout, csv_path)
            if plateau is not None:
                self.plateaus.append(plateau)
            ops.append(op)
        return ops

    def figures(self, ops):
        out = {}
        for size in (12, 20):
            for method in inputs.TORUS_METHODS:
                out[f"torus_case_s.N{size}.{method}"] = (
                    "s", [op.seconds for op in ops if op.kind == f"N{size}.{method}"])
        out["plateau_max_dev"] = ("abs", max(self.plateaus, default=0.0))
        return out

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Forms:
    name = "forms"
    in_process = True

    def __init__(self, seed, tmp):
        self.seed = seed
        self.tmp = tmp
        self.oracles = {}
        self.product_time = {"dim8": [0, 0.0], "dim16": [0, 0.0]}

    def setup(self):
        import diracindex.algebra as algebra
        from diracindex import cli

        self.cli = cli
        self.algebra = algebra
        self.rounds = inputs.forms_rounds(self.seed)
        inputs.write_curvature_files(self.rounds, self.tmp)
        ctx8 = algebra.AlgebraContext(inputs.DENSE_DIM)
        ctx16 = algebra.AlgebraContext(inputs.SPARSE_DIM)
        for rnd in self.rounds:
            rnd["dense"] = [self._operands(ctx8, rnd["dense"])]
            rnd["sparse"] = [self._operands(ctx16, terms) for terms in rnd["sparse"]]

    def _operands(self, ctx, terms):
        # clifford a, b, c for associativity; exterior a, b for graded commutativity
        mv = self.algebra.MultiVector
        cl, ex = self.algebra.CLIFFORD, self.algebra.EXTERIOR
        a_ex, b_ex = mv(ctx, terms[3], ex), mv(ctx, terms[4], ex)
        odd = {m: c for m, c in terms[4].items() if m.bit_count() % 2}
        even = {m: c for m, c in terms[4].items() if not m.bit_count() % 2}
        involuted = {m: (-c if m.bit_count() % 2 else c) for m, c in terms[3].items()}
        return {"a": mv(ctx, terms[0], cl), "b": mv(ctx, terms[1], cl),
                "c": mv(ctx, terms[2], cl), "a_ex": a_ex, "b_ex": b_ex,
                "b_even": mv(ctx, even, ex), "b_odd": mv(ctx, odd, ex),
                "a_involuted": mv(ctx, involuted, ex)}

    def warm_up(self):
        case = self.rounds[0]["chars"][0]
        _quiet_call(self.cli.main, ["characteristic", "--file", case["path"],
                                    "--which", "density", "--format", "json"])
        operands = self.rounds[0]["dense"][0]
        self.algebra.clifford_mul(operands["a"], operands["b"])
        self.algebra.wedge(operands["a_ex"], operands["b_ex"])

    def _timed(self, fn, key, x, y):
        start = time.perf_counter()
        out = fn(x, y)
        seconds = time.perf_counter() - start
        if key is not None:
            self.product_time[key][0] += 1
            self.product_time[key][1] += seconds
        return out, seconds

    def _product_batch(self, kind, batch):
        mul, wedge = self.algebra.clifford_mul, self.algebra.wedge
        op = Op(f"products.{kind}", 0.0)
        for o in batch:
            ab, t1 = self._timed(mul, kind, o["a"], o["b"])
            abc, t2 = self._timed(mul, kind, ab, o["c"])
            bc, t3 = self._timed(mul, kind, o["b"], o["c"])
            a_bc, t4 = self._timed(mul, kind, o["a"], bc)
            lhs, t5 = self._timed(wedge, None, o["a_ex"], o["b_ex"])
            even, t6 = self._timed(wedge, None, o["b_even"], o["a_ex"])
            odd, t7 = self._timed(wedge, None, o["b_odd"], o["a_involuted"])
            op.seconds += t1 + t2 + t3 + t4 + t5 + t6 + t7
            if identity_gap(abc, a_bc) > PRODUCT_RTOL:
                op.fail(problem=f"{kind}: clifford_mul not associative, "
                                f"gap {identity_gap(abc, a_bc):.3e}")
            if identity_gap(lhs, even + odd) > PRODUCT_RTOL:
                op.fail(problem=f"{kind}: wedge breaks graded commutativity, "
                                f"gap {identity_gap(lhs, even + odd):.3e}")
        return op

    def run_round(self, index, traced):
        rnd = self.rounds[index % len(self.rounds)]
        ops = []
        for case in rnd["chars"]:
            argv = ["characteristic", "--file", case["path"], "--which", case["which"],
                    "--format", "json"]
            start = time.perf_counter()
            code, stdout = _quiet_call(self.cli.main, argv)
            op = Op(f"char.dim{case['dim']}.{case['which']}", time.perf_counter() - start)
            ops.append(check_characteristic(op, case, code, stdout, self._oracle(case)))
        ops.append(self._product_batch("dim8", rnd["dense"]))
        ops.append(self._product_batch("dim16", rnd["sparse"]))
        return ops

    def _oracle(self, case):
        key = case["path"]
        if key not in self.oracles:
            self.oracles[key] = inputs.curvature_oracle(case)
        return self.oracles[key]

    def figures(self, ops):
        out = {}
        for dim in (8, 12):
            for which in ("density", "ahat"):
                out[f"characteristic_s.dim{dim}.{which}"] = (
                    "s", [op.seconds for op in ops if op.kind == f"char.dim{dim}.{which}"])
        for key, (count, seconds) in self.product_time.items():
            out[f"clifford_mul_per_s.{key}"] = ("1/s", count / seconds if seconds else 0.0)
        return out

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


WORKLOAD_CLASSES = {cls.name: cls for cls in (VerifyAll, TorusSweep, Forms)}


# ---------------------------------------------------------------------------
# environment stamp


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _src_digest():
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _blas_threads_in_effect():
    """Thread count OpenBLAS reports, from the library numpy loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh
                     if "openblas" in line.lower() and line.rstrip().endswith(".so")}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed):
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"git_commit": _git_commit(), "src_sha256": _src_digest(), "seed": seed,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_config": blas.get("openblas configuration"),
            "blas_threads_set": BLAS_THREADS,
            "blas_threads_in_effect": _blas_threads_in_effect(),
            "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
            "machine": platform.machine()}


# ---------------------------------------------------------------------------
# statistics and output


def timing_summary(values):
    """Median, the highest percentile with at least ten samples beyond it, and n."""
    values = sorted(values)
    n = len(values)
    text = f"median {statistics.median(values):.6g}" if values else "median n/a"
    if n >= 11:
        k = n - 10
        text += f"  p{100.0 * k / n:.0f} {values[k - 1]:.6g}"
    else:
        text += "  (no percentile with 10 samples beyond it)"
    return text + f"  n={n}"


def round_time(ops, rounds):
    """One round's time from per-kind medians: sum over kinds of median x ops per round.

    Medians per kind, over every operation of the run, are steadier than the
    median of whole-round sums when a round holds only a few operations.
    """
    by_kind = {}
    for op in ops:
        by_kind.setdefault(op.kind, []).append(op.seconds)
    return sum(statistics.median(times) * len(times) / rounds for times in by_kind.values())


def expected_metrics(trace):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    return [(m["name"], m["unit"]) for m in bench["per_layer" if trace else "end_to_end"]]


def result_line(correct, attempted, failed, values, trace):
    """The final JSON line; refuses metric names that differ from BENCHMARK.json."""
    expected = expected_metrics(trace)
    names = [name for name, _ in expected]
    if sorted(values) != sorted(names):
        missing = sorted(set(names) - set(values))
        extra = sorted(set(values) - set(names))
        raise RuntimeError(f"metrics differ from BENCHMARK.json: missing {missing}, "
                           f"extra {extra}")
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in expected}
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def measure_setup(workload, seed, tmp):
    """Median wall time of fresh interpreters that only set the workload up."""
    times = []
    for k in range(SETUP_PROBES):
        argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", "0", "--trace", "0", "--setup-probe"]
        code, seconds = run_child(argv, tmp / f"setup-{k}.log")
        if code != 0:
            raise RuntimeError(f"set-up probe exited {code}, see {tmp / f'setup-{k}.log'}")
        times.append(seconds)
    return statistics.median(times)


def run(args, tmp):
    workload = WORKLOAD_CLASSES[args.workload](args.seed, tmp)
    if args.setup_probe:
        workload.setup()
        workload.warm_up()
        return None

    print("env " + json.dumps(environment(args.seed), sort_keys=True), flush=True)
    setup_s = None if args.trace else measure_setup(args.workload, args.seed, tmp)
    workload.setup()
    workload.warm_up()

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    ops, round_seconds = [], {False: [], True: []}
    start = time.perf_counter()
    index = 0
    while True:
        traced = bool(args.trace) and index % 2 == 1
        pool_index = index // 2 if args.trace else index
        if traced and workload.in_process:
            tracer.install()
        try:
            if tracer is not None:
                tracer.op = index if traced else None
            round_ops = workload.run_round(pool_index, traced)
        finally:
            if traced and workload.in_process:
                tracer.uninstall()
        if traced and not workload.in_process and workload.spans:
            tracer.extend(workload.spans.pop(), index)
        ops.extend(round_ops)
        round_seconds[traced].append(sum(op.seconds for op in round_ops))
        index += 1
        if time.perf_counter() - start >= args.seconds and index >= (2 if args.trace else 1):
            break

    attempted = len(ops)
    failed = sum(1 for op in ops if not op.ok)
    problems = [op.problem for op in ops if op.problem]
    known = {}
    for op in ops:
        if not op.ok and op.known and not op.problem:
            known[op.known] = known.get(op.known, 0) + 1
    for problem in problems:
        print(f"problem {problem}")
    for label, count in known.items():
        print(f"known failure x{count}: {label}")
    print(f"workload {args.workload}: rounds={index} ops={attempted} failed={failed}")

    untraced = round_seconds[False]
    with open(OUT_DIR / f"ops-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump([[op.kind, op.seconds, op.ok] for op in ops], fh)
    if args.trace:
        tracer.dump(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json")
        from tracing import layer_metrics

        values = layer_metrics(tracer.spans)
        base = statistics.median(untraced)
        overhead = statistics.median(round_seconds[True]) - base
        values["trace.overhead_s"] = overhead
        values["trace.overhead_frac"] = overhead / base
        for name, value in values.items():
            print(f"layer {name} {value:.6g}")
    else:
        figures = workload.figures(ops)
        figures["setup_s"] = ("s", setup_s)
        figures["peak_rss_mb"] = ("MB", workload.peak_rss_mb())
        figures["ops_failed_frac"] = ("frac", failed / attempted)
        for name, (unit, value) in sorted(figures.items()):
            if isinstance(value, list):
                print(f"metric {name} [{unit}] {timing_summary(value)}")
            else:
                print(f"metric {name} [{unit}] {value:.6g}")
        values = {"setup_s": setup_s, "round_s": round_time(ops, len(untraced)),
                  "peak_rss_mb": workload.peak_rss_mb()}
        print(f"metric round_s [s] {values['round_s']:.6g}  "
              f"(per-round sums: {timing_summary(untraced)})")
    return result_line(not problems, attempted, failed, values, args.trace)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "diracindex" / "__init__.py").is_file():
        print(f"run.py: no package source at {SRC / 'diracindex'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)
    tmp = OUT_DIR / f"tmp-{os.getpid()}"
    tmp.mkdir()
    try:
        line = run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if line is not None:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
