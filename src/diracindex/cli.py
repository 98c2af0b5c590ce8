"""Command-line surface: verification runs, sweeps, and algebra checks.

Exit codes: 0 everything verified, 1 a verification failed, 2 usage or
argument validation (one stderr line; numbers must be finite), an
index-torus --N or index-sphere --q/--kmax whose peak memory exceeds the
budget, or an output path (--out, --csv) that cannot be written, 3
numerical ambiguity (no clean zero/nonzero split), 4 curvature file error,
non-finite input included (a number too large for a float, a NaN, infinite
or boolean volume, a series coefficient or integral that overflows).
Human-readable tables go to stdout; --format json swaps in the
deterministic report rendering (timings stay out of JSON).
"""

import argparse
import cmath
import functools
import math
import sys
import warnings

from .charclasses import _valid_cap, a_hat, chern_character, index_density
from .formdsl import DslError, load_curvature, pretty_print, read_curvature_file
from .report import (_GENFUN_CUTOFFS, _SPHERE_KMAX, DEFAULT_TAUS, GENFUN_TOL,
                     canonical_json, genfun_table, round_sig, run_sphere_case,
                     run_torus_case, run_verify_all, stage_algebra, write_spectrum_csv)
from .spectral import AmbiguousSpectrumError, sphere_case_bytes, torus_case_bytes

# peak bytes of a case above which index-torus and index-sphere refuse it
TORUS_MEMORY_BUDGET = 2**30


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors are one stderr line, exit 2."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _finite_float(text):
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad number {text!r}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _float_list(text):
    return tuple(_finite_float(t) for t in text.split(","))


def _tau_grid(text):
    taus = _float_list(text)
    if any(t <= 0 for t in taus):
        raise argparse.ArgumentTypeError("tau values must be positive")
    return taus


def _grade_cap(text):
    try:
        cap = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad integer {text!r}")
    try:
        return _valid_cap(cap)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _int_list(text):
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad list {text!r}")


def _print_report(report, fmt):
    if fmt == "json":
        sys.stdout.write(canonical_json(report.to_dict()))
        return
    print(f"case                {report.case_name}")
    print(f"analytic index      {report.analytic_index}")
    print(f"topological index   {report.topological_index}")
    print(f"pair violations     {report.pair_check_violations}")
    for tau, value in report.witten_values:
        print(f"witten tau={tau:<4g}  {round_sig(value):.12g}")
    print(f"plateau deviation   {report.plateau_deviation:.3e}")
    timing = " | ".join(f"{k} {v:.0f} ms" for k, v in report.timings.items())
    print(f"timings             {timing}")
    print("PASS" if report.passed else "FAIL")


def cmd_algebra_check(args):
    section = stage_algebra()
    if args.format == "json":
        sys.stdout.write(canonical_json(section))
    else:
        print(f"anticommutator max deviation   {section['anticommutator_max_dev']:.3e}")
        print(f"basis trace max deviation      {section['basis_trace_max_dev']:.3e}")
        print(f"associativity max deviation    {section['associativity_max_dev']:.3e}")
        ratios = ", ".join(f"{r:.2f}" for r in section["phi_defect_ratios"])
        print(f"scaling-map defect ratios      {ratios}  (want ~100)")
        print("PASS" if section["pass"] else "FAIL")
    return 0 if section["pass"] else 1


def _over_budget(args, flags, need):
    """Refuse, on one stderr line, a case whose peak bytes exceed the budget."""
    if need <= TORUS_MEMORY_BUDGET:
        return False
    print(f"{args.command}: {flags} needs {need / 2**30:.1f} GiB, "
          f"over the {TORUS_MEMORY_BUDGET / 2**30:g} GiB budget", file=sys.stderr)
    return True


def _finish_case(args, report, system):
    if args.csv:
        write_spectrum_csv(args.csv, system)
    _print_report(report, args.format)
    return 0 if report.passed else 1


def cmd_index_torus(args):
    if _over_budget(args, f"--N {args.N}", torus_case_bytes(args.N)):
        return 2
    # a mass outside the (0, 2) window warns; each warning is one plain
    # stderr line, without Python's path, line number and source line, and
    # shows on every call, not once a process
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            report, system = run_torus_case(args.N, args.q, method=args.method,
                                            taus=args.tau, mass=args.m)
        finally:
            for warning in caught:
                print(f"{args.command}: warning: {warning.message}", file=sys.stderr)
    return _finish_case(args, report, system)


def cmd_index_sphere(args):
    if _over_budget(args, f"--q {args.q} --kmax {args.kmax}",
                    sphere_case_bytes(args.q, args.kmax)):
        return 2
    report, system = run_sphere_case(args.q, k_max=args.kmax, taus=args.tau)
    return _finish_case(args, report, system)


def cmd_characteristic(args):
    cf = read_curvature_file(args.file)
    riemann, twist = load_curvature(cf)
    cap = args.order
    for missing, what in ((args.which == "ahat" and riemann is None, "no riemann matrix"),
                          (args.which == "chern" and twist is None, "no twist matrix"),
                          (riemann is None and twist is None, "neither matrix")):
        if missing:
            print(f"characteristic: file has {what}", file=sys.stderr)
            return 4
    try:
        if args.which == "ahat":
            series = a_hat(riemann, cap=cap)
        elif args.which == "chern":
            series = chern_character(twist, cap=cap)
        else:
            series = index_density(riemann, twist, cap=cap)
    except OverflowError as exc:
        print(f"characteristic: the series overflows: {exc}", file=sys.stderr)
        return 4

    top = series.terms.get(series.context.top_mask, 0j)
    volume = cf.metadata.get("volume")
    integral = None if volume is None else (top * volume).real
    # a sum inside the series can overflow where no product does
    if not (all(map(cmath.isfinite, series.terms.values()))
            and (integral is None or math.isfinite(integral))):
        print("characteristic: a series coefficient or the integral is not finite",
              file=sys.stderr)
        return 4
    text = pretty_print(series)
    if args.format == "json":
        doc = {"which": args.which, "n": cf.n, "series": text,
               "top_coefficient": top.real}
        if integral is not None:
            doc["integral"] = integral
        sys.stdout.write(canonical_json(doc))
    else:
        name = cf.metadata.get("name")
        if name:
            print(f"{'file':<20}{name}")
        print(f"{args.which + ' series':<20}{text}")
        if integral is not None:
            print(f"{'top-form integral':<20}{round_sig(integral):.12g}")
    return 0


def cmd_genfun(args):
    per_y, partition_devs, _, ok = genfun_table(args.y, tuple(sorted(args.cutoff)))
    rows = [{**row, "partition_dev": dev}
            for y_rows, dev in zip(per_y, partition_devs) for row in y_rows]
    if args.format == "json":
        sys.stdout.write(canonical_json({"rows": rows, "pass": ok}))
    else:
        print(f"{'y':>6} {'cutoff':>7} {'matrix element':>18} "
              f"{'closed form':>18} {'|diff|':>12}")
        for r in rows:
            print(f"{r['y']:>6g} {r['cutoff']:>7d} {r['value']:>18.12f} "
                  f"{r['closed_form']:>18.12f} {r['abs_diff']:>12.3e}")
        print("PASS" if ok else f"FAIL (matrix element not converged to "
              f"{GENFUN_TOL:g} at the largest cutoff)")
    return 0 if ok else 1


def cmd_verify_all(args):
    doc, code, timings = run_verify_all()
    payload = canonical_json(doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    for name, ms in timings.items():
        status = "pass" if doc[name]["pass"] else "FAIL"
        print(f"{name:<15} {status}   {ms:8.0f} ms", file=sys.stderr)
    print(f"exit code {code}", file=sys.stderr)
    return code


def build_parser():
    parser = _Parser(
        prog="diracindex",
        description="index verification: spectral counts vs curvature integrals")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("algebra-check", help="graded-algebra invariant suite")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_algebra_check)

    p = sub.add_parser("index-torus", help="flux sector on the discrete torus")
    p.add_argument("--N", type=int, default=8, help="lattice size per side")
    p.add_argument("--q", type=int, required=True, help="flux quantum")
    p.add_argument("--method", choices=("overlap", "heat"), default="overlap")
    p.add_argument("--tau", type=_tau_grid, default=DEFAULT_TAUS,
                   help="comma-separated tau grid")
    p.add_argument("--m", type=_finite_float, default=1.0,
                   help="kernel mass in (0, 2); off-center values probe "
                        "robustness of the integer")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--csv", help="write the graded spectrum to this path")
    p.set_defaults(func=cmd_index_torus)

    p = sub.add_parser("index-sphere", help="monopole fixture plateau check")
    p.add_argument("--q", type=int, required=True, help="monopole charge")
    p.add_argument("--kmax", type=int, default=_SPHERE_KMAX, help="Landau-level cutoff")
    p.add_argument("--tau", type=_tau_grid, default=DEFAULT_TAUS)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--csv", help="write the graded spectrum to this path")
    p.set_defaults(func=cmd_index_sphere)

    p = sub.add_parser("characteristic", help="evaluate series from a curvature file")
    p.add_argument("--file", required=True, help="curvature JSON")
    p.add_argument("--which", choices=("ahat", "chern", "density"),
                   default="density")
    p.add_argument("--order", type=_grade_cap, default=None,
                   help="grade cap (defaults to the full dimension)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_characteristic)

    p = sub.add_parser("genfun", help="matrix-element vs closed-form table")
    p.add_argument("--y", type=_float_list, default=(1.0,),
                   help="comma-separated deformation parameters")
    p.add_argument("--cutoff", type=_int_list, default=_GENFUN_CUTOFFS,
                   help="comma-separated basis cutoffs")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_genfun)

    p = sub.add_parser("verify-all", help="run every category, emit one JSON")
    p.add_argument("--out", help="write the JSON document here instead of stdout")
    p.set_defaults(func=cmd_verify_all)

    return parser


@functools.cache
def _parser():
    # built once a process: in-process callers run many commands, and
    # parse_args keeps no state between calls
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except AmbiguousSpectrumError as exc:
        print(f"ambiguous spectrum: {exc}", file=sys.stderr)
        return 3
    except DslError as exc:
        print(f"curvature input error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, TypeError) as exc:
        print(f"invalid arguments: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
