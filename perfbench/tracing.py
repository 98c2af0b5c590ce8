"""Span tracing from outside the package, and the per-layer metrics read off the spans.

``Tracer.install`` replaces each traced public function by a timing wrapper
under every name that refers to it in the loaded ``diracindex`` modules
(``report`` and ``cli`` hold their own references to the spectral functions,
``charclasses`` and ``formdsl`` hold one to ``wedge``), and wraps
``numpy.linalg.eigh``/``eigvalsh`` to count eigensolves and their sizes.
``uninstall`` puts every original back.  Nothing under ``src/`` changes.

A span is ``[name, start, end, parent, op, key, extra]``: ``parent`` is the
index of the enclosing span (-1 at the top), ``op`` the operation id the
benchmark set, ``key`` the size the call worked on (lattice size, algebra
dimension, cutoff, term pairs, file bytes) and ``extra`` what it returned
that a metric needs.  Spans stay in memory until ``dump``.
"""

import functools
import json
import math
import os
import statistics
import sys
import time

import numpy as np

NAME, START, END, PARENT, OP, KEY, EXTRA = range(7)

TORUS_SIZES = (8, 12, 16, 20)
GENFUN_CUTOFFS = (20, 40, 60)
CHAR_DIMS = (8, 12)
SPECTRAL_FUNCS = ("build_torus_gauge", "topological_flux", "build_wilson_dirac",
                  "overlap_index", "heat_kernel_system", "witten_index",
                  "pair_check", "zero_mode_asymmetry")
STAGES = ("algebra", "characteristic", "torus", "sphere", "genfun")


def _lattice_size(obj):
    if isinstance(obj, int):
        return obj
    if hasattr(obj, "links"):                       # LatticeGaugeField
        return obj.size
    if hasattr(obj, "chirality_matrix"):            # WilsonDiracOperator
        return math.isqrt(obj.matrix.shape[0] // 2)
    source = getattr(obj, "source", "")             # SpectralSystem
    if source.startswith("torus N="):
        return int(source.split()[1][2:])
    return None


def _spectral_key(args, kwargs):
    return _lattice_size(args[0]) if args else None


def _form_dim(args, kwargs):
    for arg in args:
        if arg is not None:
            return arg.context.dim
    return None


def _cutoff(args, kwargs):
    return kwargs.get("cutoff", args[1] if len(args) > 1 else None)


def _term_pairs(args, kwargs):
    return len(args[0].terms) * len(args[1].terms)


def _file_bytes(args, kwargs):
    try:
        return os.path.getsize(args[0])
    except OSError:
        return None


def _eig_dim(args, kwargs):
    return int(np.shape(args[0])[-1])


# module -> [(function name, key of the call, what to keep from the result)]
TRACED = {
    "algebra": [("clifford_mul", _term_pairs, None), ("wedge", _term_pairs, None)],
    "charclasses": [("a_hat", _form_dim, None), ("chern_character", _form_dim, None),
                    ("index_density", _form_dim, None),
                    ("qho_generating_function", _cutoff, None)],
    "spectral": [(name, _spectral_key, None) for name in SPECTRAL_FUNCS],
    "formdsl": [("read_curvature_file", _file_bytes, None), ("load_curvature", None, None)],
    "report": [("run_torus_case", lambda a, k: a[0] if a else k.get("size"), None),
               ("run_verify_all", None, lambda out: out[2]),
               ("canonical_json", None, len),
               ("write_spectrum_csv", None, None)],
    "cli": [("main", None, None)],
}


class Tracer:
    """In-memory span recorder that wraps the package's public functions."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self._saved = []

    def _wrap(self, fn, name, key_fn, keep_fn):
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                      key_fn(args, kwargs) if key_fn else None, None]
            stack.append(len(spans))
            spans.append(record)
            record[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            if keep_fn is not None:
                record[EXTRA] = keep_fn(out)
            return out

        return traced

    def install(self):
        """Wrap every traced function under every diracindex name bound to it."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "diracindex" or n.startswith("diracindex.")) and m is not None]
        for short, funcs in TRACED.items():
            home = sys.modules[f"diracindex.{short}"]
            for fname, key_fn, keep_fn in funcs:
                original = getattr(home, fname)
                wrapper = self._wrap(original, f"{short}.{fname}", key_fn, keep_fn)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._saved.append((module, attr, original))
                            setattr(module, attr, wrapper)
        for fname in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, fname)
            self._saved.append((np.linalg, fname, original))
            setattr(np.linalg, fname,
                    self._wrap(original, f"numpy.linalg.{fname}", _eig_dim, None))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []

    def extend(self, spans, op):
        """Append spans recorded in another process, re-basing parent indices."""
        base = len(self.spans)
        for span in spans:
            span = list(span)
            span[PARENT] = span[PARENT] + base if span[PARENT] >= 0 else -1
            span[OP] = op
            self.spans.append(span)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def _ancestor(spans, index, prefix):
    """Nearest enclosing span whose name starts with prefix, or None."""
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME].startswith(prefix):
            return parent
        parent = spans[parent][PARENT]
    return None


def self_time(spans, children, index):
    """Duration of a span minus the part of it its child spans cover."""
    span = spans[index]
    covered = 0.0
    cursor = span[START]
    for child in sorted(children.get(index, ()), key=lambda c: spans[c][START]):
        start = max(spans[child][START], cursor)
        end = spans[child][END]
        if end > start:
            covered += end - start
            cursor = end
    return span[END] - span[START] - covered


def layer_metrics(spans):
    """Per-layer metrics from a traced run whose operation ids are round numbers.

    Algebra counts are per round (median over traced rounds), timings are
    medians per call or per torus case.  Eigensolve counts are exact: the most calls any one torus
    case made, and ``*_n3_computed`` is the largest per-case sum of dim**3
    over eigh calls, computed from the sizes, not measured.
    """
    out = {}
    by_name = {}
    children = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[NAME], []).append(i)
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append(i)

    def dur(i):
        return spans[i][END] - spans[i][START]

    # spectral: time per torus case (calls outside run_torus_case are their own case)
    cases = by_name.get("report.run_torus_case", [])
    for fname in SPECTRAL_FUNCS:
        per_case = {}
        for i in by_name.get(f"spectral.{fname}", []):
            size = spans[i][KEY]
            if size is None:
                continue
            case = _ancestor(spans, i, "report.run_torus_case")
            case = i if case is None else case
            group = per_case.setdefault(size, {})
            group[case] = group.get(case, 0.0) + dur(i)
        for size in TORUS_SIZES:
            out[f"spectral.{fname}.s.N{size}"] = _median(list(per_case.get(size, {}).values()))

    eig_per_case = {c: {"eigh": 0, "eigvalsh": 0, "n3": 0} for c in cases}
    eigh_dim_max = 0
    genfun_dims = {}
    for kind in ("eigh", "eigvalsh"):
        for i in by_name.get(f"numpy.linalg.{kind}", []):
            dim = spans[i][KEY]
            case = _ancestor(spans, i, "report.run_torus_case")
            genfun = _ancestor(spans, i, "charclasses.qho_generating_function")
            if case is not None:
                eig_per_case[case][kind] += 1
                if kind == "eigh":
                    eig_per_case[case]["n3"] += dim ** 3
            if kind != "eigh":
                continue
            if genfun is not None:
                cutoff = spans[genfun][KEY]
                genfun_dims[cutoff] = max(genfun_dims.get(cutoff, 0), dim)
            elif _ancestor(spans, i, "spectral.") is not None:
                eigh_dim_max = max(eigh_dim_max, dim)
    counts = list(eig_per_case.values())
    out["spectral.eigh_calls_per_case"] = float(max((c["eigh"] for c in counts), default=0))
    out["spectral.eigvalsh_calls_per_case"] = float(
        max((c["eigvalsh"] for c in counts), default=0))
    out["spectral.eigh_dim_max"] = float(eigh_dim_max)
    for size in TORUS_SIZES:
        out[f"spectral.eigh_n3_computed.N{size}"] = float(max(
            (eig_per_case[c]["n3"] for c in cases if spans[c][KEY] == size), default=0))

    # charclasses
    genfun_times = {}
    for i in by_name.get("charclasses.qho_generating_function", []):
        genfun_times.setdefault(spans[i][KEY], []).append(dur(i))
    for cutoff in GENFUN_CUTOFFS:
        out[f"charclasses.qho_generating_function.s.c{cutoff}"] = _median(
            genfun_times.get(cutoff, []))
        out[f"charclasses.eigh_dim.c{cutoff}"] = float(genfun_dims.get(cutoff, 0))
    out["charclasses.eigh_dim_max"] = float(max(genfun_dims.values(), default=0))
    for fname in ("a_hat", "chern_character", "index_density"):
        times = {}
        for i in by_name.get(f"charclasses.{fname}", []):
            times.setdefault(spans[i][KEY], []).append(dur(i))
        for dim in CHAR_DIMS:
            out[f"charclasses.{fname}.s.dim{dim}"] = _median(times.get(dim, []))

    # algebra: per-round totals, median over traced rounds
    rounds = sorted({span[OP] for span in spans if span[OP] is not None})
    for fname in ("clifford_mul", "wedge"):
        totals = {r: [0, 0, 0.0] for r in rounds}
        for i in by_name.get(f"algebra.{fname}", []):
            total = totals[spans[i][OP]]
            total[0] += 1
            total[1] += spans[i][KEY]
            total[2] += self_time(spans, children, i)
        rows = list(totals.values())
        out[f"algebra.{fname}.calls"] = _median([r[0] for r in rows])
        out[f"algebra.{fname}.term_pairs"] = _median([r[1] for r in rows])
        out[f"algebra.{fname}.s"] = _median([r[2] for r in rows])

    # formdsl
    reads = by_name.get("formdsl.read_curvature_file", [])
    out["formdsl.read_curvature_file.s"] = _median([dur(i) for i in reads])
    out["formdsl.load_curvature.s"] = _median(
        [dur(i) for i in by_name.get("formdsl.load_curvature", [])])
    out["formdsl.bytes"] = _median([spans[i][KEY] for i in reads if spans[i][KEY] is not None])

    # report
    stage_ms = [spans[i][EXTRA] for i in by_name.get("report.run_verify_all", [])
                if spans[i][EXTRA]]
    for stage in STAGES:
        out[f"report.stage.{stage}.s"] = _median(
            [t[stage] / 1000.0 for t in stage_ms if stage in t])
    dumps = by_name.get("report.canonical_json", [])
    out["report.canonical_json.s"] = _median([dur(i) for i in dumps])
    out["report.canonical_json.bytes"] = _median(
        [spans[i][EXTRA] for i in dumps if spans[i][EXTRA] is not None])
    out["report.write_spectrum_csv.s"] = _median(
        [dur(i) for i in by_name.get("report.write_spectrum_csv", [])])

    # cli
    out["cli.self_s"] = _median(
        [self_time(spans, children, i) for i in by_name.get("cli.main", [])])

    per_round = {}
    for span in spans:
        if span[OP] is not None:
            per_round[span[OP]] = per_round.get(span[OP], 0) + 1
    out["trace.spans_per_round"] = _median(list(per_round.values()))
    return out
