"""Traced run: the per-layer metrics of one workload.

This is a separate invocation (`--trace 1`) so that per-layer numbers
never mix with the end-to-end ones. It has three phases:

1. Overhead. The workload's op loop runs untraced, then again with a
   span around every op and around each call the op makes into a layer
   (and, where the op evaluates code, with the observer hook counting
   calls). The difference in ops per second is the tracing overhead.
2. Material. Calls are recorded through `Runtime.run`'s observer as
   (function, method, args); programs, index cases and CLI files are
   collected. A layer the workload does not reach on its own is fed a
   small sample from the workload that owns it (same seed, smoke size);
   the report lists those layers under "borrowed".
3. Replay. The material is pushed through each layer once per pass, one
   span per layer call site in this file: type_of, make_tuple, warm and
   cold select, subtype, dispatch_call, join, meet, parse,
   prelude_source, Runtime(), run, infer_program, index_shape,
   getindex, view, view_get, to_array, NdArray and cli.main. Passes
   repeat while the time budget lasts; each metric is the median over
   passes, and a layer's self time is its spans' duration minus that of
   their child spans.

Spans (name, start, end, parent, op id) are kept in memory and written
to .bench_out/spans-<workload>-seed<seed>.jsonl at the end.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import time

import harness
from harness import RULES, median

LAYERS = ("dispatch", "runtime", "values", "lattice", "minilang", "preludes",
          "inference", "indexing", "views", "ndarray", "cli")
RECORD_LIMIT = 20000    # observed calls kept for replay
COLD_SAMPLE = 1500      # calls replayed with the dispatch cache off
PAIR_LIMIT = 4000       # type pairs replayed through join and meet
VIEW_GET_PER_VIEW = 64  # subscripts read per view
MAX_PASSES = 9


class Tracer:
    """In-memory spans plus a call counter for the observer hook."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, op]
        self.stack: list[int] = []
        self.op = -1
        self.calls = 0

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), 0.0,
               self.stack[-1] if self.stack else -1, self.op]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()

    def count_call(self, node, method, args, result):
        self.calls += 1

    def self_times(self, first: int = 0) -> dict:
        """Self time in seconds per span name, over spans[first:]."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans[first:]:
            if parent >= first:
                child[parent] += end - start
        out: dict[str, float] = {}
        for k in range(first, len(self.spans)):
            name, start, end, _, _ = self.spans[k]
            out[name] = out.get(name, 0.0) + (end - start) - child[k]
        return out

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            for k, (name, start, end, parent, op) in enumerate(self.spans):
                f.write(json.dumps({"id": k, "name": name, "start": start, "end": end,
                                    "parent": parent, "op": op}) + "\n")


# ------------------------------------------------------------- material


class Material:
    """Inputs for the replay, each list from the workload or borrowed."""

    def __init__(self, dk, lent: dict, seed: int):
        self.dk = dk
        self.borrowed = []
        self.lenders = []
        for kind in ("run_sources", "programs", "index_ops", "cli_ops"):
            if kind not in lent:
                lent[kind] = self._borrow(kind, seed)[kind]
                self.borrowed.append(kind)
        self.programs = lent["programs"]
        self.index_ops = lent["index_ops"]
        self.cli_ops = lent["cli_ops"]
        self._record(lent["run_sources"])
        self._infer_reports()
        self._index_cases()

    def _borrow(self, kind, seed):
        if kind in ("run_sources", "programs"):
            from eval_hot import EvalHot as lender
        elif kind == "index_ops":
            from index_copy import IndexCopy as lender
        else:
            from cold_start import ColdStart as lender
        w = lender(self.dk, seed, smoke=True)
        self.lenders.append(w)
        return w.lend()

    def close(self):
        for w in self.lenders:
            w.close()

    def _record(self, run_sources):
        """Run each source once with the observer: the recorded calls,
        warm runtimes for timing run(), and the STATIC-site agreement
        between what ran and what inference reported."""
        dk = self.dk
        self.records = []      # (functions, node, method, args)
        self.runs = []         # (runtime, source, calls)
        agreed = observed = 0
        keys_seen: set = set()
        site_methods: dict = {}
        for rule, defs, src in run_sources:
            rt = dk.Runtime(index_rule=rule)
            base = len(rt.items)
            rt.load_definitions(defs)
            events = []
            try:
                rt.run(src, observer=lambda e, m, a, r: events.append((e, m, tuple(a))))
            except dk.EvalError:
                pass  # a predicted error; the calls before it still count
            self.runs.append((rt, src, len(events)))
            report = dk.infer_program(rt.functions, rt.items[base:], rt.widen_max_fixed)
            for e, m, args in events:
                site = report.by_node.get(id(e))
                if site is not None and site.static:
                    observed += 1
                    agreed += m.label == site.method_label
                key = (id(rt), m.fname, tuple(dk.type_of(a) for a in args))
                keys_seen.add(key)
                site_methods.setdefault(id(e), set()).add(m.label)
                if len(self.records) < RECORD_LIMIT:
                    self.records.append((rt.functions, e, m, args))
        calls = sum(n for _, _, n in self.runs)
        self.counts = {
            "dispatch.calls": calls,
            "dispatch.distinct_keys": len(keys_seen),
            "inference.agree_base": observed,
        }
        self.ratios = {
            "dispatch.hit_ratio": 1 - len(keys_seen) / calls,
            "inference.agree_ratio": agreed / observed if observed else 1.0,
        }
        mono_sites = {s for s, ms in site_methods.items() if len(ms) == 1}
        mono_calls = sum(1 for _, e, _, _ in self.records if id(e) in mono_sites)
        self.ratios["dispatch.mono_call_ratio"] = mono_calls / len(self.records)
        # replay inputs, built outside any span
        self.keys = [tuple(dk.type_of(a) for a in args) for _, _, _, args in self.records]
        self.tuples = [dk.make_tuple(k) for k in self.keys]
        self.gfs = [f.lookup(m.fname) for f, _, m, _ in self.records]
        self.natives = [(gf, args) for gf, (_, _, m, args) in zip(self.gfs, self.records)
                        if m.body is None and m.fname != "error"]
        for gf, t in zip(self.gfs, self.tuples):
            gf.select(t)  # warm

    def _infer_reports(self):
        dk = self.dk
        types = []
        sites = static = elidable = inst = defines = 0
        for rule, src in self.programs:
            rt = dk.Runtime(index_rule=rule)
            defines += sum(len(gf.methods) for gf in rt.functions)  # the preludes
            prog = rt.load_definitions(src)
            report = dk.infer_program(rt.functions, prog.items, rt.widen_max_fixed)
            sites += len(report.sites)
            static += sum(s.static for s in report.sites)
            elidable += sum(s.splice_elidable for s in report.sites)
            inst += report.instantiations
            defines += sum(isinstance(it, dk.minilang.MethodDef) for it in prog.items)
            types.extend(s.result for s in report.sites)
        n = len(self.programs)
        self.counts.update({
            "inference.sites": sites,
            "inference.instantiations": inst / n,
            "dispatch.defines": defines / n,
        })
        self.ratios.update({
            "inference.static_ratio": static / sites,
            "inference.elidable_ratio": elidable / sites,
        })
        self.pairs = list(zip(types, types[1:] + types[:1]))[:PAIR_LIMIT]
        self.types_table = dk.TypeTable.prelude()

    def _index_cases(self):
        dk = self.dk
        self.getindex_ops = [op for op in self.index_ops if op.kind == "getindex"]
        self.view_ops = [op for op in self.index_ops if op.kind == "view"]
        for op in self.getindex_ops:
            dk.index_shape(op.rule, op.first)  # builds each rule's runtime
        self.views = []
        self.subscripts = []
        for op in self.view_ops:
            v = dk.view(op.array, op.first)
            if op.second is not None:
                v = dk.view(v, op.second)
            self.views.append(v)
            for k in range(min(VIEW_GET_PER_VIEW, op.elems)):
                sub, rest = [], k
                for extent in v.shape:
                    sub.append(rest % extent + 1)
                    rest //= extent
                self.subscripts.append((v, tuple(sub)))


# --------------------------------------------------------------- replay


def replay_pass(m: Material, dk, tracer: Tracer) -> dict:
    """Push the material through every layer once; per-unit costs."""
    clock = time.perf_counter
    out = {}

    def timed(name, fn, units):
        with tracer.span(name):
            t0 = clock()
            fn()
            dt = clock() - t0
        return dt / max(units, 1)

    n_vals = sum(len(a) for _, _, _, a in m.records)
    out["values.type_of_us"] = 1e6 * timed(
        "values.type_of",
        lambda: [dk.type_of(a) for _, _, _, args in m.records for a in args], n_vals)
    out["lattice.make_tuple_us"] = 1e6 * timed(
        "lattice.make_tuple", lambda: [dk.make_tuple(k) for k in m.keys], len(m.keys))
    out["dispatch.warm_select_us"] = 1e6 * timed(
        "dispatch.select_warm",
        lambda: [gf.select(t) for gf, t in zip(m.gfs, m.tuples)], len(m.tuples))
    cold = list(zip(m.gfs, m.tuples))[:COLD_SAMPLE]
    gfs = {id(gf): gf for gf, _ in cold}.values()
    for gf in gfs:
        gf.cache_enabled = False
    try:
        out["dispatch.cold_select_us"] = 1e6 * timed(
            "dispatch.select_cold", lambda: [gf.select(t) for gf, t in cold], len(cold))
    finally:
        for gf in gfs:
            gf.cache_enabled = True
    out["lattice.subtype_us"] = 1e6 * timed(
        "lattice.subtype",
        lambda: [dk.subtype(t, rec[2].sig_tuple, rec[0].types)
                 for t, rec in zip(m.tuples, m.records)], len(m.tuples))
    out["dispatch.call_us"] = 1e6 * timed(
        "dispatch.dispatch_call",
        lambda: [dk.dispatch_call(gf, args) for gf, args in m.natives], len(m.natives))
    table = m.types_table
    out["lattice.join_us"] = 1e6 * timed(
        "lattice.join", lambda: [dk.join(a, b, table) for a, b in m.pairs], len(m.pairs))
    out["lattice.meet_us"] = 1e6 * timed(
        "lattice.meet", lambda: [dk.meet(a, b, table) for a, b in m.pairs], len(m.pairs))

    kib = sum(len(src) for _, src in m.programs) / 1024
    out["minilang.parse_us_per_kb"] = 1e6 * timed(
        "minilang.parse", lambda: [dk.parse(src) for _, src in m.programs], 1) / kib
    out["preludes.source_us"] = 1e6 * timed(
        "preludes.prelude_source",
        lambda: [dk.prelude_source(r) for r in RULES * 4], len(RULES) * 4)
    out["runtime.new_us"] = 1e6 * timed(
        "runtime.Runtime", lambda: [dk.Runtime(index_rule=r) for r in RULES * 2],
        len(RULES) * 2)

    def run_all():
        for rt, src, _ in m.runs:
            try:
                rt.run(src)
            except dk.EvalError:
                pass

    per_run = timed("runtime.run", run_all, len(m.runs))
    out["runtime.run_s"] = per_run
    out["runtime.us_per_call"] = 1e6 * per_run * len(m.runs) / m.counts["dispatch.calls"]

    fresh = []
    for rule, src in m.programs:
        rt = dk.Runtime(index_rule=rule)
        fresh.append((rt, rt.load_definitions(src)))
    out["inference.infer_s"] = timed(
        "inference.infer_program",
        lambda: [dk.infer_program(rt.functions, p.items, rt.widen_max_fixed)
                 for rt, p in fresh], len(fresh))

    shape_s = timed("indexing.index_shape",
                    lambda: [dk.index_shape(op.rule, op.first) for op in m.getindex_ops], 1)
    get_s = timed("indexing.getindex",
                  lambda: [dk.getindex(op.array, op.first, op.rule)
                           for op in m.getindex_ops], 1)
    out["indexing.index_shape_us"] = 1e6 * shape_s / len(m.getindex_ops)
    out["indexing.getindex_us_per_elem"] = 1e6 * get_s / sum(op.elems for op in m.getindex_ops)
    out["indexing.index_shape_share"] = shape_s / get_s
    n_views = sum(1 if op.second is None else 2 for op in m.view_ops)
    out["views.view_us"] = 1e6 * timed(
        "views.view",
        lambda: [dk.view(op.array, op.first) if op.second is None
                 else dk.view(dk.view(op.array, op.first), op.second)
                 for op in m.view_ops], n_views)
    out["views.to_array_us_per_elem"] = 1e6 * timed(
        "views.to_array", lambda: [dk.to_array(v) for v in m.views],
        sum(op.elems for op in m.view_ops))
    out["views.view_get_us"] = 1e6 * timed(
        "views.view_get", lambda: [dk.view_get(v, s) for v, s in m.subscripts],
        len(m.subscripts))
    out["ndarray.new_us_per_elem"] = 1e6 * timed(
        "ndarray.NdArray", lambda: [dk.NdArray(op.shape, op.buffer) for op in m.index_ops],
        sum(op.elems for op in m.index_ops))

    cli = importlib.import_module("dispatchkit.cli")
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for mode in ("run", "infer"):
            ops = [op for op in m.cli_ops if op.mode == mode]
            out[f"cli.{mode}_ms"] = 1e3 * timed(
                f"cli.main_{mode}",
                lambda: [cli.main([op.mode, op.path, "--index-rule", op.rule]) for op in ops],
                len(ops))
    return out


# ------------------------------------------------------------------ main


# name -> unit; bench/README.md says which end-to-end metric each moves
PER_LAYER = {
    "dispatch.warm_select_us": "us",
    "dispatch.cold_select_us": "us",
    "dispatch.call_us": "us",
    "dispatch.calls": "count",
    "dispatch.distinct_keys": "count",
    "dispatch.hit_ratio": "ratio",
    "dispatch.mono_call_ratio": "ratio",
    "dispatch.defines": "count",
    "runtime.us_per_call": "us",
    "runtime.run_s": "s",
    "runtime.new_us": "us",
    "values.type_of_us": "us",
    "lattice.make_tuple_us": "us",
    "lattice.subtype_us": "us",
    "lattice.join_us": "us",
    "lattice.meet_us": "us",
    "minilang.parse_us_per_kb": "us/KiB",
    "preludes.source_us": "us",
    "inference.infer_s": "s",
    "inference.instantiations": "count",
    "inference.sites": "count",
    "inference.static_ratio": "ratio",
    "inference.elidable_ratio": "ratio",
    "inference.agree_ratio": "ratio",
    "inference.agree_base": "count",
    "indexing.index_shape_us": "us",
    "indexing.index_shape_share": "ratio",
    "indexing.getindex_us_per_elem": "us",
    "views.view_us": "us",
    "views.to_array_us_per_elem": "us",
    "views.view_get_us": "us",
    "ndarray.new_us_per_elem": "us",
    "cli.run_ms": "ms",
    "cli.infer_ms": "ms",
    "trace.untraced_ops_per_s": "1/s",
    "trace.traced_ops_per_s": "1/s",
    "trace.overhead_ratio": "ratio",
    **{f"{layer}.self_ms": "ms" for layer in LAYERS},
}


def main(args, set_up) -> int:
    dk, workload, warm = set_up(args)
    tracer = Tracer()
    material = None
    try:
        budget = max(args.seconds, 0.0)
        min_passes = 1 if args.smoke else harness.MIN_PASSES
        untraced = harness.measure(workload, 0.35 * budget, min_passes=min_passes)

        def traced_op(prepared):
            tracer.op += 1
            with tracer.span("bench.op"):
                return workload.run_traced(prepared, tracer)

        traced = harness.measure(workload, 0.35 * budget, run=traced_op,
                                 min_passes=min_passes)
        material = Material(dk, workload.lend(), args.seed)
        passes = []
        deadline = time.perf_counter() + 0.2 * budget
        while True:
            start = len(tracer.spans)
            tracer.op = -1 - len(passes)  # replay spans carry a negative op id
            with tracer.span("bench.replay"):
                values = replay_pass(material, dk, tracer)
            values.update({f"{layer}.self_ms": 0.0 for layer in LAYERS})
            for name, secs in tracer.self_times(start).items():
                layer = name.split(".")[0]
                if layer in LAYERS:
                    values[f"{layer}.self_ms"] += 1e3 * secs
            passes.append(values)
            if len(passes) >= MAX_PASSES or time.perf_counter() >= deadline:
                break
        tracer.write(harness.OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    finally:
        workload.close()
        if material is not None:
            material.close()

    metrics = {name: median([p[name] for p in passes]) for name in passes[0]}
    metrics.update(material.counts)
    metrics.update(material.ratios)
    u, t = untraced.summary(), traced.summary()
    metrics["trace.untraced_ops_per_s"] = u["ops_per_s"]
    metrics["trace.traced_ops_per_s"] = t["ops_per_s"]
    metrics["trace.overhead_ratio"] = u["ops_per_s"] / t["ops_per_s"] - 1
    checked = [warm, untraced, traced] + getattr(workload, "rewarms", [])
    attempted = sum(s.attempted for s in checked)
    failed = sum(s.failed for s in checked)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "mode": "traced",
        "environment": harness.environment(),
        "borrowed": material.borrowed,
        "observed_calls_traced_phase": tracer.calls,
        "replay_passes": len(passes),
        "spans": len(tracer.spans),
        "ratio_bases": {
            "dispatch.hit_ratio": "dispatch.calls",
            "dispatch.mono_call_ratio": f"{len(material.records)} recorded calls",
            "inference.static_ratio": "inference.sites",
            "inference.elidable_ratio": "inference.sites",
            "inference.agree_ratio": "inference.agree_base",
            "indexing.index_shape_share": "getindex time over the same cases",
            "trace.overhead_ratio": "trace.traced_ops_per_s",
        },
        "tracing_overhead": {"untraced_ops_per_s": u["ops_per_s"],
                             "traced_ops_per_s": t["ops_per_s"],
                             "untraced_op_ms_p50": u["op_ms_p50"],
                             "traced_op_ms_p50": t["op_ms_p50"]},
        "failures": [f for s in checked for f in s.failures][:5],
    }
    if set(metrics) != set(PER_LAYER):
        raise RuntimeError(f"per-layer metrics out of step: {set(metrics) ^ set(PER_LAYER)}")
    harness.emit(failed == 0, attempted, failed,
                 {k: {"value": metrics[k], "unit": unit} for k, unit in PER_LAYER.items()},
                 report)
    return 0
