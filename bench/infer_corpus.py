"""infer-corpus: whole-program type inference on a seeded corpus.

An op is `load_definitions` plus `infer_program` on a fresh Runtime,
which is built before the clock starts. The corpus mixes three program
families, each under a rotating indexing rule:

- numeric programs in the style of the C4 soundness fuzz: folds,
  builders and typed arithmetic, some ending in an arity mismatch;
- `index_shape` splice chains, where each link splices the previous
  link's tuple into the next call;
- self-growing variadic recursion (growing, mutually growing and nesting
  calls, long chains and builders past the widening limit), which drives
  inference into widening and the instantiation budget.

Why: inference and the lattice's join, meet and widen dominate; the
evaluator never runs inside the timed region, so an evaluator change
should leave this workload unchanged.

Soundness gate (untimed, once per program): the program runs with the
observer hook, its non-terminating calls blanked out so line numbers
stay put. Every observed value's type must be a subtype of its site's
inferred type, and every STATIC site must dispatch to the method the
report names. A violation fails every op on that program. An arity
mismatch counts as a success only if exactly EvalError is raised.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from harness import RULES, Workload, describe_exc
from mirror import Call, Lit, Plus, RangeLit, Splice, Tup, Var

NUM_TYPES = ("Int", "Integer", "Float", "Real")


@dataclass
class Program:
    rule: str
    lines: list                 # source lines
    runs: list                  # False for expressions that never return
    expect_error: bool = False  # the last line is an arity mismatch
    family: str = ""
    # filled in by the set-up pass
    sites: int = 0
    reference: list = field(default_factory=list)
    by_loc: dict = field(default_factory=dict)
    instantiations: int = 0
    gate_ok: bool = True
    gate_note: str = ""

    @property
    def source(self) -> str:
        return "\n".join(self.lines) + "\n"

    @property
    def gate_source(self) -> str:
        return "\n".join(ln if ok else "" for ln, ok in zip(self.lines, self.runs)) + "\n"


# ----------------------------------------------------------- generators


def _num_leaf(rng):
    if rng.random() < 0.5:
        return Lit(rng.randint(0, 9))
    return Lit(rng.randint(0, 9) + rng.randint(1, 3) / 4)


def _num_expr(rng, params, depth):
    """A numeric expression over `params` (names of Real-valued formals)."""
    choices = ["leaf"] + ["param"] * (3 if params else 0)
    if depth > 0:
        choices += ["plus", "sum", "splice_sum", "length"]
    pick = rng.choice(choices)
    if pick == "leaf":
        return _num_leaf(rng)
    if pick == "param":
        return Var(rng.choice(params))
    if pick == "plus":
        return Plus(_num_expr(rng, params, depth - 1), _num_expr(rng, params, depth - 1))
    if pick in ("sum", "splice_sum"):
        parts = [_num_expr(rng, params, depth - 1) for _ in range(rng.randint(0, 3))]
        if pick == "sum":
            return Call("sum", parts)
        return Call("sum", [Splice(Tup(parts))])
    lo = rng.randint(1, 4)
    return Call("length", [RangeLit(lo, lo + rng.randint(-1, 4))])


def _literal_for(rng, tname):
    if tname in ("Int", "Integer"):
        return Lit(rng.randint(0, 9))
    if tname == "Float":
        return Lit(rng.randint(0, 9) + 0.5)
    return _num_leaf(rng)


def numeric_program(rng, rule, n_defs, n_calls) -> Program:
    lines, sigs = [], {}
    for k in range(n_defs):
        name = f"g{k}"
        style = rng.random()
        if style < 0.25:
            lines.append(f"{name}() = {rng.randint(0, 5)}")
            lines.append(f"{name}(x::Real, r...) = x + {name}(r...)")
            sigs[name] = "variadic"
        elif style < 0.45:
            lines.append(f"{name}() = ()")
            lines.append(f"{name}(x::Real, r...) = (x + 1, {name}(r...)...)")
            sigs[name] = "variadic"
        else:
            types = [rng.choice(NUM_TYPES) for _ in range(rng.randint(1, 3))]
            params = [f"p{j}" for j in range(len(types))]
            body = _num_expr(rng, params, rng.randint(1, 3))
            if rng.random() < 0.3:
                body = Tup([body, _num_expr(rng, params, 1)])
            formals = ", ".join(f"{p}::{t}" for p, t in zip(params, types))
            lines.append(f"{name}({formals}) = {body.source()}")
            sigs[name] = types
    runs = [True] * len(lines)
    names = sorted(sigs)
    for _ in range(n_calls):
        name = rng.choice(names)
        if sigs[name] == "variadic":
            args = [_num_leaf(rng) for _ in range(rng.randint(0, 6))]
        else:
            args = [_literal_for(rng, t) for t in sigs[name]]
        lines.append(Call(name, args).source())
        runs.append(True)
    fixed = [n for n in names if sigs[n] != "variadic"]
    expect_error = bool(fixed) and rng.random() < 0.15
    if expect_error:
        name = rng.choice(fixed)
        args = [_literal_for(rng, t) for t in sigs[name]] + [Lit(7)]
        lines.append(Call(name, args).source())
        runs.append(True)
    return Program(rule, lines, runs, expect_error, "numeric")


def _index_arg(rng, scalar: bool):
    if scalar:
        return Lit(rng.randint(1, 3))
    lo = rng.randint(1, 3)
    return RangeLit(lo, lo + rng.randint(0, 4))


def chain_program(rng, rule, k) -> Program:
    """Chain k: its length, link kinds, call arities and argument types
    follow from k, so every pass holds the same mix of inference work;
    the index values are seeded."""
    n = 3 + k % 3
    lines = ["k0(r...) = index_shape(r...)"]
    for j in range(1, n):
        if (k // 3) >> (j - 1) & 1:
            lines.append(f"k{j}(r...) = index_shape(r..., k{j - 1}(r...)...)")
        else:
            lines.append(f"k{j}(i, r...) = (length(i), k{j - 1}(r..., i)...)")
    lines.append(f"k{n}(r...) = sum(k{n - 1}(r...)...)")
    for c in range(3 + k % 4):
        link = (n, n, n - 1, 1 + c % n)[c % 4]
        args = [_index_arg(rng, (k + c + a) % 5 >= 3) for a in range(2 + (c + k) % 3)]
        lines.append(Call(f"k{link}", args).source())
    return Program(rule, lines, [True] * len(lines), False, "splice-chain")


GROWTH_KINDS = ("grow", "mutual", "nest", "chain", "acc")
GROWTH_PAIRS = [(a, b) for i, a in enumerate(GROWTH_KINDS) for b in GROWTH_KINDS[i + 1:]]


def growth_program(rng, rule, kinds, k) -> Program:
    """Growth program k: the two kinds and their sizes follow from k."""
    lines, runs = [], []

    def add(line, returns=True):
        lines.append(line)
        runs.append(returns)

    for j, kind in enumerate(kinds):
        if kind == "grow":
            add(f"grow{j}(r...) = grow{j}(1, r...)")
            add(f"grow{j}()", returns=False)
        elif kind == "mutual":
            add(f"pa{j}(r...) = pb{j}(1, r...)")
            add(f"pb{j}(r...) = pa{j}(1.5, r...)")
            add(f"pa{j}()", returns=False)
        elif kind == "nest":
            add(f"nest{j}(x) = nest{j}((x,))")
            add(f"nest{j}({rng.randint(0, 9)})", returns=False)
        elif kind == "chain":
            m = 6 + k % 7
            for k in range(1, m):
                add(f"c{j}_{k}(r...) = c{j}_{k + 1}(1, r...)")
            add(f"c{j}_{m}(r...) = sum(r...)")
            add(f"c{j}_1()")
        else:
            add(f"acc{j}() = ()")
            add(f"acc{j}(x::Real, r...) = (x + 1, acc{j}(r...)...)")
            leaves = [Lit(rng.randint(0, 9)) if (i + k) % 3 else Lit(rng.randint(0, 9) + 0.5)
                      for i in range(9 + k % 6)]
            add(Call(f"acc{j}", leaves).source())
    return Program(rule, lines, runs, False, "growth")


# ------------------------------------------------------------- workload


def call_nodes(minilang, items) -> list:
    """Call nodes in parsed items: the sites a report must cover."""
    stack = [it.body if isinstance(it, minilang.MethodDef) else it for it in items]
    out = []
    while stack:
        e = stack.pop()
        if isinstance(e, minilang.Call):
            out.append(e)
            stack.extend(a.expr if isinstance(a, minilang.Splice) else a for a in e.args)
        elif isinstance(e, minilang.RangeLit):
            stack.extend((e.lo, e.hi))
    return out


class InferCorpus(Workload):
    name = "infer-corpus"

    def __init__(self, dk, seed: int, smoke: bool = False):
        self.dk = dk
        rng = random.Random(seed)
        # Inference cost differs by an order of magnitude between families
        # and growth kinds, so the mix is fixed and only the details are
        # seeded: every pass has the same count of each family, program
        # size, chain shape and pair of growth kinds. The family sizes put
        # the median op among the splice chains and the 90th percentile
        # among the growth programs, inside a family's spread of costs
        # rather than at a gap between families.
        numeric, chains = (2, 2) if smoke else (48, 96)
        pairs = GROWTH_PAIRS[:2] if smoke else GROWTH_PAIRS * 2
        self.ops: list[Program] = []
        for k in range(max(numeric, chains, len(pairs))):
            if k < numeric:
                self.ops.append(numeric_program(rng, RULES[k % 4], 2 + k % 4, 3 + k % 6))
            if k < chains:
                self.ops.append(chain_program(rng, RULES[(k + 1) % 4], k))
            if k < len(pairs):
                self.ops.append(growth_program(rng, RULES[(k + 2) % 4], pairs[k], k))
        self.static_events = self.static_agreed = 0
        for prog in self.ops:
            self._reference(prog)
            if prog.gate_ok:
                self._gate(prog)

    def _reference(self, prog: Program):
        try:
            report = self.run(self.prepare(prog))
        except Exception as exc:  # noqa: BLE001 - fails the program's ops
            prog.gate_ok, prog.gate_note = False, describe_exc(exc)
            return
        prog.reference = report.render_lines()
        prog.instantiations = report.instantiations
        prog.sites = len(call_nodes(self.dk.minilang, self.dk.parse(prog.source).items))
        prog.by_loc = {s.loc: s for s in report.sites}

    def _gate(self, prog: Program):
        dk = self.dk
        rt = dk.Runtime(index_rule=prog.rule)
        events = []
        base = len(rt.items)
        raised = None
        try:
            rt.run(prog.gate_source, observer=lambda e, m, a, r: events.append((e, m, r)))
        except Exception as exc:  # noqa: BLE001 - judged below
            raised = exc
        if prog.expect_error and not isinstance(raised, dk.EvalError):
            prog.gate_ok, prog.gate_note = False, f"expected EvalError, got {raised!r}"
        elif not prog.expect_error and raised is not None:
            prog.gate_ok, prog.gate_note = False, describe_exc(raised)
        user = {id(n) for n in call_nodes(dk.minilang, rt.items[base:])}
        for e, m, result in events:
            if id(e) not in user:
                continue  # a call inside a packaged prelude body
            site = prog.by_loc.get(e.loc)
            if site is None:
                prog.gate_ok, prog.gate_note = False, f"no report for site {e.loc}"
                continue
            if not dk.subtype(dk.type_of(result), site.result, rt.types):
                prog.gate_ok, prog.gate_note = False, f"unsound type at {site.render()}"
            if site.static:
                self.static_events += 1
                if m.label == site.method_label:
                    self.static_agreed += 1
                else:
                    prog.gate_ok, prog.gate_note = False, \
                        f"{site.render()} dispatched to {m.label}"

    def prepare(self, prog: Program):
        return prog, self.dk.Runtime(index_rule=prog.rule)

    def run(self, prepared):
        prog, rt = prepared
        parsed = rt.load_definitions(prog.source)
        return self.dk.infer_program(rt.functions, parsed.items, rt.widen_max_fixed)

    def run_traced(self, prepared, tracer):
        prog, rt = prepared
        with tracer.span("runtime.load_definitions"):
            parsed = rt.load_definitions(prog.source)
        with tracer.span("inference.infer_program"):
            return self.dk.infer_program(rt.functions, parsed.items, rt.widen_max_fixed)

    def check(self, prog: Program, out):
        if isinstance(out, Exception):
            return False, describe_exc(out)
        if not prog.gate_ok:
            return False, f"soundness gate: {prog.gate_note}"
        if len(out.sites) != prog.sites:
            return False, f"{len(out.sites)} sites reported, program has {prog.sites}"
        if out.render_lines() != prog.reference or out.instantiations != prog.instantiations:
            return False, "report differs from the first run of the same program"
        return True, ""

    def work(self, prog: Program, out) -> int:
        return prog.sites

    def lend(self) -> dict:
        return {
            "run_sources": [(p.rule, "", p.gate_source) for p in self.ops],
            "programs": [(p.rule, p.source) for p in self.ops],
        }

    def report(self) -> dict:
        return {
            "programs": len(self.ops),
            "sites_per_pass": sum(p.sites for p in self.ops),
            "instantiations_per_pass": sum(p.instantiations for p in self.ops),
            "expected_errors": sum(p.expect_error for p in self.ops),
            "agree_ratio": (self.static_agreed / self.static_events
                            if self.static_events else 1.0),
            "agree_base": self.static_events,
        }
