"""eval-hot: warm evaluation of deep call expressions.

One warm Runtime per generated program, one program per indexing rule.
Definitions are loaded and every op runs once before timing, so the
dispatch caches are full. An op is `Runtime.run` of one top-level call
expression that makes hundreds of nested minilang calls: variadic
folds, tuple builders with splices, `+` on Int, Float and mixed values,
and `index_shape` under the program's rule. A share of the ops uses only
Int leaves, so their `+` and `scale` sites stay monomorphic; the rest
mix Int and Float, so the same sites see several argument-type tuples.

Why: the evaluator and warm dispatch do almost all the work here;
inference and array copying do none.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import mirror
from harness import RULES, Workload, describe_exc, warm_up
from mirror import Call, Lit, Plus, RangeLit, Splice, Tup

DEFINITIONS = """\
fold() = 0
fold(x::Real, r...) = x + fold(r...)
build() = ()
build(x::Real, r...) = (x + 1, build(r...)...)
tot(t) = sum(t...)
dbl(x::Int) = x + x
scale(x::Int) = x + 1
scale(x::Float) = x + 0.5
shp(i, j, k) = sum(index_shape(i, j, k)...)
"""


# Runtime.run keeps every parsed item, so a runtime grows with each op;
# rebuilding (untimed) after a fixed number of passes keeps peak memory a
# function of the op set rather than of how fast the ops ran.
REBUILD_EVERY = 8

MAX_FOLD_ARGS = 44  # keeps the deepest chain near 50 calls


# Reference semantics of DEFINITIONS, one function per generic function.
# Each returns (value, calls, depth) with the call itself included.

def _fold(args, site):
    value, calls, depth = 0, 1, 1
    for x in reversed(args):
        value, calls, depth = mirror.add(x, value), calls + 2, depth + 1
    return value, calls, depth


def _build(args, site):
    value, calls, depth = (), 2, 2
    for x in reversed(args):
        value, calls, depth = (mirror.add(x, 1),) + value, calls + 3, depth + 1
    return value, calls, depth


def _tot(args, site):
    return mirror.native_sum(args[0]), 2, 2


def _dbl(args, site):
    return args[0] + args[0], 2, 2


def _scale(args, site):
    x = args[0]
    return mirror.add(x, 1 if type(x) is int else 0.5), 2, 2


def reference_functions(rule: str) -> dict:
    def shp(args, site):
        shape, calls, depth = mirror.index_shape(rule, args)
        return mirror.native_sum(shape), calls + 2, 1 + max(depth, 1)

    fns = mirror.native_functions(rule)
    fns.update(fold=_fold, build=_build, tot=_tot, dbl=_dbl, scale=_scale,
               shp=shp)
    return fns


# ------------------------------------------------------------ generation


class ExprGen:
    def __init__(self, rng: random.Random, mixed: bool):
        self.rng = rng
        self.mixed = mixed

    def int_leaf(self):
        return Lit(self.rng.randint(0, 9))

    def num_leaf(self):
        if self.mixed and self.rng.random() < 0.45:
            return Lit(self.rng.randint(0, 9) + self.rng.randint(1, 3) / 4)
        return self.int_leaf()

    def leaves(self, lo, hi):
        return [self.num_leaf() for _ in range(self.rng.randint(lo, hi))]

    def index(self):
        rng = self.rng
        if rng.random() < 0.4:
            return Lit(rng.randint(1, 3))
        lo = rng.randint(1, 3)
        return RangeLit(lo, lo + rng.randint(0, 5))

    def sub(self):
        rng = self.rng
        pick = rng.randrange(7)
        if pick == 0:
            inner = rng.choice([self.int_leaf(), Plus(self.int_leaf(), self.int_leaf()),
                                Call("dbl", [self.int_leaf()])])
            return Call("dbl", [inner])
        if pick == 1:
            return Call("scale", [self.num_leaf()])
        if pick == 2:
            return Call("tot", [Call("build", self.leaves(2, 14))])
        if pick == 3:
            spliced = Splice(Call("build", self.leaves(1, 10)))
            return Call("tot", [Tup([self.num_leaf(), self.num_leaf(), spliced])])
        if pick == 4:
            return Call("shp", [self.index(), self.index(), self.index()])
        if pick == 5:
            return Call("fold", self.leaves(2, 12))
        return Plus(self.num_leaf(), Call("scale", [self.num_leaf()]))


@dataclass
class Op:
    prog: int
    source: str
    expected: object
    calls: int
    depth: int


def generate_ops(rng: random.Random, prog: int, rule: str, targets) -> list[Op]:
    fns = reference_functions(rule)
    ops = []
    for target in targets:
        gen = ExprGen(rng, mixed=rng.random() < 0.6)
        args = []
        while True:
            args.append(gen.sub())
            node = Call("fold", args)
            value, calls, depth = mirror.evaluate(node, {}, fns)
            if calls >= target or len(args) >= MAX_FOLD_ARGS:
                break
        ops.append(Op(prog, node.source() + "\n", value, calls, depth))
    return ops


class EvalHot(Workload):
    name = "eval-hot"

    def __init__(self, dk, seed: int, smoke: bool = False):
        self.dk = dk
        rng = random.Random(seed)
        per_program = 2 if smoke else 28
        lo, hi = (60, 120) if smoke else (200, 800)
        per_rule = []
        for prog, rule in enumerate(RULES):
            # stratified targets: every run covers the same size spread
            targets = [lo + (hi - lo) * k // max(1, per_program - 1)
                       for k in range(per_program)]
            rng.shuffle(targets)
            per_rule.append(generate_ops(rng, prog, rule, targets))
        self.ops = [op for group in zip(*per_rule) for op in group]
        self.max_depth = max(op.depth for op in self.ops)
        self.rewarms = []  # checked warm-up passes after each rebuild
        self.runtimes = self.fresh_runtimes()

    def fresh_runtimes(self):
        out = []
        for rule in RULES:
            rt = self.dk.Runtime(index_rule=rule)
            rt.load_definitions(DEFINITIONS)
            out.append(rt)
        return out

    def run(self, op: Op):
        return self.runtimes[op.prog].run(op.source)

    def run_traced(self, op: Op, tracer):
        with tracer.span("runtime.run"):
            return self.runtimes[op.prog].run(op.source, observer=tracer.count_call)

    def check(self, op: Op, out):
        if isinstance(out, Exception):
            return False, describe_exc(out)
        if len(out) != 1 or not mirror.same_value(out[0], op.expected):
            return False, f"{op.source.strip()[:80]}: got {out!r}, want {op.expected!r}"
        return True, ""

    def work(self, op: Op, out) -> int:
        return op.calls

    def after_pass(self, passes: int):
        if passes % REBUILD_EVERY == 0:
            self.runtimes = self.fresh_runtimes()
            self.rewarms.append(warm_up(self))

    def lend(self) -> dict:
        by_rule = {rule: "".join(op.source for op in self.ops if op.prog == k)
                   for k, rule in enumerate(RULES)}
        return {
            "run_sources": [(RULES[op.prog], DEFINITIONS, op.source) for op in self.ops],
            "programs": [(rule, DEFINITIONS + src) for rule, src in by_rule.items()],
        }

    def report(self) -> dict:
        return {
            "calls_per_op_mean": sum(op.calls for op in self.ops) / len(self.ops),
            "max_depth": self.max_depth,
            "programs": len(RULES),
            "ops_per_pass": len(self.ops),
        }
