"""cold-start: the command line on short, freshly written programs.

Short generated program files are written during set-up. An op is one
in-process `cli.main(["run" | "infer", file, "--index-rule", rule])`
with stdout and stderr captured and compared. Each program defines a few
methods, redefines one of them partway through (which clears that
function's dispatch cache) and calls each site only a few times. Some
run files end in an arity mismatch, which must exit 1 with exactly the
predicted located error.

Why: Runtime(), prelude_source, parse, define and cold select dominate.
This is the write-beside-read counterpart of eval-hot: work a change
moves into define time (compiled bodies, counters, bigger caches) shows
up here as a loss.

Expected output comes from the reference semantics in mirror.py: values
for `run`, and for `infer` the report that follows from every method
having concrete Int or Float formals (each reached site is STATIC with
the overload its concrete argument types select; sites never reached,
including those in replaced method bodies, are DYNAMIC Bottom).
"""

from __future__ import annotations

import contextlib
import importlib
import io
import os
import random
import shutil
from dataclasses import dataclass, field

import mirror
from harness import RULES, WORK_DIR, Workload, describe_exc
from mirror import Call, Lit, MirrorError, Plus, RangeLit, Var, Writer

NATIVE_PLUS = {("Int", "Int"): "+#1"}  # every other concrete pair is +#2


@dataclass(eq=False)
class Method:
    fname: str
    ptype: str               # "Int" or "Float", shared by every formal
    params: list
    body: object
    result: str              # type of the body's value
    ordinal: int = 0


@dataclass
class Line:
    text: str
    sites: list              # (col, node)
    method: Method | None = None   # set on definition lines
    expr: object = None            # set on expression lines


@dataclass
class Op:
    mode: str                # "run" or "infer"
    rule: str
    path: str
    code: int
    stdout: str
    stderr: str
    calls: int
    lines: list = field(default_factory=list)


def _lit(rng, t):
    if t == "Int":
        return Lit(rng.randint(0, 9))
    return Lit(rng.randint(0, 9) + rng.randint(1, 3) / 4)


class ProgramGen:
    """One program: typed overloads over Int and Float, each formal list
    all of one type, bodies built from formals, literals, `+` and calls
    to a method defined on earlier lines."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.methods: list[Method] = []
        self.ordinals: dict[tuple, int] = {}
        self.counts: dict[str, int] = {}
        self.order: dict[str, int] = {}

    def term(self, want: str, ptype: str, params: list, callees: list):
        """A formal, a literal, or (once per body, taken from `callees`) a
        call of the nearest earlier function returning `want`."""
        rng = self.rng
        options = [m for m in callees if m.result == want]
        if options:
            m = rng.choice(options)
            callees.clear()
            return Call(m.fname, [Var(rng.choice(params)) if m.ptype == ptype
                                  and rng.random() < 0.5 else _lit(rng, m.ptype)
                                  for _ in m.params])
        if ptype == want and rng.random() < 0.6:
            return Var(rng.choice(params))
        return _lit(rng, want)

    def body(self, fname: str, ptype: str, params: list, result: str):
        """A sum of two or three terms. Calls reach only the function
        defined just before this one, so no body recurses and a call's
        cost grows with its function's position, not with the seed."""
        earlier = [m for m in self.methods if self.order[m.fname] == self.order[fname] - 1]
        n = 2 + self.order[fname] % 2
        if result == "Int":
            kinds = ["Int"] * n
        else:
            kinds = ["Float"] + [self.rng.choice(("Int", "Float")) for _ in range(n - 1)]
            self.rng.shuffle(kinds)
        node = self.term(kinds[0], ptype, params, earlier)
        for kind in kinds[1:]:
            node = Plus(node, self.term(kind, ptype, params, earlier))
        return node

    def define(self, fname: str, ptype: str, arity: int, result: str) -> Line:
        params = [f"x{j}" for j in range(arity)]
        self.order.setdefault(fname, len(self.order))
        body = self.body(fname, ptype, params, result)
        key = (fname, ptype)
        if key not in self.ordinals:
            self.counts[fname] = self.counts.get(fname, 0) + 1
            self.ordinals[key] = self.counts[fname]
        m = Method(fname, ptype, params, body, result, self.ordinals[key])
        self.methods.append(m)
        w = Writer()
        w.put(f"{fname}(" + ", ".join(f"{p}::{ptype}" for p in params) + ") = ")
        body.emit(w)
        return Line(w.text(), w.sites, method=m)

    def call(self, m: Method, extra: int = 0) -> Line:
        return expr_line(Call(m.fname, [_lit(self.rng, m.ptype)
                                        for _ in range(len(m.params) + extra)]))


def expr_line(node) -> Line:
    w = Writer()
    node.emit(w)
    return Line(w.text(), w.sites, expr=node)


def generate(rng: random.Random, k: int, mode: str) -> list[Line]:
    gen = ProgramGen(rng)
    lines = []
    # the shape of file k (functions, arities, overloads, result types)
    # follows from k; the seed picks literals and formals
    for i in range(3 + k % 3):
        arity = 1 + (i + k) % 3
        kinds = (("Int",), ("Float",), ("Int", "Float"))[(i + 2 * k) % 3]
        for j, ptype in enumerate(kinds):
            lines.append(gen.define(f"f{i}", ptype, arity, ("Int", "Float")[(i + j + k) % 2]))
    # calls visit the methods in turn, so every file calls across the
    # whole chain of functions
    defined = list(gen.methods)
    for c in range(2 + k % 3):
        lines.append(gen.call(defined[(c + k) % len(defined)]))
    old = defined[k % len(defined)]
    lines.append(gen.define(old.fname, old.ptype, len(old.params), old.result))
    latest = list({(m.fname, m.ptype): m for m in gen.methods}.values())
    for c in range(2 + k % 4):
        lines.append(gen.call(latest[-1 - (c + k) % len(latest)]))
    if mode == "run" and k % 3 == 0:
        lines.append(expr_line(Call("index_shape", [
            RangeLit(1, rng.randint(2, 6)), Lit(rng.randint(1, 3)), RangeLit(1, rng.randint(2, 4))])))
    if k % 5 == 4:
        lines.append(gen.call(rng.choice(latest), extra=1))
    return lines


# ----------------------------------------------------- reference output


def expected_run(lines: list[Line], rule: str):
    """(exit code, stdout, stderr, calls) of `dispatchkit run`."""
    table: dict[tuple, Method] = {}
    fns = mirror.native_functions(rule)

    def user(fname):
        def call(args, site):
            types = tuple(mirror.type_name(a) for a in args)
            m = table.get((fname, types[0] if types else None))
            if m is None or len(m.params) != len(args) or len(set(types)) != 1:
                raise MirrorError(f"no method matching {fname}({', '.join(types)})", site)
            v, c, d = mirror.evaluate(m.body, dict(zip(m.params, args)), fns)
            return v, c + 1, d + 1
        return call

    values, calls = [], 0
    try:
        for lineno, line in enumerate(lines, start=1):
            if line.method is not None:
                m = line.method
                table[(m.fname, m.ptype)] = m
                fns.setdefault(m.fname, user(m.fname))
            else:
                v, c, _ = mirror.evaluate(line.expr, {}, fns)
                values.append(v)
                calls += c
    except MirrorError as err:
        where = next((ln, col) for ln, line in enumerate(lines, start=1)
                     for col, node in line.sites if node is err.site)
        return 1, "", f"error: line {where[0]}, column {where[1]}: {err}\n", calls
    out = "".join(mirror.render_value(v) + "\n" for v in values)
    return 0, out, "", calls


def expected_infer(lines: list[Line]) -> str:
    """The `dispatchkit infer` report under the final definitions."""
    final = {}
    for line in lines:
        if line.method is not None:
            final[(line.method.fname, line.method.ptype)] = line.method
    records: dict[int, list] = {}
    done: set = set()

    def walk(node, env):
        if isinstance(node, Lit):
            return mirror.type_name(node.value)
        if isinstance(node, Var):
            return env[node.name]
        if isinstance(node, Plus):
            pair = (walk(node.a, env), walk(node.b, env))
            result = "Int" if pair == ("Int", "Int") else "Float"
            records.setdefault(id(node), []).append((NATIVE_PLUS.get(pair, "+#2"), result))
            return result
        types = [walk(a, env) for a in node.args]
        m = final.get((node.fname, types[0] if types else None))
        if m is None or len(m.params) != len(types) or len(set(types)) != 1:
            records.setdefault(id(node), []).append((None, "Bottom"))
            return "Bottom"
        if id(m) not in done:
            done.add(id(m))
            walk(m.body, {p: m.ptype for p in m.params})
        records.setdefault(id(node), []).append((f"{m.fname}#{m.ordinal}", m.result))
        return m.result

    for line in lines:
        if line.expr is not None:
            walk(line.expr, {})
    out = []
    for lineno, line in enumerate(lines, start=1):
        for col, node in line.sites:
            recs = records.get(id(node), [])
            labels = {r[0] for r in recs}
            if recs and len(labels) == 1 and None not in labels:
                out.append(f"{lineno}:{col} STATIC {recs[0][0]} {recs[0][1]}")
            else:
                out.append(f"{lineno}:{col} DYNAMIC Bottom")
    return "".join(s + "\n" for s in out)


# -------------------------------------------------------------- workload


class ColdStart(Workload):
    name = "cold-start"

    def __init__(self, dk, seed: int, smoke: bool = False):
        self.cli = importlib.import_module("dispatchkit.cli")
        rng = random.Random(seed)
        self.dir = WORK_DIR / f"cold-start-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.ops = []
        for k in range(4 if smoke else 160):
            mode = ("run", "infer")[k % 2]
            rule = RULES[(k // 2) % 4]
            lines = generate(rng, k // 2, mode)
            path = self.dir / f"p{k:03d}.mjl"
            path.write_text("".join(line.text + "\n" for line in lines))
            if mode == "run":
                code, out, err, calls = expected_run(lines, rule)
            else:
                code, out, err, calls = 0, expected_infer(lines), "", 0
            self.ops.append(Op(mode, rule, str(path), code, out, err, calls, lines))

    def run(self, op: Op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main([op.mode, op.path, "--index-rule", op.rule])
        return code, out.getvalue(), err.getvalue()

    def run_traced(self, op: Op, tracer):
        with tracer.span("cli.main"):
            return self.run(op)

    def check(self, op: Op, out):
        if isinstance(out, Exception):
            return False, describe_exc(out)
        if out != (op.code, op.stdout, op.stderr):
            return False, (f"{op.mode} {os.path.basename(op.path)}: exit {out[0]}, "
                           f"want {op.code}; stderr {out[2].strip()[:80]!r}")
        return True, ""

    def work(self, op: Op, out) -> int:
        return op.calls

    def lend(self) -> dict:
        texts = [(op, "".join(line.text + "\n" for line in op.lines)) for op in self.ops]
        return {
            "cli_ops": self.ops,
            "run_sources": [(op.rule, "", text) for op, text in texts if op.mode == "run"],
            "programs": [(op.rule, text) for op, text in texts],
        }

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def report(self) -> dict:
        return {
            "files": len(self.ops),
            "run_files": sum(op.mode == "run" for op in self.ops),
            "expected_errors": sum(op.code != 0 for op in self.ops),
            "calls_per_pass": sum(op.calls for op in self.ops),
        }
