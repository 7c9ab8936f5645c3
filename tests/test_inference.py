"""Inference engine tests.

The soundness fuzz executes generated programs with a call observer and
checks every observed call against the report: concrete result types
must be subtypes of the inferred site types, and sites marked static
must have dispatched to exactly the predicted method.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from dispatchkit import dispatch
from dispatchkit.inference import (
    InferenceState,
    infer_call_type,
    infer_program,
    splice_types,
)
from dispatchkit.lattice import ANY, Bottom, Named, make_tuple, render_type, subtype
from dispatchkit.runtime import EvalError, Runtime
from dispatchkit.values import FLOAT, INT, INTEGER, RANGE, REAL, STRING, type_of


def _rt(rule="trailing-drop"):
    return Runtime(index_rule=rule)


def _infer(rt, name, *types):
    return infer_call_type(rt.functions, name, make_tuple(tuple(types)),
                           rt.widen_max_fixed)


class TestSharpIndexShape:
    def test_range_range_int(self):
        rt = _rt()
        t, m = _infer(rt, "index_shape", RANGE, RANGE, INT)
        assert t == make_tuple((INT, INT))
        assert m is not None and m.fname == "index_shape"

    def test_range_int_range(self):
        rt = _rt()
        t, m = _infer(rt, "index_shape", RANGE, INT, RANGE)
        assert t == make_tuple((INT, INT, INT))
        assert m is not None

    def test_all_scalar(self):
        rt = _rt()
        t, m = _infer(rt, "index_shape", INT, INT)
        assert t == make_tuple(())
        assert m is not None

    def test_all_drop_skips_scalars(self):
        rt = _rt("all-drop")
        t, m = _infer(rt, "index_shape", RANGE, INT, RANGE)
        assert t == make_tuple((INT, INT))
        assert m is not None

    def test_apl_open_tail_from_array(self):
        from dispatchkit.values import INT_ARRAY
        rt = _rt("apl")
        t, _ = _infer(rt, "index_shape", RANGE, INT_ARRAY)
        assert t == make_tuple((INT,), INT)

    def test_empty_call_static(self):
        rt = _rt()
        t, m = _infer(rt, "index_shape")
        assert t == make_tuple(())
        assert m is not None


class TestCallInference:
    def test_sum_int_int_static(self):
        rt = _rt()
        t, m = _infer(rt, "sum", INT, INT)
        assert t == INT
        assert m is not None and m.label == "sum#1"

    def test_sum_with_float_static_on_real_method(self):
        rt = _rt()
        t, m = _infer(rt, "sum", INT, FLOAT)
        assert t == FLOAT
        assert m is not None and m.label == "sum#2"

    def test_sum_real_args_dynamic(self):
        # Real could be Integer or Float at runtime, so neither method
        # can be ruled out and the result joins both transfers
        rt = _rt()
        t, m = _infer(rt, "sum", REAL, REAL)
        assert t == REAL
        assert m is None

    def test_index_shape_any_tail_fixpoint(self):
        rt = _rt()
        t, m = _infer(rt, "index_shape", *[])
        del t, m
        result, static = infer_call_type(
            rt.functions, "index_shape", make_tuple((), ANY))
        assert result == make_tuple((), INT)
        assert static is None

    def test_length_any_dynamic_but_typed(self):
        rt = _rt()
        t, m = _infer(rt, "length", ANY)
        assert t == INT
        assert m is None

    def test_no_overlapping_method_is_bottom(self):
        rt = _rt()
        t, m = _infer(rt, "+", STRING, STRING)
        assert t is Bottom
        assert m is None

    def test_error_native_is_bottom(self):
        rt = _rt()
        t, m = _infer(rt, "error", STRING)
        assert t is Bottom
        assert m is not None

    def test_unknown_function_is_bottom(self):
        rt = _rt()
        t, m = infer_call_type(rt.functions, "nonesuch", make_tuple((INT,)))
        assert t is Bottom and m is None

    def test_monotone_in_argument_type(self):
        rt = _rt()
        chain = [
            make_tuple((INT, INT)),
            make_tuple((INTEGER, INTEGER)),
            make_tuple((REAL, REAL)),
            make_tuple((), ANY),
        ]
        results = [infer_call_type(rt.functions, "sum", t)[0] for t in chain]
        for narrow, wide in zip(results, results[1:]):
            assert subtype(narrow, wide, rt.types), (
                render_type(narrow), render_type(wide))


class TestSpliceTypes:
    def test_closed_tuple(self):
        fixed, tail = splice_types(make_tuple((INT, FLOAT)))
        assert fixed == [INT, FLOAT] and tail is None

    def test_open_tuple(self):
        fixed, tail = splice_types(make_tuple((INT,), REAL))
        assert fixed == [INT] and tail == REAL

    def test_non_tuple_degrades_to_any_tail(self):
        fixed, tail = splice_types(INT)
        assert fixed == [] and tail == ANY

    def test_bottom_is_dead(self):
        fixed, tail = splice_types(Bottom)
        assert fixed == [] and tail is Bottom


def _program_report(rt, source):
    base = len(rt.items)
    rt.load_definitions(source)
    items = rt.items[base:]
    return infer_program(rt.functions, items, rt.widen_max_fixed)


class TestProgramReports:
    def test_static_site_line(self):
        rt = _rt()
        report = _program_report(rt, "sum(1, 2)\n")
        assert len(report.sites) == 1
        s = report.sites[0]
        assert s.static and s.method_label == "sum#1" and s.result == INT
        assert s.render() == "1:1 STATIC sum#1 Int"
        assert report.expr_types == [INT]

    def test_string_literal_type(self):
        report = _program_report(_rt(), 'f(s::String) = s\nf("a")\n"b"\n')
        assert report.render_lines() == ["2:1 STATIC f#1 String"]
        assert report.expr_types == [STRING, STRING]

    def test_arguments_after_a_spliced_tail_join_the_tail(self):
        # nine arguments widen to eight Int slots and an Int tail, so the
        # arguments after the splice fold into the tail
        nine = "f(1, 2, 3, 4, 5, 6, 7, 8, 9)\n"
        t = "(" + "Int, " * 8 + "Real...)"
        report = _program_report(_rt(), "f(r...) = tuple(r..., 1.5)\n" + nine)
        assert report.render_lines() == [f"1:11 STATIC tuple#1 {t}",
                                         f"2:1 STATIC f#1 {t}"]
        report = _program_report(_rt(), "f(r...) = tuple(r..., 1.5, (2, 3)...)\n" + nine)
        assert report.render_lines() == [f"1:11 STATIC tuple#1 {t}",
                                         "1:28 STATIC tuple#1 (Int, Int)",
                                         f"2:1 STATIC f#1 {t}"]
        report = _program_report(_rt(), "f(r...) = tuple(r..., 1.5, r...)\n" + nine)
        assert report.render_lines() == [f"1:11 STATIC tuple#1 {t}",
                                         f"2:1 STATIC f#1 {t}"]

    def test_splice_apply_identity(self):
        rt = _rt()
        direct = _program_report(_rt(), "q(x::Int, y::Int) = x + y\nq(1, 2)\n")
        spliced = _program_report(rt, "q(x::Int, y::Int) = x + y\nq((1, 2)...)\n")
        d = [s for s in direct.sites if s.fname == "q"][0]
        s = [s for s in spliced.sites if s.fname == "q"][0]
        assert (d.static, d.method_label, d.result) == \
               (s.static, s.method_label, s.result)
        assert s.result == INT
        assert s.splice_elidable

    def test_exact_arity_splice_is_elidable(self):
        # each instantiation sees the precise rest tuple, so the splice
        # could be compiled away per instantiation
        rt = _rt()
        report = _program_report(
            rt, "w(r...) = sum(r...)\nw(1, 2, 3)\n")
        inner = [s for s in report.sites if s.fname == "sum"][0]
        assert inner.splice_elidable

    def test_unknown_operand_splice_not_elidable(self):
        rt = _rt()
        report = _program_report(
            rt, "n(x::Int) = sum(x...)\nn(5)\n")
        inner = [s for s in report.sites if s.fname == "sum"][0]
        assert not inner.splice_elidable

    def test_merged_site_dynamic_when_methods_differ(self):
        rt = _rt()
        report = _program_report(rt, (
            "mix(x::Int) = (2, 3)\n"
            "mix(x::Float) = (1:3, 2)\n"
            "probe(x) = index_shape(mix(x)...)\n"
            "probe(1)\n"
            "probe(1.5)\n"
        ))
        shape_site = [s for s in report.sites if s.fname == "index_shape"][0]
        assert not shape_site.static
        assert shape_site.result == make_tuple((), INT)
        mix_site = [s for s in report.sites if s.fname == "mix"][0]
        assert not mix_site.static
        probe_sites = [s for s in report.sites if s.fname == "probe"]
        assert len(probe_sites) == 2
        assert all(s.static for s in probe_sites)

    def test_unreached_site_is_dynamic_bottom(self):
        rt = _rt()
        report = _program_report(rt, "dead(x::Int) = x + 1\n")
        s = [x for x in report.sites if x.fname == "+"][0]
        assert not s.static and s.result is Bottom
        assert "DYNAMIC" in s.render()

    def test_range_endpoint_conflict_is_bottom(self):
        rt = _rt()
        report = _program_report(rt, "bad(x::Float) = 1:x\nbad(2.0)\n")
        assert report.expr_types == [Bottom]

    def test_report_lines_sorted_and_formatted(self):
        rt = _rt()
        report = _program_report(rt, "sum(1, 2)\nlength(1:9)\n")
        lines = report.render_lines()
        assert lines == sorted(
            lines, key=lambda s: int(s.split(":")[0]))
        for line in lines:
            head, kind = line.split()[0], line.split()[1]
            assert ":" in head and kind in ("STATIC", "DYNAMIC")


class TestScreeningMemo:
    def test_each_function_and_argument_type_screened_once(self, monkeypatch):
        rt = _rt()
        calls = ["h(1)", "h(2)", "h(3.5)", "h(4)", "h(0.5)"] * 6
        prog = rt.load_definitions(
            "h(x::Real) = x + 1\n" + "\n".join(calls) + "\n")
        state = InferenceState(rt.functions, rt.widen_max_fixed)
        screens = []
        rule = dispatch._screen_positions

        def counting(methods, arg_type, table):
            screens.append(methods[0].fname)
            return rule(methods, arg_type, table)

        monkeypatch.setattr(dispatch, "_SCREENS", {})
        monkeypatch.setattr(dispatch, "_screen_positions", counting)
        for item in prog.items[1:]:
            state.infer_expr(item, {})
        # 30 sites of h, but only h on (Int) and (Float), then + on
        # (Int, Int) and (Float, Int)
        memos = [rt.functions.lookup(name)._screens for name in ("h", "+")]
        assert sum(map(len, memos)) == 4 < len(calls)
        assert sorted(screens) == ["+", "+", "h", "h"]

    def test_a_define_between_runs_is_seen(self):
        rt = _rt()
        prog = rt.load_definitions("k(x::Real) = 1\nk(2)\n")
        first = infer_program(rt.functions, prog.items, rt.widen_max_fixed)
        assert first.render_lines() == ["2:1 STATIC k#1 Int"]
        rt.load_definitions("k(x::Int) = 2.5\n")
        again = infer_program(rt.functions, prog.items, rt.widen_max_fixed)
        assert again.render_lines() == ["2:1 STATIC k#2 Float"]


class TestSharedScreenMemo:
    """The process-wide screening memo behind `GenericFunction.screen`
    serves every runtime whose signatures, argument type and type
    declarations match, and no other."""

    def _area(self, rt):
        return infer_call_type(rt.functions, "area", make_tuple((Named("Sq"),)),
                               rt.widen_max_fixed)

    def test_runtimes_with_other_declarations_get_their_own_answers(self):
        # equal method signatures and argument type; only the type tables
        # differ: Sq is a Shape2 in one runtime and not in the other
        nested, flat = _rt(), _rt()
        nested.types.declare("Shape2", "Any", abstract=True)
        nested.types.declare("Sq", "Shape2")
        flat.types.declare("Shape2", "Any", abstract=True)
        flat.types.declare("Sq", "Any")
        for rt in (nested, flat):
            rt.load_definitions("area(s::Shape2) = 1\narea(s) = 2.5\n")
        for rt, want, label in ((nested, INT, "area#1"), (flat, FLOAT, "area#2"),
                                (nested, INT, "area#1")):
            t, m = self._area(rt)
            assert (t, m.label) == (want, label)
            assert m is rt.functions.lookup("area").methods[int(label[-1]) - 1]

    def test_redefining_a_body_between_runs_is_seen(self):
        # same signature, so the same memo key: the answer's positions
        # map onto the new method
        rt = _rt()
        prog = rt.load_definitions("k(x::Real) = 1\nk(2)\n")
        first = infer_program(rt.functions, prog.items, rt.widen_max_fixed)
        assert first.render_lines() == ["2:1 STATIC k#1 Int"]
        rt.load_definitions("k(x::Real) = 2.5\n")
        again = infer_program(rt.functions, prog.items, rt.widen_max_fixed)
        assert again.render_lines() == ["2:1 STATIC k#1 Float"]

    def test_natives_and_user_methods_are_keyed_by_position(self):
        # `+` holds the natives Runtime() appends straight into its
        # methods, then one user method; the two runtimes share the key
        ints, floats = _rt(), _rt()
        ints.load_definitions('+(a::String, b::String) = 1\n')
        floats.load_definitions('+(a::String, b::String) = 2.5\n')
        for rt, want in ((ints, INT), (floats, FLOAT)):
            methods = rt.functions.lookup("+").methods
            assert [m.body is None for m in methods] == [True, True, False]
            for args, t_want, k in (((STRING, STRING), want, 2),
                                    ((INT, INT), INT, 0), ((FLOAT, INT), FLOAT, 1)):
                t, m = _infer(rt, "+", *args)
                assert t == t_want and m is methods[k]

    def test_a_declaration_after_a_screen_leaves_answers_right(self):
        # only a define clears a function's memos: a declaration adds a
        # name to the tree and orders no two names already declared anew
        rt = _rt()
        rt.types.declare("Shape2", "Any", abstract=True)
        rt.types.declare("Sq", "Shape2")
        rt.load_definitions("area(s::Shape2) = 1\narea(s) = 2.5\n")
        area = rt.functions.lookup("area")
        screened = [(make_tuple((Named("Sq"),)), INT, area.methods[0]),
                    (make_tuple((ANY,)), REAL, None)]
        for arg_type, want, method in screened:
            t, m = infer_call_type(rt.functions, "area", arg_type)
            assert t == want and m is method
        rt.types.declare("Circle", "Shape2")
        rt.types.declare("Blob", "Any")
        screened += [(make_tuple((Named("Circle"),)), INT, area.methods[0]),
                     (make_tuple((Named("Blob"),)), FLOAT, area.methods[1])]
        for arg_type, want, method in screened:
            t, m = infer_call_type(rt.functions, "area", arg_type)
            assert t == want and m is method
            if method is not None:
                assert area.select(arg_type) is method
        assert len(area._screens) == 4

    def test_memo_never_exceeds_its_limit(self, monkeypatch):
        monkeypatch.setattr(dispatch, "_MEMO_LIMIT", 5)
        monkeypatch.setattr(dispatch, "_SCREENS", {})
        rt = _rt()
        rt.load_definitions("g(r...) = 1\n")
        g1 = rt.functions.lookup("g").methods[0]
        for n in range(9):  # nine argument types, nine keys
            t, m = _infer(rt, "g", *[INT] * n)
            assert t == INT and m is g1
            assert 0 < len(dispatch._SCREENS) <= 5
        # a full memo was cleared, and answers after the clear still hold
        t, m = _infer(rt, "g")
        assert t == INT and m is g1


class TestWidenThreshold:
    def test_negative_threshold_rejected(self):
        rt = _rt()
        with pytest.raises(ValueError, match="must not be negative"):
            InferenceState(rt.functions, -1)
        rt.load_definitions("f(x) = x\n")
        with pytest.raises(ValueError, match="must not be negative"):
            infer_call_type(rt.functions, "f", make_tuple((INT,)), -1)

    def test_zero_threshold_is_valid(self):
        rt = _rt()
        prog = rt.load_definitions("f(x) = x\nf(x, r...) = f(r...)\nf(1, 2, 3)\n")
        report = infer_program(rt.functions, prog.items, 0)
        assert report.render_lines()[-1] == "3:1 DYNAMIC Int"


class TestTermination:
    def test_self_growing_variadic(self):
        rt = _rt()
        rt.load_definitions("grow(r...) = grow(1, r...)\n")
        t, _ = infer_call_type(rt.functions, "grow", make_tuple(()))
        assert t is Bottom  # never returns, so no value type is reachable

    def test_mutual_growth(self):
        rt = _rt()
        rt.load_definitions(
            "pa(r...) = pb(1, r...)\npb(r...) = pa(1.5, r...)\n")
        t, _ = infer_call_type(rt.functions, "pa", make_tuple(()))
        assert t is Bottom

    def test_chain_to_depth_10_within_budget(self):
        rt = _rt()
        lines = []
        for k in range(1, 10):
            lines.append(f"c{k}(r...) = c{k + 1}(1, r...)")
        lines.append("c10(r...) = sum(r...)")
        src = "\n".join(lines) + "\n"
        rt.load_definitions(src)
        state = InferenceState(rt.functions, rt.widen_max_fixed)
        gf = rt.functions.lookup("c1")
        t, _ = state.infer_call(gf, make_tuple(()))
        assert subtype(INT, t, rt.types)
        assert state.instantiations <= 64
        # the concrete run must agree
        assert rt.call("c1") == 9
        assert subtype(type_of(rt.call("c1")), t, rt.types)

    def test_instance_that_read_no_unfinished_result_runs_once(self, monkeypatch):
        # every instance of the chain reads only finished results, so each
        # body runs once: c1..c10 and sum on the grown tuple
        rt = _rt()
        lines = [f"c{k}(r...) = c{k + 1}(1, r...)" for k in range(1, 10)]
        lines += ["c10(r...) = sum(r...)", "c1()"]
        prog = rt.load_definitions("\n".join(lines) + "\n")
        runs = []
        run_body = InferenceState._run_body

        def counting(self, gf, m, narrowed):
            runs.append(m.label)
            return run_body(self, gf, m, narrowed)

        monkeypatch.setattr(InferenceState, "_run_body", counting)
        report = infer_program(rt.functions, prog.items, rt.widen_max_fixed)
        assert report.instantiations == 11
        assert len(runs) == 11

    def test_budget_crossing_reruns_the_instance(self):
        # a function crossing its budget during a body run turns later
        # answers to Any, so that run is not final: the report keeps the
        # Any of the re-run at both sites inside nest
        rt = _rt("trailing-drop")
        report = _program_report(rt, "nest(x) = nest((x,))\nnest(0)\n")
        assert report.render_lines() == [
            "1:11 DYNAMIC Any", "1:16 DYNAMIC Any", "2:1 STATIC nest#1 Any"]
        assert report.instantiations == 130

    def test_looped_chain_terminates(self):
        rt = _rt()
        lines = [f"l{k}(r...) = l{k + 1}(1, r...)" for k in range(1, 10)]
        lines.append("l10(r...) = l1(1, r...)")
        rt.load_definitions("\n".join(lines) + "\n")
        state = InferenceState(rt.functions, rt.widen_max_fixed)
        t, _ = state.infer_call(rt.functions.lookup("l1"), make_tuple(()))
        assert t is Bottom
        assert state.instantiations <= 640  # 64 per function

    def test_nesting_growth_hits_budget_and_answers_any(self):
        # one method always wins dispatch, but the ever-deepening nesting
        # exhausts the instantiation budget, degrading the type to Any
        rt = _rt()
        rt.load_definitions("nest(x) = nest((x,))\n")
        state = InferenceState(rt.functions, rt.widen_max_fixed)
        t, m = state.infer_call(rt.functions.lookup("nest"),
                                make_tuple((INT,)))
        assert t == ANY
        assert m is not None
        assert state.per_gf_instances["nest"] <= 66

    def test_widened_recursion_is_sound_supertype(self):
        rt = _rt()
        rt.load_definitions(
            "acc() = ()\nacc(x::Real, r...) = (x + 1, acc(r...)...)\n")
        t, _ = infer_call_type(rt.functions, "acc", make_tuple((), REAL))
        got = rt.call("acc", 1, 2.5, 3)
        assert subtype(type_of(got), t, rt.types)


# ---------------------------------------------------------------- fuzzing

_NUM_TYPES = ("Int", "Integer", "Float", "Real")


def _gen_num(rng: random.Random, params, depth: int):
    """Returns (source, kind) with kind in int/float/num."""
    choices = ["int", "float"]
    if params:
        choices += ["param"] * 3
    if depth > 0:
        choices += ["plus", "sum", "splice_sum", "length"]
    pick = rng.choice(choices)
    if pick == "int":
        return str(rng.randint(0, 9)), "int"
    if pick == "float":
        return f"{rng.uniform(0, 9):.2f}", "float"
    if pick == "param":
        return rng.choice(params)
    if pick == "plus":
        a, ka = _gen_num(rng, params, depth - 1)
        b, kb = _gen_num(rng, params, depth - 1)
        kind = "int" if (ka, kb) == ("int", "int") else \
            ("float" if "float" in (ka, kb) else "num")
        if rng.random() < 0.5:
            return f"{a} + {b}", kind
        return f"+({a}, {b})", kind
    if pick in ("sum", "splice_sum"):
        n = rng.randint(0, 3)
        parts = [_gen_num(rng, params, depth - 1) for _ in range(n)]
        kinds = [p[1] for p in parts]
        kind = "int" if all(k == "int" for k in kinds) else \
            ("float" if "float" in kinds else "num")
        inner = ", ".join(p[0] for p in parts)
        if pick == "sum":
            return f"sum({inner})", kind
        if not parts:
            kind = "int"
        return f"sum(({inner}{',' if len(parts) == 1 else ''})...)", kind
    lo = rng.randint(1, 4)
    return f"length({lo}:{lo + rng.randint(-1, 4)})", "int"


def _kind_fits(kind: str, tname: str) -> bool:
    if tname in ("Int", "Integer"):
        return kind == "int"
    if tname == "Float":
        return kind == "float"
    return True


def _arg_for(rng: random.Random, tname: str) -> str:
    if tname in ("Int", "Integer"):
        return str(rng.randint(0, 9))
    if tname == "Float":
        return f"{rng.uniform(0, 9):.2f}"
    return rng.choice([str(rng.randint(0, 9)), f"{rng.uniform(0, 9):.2f}"])


def _gen_program(rng: random.Random) -> str:
    lines = []
    sigs = {}
    n_defs = rng.randint(1, 3)
    for i in range(n_defs):
        name = f"g{i}"
        style = rng.random()
        if style < 0.22:
            lines.append(f"{name}() = {rng.randint(0, 5)}")
            lines.append(f"{name}(x::Real, r...) = x + {name}(r...)")
            sigs[name] = "fold"
        elif style < 0.40:
            lines.append(f"{name}() = ()")
            lines.append(f"{name}(x::Real, r...) = (x + 1, {name}(r...)...)")
            sigs[name] = "build"
        else:
            arity = rng.randint(1, 3)
            ptypes = [rng.choice(_NUM_TYPES) for _ in range(arity)]
            params = []
            for j, t in enumerate(ptypes):
                kind = "int" if t in ("Int", "Integer") else \
                    ("float" if t == "Float" else "num")
                params.append((f"p{j}", kind))
            body, _ = _gen_num(rng, params, rng.randint(1, 2))
            if rng.random() < 0.3:
                extra, _ = _gen_num(rng, params, 1)
                body = f"({body}, {extra})"
            formals = ", ".join(f"p{j}::{t}" for j, t in enumerate(ptypes))
            lines.append(f"{name}({formals}) = {body}")
            sigs[name] = ptypes
    n_calls = rng.randint(2, 4)
    for _ in range(n_calls):
        name = rng.choice(sorted(sigs))
        shape = sigs[name]
        if shape in ("fold", "build"):
            n = rng.randint(0, 4)
            args = ", ".join(_arg_for(rng, "Real") for _ in range(n))
            lines.append(f"{name}({args})")
        else:
            args = ", ".join(_arg_for(rng, t) for t in shape)
            if rng.random() < 0.1:
                args = args + (", 7" if args else "7")  # arity mismatch
            lines.append(f"{name}({args})")
    if rng.random() < 0.4:
        n = rng.randint(0, 5)
        lines.append("sum(%s)" % ", ".join(
            _arg_for(rng, "Real") for _ in range(n)))
    return "\n".join(lines) + "\n"


def _check_soundness(seed: int):
    rng = random.Random(seed)
    src = _gen_program(rng)
    rt = _rt()
    base = len(rt.items)
    events = []
    trace = None
    try:
        trace = rt.run(src, observer=lambda e, m, a, r: events.append((e, m, r)))
    except EvalError:
        pass
    items = rt.items[base:]
    report = infer_program(rt.functions, items, rt.widen_max_fixed)
    for e, m, result in events:
        site = report.by_node.get(id(e))
        if site is None:
            continue  # call inside a packaged prelude body
        got = type_of(result)
        assert subtype(got, site.result, rt.types), (
            src, site.render(), render_type(got))
        if site.static:
            assert m.label == site.method_label, (src, site.render(), m.label)
    if trace is not None:
        for v, t in zip(trace, report.expr_types):
            assert subtype(type_of(v), t, rt.types), (src, render_type(t), v)
    return len(events)


@pytest.mark.parametrize("block", range(10))
def test_inference_soundness_fuzz(block):
    observed = 0
    for i in range(50):
        observed += _check_soundness(52000 + block * 50 + i)
    assert observed > 0


# ------------------------------------------------------------ golden file

# The golden file records what infer_program reported, before the
# screening memo, for seeded programs from the fuzz generator above:
# the report lines, the instantiation count and every top-level
# expression type. Any change to inference that is meant to be exact
# must reproduce it entry for entry.
INFER_GOLDEN = Path(__file__).parent / "data" / "infer_golden.json"


def golden_programs(n=300, seed=20261018):
    rng = random.Random(seed)
    return [_gen_program(rng) for _ in range(n)]


def infer_outcome(source: str) -> dict:
    report = _program_report(_rt(), source)
    return {
        "lines": report.render_lines(),
        "instantiations": report.instantiations,
        "expr_types": [render_type(t) for t in report.expr_types],
    }


class TestInferGolden:
    def test_sources_are_the_recorded_ones(self):
        recorded = json.loads(INFER_GOLDEN.read_text())
        assert [r["source"] for r in recorded] == golden_programs()

    def test_matches_the_recorded_report(self):
        for r in json.loads(INFER_GOLDEN.read_text()):
            assert infer_outcome(r["source"]) == r["report"], r["source"]


# ------------------------------------------------ growth golden file

# The fuzz generator above never builds the programs that drive the
# fixpoint hardest: self-growing recursion (a cycle widened closed or cut
# off by the instantiation budget) and chains of index_shape splices. The
# second golden file records, for seeded programs of both families, the
# same outcome as the first, under the index rule each program names.
INFER_GOLDEN_GROWTH = Path(__file__).parent / "data" / "infer_golden_growth.json"

_RULES = ("trailing-drop", "all-drop", "drop-size1", "apl")
_GROWTH_KINDS = ("grow", "mutual", "nest", "chain", "acc")


def _growth_source(rng: random.Random, kinds) -> str:
    lines = []
    for j, kind in enumerate(kinds):
        if kind == "grow":
            lines += [f"grow{j}(r...) = grow{j}(1, r...)", f"grow{j}()"]
        elif kind == "mutual":
            lines += [f"pa{j}(r...) = pb{j}(1, r...)",
                      f"pb{j}(r...) = pa{j}(1.5, r...)", f"pa{j}()"]
        elif kind == "nest":
            lines += [f"nest{j}(x) = nest{j}((x,))", f"nest{j}({rng.randint(0, 9)})"]
        elif kind == "chain":
            m = rng.randint(6, 12)
            lines += [f"c{j}_{i}(r...) = c{j}_{i + 1}(1, r...)" for i in range(1, m)]
            lines += [f"c{j}_{m}(r...) = sum(r...)", f"c{j}_1()"]
        else:
            leaves = [str(rng.randint(0, 9)) if rng.random() < 0.6
                      else f"{rng.randint(0, 9)}.5" for _ in range(rng.randint(9, 14))]
            lines += [f"acc{j}() = ()",
                      f"acc{j}(x::Real, r...) = (x + 1, acc{j}(r...)...)",
                      f"acc{j}({', '.join(leaves)})"]
    return "\n".join(lines) + "\n"


def _splice_chain_source(rng: random.Random) -> str:
    n = rng.randint(3, 5)
    lines = ["k0(r...) = index_shape(r...)"]
    for j in range(1, n):
        if rng.random() < 0.5:
            lines.append(f"k{j}(r...) = index_shape(r..., k{j - 1}(r...)...)")
        else:
            lines.append(f"k{j}(i, r...) = (length(i), k{j - 1}(r..., i)...)")
    lines.append(f"k{n}(r...) = sum(k{n - 1}(r...)...)")
    for _ in range(rng.randint(3, 6)):
        args = []
        for _ in range(rng.randint(2, 4)):
            lo = rng.randint(1, 3)
            args.append(str(lo) if rng.random() < 0.4 else f"{lo}:{lo + rng.randint(0, 4)}")
        lines.append(f"k{rng.randint(1, n)}({', '.join(args)})")
    return "\n".join(lines) + "\n"


def growth_golden_programs(seed=20261019):
    """(rule, source) pairs: every pair of growth kinds twice, then eight
    splice chains per index rule."""
    rng = random.Random(seed)
    pairs = [(a, b) for i, a in enumerate(_GROWTH_KINDS) for b in _GROWTH_KINDS[i + 1:]]
    out = [(_RULES[k % 4], _growth_source(rng, kinds))
           for k, kinds in enumerate(pairs * 2)]
    out += [(rule, _splice_chain_source(rng)) for _ in range(8) for rule in _RULES]
    return out


def growth_outcome(rule: str, source: str) -> dict:
    report = _program_report(_rt(rule), source)
    return {
        "lines": report.render_lines(),
        "instantiations": report.instantiations,
        "expr_types": [render_type(t) for t in report.expr_types],
    }


class TestInferGoldenGrowth:
    def test_sources_are_the_recorded_ones(self):
        recorded = json.loads(INFER_GOLDEN_GROWTH.read_text())
        assert [(r["rule"], r["source"]) for r in recorded] == growth_golden_programs()

    def test_matches_the_recorded_report(self):
        for r in json.loads(INFER_GOLDEN_GROWTH.read_text()):
            assert growth_outcome(r["rule"], r["source"]) == r["report"], r["source"]
