"""Evaluator semantics: natives, splicing, rule preludes, dispatch flow."""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys

import pytest

import dispatchkit.runtime as runtime
from dispatchkit.dispatch import NoMethodError
from dispatchkit.indexing import index_shape
from dispatchkit.lattice import FrozenTableError, make_tuple
from dispatchkit.minilang import MethodDef, ParseError, Program, parse
from dispatchkit.ndarray import Range, Shape, iota
from dispatchkit.preludes import RULE_NAMES, UnknownRuleError, prelude_source
from dispatchkit.runtime import EvalError, Runtime
from dispatchkit.values import type_of

from test_inference import _gen_program


@pytest.fixture
def rt():
    return Runtime()


class TestNatives:
    def test_tuple_and_splice(self, rt):
        assert rt.run("tuple(1, (2, 3)...)") == [(1, 2, 3)]

    def test_empty_tuple(self, rt):
        assert rt.run("()") == [()]

    def test_length(self, rt):
        assert rt.run("length(7)") == [1]
        assert rt.run("length(2.5)") == [1]
        assert rt.run("length(1:5)") == [5]
        assert rt.call("length", iota((2, 3))) == 6
        with pytest.raises(NoMethodError):
            rt.call("length", "x")

    def test_size(self, rt):
        assert rt.run("size(7)") == [Shape(())]
        assert rt.run("size(1:5)") == [Shape((5,))]
        assert rt.call("size", iota((2, 3))) == Shape((2, 3))
        with pytest.raises(TypeError, match="booleans"):
            rt.call("size", True)

    def test_plus(self, rt):
        v = rt.run("1 + 2")[0]
        assert v == 3 and isinstance(v, int)
        assert rt.run("1 + 2.5") == [3.5]
        assert rt.run("+(2.0, 3.0)") == [5.0]

    def test_sum_integer_branch(self, rt):
        v = rt.run("sum(1, 2, 3)")[0]
        assert v == 6 and isinstance(v, int)

    def test_sum_empty(self, rt):
        v = rt.run("sum()")[0]
        assert v == 0 and isinstance(v, int)

    def test_sum_real_branch(self, rt):
        v = rt.run("sum(1, 2.5)")[0]
        assert v == 3.5 and isinstance(v, float)

    def test_sum_compensation(self, rt):
        xs = [1e16, 1.0, -1e16] * 10
        got = rt.call("sum", *xs)
        assert got == 10.0

    def test_sum_tracks_exact_summation(self, rt):
        rng = random.Random(7)
        for _ in range(20):
            xs = [rng.uniform(-1, 1) * 10 ** rng.randrange(-8, 12)
                  for _ in range(50)]
            got = rt.call("sum", *xs)
            want = math.fsum(xs)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-9)

    def test_sum_overflow_is_ieee_inf(self, rt):
        x = "1" + "0" * 308 + ".0"  # 1e308 written out
        assert rt.run(f"sum({x}, {x})") == [math.inf] == rt.run(f"{x} + {x}")

    def test_sum_of_infinities_is_ieee(self, rt):
        assert rt.call("sum", math.inf, 1.0) == math.inf
        assert math.isnan(rt.call("sum", math.inf, -math.inf))

    def test_error_native(self, rt):
        with pytest.raises(EvalError) as e:
            rt.run('error("boom")')
        assert "boom" in str(e.value)
        assert "line 1" in str(e.value)

    def test_droptrail1(self, rt):
        assert rt.call("droptrail1", (5, 1, 3, 1, 1)) == (5, 1, 3)
        assert rt.call("droptrail1", (1, 1)) == ()
        assert rt.call("droptrail1", ()) == ()


class TestHugeNumbers:
    HUGE = 10 ** 400  # an Int too large for a Float

    @pytest.mark.parametrize("source", [
        f"{HUGE} + 1.5", f"1.5 + {HUGE}", f"sum({HUGE}, 1.5)", f"sum(1.5, 2, {HUGE})",
        f"f(x) = x + 1.5\nf({HUGE})"], ids=["int+float", "float+int", "sum", "sum3", "body"])
    def test_float_conversion_is_a_located_error(self, rt, source):
        with pytest.raises(EvalError, match=r"^line \d+, column \d+: "
                                            "Int too large to convert to Float$"):
            rt.run(source)

    @pytest.mark.parametrize("name, args", [
        ("+", (HUGE, 1.5)), ("+", (1.5, HUGE)), ("sum", (HUGE, 1.5))])
    def test_float_conversion_through_call_is_a_lang_error(self, rt, name, args):
        with pytest.raises(runtime.LangError, match="Int too large to convert to Float"):
            rt.call(name, *args)

    def test_int_arithmetic_is_exact(self, rt):
        assert rt.call("+", self.HUGE, 1) == self.HUGE + 1
        assert rt.run(f"sum({self.HUGE}, 1, 2)") == [self.HUGE + 3]

    def test_range_error_describes_an_endpoint_too_long_to_print(self, rt):
        n = "9" * 4300
        with pytest.raises(EvalError) as e:
            rt.run(f"({n} + {n}):1")
        assert str(e.value) == ("line 1, column 8606: "
                                "descending range <an Int of 4301 digits>:1")

    def test_int_literal_past_the_digit_limit_is_a_parse_error(self, rt):
        with pytest.raises(ParseError, match="line 1, column 5: integer literal "
                                             "of 4301 digits is too long"):
            rt.run("sum(" + "7" * 4301 + ")")


class TestIndexShapeRules:
    def test_trailing_rank_triple(self, rt):
        a = rt.run("index_shape(1:5, 1:3, 2)")[0]
        b = rt.run("index_shape(1:5, 2, 1:3)")[0]
        c = rt.run("index_shape(1:5, 2, 1:3, 1)")[0]
        assert a == Shape((5, 3))
        assert b == Shape((5, 1, 3))
        assert c == Shape((5, 1, 3))
        assert [len(s) for s in (a, b, c)] == [2, 3, 3]

    def test_trailing_zero_args(self, rt):
        v = rt.run("index_shape()")[0]
        assert v == Shape(())
        assert isinstance(v, Shape)

    def test_trailing_all_scalars(self, rt):
        assert rt.run("index_shape(2, 3, 4)") == [Shape(())]

    def test_all_drop(self):
        rt = Runtime("all-drop")
        assert rt.run("index_shape(1:5, 2, 1:3)") == [Shape((5, 3))]
        assert rt.run("index_shape(2, 1:4)") == [Shape((4,))]

    def test_apl(self):
        rt = Runtime("apl")
        assert rt.call("index_shape", iota((2, 2)), 7) == Shape((2, 2))
        assert rt.run("index_shape(1:5, 2, 1:3)") == [Shape((5, 3))]

    def test_drop_size1(self):
        rt = Runtime("drop-size1")
        assert rt.call("index_shape", Range(1, 5), 2, Range(1, 3), 1) == Shape((5, 1, 3))
        assert rt.call("index_shape", Range(1, 5), Range(1, 3), 1, 1) == Shape((5, 3))

    def test_unknown_rule(self):
        with pytest.raises(UnknownRuleError):
            Runtime("banana")

    def test_prelude_sources_differ_only_in_defs(self):
        # every prelude defines index_shape and nothing evaluates at load
        for rule in ("trailing-drop", "all-drop", "apl", "drop-size1"):
            src = prelude_source(rule)
            assert "index_shape" in src


class TestUserPrograms:
    def test_simple_def_and_call(self, rt):
        assert rt.run("double(x::Int) = x + x\ndouble(2)") == [4]

    def test_no_method(self, rt):
        rt.run("double(x::Int) = x + x")
        with pytest.raises(EvalError) as e:
            rt.run("double(1.5)")
        assert "no method" in str(e.value)

    def test_variadic_binding(self, rt):
        rt.run("head(x, rest...) = x\ntail(x, rest...) = rest")
        assert rt.call("head", 1, 2, 3) == 1
        assert rt.call("tail", 1, 2, 3) == (2, 3)
        assert rt.call("tail", 1) == ()

    def test_recursion_through_dispatch(self, rt):
        rt.run("count() = 0\ncount(x, r...) = 1 + count(r...)")
        assert rt.call("count", "a", "b", "c", "d") == 4

    def test_unbound_identifier(self, rt):
        with pytest.raises(EvalError) as e:
            rt.run("f(x) = y\nf(1)")
        assert "unbound identifier y" in str(e.value)

    def test_unknown_function(self, rt):
        with pytest.raises(EvalError) as e:
            rt.run("nope(1)")
        assert "unknown function nope" in str(e.value)

    def test_unknown_type(self, rt):
        with pytest.raises(EvalError) as e:
            rt.run("f(x::Widget) = x")
        assert "unknown type Widget" in str(e.value)

    def test_shape_is_not_a_type(self, rt):
        # a Shape is a tuple to dispatch, so no parameter can name its type
        with pytest.raises(EvalError) as e:
            rt.run("g(x) = x\nf(x::Shape) = 1")
        assert str(e.value) == "line 2, column 1: unknown type Shape"
        assert rt.run("g(size(1:3))") == [Shape((3,))]

    def test_splice_requires_tuple(self, rt):
        with pytest.raises(EvalError) as e:
            rt.run("tuple(1...)")
        assert "splice" in str(e.value)

    def test_ranges(self, rt):
        assert rt.run("2:1") == [Range(2, 1)]
        with pytest.raises(EvalError):
            rt.run("3:1")
        with pytest.raises(EvalError) as e:
            rt.run("(1:2):3")
        assert "integers" in str(e.value)

    def test_trace_order(self, rt):
        assert rt.run("1\n2 + 3\nsum(1, 1)") == [1, 5, 2]

    def test_redefined_index_shape_without_ints_stays_plain(self, rt):
        rt.run('index_shape(s::String) = tuple(s)')
        v = rt.call("index_shape", "x")
        assert v == ("x",)
        assert not isinstance(v, Shape)


class TestObserver:
    def test_methods_match_fresh_selection(self, rt):
        rt.run("count() = 0\ncount(x, r...) = 1 + count(r...)")
        seen = []
        rt.run("count(1, 2, 3)", observer=lambda e, m, args, v: seen.append((e, m, args, v)))
        labels = [m.label for _, m, _, _ in seen]
        assert labels.count("count#2") == 3
        assert labels.count("count#1") == 1
        for _, m, args, _ in seen:
            gf = rt.functions.lookup(m.fname)
            types = make_tuple(tuple(type_of(a) for a in args))
            assert gf.select(types) is m

    def test_a_parsed_program_runs_and_its_own_nodes_are_observed(self, rt):
        prog = parse("g(x) = x + 1\ng(2)\ng(2.5)")
        seen = []
        assert rt.run(prog, observer=lambda e, m, args, v: seen.append(e)) == [3, 3.5]
        plus, g2, plus_again, g25 = seen
        assert plus is plus_again is prog.items[0].body
        assert g2 is prog.items[1] and g25 is prog.items[2]

    def test_observer_restored(self, rt):
        rt.run("1", observer=lambda *a: None)
        assert rt._evaluator.observer is None


class TestHostValues:
    @pytest.mark.parametrize("args", [(True,), (1, False), ((True,),)])
    def test_booleans_rejected_through_call(self, rt, args):
        # minilang cannot write a boolean; a host caller can pass one
        with pytest.raises(TypeError, match="booleans are not runtime values"):
            rt.call("tuple", *args)


class TestRuntimeBookkeeping:
    def test_load_definitions_does_not_evaluate(self, rt):
        prog = rt.load_definitions('f(x) = x\nerror("never")')
        assert len(prog.items) == 2
        assert sum(not isinstance(it, MethodDef) for it in prog.items) == 1

    def test_base_functions_present(self, rt):
        for name in ("tuple", "length", "size", "+", "error", "sum",
                     "droptrail1", "index_shape"):
            assert rt.functions.lookup(name) is not None


class TestFrozenBase:
    """Each rule's natives and prelude are built once and shared."""

    @pytest.mark.parametrize("rule", RULE_NAMES)
    def test_second_runtime_neither_reads_nor_parses(self, rule, monkeypatch):
        Runtime(index_rule=rule)
        calls = []
        real_parse, real_source = runtime.parse, runtime.prelude_source
        monkeypatch.setattr(runtime, "parse",
                            lambda *a: calls.append("parse") or real_parse(*a))
        monkeypatch.setattr(runtime, "prelude_source",
                            lambda *a: calls.append("source") or real_source(*a))
        rt = Runtime(index_rule=rule)
        assert calls == []
        assert rt.functions.lookup("index_shape") is not None

    @pytest.mark.parametrize("rule", RULE_NAMES)
    def test_base_type_table_is_frozen(self, rule):
        with pytest.raises(FrozenTableError):
            runtime.base_functions(rule).types.declare("Foo", "Any")
        assert not runtime.base_functions(rule).types.declared("Foo")

    @pytest.mark.parametrize("rule", RULE_NAMES)
    def test_natives_shared_and_prelude_bodies_redefined(self, rule):
        base = runtime.base_functions(rule)
        assert runtime.base_functions(rule) is base
        rt = Runtime(index_rule=rule)
        assert rt.functions.names() == base.names()
        for gf in base:
            own = rt.functions.lookup(gf.name)
            assert [m.label for m in own.methods] == [m.label for m in gf.methods]
            for mine, shared in zip(own.methods, gf.methods):
                assert (mine is shared) == (shared.body is None)

    def test_prelude_bodies_see_this_runtimes_methods(self):
        a = Runtime()
        a.run("length(s::String) = 3")
        assert a.run('index_shape("ab", 1:2)') == [Shape((3, 2))]
        with pytest.raises(EvalError, match="no method matching length"):
            Runtime().run('index_shape("ab", 1:2)')
        with pytest.raises(EvalError, match="no method matching length"):
            index_shape("trailing-drop", ["ab", Range(1, 2)])

    def test_redefined_native_stays_in_its_runtime(self):
        a = Runtime()
        a.run("length(x::Real) = 5")
        assert a.run("length(7)") == [5]
        assert Runtime().run("length(7)") == [1]
        assert index_shape("trailing-drop", [Range(1, 4), 2]) == Shape((4,))

    def test_observer_sees_calls_inside_prelude_bodies(self, rt):
        seen = []
        rt.run("index_shape(1:4, 2, 1:3)",
               observer=lambda e, m, a, r: seen.append(m.label))
        assert seen == [
            "length#2", "length#1", "length#2", "tuple#1", "index_shape#1",
            "tuple#1", "index_shape#2", "tuple#1", "index_shape#2",
            "tuple#1", "index_shape#2",
        ]


class TestCallDepth:
    @pytest.mark.parametrize("rule", RULE_NAMES)
    def test_runaway_recursion_through_call(self, rule):
        rt = Runtime(index_rule=rule)
        rt.load_definitions("g(r...) = g(1, r...)\n")
        with pytest.raises(EvalError, match="^call depth exceeded$"):
            rt.call("g")
        assert rt.call("length", 7) == 1


class TestCompiledBodies:
    """Method bodies run compiled from their first call on; top-level
    expressions are walked. Both must be observably the same."""

    EDGE_EXPRESSIONS = [
        "nope(1)", "tuple(1...)", "tuple(1, 2.5...)", "y", "(1:2):3", "1:2.5",
        "3:1", 'error("boom")', 'sum("a")', "length(1, 2)",
        "tuple(size(1:3)..., 2)", "tuple((1, 2)..., ()...)",
        "index_shape(1:4, 2, 1:3)", "sum((1, 2.5)..., length(2:5))",
        # one for each argument pattern of runtime._call, and the loop
        "tuple()", "length(2)", "tuple(1, (2, 3)...)", "sum(1, 2, 3)",
        "tuple((1,)..., 2)", "tuple((1,)..., 3...)",
    ]

    @staticmethod
    def _outcome(ev, thunk):
        events = []
        ev.observer = lambda e, m, args, r: events.append(
            (e, m, type(args), repr(args), repr(r)))
        try:
            out = ("value", repr(thunk()))
        except Exception as err:  # compared, not hidden
            out = ("error", type(err), str(err), getattr(err, "loc", None))
        finally:
            ev.observer = None
        return out, events

    def _check(self, rt, expr):
        ev = rt._evaluator
        walked = self._outcome(ev, lambda: ev.run_items(Program([expr]))[0])
        probe = ev.define(MethodDef("probe", [], expr, expr.loc))
        compiled = self._outcome(ev, probe.fn)
        assert compiled == walked
        return walked

    def test_walked_and_compiled_agree_on_generated_programs(self):
        rng = random.Random(20261019)
        kinds, observed = set(), 0
        for _ in range(150):
            rt = Runtime()
            prog = rt.load_definitions(_gen_program(rng))
            for item in prog.items:
                if not isinstance(item, MethodDef):
                    out, events = self._check(rt, item)
                    kinds.add(out[0])
                    observed += len(events)
        assert kinds == {"value", "error"}
        assert observed > 1000

    @pytest.mark.parametrize("source", EDGE_EXPRESSIONS)
    def test_walked_and_compiled_agree_on_edge_cases(self, source):
        rt = Runtime()
        self._check(rt, parse(source).items[0])

    def test_errors_inside_bodies_are_located_at_their_call(self, rt):
        rt.run("h(x) = later(x)\nk(t) = tuple(t...)\nr(x) = 1:x")
        for call, message in [
            ("h(1)", "line 1, column 8: unknown function later"),
            ("k(1)", "line 2, column 15: only tuples can be spliced"),
            ("r(2.5)", "line 3, column 9: range endpoints must be integers"),
        ]:
            with pytest.raises(EvalError) as e:
                rt.run(call)
            assert str(e.value) == message
        rt.run("later(x) = x + 1")
        assert rt.run("h(1)") == [2]

    def test_define_compiles_nothing_and_a_body_compiles_once(self, monkeypatch):
        compiled = []
        real = runtime.Evaluator._compile_body
        monkeypatch.setattr(runtime.Evaluator, "_compile_body",
                            lambda self, d: compiled.append(d.fname) or real(self, d))
        rt = Runtime()
        rt.load_definitions("f(x) = x + 1\ng(x) = f(x)")
        assert compiled == []
        assert rt.run("g(1)\ng(2)") == [2, 3]
        assert rt.call("g", 3) == 4
        assert compiled == ["g", "f"]

    def test_redefinition_between_calls_takes_effect(self, rt):
        rt.run("f(x) = 1\ng(x) = f(x) + 10")
        assert rt.run("g(0)") == [11]
        rt.run("f(x) = 2")
        assert rt.run("g(0)") == [12]
        rt.run("f(x::Int) = 3")
        assert rt.run("g(0)\ng(0.5)") == [13, 12]
        rt.run("g(x) = f(x)")
        assert rt.run("g(0)") == [3]

    def test_300_deep_chain_runs_at_the_default_recursion_limit(self):
        # a fresh interpreter, so the test runner's own frames do not count
        chain = "".join(f"c{i}(x) = c{i + 1}(x)\n" for i in range(300))
        code = (
            "import sys\n"
            "from dispatchkit import Runtime\n"
            "assert sys.getrecursionlimit() == 1000\n"
            "rt = Runtime()\n"
            f"print(rt.run({chain!r} + 'c300(x) = x\\nc0(7)'), rt.run('c0(8)'))\n"
        )
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=60, env=dict(os.environ))
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[7] [8]\n"
