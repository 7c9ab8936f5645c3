"""Command-line driver.

Subcommands: `run` evaluates a program and prints its value trace,
`infer` prints the per-call-site inference report without executing,
`metrics` computes dispatch statistics from a corpus file or the live
engine, and `view-demo` walks through array view construction.

Exit codes: 0 success, 1 runtime error, 2 input error (syntax, file,
file not UTF-8 text, corpus format, bad flags).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .indexing import getindex
from .inference import infer_program
from .lattice import WIDEN_MAX_FIXED, render_type
from .metrics import (
    CorpusFormatError,
    EmptyCorpusError,
    corpus_of,
    metrics_report,
    parse_corpus,
    render_table,
)
from .minilang import MethodDef, ParseError, parse
from .ndarray import Range, Shape, iota
from .preludes import RULE_NAMES, UnknownRuleError
from .runtime import EvalError, Runtime
from .values import render_value
from .views import COLON, to_array, view

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dispatchkit",
        description="multiple-dispatch runtime, type inference, and "
                    "array indexing experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def count(text: str) -> int:
        n = int(text)
        if n < 0:
            raise argparse.ArgumentTypeError(f"must not be negative: {n}")
        return n

    def common(p):
        p.add_argument("--index-rule", choices=RULE_NAMES,
                       default="trailing-drop",
                       help="index_shape rule set (default: trailing-drop)")
        p.add_argument("--format", choices=("text", "json-lines"),
                       default="text", help="output format (default: text)")

    p_run = sub.add_parser("run", help="evaluate a program file")
    p_run.add_argument("file")
    common(p_run)
    p_run.set_defaults(fn=_cmd_run)

    p_infer = sub.add_parser("infer", help="type-infer a program file")
    p_infer.add_argument("file")
    common(p_infer)
    p_infer.add_argument("--widen-max-fixed", type=count, default=WIDEN_MAX_FIXED,
                         metavar="N",
                         help="tuple widening threshold for inference "
                              "(default: %(default)s)")
    p_infer.set_defaults(fn=_cmd_infer)

    p_metrics = sub.add_parser("metrics", help="dispatch metrics over a "
                                               "corpus file")
    p_metrics.add_argument("corpus", nargs="?",
                           help="corpus file (omit with --self)")
    p_metrics.add_argument("--self", dest="self_scan", action="store_true",
                           help="scan the loaded prelude's method tables")
    common(p_metrics)
    p_metrics.set_defaults(fn=_cmd_metrics)

    p_view = sub.add_parser("view-demo", help="array view walkthrough")
    common(p_view)
    p_view.set_defaults(fn=_cmd_view_demo)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process, reused by every call of `main`."""
    return build_parser()


class InputError(Exception):
    """A file that is not UTF-8 text."""


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise InputError(f"{path}: not UTF-8 text (byte {err.start}: "
                         f"{err.reason})") from None


def _cmd_run(args) -> int:
    source = _read(args.file)
    rt = Runtime(index_rule=args.index_rule)
    try:
        trace = rt.run(source)
    except EvalError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    lines = []
    for k, v in enumerate(trace):
        try:
            lines.append(render_value(v))
        except ValueError:  # str() of an Int past the interpreter's digit limit
            exprs = [it for it in parse(source).items if not isinstance(it, MethodDef)]
            err = EvalError(f"an Int of more than {sys.get_int_max_str_digits()} "
                            "digits cannot be printed", exprs[k].loc)
            print(f"error: {err}", file=sys.stderr)
            return 1
    for line in lines:
        print(json.dumps({"value": line}) if args.format == "json-lines" else line)
    return 0


def _cmd_infer(args) -> int:
    source = _read(args.file)
    rt = Runtime(index_rule=args.index_rule)
    prog = rt.load_definitions(source)
    report = infer_program(rt.functions, prog.items, args.widen_max_fixed)
    for site in report.sites:
        if args.format == "json-lines":
            print(json.dumps({
                "line": site.loc[0],
                "col": site.loc[1],
                "function": site.fname,
                "static": site.static,
                "method": site.method_label,
                "type": render_type(site.result),
                "splice_elidable": site.splice_elidable,
            }))
        else:
            print(site.render())
    return 0


def _cmd_metrics(args) -> int:
    if args.self_scan:
        label = "self"
        corpus = corpus_of(Runtime(index_rule=args.index_rule).functions)
    elif args.corpus:
        label = Path(args.corpus).name
        corpus = parse_corpus(_read(args.corpus))
    else:
        print("error: give a corpus file or --self", file=sys.stderr)
        return 2
    report = metrics_report(corpus)
    if args.format == "json-lines":
        print(json.dumps({"corpus": label, **report.as_dict()}))
    else:
        print(render_table([(label, report.cells())]))
    return 0


def _cmd_view_demo(args) -> int:
    a = iota(Shape((4, 5, 6)))
    rows = []
    for label, indices in (
        ("A[:, :, 2]", [COLON, COLON, 2]),
        ("A[2, :, :]", [2, COLON, COLON]),
        ("A[2:3, 1:5, 1]", [Range(2, 3), Range(1, 5), 1]),
    ):
        v = view(a, indices, rule=args.index_rule)
        full = [Range(1, e) if i is COLON else i
                for i, e in zip(indices, a.shape)]
        copied = getindex(a, full, rule=args.index_rule)
        rows.append({
            "view": label,
            "kind": v.kind.name.title(),
            "offset": v.offset,
            "shape": list(v.shape),
            "strides": list(v.strides),
            "crank": v.crank,
            "matches_copy": to_array(v) == copied,
        })
    for row in rows:
        if args.format == "json-lines":
            print(json.dumps(row))
        else:
            print("{view}: {kind} offset={offset} shape={shape} "
                  "strides={strides} crank={crank} "
                  "matches_copy={matches_copy}".format(**row))
    return 0


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except ParseError as err:
        print(f"syntax error: {err}", file=sys.stderr)
        return 2
    except (CorpusFormatError, EmptyCorpusError, InputError,
            UnknownRuleError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except EvalError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
