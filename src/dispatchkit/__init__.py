"""dispatchkit: a multiple-dispatch runtime with dataflow type inference.

The package bundles a subtype lattice over named and tuple types, a
generic-function dispatcher with caching and ambiguity detection, a tiny
expression language whose programs drive the dispatcher, an abstract
interpreter that infers per-call-site types and devirtualization
opportunities, a column-major array library with swappable indexing rule
sets and strided views, unit-checked quantities, and corpus metrics for
how heavily a codebase uses dispatch.
"""

from .dispatch import (
    AmbiguityError,
    DispatchError,
    FunctionTable,
    GenericFunction,
    Method,
    MethodSignature,
    NoMethodError,
    dispatch_call,
    more_specific,
    signature,
)
from .indexing import getindex, index_shape, rule_names
from .inference import (
    InferenceReport,
    InferenceState,
    SiteReport,
    infer_call_type,
    infer_program,
    splice_types,
)
from .lattice import (
    ANY,
    Bottom,
    Named,
    TupleType,
    TypeTable,
    UndeclaredTypeError,
    join,
    make_tuple,
    meet,
    render_type,
    signature_subtype,
    subtype,
    widen,
)
from .metrics import (
    REFERENCE_ROWS,
    CorpusEntry,
    CorpusFormatError,
    EmptyCorpusError,
    MetricsReport,
    choice_ratio,
    corpus_of,
    degree_of_specialization,
    dispatch_ratio,
    metrics_report,
    parse_corpus,
    render_corpus,
    render_table,
)
from .minilang import ParseError, parse, print_program
from .ndarray import BoundsError, NdArray, Range, RankMismatchError, Shape, iota, zeros
from .preludes import RULE_NAMES, prelude_source
from .runtime import EvalError, LangError, Runtime
from .units import (
    AMOUNT,
    BASE_SYMBOLS,
    CURRENT,
    DIMENSIONLESS,
    LENGTH,
    LUMINOSITY,
    MASS,
    TEMPERATURE,
    TIME,
    Dimension,
    Quantity,
    UnitMismatchError,
    install_quantities,
    qadd,
    qmul,
)
from .values import render_value, type_of
from .views import (
    COLON,
    ArrayView,
    ViewKind,
    contrank,
    crank_from_strides,
    to_array,
    view,
    view_get,
)

__version__ = "0.1.0"
