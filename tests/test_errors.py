"""Errors and warnings carry their data the same way: keywords to the base constructor."""

import ast
import pickle
from pathlib import Path

import pytest

import utilrank.errors as errors
from utilrank.errors import (
    ColumnNotNormalized,
    DegenerateAttribute,
    Diagnostic,
    DuplicateTriple,
    EmptyInput,
    InsufficientSamples,
    NegativeIgd,
    NonFiniteUtility,
    ParseError,
    ReproductionMismatch,
    UtilrankError,
    UtilityRangeWarning,
    UtilrankWarning,
    ZeroPriorSupport,
)

BASES = ("UtilrankError", "UtilrankWarning")


def _self_assignments(source: str) -> list[int]:
    """Lines that assign to an attribute of ``self`` outside the ``__init__`` of a base in ``BASES``."""
    tree = ast.parse(source)
    building = {id(node) for base in tree.body
                if isinstance(base, ast.ClassDef) and base.name in BASES
                for function in base.body
                if isinstance(function, ast.FunctionDef) and function.name == "__init__"
                for node in ast.walk(function)}
    found = []
    for node in ast.walk(tree):
        if id(node) in building or not isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            continue
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        if any(isinstance(target, ast.Attribute) and getattr(target.value, "id", None) == "self"
               for outer in targets for target in ast.walk(outer)):
            found.append(node.lineno)
    return found


class TestOneConstructor:
    def test_no_error_assigns_its_own_attributes(self):
        assert _self_assignments(Path(errors.__file__).read_text(encoding="utf-8")) == []

    def test_scanner_finds_assignments_to_self(self):
        source = "\n".join([
            "class UtilrankError(Exception):",
            "    def __init__(self, message='', **fields):",
            "        self.kept = 1",
            "class Sub(UtilrankError):",
            "    def __init__(self, a):",
            "        self.a = a",
            "        self.b, self.c = a",
            "        self.n += 1",
            "        self.t: int = 2",
            "        other.a = a",
            "        a = self.a",
            "class Other:",
            "    def __init__(self):",
            "        self.x = 0",
        ])
        assert _self_assignments(source) == [6, 7, 8, 9, 14]

    def test_keywords_become_attributes_and_fields(self):
        for base in (UtilrankError, UtilrankWarning):
            raised = base("m", x=1)
            assert raised.x == 1 and raised.args == ("m",)
            assert Diagnostic.of(raised) == Diagnostic(base.__name__, "m", {"x": 1})


@pytest.mark.parametrize(
    "raised,fields,message",
    [
        (DuplicateTriple("A", "x", "s\n1"),
         {"alternative_id": "A", "attribute_id": "x", "situation_id": "s\n1"},
         "duplicate sample for (A, x, 's\\n1')"),
        (InsufficientSamples("A", "x", 1),
         {"alternative_id": "A", "attribute_id": "x", "count": 1},
         "pair (A, x) has 1 sample(s); need at least 2"),
        (NonFiniteUtility("A", "x", "s1", line=7),
         {"alternative_id": "A", "attribute_id": "x", "situation_id": "s1", "line": 7},
         "non-finite utility for (A, x, s1) (line 7)"),
        (NonFiniteUtility("A", "x", "s1"),
         {"alternative_id": "A", "attribute_id": "x", "situation_id": "s1", "line": None},
         "non-finite utility for (A, x, s1)"),
        (ColumnNotNormalized("x", 0.5), {"attribute_id": "x", "total": 0.5},
         "column for attribute 'x' sums to 0.5, not 1"),
        (ParseError(3, "bad utility"), {"line": 3, "reason": "bad utility"}, "line 3: bad utility"),
        (DegenerateAttribute("x"), {"attribute_id": "x"},
         "attribute 'x' has zero total variance; no weighting information"),
        (ZeroPriorSupport("A", "x"), {"alternative_id": "A", "attribute_id": "x"},
         "prior is zero at (A, x) where the data-driven probability is positive; "
         "set prior_smoothing_epsilon > 0 or fix the prior"),
        (NegativeIgd((0.25, -0.25)), {"values": (0.25, -0.25)},
         "negative information-gain difference (0.25, -0.25); use the min_shift policy to resolve signs"),
        (ReproductionMismatch((("A6", "ICW AI1", 9.94, 9.99), ("A7", "IGHW AI2", 0.5, 0.25))),
         {"departures": (("A6", "ICW AI1", 9.94, 9.99), ("A7", "IGHW AI2", 0.5, 0.25)),
          "table": "A6", "cell": "ICW AI1", "expected": 9.94, "actual": 9.99},
         "table A6, cell ICW AI1: expected 9.94, got 9.99 (and 1 more)"),
    ],
    ids=["duplicate", "insufficient", "non-finite-line", "non-finite", "column", "parse",
         "degenerate", "zero-prior", "negative-igd", "mismatch"],
)
def test_an_error_reports_the_fields_it_was_built_with(raised, fields, message):
    diagnostic = Diagnostic.of(raised)
    assert (diagnostic.type, diagnostic.message, diagnostic.fields) == (
        type(raised).__name__, message, fields)
    assert list(diagnostic.fields) == list(fields)  # in the order the constructor passes them
    assert str(raised) == message and raised.args == (message,)


@pytest.mark.parametrize(
    "raised",
    [
        DuplicateTriple("A", "x", "s\n1"),
        InsufficientSamples("A", "x", 1),
        NonFiniteUtility("A", "x", "s1", line=7),
        ColumnNotNormalized("x", 0.5),
        ParseError(3, "bad utility"),
        DegenerateAttribute("x"),
        ZeroPriorSupport("A", "x"),
        NegativeIgd((0.25, -0.25)),
        ReproductionMismatch((("A6", "ICW AI1", 9.94, 9.99), ("A7", "IGHW AI2", 0.5, 0.25))),
        EmptyInput("no samples"),  # a message only
        UtilityRangeWarning("1 of 4 utilities fall outside [0, 1]"),
    ],
    ids=lambda raised: type(raised).__name__,
)
def test_an_error_survives_pickling(raised):
    # A process pool hands a worker's error back pickled.
    copy = pickle.loads(pickle.dumps(raised))
    assert type(copy) is type(raised)
    assert (str(copy), copy.args, Diagnostic.of(copy)) == (str(raised), raised.args, Diagnostic.of(raised))
