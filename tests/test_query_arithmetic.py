"""Tests for arithmetic expressions in the query grammar."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collection import Collection, parse, matches
from repro.collection.query import Arith, evaluate, UNDEFINED
from repro.errors import QuerySyntaxError
from repro.naming import LOID

REC = {"host_speed": 2.0, "host_load": 3.0, "cpus": 4, "host_up": True,
       "name": "ws0"}


def q(text, record=REC):
    return matches(parse(text), record)


class TestParsing:
    def test_precedence_mul_over_add(self):
        node = parse("$a + $b * $c == 0")
        assert isinstance(node.left, Arith)
        assert node.left.op == "+"
        assert node.left.right.op == "*"

    def test_parentheses(self):
        node = parse("($a + $b) * $c == 0")
        assert node.left.op == "*"
        assert node.left.left.op == "+"

    def test_left_associativity(self):
        node = parse("$a - $b - $c == 0")
        assert node.left.op == "-"
        assert node.left.left.op == "-"

    def test_arith_below_comparison(self):
        node = parse("$a + 1 < $b * 2")
        assert node.op == "<"
        assert node.left.op == "+"
        assert node.right.op == "*"

    def test_signed_literal_still_works(self):
        assert q("$cpus == -4", {"cpus": -4})

    def test_dangling_operator_rejected(self):
        with pytest.raises(QuerySyntaxError):
            parse("$a + ")
        with pytest.raises(QuerySyntaxError):
            parse("* $a")

    def test_unparse_round_trip(self):
        node = parse("$a + $b * 2 - 1 == $c / 4")
        assert parse(node.unparse()) == node


class TestEvaluation:
    def test_basic_ops(self):
        assert q("$cpus + 1 == 5")
        assert q("$cpus - 1 == 3")
        assert q("$cpus * $host_speed == 8")
        assert q("$cpus / 2 == 2")

    def test_effective_rate_expression(self):
        # the canonical scheduling expression, straight in query text
        assert q("$host_speed / (1 + $host_load) > 0.4")
        assert not q("$host_speed / (1 + $host_load) > 0.6")

    def test_undefined_propagates(self):
        assert not q("$missing + 1 == 1")
        assert not q("1 + $missing == 1")
        assert not q("$missing * $missing == 0")

    def test_division_by_zero_is_undefined(self):
        assert not q("$cpus / 0 == 0")
        assert not q("$cpus / ($host_load - 3) > 0")

    def test_string_operand_is_undefined(self):
        assert not q('$name + 1 == 1')
        assert not q('$name * 2 == "ws0ws0"')

    def test_bool_coerces_numeric(self):
        assert q("$host_up + 1 == 2")

    def test_evaluate_returns_value(self):
        assert evaluate(parse("$cpus * 2"), REC) == 8.0
        assert evaluate(parse("$missing * 2"), REC) is UNDEFINED

    def test_mixed_with_boolean_logic(self):
        assert q("$host_up and $cpus * 2 == 8 or $cpus == 0")


class TestWithCollections:
    def fill(self, coll):
        coll.require_auth = False
        for i in range(8):
            coll.join(LOID(("d", "host", f"h{i}")), {
                "host_speed": 1.0 + i, "host_load": float(i),
                "host_arch": "sparc"})

    def test_rate_query_on_collection(self):
        coll = Collection(LOID(("d", "svc", "c")))
        self.fill(coll)
        fast = coll.query("$host_speed / (1 + $host_load) >= 1.0")
        assert len(fast) == 8  # (1+i)/(1+i) == 1 for all

        some = coll.query("$host_speed / (1 + $host_load) > 1.0")
        assert len(some) == 0


arith_ops = st.sampled_from(["+", "-", "*", "/"])
numbers = st.integers(min_value=-20, max_value=20)


class TestArithmeticProperties:
    @given(numbers, numbers, arith_ops)
    @settings(max_examples=100, deadline=None)
    def test_matches_python_semantics(self, a, b, op):
        record = {"a": a, "b": b}
        text = f"$a {op} $b"
        value = evaluate(parse(text), record)
        if op == "/" and b == 0:
            assert value is UNDEFINED
        else:
            expected = {"+": a + b, "-": a - b, "*": a * b,
                        "/": (a / b if b else None)}[op]
            assert value == pytest.approx(expected)
