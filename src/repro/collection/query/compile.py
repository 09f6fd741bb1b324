"""Compiled query plans: closure-based evaluation of Collection queries.

The tree-walking evaluator in :mod:`.evaluate` re-dispatches on node types
for every record it tests; on a metasystem-scale Collection that dispatch
dominates query cost (the E19a measurement).  :func:`compile_query` walks
the AST **once** and emits a tree of plain Python closures — one callable
per node — so matching a record is straight calls with no ``isinstance``
chain.  Common selective shapes get specialized fast paths:

* ``$attr == "literal"``     — direct string equality on the snapshot value;
* ``$attr == <number|bool>`` — direct numeric equality (bools coerce, as in
  :func:`.evaluate._loose_eq`);
* ``$attr < <number>`` (and ``<= > >=``) — direct numeric ordering.

Every fast path guards on the runtime type of the attribute value and
falls back to the shared semantic helpers (``_compare``, ``_arith``,
``_truthy``) from :mod:`.evaluate` the moment anything unusual shows up
(lists, UNDEFINED, cross-type comparisons), so a compiled plan is
**semantically identical** to the tree walk — pinned by the differential
fuzz test in ``tests/test_query_compile.py``.

Injected functions are looked up *at call time* through the captured
:class:`~.evaluate.QueryFunctions` registry, preserving two tree-walk
behaviours: functions registered after compilation are visible, and an
unknown function only raises if evaluation actually reaches it (short
circuits still protect it).

A plan also records what it needs from the record mapping
(:attr:`CompiledQuery.uses_loid`, :attr:`CompiledQuery.has_calls`), which
lets the Collection skip building a record view entirely for plans that
read nothing but stored attributes — the common scheduler viability query.
"""

from __future__ import annotations

from typing import Any, Callable, List, Mapping, Optional

from ...errors import QueryEvaluationError
from .ast import And, Arith, Attr, Call, Compare, Literal, Node, Not, Or
from .evaluate import (
    UNDEFINED,
    QueryFunctions,
    _arith,
    _compare,
    _truthy,
)

__all__ = ["CompiledQuery", "compile_query"]

#: a compiled node: record mapping -> value
_PlanFn = Callable[[Mapping[str, Any]], Any]


class CompiledQuery:
    """A reusable, closure-based plan for one parsed query."""

    __slots__ = ("uses_loid", "has_calls", "attr_names", "_fn")

    def __init__(self, fn: _PlanFn, uses_loid: bool, has_calls: bool,
                 attr_names: tuple):
        self._fn = fn
        #: the plan reads the implicit ``$loid`` attribute
        self.uses_loid = uses_loid
        #: the plan invokes query functions (which receive the record)
        self.has_calls = has_calls
        #: every ``$attr`` name the plan reads
        self.attr_names = attr_names

    def evaluate(self, record: Mapping[str, Any]) -> Any:
        """The compiled analogue of :func:`.evaluate.evaluate`."""
        return self._fn(record)

    def matches(self, record: Mapping[str, Any]) -> bool:
        """The compiled analogue of :func:`.evaluate.matches`."""
        return _truthy(self._fn(record))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CompiledQuery attrs={self.attr_names}>"


class _Compiler:
    """One compilation pass; accumulates the plan's attribute footprint."""

    def __init__(self, functions: QueryFunctions):
        self.fns = functions
        self.attr_names: List[str] = []
        self.has_calls = False

    # -- node dispatch ------------------------------------------------------
    def compile(self, node: Node) -> _PlanFn:
        if isinstance(node, Literal):
            value = node.value
            return lambda record: value
        if isinstance(node, Attr):
            name = node.name
            if name not in self.attr_names:
                self.attr_names.append(name)
            return lambda record: record.get(name, UNDEFINED)
        if isinstance(node, Or):
            left, right = self.compile(node.left), self.compile(node.right)
            return lambda record: (_truthy(left(record))
                                   or _truthy(right(record)))
        if isinstance(node, And):
            left, right = self.compile(node.left), self.compile(node.right)
            return lambda record: (_truthy(left(record))
                                   and _truthy(right(record)))
        if isinstance(node, Not):
            operand = self.compile(node.operand)
            return lambda record: not _truthy(operand(record))
        if isinstance(node, Compare):
            return self._compile_compare(node)
        if isinstance(node, Arith):
            op = node.op
            left, right = self.compile(node.left), self.compile(node.right)
            return lambda record: _arith(op, left(record), right(record))
        if isinstance(node, Call):
            return self._compile_call(node)
        raise QueryEvaluationError(f"cannot compile node {node!r}")

    # -- comparisons --------------------------------------------------------
    def _compile_compare(self, node: Compare) -> _PlanFn:
        op = node.op
        # fast path: $attr <op> scalar-literal (either side)
        attr_node: Optional[Attr] = None
        lit_node: Optional[Literal] = None
        flipped = False
        if isinstance(node.left, Attr) and isinstance(node.right, Literal):
            attr_node, lit_node = node.left, node.right
        elif isinstance(node.right, Attr) and isinstance(node.left, Literal):
            attr_node, lit_node, flipped = node.right, node.left, True
        if attr_node is not None and lit_node is not None:
            fast = self._attr_literal_compare(op, attr_node.name,
                                              lit_node.value, flipped)
            if fast is not None:
                if attr_node.name not in self.attr_names:
                    self.attr_names.append(attr_node.name)
                return fast
        left, right = self.compile(node.left), self.compile(node.right)
        return lambda record: _compare(op, left(record), right(record))

    def _attr_literal_compare(self, op: str, name: str, lit: Any,
                              flipped: bool) -> Optional[_PlanFn]:
        """A specialized ``$name <op> lit`` closure, or None.

        The guard checks the runtime type of the stored value and defers
        to :func:`._compare` (which handles lists, UNDEFINED, and
        cross-type rules) whenever the value is not a plain scalar of a
        directly comparable kind.
        """
        if isinstance(lit, str):
            if op == "==":
                def fn(record: Mapping[str, Any]) -> bool:
                    v = record.get(name, UNDEFINED)
                    if type(v) is str:
                        return v == lit
                    return _compare("==", v, lit)
                return fn
            if op == "!=":
                def fn(record: Mapping[str, Any]) -> bool:
                    v = record.get(name, UNDEFINED)
                    if type(v) is str:
                        return v != lit
                    return _compare("!=", v, lit)
                return fn
            return None
        if isinstance(lit, (bool, int, float)):
            litf = float(lit)
            if op == "==":
                def fn(record: Mapping[str, Any]) -> bool:
                    v = record.get(name, UNDEFINED)
                    t = type(v)
                    if t is int or t is float or t is bool:
                        return float(v) == litf
                    return _compare("==", v, lit)
                return fn
            if op == "!=":
                def fn(record: Mapping[str, Any]) -> bool:
                    v = record.get(name, UNDEFINED)
                    t = type(v)
                    if t is int or t is float or t is bool:
                        return float(v) != litf
                    return _compare("!=", v, lit)
                return fn
            if op in ("<", "<=", ">", ">="):
                # the stored value sits on the attr side: when the query
                # was written literal-first ($x in ``2 > $x``), the
                # effective operator over the attr value is mirrored
                eff = op
                if flipped:
                    eff = {"<": ">", "<=": ">=",
                           ">": "<", ">=": "<="}[op]

                def make(eff_op: str) -> _PlanFn:
                    if eff_op == "<":
                        cmp = lambda a, b: a < b  # noqa: E731
                    elif eff_op == "<=":
                        cmp = lambda a, b: a <= b  # noqa: E731
                    elif eff_op == ">":
                        cmp = lambda a, b: a > b  # noqa: E731
                    else:
                        cmp = lambda a, b: a >= b  # noqa: E731

                    def fn(record: Mapping[str, Any]) -> bool:
                        v = record.get(name, UNDEFINED)
                        t = type(v)
                        if t is int or t is float or t is bool:
                            return cmp(float(v), litf)
                        if flipped:
                            return _compare(op, lit, v)
                        return _compare(op, v, lit)
                    return fn
                return make(eff)
        return None

    # -- calls --------------------------------------------------------------
    def _compile_call(self, node: Call) -> _PlanFn:
        self.has_calls = True
        fns = self.fns
        name = node.name
        if name == "match" and len(node.args) == 2:
            # argument-order leniency (see evaluate()): with exactly one
            # string-literal argument, that literal is the regex
            a0, a1 = node.args
            lit0 = isinstance(a0, Literal) and isinstance(a0.value, str)
            lit1 = isinstance(a1, Literal) and isinstance(a1.value, str)
            if lit1 and not lit0:
                regex_fn = self.compile(a1)
                value_fn = self.compile(a0)
                return lambda record: fns.get("match")(
                    [regex_fn(record), value_fn(record)], record)
        arg_fns = tuple(self.compile(a) for a in node.args)
        return lambda record: fns.get(name)(
            [fn(record) for fn in arg_fns], record)


def compile_query(node: Node,
                  functions: Optional[QueryFunctions] = None
                  ) -> CompiledQuery:
    """Compile a parsed query AST into a reusable closure plan.

    The plan is bound to ``functions`` (defaulting to a fresh registry
    with the built-ins): later registrations on the same registry are
    picked up because function resolution happens per evaluation.
    """
    fns = functions if functions is not None else QueryFunctions()
    compiler = _Compiler(fns)
    fn = compiler.compile(node)
    attr_names = tuple(compiler.attr_names)
    return CompiledQuery(fn, uses_loid="loid" in attr_names,
                         has_calls=compiler.has_calls,
                         attr_names=attr_names)
