"""Tests for the IndexedCollection: identical semantics, indexed speed."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collection import Collection, IndexedCollection, parse
from repro.collection.indexing import equality_constraints
from repro.naming import LOID


def loid(name):
    return LOID(("d", "host", name))


def fill(coll, n=20):
    coll.require_auth = False
    for i in range(n):
        coll.join(loid(f"h{i}"), {
            "host_arch": ["sparc", "mips", "x86"][i % 3],
            "host_os_name": ["SunOS", "IRIX", "Linux"][i % 3],
            "host_load": float(i % 5),
            "host_up": i % 4 != 0,
            "cpus": 1 + i % 2,
            "tags": ["fast"] if i % 2 == 0 else ["slow", "cheap"],
        })


@pytest.fixture
def pair():
    plain = Collection(LOID(("d", "svc", "plain")), require_auth=False)
    indexed = IndexedCollection(LOID(("d", "svc", "indexed")),
                                require_auth=False)
    fill(plain)
    fill(indexed)
    return plain, indexed


QUERIES = [
    '$host_arch == "sparc"',
    '$host_arch == "sparc" and $host_up == true',
    '$host_arch == "sparc" and $host_load < 3',
    '$host_arch == "mips" and $host_os_name == "IRIX" and $cpus == 2',
    '$host_load < 2',                       # no equality: scan fallback
    '$host_arch == "sparc" or $host_arch == "mips"',   # OR: fallback
    'not ($host_arch == "sparc")',                     # NOT: fallback
    '$tags == "cheap" and $host_up == true',           # list values
    '$host_arch == "vax"',                             # empty result
    'match("IRIX", $host_os_name) and $host_arch == "mips"',
    '$cpus == 2.0',                                    # numeric coercion
    '$host_up == true',
]


class TestSemanticsMatchScan:
    @pytest.mark.parametrize("query", QUERIES)
    def test_same_results_as_plain(self, pair, query):
        plain, indexed = pair
        assert ([r.member for r in plain.query(query)]
                == [r.member for r in indexed.query(query)])

    def test_index_used_where_possible(self, pair):
        _plain, indexed = pair
        indexed.query('$host_arch == "sparc"')
        assert indexed.index_hits == 1
        indexed.query('$host_load < 2')
        assert indexed.scan_fallbacks == 1

    def test_update_reindexes(self, pair):
        _plain, indexed = pair
        member = loid("h0")
        indexed.update_entry(member, {"host_arch": "alpha"})
        assert member in {r.member for r in
                          indexed.query('$host_arch == "alpha"')}
        assert member not in {r.member for r in
                              indexed.query('$host_arch == "sparc"')}

    def test_push_touches_only_changed_attributes(self):
        """A push that changes only ``host_load`` leaves the member's
        other buckets alone (a sole-member bucket used to be emptied,
        deleted and rebuilt on every push)."""
        indexed = IndexedCollection(LOID(("d", "svc", "indexed")),
                                    require_auth=False)
        member = loid("only")
        indexed.join(member, {"host_arch": "alpha", "host_load": 0.5,
                              "tags": ["fast"]})
        arch_bucket = indexed._index["host_arch"][("s", "alpha")]
        tags_bucket = indexed._index["tags"][("s", "fast")]
        indexed.update_entry(member, {"host_arch": "alpha",
                                      "host_load": 1.5, "tags": ["fast"]})
        assert indexed._index["host_arch"][("s", "alpha")] is arch_bucket
        assert indexed._index["tags"][("s", "fast")] is tags_bucket
        assert set(indexed._index["host_load"]) == {("n", 1.5)}
        assert indexed.query_loids('$host_load == 1.5') == [member]
        assert indexed.query_loids('$host_load == 0.5') == []

    def test_leave_unindexes(self, pair):
        _plain, indexed = pair
        member = loid("h0")
        indexed.leave(member)
        assert member not in {r.member for r in
                              indexed.query('$host_arch == "sparc"')}

    def test_pull_from_reindexes(self, meta):
        indexed = IndexedCollection(LOID(("d", "svc", "i2")),
                                    clock=lambda: meta.now)
        host = meta.hosts[0]
        indexed.pull_from(host)
        assert host.loid in {r.member for r in
                             indexed.query('$host_arch == "sparc"')}
        host.machine.set_background_load(9.0)
        host.reassess()
        indexed.pull_from(host)
        result = indexed.query('$host_arch == "sparc" and $host_load > 5')
        assert host.loid in {r.member for r in result}

    def test_computed_attribute_not_misindexed(self, pair):
        _plain, indexed = pair
        indexed.inject_attribute("grade", lambda rec: "good")
        result = indexed.query('$grade == "good" and '
                               '$host_arch == "sparc"')
        # computed attr is skipped by the planner but honoured by the
        # evaluator: all sparc records match
        assert len(result) == 7

    def test_contradictory_constraints_short_circuit(self, pair):
        _plain, indexed = pair
        assert indexed.query('$host_arch == "sparc" and '
                             '$host_arch == "mips"') == []


class TestPlanner:
    def test_collects_top_level_conjunction(self):
        ast = parse('$a == 1 and ($b == "x" and $c == true)')
        constraints = dict(equality_constraints(ast))
        assert constraints == {"a": 1, "b": "x", "c": True}

    def test_reversed_operands(self):
        ast = parse('"x" == $b')
        assert equality_constraints(ast) == [("b", "x")]

    def test_ignores_or_and_not_branches(self):
        assert equality_constraints(parse('$a == 1 or $b == 2')) == []
        assert equality_constraints(parse('not ($a == 1)')) == []
        ast = parse('$a == 1 and ($b == 2 or $c == 3)')
        assert equality_constraints(ast) == [("a", 1)]

    def test_ignores_inequalities(self):
        assert equality_constraints(parse('$a != 1 and $b < 2')) == []


attr_st = st.sampled_from(["host_arch", "host_load", "host_up", "cpus"])
value_st = st.one_of(
    st.sampled_from(["sparc", "mips", "x86", "vax"]),
    st.integers(min_value=0, max_value=5),
    st.booleans())


class TestPropertyEquivalence:
    @given(st.lists(st.tuples(attr_st, value_st), min_size=1, max_size=3),
           st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_conjunctive_queries_agree_with_scan(self, constraints,
                                                 add_range):
        plain = Collection(LOID(("d", "svc", "p")), require_auth=False)
        indexed = IndexedCollection(LOID(("d", "svc", "i")),
                                    require_auth=False)
        fill(plain, n=30)
        fill(indexed, n=30)
        terms = []
        for attr, value in constraints:
            if isinstance(value, str):
                terms.append(f'${attr} == "{value}"')
            elif isinstance(value, bool):
                terms.append(f'${attr} == {"true" if value else "false"}')
            else:
                terms.append(f'${attr} == {value}')
        if add_range:
            terms.append('$host_load < 4')
        query = " and ".join(terms)
        assert ([r.member for r in plain.query(query)]
                == [r.member for r in indexed.query(query)])


# -- differential fuzz: random records x random query trees ----------------

record_st = st.fixed_dictionaries({
    "host_arch": st.sampled_from(["sparc", "mips", "x86", "alpha"]),
    "host_os_name": st.sampled_from(["SunOS", "IRIX", "Linux"]),
    "host_load": st.floats(min_value=0.0, max_value=8.0,
                           allow_nan=False, allow_infinity=False),
    "host_up": st.booleans(),
    "cpus": st.integers(min_value=1, max_value=8),
    "tags": st.lists(st.sampled_from(["fast", "slow", "cheap", "big"]),
                     max_size=2),
})


def _literal(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return f'"{value}"'
    return repr(value)


_comparison_st = st.one_of(
    st.tuples(st.sampled_from(["host_arch", "host_os_name"]),
              st.sampled_from(["==", "!="]),
              st.sampled_from(["sparc", "mips", "x86", "IRIX", "Linux"])),
    st.tuples(st.just("host_load"),
              st.sampled_from(["<", "<=", ">", ">=", "==", "!="]),
              st.integers(min_value=0, max_value=8)),
    st.tuples(st.just("cpus"),
              st.sampled_from(["==", "!=", "<", ">="]),
              st.integers(min_value=1, max_value=8)),
    st.tuples(st.just("host_up"), st.just("=="), st.booleans()),
    st.tuples(st.just("tags"), st.just("=="),
              st.sampled_from(["fast", "slow", "cheap", "big"])),
).map(lambda t: f"${t[0]} {t[1]} {_literal(t[2])}")

query_st = st.recursive(
    _comparison_st,
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda t: f"({t[0]} and {t[1]})"),
        st.tuples(inner, inner).map(lambda t: f"({t[0]} or {t[1]})"),
        inner.map(lambda q: f"not {q}"),
    ),
    max_leaves=6)


class TestDifferentialFuzz:
    """IndexedCollection must agree with a linear-scan Collection on
    arbitrary record sets and arbitrary query trees — the index is an
    optimization, never a semantic change."""

    @given(st.lists(record_st, min_size=0, max_size=25), query_st)
    @settings(max_examples=120, deadline=None)
    def test_arbitrary_records_and_queries_agree(self, records, query):
        plain = Collection(LOID(("d", "svc", "p")), require_auth=False)
        indexed = IndexedCollection(LOID(("d", "svc", "i")),
                                    require_auth=False)
        for i, attrs in enumerate(records):
            plain.join(loid(f"h{i}"), dict(attrs))
            indexed.join(loid(f"h{i}"), dict(attrs))
        assert ([r.member for r in plain.query(query)]
                == [r.member for r in indexed.query(query)])

    @given(st.lists(record_st, min_size=1, max_size=12),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_agreement_survives_updates_and_leaves(self, records, data):
        plain = Collection(LOID(("d", "svc", "p")), require_auth=False)
        indexed = IndexedCollection(LOID(("d", "svc", "i")),
                                    require_auth=False)
        for i, attrs in enumerate(records):
            plain.join(loid(f"h{i}"), dict(attrs))
            indexed.join(loid(f"h{i}"), dict(attrs))
        # mutate a member in both, drop another from both
        victim = data.draw(st.integers(0, len(records) - 1))
        patch = data.draw(record_st)
        plain.update_entry(loid(f"h{victim}"), dict(patch))
        indexed.update_entry(loid(f"h{victim}"), dict(patch))
        if len(records) > 1:
            gone = data.draw(st.integers(0, len(records) - 1))
            if gone != victim:
                plain.leave(loid(f"h{gone}"))
                indexed.leave(loid(f"h{gone}"))
        query = data.draw(query_st)
        assert ([r.member for r in plain.query(query)]
                == [r.member for r in indexed.query(query)])
