"""Tests for LOIDs and the context space."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BindingError, InvalidLOIDError
from repro.naming import LOID, ContextSpace, LOIDMinter

field_st = st.text(
    alphabet=st.characters(whitelist_categories=(),
                           whitelist_characters="abcdefghijklmnopqrstuvwxyz"
                                                "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
                                                "0123456789_-"),
    min_size=1, max_size=12)


class TestLOID:
    def test_str_round_trip(self):
        loid = LOID(("legion", "host", "ws1"))
        assert LOID.parse(str(loid)) == loid

    def test_equality_and_hash(self):
        a = LOID(("d", "host", "x"))
        b = LOID(("d", "host", "x"))
        c = LOID(("d", "host", "y"))
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert len({a, b, c}) == 2

    def test_ordering_is_lexicographic_on_fields(self):
        assert LOID(("a", "b")) < LOID(("a", "c"))
        assert sorted([LOID(("z",)), LOID(("a",))])[0] == LOID(("a",))

    def test_empty_rejected(self):
        with pytest.raises(InvalidLOIDError):
            LOID(())

    @pytest.mark.parametrize("bad", ["", "has space", "dot.dot", "semi;",
                                     "slash/"])
    def test_invalid_fields_rejected(self, bad):
        with pytest.raises(InvalidLOIDError):
            LOID(("ok", bad))

    @pytest.mark.parametrize("text", ["", "noprefix", "loid:",
                                      "LOID:a.b", "loid:a..b"])
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(InvalidLOIDError):
            LOID.parse(text)

    def test_domain_and_type_tag(self):
        loid = LOID(("legion", "vault", "v1"))
        assert loid.domain == "legion"
        assert loid.type_tag == "vault"
        assert LOID(("only",)).type_tag == ""

    def test_child_and_descendant(self):
        parent = LOID(("d", "class", "C"))
        kid = parent.child("i0")
        assert kid.is_descendant_of(parent)
        assert not parent.is_descendant_of(kid)
        assert not parent.is_descendant_of(parent)

    def test_class_loid_strips_serial(self):
        cls = LOID(("d", "class", "C"))
        inst = cls.child("i3")
        assert inst.class_loid() == cls

    def test_class_loid_requires_depth(self):
        with pytest.raises(InvalidLOIDError):
            LOID(("solo",)).class_loid()

    @given(st.lists(field_st, min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_property_parse_str_round_trip(self, fields):
        loid = LOID(fields)
        assert LOID.parse(str(loid)) == loid
        assert LOID.parse(str(loid)).fields == tuple(fields)


    @given(st.lists(field_st, min_size=1, max_size=5), field_st)
    @settings(max_examples=100, deadline=None)
    def test_property_memoised_text_is_the_join(self, fields, extra):
        loid = LOID(fields)
        text = "loid:" + ".".join(fields)
        assert str(loid) == text
        assert str(loid) == text          # second read: the memo
        assert repr(loid) == f"LOID({text!r})"
        # a child never inherits its parent's memo, filled or not
        kid = loid.child(extra)
        assert str(kid) == text + "." + extra
        assert str(LOID(fields).child(extra)) == text + "." + extra
        assert LOID.parse(str(kid)) == kid
        assert kid.class_loid() == loid and str(kid.class_loid()) == text

    @given(st.lists(field_st, min_size=1, max_size=4),
           st.lists(st.one_of(field_st, st.text(max_size=6), st.integers()),
                    max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_property_child_rejects_what_the_constructor_rejects(
            self, fields, extra):
        parent = LOID(fields)
        try:
            built = LOID(tuple(fields) + tuple(extra))
        except InvalidLOIDError:
            with pytest.raises(InvalidLOIDError):
                parent.child(*extra)
            return
        kid = parent.child(*extra)
        assert kid == built and hash(kid) == hash(built)
        assert kid.fields == built.fields and str(kid) == str(built)

    @pytest.mark.parametrize("bad", ["", "has space", "dot.dot", "semi;",
                                     "slash/", "new\nline"])
    def test_child_validates_the_fields_it_adds(self, bad):
        with pytest.raises(InvalidLOIDError):
            LOID(("d", "class", "C")).child(bad)
        with pytest.raises(InvalidLOIDError):
            LOID(("d", "class", "C")).child("ok", bad)


class TestMinter:
    def test_mint_named(self):
        m = LOIDMinter("legion")
        loid = m.mint("host", "ws1")
        assert loid.fields == ("legion", "host", "ws1")

    def test_mint_anonymous_unique(self):
        m = LOIDMinter()
        a, b = m.mint("class"), m.mint("class")
        assert a != b

    def test_instance_minting_nests_under_class(self):
        m = LOIDMinter()
        cls = m.mint("class", "C")
        i0, i1 = m.mint_instance(cls), m.mint_instance(cls)
        assert i0 != i1
        assert i0.is_descendant_of(cls)
        assert i0.class_loid() == cls

    def test_instance_counters_per_class(self):
        m = LOIDMinter()
        c1, c2 = m.mint("class", "A"), m.mint("class", "B")
        assert m.mint_instance(c1).fields[-1] == "i0"
        assert m.mint_instance(c2).fields[-1] == "i0"

    def test_bad_domain_rejected(self):
        with pytest.raises(InvalidLOIDError):
            LOIDMinter("bad domain")


class TestContextSpace:
    def test_bind_lookup(self):
        ctx = ContextSpace()
        loid = LOID(("d", "host", "x"))
        ctx.bind("/hosts/x", loid)
        assert ctx.lookup("/hosts/x") == loid
        assert "/hosts/x" in ctx
        assert len(ctx) == 1

    def test_relative_path_rejected(self):
        ctx = ContextSpace()
        with pytest.raises(BindingError):
            ctx.bind("hosts/x", LOID(("d",)))

    def test_dotdot_rejected(self):
        ctx = ContextSpace()
        with pytest.raises(BindingError):
            ctx.lookup("/a/../b")

    def test_double_bind_requires_replace(self):
        ctx = ContextSpace()
        a, b = LOID(("a",)), LOID(("b",))
        ctx.bind("/x", a)
        with pytest.raises(BindingError):
            ctx.bind("/x", b)
        ctx.bind("/x", b, replace=True)
        assert ctx.lookup("/x") == b
        assert len(ctx) == 1

    def test_unbind(self):
        ctx = ContextSpace()
        loid = LOID(("a",))
        ctx.bind("/x", loid)
        assert ctx.unbind("/x") == loid
        assert not ctx.exists("/x")
        with pytest.raises(BindingError):
            ctx.unbind("/x")

    def test_lookup_missing_raises_get_defaults(self):
        ctx = ContextSpace()
        with pytest.raises(BindingError):
            ctx.lookup("/nope")
        assert ctx.get("/nope") is None
        sentinel = LOID(("s",))
        assert ctx.get("/nope", sentinel) == sentinel

    def test_interior_context_not_a_binding(self):
        ctx = ContextSpace()
        ctx.bind("/a/b/c", LOID(("x",)))
        assert not ctx.exists("/a/b")
        assert ctx.list("/a") == ["b"]

    def test_list_root_and_missing(self):
        ctx = ContextSpace()
        ctx.bind("/hosts/h1", LOID(("a",)))
        ctx.bind("/vaults/v1", LOID(("b",)))
        assert ctx.list("/") == ["hosts", "vaults"]
        with pytest.raises(BindingError):
            ctx.list("/nothing")

    def test_walk_sorted(self):
        ctx = ContextSpace()
        ctx.bind("/b", LOID(("b",)))
        ctx.bind("/a/x", LOID(("ax",)))
        paths = [p for p, _ in ctx.walk()]
        assert paths == ["/a/x", "/b"]

    def test_binding_must_be_loid(self):
        ctx = ContextSpace()
        with pytest.raises(BindingError):
            ctx.bind("/x", "not-a-loid")

    def test_node_can_be_context_and_binding(self):
        ctx = ContextSpace()
        ctx.bind("/a", LOID(("a",)))
        ctx.bind("/a/b", LOID(("ab",)))
        assert ctx.lookup("/a") == LOID(("a",))
        assert ctx.lookup("/a/b") == LOID(("ab",))
        assert len(ctx) == 2
