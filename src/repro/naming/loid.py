"""Legion Object Identifiers (LOIDs).

Every Legion object has a location-independent identifier.  In the real
system a LOID is a variable-length binary identifier containing a domain
field, a class field, an instance field, and a public key.  We reproduce the
structural properties the RMI relies on:

* globally unique, location independent;
* carries its class lineage (an instance LOID embeds its class LOID);
* cheap equality/hash (used as dictionary keys throughout the RMI);
* printable and parseable (Collections store and return them).

The textual form is ``loid:<field>.<field>...`` where each field is a
non-empty token of ``[A-Za-z0-9_-]``.  By convention field 0 is the naming
domain, field 1 the object type tag (``class``, ``host``, ``vault``, ``obj``,
``svc``), and subsequent fields identify the object within its type.
"""

from __future__ import annotations

import itertools
import re
from typing import Iterable, Tuple

from ..errors import InvalidLOIDError

__all__ = ["LOID", "LOIDMinter"]

_FIELD_RE = re.compile(r"^[A-Za-z0-9_-]+$")
_PREFIX = "loid:"


def _checked(fields: Iterable[str]) -> Tuple[str, ...]:
    """``fields`` as a tuple of strings, each a valid LOID field."""
    fields = tuple(str(f) for f in fields)
    for f in fields:
        if not _FIELD_RE.match(f):
            raise InvalidLOIDError(f"invalid LOID field {f!r}")
    return fields


class LOID:
    """An immutable, hashable Legion Object Identifier."""

    __slots__ = ("_fields", "_hash", "_text")

    def __init__(self, fields: Iterable[str]):
        fields = _checked(fields)
        if not fields:
            raise InvalidLOIDError("LOID requires at least one field")
        self._set(fields)

    def _set(self, fields: Tuple[str, ...]) -> None:
        self._fields = fields
        self._hash = hash(fields)
        self._text = None  # filled by the first str()

    # -- constructors --------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "LOID":
        """Parse the textual form produced by :meth:`__str__`."""
        if not isinstance(text, str) or not text.startswith(_PREFIX):
            raise InvalidLOIDError(f"LOID text must start with {_PREFIX!r}: "
                                   f"{text!r}")
        body = text[len(_PREFIX):]
        if not body:
            raise InvalidLOIDError("empty LOID body")
        return cls(body.split("."))

    # -- structure -----------------------------------------------------------
    @property
    def fields(self) -> Tuple[str, ...]:
        return self._fields

    @property
    def domain(self) -> str:
        """The naming-domain field (field 0)."""
        return self._fields[0]

    @property
    def type_tag(self) -> str:
        """The object-type field (field 1), or ``''`` for bare domain LOIDs."""
        return self._fields[1] if len(self._fields) > 1 else ""

    def child(self, *extra: str) -> "LOID":
        """A LOID extending this one — e.g. an instance under its class.

        Only ``extra`` is validated: the inherited fields already were."""
        loid = LOID.__new__(LOID)
        loid._set(self._fields + _checked(extra))
        return loid

    def is_descendant_of(self, other: "LOID") -> bool:
        """True if ``other`` is a proper prefix of this LOID."""
        of = other._fields
        return (len(self._fields) > len(of)
                and self._fields[: len(of)] == of)

    def class_loid(self) -> "LOID":
        """For an instance LOID minted by :class:`LOIDMinter`, the class part.

        Instance LOIDs have the form ``<class fields...>.<serial>``; this
        strips the final serial field.
        """
        if len(self._fields) < 2:
            raise InvalidLOIDError(f"{self} has no class prefix")
        return LOID(self._fields[:-1])

    # -- protocol ------------------------------------------------------------
    def __str__(self) -> str:
        text = self._text
        if text is None:
            text = self._text = _PREFIX + ".".join(self._fields)
        return text

    def __repr__(self) -> str:
        return f"LOID({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LOID) and self._fields == other._fields

    def __lt__(self, other: "LOID") -> bool:
        if not isinstance(other, LOID):
            return NotImplemented
        return self._fields < other._fields

    def __hash__(self) -> int:
        return self._hash


class LOIDMinter:
    """Mints unique LOIDs within one naming domain.

    The minter is the simulated analogue of LegionClass handing out
    identifiers; serials are per-prefix counters so identifiers are compact
    and deterministic.
    """

    def __init__(self, domain: str = "legion"):
        if not _FIELD_RE.match(domain):
            raise InvalidLOIDError(f"invalid domain {domain!r}")
        self.domain = domain
        self._counters = {}

    def _next(self, key: Tuple[str, ...]) -> int:
        counter = self._counters.get(key)
        if counter is None:
            counter = itertools.count()
            self._counters[key] = counter
        return next(counter)

    def mint(self, type_tag: str, name: str = "") -> LOID:
        """Mint a fresh top-level LOID such as a class, host, or vault id."""
        if name:
            return LOID((self.domain, type_tag, name))
        serial = self._next((type_tag,))
        return LOID((self.domain, type_tag, f"n{serial}"))

    def mint_instance(self, class_loid: LOID) -> LOID:
        """Mint an instance LOID under ``class_loid``."""
        serial = self._next(class_loid.fields)
        return class_loid.child(f"i{serial}")
