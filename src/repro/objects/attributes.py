"""The extensible per-object attribute database.

"All Legion objects include an extensible attribute database, the contents of
which are determined by the type of the object" (paper section 3.1).  Host
objects populate theirs with architecture, OS, load, available memory, and —
beyond the minimal triple used by most schedulers — site-policy descriptors
such as price per CPU-second or domains from which instantiation requests are
refused.

Attributes are named values.  Values may be scalars (str/int/float/bool) or
flat lists of scalars; queries treat list-valued attributes as "any element
matches".  The database timestamps every write so Collections can report
record staleness (experiment E6).
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple, Union

__all__ = ["AttributeDatabase", "Scalar", "AttrValue"]

Scalar = Union[str, int, float, bool]
AttrValue = Union[Scalar, List[Scalar]]

_SCALARS = (str, int, float, bool)
_EXACT_SCALARS = frozenset(_SCALARS)  # what ``update`` admits unchecked
#: each distinct set of list-valued names, once, for databases to share
_NO_LISTS: frozenset = frozenset()
_LIST_NAMES: Dict[frozenset, frozenset] = {_NO_LISTS: _NO_LISTS}


def _check_value(name: str, value: Any) -> AttrValue:
    if not isinstance(name, str) or not name:
        raise TypeError("attribute names must be non-empty strings")
    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, (list, tuple)):
        out: List[Scalar] = []
        for item in value:
            if not isinstance(item, _SCALARS):
                raise TypeError(
                    f"attribute {name!r}: list elements must be scalars, "
                    f"got {type(item).__name__}")
            out.append(item)
        return out
    raise TypeError(f"attribute {name!r}: unsupported value type "
                    f"{type(value).__name__}")


class AttributeDatabase:
    """A mapping of attribute names to scalar or list-of-scalar values."""

    __slots__ = ("_attrs", "_updated_at", "_last_update", "_lists")

    def __init__(self, initial: Optional[Mapping[str, AttrValue]] = None):
        self._attrs: Dict[str, AttrValue] = {}
        self._updated_at: Dict[str, float] = {}
        self._last_update = 0.0
        #: the names holding lists, which :meth:`snapshot` copies
        self._lists = _NO_LISTS
        if initial:
            self.update(initial)

    # -- writes ---------------------------------------------------------------
    def set(self, name: str, value: AttrValue, now: float = 0.0) -> None:
        value = _check_value(name, value)
        self._attrs[name] = value
        self._updated_at[name] = now
        self._last_update = max(self._last_update, now)
        if type(value) is list or name in self._lists:
            self._relist()

    def update(self, values: Mapping[str, AttrValue], now: float = 0.0) -> None:
        """Write several attributes with one timestamp.

        Every name and value is validated before anything is committed,
        so a bad entry leaves the database as it was."""
        checked, slow = {}, False
        for name, value in values.items():
            if (type(value) not in _EXACT_SCALARS
                    or type(name) is not str or not name):
                value, slow = _check_value(name, value), True
            checked[name] = value
        self._attrs.update(checked)
        self._updated_at.update(dict.fromkeys(checked, now))
        self._last_update = max(self._last_update, now)
        lists = self._lists
        if slow or (lists and not lists.isdisjoint(checked)):
            self._relist()

    def delete(self, name: str) -> None:
        self._attrs.pop(name, None)
        self._updated_at.pop(name, None)
        if name in self._lists:
            self._relist()

    def _relist(self) -> None:
        names = frozenset(name for name, value in self._attrs.items()
                          if type(value) is list)
        self._lists = _LIST_NAMES.setdefault(names, names)

    # -- reads ----------------------------------------------------------------
    def get(self, name: str, default: Any = None) -> Any:
        return self._attrs.get(name, default)

    def __getitem__(self, name: str) -> AttrValue:
        return self._attrs[name]

    def __contains__(self, name: str) -> bool:
        return name in self._attrs

    def __len__(self) -> int:
        return len(self._attrs)

    def __iter__(self) -> Iterator[str]:
        return iter(self._attrs)

    def names(self) -> List[str]:
        return sorted(self._attrs)

    def items(self) -> Iterator[Tuple[str, AttrValue]]:
        return iter(self._attrs.items())

    def updated_at(self, name: str) -> float:
        """Virtual time of the last write to ``name`` (0.0 if never)."""
        return self._updated_at.get(name, 0.0)

    @property
    def last_update(self) -> float:
        """Virtual time of the most recent write to any attribute."""
        return self._last_update

    # -- export ----------------------------------------------------------------
    def snapshot(self) -> Dict[str, AttrValue]:
        """A deep-enough copy safe to ship to a Collection."""
        out = self._attrs.copy()
        for name in self._lists:
            out[name] = out[name].copy()
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return f"AttributeDatabase({self._attrs!r})"
