"""Item catalog: the items goal sampling draws from and the titles rule annotation matches."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping

# The JSON types an attribute value, or an element of an array value, may
# have; bool is excluded (``type`` is checked, not ``isinstance``).
_SCALARS = (str, int, float)
# The C scanner behind ``json.loads``: (value, end) of the JSON value
# starting at an offset, or StopIteration when none starts there.
_SCAN = json.JSONDecoder().scan_once
# An array's or object's opening bracket, and its closing one when it is empty.
_OPENING = re.compile(r"[ \t\n\r]*([\[{])[ \t\n\r]*([\]}][ \t\n\r]*)?")
# The delimiter after an element or member, with the JSON whitespace around it.
_DELIMITER = re.compile(r"[ \t\n\r]*([,\]}])[ \t\n\r]*")
# The colon after a member's name, with the JSON whitespace around it.
_COLON = re.compile(r"[ \t\n\r]*:[ \t\n\r]*")
_CLOSING = {"[": "]", "{": "}"}
# A comma and the start of an object, or of a member's name: compact JSON.
_COMPACT = (",{", ',"')


@dataclass(frozen=True)
class CatalogItem:
    """One recommendable item with string-valued attributes.

    An attribute value is a string, a number, or an array of strings and
    numbers (e.g. several actors); null means the attribute is absent.
    ``values(slot)`` normalizes each to a tuple of strings.
    """

    item_id: str
    attributes: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if not self.item_id:
            raise ValueError("catalog items need a non-empty id")

    def values(self, slot: str) -> tuple[str, ...]:
        value = self.attributes.get(slot)
        if value is None:
            return ()
        if type(value) in _SCALARS:
            return (str(value),)
        if type(value) in (list, tuple) and all(type(v) in _SCALARS for v in value):
            return tuple(map(str, value))
        raise ValueError(
            f"catalog item {self.item_id!r}: attribute {slot!r} is not a string, "
            f"a number or an array of them: {value!r}"
        )

    def satisfies_all(self, constraints) -> bool:
        return all(value in self.values(slot) for slot, value in constraints)


class ItemCatalog:
    """A read-only collection of catalog items keyed by id, in file order.

    Built only by ``load_catalog``. It keeps the JSON text and where each
    record starts in it, so it holds no object per item, and every lookup
    decodes a fresh ``CatalogItem``. It matches no text: rule annotation
    reads ``titles()`` once per annotator and finds titles itself.
    """

    def __init__(self, text: str, offsets: dict[str, int], slots: Iterable[str]):
        if not offsets:
            raise ValueError("catalog must contain at least one item")
        self._text = text
        self._offsets = offsets
        self._ids = tuple(offsets)
        self._slots = tuple(sorted(slots))

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[CatalogItem]:
        return map(self._decode, self._offsets.values())

    def _decode(self, offset: int) -> CatalogItem:
        record = _SCAN(self._text, offset)[0]
        return CatalogItem(_pop_id(record), record)

    def get(self, item_id: str) -> CatalogItem | None:
        offset = self._offsets.get(item_id)
        return None if offset is None else self._decode(offset)

    def item_at(self, position: int) -> CatalogItem:
        """The item at ``position`` in catalog order."""
        return self._decode(self._offsets[self._ids[position]])

    def slots(self) -> tuple[str, ...]:
        """All attribute names that appear on at least one item, sorted."""
        return self._slots

    def titles(self) -> tuple[str, ...]:
        return self._ids

    def matching(self, constraints) -> tuple[CatalogItem, ...]:
        return tuple(i for i in self if i.satisfies_all(constraints))


def _pop_id(record: dict) -> str:
    """Remove a record's name from it and return the name as a string: its
    ``id``, or its ``title`` when ``id`` is absent, null or ``""``."""
    item_id = record.pop("id", None)
    if item_id in (None, ""):
        item_id = record.pop("title", None)
    if item_id in (None, ""):
        raise ValueError("catalog records need an 'id' or 'title' key")
    if type(item_id) not in (str, int, float):
        raise ValueError(f"catalog item id {item_id!r} is not a string or number")
    return str(item_id)


def json_entries(
    text: str, opening: str, shape_error: str, scan=_SCAN
) -> Iterator[tuple[Any, int, Any]]:
    """``(name, offset, value)`` per member of the JSON object (``opening``
    ``"{"``) or element of the JSON array (``"["``) that is all of ``text``,
    decoded one at a time by ``scan``, a ``JSONDecoder``'s ``scan_once``; an
    element's name is None, and ``offset`` is where its value starts. A
    text that does not open with ``opening`` raises ValueError(``shape_error``).
    The walk stops at the first syntax fault with a ValueError of its own:
    ``json.loads(text)`` raises JSON's.
    """
    opening_match = _OPENING.match(text)
    if opening_match is None or opening_match[1] != opening:
        raise ValueError(shape_error)
    closing = _CLOSING[opening]
    index, empty = opening_match.end(), opening_match[2]
    if empty is not None and empty[0] != closing:
        raise ValueError(f"expected {closing!r} at offset {opening_match.start(2)}")
    more, name = empty is None, None
    while more:
        try:
            if opening == "{":
                if not text.startswith('"', index):
                    raise ValueError(f"expected a member name at offset {index}")
                name, end = scan(text, index)
                colon = _COLON.match(text, end)
                if colon is None:
                    raise ValueError(f"expected ':' at offset {end}")
                index = colon.end()
            value, end = scan(text, index)
        except StopIteration:
            raise ValueError(f"expected a value at offset {index}") from None
        yield name, index, value
        if text.startswith(_COMPACT, end):  # compact JSON: the next entry follows
            index = end + 1
            continue
        delimiter = _DELIMITER.match(text, end)
        if delimiter is None or delimiter[1] not in (",", closing):
            raise ValueError(f"expected ',' or {closing!r} at offset {end}")
        index, more = delimiter.end(), delimiter[1] == ","
    if index != len(text):
        raise ValueError(f"extra data at offset {index}")


def _index(text: str) -> tuple[dict[str, int], set[str]]:
    """Each record's id -> its start offset in the JSON array ``text``, and the slot names."""
    offsets: dict[str, int] = {}
    names: set[str] = set()
    for _, offset, record in json_entries(text, "[", "catalog must be a JSON array of objects"):
        if type(record) is not dict:
            raise ValueError("catalog records must be JSON objects")
        item_id = _pop_id(record)
        if item_id in offsets:
            raise ValueError(f"duplicate catalog item id {item_id!r}")
        offsets[item_id] = offset
        names.update(record)
    return offsets, names


def load_catalog(source) -> ItemCatalog:
    """Load a catalog from a JSON file path or a list of records.

    The catalog is a JSON array of objects. Each names its item by an
    ``id`` (or ``title``) key holding a string or a number, which becomes a
    string; its further keys are the item's attributes, whose values
    ``CatalogItem.values`` checks when they are read. A list is serialized
    with ``json.dumps`` and read the same way. Other shapes and values JSON
    cannot encode raise ValueError; JSON syntax errors outrank bad records.
    """
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        with open(source, "r", encoding="utf-8") as handle:
            text = handle.read()
    else:
        try:
            text = json.dumps(source, separators=(",", ":"))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"catalog holds a value JSON cannot encode: {exc}") from None
    try:
        offsets, names = _index(text)
    except ValueError:
        # The walk stops at the first fault. Decoding the whole text raises
        # JSON's own message for every syntax fault, so what it lets through
        # is a record's fault or a top level that is not an array.
        json.loads(text)
        raise
    return ItemCatalog(text, offsets, names)
