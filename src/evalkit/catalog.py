"""Item catalog: the attribute store behind goal sampling and title matching."""

from __future__ import annotations

import json
import re
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping

_NON_WORD = re.compile(r"\W")
# A title's head: its first character and the word characters after it.
_HEAD = re.compile(r".\w*", re.S)
# The JSON types an attribute value, or an element of an array value, may
# have; bool is excluded (``type`` is checked, not ``isinstance``).
_SCALARS = (str, int, float)


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

    Built only by ``load_catalog``. The catalog keeps each item's attribute
    record and builds a fresh ``CatalogItem`` on every lookup, so loading
    costs little more than decoding. The title index behind ``find_titles``
    is built on first use, once per catalog, since only rule annotation
    needs it.
    """

    def __init__(self, records: dict[str, Mapping], slots: Iterable[str]):
        if not records:
            raise ValueError("catalog must contain at least one item")
        self._records = records
        self._ids = tuple(records)
        self._slots = tuple(sorted(slots))
        self._title_index = None

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[CatalogItem]:
        return map(CatalogItem, self._records, self._records.values())

    def get(self, item_id: str) -> CatalogItem | None:
        record = self._records.get(item_id)
        return None if record is None else CatalogItem(item_id, record)

    def item_at(self, position: int) -> CatalogItem:
        """The item at ``position`` in catalog order."""
        item_id = self._ids[position]
        return CatalogItem(item_id, self._records[item_id])

    def slots(self) -> tuple[str, ...]:
        """All attribute names that appear on at least one item, sorted."""
        return self._slots

    def titles(self) -> tuple[str, ...]:
        return self._ids

    def matching(self, constraints) -> tuple[CatalogItem, ...]:
        return tuple(i for i in self if i.satisfies_all(constraints))

    def find_titles(self, text: str) -> list[tuple[int, str]]:
        """Catalog titles named in ``text``, as (position, title) pairs.

        A title matches case-insensitively and whole: no word character
        (``\\w``) may touch it on either side. Scanning left to right, the
        longest title starting at a position wins and matches do not
        overlap. Each title is reported once, at its first match, and the
        pairs are ordered by (position, title). Positions index
        ``text.lower()``; titles that differ only in case match together.
        The index, built on first use, maps each title's head to its longest
        title's length: only starts of a head are tried, up to that length.
        """
        if self._title_index is None:
            # Racing threads build equal indexes; either may be kept.
            by_text: dict[str, tuple[str, ...]] = {}
            for title in self._ids:
                key = title.lower()
                by_text[key] = by_text.get(key, ()) + (title,)
            # Each head maps to the length of its longest key, which comes last.
            keys = sorted(by_text, key=len)
            heads = dict(zip([_HEAD.match(key)[0] for key in keys], map(len, keys)))
            self._title_index = (by_text, heads)
        by_text, heads = self._title_index
        lowered = text.lower()
        breaks = [match.start() for match in _NON_WORD.finditer(lowered)]
        # A match starts after a non-word character or at the start of the
        # text, and ends before one or at the end. It begins with the text's
        # head at that start, so a start whose head begins no title, or that
        # is the end of the text, is skipped.
        ends = breaks + [len(lowered)]
        found: dict[str, int] = {}
        free = 0
        for start in [0] + [b + 1 for b in breaks]:
            if start < free or start == ends[-1]:
                continue
            first = bisect_right(ends, start)
            longest = heads.get(lowered[start : ends[first]])
            if longest is None:
                continue
            last = bisect_right(ends, start + longest)
            for end in reversed(ends[first:last]):
                titles = by_text.get(lowered[start:end])
                if titles:
                    for title in titles:
                        found.setdefault(title, start)
                    free = end
                    break
        return sorted((position, title) for title, position in found.items())


def load_catalog(source) -> ItemCatalog:
    """Load a catalog from a JSON file path or a parsed list of records.

    The catalog is a JSON array of objects. Each names its item by an
    ``id`` (or ``title``) key holding a string or a number, which becomes a
    string; its further keys are the item's attributes, whose values
    ``CatalogItem.values`` checks when they are read. Records passed in
    are copied, never changed. Any other shape raises ValueError.
    """
    parsed = isinstance(source, (str, bytes)) or hasattr(source, "__fspath__")
    if parsed:
        with open(source, "r", encoding="utf-8") as handle:
            source = json.load(handle)
    if not isinstance(source, (list, tuple)):
        raise ValueError("catalog must be a JSON array of objects")
    records: dict[str, dict] = {}
    names: set[str] = set()
    for record in source:
        if not isinstance(record, dict):
            raise ValueError("catalog records must be JSON objects")
        if not parsed:
            # Copied, since the id is popped below; parsed records are ours.
            record = dict(record)
        item_id = record.pop("id", None)
        if item_id in (None, ""):
            item_id = record.pop("title", None)
        if item_id in (None, ""):
            raise ValueError("catalog records need an 'id' or 'title' key")
        if type(item_id) not in (str, int, float):
            raise ValueError(f"catalog item id {item_id!r} is not a string or number")
        item_id = str(item_id)
        if item_id in records:
            raise ValueError(f"duplicate catalog item id {item_id!r}")
        records[item_id] = record
        names.update(record)
    return ItemCatalog(records, names)
