"""Item catalog: the attribute store behind goal sampling and title matching."""

from __future__ import annotations

import json
import re
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping

_NON_WORD = re.compile(r"\W")


@dataclass(frozen=True)
class CatalogItem:
    """One recommendable item with string-valued attributes.

    Attribute values may be single strings or lists of strings (e.g. several
    actors); ``values(slot)`` normalizes both to a tuple.
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
        if isinstance(value, (list, tuple)):
            return tuple(str(v) for v in value)
        return (str(value),)

    def satisfies(self, slot: str, value: str) -> bool:
        return value in self.values(slot)

    def satisfies_all(self, constraints) -> bool:
        return all(self.satisfies(slot, value) for slot, value in constraints)


class ItemCatalog:
    """A read-only collection of catalog items keyed by id, in the order given.

    The catalog keeps each item's attribute record and builds its
    ``CatalogItem`` on first lookup, so loading costs little more than
    decoding. The title index behind ``find_titles`` is built on first use,
    once per catalog, since only rule annotation needs it.
    """

    def __init__(self, items: Iterable[CatalogItem]):
        built: dict[str, CatalogItem] = {}
        names: set[str] = set()
        for item in items:
            if item.item_id in built:
                raise ValueError(f"duplicate catalog item id {item.item_id!r}")
            built[item.item_id] = item
            names.update(item.attributes)
        self._set_up({key: item.attributes for key, item in built.items()}, names, built)

    def _set_up(self, records: dict[str, Mapping], names: set[str], built: dict) -> None:
        if not records:
            raise ValueError("catalog must contain at least one item")
        self._records = records
        self._ids = tuple(records)
        self._built = built
        self._slots = tuple(sorted(names))
        self._title_index = None

    def _item(self, item_id: str) -> CatalogItem:
        item = self._built.get(item_id)
        if item is None:
            # Racing threads may both build it; setdefault keeps one.
            item = CatalogItem(item_id, self._records[item_id])
            item = self._built.setdefault(item_id, item)
        return item

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[CatalogItem]:
        return map(self._item, self._ids)

    def get(self, item_id: str) -> CatalogItem | None:
        return self._item(item_id) if item_id in self._records else None

    def item_at(self, position: int) -> CatalogItem:
        """The item at ``position`` in catalog order."""
        return self._item(self._ids[position])

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
        """
        if self._title_index is None:
            # Racing threads build equal indexes; either may be kept.
            by_text: dict[str, tuple[str, ...]] = {}
            for title in self._ids:
                key = title.lower()
                by_text[key] = by_text.get(key, ()) + (title,)
            self._title_index = (by_text, max(map(len, by_text)))
        by_text, longest = self._title_index
        lowered = text.lower()
        breaks = [match.start() for match in _NON_WORD.finditer(lowered)]
        # A match starts after a non-word character or at the start of the
        # text, and ends before one or at the end.
        ends = breaks + [len(lowered)]
        found: dict[str, int] = {}
        free = 0
        for start in [0] + [b + 1 for b in breaks]:
            if start < free:
                continue
            first = bisect_right(ends, start)
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
    string; its further keys are the item's attributes. Records passed in
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
    catalog = ItemCatalog.__new__(ItemCatalog)
    catalog._set_up(records, names, {})
    return catalog
