"""Item catalog: the attribute store behind goal sampling and title matching."""

from __future__ import annotations

import json
import re
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

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


@dataclass(frozen=True)
class ItemCatalog:
    """An immutable collection of catalog items keyed by id.

    The id map and the slot names are built with the catalog; the title
    index behind ``find_titles`` is built on first use, since only rule
    annotation needs it.
    """

    items: tuple[CatalogItem, ...]

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))
        if not self.items:
            raise ValueError("catalog must contain at least one item")
        by_id: dict[str, CatalogItem] = {}
        names: set[str] = set()
        for item in self.items:
            if item.item_id in by_id:
                raise ValueError(f"duplicate catalog item id {item.item_id!r}")
            by_id[item.item_id] = item
            names.update(item.attributes)
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_slots", tuple(sorted(names)))
        object.__setattr__(self, "_title_index", None)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[CatalogItem]:
        return iter(self.items)

    def get(self, item_id: str) -> CatalogItem | None:
        return self._by_id.get(item_id)

    def slots(self) -> tuple[str, ...]:
        """All attribute names that appear on at least one item, sorted."""
        return self._slots

    def titles(self) -> tuple[str, ...]:
        return tuple(item.item_id for item in self.items)

    def matching(self, constraints) -> tuple[CatalogItem, ...]:
        return tuple(i for i in self.items if i.satisfies_all(constraints))

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
            for title in sorted(self._by_id):
                by_text[title.lower()] = by_text.get(title.lower(), ()) + (title,)
            object.__setattr__(
                self, "_title_index", (by_text, max(len(t) for t in by_text))
            )
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
    """Load a catalog from a JSON file path or parsed list.

    Expected shape: a list of objects, each with an ``id`` (or ``title``)
    key naming the item and any further keys as attributes. Records passed
    in are copied, never changed.
    """
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        with open(source, "r", encoding="utf-8") as handle:
            records = json.load(handle)
    else:
        # Copied, since the id is popped below; parsed records are ours.
        records = [dict(record) for record in source]
    items = []
    for record in records:
        if not isinstance(record, dict):
            raise ValueError("catalog records must be JSON objects")
        item_id = record.pop("id", None) or record.pop("title", None)
        if not item_id:
            raise ValueError("catalog records need an 'id' or 'title' key")
        items.append(CatalogItem(item_id=str(item_id), attributes=record))
    return ItemCatalog(items=tuple(items))
