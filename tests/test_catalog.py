import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evalkit.catalog import CatalogItem, ItemCatalog, load_catalog
from evalkit.cli import main

from oracle import oracle_find_titles, oracle_get, oracle_slots

# Few letters, so titles often nest in and overlap one another; case,
# digits and punctuation probe the word-boundary rule.
TITLE_ALPHABET = "abAB1 -!'"
SLOT_NAMES = ("genre", "year", "actor", "plot")

titles = st.text(TITLE_ALPHABET, min_size=1, max_size=6)
title_sets = st.lists(titles, min_size=1, max_size=8, unique=True)
attributes = st.dictionaries(
    st.sampled_from(SLOT_NAMES), st.text("xy", min_size=1, max_size=2), max_size=3
)


@st.composite
def catalogs_and_texts(draw):
    chosen = draw(title_sets)
    fragment = st.one_of(st.sampled_from(chosen), st.text(TITLE_ALPHABET, max_size=4))
    pieces = draw(st.lists(fragment, max_size=8))
    gap = st.sampled_from(("", " ", ", ", "x"))
    separators = draw(st.lists(gap, min_size=len(pieces), max_size=len(pieces)))
    text = "".join(piece + sep for piece, sep in zip(pieces, separators))
    return chosen, text


class TestIndex:
    @settings(max_examples=100)
    @given(
        st.lists(st.tuples(titles, attributes), min_size=1, max_size=8, unique_by=lambda p: p[0]),
        titles,
    )
    def test_get_and_slots_match_a_linear_scan(self, records, probe):
        items = [CatalogItem(item_id, attrs) for item_id, attrs in records]
        catalog = ItemCatalog(tuple(items))
        assert catalog.slots() == oracle_slots(items)
        for item_id in [item.item_id for item in items] + [probe]:
            assert catalog.get(item_id) is oracle_get(items, item_id)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            load_catalog([{"title": "Heat"}, {"title": "Heat", "year": "1995"}])


class TestLoadCatalog:
    RECORDS = [
        {"id": "Heat", "year": "1995", "actor": ["Al Pacino", "Robert De Niro"]},
        {"title": "Jaws", "genre": "thriller"},
        {"id": "Up", "title": "Up (2009)"},
    ]

    def test_records_passed_in_are_left_unchanged(self):
        records = copy.deepcopy(self.RECORDS)
        catalog = load_catalog(records)
        assert records == self.RECORDS
        assert [item.item_id for item in catalog] == ["Heat", "Jaws", "Up"]

    def test_a_file_and_its_records_give_equal_catalogs(self, tmp_path):
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps(self.RECORDS), encoding="utf-8")

        def contents(catalog):
            return [(item.item_id, dict(item.attributes)) for item in catalog]

        from_file, from_list = load_catalog(path), load_catalog(self.RECORDS)
        assert contents(from_file) == contents(from_list)
        assert contents(from_list) == [
            ("Heat", {"year": "1995", "actor": ["Al Pacino", "Robert De Niro"]}),
            ("Jaws", {"genre": "thriller"}),
            ("Up", {"title": "Up (2009)"}),
        ]

    def test_a_file_record_that_is_not_an_object_is_rejected(self, tmp_path):
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps(["Heat"]), encoding="utf-8")
        with pytest.raises(ValueError, match="catalog records must be JSON objects"):
            load_catalog(path)

    @pytest.mark.parametrize(
        "value, message",
        [
            (["Heat"], "catalog records must be JSON objects"),
            ({"id": "Heat"}, "catalog must be a JSON array of objects"),
            ([{"id": ["a"]}], "is not a string or number"),
            ([{"title": {"a": "b"}}], "is not a string or number"),
            ([{"id": True}], "is not a string or number"),
            ([{"id": [], "title": "Heat"}], "is not a string or number"),
        ],
    )
    def test_a_file_and_a_value_are_checked_alike(self, tmp_path, value, message):
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps(value), encoding="utf-8")
        for source in (path, value):
            with pytest.raises(ValueError, match=message):
                load_catalog(source)
        argv = ["simulate", "--simulator", "abus", "--crs", "stub:echo", "--catalog", str(path)]
        assert main(argv + ["--output", str(tmp_path / "sim.ndjson")]) == 1

    def test_number_ids_become_strings(self):
        catalog = load_catalog([{"id": 7, "year": 1995}, {"title": 2.5}, {"id": 0, "title": "Up"}])
        assert catalog.titles() == ("7", "2.5", "0")
        assert catalog.get("7").attributes == {"year": 1995}


class TestConstructionPaths:
    @settings(max_examples=100)
    @given(
        st.lists(st.tuples(titles, attributes), min_size=1, max_size=8, unique_by=lambda p: p[0]),
        titles,
        st.text(TITLE_ALPHABET, max_size=20),
    )
    def test_items_and_records_give_the_same_catalog(self, records, probe, text):
        built = ItemCatalog([CatalogItem(item_id, attrs) for item_id, attrs in records])
        loaded = load_catalog([{"id": item_id, **attrs} for item_id, attrs in records])
        assert len(built) == len(loaded) == len(records)
        assert list(built) == list(loaded)
        for item_id in [item_id for item_id, _ in records] + [probe]:
            assert built.get(item_id) == loaded.get(item_id)
        assert built.slots() == loaded.slots()
        assert built.titles() == loaded.titles()
        assert built.find_titles(text) == loaded.find_titles(text)


class TestFindTitles:
    @settings(max_examples=400)
    @given(catalogs_and_texts())
    def test_matches_the_brute_force_search(self, case):
        chosen, text = case
        catalog = load_catalog([{"title": title} for title in chosen])
        assert catalog.find_titles(text) == oracle_find_titles(text, chosen)

    def test_positions_index_the_lowered_text(self):
        catalog = load_catalog([{"title": "Heat"}, {"title": "Heat Wave"}, {"title": "Jaws"}])
        assert catalog.find_titles("JAWS, then heat wave, then Heat.") == [
            (0, "Jaws"),
            (11, "Heat Wave"),
            (27, "Heat"),
        ]

    def test_titles_differing_in_case_match_together(self):
        catalog = load_catalog([{"title": "Heat"}, {"title": "HEAT"}])
        assert catalog.find_titles("see heat") == [(4, "HEAT"), (4, "Heat")]

    def test_punctuation_at_a_title_edge(self):
        catalog = load_catalog([{"title": "Airplane!"}, {"title": "Up"}])
        assert catalog.find_titles("Airplane! or Up.") == [(0, "Airplane!"), (13, "Up")]
        assert catalog.find_titles("Airplane!x or Upside") == []
