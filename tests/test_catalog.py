import copy
import gc
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evalkit.catalog import CatalogItem, load_catalog
from evalkit.cli import main

from helpers import TITLE_ALPHABET, traced
from oracle import oracle_get, oracle_load_catalog, oracle_slots

SLOT_NAMES = ("genre", "year", "actor", "plot")

titles = st.text(TITLE_ALPHABET, min_size=1, max_size=6)
attributes = st.dictionaries(
    st.sampled_from(SLOT_NAMES), st.text("xy", min_size=1, max_size=2), max_size=3
)


class TestIndex:
    @settings(max_examples=100)
    @given(
        st.lists(st.tuples(titles, attributes), min_size=1, max_size=8, unique_by=lambda p: p[0]),
        titles,
    )
    def test_get_and_slots_match_a_linear_scan(self, records, probe):
        items = [CatalogItem(item_id, attrs) for item_id, attrs in records]
        catalog = load_catalog([{"id": item_id, **attrs} for item_id, attrs in records])
        assert catalog.slots() == oracle_slots(items)
        for item_id in [item.item_id for item in items] + [probe]:
            assert catalog.get(item_id) == oracle_get(items, item_id)
        assert list(catalog) == [catalog.item_at(i) for i in range(len(catalog))] == items

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

    def test_a_value_json_cannot_encode_fails_at_load(self):
        with pytest.raises(ValueError, match="catalog holds a value JSON cannot encode: "):
            load_catalog([{"id": "Heat", "genre": {"crime", "drama"}}])

    def test_number_ids_become_strings(self):
        catalog = load_catalog([{"id": 7, "year": 1995}, {"title": 2.5}, {"id": 0, "title": "Up"}])
        assert catalog.titles() == ("7", "2.5", "0")
        assert catalog.get("7").attributes == {"year": 1995}


# Strings that probe the record walk: delimiters, quotes, escapes and
# non-ASCII text inside values.
json_strings = st.text(st.sampled_from(',]}[{":\\ aZé€☃'), max_size=5)
names = st.one_of(
    json_strings, st.integers(-3, 3), st.floats(), st.none(), st.just(""), st.booleans(),
    st.lists(st.integers(0, 2), max_size=2),
)
record_values = st.one_of(json_strings, st.integers(-3, 3), st.lists(json_strings, max_size=3))
elements = st.one_of(
    st.fixed_dictionaries(
        {}, optional={"id": names, "title": names, "genre": record_values, "cast": record_values}
    ),
    st.fixed_dictionaries({"id": json_strings, "year": record_values}),
    st.integers(0, 1),
    st.lists(json_strings, max_size=1),
)
json_space = st.sampled_from(["", " ", "\n", " \t\r\n "])


@st.composite
def catalog_texts(draw):
    """A catalog serialized in varied layouts, maybe mutated afterwards."""
    records = draw(st.lists(elements, max_size=6))
    layout = draw(st.sampled_from([
        {}, {"indent": 2}, {"indent": "\t"}, {"separators": (",", ":")},
        {"separators": (" , ", " : ")}, {"indent": 0, "separators": (",\n", ": ")},
    ]))
    text = draw(json_space) + json.dumps(records, ensure_ascii=draw(st.booleans()), **layout)
    text += draw(json_space)
    mutation = draw(st.sampled_from(
        ["none", "truncate", "stray", "trailing", "bom", "bad id then syntax error"]
    ))
    if mutation == "truncate":
        text = text[: draw(st.integers(0, len(text)))]
    elif mutation == "stray":
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(list('x,]}[{" '))) + text[at:]
    elif mutation == "trailing":
        text += draw(st.sampled_from(["x", "]", "[]", ",", " 0", "{}"]))
    elif mutation == "bom":
        text = "\ufeff" + text
    elif mutation == "bad id then syntax error":
        text = '[{"id": true}' + "".join(", " + json.dumps(r) for r in records) + ",]"
    return text


def load_outcome(path):
    """What ``load_catalog`` gives, in ``oracle_load_catalog``'s terms."""
    try:
        catalog = load_catalog(path)
    except ValueError as exc:
        return type(exc), str(exc)
    return catalog.titles(), catalog.slots(), {item.item_id: item.attributes for item in catalog}


class TestLoaderAgainstOracle:
    @settings(max_examples=300)
    @given(catalog_texts())
    def test_equals_decoding_the_whole_text_first(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "oracle_catalog.json"
        path.write_text(text, encoding="utf-8")
        assert load_outcome(path) == oracle_load_catalog(path.read_text(encoding="utf-8"))

    @pytest.mark.parametrize(
        "text",
        [
            "\ufeff[]",
            '[{"id": "A"}] x',
            '[{"id": "A"}]]',
            "[]",
            " [ ] ",
            '[{"id": true}, {"id": "A"}, }',
            '[{"id": "A"}, ["B"], {"id": "C"',
            '{"id": "A"}',
            '"[{}]"',
            "",
            '[{"id": "A"},]',
            '[{"id": "A"} {"id": "B"}]',
        ],
    )
    def test_faults_give_the_plain_loaders_message(self, tmp_path, text):
        path = tmp_path / "catalog.json"
        path.write_text(text, encoding="utf-8")
        outcome = load_outcome(path)
        assert outcome == oracle_load_catalog(text)
        assert isinstance(outcome[0], type) and issubclass(outcome[0], ValueError)


def movie_records(count: int) -> list[dict]:
    """``count`` records shaped like a movie catalog: two array attributes
    and three string attributes each."""
    rng = random.Random(count)
    words = ["red", "night", "river", "stone", "city", "ghost", "summer", "road"]
    people = [f"{a} {b}" for a in ("Ann", "Bo", "Cy", "Di") for b in ("Ames", "Bell", "Cole")]
    return [
        {
            "id": f"{rng.choice(words).title()} {rng.choice(words)} {n}",
            "genre": sorted(rng.sample(["comedy", "drama", "horror", "western"], rng.choice((1, 2)))),
            "director": rng.choice(people),
            "actors": sorted(rng.sample(people, rng.randint(2, 3))),
            "year": str(rng.randint(1950, 2024)),
            "language": rng.choice(["English", "French", "Hindi"]),
        }
        for n in range(count)
    ]


class TestHeldCatalog:
    """A loaded catalog keeps the file's text and record offsets only."""

    def test_loading_adds_no_object_per_item_for_the_collector(self, tmp_path):
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps(movie_records(5000)), encoding="utf-8")
        gc.collect()
        before = len(gc.get_objects())
        catalog = load_catalog(path)
        # Keeping every decoded record added 15,002 tracked objects here.
        assert len(gc.get_objects()) - before <= 10
        assert len(catalog) == 5000

    def test_a_lookups_attributes_belong_to_the_caller(self):
        catalog = load_catalog(copy.deepcopy(TestLoadCatalog.RECORDS))
        for item in (catalog.get("Heat"), catalog.item_at(0), next(iter(catalog))):
            item.attributes["year"] = "2000"
            item.attributes["actor"].append("Val Kilmer")
        assert catalog.get("Heat").attributes == {
            "year": "1995", "actor": ["Al Pacino", "Robert De Niro"]
        }

    def test_held_bytes_stay_near_the_file_size(self, tmp_path):
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps(movie_records(20000)), encoding="utf-8")
        catalog, _, held = traced(load_catalog, path)
        assert len(catalog) == 20000
        # The file is 3.1 MB. Loaded, it held 5.53 MB on Python 3.11; the
        # bound adds 25 %. A catalog keeping every decoded record held 18.6 MB.
        assert held < 6_900_000


class TestAttributeValues:
    def test_strings_numbers_and_arrays_of_them_become_strings(self):
        record = {"id": "A", "genre": "comedy", "year": 1995, "score": 7.5,
                  "cast": ["Ann", 2], "plot": None}
        item = load_catalog([record]).get("A")
        assert item.values("genre") == ("comedy",)
        assert item.values("year") == ("1995",)
        assert item.values("score") == ("7.5",)
        assert item.values("cast") == ("Ann", "2")
        assert item.values("plot") == item.values("absent") == ()

    @pytest.mark.parametrize("value", [True, {"x": 1}, [["a"]], ["a", None], [False]])
    def test_any_other_value_is_rejected_naming_item_and_slot(self, value):
        item = load_catalog([{"id": "A", "family": value}]).get("A")
        with pytest.raises(ValueError, match="catalog item 'A': attribute 'family' is not"):
            item.values("family")

    def test_a_goal_never_carries_a_repr(self, tmp_path, capsys):
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps([{"id": "A", "family": True}]), encoding="utf-8")
        argv = ["simulate", "--simulator", "abus", "--crs", "stub:echo", "--catalog", str(path)]
        assert main(argv + ["-n", "1", "--output", str(tmp_path / "sim.ndjson")]) == 1
        assert "attribute 'family' is not a string" in capsys.readouterr().err
        assert not (tmp_path / "sim.ndjson").exists()
