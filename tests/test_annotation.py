import threading
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evalkit.annotation import (
    TRUNCATION_MARKER,
    LlmAnnotator,
    RuleAnnotator,
    in_order,
    iter_annotated,
    load_rule_lexicon,
    parse_act_lines,
)
from evalkit.catalog import load_catalog
from evalkit.connectors import scripted_transport
from evalkit.dialogue import (
    DialogueAct,
    IntentSchema,
    Speaker,
    _bundled_text,
    default_schema,
    simulation_schema,
)
from evalkit.errors import (
    AnnotationBatchError,
    AnnotationError,
    GatewayError,
)

from helpers import (
    TITLE_ALPHABET,
    RecordingTransport,
    act,
    corpus,
    dlg,
    llm_gateway,
    scripted,
    utt,
)
from oracle import oracle_cue_intents, oracle_find_titles, oracle_rule_acts

SCHEMA = default_schema()


def annotate_corpus(c, annotator, overwrite=False, jobs=1):
    """``iter_annotated`` over a corpus, collected with its header."""
    return replace(c, dialogues=tuple(iter_annotated(c, annotator, overwrite, jobs)))


# A schema without Other for either speaker.
NO_OTHER = IntentSchema(
    user_intents=frozenset({"Accept", "Reject", "Disclose"}),
    system_intents=frozenset({"Recommend", "Respond"}),
)

# Regex metacharacters, an underscore (a word character), case and spaces,
# so cues must be escaped and matched whole.
CUE_ALPHABET = "aAb .?+(|_"
# Recommend is a system intent only, Accept and Reject user intents only.
CUE_INTENTS = ("Accept", "Reject", "Recommend", "Inquire", "Bye")


@st.composite
def lexicons_and_texts(draw):
    """A lexicon, the optional intents a schema allows, and a text.

    The cues come from a small pool and its prefixes, shared between
    intents, so one intent's cues often prefix or overlap another's; one
    intent always has no cues. Texts are made of cues and free fragments.
    """
    pool = draw(st.lists(st.text(CUE_ALPHABET, min_size=1, max_size=4), min_size=1, max_size=5))
    shared = pool + [cue[:end] for cue in pool for end in range(1, len(cue))]
    lexicon = {
        intent: tuple(draw(st.lists(st.sampled_from(shared), max_size=3)))
        for intent in CUE_INTENTS
    }
    lexicon[draw(st.sampled_from(CUE_INTENTS))] = ()
    optional = draw(st.frozensets(st.sampled_from(("Inquire", "Bye", "Other"))))
    fragment = st.one_of(st.sampled_from(shared), st.text(CUE_ALPHABET, max_size=3))
    return lexicon, optional, "".join(draw(st.lists(fragment, max_size=6)))


title_sets = st.lists(
    st.text(TITLE_ALPHABET, min_size=1, max_size=6), min_size=1, max_size=8, unique=True
)
GAPS = st.sampled_from(("", " ", ", ", "x"))


@st.composite
def catalogs_and_texts(draw):
    chosen = draw(title_sets)
    fragment = st.one_of(st.sampled_from(chosen), st.text(TITLE_ALPHABET, max_size=4))
    pieces = draw(st.lists(fragment, max_size=8))
    separators = draw(st.lists(GAPS, min_size=len(pieces), max_size=len(pieces)))
    text = "".join(piece + sep for piece, sep in zip(pieces, separators))
    return chosen, text


@st.composite
def phrase_tables_and_texts(draw):
    """Titles, a lexicon, the optional intents a schema allows, and a text.

    The titles always include ones that start with punctuation and two
    that differ only in case. Cues come from the titles (a phrase that is
    both), from a word inside a title (a cue inside a title's span) and
    from free text. The text joins titles, cues and free fragments, each
    in a changed case.
    """
    titles = list(dict.fromkeys(["'71", "Airplane!", "Heat", "HEAT", "Heat Wave"] + draw(title_sets)))
    inner = [word for title in titles for word in title.split()[1:]]  # inside a title's span
    free = draw(st.lists(st.text(TITLE_ALPHABET, min_size=1, max_size=4), max_size=3))
    pool = titles + inner + free
    cues = st.lists(st.sampled_from(pool), max_size=3)
    lexicon = {intent: tuple(draw(cues)) for intent in CUE_INTENTS}
    optional = draw(st.frozensets(st.sampled_from(("Inquire", "Bye", "Other"))))
    case = st.sampled_from((str, str.lower, str.upper, str.swapcase))
    fragment = st.one_of(
        st.sampled_from(titles), st.sampled_from(pool), st.text(TITLE_ALPHABET, max_size=3)
    )
    pieces = draw(st.lists(st.tuples(fragment, case, GAPS), max_size=8))
    return titles, lexicon, optional, "".join(change(piece) + gap for piece, change, gap in pieces)


def find_titles(titles, text):
    """The (position, title) pairs a rule annotator over a catalog of
    ``titles`` finds in ``text``, with no cues."""
    annotator = RuleAnnotator(SCHEMA, lexicon={}, catalog=load_catalog([{"title": t} for t in titles]))
    return annotator.scan(text, Speaker.SYSTEM)[1]


@pytest.fixture(scope="module")
def title_catalog():
    return load_catalog(
        [
            {"title": "Step Brothers", "genre": ["comedy"]},
            {"title": "Walk Hard: The Dewey Cox Story", "genre": ["comedy"]},
        ]
    )


@pytest.fixture(scope="module")
def lookalike_catalog():
    return load_catalog(
        [
            {"title": title}
            for title in (
                "Heat",
                "The Heat",
                "Movie 1",
                "Movie 10",
                "Step Brothers",
                "Walk Hard: The Dewey Cox Story",
            )
        ]
    )


class TestRuleAnnotator:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("I love the theater", ()),
            ("Have you seen Movie 10?", ("Movie 10",)),
            ("Try The Heat", ("The Heat",)),
            ("Heat? Have you seen Heat? Heat!", ("Heat",)),
            ("Movie 1 or Movie 10", ("Movie 1", "Movie 10")),
            (
                "walk hard: the dewey cox story or STEP BROTHERS",
                ("Walk Hard: The Dewey Cox Story", "Step Brothers"),
            ),
        ],
    )
    def test_titles_match_whole_words_only(self, lookalike_catalog, text, expected):
        annotator = RuleAnnotator(SCHEMA, catalog=lookalike_catalog)
        acts = annotator.annotate(utt(1, "SYSTEM", text=text))
        recommended = tuple(
            title for a in acts if a.intent == "Recommend" for title in a.slot_values("TITLE")
        )
        assert recommended == expected

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("Can I see your top picks?", ["Other"]),
            ("See you!", ["Bye"]),
            ("Thanks, see you.", ["Bye"]),
            ("Not something without a plot.", ["Other"]),
        ],
    )
    def test_cues_match_whole_words_only(self, text, expected):
        annotator = RuleAnnotator(simulation_schema())
        acts = annotator.annotate(utt(0, "USER", text=text))
        assert [a.intent for a in acts] == expected

    @settings(max_examples=400)
    @given(lexicons_and_texts(), st.sampled_from(Speaker))
    def test_cue_intents_match_a_search_per_cue(self, case, speaker):
        lexicon, optional, text = case
        schema = IntentSchema(
            user_intents=frozenset({"Accept", "Reject"}) | optional,
            system_intents=frozenset({"Recommend"}) | optional,
        )
        allowed = schema.intents_for(speaker)
        expected = oracle_cue_intents(text.strip(), lexicon, allowed)
        if not expected and text.strip() and "Other" in allowed:
            expected = ["Other"]
        acts = RuleAnnotator(schema, lexicon).annotate(utt(0, speaker.value, text=text))
        assert acts == tuple(map(DialogueAct, expected))

    def test_recommendation_with_two_titles(self, title_catalog):
        annotator = RuleAnnotator(SCHEMA, catalog=title_catalog)
        u = utt(
            1,
            "SYSTEM",
            text="Have you seen Step Brothers or Walk Hard: The Dewey Cox Story",
        )
        acts = annotator.annotate(u)
        assert len(acts) == 1
        assert acts[0].intent == "Recommend"
        assert acts[0].slot_values("TITLE") == (
            "Step Brothers",
            "Walk Hard: The Dewey Cox Story",
        )

    def test_title_only_system_utterance_becomes_recommend(self, title_catalog):
        annotator = RuleAnnotator(SCHEMA, catalog=title_catalog)
        acts = annotator.annotate(utt(1, "SYSTEM", text="Step Brothers, maybe?"))
        assert [a.intent for a in acts] == ["Recommend"]

    def test_empty_text_yields_no_acts(self):
        annotator = RuleAnnotator(SCHEMA)
        assert annotator.annotate(utt(0, "USER", text="")) == ()
        assert annotator.annotate(utt(0, "USER", text="   ")) == ()

    def test_acceptance_cue(self):
        annotator = RuleAnnotator(SCHEMA)
        acts = annotator.annotate(utt(2, "USER", text="I'll watch that one, thanks!"))
        assert [a.intent for a in acts] == ["Accept"]
        assert acts[0].slots == ()

    def test_unmatched_text_falls_back_to_other(self):
        annotator = RuleAnnotator(SCHEMA)
        acts = annotator.annotate(utt(0, "USER", text="hmm interesting weather"))
        assert [a.intent for a in acts] == ["Other"]

    def test_cues_are_role_scoped(self):
        annotator = RuleAnnotator(SCHEMA)
        # "have you seen" is a system recommendation cue, not a user one.
        acts = annotator.annotate(utt(0, "USER", text="Have you seen my keys?"))
        assert all(a.intent != "Recommend" for a in acts)

    def test_determinism(self, title_catalog):
        annotator = RuleAnnotator(SCHEMA, catalog=title_catalog)
        u = utt(0, "USER", text="I'm looking for something with Step Brothers vibes")
        assert annotator.annotate(u) == annotator.annotate(u)

    def test_custom_lexicon_text(self, tmp_path):
        path = tmp_path / "lexicon.tsv"
        path.write_text("# cues\nAccept\tsure why not\n\nReject\tnope\n", encoding="utf-8")
        lexicon = load_rule_lexicon(path)
        assert lexicon == {"Accept": ("sure why not",), "Reject": ("nope",)}
        annotator = RuleAnnotator(SCHEMA, lexicon=lexicon)
        assert [a.intent for a in annotator.annotate(utt(0, "USER", text="Sure why not!"))] == [
            "Accept"
        ]

    def test_indented_comment_lines_are_skipped(self, tmp_path):
        path = tmp_path / "lexicon.tsv"
        path.write_text("  # note\n" + _bundled_text("rule_lexicon.tsv"), encoding="utf-8")
        assert load_rule_lexicon(path) == load_rule_lexicon()

    def test_lexicon_path_containing_a_tab_is_read_as_a_path(self, tmp_path):
        folder = tmp_path / "d\tt"
        folder.mkdir()
        (folder / "lex.tsv").write_text("Accept\tdeal\n", encoding="utf-8")
        assert load_rule_lexicon(str(folder / "lex.tsv")) == {"Accept": ("deal",)}

    @settings(max_examples=400)
    @given(phrase_tables_and_texts(), st.sampled_from(Speaker))
    def test_acts_match_a_search_per_cue_and_per_title(self, case, speaker):
        titles, lexicon, optional, text = case
        schema = IntentSchema(
            user_intents=frozenset({"Accept", "Reject"}) | optional,
            system_intents=frozenset({"Recommend"}) | optional,
        )
        catalog = load_catalog([{"title": title} for title in titles])
        acts = RuleAnnotator(schema, lexicon, catalog).annotate(utt(0, speaker.value, text=text))
        if not text.strip():
            assert acts == ()
            return
        expected = oracle_rule_acts(
            text.strip(), lexicon, titles, schema.intents_for(speaker), speaker is Speaker.SYSTEM
        )
        assert [(a.intent, a.slot_values("TITLE")) for a in acts] == expected

    def test_a_cue_that_is_a_title_and_a_cue_inside_a_title(self):
        lexicon = {"Recommend": ("heat",), "Respond": ("wave",)}
        catalog = load_catalog([{"title": "Heat"}, {"title": "Heat Wave"}])
        acts = RuleAnnotator(NO_OTHER, lexicon, catalog).annotate(utt(1, "SYSTEM", text="HEAT WAVE?"))
        assert [(a.intent, a.slot_values("TITLE")) for a in acts] == [
            ("Recommend", ("Heat Wave",)),
            ("Respond", ()),
        ]

    @pytest.mark.parametrize("cues", [("",), ("fine", "")])
    def test_an_empty_cue_raises(self, cues):
        with pytest.raises(ValueError, match="intent 'Accept' has an empty cue"):
            RuleAnnotator(SCHEMA, lexicon={"Accept": cues})


class TestFindTitles:
    @settings(max_examples=400)
    @given(catalogs_and_texts())
    def test_matches_the_brute_force_search(self, case):
        chosen, text = case
        assert find_titles(chosen, text) == oracle_find_titles(text, chosen)

    def test_positions_index_the_lowered_text(self):
        assert find_titles(("Heat", "Heat Wave", "Jaws"), "JAWS, then heat wave, then Heat.") == [
            (0, "Jaws"),
            (11, "Heat Wave"),
            (27, "Heat"),
        ]

    def test_titles_sharing_a_head(self):
        titles = ("Heat", "Heat Wave", "Heat: Reloaded")
        assert find_titles(titles, "heat: reloaded, then heat wave") == [
            (0, "Heat: Reloaded"),
            (21, "Heat Wave"),
        ]

    def test_a_title_starting_with_a_non_word_character(self):
        assert find_titles(("'71", "71"), "'71, not x'71") == [(0, "'71"), (11, "71")]
        assert find_titles(("'71", "71"), "x'71") == [(2, "71")]

    def test_titles_differing_in_case_match_together(self):
        assert find_titles(("Heat", "HEAT"), "see heat") == [(4, "HEAT"), (4, "Heat")]

    def test_punctuation_at_a_title_edge(self):
        titles = ("Airplane!", "Up")
        assert find_titles(titles, "Airplane! or Up.") == [(0, "Airplane!"), (13, "Up")]
        assert find_titles(titles, "Airplane!x or Upside") == []


class TestParseActLines:
    def test_single_act_with_slots(self):
        acts = parse_act_lines(
            "Recommend(TITLE=Heat; TITLE=Ronin)", SCHEMA, Speaker.SYSTEM
        )
        assert acts[0].slot_values("TITLE") == ("Heat", "Ronin")

    def test_quoted_values_and_bare_intents(self):
        acts = parse_act_lines(
            "Accept(TITLE='Paper Moon')\nInquire()", SCHEMA, Speaker.USER
        )
        assert [a.intent for a in acts] == ["Accept", "Inquire"]
        assert acts[0].slot_values("TITLE") == ("Paper Moon",)

    def test_none_reply_means_no_acts(self):
        assert parse_act_lines("None", SCHEMA, Speaker.USER) == ()

    def test_gibberish_raises(self):
        with pytest.raises(ValueError):
            parse_act_lines("?? not an act ??", SCHEMA, Speaker.USER)

    def test_out_of_schema_intent_raises(self):
        with pytest.raises(Exception):
            parse_act_lines("FlyToMoon()", SCHEMA, Speaker.USER)


class TestLlmAnnotator:
    def test_scripted_reply_parsed(self):
        gateway = scripted(["Recommend(TITLE=Heat)"])
        annotator = LlmAnnotator(SCHEMA, gateway)
        acts = annotator.annotate(utt(1, "SYSTEM", text="Maybe try Heat?"))
        assert acts == (act("Recommend", ("TITLE", "Heat")),)

    @pytest.mark.parametrize(
        "replies",
        [["&& broken &&", "still broken (("], ["Accept(TITLE)", "Accept(TITLE Heat; x=1)"]],
        ids=["act-line", "slot"],
    )
    def test_retry_then_other_with_warning_flag(self, replies):
        sent = RecordingTransport(scripted_transport(replies))
        annotator = LlmAnnotator(SCHEMA, llm_gateway(sent))
        acts = annotator.annotate(utt(0, "USER", text="whatever"))
        assert len(sent.calls) == 2
        assert acts[0].intent == "Other"
        assert acts[0].slots == ()
        assert acts[0].extra.get("warning") == "llm-reply-unparseable"

    def test_second_attempt_can_succeed(self):
        gateway = scripted(["garbage ((", "Accept()"])
        annotator = LlmAnnotator(SCHEMA, gateway)
        acts = annotator.annotate(utt(0, "USER", text="ok!"))
        assert [a.intent for a in acts] == ["Accept"]

    def test_gateway_failure_propagates_with_utterance_id(self):
        gateway = scripted([])  # exhausted immediately
        annotator = LlmAnnotator(SCHEMA, gateway)
        with pytest.raises(AnnotationError, match="utterance 3"):
            annotator.annotate(utt(3, "USER", text="hello"))

    def test_prompt_carries_schema_context_and_utterance(self):
        sent = RecordingTransport(scripted_transport(["None"]))
        annotator = LlmAnnotator(SCHEMA, llm_gateway(sent))
        context = (utt(0, "USER", text="earlier words"),)
        annotator.annotate(utt(1, "SYSTEM", text="current words"), context)
        prompt = sent.calls[0][0]["content"]
        assert "current words" in prompt
        assert "earlier words" in prompt
        assert "Recommend" in prompt  # allowed system intents listed
        assert "Have you seen Heat?" in prompt  # few-shot example present

    def test_long_context_keeps_the_newest_turns_under_the_marker(self):
        # 100 context lines of about 60 characters: past the 4000-character budget.
        context = tuple(
            utt(i, "USER" if i % 2 == 0 else "SYSTEM", text=f"turn number {i:03d} " + "x" * 37)
            for i in range(100)
        )
        sent = RecordingTransport(scripted_transport(["None"]))
        annotator = LlmAnnotator(SCHEMA, llm_gateway(sent))
        annotator.annotate(utt(100, "USER", text="current words"), context)
        prompt = sent.calls[0][0]["content"]
        assert f"Conversation so far:\n{TRUNCATION_MARKER}\nSYSTEM: turn number 035 " in prompt
        kept = [n for n in range(100) if f"turn number {n:03d} " in prompt]
        assert kept == list(range(35, 100))

    def test_examples_render_once_as_utterance_and_acts_lines(self):
        sent = RecordingTransport(scripted_transport(["None"]))
        LlmAnnotator(SCHEMA, llm_gateway(sent)).annotate(utt(0, "USER", text="hello"))
        assert (
            "Examples:\n"
            "Utterance: Have you seen Heat? It is a classic crime film.\n"
            "Acts: Recommend(TITLE='Heat')\n"
            "Utterance: Great, I'll watch that one tonight, thanks!\n"
            "Acts: Accept()\n"
            "Utterance: Not a fan of horror. Anything lighter?\n"
            "Acts: Reject()\n\n"
        ) in sent.calls[0][0]["content"]


@pytest.mark.parametrize("kind", ["rule", "llm"])
@pytest.mark.parametrize("speaker", ["USER", "SYSTEM"])
def test_fallback_is_other_only_where_the_schema_allows_it(kind, speaker):
    def build(schema):
        if kind == "rule":
            return RuleAnnotator(schema)
        return LlmAnnotator(schema, scripted(["garbage((("] * 2))

    unlabelled = utt(0, speaker, text="hmm interesting weather")
    assert build(NO_OTHER).annotate(unlabelled) == ()
    (other,) = build(SCHEMA).annotate(unlabelled)
    assert other.intent == "Other"
    assert other.extra == ({} if kind == "rule" else {"warning": "llm-reply-unparseable"})


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_in_order_fills_a_window_of_four_calls_per_job(jobs):
    drawn = []

    def source():
        for number in range(50):
            drawn.append(number)
            yield number

    results = in_order(lambda n: n * n, source(), jobs)
    assert next(results) == 0
    # The window fills before the first result is handed out.
    assert len(drawn) == (1 if jobs == 1 else 4 * jobs)
    assert list(results) == [n * n for n in range(1, 50)]


class TestAnnotateCorpus:
    def _bare_corpus(self):
        return corpus(
            dlg(
                "d1",
                "sysA",
                [
                    utt(0, "USER", text="I'm looking for something with laughs"),
                    utt(1, "SYSTEM", text="Have you seen Paper Moon?"),
                    utt(2, "USER", text="I'll watch that one, thanks!"),
                ],
            )
        )

    def test_empty_corpus_unchanged(self):
        c = corpus()
        annotator = RuleAnnotator(SCHEMA)
        assert annotate_corpus(c, annotator) == c

    def test_rule_annotation_fills_empty_acts(self):
        annotator = RuleAnnotator(SCHEMA)
        annotated = annotate_corpus(self._bare_corpus(), annotator)
        intents = [
            [a.intent for a in u.acts]
            for u in annotated.dialogues[0].utterances
        ]
        assert intents == [["Disclose"], ["Recommend"], ["Accept"]]

    def test_rule_annotation_is_repeatable(self):
        annotator = RuleAnnotator(SCHEMA)
        first = annotate_corpus(self._bare_corpus(), annotator)
        second = annotate_corpus(self._bare_corpus(), annotator)
        assert first == second

    def test_existing_acts_kept_without_overwrite(self):
        annotator = RuleAnnotator(SCHEMA)
        annotated = annotate_corpus(self._bare_corpus(), annotator)
        again = annotate_corpus(annotated, annotator)
        assert again == annotated

    def test_overwrite_replaces_acts(self):
        base = corpus(
            dlg("d1", "sysA", [utt(0, "USER", [act("Inquire")], text="I'll watch it!")])
        )
        annotator = RuleAnnotator(SCHEMA)
        kept = annotate_corpus(base, annotator)
        assert kept.dialogues[0].utterances[0].acts[0].intent == "Inquire"
        rewritten = annotate_corpus(base, annotator, overwrite=True)
        assert rewritten.dialogues[0].utterances[0].acts[0].intent == "Accept"

    def test_scripted_llm_corpus(self):
        gateway = scripted(
            [
                "Disclose(genre=comedy)",
                "Recommend(TITLE=Paper Moon)",
                "Accept(TITLE=Paper Moon)",
            ]
        )
        annotated = annotate_corpus(self._bare_corpus(), LlmAnnotator(SCHEMA, gateway))
        expected = [
            (act("Disclose", ("genre", "comedy")),),
            (act("Recommend", ("TITLE", "Paper Moon")),),
            (act("Accept", ("TITLE", "Paper Moon")),),
        ]
        assert [u.acts for u in annotated.dialogues[0].utterances] == expected

    def test_annotation_preserves_everything_else(self):
        base = self._bare_corpus()
        annotator = RuleAnnotator(SCHEMA)
        annotated = annotate_corpus(base, annotator)
        for before, after in zip(
            base.dialogues[0].utterances, annotated.dialogues[0].utterances
        ):
            assert before.text == after.text
            assert before.items == after.items
            assert before.index == after.index
        assert annotated.dialogues[0].dialogue_id == "d1"

    def test_batch_error_aggregates_failures(self):
        gateway = scripted(["Accept()"])  # exhausted after one
        with pytest.raises(AnnotationBatchError) as excinfo:
            annotate_corpus(self._bare_corpus(), LlmAnnotator(SCHEMA, gateway))
        assert len(excinfo.value.failures) == 2

    def test_parallel_matches_sequential(self):
        annotator = RuleAnnotator(SCHEMA)
        assert annotate_corpus(self._bare_corpus(), annotator, jobs=4) == annotate_corpus(
            self._bare_corpus(), annotator
        )

    def test_rule_mode_runs_on_the_calling_thread_at_any_jobs(self, monkeypatch):
        # Rule annotation is CPU-bound: worker threads would only add overhead.
        threads = []
        annotate = RuleAnnotator.annotate

        def recording(self, utterance, context=()):
            threads.append(threading.get_ident())
            return annotate(self, utterance, context)

        monkeypatch.setattr(RuleAnnotator, "annotate", recording)
        annotator = RuleAnnotator(SCHEMA)
        annotate_corpus(self._bare_corpus(), annotator, jobs=4)
        assert threads and set(threads) == {threading.get_ident()}

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_stream_reads_a_bounded_window_ahead(self, jobs):
        drawn = []

        def source():
            for number in range(50):
                drawn.append(number)
                yield dlg(f"d{number}", "sysA", [utt(0, "USER", text="thanks!")])

        annotator = RuleAnnotator(SCHEMA)
        stream = iter_annotated(source(), annotator, jobs=jobs)
        assert next(stream).dialogue_id == "d0"
        assert len(drawn) <= (1 if jobs == 1 else 4 * jobs)
        assert [d.dialogue_id for d in stream] == [f"d{n}" for n in range(1, 50)]

    def test_utterances_of_one_dialogue_run_concurrently(self):
        # Each call waits until all four are in flight, which only happens
        # if the four utterances of the one dialogue run on four threads.
        barrier = threading.Barrier(4, timeout=10)

        def responder(url, payload, headers):
            barrier.wait()
            return {"text": "Other()"}

        bare = corpus(dlg("d1", "sysA", [utt(i, "USER", text=f"u{i}") for i in range(4)]))
        annotated = annotate_corpus(bare, LlmAnnotator(SCHEMA, llm_gateway(responder)), jobs=4)
        assert [u.acts[0].intent for u in annotated.dialogues[0].utterances] == ["Other"] * 4

    def test_partial_failures_same_at_any_jobs(self):
        def responder(url, payload, headers):
            utterance = payload["messages"][-1]["content"].rsplit("Utterance: ", 1)[1]
            if utterance.startswith("FAIL"):
                raise GatewayError("gateway down")
            return {"text": "Other()"}

        # Seven of twenty utterances fail, spread over five dialogues.
        bare = corpus(
            *(
                dlg(
                    f"d{d}",
                    "sysA",
                    [
                        utt(
                            i,
                            "USER" if i % 2 == 0 else "SYSTEM",
                            text="FAIL here" if (d + i) % 3 == 0 else "fine",
                        )
                        for i in range(4)
                    ],
                )
                for d in range(5)
            )
        )
        failures = []
        for jobs in (1, 4):
            annotator = LlmAnnotator(SCHEMA, llm_gateway(responder))
            with pytest.raises(AnnotationBatchError) as excinfo:
                annotate_corpus(bare, annotator, jobs=jobs)
            failures.append(excinfo.value.failures)
        assert failures[0] == failures[1]
        assert len(failures[0]) == 7
        assert failures[0][0].startswith("d0[0]: utterance 0: gateway failure")
