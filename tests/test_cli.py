import argparse
import hashlib
import json
import os
import random
import shlex
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evalkit.analysis import ReliabilityReport, load_reference_scores
from evalkit.annotation import RuleAnnotator, iter_annotated
from evalkit.cli import _llm_gateway_factory, _load_ground_truth, build_parser, main
from evalkit import cli, connectors, corpus_io
from evalkit.connectors import LLM_RETRIES, HttpLlmGateway
from evalkit.corpus_io import dialogue_record, parse_corpus, serialize_corpus, write_corpus
from evalkit.dialogue import Corpus, IntentSchema, default_schema, simulation_schema
from evalkit.errors import GatewayError
from evalkit.metrics import MetricReport

from conftest import MOVIES
from helpers import (
    RecordingTransport,
    TruthProbe,
    act,
    corpus,
    dlg,
    needs_handed_over_arguments,
    traced,
    turns,
    utt,
)
from oracle import oracle_ground_truth

REF = load_reference_scores()


@pytest.fixture()
def catalog_file(tmp_path):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(MOVIES))
    return str(path)


@pytest.fixture()
def scripts(monkeypatch):
    """The transport of each script the commands build, in build order,
    recording each request payload."""
    built = []
    scripted_transport = connectors.scripted_transport

    def recording(replies):
        built.append(RecordingTransport(scripted_transport(replies)))
        return built[-1]

    monkeypatch.setattr(connectors, "scripted_transport", recording)
    return built


def write_scores(path, scores):
    path.write_text(json.dumps(scores))
    return str(path)


def small_corpus():
    return corpus(
        dlg(
            "d1",
            "sysA",
            turns(
                ("USER", ["Disclose"]),
                ("SYSTEM", [act("Recommend", ("TITLE", "Alpha"))], ["Alpha"]),
                ("USER", [act("Accept", ("TITLE", "Alpha"))]),
            ),
            satisfaction="satisfied",
        ),
        dlg(
            "d2",
            "sysB",
            turns(("USER", ["Inquire"]), ("SYSTEM", ["Respond"])),
            satisfaction="frustrated",
        ),
    )


def bare_corpus():
    """Six unannotated dialogues."""
    return corpus(
        *(
            dlg(
                f"d{n}",
                "sysA",
                [
                    utt(0, "USER", text="I'm looking for something with laughs"),
                    utt(1, "SYSTEM", text="Have you seen Paper Moon?", items=["Paper Moon"]),
                    utt(2, "USER", text="I'll watch that one, thanks!"),
                ],
            )
            for n in range(6)
        )
    )


class TestIngest:
    def test_counts_and_total(self, tmp_path, capsys):
        path = tmp_path / "corpus.ndjson"
        write_corpus(small_corpus(), path)
        assert main(["ingest", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert "sysA" in out and "sysB" in out
        assert out.strip().endswith("2")

    def test_reference_scale_manifest_totals_467(self, tmp_path, capsys):
        dialogues = []
        for crs_id, count in REF["dialogue_counts"].items():
            for i in range(count):
                dialogues.append(
                    dlg(
                        f"{crs_id}-{i}",
                        crs_id,
                        turns(("USER", ["Other"]), ("SYSTEM", ["Other"])),
                    )
                )
        path = tmp_path / "arena.ndjson"
        write_corpus(Corpus(dialogues=tuple(dialogues)), path)
        assert main(["ingest", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.strip().splitlines()[-1].split()[-1] == "467"

    def test_empty_file_summarizes_zero(self, tmp_path, capsys):
        path = tmp_path / "empty.ndjson"
        path.write_text("")
        assert main(["ingest", "--input", str(path)]) == 0
        assert capsys.readouterr().out.strip().endswith("0")

    def test_malformed_line_exits_one_with_line_number(self, tmp_path, capsys):
        path = tmp_path / "broken.ndjson"
        path.write_text('{"schema_version":"1"}\n{oops}\n')
        assert main(["ingest", "--input", str(path)]) == 1
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "record, detail",
        [
            ([], "must be a JSON object"),
            (
                {"user_intents": ["Accept", "Reject"], "system_intents": 5},
                "'system_intents' must be an array of strings",
            ),
            (
                {"user_intents": "Accept", "system_intents": ["Recommend"]},
                "'user_intents' must be an array of strings",
            ),
            (
                {"user_intents": ["Accept"], "system_intents": ["Recommend"]},
                "user intents must include 'Reject'",
            ),
        ],
        ids=["array", "number", "string", "rule-violation"],
    )
    def test_malformed_schema_is_a_configuration_error(self, record, detail, tmp_path, capsys):
        path = tmp_path / "corpus.ndjson"
        write_corpus(small_corpus(), path)
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps(record))
        assert main(["ingest", "--input", str(path), "--schema", str(schema)]) == 2
        err = capsys.readouterr().err
        assert f"intent schema {schema}" in err and detail in err


class TestAnnotate:
    def test_rule_mode_annotates(self, tmp_path, catalog_file):
        raw = corpus(
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
        src = tmp_path / "raw.ndjson"
        write_corpus(raw, src)
        out = tmp_path / "annotated.ndjson"
        assert (
            main(
                [
                    "annotate",
                    "--input",
                    str(src),
                    "--output",
                    str(out),
                    "--catalog",
                    catalog_file,
                ]
            )
            == 0
        )
        annotated = parse_corpus(out.read_bytes())
        intents = [
            [a.intent for a in u.acts] for u in annotated.dialogues[0].utterances
        ]
        assert intents == [["Disclose"], ["Recommend"], ["Accept"]]
        recommend = annotated.dialogues[0].utterances[1].acts[0]
        assert recommend.slot_values("TITLE") == ("Paper Moon",)

    def test_rerun_without_overwrite_is_idempotent(self, tmp_path, catalog_file):
        raw = corpus(
            dlg("d1", "sysA", [utt(0, "USER", text="I'll watch it, thanks!")])
        )
        src = tmp_path / "raw.ndjson"
        write_corpus(raw, src)
        first = tmp_path / "first.ndjson"
        second = tmp_path / "second.ndjson"
        assert main(["annotate", "--input", str(src), "--output", str(first)]) == 0
        assert main(["annotate", "--input", str(first), "--output", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_llm_mode_without_endpoint_is_config_error(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.delenv("EVALKIT_LLM_ENDPOINT", raising=False)
        src = tmp_path / "raw.ndjson"
        write_corpus(corpus(dlg("d1", "sysA", [utt(0, "USER", text="hi")])), src)
        code = main(
            ["annotate", "--input", str(src), "--output", str(tmp_path / "o"), "--mode", "llm"]
        )
        assert code == 2
        assert "EVALKIT_LLM_ENDPOINT" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_a_config_error(self, tmp_path, capsys, jobs):
        src = tmp_path / "raw.ndjson"
        write_corpus(corpus(dlg("d1", "sysA", [utt(0, "USER", text="hi")])), src)
        out = tmp_path / "o"
        assert main(["annotate", "--input", str(src), "--output", str(out), "--jobs", jobs]) == 2
        assert f"jobs must be at least 1, not {jobs}" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_and_jobs_from_config_file(self, tmp_path, capsys):
        src = tmp_path / "raw.ndjson"
        write_corpus(corpus(dlg("d1", "sysA", [utt(0, "USER", text="hi")])), src)
        out = tmp_path / "o.ndjson"
        config = tmp_path / "run.json"
        argv = ["annotate", "--input", str(src), "--output", str(out), "--config", str(config)]
        config.write_text(json.dumps({"seed": 9}))
        assert main(argv) == 0
        assert json.loads(out.read_text().splitlines()[0])["seed"] == 9
        assert main(argv + ["--seed", "4"]) == 0  # a flag still beats the file
        assert json.loads(out.read_text().splitlines()[0])["seed"] == 4
        out.unlink()
        config.write_text(json.dumps({"jobs": -3}))
        assert main(argv) == 2
        assert "jobs must be at least 1, not -3" in capsys.readouterr().err
        assert not out.exists()
        assert main(argv + ["--jobs", "2"]) == 0

    def test_live_endpoint_is_one_gateway_for_every_conversation(self, monkeypatch):
        monkeypatch.setenv("EVALKIT_LLM_TOKEN", "s3cret")
        monkeypatch.delenv("EVALKIT_LLM_MODEL", raising=False)
        argv = ["annotate", "--input", "in", "--output", "out", "--mode", "llm"]
        args = build_parser().parse_args(argv + ["--llm-endpoint", "http://127.0.0.1:9/v1"])
        factory = _llm_gateway_factory(args, {}, "llm mode")
        gateway = factory()
        assert isinstance(gateway, HttpLlmGateway) and factory() is gateway
        assert gateway.options.endpoint == "http://127.0.0.1:9/v1"
        assert gateway.options.model == "default"
        assert gateway.options.auth_token == "s3cret"
        named = _llm_gateway_factory(args, {"llm_model": "m-1"}, "llm mode")()
        assert named.options.model == "m-1"

    def test_mock_endpoint_is_a_fresh_http_gateway_per_conversation(
        self, tmp_path, monkeypatch, scripts
    ):
        # A script is one more transport of the live client: the same
        # request body goes out, and the reply is checked the same way.
        monkeypatch.delenv("EVALKIT_LLM_MODEL", raising=False)
        script = tmp_path / "script.json"
        script.write_text(json.dumps(["Accept()"]))
        argv = ["annotate", "--input", "in", "--output", "out", "--mode", "llm"]
        args = build_parser().parse_args(argv + ["--llm-endpoint", f"mock:{script}"])
        factory = _llm_gateway_factory(args, {}, "llm mode")
        gateway = factory()
        assert isinstance(gateway, HttpLlmGateway) and factory() is not gateway
        messages = [{"role": "user", "content": "hi"}]
        assert gateway.complete(messages) == factory().complete(messages) == "Accept()"
        payload = {"model": "default", "messages": messages, "temperature": 0.0, "stream": False}
        assert [transport.payloads for transport in scripts] == [[payload], [], [payload]]

    def test_llm_mode_with_mock_endpoint(self, tmp_path):
        src = tmp_path / "raw.ndjson"
        write_corpus(corpus(dlg("d1", "sysA", [utt(0, "USER", text="sure!")])), src)
        script = tmp_path / "script.json"
        script.write_text(json.dumps(["Accept()"]))
        out = tmp_path / "annotated.ndjson"
        code = main(
            [
                "annotate",
                "--input",
                str(src),
                "--output",
                str(out),
                "--mode",
                "llm",
                "--llm-endpoint",
                f"mock:{script}",
            ]
        )
        assert code == 0
        annotated = parse_corpus(out.read_bytes())
        assert annotated.dialogues[0].utterances[0].acts[0].intent == "Accept"

    def test_endpoint_from_environment(self, tmp_path, monkeypatch):
        src = tmp_path / "raw.ndjson"
        write_corpus(corpus(dlg("d1", "sysA", [utt(0, "USER", text="sure!")])), src)
        script = tmp_path / "script.json"
        script.write_text(json.dumps(["Accept()"]))
        monkeypatch.setenv("EVALKIT_LLM_ENDPOINT", f"mock:{script}")
        out = tmp_path / "annotated.ndjson"
        code = main(
            ["annotate", "--input", str(src), "--output", str(out), "--mode", "llm"]
        )
        assert code == 0
        annotated = parse_corpus(out.read_bytes())
        assert annotated.dialogues[0].utterances[0].acts[0].intent == "Accept"

    def test_flag_beats_config_file_beats_environment(self, tmp_path, monkeypatch):
        src = tmp_path / "raw.ndjson"
        write_corpus(corpus(dlg("d1", "sysA", [utt(0, "USER", text="sure!")])), src)
        flag_script = tmp_path / "flag.json"
        flag_script.write_text(json.dumps(["Accept()"]))
        config_script = tmp_path / "config.json"
        config_script.write_text(json.dumps(["Reject()"]))
        env_script = tmp_path / "env.json"
        env_script.write_text(json.dumps(["Inquire()"]))
        config_file = tmp_path / "settings.json"
        config_file.write_text(json.dumps({"llm_endpoint": f"mock:{config_script}"}))
        monkeypatch.setenv("EVALKIT_LLM_ENDPOINT", f"mock:{env_script}")

        def annotate_with(extra):
            out = tmp_path / "out.ndjson"
            code = main(
                ["annotate", "--input", str(src), "--output", str(out), "--mode", "llm"]
                + extra
            )
            assert code == 0
            return parse_corpus(out.read_bytes()).dialogues[0].utterances[0].acts[0].intent

        assert annotate_with(["--config", str(config_file), "--llm-endpoint", f"mock:{flag_script}"]) == "Accept"
        assert annotate_with(["--config", str(config_file)]) == "Reject"
        assert annotate_with([]) == "Inquire"

    def test_llm_fallback_honours_a_schema_without_other(self, tmp_path):
        record = {
            "user_intents": ["Accept", "Reject", "Disclose"],
            "system_intents": ["Recommend", "Respond"],
        }
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps(record))
        src = tmp_path / "raw.ndjson"
        bare = dlg("d1", "sysA", [utt(0, "USER", text="hmm"), utt(1, "SYSTEM", text="well")])
        write_corpus(corpus(bare), src)
        script = tmp_path / "script.json"
        script.write_text(json.dumps(["garbage((("] * 4))
        out = tmp_path / "annotated.ndjson"
        argv = ["annotate", "--input", str(src), "--output", str(out), "--mode", "llm"]
        assert main(argv + ["--schema", str(schema), "--llm-endpoint", f"mock:{script}"]) == 0
        annotated = parse_corpus(out.read_bytes(), IntentSchema.from_record(record))
        assert [u.acts for u in annotated.dialogues[0].utterances] == [(), ()]

    def test_llm_mode_reads_no_rule_files(self, tmp_path):
        src = tmp_path / "raw.ndjson"
        write_corpus(corpus(dlg("d1", "sysA", [utt(0, "USER", text="sure!")])), src)
        script = tmp_path / "script.json"
        script.write_text(json.dumps(["Accept()"]))
        out = tmp_path / "annotated.ndjson"
        missing = ["--catalog", str(tmp_path / "no.json"), "--lexicon", str(tmp_path / "no.tsv")]
        argv = ["annotate", "--input", str(src), "--output", str(out), "--mode", "llm"]
        assert main(argv + missing + ["--llm-endpoint", f"mock:{script}"]) == 0
        assert main(argv[:-2] + missing) == 1  # rule mode does read them

    def test_llm_mock_writes_the_same_bytes_at_any_jobs(self, tmp_path, monkeypatch):
        # The script hands out replies in call order. The delay makes later
        # utterances of a dialogue reach it first whenever threads run them,
        # so only inline annotation keeps the bytes of --jobs 1.
        scripted_transport = connectors.scripted_transport

        def delayed_script(replies):
            transport = scripted_transport(replies)

            def delayed(url, payload, headers):
                content = payload["messages"][-1]["content"]
                turn = int(content.rsplit("Utterance: turn ", 1)[1].split()[0])
                time.sleep(0.01 * (4 - turn))
                return transport(url, payload, headers)

            return delayed

        monkeypatch.setattr(connectors, "scripted_transport", delayed_script)
        src = tmp_path / "raw.ndjson"
        utterances = [utt(i, "USER", text=f"turn {i}") for i in range(4)]
        write_corpus(corpus(dlg("d0", "sysA", utterances), dlg("d1", "sysA", utterances)), src)
        script = tmp_path / "script.json"
        script.write_text(json.dumps(["Accept()", "Reject()", "Disclose()", "Inquire()"] * 2))
        outputs = []
        for jobs in ("1", "4"):
            out = tmp_path / f"jobs{jobs}.ndjson"
            argv = ["annotate", "--input", str(src), "--output", str(out), "--mode", "llm"]
            assert main(argv + ["--llm-endpoint", f"mock:{script}", "--jobs", jobs]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        annotated = parse_corpus((tmp_path / "jobs1.ndjson").read_bytes())
        intents = [u.acts[0].intent for d in annotated.dialogues for u in d.utterances]
        assert intents == ["Accept", "Reject", "Disclose", "Inquire"] * 2

    def test_failed_llm_run_leaves_the_old_output(self, tmp_path, capsys):
        src = tmp_path / "raw.ndjson"
        first = dlg("d1", "sysA", [utt(0, "USER", text="sure!")])
        second = dlg("d2", "sysA", [utt(0, "USER", text="maybe"), utt(1, "SYSTEM", text="ok")])
        write_corpus(corpus(first, second), src)
        script = tmp_path / "script.json"
        script.write_text(json.dumps(["Accept()"]))  # exhausted after d1
        out = tmp_path / "annotated.ndjson"
        out.write_bytes(b"an earlier run\n")
        argv = ["annotate", "--input", str(src), "--output", str(out), "--mode", "llm"]
        assert main(argv + ["--llm-endpoint", f"mock:{script}"]) == 3
        assert "2 utterance(s) failed to annotate: d2[0]" in capsys.readouterr().err
        assert out.read_bytes() == b"an earlier run\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "annotated.ndjson", "raw.ndjson", "script.json"
        ]

    def test_dead_gateway_is_a_connector_failure(self, tmp_path, capsys):
        src = tmp_path / "raw.ndjson"
        write_corpus(bare_corpus(), src)
        out = tmp_path / "annotated.ndjson"
        argv = ["annotate", "--input", str(src), "--output", str(out), "--mode", "llm"]
        assert main(argv + ["--llm-endpoint", "http://127.0.0.1:9/chat"]) == 3
        assert "connector error: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_a_dead_gateway_starts_no_new_utterance(self, tmp_path, monkeypatch, capsys, jobs):
        posts = []

        def refused(url, payload, headers, timeout):
            posts.append(url)
            raise GatewayError(f"request to {url} failed: refused", transient=True)

        monkeypatch.setattr(connectors, "post_json", refused)
        src = tmp_path / "raw.ndjson"
        write_corpus(bare_corpus(), src)  # 18 utterances
        out = tmp_path / "annotated.ndjson"
        argv = ["annotate", "--input", str(src), "--output", str(out), "--mode", "llm"]
        argv += ["--llm-endpoint", "http://127.0.0.1:9/chat", "--jobs", str(jobs)]
        assert main(argv) == 3
        assert "gateway failure: request to http://127.0.0.1:9/chat failed" in capsys.readouterr().err
        assert not out.exists()
        # The first utterance to use up its retries stops the batch; only
        # the up to 4 x jobs utterances already in flight finish.
        if jobs == 1:
            assert len(posts) == 1 + LLM_RETRIES
        else:
            assert len(posts) <= 4 * jobs * (1 + LLM_RETRIES)

    @pytest.mark.parametrize(
        "script, shape",
        [(["Accept()", 1], "array of strings"), ({"0": "Accept()"}, "array")],
        ids=["a-number", "an-object"],
    )
    def test_a_mock_script_of_other_values_is_a_config_error(
        self, tmp_path, capsys, script, shape
    ):
        src = tmp_path / "raw.ndjson"
        write_corpus(bare_corpus(), src)
        path = write_scores(tmp_path / "script.json", script)
        out = tmp_path / "annotated.ndjson"
        argv = ["annotate", "--input", str(src), "--output", str(out), "--mode", "llm"]
        assert main(argv + ["--llm-endpoint", f"mock:{path}"]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: mock script {path} must be a JSON {shape}\n"
        )
        assert not out.exists()

    def test_a_lexicon_line_without_a_cue_is_an_error(self, tmp_path, capsys):
        src = tmp_path / "raw.ndjson"
        write_corpus(bare_corpus(), src)
        lexicon = tmp_path / "lexicon.tsv"
        lexicon.write_text("Accept\tthanks\nReject\t  \n", encoding="utf-8")
        out = tmp_path / "annotated.ndjson"
        argv = ["annotate", "--input", str(src), "--output", str(out), "--lexicon", str(lexicon)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"configuration error: lexicon {lexicon}: line 2: 'Reject\\t  ' "
            "is not an intent, a tab and a cue\n"
        )
        assert not out.exists()

    def test_a_lexicon_intent_no_schema_knows_is_an_error(self, tmp_path, capsys):
        src = tmp_path / "raw.ndjson"
        write_corpus(bare_corpus(), src)
        lexicon = tmp_path / "lexicon.tsv"
        lexicon.write_text("Accept\tthanks\nAcept\tsure thing\n", encoding="utf-8")
        out = tmp_path / "annotated.ndjson"
        argv = ["annotate", "--input", str(src), "--output", str(out), "--lexicon", str(lexicon)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"configuration error: lexicon {lexicon}: intent 'Acept' is in neither "
            "the intent schema nor the simulation schema\n"
        )
        assert not out.exists()

    def test_a_lexicon_may_cue_simulation_intents(self, tmp_path):
        # The bundled lexicon cues Bye, which only the simulation schema has.
        src = tmp_path / "raw.ndjson"
        write_corpus(bare_corpus(), src)
        lexicon = tmp_path / "lexicon.tsv"
        bundled = Path(cli.__file__).with_name("data") / "rule_lexicon.tsv"
        lexicon.write_bytes(bundled.read_bytes())
        out = tmp_path / "annotated.ndjson"
        argv = ["annotate", "--input", str(src), "--output", str(out), "--lexicon", str(lexicon)]
        assert main(argv) == 0

    def test_a_missing_lexicon_is_a_config_error(self, tmp_path, capsys):
        src = tmp_path / "raw.ndjson"
        write_corpus(bare_corpus(), src)
        lexicon = tmp_path / "missing.tsv"
        argv = ["annotate", "--input", str(src), "--output", str(tmp_path / "out")]
        assert main(argv + ["--lexicon", str(lexicon)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: lexicon {lexicon}: ")
        assert "No such file or directory" in err

    def test_format_error_midway_names_the_line_and_writes_nothing(self, tmp_path, capsys):
        src = tmp_path / "raw.ndjson"
        write_corpus(bare_corpus(), src)
        with open(src, "ab") as handle:
            handle.write(b"{oops}\n")
        out = tmp_path / "annotated.ndjson"
        argv = ["annotate", "--input", str(src), "--output", str(out), "--jobs", "2"]
        assert main(argv) == 1
        assert "line 8: invalid JSON" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["raw.ndjson"]

    def test_output_may_be_the_input(self, tmp_path):
        src = tmp_path / "raw.ndjson"
        write_corpus(bare_corpus(), src)
        in_place = tmp_path / "in_place.ndjson"
        in_place.write_bytes(src.read_bytes())
        separate = tmp_path / "separate.ndjson"
        assert main(["annotate", "--input", str(src), "--output", str(separate)]) == 0
        assert main(["annotate", "--input", str(in_place), "--output", str(in_place)]) == 0
        assert in_place.read_bytes() == separate.read_bytes()

    @pytest.mark.parametrize("jobs", ["1", "4"])
    def test_header_written_as_the_corpus_path_writes_it(self, tmp_path, jobs):
        body = serialize_corpus(bare_corpus()).split(b"\n", 1)[1]
        src = tmp_path / "raw.ndjson"
        src.write_bytes(b'{"source":"lab","schema_version":2,"seed":5}\n' + body)
        out = tmp_path / "annotated.ndjson"
        argv = ["annotate", "--input", str(src), "--output", str(out), "--seed", "3"]
        assert main(argv + ["--jobs", jobs]) == 0

        source = parse_corpus(src.read_bytes())
        dialogues = tuple(iter_annotated(source, RuleAnnotator(default_schema())))
        annotated = replace(source, dialogues=dialogues)
        settings = {"command": "annotate", "mode": "rule", "overwrite": False, "seed": 3}
        canonical = json.dumps(settings, sort_keys=True, separators=(",", ":")).encode()
        config_hash = hashlib.sha256(canonical).hexdigest()[:12]
        extra = {**annotated.extra, "seed": 3, "config_hash": config_hash}
        assert out.read_bytes() == serialize_corpus(replace(annotated, extra=extra))
        assert out.read_bytes().startswith(b'{"schema_version":"2","source":"lab","seed":3,')


class TestEvaluate:
    def test_metrics_match_module_values(self, tmp_path, capsys):
        path = tmp_path / "corpus.ndjson"
        write_corpus(small_corpus(), path)
        out = tmp_path / "report.ndjson"
        code = main(
            [
                "evaluate",
                "--input",
                str(path),
                "--output",
                str(out),
                "--metrics",
                "sr,srrr,rdl",
            ]
        )
        assert code == 0
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        header, records = lines[0], lines[1:]
        assert "config_hash" in header and "seed" in header
        by_metric = {r["metric"]: r for r in records}
        assert by_metric["SR"]["per_system"] == {"sysA": 1.0, "sysB": 0.0}
        assert by_metric["SRRR"]["per_system"] == {"sysA": 1.0, "sysB": 0.0}
        assert by_metric["RDL"]["per_system"]["sysA"] == pytest.approx(1 / 3)

    def test_unknown_metric_lists_names(self, tmp_path, capsys):
        path = tmp_path / "corpus.ndjson"
        write_corpus(small_corpus(), path)
        code = main(
            ["evaluate", "--input", str(path), "--output", str(tmp_path / "r"), "--metrics", "zzz"]
        )
        assert code == 2
        err = capsys.readouterr().err
        for name in ("sr", "srrr", "rdl", "recall"):
            assert name in err

    def test_repeated_metric_fails_before_reading_input(self, tmp_path, capsys):
        out = tmp_path / "r"
        argv = ["evaluate", "--input", str(tmp_path / "missing.ndjson"), "--output", str(out)]
        assert main(argv + ["--metrics", "sr,SR"]) == 2
        assert "configuration error: repeated metric 'sr'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("metrics", ["", ",", " , "])
    def test_no_metric_fails_before_reading_input(self, tmp_path, capsys, metrics):
        # An empty --metrics once read the whole corpus and wrote a report
        # with a header alone, which compare rejects.
        out = tmp_path / "r"
        argv = ["evaluate", "--input", str(tmp_path / "missing.ndjson"), "--output", str(out)]
        assert main(argv + ["--metrics", metrics]) == 2
        assert capsys.readouterr().err == (
            "configuration error: --metrics names no metric; "
            "valid names: sr, srrr, rdl, recall\n"
        )
        assert not out.exists()

    def test_empty_corpus_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "empty.ndjson"
        path.write_text('{"schema_version":"1"}\n')
        code = main(
            ["evaluate", "--input", str(path), "--output", str(tmp_path / "r")]
        )
        assert code == 1
        assert "no dialogues" in capsys.readouterr().err

    def test_multiple_inputs_merge(self, tmp_path):
        c = small_corpus()
        first = tmp_path / "a.ndjson"
        second = tmp_path / "b.ndjson"
        write_corpus(corpus(c.dialogues[0]), first)
        write_corpus(corpus(c.dialogues[1]), second)
        out = tmp_path / "report.ndjson"
        code = main(
            [
                "evaluate",
                "--input",
                str(first),
                "--input",
                str(second),
                "--output",
                str(out),
                "--metrics",
                "sr",
            ]
        )
        assert code == 0
        records = [json.loads(l) for l in out.read_text().splitlines()][1:]
        assert set(records[0]["per_system"]) == {"sysA", "sysB"}

    def test_recall_without_ground_truth_fails_before_reading_input(self, tmp_path, capsys):
        code = main(
            [
                "evaluate",
                "--input",
                str(tmp_path / "missing.ndjson"),
                "--output",
                str(tmp_path / "r"),
                "--metrics",
                "recall",
            ]
        )
        assert code == 2
        assert "--ground-truth" in capsys.readouterr().err

    def test_recall_with_ground_truth(self, tmp_path, capsys):
        path = tmp_path / "corpus.ndjson"
        write_corpus(small_corpus(), path)
        truth_path = write_scores(tmp_path / "truth.json", {"d1": {"1": ["Alpha"]}})
        out = tmp_path / "report.ndjson"
        argv = ["evaluate", "--input", str(path), "--output", str(out), "--metrics", "recall"]
        assert main(argv + ["--ground-truth", truth_path]) == 0
        records = [json.loads(l) for l in out.read_text().splitlines()][1:]
        by_metric = {r["metric"]: r["per_system"] for r in records}
        assert by_metric["Recall@1[standard]"] == {"sysA": 1.0, "sysB": 0.0}
        assert by_metric["Recall@1[length_normalized]"]["sysA"] == pytest.approx(1 / 3)
        assert "Recall@1[standard]\tsysA\t1.000000" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "truth",
        [
            [["d1", 1, ["Alpha"]]],
            {"d1": ["Alpha"]},
            {"d1": {"1": "Alpha"}},
            {"d1": {"x": ["Alpha"]}},
        ],
        ids=["array", "turns-not-an-object", "bare-string-target", "non-integer-index"],
    )
    def test_malformed_ground_truth_is_a_configuration_error(self, truth, tmp_path, capsys):
        path = tmp_path / "corpus.ndjson"
        write_corpus(small_corpus(), path)
        truth_path = write_scores(tmp_path / "truth.json", truth)
        argv = ["evaluate", "--input", str(path), "--output", str(tmp_path / "r")]
        assert main(argv + ["--metrics", "recall", "--ground-truth", truth_path]) == 2
        assert truth_path in capsys.readouterr().err

    @pytest.mark.parametrize("index", ["01", "\u0661", "+1", " 1", "1 ", "00"])
    def test_a_turn_index_has_one_spelling(self, tmp_path, capsys, index):
        # "01" once silently replaced "1", and the Arabic-Indic digit one read as turn 1.
        path = tmp_path / "corpus.ndjson"
        write_corpus(small_corpus(), path)
        truth = {"d1": {"1": ["Alpha"], index: ["Beta"]}}
        truth_path = write_scores(tmp_path / "truth.json", truth)
        argv = ["evaluate", "--input", str(path), "--output", str(tmp_path / "r")]
        assert main(argv + ["--metrics", "recall", "--ground-truth", truth_path]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: ground truth {truth_path}: index {index!r} of 'd1' is not "
            "a non-negative integer in ASCII digits without leading zeros\n"
        )
        # Zero and a number ending in zero are spelt by their ASCII digits.
        truth_path = write_scores(tmp_path / "good.json", {"d1": {"0": ["Alpha"], "10": ["Beta"]}})
        assert _load_ground_truth(truth_path) == {("d1", 0): ("Alpha",), ("d1", 10): ("Beta",)}

    def test_an_empty_target_id_is_a_configuration_error(self, tmp_path, capsys):
        # No turn can recommend "", so such a target read a hit on Alpha as recall 0.5.
        path = tmp_path / "corpus.ndjson"
        write_corpus(small_corpus(), path)
        truth_path = write_scores(tmp_path / "truth.json", {"d1": {"1": ["Alpha", ""]}})
        out = tmp_path / "r"
        argv = ["evaluate", "--input", str(path), "--output", str(out), "--metrics", "recall"]
        assert main(argv + ["--ground-truth", truth_path]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: ground truth {truth_path}: (d1, 1) must be an array "
            "of non-empty item ids\n"
        )
        assert not out.exists()

    def test_a_repeated_dialogue_id_is_a_configuration_error(self, tmp_path, capsys):
        # json.loads kept the last entry: turn 1's target was dropped, and
        # recall skipped that turn.
        path = tmp_path / "corpus.ndjson"
        write_corpus(small_corpus(), path)
        truth_path = tmp_path / "truth.json"
        truth_path.write_text('{"d1": {"1": ["Alpha"]}, "d1": {"4": ["Beta"]}}')
        out = tmp_path / "r"
        argv = ["evaluate", "--input", str(path), "--output", str(out), "--metrics", "recall"]
        assert main(argv + ["--ground-truth", str(truth_path)]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: ground truth {truth_path}: repeated dialogue id 'd1'\n"
        )
        assert not out.exists()

    def test_a_repeated_turn_index_is_a_configuration_error(self, tmp_path, capsys):
        # The entry's object was decoded whole and kept the last value: turn
        # 1's target Alpha was dropped without a word.
        path = tmp_path / "corpus.ndjson"
        write_corpus(small_corpus(), path)
        truth_path = tmp_path / "truth.json"
        truth_path.write_text('{"d1": {"1": ["Alpha"], "4": ["Beta"], "1": ["Beta"]}}')
        out = tmp_path / "r"
        argv = ["evaluate", "--input", str(path), "--output", str(out), "--metrics", "recall"]
        assert main(argv + ["--ground-truth", str(truth_path)]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: ground truth {truth_path}: index '1' of 'd1' is repeated\n"
        )
        assert not out.exists()
        # A JSON syntax fault after it still outranks it.
        truth_path.write_text('{"d1": {"1": ["Alpha"], "1": ["Beta"]}, }')
        with pytest.raises(cli.ConfigError, match=f"cannot read ground truth {truth_path}: Expecting"):
            _load_ground_truth(str(truth_path))

    def test_a_repeated_target_id_counts_once(self, tmp_path, capsys):
        path = tmp_path / "corpus.ndjson"
        write_corpus(small_corpus(), path)
        truth = {"d1": {"1": ["Alpha", "Alpha", "Beta"]}}
        truth_path = write_scores(tmp_path / "truth.json", truth)
        out = tmp_path / "report.ndjson"
        argv = ["evaluate", "--input", str(path), "--output", str(out), "--metrics", "recall"]
        assert main(argv + ["--ground-truth", truth_path]) == 0
        standard = json.loads(out.read_text().splitlines()[1])
        assert standard["per_system"]["sysA"] == 0.5

    @pytest.mark.parametrize("metrics", ["sr", "recall"])
    @pytest.mark.parametrize("n", [0, -2])
    def test_n_below_one_fails_before_reading_input(self, tmp_path, capsys, metrics, n):
        out = tmp_path / "r"
        argv = ["evaluate", "--input", str(tmp_path / "missing.ndjson"), "--output", str(out)]
        argv += ["--ground-truth", str(tmp_path / "missing.json")]
        assert main(argv + ["--metrics", metrics, "--n", str(n)]) == 2
        assert f"configuration error: n must be at least 1, not {n}" in capsys.readouterr().err
        assert not out.exists()

    def test_a_report_carries_its_own_version(self, tmp_path):
        body = serialize_corpus(small_corpus()).split(b"\n", 1)[1]
        reports = []
        for version in ("1", "2"):
            path = tmp_path / f"corpus{version}.ndjson"
            path.write_bytes(b'{"schema_version":%s}\n' % version.encode() + body)
            reports.append(tmp_path / f"report{version}.ndjson")
            assert main(["evaluate", "--input", str(path), "--output", str(reports[-1])]) == 0
        assert reports[1].read_bytes().startswith(b'{"schema_version":"1",')
        assert reports[1].read_bytes() == reports[0].read_bytes()

    def test_duplicate_id_across_inputs_names_file_and_line(self, tmp_path, capsys):
        path = tmp_path / "a.ndjson"
        write_corpus(small_corpus(), path)
        argv = ["evaluate", "--input", str(path), "--input", str(path)]
        assert main(argv + ["--output", str(tmp_path / "r")]) == 1
        assert f"line 2: duplicate dialogue_id 'd1' in {path}" in capsys.readouterr().err


class TestStreaming:
    def test_ingest_and_evaluate_never_parse_a_whole_corpus(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("parse_corpus called")

        monkeypatch.setattr("evalkit.corpus_io.parse_corpus", refuse)
        path = tmp_path / "corpus.ndjson"
        write_corpus(small_corpus(), path)
        assert main(["ingest", "--input", str(path)]) == 0
        assert main(["evaluate", "--input", str(path), "--output", str(tmp_path / "r")]) == 0

    def test_annotate_never_builds_a_corpus(self, tmp_path, monkeypatch):
        path = tmp_path / "corpus.ndjson"
        write_corpus(small_corpus(), path)

        def refuse(*args, **kwargs):
            raise AssertionError("Corpus built")

        monkeypatch.setattr(Corpus, "__post_init__", refuse)
        out = tmp_path / "annotated.ndjson"
        assert main(["annotate", "--input", str(path), "--output", str(out)]) == 0
        assert main(["annotate", "--input", str(out), "--output", str(out), "--jobs", "2"]) == 0

    def test_the_ground_truth_is_held_once_while_it_is_read(self, tmp_path):
        rng = random.Random(7)
        titles = [f"Title {number}" for number in range(2000)]
        truth = {
            f"h{number:06d}": {
                str(1 + 3 * turn): rng.sample(titles, rng.randint(1, 2))
                for turn in range(rng.randint(1, 2))
            }
            for number in range(20000)
        }
        path = tmp_path / "truth.json"
        path.write_text(json.dumps(truth, separators=(",", ":")))
        mapping, peak, held = traced(_load_ground_truth, str(path))
        assert len(mapping) == sum(map(len, truth.values()))
        # Decoding the whole file first peaked at 1.9 times what the
        # result holds; one entry at a time, the text and the result remain.
        assert peak <= 1.5 * held

    @needs_handed_over_arguments
    def test_evaluate_frees_the_ground_truth_before_it_builds_the_reports(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "corpus.ndjson"
        write_corpus(small_corpus(), path)
        truth_path = write_scores(tmp_path / "truth.json", {"d1": {"1": ["Alpha"]}})
        probe = TruthProbe(monkeypatch)
        load = _load_ground_truth
        monkeypatch.setattr(cli, "_load_ground_truth", lambda path: probe.truth(load(path)))
        argv = ["evaluate", "--input", str(path), "--output", str(tmp_path / "r")]
        assert main(argv + ["--metrics", "sr,recall", "--ground-truth", truth_path]) == 0
        assert probe.freed_at_reports == [True]

    def test_compare_reads_a_report_one_record_at_a_time(self, tmp_path):
        per_dialogue = {f"h{number:06d}": number / 20000 for number in range(20000)}
        lines = [json.dumps({"schema_version": "1", "seed": 0, "config_hash": "0"})]
        for metric in ("SR", "SRRR", "RDL", "Other"):
            record = {"metric": metric, "aggregation": "macro", "per_system": {"A": 0.5}}
            lines.append(json.dumps({**record, "per_dialogue": per_dialogue, "warnings": []}))
        report = tmp_path / "report.ndjson"
        report.write_text("\n".join(lines) + "\n")
        _, _, one = traced(json.loads, lines[1])
        scores, peak, _ = traced(cli._read_score_map, str(report), "RDL")
        assert scores == {"A": 0.5}
        # Keeping every decoded record peaked at over five times one record.
        assert peak < 2 * one

    def test_evaluate_writes_each_report_record_before_it_builds_the_next(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "corpus.ndjson"
        write_corpus(small_corpus(), path)
        events = []
        to_record, line = MetricReport.to_record, corpus_io._line
        monkeypatch.setattr(
            MetricReport, "to_record", lambda report: events.append(report.metric) or to_record(report)
        )
        monkeypatch.setattr(corpus_io, "_line", lambda record: events.append("written") or line(record))
        assert main(["evaluate", "--input", str(path), "--output", str(tmp_path / "r")]) == 0
        assert events == ["written", "SR", "written", "SRRR", "written", "RDL", "written"]


# Ids and targets that probe the entry walk: quotes, backslashes, control
# characters and non-ASCII text, escaped or not.
truth_strings = st.text(st.sampled_from('Ab"\\\n\x00é☃:,{}[] '), max_size=4)
turn_entries = st.dictionaries(
    st.sampled_from(["0", "1", "4", "10"]), st.lists(truth_strings.filter(bool), max_size=3),
    max_size=3,
)
json_space = st.sampled_from(["", " ", "\n", " \t\r\n "])


@st.composite
def ground_truth_texts(draw):
    """A ground-truth file in varied layouts, maybe mutated afterwards."""
    members = list(draw(st.dictionaries(truth_strings, turn_entries, max_size=4)).items())
    ascii_only = draw(st.booleans())

    def spaced(text: str) -> str:
        return draw(json_space) + text + draw(json_space)

    def rendered_members(pairs) -> list[str]:
        return [
            spaced(json.dumps(name, ensure_ascii=ascii_only)) + ":" + spaced(render(value))
            for name, value in pairs
        ]

    def render(value) -> str:
        if isinstance(value, (dict, tuple)):  # a tuple holds an object's members
            members = value.items() if isinstance(value, dict) else value
            return "{" + (",".join(rendered_members(members)) or draw(json_space)) + "}"
        if isinstance(value, list):
            return "[" + (",".join(spaced(render(v)) for v in value) or draw(json_space)) + "]"
        return json.dumps(value, ensure_ascii=ascii_only)

    mutation = draw(st.sampled_from([
        "none", "none", "none", "repeated id", "bad entry", "bad index", "bad target",
        "repeated index", "truncate", "stray", "trailing", "bom", "bad entry then syntax error",
    ]))
    bad = {
        "bad entry": ["x"], "bad index": {"01": ["A"]}, "bad target": {"1": ["A", ""]},
        # Members in file order: "4" comes twice, and a bad index may follow.
        "repeated index": (("4", ["A"]), ("1", ["B"]), ("4", ["C"]), draw(st.sampled_from(
            [("0", ["D"]), ("01", ["D"])]
        ))),
    }
    if mutation == "repeated id" and members:
        members.insert(draw(st.integers(0, len(members))), (members[0][0], {"2": ["B"]}))
    elif mutation in bad:
        members.insert(draw(st.integers(0, len(members))), ('"bad"', bad[mutation]))
    body = rendered_members(members)
    text = spaced("{" + (",".join(body) or draw(json_space)) + "}")
    if mutation == "truncate":
        text = text[: draw(st.integers(0, len(text)))]
    elif mutation == "stray":
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(list('x,]}[{": '))) + text[at:]
    elif mutation == "trailing":
        text += draw(st.sampled_from(["x", "}", "{}", ",", " 0"]))
    elif mutation == "bom":
        text = "\ufeff" + text
    elif mutation == "bad entry then syntax error":
        text = '{"d0": []' + "".join("," + part for part in body) + ",}"
    return text


class TestGroundTruthAgainstOracle:
    @settings(max_examples=300)
    @given(ground_truth_texts())
    def test_equals_decoding_the_whole_text_first(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "oracle_truth.json"
        path.write_bytes(text.encode("utf-8"))
        try:
            outcome = _load_ground_truth(str(path))
        except cli.ConfigError as exc:
            outcome = str(exc)
        assert outcome == oracle_ground_truth(text, str(path))

    @pytest.mark.parametrize(
        "text",
        ["{}", " { } ", '{"d1": {}}', '{"d\\"1\\u00e9": {"0": []}}', '\t{\r\n"d1"\n:\t{ "1" : [ "A" ] } }'],
        ids=["empty", "empty-spaced", "empty-entry", "escaped-id", "spaced"],
    )
    def test_edge_layouts_equal_decoding_the_whole_text_first(self, tmp_path, text):
        path = tmp_path / "truth.json"
        path.write_bytes(text.encode("utf-8"))
        assert _load_ground_truth(str(path)) == oracle_ground_truth(text, str(path))


def one_dialogue_file(path, **fields) -> str:
    """A corpus file of small_corpus()'s first dialogue with ``fields`` set."""
    record = {**dialogue_record(small_corpus().dialogues[0]), **fields}
    path.write_text('{"schema_version":"1"}\n' + json.dumps(record) + "\n")
    return str(path)


class TestCorpusFieldTypes:
    def test_a_numeric_crs_id_is_counted_as_its_string(self, tmp_path, capsys):
        path = one_dialogue_file(tmp_path / "corpus.ndjson", crs_id=5)
        assert main(["ingest", "--input", path]) == 0
        assert capsys.readouterr().out.splitlines()[1].split() == ["5", "1"]

    @pytest.mark.parametrize("command", ["ingest", "evaluate"])
    def test_an_array_crs_id_is_a_format_error(self, command, tmp_path, capsys):
        path = one_dialogue_file(tmp_path / "corpus.ndjson", crs_id=["a"])
        argv = [command, "--input", path]
        if command == "evaluate":
            argv += ["--output", str(tmp_path / "report.ndjson")]
        assert main(argv) == 1
        assert "line 2: 'crs_id' must be a string, not an array" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["ingest", "annotate", "evaluate"])
    @pytest.mark.parametrize(
        "version, kind", [("null", "null"), ("true", "a boolean"), ("{}", "an object")]
    )
    def test_a_version_that_is_not_a_string_or_number_is_a_format_error(
        self, command, version, kind, tmp_path, capsys
    ):
        path = tmp_path / "corpus.ndjson"
        body = serialize_corpus(small_corpus()).split(b"\n", 1)[1]
        path.write_bytes(b'{"schema_version":%s}\n' % version.encode() + body)
        out = tmp_path / "out.ndjson"
        argv = [command, "--input", str(path)]
        assert main(argv if command == "ingest" else argv + ["--output", str(out)]) == 1
        detail = f"line 1: 'schema_version' must be a string, not {kind}"
        # annotate reads one stream, whose file the user has just named.
        where = "" if command == "annotate" else f" in {path}"
        assert capsys.readouterr().err == f"error: {detail}{where}\n"
        assert not out.exists()

    def test_a_numeric_text_is_a_format_error_in_annotate(self, tmp_path, capsys):
        record = dialogue_record(small_corpus().dialogues[0])
        # Unannotated, so that annotate reads the text.
        record["utterances"][0].update(text=5, acts=[])
        path = one_dialogue_file(tmp_path / "corpus.ndjson", utterances=record["utterances"])
        out = tmp_path / "annotated.ndjson"
        assert main(["annotate", "--input", path, "--output", str(out)]) == 1
        assert "line 2: 'text' must be a string, not a number" in capsys.readouterr().err
        assert not out.exists()


class TestSimulate:
    def test_abus_against_stub_is_reproducible(self, tmp_path, catalog_file):
        args = [
            "simulate",
            "--simulator",
            "abus",
            "--crs",
            "stub:always-recommend",
            "--catalog",
            catalog_file,
            "-n",
            "3",
            "--seed",
            "21",
        ]
        first = tmp_path / "one.ndjson"
        second = tmp_path / "two.ndjson"
        assert main(args + ["--output", str(first)]) == 0
        assert main(args + ["--output", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        generated = parse_corpus(first.read_bytes(), simulation_schema())
        assert len(generated) == 3
        assert all(d.provenance == "simulated" for d in generated.dialogues)

    def test_llmus_with_mock_script_is_byte_identical(self, tmp_path, catalog_file):
        script = tmp_path / "script.json"
        script.write_text(
            json.dumps(
                [
                    "Hi, I'm looking for a comedy.",
                    "continue",
                    "Great, I'll watch Midnight Run. Thanks!",
                    "abort: satisfied",
                ]
            )
        )
        args = [
            "simulate",
            "--simulator",
            "llm-us",
            "--crs",
            "stub:always-recommend",
            "--catalog",
            catalog_file,
            "-n",
            "2",
            "--seed",
            "3",
            "--llm-endpoint",
            f"mock:{script}",
        ]
        first = tmp_path / "one.ndjson"
        second = tmp_path / "two.ndjson"
        assert main(args + ["--output", str(first)]) == 0
        assert main(args + ["--output", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        generated = parse_corpus(first.read_bytes(), simulation_schema())
        assert len(generated) == 2
        assert all(d.simulator_id == "llm-us" for d in generated.dialogues)

    def test_default_batch_size_is_200(self, tmp_path, catalog_file):
        out = tmp_path / "batch.ndjson"
        code = main(
            [
                "simulate",
                "--simulator",
                "abus",
                "--crs",
                "stub:goodbye",
                "--catalog",
                catalog_file,
                "--output",
                str(out),
            ]
        )
        assert code == 0
        assert len(parse_corpus(out.read_bytes(), simulation_schema())) == 200

    def test_limits_from_config_file(self, tmp_path, catalog_file):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"n": 2, "seed": 33, "max_utterances": 4}))
        out = tmp_path / "sim.ndjson"
        code = main(
            [
                "simulate",
                "--simulator",
                "abus",
                "--crs",
                "stub:always-recommend",
                "--catalog",
                catalog_file,
                "--config",
                str(config),
                "--output",
                str(out),
            ]
        )
        assert code == 0
        generated = parse_corpus(out.read_bytes(), simulation_schema())
        assert len(generated) == 2
        assert all(len(d) <= 4 for d in generated.dialogues)
        assert generated.extra["seed"] == 33
        # A flag still beats the config file.
        out2 = tmp_path / "sim2.ndjson"
        assert (
            main(
                [
                    "simulate",
                    "--simulator",
                    "abus",
                    "--crs",
                    "stub:always-recommend",
                    "--catalog",
                    catalog_file,
                    "--config",
                    str(config),
                    "-n",
                    "1",
                    "--output",
                    str(out2),
                ]
            )
            == 0
        )
        assert len(parse_corpus(out2.read_bytes(), simulation_schema())) == 1

    @pytest.mark.parametrize(
        "key, value, kind",
        [
            ("n", [1], "an integer"),
            ("seed", 1.5, "an integer"),
            ("jobs", True, "an integer"),
            ("max_utterances", "4", "an integer"),
            ("timeout", "5", "a number"),
            ("llm_endpoint", 5, "a string"),
            ("llm_model", None, "a string"),
        ],
    )
    def test_config_value_of_the_wrong_type_is_a_config_error(
        self, tmp_path, catalog_file, capsys, monkeypatch, key, value, kind
    ):
        monkeypatch.delenv("EVALKIT_LLM_ENDPOINT", raising=False)
        config = tmp_path / "run.json"
        config.write_text(json.dumps({key: value}))
        argv = ["simulate", "--simulator", "llm-us", "--crs", "stub:echo", "--catalog", catalog_file]
        assert main(argv + ["--config", str(config), "--output", str(tmp_path / "x")]) == 2
        assert f"config file {config}: {key!r} must be {kind}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, flag, value, message",
        [
            ("n", "-n", 0, "n must be at least 1, not 0"),
            ("n", "-n", -1, "n must be at least 1, not -1"),
            ("jobs", "--jobs", -3, "jobs must be at least 1, not -3"),
            ("max_utterances", "--max-utterances", 1, "max_utterances must be at least 2, not 1"),
            ("timeout", "--timeout", 0, "timeout must be a finite positive number, not 0.0"),
            ("timeout", "--timeout", -2.5, "timeout must be a finite positive number, not -2.5"),
            ("timeout", "--timeout", float("nan"), "timeout must be a finite positive number, not nan"),
            ("timeout", "--timeout", float("inf"), "timeout must be a finite positive number, not inf"),
        ],
    )
    def test_out_of_range_setting_is_a_config_error(
        self, tmp_path, catalog_file, capsys, key, flag, value, message
    ):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({key: value}))
        out = tmp_path / "sim.ndjson"
        argv = ["simulate", "--simulator", "abus", "--crs", "stub:echo"]
        argv += ["--catalog", catalog_file, "--output", str(out)]
        for source in (["--config", str(config)], [flag, str(value)]):
            assert main(argv + source) == 2
            assert f"configuration error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_a_timeout_too_large_for_a_float_is_a_config_error(
        self, tmp_path, catalog_file, capsys
    ):
        # It once crashed with OverflowError.
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"timeout": 10**400}))
        out = tmp_path / "sim.ndjson"
        argv = ["simulate", "--simulator", "abus", "--crs", "stub:echo", "--catalog", catalog_file]
        assert main(argv + ["--config", str(config), "--output", str(out)]) == 2
        message = f"timeout must be a finite positive number, not {10**400}"
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--constraint-slots", "nosuch", "slot 'nosuch' is not present in the catalog"),
            ("--request-slots", "genre,nosuch", "slot 'nosuch' is not present in the catalog"),
            ("--constraint-slots", ",", "goal config needs at least one constraint slot"),
            ("--constraint-slots", "genre,genre", "constraint slot 'genre' is repeated"),
            ("--request-slots", "year,year,year", "request slot 'year' is repeated"),
        ],
    )
    def test_unusable_slot_flag_is_a_config_error(
        self, tmp_path, catalog_file, capsys, flag, value, message
    ):
        out = tmp_path / "sim.ndjson"
        argv = ["simulate", "--simulator", "abus", "--crs", "stub:echo", "--catalog", catalog_file]
        assert main(argv + [flag, value, "--output", str(out)]) == 2
        assert f"configuration error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_request_slots_may_name_none(self, tmp_path, catalog_file):
        out = tmp_path / "sim.ndjson"
        argv = ["simulate", "--simulator", "abus", "--crs", "stub:echo", "--catalog", catalog_file]
        assert main(argv + ["-n", "3", "--request-slots", ",", "--output", str(out)]) == 0
        assert all(not d.goal.requests for d in parse_corpus(out.read_bytes(), simulation_schema()).dialogues)

    def test_interaction_model_file(self, tmp_path, catalog_file):
        # Once the goal's planned disclosures and questions are out, every
        # system intent is answered with Inquire, so no one says Bye (the
        # bundled model ends each of these dialogues with Bye).
        model = tmp_path / "model.tsv"
        rows = ["# a sampled user turn only ever asks", "system_intent\tDisclose\tInquire"]
        rows += ["__start__\t1\t0", ""]
        rows += [f"{intent}\t0\t1" for intent in sorted(simulation_schema().system_intents)]
        model.write_text("\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "sim.ndjson"
        argv = ["simulate", "--simulator", "abus", "--crs", "stub:echo", "--catalog", catalog_file]
        argv += ["-n", "5", "--interaction-model", str(model), "--output", str(out)]
        assert main(argv) == 0
        generated = parse_corpus(out.read_bytes(), simulation_schema())
        assert all(d.extra["termination_reason"] != "simulator-stop" for d in generated.dialogues)
        user_intents = {
            a.intent for d in generated.dialogues for u in d.utterances for a in u.acts
        }
        assert user_intents == {"Disclose", "Inquire"}

    def test_interaction_model_with_a_repeated_name_is_an_error(
        self, tmp_path, catalog_file, capsys
    ):
        model = tmp_path / "model.tsv"
        model.write_text("s\tDisclose\tDisclose\n__start__\t0.5\t0.5\n", encoding="utf-8")
        out = tmp_path / "sim.ndjson"
        argv = ["simulate", "--simulator", "abus", "--crs", "stub:echo", "--catalog", catalog_file]
        assert main(argv + ["--interaction-model", str(model), "--output", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: interaction model {model}: "
            "line 1: interaction model column 'Disclose' is repeated\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, detail",
        [
            (
                "s\tDisclose\n__start__\t1\nFlyToMoon\t1\n",
                "interaction model row 'FlyToMoon' is not a system intent",
            ),
            (
                "s\tDisclose\tFlyToMoon\n__start__\t1\t0\nRecommend\t1\t0\n",
                "interaction model references unknown user intent 'FlyToMoon'",
            ),
            ("# only a comment\n\n", "interaction model file is empty"),
            (
                "# rows\ns\tDisclose\n\n__start__\t1\nRecommend\t0.5\n",
                "line 5: row 'Recommend' sums to 0.5, expected 1",
            ),
            ("s\tDisclose\n__start__\tlots\n", "line 2: could not convert string to float: 'lots'"),
        ],
        ids=["row", "column", "empty", "sum", "number"],
    )
    def test_an_interaction_model_outside_the_schema_is_an_error(
        self, tmp_path, catalog_file, capsys, text, detail
    ):
        model = tmp_path / "model.tsv"
        model.write_text(text, encoding="utf-8")
        out = tmp_path / "sim.ndjson"
        argv = ["simulate", "--simulator", "abus", "--crs", "stub:echo", "--catalog", catalog_file]
        assert main(argv + ["--interaction-model", str(model), "--output", str(out)]) == 2
        assert capsys.readouterr().err == f"configuration error: interaction model {model}: {detail}\n"
        assert not out.exists()

    def test_unknown_stub_is_config_error(self, tmp_path, catalog_file, capsys):
        code = main(
            [
                "simulate",
                "--simulator",
                "abus",
                "--crs",
                "stub:nonsense",
                "--catalog",
                catalog_file,
                "-n",
                "1",
                "--output",
                str(tmp_path / "x"),
            ]
        )
        assert code == 1  # unknown stub surfaces as a validation error

    def test_llmus_without_endpoint_is_config_error(
        self, tmp_path, catalog_file, capsys, monkeypatch
    ):
        monkeypatch.delenv("EVALKIT_LLM_ENDPOINT", raising=False)
        argv = ["simulate", "--simulator", "llm-us", "--crs", "stub:echo"]
        argv += ["--catalog", catalog_file]
        assert main(argv + ["--output", str(tmp_path / "x")]) == 2
        assert "llm-us needs an endpoint" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_unreachable_endpoint_all_fail_exits_three(self, tmp_path, catalog_file, capsys):
        code = main(
            [
                "simulate",
                "--simulator",
                "abus",
                "--crs",
                "http://127.0.0.1:9/chat",
                "--catalog",
                catalog_file,
                "-n",
                "2",
                "--output",
                str(tmp_path / "x"),
            ]
        )
        assert code == 3
        assert "connector" in capsys.readouterr().err.lower()

    @pytest.mark.parametrize("flag, timeout", [([], 30.0), (["--timeout", "7"], 7.0)])
    def test_timeout_bounds_each_crs_call(self, tmp_path, catalog_file, monkeypatch, flag, timeout):
        import requests

        class Goodbye:
            status_code = 200

            def json(self):
                return {"reply": "Goodbye!", "end": True}

        timeouts = []

        def post(url, **kwargs):
            timeouts.append(kwargs["timeout"])
            return Goodbye()

        monkeypatch.setattr(requests, "post", post)
        argv = ["simulate", "--simulator", "abus", "--crs", "http://crs.local/chat"]
        argv += ["--catalog", catalog_file, "-n", "2", "--output", str(tmp_path / "x")]
        assert main(argv + flag) == 0
        assert timeouts == [timeout, timeout]


class TestCompare:
    def test_identical_inputs_give_tau_one_and_zero_diffs(self, tmp_path):
        scores = {"A": 0.3, "B": 0.1}
        ref = write_scores(tmp_path / "ref.json", scores)
        sat = write_scores(tmp_path / "sat.json", {"A": 0.9, "B": 0.2})
        out = tmp_path / "rel.ndjson"
        code = main(
            [
                "compare",
                "--candidate",
                f"self={ref}",
                "--reference",
                ref,
                "--satisfaction",
                sat,
                "--output",
                str(out),
            ]
        )
        assert code == 0
        record = [json.loads(l) for l in out.read_text().splitlines()][1]
        report = ReliabilityReport.from_record(record)
        assert report.tau_b_vs_satisfaction == 1.0
        assert report.average_abs_diff == 0.0

    def test_disjoint_system_sets_exit_one(self, tmp_path, capsys):
        ref = write_scores(tmp_path / "ref.json", {"A": 0.3})
        cand = write_scores(tmp_path / "cand.json", {"B": 0.1})
        sat = write_scores(tmp_path / "sat.json", {"A": 0.9, "B": 0.2})
        code = main(
            [
                "compare",
                "--candidate",
                f"c={cand}",
                "--reference",
                ref,
                "--satisfaction",
                sat,
                "--output",
                str(tmp_path / "o"),
            ]
        )
        assert code == 1
        assert "'reference' and candidate 'c' share no systems" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, detail",
        [(b"{not json}", "line 5: invalid JSON"), (b'{"metric":"X"}', "missing field 'aggregation'")],
    )
    def test_malformed_report_line_is_a_config_error(self, tmp_path, capsys, line, detail):
        path = tmp_path / "corpus.ndjson"
        write_corpus(small_corpus(), path)
        report = tmp_path / "report.ndjson"
        assert main(["evaluate", "--input", str(path), "--output", str(report)]) == 0
        with open(report, "ab") as handle:
            handle.write(line + b"\n")
        ref = write_scores(tmp_path / "ref.json", {"sysA": 0.4, "sysB": 0.1})
        sat = write_scores(tmp_path / "sat.json", {"sysA": 0.8, "sysB": 0.3})
        argv = ["compare", "--candidate", f"mine={report}", "--metric", "RDL"]
        argv += ["--reference", ref, "--satisfaction", sat, "--output", str(tmp_path / "rel")]
        assert main(argv) == 2
        assert f"cannot parse scores from {report}: {detail}" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--metric", "RDL"], []], ids=["metric", "no-metric"])
    @pytest.mark.parametrize(
        "fields, detail",
        [
            ({"metric": 5}, "'metric' must be a string, not 5"),
            ({"aggregation": ["macro"]}, "'aggregation' must be a string, not ['macro']"),
            ({"per_system": [["sysA", 0.4]]}, "'per_system' must be an object, not [['sysA', 0.4]]"),
            ({"per_dialogue": [["d1", 1]]}, "'per_dialogue' must be an object, not [['d1', 1]]"),
            ({"warnings": "abc"}, "'warnings' must be an array of strings, not 'abc'"),
            ({"warnings": ["a", 1]}, "'warnings' must be an array of strings, not ['a', 1]"),
        ],
        ids=["metric", "aggregation", "per_system", "per_dialogue", "warnings", "warning"],
    )
    def test_a_report_field_of_the_wrong_type_is_a_config_error(
        self, tmp_path, capsys, flags, fields, detail
    ):
        # A numeric metric raised AttributeError with --metric, and two of
        # them a TypeError without it.
        record = {"metric": "RDL", "aggregation": "macro", "per_system": {"sysA": 0.4}, **fields}
        report = tmp_path / "report.ndjson"
        lines = [{"schema_version": "1"}, record, record]
        report.write_text("".join(json.dumps(line) + "\n" for line in lines))
        ref = write_scores(tmp_path / "ref.json", {"sysA": 0.4, "sysB": 0.1})
        sat = write_scores(tmp_path / "sat.json", {"sysA": 0.8, "sysB": 0.3})
        argv = ["compare", "--candidate", f"mine={report}", "--reference", ref]
        argv += ["--satisfaction", sat, "--output", str(tmp_path / "rel")] + flags
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"configuration error: cannot parse scores from {report}: {detail}\n"
        )

    @pytest.mark.parametrize(
        "flags, metrics, detail",
        [
            (["--metric", "recall"], "sr,rdl", "metric 'recall' not in report file {} (has: SR, RDL)"),
            ([], "sr,rdl", "report file {} holds several metrics (SR, RDL); use --metric"),
            (["--metric", "SR"], "", "no metric records in report file {}"),
        ],
        ids=["metric-absent", "several-metrics", "no-metric-records"],
    )
    def test_report_file_without_one_metric_is_a_config_error(
        self, tmp_path, capsys, flags, metrics, detail
    ):
        path = tmp_path / "corpus.ndjson"
        write_corpus(small_corpus(), path)
        report = tmp_path / "report.ndjson"
        if metrics:
            argv = ["evaluate", "--input", str(path), "--output", str(report), "--metrics", metrics]
            assert main(argv) == 0
        else:  # evaluate refuses an empty --metrics: a header alone
            report.write_text('{"schema_version":"1"}\n')
        ref = write_scores(tmp_path / "ref.json", {"sysA": 0.4, "sysB": 0.1})
        sat = write_scores(tmp_path / "sat.json", {"sysA": 0.8, "sysB": 0.3})
        argv = ["compare", "--candidate", f"mine={report}", *flags]
        argv += ["--reference", ref, "--satisfaction", sat, "--output", str(tmp_path / "rel")]
        assert main(argv) == 2
        assert detail.format(report) in capsys.readouterr().err

    @pytest.mark.parametrize("role", ["--reference", "--satisfaction", "--candidate"])
    def test_missing_score_file_is_a_config_error(self, tmp_path, capsys, role):
        paths = {
            flag: write_scores(tmp_path / f"{flag[2:]}.json", {"A": 0.3, "B": 0.1})
            for flag in ("--reference", "--satisfaction", "--candidate")
        }
        paths[role] = str(tmp_path / "missing.json")
        argv = ["compare", "--output", str(tmp_path / "rel")]
        argv += [part for flag, path in paths.items() for part in (flag, path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"configuration error: cannot read score file {paths[role]}: " in err
        assert "No such file or directory" in err

    def test_candidate_without_a_name_is_named_by_its_file(self, tmp_path, capsys):
        ref = write_scores(tmp_path / "ref.json", {"A": 0.3, "B": 0.1})
        sat = write_scores(tmp_path / "sat.json", {"A": 0.9, "B": 0.2})
        cand = write_scores(tmp_path / "cand.json", {"A": 0.5, "B": 0.2})
        out = tmp_path / "rel.ndjson"
        argv = ["compare", "--candidate", cand, "--reference", ref, "--satisfaction", sat]
        assert main(argv + ["--output", str(out)]) == 0
        record = [json.loads(l) for l in out.read_text().splitlines()][1]
        assert record["candidate"] == "cand.json"
        assert capsys.readouterr().out.startswith("cand.json: tau_b=1.000")

    @pytest.mark.parametrize("spec", ["={}", "{}/"], ids=["before-equals", "directory"])
    def test_an_empty_candidate_name_is_a_config_error(self, tmp_path, capsys, spec):
        cand = write_scores(tmp_path / "cand.json", {"A": 0.5, "B": 0.2})
        spec = spec.format(cand if spec[0] == "=" else tmp_path)
        # Raised before any file is read: the reference does not exist.
        argv = ["compare", "--candidate", spec, "--reference", str(tmp_path / "missing.json")]
        out = tmp_path / "rel.ndjson"
        assert main(argv + ["--satisfaction", cand, "--output", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: candidate {spec!r} has an empty name\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "specs",
        [["a={cand}", "a={other}"], ["{cand}", "cand.json={other}"]],
        ids=["given", "from-the-file"],
    )
    def test_a_repeated_candidate_name_is_a_config_error(self, tmp_path, capsys, specs):
        # Both candidates' records were written, each named "a".
        cand = write_scores(tmp_path / "cand.json", {"A": 0.5, "B": 0.2})
        specs = [spec.format(cand=cand, other=tmp_path / "other.json") for spec in specs]
        # Raised before any file is read: the reference does not exist.
        argv = ["compare", "--candidate", specs[0], "--candidate", specs[1]]
        argv += ["--reference", str(tmp_path / "missing.json"), "--satisfaction", cand]
        out = tmp_path / "rel.ndjson"
        assert main(argv + ["--output", str(out)]) == 2
        name = specs[1].partition("=")[0]
        assert capsys.readouterr().err == (
            f"configuration error: candidate {specs[1]!r} repeats the name {name!r}\n"
        )
        assert not out.exists()

    def test_reference_fixture_comparison(self, tmp_path):
        ref = write_scores(tmp_path / "rdl.json", REF["human_metrics"]["rdl"])
        sat = write_scores(tmp_path / "sat.json", REF["satisfaction"])
        llm = write_scores(tmp_path / "llm.json", REF["simulated_rdl"]["llm_us"])
        abus = write_scores(tmp_path / "abus.json", REF["simulated_rdl"]["abus"])
        out = tmp_path / "rel.ndjson"
        code = main(
            [
                "compare",
                "--candidate",
                f"llm_us={llm}",
                "--candidate",
                f"abus={abus}",
                "--reference",
                ref,
                "--satisfaction",
                sat,
                "--reference-name",
                "human",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        records = [json.loads(l) for l in out.read_text().splitlines()][1:]
        by_name = {r["candidate"]: ReliabilityReport.from_record(r) for r in records}
        assert by_name["llm_us"].tau_b_vs_satisfaction == pytest.approx(0.366, abs=5e-3)
        assert by_name["abus"].tau_b_vs_satisfaction == pytest.approx(0.143, abs=5e-3)
        assert by_name["llm_us"].average_abs_diff == pytest.approx(0.015, abs=1e-3)
        assert by_name["abus"].average_abs_diff == pytest.approx(0.107, abs=1e-3)

    def test_metric_correlations_through_compare(self, tmp_path):
        sat = write_scores(tmp_path / "sat.json", REF["satisfaction"])
        candidates = []
        for name in ("rdl", "success_rate", "srrr", "recall_at_1"):
            path = write_scores(tmp_path / f"{name}.json", REF["human_metrics"][name])
            candidates += ["--candidate", f"{name}={path}"]
        out = tmp_path / "rel.ndjson"
        code = main(
            ["compare"]
            + candidates
            + ["--reference", sat, "--satisfaction", sat, "--output", str(out)]
        )
        assert code == 0
        records = [json.loads(l) for l in out.read_text().splitlines()][1:]
        taus = {r["candidate"]: r["tau_b_vs_satisfaction"] for r in records}
        assert taus["rdl"] == pytest.approx(0.78, abs=5e-3)
        assert taus["success_rate"] == pytest.approx(0.67, abs=5e-3)
        assert taus["srrr"] == pytest.approx(0.32, abs=5e-3)
        assert taus["recall_at_1"] == pytest.approx(0.07, abs=5e-3)

    def test_report_file_as_candidate_with_metric_selector(self, tmp_path):
        path = tmp_path / "corpus.ndjson"
        write_corpus(small_corpus(), path)
        report_path = tmp_path / "report.ndjson"
        assert (
            main(
                [
                    "evaluate",
                    "--input",
                    str(path),
                    "--output",
                    str(report_path),
                    "--metrics",
                    "sr,rdl",
                ]
            )
            == 0
        )
        ref = write_scores(tmp_path / "ref.json", {"sysA": 0.4, "sysB": 0.1})
        sat = write_scores(tmp_path / "sat.json", {"sysA": 0.8, "sysB": 0.3})
        out = tmp_path / "rel.ndjson"
        code = main(
            [
                "compare",
                "--candidate",
                f"mine={report_path}",
                "--metric",
                "RDL",
                "--reference",
                ref,
                "--satisfaction",
                sat,
                "--output",
                str(out),
            ]
        )
        assert code == 0

    def test_report_with_a_line_separator_in_a_dialogue_id(self, tmp_path):
        first, second = small_corpus().dialogues
        path = tmp_path / "corpus.ndjson"
        write_corpus(corpus(replace(first, dialogue_id="d\u20281"), second), path)
        report = tmp_path / "report.ndjson"
        assert main(["evaluate", "--input", str(path), "--output", str(report)]) == 0
        ref = write_scores(tmp_path / "ref.json", {"sysA": 0.4, "sysB": 0.1})
        sat = write_scores(tmp_path / "sat.json", {"sysA": 0.8, "sysB": 0.3})
        argv = ["compare", "--candidate", f"mine={report}", "--metric", "RDL"]
        argv += ["--reference", ref, "--satisfaction", sat, "--output", str(tmp_path / "rel")]
        assert main(argv) == 0

    @pytest.mark.parametrize(
        "text, value",
        [
            ('{"a": NaN, "b": 0.5, "c": 0.2}', "nan"),
            ('{"a": Infinity, "b": 0.5, "c": 0.2}', "inf"),
            ('{"a": -Infinity, "b": 0.5, "c": 0.2}', "-inf"),
            ('{"a": "1e400", "b": 0.5, "c": 0.2}', "inf"),
            ('{"a": true, "b": 0.5, "c": 0.2}', "True"),
            ('{"metric": "RDL", "aggregation": "macro", "per_system": {"a": NaN, "b": 0.5}}', "nan"),
            ('{"metric": "RDL", "aggregation": "macro", "per_system": {"a": "0.3", "b": 0.5}}', "'0.3'"),
            ('{"metric": "RDL", "aggregation": "macro", "per_system": {"a": false, "b": 0.5}}', "False"),
        ],
        ids=["nan", "infinity", "-infinity", "overflow", "bool", "report-nan", "report-text", "report-bool"],
    )
    def test_score_that_is_not_a_finite_number_is_a_config_error(
        self, tmp_path, capsys, text, value
    ):
        ref = write_scores(tmp_path / "ref.json", {"a": 0.3, "b": 0.1, "c": 0.2})
        sat = write_scores(tmp_path / "sat.json", {"a": 0.9, "b": 0.2, "c": 0.4})
        cand = tmp_path / "cand.json"
        cand.write_text(text + "\n")
        out = tmp_path / "rel.ndjson"
        argv = ["compare", "--candidate", f"c={cand}", "--reference", ref, "--satisfaction", sat]
        assert main(argv + ["--output", str(out)]) == 2
        detail = f"{cand}: score of 'a' is not a finite number: {value}"
        assert capsys.readouterr().err == f"configuration error: {detail}\n"
        assert not out.exists()

    @pytest.mark.parametrize("score", ["high", [0.5]], ids=["text", "array"])
    def test_a_score_map_that_is_not_numeric_is_a_config_error(self, tmp_path, capsys, score):
        ref = write_scores(tmp_path / "ref.json", {"a": 0.3, "b": 0.1})
        sat = write_scores(tmp_path / "sat.json", {"a": 0.9, "b": 0.2})
        cand = write_scores(tmp_path / "cand.json", {"a": score, "b": 0.5})
        out = tmp_path / "rel.ndjson"
        argv = ["compare", "--candidate", f"c={cand}", "--reference", ref, "--satisfaction", sat]
        assert main(argv + ["--output", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            f"configuration error: {cand} is not a numeric score map: "
        )
        assert not out.exists()

    def test_numeric_strings_in_a_score_map_are_read_as_numbers(self, tmp_path, capsys):
        ref = write_scores(tmp_path / "ref.json", {"A": "0.3", "B": " 1e-1 "})
        sat = write_scores(tmp_path / "sat.json", {"A": 0.9, "B": 0.2})
        out = tmp_path / "rel.ndjson"
        argv = ["compare", "--candidate", f"self={ref}", "--reference", ref, "--satisfaction", sat]
        assert main(argv + ["--output", str(out)]) == 0
        record = [json.loads(l) for l in out.read_text().splitlines()][1]
        assert record["per_system_abs_diff"] == {"A": 0.0, "B": 0.0}
        assert capsys.readouterr().out.startswith("self: tau_b=1.000 avg_abs_diff=0.0000")


@pytest.mark.parametrize("data", [b"{not json", b"\xff{}"], ids=["not-json", "not-utf-8"])
@pytest.mark.parametrize(
    "what, argv",
    [
        ("config file", ["annotate", "--config", "{bad}"]),
        ("intent schema", ["annotate", "--schema", "{bad}"]),
        ("ground truth", ["evaluate", "--metrics", "recall", "--ground-truth", "{bad}"]),
        ("mock script", ["annotate", "--mode", "llm", "--llm-endpoint", "mock:{bad}"]),
    ],
    ids=["config", "schema", "ground-truth", "mock-script"],
)
def test_a_file_that_is_not_json_is_a_configuration_error(tmp_path, capsys, data, what, argv):
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    src = tmp_path / "raw.ndjson"
    write_corpus(small_corpus(), src)
    out = tmp_path / "out.ndjson"
    argv = [arg.format(bad=bad) for arg in argv]
    assert main(argv + ["--input", str(src), "--output", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"configuration error: cannot read {what} {bad}: ")
    assert not out.exists()


# Each command's required flags, a flag of type int and a flag with choices.
COMMAND_FLAGS = {
    "ingest": (["--input", "c"], None, None),
    "annotate": (["--input", "c", "--output", "o"], "--jobs", "--mode"),
    "evaluate": (["--input", "c", "--output", "o"], "--n", None),
    "simulate": (
        ["--simulator", "abus", "--crs", "stub:echo", "--catalog", "k", "--output", "o"],
        "-n",
        "--simulator",
    ),
    "compare": (
        ["--candidate", "c", "--reference", "r", "--satisfaction", "s", "--output", "o"],
        "--seed",
        None,
    ),
}


def argv_that_exit_while_parsing():
    for name, (required, int_flag, choice_flag) in COMMAND_FLAGS.items():
        yield [name, "--help"]
        yield [name, *required[:-2]]  # the last required flag missing
        yield [name, *required, "--bogus"]
        if int_flag:
            yield [name, *required, int_flag, "two"]
        if choice_flag:
            yield [name, *required, choice_flag, "bogus"]
    yield from ([], ["--help"], ["-h", "evaluate"], ["explain"])


def exit_while_parsing(parse, argv, capsys) -> tuple[int, str, str]:
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_info:
        parse(argv)
    captured = capsys.readouterr()
    return exit_info.value.code, captured.out, captured.err


class TestParsing:
    @pytest.mark.parametrize("argv", argv_that_exit_while_parsing(), ids=" ".join)
    def test_main_prints_and_exits_as_the_full_parser(self, argv, capsys):
        full = exit_while_parsing(build_parser().parse_args, argv, capsys)
        assert exit_while_parsing(main, argv, capsys) == full
        code, out, err = full  # help on stdout, or a usage error on stderr
        assert (code, bool(out), bool(err)) in ((0, True, False), (2, False, True))

    @pytest.mark.parametrize(
        "argv",
        [
            ["ingest", "--input", "c", "--schema", "s"],
            ["evaluate", "--input", "a", "--input", "b", "--output", "o", "--n", "3"],
            ["simulate", *COMMAND_FLAGS["simulate"][0], "-n", "5", "--timeout", "2.5"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_a_command_parses_as_in_the_full_parser(self, argv, monkeypatch):
        parsed = []
        help_text, add_arguments, _ = cli._COMMANDS[argv[0]]
        monkeypatch.setitem(
            cli._COMMANDS, argv[0], (help_text, add_arguments, lambda args: parsed.append(args))
        )
        expected = build_parser().parse_args(argv)
        monkeypatch.setattr(cli, "build_parser", None)  # main must not fall back to it
        main(argv)
        assert parsed == [expected]

    def test_a_command_builds_only_its_own_parser(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "corpus.ndjson"
        write_corpus(small_corpus(), path)
        added = []
        add_argument = argparse._ActionsContainer.add_argument

        def counting(container, *names, **options):
            added.append(names)
            return add_argument(container, *names, **options)

        monkeypatch.setattr(argparse._ActionsContainer, "add_argument", counting)
        assert main(["ingest", "--input", str(path)]) == 0
        assert added == [("-h", "--help"), ("--input",), ("--schema",)]


def readme_walkthrough():
    """The commands of the README's offline walkthrough, in order: each is
    ``("write", name, text)`` for a ``cat > name <<'EOF'`` heredoc, or
    ``("evalkit", argv)``."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Offline walkthrough", 1)[1]
    script = section.split("```bash\n", 1)[1].split("```", 1)[0]
    lines = iter(script.replace("\\\n", " ").splitlines())
    steps = []
    for line in lines:
        if line.startswith("cat > "):
            body = []
            for text in lines:
                if text == "EOF":
                    break
                body.append(text + "\n")
            steps.append(("write", line.split()[2], "".join(body)))
        elif line.startswith("evalkit "):
            steps.append(("evalkit", shlex.split(line)[1:]))
    return steps


class TestReadmeWalkthrough:
    def test_every_step_exits_zero(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        steps = readme_walkthrough()
        assert [s[1][0] for s in steps if s[0] == "evalkit"] == [
            "simulate", "simulate", "annotate", "annotate", "ingest", "evaluate", "compare"
        ]
        for step in steps:
            if step[0] == "write":
                (tmp_path / step[1]).write_text(step[2])
            else:
                assert main(step[1]) == 0, step[1]
        assert "sim: tau_b=1.000" in capsys.readouterr().out
        assert (tmp_path / "reliability.ndjson").is_file()

    @pytest.mark.parametrize(
        "python", [p for p in os.environ.get("EVALKIT_TEST_PYTHONS", "").split(os.pathsep) if p]
        or [None],
    )
    def test_listed_interpreters_give_the_same_bytes(self, tmp_path, python):
        # EVALKIT_TEST_PYTHONS holds interpreter paths joined by os.pathsep;
        # each runs the walkthrough with the standard library alone.
        if python is None:
            pytest.skip("EVALKIT_TEST_PYTHONS lists no interpreters")
        expected = walkthrough_hashes(sys.executable, tmp_path / "current")
        assert walkthrough_hashes(python, tmp_path / "listed") == expected

    def test_bytes_equal_the_pinned_hashes(self, tmp_path):
        # Offline re-runs are byte-identical across commits too: a change
        # that moves any of these must say why and pin the new values.
        assert walkthrough_hashes(sys.executable, tmp_path / "run") == WALKTHROUGH_HASHES


# SHA-256 of every file the README walkthrough leaves, and of its stdout.
WALKTHROUGH_HASHES = {
    "annotated.ndjson": "9e9424062eff03e015bfefc30f7a26a2870974b8ead522a52afa2a8afc9458ac",
    "annotated_echo.ndjson": "a32850e6141349cc56de0d4be1e06ea887f0b53c13e6f825a08d67c8dd483224",
    "catalog.json": "9057522d2c7bb27fddd9b2975ea532ffbf1c59bdf00cab737d9ac7cfd4ef2746",
    "human_rdl.json": "a794b7105a91ca5d62a4e146baffbd8124a1c3420a38bb9b17f726281cf8c5e9",
    "reliability.ndjson": "d9eaaa4f41a7cf7d6505123bd42da7bf9b78aad82a0af354ebe5c51bef5f537a",
    "report.ndjson": "fa846a328cd01c035466c176ed879b5633daa2183cecf85c99edbf6a7081a9bd",
    "satisfaction.json": "2a491de97f9a4dbb5cc3d4c714f50370ef13cbbada555a009202c6dfcaf3239c",
    "sim.ndjson": "062d7029a8692b59960efc3591d6fa67cab92f105d75c912747880252ad9f669",
    "sim_echo.ndjson": "b3640469f738f1221090ebd3e29f41c8455e679888e16a260fb25cf5b7768191",
    "stdout": "6b0412c5704a1261b760a2e7c3ddfc2fa06a7b793077138fb60f4f99c9b5aefd",
}


def walkthrough_hashes(python: str, directory: Path) -> dict[str, str]:
    """SHA-256 of every file the README walkthrough leaves in ``directory``
    and of its stdout, with each step run as ``python -m evalkit.cli``."""
    directory.mkdir()
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    stdout = b""
    for step in readme_walkthrough():
        if step[0] == "write":
            (directory / step[1]).write_text(step[2])
        else:
            command = [python, "-m", "evalkit.cli", *step[1]]
            done = subprocess.run(
                command, cwd=directory, env=env, capture_output=True, check=True, timeout=120
            )
            stdout += done.stdout
    hashes = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in directory.iterdir()}
    hashes["stdout"] = hashlib.sha256(stdout).hexdigest()
    return hashes
