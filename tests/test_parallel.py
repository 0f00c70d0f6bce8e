"""The worker-process path of ``CorpusFiles.fold`` (``evalkit.parallel``),
which ``ingest`` and ``evaluate`` take on large inputs. Tests force it on
small files by shrinking the bytes per worker and setting the CPU count."""

import gc
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from evalkit import corpus_io, parallel
from evalkit.cli import main
from evalkit.corpus_io import CorpusFiles, dialogue_record, serialize_corpus
from evalkit.dialogue import default_schema
from evalkit.metrics import evaluate_system

from helpers import TruthProbe, corpus, dlg, needs_handed_over_arguments, turns, utt
from test_metrics import corpora_with_truth


class Runs:
    """Runs commands in-process or on a forced number of workers, and
    records, for each fold that tried workers, whether they ran it."""

    def __init__(self, monkeypatch, capsys):
        self.monkeypatch = monkeypatch
        self.capsys = capsys
        self.in_workers: list[bool] = []
        fold_in_workers = parallel.fold_in_workers

        def spy(*args):
            done = fold_in_workers(*args)
            self.in_workers.append(done is not None)
            return done

        monkeypatch.setattr(parallel, "fold_in_workers", spy)

    def force(self, workers: int | None) -> None:
        """``workers`` CPUs and a byte per worker; None: one worker's worth
        of input is more than any test file."""
        self.monkeypatch.setattr(corpus_io, "_BYTES_PER_WORKER", 1 if workers else 1 << 40)
        self.monkeypatch.setattr(corpus_io, "_cpu_count", lambda: workers or 1)

    def run(self, workers: int | None, argv: list[str]) -> tuple[int, str, str]:
        self.force(workers)
        self.capsys.readouterr()
        code = main(argv)
        captured = self.capsys.readouterr()
        assert multiprocessing.active_children() == []
        return code, captured.out, captured.err


@pytest.fixture()
def runs(monkeypatch, capsys):
    return Runs(monkeypatch, capsys)


def annotated(dialogue_id: str, crs_id: str = "sysA"):
    return dlg(
        dialogue_id,
        crs_id,
        turns(
            ("USER", ["Disclose"]),
            ("SYSTEM", ["Recommend"], ["Alpha"]),
            ("USER", ["Accept"]),
        ),
    )


def write_lines(path, lines: list[str]) -> str:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return str(path)


def dialogue_lines(*dialogues) -> list[str]:
    return [json.dumps(dialogue_record(d)) for d in dialogues]


HEADER = '{"schema_version":"1"}'


def evaluate_argv(paths: list[str], output, metrics: str = "sr,srrr,rdl") -> list[str]:
    argv = ["evaluate", "--output", str(output), "--metrics", metrics]
    for path in paths:
        argv += ["--input", path]
    return argv


@st.composite
def corpus_files(draw):
    """A corpus with recall ground truth and N, as one NDJSON file and cut
    into 1 to 3 files, with LF or CRLF line ends, blank lines, and U+2028
    in texts."""
    whole, truth, n = draw(corpora_with_truth())
    line_end = draw(st.sampled_from(["\n", "\r\n"]))
    space = draw(st.sampled_from([" ", "\u2028"]))
    blank = draw(st.sampled_from(["", "  ", "\r"])) + line_end

    def ndjson(dialogues) -> bytes:
        lines = serialize_corpus(corpus(*dialogues)).decode("utf-8").split("\n")[:-1]
        blanks = draw(st.lists(st.booleans(), min_size=len(lines), max_size=len(lines)))
        return "".join(
            line.replace('"text":"turn ', f'"text":"turn{space}') + line_end + blank * extra
            for line, extra in zip(lines, blanks)
        ).encode("utf-8")

    dialogues = list(whole.dialogues)
    cuts = sorted(draw(st.lists(st.integers(0, len(dialogues)), max_size=2)))
    parts = [dialogues[a:b] for a, b in zip([0, *cuts], [*cuts, len(dialogues)])]
    return ndjson(dialogues), [ndjson(part) for part in parts], truth, n


class TestSameBytesAtAnyWorkerCount:
    @settings(max_examples=20, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(corpus_files())
    def test_ingest_and_evaluate_match_the_in_process_run(self, tmp_path_factory, runs, case):
        single, files, truth, n = case
        directory = tmp_path_factory.mktemp("inputs")
        whole = directory / "whole.ndjson"
        whole.write_bytes(single)
        paths = []
        for number, data in enumerate(files):
            path = directory / f"part{number}.ndjson"
            path.write_bytes(data)
            paths.append(str(path))
        nested: dict = {}
        for (dialogue_id, index), targets in truth.items():
            nested.setdefault(dialogue_id, {})[str(index)] = sorted(targets)
        truth_path = directory / "truth.json"
        truth_path.write_text(json.dumps(nested))
        report = directory / "report.ndjson"
        evaluate = evaluate_argv(paths, report, "sr,srrr,rdl,recall")
        evaluate += ["--ground-truth", str(truth_path), "--n", str(n)]

        outputs = {}
        for workers in (None, 2, 3):
            del runs.in_workers[:]
            ingest = runs.run(workers, ["ingest", "--input", str(whole)])
            evaluated = runs.run(workers, evaluate)
            assert runs.in_workers == ([True, True] if workers else [])
            outputs[workers] = (ingest, evaluated, report.read_bytes())
        assert outputs[None][0][0] == outputs[None][1][0] == 0
        assert outputs[2] == outputs[None]
        assert outputs[3] == outputs[None]


@pytest.mark.parametrize("count", [1, 2, 3, 5])
@given(
    lines=st.lists(
        st.sampled_from(["", " ", "\r", "{}", '{"a":"\u2028"}', '{"b":1}\r']), max_size=12
    )
)
def test_ranges_cover_each_body_at_line_starts(tmp_path_factory, count, lines):
    directory = tmp_path_factory.mktemp("ranges")
    files = {}
    for number in range(2):
        path = str(directory / f"{number}.ndjson")
        files[path] = ("\n" + HEADER + "\n" + "\n".join(lines[number:])).encode("utf-8")
        with open(path, "wb") as handle:
            handle.write(files[path])
    ranges = parallel.line_ranges(list(files), count)
    body_start = len(HEADER) + 2
    for path, data in files.items():
        starts = [start for p, start, _ in ranges if p == path]
        ends = [end for p, _, end in ranges if p == path]
        # Consecutive, non-empty, each starting a line, and covering the body.
        assert starts == [body_start, *ends[:-1]][: len(starts)]
        assert all(start < end for start, end in zip(starts, ends))
        assert (ends[-1] if ends else body_start) == len(data)
        assert all(data[start - 1 : start] == b"\n" for start in starts)


class TestErrorsMatchTheInProcessRun:
    def parity(self, runs, argv, expected):
        """The parallel run falls back and matches the in-process run,
        whose stderr contains ``expected``."""
        in_process = runs.run(None, argv)
        del runs.in_workers[:]
        parallel = runs.run(2, argv)
        assert runs.in_workers == [False]
        assert parallel == in_process
        assert in_process[0] == 1 and expected in in_process[2]

    @pytest.mark.parametrize("command", ["ingest", "evaluate"])
    @pytest.mark.parametrize("where", ["first", "second"])
    def test_bad_json(self, runs, tmp_path, command, where):
        lines = dialogue_lines(*(annotated(f"d{i}") for i in range(6)))
        if where == "first":
            lines.insert(0, "{oops}")
        else:
            lines.append("{oops}")
        path = write_lines(tmp_path / "c.ndjson", [HEADER, *lines])
        bad_line = 2 if where == "first" else 8
        argv = [command, "--input", path]
        if command == "evaluate":
            argv = evaluate_argv([path], tmp_path / "r.ndjson")
        self.parity(runs, argv, f"line {bad_line}: invalid JSON")

    @pytest.mark.parametrize("command", ["ingest", "evaluate"])
    def test_one_id_in_two_ranges(self, runs, tmp_path, command):
        lines = dialogue_lines(*(annotated(f"d{i}") for i in range(6)), annotated("d0"))
        path = write_lines(tmp_path / "c.ndjson", [HEADER, *lines])
        argv = [command, "--input", path]
        if command == "evaluate":
            argv = evaluate_argv([path], tmp_path / "r.ndjson")
        self.parity(runs, argv, f"line 8: duplicate dialogue_id 'd0' in {path}")

    def test_one_id_in_two_files(self, runs, tmp_path):
        first = write_lines(tmp_path / "a.ndjson", [HEADER, *dialogue_lines(annotated("d0"))])
        second = write_lines(
            tmp_path / "b.ndjson", [HEADER, *dialogue_lines(annotated("d1"), annotated("d0"))]
        )
        argv = evaluate_argv([first, second], tmp_path / "r.ndjson")
        self.parity(runs, argv, f"line 3: duplicate dialogue_id 'd0' in {second}")

    @pytest.mark.parametrize("command", ["ingest", "evaluate"])
    def test_missing_header(self, runs, tmp_path, command):
        lines = dialogue_lines(*(annotated(f"d{i}") for i in range(4)))
        path = write_lines(tmp_path / "c.ndjson", lines)
        argv = [command, "--input", path]
        if command == "evaluate":
            argv = evaluate_argv([path], tmp_path / "r.ndjson")
        self.parity(runs, argv, "line 1: first record must be a schema_version header")

    @pytest.mark.parametrize("command", ["ingest", "evaluate"])
    @pytest.mark.parametrize(
        "version, kind", [("null", "null"), ("true", "a boolean"), ("{}", "an object")]
    )
    def test_a_version_that_is_not_a_string_or_number(self, runs, tmp_path, command, version, kind):
        lines = dialogue_lines(*(annotated(f"d{i}") for i in range(4)))
        path = write_lines(tmp_path / "c.ndjson", [f'{{"schema_version":{version}}}', *lines])
        argv = [command, "--input", path]
        if command == "evaluate":
            argv = evaluate_argv([path], tmp_path / "r.ndjson")
        self.parity(runs, argv, f"line 1: 'schema_version' must be a string, not {kind} in {path}")

    def test_an_unannotated_dialogue_before_a_malformed_line(self, runs, tmp_path):
        # The metric error comes first in the stream, so it wins, as it
        # does in one pass.
        bare = dlg("bare", "sysA", [utt(0, "USER"), utt(1, "SYSTEM")])
        lines = dialogue_lines(annotated("d0"), bare, *(annotated(f"d{i}") for i in range(1, 5)))
        path = write_lines(tmp_path / "c.ndjson", [HEADER, *lines, "{oops}"])
        self.parity(
            runs,
            evaluate_argv([path], tmp_path / "r.ndjson"),
            "dialogue bare carries no act annotations",
        )


@pytest.mark.parametrize("recall", [False, True], ids=["default-metrics", "with-recall"])
def test_spawned_workers_give_the_in_process_bytes(runs, tmp_path, recall):
    # Workers rebuild their state from what the pool initializer pickles,
    # and send their tallies back pickled; with recall, the ground truth
    # goes out and the micro sums and skipped-turn warnings come back.
    dialogues = [annotated(f"d{i}", crs_id=f"sys{i % 3}") for i in range(9)]
    path = write_lines(tmp_path / "c.ndjson", [HEADER, *dialogue_lines(*dialogues)])
    report = tmp_path / "r.ndjson"
    argv = evaluate_argv([path], report)
    if recall:
        truth = {f"d{i}": {"1": ["Alpha" if i % 2 else "Beta"]} for i in range(7)}
        truth_path = tmp_path / "truth.json"
        truth_path.write_text(json.dumps(truth))
        argv = evaluate_argv([path], report, "sr,srrr,rdl,recall")
        argv += ["--ground-truth", str(truth_path), "--n", "2"]
    expected = runs.run(None, argv), report.read_bytes()
    method = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method("spawn", force=True)
    try:
        assert (runs.run(2, argv), report.read_bytes()) == expected
    finally:
        multiprocessing.set_start_method(method, force=True)
    assert runs.in_workers == [True]


@needs_handed_over_arguments
def test_the_ground_truth_is_freed_when_the_workers_return(runs, tmp_path, monkeypatch):
    # The pool's initializer arguments carry it to the workers; nothing in
    # this process may keep it once they have all returned.
    dialogues = [annotated(f"d{i}", crs_id=f"sys{i % 3}") for i in range(9)]
    path = write_lines(tmp_path / "c.ndjson", [HEADER, *dialogue_lines(*dialogues)])
    truth = {(f"d{i}", 1): ("Alpha",) for i in range(0, 9, 2)}
    expected = evaluate_system(dialogues, ["sr", "recall"], truth, 1)
    probe = TruthProbe(monkeypatch)
    handed = [probe.truth(truth)]
    runs.force(2)
    reports = evaluate_system(CorpusFiles([path]), ["sr", "recall"], handed.pop(), 1)
    assert runs.in_workers == [True]
    assert probe.freed_at_reports == [True]
    assert reports == expected


# A program that runs a command at module top level, without a
# ``__main__`` guard, on two workers started by spawn.
GUARDLESS = """
import multiprocessing, sys
from evalkit import cli, corpus_io
multiprocessing.set_start_method("spawn", force=True)
corpus_io._BYTES_PER_WORKER = 1
corpus_io._cpu_count = lambda: 2
sys.exit(cli.main(sys.argv[1:]))
"""


def test_a_guardless_main_under_spawn_fails_its_workers_and_reruns_in_process(runs, tmp_path):
    # Each spawned worker imports the main module and so runs the command
    # again; it must fail with Python's bootstrapping error rather than
    # fold the whole corpus itself. The parent then reruns in-process.
    dialogues = [annotated(f"d{i}", crs_id=f"sys{i % 3}") for i in range(9)]
    path = write_lines(tmp_path / "c.ndjson", [HEADER, *dialogue_lines(*dialogues)])
    report = tmp_path / "r.ndjson"
    assert runs.run(None, evaluate_argv([path], report))[0] == 0
    expected = report.read_bytes()
    report.unlink()
    script = tmp_path / "guardless.py"
    script.write_text(GUARDLESS, encoding="utf-8")
    source_root = str(Path(corpus_io.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([source_root, *sys.path])}
    result = subprocess.run(
        [sys.executable, str(script), *evaluate_argv([path], report)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert report.read_bytes() == expected
    assert "bootstrapping phase" in result.stderr


def frozen_objects(dialogues) -> int:
    """A fold that reads its dialogues and returns its process's freeze count."""
    for _ in dialogues:
        pass
    return gc.get_freeze_count()


def test_a_worker_freezes_the_heap_it_inherits(tmp_path):
    path = write_lines(
        tmp_path / "corpus.ndjson", [HEADER, *dialogue_lines(annotated("d1"), annotated("d2"))]
    )
    assert gc.get_freeze_count() == 0
    counts = parallel.fold_in_workers([path], default_schema(), 2, frozen_objects, ())
    assert len(counts) == 2 and all(count > 0 for count in counts)
    assert gc.get_freeze_count() == 0


def test_worker_count_follows_input_size_and_cpus(tmp_path, monkeypatch):
    path = tmp_path / "sparse.ndjson"
    with open(path, "wb") as handle:
        handle.truncate(9 << 20)
    files = CorpusFiles([str(path)])
    assert 1 <= corpus_io._cpu_count() <= os.cpu_count()
    for cpus, workers in ((1, 1), (2, 2), (8, 2)):
        monkeypatch.setattr(corpus_io, "_cpu_count", lambda: cpus)
        assert files._worker_count() == workers
    assert CorpusFiles([str(path), str(path)])._worker_count() == 4
