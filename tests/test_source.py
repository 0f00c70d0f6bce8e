import ast
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import evalkit
from evalkit import (
    analysis,
    annotation,
    catalog,
    cli,
    connectors,
    corpus_io,
    dialogue,
    metrics,
    simulation,
)
from evalkit.corpus_io import write_corpus

from helpers import corpus, dlg, utt

SOURCES = sorted(Path(evalkit.__file__).parent.glob("*.py"))
BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_no_assert_statements():
    # Invariants raise real errors: ``python -O`` strips assert statements.
    assert len(SOURCES) > 5
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_code_that_optimized_mode_strips():
    # ``python -O`` also drops ``if __debug__:`` blocks.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Name) and node.id == "__debug__"
    ]
    assert found == []


# Run under ``python -O``: constructors still check their arguments.
OPTIMIZED_RUN = """
from evalkit.dialogue import Dialogue, DialogueAct, Speaker, UserGoal, Utterance
from evalkit.metrics import RecommendationRound

builds = [
    lambda: DialogueAct(""),
    lambda: Utterance(-1, Speaker.USER, "x"),
    lambda: UserGoal(()),
    lambda: Dialogue("d", "s", ()),
    lambda: RecommendationRound(1, 1, "accepted"),
]
raised = 0
for build in builds:
    try:
        build()
    except ValueError:
        raised += 1
print(__debug__, raised, len(builds))
"""


def test_constructor_checks_run_under_optimized_mode():
    source_root = str(Path(evalkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([source_root, *sys.path])}
    result = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_RUN], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.split() == ["False", "5", "5"]


def test_public_names_are_the_readme_library_api():
    # A name added to or dropped from the package must be added to or
    # dropped from the README's list too.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    listed = set(re.findall(r"`([A-Za-z_]\w*)`", section))
    assert sorted(evalkit.__all__) == sorted(listed)
    # Each name loads on first use, so ``dir`` lists it before then, and it
    # is the very object its defining module holds.
    assert set(evalkit.__all__) <= set(dir(evalkit))
    for name in evalkit.__all__:
        value = getattr(evalkit, name)
        assert not isinstance(value, ModuleType)
        assert value.__module__.startswith("evalkit.")
        assert getattr(sys.modules[value.__module__], name) is value


def _opens_for_writing(call: ast.Call) -> bool:
    """A call to ``open`` with a mode that is not a read-only literal, or a
    ``write_text``/``write_bytes`` call."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr in ("write_text", "write_bytes")
    if not (isinstance(func, ast.Name) and func.id == "open"):
        return False
    modes = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
    return any(
        not isinstance(mode, ast.Constant) or set(str(mode.value)) & set("wax+")
        for mode in modes
    )


def _callers(matches) -> list[str]:
    """``module.top_level_name`` of every call that ``matches``, in source order."""
    return [
        f"{path.stem}.{getattr(top, 'name', '<module>')}"
        for path in SOURCES
        for top in ast.parse(path.read_text(encoding="utf-8")).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and matches(node)
    ]


def test_only_corpus_io_write_records_opens_files_for_writing():
    # Every output goes through the one atomic writer.
    assert _callers(_opens_for_writing) == ["corpus_io.write_records"]


def _calls(name: str):
    """Whether a call is to ``name``, as a bare or an attribute name."""
    return lambda call: getattr(call.func, "id", getattr(call.func, "attr", None)) == name


def test_only_annotation_in_order_starts_a_thread_pool():
    # simulate and annotate share one bounded, ordered worker map.
    assert _callers(_calls("ThreadPoolExecutor")) == ["annotation.in_order"]


def test_only_corpus_files_starts_a_process_pool():
    # ingest and evaluate share one fold over line-aligned byte ranges.
    assert _callers(_calls("ProcessPoolExecutor")) == ["parallel.fold_in_workers"]
    assert _callers(_calls("Process")) == []


# Run in a fresh interpreter: which modules an import and offline commands load.
COLD_RUN = """
import json, sys
# Checked only if nothing loaded it before evalkit, as a site hook may.
data_reader = [] if "importlib.resources" in sys.modules else ["importlib.resources"]
import evalkit, evalkit.cli

def heavy(also):
    names = ["requests", "urllib3", "concurrent.futures", *also]
    return [m for m in names if m in sys.modules]

loaded = {"import": heavy(data_reader)}
corpus, annotated, report = sys.argv[1:]
# ingest and evaluate read no bundled data file; rule annotate reads its lexicon.
for argv, also in (
    (["ingest", "--input", corpus], data_reader),
    (["evaluate", "--input", corpus, "--output", report], data_reader),
    (["annotate", "--input", corpus, "--output", annotated], []),
):
    loaded[argv[0]] = (evalkit.cli.main(argv), heavy(also))
print(json.dumps(loaded))
"""


def test_offline_commands_import_neither_requests_nor_a_thread_pool(tmp_path):
    # Only live HTTP endpoints need requests (about half of a cold
    # ``import evalkit``), only runs on more than one job need
    # concurrent.futures, and only commands that read bundled data need
    # importlib.resources.
    path = tmp_path / "corpus.ndjson"
    utterances = [
        utt(0, "USER", ["Disclose"], text="a comedy, please"),
        utt(1, "SYSTEM", ["Recommend"], text="Try Up."),
    ]
    write_corpus(corpus(dlg("d1", "sysA", utterances)), path)
    source_root = str(Path(evalkit.__file__).resolve().parents[1])
    # -S runs no site hooks, so none can load a module for the commands;
    # this interpreter's import path stands in for the site packages.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([source_root, *sys.path])}
    outputs = [str(tmp_path / "annotated.ndjson"), str(tmp_path / "report.ndjson")]
    result = subprocess.run(
        [sys.executable, "-S", "-c", COLD_RUN, str(path), *outputs],
        env=env, capture_output=True, text=True, check=True,
    )
    assert json.loads(result.stdout.splitlines()[-1]) == {
        "import": [],
        "ingest": [0, []],
        "evaluate": [0, []],
        "annotate": [0, []],
    }


# Run in a fresh interpreter: which evalkit modules an import, ingest and
# evaluate, or the benchmark's evaluation set-up load.
LAZY_RUN = """
import json, sys
import evalkit

def loaded(names):
    return [m for m in names if m in sys.modules]

mode, corpus, report, bench = sys.argv[1:]
found = {"import": sorted(m for m in sys.modules if m.startswith("evalkit."))}
if mode == "commands":
    import evalkit.cli
    unused = ["simulation", "annotation", "catalog", "connectors", "analysis"]
    unused = ["evalkit." + m for m in unused]
    for argv in (["ingest"], ["evaluate", "--output", report]):
        found[argv[0]] = (evalkit.cli.main(argv + ["--input", corpus]), loaded(unused))
else:
    sys.path.insert(0, bench)
    import program
    program.set_up("evaluate", "-", None, lambda: None)
    unused = ["evalkit." + m for m in ("metrics", "corpus_io", "analysis", "connectors")]
    found["set-up"] = loaded([*unused, "hashlib"])
print(json.dumps(found))
"""


@pytest.mark.parametrize("mode", ["commands", "set-up"])
def test_imports_load_only_the_modules_a_command_runs(mode, tmp_path):
    # ``import evalkit`` loads no submodule, ingest and evaluate load no
    # simulator, annotator, catalog, connector or analysis module, and the
    # benchmark's ``setup_s`` on its evaluation workload times neither the
    # metric engine, the corpus reader, the connectors nor hashlib.
    path = tmp_path / "corpus.ndjson"
    write_corpus(corpus(dlg("d1", "sysA", [utt(0, "USER", ["Disclose"], text="hi")])), path)
    source_root = str(Path(evalkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([source_root, *sys.path])}
    argv = [mode, str(path), str(tmp_path / "report.ndjson"), str(BENCH)]
    result = subprocess.run(
        [sys.executable, "-S", "-c", LAZY_RUN, *argv],
        env=env, capture_output=True, text=True, check=True,
    )
    found = json.loads(result.stdout.splitlines()[-1])
    if mode == "commands":
        assert found == {"import": [], "ingest": [0, []], "evaluate": [0, []]}
    else:
        assert found == {"import": [], "set-up": []}


MODULES = {
    "analysis": analysis, "annotation": annotation, "catalog": catalog, "cli": cli,
    "connectors": connectors, "corpus_io": corpus_io, "dialogue": dialogue,
    "metrics": metrics, "simulation": simulation,
}


def _bench_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_bench_tracer_patch_points_exist():
    # bench/spans.py wraps evalkit attributes by name for ``--trace 1``;
    # renaming one of them must fail here, not in a traced bench run.
    spans = _bench_spans()
    originals = (cli.serialize_corpus, corpus_io.parse_corpus, cli.evaluate_system)
    tracer = spans.Tracer()
    try:
        spans.install(tracer, MODULES)
    finally:
        tracer.restore()
    assert (cli.serialize_corpus, corpus_io.parse_corpus, cli.evaluate_system) == originals


def test_bench_tracer_sees_every_call_the_commands_make_through_cli(tmp_path):
    # The commands call the patch points through the cli module: a call
    # that bypassed the wrapper would read 0 in a traced bench run.
    spans = _bench_spans()
    catalog_path = tmp_path / "catalog.json"
    catalog_path.write_text(json.dumps([{"id": "Up", "genre": "comedy"}]))
    raw, annotated = tmp_path / "raw.ndjson", tmp_path / "annotated.ndjson"
    accept = "Great, I will watch Up, thanks!"
    write_corpus(
        corpus(
            dlg("d1", "sysA", [utt(0, "SYSTEM", text="Try Up."), utt(1, "USER", text=accept)]),
            dlg("d2", "sysB", [utt(0, "SYSTEM", text="Hello."), utt(1, "USER", text="Bye.")]),
        ),
        raw,
    )
    report, scores = tmp_path / "report.ndjson", tmp_path / "scores.json"
    scores.write_text(json.dumps({"sysA": 0.9, "sysB": 0.2}))
    tracer = spans.Tracer()
    try:
        spans.install(tracer, MODULES)
        codes = [
            cli.main(["annotate", "--input", str(raw), "--output", str(annotated),
                      "--catalog", str(catalog_path)]),
            cli.main(["evaluate", "--input", str(annotated), "--output", str(report),
                      "--metrics", "sr"]),
            cli.main(["compare", "--candidate", f"mine={report}", "--reference", str(scores),
                      "--satisfaction", str(scores), "--output", str(tmp_path / "rel.ndjson")]),
        ]
    finally:
        tracer.restore()
    names = [r[spans.NAME] for r in tracer.spans]
    assert codes == [0, 0, 0]
    traced = ("catalog.load", "metrics.evaluate", "analysis.compare")
    assert [names.count(name) for name in traced] == [1, 1, 1]


@pytest.mark.parametrize("family", ["abus", "llm-us"])
def test_bench_tracer_counts_every_simulated_turn(family, movie_catalog):
    # A patch point the simulators no longer call through would read 0.
    spans = _bench_spans()
    if family == "abus":
        simulator = simulation.AgendaSimulator(catalog=movie_catalog)
    else:
        simulator = simulation.LlmSimulator(
            lambda: connectors.MockLlmGateway(replies=["Hi, a comedy please."])
        )
    tracer = spans.Tracer()
    try:
        spans.install(tracer, MODULES)
        stub = connectors.make_stub("goodbye")
        simulation.generate_corpus(simulator, stub, 3, catalog=movie_catalog)
    finally:
        tracer.restore()
    assert [r[spans.NAME] for r in tracer.spans].count("simulation.turn") == 3


# One failing hypothesis test next to one passing plain test.
FAILING_HYPOTHESIS_PROBE = """
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
"""


def test_a_failing_hypothesis_test_fails_alone(tmp_path):
    # Under the repository's warning filters a falsifying example is
    # reported as a failure, and the session runs on to the next test.
    (tmp_path / "test_probe.py").write_text(FAILING_HYPOTHESIS_PROBE, encoding="utf-8")
    settings = Path(__file__).resolve().parents[1] / "pyproject.toml"
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(settings), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout
