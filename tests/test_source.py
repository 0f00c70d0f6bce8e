import ast
import importlib.util
from pathlib import Path

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


def test_only_corpus_io_write_records_opens_files_for_writing():
    # Every output goes through the one atomic writer.
    writers = []
    for path in SOURCES:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and _opens_for_writing(node):
                    writers.append(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    assert writers == ["corpus_io.write_records"]


def test_bench_tracer_patch_points_exist():
    # bench/spans.py wraps evalkit attributes by name for ``--trace 1``;
    # renaming one of them must fail here, not in a traced bench run.
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    modules = {
        "analysis": analysis, "annotation": annotation, "catalog": catalog, "cli": cli,
        "connectors": connectors, "corpus_io": corpus_io, "dialogue": dialogue,
        "metrics": metrics, "simulation": simulation,
    }
    originals = (cli.serialize_corpus, corpus_io.parse_corpus, cli.evaluate_system)
    tracer = spans.Tracer()
    try:
        spans.install(tracer, modules)
    finally:
        tracer.restore()
    assert (cli.serialize_corpus, corpus_io.parse_corpus, cli.evaluate_system) == originals
