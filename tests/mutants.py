"""Mutation checks: faults that the tests are known to catch, kept so that
they stay caught.

Each mutant is one exact edit of a file under ``src/evalkit``: an old text
that occurs there exactly once, the new text, and the tests that must fail
once the edit is made. ``tests/test_source.py`` checks, in tier 1, that
every old text still occurs exactly once; a change that moves such code
updates its mutant in the same change. A mutant that survives is a gap in
the tests: it gets a failing test, and is never dropped to make this pass.

Run from anywhere::

    python tests/mutants.py [NAME ...]

For each mutant (or each one named), this copies ``src/`` to a temporary
directory, applies the edit there and runs the mutant's tests against the
copy. A mutant is killed only when pytest exits 1, tests failed: exit 2,
4 or 5 (interrupted, a usage error, nothing collected) is a broken check,
not a kill. Exits 1 if any mutant survives, else 0.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src"


class Mutant(NamedTuple):
    name: str
    path: str  # under src/evalkit
    old: str
    new: str
    kills: tuple[str, ...]  # pytest node ids, from the repository root


MUTANTS = (
    Mutant(
        "json-entries-fast-path-takes-any-comma",
        "catalog.py",
        "if text.startswith(_COMPACT, end):",
        'if text.startswith(",", end):',
        (
            "tests/test_cli.py::TestGroundTruthAgainstOracle::"
            "test_equals_decoding_the_whole_text_first",
            "tests/test_catalog.py::TestLoaderAgainstOracle::"
            "test_equals_decoding_the_whole_text_first",
        ),
    ),
    Mutant(
        "ground-truth-without-json-loads-fallback",
        "cli.py",
        "            json.loads(text)\n        except ValueError as syntax:",
        "            pass\n        except ValueError as syntax:",
        (
            "tests/test_cli.py::TestGroundTruthAgainstOracle::"
            "test_equals_decoding_the_whole_text_first",
        ),
    ),
    Mutant(
        "no-cue-lookup-inside-a-title",
        "annotation.py",
        "intents = cues.get(phrase)",
        "intents = cues.get(phrase) if start >= free else None",
        (
            "tests/test_annotation.py::TestRuleAnnotator::"
            "test_acts_match_a_search_per_cue_and_per_title",
            "tests/test_annotation.py::TestRuleAnnotator::"
            "test_a_cue_that_is_a_title_and_a_cue_inside_a_title",
        ),
    ),
    Mutant(
        "titles-overlap",
        "annotation.py",
        "if start >= free and phrase in by_text:",
        "if phrase in by_text:",
        ("tests/test_annotation.py::TestFindTitles",),
    ),
    Mutant(
        "line-tail-tested-with-isspace",
        "corpus_io.py",
        "if end < 0 or line[end:].strip(_JSON_SPACE):",
        "if end < 0 or line[end:].strip():",
        ("tests/test_corpus_io.py::TestIterRecordsAgainstJsonLoads",),
    ),
    Mutant(
        "goal-always-without-extras",
        "corpus_io.py",
        "extra = _NO_EXTRAS if len(record) == present else _extras(record, _GOAL_KEYS)",
        "extra = _NO_EXTRAS",
        ("tests/test_corpus_io.py::TestParseAgainstTheFieldByFieldBuild::test_goal_records",),
    ),
    Mutant(
        "act-always-without-extras",
        "corpus_io.py",
        "_NO_EXTRAS if len(entry) == present else _extras(entry, _ACT_KEYS),",
        "_NO_EXTRAS,",
        (
            "tests/test_corpus_io.py::TestParseAgainstTheFieldByFieldBuild::"
            "test_utterance_and_act_records",
        ),
    ),
    Mutant(
        "utterance-always-without-extras",
        "corpus_io.py",
        "extra = _NO_EXTRAS if len(record) == present else _extras(record, _UTTERANCE_KEYS)",
        "extra = _NO_EXTRAS",
        (
            "tests/test_corpus_io.py::TestParseAgainstTheFieldByFieldBuild::"
            "test_utterance_and_act_records",
        ),
    ),
    Mutant(
        "dialogue-always-without-extras",
        "corpus_io.py",
        "_NO_EXTRAS if len(record) == present else _extras(record, _DIALOGUE_KEYS),",
        "_NO_EXTRAS,",
        ("tests/test_corpus_io.py::TestParseCorpus::test_unknown_fields_preserved",),
    ),
    Mutant(
        "utterance-always-calls-extras",
        "corpus_io.py",
        "extra = _NO_EXTRAS if len(record) == present else _extras(record, _UTTERANCE_KEYS)",
        "extra = _extras(record, _UTTERANCE_KEYS)",
        (
            "tests/test_corpus_io.py::TestParseAgainstTheFieldByFieldBuild::"
            "test_utterance_and_act_records",
        ),
    ),
    Mutant(
        "reports-built-while-evaluate-system-holds-the-truth",
        "metrics.py",
        "    del ground_truth\n",
        "",
        (
            "tests/test_metrics.py::TestEachValueHeldOnce",
            "tests/test_parallel.py::test_the_ground_truth_is_freed_when_the_workers_return",
        ),
    ),
    Mutant(
        "reports-built-while-cmd-evaluate-holds-the-truth",
        "cli.py",
        "ground_truth=truth.pop(),",
        "ground_truth=truth[0],",
        (
            "tests/test_cli.py::TestStreaming::"
            "test_evaluate_frees_the_ground_truth_before_it_builds_the_reports",
        ),
    ),
    Mutant(
        "no-shared-floats",
        "metrics.py",
        "d: shared.setdefault(score, score)",
        "d: score",
        ("tests/test_metrics.py::TestEachValueHeldOnce::test_equal_scores_share_one_float",),
    ),
    Mutant(
        "zero-over-zero-scores-one",
        "metrics.py",
        "    if cost == 0 and reward == 0:\n        return 0.0",
        "    if cost == 0 and reward == 0:\n        return 1.0",
        ("tests/test_metrics.py::TestUtilityEngine::test_no_rounds_scores_zero_srrr",),
    ),
    Mutant(
        "later-decisions-close-rounds-too",
        "metrics.py",
        "rounds.append(RecommendationRound(open_start, utterance.index, outcome))\n"
        "                open_start = None\n",
        "rounds.append(RecommendationRound(open_start, utterance.index, outcome))\n",
        ("tests/test_metrics.py::TestFoldAgainstOracle",),
    ),
    Mutant(
        "recall-ignores-n",
        "metrics.py",
        "truth.intersection(items[:n])",
        "truth.intersection(items)",
        ("tests/test_metrics.py::TestRecallAtN::test_truncation_to_first_n",),
    ),
    Mutant(
        "agenda-user-draws-unseeded",
        "simulation.py",
        "rng = random.Random(seed)\n\n        def step(",
        "rng = random.Random()\n\n        def step(",
        (
            "tests/test_simulation.py::TestRunConversation::"
            "test_the_seed_alone_decides_an_agenda_transcript",
        ),
    ),
    Mutant(
        "tau-without-tie-correction",
        "analysis.py",
        "/ math.sqrt((n0 - tx) * (n0 - ty))",
        "/ n0",
        ("tests/test_analysis.py::TestKendallTauB::test_matches_scipy_with_and_without_ties",),
    ),
)


def apply(mutant: Mutant, source: Path) -> None:
    """Edit the copy of ``src/`` at ``source``; ValueError unless the old
    text occurs exactly once."""
    path = source / "evalkit" / mutant.path
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: the old text occurs {text.count(mutant.old)} times")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def run(mutant: Mutant) -> int:
    """pytest's exit code for the mutant's tests, against a mutated copy."""
    with tempfile.TemporaryDirectory() as scratch:
        source = Path(scratch) / "src"
        shutil.copytree(SOURCE, source, ignore=shutil.ignore_patterns("__pycache__"))
        apply(mutant, source)
        # The copy alone on the path: ``-o pythonpath=`` drops the ``src``
        # entry that pyproject.toml gives pytest, and PYTHONPATH comes
        # before an installed or editable evalkit.
        env = {**os.environ, "PYTHONPATH": str(source)}
        where = [sys.executable, "-c", "import evalkit; print(evalkit.__file__)"]
        found = subprocess.run(where, env=env, capture_output=True, text=True, check=True)
        if not Path(found.stdout.strip()).is_relative_to(source):
            raise RuntimeError(f"evalkit imports from {found.stdout.strip()}, not the copy")
        command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
        command += ["-o", "pythonpath=", *mutant.kills]
        return subprocess.run(command, cwd=ROOT, env=env, capture_output=True).returncode


def main(names: list[str]) -> int:
    unknown = set(names) - {mutant.name for mutant in MUTANTS}
    if unknown:
        print(f"unknown mutant(s): {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    survivors = []
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        code = run(mutant)
        verdict = "killed" if code == 1 else f"SURVIVED (pytest exit {code})"
        print(f"{mutant.name}: {verdict}", flush=True)
        if code != 1:
            survivors.append(mutant.name)
    if survivors:
        print(f"{len(survivors)} mutant(s) survived: {', '.join(survivors)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
