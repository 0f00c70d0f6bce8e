"""Output checks: every artifact a workload writes is verified here.

The checks recompute results through independent paths: SR, SRRR and RDL
through ``metrics.utility()`` with the bundled reward/cost factors, and on
the generated corpus also from sums the generator kept while writing it,
standard recall from the generator's counts, and Kendall's tau-b with
scipy. Artifact hashes and per-layer counts are compared with the last
correct run of the same workload and seed, in another process.
"""

from __future__ import annotations

import json
from pathlib import Path

TOLERANCE = 1e-12
TERMINATION_REASONS = (
    "simulator-stop",
    "simulator-abort",
    "max-utterances",
    "connector-timeout",
    "crs-ended",
    "loop-guard",
)


class Checks:
    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append((name, bool(ok), detail))

    def run(self, name: str, fn, *args) -> None:
        """Record ``fn(*args)``'s verdict; an exception is a failed check."""
        try:
            ok, detail = fn(*args)
        except Exception as exc:  # a crashing check is a failed check
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        self.add(name, ok, detail)

    @property
    def failed(self) -> int:
        return sum(1 for _, ok, _ in self.results if not ok)


def read_records(path: Path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def report_map(path: Path) -> dict[str, dict]:
    return {r["metric"]: r for r in read_records(path) if "metric" in r}


class Corpora:
    """Parses each corpus file once for all checks that read it."""

    def __init__(self, corpus_io):
        self.corpus_io = corpus_io
        self._parsed: dict[Path, tuple[bytes, object]] = {}

    def get(self, path: Path):
        if path not in self._parsed:
            data = path.read_bytes()
            self._parsed[path] = (data, self.corpus_io.parse_corpus(data))
        return self._parsed[path]


def round_trip(corpora: Corpora, path: Path, written_by_evalkit: bool):
    """``parse(serialize(c)) == c``; for files evalkit wrote, also that
    serializing the parsed corpus gives back the same bytes."""
    data, corpus = corpora.get(path)
    again = corpora.corpus_io.serialize_corpus(corpus)
    ok = corpora.corpus_io.parse_corpus(again) == corpus
    if written_by_evalkit:
        ok = ok and again == data
    return ok, f"{len(corpus)} dialogues, {len(data)} bytes"


def _mean_by_system(corpus, score) -> dict[str, float]:
    groups: dict[str, list[float]] = {}
    for dialogue in corpus.dialogues:
        groups.setdefault(dialogue.crs_id, []).append(score(dialogue))
    return {crs_id: sum(values) / len(values) for crs_id, values in groups.items()}


def utility_scores(metrics, corpus) -> dict[str, dict[str, float]]:
    """SR, SRRR and RDL per system through ``metrics.utility``."""

    def srrr(dialogue):
        if not metrics.segment_rounds(dialogue):
            return 0.0
        return metrics.utility(dialogue, [metrics.accepted_rounds_reward()], [metrics.round_count_cost()])

    return {
        "SR": _mean_by_system(
            corpus,
            lambda d: metrics.utility(d, [metrics.success_reward()], [metrics.constant_cost()]),
        ),
        "SRRR": _mean_by_system(corpus, srrr),
        "RDL": _mean_by_system(
            corpus,
            lambda d: metrics.utility(d, [metrics.accepted_items_reward()], [metrics.dialogue_length_cost()]),
        ),
    }


def utilities_match(corpora: Corpora, metrics, corpus_path: Path, report_path: Path):
    corpus = corpora.get(corpus_path)[1]
    reports = report_map(report_path)
    expected = utility_scores(metrics, corpus)
    worst = 0.0
    for name, per_system in expected.items():
        reported = reports[name]["per_system"]
        if set(reported) != set(per_system):
            return False, f"{name} covers {sorted(reported)}, expected {sorted(per_system)}"
        worst = max([worst] + [abs(reported[s] - per_system[s]) for s in per_system])
    return worst <= TOLERANCE, f"largest difference {worst:.3g} over {len(corpus)} dialogues"


def generated_utilities_match(report_path: Path, expected: dict):
    """SR, SRRR and RDL per system against the generator's sums."""
    reports = report_map(report_path)
    worst = 0.0
    for name, key in (("SR", "sr_sum"), ("SRRR", "srrr_sum"), ("RDL", "rdl_sum")):
        reported = reports[name]["per_system"]
        if set(reported) != set(expected["counts"]):
            return False, f"{name} covers {sorted(reported)}, expected {sorted(expected['counts'])}"
        for crs_id, counts in expected["counts"].items():
            worst = max(worst, abs(reported[crs_id] - counts[key] / counts["dialogues"]))
    return worst <= TOLERANCE, f"largest difference {worst:.3g}"


def recall_matches(report_path: Path, expected: dict):
    record = report_map(report_path)["Recall@1[standard]"]
    worst = 0.0
    for crs_id, counts in expected["counts"].items():
        want = counts["hits"] / counts["targets"] if counts["targets"] else 0.0
        worst = max(worst, abs(record["per_system"][crs_id] - want))
    skipped = sum(1 for w in record["warnings"] if w.endswith("turn skipped"))
    want_skipped = sum(c["skipped"] for c in expected["counts"].values())
    ok = worst <= TOLERANCE and skipped == want_skipped and set(record["per_system"]) == set(expected["counts"])
    return ok, f"largest difference {worst:.3g}, {skipped} skipped turns (expected {want_skipped})"


def ingest_counts(output: str, expected: dict):
    counts = {}
    for line in output.splitlines()[1:]:
        name, _, value = line.rpartition(" ")
        counts[name.strip()] = int(value)
    want = dict(expected["per_system"])
    want["total"] = sum(want.values())
    return counts == want, f"{counts.get('total')} dialogues over {len(counts) - 1} systems"


def compare_matches(compare_path: Path, report_path: Path, inputs: Path):
    from scipy.stats import kendalltau

    candidate = report_map(report_path)["RDL"]["per_system"]
    with open(inputs / "human_rdl.json", encoding="utf-8") as handle:
        reference = json.load(handle)
    with open(inputs / "satisfaction.json", encoding="utf-8") as handle:
        satisfaction = json.load(handle)
    record = [r for r in read_records(compare_path) if r.get("kind") == "reliability"][0]
    common = sorted(set(reference) & set(candidate))
    tau = kendalltau([candidate[s] for s in common], [satisfaction[s] for s in common])[0]
    average = sum(abs(reference[s] - candidate[s]) for s in common) / len(common)
    ok = (
        record["systems_compared"] == common
        and abs(record["tau_b_vs_satisfaction"] - tau) <= TOLERANCE
        and abs(record["average_abs_diff"] - average) <= TOLERANCE
    )
    return ok, f"tau_b {record['tau_b_vs_satisfaction']:.4f} over {len(common)} systems"


def simulated_complete(corpora: Corpora, path: Path, expected_dialogues: int):
    corpus = corpora.get(path)[1]
    reasons = {d.extra.get("termination_reason") for d in corpus.dialogues}
    ok = len(corpus) == expected_dialogues and reasons <= set(TERMINATION_REASONS)
    return ok, f"{len(corpus)} of {expected_dialogues} dialogues, reasons {sorted(reasons)}"


def fully_annotated(corpora: Corpora, path: Path):
    corpus = corpora.get(path)[1]
    missing = sum(1 for d in corpus.dialogues for u in d.utterances if not u.acts)
    return missing == 0, f"{missing} utterances without acts"


def identical_hashes(iterations: list[dict], extra: dict | None = None):
    first = iterations[0]["hashes"]
    ok = all(it["hashes"] == first for it in iterations)
    detail = f"{len(iterations)} runs"
    if extra is not None:
        ok = ok and all(h == first["simulated.ndjson"] for h in extra.values())
        detail += f" and the jobs={max(map(int, extra))} simulation"
    return ok, detail


def same_as_earlier(fingerprint: dict, earlier: dict | None):
    """Artifact hashes and per-layer counts equal those the last correct
    run of the same workload, seed and code left, which ran in another
    process and so under another ``PYTHONHASHSEED``."""
    if earlier is None:
        return True, "no earlier correct run of this seed and code"
    differ = [n for n, h in fingerprint["hashes"].items() if earlier["hashes"].get(n) != h]
    compared = "artifacts"
    if fingerprint["counts"] is not None and earlier["counts"] is not None:
        differ += [n for n, v in fingerprint["counts"].items() if earlier["counts"].get(n) != v]
        compared += " and per-layer counts"
    return not differ, f"{compared} compared; differing: {', '.join(differ) or 'none'}"
