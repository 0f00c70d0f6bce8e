"""Benchmark of evalkit's simulate -> annotate -> evaluate -> compare pipeline.

Usage (from the repository root):

    python3 bench/run.py --workload abus-cat20k --seed 1 --seconds 20 --trace 0

Workloads and metric names are declared in BENCHMARK.json:

* ``abus-cat20k``: the agenda simulator against nine CRS doubles over a
  generated 20k-item catalog, then rule annotation with the catalog,
  evaluate (sr, srrr, rdl) and compare. Catalog scans dominate.
* ``llmus-cat1k``: the LLM simulator with an LLM double that fails 2 % of
  first attempts transiently, over a 1k-item catalog. Prompts, gateway
  round trips and retries dominate.
* ``eval-corpus20k``: ingest, evaluate (sr, srrr, rdl, recall) and compare
  on a generated, annotated 20k-dialogue corpus. Parsing and metric passes
  dominate; no catalog or simulator runs.

With ``--trace 0`` the run times set-up in fresh interpreters, repeats the
pipeline for ``--seconds`` in a worker process and reports the end-to-end
metrics. With ``--trace 1`` it runs the pipeline untraced, then again with
spans around every layer's public calls, and reports the per-layer
metrics. Either way every artifact is checked; a failed check makes the
result ``correct: false`` and the exit code 1. The last stdout line is
the JSON result; the lines before it say the same for a human, with
units, sample counts and the spread recorded in bench/results/baseline.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import doubles
import gen
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = WORK / "results"
BASELINE = BENCH / "results" / "baseline.json"

# The worker starts no iteration it expects to end later than this; with
# input generation, set-up probes and checks a run ends within 180 s.
WORKER_LIMIT_S = 120.0
SETUP_PROBES = 5
MIN_TURN_SAMPLES = 1000

WORKLOADS = {
    "abus-cat20k": {
        "kind": "simulate", "simulator": "abus", "catalog_size": 20000,
        "dialogues_per_system": 6, "jobs_diagnostic": True, "evaluate_repeats": 40,
    },
    "llmus-cat1k": {
        "kind": "simulate", "simulator": "llm-us", "catalog_size": 1000,
        "dialogues_per_system": 24, "evaluate_repeats": 10,
    },
    "eval-corpus20k": {"kind": "evaluate", "dialogues": 20000, "evaluate_repeats": 0},
}


def source_lines() -> dict[str, int]:
    """Non-blank, non-comment lines per module of src/evalkit."""
    counts = {}
    for path in sorted((SRC / "evalkit").glob("*.py")):
        with open(path, "r", encoding="utf-8") as handle:
            counts[path.stem] = sum(
                1 for line in handle if line.strip() and not line.strip().startswith("#")
            )
    counts["total"] = sum(counts.values())
    return counts


def source_digest() -> str:
    """SHA-256 over evalkit's and the benchmark's files, so that a run is
    only compared with earlier runs of the same code."""
    digest = hashlib.sha256()
    files = sorted(p for p in (SRC / "evalkit").rglob("*") if p.is_file() and "__pycache__" not in p.parts)
    for path in files + sorted(BENCH.glob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def fingerprint_path(workload: str, seed: int) -> Path:
    """Where the last correct runs of a workload and seed left their
    artifact hashes and, from a traced run, their per-layer counts."""
    return RESULTS / f"{workload}-seed{seed}-fingerprint.json"


def earlier_fingerprint(path: Path, digest: str) -> dict | None:
    if not path.is_file():
        return None
    with open(path, "r", encoding="utf-8") as handle:
        earlier = json.load(handle)
    return earlier if earlier["source_digest"] == digest else None


def layer_counts(values: dict) -> dict:
    """The per-layer metrics that must repeat exactly for a seed."""
    return {
        name: value for name, value in values.items()
        if not spans.is_time(name) and name != "simulation.jobs2_speedup"
    }


def generate_inputs(spec: dict, seed: int, inputs: Path) -> dict:
    reference = gen.load_reference(ROOT)
    gen.write_compare_inputs(inputs, reference)
    if spec["kind"] == "simulate":
        records = gen.catalog_records(spec["catalog_size"], str(seed))
        gen.write_json(inputs / "catalog.json", records)
        return {"systems": gen.system_qualities(reference)}
    return gen.write_annotated_corpus(inputs, str(seed), spec["dialogues"], reference)


def measure_setup(spec: dict, inputs: Path) -> tuple[list[float], list[float]]:
    """Cold set-up times of fresh interpreters, at reference host speed and
    as measured. The first, untimed probe warms the bytecode cache the way
    any earlier use of the checkout would."""
    command = [
        sys.executable, str(BENCH / "probe.py"), spec["kind"], spec.get("simulator", "-"),
        str(SRC), str(inputs / "catalog.json"),
    ]
    subprocess.run(command, capture_output=True, timeout=60, check=True)
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(command, capture_output=True, text=True, timeout=60, check=True)
        at_reference, measured = done.stdout.split()
        scaled.append(float(at_reference))
        raw.append(float(measured))
    return scaled, raw


def view_mb(inputs: Path) -> float:
    """MB of Python objects in the doubles' catalog view, which the worker
    holds beside the program's catalog. Measured here, on a view built
    the same way, because walking the view in the worker would raise the
    worker's peak RSS."""
    with open(inputs / "catalog.json", "r", encoding="utf-8") as handle:
        return doubles.CatalogView(json.load(handle)).footprint_bytes() / 2**20


def percentile(values: list[float], share: int) -> float:
    return statistics.quantiles(values, n=100)[share - 1]


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


def recorded_spread(workload: str) -> dict:
    if not BASELINE.is_file():
        return {}
    with open(BASELINE, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    return baseline.get("workloads", {}).get(workload, {})


def operations(iterations: list[dict]) -> tuple[int, int, dict]:
    totals: dict[str, list[int]] = {}
    for iteration in iterations:
        for name, (attempted, failed) in iteration["operations"].items():
            pair = totals.setdefault(name, [0, 0])
            pair[0] += attempted
            pair[1] += failed
    attempted = sum(p[0] for p in totals.values())
    failed = sum(p[1] for p in totals.values())
    return attempted, failed, totals


def all_iterations(result: dict) -> list[dict]:
    return (
        result.get("warmup_iterations", []) + result["iterations"] + result.get("traced_iterations", [])
    )


def run_checks(spec, expected, result, inputs: Path, artifacts: Path, fingerprint, earlier) -> checks.Checks:
    sys.path.insert(0, str(SRC))
    from evalkit import corpus_io, metrics

    corpora = checks.Corpora(corpus_io)
    found = checks.Checks()
    iterations = all_iterations(result)
    jobs = result.get("jobs_diagnostic")
    found.run(
        "artifacts byte-identical across runs of one seed",
        checks.identical_hashes, iterations, jobs["hashes"] if jobs else None,
    )
    report = artifacts / "report.ndjson"
    found.run(
        "artifacts and per-layer counts equal those of earlier processes",
        checks.same_as_earlier, fingerprint, earlier,
    )
    if spec["kind"] == "simulate":
        simulated, annotated = artifacts / "simulated.ndjson", artifacts / "annotated.ndjson"
        dialogues = spec["dialogues_per_system"] * len(expected["systems"])
        found.run("simulated corpus complete", checks.simulated_complete, corpora, simulated, dialogues)
        found.run("parse(serialize(c)) == c, simulated corpus", checks.round_trip, corpora, simulated, True)
        found.run("parse(serialize(c)) == c, annotated corpus", checks.round_trip, corpora, annotated, True)
        found.run("every utterance annotated", checks.fully_annotated, corpora, annotated)
        found.run("SR/SRRR/RDL equal utility() per system", checks.utilities_match, corpora, metrics, annotated, report)
    else:
        corpus = inputs / "corpus.ndjson"
        found.run("ingest counts match the generator", checks.ingest_counts, result["cli_output"]["ingest"], expected)
        found.run("parse(serialize(c)) == c, input corpus", checks.round_trip, corpora, corpus, False)
        found.run("SR/SRRR/RDL equal utility() per system", checks.utilities_match, corpora, metrics, corpus, report)
        found.run("SR/SRRR/RDL equal generator sums", checks.generated_utilities_match, report, expected)
        found.run("standard recall equals generator hits/targets", checks.recall_matches, report, expected)
    found.run("compare equals scipy tau-b and mean |diff|", checks.compare_matches, artifacts / "compare.ndjson", report, inputs)
    if result.get("unstable_counts") is not None:
        unstable = result["unstable_counts"]
        found.add("per-layer counts repeat across traced runs", not unstable, ", ".join(unstable) or "all equal")
    return found


def end_to_end(result, setup_times, raw_setup_times) -> tuple[dict, dict, dict]:
    """Gated metrics, the same as measured (before host-speed scaling), and
    further figures, from an untraced run."""
    iterations = result["iterations"]
    gated = {
        "setup_s": statistics.median(setup_times),
        "pipeline_s": statistics.median(it["pipeline_s"] for it in iterations),
        "evaluate_s": statistics.median(t for it in iterations for t in it["evaluate_s"]),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    measured = {
        "setup_s": statistics.median(raw_setup_times),
        "pipeline_s": statistics.median(it["raw_pipeline_s"] for it in iterations),
        "evaluate_s": statistics.median(it["raw_stages"]["evaluate_s"] for it in iterations),
    }
    further = {
        name: statistics.median(it["stages"][name] for it in iterations)
        for name in iterations[0]["stages"]
        if name != "evaluate_s"
    }
    turns = result["turn_samples_s"]
    if turns:
        further["turn_overhead_ms_p50"] = 1000 * statistics.median(turns)
        further["turn_overhead_ms_p99"] = 1000 * percentile(turns, 99)
    return gated, measured, further


def per_layer(result, names) -> dict:
    layers = dict(result["per_layer"])
    traced = result["traced_iterations"]
    first = traced[0]
    for reason in checks.TERMINATION_REASONS:
        layers[f"simulation.termination.{reason}"] = first["termination"].get(reason, 0)
    layers["simulation.failures"] = first["operations"].get("dialogues", [0, 0])[1]
    skipped = 0
    report = Path(result["artifacts"]) / "report.ndjson"
    for record in checks.read_records(report):
        if record.get("metric") == "Recall@1[standard]":
            skipped = sum(1 for w in record["warnings"] if w.endswith("turn skipped"))
    layers["metrics.recall_skipped_turns"] = skipped
    jobs = result.get("jobs_diagnostic")
    layers["simulation.jobs2_speedup"] = jobs["speedup"] if jobs else 0.0
    layers["trace.overhead_s"] = statistics.median(it["pipeline_s"] for it in traced) - statistics.median(
        it["pipeline_s"] for it in result["iterations"]
    )
    return {name: layers[name] for name in names}


def main(argv=None) -> int:
    benchmark = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "evalkit" / "__init__.py").is_file():
        print(f"error: evalkit sources not found under {SRC}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    spec = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = WORK / f"{tag}-{os.getpid()}"
    inputs, artifacts = run_dir / "inputs", run_dir / "artifacts"
    inputs.mkdir(parents=True)
    artifacts.mkdir()

    expected = generate_inputs(spec, args.seed, inputs)
    generated_s = time.perf_counter() - started
    setup_times, raw_setup_times = ([], []) if args.trace else measure_setup(spec, inputs)

    config = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "kind": spec["kind"], "simulator": spec.get("simulator"),
        "dialogues_per_system": spec.get("dialogues_per_system"),
        "systems": expected.get("systems"), "src": str(SRC),
        "inputs": str(inputs), "artifacts": str(artifacts),
        "min_turns": MIN_TURN_SAMPLES if spec["kind"] == "simulate" else 0,
        "jobs_diagnostic": bool(spec.get("jobs_diagnostic")),
        "evaluate_repeats": spec["evaluate_repeats"],
        "jobs": max(1, min(2, os.cpu_count() or 1)),
        "hard_limit_s": WORKER_LIMIT_S,
        "result_path": str(run_dir / "worker.json"),
        "spans_path": str(run_dir / "spans.jsonl"),
    }
    with open(run_dir / "config.json", "w", encoding="utf-8") as handle:
        json.dump(config, handle)
    worker = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(run_dir / "config.json")],
        capture_output=True, text=True, timeout=WORKER_LIMIT_S + 20,
    )
    if worker.returncode != 0:
        print(worker.stdout + worker.stderr, file=sys.stderr)
        print(f"error: worker exited with {worker.returncode}", file=sys.stderr)
        return 1
    with open(config["result_path"], "r", encoding="utf-8") as handle:
        result = json.load(handle)
    result["artifacts"] = str(artifacts)

    if args.trace:
        names = [m["name"] for m in benchmark["per_layer"]]
        values = per_layer(result, names)
    digest = source_digest()
    fingerprint = {
        "source_digest": digest,
        "hashes": result["iterations"][0]["hashes"],
        "counts": layer_counts(values) if args.trace else None,
    }
    stored = fingerprint_path(args.workload, args.seed)
    earlier = earlier_fingerprint(stored, digest)
    found = run_checks(spec, expected, result, inputs, artifacts, fingerprint, earlier)

    attempted, failed, by_kind = operations(all_iterations(result))
    attempted += len(found.results)
    failed += found.failed
    correct = found.failed == 0 and failed == 0

    spread = recorded_spread(args.workload)
    lines = source_lines()
    print(
        f"{tag}: {len(result['iterations'])} untraced and "
        f"{len(result.get('traced_iterations', []))} traced pipeline runs; "
        f"inputs generated in {generated_s:.2f} s"
    )
    if args.trace:
        units = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
        detail = {}
        for name in names:
            print(f"  {name:44s} {values[name]:.6g} {units[name]}")
        if result.get("jobs_diagnostic"):
            jd = result["jobs_diagnostic"]
            print(f"  simulate jobs=1 {jd['jobs1_s']:.3f} s, jobs={jd['jobs']} {jd['jobs_n_s']:.3f} s")
            detail["jobs_diagnostic"] = jd
        print(f"  spans recorded: {result['span_count']} -> {config['spans_path']}")
    else:
        gated, measured, further = end_to_end(result, setup_times, raw_setup_times)
        units = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
        evaluations = sum(len(it["evaluate_s"]) for it in result["iterations"])
        runs = f"median of {len(result['iterations'])} runs"
        samples = {
            "setup_s": f"median of {len(setup_times)} cold set-ups",
            "evaluate_s": f"median of {evaluations} evaluate commands",
            "peak_rss_mb": "worker process",
        }
        view = view_mb(inputs) if spec["kind"] == "simulate" else 0.0
        if view:
            samples["peak_rss_mb"] += f", {view:.1f} MB of it the doubles' catalog view"
        print("  times are at reference host speed (see bench/hostspeed.py); 'measured' is before scaling")
        for name, value in gated.items():
            noted = spread.get(name, {}).get("spread")
            noise = f", recorded spread {100 * noted:.1f} %" if noted is not None else ""
            raw = f", measured {measured[name]:.6g} s" if name in measured else ""
            print(f"  {name:22s} {value:.6g} {units[name]:3s} {samples.get(name, runs)}{raw}{noise}")
        turns = len(result["turn_samples_s"])
        for name, value in further.items():
            if name.startswith("turn_overhead"):
                print(f"  {name:22s} {value:.6g} ms  {turns} turns, measured")
            else:
                print(f"  {name:22s} {value:.6g} s   {runs}")
        values = gated
        detail = {
            "measured": measured, "further": further, "turn_samples": turns,
            "setup_samples_s": setup_times, "setup_measured_s": raw_setup_times,
            "doubles_view_mb": view,
        }
    base = ", ".join(f"{n} {a}" for n, (a, _) in by_kind.items())
    print(
        f"  failed_ratio           {failed}/{attempted} = {failed / attempted:.4g} "
        f"(operations: {base}; output checks: {len(found.results)})"
    )
    for name, ok, note in found.results:
        print(f"  check {'ok    ' if ok else 'FAILED'} {name}: {note}")
    print("  source lines: " + ", ".join(f"{k} {v}" for k, v in lines.items()))

    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "metrics": values, **detail,
        "failed": failed, "attempted": attempted, "operations": by_kind,
        "checks": found.results, "source_lines": lines,
        "recorded_spread": spread, "run_s": time.perf_counter() - started,
    }
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"{tag}.json", "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=1)
    if correct:
        if earlier is not None and fingerprint["counts"] is None:
            fingerprint["counts"] = earlier["counts"]
        with open(stored, "w", encoding="utf-8") as handle:
            json.dump(fingerprint, handle, indent=1)
        shutil.rmtree(inputs)
        shutil.rmtree(artifacts)

    unit_of = {m["name"]: m["unit"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of[name]} for name, value in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
