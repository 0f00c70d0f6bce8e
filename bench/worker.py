"""Runs one workload's pipeline repeatedly and records what it measured.

Usage: python3 bench/worker.py CONFIG_JSON

The config (written by run.py) names the workload, its generated inputs,
the time budget and whether to trace. The worker runs in its own process so
that its peak RSS covers only set-up and the pipeline, not input
generation or the output checks. It writes its measurements to the result
path named in the config.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import doubles
import hostspeed
import program
import spans


class TurnLog:
    """Toolkit seconds per simulated user turn.

    A turn is one ``session.next`` call plus the ``connector.send`` that
    follows it, minus the time the doubles spent producing replies and the
    calibration kernel's time.
    """

    def __init__(self, clock: doubles.DoubleClock):
        self.clock = clock
        self.samples: list[float] = []

    def timed(self, fn, *args, new_turn: bool):
        before = self.clock.seconds + self.clock.excluded()
        started = time.perf_counter()
        try:
            return fn(*args)
        finally:
            left_out = self.clock.seconds + self.clock.excluded() - before
            elapsed = time.perf_counter() - started - left_out
            if new_turn or not self.samples:
                self.samples.append(elapsed)
            else:
                self.samples[-1] += elapsed


class SessionProxy:
    def __init__(self, session, log: TurnLog, tracer):
        self._log = log
        self._next = tracer.wrap("simulation.session", session.next) if tracer else session.next

    def next(self, incoming):
        return self._log.timed(self._next, incoming, new_turn=True)


class SimulatorProxy:
    """Stands in for the simulator passed to ``generate_corpus``."""

    def __init__(self, simulator, crs_id: str, log: TurnLog, tracer):
        self._simulator = simulator
        self.simulator_id = simulator.simulator_id
        self._crs_id = crs_id
        self._log = log
        self._tracer = tracer

    def start_session(self, goal, seed):
        if self._tracer is not None:
            self._tracer.dialogue = f"{self.simulator_id}-{self._crs_id}-{seed:08d}"
        return SessionProxy(self._simulator.start_session(goal, seed), self._log, self._tracer)


class ConnectorProxy:
    """Stands in for the CRS connector passed to ``generate_corpus``."""

    def __init__(self, connector, log: TurnLog, tracer):
        self.crs_id = connector.crs_id
        self._log = log
        self._send = tracer.wrap("connectors.crs", connector.send) if tracer else connector.send

    def send(self, session, utterance, timeout=None):
        return self._log.timed(self._send, session, utterance, timeout, new_turn=False)


def sha256(path: Path) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


class Workload:
    """One workload's inputs, set-up and pipeline stages."""

    def __init__(self, config: dict, modules: dict):
        self.config = config
        self.m = modules
        self.inputs = Path(config["inputs"])
        self.out = Path(config["artifacts"])
        self.out.mkdir(parents=True, exist_ok=True)
        self.seed = config["seed"]
        self.tracer: spans.Tracer | None = None
        self.cli_output = {}
        self.report = self.out / "report.ndjson"
        self.sampler = hostspeed.Sampler()
        self.clock = doubles.DoubleClock(lambda: self.sampler.spent)

    def cli(self, command: str, *argv: str) -> int:
        main = self.m["cli"].main
        if self.tracer is not None:
            main = self.tracer.wrap(f"cli.{command}", main)
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            code = main([command, *argv])
        self.cli_output[command] = captured.getvalue()
        return code

    def compare(self, candidate: str) -> int:
        return self.cli(
            "compare",
            "--candidate", f"{candidate}={self.report}",
            "--reference", str(self.inputs / "human_rdl.json"),
            "--satisfaction", str(self.inputs / "satisfaction.json"),
            "--metric", "RDL",
            "--reference-name", "human",
            "--output", str(self.out / "compare.ndjson"),
            "--seed", str(self.seed),
        )

    def iteration(self, log: TurnLog) -> dict:
        """Run every stage once, back to back, and describe what happened."""
        started = time.perf_counter()
        watch = hostspeed.Stopwatch(self.sampler)
        outcomes = {}
        for name, fn in self.stages(log):
            if self.tracer is not None:
                self.tracer.stage = name.removesuffix("_s")
                self.tracer.dialogue = None
            outcomes[name] = watch.stage(name, fn)
        if self.tracer is not None:
            self.tracer.stage = None
        codes = [code for code in outcomes.values() if isinstance(code, int)]
        repeated, failed_repeats = self.evaluate_again()
        evaluations = [watch.scaled["evaluate_s"]] + repeated
        failed_commands = sum(1 for c in codes if c) + failed_repeats
        record = {
            "pipeline_s": sum(watch.scaled.values()),
            "raw_pipeline_s": sum(watch.raw.values()),
            "stages": watch.scaled,
            "raw_stages": watch.raw,
            "evaluate_s": evaluations,
            "cli_codes": codes,
            "operations": {"cli_commands": [len(evaluations) - 1 + len(codes), failed_commands]},
            "termination": {},
            "system_utterances": 0,
        }
        self.describe(record, outcomes)
        record["hashes"] = {path.name: sha256(path) for path in self.artifacts()}
        record["wall_s"] = time.perf_counter() - started
        return record

    def evaluate_again(self) -> tuple[list[float], int]:
        """Repeat the evaluate command outside the pipeline's timing, so a
        stage of a few milliseconds still yields a steady median. Returns
        the times at reference speed and the number of failed commands."""
        repeats = 0 if self.tracer is not None else self.config["evaluate_repeats"]
        if not repeats:
            return [], 0
        intervals = []
        failed = 0
        for _ in range(repeats):
            started = time.perf_counter()
            failed += self.evaluate() != 0
            intervals.append((started, time.perf_counter()))
        self.sampler.sample()
        return [self.sampler.at_reference(*interval)[1] for interval in intervals], failed

    def describe(self, record: dict, outcomes: dict) -> None:
        """Add workload-specific facts about the finished iteration."""


class SimulationWorkload(Workload):
    """simulate -> annotate -> evaluate -> compare against CRS doubles."""

    def setup(self) -> None:
        self.catalog_path = self.inputs / "catalog.json"
        # The view first, so that the parsed records it is built from are
        # freed before the program allocates anything.
        with open(self.catalog_path, "r", encoding="utf-8") as handle:
            self.view = doubles.CatalogView(json.load(handle))
        self.catalog, self.simulator = program.set_up(
            "simulate", self.config["simulator"], self.catalog_path, self._gateway
        )
        self.systems = self.config["systems"]
        self.simulated = self.out / "simulated.ndjson"
        self.annotated = self.out / "annotated.ndjson"

    def _gateway(self):
        connectors = self.m["connectors"]
        errors = self.m["errors"]
        double = doubles.LlmDouble(
            self.view,
            self.clock,
            lambda message: errors.GatewayError(message, transient=True),
        )
        transport = self.tracer.wrap("double.llm", double) if self.tracer else double
        options = connectors.GatewayOptions(endpoint="http://llm.double/v1/chat", model="user-double")
        return connectors.HttpLlmGateway(options, transport=transport)

    def simulate(self, path: Path, log: TurnLog | None, jobs: int = 1):
        """Simulate against every system and write one corpus; returns it
        with the number of failed dialogues."""
        m = self.m
        n = self.config["dialogues_per_system"]
        dialogues = []
        generators = []
        failures = []
        for index, crs_id in enumerate(sorted(self.systems)):
            double = doubles.CrsDouble(
                self.view, crs_id, self.systems[crs_id], self.clock if log else None
            )
            transport = self.tracer.wrap("double.crs", double) if self.tracer else double
            endpoint = m["connectors"].CrsEndpoint(
                crs_id=crs_id,
                endpoint=f"http://crs.double/{crs_id}",
                request_fields=doubles.CRS_REQUEST_FIELDS,
                response_fields=doubles.CRS_RESPONSE_FIELDS,
            )
            connector = m["connectors"].HttpCrsConnector(endpoint, transport=transport)
            simulator = self.simulator
            if log is not None:
                connector = ConnectorProxy(connector, log, self.tracer)
                simulator = SimulatorProxy(simulator, crs_id, log, self.tracer)
            limits = m["simulation"].RunLimits(seed=self.seed * 10000 + index * 100)
            try:
                corpus = m["simulation"].generate_corpus(
                    simulator, connector, n, catalog=self.catalog, limits=limits, jobs=jobs
                )
            except m["errors"].SimulationError as exc:
                failures.extend({"crs_id": crs_id, "error": str(exc)} for _ in range(n))
                continue
            dialogues.extend(corpus.dialogues)
            generators.append(corpus.extra["generator"])
            failures.extend(corpus.extra.get("failures", []))
        extra = {"generators": generators, "seed": self.seed}
        if failures:
            extra["failures"] = failures
        merged = m["dialogue"].Corpus(dialogues=tuple(dialogues), extra=extra)
        data = m["corpus_io"].serialize_corpus(merged)
        with open(path, "wb") as handle:
            handle.write(data)
        return merged, len(failures)

    def evaluate(self) -> int:
        return self.cli(
            "evaluate", "--input", str(self.annotated), "--output", str(self.report),
            "--metrics", "sr,srrr,rdl", "--seed", str(self.seed),
        )

    def stages(self, log: TurnLog):
        return (
            ("simulate_s", lambda: self.simulate(self.simulated, log)),
            ("annotate_s", lambda: self.cli(
                "annotate", "--input", str(self.simulated), "--output", str(self.annotated),
                "--catalog", str(self.catalog_path), "--seed", str(self.seed),
            )),
            ("evaluate_s", self.evaluate),
            ("compare_s", lambda: self.compare(self.config["simulator"])),
        )

    def artifacts(self):
        return (self.simulated, self.annotated, self.report, self.out / "compare.ndjson")

    def describe(self, record: dict, outcomes: dict) -> None:
        corpus, failed_dialogues = outcomes["simulate_s"]
        termination = record["termination"]
        for dialogue in corpus.dialogues:
            reason = dialogue.extra.get("termination_reason")
            termination[reason] = termination.get(reason, 0) + 1
        utterances = [u for d in corpus.dialogues for u in d.utterances]
        unannotated = sum(1 for u in utterances if not u.acts)
        record["system_utterances"] = sum(1 for u in utterances if u.speaker.value == "SYSTEM")
        record["operations"]["dialogues"] = [
            self.config["dialogues_per_system"] * len(self.systems), failed_dialogues
        ]
        record["operations"]["annotated_utterances"] = [
            unannotated, unannotated if outcomes["annotate_s"] else 0
        ]

    def jobs_diagnostic(self, jobs: int) -> dict:
        """Simulate once with jobs=1 and once with ``jobs`` threads, without
        proxies or tracing; the outputs must be byte-identical."""
        watch = hostspeed.Stopwatch(self.sampler)
        hashes = {}
        for count in (1, jobs):
            path = self.out / f"simulated-jobs{count}.ndjson"
            watch.stage(f"jobs{count}", self.simulate, path, None, count)
            hashes[count] = sha256(path)
        return {
            "jobs": jobs,
            "jobs1_s": watch.scaled["jobs1"],
            "jobs_n_s": watch.scaled[f"jobs{jobs}"],
            "speedup": watch.scaled["jobs1"] / watch.scaled[f"jobs{jobs}"],
            "hashes": hashes,
        }


class EvaluationWorkload(Workload):
    """ingest -> evaluate (with recall) -> compare on a generated corpus."""

    def setup(self) -> None:
        self.corpus = self.inputs / "corpus.ndjson"

    def evaluate(self) -> int:
        return self.cli(
            "evaluate", "--input", str(self.corpus), "--output", str(self.report),
            "--metrics", "sr,srrr,rdl,recall", "--ground-truth", str(self.inputs / "ground_truth.json"),
            "--n", "1", "--seed", str(self.seed),
        )

    def stages(self, log: TurnLog):
        return (
            ("ingest_s", lambda: self.cli("ingest", "--input", str(self.corpus))),
            ("evaluate_s", self.evaluate),
            ("compare_s", lambda: self.compare("human-corpus")),
        )

    def artifacts(self):
        return (self.report, self.out / "compare.ndjson")


def run_phase(workload, budget: float, min_iterations: int, min_turns: int, log: TurnLog, hard_stop: float):
    """Repeat the pipeline until the budget is spent, at least
    ``min_iterations`` ran and ``log`` holds ``min_turns`` samples."""
    iterations = []
    started = time.perf_counter()
    while True:
        iterations.append(workload.iteration(log))
        elapsed = time.perf_counter() - started
        typical = statistics.median(it["wall_s"] for it in iterations)
        enough = len(iterations) >= min_iterations and len(log.samples) >= min_turns
        if enough and elapsed + typical > budget:
            break
        if time.perf_counter() + typical > hard_stop:
            break
    return iterations


def main() -> int:
    with open(sys.argv[1], "r", encoding="utf-8") as handle:
        config = json.load(handle)
    deadline = time.perf_counter() + config["hard_limit_s"]
    sys.path.insert(0, config["src"])
    from evalkit import analysis, annotation, catalog, cli, connectors, corpus_io, dialogue, errors, metrics, simulation

    modules = {
        "analysis": analysis, "annotation": annotation, "catalog": catalog, "cli": cli,
        "connectors": connectors, "corpus_io": corpus_io, "dialogue": dialogue,
        "errors": errors, "metrics": metrics, "simulation": simulation,
    }
    kind = SimulationWorkload if config["kind"] == "simulate" else EvaluationWorkload
    workload = kind(config, modules)
    workload.setup()

    with workload.sampler:
        result = measure(config, workload, modules, deadline)
    result["cli_output"] = workload.cli_output
    with open(config["result_path"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


def measure(config: dict, workload: Workload, modules: dict, deadline: float) -> dict:
    seconds = config["seconds"]
    min_turns = config["min_turns"]
    result: dict = {"workload": config["workload"], "seed": config["seed"], "trace": config["trace"]}
    if not config["trace"]:
        log = TurnLog(workload.clock)
        result["iterations"] = run_phase(workload, seconds, 3, min_turns, log, deadline)
        result["turn_samples_s"] = log.samples
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        # Untraced and traced runs alternate, so both see the same phases
        # of a shared host and their difference is the tracing overhead.
        log = TurnLog(workload.clock)
        tracer = spans.Tracer()
        untraced, traced, per_layer = [], [], []
        # One unmeasured run first, so lazy first-call costs land in neither.
        result["warmup_iterations"] = [workload.iteration(log)]
        phase_start = time.perf_counter()
        while True:
            untraced.append(workload.iteration(log))
            workload.tracer = tracer
            spans.install(tracer, modules)
            begin = len(tracer.spans)
            try:
                iteration = workload.iteration(log)
            finally:
                tracer.restore()
                workload.tracer = None
            per_layer.append(
                spans.layer_metrics(tracer.spans, begin, len(tracer.spans), iteration["system_utterances"])
            )
            traced.append(iteration)
            elapsed = time.perf_counter() - phase_start
            pair = statistics.median(it["wall_s"] for it in untraced + traced) * 2
            if len(traced) >= 2 and elapsed + pair > seconds:
                break
            if time.perf_counter() + pair > deadline:
                break
        if config.get("jobs_diagnostic"):
            result["jobs_diagnostic"] = workload.jobs_diagnostic(config["jobs"])
        loads = [r[spans.END] - r[spans.START] for r in tracer.spans if r[spans.NAME] == "catalog.load"]
        combined, unstable = spans.combine(per_layer)
        combined["catalog.load_s"] = statistics.median(loads) if loads else 0.0
        result["iterations"] = untraced
        result["traced_iterations"] = traced
        result["per_layer"] = combined
        result["unstable_counts"] = unstable
        tracer.write(config["spans_path"])
        result["span_count"] = len(tracer.spans)
    return result


if __name__ == "__main__":
    sys.exit(main())
