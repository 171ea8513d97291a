"""Benchmark of the appraise engine on four seeded workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload is a closed loop with one client: an operation starts only
after the previous one ended.

  scenario-cold   a fresh ``appraise scenario`` process per operation,
                  alternating the two bundled fixtures
  rank-20k        a fresh ``appraise rank --format json`` process on a
                  generated catalog of 20,000 candidates
  query-stream    in-process: load a generated 1,000-candidate catalog once,
                  then one ``run_pipeline`` per seeded (profile, query) pair
  remote-degrade  query-stream on 50 candidates with the remote scorer and
                  the LLM realizer, against a local stub with seeded faults

``--trace 0`` measures with tracing off and reports the end-to-end metrics.
``--trace 1`` runs the operations in-process, alternating plain and traced
ones, and reports the per-layer metrics. Every operation's output is checked
outside its timed interval. The last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. Input and
output hashes, latency samples and spans are written to ``.bench_build/bench``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import random
import re
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "bench"

sys.path.insert(0, str(SRC))
try:
    import jsonschema
    import requests

    from appraisal_explainer import cli, config, explanation, pipeline, salience, schemas, scoring, serialize
    from appraisal_explainer.context import Query, UserProfile
    from appraisal_explainer.errors import EngineError
    from appraisal_explainer.remote import LLM_URL_ENV, NLI_URL_ENV
    from appraisal_explainer.runlog import RunLog
    from appraisal_explainer.salience import SCORER_FALLBACK
    from appraisal_explainer.scoring import Candidate
except ModuleNotFoundError as exc:
    sys.exit(f"error: cannot import the engine from {SRC}: {exc}")

import checks
import gen
import spans
import stub

WORKLOADS = ("scenario-cold", "rank-20k", "query-stream", "remote-degrade")

END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "cands_per_s": "candidates/s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "undegraded_frac": "ratio",
}

LAYERS = (
    "cli", "config", "pipeline", "context", "salience", "scoring",
    "explanation", "serialize", "remote", "runlog",
)

PER_LAYER = {
    "cli.import_ms": "ms",
    "cli.import_requests_ms": "ms",
    "cli.import_jsonschema_ms": "ms",
    "config.load_candidates_ms": "ms",
    "config.json_parse_ms": "ms",
    "config.schema_validate_ms": "ms",
    "config.from_dict_ms": "ms",
    "config.load_profile_ms": "ms",
    "pipeline.load_engine_data_ms": "ms",
    "context.build_us": "us",
    "salience.compute_us": "us",
    "scoring.rank_ms": "ms",
    "scoring.vector_us_per_cand": "us",
    "scoring.rank_vectors_ms": "ms",
    "scoring.cands_in": "count",
    "scoring.cands_ranked": "count",
    "scoring.cands_excluded": "count",
    "scoring.ranked_frac": "ratio",
    "explanation.plan_us": "us",
    "explanation.realize_us": "us",
    "explanation.compare_us": "us",
    "explanation.prompt_us": "us",
    "serialize.ranking_to_dict_ms": "ms",
    "serialize.json_dumps_ms": "ms",
    "serialize.out_bytes": "bytes",
    "remote.entailment_ms": "ms",
    "remote.chat_ms": "ms",
    "remote.calls": "count/op",
    "remote.failed_5xx": "count/op",
    "remote.failed_non_json": "count/op",
    "remote.failed_shape": "count/op",
    "remote.failed_connect": "count/op",
    "remote.fallbacks": "count/op",
    "remote.fatal_frac": "ratio",
    "runlog.write_us": "us",
    "trace.overhead_frac": "ratio",
    **{f"{layer}.self_ms": "ms" for layer in LAYERS},
}

SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3

# Timings are rescaled to a reference host speed, because a shared host's
# speed swings up to twofold for seconds to minutes at a time when other
# tenants load it, which moves a run's median wall time by half. Between
# operations (and around each set-up probe) reference_s() times a fixed piece
# of engine-like work; each interval is multiplied by REFERENCE_S over the mean
# of the reference times on its two sides and, for a child process, the ones
# taken every SAMPLE_EVERY_S while it is stopped: the host's speed changes
# within seconds, so only samples taken during a long operation follow it.
# REFERENCE_S is the reference's time on an idle host (0.75-0.78 ms on a
# 2-CPU x86-64 VM with Python 3.11), so a rescaled time reads roughly as the
# wall time on an idle host. Wall times are reported beside the rescaled ones.
REFERENCE_S = 0.00075
SAMPLE_EVERY_S = 0.25
REFERENCE_TEXT = " ".join(f"word{i % 50} Quick, fresh salad {i} with spicy sauce!" for i in range(40))
TOKEN_RE = re.compile(r"[a-z0-9]+")

IMPORT_PROBE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import appraisal_explainer.cli\n"
    "print(time.perf_counter() - start)\n"
)
# The in-process set-up: import, engine data, then the generated documents.
LOAD_PROBE = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "from appraisal_explainer import config, pipeline\n"
    "pipeline.load_engine_data(config.RunConfig())\n"
    "[config.load_profile(path) for path in sys.argv[2:]]\n"
    "config.load_candidates(sys.argv[1])\n"
    "print(time.perf_counter() - start)\n"
)


@dataclass
class Op:
    latency_s: float
    cands: int
    problems: list[str]
    degraded: bool = False
    rss_kb: int = 0
    output_sha: str = ""
    speed: float = 1.0  # REFERENCE_S over the reference's time around and during the operation
    # Reference times taken while the operation's process was stopped.
    during: list[float] = field(default_factory=list)

    @property
    def scaled_s(self) -> float:
        return self.latency_s * self.speed


@dataclass
class Run:
    """What one run of a workload measured."""

    ops: list[Op] = field(default_factory=list)
    plain: list[int] = field(default_factory=list)
    traced: list[int] = field(default_factory=list)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def child_env() -> dict[str, str]:
    """The engine on the path, and bytecode caches allowed, as an installed CLI has them."""
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(
    argv: list[str], tmp: Path, during: list[float] | None = None
) -> tuple[float, int, int, bytes, bytes]:
    """Run one child process; (wall s, exit code, peak RSS KiB, stdout, stderr).

    With ``during``, every SAMPLE_EVERY_S the child is stopped, the reference
    is timed on the CPU it ran on and appended to ``during``, and the child
    is continued. The stopped time is left out of the wall time.
    """
    stdout_path, stderr_path = tmp / "child.stdout", tmp / "child.stderr"
    with stdout_path.open("wb") as out, stderr_path.open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=tmp)
        stopped_s = 0.0
        status = usage = None
        try:
            if during is not None:
                pidfd = os.pidfd_open(proc.pid)
                try:
                    while status is None and not select.select([pidfd], [], [], SAMPLE_EVERY_S)[0]:
                        os.kill(proc.pid, signal.SIGSTOP)
                        _, wait_status, wait_usage = os.wait4(proc.pid, os.WUNTRACED)
                        if not os.WIFSTOPPED(wait_status):  # it ended before the signal
                            status, usage = wait_status, wait_usage
                            break
                        stop = time.perf_counter()
                        during.append(reference_s())
                        os.kill(proc.pid, signal.SIGCONT)
                        stopped_s += time.perf_counter() - stop
                finally:
                    os.close(pidfd)
            if status is None:
                _, status, usage = os.wait4(proc.pid, 0)
        finally:
            if status is None:
                proc.kill()
                os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start - stopped_s
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss, stdout_path.read_bytes(), stderr_path.read_bytes()


def reference_s(at_least_s: float = 0.0) -> float:
    """Median seconds of fixed engine-like work, timed at least three times and
    for at least ``at_least_s`` in all: the host's speed now.

    The work is what the engine spends its time on: a regular-expression
    tokenizer, dict counting, sorting and a JSON round trip. Its time tracks
    the engine's under load (log-log slope 0.85 against query-stream
    operations over 2-second windows) far better than a bare arithmetic loop
    (0.67), which would over-correct.
    """
    samples: list[float] = []
    gc.disable()
    try:
        while len(samples) < 3 or sum(samples) < at_least_s:
            start = time.perf_counter()
            for _ in range(3):
                tokens = TOKEN_RE.findall(REFERENCE_TEXT.lower())
                counts: dict[str, int] = {}
                for token in tokens:
                    counts[token] = counts.get(token, 0) + 1
                json.loads(json.dumps(sorted(counts.items()), indent=2))
                sorted(frozenset(tokens))
            samples.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return statistics.median(samples)


def speed(*reference: float) -> float:
    """REFERENCE_S over the mean of reference times: the host's speed, 1 when idle."""
    return REFERENCE_S / statistics.fmean(reference)


def median_setup_s(argv: list[str], tmp: Path) -> tuple[float, float]:
    """Median set-up seconds of SETUP_REPEATS fresh probe processes: (rescaled, wall)."""
    scaled, wall = [], []
    before = reference_s()
    for _ in range(SETUP_REPEATS):
        during: list[float] = []
        _, code, _, stdout, stderr = run_child(argv, tmp, during)
        after = reference_s()
        if code != 0:
            raise RuntimeError(f"set-up probe failed: {stderr.decode(errors='replace')}")
        wall.append(float(stdout))
        scaled.append(wall[-1] * speed(before, *during, after))
        before = after
    return statistics.median(scaled), statistics.median(wall)


def import_breakdown(tmp: Path) -> dict[str, float]:
    """Cumulative import ms of the CLI, requests and jsonschema, from -X importtime."""
    modules = {
        "appraisal_explainer.cli": "cli.import_ms",
        "requests": "cli.import_requests_ms",
        "jsonschema": "cli.import_jsonschema_ms",
    }
    samples: dict[str, list[float]] = {metric: [] for metric in modules.values()}
    for _ in range(IMPORTTIME_REPEATS):
        _, code, _, _, stderr = run_child(
            [sys.executable, "-X", "importtime", "-c", "import appraisal_explainer.cli"], tmp
        )
        if code != 0:
            raise RuntimeError(f"import probe failed: {stderr.decode(errors='replace')}")
        seen = set()
        for line in stderr.decode().splitlines():
            parts = line.split("|")
            name = parts[-1].strip() if len(parts) == 3 else ""
            if name in modules and name not in seen:
                seen.add(name)
                samples[modules[name]].append(int(parts[1]) / 1e3)
    return {metric: statistics.median(values) if values else 0.0 for metric, values in samples.items()}


def _dumps(doc) -> str:
    return json.dumps(doc, indent=2, ensure_ascii=False)


def tracing_patches(tr) -> list:
    """Wrappers that open a span around each public call the engine makes.

    Names the engine imported into a caller's namespace are patched there,
    since that is where the call looks them up.
    """
    this = sys.modules[__name__]

    def in_each(owners, attr, wrapper):
        return [(owner, attr, wrapper) for owner in owners]

    def rank(candidates, *args, **kwargs):
        ranked = tr.call("scoring.rank", orig_rank, candidates, *args, **kwargs)
        tr.count("scoring.cands_in", len(candidates))
        tr.count("scoring.cands_ranked", len(ranked.entries))
        tr.count("scoring.cands_excluded", len(ranked.excluded))
        return ranked

    def compute_salience(*args, **kwargs):
        profile = tr.call("salience.compute", orig_salience, *args, **kwargs)
        if profile.scorer_id == SCORER_FALLBACK:
            tr.count("remote.fallbacks")
        return profile

    def record(self, *args, **kwargs):
        if kwargs.get("fallback"):
            tr.count("remote.fallbacks")
        return tr.call("runlog.record", orig_record, self, *args, **kwargs)

    def counted(dumps):
        def call(*args, **kwargs):
            text = tr.call("serialize.json_dumps", dumps, *args, **kwargs)
            tr.count("serialize.out_bytes", len(text.encode("utf-8")))
            return text

        return call

    def remote(span, fn):
        def call(*args, **kwargs):
            tr.count("remote.calls")
            try:
                return tr.call(span, fn, *args, **kwargs)
            except EngineError as exc:
                tr.count(f"remote.failed_{failure_class(exc)}")
                raise

        return call

    orig_rank = pipeline.rank_candidates
    orig_salience = pipeline.compute_salience
    orig_record = RunLog.record
    w = tr.wrap
    return [
        *in_each((cli, config), "load_profile", w("config.load_profile", config.load_profile)),
        *in_each((cli, config), "load_candidates", w("config.load_candidates", config.load_candidates)),
        (config, "json", spans.ModuleView(json, loads=w("config.json_parse", json.loads))),
        (config, "jsonschema", spans.ModuleView(
            jsonschema, validate=w("config.schema_validate", jsonschema.validate))),
        (Candidate, "from_dict", staticmethod(w("config.from_dict", Candidate.from_dict))),
        (UserProfile, "from_dict", staticmethod(w("config.from_dict", UserProfile.from_dict))),
        *in_each((cli, pipeline), "load_engine_data",
                 w("pipeline.load_engine_data", pipeline.load_engine_data)),
        *in_each((cli, pipeline), "run_pipeline", w("pipeline.run_pipeline", pipeline.run_pipeline)),
        (pipeline, "realize_appraisal", w("pipeline.realize_appraisal", pipeline.realize_appraisal)),
        (pipeline, "realize_baseline", w("pipeline.realize_baseline", pipeline.realize_baseline)),
        (pipeline, "build_unified_context", w("context.build", pipeline.build_unified_context)),
        (pipeline, "compute_salience", compute_salience),
        (salience, "request_entailment_scores",
         remote("remote.entailment", salience.request_entailment_scores)),
        (pipeline, "rank_candidates", rank),
        (scoring, "appraisal_vector", w("scoring.vector", scoring.appraisal_vector)),
        (scoring, "rank_vectors", w("scoring.rank_vectors", scoring.rank_vectors)),
        (pipeline, "build_plan", w("explanation.plan", pipeline.build_plan)),
        (pipeline, "realize_template", w("explanation.realize", pipeline.realize_template)),
        (pipeline, "realize_baseline_template",
         w("explanation.realize_baseline", pipeline.realize_baseline_template)),
        (pipeline, "build_prompt", w("explanation.prompt", pipeline.build_prompt)),
        (pipeline, "realize_llm", w("explanation.realize_llm", pipeline.realize_llm)),
        (explanation, "request_chat_completion",
         remote("remote.chat", explanation.request_chat_completion)),
        (pipeline, "compare", w("explanation.compare", pipeline.compare)),
        *[
            entry
            for name in ("ranking_to_dict", "salience_to_dict", "plan_to_dict", "comparison_to_dict")
            for entry in in_each((cli, serialize), name, w(f"serialize.{name}", getattr(serialize, name)))
        ],
        (cli, "json", spans.ModuleView(json, dumps=counted(json.dumps))),
        (this, "_dumps", counted(_dumps)),
        (RunLog, "write", w("runlog.write", RunLog.write)),
        (RunLog, "record", record),
    ]


def failure_class(exc: Exception) -> str:
    """How a remote call failed, from the exception the client raised."""
    cause = exc.__cause__
    if isinstance(cause, requests.HTTPError):
        return "5xx"
    if isinstance(cause, requests.ConnectionError):
        return "connect"
    if isinstance(cause, ValueError):
        return "non_json"
    return "shape"


def content_key(result) -> tuple:
    """Everything ``ranking_to_dict`` and the weights contribute to a ranking's check.

    Serializing every ranking to hash it would cost about as much as the
    operation itself; equal keys give equal serialized rankings.
    """
    ranked = result.ranked
    return (
        tuple(result.salience.weights.values()),
        tuple(
            (entry.candidate_id, entry.composite,
             tuple(entry.vector.scores.items()), tuple(entry.vector.evidence.items()))
            for entry in ranked.entries
        ),
        ranked.excluded,
    )


class Workload:
    """Inputs, set-up and one operation of a workload."""

    cli = False
    warmup = True

    def __init__(self, tmp: Path) -> None:
        self.tmp = tmp
        self.inputs: dict[str, str] = {}
        self.checked: dict[object, tuple[list[str], str]] = {}
        # Ids whose composite passed the check above 1.0, within its tolerance.
        self.above_one: list[str] = []
        self.patches: list = []
        self.tracer = None

    def write_input(self, name: str, doc, schema: dict) -> Path:
        """Validate a generated document once, write it, record its sha256."""
        jsonschema.Draft202012Validator(schema).validate(doc)
        data = gen.dump(doc)
        path = self.tmp / name
        path.write_bytes(data)
        self.inputs[name] = sha256(data)
        return path

    def tracing(self, tr):
        return spans.patched(self.patches) if tr is not None and tr is self.tracer else nullcontext()

    def check_once(self, key, check) -> tuple[list[str], str]:
        """``check()`` -> (problems, output sha256), run once per distinct output."""
        if key not in self.checked:
            self.checked[key] = check()
        return self.checked[key]


class CliWorkload(Workload):
    """One operation is one CLI invocation: a fresh process, or ``cli.main`` in-process."""

    cli = True

    def argv(self, k: int, out_dir: Path) -> list[str]:
        raise NotImplementedError

    def check(self, k: int, out_dir: Path, stdout: bytes) -> tuple[list[str], str]:
        """(problems, sha256 of the primary output) of operation ``k``."""
        raise NotImplementedError

    def cands(self, k: int) -> int:
        raise NotImplementedError

    def setup_probe(self) -> list[str]:
        return [sys.executable, "-c", IMPORT_PROBE]

    def op(self, k: int, tr) -> Op:
        out_dir = self.tmp / "out"
        argv = self.argv(k, out_dir)
        rss_kb = 0
        during: list[float] = []
        if tr is None:
            latency, code, rss_kb, stdout, _ = run_child(
                [sys.executable, "-m", "appraisal_explainer.cli", *argv], self.tmp, during
            )
        else:
            captured = io.StringIO()
            with self.tracing(tr), redirect_stdout(captured), redirect_stderr(io.StringIO()):
                start = time.perf_counter()
                code = tr.call("cli.main", cli.main, argv)
                latency = time.perf_counter() - start
            stdout = captured.getvalue().encode("utf-8")
        if code != 0:
            problems, output_sha = [f"exit code {code}"], ""
        else:
            problems, output_sha = self.check(k, out_dir, stdout)
        shutil.rmtree(out_dir, ignore_errors=True)
        return Op(latency, self.cands(k), problems, rss_kb=rss_kb, output_sha=output_sha, during=during)


class ScenarioCold(CliWorkload):
    """``appraise scenario <alex|sarah> --out DIR``; the seed picks the first fixture."""

    def __init__(self, seed: int, tmp: Path) -> None:
        super().__init__(tmp)
        from appraisal_explainer.fixtures import FIXTURE_NAMES, fixture_document

        names = list(FIXTURE_NAMES)
        self.names = names[seed % 2:] + names[: seed % 2]
        docs = {name: fixture_document(name) for name in names}
        self.ids = {name: [c["id"] for c in doc["candidates"]] for name, doc in docs.items()}
        self.inputs = {f"fixture:{name}": sha256(json.dumps(doc).encode()) for name, doc in docs.items()}

    def name(self, k: int) -> str:
        return self.names[k % 2]

    def argv(self, k, out_dir):
        return ["scenario", self.name(k), "--out", str(out_dir)]

    def check(self, k, out_dir, stdout):
        problems = checks.check_scenario(out_dir, self.ids[self.name(k)], self.above_one)
        artifacts = b"".join(
            (out_dir / name).read_bytes()
            for name in checks.SCENARIO_ARTIFACTS
            if name != "runlog.jsonl" and (out_dir / name).is_file()
        )
        return problems, sha256(artifacts)

    def cands(self, k):
        return len(self.ids[self.name(k)])


class Rank20k(CliWorkload):
    """``appraise rank --format json`` on 20,000 generated candidates."""

    warmup = False
    size = 20_000

    def __init__(self, seed: int, tmp: Path) -> None:
        super().__init__(tmp)
        rng = random.Random(seed)
        words = gen.load_word_lists()
        catalog = gen.catalog(rng, self.size, *words)
        self.ids = [record["id"] for record in catalog]
        # "no-nuts" keeps most of the catalog ranked, so the full output is serialized.
        self.profile = self.write_input(
            "profile.json", gen.profile(rng, "u000", ("no-nuts",), *words), schemas.PROFILE_SCHEMA
        )
        self.catalog = self.write_input("catalog.json", catalog, schemas.CANDIDATES_SCHEMA)
        self.query = gen.query(rng, *words, with_duration=rng.random() < 0.5)

    def argv(self, k, out_dir):
        return [
            "rank", "--format", "json", "--profile", str(self.profile),
            "--query", self.query, "--candidates", str(self.catalog),
        ]

    def check(self, k, out_dir, stdout):
        digest = sha256(stdout)
        return self.check_once(
            digest,
            lambda: (checks.check_ranking(json.loads(stdout), self.ids, above_one=self.above_one), digest),
        )

    def cands(self, k):
        return self.size


class QueryStream(Workload):
    """Load a catalog once, then one ``run_pipeline`` per seeded (profile, query) pair."""

    size = 1_000
    profiles = 10
    queries = 20
    pairs_count = 10

    def __init__(self, seed: int, tmp: Path) -> None:
        super().__init__(tmp)
        rng = random.Random(seed)
        words = gen.load_word_lists()
        catalog = gen.catalog(rng, self.size, *words)
        self.ids = [record["id"] for record in catalog]
        self.catalog = self.write_input("catalog.json", catalog, schemas.CANDIDATES_SCHEMA)
        self.profile_paths = [
            self.write_input(f"profile-{doc['user_id']}.json", doc, schemas.PROFILE_SCHEMA)
            for doc in gen.profile_mix(rng, self.profiles, *words)
        ]
        self.query_texts = gen.query_mix(rng, self.queries, *words)
        self.pairs = [(i % self.profiles, rng.randrange(self.queries)) for i in range(self.pairs_count)]
        rng.shuffle(self.pairs)
        self.cfg = config.RunConfig()

    def setup_probe(self) -> list[str]:
        return [sys.executable, "-c", LOAD_PROBE, str(self.catalog), *map(str, self.profile_paths)]

    def load(self, tr) -> None:
        """The set-up the in-process caller pays once: engine data and documents."""
        with self.tracing(tr):
            self.data = pipeline.load_engine_data(self.cfg)
            self.loaded = [config.load_profile(path) for path in self.profile_paths]
            self.candidates = config.load_candidates(self.catalog)
        self.parsed_queries = [Query(text=text) for text in self.query_texts]

    def prepare_op(self, k: int) -> None:
        pass

    def body(self, profile, query, runlog):
        result = pipeline.run_pipeline(
            profile, query, self.candidates, self.data, self.cfg, runlog,
            want_appraisal=True, want_baseline=True, want_compare=True,
        )
        text = _dumps({
            "plan": serialize.plan_to_dict(result.plan),
            "comparison": serialize.comparison_to_dict(result.comparison),
        })
        return result, text

    def check(self, result) -> tuple[list[str], str]:
        """Check the ranking as ``rank --format json`` would print it."""
        ranking = _dumps(serialize.ranking_to_dict(result.ranked)) + "\n"
        weights = serialize.salience_to_dict(result.salience)["weights"]
        problems = checks.check_ranking(json.loads(ranking), self.ids, weights, self.above_one)
        return problems, sha256(ranking.encode("utf-8"))

    def op(self, k: int, tr) -> Op:
        tr = tr or spans.NullTracer()
        profile_index, query_index = self.pairs[k % len(self.pairs)]
        self.prepare_op(k)
        runlog = RunLog()
        with self.tracing(tr):
            start = time.perf_counter()
            try:
                result, _ = tr.call(
                    "bench.op", self.body, self.loaded[profile_index], self.parsed_queries[query_index], runlog
                )
            except EngineError as exc:
                return Op(time.perf_counter() - start, len(self.candidates),
                          [f"{type(exc).__name__}: {exc}"])
            latency = time.perf_counter() - start
        problems, output_sha = self.check_once(content_key(result), lambda: self.check(result))
        if not (result.explanation and result.baseline and result.comparison):
            problems = problems + ["explanation, baseline or comparison missing"]
        degraded = result.salience.scorer_id == SCORER_FALLBACK or any(
            record.fallback for record in runlog.records
        )
        return Op(latency, len(self.candidates), problems, degraded=degraded, output_sha=output_sha)


class RemoteDegrade(QueryStream):
    """query-stream on 50 candidates, remote scorer and LLM realizer, against the stub."""

    size = 50

    def __init__(self, seed: int, tmp: Path) -> None:
        super().__init__(seed, tmp)
        self.cfg = config.RunConfig(scorer="remote", realizer="llm", fallback=True)
        self.schedule = stub.fault_schedule(seed)
        self.plans: list = []
        self.server = stub.StubServer()
        self.fatal_frac = 0.0

    def prepare_op(self, k: int) -> None:
        while len(self.plans) <= k:
            self.plans.append(next(self.schedule))
        self.arm(self.plans[k])

    def arm(self, plan) -> None:
        urls = self.server.begin(plan)
        os.environ[NLI_URL_ENV] = urls["nli"]
        os.environ[LLM_URL_ENV] = urls["chat"]

    def probe_fatal(self) -> None:
        """Share of malformed entailment replies that end the operation despite fallback."""
        fatal = 0
        for plan in stub.PROBES:
            self.arm(plan)
            try:
                self.body(self.loaded[0], self.parsed_queries[0], RunLog())
            except EngineError:
                fatal += 1
        self.fatal_frac = fatal / len(stub.PROBES)


CLASSES = {
    "scenario-cold": ScenarioCold,
    "rank-20k": Rank20k,
    "query-stream": QueryStream,
    "remote-degrade": RemoteDegrade,
}


def measure(workload: Workload, seconds: float, trace: bool) -> Run:
    """Run operations until their summed time reaches ``seconds``.

    With ``trace``, operations alternate plain and traced, each pair on the
    same input, so the pair's difference is the tracing overhead.
    """
    run = Run()
    modes = (spans.NullTracer(), workload.tracer) if trace else (None,)
    busy = 0.0
    i = 0
    before = reference_s()
    while busy < seconds or i < len(modes):
        tr = modes[i % len(modes)]
        if trace and tr is workload.tracer:
            tr.op = i
            run.traced.append(i)
        else:
            run.plain.append(i)
        op = workload.op(i // len(modes), tr)
        # Sampling the host for 1% of the operation's time steadies the
        # factor of long operations at negligible cost.
        after = reference_s(0.01 * op.latency_s)
        op.speed = speed(before, *op.during, after)
        before = after
        run.ops.append(op)
        busy += op.latency_s
        i += 1
    return run


def end_to_end(workload: Workload, run: Run, setup_s: float) -> dict[str, float]:
    """The end-to-end metrics; timings rescaled to the reference host speed."""
    latencies = [op.scaled_s for op in run.ops]
    attempted = len(run.ops)
    failed = sum(1 for op in run.ops if op.problems)
    degraded = sum(1 for op in run.ops if op.degraded)
    if workload.cli:
        peak_kb = max(op.rss_kb for op in run.ops)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": setup_s,
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": percentile90(latencies) * 1e3,
        "cands_per_s": sum(op.cands for op in run.ops) / sum(latencies),
        "peak_rss_mb": peak_kb / 1024,
        "ok_frac": 1 - failed / attempted,
        "undegraded_frac": 1 - degraded / attempted,
    }


def percentile90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def per_layer(workload: Workload, run: Run, imports: dict[str, float]) -> tuple[dict, dict]:
    """Per-layer metrics: medians over traced operations (or the traced set-up)."""
    tr = workload.tracer
    views = spans.per_op(tr.spans)
    empty = {"ns": {}, "calls": {}, "self_ns": {}}
    ops = [views.get(i, empty) for i in run.traced]
    setup = views.get("setup", empty)

    def span(name: str, scale: float) -> float:
        values = [view["ns"][name] for view in ops if name in view["ns"]]
        if not values and name in setup["ns"]:
            values = [setup["ns"][name]]
        return statistics.median(values) * scale if values else 0.0

    def spans_sum(names, scale: float) -> float:
        return statistics.median(sum(view["ns"].get(n, 0) for n in names) for view in ops) * scale

    def counts(name: str) -> list[float]:
        return [tr.counts.get((i, name), 0.0) for i in run.traced]

    def per_cand(view) -> float:
        calls = view["calls"].get("scoring.vector", 0)
        return view["ns"].get("scoring.vector", 0) / calls / 1e3 if calls else 0.0

    ranked_frac = [
        ranked / scored
        for ranked, scored in zip(counts("scoring.cands_ranked"), counts("scoring.cands_in"))
        if scored
    ]
    plain = statistics.median(run.ops[i].scaled_s for i in run.plain)
    traced = statistics.median(run.ops[i].scaled_s for i in run.traced)
    self_ms = {
        layer: statistics.median(view["self_ns"].get(layer, 0) for view in ops) / 1e6
        for layer in (*LAYERS, "bench")
    }
    metrics = {
        **imports,
        "config.load_candidates_ms": span("config.load_candidates", 1e-6),
        "config.json_parse_ms": span("config.json_parse", 1e-6),
        "config.schema_validate_ms": span("config.schema_validate", 1e-6),
        "config.from_dict_ms": span("config.from_dict", 1e-6),
        "config.load_profile_ms": span("config.load_profile", 1e-6),
        "pipeline.load_engine_data_ms": span("pipeline.load_engine_data", 1e-6),
        "context.build_us": span("context.build", 1e-3),
        "salience.compute_us": span("salience.compute", 1e-3),
        "scoring.rank_ms": span("scoring.rank", 1e-6),
        "scoring.vector_us_per_cand": statistics.median(per_cand(view) for view in ops),
        "scoring.rank_vectors_ms": span("scoring.rank_vectors", 1e-6),
        "scoring.cands_in": statistics.median(counts("scoring.cands_in")),
        "scoring.cands_ranked": statistics.median(counts("scoring.cands_ranked")),
        "scoring.cands_excluded": statistics.median(counts("scoring.cands_excluded")),
        "scoring.ranked_frac": statistics.median(ranked_frac) if ranked_frac else 0.0,
        "explanation.plan_us": span("explanation.plan", 1e-3),
        "explanation.realize_us": spans_sum(("explanation.realize", "explanation.realize_baseline"), 1e-3),
        "explanation.compare_us": span("explanation.compare", 1e-3),
        "explanation.prompt_us": span("explanation.prompt", 1e-3),
        "serialize.ranking_to_dict_ms": span("serialize.ranking_to_dict", 1e-6),
        "serialize.json_dumps_ms": span("serialize.json_dumps", 1e-6),
        "serialize.out_bytes": statistics.median(counts("serialize.out_bytes")),
        "remote.entailment_ms": span("remote.entailment", 1e-6),
        "remote.chat_ms": span("remote.chat", 1e-6),
        **{
            f"remote.{name}": statistics.fmean(counts(f"remote.{name}"))
            for name in ("calls", "failed_5xx", "failed_non_json", "failed_shape",
                         "failed_connect", "fallbacks")
        },
        "remote.fatal_frac": getattr(workload, "fatal_frac", 0.0),
        "runlog.write_us": span("runlog.write", 1e-3),
        "trace.overhead_frac": traced / plain - 1,
        **{f"{layer}.self_ms": self_ms[layer] for layer in LAYERS},
    }
    return metrics, self_ms


def report(metrics: dict, units: dict, info: dict, lines: list[str]) -> None:
    """Write the results file, print the lines, and print the result as the last line."""
    path = OUT / f"{info['workload']}-seed{info['seed']}-trace{info['trace']}.json"
    path.write_text(json.dumps({**info, "metrics": metrics}, indent=2) + "\n", "utf-8")
    for line in lines:
        print(line)
    print(f"results: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": info["failed"] == 0,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run unwinds, so no child process is left behind, stopped or not.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    OUT.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        return bench(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def bench(args, tmp: Path) -> int:
    trace = bool(args.trace)
    # Co-tenant load differs between CPUs, so the benchmark, its child
    # processes and the reference all run on one.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload = CLASSES[args.workload](args.seed, tmp)
    if trace:
        workload.tracer = spans.Tracer()
        workload.patches = tracing_patches(workload.tracer)
    # A first import writes the bytecode caches, so no timing pays for compiling.
    run_child([sys.executable, "-c", "import appraisal_explainer.cli"], tmp)
    setup_s = wall_setup_s = 0.0
    if not trace:
        setup_s, wall_setup_s = median_setup_s(workload.setup_probe(), tmp)
    server = getattr(workload, "server", None)
    with server if server is not None else nullcontext():
        if not workload.cli:
            if trace:
                workload.tracer.op = "setup"
            workload.load(workload.tracer)
        if workload.warmup:
            workload.op(0, None if not trace else spans.NullTracer())
        run = measure(workload, args.seconds, trace)
        if trace and server is not None:
            workload.probe_fatal()
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": len(run.ops),
        "failed": sum(1 for op in run.ops if op.problems),
        "problems": sorted({p for op in run.ops for p in op.problems})[:20],
        "inputs_sha256": workload.inputs,
        "first_output_sha256": run.ops[0].output_sha,
        "distinct_outputs": len({op.output_sha for op in run.ops}),
        "wall_latency_ms": [round(op.latency_s * 1e3, 4) for op in run.ops],
        "speed": [round(op.speed, 4) for op in run.ops],
        "composites_above_1": len(workload.above_one),
    }
    if server is not None:
        info["stub_served"] = dict(sorted(server.served.items()))
    lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
             f"operations {info['attempted']}  failed {info['failed']}"]
    lines += [f"  problem: {p}" for p in info["problems"]]
    if workload.above_one:
        lines.append(f"  note: {len(workload.above_one)} composites above 1.0 by rounding, "
                     f"within {checks.TOLERANCE:g} (first: {workload.above_one[0]})")
    if trace:
        imports = import_breakdown(tmp)
        metrics, self_ms = per_layer(workload, run, imports)
        spans_path = OUT / f"{args.workload}-spans.jsonl"
        workload.tracer.write(spans_path)
        info["spans"] = str(spans_path.relative_to(ROOT))
        info["self_ms_per_op"] = self_ms
        units = PER_LAYER
        shares = dict(self_ms)
        if workload.cli:
            shares["cli.import"] = imports["cli.import_ms"]
        total = sum(shares.values()) or 1.0
        lines.append("  self time per operation (ms, share):")
        lines += [
            f"    {layer:<12} {ms:10.3f}  {ms / total:6.1%}"
            for layer, ms in sorted(shares.items(), key=lambda item: -item[1])
        ]
        notes = {}
    else:
        metrics = end_to_end(workload, run, setup_s)
        units = END_TO_END
        wall = [op.latency_s for op in run.ops]
        info["wall"] = {
            "setup_s": wall_setup_s,
            "latency_p50_ms": statistics.median(wall) * 1e3,
            "latency_p90_ms": percentile90(wall) * 1e3,
            "cands_per_s": sum(op.cands for op in run.ops) / sum(wall),
        }
        info["speed_p50"] = statistics.median(op.speed for op in run.ops)
        count = info["attempted"]
        notes = {name: f"wall {value:.6g}" for name, value in info["wall"].items()}
        notes["latency_p50_ms"] += f"; n={count}"
        notes["latency_p90_ms"] += f"; n={count}" + ("" if count >= 100 else ", under 100: near the slowest")
    lines += [
        f"  {name:<30} {metrics[name]:.6g} {unit}  {notes.get(name, '')}".rstrip()
        for name, unit in units.items()
    ]
    if not trace:
        lines.append(f"  host speed, median over operations (1 = idle host): {info['speed_p50']:.4g}")
    report(metrics, units, info, lines)
    return 0


if __name__ == "__main__":
    sys.exit(main())
