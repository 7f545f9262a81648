"""The three benchmark workloads and the correctness gate they share.

fleet-telemetry and fleet-disputes run whole scenarios in a closed loop:
one fresh engine at a time, each on its own seeded config, until the time
budget is spent. ledger-audit builds its ledgers during set-up and then
times only the read side: `load_ledger` + `chain_faults` (what
`avledger verify` does) and EST-history lookups on the loaded ledger.

Program functions are called through their modules (`ledger.load_ledger`)
so that the traced run, which swaps module attributes, sees every call.

Every timed sample is in reference-scaled seconds (see `reference.py`),
which takes out most of the drift in speed of a shared host. Samples are
short (one scenario, one load + verify, one chunk of lookups), so the
reference is read close to the work it scales. A throughput is the work
over the seconds summed across all the run's samples; on this host that
reads steadier from run to run than a median of per-sample rates, whose
samples spread widely. `history_lookups_per_s` is the exception: lookups
scan the whole ledger and slow down by up to 3x, for tens of seconds,
when a neighbour loads the memory system, which the reference does not
feel. So it reads the upper decile of its per-chunk rates, the speed of
the lookups the neighbours left alone. `setup_s` is the median of several
set-ups.

Every unit of work is checked outside its timer. A unit that fails the
gate is counted as failed and its timings are dropped.
"""

from __future__ import annotations

import hashlib
import os
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, TypeVar

from avledger import ledger
from avledger.ledger import PartitionLedger
from avledger.scenarios import ScenarioConfig, ScenarioEngine, ScenarioResult
from avledger.txmodel import Partition, TxKind

import fleetgen
from fleetgen import FleetShape
from reference import Clock

T = TypeVar("T")

P1 = Partition.OPERATIONAL
P2 = Partition.DECISIONAL

# Why each workload exists is recorded in BENCHMARK.json; the shapes here
# follow the sizes that take a few seconds per scenario on a 2-core box.
FLEET_TELEMETRY = FleetShape(n_vehicles=50, n_events=2000, mix=(70, 15, 15, 0), drop_prob=0.3)
FLEET_DISPUTES = FleetShape(n_vehicles=20, n_events=1200, mix=(60, 15, 15, 10), drop_prob=0.1)
LEDGER_AUDIT = FleetShape(n_vehicles=60, n_events=2000, mix=(80, 9, 9, 2), drop_prob=0.1)

# Fleet set-up is milliseconds, so it is sampled several extra times.
FLEET_SETUP_REPEATS = 15
# ledger-audit builds this many ledgers, one per derived seed, and cycles
# through them in the timed phase.
AUDIT_LEDGERS = 3
# EST-history lookups per fleet scenario, and per audit batch. Each batch is
# timed in chunks of LOOKUP_CHUNK lookups, one sample per chunk.
FLEET_LOOKUPS = 2000
AUDIT_LOOKUP_BATCH = 3000
LOOKUP_CHUNK = 500
# Each fleet scenario's saved ledgers are loaded and verified this many
# times, one sample each.
FLEET_VERIFY_REPEATS = 3
MAX_INSTANCES = 1000


def instance_seed(seed: int, index: int) -> int:
    """Scenario seed of the index-th scenario of a run with this seed."""
    return seed * MAX_INSTANCES + index


def _now() -> float:
    return time.perf_counter()


CLOCK = Clock()


def timed(work: Callable[[], T]) -> tuple[T, float]:
    """Runs work once after a full collection: (result, scaled seconds)."""
    return CLOCK.timed(work)


def _tids(lg: PartitionLedger) -> list[bytes]:
    return [tx.tid for tx in lg.all_transactions()]


def fingerprint(result: ScenarioResult, ledger_files: list[str]) -> str:
    """SHA-256 over the report JSON, the audit lines and the saved ledgers."""
    h = hashlib.sha256()
    parts = [result.report.to_json().encode(), "\n".join(result.audit_lines).encode()]
    for path in ledger_files:
        with open(path, "rb") as fh:
            parts.append(fh.read())
    for part in parts:
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
    return h.hexdigest()


def report_problems(result: ScenarioResult, engine: ScenarioEngine) -> list[str]:
    """Scenario-level gate: honest traffic only, so nothing diverges,
    nothing is rejected, every emission ends in exactly one bucket, and
    all replicas of a partition hold the same chain.
    """
    report = result.report
    problems = []
    for part in (P1, P2):
        stats = report.consensus[part.value]
        if stats["diverged"]:
            problems.append(f"{part.value}: {stats['diverged']} diverged rounds")
        counts = report.counts[part.value]
        for kind in counts["emitted"]:
            emitted = counts["emitted"][kind]
            ended = sum(counts[b][kind] for b in ("committed", "rejected", "undeliverable"))
            if emitted != ended:
                problems.append(f"{part.value}/{kind}: emitted {emitted}, ended {ended}")
            if counts["rejected"][kind]:
                problems.append(f"{part.value}/{kind}: {counts['rejected'][kind]} honest rejected")
        fold_ids = {lg.cblock_id for lg in engine.replicas[part].values()}
        if len(fold_ids) != 1:
            problems.append(f"{part.value}: replicas disagree on the open block")
    if report.detections:
        problems.append(f"{len(report.detections)} detections on honest traffic")
    return problems


def est_by_cert(lg: PartitionLedger) -> dict[bytes, list[bytes]]:
    """Brute-force EST history: one pass over all_transactions()."""
    out: dict[bytes, list[bytes]] = {}
    for tx in lg.all_transactions():
        if tx.kind is TxKind.EVENT_SAFETY:
            out.setdefault(tx.cert.cert_id, []).append(tx.tid)
    return out


def all_cert_ids(engine: ScenarioEngine) -> list[bytes]:
    return [cert.cert_id for v in engine.vehicles for _keys, cert in v.cert_history]


@dataclass
class Tally:
    """Samples and gate counts gathered over one benchmark run."""

    samples: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    committed: int = 0
    emitted: int = 0
    file_bytes: int = 0
    file_tx: int = 0
    traced_s: float = 0.0
    untraced_s: float = 0.0
    fingerprints: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    def add(self, metric: str, work: float, seconds: float) -> None:
        """One timed sample: `work` units done in `seconds` (reference-scaled)."""
        self.samples.setdefault(metric, []).append((work, seconds))

    def check(self, units: int, problems: list[str]) -> bool:
        self.attempted += units
        if problems:
            self.failed += units
            self.problems.extend(problems[:5])
        return not problems

    def rate(self, metric: str) -> float:
        pairs = self.samples.get(metric, [])
        seconds = sum(s for _, s in pairs)
        return sum(w for w, _ in pairs) / seconds if seconds else 0.0

    def upper_decile_rate(self, metric: str) -> float:
        rates = [w / s for w, s in self.samples.get(metric, []) if s > 0]
        if len(rates) < 2:
            return rates[0] if rates else 0.0
        return statistics.quantiles(rates, n=10, method="inclusive")[-1]

    def median_seconds(self, metric: str) -> float:
        pairs = self.samples.get(metric)
        return statistics.median(s for _, s in pairs) if pairs else 0.0

    def end_to_end(self) -> dict:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {
            "setup_s": (self.median_seconds("setup_s"), "s"),
            "rounds_per_s": (self.rate("rounds_per_s"), "1/s"),
            "commit_ratio": (self.committed / self.emitted if self.emitted else 0.0, "ratio"),
            "verify_tx_per_s": (self.rate("verify_tx_per_s"), "1/s"),
            "history_lookups_per_s": (self.upper_decile_rate("history_lookups_per_s"), "1/s"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
        return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


class Runner:
    """Runs measured work plainly, or, with a tracer, twice: once plainly
    for the overhead baseline and once traced.
    """

    def __init__(self, tally: Tally, tracer=None) -> None:
        self.tally = tally
        self.tracer = tracer
        self._measured = 0

    def measure(self, work: Callable[[], object], output: Callable[[object], object]) -> object:
        """Runs work; with a tracer, also checks that tracing changed none
        of its output, as picked out by `output`.
        """
        if self.tracer is None:
            return work()
        # Alternate which of the pair runs first, so warm-up and drift in
        # machine speed do not bias the overhead ratio one way.
        self._measured += 1
        if self._measured % 2:
            baseline = self._plain(work)
            traced = self._traced(work)
        else:
            traced = self._traced(work)
            baseline = self._plain(work)
        if output(baseline) != output(traced):
            self.tally.check(1, ["traced run produced different output than untraced"])
        return traced

    def _plain(self, work: Callable[[], object]) -> object:
        out, seconds = timed(work)
        self.tally.untraced_s += seconds
        return out

    def _traced(self, work: Callable[[], object]) -> object:
        self.tracer.install()
        try:
            out, seconds = timed(work)
        finally:
            self.tracer.uninstall()
        self.tally.traced_s += seconds
        return out


# --- fleet workloads -------------------------------------------------------------


@dataclass
class _FleetScenario:
    engine: ScenarioEngine
    result: ScenarioResult
    run_s: float
    files: list[str]
    fingerprint: str


def _fleet_scenario(config: ScenarioConfig, work_dir: str) -> _FleetScenario:
    """The traced part of a fleet run: the scenario and its saved ledgers."""
    engine = ScenarioEngine(config)
    result, run_s = timed(engine.run)
    files = []
    for part in (P1, P2):
        path = os.path.join(work_dir, f"ledger_{part.value.lower()}.bin")
        ledger.save_ledger(result.ledgers[part.value], path)
        files.append(path)
    return _FleetScenario(engine, result, run_s, files, fingerprint(result, files))


def timed_lookups(
    lg: PartitionLedger, certs: list[bytes]
) -> tuple[list[list], list[tuple[int, float]]]:
    """EST-history lookups in chunks: (rows per cert, (lookups, seconds) per chunk)."""
    found: list[list] = []
    chunks = []
    for i in range(0, len(certs), LOOKUP_CHUNK):
        chunk = certs[i : i + LOOKUP_CHUNK]
        rows, took = timed(lambda: [lg.query(kind=TxKind.EVENT_SAFETY, cert_id=c) for c in chunk])
        found += rows
        chunks.append((len(chunk), took))
    return found, chunks


@dataclass
class _ReadBack:
    verify_tx: int
    verify_s: list[float]
    lookups: list[tuple[int, float]]
    problems: list[str]


def _fleet_read_back(run: _FleetScenario, lookup_seed: int) -> _ReadBack:
    """Verifies the saved ledgers several times, then looks up EST
    histories in the loaded P1 and in the engine's own P1 replica: two
    heap layouts. Never traced: the fleet workloads' layer profile is the
    scenario's alone.
    """
    def verify() -> tuple[list[PartitionLedger], list[list[str]]]:
        loaded = [ledger.load_ledger(path) for path in run.files]
        return loaded, [ledger.chain_faults(lg) for lg in loaded]

    problems = report_problems(run.result, run.engine)
    verify_s = []
    for _ in range(FLEET_VERIFY_REPEATS):
        (loaded, faults), took = timed(verify)
        verify_s.append(took)
        for part, lg, lg_faults in zip((P1, P2), loaded, faults):
            problems += [f"{part.value}: {f}" for f in lg_faults[:3]]
            if _tids(lg) != _tids(run.result.ledgers[part.value]):
                problems.append(f"{part.value}: loaded ledger differs from the saved replica")
    certs = random.Random(lookup_seed).choices(all_cert_ids(run.engine), k=FLEET_LOOKUPS)
    lookups = []
    found = []
    for lg in (loaded[0], run.result.ledgers[P1.value]):
        rows, chunks = timed_lookups(lg, certs)
        lookups += chunks
        found += zip(certs, rows)

    expected = est_by_cert(run.result.ledgers[P1.value])
    wrong = sum(1 for c, rows in found if [t.tid for t in rows] != expected.get(c, []))
    if wrong:
        problems.append(f"{wrong} EST-history lookups differ from brute force")
    verified = sum(len(lg.tid_index) for lg in loaded)
    return _ReadBack(verified, verify_s, lookups, problems)


def _timed_setup(tally: Tally, shape: FleetShape, seed: int) -> ScenarioConfig:
    """Times config generation plus engine construction. Each measured run
    builds its own engine from the config, so a traced run gets an engine
    whose endpoints were registered with the tracer installed.
    """
    def setup() -> ScenarioConfig:
        config = fleetgen.generate(shape, seed)
        ScenarioEngine(config)
        return config

    config, took = timed(setup)
    tally.add("setup_s", 1, took)
    return config


def run_fleet(
    shape: FleetShape, seed: int, seconds: float, work_dir: str, tally: Tally, runner: Runner
) -> None:
    for _ in range(FLEET_SETUP_REPEATS - 1):
        _timed_setup(tally, shape, instance_seed(seed, 0))
    start = _now()
    for index in range(MAX_INSTANCES):
        scenario_seed = instance_seed(seed, index)
        config = _timed_setup(tally, shape, scenario_seed)
        run = runner.measure(lambda: _fleet_scenario(config, work_dir), lambda r: r.fingerprint)
        tally.fingerprints.append(run.fingerprint)
        back = _fleet_read_back(run, scenario_seed)
        if tally.check(1 + 2 * FLEET_VERIFY_REPEATS + 2 * FLEET_LOOKUPS, back.problems):
            report = run.result.report
            rounds = sum(report.consensus[p.value]["rounds"] for p in (P1, P2))
            tally.add("rounds_per_s", rounds, run.run_s)
            for verify_s in back.verify_s:
                tally.add("verify_tx_per_s", back.verify_tx, verify_s)
            for lookups, lookup_s in back.lookups:
                tally.add("history_lookups_per_s", lookups, lookup_s)
            for part in (P1, P2):
                tally.committed += sum(report.counts[part.value]["committed"].values())
                tally.emitted += sum(report.counts[part.value]["emitted"].values())
            tally.file_bytes += sum(os.path.getsize(path) for path in run.files)
            tally.file_tx += back.verify_tx
        if _now() - start >= seconds:
            break


# --- ledger-audit ------------------------------------------------------------------


@dataclass
class AuditLedger:
    """One saved P1 ledger plus what a correct read of it must return."""

    path: str
    b_max: int
    genesis_id: bytes
    tids: list[bytes]
    certs: list[bytes]
    expected: dict[bytes, list[bytes]]


def build_audit_ledger(
    shape: FleetShape, scenario_seed: int, work_dir: str, tally: Tally
) -> AuditLedger:
    """Set-up of one audit ledger: generate, run, save P1 (timed as set-up).
    The scenario itself is gated like a fleet run and also reports rounds/s.
    """
    path = os.path.join(work_dir, f"audit_{scenario_seed}_p1.bin")

    engine, build_s = timed(lambda: ScenarioEngine(fleetgen.generate(shape, scenario_seed)))
    result, run_s = timed(engine.run)
    _, save_s = timed(lambda: ledger.save_ledger(result.ledgers[P1.value], path))
    tally.add("setup_s", 1, build_s + run_s + save_s)
    p1 = result.ledgers[P1.value]

    p2_path = os.path.join(work_dir, f"audit_{scenario_seed}_p2.bin")
    ledger.save_ledger(result.ledgers[P2.value], p2_path)
    tally.fingerprints.append(fingerprint(result, [path, p2_path]))
    os.remove(p2_path)
    counts = result.report.counts
    if tally.check(1, report_problems(result, engine)):
        rounds = sum(result.report.consensus[p.value]["rounds"] for p in (P1, P2))
        tally.add("rounds_per_s", rounds, run_s)
        tally.committed += sum(sum(counts[p.value]["committed"].values()) for p in (P1, P2))
        tally.emitted += sum(sum(counts[p.value]["emitted"].values()) for p in (P1, P2))
    return AuditLedger(
        path=path,
        b_max=p1.b_max,
        genesis_id=p1.genesis.block_id,
        tids=_tids(p1),
        certs=all_cert_ids(engine),
        expected=est_by_cert(p1),
    )


@dataclass
class _AuditOutcome:
    verify_s: float
    lookups: list[tuple[int, float]]
    tx: int
    verify_problems: tuple[str, ...]
    wrong_lookups: int


def _load_and_verify(path: str) -> tuple[Optional[PartitionLedger], list[str]]:
    try:
        lg = ledger.load_ledger(path)
        return lg, ledger.chain_faults(lg)
    except Exception as exc:  # a corrupt file is a gate failure, not a crash
        return None, [f"verify raised {type(exc).__name__}: {exc}"]


def audit_pass(audit: AuditLedger, certs: list[bytes]) -> tuple[_AuditOutcome, Optional[PartitionLedger]]:
    """One `avledger verify` equivalent plus a batch of EST-history lookups."""
    (lg, faults), verify_s = timed(lambda: _load_and_verify(audit.path))
    if lg is None:
        return _AuditOutcome(verify_s, [], 0, tuple(faults), len(certs)), None
    found, lookups = timed_lookups(lg, certs)

    problems = list(faults[:3])
    if lg.b_max != audit.b_max or lg.genesis.block_id != audit.genesis_id:
        problems.append("loaded header or genesis differs from the saved ledger")
    if _tids(lg) != audit.tids:
        problems.append("loaded transactions differ from the saved ledger")
    wrong = sum(
        1 for c, rows in zip(certs, found) if [t.tid for t in rows] != audit.expected.get(c, [])
    )
    outcome = _AuditOutcome(verify_s, lookups, len(audit.tids), tuple(problems), wrong)
    return outcome, lg


def prepare_audit(
    shape: FleetShape, seed: int, work_dir: str, tally: Tally
) -> list[tuple[AuditLedger, list[bytes]]]:
    """Set-up: the audit ledgers, each with its seeded batch of cert ids."""
    out = []
    for i in range(AUDIT_LEDGERS):
        audit = build_audit_ledger(shape, instance_seed(seed, i), work_dir, tally)
        batch = random.Random(instance_seed(seed, i)).choices(audit.certs, k=AUDIT_LOOKUP_BATCH)
        tally.file_bytes += os.path.getsize(audit.path)
        tally.file_tx += len(audit.tids)
        out.append((audit, batch))
    return out


def run_audit(
    shape: FleetShape, seed: int, seconds: float, work_dir: str, tally: Tally, runner: Runner
) -> None:
    measure_audit(prepare_audit(shape, seed, work_dir, tally), seconds, work_dir, tally, runner)


def measure_audit(
    prepared: list[tuple[AuditLedger, list[bytes]]],
    seconds: float,
    work_dir: str,
    tally: Tally,
    runner: Runner,
) -> None:
    start = _now()
    for cycle in range(MAX_INSTANCES):
        for audit, batch in prepared:
            outcome, loaded = runner.measure(
                lambda: audit_pass(audit, batch),
                lambda r: (r[0].verify_problems, r[0].wrong_lookups),
            )
            if tally.check(1, list(outcome.verify_problems)):
                tally.add("verify_tx_per_s", outcome.tx, outcome.verify_s)
            wrong = [f"{outcome.wrong_lookups} lookups wrong"] if outcome.wrong_lookups else []
            if tally.check(len(batch), wrong):
                for lookups, lookup_s in outcome.lookups:
                    tally.add("history_lookups_per_s", lookups, lookup_s)
            if cycle == 0 and loaded is not None and audit is prepared[0][0]:
                # Round trip: saving what was loaded must give the same bytes.
                copy = os.path.join(work_dir, "roundtrip.bin")
                runner.measure(lambda: ledger.save_ledger(loaded, copy), lambda r: r)
                with open(copy, "rb") as a, open(audit.path, "rb") as b:
                    same = a.read() == b.read()
                tally.check(1, [] if same else ["save(load(file)) changed the bytes"])
            if _now() - start >= seconds:
                return
