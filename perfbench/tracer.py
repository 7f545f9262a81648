"""Span tracer for the traced benchmark run.

Only `run.py --trace 1` imports this module; the timed run never loads it.
`install()` swaps the layer boundaries of the program for wrappers that
record one span per call (name, start, end, parent) in memory, plus counts
taken at the same boundaries. `uninstall()` puts every original back.

A function that other modules imported by name is replaced in every
`avledger` module that holds it, so calls through any alias are recorded.
Nothing under `src/` is edited.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from typing import Callable, Optional

from avledger import adjudicator, identity, ledger, netsim, scenarios, txmodel, validation

# (owner, attribute, span name). Ed25519 is reached only through identity's
# two private primitives, so wrapping those counts every sign and verify.
_SPANS = (
    (identity, "_verify_raw", "identity.verify"),
    (identity, "_sign_raw", "identity.sign"),
    (identity, "generate_keypair", "identity.keygen"),
    (identity, "issue_certificate", "identity.keygen"),
    (txmodel, "compute_tid", "txmodel.compute_tid"),
    (txmodel, "decode_transaction", "txmodel.decode"),
    (validation, "run_consensus", "validation.round"),
    (ledger.PartitionLedger, "append_validated", "ledger.append"),
    (ledger.PartitionLedger, "maybe_seal", "ledger.append"),
    (ledger.PartitionLedger, "query", "ledger.query"),
    (ledger, "load_ledger", "ledger.load"),
    (ledger, "chain_faults", "ledger.chain_faults"),
    (ledger, "save_ledger", "ledger.save"),
    (netsim.Network, "send_with_retry", "netsim.send"),
    (netsim.Network, "advance", "netsim.advance"),
    (adjudicator, "adjudicate", "adjudicator.adjudicate"),
    (adjudicator, "check_negligence", "adjudicator.check_negligence"),
    (scenarios.ScenarioEngine, "run", "scenarios.run"),
    (scenarios.ScenarioEngine, "_on_dead_send", "scenarios.handler"),
)

# name, unit, better: the per-layer metrics, in the order they are reported.
METRICS = (
    ("identity.verify_calls", "count", "lower"),
    ("identity.verify_s", "s", "lower"),
    ("identity.verify_unique_ratio", "ratio", "higher"),
    ("identity.sign_s", "s", "lower"),
    ("identity.keygen_s", "s", "lower"),
    ("txmodel.compute_tid_calls", "count", "lower"),
    ("txmodel.compute_tid_s", "s", "lower"),
    ("txmodel.decode_s", "s", "lower"),
    ("validation.rounds", "count", "higher"),
    ("validation.round_s", "s", "lower"),
    ("validation.round_self_s", "s", "lower"),
    ("validation.round_ms_p50", "ms", "lower"),
    ("validation.round_ms_p99", "ms", "lower"),
    ("ledger.append_s", "s", "lower"),
    ("ledger.query_calls", "count", "lower"),
    ("ledger.query_s", "s", "lower"),
    ("ledger.query_rows_per_result", "ratio", "lower"),
    ("ledger.load_s", "s", "lower"),
    ("ledger.chain_faults_s", "s", "lower"),
    ("ledger.save_s", "s", "lower"),
    ("ledger.file_bytes_per_tx", "B", "lower"),
    ("netsim.sends", "count", "lower"),
    ("netsim.attempts_per_send", "ratio", "lower"),
    ("netsim.self_s", "s", "lower"),
    ("adjudicator.cases", "count", "higher"),
    ("adjudicator.adjudicate_s", "s", "lower"),
    ("adjudicator.check_negligence_s", "s", "lower"),
    ("scenarios.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


class Tracer:
    def __init__(self) -> None:
        # Each span is [name, start, end, parent index or -1].
        self.spans: list[list] = []
        self._current = -1
        self.verify_triples: set[tuple[bytes, bytes, bytes]] = set()
        self.query_scanned = 0
        self.query_returned = 0
        self.attempts = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._current
            record = [name, 0.0, 0.0, parent]
            tracer._current = len(spans)
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                tracer._current = parent
            if after is not None:
                after(args, result)
            return result

        return traced

    def _count_verify(self, args, result) -> None:
        self.verify_triples.add(args)

    def _count_query(self, args, result) -> None:
        self.query_scanned += len(args[0].tid_index)
        self.query_returned += len(result)

    # -- patching ------------------------------------------------------------

    def _replace(self, owner: object, attr: str, wrapped: Callable) -> None:
        if isinstance(owner, type):
            self._undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapped)
            return
        original = getattr(owner, attr)
        for module in [m for n, m in sys.modules.items() if n.startswith("avledger")]:
            if getattr(module, attr, None) is original:
                self._undo.append((module, attr, original))
                setattr(module, attr, wrapped)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        hooks = {"identity.verify": self._count_verify, "ledger.query": self._count_query}
        for owner, attr, name in _SPANS:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._replace(owner, attr, self.wrap(name, original, hooks.get(name)))

        # Endpoint handlers are engine callbacks: wrap each as it is
        # registered, so netsim self time excludes the work they do.
        register = netsim.Network.register_endpoint
        tracer = self

        def traced_register(net, name, handler, allowed_senders=None):
            register(net, name, tracer.wrap("scenarios.handler", handler), allowed_senders)

        self._replace(netsim.Network, "register_endpoint", traced_register)

        attempt = netsim.Network._attempt

        def counted_attempt(net, *args):
            tracer.attempts += 1
            return attempt(net, *args)

        self._replace(netsim.Network, "_attempt", counted_attempt)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per span name: duration minus the time its children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for index, (name, start, end, _parent) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[index]
        return out

    def summary(self, traced_s: float, untraced_s: float, file_bytes_per_tx: float) -> dict:
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        round_ms = []
        for name, start, end, _parent in self.spans:
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (end - start)
            if name == "validation.round":
                round_ms.append((end - start) * 1000.0)
        own = self.self_times()

        def module_self(prefix: str) -> float:
            return sum((v for k, v in own.items() if k.startswith(prefix + ".")), 0.0)

        verify_calls = calls.get("identity.verify", 0)
        sends = calls.get("netsim.send", 0)
        if len(round_ms) >= 2:
            cuts = statistics.quantiles(round_ms, n=100, method="inclusive")
            p50, p99 = statistics.median(round_ms), cuts[98]
        else:
            p50 = p99 = round_ms[0] if round_ms else 0.0
        values = {
            "identity.verify_calls": verify_calls,
            "identity.verify_s": total.get("identity.verify", 0.0),
            "identity.verify_unique_ratio": (
                len(self.verify_triples) / verify_calls if verify_calls else 0.0
            ),
            "identity.sign_s": total.get("identity.sign", 0.0),
            "identity.keygen_s": total.get("identity.keygen", 0.0),
            "txmodel.compute_tid_calls": calls.get("txmodel.compute_tid", 0),
            "txmodel.compute_tid_s": total.get("txmodel.compute_tid", 0.0),
            "txmodel.decode_s": total.get("txmodel.decode", 0.0),
            "validation.rounds": calls.get("validation.round", 0),
            "validation.round_s": total.get("validation.round", 0.0),
            "validation.round_self_s": own.get("validation.round", 0.0),
            "validation.round_ms_p50": p50,
            "validation.round_ms_p99": p99,
            "ledger.append_s": total.get("ledger.append", 0.0),
            "ledger.query_calls": calls.get("ledger.query", 0),
            "ledger.query_s": total.get("ledger.query", 0.0),
            "ledger.query_rows_per_result": (
                self.query_scanned / self.query_returned if self.query_returned else 0.0
            ),
            "ledger.load_s": total.get("ledger.load", 0.0),
            "ledger.chain_faults_s": total.get("ledger.chain_faults", 0.0),
            "ledger.save_s": total.get("ledger.save", 0.0),
            "ledger.file_bytes_per_tx": file_bytes_per_tx,
            "netsim.sends": sends,
            "netsim.attempts_per_send": self.attempts / sends if sends else 0.0,
            "netsim.self_s": module_self("netsim"),
            "adjudicator.cases": calls.get("adjudicator.adjudicate", 0),
            "adjudicator.adjudicate_s": total.get("adjudicator.adjudicate", 0.0),
            "adjudicator.check_negligence_s": total.get("adjudicator.check_negligence", 0.0),
            "scenarios.self_s": module_self("scenarios"),
            "trace.overhead_ratio": traced_s / untraced_s if untraced_s else 0.0,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit, _ in METRICS}

    def write(self, path: str) -> None:
        """Writes every span as one JSON array per line: name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record))
                fh.write("\n")
