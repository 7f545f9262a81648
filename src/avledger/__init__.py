"""Permissioned two-partition ledger for vehicle liability evidence, with
a deterministic multi-actor simulator on top.

The operational partition (P1) collects signed telemetry and collision
evidence from vehicles under rotating pseudonyms; the decisional
partition (P2) receives evidence requests for dispute settlement. Every
committed transaction feeds a running hash over the open block, so a
replica that drops or edits records is outvoted on the next round.
"""

from .adjudicator import (
    AdjudicationParams,
    CollisionCase,
    CrossCheckResult,
    LiabilityClass,
    LiabilityVerdict,
    PartyEvidence,
    VerdictFlag,
    adjudicate,
    check_negligence,
    check_staged,
    cross_check_edata,
)
from .errors import AvLedgerError, ConfigError, LedgerFormatError
from .identity import (
    IdentityEscrow,
    KeyPair,
    PseudonymCertificate,
    generate_keypair,
    issue_certificate,
    rotate_pseudonym,
)
from .ledger import (
    CaRootCert,
    GenesisBlock,
    MemberRecord,
    PartitionLedger,
    chain_faults,
    load_ledger,
    make_genesis,
    save_ledger,
    verify_chain,
)
from .netsim import Network, SimClock
from .scenarios import (
    AttackClass,
    ScenarioConfig,
    ScenarioEngine,
    ScenarioReport,
    config_from_jsonable,
    config_to_jsonable,
    make_attack_config,
    make_benign_config,
    run_scenario,
)
from .txmodel import (
    DriveMode,
    EventTrigger,
    ExecStatus,
    Partition,
    Role,
    Transaction,
    TxKind,
    build_transaction,
    countersign,
)
from .validation import (
    ConsensusRound,
    Reason,
    RoundOutcome,
    Verdict,
    detect_tamper,
    run_consensus,
    verify_transaction,
)

__version__ = "0.1.0"

__all__ = [
    "AdjudicationParams",
    "AttackClass",
    "AvLedgerError",
    "CaRootCert",
    "CollisionCase",
    "ConfigError",
    "ConsensusRound",
    "CrossCheckResult",
    "DriveMode",
    "EventTrigger",
    "ExecStatus",
    "GenesisBlock",
    "IdentityEscrow",
    "KeyPair",
    "LedgerFormatError",
    "LiabilityClass",
    "LiabilityVerdict",
    "MemberRecord",
    "Network",
    "Partition",
    "PartitionLedger",
    "PartyEvidence",
    "PseudonymCertificate",
    "Reason",
    "Role",
    "RoundOutcome",
    "ScenarioConfig",
    "ScenarioEngine",
    "ScenarioReport",
    "SimClock",
    "Transaction",
    "TxKind",
    "Verdict",
    "VerdictFlag",
    "adjudicate",
    "build_transaction",
    "chain_faults",
    "check_negligence",
    "check_staged",
    "config_from_jsonable",
    "config_to_jsonable",
    "countersign",
    "cross_check_edata",
    "detect_tamper",
    "generate_keypair",
    "issue_certificate",
    "load_ledger",
    "make_attack_config",
    "make_benign_config",
    "make_genesis",
    "rotate_pseudonym",
    "run_consensus",
    "run_scenario",
    "save_ledger",
    "verify_chain",
    "verify_transaction",
]
