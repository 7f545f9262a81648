"""Command-line front end.

Subcommands:

    run         execute a scenario config and emit its report
    verify      recheck a saved ledger file end to end
    inspect     list transactions in a saved ledger, with filters
    adjudicate  run the liability rules over both saved ledgers and a case file
    keys        generate a signing keypair

Exit codes are the machine contract: 0 success, 1 integrity or detection
failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from typing import Optional, Union

from .adjudicator import adjudicate
from .errors import AvLedgerError, ConfigError, LedgerFormatError, MalformedCase
from .identity import generate_keypair
from .ledger import PartitionLedger, chain_faults, load_ledger, save_ledger
from .scenarios import (
    AttackClass,
    ScenarioEngine,
    case_from_jsonable,
    case_params_from_jsonable,
    choice,
    config_from_jsonable,
    config_to_jsonable,
    hash256,
    load_config,
    make_attack_config,
    make_benign_config,
    number,
    optional,
    read_json,
)
from .txmodel import Partition, TxKind, body_timestamp, tx_to_jsonable

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2

KIND_NAMES = sorted(k.value for k in TxKind)


def _dump(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def _fail_usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _unreadable(path: str, exc: OSError) -> int:
    """A path that exists but cannot be read, such as a directory or a
    file without read permission, is a usage error."""
    return _fail_usage(f"cannot read {path}: {exc.strerror or exc}")


# --- run ----------------------------------------------------------------------

def cmd_run(args: argparse.Namespace) -> int:
    try:
        if args.config is not None:
            config = load_config(args.config)
        elif args.attack is not None:
            attack = choice(AttackClass)(args.attack, "--attack")
            config = make_attack_config(args.seed if args.seed is not None else 0, attack)
        else:
            config = make_benign_config(args.seed if args.seed is not None else 0)
        if args.config is not None and args.seed is not None:
            config = config_from_jsonable(
                {**config_to_jsonable(config), "seed": args.seed}
            )
    except FileNotFoundError:
        return _fail_usage(f"config file not found: {args.config}")
    except OSError as exc:
        return _unreadable(args.config, exc)
    except ConfigError as exc:
        return _fail_usage(str(exc))

    result = ScenarioEngine(config).run()
    report = result.report
    rendered = report.to_json()

    if args.out:
        try:
            os.makedirs(args.out, exist_ok=True)
            with open(os.path.join(args.out, "report.json"), "w", encoding="utf-8") as fh:
                fh.write(rendered)
            with open(os.path.join(args.out, "audit.jsonl"), "w", encoding="utf-8") as fh:
                for line in result.audit_lines:
                    fh.write(line + "\n")
            for name, ledger in sorted(result.ledgers.items()):
                save_ledger(ledger, os.path.join(args.out, f"ledger_{name.lower()}.bin"))
        except OSError as exc:
            return _fail_usage(f"cannot write {args.out}: {exc.strerror or exc}")
        print(f"report written to {os.path.join(args.out, 'report.json')}")
    else:
        print(rendered, end="")

    if report.attack_scripted is not None and not report.attack_detected:
        print(
            f"scripted attack {report.attack_scripted} went undetected",
            file=sys.stderr,
        )
        return EXIT_FAILURE
    return EXIT_OK


# --- verify -------------------------------------------------------------------

def _report_faults(faults: list[str]) -> int:
    """Prints the first fault, then the rest, and fails."""
    print(f"invalid: {faults[0]}", file=sys.stderr)
    for line in faults[1:]:
        print(f"  also: {line}", file=sys.stderr)
    return EXIT_FAILURE


def _load(path: str) -> Union[PartitionLedger, int]:
    """The ledger saved at `path`, or the exit code when it cannot be read."""
    try:
        return load_ledger(path)
    except FileNotFoundError:
        return _fail_usage(f"ledger file not found: {path}")
    except OSError as exc:
        return _unreadable(path, exc)
    except LedgerFormatError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return EXIT_FAILURE


def cmd_verify(args: argparse.Namespace) -> int:
    ledger = _load(args.ledger)
    if isinstance(ledger, int):
        return ledger
    faults = chain_faults(ledger)
    fault_scopes = {line.split(":", 1)[0].strip() for line in faults}

    def scope_ok(scope: str) -> bool:
        return not any(s == scope or s.startswith(scope + " ") for s in fault_scopes)

    if scope_ok("genesis"):
        print(f"genesis {ledger.genesis.block_id.hex()[:16]} ok ({ledger.partition.value})")
    for index, block_id in enumerate(ledger.block_ids()):
        scope = f"block {index}"
        if scope_ok(scope):
            print(f"{scope}: ok ({ledger.b_max} tx, id {block_id.hex()[:16]})")
    if scope_ok("current tx"):
        n = len(ledger.open_transactions())
        print(f"current block: ok ({n} tx, id {ledger.cblock_id.hex()[:16]})")

    if faults:
        return _report_faults(faults)
    print("chain ok")
    return EXIT_OK


# --- inspect ------------------------------------------------------------------

def cmd_inspect(args: argparse.Namespace) -> int:
    try:
        kind = optional(choice(TxKind))(args.kind, "--kind")
        cert_id = optional(hash256)(args.cert, "--cert")
    except ConfigError as exc:
        return _fail_usage(str(exc))
    ledger = _load(args.ledger)
    if isinstance(ledger, int):
        return ledger
    matches = ledger.query(kind=kind, cert_id=cert_id)
    if args.json:
        print(_dump([tx_to_jsonable(tx) for tx in matches]))
        return EXIT_OK
    if not matches:
        print("no matching transactions")
        return EXIT_OK
    print(f"{'kind':<5} {'timestamp':>12}  {'tid':<16} {'cert':<16} signers")
    for tx in matches:
        signers = "+".join(entry.role.value for entry in tx.signatures)
        print(
            f"{tx.kind.value:<5} {body_timestamp(tx):>12.3f}  "
            f"{tx.tid.hex()[:16]} {tx.cert.cert_id.hex()[:16]} {signers}"
        )
    return EXIT_OK


# --- adjudicate ---------------------------------------------------------------

def cmd_adjudicate(args: argparse.Namespace) -> int:
    try:
        at = optional(number())(args.at, "--at")
    except ConfigError as exc:
        return _fail_usage(str(exc))
    ledgers = []
    for path, partition in ((args.p1, Partition.OPERATIONAL), (args.p2, Partition.DECISIONAL)):
        ledger = _load(path)
        if isinstance(ledger, int):
            return ledger
        if ledger.partition is not partition:
            return _fail_usage(f"{path} holds partition {ledger.partition.value}, expected {partition.value}")
        faults = chain_faults(ledger)
        if faults:
            return _report_faults([f"{path}: {line}" for line in faults])
        ledgers.append(ledger)
    try:
        data = read_json(args.case)
        case, params = case_from_jsonable(data), case_params_from_jsonable(data)
    except FileNotFoundError:
        return _fail_usage(f"case file not found: {args.case}")
    except OSError as exc:
        return _unreadable(args.case, exc)
    except ConfigError as exc:
        return _fail_usage(str(exc))

    try:
        verdict = adjudicate(case, *ledgers, params, at=at)
    except MalformedCase as exc:
        print(f"case not adjudicable: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    print(_dump(verdict.to_jsonable()))
    return EXIT_OK


# --- keys ---------------------------------------------------------------------

def cmd_keys(args: argparse.Namespace) -> int:
    seed = args.seed if args.seed is not None else random.SystemRandom().getrandbits(64)
    keys = generate_keypair(random.Random(seed))
    out = {"public_key": keys.public_key.hex(), "secret_key": keys.secret_key.hex()}
    if args.json:
        print(_dump(out))
    else:
        print(f"public:  {out['public_key']}")
        print(f"secret:  {out['secret_key']}")
    return EXIT_OK


# --- parser -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avledger",
        description="Two-partition liability-evidence ledger simulator.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_run = sub.add_parser("run", help="execute a scenario and emit its report")
    p_run.add_argument("config", nargs="?", default=None, help="scenario config JSON")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument(
        "--attack",
        default=None,
        help="run a canned attack scenario instead of a config file",
    )
    p_run.add_argument("--out", default=None, help="directory for report, audit log, and ledgers")
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="recheck a saved ledger end to end")
    p_verify.add_argument("ledger", help="ledger file")
    p_verify.set_defaults(func=cmd_verify)

    p_inspect = sub.add_parser("inspect", help="list transactions in a saved ledger")
    p_inspect.add_argument("ledger", help="ledger file")
    p_inspect.add_argument("--kind", default=None, help=f"filter by kind ({', '.join(KIND_NAMES)})")
    p_inspect.add_argument("--cert", default=None, help="filter by certificate id (hex)")
    p_inspect.add_argument("--json", action="store_true", help="JSON output with sorted keys")
    p_inspect.set_defaults(func=cmd_inspect)

    p_adj = sub.add_parser("adjudicate", help="run the liability rules over a case file")
    p_adj.add_argument("p1", help="operational-partition (P1) ledger file")
    p_adj.add_argument("p2", help="decision-partition (P2) ledger file")
    p_adj.add_argument("case", help="collision case JSON")
    p_adj.add_argument("--at", type=float, default=None, help="query time for deadline checks")
    p_adj.set_defaults(func=cmd_adjudicate)

    p_keys = sub.add_parser("keys", help="generate a signing keypair")
    p_keys.add_argument("--seed", type=int, default=None, help="deterministic generation seed")
    p_keys.add_argument("--json", action="store_true", help="JSON output")
    p_keys.set_defaults(func=cmd_keys)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.subcommand == "run" and args.config is None and args.attack is None and args.seed is None:
        return _fail_usage("run needs a config file, or --seed / --attack for a canned scenario")
    try:
        return args.func(args)
    except AvLedgerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
