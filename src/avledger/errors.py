"""Exception types shared across the package.

Everything raised on purpose derives from AvLedgerError so callers can
catch domain failures without swallowing programming errors.
"""

from __future__ import annotations


class AvLedgerError(Exception):
    """Base class for all domain errors."""


# --- identity ---------------------------------------------------------------

class InvalidValidity(AvLedgerError):
    """Certificate validity duration is zero or negative."""


class UnknownEntity(AvLedgerError):
    """Entity is not registered with the escrow / role table."""


class UnknownCertificate(AvLedgerError):
    """Certificate id has no escrow record."""


class EscrowDenied(AvLedgerError):
    """Identity reveal attempted without both settlement authorities."""


# --- transactions -----------------------------------------------------------

class MalformedBody(AvLedgerError):
    """Transaction body violates its kind's schema."""


class MissingCertificate(AvLedgerError):
    """Vehicle-originated transaction built without a pseudonym certificate."""


class NotMultiSig(AvLedgerError):
    """Countersignature attempted on a single-signer transaction kind."""


class DuplicateSigner(AvLedgerError):
    """Countersignature attempted by a role that already signed."""


# --- ledger -----------------------------------------------------------------

class InvalidGenesis(AvLedgerError):
    """Genesis block is missing required authority material."""


class UniquenessViolation(AvLedgerError):
    """Transaction id already committed on this replica."""


class LedgerFormatError(AvLedgerError):
    """Ledger file is structurally corrupt or has a bad magic/version."""


# --- validation / consensus -------------------------------------------------

class ReplicaMismatch(AvLedgerError):
    """Validator replicas disagree on the sealed chain before a round."""


class NotDiverged(AvLedgerError):
    """Tamper attribution requested for a round that did not diverge."""


class Unattributable(AvLedgerError):
    """Diverged round has no plurality, so no replica can be blamed."""


# --- scenarios / adjudication / cli -----------------------------------------

class ConfigError(AvLedgerError):
    """Scenario configuration is invalid; carries the offending field path."""

    def __init__(self, field: str, message: str) -> None:
        super().__init__(f"{field}: {message}")
        self.field = field


class NotFound(AvLedgerError):
    """Query or attack target matched nothing."""


class MalformedCase(AvLedgerError):
    """Collision case lacks the minimum evidence to adjudicate."""
