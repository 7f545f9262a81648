"""The scenario-config parser, pinned by a sweep of single-field mutations.

Each case starts from one base config written by ``config_to_jsonable``,
replaces one leaf of its JSON with one value from ``BAD_VALUES`` (or
deletes the leaf), and parses the result with ``config_from_jsonable``.
The outcome is ``ok <digest>`` when the parser accepts, where the digest
is the SHA-256 of ``repr`` of the parsed config, or ``err <field>`` when
it raises ``ConfigError``; any other exception fails the test.

tests/config_schema_pins.json is data, not something this module writes.
It holds the outcome of every case as given by ``case_outcome`` on the
hand-written parser of commit e295b79, except where that parser crashed
with ``TypeError`` (an unhashable list or object given for a choice such
as ``drive_mode``); those cases are pinned as a ``ConfigError`` at the
mutated field, since a loader may raise only domain errors.

Since then, 159 pins moved on purpose when the ``number`` reader began to
refuse non-finite values, each to ``err`` at its own mutated path: 82
``:= nan`` and 48 ``:= inf`` cases the earlier parser accepted, and 29
``:= inf`` cases on a timeline ``at`` that it rejected one event later
for time order. Later, 5 more moved on purpose when ``cert_validity_secs``
got its floor, the PET clock offset of 0.9 s: the ``:= 0.5`` case of each
base config, from ``ok`` to ``err $.cert_validity_secs``. No other pin
moved.
"""

import copy
import hashlib
import json
import os

import pytest

from avledger.errors import ConfigError
from avledger.scenarios import (
    AttackClass,
    config_from_jsonable,
    config_to_jsonable,
    make_attack_config,
    make_benign_config,
)

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "config_schema_pins.json")

BAD_VALUES = (
    None, True, False, 0, 1, 2, -1, 10**9, 0.5, 1.0, -0.5,
    float("inf"), float("nan"), "", "x", [], [0], {}, {"x": 0},
)


def base_configs() -> dict[str, dict]:
    bases = {
        "benign-0": make_benign_config(0),
        "benign-3x5": make_benign_config(3, n_vehicles=5),
    }
    for attack in AttackClass:
        bases[f"attack-1-{attack.value}"] = make_attack_config(1, attack)
    return {name: config_to_jsonable(config) for name, config in bases.items()}


def _leaves(node, path="$"):
    """(path, parent container, key) for every non-container value."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        child = f"{path}.{key}" if isinstance(node, dict) else f"{path}[{key}]"
        if isinstance(value, (dict, list)) and value:
            yield from _leaves(value, child)
        else:
            yield child, node, key


def mutations(base: dict):
    """(case id, mutated leaf path, mutated JSON) for one base config."""
    for index, (path, _, _) in enumerate(list(_leaves(base))):
        for label, value in [(f":= {v!r}", v) for v in BAD_VALUES] + [("deleted", None)]:
            data = copy.deepcopy(base)
            _, parent, key = list(_leaves(data))[index]
            if label == "deleted":
                del parent[key]
            else:
                parent[key] = copy.deepcopy(value)
            yield f"{path} {label}", path, data


def case_outcome(data: dict) -> str:
    try:
        config = config_from_jsonable(data)
    except ConfigError as exc:
        return f"err {exc.field}"
    return "ok " + hashlib.sha256(repr(config).encode()).hexdigest()[:16]


def _pins() -> dict[str, dict[str, str]]:
    with open(PINS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


BASES = base_configs()


@pytest.mark.parametrize("base_name", sorted(BASES))
def test_single_field_mutations_keep_their_pinned_outcome(base_name):
    pinned = _pins()[base_name]
    seen = {}
    for case_id, _, data in mutations(BASES[base_name]):
        seen[case_id] = case_outcome(data)
    assert sorted(seen) == sorted(pinned), "the sweep no longer generates the pinned cases"
    moved = [
        f"{base_name} {case_id}: pinned {pinned[case_id]!r}, got {got!r}"
        for case_id, got in seen.items()
        if got != pinned[case_id]
    ]
    assert not moved, f"{len(moved)} case(s) moved:\n" + "\n".join(moved[:20])


def test_every_base_config_round_trips():
    for data in BASES.values():
        assert config_to_jsonable(config_from_jsonable(data)) == data


@pytest.mark.parametrize("bad", [float("nan"), 10**400], ids=["nan", "huge-int"])
def test_non_finite_event_time_is_rejected_at_its_path(bad):
    data = config_to_jsonable(make_benign_config(0))
    data["timeline"][1]["at"] = bad
    with pytest.raises(ConfigError) as caught:
        config_from_jsonable(json.loads(json.dumps(data)))
    assert caught.value.field == "$.timeline[1].at"
