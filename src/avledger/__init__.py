"""Permissioned two-partition ledger for vehicle liability evidence, with
a deterministic multi-actor simulator on top.

The operational partition (P1) collects signed telemetry and collision
evidence from vehicles under rotating pseudonyms; the decisional
partition (P2) receives evidence requests for dispute settlement. Every
committed transaction feeds a running hash over the open block, so a
replica that drops or edits records is outvoted on the next round.
"""
