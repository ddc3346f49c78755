"""Fixture: seam-hygiene violations (store construction, non-canonical JSON)."""

import hashlib
import json

from pathlib import Path

from repro.experiments import cellstore
from repro.experiments.cellstore import SQLiteCellStore


def build_bounded_cache(directory: str) -> SQLiteCellStore:
    return SQLiteCellStore(Path(directory) / "cells.sqlite", max_entries=10)  # REPRO401


def build_sqlite_store(path: str) -> SQLiteCellStore:
    return cellstore.SQLiteCellStore(path)  # REPRO401


def config_hash(config: dict) -> str:
    payload = json.dumps(config)  # REPRO402: unsorted keys feed the hash
    return hashlib.sha256(payload.encode()).hexdigest()


def shared_state(acc=[]):  # REPRO501
    return acc
