from __future__ import annotations

import json
import sys
from collections.abc import Iterator
from importlib import resources
from pathlib import Path

import pytest

from iotgraph.cvestore import CveStore
from iotgraph.model import SystemConfig, parse_config

# ``perfbench`` sits at the repository root, which only ``python -m pytest``
# run from there puts on ``sys.path``; put it there for any runner and
# directory, as ``scripts/run_scaling.py`` does.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.feed import synth_feed  # noqa: E402

FIXTURES = resources.files("iotgraph") / "fixtures"
FEED_PATH = FIXTURES / "mini_feed.json"
FIXTURE_NAMES = ("fig2", "hall_light", "listing10", "system28", "system37")
# (devices, seed) of the synthetic homes that tests compare engines on.
SYNTH_HOMES = ((12, 1), (60, 7), (60, 20260816), (200, 3))


def load_fixture_config(name: str) -> SystemConfig:
    doc = json.loads((FIXTURES / f"{name}.json").read_text())
    return parse_config(doc, source=name)


@pytest.fixture(scope="session")
def store(tmp_path_factory: pytest.TempPathFactory) -> Iterator[CveStore]:
    """One CVE store for the whole run, loaded from the bundled feed."""

    root = tmp_path_factory.mktemp("cvestore")
    s = CveStore(root / "store.db")
    added, skipped = s.ingest_feed(str(FEED_PATH))
    assert added > 0 and skipped == 0
    yield s
    s.close()


@pytest.fixture(scope="session")
def dense4_store(tmp_path_factory: pytest.TempPathFactory) -> Iterator[CveStore]:
    """A store of four synthetic CVEs per catalog product, as
    ``scripts/run_scaling.py --cves-per-product 4`` builds it."""

    root = tmp_path_factory.mktemp("dense4")
    feed = root / "feed.json"
    feed.write_text(synth_feed(4, 1))
    s = CveStore(root / "store.db")
    s.ingest_feed(str(feed))
    yield s
    s.close()


@pytest.fixture(scope="session")
def store_path(tmp_path_factory: pytest.TempPathFactory) -> str:
    """Path to an on-disk store for CLI runs."""

    root = tmp_path_factory.mktemp("clistore")
    path = root / "store.db"
    with CveStore(path) as s:
        s.ingest_feed(str(FEED_PATH))
    return str(path)


@pytest.fixture(scope="session")
def fig2_config() -> SystemConfig:
    return load_fixture_config("fig2")


@pytest.fixture(scope="session")
def system28_config() -> SystemConfig:
    return load_fixture_config("system28")


@pytest.fixture(scope="session")
def system37_config() -> SystemConfig:
    return load_fixture_config("system37")


@pytest.fixture(scope="session")
def hall_light_config() -> SystemConfig:
    return load_fixture_config("hall_light")


@pytest.fixture(scope="session")
def listing10_config() -> SystemConfig:
    return load_fixture_config("listing10")
