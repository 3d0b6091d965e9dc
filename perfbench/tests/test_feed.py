"""The synthetic feed: deterministic, fully ingestible, every effect class."""

from iotgraph.cvestore import CveStore
from iotgraph.exploits import EFFECT_KINDS, classify_effect
from iotgraph.synth import CATALOG

from perfbench.feed import synth_feed


def _store(tmp_path, n_per_product, seed):
    feed = tmp_path / f"feed-{n_per_product}-{seed}.json"
    feed.write_text(synth_feed(n_per_product, seed))
    store = CveStore(":memory:")
    return store, store.ingest_feed(feed)


def test_same_seed_same_bytes():
    assert synth_feed(2, 7) == synth_feed(2, 7)
    assert synth_feed(2, 7) != synth_feed(2, 8)


def test_nothing_skipped_at_ingest(tmp_path):
    for n_per_product in (1, 2):
        store, (added, skipped) = _store(tmp_path, n_per_product, 3)
        assert (added, skipped) == (n_per_product * len(CATALOG), 0)
        store.close()


def test_every_effect_class_is_produced(tmp_path):
    store, _ = _store(tmp_path, 1, 5)
    kinds = {classify_effect(record) for record in store.all_records()}
    store.close()
    assert kinds == set(EFFECT_KINDS)


def test_each_product_finds_its_own_records(tmp_path):
    store, _ = _store(tmp_path, 2, 11)
    for product, _kind in CATALOG:
        hits = store.search(product)
        assert sum(r.description.startswith(f"{product} firmware") for r in hits) == 2, product
    store.close()
