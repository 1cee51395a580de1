"""Unit tests: surrogates, the address table, record containers."""

import pytest

from repro.access.address import (
    BASE_STRUCTURE,
    AddressTable,
    RecordId,
    SurrogateGenerator,
)
from repro.access.container import RecordContainer
from repro.errors import AccessError, AtomNotFoundError, RecordNotFoundError
from repro.mad.types import Surrogate
from repro.storage.page import PageId


class TestSurrogateGenerator:
    def test_monotone_per_type(self):
        gen = SurrogateGenerator()
        a1 = gen.generate("a")
        a2 = gen.generate("a")
        b1 = gen.generate("b")
        assert (a1.number, a2.number, b1.number) == (1, 2, 1)

    def test_never_reused_after_note(self):
        gen = SurrogateGenerator()
        gen.note_existing(Surrogate("a", 10))
        assert gen.generate("a").number == 11

    def test_note_lower_is_noop(self):
        gen = SurrogateGenerator()
        gen.generate("a")
        gen.generate("a")
        gen.note_existing(Surrogate("a", 1))
        assert gen.generate("a").number == 3


class TestAddressTable:
    def _rid(self, no=1, slot=0):
        return RecordId(PageId("seg", no), slot)

    def test_register_release(self):
        table = AddressTable()
        s = Surrogate("t", 1)
        table.register(s)
        assert table.exists(s)
        table.release(s)
        assert not table.exists(s)

    def test_double_register_rejected(self):
        table = AddressTable()
        s = Surrogate("t", 1)
        table.register(s)
        with pytest.raises(AtomNotFoundError):
            table.register(s)

    def test_unknown_lookup_rejected(self):
        table = AddressTable()
        with pytest.raises(AtomNotFoundError):
            table.placements(Surrogate("t", 9))

    def test_placements_base_first(self):
        table = AddressTable()
        s = Surrogate("t", 1)
        table.register(s)
        table.place(s, "sort_order:x", self._rid(2))
        table.place(s, BASE_STRUCTURE, self._rid(1))
        table.place(s, "partition:y", self._rid(3))
        placements = table.placements(s)
        assert placements[0].structure == BASE_STRUCTURE
        assert len(placements) == 3

    def test_unplace(self):
        table = AddressTable()
        s = Surrogate("t", 1)
        table.register(s)
        table.place(s, "partition:y", self._rid())
        table.unplace(s, "partition:y")
        assert table.placement(s, "partition:y") is None

    def test_staleness_lifecycle(self):
        table = AddressTable()
        s = Surrogate("t", 1)
        table.register(s)
        table.place(s, "partition:y", self._rid())
        assert table.placement(s, "partition:y").fresh
        table.mark_stale(s, "partition:y")
        assert not table.placement(s, "partition:y").fresh
        assert len(table.stale_placements(s)) == 1
        table.mark_fresh(s, "partition:y")
        assert table.placement(s, "partition:y").fresh

    def test_mark_fresh_with_new_record(self):
        table = AddressTable()
        s = Surrogate("t", 1)
        table.register(s)
        table.place(s, "partition:y", self._rid(1))
        table.mark_fresh(s, "partition:y", self._rid(2))
        assert table.placement(s, "partition:y").record == self._rid(2)

    def test_surrogate_iteration_filtered(self):
        table = AddressTable()
        for i in range(3):
            table.register(Surrogate("a", i + 1))
        table.register(Surrogate("b", 1))
        assert len(list(table.surrogates("a"))) == 3
        assert table.count("a") == 3
        assert table.count() == 4


class TestRecordContainer:
    @pytest.fixture
    def container(self, storage):
        return RecordContainer(storage, "recs", page_size=512)

    def test_insert_read(self, container):
        rid = container.insert(b"hello")
        assert container.read(rid) == b"hello"
        assert container.record_count == 1

    def test_update_in_place(self, container):
        rid = container.insert(b"aaaa")
        new_rid = container.update(rid, b"bb")
        assert new_rid == rid
        assert container.read(rid) == b"bb"

    def test_update_moves_across_pages(self, container):
        rid = container.insert(b"small")
        # Fill the page so a grown record must move.
        for _ in range(3):
            container.insert(b"x" * 120)
        new_rid = container.update(rid, b"y" * 400)
        assert container.read(new_rid) == b"y" * 400

    def test_delete(self, container):
        rid = container.insert(b"gone")
        container.delete(rid)
        assert container.record_count == 0
        with pytest.raises(RecordNotFoundError):
            container.read(rid)

    def test_scan_in_physical_order(self, container):
        payloads = [bytes([i]) * 50 for i in range(30)]
        for payload in payloads:
            container.insert(payload)
        scanned = [payload for _rid, payload, _length in container.scan(bytes)]
        assert scanned == payloads

    def test_records_spread_over_pages(self, container):
        for i in range(30):
            container.insert(bytes([i]) * 50)
        assert len(container.page_ids()) > 1

    def test_oversize_record_routed_to_page_sequence(self, container):
        blob = bytes(range(256)) * 10     # 2560 B > 512-byte pages
        rid = container.insert(blob)
        assert container.read(rid) == blob
        assert container.long_record_count == 1

    def test_long_record_update_and_delete(self, container):
        blob = bytes(range(256)) * 10
        rid = container.insert(blob)
        bigger = blob * 2
        rid = container.update(rid, bigger)
        assert container.read(rid) == bigger
        # shrink back below one page: the stub indirection disappears
        rid = container.update(rid, b"tiny")
        assert container.read(rid) == b"tiny"
        assert container.long_record_count == 0
        container.delete(rid)
        assert container.record_count == 0

    def test_short_record_growing_long(self, container):
        rid = container.insert(b"small")
        blob = bytes(range(256)) * 8
        rid = container.update(rid, blob)
        assert container.read(rid) == blob
        assert container.long_record_count == 1

    def test_scan_resolves_long_records(self, container):
        container.insert(b"short")
        blob = bytes(range(256)) * 10
        container.insert(blob)
        payloads = sorted((p for _rid, p, _length in container.scan(bytes)),
                          key=len)
        assert payloads == [b"short", blob]

    def test_clear_drops_long_records(self, container):
        container.insert(bytes(range(256)) * 10)
        container.clear()
        assert container.long_record_count == 0
        assert container.record_count == 0

    def test_foreign_record_rejected(self, container, storage):
        other = RecordContainer(storage, "other", page_size=512)
        rid = other.insert(b"x")
        with pytest.raises(AccessError):
            container.read(rid)

    def test_clear(self, container):
        for i in range(10):
            container.insert(bytes([i]) * 50)
        container.clear()
        assert container.record_count == 0
        assert list(container.scan(bytes)) == []

    def test_every_tombstone_counts_toward_free_space(self, storage):
        """Five 1,576-byte records fill an 8 KB page to 276 free bytes;
        after two deletes, 276 + 2 x 1,576 bytes are reclaimable, so a
        2,500-byte record belongs on that page, not on a fresh one."""
        container = RecordContainer(storage, "big", page_size=8192)
        rids = [container.insert(bytes([i]) * 1576) for i in range(5)]
        assert len({rid.page for rid in rids}) == 1
        container.delete(rids[1])
        container.delete(rids[3])
        rid = container.insert(b"z" * 2500)
        assert rid.page == rids[0].page
        assert len(container.page_ids()) == 1
        assert container.read(rid) == b"z" * 2500
        assert [container.read(r) for r in (rids[0], rids[2], rids[4])] == \
            [bytes([i]) * 1576 for i in (0, 2, 4)]

    def test_free_space_reused_after_delete(self, container):
        rids = [container.insert(b"x" * 100) for _ in range(4)]
        pages_before = len(container.page_ids())
        for rid in rids:
            container.delete(rid)
        for _ in range(4):
            container.insert(b"y" * 100)
        assert len(container.page_ids()) == pages_before
