"""Unit tests: slotted pages."""

import pytest

from repro.errors import PageOverflowError, StorageError
from repro.storage.page import PAGE_TYPE_DATA, PAGE_TYPE_META, Page


@pytest.fixture
def page() -> Page:
    return Page.format(512, page_no=42)


class TestHeader:
    def test_format_fields(self, page):
        assert page.page_no == 42
        assert page.page_type == PAGE_TYPE_DATA
        assert page.slot_count == 0
        assert page.size == 512

    def test_page_type_settable(self, page):
        page.page_type = PAGE_TYPE_META
        assert page.page_type == PAGE_TYPE_META

    def test_serialise_roundtrip(self, page):
        page.insert(b"payload")
        image = page.to_bytes()
        clone = Page.from_bytes(image)
        assert clone.read(0) == b"payload"
        assert clone.page_no == 42

    def test_bad_magic_rejected(self):
        with pytest.raises(StorageError):
            Page.from_bytes(bytes(512))

    def test_checksum_detects_corruption(self, page):
        page.insert(b"payload")
        image = bytearray(page.to_bytes())
        clone = Page.from_bytes(bytes(image))
        assert clone.verify_checksum()
        image[100] ^= 0xFF
        # keep the magic intact, corrupt the body
        corrupted = Page(bytearray(image))
        assert not corrupted.verify_checksum()

    def test_bad_size_rejected(self):
        with pytest.raises(Exception):
            Page(bytearray(700))


class TestRecords:
    def test_insert_read(self, page):
        slot = page.insert(b"hello")
        assert page.read(slot) == b"hello"

    def test_multiple_records(self, page):
        slots = [page.insert(bytes([i]) * 10) for i in range(5)]
        for i, slot in enumerate(slots):
            assert page.read(slot) == bytes([i]) * 10

    def test_delete_frees_slot(self, page):
        slot = page.insert(b"gone")
        page.delete(slot)
        with pytest.raises(StorageError):
            page.read(slot)

    def test_deleted_slot_reused(self, page):
        first = page.insert(b"a")
        page.insert(b"b")
        page.delete(first)
        again = page.insert(b"c")
        assert again == first
        assert page.read(again) == b"c"

    def test_update_in_place(self, page):
        slot = page.insert(b"aaaa")
        page.update(slot, b"bb")
        assert page.read(slot) == b"bb"

    def test_update_grow_relocates(self, page):
        slot = page.insert(b"aa")
        page.insert(b"bb")
        page.update(slot, b"c" * 100)
        assert page.read(slot) == b"c" * 100

    def test_slot_numbers_stable_across_compaction(self, page):
        slots = [page.insert(bytes([i]) * 30) for i in range(8)]
        for victim in slots[::2]:
            page.delete(victim)
        # force compaction by filling the page
        big = page.insert(b"x" * (page.free_space - 8))
        for i in (1, 3, 5, 7):
            assert page.read(slots[i]) == bytes([i]) * 30
        assert page.read(big)

    def test_overflow_raises(self, page):
        with pytest.raises(PageOverflowError):
            page.insert(b"x" * 600)

    def test_overflow_after_fill(self, page):
        page.insert(b"x" * 400)
        with pytest.raises(PageOverflowError):
            page.insert(b"y" * 200)

    def test_update_overflow_keeps_record(self, page):
        slot = page.insert(b"small")
        page.insert(b"x" * 300)
        with pytest.raises(PageOverflowError):
            page.update(slot, b"y" * 400)
        assert page.read(slot) == b"small"

    def test_records_listing(self, page):
        page.insert(b"a")
        slot_b = page.insert(b"b")
        page.delete(slot_b)
        page.insert(b"c")
        assert [payload for _slot, payload in page.records()] == [b"a", b"c"]

    def test_empty_slot_errors(self, page):
        with pytest.raises(StorageError):
            page.read(0)
        with pytest.raises(StorageError):
            page.delete(99)


class TestRawPayload:
    def test_write_read_payload(self, page):
        blob = bytes(range(200))
        page.write_payload(blob)
        assert page.read_payload() == blob

    def test_payload_capacity(self):
        assert Page.payload_capacity(512) == 512 - 16

    def test_payload_overflow(self, page):
        with pytest.raises(PageOverflowError):
            page.write_payload(bytes(600))

    def test_payload_overwrite_shrinks(self, page):
        page.write_payload(bytes(100))
        page.write_payload(bytes(10))
        assert len(page.read_payload()) == 10


class TestDecodedMemo:
    """``Page.decoded`` memoises a record's decoded form until the page
    next changes."""

    @staticmethod
    def counting_decoder():
        calls = []

        def decode(payload: bytes) -> str:
            calls.append(payload)
            return payload.decode()
        return decode, calls

    def test_decodes_once_and_reports_the_length(self, page):
        slot = page.insert(b"abc")
        decode, calls = self.counting_decoder()
        assert page.decoded(slot, decode) == ("abc", 3)
        assert page.decoded(slot, decode) == ("abc", 3)
        assert calls == [b"abc"]

    @pytest.mark.parametrize("mutate", [
        lambda page, slot: page.insert(b"other"),
        lambda page, slot: page.update(slot, b"xyz"),
        lambda page, slot: page.update(slot, b"grown record"),
        lambda page, slot: page.delete(page.insert(b"gone")),
        lambda page, slot: page.delete(slot) or page.insert(b"new"),
        lambda page, slot: page._compact(),  # noqa: SLF001
    ], ids=["insert", "update", "update-relocating", "delete", "reuse",
         "compact"])
    def test_every_mutation_forgets(self, page, mutate):
        slot = page.insert(b"abc")
        decode, calls = self.counting_decoder()
        page.decoded(slot, decode)
        mutate(page, slot)
        assert page.decoded(slot, decode) == (page.read(slot).decode(),
                                              len(page.read(slot)))
        assert len(calls) == 2

    def test_slot_reuse_after_delete(self, page):
        slot = page.insert(b"old")
        decode, _calls = self.counting_decoder()
        page.decoded(slot, decode)
        page.delete(slot)
        assert page.insert(b"new!") == slot
        assert page.decoded(slot, decode) == ("new!", 4)

    def test_raw_payload_write_forgets(self, page):
        slot = page.insert(b"abc")
        decode, _calls = self.counting_decoder()
        page.decoded(slot, decode)
        page.write_payload(b"raw")
        with pytest.raises(StorageError):
            page.decoded(slot, decode)

    def test_deleted_record_is_forgotten(self, page):
        slot = page.insert(b"abc")
        page.decoded(slot, bytes.decode)
        page.delete(slot)
        with pytest.raises(StorageError):
            page.decoded(slot, bytes.decode)

    def test_pickle_keeps_the_image_not_the_memo(self, page):
        import pickle
        slot = page.insert(b"abc")
        cold = len(pickle.dumps(page))
        page.decoded(slot, lambda payload: payload.decode() * 1000)
        assert len(pickle.dumps(page)) == cold
        copy = pickle.loads(pickle.dumps(page))
        assert copy.data == page.data
        decode, calls = self.counting_decoder()
        assert copy.decoded(slot, decode) == ("abc", 3)
        assert calls == [b"abc"]

    def test_unpickles_an_image_saved_before_the_memo(self, page):
        slot = page.insert(b"abc")
        restored = Page.__new__(Page)
        restored.__setstate__((None, {"data": bytearray(page.data)}))
        assert restored.decoded(slot, bytes.decode) == ("abc", 3)


def _rederived(page: Page) -> Page:
    """A page object over a copy of ``page``'s image, as a reload sees it."""
    return Page(bytearray(page.data))


class TestDirectorySummary:
    """Tombstone reuse and the free-after-compaction figure come from the
    page image, stay current under every record operation, and cost no
    per-insert walk of the slot directory."""

    def _count_entry_reads(self, monkeypatch) -> list[int]:
        reads = [0]
        slot = Page._slot
        directory = getattr(Page, "_directory", None)

        def counting_slot(self, index):
            reads[0] += 1
            return slot(self, index)

        def counting_directory(self):
            reads[0] += self.slot_count
            return directory(self)

        monkeypatch.setattr(Page, "_slot", counting_slot)
        if directory is not None:
            monkeypatch.setattr(Page, "_directory", counting_directory)
        return reads

    def test_filling_a_page_reads_each_slot_entry_at_most_once(
            self, monkeypatch):
        reads = self._count_entry_reads(monkeypatch)
        page = Page.format(8192, page_no=1)
        inserted = 0
        while page.space_for(16):
            page.insert(b"r" * 16)
            inserted += 1
        assert inserted > 300
        assert reads[0] <= inserted

    def test_filling_a_reloaded_page_reads_its_directory_once(
            self, monkeypatch):
        page = Page.format(8192, page_no=1)
        for _ in range(200):
            page.insert(b"r" * 16)
        clone = Page.from_bytes(page.to_bytes())
        reads = self._count_entry_reads(monkeypatch)
        for _ in range(100):
            clone.insert(b"s" * 16)
        assert reads[0] <= 200 + 100

    def test_tombstones_reused_lowest_first(self, page):
        for i in range(5):
            page.insert(bytes([i]) * 10)
        page.delete(3)
        page.delete(1)
        assert [page.insert(b"n") for _ in range(3)] == [1, 3, 5]

    def test_tombstones_survive_a_reload(self, page):
        for i in range(5):
            page.insert(bytes([i]) * 10)
        page.delete(4)
        page.delete(2)
        clone = Page.from_bytes(page.to_bytes())
        assert [clone.insert(b"n") for _ in range(3)] == [2, 4, 5]

    def test_free_after_compaction_counts_every_hole(self, page):
        for i in range(4):
            page.insert(bytes([i]) * 40)
        contiguous = page.free_space
        page.delete(0)
        page.delete(2)
        page.update(3, b"x" * 10)       # shrinks in place: a 30-byte hole
        assert page.free_space == contiguous
        assert page.free_after_compaction == contiguous + 40 + 40 + 30

    def test_summary_matches_the_image_after_every_operation(self, page):
        def check():
            fresh = _rederived(page)
            assert page.free_after_compaction == \
                fresh.free_after_compaction
            fresh._compact()
            assert fresh.free_space == page.free_after_compaction

        for i in range(8):
            page.insert(bytes([i]) * 30)
            check()
        page.delete(5)
        check()
        page.delete(2)
        check()
        page.update(0, b"s" * 5)              # shrink in place
        check()
        page.update(1, b"g" * 80)             # grow: relocates
        check()
        with pytest.raises(PageOverflowError):
            page.update(3, b"h" * 600)        # fails, record kept
        check()
        page._compact()
        check()
        assert page.insert(b"r" * 30) == 2    # lowest tombstone first
        check()
        assert page.insert(b"r" * 30) == 5
        check()
        page.write_payload(b"raw")
        check()
