"""Pages: the unit of transfer between buffer and disk.

Every page starts with the *usual page header used for identification,
description, and fault tolerance* (paper, section 3.3).  Data pages use a
classic slotted layout so the access system can store variable-length
physical records and address them stably by slot number even when records
move during compaction.

Layout of a slotted page (all integers little-endian)::

    offset 0   u16  magic            (0xDB87 -- "database 1987")
    offset 2   u32  page_no
    offset 6   u8   page_type
    offset 7   u8   flags
    offset 8   u16  slot_count       (entries in the slot directory)
    offset 10  u16  free_start       (first free byte after record area)
    offset 12  u16  free_end         (first byte of the slot directory)
    offset 14  u16  checksum         (additive, for fault tolerance)
    ...        record area grows upward from PAGE_HEADER_SIZE
    ...        slot directory grows downward from the page end;
               each entry: u16 offset (0 = empty slot), u16 length

The maximum page size is 8 KByte, hence all offsets fit in u16.

**Decoded-record memo.**  A resident page image also keeps the decoded
form of the records read from it (:meth:`Page.decoded`), keyed by slot,
so a record that is read again while its page stays resident and
unchanged is not decoded again.  Every mutation of the image (insert,
update, delete, compaction, raw payload writes) empties the memo, and it
lives and dies with the in-buffer ``Page`` object: eviction drops it,
a miss starts with an empty one, and checkpoints never write it.  Its
memory is therefore bounded by the buffer's own residency.  Memo
entries are shared: whoever hands decoded values beyond the access
system gives out copies (see :func:`repro.access.encoding.copy_values`).

**Directory summary.**  Inserts reuse the lowest tombstoned slot, and
placement needs the bytes compaction would free.  Both come from one
bulk read of the slot directory (:meth:`Page._summary`), made on the
first record operation or free-space question after the image was
loaded; the record operations keep it current from then on, so filling
a page reads no slot entry per insert.  Like the memo it is derived
from the image and lives only on the in-buffer object: a reload
re-derives it.
"""

from __future__ import annotations

import heapq
import struct
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import PageOverflowError, StorageError
from repro.storage.constants import PAGE_HEADER_SIZE, SLOT_ENTRY_SIZE, check_page_size

_MAGIC = 0xDB87
_HEADER = struct.Struct("<HIBBHHHH")

#: Page type tags stored in the header.
PAGE_TYPE_FREE = 0
PAGE_TYPE_DATA = 1
PAGE_TYPE_SEQUENCE_HEADER = 2
PAGE_TYPE_SEQUENCE_COMPONENT = 3
PAGE_TYPE_META = 4


@dataclass(frozen=True, order=True)
class PageId:
    """Globally unique page identifier: (segment name, page number)."""

    segment: str
    page_no: int

    def __repr__(self) -> str:
        return f"{self.segment}:{self.page_no}"


class Page:
    """A mutable in-buffer page image with slotted-record operations."""

    __slots__ = ("data", "_memo", "_tombstones", "_live_bytes")

    def __init__(self, data: bytearray) -> None:
        if len(data) != check_page_size(len(data)):
            raise StorageError(f"bad page image length {len(data)}")
        self.data = data
        #: slot -> (decoded record, record length); see :meth:`decoded`.
        self._memo: dict[int, tuple[Any, int]] = {}
        self._forget_summary()

    # The memo and the directory summary are derived state: a checkpoint
    # stores the image only.
    def __getstate__(self) -> dict[str, Any]:
        return {"data": self.data}

    def __setstate__(self, state: Any) -> None:
        if isinstance(state, tuple):   # (None, slots) of memo-less images
            state = state[1]
        self.data = state["data"]
        self._memo = {}
        self._forget_summary()

    # -- construction ---------------------------------------------------------

    @classmethod
    def format(cls, size: int, page_no: int, page_type: int = PAGE_TYPE_DATA) -> "Page":
        """Create a freshly initialised empty page."""
        check_page_size(size)
        page = cls(bytearray(size))
        _HEADER.pack_into(page.data, 0, _MAGIC, page_no, page_type, 0,
                          0, PAGE_HEADER_SIZE, size, 0)
        return page

    @classmethod
    def from_bytes(cls, data: bytes) -> "Page":
        """Wrap a block image read from disk, verifying the header."""
        page = cls(bytearray(data))
        magic = page._field(0)
        if magic != _MAGIC:
            raise StorageError(f"bad page magic 0x{magic:04X}")
        return page

    def to_bytes(self) -> bytes:
        """Serialise for writing to disk, refreshing the checksum."""
        self._set_checksum()
        return bytes(self.data)

    # -- header accessors -----------------------------------------------------

    def _field(self, offset: int) -> int:
        return struct.unpack_from("<H", self.data, offset)[0]

    def _set_field(self, offset: int, value: int) -> None:
        struct.pack_into("<H", self.data, offset, value)

    @property
    def size(self) -> int:
        return len(self.data)

    @property
    def page_no(self) -> int:
        return struct.unpack_from("<I", self.data, 2)[0]

    @property
    def page_type(self) -> int:
        return self.data[6]

    @page_type.setter
    def page_type(self, value: int) -> None:
        self.data[6] = value

    @property
    def slot_count(self) -> int:
        return self._field(8)

    @property
    def free_start(self) -> int:
        return self._field(10)

    @property
    def free_end(self) -> int:
        return self._field(12)

    def _set_checksum(self) -> None:
        self._set_field(14, 0)
        self._set_field(14, sum(self.data) & 0xFFFF)

    def verify_checksum(self) -> bool:
        """True when the stored checksum matches the page contents."""
        stored = self._field(14)
        self._set_field(14, 0)
        actual = sum(self.data) & 0xFFFF
        self._set_field(14, stored)
        return stored == actual

    # -- slot directory -------------------------------------------------------

    def _slot_pos(self, slot: int) -> int:
        return self.size - (slot + 1) * SLOT_ENTRY_SIZE

    def _slot(self, slot: int) -> tuple[int, int]:
        if not 0 <= slot < self.slot_count:
            raise StorageError(f"slot {slot} out of range on page {self.page_no}")
        pos = self._slot_pos(slot)
        return struct.unpack_from("<HH", self.data, pos)

    def _set_slot(self, slot: int, offset: int, length: int) -> None:
        struct.pack_into("<HH", self.data, self._slot_pos(slot), offset, length)

    def _forget_summary(self) -> None:
        #: Min-heap of tombstoned slot numbers; None until derived.
        self._tombstones: list[int] | None = None
        #: Bytes held by live records; None until derived.
        self._live_bytes: int | None = None

    def _summary(self) -> tuple[list[int], int]:
        """``(tombstoned slots as a min-heap, live record bytes)``,
        derived when not yet known."""
        if self._tombstones is None or self._live_bytes is None:
            entries = self._directory()
            self._tombstones = [slot for slot, (offset, _length)
                                in enumerate(entries)
                                if offset == 0]   # ascending: a heap
            self._live_bytes = sum(length for offset, length in entries
                                   if offset != 0)
        return self._tombstones, self._live_bytes

    def _directory(self) -> list[tuple[int, int]]:
        """Every slot's ``(offset, length)`` in slot order, read in one
        bulk unpack (the directory grows downward: highest slot first)."""
        start = self.size - self.slot_count * SLOT_ENTRY_SIZE
        entries = list(struct.iter_unpack("<HH", self.data[start:]))
        entries.reverse()
        return entries

    @property
    def free_space(self) -> int:
        """Contiguous free bytes between record area and slot directory."""
        return self.free_end - self.free_start

    @property
    def free_after_compaction(self) -> int:
        """Free bytes once compaction squeezed out every hole: the
        contiguous free space plus all tombstoned and shrunk-away bytes."""
        return self.free_end - PAGE_HEADER_SIZE - self._summary()[1]

    def space_for(self, length: int) -> bool:
        """Can a new record of ``length`` bytes be inserted (new slot)?"""
        return self.free_space >= length + SLOT_ENTRY_SIZE

    # -- record operations ------------------------------------------------------

    def insert(self, payload: bytes) -> int:
        """Store ``payload`` in a free slot; returns the slot number."""
        self._memo.clear()
        needed = len(payload)
        # Reuse the lowest empty slot when one exists (offset 0 marks a
        # tombstone).
        tombstones, live = self._summary()
        grows_directory = not tombstones
        needed_total = needed + (SLOT_ENTRY_SIZE if grows_directory else 0)
        if self.free_space < needed_total:
            self._compact()
        if self.free_space < needed_total:
            raise PageOverflowError(
                f"page {self.page_no}: {needed} bytes do not fit "
                f"({self.free_space} free)"
            )
        offset = self.free_start
        self.data[offset:offset + needed] = payload
        self._set_field(10, offset + needed)
        if grows_directory:
            slot = self.slot_count
            self._set_field(12, self.free_end - SLOT_ENTRY_SIZE)
            self._set_field(8, self.slot_count + 1)
        else:
            slot = heapq.heappop(tombstones)
        self._set_slot(slot, offset, needed)
        self._live_bytes = live + needed
        return slot

    def read(self, slot: int) -> bytes:
        """Return the payload stored in ``slot``."""
        offset, length = self._slot(slot)
        if offset == 0:
            raise StorageError(f"slot {slot} on page {self.page_no} is empty")
        return bytes(self.data[offset:offset + length])

    def decoded(self, slot: int,
                decode: Callable[[bytes], Any]) -> tuple[Any, int]:
        """``(decode(payload), len(payload))`` for the record in ``slot``.

        The pair is memoised on this image until its next mutation, so
        ``decode`` runs once per record and residency.  The decoded value
        is shared with every later caller and must not be mutated.
        """
        entry = self._memo.get(slot)
        if entry is None:
            payload = self.read(slot)
            entry = self._memo[slot] = (decode(payload), len(payload))
        return entry

    def delete(self, slot: int) -> None:
        """Remove the record in ``slot`` (the slot becomes reusable)."""
        offset, length = self._slot(slot)
        if offset == 0:
            raise StorageError(f"slot {slot} on page {self.page_no} is empty")
        self._memo.clear()
        tombstones, live = self._summary()
        self._set_slot(slot, 0, 0)
        heapq.heappush(tombstones, slot)
        self._live_bytes = live - length

    def update(self, slot: int, payload: bytes) -> None:
        """Replace the record in ``slot`` with ``payload`` (may relocate)."""
        offset, length = self._slot(slot)
        if offset == 0:
            raise StorageError(f"slot {slot} on page {self.page_no} is empty")
        self._memo.clear()
        live = self._summary()[1]
        if len(payload) <= length:
            self.data[offset:offset + len(payload)] = payload
            self._set_slot(slot, offset, len(payload))
            self._live_bytes = live - length + len(payload)
            return
        # Relocate within the page.  Save the old image first: compaction
        # moves records, so a failed grow must re-insert, not re-point.
        old_payload = bytes(self.data[offset:offset + length])
        self._set_slot(slot, 0, 0)
        if self.free_space < len(payload):
            self._compact()
        if self.free_space < len(payload):
            restore_offset = self.free_start
            self.data[restore_offset:restore_offset + length] = old_payload
            self._set_field(10, restore_offset + length)
            self._set_slot(slot, restore_offset, length)
            raise PageOverflowError(
                f"page {self.page_no}: update to {len(payload)} bytes does not fit"
            )
        new_offset = self.free_start
        self.data[new_offset:new_offset + len(payload)] = payload
        self._set_field(10, new_offset + len(payload))
        self._set_slot(slot, new_offset, len(payload))
        self._live_bytes = live - length + len(payload)

    def slots(self) -> list[int]:
        """Slot numbers currently holding a record, in slot order."""
        return [slot for slot, (offset, _length)
                in enumerate(self._directory()) if offset != 0]

    def records(self) -> list[tuple[int, bytes]]:
        """All (slot, payload) pairs on the page."""
        return [(s, self.read(s)) for s in self.slots()]

    def _compact(self) -> None:
        """Squeeze out holes left by deletes and shrinking updates.

        Slot numbers are stable record addresses (the access system stores
        them in its addressing structure), so the directory is never
        trimmed — tombstoned slots are reused by later inserts instead.
        """
        self._memo.clear()
        entries = self._directory()
        records = bytearray()
        cursor = PAGE_HEADER_SIZE
        for slot, (offset, length) in enumerate(entries):
            if offset != 0:
                records += self.data[offset:offset + length]
                entries[slot] = (cursor, length)
                cursor += length
        self.data[PAGE_HEADER_SIZE:cursor] = records
        entries.reverse()
        start = self.size - len(entries) * SLOT_ENTRY_SIZE
        self.data[start:] = struct.pack(
            f"<{2 * len(entries)}H", *(n for entry in entries for n in entry))
        self._set_field(10, cursor)

    # -- raw payload area (for page-sequence component pages) -------------------

    def write_payload(self, payload: bytes) -> None:
        """Overwrite the whole non-header area with ``payload``."""
        capacity = self.size - PAGE_HEADER_SIZE
        if len(payload) > capacity:
            raise PageOverflowError(
                f"payload of {len(payload)} bytes exceeds capacity {capacity}"
            )
        self._memo.clear()
        self._forget_summary()
        start = PAGE_HEADER_SIZE
        self.data[start:start + len(payload)] = payload
        self._set_field(8, 0)
        self._set_field(10, start + len(payload))
        self._set_field(12, self.size)

    def read_payload(self) -> bytes:
        """Return the raw payload previously written with write_payload."""
        return bytes(self.data[PAGE_HEADER_SIZE:self.free_start])

    @classmethod
    def payload_capacity(cls, size: int) -> int:
        """Raw payload capacity of a page of ``size`` bytes."""
        return check_page_size(size) - PAGE_HEADER_SIZE
