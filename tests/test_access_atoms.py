"""Unit tests: the atom manager — CRUD, keys, back-reference maintenance."""

import pytest

from repro.errors import (
    AtomNotFoundError,
    CardinalityError,
    DuplicateKeyError,
    IntegrityError,
    TypeMismatchError,
    UnknownTypeError,
)
from repro.access.integrity import verify_database
from repro.mad.types import Surrogate
from repro.storage.page import Page


class TestInsertGet:
    def test_insert_returns_surrogate(self, face_edge_access):
        s = face_edge_access.insert("face", {"square_dim": 1.0})
        assert isinstance(s, Surrogate)
        assert s.atom_type == "face"

    def test_get_includes_identifier(self, face_edge_access):
        s = face_edge_access.insert("face", {"square_dim": 1.0})
        values = face_edge_access.get(s)
        assert values["face_id"] == s
        assert values["square_dim"] == 1.0

    def test_defaults_applied(self, face_edge_access):
        s = face_edge_access.insert("face")
        values = face_edge_access.get(s)
        assert values["border"] == []
        assert values["square_dim"] is None

    def test_attribute_selection(self, face_edge_access):
        s = face_edge_access.insert("face", {"square_dim": 2.0,
                                             "name": "top"})
        values = face_edge_access.get(s, attrs=["name"])
        assert set(values) == {"face_id", "name"}

    def test_unknown_attribute_rejected(self, face_edge_access):
        with pytest.raises(UnknownTypeError):
            face_edge_access.insert("face", {"nope": 1})
        s = face_edge_access.insert("face")
        with pytest.raises(AtomNotFoundError):
            face_edge_access.get(s, attrs=["nope"])

    def test_type_checked(self, face_edge_access):
        with pytest.raises(TypeMismatchError):
            face_edge_access.insert("face", {"square_dim": "not a number"})

    def test_identifier_not_writable(self, face_edge_access):
        with pytest.raises(TypeMismatchError):
            face_edge_access.insert("face", {"face_id": Surrogate("face", 9)})

    def test_unknown_surrogate(self, face_edge_access):
        with pytest.raises(AtomNotFoundError):
            face_edge_access.get(Surrogate("face", 999))

    def test_atoms_of_type_physical_order(self, face_edge_access):
        inserted = [face_edge_access.insert("edge", {"length": float(i)})
                    for i in range(5)]
        got = [s for s, _v in face_edge_access.atoms.atoms_of_type("edge")]
        assert got == inserted

    def test_count(self, face_edge_access):
        for i in range(3):
            face_edge_access.insert("edge")
        assert face_edge_access.atoms.count("edge") == 3


class TestKeys:
    def test_key_lookup(self, face_edge_access):
        s = face_edge_access.insert("face", {"name": "top"})
        assert face_edge_access.atoms.find_by_key("face", "top") == s

    def test_duplicate_key_rejected(self, face_edge_access):
        face_edge_access.insert("face", {"name": "top"})
        with pytest.raises(DuplicateKeyError):
            face_edge_access.insert("face", {"name": "top"})

    def test_key_moves_on_modify(self, face_edge_access):
        s = face_edge_access.insert("face", {"name": "old"})
        face_edge_access.modify(s, {"name": "new"})
        assert face_edge_access.atoms.find_by_key("face", "old") is None
        assert face_edge_access.atoms.find_by_key("face", "new") == s

    def test_key_conflict_on_modify(self, face_edge_access):
        face_edge_access.insert("face", {"name": "a"})
        s = face_edge_access.insert("face", {"name": "b"})
        with pytest.raises(DuplicateKeyError):
            face_edge_access.modify(s, {"name": "a"})

    def test_key_released_on_delete(self, face_edge_access):
        s = face_edge_access.insert("face", {"name": "gone"})
        face_edge_access.delete(s)
        assert face_edge_access.atoms.find_by_key("face", "gone") is None
        face_edge_access.insert("face", {"name": "gone"})  # reusable


class TestBackReferences:
    def test_insert_maintains_backrefs(self, face_edge_access):
        e = face_edge_access.insert("edge")
        f = face_edge_access.insert("face", {"border": [e]})
        assert face_edge_access.get(e)["face"] == [f]

    def test_modify_add_and_remove(self, face_edge_access):
        e1 = face_edge_access.insert("edge")
        e2 = face_edge_access.insert("edge")
        f = face_edge_access.insert("face", {"border": [e1]})
        face_edge_access.modify(f, {"border": [e2]})
        assert face_edge_access.get(e1)["face"] == []
        assert face_edge_access.get(e2)["face"] == [f]

    def test_modify_from_either_side(self, face_edge_access):
        e = face_edge_access.insert("edge")
        f = face_edge_access.insert("face")
        face_edge_access.modify(e, {"face": [f]})
        assert face_edge_access.get(f)["border"] == [e]

    def test_delete_disconnects(self, face_edge_access):
        e = face_edge_access.insert("edge")
        f = face_edge_access.insert("face", {"border": [e]})
        face_edge_access.delete(e)
        assert face_edge_access.get(f)["border"] == []

    def test_dangling_reference_rejected(self, face_edge_access):
        ghost = Surrogate("edge", 777)
        with pytest.raises(IntegrityError):
            face_edge_access.insert("face", {"border": [ghost]})

    def test_wrong_target_type_rejected(self, face_edge_access):
        f = face_edge_access.insert("face")
        with pytest.raises(TypeMismatchError):
            face_edge_access.insert("face", {"border": [f]})

    def test_no_violations_after_random_dml(self, face_edge_access):
        import random
        rng = random.Random(3)
        edges = [face_edge_access.insert("edge") for _ in range(10)]
        faces = [face_edge_access.insert(
            "face", {"border": rng.sample(edges, 3)}) for _ in range(6)]
        for _ in range(30):
            action = rng.random()
            if action < 0.4:
                face_edge_access.modify(rng.choice(faces),
                                        {"border": rng.sample(edges, 2)})
            elif action < 0.7 and len(edges) > 3:
                victim = edges.pop(rng.randrange(len(edges)))
                face_edge_access.delete(victim)
            else:
                edges.append(face_edge_access.insert("edge"))
        assert verify_database(face_edge_access.atoms) == []


class TestRestore:
    def test_restore_after_delete(self, face_edge_access):
        e = face_edge_access.insert("edge", {"length": 5.0})
        f = face_edge_access.insert("face", {"border": [e]})
        values = face_edge_access.get(e)
        values.pop("edge_id")
        face_edge_access.delete(e)
        face_edge_access.atoms.restore_atom(e, values)
        assert face_edge_access.get(e)["length"] == 5.0
        assert face_edge_access.get(f)["border"] == [e]
        assert verify_database(face_edge_access.atoms) == []

    def test_restore_keeps_free_space_figures_exact(self, face_edge_access):
        access = face_edge_access
        edges = [access.insert("edge", {"length": float(i)})
                 for i in range(6)]
        saved = []
        for victim in (edges[1], edges[4]):
            values = access.get(victim)
            values.pop("edge_id")
            saved.append((victim, values))
            access.delete(victim)
        container = access.atoms._container("edge")

        def check():
            for page_id in container.page_ids():
                with access.storage.page(page_id) as page:
                    fresh = Page(bytearray(page.data))
                    assert page.free_after_compaction == \
                        fresh.free_after_compaction
                    assert container._free_space[page_id.page_no] == \
                        fresh.free_after_compaction

        check()
        for victim, values in saved:
            access.atoms.restore_atom(victim, values)
            check()
        assert [access.get(e)["length"] for e in edges] == \
            [float(i) for i in range(6)]
        assert verify_database(access.atoms) == []

    def test_restore_existing_rejected(self, face_edge_access):
        e = face_edge_access.insert("edge")
        with pytest.raises(IntegrityError):
            face_edge_access.atoms.restore_atom(e, {"length": 1.0})

    def test_restored_surrogate_not_reissued(self, face_edge_access):
        e = face_edge_access.insert("edge")
        values = face_edge_access.get(e)
        values.pop("edge_id")
        face_edge_access.delete(e)
        face_edge_access.atoms.restore_atom(e, values)
        fresh = face_edge_access.insert("edge")
        assert fresh.number > e.number


class TestSelfReference:
    @pytest.fixture
    def part_access(self):
        from repro.access.system import AccessSystem
        from repro.mad import (IDENTIFIER, AtomType, ReferenceType, Schema,
                               SetType)
        from repro.storage.system import StorageSystem
        schema = Schema()
        schema.create_atom_type(AtomType("part", [
            ("part_id", IDENTIFIER),
            ("sub", SetType(ReferenceType("part", "super"))),
            ("super", SetType(ReferenceType("part", "sub"))),
        ]))
        schema.check_symmetry()
        access = AccessSystem(StorageSystem(), schema)
        access.atoms.register_atom_type("part")
        return access

    def test_recursive_association(self, part_access):
        child = part_access.insert("part")
        parent = part_access.insert("part", {"sub": [child]})
        assert part_access.get(child)["super"] == [parent]
        assert verify_database(part_access.atoms) == []

    def test_atom_referencing_itself(self, part_access):
        lonely = part_access.insert("part")
        part_access.modify(lonely, {"sub": [lonely]})
        values = part_access.get(lonely)
        assert values["sub"] == [lonely]
        assert values["super"] == [lonely]
        assert verify_database(part_access.atoms) == []

    def test_self_reference_removed(self, part_access):
        lonely = part_access.insert("part")
        part_access.modify(lonely, {"sub": [lonely]})
        part_access.modify(lonely, {"sub": []})
        values = part_access.get(lonely)
        assert values["sub"] == [] and values["super"] == []


class TestLongFieldAtoms:
    """Texts and images beyond one page go onto page sequences (3.3)."""

    @pytest.fixture
    def doc_access(self):
        from repro.access.system import AccessSystem
        from repro.mad import BYTE_VAR, CHAR_VAR, IDENTIFIER, AtomType, Schema
        from repro.storage.system import StorageSystem
        schema = Schema()
        schema.create_atom_type(AtomType("doc", [
            ("doc_id", IDENTIFIER),
            ("title", CHAR_VAR),
            ("body", BYTE_VAR),
        ], keys=("title",)))
        schema.check_symmetry()
        access = AccessSystem(StorageSystem(buffer_capacity=64 * 8192),
                              schema)
        access.atoms.register_atom_type("doc")
        return access

    def test_100kb_atom_roundtrip(self, doc_access):
        body = bytes(range(256)) * 400          # 100 KB
        s = doc_access.insert("doc", {"title": "scan", "body": body})
        assert doc_access.get(s)["body"] == body

    def test_long_atom_modify(self, doc_access):
        body = bytes(range(256)) * 100
        s = doc_access.insert("doc", {"title": "a", "body": body})
        doc_access.modify(s, {"body": body * 3})
        assert doc_access.get(s)["body"] == body * 3
        doc_access.modify(s, {"body": b"short now"})
        assert doc_access.get(s)["body"] == b"short now"

    def test_long_atom_delete_releases_pages(self, doc_access):
        before = doc_access.storage.segment("at_doc").allocated_pages
        s = doc_access.insert("doc", {"title": "a",
                                      "body": bytes(100_000)})
        doc_access.delete(s)
        after = doc_access.storage.segment("at_doc").allocated_pages
        assert after <= before + 1   # stub page may remain allocated

    def test_atoms_of_type_sees_long_atoms(self, doc_access):
        doc_access.insert("doc", {"title": "small", "body": b"x"})
        doc_access.insert("doc", {"title": "large",
                                  "body": bytes(50_000)})
        titles = {values["title"] for _s, values
                  in doc_access.atoms.atoms_of_type("doc")}
        assert titles == {"small", "large"}

    def test_long_text_attribute(self, doc_access):
        text = "ein langer text " * 4000
        s = doc_access.insert("doc", {"title": "t", "body": None})
        doc_access.modify(s, {"body": text.encode()})
        assert doc_access.get(s)["body"] == text.encode()


# ---------------------------------------------------------------------------
# The decoded-record memo: each read after a change of the page is correct,
# and every reader owns what it is handed
# ---------------------------------------------------------------------------

def _decodes(access) -> int:
    return access.atoms.counters.get("records_decoded")


def _record(access, surrogate):
    from repro.access.address import BASE_STRUCTURE
    return access.atoms.addresses.placement(surrogate, BASE_STRUCTURE).record


class TestDecodedRecordMemo:
    def test_repeat_reads_decode_once(self, face_edge_access):
        s = face_edge_access.insert("face", {"name": "a"})
        face_edge_access.get(s)
        before = _decodes(face_edge_access)
        for _ in range(3):
            assert face_edge_access.get(s)["name"] == "a"
            face_edge_access.get(s, attrs=["name"])
        list(face_edge_access.atoms.atoms_of_type("face"))
        assert _decodes(face_edge_access) == before

    def test_in_place_modify(self, face_edge_access):
        s = face_edge_access.insert("face", {"name": "a", "square_dim": 1.0})
        record = _record(face_edge_access, s)
        face_edge_access.get(s)
        face_edge_access.modify(s, {"square_dim": 2.0})
        assert _record(face_edge_access, s) == record
        assert face_edge_access.get(s)["square_dim"] == 2.0

    def test_modify_relocating_within_the_page(self, face_edge_access):
        s = face_edge_access.insert("face", {"name": "a"})
        t = face_edge_access.insert("face", {"name": "b"})
        for surrogate in (s, t):
            face_edge_access.get(surrogate)
        face_edge_access.modify(s, {"name": "a" * 300})
        assert _record(face_edge_access, s).page == _record(
            face_edge_access, t).page
        assert face_edge_access.get(s)["name"] == "a" * 300
        assert face_edge_access.get(t)["name"] == "b"

    def test_modify_relocating_across_pages(self, face_edge_access):
        faces = [face_edge_access.insert("face", {"name": f"{i}" * 1000})
                 for i in range(7)]
        for s in faces:
            face_edge_access.get(s)
        page = _record(face_edge_access, faces[0]).page
        face_edge_access.modify(faces[0], {"name": "x" * 3000})
        assert _record(face_edge_access, faces[0]).page != page
        assert face_edge_access.get(faces[0])["name"] == "x" * 3000
        for i, s in enumerate(faces[1:], start=1):
            assert face_edge_access.get(s)["name"] == f"{i}" * 1000

    def test_modify_onto_a_page_sequence_and_back(self, face_edge_access):
        s = face_edge_access.insert("face", {"name": "short"})
        t = face_edge_access.insert("face", {"name": "neighbour"})
        face_edge_access.get(s)
        container = face_edge_access.atoms._container("face")  # noqa: SLF001
        face_edge_access.modify(s, {"name": "L" * 20_000})
        assert container.long_record_count == 1
        assert face_edge_access.get(s)["name"] == "L" * 20_000
        face_edge_access.modify(s, {"name": "M" * 30_000})
        assert face_edge_access.get(s)["name"] == "M" * 30_000
        face_edge_access.modify(s, {"name": "short again"})
        assert container.long_record_count == 0
        assert face_edge_access.get(s)["name"] == "short again"
        assert face_edge_access.get(t)["name"] == "neighbour"
        names = {v["name"] for _s, v
                 in face_edge_access.atoms.atoms_of_type("face")}
        assert names == {"short again", "neighbour"}

    def test_delete_then_insert_reusing_the_slot(self, face_edge_access):
        s = face_edge_access.insert("face", {"name": "old"})
        face_edge_access.insert("face", {"name": "keeps the page"})
        record = _record(face_edge_access, s)
        face_edge_access.get(s)
        face_edge_access.delete(s)
        fresh = face_edge_access.insert("face", {"name": "new"})
        assert _record(face_edge_access, fresh) == record
        assert face_edge_access.get(fresh)["name"] == "new"
        assert face_edge_access.get(fresh)["face_id"] == fresh

    def test_page_compaction(self, face_edge_access):
        faces = [face_edge_access.insert("face", {"name": f"{i}" * 1500})
                 for i in range(5)]
        for s in faces:
            face_edge_access.get(s)
        page = _record(face_edge_access, faces[0]).page
        face_edge_access.delete(faces[1])
        face_edge_access.delete(faces[3])
        # Fits only once the holes are squeezed out.
        big = face_edge_access.insert("face", {"name": "b" * 1750})
        assert _record(face_edge_access, big).page == page
        assert face_edge_access.get(big)["name"] == "b" * 1750
        for i in (0, 2, 4):
            assert face_edge_access.get(faces[i])["name"] == f"{i}" * 1500

    def test_eviction_and_reload_under_a_tiny_buffer(self):
        from repro.access.system import AccessSystem
        from repro.storage.system import StorageSystem
        from repro.mad import IDENTIFIER, AtomType, CharVarType, Schema
        schema = Schema()
        schema.create_atom_type(AtomType("doc", [
            ("doc_id", IDENTIFIER), ("text", CharVarType())]))
        access = AccessSystem(StorageSystem(buffer_capacity=2 * 8192),
                              schema)
        access.atoms.register_atom_type("doc")
        docs = [access.insert("doc", {"text": f"{i:04d}" * 250})
                for i in range(40)]
        assert len(access.atoms._container("doc").page_ids()) > 2  # noqa: SLF001
        for s in docs:
            access.get(s)
        access.modify(docs[0], {"text": "changed"})
        misses = access.storage.counters.get("misses")
        before = _decodes(access)
        for i, s in enumerate(docs):
            expected = "changed" if i == 0 else f"{i:04d}" * 250
            assert access.get(s)["text"] == expected
        assert access.storage.counters.get("misses") > misses
        assert _decodes(access) > before   # reloaded pages start empty

    def test_undo_of_a_delete(self, face_edge_access):
        e = face_edge_access.insert("edge", {"length": 5.0})
        f = face_edge_access.insert("face", {"border": [e]})
        values = face_edge_access.get(e)
        face_edge_access.get(f)
        values.pop("edge_id")
        face_edge_access.delete(e)
        assert face_edge_access.get(f)["border"] == []
        face_edge_access.atoms.restore_atom(e, values)
        assert face_edge_access.get(e)["length"] == 5.0
        assert face_edge_access.get(f)["border"] == [e]

    def test_snapshot_pinned_before_a_modify(self, face_edge_access):
        atoms = face_edge_access.atoms
        e = face_edge_access.insert("edge", {"length": 1.0})
        f = face_edge_access.insert("face", {"name": "f", "border": [e]})
        face_edge_access.get(f)
        with atoms.open_snapshot() as snapshot:
            assert snapshot.get(f)["border"] == [e]
            face_edge_access.modify(f, {"border": [], "name": "g"})
            assert snapshot.get(f)["border"] == [e]
            assert snapshot.get(f)["name"] == "f"
            assert snapshot.get(e)["face"] == [f]
            assert face_edge_access.get(f)["border"] == []
            assert face_edge_access.get(e)["face"] == []


class TestReadersOwnTheirValues:
    def test_get(self, face_edge_access):
        e = face_edge_access.insert("edge")
        f = face_edge_access.insert("face", {"name": "f", "border": [e]})
        values = face_edge_access.get(f)
        values["name"] = "changed"
        values["border"].append(Surrogate("edge", 99))
        face_edge_access.get(f, attrs=["border"])["border"].clear()
        assert face_edge_access.get(f) == {
            "face_id": f, "square_dim": None, "name": "f", "border": [e]}

    def test_atom_type_scan(self, face_edge_access):
        from repro.access.scans import AtomTypeScan
        e = face_edge_access.insert("edge")
        f = face_edge_access.insert("face", {"name": "f", "border": [e]})
        for _s, values in face_edge_access.atoms.atoms_of_type("face"):
            values["border"].append(Surrogate("edge", 99))
            values["name"] = "changed"
        _s, values = AtomTypeScan(face_edge_access.atoms, "face").next()
        values["border"].clear()
        assert face_edge_access.get(f)["border"] == [e]
        assert face_edge_access.get(f)["name"] == "f"

    def test_in_process_molecule(self, brep_db):
        import repro
        db = brep_db.db
        query = "SELECT ALL FROM brep-face-edge-point LIMIT 2"
        expected = [m.to_dict() for m in db.query(query).materialize()]
        with repro.connect(db) as conn:
            for molecules in (db.query(query).materialize(),
                              list(conn.query(query))):
                molecule = molecules[0]
                molecule.atom["brep_no"] = -1
                face = molecule.component_list("face")[0]
                face.atom["border"].clear()
                point = face.component_list("edge")[0] \
                    .component_list("point")[0]
                point.atom["placement"]["x_coord"] = -1.0
                assert [m.to_dict() for m in db.query(query).materialize()] \
                    == expected


class TestRecordsDecodedGate:
    """``records_decoded`` counts memo misses: at most one decode per atom
    per query over 4,096 single-atom ``item`` molecules."""

    N_ITEMS = 4096

    def _items(self, **options):
        from repro import Prima
        db = Prima(**options)
        db.execute("CREATE ATOM_TYPE item (item_id: IDENTIFIER, "
                   "n: INTEGER, grp: INTEGER) KEYS_ARE (n)")
        for i in range(self.N_ITEMS):
            db.insert_atom("item", {"n": i, "grp": i % 16})
        return db

    def _scan(self, db) -> dict:
        db.reset_accounting()
        assert len(db.query("SELECT ALL FROM item").materialize()) \
            == self.N_ITEMS
        return db.io_report()

    def test_first_scan_decodes_each_atom_once_and_a_repeat_none(self):
        db = self._items()
        first = self._scan(db)
        assert 0 < first["records_decoded"] <= self.N_ITEMS
        assert first["atoms_read"] == 2 * self.N_ITEMS
        assert self._scan(db).get("records_decoded", 0) == 0

    def test_small_buffer_decodes_only_what_it_missed(self):
        db = self._items(buffer_capacity=2 * 8192)
        container = db.access.atoms._container("item")  # noqa: SLF001
        pages = container.page_ids()
        assert len(pages) >= 16 * 2     # the buffer holds <= 1/16 of it
        per_page = 0
        for page_id in pages:
            with db.storage.page(page_id) as page:
                per_page = max(per_page, len(page.slots()))
        for _ in range(2):
            report = self._scan(db)
            assert report["misses"] > 0
            assert report["records_decoded"] <= report["misses"] * per_page


class TestConcurrentReaders:
    def test_readers_filling_a_cold_memo_agree(self, tmp_path):
        """Eight sessions read overlapping molecules while the memo fills
        (a reloaded checkpoint starts with none), with a tiny switch
        interval to interleave them inside the page reads."""
        import sys
        import threading

        import repro
        from repro import Prima
        from repro.persistence import load, save
        from repro.serve import SessionManager
        from repro.workloads import brep

        query = "SELECT ALL FROM brep-face-edge-point"
        db = Prima()
        brep.generate(db, n_solids=6)
        expected = db.query(query).to_dicts()
        save(db, tmp_path / "brep.prima")
        cold = load(tmp_path / "brep.prima")
        manager = SessionManager(cold, max_sessions=8)
        results, errors = [], []

        def reader(index: int) -> None:
            try:
                with repro.connect(manager, name=f"r{index}") as conn:
                    for _ in range(3):
                        results.append([m.to_dict() for m in conn.query(query)])
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, args=(i,))
                       for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(results) == 24
        assert all(result == expected for result in results)
        assert cold.query(query).to_dicts() == expected
