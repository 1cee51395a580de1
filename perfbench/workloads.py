"""The four workloads, each driven through the public client API.

Every workload builds its engine in :meth:`setup`, prepares statements
and makes one untimed pass in :meth:`warm`, then runs its schedule in
:meth:`measure`, checking every result against a model of the data the
benchmark generated.  :meth:`verify` runs after the clock stops and
compares a sample of results with a single in-process engine by digest.

In-process workloads use one client.  Concurrent in-process sessions
under eviction are a known crash (ROADMAP open item 3); that race
belongs to the oracle stress test, not to this benchmark.
"""

from __future__ import annotations

import bisect
import time
from collections import defaultdict
from typing import Any

import repro
from repro import Prima, ShardedCluster
from repro.serve import PrimaDaemon, SessionManager
from repro.workloads import brep

from perfbench import inputs as gen
from perfbench.inputs import Inputs
from perfbench.measure import Recorder, WrongResult

ITEM_DDL = (
    "CREATE ATOM_TYPE item (item_id: IDENTIFIER, k: INTEGER, grp: INTEGER, "
    "n: INTEGER, pad: CHAR_VAR) KEYS_ARE (k)"
)
ITEM_PATHS = "CREATE ACCESS PATH item_grp ON item (grp); CREATE ACCESS PATH item_n ON item (n)"
INSERT_ITEM = "INSERT item (k = ?, grp = ?, n = ?, pad = ?)"
LOOKUP_ITEM = "SELECT ALL FROM item WHERE k = ?"
SELECT_GROUP = "SELECT ALL FROM item WHERE grp = ?"
SELECT_GROUPS = "SELECT ALL FROM item WHERE grp >= ? AND grp < ?"
TOPK_BY_GROUP = "SELECT ALL FROM item WHERE grp < ? ORDER BY n DESC LIMIT 8"
TOPK_BY_N = "SELECT ALL FROM item WHERE n < ? ORDER BY n DESC LIMIT 8"
MODIFY_ITEM = "MODIFY item SET n = ? FROM item WHERE k = ?"
DELETE_ITEM = "DELETE ALL FROM item WHERE k = ?"

LOOKUP_BREP = "SELECT ALL FROM brep_obj WHERE brep_no = ?"
LOOKUP_PIECES = "SELECT ALL FROM piece_list WHERE solid_no = ?"
SELECT_BREPS = "SELECT ALL FROM brep-face-edge-point WHERE brep_no >= ? AND brep_no < ?"
TOPK_FACES = (
    "SELECT ALL FROM face-edge-point WHERE square_dim <= ? ORDER BY square_dim DESC LIMIT 8"
)

#: Engines of the ``shard-scatter`` cluster.
SHARDS = 4
#: Molecules per FETCH of the in-process cursors over single-atom rows.
FETCH_SIZE = 16
#: BREP molecules (27 atoms each) are fetched one at a time: the paper's
#: one-molecule-at-a-time interface, and ``set_first`` sees one molecule.
BREP_FETCH_SIZE = 1


def drain(result: Any) -> tuple[list, None]:
    """All molecules of a result set, then close it (an exhausted but
    unclosed cursor stays registered with its session)."""
    try:
        return result.materialize(), None
    finally:
        result.close()


def drain_first(result: Any) -> tuple[list, float]:
    """Like :func:`drain`, also noting when the first molecule was in hand."""
    try:
        result.fetch_next()
        first_at = time.perf_counter()
        return result.materialize(), first_at
    finally:
        result.close()


def drain_cursor(cursor: Any) -> tuple[list, float]:
    """:func:`drain_first` for a bare remote cursor (a checkout stream)."""
    try:
        molecules = []
        molecule = cursor.next()
        first_at = time.perf_counter()
        while molecule is not None:
            molecules.append(molecule)
            molecule = cursor.next()
        return molecules, first_at
    finally:
        cursor.close()


def load_items(db: Any, rows: list[tuple]) -> None:
    db.execute(ITEM_DDL)
    insert = db.prepare(INSERT_ITEM)
    for row in rows:
        insert.execute(*row)
    db.execute_ldl(ITEM_PATHS)
    db.commit()


def item_row(molecule: Any) -> tuple:
    atom = molecule.atom
    return (atom["k"], atom["grp"], atom["n"], atom["pad"])


def result_digest(molecules: list) -> str:
    """Digest of item results with surrogates left out, so that a
    cluster and a single engine holding the same rows agree."""
    return gen.digest(sorted(item_row(molecule) for molecule in molecules))


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise WrongResult(message)


class ItemModel:
    """The expected content of the ``item`` relation."""

    def __init__(self, rows: list[tuple]) -> None:
        self.rows = {k: (grp, n, pad) for k, grp, n, pad in rows}
        self.groups: dict[int, set[int]] = defaultdict(set)
        for k, grp, _n, _pad in rows:
            self.groups[grp].add(k)
        self.by_n = {n: k for k, (_grp, n, _pad) in self.rows.items()}
        self.sorted_n = sorted(self.by_n)

    def full_rows(self) -> list[tuple]:
        return [(k, *self.rows[k]) for k in sorted(self.rows)]

    def check_key(self, k: int, molecules: list) -> None:
        expect(len(molecules) == 1, f"k={k}: {len(molecules)} molecules")
        expect(item_row(molecules[0]) == (k, *self.rows[k]), f"k={k}: wrong values")

    def check_groups(self, low: int, high: int, molecules: list) -> None:
        keys = set().union(*(self.groups[g] for g in range(low, high)))
        expect(len(molecules) == len(keys), f"grp [{low},{high}): {len(molecules)} != {len(keys)}")
        for molecule in molecules:
            row = item_row(molecule)
            expect(row[0] in keys and row == (row[0], *self.rows[row[0]]), f"row {row[0]}")

    def check_top(self, expected_keys: list[int], molecules: list) -> None:
        got = [item_row(molecule) for molecule in molecules]
        want = [(k, *self.rows[k]) for k in expected_keys]
        expect(got == want, f"top-k {[row[0] for row in got]} != {expected_keys}")

    def top_by_group(self, bound: int) -> list[int]:
        keys = set().union(*(self.groups[g] for g in range(bound)))
        return sorted(keys, key=lambda k: self.rows[k][1], reverse=True)[:8]

    def top_below(self, bound: int) -> list[int]:
        stop = bisect.bisect_left(self.sorted_n, bound)
        return [self.by_n[n] for n in reversed(self.sorted_n[max(stop - 8, 0) : stop])]

    def modified(self, result: Any, k: int, n: int) -> None:
        expect(result.affected == 1, f"MODIFY k={k} affected {result.affected}")
        self.modify(k, n)

    def inserted(self, result: Any, k: int, grp: int, n: int, pad: str) -> None:
        expect(result.inserted is not None, f"INSERT k={k} returned no surrogate")
        self.insert(k, grp, n, pad)

    def deleted(self, result: Any, k: int) -> None:
        expect(result.affected == 1, f"DELETE k={k} affected {result.affected}")
        grp, n, _pad = self.rows.pop(k)
        self.groups[grp].discard(k)
        del self.by_n[n]
        self.sorted_n.pop(bisect.bisect_left(self.sorted_n, n))

    def modify(self, k: int, n: int) -> None:
        grp, old, pad = self.rows[k]
        self.rows[k] = (grp, n, pad)
        del self.by_n[old]
        self.sorted_n.pop(bisect.bisect_left(self.sorted_n, old))
        self.by_n[n] = k
        bisect.insort(self.sorted_n, n)

    def insert(self, k: int, grp: int, n: int, pad: str) -> None:
        self.rows[k] = (grp, n, pad)
        self.groups[grp].add(k)
        self.by_n[n] = k
        bisect.insort(self.sorted_n, n)


class Env:
    """One set-up engine, its client connections and the schedule position."""

    def __init__(self, db: Any, conn: Any, model: Any = None) -> None:
        self.db = db
        self.conn = conn
        self.model = model
        self.position = 0
        self.statements: dict[str, Any] = {}
        #: Daemon workload only: the server, connection B, B's schedule
        #: position and the surrogates of the keys B checks in.
        self.daemon: Any = None
        self.peer: Any = None
        self.cycle = 0
        self.surrogates: dict[int, Any] = {}


class Workload:
    """A closed loop over blocks of a seeded schedule (one client)."""

    name = ""
    #: Upper bound on blocks a run can use, per second of measurement.
    blocks_per_second = 0

    def generate(self, seed: int, seconds: float) -> Inputs:
        raise NotImplementedError

    def setup(self, inputs: Inputs) -> Env:
        raise NotImplementedError

    def warm(self, env: Env, inputs: Inputs) -> None:
        raise NotImplementedError

    def run_op(self, env: Env, op: tuple, rec: Recorder) -> None:
        raise NotImplementedError

    def verify(self, env: Env, inputs: Inputs) -> list[str]:
        return []

    def teardown(self, env: Env) -> None:
        env.conn.close()
        env.db.close()

    def max_blocks(self, seconds: float) -> int:
        return int(seconds * self.blocks_per_second) + 2

    def measure(self, env: Env, inputs: Inputs, rec: Recorder, seconds: float) -> bool:
        """Run whole blocks until ``seconds`` have passed; False when the
        schedule ran out first."""
        deadline = time.perf_counter() + seconds
        speed = rec.speed
        while env.position < len(inputs.blocks):
            for op in inputs.blocks[env.position]:
                if speed is not None:
                    speed.maybe_sample()
                self.run_op(env, op, rec)
            env.position += 1
            if time.perf_counter() >= deadline:
                return True
        return False


def warm_pass(workload: Workload, env: Env, inputs: Inputs) -> None:
    """Run the schedule's first block untimed; its results are checked too."""
    rec = Recorder()
    workload.measure(env, inputs, rec, 0.0)
    expect(not rec.wrong and not rec.failed, f"warm-up: {rec.wrong} {dict(rec.failures)}")


class ItemWorkload(Workload):
    """Shared by the closed-loop ``item`` workloads."""

    #: The TopK statement; :meth:`expected_top` gives its answer.
    topk_query = ""

    def expected_top(self, model: ItemModel, bound: int) -> list[int]:
        raise NotImplementedError

    def run_op(self, env: Env, op: tuple, rec: Recorder) -> None:
        conn, model = env.conn, env.model
        kind, *args = op
        if kind == "point":
            k = args[0]
            lookup = env.statements["lookup"]
            rec.run(
                "point",
                lambda: drain(lookup.execute(k, fetch_size=FETCH_SIZE)),
                lambda mols: model.check_key(k, mols),
            )
        elif kind == "sel1":
            group = args[0]
            rec.run(
                "set",
                lambda: drain_first(conn.query(SELECT_GROUP, FETCH_SIZE, args=(group,))),
                lambda mols: model.check_groups(group, group + 1, mols),
            )
        elif kind == "sel10":
            low = args[0]
            rec.run(
                "set",
                lambda: drain_first(conn.query(SELECT_GROUPS, FETCH_SIZE, args=(low, low + 10))),
                lambda mols: model.check_groups(low, low + 10, mols),
            )
        elif kind == "topk":
            bound = args[0]
            rec.run(
                "topk",
                lambda: drain(conn.query(self.topk_query, FETCH_SIZE, args=(bound,))),
                lambda mols: model.check_top(self.expected_top(model, bound), mols),
            )
        elif kind == "modify":
            k, n = args
            rec.run(
                "write",
                lambda: (conn.execute(MODIFY_ITEM, n, k), None),
                lambda result: model.modified(result, k, n),
            )
        elif kind == "insert":
            rec.run(
                "write",
                lambda: (conn.execute(INSERT_ITEM, *args), None),
                lambda result: model.inserted(result, *args),
            )
        else:
            k = args[0]
            rec.run(
                "write",
                lambda: (conn.execute(DELETE_ITEM, k), None),
                lambda result: model.deleted(result, k),
            )

    def warm(self, env: Env, inputs: Inputs) -> None:
        env.statements["lookup"] = env.conn.prepare(LOOKUP_ITEM)
        rows, _ = drain(env.conn.query(SELECT_GROUPS, FETCH_SIZE, args=(0, 10)))
        env.model.check_groups(0, 10, rows)
        warm_pass(self, env, inputs)


class WiscMixed(ItemWorkload):
    name = "wisc-mixed"
    topk_query = TOPK_BY_GROUP
    blocks_per_second = 10

    def __init__(self, items: int = 16_000, buffer_pages: int = 32) -> None:
        self.items = items
        #: 32 pages of 8 KB: under 1/8 of the ~263 pages 16k items occupy.
        self.buffer_bytes = buffer_pages * 8192

    def generate(self, seed: int, seconds: float) -> Inputs:
        return gen.wisc_inputs(seed, self.items, self.max_blocks(seconds))

    def setup(self, inputs: Inputs) -> Env:
        db = Prima(buffer_capacity=self.buffer_bytes)
        load_items(db, inputs.rows)
        return Env(db, repro.connect(db), ItemModel(inputs.rows))

    def expected_top(self, model: ItemModel, bound: int) -> list[int]:
        return model.top_by_group(bound)


class ShardScatter(ItemWorkload):
    name = "shard-scatter"
    topk_query = TOPK_BY_N
    blocks_per_second = 60

    def __init__(self, items: int = 4_000) -> None:
        self.items = items

    def generate(self, seed: int, seconds: float) -> Inputs:
        return gen.shard_inputs(seed, self.items, self.max_blocks(seconds))

    def setup(self, inputs: Inputs) -> Env:
        cluster = ShardedCluster(shards=SHARDS)
        load_items(cluster, inputs.rows)
        return Env(cluster, repro.connect(cluster), ItemModel(inputs.rows))

    def expected_top(self, model: ItemModel, bound: int) -> list[int]:
        return model.top_below(bound)

    def verify(self, env: Env, inputs: Inputs) -> list[str]:
        """A single engine loaded with the model's final rows must give the
        cluster's answers, digest for digest."""
        reference = Prima()
        load_items(reference, env.model.full_rows())
        try:
            with repro.connect(reference) as single:
                return compare_digests(env.conn, single, sample_queries(inputs))
        finally:
            reference.close()


def sample_queries(inputs: Inputs) -> list[tuple[str, tuple]]:
    """A fixed sample of item queries derived from the seed."""
    rows = inputs.rows
    queries = [(LOOKUP_ITEM, (rows[i][0],)) for i in range(0, len(rows), len(rows) // 8)]
    queries += [(SELECT_GROUP, (g,)) for g in (0, 37, 99)]
    queries += [(SELECT_GROUPS, (lo, lo + 10)) for lo in (0, 45)]
    queries += [(TOPK_BY_GROUP, (b,)) for b in (1, 3)]
    queries += [(TOPK_BY_N, (rows[i][2],)) for i in (1, len(rows) // 2)]
    return queries


def compare_digests(conn: Any, reference: Any, queries: list[tuple[str, tuple]]) -> list[str]:
    wrong = []
    for text, args in queries:
        got, _ = drain(conn.query(text, None, args=args))
        want, _ = drain(reference.query(text, None, args=args))
        if result_digest(got) != result_digest(want):
            wrong.append(f"digest mismatch: {text} {args}")
    return wrong


class BrepCheckout(Workload):
    name = "brep-checkout"
    blocks_per_second = 25

    def __init__(self, solids: int = gen.BREP_SOLIDS) -> None:
        self.solids = solids

    def generate(self, seed: int, seconds: float) -> Inputs:
        return gen.brep_inputs(seed, self.solids, self.max_blocks(seconds))

    def setup(self, inputs: Inputs) -> Env:
        db = Prima()
        brep.generate(db, n_solids=self.solids, seed=inputs.extra["generator_seed"])
        return Env(db, repro.connect(db), BrepModel())

    def warm(self, env: Env, inputs: Inputs) -> None:
        conn, model = env.conn, env.model
        env.statements["lookup"] = conn.prepare(LOOKUP_BREP)
        env.statements["pieces"] = conn.prepare(LOOKUP_PIECES)
        solids, _ = drain(conn.query("SELECT ALL FROM solid", FETCH_SIZE))
        model.learn_assemblies(solids, self.solids)
        faces, _ = drain(conn.query("SELECT ALL FROM face", FETCH_SIZE))
        model.square_dims = sorted((face.atom["square_dim"] for face in faces), reverse=True)
        expect(len(faces) == 6 * self.solids, f"{len(faces)} faces")
        for index in range(self.solids):
            molecules, _ = drain(env.statements["lookup"].execute(gen.FIRST_BREP_NO + index))
            model.learn_brep(index, molecules)
        warm_pass(self, env, inputs)

    def run_op(self, env: Env, op: tuple, rec: Recorder) -> None:
        conn, model = env.conn, env.model
        kind = op[0]
        if kind == "point":
            brep_no = gen.FIRST_BREP_NO + op[1]
            lookup = env.statements["lookup"]
            rec.run(
                "point",
                lambda: drain(lookup.execute(brep_no, fetch_size=FETCH_SIZE)),
                lambda mols: model.check_breps([brep_no], mols),
            )
        elif kind == "recursive":
            solid_no = model.piece_root(op[1], op[2])
            pieces = env.statements["pieces"]
            rec.run(
                "recursive",
                lambda: drain(pieces.execute(solid_no, fetch_size=FETCH_SIZE)),
                lambda mols: model.check_pieces(solid_no, mols),
            )
        elif kind == "range":
            low = gen.FIRST_BREP_NO + op[1]
            rec.run(
                "set",
                lambda: drain_first(
                    conn.query(SELECT_BREPS, BREP_FETCH_SIZE, args=(low, low + gen.BREP_RANGE))
                ),
                lambda mols: model.check_breps(range(low, low + gen.BREP_RANGE), mols),
            )
        elif kind == "topk":
            bound = model.face_bound(op[1])
            rec.run(
                "topk",
                lambda: drain(conn.query(TOPK_FACES, FETCH_SIZE, args=(bound,))),
                lambda mols: model.check_faces(bound, mols),
            )
        else:
            point = model.points[op[1]][op[2]]
            placement = dict(zip(("x_coord", "y_coord", "z_coord"), op[3]))
            rec.run(
                "write",
                lambda: (conn.checkin({point: {"placement": placement}}), None),
                lambda mapping: model.checked_in(point, placement, mapping),
            )


def _atoms(molecule: Any) -> dict[str, dict]:
    """Distinct atoms of a molecule: atom type -> {surrogate: values}."""
    found: dict[str, dict] = defaultdict(dict)

    def visit(node: Any) -> None:
        found[node.node.atom_type][node.surrogate] = node.atom
        for components in node.components.values():
            for component in components:
                visit(component)

    visit(molecule)
    return found


class BrepModel:
    """What the BREP generator guarantees, plus the placements checked in."""

    def __init__(self) -> None:
        self.points: list[list] = []
        self.placements: dict[Any, dict] = {}
        self.piece_sizes: dict[int, int] = {}
        self.pieces_by_size: dict[int, list[int]] = defaultdict(list)
        self.square_dims: list[float] = []

    def learn_assemblies(self, solids: list, primitives: int) -> None:
        """Subtree sizes of the assembly forest, from the flat solid set."""
        number = {molecule.atom["solid_id"]: molecule.atom["solid_no"] for molecule in solids}
        subs = {
            molecule.atom["solid_no"]: [number[s] for s in molecule.atom["sub"] or []]
            for molecule in solids
        }
        expect(len(solids) == 2 * primitives - 1, f"{len(solids)} solids")
        expect(sum(1 for parts in subs.values() if not parts) == primitives, "primitives")

        def size(solid_no: int) -> int:
            if solid_no not in self.piece_sizes:
                self.piece_sizes[solid_no] = 1 + sum(size(part) for part in subs[solid_no])
            return self.piece_sizes[solid_no]

        for solid_no in sorted(subs):
            self.pieces_by_size[size(solid_no)].append(solid_no)

    def piece_root(self, size: int, pick: int) -> int:
        roots = self.pieces_by_size[size]
        return roots[pick % len(roots)]

    def learn_brep(self, index: int, molecules: list) -> None:
        self.check_breps([gen.FIRST_BREP_NO + index], molecules, placements=False)
        points = {point: atom["placement"] for point, atom in _atoms(molecules[0])["point"].items()}
        self.points.append(sorted(points, key=lambda point: point.number))
        self.placements.update(points)

    def check_breps(self, brep_nos: Any, molecules: list, placements: bool = True) -> None:
        wanted = list(brep_nos)
        got = sorted(molecule.atom["brep_no"] for molecule in molecules)
        expect(got == wanted, f"breps {got[:4]}... != {wanted[:4]}...")
        for molecule in molecules:
            atoms = _atoms(molecule)
            counts = (len(atoms["face"]), len(atoms["edge"]), len(atoms["point"]))
            expect(counts == (6, 12, 8), f"brep {molecule.atom['brep_no']}: {counts}")
            if placements:
                for point, atom in atoms["point"].items():
                    expect(atom["placement"] == self.placements[point], f"{point} placement")

    def check_pieces(self, solid_no: int, molecules: list) -> None:
        expect(len(molecules) == 1, f"piece_list {solid_no}: {len(molecules)} molecules")
        molecule = molecules[0]
        expect(molecule.atom["solid_no"] == solid_no, f"piece_list {solid_no}: wrong root")
        expected = self.piece_sizes[solid_no]
        expect(molecule.atom_count() == expected, f"piece_list {solid_no}: size != {expected}")

    def face_bound(self, share: float) -> float:
        """The face size below which ``share`` of all faces lie, so every
        TopK constructs about the same number of face molecules."""
        ascending = self.square_dims[::-1]
        return ascending[round(share * (len(ascending) - 1))]

    def check_faces(self, bound: float, molecules: list) -> None:
        want = [dim for dim in self.square_dims if dim <= bound][:8]
        got = [molecule.atom["square_dim"] for molecule in molecules]
        expect(got == want, f"top faces <= {bound}: {got} != {want}")
        for molecule in molecules:
            atoms = _atoms(molecule)
            expect((len(atoms["edge"]), len(atoms["point"])) == (4, 4), "face molecule")

    def checked_in(self, point: Any, placement: dict, mapping: Any) -> None:
        expect(mapping == {}, f"checkin returned {mapping}")
        self.placements[point] = placement


class DaemonServe(Workload):
    """A closed loop over two socket connections to one daemon.

    Connection A looks keys up; connection B checks out 10% of the
    relation as a whole set, checks single atoms in and runs TopKs.  One
    thread drives both, so the daemon serves one request at a time and
    the process never idles: on a shared host a thread woken from an
    idle CPU starts late by a varying amount, and an open loop timed from
    due times spread run to run by more than the benchmark's bounds.
    """

    name = "daemon-serve"
    blocks_per_second = 40

    def __init__(self, items: int = 2_000) -> None:
        self.items = items

    def generate(self, seed: int, seconds: float) -> Inputs:
        return gen.daemon_inputs(seed, self.items, self.max_blocks(seconds))

    def setup(self, inputs: Inputs) -> Env:
        db = Prima()
        load_items(db, inputs.rows)
        daemon = PrimaDaemon(SessionManager(db)).start()
        env = Env(db, repro.connect(daemon), ItemModel(inputs.rows))
        env.daemon = daemon
        env.peer = repro.connect(daemon)
        return env

    def teardown(self, env: Env) -> None:
        env.conn.close()
        env.peer.close()
        env.daemon.stop()
        env.db.close()

    def warm(self, env: Env, inputs: Inputs) -> None:
        model = env.model
        env.statements["lookup"] = env.conn.prepare(LOOKUP_ITEM)
        rows, _ = drain(env.peer.query("SELECT ALL FROM item", None))
        expect(sorted(map(item_row, rows)) == model.full_rows(), "loaded rows differ")
        env.surrogates = {molecule.atom["k"]: molecule.atom["item_id"] for molecule in rows}
        warm_pass(self, env, inputs)

    def run_op(self, env: Env, op: tuple, rec: Recorder) -> None:
        conn, peer, model = env.conn, env.peer, env.model
        kind, *args = op
        if kind == "point":
            k = args[0]
            lookup = env.statements["lookup"]
            rec.run(
                "point",
                lambda: drain(lookup.execute(k, fetch_size=FETCH_SIZE)),
                lambda mols: model.check_key(k, mols),
                session=conn.name,
            )
        elif kind == "checkout":
            low = args[0]
            rec.run(
                "set",
                lambda: drain_cursor(peer.checkout(SELECT_GROUPS, None, args=(low, low + 10))),
                lambda mols: model.check_groups(low, low + 10, mols),
                session=peer.name,
            )
        elif kind == "checkin":
            k, n = args
            changes = {env.surrogates[k]: {"n": n}}
            rec.run(
                "write",
                lambda: (peer.checkin(changes), None),
                lambda mapping: self._checked_in(model, mapping, k, n),
                session=peer.name,
            )
        else:
            bound = args[0]
            rec.run(
                "topk",
                lambda: drain(peer.query(TOPK_BY_GROUP, None, args=(bound,))),
                lambda mols: model.check_top(model.top_by_group(bound), mols),
                session=peer.name,
            )

    @staticmethod
    def _checked_in(model: ItemModel, mapping: Any, k: int, n: int) -> None:
        expect(mapping == {}, f"checkin returned {mapping}")
        model.modify(k, n)

    def verify(self, env: Env, inputs: Inputs) -> list[str]:
        """The daemon's answers must equal an in-process connection's."""
        with repro.connect(env.db) as local:
            return compare_digests(env.conn, local, sample_queries(inputs))


WORKLOADS = {
    workload.name: workload
    for workload in (BrepCheckout(), WiscMixed(), DaemonServe(), ShardScatter())
}
