"""Seeded inputs for every workload.

All rows and the whole operation schedule are generated here, from the
``--seed`` argument alone, before set-up and timing start; the program
under test only ever receives these values.  :func:`digest` fingerprints
them so two runs can be shown to use identical inputs.

Closed-loop schedules come in *blocks*: each block holds a fixed number
of operations of every kind, shuffled.  The run stops at a block
boundary, so the operation mix of a run is exact whatever its length.
"""

from __future__ import annotations

import hashlib
import random
import string
from dataclasses import dataclass, field
from typing import Any

#: Groups of the Wisconsin-style ``grp`` attribute: ``grp = ?`` selects 1%.
GROUPS = 100
#: Domain of the ``n`` attribute; every value handed out is distinct, so
#: ``ORDER BY n`` has no ties.
N_SPACE = 10_000_000
PAD_LEN = 40

#: BREP solids of ``brep-checkout`` and the first brep number the
#: generator plants (Table 2.1's ``brep_no = 1713``).
BREP_SOLIDS = 64
FIRST_BREP_NO = 1713
#: Solids per ``brep-face-edge-point`` range query.
BREP_RANGE = 8
#: ``piece_list`` subtree sizes drawn once per block (assemblies of 2, 4,
#: 8 and 16 boxes); the single 32- and 64-box assemblies are left out.
PIECE_SIZES = (3, 7, 15, 31)

#: Operations per block, by kind.
#: ``wisc-mixed`` writes are 20%: each block deletes the keys the block
#: before it inserted, so the relation holds the same number of rows at
#: every block boundary whatever the run's speed.
WISC_BLOCK = {
    "point": 72,
    "modify": 6,
    "insert": 7,
    "delete": 7,
    "sel1": 4,
    "sel10": 1,
    "topk": 3,
}
BREP_BLOCK = {"point": 30, "recursive": len(PIECE_SIZES), "range": 3, "topk": 1, "checkin": 10}
SHARD_BLOCK = {"point": 28, "sel1": 5, "topk": 3, "modify": 4}
DAEMON_BLOCK = {"point": 30, "checkout": 1, "checkin": 8, "topk": 3}


@dataclass
class Inputs:
    """One workload's generated inputs."""

    seed: int
    rows: list[tuple] = field(default_factory=list)
    blocks: list[list[tuple]] = field(default_factory=list)
    extra: dict[str, Any] = field(default_factory=dict)

    def digest(self) -> str:
        return digest((self.seed, self.rows, self.blocks, sorted(self.extra.items())))


def digest(value: Any) -> str:
    """A short, stable fingerprint of generated inputs."""
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _pad(rng: random.Random) -> str:
    return "".join(rng.choices(string.ascii_lowercase, k=PAD_LEN))


def item_rows(rng: random.Random, count: int, spare: int) -> tuple[list[tuple], list[int]]:
    """``count`` rows ``(k, grp, n, pad)`` plus ``spare`` unused ``n`` values.

    ``grp`` is a shuffled ``k % GROUPS``, so every group holds exactly
    ``count / GROUPS`` rows when ``count`` is a multiple of ``GROUPS``.
    """
    groups = [k % GROUPS for k in range(count)]
    rng.shuffle(groups)
    values = rng.sample(range(N_SPACE), count + spare)
    rows = [(k, groups[k], values[k], _pad(rng)) for k in range(count)]
    return rows, values[count:]


def _blocks(rng: random.Random, count: int, make_block) -> list[list[tuple]]:
    blocks = []
    for _ in range(count):
        block = make_block()
        rng.shuffle(block)
        blocks.append(block)
    return blocks


def wisc_inputs(seed: int, items: int, max_blocks: int) -> Inputs:
    """The loaded rows' last ``WISC_BLOCK["insert"]`` keys stand for the
    inserts of the block before the first; lookups and MODIFYs use the
    other keys only, which are never deleted."""
    rng = random.Random(seed)
    churn = WISC_BLOCK["insert"]
    writes = max_blocks * (WISC_BLOCK["modify"] + churn)
    rows, spare = item_rows(rng, items, writes)
    fresh = iter(spare)
    stable = items - churn
    previous = list(range(stable, items))
    next_key = iter(range(items, items + max_blocks * churn))

    def block() -> list[tuple]:
        nonlocal previous
        inserted = [next(next_key) for _ in range(churn)]
        ops = [("point", rng.randrange(stable)) for _ in range(WISC_BLOCK["point"])]
        ops += [("modify", rng.randrange(stable), next(fresh)) for _ in range(WISC_BLOCK["modify"])]
        ops += [("insert", k, rng.randrange(GROUPS), next(fresh), _pad(rng)) for k in inserted]
        ops += [("delete", k) for k in previous]
        previous = inserted
        ops += [("sel1", rng.randrange(GROUPS)) for _ in range(WISC_BLOCK["sel1"])]
        ops += [("sel10", rng.randrange(GROUPS - 10 + 1)) for _ in range(WISC_BLOCK["sel10"])]
        ops += [("topk", bound) for bound in range(1, WISC_BLOCK["topk"] + 1)]
        return ops

    return Inputs(seed, rows, _blocks(rng, max_blocks, block))


def shard_inputs(seed: int, items: int, max_blocks: int) -> Inputs:
    rng = random.Random(seed)
    rows, spare = item_rows(rng, items, max_blocks * SHARD_BLOCK["modify"])
    fresh = iter(spare)

    def block() -> list[tuple]:
        ops = [("point", rng.randrange(items)) for _ in range(SHARD_BLOCK["point"])]
        ops += [("sel1", rng.randrange(GROUPS)) for _ in range(SHARD_BLOCK["sel1"])]
        ops += [("topk", rng.randrange(N_SPACE)) for _ in range(SHARD_BLOCK["topk"])]
        ops += [("modify", rng.randrange(items), next(fresh)) for _ in range(SHARD_BLOCK["modify"])]
        return ops

    return Inputs(seed, rows, _blocks(rng, max_blocks, block))


def brep_inputs(seed: int, solids: int, max_blocks: int) -> Inputs:
    """The BREP database of ``solids`` boxes comes from
    ``repro.workloads.brep.generate`` with a generator seed drawn here;
    the schedule names breps by index."""
    rng = random.Random(seed)
    generator_seed = rng.randrange(2**31)

    def block() -> list[tuple]:
        ops = [("point", rng.randrange(solids)) for _ in range(BREP_BLOCK["point"])]
        ops += [("recursive", size, rng.randrange(1 << 16)) for size in PIECE_SIZES]
        ops += [
            ("range", rng.randrange(solids - BREP_RANGE + 1))
            for _ in range(BREP_BLOCK["range"])
        ]
        ops += [("topk", round(rng.uniform(0.4, 0.6), 3)) for _ in range(BREP_BLOCK["topk"])]
        ops += [
            (
                "checkin",
                rng.randrange(solids),
                rng.randrange(8),
                tuple(round(rng.uniform(0.0, 100.0), 3) for _ in range(3)),
            )
            for _ in range(BREP_BLOCK["checkin"])
        ]
        return ops

    blocks = _blocks(rng, max_blocks, block)
    return Inputs(seed, blocks=blocks, extra={"generator_seed": generator_seed})


def daemon_inputs(seed: int, items: int, max_blocks: int) -> Inputs:
    """Connection A's lookups of even keys; connection B's 10% checkouts,
    checkins of odd keys and TopKs.

    B writes only odd keys and A reads only even ones, so every lookup
    has exactly one right answer.
    """
    rng = random.Random(seed)
    rows, spare = item_rows(rng, items, max_blocks * DAEMON_BLOCK["checkin"])
    fresh = iter(spare)

    def block() -> list[tuple]:
        ops = [("point", 2 * rng.randrange(items // 2)) for _ in range(DAEMON_BLOCK["point"])]
        ops += [
            ("checkout", rng.randrange(GROUPS - 10 + 1)) for _ in range(DAEMON_BLOCK["checkout"])
        ]
        ops += [
            ("checkin", 2 * rng.randrange(items // 2) + 1, next(fresh))
            for _ in range(DAEMON_BLOCK["checkin"])
        ]
        ops += [("topk", bound) for bound in range(1, DAEMON_BLOCK["topk"] + 1)]
        return ops

    return Inputs(seed, rows, _blocks(rng, max_blocks, block))
