"""The benchmark's three workloads: inputs, set-up, timed loop, checks.

Every input (keys, operations, arrival offsets, expected answers) is
made from the seed before anything is timed.  The program only sees the
generated calls; each answer is checked after its call's timer stops.

* ``lookup``: read-only point, batched and range reads on a bulk-loaded
  tree larger than its block cache.
* ``ingest``: 32-put write batches (half overwrites, half inserts) with
  interleaved gets, ending in a crash-style reopen.
* ``serve``: an open-loop request plan through the gateway over four
  replicated shards.
"""

from __future__ import annotations

import random
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import Gateway, GatewayConfig, IndexKind, LSMTree, Options, \
    ShardedDB, WriteBatch
from repro.lsm.options import Granularity
from repro.service.gateway import OUTCOME_OK, QUEUE_DELAY_OP, REQUEST_OP, \
    Request
from repro.service.replication import AckPolicy, ReplicationConfig
from repro.storage import stats as sc
from repro.storage.stats import Stage, Stats
from repro.workloads.datasets import generate
from repro.workloads.distributions import ScrambledZipfianPicker

import speed

clock = time.perf_counter_ns

#: On-disk entry size for every workload (20 B header + value slot).
ENTRY_BYTES = 256
VALUE_CAPACITY = ENTRY_BYTES - 20

#: A timed phase is cut into windows this long.  Each window's calls are
#: rescaled by the machine's speed during it (see ``speed.py``).  In a
#: time-bounded phase, throughput and median latency are also taken per
#: window and the median over windows is reported, so a few seconds of
#: contention move them less.
WINDOW_NS = 250_000_000

#: Simulated read stages reported per get (the paper's Table 1 rows).
GET_STAGES = (Stage.TABLE_LOOKUP, Stage.PREDICTION, Stage.IO, Stage.SEARCH)


def engine_options(**changes) -> Options:
    """256 B entries in 1 KiB data blocks (four per block, as in the paper)."""
    return Options(value_capacity=VALUE_CAPACITY,
                   data_block_bytes=4 * ENTRY_BYTES, **changes)


def loaded_value(key: int) -> bytes:
    """The value every bulk-loaded key starts with."""
    return b"v%x" % key


@dataclass
class Outcome:
    """What one timed phase did."""

    #: Wall time of every timed call, in call order.
    call_ns: List[int] = field(default_factory=list)
    #: Call wall times per call kind (for the human-readable lines).
    kind_ns: Dict[str, List[int]] = field(default_factory=dict)
    #: Operations done; a multi_get key and a batched put count as one.
    ops: int = 0
    #: Operations whose answer was wrong.
    failed: int = 0
    #: User puts acknowledged (the base of write amplification).
    puts: int = 0
    #: Point gets the benchmark made itself, and their simulated stages.
    gets: int = 0
    get_stage_us: Dict[Stage, float] = field(default_factory=dict)
    get_segments: float = 0.0
    #: Workload-specific read-outs (deterministic counts).
    extra: Dict[str, float] = field(default_factory=dict)
    #: ``(calls, ops)`` at the start of each window.
    marks: List[Tuple[int, int]] = field(default_factory=list)
    next_window_ns: int = 0
    #: ``(calls, reference loop ns)``: machine-speed samples between calls.
    pace: List[Tuple[int, int]] = field(default_factory=list)
    next_pace_ns: int = 0

    def record(self, kind: str, ns: int) -> None:
        self.call_ns.append(ns)
        self.kind_ns.setdefault(kind, []).append(ns)

    def keep_going(self, until_ns: Optional[int]) -> bool:
        """Called before each call: False once ``until_ns`` has passed.

        On the way it opens windows and samples the machine's speed.
        """
        now = clock()
        if until_ns is not None and now >= until_ns:
            return False
        if now >= self.next_window_ns:
            self.marks.append((len(self.call_ns), self.ops))
            self.next_window_ns = now + WINDOW_NS
            self.next_pace_ns = now
        if now >= self.next_pace_ns:
            self.pace.append((len(self.call_ns), speed.loop_ns()))
            self.next_pace_ns = clock() + speed.SAMPLE_EVERY_NS
        return True

    def slowdown(self) -> float:
        """The machine's slowdown over the whole phase."""
        return speed.slowdown([ns for _, ns in self.pace])

    def windows(self) -> List[Tuple[List[float], int]]:
        """Per window: call times rescaled to the reference speed, and ops."""
        bounds = self.marks + [(len(self.call_ns), self.ops)]
        out = []
        for (c0, o0), (c1, o1) in zip(bounds, bounds[1:]):
            if c1 == c0:
                continue
            slow = speed.slowdown([ns for c, ns in self.pace if c0 <= c < c1])
            out.append(([ns / slow for ns in self.call_ns[c0:c1]], o1 - o0))
        return out


def timed_get(db, key: int, outcome: Outcome) -> Optional[bytes]:
    """One timed ``get``, with its simulated stages read around the call."""
    stats = db.stats
    stages = [stats.stage_us.get(stage, 0.0) for stage in GET_STAGES]
    segments = stats.get(sc.SEGMENTS_FETCHED)
    start = clock()
    value = db.get(key)
    outcome.record("get", clock() - start)
    for stage, before in zip(GET_STAGES, stages):
        outcome.get_stage_us[stage] = (outcome.get_stage_us.get(stage, 0.0)
                                       + stats.stage_us.get(stage, 0.0)
                                       - before)
    outcome.get_segments += stats.get(sc.SEGMENTS_FETCHED) - segments
    outcome.gets += 1
    return value


def read_all(db, first_key: int, count: int) -> List[Tuple[int, bytes]]:
    """One scan over every entry: the warm-up pass and the reopen check.

    Tables verify each data block's checksum once per open table; a full
    pass fills that memo, so timed reads see the steady state instead of
    drifting as the memo fills.
    """
    return db.scan(first_key, count + 1)


class Lookup:
    """Read-only mix on a 200k-key ``books`` tree, 4 MiB block cache."""

    name = "lookup"
    n_keys = 200_000
    cache_bytes = 4 << 20
    multi_get_keys = 16
    scan_length = 50
    #: Pre-generated operations per measured second (a bound, not a target).
    ops_per_second_cap = 12_000
    #: Operations in the traced run.
    traced_ops = 12_000
    fixed_work = False
    #: Set-up plus timed phase this many times per untraced run.
    repeats = 2

    def __init__(self, seed: int, seconds: int, traced: bool) -> None:
        self.keys = generate("books", self.n_keys, seed)
        self.key_set = set(self.keys)
        self.options = engine_options(index_kind=IndexKind.PGM,
                                      granularity=Granularity.FILE,
                                      cache_bytes=self.cache_bytes)
        rng = random.Random(seed)
        keys = self.keys
        ops: List[Tuple[str, object]] = []
        n_ops = (self.traced_ops if traced
                 else seconds * self.ops_per_second_cap // self.repeats)
        for _ in range(n_ops):
            roll = rng.random()
            if roll < 0.8:
                if rng.random() < 0.1:
                    ops.append(("get", self._absent_key(rng)))
                else:
                    ops.append(("get", keys[rng.randrange(len(keys))]))
            elif roll < 0.9:
                batch = [keys[rng.randrange(len(keys))]
                         for _ in range(self.multi_get_keys)]
                ops.append(("multi_get", batch))
            else:
                ops.append(("scan", keys[rng.randrange(len(keys))]))
        self.ops = ops

    def _absent_key(self, rng: random.Random) -> int:
        while True:
            key = rng.randrange(self.keys[0], self.keys[-1])
            if key not in self.key_set:
                return key

    def sizes(self) -> Dict[str, object]:
        return {"keys": self.n_keys,
                "data_bytes": self.n_keys * ENTRY_BYTES,
                "cache_bytes": self.cache_bytes,
                "mix": "80% get (10% absent), 10% multi_get(16), "
                       "10% scan(50), uniform keys"}

    def setup(self):
        db = LSMTree(self.options)
        db.bulk_ingest(self.keys, value_for=loaded_value, seed=0)
        self._warm = read_all(db, self.keys[0], self.n_keys)
        return db

    def check_setup(self, db) -> bool:
        warm, self._warm = self._warm, None
        return (len(warm) == self.n_keys
                and all(k == e and v == loaded_value(k)
                        for (k, v), e in zip(warm, self.keys)))

    def stats_list(self, db) -> List[Stats]:
        return [db.stats]

    def expected(self, key: int) -> Optional[bytes]:
        return loaded_value(key) if key in self.key_set else None

    def run(self, db, until_ns: Optional[int]) -> Outcome:
        out = Outcome()
        keys = self.keys
        for kind, arg in self.ops:
            if not out.keep_going(until_ns):
                break
            if kind == "get":
                ok = timed_get(db, arg, out) == self.expected(arg)
                out.ops += 1
                out.failed += not ok
            elif kind == "multi_get":
                start = clock()
                values = db.multi_get(arg)
                out.record(kind, clock() - start)
                out.ops += len(arg)
                out.failed += sum(value != self.expected(key)
                                  for key, value in zip(arg, values))
            else:
                start = clock()
                rows = db.scan(arg, self.scan_length)
                out.record(kind, clock() - start)
                first = bisect_left(keys, arg)
                want = keys[first:first + self.scan_length]
                out.ops += 1
                out.failed += not (
                    [k for k, _ in rows] == want
                    and all(v == loaded_value(k) for k, v in rows))
        return out

    def finish(self, db, out: Outcome) -> None:
        """Nothing to do after the timed phase: the tree is read-only."""

    def release(self, db) -> None:
        db.close()


class Ingest:
    """32-put batches and gets on a 50k-key tree; level models; WAL on."""

    name = "ingest"
    n_loaded = 50_000
    batch_puts = 32
    #: Write batches per measured second, split over the repetitions.
    #: The work is fixed rather than time-bounded: the tree grows as the
    #: plan runs, so a time bound would hand a faster program a bigger
    #: tree and more compaction work per operation.
    batches_per_second = 210
    #: Below this, a repetition would not reach its first compaction.
    min_seconds = 10
    #: One get of a loaded key follows every this many batches.  With a
    #: third of the calls being gets, neither the median nor the 99th
    #: percentile of all calls sits on the edge between two kinds of
    #: call (plain writes, gets, flushing writes, compacting writes).
    batches_per_get = 2
    #: Every repetition runs the same plan, so their totals must agree.
    fixed_work = True
    repeats = 3

    def __init__(self, seed: int, seconds: int, traced: bool) -> None:
        n_batches = (max(seconds, self.min_seconds)
                     * self.batches_per_second // self.repeats)
        self.n_batches = n_batches
        n_new = n_batches * self.batch_puts // 2
        rng = random.Random(seed)
        # Loaded and inserted keys come from one books key set, so
        # inserts interleave with loaded keys the way the dataset does.
        universe = generate("books", self.n_loaded + n_new, seed)
        rng.shuffle(universe)
        self.loaded = sorted(universe[:self.n_loaded])
        fresh = iter(universe[self.n_loaded:])
        self.options = engine_options(
            index_kind=IndexKind.PGM, granularity=Granularity.LEVEL,
            enable_wal=True, write_buffer_bytes=256 << 10,
            sstable_bytes=512 << 10)
        # The plan and its oracle: batches, now and then a get.
        oracle = {key: loaded_value(key) for key in self.loaded}
        self.plan: List[Tuple[List[Tuple[int, bytes]], Optional[int],
                              Optional[bytes]]] = []
        for number in range(n_batches):
            puts = []
            for slot in range(self.batch_puts):
                key = (self.loaded[rng.randrange(self.n_loaded)]
                       if slot % 2 == 0 else next(fresh))
                value = b"b%d.%d:%x" % (number, slot, key)
                puts.append((key, value))
                oracle[key] = value
            if number % self.batches_per_get:
                probe = self.loaded[rng.randrange(self.n_loaded)]
                self.plan.append((puts, probe, oracle[probe]))
            else:
                self.plan.append((puts, None, None))
        self.final = sorted(oracle.items())

    def sizes(self) -> Dict[str, object]:
        return {"loaded_keys": self.n_loaded,
                "loaded_bytes": self.n_loaded * ENTRY_BYTES,
                "batches": self.n_batches,
                "puts": self.n_batches * self.batch_puts,
                "gets": self.n_batches // self.batches_per_get,
                "write_buffer_bytes": self.options.write_buffer_bytes,
                "sstable_bytes": self.options.sstable_bytes,
                "cache_bytes": 0}

    def setup(self):
        db = LSMTree(self.options)
        db.bulk_ingest(self.loaded, value_for=loaded_value, seed=0)
        return db

    def check_setup(self, db) -> bool:
        return db.entry_count() == self.n_loaded

    def stats_list(self, db) -> List[Stats]:
        return [db.stats]

    def run(self, db, until_ns: Optional[int]) -> Outcome:
        """Runs the whole plan; ``until_ns`` does not apply (fixed work)."""
        out = Outcome()
        for puts, probe, want in self.plan:
            out.keep_going(None)
            batch = WriteBatch()
            for key, value in puts:
                batch.put(key, value)
            start = clock()
            db.write(batch)
            out.record("write", clock() - start)
            out.ops += len(puts)
            out.puts += len(puts)
            if probe is not None:
                out.failed += timed_get(db, probe, out) != want
                out.ops += 1
        return out

    def finish(self, db, out: Outcome) -> None:
        """Crash-style reopen: every acked put must read back, nothing else.

        The old tree is abandoned, not closed: ``LSMTree.close`` deletes
        the table files, so a close-then-reopen cannot recover.
        """
        reopened = LSMTree.reopen(self.options, db.device)
        got = read_all(reopened, self.final[0][0], len(self.final))
        reopened.close()
        found = dict(got)
        out.failed += sum(found.get(key) != value for key, value in self.final)
        out.failed += max(0, len(got) - len(self.final))

    def release(self, db) -> None:
        """Nothing to release: the crashed tree is simply dropped."""


class Serve:
    """Open-loop gets and puts through the gateway: 4 shards x 3 replicas."""

    name = "serve"
    n_keys = 100_000
    shards = 4
    replicas = 3
    #: Per-tree block cache: about two thirds of one shard's data, enough
    #: for the Zipfian hot set.
    cache_bytes = 4 << 20
    #: Requests per gateway run, in random order.  Arrivals inside a run
    #: are Poisson at ``rate_per_s``; a run ends at its first heartbeat
    #: (5 ms of virtual time), so the plan offers ``slice_requests`` per
    #: heartbeat.  A fixed number of puts per run keeps the runs alike,
    #: so the tail of their wall times is steadier.
    slice_requests = 32
    slice_puts = 3
    rate_per_s = 40_000.0
    deadline_us = 20_000.0
    slices_per_second_cap = 800
    traced_slices = 600
    fixed_work = False
    repeats = 2

    def __init__(self, seed: int, seconds: int, traced: bool) -> None:
        self.keys = generate("fb", self.n_keys, seed)
        self.options = engine_options(index_kind=IndexKind.RS,
                                      granularity=Granularity.FILE,
                                      cache_bytes=self.cache_bytes)
        self.replication = ReplicationConfig(
            replication_factor=self.replicas, ack=AckPolicy.QUORUM)
        rng = random.Random(seed)
        picker = ScrambledZipfianPicker(self.n_keys, seed=seed)
        oracle: Dict[int, bytes] = {}
        n_slices = (self.traced_slices if traced
                    else seconds * self.slices_per_second_cap // self.repeats)
        gap_us = 1e6 / self.rate_per_s
        # Per slice: (offset us, op, key, value, expected get answer).
        self.plan: List[List[Tuple[float, str, int, bytes,
                                   Optional[bytes]]]] = []
        for number in range(n_slices):
            offset = 0.0
            rows = []
            puts = set(rng.sample(range(self.slice_requests), self.slice_puts))
            for slot in range(self.slice_requests):
                offset += rng.expovariate(1.0) * gap_us
                key = self.keys[picker.pick()]
                if slot in puts:
                    value = b"s%d.%d:%x" % (number, slot, key)
                    oracle[key] = value
                    rows.append((offset, "put", key, value, None))
                else:
                    rows.append((offset, "get", key, b"",
                                 oracle.get(key, loaded_value(key))))
            self.plan.append(rows)

    def sizes(self) -> Dict[str, object]:
        return {"keys": self.n_keys,
                "data_bytes": self.n_keys * ENTRY_BYTES,
                "shards": self.shards, "replicas": self.replicas,
                "cache_bytes_per_tree": self.cache_bytes,
                "requests_per_slice": self.slice_requests,
                "puts_per_slice": self.slice_puts,
                "burst_rate_per_s": self.rate_per_s}

    def setup(self):
        db = ShardedDB(self.shards, self.options,
                       replication=self.replication)
        db.bulk_ingest(self.keys, value_for=loaded_value, seed=0)
        gateway = Gateway(db, GatewayConfig())
        self._warm = read_all(db, self.keys[0], self.n_keys)
        return gateway

    def check_setup(self, gateway) -> bool:
        warm, self._warm = self._warm, None
        return (len(warm) == self.n_keys
                and all(k == e and v == loaded_value(k)
                        for (k, v), e in zip(warm, self.keys)))

    def stats_list(self, gateway) -> List[Stats]:
        return [shard.stats for shard in gateway.db.shards] + [gateway.stats]

    def run(self, gateway, until_ns: Optional[int]) -> Outcome:
        out = Outcome()
        ok = 0
        for rows in self.plan:
            if not out.keep_going(until_ns):
                break
            base = gateway.clock.now_us
            requests = [Request(op, key, base + offset,
                                base + offset + self.deadline_us, value=value)
                        for offset, op, key, value, _ in rows]
            start = clock()
            report = gateway.run(requests)
            out.record("gateway.run", clock() - start)
            out.ops += len(requests)
            out.puts += sum(req.op == "put" for req in requests)
            good = sum(req.outcome == OUTCOME_OK
                       and (req.op == "put" or req.result == want)
                       for req, (_, _, _, _, want) in zip(requests, rows))
            ends_once = sum(report.outcomes.values()) == len(requests)
            out.failed += len(requests) - (good if ends_once else 0)
            ok += good
        registry = gateway.registry
        out.extra["sim_request_p99_us"] = (
            registry.histograms[REQUEST_OP].percentile(0.99))
        out.extra["sim_queue_delay_p99_us"] = (
            registry.histograms[QUEUE_DELAY_OP].percentile(0.99))
        out.extra["sim_goodput_ops_s"] = ok * 1e6 / gateway.clock.now_us
        return out

    def finish(self, gateway, out: Outcome) -> None:
        """Nothing to do after the timed phase: every answer was checked."""

    def release(self, gateway) -> None:
        gateway.db.close()


WORKLOADS = {cls.name: cls for cls in (Lookup, Ingest, Serve)}


def sum_counters(stats_list: Sequence[Stats]) -> Dict[str, float]:
    """Counters summed over several registries."""
    total: Dict[str, float] = {}
    for stats in stats_list:
        for name, value in stats.counters.items():
            total[name] = total.get(name, 0.0) + value
    return total


def fingerprint(stats_list: Sequence[Stats]) -> List[Tuple]:
    """Every counter and simulated stage total, exactly."""
    return [(sorted(s.counters.items()),
             sorted((k.value, v) for k, v in s.stage_us.items()))
            for s in stats_list]


def sum_stages(stats_list: Sequence[Stats]) -> Dict[Stage, float]:
    """Simulated stage totals summed over several registries."""
    total: Dict[Stage, float] = {}
    for stats in stats_list:
        for stage, value in stats.stage_us.items():
            total[stage] = total.get(stage, 0.0) + value
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_counts(handle, out: Outcome, before: Dict[str, float],
                 after: Dict[str, float], stages_before: Dict[Stage, float],
                 stages_after: Dict[Stage, float]
                 ) -> Dict[str, Tuple[float, str]]:
    """The per-layer counts: ``name -> (value, unit)``.

    Event counts cover the whole pass (set-up included, since set-up
    builds tables and trains models); ratios and per-get figures cover
    the timed phase.  All of them come from the program's own counters
    and simulated cost model, so they repeat exactly for one seed.
    """
    def delta(name: str) -> float:
        return after.get(name, 0.0) - before.get(name, 0.0)

    if out.gets:
        # Gets the benchmark made itself: stages were read around each.
        gets = out.gets
        stage_us = out.get_stage_us
        segments = out.get_segments
    else:
        # Gets made inside the gateway: gets are the only reads there.
        gets = delta(sc.POINT_LOOKUPS)
        stage_us = {stage: stages_after.get(stage, 0.0)
                    - stages_before.get(stage, 0.0) for stage in GET_STAGES}
        segments = delta(sc.SEGMENTS_FETCHED)
    sim = {stage: _ratio(stage_us.get(stage, 0.0), gets)
           for stage in GET_STAGES}
    hits, misses = delta(sc.CACHE_HITS), delta(sc.CACHE_MISSES)
    engine = getattr(handle, "db", handle)
    return {
        "storage.checksums_verified": (after.get(sc.BLOCKS_VERIFIED, 0.0),
                                       "count"),
        "storage.blocks_read_per_op": (_ratio(delta(sc.BLOCKS_READ), out.ops),
                                       "blocks/op"),
        "storage.cache_hit_frac": (_ratio(hits, hits + misses), "frac"),
        "storage.write_amp": (_ratio(delta(sc.BYTES_WRITTEN),
                                     out.puts * ENTRY_BYTES), "x"),
        "lsm.bloom_negative_frac": (_ratio(delta(sc.BLOOM_NEGATIVES),
                                           delta(sc.BLOOM_PROBES)), "frac"),
        "lsm.segments_per_get": (_ratio(segments, gets), "seg/get"),
        "lsm.sim_get_us": (sum(sim.values()), "sim_us"),
        "lsm.sim_table_lookup_us": (sim[Stage.TABLE_LOOKUP], "sim_us"),
        "lsm.sim_prediction_us": (sim[Stage.PREDICTION], "sim_us"),
        "lsm.sim_io_us": (sim[Stage.IO], "sim_us"),
        "lsm.sim_search_us": (sim[Stage.SEARCH], "sim_us"),
        "lsm.flushes": (after.get(sc.FLUSHES, 0.0), "count"),
        "lsm.compactions": (after.get(sc.COMPACTIONS, 0.0), "count"),
        "lsm.compaction_bytes_in": (after.get(sc.COMPACT_BYTES_IN, 0.0), "B"),
        "indexes.train_key_visits": (after.get(sc.TRAIN_KEY_VISITS, 0.0),
                                     "count"),
        "indexes.index_bytes": (float(engine.memory_breakdown()["index"]),
                                "B"),
        "persist.manifest_edits": (after.get(sc.MANIFEST_EDITS, 0.0),
                                   "count"),
        "service.frames_shipped": (after.get(sc.REPL_FRAMES_SHIPPED, 0.0),
                                   "count"),
        "service.sim_request_p99_us": (
            out.extra.get("sim_request_p99_us", 0.0), "sim_us"),
        "service.sim_queue_delay_p99_us": (
            out.extra.get("sim_queue_delay_p99_us", 0.0), "sim_us"),
        "service.sim_goodput_ops_s": (
            out.extra.get("sim_goodput_ops_s", 0.0), "sim_op/s"),
    }
