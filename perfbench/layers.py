"""Wall-clock spans around the engine's layer boundaries, added from outside.

The traced run replaces each entry point below with a timing wrapper and
puts the originals back afterwards, so the program itself is never
edited.  Each wrapper opens a span on one shared stack; a span's self
time is its duration minus the time its child spans cover, and every
span of one top-level call shares that call's id.

Only call boundaries are wrapped.  Per-entry helpers such as
``record.decode_entry`` run millions of times per run; their time stays
in the self time of the boundary that called them.  A function imported
by name into another module is wrapped where it is looked up (the
``crc32c`` rows).
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Dict, List, Tuple

#: ``(module, attribute path, layer group)`` for every wrapped entry point.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    # storage
    ("repro.lsm.sstable", "crc32c", "storage.checksum"),
    ("repro.lsm.scrub", "crc32c", "storage.checksum"),
    ("repro.storage.block_device", "MemoryBlockDevice.pread",
     "storage.device"),
    ("repro.storage.block_device", "MemoryBlockDevice.append",
     "storage.device"),
    ("repro.storage.block_cache", "CachedBlockDevice.pread", "storage.cache"),
    ("repro.storage.block_cache", "CachedBlockDevice.pread_cached",
     "storage.cache"),
    ("repro.storage.block_cache", "CachedBlockDevice.append", "storage.cache"),
    # lsm, read side
    ("repro.lsm.db", "LSMTree.get", "lsm.get"),
    ("repro.lsm.db", "LSMTree.multi_get", "lsm.multi_get"),
    ("repro.lsm.db", "LSMTree.scan", "lsm.scan"),
    ("repro.lsm.sstable", "Table.get", "lsm.table_read"),
    ("repro.lsm.sstable", "Table.get_in_bound", "lsm.table_read"),
    ("repro.lsm.sstable", "Table.multi_get_in_bounds", "lsm.table_read"),
    ("repro.lsm.sstable", "Table.read_entries", "lsm.table_read"),
    ("repro.lsm.bloom", "BloomFilter.may_contain", "lsm.bloom_probe"),
    # lsm, write side
    ("repro.lsm.db", "LSMTree.write", "lsm.write"),
    ("repro.lsm.db", "LSMTree.put", "lsm.write"),
    ("repro.lsm.wal", "WriteAheadLog.append_batch", "lsm.wal"),
    ("repro.lsm.wal", "WriteAheadLog.reset", "lsm.wal"),
    ("repro.lsm.db", "LSMTree.flush", "lsm.flush"),
    ("repro.lsm.compaction", "Compactor.run", "lsm.compaction"),
    ("repro.lsm.sstable", "TableBuilder.add", "lsm.table_build"),
    ("repro.lsm.sstable", "TableBuilder.finish", "lsm.table_build"),
    ("repro.lsm.bloom", "BloomFilter.build", "lsm.table_build"),
    # indexes
    ("repro.indexes.base", "ClusteredIndex.build", "indexes.train"),
    ("repro.lsm.level_index", "LevelModelManager.rebuild", "indexes.train"),
    ("repro.indexes.base", "ClusteredIndex.lookup", "indexes.predict"),
    ("repro.lsm.level_index", "LevelModelManager.lookup", "indexes.predict"),
    ("repro.lsm.level_index", "LevelModelManager.lookup_batch",
     "indexes.predict"),
    # persist
    ("repro.persist.manifest", "Manifest.append", "persist.manifest"),
    ("repro.persist.manifest", "Manifest.rewrite", "persist.manifest"),
    ("repro.persist.manifest", "Manifest.replay", "persist.manifest"),
    ("repro.persist.models", "ModelStore.save", "persist.models"),
    ("repro.persist.models", "ModelStore.load", "persist.models"),
    ("repro.persist.models", "ModelStore.delete", "persist.models"),
    ("repro.lsm.db", "LSMTree.reopen", "persist.reopen"),
    # obs
    ("repro.obs.trace", "Tracer.begin", "obs.tracer"),
    ("repro.obs.trace", "Tracer.end", "obs.tracer"),
    ("repro.obs.trace", "Tracer.on_charge", "obs.tracer"),
    ("repro.obs.trace", "Tracer.on_count", "obs.tracer"),
    ("repro.obs.histogram", "Histogram.record", "obs.histogram"),
    # service
    ("repro.service.gateway", "Gateway.run", "service.gateway"),
    ("repro.service.sharded", "ShardedDB.bulk_ingest", "service.sharded"),
    ("repro.service.sharded", "ShardedDB.scan", "service.sharded"),
    ("repro.service.sharded", "ShardedDB.shard_for", "service.sharded"),
    ("repro.service.sharded", "ShardedDB.tick", "service.sharded"),
    ("repro.service.replication", "ReplicaGroup.bulk_ingest",
     "service.replication"),
    ("repro.service.replication", "ReplicaGroup.get", "service.replication"),
    ("repro.service.replication", "ReplicaGroup.put", "service.replication"),
    ("repro.service.replication", "ReplicaGroup.scan", "service.replication"),
    ("repro.service.replication", "ReplicaGroup.tick", "service.replication"),
)

#: Every layer group, in report order.
GROUPS: Tuple[str, ...] = tuple(dict.fromkeys(g for _, _, g in ENTRY_POINTS))

#: One top-level call in this many keeps its whole span tree.
SPAN_SAMPLE_EVERY = 64
#: Upper bound on kept spans, so a long traced run stays small in memory.
MAX_KEPT_SPANS = 200_000


def entry_name(module: str, path: str) -> str:
    """The coverage-matrix name of one entry point (``Class.method``)."""
    return path if "." in path else f"{module.rsplit('.', 1)[-1]}.{path}"


class LayerTracer:
    """Self time and call counts per wrapped entry point.

    Use as a context manager: entering installs the wrappers, leaving
    restores the original attributes exactly.
    """

    def __init__(self) -> None:
        self.self_ns: Dict[str, int] = {}
        self.calls: Dict[str, int] = {}
        #: Top-level calls so far; the id shared by a call's spans.
        self.top_calls = 0
        #: Sampled spans: ``(op id, entry, depth, start ns, duration ns)``.
        self.spans: List[Tuple[int, str, int, int, int]] = []
        self._stack: List[List[int]] = []
        self._saved: List[Tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------

    def __enter__(self) -> "LayerTracer":
        try:
            for module_name, path, _ in ENTRY_POINTS:
                self._install(module_name, path)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self._restore()

    def _install(self, module_name: str, path: str) -> None:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        # Only the owner's own attribute is replaced: wrapping an
        # inherited one would shadow it, and a renamed entry point must
        # fail loudly rather than go silently unmeasured.
        raw = vars(owner).get(attr)
        if raw is None:
            raise AttributeError(f"{module_name}.{path} does not exist")
        name = entry_name(module_name, path)
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(raw.__func__, name))
        else:
            wrapped = self._wrap(raw, name)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def _restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def _wrap(self, fn, name: str):
        self.self_ns.setdefault(name, 0)
        self.calls.setdefault(name, 0)
        self_ns, calls, stack, spans = (self.self_ns, self.calls,
                                        self._stack, self.spans)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                self.top_calls += 1
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                self_ns[name] += duration - frame[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += duration
                op = self.top_calls
                if (op % SPAN_SAMPLE_EVERY == 0
                        and len(spans) < MAX_KEPT_SPANS):
                    spans.append((op, name, len(stack), start, duration))

        return wrapper

    # -- read-out --------------------------------------------------------

    def group_self_ns(self) -> Dict[str, int]:
        """Self time summed per layer group."""
        out = dict.fromkeys(GROUPS, 0)
        for module_name, path, group in ENTRY_POINTS:
            out[group] += self.self_ns.get(entry_name(module_name, path), 0)
        return out
