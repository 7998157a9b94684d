"""Out-of-core paged store: RAM-resident directory, mmap'd data pages.

The paper's model keeps the (small) tree directory cached on every
workstation while data pages live on the disks.  :class:`MmapStore`
makes that literal: the directory — inner nodes plus leaf MBRs — is
rebuilt in RAM from ``tree.npz``, while every leaf *payload* (oids +
points) lives in its disk's page file (:mod:`repro.storage.pagefile`)
and is served through a read-only memory map on demand.

``MmapStore`` is a drop-in behind the :class:`~repro.parallel.paged.PagedStore`
query surface (``tree`` / ``leaves`` / ``page_disks`` / ``disk_of`` /
``disk_loads``), so :class:`~repro.parallel.paged.PagedEngine` runs over
it unchanged — scoring payloads fetched via :meth:`MmapStore.read_page`
instead of in-memory entries, with bit-for-bit identical results and
page counts (float64 round-trips exactly).  The charging contract is
unchanged too: a page read charges ``DiskArray.charge`` unless the
engine's buffer pool reports a hit; on a hit the payload is still
decoded from the mapping, which the OS page cache serves from RAM —
the warm read is free in the simulated accounting *and* cheap in wall
clock.  See ``docs/storage.md``.

On-disk layout of a store directory::

    store.json      store header (format version, disks, scheme, cache)
    tree.npz        directory arrays + leaf MBR bounds + page->disk map
    disk0000.pages  page file of disk 0 (see repro.storage.pagefile)
    disk0001.pages  ...
"""

from __future__ import annotations

import io
import json
import os
import time
import zipfile
from pathlib import Path
from typing import Dict, List, Optional, Protocol, Sequence, Tuple, Union

import numpy as np

from repro.index.mbr import MBR
from repro.index.node import Node
from repro.index.rstar import RStarTree
from repro.parallel.cache import CacheConfig
from repro.parallel.paged import PagedStore
from repro.persistence import (
    FrozenAssignment,
    _check_store_version,
    _check_tree_version,
    _decode_cache,
    _flatten,
    _rebuild_skeleton,
    _store_header,
)
from repro.storage.pagefile import (
    PageFile,
    PageFileWriter,
    PageFormatError,
)

__all__ = [
    "MmapStore",
    "save_mmap_store",
    "load_mmap_store",
    "STORE_JSON",
    "TREE_NPZ",
    "SIMULATED_DISK_MS_ENV",
]

#: Store-header file inside a store directory.
STORE_JSON = "store.json"

#: Environment knob: simulated disk service time in milliseconds per
#: page *block*, slept inside :meth:`MmapStore.read_pages`.  The page
#: files live on media (tmpfs, SSD page cache) many orders of magnitude
#: faster than the rotating disks whose overlap the paper measures;
#: this restores a physical service time so wall-clock benchmarks
#: (``benchmarks/bench_wallclock.py``) can observe I/O overlap across
#: per-disk workers.  Read once when a store is opened — per-disk
#: worker processes inherit it through the environment at spawn.
SIMULATED_DISK_MS_ENV = "REPRO_SIMULATED_DISK_MS"

#: Directory/tree arrays file inside a store directory.
TREE_NPZ = "tree.npz"


def _page_file_name(disk: int) -> str:
    return f"disk{disk:04d}.pages"


class _PayloadSource(Protocol):
    """Indexed access to per-leaf ``(points, oids)`` payloads.

    A plain list of tuples satisfies this; the streaming bulk loader
    passes a lazy view that reads each tile back from its spill file
    only when the page-file writer asks for it, so payloads never all
    coexist in RAM.
    """

    def __len__(self) -> int:
        """Number of leaf payloads (one per store-order leaf)."""
        ...

    def __getitem__(self, index: int) -> Tuple[np.ndarray, np.ndarray]:
        """Payload ``(points, oids)`` of the ``index``-th leaf."""
        ...


def _savez_deterministic(
    path: Union[str, os.PathLike], arrays: Dict[str, np.ndarray]
) -> None:
    """``np.savez_compressed`` with reproducible bytes.

    ``np.savez_compressed`` stamps each zip member with the current
    mtime, so two otherwise-identical stores differ. Writing the members
    ourselves with a fixed timestamp (and fixed permission bits) makes
    ``tree.npz`` a pure function of its arrays — the property the
    streaming-vs-in-memory byte-parity tests assert.  ``np.load`` reads
    the result like any other ``.npz``.
    """
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as archive:
        for name, value in arrays.items():
            payload = io.BytesIO()
            np.lib.format.write_array(
                payload, np.asanyarray(value), allow_pickle=False
            )
            info = zipfile.ZipInfo(
                name + ".npy", date_time=(1980, 1, 1, 0, 0, 0)
            )
            info.compress_type = zipfile.ZIP_DEFLATED
            info.external_attr = 0o600 << 16
            archive.writestr(info, payload.getvalue())


def _leaf_geometry(
    leaves: List[Node], counts: List[int], dimension: int
) -> Dict[str, np.ndarray]:
    """Leaf MBR bounds and entry counts as flat arrays (store order)."""
    if leaves:
        low = np.vstack([leaf.mbr.low for leaf in leaves])
        high = np.vstack([leaf.mbr.high for leaf in leaves])
    else:
        low = np.zeros((0, dimension))
        high = np.zeros((0, dimension))
    return {
        "leaf_low": low,
        "leaf_high": high,
        "leaf_counts": np.asarray(counts, dtype=np.int64),
    }


def _write_store(
    directory: Union[str, os.PathLike],
    tree: RStarTree,
    header: Dict,
    leaves: List[Node],
    payloads: _PayloadSource,
    page_disks: np.ndarray,
    num_disks: int,
    page_bytes: int,
    slot_bytes: Optional[int],
    payload_counts: Optional[Sequence[int]] = None,
) -> None:
    """Write ``store.json`` + ``tree.npz`` + one page file per disk.

    ``payloads`` holds each leaf's ``(points, oids)`` in store (pre-order)
    leaf order — a plain list, or any indexed view (the streaming bulk
    loader passes a lazy spill-file reader so payloads are fetched one
    page at a time).  ``payload_counts`` supplies per-leaf entry counts
    when iterating ``payloads`` up front would defeat that laziness.
    ``slot_bytes`` defaults to ``page_bytes`` times the widest leaf
    (supernode-aware), the tight bound under the trees' capacity rules.
    """
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    dimension = tree.dimension
    if slot_bytes is None:
        widest = max((leaf.blocks for leaf in leaves), default=1)
        slot_bytes = page_bytes * widest

    # Per-disk slot numbering in store leaf order.
    page_slots = np.zeros(len(leaves), dtype=np.int64)
    next_slot = [0] * num_disks
    for index, disk in enumerate(page_disks):
        page_slots[index] = next_slot[int(disk)]
        next_slot[int(disk)] += 1

    for disk in range(num_disks):
        writer = PageFileWriter(
            path / _page_file_name(disk),
            disk_id=disk,
            num_slots=next_slot[disk],
            slot_bytes=slot_bytes,
            dimension=dimension,
            page_bytes=page_bytes,
        )
        try:
            for index in np.nonzero(page_disks == disk)[0]:
                points, oids = payloads[int(index)]
                writer.write_slot(int(page_slots[index]), oids, points)
        finally:
            writer.close()

    if payload_counts is None:
        counts = [len(payloads[i][1]) for i in range(len(payloads))]
    else:
        counts = [int(count) for count in payload_counts]

    arrays = _flatten(tree)
    # Payloads live in the page files; keep the npz directory-only.
    arrays["points"] = np.zeros((0, dimension))
    arrays["oids"] = np.zeros(0, dtype=np.int64)
    arrays["point_leaf"] = np.zeros(0, dtype=np.int64)
    arrays.update(_leaf_geometry(leaves, counts, dimension))
    arrays["page_disks"] = np.asarray(page_disks, dtype=np.int64)
    arrays["page_slots"] = page_slots
    arrays["header"] = np.array(json.dumps(header))
    _savez_deterministic(path / TREE_NPZ, arrays)

    store_meta = dict(header)
    store_meta["kind"] = "repro.mmap-store"
    store_meta["slot_bytes"] = slot_bytes
    store_meta["num_pages"] = len(leaves)
    (path / STORE_JSON).write_text(
        json.dumps(store_meta, indent=2, sort_keys=True) + "\n"
    )


def save_mmap_store(
    store: PagedStore,
    directory: Union[str, os.PathLike],
    slot_bytes: Optional[int] = None,
) -> None:
    """Persist a (in-memory) ``PagedStore`` as an out-of-core store.

    The tree directory, leaf MBRs, page-to-disk map, scheme name, and
    cache config go to ``tree.npz``/``store.json``; every leaf payload
    goes to its disk's page file.  ``slot_bytes`` overrides the page
    slot size (a payload larger than the slot raises
    :class:`~repro.storage.pagefile.SlotOverflowError` rather than
    truncating).
    """
    payloads: List[Tuple[np.ndarray, np.ndarray]] = []
    for leaf in store.leaves:
        if leaf.entries:
            points = np.vstack([entry.point for entry in leaf.entries])
            oids = np.array(
                [entry.oid for entry in leaf.entries], dtype=np.int64
            )
        else:
            points = np.zeros((0, store.tree.dimension))
            oids = np.zeros(0, dtype=np.int64)
        payloads.append((points, oids))
    _write_store(
        directory,
        store.tree,
        _store_header(store),
        list(store.leaves),
        payloads,
        np.asarray(store.page_disks, dtype=np.int64),
        store.num_disks,
        store.page_bytes,
        slot_bytes,
    )


class MmapStore:
    """Read-only out-of-core paged store opened from a store directory.

    Exposes the :class:`~repro.parallel.paged.PagedStore` query surface
    plus :meth:`read_pages` / :meth:`read_page` / :meth:`entry_count`;
    engines detect the ``read_page`` hook and score mmap-served
    payloads instead of in-memory entries.  Page files are opened
    lazily per disk, so a per-disk worker process maps only its own
    disk's file.  Reopening
    a directory that another process (or store) currently maps is safe:
    mappings are read-only and the files are immutable once written.
    """

    #: Marks stores whose leaf payloads are not held in RAM.
    out_of_core = True

    def __init__(
        self,
        directory: Union[str, os.PathLike],
        *,
        simulated_disk_ms: Optional[float] = None,
    ):
        self.directory = Path(directory)
        if simulated_disk_ms is None:
            simulated_disk_ms = float(
                os.environ.get(SIMULATED_DISK_MS_ENV, "0") or 0.0
            )
        if simulated_disk_ms < 0:
            raise ValueError(
                f"simulated_disk_ms must be >= 0, got {simulated_disk_ms}"
            )
        self.simulated_disk_ms = simulated_disk_ms
        meta_path = self.directory / STORE_JSON
        if not meta_path.is_file():
            raise PageFormatError(
                f"{os.fspath(self.directory)!r} is not an mmap store "
                f"directory (missing {STORE_JSON})"
            )
        meta = json.loads(meta_path.read_text())
        _check_store_version(meta, f"mmap store {os.fspath(directory)!r}")
        with np.load(self.directory / TREE_NPZ, allow_pickle=False) as data:
            header = json.loads(str(data["header"]))
            _check_store_version(
                header, f"mmap store {os.fspath(directory)!r}"
            )
            _check_tree_version(header)
            tree, nodes = _rebuild_skeleton(data, header)
            leaf_low = data["leaf_low"]
            leaf_high = data["leaf_high"]
            leaf_counts = data["leaf_counts"]
            page_disks = data["page_disks"]
            page_slots = data["page_slots"]
        tree.size = int(header["size"])
        self.tree = tree
        self.page_bytes = int(header["page_bytes"])
        self.num_disks = int(header["num_disks"])
        self.scheme = str(header.get("scheme", "frozen"))
        self.cache_config: Optional[CacheConfig] = _decode_cache(
            header.get("cache")
        )
        self.slot_bytes = int(meta["slot_bytes"])

        # Leaf MBRs are explicit on disk (leaves own no entries here, so
        # they cannot be recomputed); directory MBRs are their unions.
        leaves = [node for node in nodes if node.is_leaf]
        if tree.size == 0:
            leaves = []
        if len(leaves) != len(page_disks):
            raise PageFormatError(
                f"mmap store {os.fspath(directory)!r} is inconsistent: "
                f"{len(leaves)} leaves but {len(page_disks)} page map rows"
            )
        for node, low, high in zip(leaves, leaf_low, leaf_high):
            node.mbr = MBR(low, high)
        for node in reversed(nodes):
            if not node.is_leaf:
                node.recompute_mbr()

        self.leaves: List[Node] = leaves
        self.page_disks = np.asarray(page_disks, dtype=np.int64)
        self.declusterer = FrozenAssignment(self.page_disks, name=self.scheme)
        self._counts = np.asarray(leaf_counts, dtype=np.int64)
        self._disk_of = {
            id(leaf): int(disk) for leaf, disk in zip(leaves, page_disks)
        }
        self._slot_of = {
            id(leaf): int(slot) for leaf, slot in zip(leaves, page_slots)
        }
        self._count_of = {
            id(leaf): int(count) for leaf, count in zip(leaves, leaf_counts)
        }
        self._page_files: Dict[int, PageFile] = {}
        self._closed = False

    # ----------------------------------------------------------- queries

    def disk_of(self, leaf: Node) -> int:
        """Disk storing a data page."""
        return self._disk_of[id(leaf)]

    def entry_count(self, leaf: Node) -> int:
        """Entries in a data page — from the directory, no payload read."""
        return self._count_of[id(leaf)]

    def disk_loads(self) -> np.ndarray:
        """Data pages stored per disk."""
        return np.bincount(self.page_disks, minlength=self.num_disks)

    def _page_file(self, disk: int) -> PageFile:
        handle = self._page_files.get(disk)
        if handle is None:
            handle = PageFile(self.directory / _page_file_name(disk))
            self._page_files[disk] = handle
        return handle

    def read_pages(
        self, leaves: Sequence[Node]
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Fetch data pages' ``(points, oids)`` payloads via mmap.

        This is the simulated disk access: the first touch of a cold
        slot faults the mapping in; re-reads come from the OS page
        cache.  Engines decide separately (via their buffer pool)
        whether to *charge* the read to the :class:`DiskArray`.

        With ``simulated_disk_ms`` (or the ``REPRO_SIMULATED_DISK_MS``
        environment knob) set, the call also sleeps **once**, for that
        many milliseconds per page block summed over ``leaves`` — a
        stand-in service time for the rotating disks the paper overlaps,
        so wall-clock benchmarks see real I/O wait instead of a
        page-cache hit.  One wait per call keeps a sleep's fixed
        overshoot from multiplying with the page count.  An empty list
        reads and sleeps nothing.  Counters and results are unaffected.
        """
        if self._closed:
            raise ValueError(
                f"mmap store {os.fspath(self.directory)!r} is closed; "
                f"page reads after close() would silently remap the "
                f"files — reopen the store instead"
            )
        payloads = [
            self._page_file(self.disk_of(leaf)).read_slot(
                self._slot_of[id(leaf)]
            )
            for leaf in leaves
        ]
        if self.simulated_disk_ms and payloads:
            blocks = sum(leaf.blocks for leaf in leaves)
            time.sleep(self.simulated_disk_ms * blocks / 1000.0)
        return payloads

    def read_page(self, leaf: Node) -> Tuple[np.ndarray, np.ndarray]:
        """One data page's payload: ``read_pages([leaf])[0]``."""
        return self.read_pages([leaf])[0]

    def __len__(self) -> int:
        return self.tree.size

    # --------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Unmap every open page file (results remain valid — payload
        reads return owned copies).  Idempotent; after close,
        :meth:`read_pages` raises :class:`ValueError` instead of
        silently remapping the page files."""
        for handle in self._page_files.values():
            handle.close()
        self._page_files = {}
        self._closed = True

    def __enter__(self) -> "MmapStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MmapStore({os.fspath(self.directory)!r}, n={self.tree.size}, "
            f"pages={len(self.leaves)}, disks={self.num_disks}, "
            f"scheme={self.scheme!r})"
        )


def load_mmap_store(directory: Union[str, os.PathLike]) -> MmapStore:
    """Open an out-of-core store directory (alias for ``MmapStore(dir)``)."""
    return MmapStore(directory)
