"""On-disk memoization of experiment cells.

Figures 3/5 (and 4/6) re-aggregate the *same* runs by different axes, and
re-running benches shouldn't redo minutes of scheduling. Results are tiny
(a few floats per cell) so JSON keyed by
:meth:`repro.experiments.config.Cell.key` is plenty.

Two layouts:

* **single file** — ``ResultCache("path/to/results.json")``: everything in
  one JSON blob (the original layout; still used by tests and ad-hoc
  scripts);
* **sharded** — ``ResultCache(directory, shards=N)``: keys are hashed
  (crc32) over ``N`` shard files so a parallel sweep flushes only the
  shards it touched and a huge grid never rewrites one monolithic file.
  This is the default layout (``REPRO_CACHE_SHARDS``, default 8, under
  ``REPRO_CACHE_DIR``) and applies to *any* non-``.json`` path:
  explicit directories honor ``REPRO_CACHE_SHARDS`` and import a
  sibling pre-sharding ``<directory>.json`` file exactly like the
  env-derived default does.

The cache is versioned: changing the library's algorithmic behavior
should bump ``CACHE_VERSION`` so stale numbers are never mixed in.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import zlib
from typing import Dict, Iterable, Optional, Set, Tuple

from repro.obs import counters as _obs

CACHE_VERSION = 3

DEFAULT_SHARDS = 8

#: reserved key carrying an entry's provenance stamp. Result
#: deserializers must ignore ``__``-prefixed keys.
PROVENANCE_KEY = "__prov__"


def provenance_stamp(request_key: str) -> dict:
    """The ``{repro_version, engine_mode, request_key}`` stamp recorded
    with every cached artifact (the huldra-style provenance record)."""
    from repro import __version__
    from repro.util.intervals import hotpath_mode

    return {
        "repro_version": __version__,
        "engine_mode": hotpath_mode(),
        "request_key": request_key,
    }


def stamp_provenance(value: dict, request_key: str) -> dict:
    """Copy of ``value`` carrying a fresh provenance stamp."""
    out = dict(value)
    out[PROVENANCE_KEY] = provenance_stamp(request_key)
    return out


def provenance_of(value: Optional[dict]) -> Optional[dict]:
    if not isinstance(value, dict):
        return None
    return value.get(PROVENANCE_KEY)


def is_stale(value: dict, request_key: str) -> bool:
    """True when a cached entry's provenance contradicts the request —
    stale entries are recomputed, never served.

    Staleness means a *different library version* wrote the entry, or
    the entry was written under a *different request key* (a sharding or
    grammar bug). ``engine_mode`` is recorded but deliberately not a
    criterion: schedules are byte-identical across the hot-path modes
    (the engine and its ``legacy`` oracle) by contract, so cross-mode
    serving is correct (and the corpus report stays byte-identical
    across modes). Entries written before
    provenance existed carry no stamp and are grandfathered —
    ``CACHE_VERSION`` gates those wholesale.
    """
    from repro import __version__

    prov = provenance_of(value)
    stale = False
    if prov is not None:
        if prov.get("repro_version") != __version__:
            stale = True
        elif prov.get("request_key") != request_key:
            stale = True
    if _obs.ACTIVE:
        # every get() that found an entry is followed by exactly one
        # is_stale() at each caller, so hit/stale tally here (misses
        # tally in ResultCache.get) and the three dispositions partition
        # the lookups
        _obs.inc("cache.stale" if stale else "cache.hits")
    return stale


class ResultCache:
    """A dict-like JSON cache for cell results (single-file or sharded)."""

    def __init__(self, path: Optional[str] = None, shards: Optional[int] = None):
        if path is None:
            root = os.environ.get("REPRO_CACHE_DIR", ".repro_cache")
            path = os.path.join(root, "results")
        # A ``.json`` path is the single-file layout; anything else is a
        # shard directory. Directory construction — default *or*
        # explicit — honors REPRO_CACHE_SHARDS (explicit ``shards=``
        # still wins); it used to be honored only for ``path=None``.
        # Exception: an existing *file* at an extension-less path is a
        # cache written under the old single-file default for that
        # spelling — keep reading/writing it as one rather than
        # shadowing it with a same-named directory.
        if shards is None and not path.endswith(".json"):
            if os.path.isfile(path):
                shards = 1
            else:
                try:
                    shards = int(os.environ.get("REPRO_CACHE_SHARDS",
                                                DEFAULT_SHARDS))
                except ValueError:  # typo'd env var — fall back, don't crash
                    shards = DEFAULT_SHARDS
        self.path = path
        self.n_shards = max(1, int(shards or 1))
        self.sharded = self.n_shards > 1
        self._shards: Dict[int, Dict[str, dict]] = {}
        self._loaded: Set[int] = set()
        self._dirty: Set[int] = set()
        self._flush_warned = False
        # a pre-sharding single-file cache sits next to the shard
        # directory under the same stem (<dir>.json) — import it for
        # explicit directories too, not just the env-derived default
        legacy_file = path + ".json"
        if (
            self.sharded
            and not os.path.isdir(self.path)
            and os.path.isfile(legacy_file)
        ):
            self._import_legacy(legacy_file)

    def _import_legacy(self, legacy_file: str) -> None:
        """Absorb a pre-sharding single-file cache (same CACHE_VERSION)
        into the shard maps so old results are not silently recomputed.
        Entries are marked dirty and persist on the next flush; the old
        file is left in place untouched."""
        try:
            with open(legacy_file) as fh:
                blob = json.load(fh)
        except (OSError, ValueError):
            return
        if blob.get("version") != CACHE_VERSION:
            return
        self._loaded.update(range(self.n_shards))
        for idx in range(self.n_shards):
            self._shards.setdefault(idx, {})
        for key, value in blob.get("results", {}).items():
            idx = self._shard_of(key)
            self._shards[idx][key] = value
            self._dirty.add(idx)

    # ------------------------------------------------------------------
    def _shard_of(self, key: str) -> int:
        if not self.sharded:
            return 0
        return zlib.crc32(key.encode("utf-8")) % self.n_shards

    def _shard_path(self, idx: int) -> str:
        if not self.sharded:
            return self.path
        return os.path.join(self.path, f"shard-{idx:02d}.json")

    def _load(self, idx: int) -> Dict[str, dict]:
        if idx in self._loaded:
            return self._shards.setdefault(idx, {})
        self._loaded.add(idx)
        data: Dict[str, dict] = {}
        try:
            with open(self._shard_path(idx)) as fh:
                blob = json.load(fh)
            if blob.get("version") == CACHE_VERSION:
                data = blob.get("results", {})
        except (OSError, ValueError):
            pass
        self._shards[idx] = data
        return data

    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[dict]:
        value = self._load(self._shard_of(key)).get(key)
        if value is None and _obs.ACTIVE:
            _obs.inc("cache.misses")
        return value

    def put(self, key: str, value: dict, flush: bool = True) -> None:
        idx = self._shard_of(key)
        self._load(idx)[key] = value
        self._dirty.add(idx)
        if flush:
            self.flush()

    def put_many(self, items: Iterable[Tuple[str, dict]], flush: bool = True) -> None:
        """Insert many results, deferring I/O to one flush of the dirty
        shards — the bulk path used by the parallel runner."""
        for key, value in items:
            idx = self._shard_of(key)
            self._load(idx)[key] = value
            self._dirty.add(idx)
        if flush:
            self.flush()

    def flush(self) -> None:
        """Write every dirty shard (atomic per shard: tmp file + rename).

        A shard that fails to write (e.g. disk full) *stays dirty* so the
        next flush retries it — in-memory results are never silently
        dropped from persistence.
        """
        if not self._dirty:
            return
        directory = self.path if self.sharded else (os.path.dirname(self.path) or ".")
        try:
            os.makedirs(directory, exist_ok=True)
        except OSError as exc:
            self._warn_once(directory, exc)
            return  # every shard stays dirty; the next flush retries
        written = []
        for idx in sorted(self._dirty):
            blob = {"version": CACHE_VERSION, "results": self._shards.get(idx, {})}
            try:
                fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
            except OSError as exc:
                self._warn_once(directory, exc)
                continue
            try:
                with os.fdopen(fd, "w") as fh:
                    json.dump(blob, fh)
                os.replace(tmp, self._shard_path(idx))
                written.append(idx)
            except OSError as exc:
                self._warn_once(directory, exc)
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
        self._dirty.difference_update(written)

    def _warn_once(self, directory: str, exc: OSError) -> None:
        """A persistently failing flush must not be silent: results stay
        in memory and every flush retries, but the operator should know
        persistence is off. One warning per cache instance."""
        if not self._flush_warned:
            self._flush_warned = True
            sys.stderr.write(
                f"repro: result-cache flush to {directory!r} failed "
                f"({exc}); results kept in memory, will retry on the "
                f"next flush\n"
            )

    def __len__(self) -> int:
        return sum(
            len(self._load(idx)) for idx in range(self.n_shards)
        )


#: process-wide default cache instance
_default_cache: Optional[ResultCache] = None


def default_cache() -> ResultCache:
    global _default_cache
    if _default_cache is None:
        _default_cache = ResultCache()
    return _default_cache
