"""Sessions: the per-prime memos and the on-disk record cache.

A Session owns one prime and is the one way in to its cells: bases
(Session.basis), records (Session.report) and reductions (may_diff.e2_rank
on Session.column) all read one may_core.Column per internal degree t,
which no other module builds.  It keeps answers, not scratch work:
records and the columns' cells, but no boundary rows and no search
state.  It reuses work at two levels: in-process, the memo of records
keyed by (s, t) and the columns, and an optional on-disk cache of
serialized records keyed by (module, p, s, t, schema_version).  Disk
records embed their own key, so a corrupt file, a malformed value (one that
summary_to_report refuses: not what its record serializes, or with
counts that disagree) or a digest collision degrades to a recomputation
with a warning, never to wrong data or a crash; a failed write is logged
once per cache, and the computed record is still returned.  Warnings go to the "mayext" logger.
Certificates read records through Session.report; products and witness
ranks reduce in the session's columns (e2_rank).
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
from pathlib import Path

from .may_core import Column, InvalidParams, MayextError, Monomial, PrimeContext
from .may_diff import SCHEMA_VERSION, E2Report, cell_homology, summary_to_report

logger = logging.getLogger("mayext")


def _canonical(key: dict) -> str:
    return json.dumps(key, sort_keys=True, separators=(",", ":"))


class DiskCache:
    """One JSON file per record under a root directory.

    Records carry {"key": ..., "value": ...}; a stored key that fails
    to round-trip against the request is treated as a miss.  The root is
    created if it is missing, and an OSError from that reaches the caller.
    """

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.write_failed = False

    def path_for(self, key: dict) -> Path:
        digest = hashlib.sha256(_canonical(key).encode()).hexdigest()
        return self.root / f"{digest}.json"

    def get(self, key: dict):
        path = self.path_for(key)
        try:
            raw = path.read_text()
        except FileNotFoundError:
            return None
        except OSError as exc:
            logger.warning("cache read failed (%s), recomputing", exc)
            return None
        try:
            record = json.loads(raw)
        except json.JSONDecodeError:
            logger.warning("corrupt cache file %s, recomputing", path.name)
            return None
        if not isinstance(record, dict) or record.get("key") != key:
            logger.warning("cache key mismatch in %s, recomputing", path.name)
            return None
        return record.get("value")

    def put(self, key: dict, value) -> None:
        """Write one record.  A write that fails with OSError is skipped;
        the first such failure of this cache logs a warning."""
        record = {"key": key, "value": value}
        try:
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as fh:
                    json.dump(record, fh)
                os.replace(tmp, self.path_for(key))
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError as exc:
            if not self.write_failed:
                logger.warning("cache write failed (%s)", exc)
            self.write_failed = True


def _check(s: int, t: int) -> None:
    """Refuse a bidegree with s < 0 or t < 0, before any column is built."""
    if s < 0 or t < 0:
        raise InvalidParams(f"bidegree out of range: ({s},{t})")


class Session:
    """All computations for one prime: a memo of records keyed by (s, t),
    one may_core.Column per internal degree t, which holds the bases of its
    cells, and an optional disk cache behind report, the one source of
    records.  report and basis refuse a bidegree with s < 0 or t < 0
    (InvalidParams)."""

    def __init__(self, ctx: PrimeContext, cache_dir=None):
        self.ctx = ctx
        self.memo: dict[tuple[int, int], E2Report] = {}
        self.columns: dict[int, Column] = {}
        self.disk = DiskCache(cache_dir) if cache_dir else None

    def _key(self, s: int, t: int) -> dict:
        return {
            "module": "e2",
            "p": self.ctx.p,
            "s": s,
            "t": t,
            "schema_version": SCHEMA_VERSION,
        }

    def report(self, s: int, t: int) -> E2Report:
        """The record of (s, t) from the memo, else from disk, else computed
        by cell_homology and written to disk."""
        hit = self.memo.get((s, t))
        if hit is not None:
            return hit
        _check(s, t)
        if self.disk is not None:
            summary = self.disk.get(self._key(s, t))
            if summary is not None:
                try:
                    rep = summary_to_report(self.ctx, s, t, summary)
                except (AttributeError, KeyError, TypeError, ValueError, MayextError):
                    name = self.disk.path_for(self._key(s, t)).name
                    logger.warning("malformed cache value in %s, recomputing", name)
                else:
                    self.memo[(s, t)] = rep
                    return rep
        rep = cell_homology(self.column(t), s)
        self.memo[(s, t)] = rep
        if self.disk is not None:
            self.disk.put(self._key(s, t), rep.serialize())
        return rep

    def basis(self, s: int, t: int) -> list[Monomial]:
        """The basis monomials of (s, t), every weight, sorted by factors."""
        _check(s, t)
        (blocks,) = self.column(t).read((s,))
        return [Monomial(key) for key in sorted(k for b in blocks.values() for k in b.keys)]

    def column(self, t: int) -> Column:
        """The Column of t, built on first use."""
        col = self.columns.get(t)
        if col is None:
            col = self.columns[t] = Column(self.ctx, t)
        return col
