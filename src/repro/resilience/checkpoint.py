"""Crash-safe campaign checkpointing.

Generalizes the :class:`repro.search.driver.SearchDriver` JSON
checkpoint/resume-by-replay idiom into a :class:`CampaignCheckpoint`
usable by any campaign-shaped task list: the checkpoint stores every
completed :class:`~repro.analysis.metrics.RunResult` keyed by task
index, validated against a fingerprint of the full task list, and is
written with the atomic write-rename pattern — a crash at any instant
leaves either the previous checkpoint or the new one on disk, never a
torn file.  Resuming an interrupted campaign therefore pays only for
the runs that had not finished.
"""

import hashlib
import json
import os
import re
import tempfile
from typing import Dict, Iterable

from repro.analysis.metrics import RunResult

#: Campaign checkpoint format version (bumped on incompatible changes).
CAMPAIGN_CHECKPOINT_VERSION = 1


class CheckpointMismatch(ValueError):
    """The checkpoint on disk does not belong to this task list."""


def fsync_directory(path: str) -> None:
    """fsync the directory containing ``path`` (no-op where unsupported).

    ``os.replace`` makes the rename itself atomic, but the *directory
    entry* pointing at the new file is only durable once the directory's
    own metadata reaches disk — without this a crash shortly after the
    rename can lose a "committed" checkpoint or cache entry entirely.
    Platforms that reject directory file descriptors (e.g. Windows) fall
    back to a no-op: the rename atomicity still holds there, only the
    durability-after-crash window is platform-defined.
    """
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write ``data`` via write-to-temp + fsync + atomic rename + dir fsync.

    ``os.replace`` is atomic on POSIX and Windows, so a reader (or a
    resumed process after a crash) only ever observes the previous file
    or the complete new one.  The temp file is uniquely named (safe for
    concurrent writers racing on the same target — last rename wins,
    never a torn file) and lives next to the target so the rename never
    crosses a filesystem boundary.  The containing directory is fsynced
    after the rename so the committed entry survives a crash.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.remove(tmp_path)
        except OSError:
            pass
        raise
    fsync_directory(path)


def atomic_write_json(path: str, payload: dict) -> None:
    """Write ``payload`` as JSON with the :func:`atomic_write_bytes` contract."""
    data = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    atomic_write_bytes(path, data.encode())


def fingerprint_strings(parts: Iterable[str]) -> str:
    """A stable hex digest over an ordered list of identity strings."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode())
        digest.update(b"\n")
    return digest.hexdigest()


class CampaignCheckpoint:
    """Completed-run store for one campaign-shaped task list.

    Args:
        path: Checkpoint file location.
        fingerprint: Identity of the task list (see
            :func:`fingerprint_strings`); a checkpoint written for a
            different task list refuses to load.
        total: Total number of tasks in the campaign.
    """

    def __init__(self, path: str, fingerprint: str, total: int):
        self.path = path
        self.fingerprint = fingerprint
        self.total = total
        self.loaded = 0       # results restored from disk by load()
        self.recorded = 0     # fresh results recorded this process
        self._results: Dict[int, dict] = {}
        self._dirty = False

    # -- resume --------------------------------------------------------------

    def load(self) -> Dict[int, RunResult]:
        """Load completed runs from disk (empty dict when none exist).

        Raises :class:`CheckpointMismatch` when the file belongs to a
        different task list, format version, or has a corrupt payload —
        a half-written file cannot occur (atomic rename), but a stale
        one from an edited campaign must not silently poison a resume.
        """
        try:
            with open(self.path) as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            return {}
        except ValueError as error:
            raise CheckpointMismatch(
                f"checkpoint {self.path} is not valid JSON: {error}"
            ) from error
        if payload.get("version") != CAMPAIGN_CHECKPOINT_VERSION:
            raise CheckpointMismatch(
                f"checkpoint version {payload.get('version')!r} does not match "
                f"{CAMPAIGN_CHECKPOINT_VERSION}"
            )
        if payload.get("fingerprint") != self.fingerprint:
            raise CheckpointMismatch(
                "checkpoint fingerprint does not match this campaign "
                "(the task list changed since it was written)"
            )
        if payload.get("total") != self.total:
            raise CheckpointMismatch(
                f"checkpoint covers {payload.get('total')!r} tasks, campaign has "
                f"{self.total}"
            )
        results: Dict[int, RunResult] = {}
        for key, record in payload.get("results", {}).items():
            index = int(key)
            if not 0 <= index < self.total:
                raise CheckpointMismatch(f"checkpoint result index {index} out of range")
            self._results[index] = record
            results[index] = RunResult.from_dict(record)
        self.loaded = len(results)
        return results

    # -- recording -----------------------------------------------------------

    def record(self, index: int, result: RunResult) -> None:
        """Buffer one completed run (call :meth:`flush` to persist)."""
        if index not in self._results:
            self.recorded += 1
        self._results[index] = result.to_dict()
        self._dirty = True

    def flush(self) -> None:
        """Atomically persist the buffered state (no-op when clean)."""
        if not self._dirty:
            return
        atomic_write_json(
            self.path,
            {
                "version": CAMPAIGN_CHECKPOINT_VERSION,
                "fingerprint": self.fingerprint,
                "total": self.total,
                "results": {str(index): record for index, record in self._results.items()},
            },
        )
        self._dirty = False

    @property
    def completed(self) -> int:
        return len(self._results)

    def remove(self) -> None:
        """Delete the checkpoint file (e.g. after a campaign finishes)."""
        try:
            os.remove(self.path)
        except FileNotFoundError:
            pass


def checkpoint_slug(name: str) -> str:
    """A filesystem-safe file-name fragment for a strategy/experiment name."""
    return re.sub(r"[^A-Za-z0-9._-]+", "_", name).strip("_") or "unnamed"
