"""Durable files: the one way a file that is read back later is written,
and the one rule for when a read-back entry is trusted.

:func:`atomic_write_text` replaces a whole file in one rename or leaves
the previous one.  :class:`ContentStore` is a directory of
``<token>.json`` entries tagged with a ``format``, whose loads return
the decoded entry or a miss, never an error.  The result cache
(:mod:`repro.offline.cache`) keeps its pair verdicts in one content
store; it is the one durable store every analysis mode and the service
resume from.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from pathlib import Path
from typing import Callable, Optional

_HASH_CHUNK = 1 << 20

#: What a caller's decode raises on an entry of the wrong shape.
_UNDECODABLE = (AttributeError, KeyError, TypeError, ValueError)


def file_sha(path: Path) -> str:
    """Content digest of one file; missing files hash to a sentinel."""
    h = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            while True:
                block = fh.read(_HASH_CHUNK)
                if not block:
                    break
                h.update(block)
    except OSError:
        return "absent"
    return h.hexdigest()


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    """Replace ``path`` with ``text``, or leave it as it was.

    The text goes to a temp file in the target's directory, created with
    the mode ``Path.write_text`` would give, which is then renamed over
    the target.  On any failure the temp file is removed and the error
    propagates.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


class ContentStore:
    """``<root>/<token>.json`` entries, each a JSON object whose
    ``format`` field must equal the store's."""

    def __init__(
        self,
        root: str | os.PathLike,
        format: int,
        *,
        on_evict: Optional[Callable[[], None]] = None,
    ) -> None:
        self.root = Path(root)
        self.format = format
        #: Entries this store unlinked because they failed to decode.
        self.evictions = 0
        self._on_evict = on_evict

    def path(self, token: str) -> Path:
        return self.root / f"{token}.json"

    def load(self, token: str, decode: Callable[[dict], object]):
        """``decode(entry)``, or None on a miss.

        An absent or unreadable file is a plain miss, and so is an entry
        of another ``format`` (the next :meth:`store` overwrites it).  An
        entry that fails to decode — torn JSON, a non-object, ``decode``
        raising — is unlinked and counted, and is a miss too.
        """
        path = self.path(token)
        try:
            raw = path.read_bytes()
        except OSError:
            return None
        try:
            payload = json.loads(raw)
            if not isinstance(payload, dict):
                raise TypeError("entry is not a JSON object")
            if payload.get("format") != self.format:
                return None
            return decode(payload)
        except _UNDECODABLE:
            self.evictions += 1
            if self._on_evict is not None:
                self._on_evict()
            with contextlib.suppress(OSError):
                path.unlink()
            return None

    def store(self, token: str, payload: dict) -> None:
        """Write ``payload`` plus the store's ``format`` at ``token``;
        a read-only or full disk costs a later miss, not an error."""
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            atomic_write_text(
                self.path(token), json.dumps({"format": self.format, **payload})
            )
        except OSError:
            pass
