"""On-disk eigensymbol cache with atomic writes.

Cache location comes from an explicit directory or the WORKBENCH_CACHE
environment variable; without either, caching is disabled.  Entries are
keyed by (level, label, sign, code version).  On load an entry must parse
and match its key, or it is a miss; whether its record is the symbol is
``EigenSymbol.from_record``'s check, and ``Workbench.symbol`` recomputes
and overwrites an entry that fails it.
"""

from __future__ import annotations

import json
import os
import tempfile

CODE_VERSION = "1"
ENV_VAR = "WORKBENCH_CACHE"


def resolve_cache_dir(explicit=None):
    d = explicit or os.environ.get(ENV_VAR)
    if not d:
        return None
    os.makedirs(d, exist_ok=True)
    return d


def _entry_path(cache_dir, level, label, sign):
    safe = "".join(ch if ch.isalnum() else "_" for ch in str(label))
    name = "symbol_%s_N%d_s%s_v%s.json" % (safe, level,
                                           "p" if sign > 0 else "m", CODE_VERSION)
    return os.path.join(cache_dir, name)


def load_symbol(cache_dir, level, label, sign):
    """The entry's record when it parses and matches its key, else None."""
    if not cache_dir:
        return None
    path = _entry_path(cache_dir, level, label, sign)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        key = (data["code_version"], data["level"], data["label"], data["sign"])
    except (OSError, ValueError, KeyError, TypeError):
        return None
    return data if key == (CODE_VERSION, level, label, sign) else None


def store_symbol(cache_dir, symbol):
    """Atomic write (temp file then rename) of a symbol cache entry."""
    if not cache_dir:
        return None
    entry = symbol.to_dict() | {"code_version": CODE_VERSION}
    path = _entry_path(cache_dir, symbol.level, symbol.label, symbol.sign)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(entry, fh, sort_keys=True)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path
