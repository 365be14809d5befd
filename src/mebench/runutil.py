"""Seed derivation, canonical hashing, atomic file writes, the JSON form
of every persisted dataclass, and the cache key, cache entry and job
fan-out shared by the OFI sidecars, the LOSO fold entries and the
full-data models.

All randomness in a run flows from one root seed, fanned out by labeled
derivation: derive_seed(root, *labels) hashes "root|label|..." with
SHA-256 and takes the low 64 bits. Streams are numpy PCG64 generators,
which are platform-stable.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
import os
import tempfile
import types
import typing
from pathlib import Path

import numpy as np


def derive_seed(root: int, *labels) -> int:
    """64-bit seed derived from a root seed and a label path."""
    key = "|".join([str(int(root))] + [str(lbl) for lbl in labels])
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def derived_rng(root: int, *labels) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(derive_seed(root, *labels)))


def canonical_json(obj) -> str:
    """Deterministic JSON used for provenance hashing."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def stable_hash(obj) -> str:
    """Hex SHA-256 of the canonical JSON encoding of obj."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def hash_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def read_json_object(path) -> dict | None:
    """The JSON object stored at path, or None when the file is missing, is
    not UTF-8 or not JSON, or holds something other than an object. Cache
    readers treat None as a miss, so a damaged entry is recomputed."""
    try:
        obj = json.loads(Path(path).read_bytes().decode("utf-8"))
    except (FileNotFoundError, ValueError):  # ValueError covers bad UTF-8 and bad JSON
        return None
    return obj if isinstance(obj, dict) else None


def to_json_dict(obj) -> dict:
    """`dataclasses.asdict` of a dataclass, with each enum member written as its value."""
    json_value = lambda v: v.value if isinstance(v, enum.Enum) else v
    return dataclasses.asdict(obj, dict_factory=lambda items: {k: json_value(v) for k, v in items})


def from_json_dict(cls, d: dict):
    """Rebuild a dataclass from its `to_json_dict` form, by the resolved
    field types: nested dataclasses, enum members (from their values) and
    `Optional[...]` fields are rebuilt, and tuples, which JSON stores as
    lists, become tuples again. Every field is required: a missing one
    raises KeyError, a bad enum value ValueError, and a non-object or a
    value of the wrong type TypeError. int, str and bool fields take only
    their own type (a bool is not an int). No record read back has a
    field of another type, such as float."""
    return cls(**{name: read(d[name]) for name, read in _field_readers(cls)})


@functools.cache
def _field_readers(cls) -> tuple:
    """(name, reader) of each field of a dataclass; reader maps the JSON value to the field value."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, _reader(hints[f.name])) for f in dataclasses.fields(cls))


def _reader(tp):
    origin = typing.get_origin(tp)
    if origin in (typing.Union, types.UnionType):  # Optional[X]
        (inner,) = [arg for arg in typing.get_args(tp) if arg is not type(None)]
        read = _reader(inner)
        return lambda value: None if value is None else read(value)
    if origin is tuple:  # tuple[X, ...]
        read = _reader(typing.get_args(tp)[0])
        return lambda value: tuple(read(v) for v in _checked(value, list))
    if tp in (int, str, bool):
        return functools.partial(_checked, expected=tp)
    if dataclasses.is_dataclass(tp):
        return functools.partial(from_json_dict, tp)
    if isinstance(tp, type) and issubclass(tp, enum.Enum):
        return tp
    raise TypeError(f"no JSON reader for a field of type {tp!r}")


def _checked(value, expected):
    """value itself when it is an instance of expected and not a bool standing in for a number, else TypeError."""
    if not isinstance(value, expected) or (isinstance(value, bool) and expected is not bool):
        raise TypeError(f"expected {expected}, got {type(value).__name__} {value!r}")
    return value


def atomic_write_bytes(path, payload: bytes) -> None:
    """Write via temp file + rename so readers never see partial files."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def cache_key(inputs: dict, files=()) -> str:
    """The content address of an artifact: the hash of the inputs it is
    computed from plus the bytes of each file it reads. This is the only
    place a cache key is built, so an entry can be reused only when nothing
    it depends on has changed. Code is not part of any key."""
    return stable_hash({**inputs, "files": [hash_file(p) for p in files]})


def read_cache_entry(path, key: str, read):
    """read(value) of the entry at path when its stored key equals key, else
    None. A missing or damaged file is a miss, and so is a value that read
    refuses: by returning None, or by raising KeyError or TypeError."""
    entry = read_json_object(path) or {}
    try:
        return read(entry["value"]) if entry.get("key") == key else None
    except (KeyError, TypeError):
        return None


def write_cache_entry(path, key: str, value) -> None:
    atomic_write_text(path, json.dumps({"key": key, "value": value}, sort_keys=True) + "\n")


def run_jobs(fn, jobs: list, workers: int = 1):
    """Yield fn(job) for each job, in order, as each finishes. With workers > 1 and two or more jobs they run
    in a process pool, imported only then, of at most one worker per job (a forking pool starts all at once)."""
    if workers > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            yield from pool.map(fn, jobs)
    else:
        yield from map(fn, jobs)
