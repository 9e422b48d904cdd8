"""Core value types for the EZBFT lab: configurations, commands, instances,
and the ordering-attribute arithmetic everything else is built on."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Mapping, TypeVar

_Class = TypeVar("_Class", bound=type)


def typed(value: Any, kind: type, what: str) -> Any:
    """``value`` when it is a ``kind`` (a bool never counts as an int),
    else a TypeError naming ``what``. Loaders of parsed JSON use it so
    that malformed input fails at load time, not in the middle of a run."""
    if isinstance(value, kind) and type(value) is not bool:
        return value
    raise TypeError(f"{what} must be {kind.__name__}, got {type(value).__name__}")


def json_field(data: Any, key: str, kind: type, optional: bool = False) -> Any:
    """``data[key]`` of a parsed JSON object, checked by ``typed``. An
    optional field may be absent or null and then reads as None; a
    required one raises KeyError when absent."""
    if not isinstance(data, dict):
        raise TypeError(f"expected an object holding {key!r}, got {type(data).__name__}")
    value = data.get(key)
    if value is None and optional:
        return None
    if value is None and key not in data:
        raise KeyError(key)
    return typed(value, kind, f"field {key!r}")


def json_strings(data: Any, key: str) -> list[str]:
    """A required list-of-strings field."""
    return [typed(item, str, f"an item of {key!r}") for item in json_field(data, key, list)]


def cached_hash(cls: _Class) -> _Class:
    """Make a frozen dataclass compute its generated hash once per object.

    The hash is kept in the object's ``__dict__`` outside its fields, so
    ``==``, ``repr`` and ``dataclasses.replace`` ignore it. Composite values
    are hashed again and again by hash-consing and memo keys; caching the
    hash stops each of those from walking the whole value."""
    compute = cls.__hash__

    def __hash__(self: Any) -> int:
        cache = self.__dict__
        value = cache.get("_hash")
        if value is None:
            value = cache["_hash"] = compute(self)
        return value

    cls.__hash__ = __hash__  # type: ignore[assignment]
    return cls


@dataclass(frozen=True, order=True)
class InstanceId:
    """A slot in one replica's instance space, written ``owner.slot``."""

    owner: str
    slot: int

    def __str__(self) -> str:
        return f"{self.owner}.{self.slot}"

    @classmethod
    def parse(cls, text: str) -> "InstanceId":
        owner, _, slot = typed(text, str, "an instance id").rpartition(".")
        if not owner:
            raise ValueError(f"malformed instance id: {text!r}")
        return cls(owner, int(slot))


@dataclass(frozen=True)
class Command:
    """A client command. Interference is decided purely by ``key``."""

    id: str
    client: str
    key: str
    payload: str

    def to_json(self) -> dict[str, Any]:
        return {"id": self.id, "client": self.client, "key": self.key, "payload": self.payload}

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "Command":
        return cls(*(json_field(data, name, str) for name in ("id", "client", "key", "payload")))


@cached_hash
@dataclass(frozen=True)
class OrderingTuple:
    """``(command, deps, seq)`` as assigned by a replica.

    deps cite instances, not tuples; a dep may reference an instance no
    correct replica ever heard of (a byzantine owner's private slot), so
    nothing here requires deps to resolve.
    """

    command: Command
    deps: frozenset[InstanceId]
    seq: int

    def to_json(self) -> dict[str, Any]:
        return {
            "command": self.command.to_json(),
            "deps": [str(d) for d in sorted(self.deps)],
            "seq": self.seq,
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "OrderingTuple":
        return cls(
            Command.from_json(json_field(data, "command", dict)),
            frozenset(InstanceId.parse(d) for d in json_strings(data, "deps")),
            json_field(data, "seq", int),
        )


# Owner numbers are plain ints; the mapping to a leader lives on Config.
OwnerNumber = int


@dataclass(frozen=True)
class Config:
    """A run's fixed membership: n = 3f + 1 replicas in a fixed order.

    The position of a replica in ``replica_ids`` is what breaks execution
    ties and what owner numbers rotate over.
    """

    n: int
    f: int
    replica_ids: tuple[str, ...]
    byzantine_ids: frozenset[str] = frozenset()
    faulty_client_ids: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if self.n != 3 * self.f + 1:
            raise ValueError(f"n must equal 3f+1, got n={self.n} f={self.f}")
        if len(self.replica_ids) != self.n or len(set(self.replica_ids)) != self.n:
            raise ValueError("replica_ids must be n distinct ids")
        if not self.byzantine_ids <= set(self.replica_ids):
            raise ValueError("byzantine_ids must be a subset of replica_ids")
        if len(self.byzantine_ids) > self.f:
            raise ValueError("at most f replicas may be byzantine")
        for rid in self.replica_ids:
            if "." in rid or "#" in rid:
                raise ValueError(f"replica id {rid!r} may not contain '.' or '#'")

    @property
    def quorum_slow(self) -> int:
        return 2 * self.f + 1

    @property
    def quorum_owner_change(self) -> int:
        return self.n - self.f

    def position(self, replica: str) -> int:
        return self.replica_ids.index(replica)

    def leader_at(self, owner_number: OwnerNumber) -> str:
        return self.replica_ids[owner_number % self.n]

    def default_owner_number(self, instance: InstanceId) -> OwnerNumber:
        """The owner number an instance starts at: its owner leads it."""
        return self.position(instance.owner)

    def correct_replicas(self) -> tuple[str, ...]:
        return tuple(r for r in self.replica_ids if r not in self.byzantine_ids)

    def to_json(self) -> dict[str, Any]:
        return {
            "n": self.n,
            "f": self.f,
            "replica_ids": list(self.replica_ids),
            "byzantine_ids": sorted(self.byzantine_ids),
            "faulty_client_ids": sorted(self.faulty_client_ids),
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "Config":
        return cls(
            json_field(data, "n", int),
            json_field(data, "f", int),
            tuple(json_strings(data, "replica_ids")),
            frozenset(json_strings(data, "byzantine_ids")),
            frozenset(json_strings(data, "faulty_client_ids")),
        )


def interferes(a: Command, b: Command) -> bool:
    """Two distinct commands interfere iff they touch the same key."""
    return a.id != b.id and a.key == b.key


def tuples_equal(p: OrderingTuple, q: OrderingTuple) -> bool:
    """Equality for protocol purposes: command identity, dep set, seq."""
    return p.command.id == q.command.id and p.deps == q.deps and p.seq == q.seq


def tuple_sort_key(t: OrderingTuple) -> tuple:
    """Canonical order used wherever one tuple must be picked deterministically."""
    return (t.seq, t.command.id, tuple(sorted(str(d) for d in t.deps)))


def canonical_json(value: Any) -> str:
    """Stable, compact JSON used for digests and golden files."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def digest(value: Any) -> str:
    """Short stable digest of a JSON-serializable structure."""
    return hashlib.sha256(canonical_json(value).encode()).hexdigest()[:16]
