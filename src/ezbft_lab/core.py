"""Core value types for the EZBFT lab: configurations, commands, instances,
and the ordering-attribute arithmetic everything else is built on."""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, fields, is_dataclass
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Iterable, Mapping, NamedTuple, TypeVar

_Class = TypeVar("_Class", bound=type)
_Result = TypeVar("_Result")


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
    # The common case first: the error text costs more than the check.
    if isinstance(value, kind) and type(value) is not bool:
        return value
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


def cached_json(value: Any, to_json: Callable[[Any], Any]) -> str:
    """``canonical_json(to_json(value))`` of a frozen value, computed once
    per object and kept in its ``__dict__`` beside ``cached_hash``'s hash.
    Each frozen type has one JSON form, so one slot serves every caller."""
    cache = value.__dict__
    text = cache.get("_json")
    if text is None:
        text = cache["_json"] = canonical_json(to_json(value))
    return text


class InstanceId(NamedTuple):
    """A slot in one replica's instance space, written ``owner.slot``.

    A named tuple, so its hash, ``hash((owner, slot))``, and its order are
    the tuple's, computed in C: state keys and memo keys hash instance ids
    more than any other value."""

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


def cached_call(value: Any, compute: Callable[..., _Result], *args: Any) -> _Result:
    """``compute(value, *args)`` of a frozen value, computed once per object
    and arguments and kept in its ``__dict__`` beside ``cached_hash``'s
    hash, so ``==``, ``repr`` and ``dataclasses.replace`` ignore it. The
    arguments must be hashable and name everything else ``compute`` reads:
    a message checked under two configurations gets each one's verdict."""
    cache = value.__dict__
    results = cache.get("_results")
    if results is None:
        results = cache["_results"] = {}
    key = (compute, *args)
    try:
        return results[key]
    except KeyError:
        result = results[key] = compute(value, *args)
        return result


@functools.cache
def _layout(cls: type) -> tuple[str | None, tuple[str, ...]]:
    """A dataclass's or named tuple's ``kind`` class attribute, or None
    when it has no str one, and its field names in declaration order."""
    names = tuple(f.name for f in fields(cls)) if is_dataclass(cls) else cls._fields
    kind = getattr(cls, "kind", None)
    return (kind if isinstance(kind, str) else None), names


def json_fields(value: Any) -> dict[str, Any]:
    """The JSON object of a dataclass or named tuple: first the class's
    ``kind`` when the class defines a str attribute of that name, then
    every field in declaration order, each written by ``json_value``. A
    class whose JSON is exactly its fields says ``to_json = json_fields``."""
    kind, names = _layout(type(value))
    data: dict[str, Any] = {} if kind is None else {"kind": kind}
    for name in names:
        data[name] = json_value(getattr(value, name))
    return data


def json_value(value: Any) -> Any:
    """The JSON of one value. None, str, int and bool stay as they are; a
    dict keeps its keys and has each value written; an InstanceId becomes
    its text; a value with its own ``to_json`` goes through that; a tuple
    or list becomes a list and a frozenset the sorted list of its items."""
    if value is None or isinstance(value, (str, int)):
        return value
    if isinstance(value, dict):
        return {key: json_value(item) for key, item in value.items()}
    if isinstance(value, InstanceId):
        return str(value)
    to_json = getattr(value, "to_json", None)
    if to_json is not None:
        return to_json()
    if isinstance(value, (tuple, list)):
        return [json_value(item) for item in value]
    if isinstance(value, frozenset):
        return [json_value(item) for item in sorted(value)]
    raise TypeError(f"no JSON form for {type(value).__name__}")


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
        # Derived once, outside the fields: handlers ask for positions and
        # the search for correct replicas at every step.
        object.__setattr__(self, "_positions", {r: i for i, r in enumerate(self.replica_ids)})
        object.__setattr__(
            self, "_correct", tuple(r for r in self.replica_ids if r not in self.byzantine_ids)
        )

    @property
    def quorum_slow(self) -> int:
        return 2 * self.f + 1

    @property
    def quorum_owner_change(self) -> int:
        return self.n - self.f

    def position(self, replica: str) -> int:
        """A replica's index in ``replica_ids``; ValueError for a non-replica."""
        found = self._positions.get(replica)
        return self.replica_ids.index(replica) if found is None else found

    def leader_at(self, owner_number: OwnerNumber) -> str:
        return self.replica_ids[owner_number % self.n]

    def default_owner_number(self, instance: InstanceId) -> OwnerNumber:
        """The owner number an instance starts at: its owner leads it."""
        return self.position(instance.owner)

    def correct_replicas(self) -> tuple[str, ...]:
        return self._correct

    to_json = json_fields

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


# Built once: json.dumps with these arguments builds a new encoder per call.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(value: Any) -> str:
    """Stable, compact JSON used for digests and golden files: sorted keys,
    no spaces, non-ASCII characters escaped."""
    return _CANONICAL.encode(value)


def json_object(members: Iterable[tuple[str, str]]) -> str:
    """The JSON object of ``(key, canonical JSON text of its value)``
    members, written as ``canonical_json`` writes a dict: keys sorted,
    no spaces, keys ASCII-escaped."""
    return "{" + ",".join(
        [encode_basestring_ascii(key) + ":" + text for key, text in sorted(members)]
    ) + "}"


def state_json(state: Any, fields: Iterable[tuple[str, Callable[[Any], str]]]) -> str:
    """The canonical JSON text of a node state: the JSON object of each
    attribute named in ``fields``, encoded by the function beside it.

    The state keeps ``(value, text)`` for each field in ``texts``, and a
    clone starts from its parent's, so a field equal to the value its kept
    text was built from reuses that text. That is sound because a Sim
    never changes a state once it installed it."""
    kept = state.texts or {}
    texts = {}
    for name, encode in fields:
        value = getattr(state, name)
        old = kept.get(name)
        texts[name] = (value, old[1] if old is not None and old[0] == value else encode(value))
    state.texts = texts
    return json_object([(name, text) for name, (_value, text) in texts.items()])


def text_digest(text: str) -> str:
    """Short stable digest of a canonical JSON text."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def digest(value: Any) -> str:
    """Short stable digest of a JSON-serializable structure."""
    return text_digest(canonical_json(value))
