"""IPv4 addressing arithmetic used throughout the simulator and tracenet.

Addresses are plain ``int`` values in ``[0, 2**32)`` everywhere in the hot
paths; this module provides the conversions and the CIDR/subnet arithmetic
the paper relies on (Section 3.2: hierarchical addressing, mate-31/mate-30
adjacency, boundary addresses).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

MAX_IPV4 = 2**32 - 1
ADDRESS_BITS = 32


class AddressError(ValueError):
    """Raised for malformed IPv4 addresses or prefixes."""


def parse_ip(text: str) -> int:
    """Parse dotted-quad notation into an integer address.

    >>> parse_ip("10.0.0.1")
    167772161
    """
    parts = text.strip().split(".")
    if len(parts) != 4:
        raise AddressError(f"not a dotted quad: {text!r}")
    value = 0
    for part in parts:
        if not part.isdigit():
            raise AddressError(f"non-numeric octet in {text!r}")
        octet = int(part)
        if octet > 255:
            raise AddressError(f"octet out of range in {text!r}")
        value = (value << 8) | octet
    return value


def format_ip(addr: int) -> str:
    """Format an integer address as dotted-quad notation.

    >>> format_ip(167772161)
    '10.0.0.1'
    """
    if not 0 <= addr <= MAX_IPV4:
        raise AddressError(f"address out of range: {addr}")
    return ".".join(str((addr >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def ip(value) -> int:
    """Coerce a dotted quad or integer into an integer address."""
    if isinstance(value, int):
        if not 0 <= value <= MAX_IPV4:
            raise AddressError(f"address out of range: {value}")
        return value
    if isinstance(value, str):
        return parse_ip(value)
    raise AddressError(f"cannot interpret {value!r} as an IPv4 address")


def mask_for(prefix_len: int) -> int:
    """Network mask (as an integer) for a prefix length."""
    if not 0 <= prefix_len <= ADDRESS_BITS:
        raise AddressError(f"prefix length out of range: {prefix_len}")
    if prefix_len == 0:
        return 0
    return (MAX_IPV4 << (ADDRESS_BITS - prefix_len)) & MAX_IPV4


def network_of(addr: int, prefix_len: int) -> int:
    """The network (lowest) address of ``addr``'s /prefix_len block."""
    return addr & mask_for(prefix_len)


def broadcast_of(addr: int, prefix_len: int) -> int:
    """The broadcast (highest) address of ``addr``'s /prefix_len block."""
    return network_of(addr, prefix_len) | (MAX_IPV4 >> prefix_len if prefix_len else MAX_IPV4)


def mate31(addr: int) -> int:
    """The /31 mate of an address: the other address in its /31 block.

    Two addresses sharing a 31-bit prefix are "mate-31" of each other
    (paper Section 3.2(i)).
    """
    return addr ^ 0b1


def mate30(addr: int) -> int:
    """The /30 mate of an address.

    The paper uses the /30 mate as a fallback when the /31 mate is not in
    use.  Within a /30 point-to-point allocation the two *usable* host
    addresses are ``network+1`` and ``network+2``; the mate-30 of each is
    the other.  For the boundary addresses of the /30 we return the other
    boundary so that the function is a self-inverse involution on every
    /30 block.
    """
    return addr ^ 0b11


def same_prefix(a: int, b: int, prefix_len: int) -> bool:
    """True when two addresses share a common ``prefix_len``-bit prefix."""
    return network_of(a, prefix_len) == network_of(b, prefix_len)


def common_prefix_length(a: int, b: int) -> int:
    """Length of the longest common prefix of two addresses (0..32)."""
    diff = a ^ b
    if diff == 0:
        return ADDRESS_BITS
    return ADDRESS_BITS - diff.bit_length()


@dataclass(frozen=True, order=True)
class Prefix:
    """An IPv4 CIDR block: a network address plus a prefix length.

    ``Prefix`` is the unit the paper reasons about: a subnet S with a /p
    prefix is written ``Sp``.  Instances are normalized (the stored network
    address always has its host bits zeroed) and hashable, so they can be
    used as ground-truth identifiers and dictionary keys.
    """

    network: int
    length: int

    def __post_init__(self):
        if not 0 <= self.length <= ADDRESS_BITS:
            raise AddressError(f"prefix length out of range: {self.length}")
        normalized = network_of(self.network, self.length)
        if normalized != self.network:
            object.__setattr__(self, "network", normalized)

    # -- constructors ------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``"a.b.c.d/len"`` notation.

        >>> Prefix.parse("10.0.0.0/30")
        Prefix('10.0.0.0/30')
        """
        try:
            addr_text, len_text = text.strip().split("/")
        except ValueError:
            raise AddressError(f"not CIDR notation: {text!r}") from None
        return cls(parse_ip(addr_text), int(len_text))

    @classmethod
    def containing(cls, addr: int, length: int) -> "Prefix":
        """The /length block that contains ``addr``."""
        return cls(network_of(addr, length), length)

    # -- block arithmetic --------------------------------------------------

    @property
    def broadcast(self) -> int:
        """Highest address in the block."""
        return broadcast_of(self.network, self.length)

    @property
    def size(self) -> int:
        """Total number of addresses in the block (2^(32-length))."""
        return 1 << (ADDRESS_BITS - self.length)

    @property
    def host_capacity(self) -> int:
        """Number of assignable host addresses.

        /31 and /32 blocks have no reserved boundary addresses (RFC 3021);
        larger blocks reserve the network and broadcast addresses.
        """
        if self.length >= 31:
            return self.size
        return self.size - 2

    def __contains__(self, addr) -> bool:
        # ``network`` has its host bits zeroed, so ``addr`` is inside iff
        # the two agree above them (a shift by 32 leaves 0 for /0).
        return (ip(addr) ^ self.network) >> (ADDRESS_BITS - self.length) == 0

    def contains_prefix(self, other: "Prefix") -> bool:
        """True when ``other`` is equal to or nested inside this block."""
        return other.length >= self.length and other.network in self

    def overlaps(self, other: "Prefix") -> bool:
        """True when the two blocks share any address."""
        return self.contains_prefix(other) or other.contains_prefix(self)

    def addresses(self) -> Iterator[int]:
        """Iterate every address in the block, lowest first."""
        return iter(range(self.network, self.network + self.size))

    def host_addresses(self) -> Iterator[int]:
        """Iterate assignable host addresses (excludes boundaries for /30 and shorter)."""
        if self.length >= 31:
            return self.addresses()
        return iter(range(self.network + 1, self.broadcast))

    def boundary_addresses(self) -> List[int]:
        """Network and broadcast addresses; empty for /31 and /32 (RFC 3021)."""
        if self.length >= 31:
            return []
        return [self.network, self.broadcast]

    def parent(self) -> "Prefix":
        """The enclosing block one prefix level up (e.g. /30 -> /29)."""
        if self.length == 0:
            raise AddressError("/0 has no parent")
        return Prefix.containing(self.network, self.length - 1)

    def halves(self) -> List["Prefix"]:
        """Split into the two /``length+1`` children (H9 uses this)."""
        if self.length >= ADDRESS_BITS:
            raise AddressError("/32 cannot be split")
        child_len = self.length + 1
        sibling = self.network | (1 << (ADDRESS_BITS - child_len))
        return [Prefix(self.network, child_len), Prefix(sibling, child_len)]

    def grow(self) -> "Prefix":
        """Alias of :meth:`parent` named for the exploration loop's intent."""
        return self.parent()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Prefix('{self}')"

    def __str__(self) -> str:
        return f"{format_ip(self.network)}/{self.length}"


def enclosing_prefix(addresses, max_length: int = ADDRESS_BITS) -> Optional[Prefix]:
    """The smallest CIDR block covering every address in ``addresses``.

    Returns ``None`` for an empty collection.  Used by the evaluation layer
    to compare collected interface sets against ground-truth blocks.
    """
    addrs = [ip(a) for a in addresses]
    if not addrs:
        return None
    lo, hi = min(addrs), max(addrs)
    length = min(common_prefix_length(lo, hi), max_length)
    return Prefix.containing(lo, length)
