"""Tamper-evident signed hash chain for federated-round artifacts.

Blocks are canonically serialized (length-prefixed, little-endian) and
linked by SHA-256; transactions and block headers carry Ed25519
signatures. No forks or reorgs: one designated proposer appends per block,
and in a simulator run that is always the server key. `select_proposer`
is a stake-weighted draw that the simulator does not call.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field, replace
from enum import IntEnum

import numpy as np
from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

CHAIN_LOG_MAGIC = b"BFELCHN1"
HASH_BYTES = 32


class InvalidTransactionError(ValueError):
    """A transaction offered for packaging fails signature verification."""

    def __init__(self, index: int):
        super().__init__(f"transaction {index} has an invalid signature")
        self.index = index


class ChainFormatError(ValueError):
    """A serialized chain failed to parse."""

    def __init__(self, block_index: int, reason: str):
        super().__init__(f"block {block_index}: {reason}")
        self.block_index = block_index


class StakeError(ValueError):
    pass


# --- canonical little-endian serialization helpers ---


def _lp(b: bytes) -> bytes:
    return struct.pack("<I", len(b)) + b


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise ValueError("truncated")
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def lp(self) -> bytes:
        return self.take(int.from_bytes(self.take(4), "little"))  # a "<I" prefix

    def done(self) -> bool:
        return self.pos == len(self.buf)


# --- keys and signatures ---


@dataclass(frozen=True)
class KeyPair:
    secret: bytes = field(repr=False)
    public: bytes
    # `secret` parsed once, so that signing does not parse it again
    private_key: Ed25519PrivateKey = field(compare=False, repr=False)
    scheme: str = "ed25519"


def keygen(seed: int) -> KeyPair:
    """Deterministic Ed25519 keypair derived from an integer seed."""
    sk_bytes = hashlib.sha256(
        b"bfel-keygen-v1" + seed.to_bytes(16, "little", signed=True)
    ).digest()
    sk = Ed25519PrivateKey.from_private_bytes(sk_bytes)
    pk = sk.public_key().public_bytes(
        serialization.Encoding.Raw, serialization.PublicFormat.Raw
    )
    return KeyPair(secret=sk_bytes, public=pk, private_key=sk)


def sign(key: KeyPair, message: bytes) -> bytes:
    return key.private_key.sign(message)


def verify(public: bytes, message: bytes, signature: bytes) -> bool:
    try:
        Ed25519PublicKey.from_public_bytes(public).verify(signature, message)
        return True
    except (InvalidSignature, ValueError):
        return False


# --- transactions ---


class TxKind(IntEnum):
    CLIENT_UPDATE = 1
    GLOBAL_MODEL = 2
    POLICY = 3


def _tx_body(kind: TxKind, timestamp: int, payload_digest: bytes) -> bytes:
    """The bytes a transaction's signature covers."""
    return struct.pack("<BQ", kind, timestamp) + _lp(payload_digest)


@dataclass(frozen=True)
class SignedTransaction:
    kind: TxKind
    payload_digest: bytes  # 32-byte hash of the serialized payload
    sender_public: bytes
    signature: bytes
    timestamp: int  # milliseconds (simulated clock)

    def signed_payload(self) -> bytes:
        return _tx_body(self.kind, self.timestamp, self.payload_digest)

    def verified(self) -> bool:
        return verify(self.sender_public, self.signed_payload(), self.signature)

    def to_bytes(self) -> bytes:
        return (
            self.signed_payload()
            + _lp(self.sender_public)
            + _lp(self.signature)
        )


def make_transaction(
    kind: TxKind, payload_digest: bytes, sender: KeyPair, timestamp: int
) -> SignedTransaction:
    return SignedTransaction(
        kind=kind,
        payload_digest=payload_digest,
        sender_public=sender.public,
        signature=sign(sender, _tx_body(kind, timestamp, payload_digest)),
        timestamp=timestamp,
    )


def _parse_transaction(r: _Reader) -> SignedTransaction:
    kind, timestamp = r.unpack("<BQ")
    kind = TxKind(kind)
    digest = r.lp()
    public = r.lp()
    signature = r.lp()
    return SignedTransaction(kind, digest, public, signature, timestamp)


# --- blocks and chains ---


@dataclass(frozen=True)
class Block:
    index: int
    previous_hash: bytes
    transactions: tuple[SignedTransaction, ...]
    proposer_public: bytes
    proposer_signature: bytes
    timestamp: int

    def header_bytes(self) -> bytes:
        out = (
            struct.pack("<Q", self.index)
            + _lp(self.previous_hash)
            + struct.pack("<QI", self.timestamp, len(self.transactions))
        )
        for tx in self.transactions:
            out += tx.to_bytes()
        out += _lp(self.proposer_public)
        return out

    def to_bytes(self) -> bytes:
        return self.header_bytes() + _lp(self.proposer_signature)

    def hash(self) -> bytes:
        return hashlib.sha256(self.to_bytes()).digest()


def _parse_block(buf: bytes) -> Block:
    r = _Reader(buf)
    (index,) = r.unpack("<Q")
    previous_hash = r.lp()
    timestamp, count = r.unpack("<QI")
    txs = tuple(_parse_transaction(r) for _ in range(count))
    proposer_public = r.lp()
    proposer_signature = r.lp()
    if not r.done():
        raise ValueError("trailing bytes after block")
    return Block(index, previous_hash, txs, proposer_public, proposer_signature, timestamp)


GENESIS = Block(
    index=0,
    previous_hash=b"\x00" * HASH_BYTES,
    transactions=(),
    proposer_public=b"",
    proposer_signature=b"",
    timestamp=0,
)
GENESIS_HASH = GENESIS.hash()


def new_chain() -> tuple[Block, ...]:
    """A chain is a tuple of blocks, genesis first."""
    return (GENESIS,)


def append_block(
    chain: tuple[Block, ...],
    transactions: list[SignedTransaction],
    proposer: KeyPair,
    timestamp: int,
) -> tuple[Block, ...]:
    """Return a new chain extended by one proposer-signed block."""
    for i, tx in enumerate(transactions):
        if not tx.verified():
            raise InvalidTransactionError(i)
    block = Block(
        index=len(chain),
        previous_hash=chain[-1].hash(),
        transactions=tuple(transactions),
        proposer_public=proposer.public,
        proposer_signature=b"",
        timestamp=timestamp,
    )
    signature = sign(proposer, block.header_bytes())
    return chain + (replace(block, proposer_signature=signature),)


def validate_chain(chain: tuple[Block, ...]) -> tuple[bool, int | None]:
    """True iff all hash links and signatures hold; else earliest bad index."""
    if not chain or chain[0].to_bytes() != GENESIS.to_bytes():
        return False, 0
    prev_hash = GENESIS_HASH
    for pos, block in enumerate(chain[1:], start=1):
        if block.index != pos:
            return False, pos
        if block.previous_hash != prev_hash:
            return False, pos
        for tx in block.transactions:
            if not tx.verified():
                return False, pos
        if not verify(
            block.proposer_public, block.header_bytes(), block.proposer_signature
        ):
            return False, pos
        prev_hash = block.hash()
    return True, None


def export_chain(chain: tuple[Block, ...]) -> bytes:
    """Length-prefixed binary log of canonical block serializations."""
    return b"".join(
        [CHAIN_LOG_MAGIC, struct.pack("<I", len(chain))]
        + [_lp(block.to_bytes()) for block in chain]
    )


def import_chain(blob: bytes) -> tuple[Block, ...]:
    r = _Reader(blob)
    try:
        if r.take(8) != CHAIN_LOG_MAGIC:
            raise ChainFormatError(0, "bad magic")
        (count,) = r.unpack("<I")
    except ValueError:
        raise ChainFormatError(0, "truncated header") from None
    blocks = []
    for i in range(count):
        try:
            blocks.append(_parse_block(r.lp()))
        except ValueError as e:
            raise ChainFormatError(i, str(e)) from None
    if not r.done():
        raise ChainFormatError(count - 1 if count else 0, "trailing bytes")
    return tuple(blocks)


def validate_chain_bytes(blob: bytes) -> tuple[bool, int | None]:
    """Validate a serialized chain; parse failures count as invalid blocks."""
    try:
        chain = import_chain(blob)
    except ChainFormatError as e:
        return False, e.block_index
    return validate_chain(chain)


# --- proposer selection ---


def select_proposer(stakes: list[float], round_no: int, seed: int) -> int:
    """Stake-weighted proposer draw, deterministic in (stakes, round, seed)."""
    weights = np.asarray(stakes, dtype=np.float64)
    if np.any(weights < 0):
        raise StakeError("stakes must be nonnegative")
    total = weights.sum()
    if total <= 0:
        raise StakeError("total stake must be positive")
    rng = np.random.default_rng([seed, round_no])
    u = rng.random() * total
    return int(np.searchsorted(np.cumsum(weights), u, side="right"))


# --- payload digests (wire format between FL modules and the ledger) ---


def _digest(tag: bytes, header: bytes, *arrays) -> bytes:
    """SHA-256 of tag, header and each array as length-prefixed <f8 bytes."""
    h = hashlib.sha256(tag + header)
    for arr in arrays:
        h.update(_lp(np.ascontiguousarray(arr, dtype="<f8").tobytes()))
    return h.digest()


def digest_update(update) -> bytes:
    """Canonical digest of a client update.

    FedCurv updates hash (F_k, g_k, theta_local); FedAvg updates, which
    carry no Fisher, hash theta_local alone under their own tag.
    """
    header = struct.pack("<QQQ", update.client_id, update.round, update.sample_count)
    if update.fisher is None:
        return _digest(b"bfel-plain-update-v1", header, update.theta_local.values)
    return _digest(
        b"bfel-client-update-v1", header, update.fisher.values,
        update.gradient.values, update.theta_local.values,
    )


def digest_global_model(theta_values, round_no: int) -> bytes:
    return _digest(
        b"bfel-global-model-v1", struct.pack("<Q", round_no), theta_values
    )
