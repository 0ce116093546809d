"""Tamper-evident signed hash chain for federated-round artifacts.

Blocks are canonically serialized (length-prefixed, little-endian) and
linked by SHA-256; transactions and block headers carry Ed25519
signatures. No forks or reorgs: one designated proposer appends per block,
and in a simulator run that is always the server key. `select_proposer`
is a stake-weighted draw that the simulator does not call.

`validate_chain` verifies a chain's signatures on up to every usable CPU:
forked children each verify one slice and send back one byte per
signature, while the parent verifies the largest slice. In a 54 MB bfel
process on a 2-vCPU Linux VM, the parent spends 0.6 ms in `fork()`, the
child runs 1.3 ms after it and is reaped 2.1 ms after it, and one verify
takes about 110 us; so the parent verifies about 20 signatures (the head
start) before a child is done with none. Only that one-child split was
measured. The verdict is the serial one whatever the split.
"""

from __future__ import annotations

import hashlib
import os
import struct
import warnings
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
    public: bytes
    private_key: Ed25519PrivateKey = field(compare=False, repr=False)


def keygen(seed: int) -> KeyPair:
    """Deterministic Ed25519 keypair derived from an integer seed."""
    sk_bytes = hashlib.sha256(
        b"bfel-keygen-v1" + seed.to_bytes(16, "little", signed=True)
    ).digest()
    sk = Ed25519PrivateKey.from_private_bytes(sk_bytes)
    pk = sk.public_key().public_bytes(
        serialization.Encoding.Raw, serialization.PublicFormat.Raw
    )
    return KeyPair(public=pk, private_key=sk)


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


# Signatures the parent verifies while a forked child starts, exits and is
# reaped (2.1 ms after fork() at about 110 us a verify, measured with one
# child on 2 CPUs; see the module docstring). The parent takes this many
# more than each child, and a child is forked only when its share is at
# least this many.
HEAD_START = 20


def _signatures(block: Block) -> list[tuple[bytes, bytes, bytes]]:
    """A block's (public key, message, signature) triples, proposer's last."""
    return [
        (tx.sender_public, tx.signed_payload(), tx.signature)
        for tx in block.transactions
    ] + [(block.proposer_public, block.header_bytes(), block.proposer_signature)]


def _verify_slice(triples) -> bytes:
    """One byte per triple: 1 if its signature verifies, else 0."""
    return bytes(verify(*triple) for triple in triples)


def _fork_verifier(triples) -> tuple[int, int] | None:
    """Fork a child that verifies `triples` and writes `_verify_slice`'s
    bytes to a pipe; its (pid, read end), or None if the fork failed."""
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return None
    try:
        with warnings.catch_warnings():
            # Python 3.12 warns that forking a process with other threads
            # (numpy's BLAS pool) may deadlock the child; this child only
            # verifies, writes to its pipe and leaves by os._exit.
            warnings.filterwarnings(
                "ignore", r"This process \(pid=\d+\) is multi-threaded",
                DeprecationWarning,
            )
            pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        status = 1
        try:
            out = memoryview(_verify_slice(triples))
            while out:
                out = out[os.write(write_fd, out):]
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)  # so that the next child does not hold it open
    return pid, read_fd


def _collect(child: tuple[int, int] | None) -> bytes | None:
    """Read a verifier child's pipe to EOF and reap it; its bytes, or None
    if the fork failed or the child did not exit 0."""
    if child is None:
        return None
    pid, read_fd = child
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            out = pipe.read()
    finally:
        _, status = os.waitpid(pid, 0)
    return out if os.waitstatus_to_exitcode(status) == 0 else None


def _verify_all(triples: list) -> bytes:
    """`_verify_slice(triples)`, split over W processes, up to one per
    usable CPU: W - 1 forked children verify (S - HEAD_START) // W of the S
    triples each, and the parent the first slice, the rest. W is the
    largest count that gives each child at least HEAD_START triples; below
    3 * HEAD_START triples, or on one CPU, the parent verifies all. On 2
    CPUs, the measured case, the one child saves the parent at least as
    many verifies as it costs. Above 2, the parent forks its children one
    after another, each fork (about 0.6 ms) costing it again; that case
    follows the same rule but is not measured.

    A slice whose fork failed, or whose child exited non-zero or sent too
    few bytes, is verified in the parent.
    """
    cpus = getattr(os, "sched_getaffinity", None)
    workers = min(len(cpus(0)), len(triples) // HEAD_START - 1) if cpus else 1
    if workers < 2 or not hasattr(os, "fork"):
        return _verify_slice(triples)
    share = (len(triples) - HEAD_START) // workers
    bounds = range(len(triples) - share * (workers - 1), len(triples) + 1, share)
    slices = [triples[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    children = []
    try:
        for part in slices:
            children.append(_fork_verifier(part))
        out = _verify_slice(triples[:bounds[0]])
    finally:
        sent = [_collect(child) for child in children]
    for part, got in zip(slices, sent):
        if got is None or len(got) != len(part):
            got = _verify_slice(part)
        out += got
    return out


def validate_chain(chain: tuple[Block, ...]) -> tuple[bool, int | None]:
    """True iff all hash links and signatures hold; else earliest bad index.

    Every signature is verified first (see `_verify_all`), then the blocks
    are walked in order.
    """
    if not chain or chain[0].to_bytes() != GENESIS.to_bytes():
        return False, 0
    triples, owners = [], []
    for pos, block in enumerate(chain[1:], start=1):
        signed = _signatures(block)
        triples += signed
        owners += [pos] * len(signed)
    unsigned = {pos for pos, ok in zip(owners, _verify_all(triples)) if not ok}
    prev_hash = GENESIS_HASH
    for pos, block in enumerate(chain[1:], start=1):
        if block.index != pos or block.previous_hash != prev_hash or pos in unsigned:
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
        arr = np.ascontiguousarray(arr, dtype="<f8")
        h.update(struct.pack("<I", arr.nbytes))
        h.update(arr)  # the buffer itself: no bytes copy
    return h.digest()


def digest_update(updates, k: int) -> bytes:
    """Canonical digest of the upload in row k of a round's `ClientUpdates`,
    client updates.client_ids[k]'s.

    FedCurv updates hash (F_k, theta_k), rows k of the fishers and thetas
    stacks; FedAvg updates, which carry no Fisher, hash theta_k alone under
    their own tag.
    """
    header = struct.pack(
        "<QQQ", updates.client_ids[k], updates.round, updates.sample_counts[k]
    )
    if updates.fishers is None:
        return _digest(b"bfel-plain-update-v1", header, updates.thetas[k])
    return _digest(
        b"bfel-client-update-v2", header, updates.fishers[k], updates.thetas[k]
    )


def digest_global_model(theta_values, round_no: int) -> bytes:
    return _digest(
        b"bfel-global-model-v1", struct.pack("<Q", round_no), theta_values
    )
