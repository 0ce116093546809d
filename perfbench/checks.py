"""Output checks, so a wrong-but-fast change fails instead of winning.

Each check returns a list of problems; an empty list means the output is
correct. The file formats are read here independently of bfel's own
readers, so a broken writer cannot be excused by a matching reader.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import struct

METRICS_HEADER_V1 = (
    "schema_version,round,global_acc,client_acc_mean,client_acc_min,"
    "client_acc_max,divergence,elapsed_ms"
)
MODEL_MAGIC = b"BFELMODL"
CHAIN_MAGIC = b"BFELCHN1"
CHAIN_HEADER_BYTES = 12  # magic + u32 block count


@dataclasses.dataclass
class TrainingOutputs:
    """What one `bfel run` call left behind, as parsed by the checks."""

    elapsed_ms: list
    final_acc: float
    chain_log: bytes
    fingerprint: str  # all outputs except the wall-clock column


def check_training_outputs(exit_code, files, rounds, layout_size, acc_floor):
    """Check one training call; returns (problems, TrainingOutputs or None).

    `files` maps "metrics.csv", "model.bin" and "chain.log" to their bytes
    (None when missing). `acc_floor`, when set, is the final accuracy below
    which the model has not learned at all.
    """
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    missing = [name for name, blob in files.items() if blob is None]
    if missing:
        return problems + [f"missing output {m}" for m in missing], None

    lines = files["metrics.csv"].decode().splitlines()
    if not lines or lines[0] != METRICS_HEADER_V1:
        problems.append("metrics.csv header is not schema v1")
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != rounds:
        problems.append(f"metrics.csv has {len(rows)} rows, expected {rounds}")
    elapsed, kept_columns = [], []
    for i, row in enumerate(rows, start=1):
        try:
            values = [float(v) for v in row]
        except ValueError:
            values = []
        if len(values) != 8 or row[0] != "1" or row[1] != str(i):
            problems.append(f"metrics.csv row {i} malformed: {','.join(row)!r}")
            continue
        if not all(math.isfinite(v) for v in values):
            problems.append(f"metrics.csv row {i} is not finite")
        if not all(0.0 <= v <= 1.0 for v in values[2:6]):
            problems.append(f"metrics.csv row {i} accuracy outside [0, 1]")
        elapsed.append(values[7])
        kept_columns.append(",".join(row[:7]))

    model = files["model.bin"]
    count = struct.unpack("<Q", model[12:20])[0] if len(model) >= 20 else -1
    if model[:8] != MODEL_MAGIC or model[8:12] != struct.pack("<I", 1):
        problems.append("model.bin header is not BFELMODL v1")
    elif count != layout_size or len(model) != 20 + 8 * layout_size:
        problems.append(
            f"model.bin holds {count} values in {len(model)} bytes, "
            f"expected {layout_size}"
        )

    chain = files["chain.log"]
    blocks = chain_block_ranges(chain)
    if blocks is None or len(blocks) != rounds + 1:
        problems.append(f"chain.log does not hold {rounds + 1} blocks")

    if problems:
        return problems, None
    final_acc = float(rows[-1][2])
    if acc_floor is not None and final_acc < acc_floor:
        return [f"final accuracy {final_acc} is below {acc_floor}"], None
    digest = hashlib.sha256()
    for part in ("\n".join(kept_columns).encode(), model, chain):
        digest.update(hashlib.sha256(part).digest())
    return [], TrainingOutputs(elapsed, final_acc, chain, digest.hexdigest())


def check_same(label, reference, value):
    """Byte-identical reruns: every call in a run must match the first."""
    if reference is not None and value != reference:
        return [f"{label} differs from the first call of this run"]
    return []


def check_validates(ledger, blob):
    ok, bad = ledger.validate_chain_bytes(blob)
    if not ok:
        return [f"chain failed validation at block {bad}"]
    return []


def chain_block_ranges(blob):
    """[(start, end)] byte range of each block, its length prefix included."""
    if blob[:8] != CHAIN_MAGIC or len(blob) < CHAIN_HEADER_BYTES:
        return None
    count = struct.unpack("<I", blob[8:12])[0]
    ranges, pos = [], CHAIN_HEADER_BYTES
    for _ in range(count):
        if pos + 4 > len(blob):
            return None
        end = pos + 4 + struct.unpack("<I", blob[pos:pos + 4])[0]
        if end > len(blob):
            return None
        ranges.append((pos, end))
        pos = end
    return ranges if pos == len(blob) else None


def check_tamper_detected(ledger, blob, rng):
    """Flip one seeded bit inside a block; validation must name that block."""
    ranges = chain_block_ranges(blob)
    if ranges is None:
        return ["chain log does not parse into blocks"]
    bit = int(rng.integers(CHAIN_HEADER_BYTES * 8, len(blob) * 8))
    tampered = bytearray(blob)
    tampered[bit // 8] ^= 1 << (bit % 8)
    block = next(i for i, (s, e) in enumerate(ranges) if s <= bit // 8 < e)
    ok, bad = ledger.validate_chain_bytes(bytes(tampered))
    if ok or bad != block:
        return [
            f"bit {bit} flipped in block {block}: validation returned "
            f"({ok}, {bad})"
        ]
    return []


def check_forgery_rejected(ledger, chain, txs, proposer, timestamp, rng):
    """A transaction with a forged signature must not enter the chain."""
    position = int(rng.integers(len(txs)))
    tx = txs[position]
    sig = bytearray(tx.signature)
    sig[int(rng.integers(len(sig)))] ^= 1 << int(rng.integers(8))
    forged = list(txs)
    forged[position] = dataclasses.replace(tx, signature=bytes(sig))
    try:
        ledger.append_block(chain, forged, proposer, timestamp=timestamp)
    except ledger.InvalidTransactionError as e:
        if e.index != position:
            return [f"forged transaction {position} reported as {e.index}"]
        return []
    return [f"append_block accepted a forged signature on transaction {position}"]
