import hashlib

import numpy as np
import pytest

from bfel import ledger
from bfel.fedcurv import ClientUpdate
from bfel.ledger import (
    ChainFormatError,
    InvalidTransactionError,
    StakeError,
    TxKind,
)
from bfel.models import ModelSpec, ParameterVector, build_layout


def digest(payload: bytes) -> bytes:
    return hashlib.sha256(payload).digest()


def build_chain(n_blocks, seed=0, txs_per_block=2):
    proposer = ledger.keygen(seed)
    senders = [ledger.keygen(seed + 100 + i) for i in range(txs_per_block)]
    chain = ledger.new_chain()
    for b in range(n_blocks):
        txs = [
            ledger.make_transaction(
                TxKind.CLIENT_UPDATE, digest(f"payload-{b}-{i}".encode()),
                senders[i], timestamp=b * 1000 + i,
            )
            for i in range(txs_per_block)
        ]
        chain = ledger.append_block(chain, txs, proposer, timestamp=b * 1000)
    return chain, proposer


class TestKeys:
    def test_keygen_deterministic(self):
        assert ledger.keygen(7) == ledger.keygen(7)
        assert ledger.keygen(7) != ledger.keygen(8)

    def test_repr_hides_the_secret(self):
        kp = ledger.keygen(1)
        shown = repr(kp)
        assert repr(kp.public) in shown
        assert repr(kp.secret) not in shown
        assert kp.secret.hex() not in shown

    def test_sign_verify_round_trip(self):
        kp = ledger.keygen(1)
        sig = ledger.sign(kp, b"abc")
        assert ledger.verify(kp.public, b"abc", sig)

    def test_wrong_public_key_fails(self):
        a, b = ledger.keygen(1), ledger.keygen(2)
        sig = ledger.sign(a, b"abc")
        assert not ledger.verify(b.public, b"abc", sig)

    def test_tampered_message_fails(self):
        kp = ledger.keygen(3)
        sig = ledger.sign(kp, b"abc")
        assert not ledger.verify(kp.public, b"abd", sig)


class TestChain:
    def test_append_links_to_genesis(self):
        chain, _ = build_chain(1)
        assert chain[1].index == 1
        assert chain[1].previous_hash == ledger.GENESIS_HASH

    def test_fresh_chain_validates(self):
        chain, _ = build_chain(10)
        ok, bad = ledger.validate_chain(chain)
        assert ok and bad is None

    def test_invalid_transaction_rejected_at_append(self):
        kp = ledger.keygen(0)
        good = ledger.make_transaction(TxKind.POLICY, digest(b"p"), kp, 1)
        bad = ledger.SignedTransaction(
            TxKind.POLICY, digest(b"other"), good.sender_public, good.signature, 1
        )
        chain = ledger.new_chain()
        with pytest.raises(InvalidTransactionError, match="transaction 1"):
            ledger.append_block(chain, [good, bad], kp, timestamp=1)

    def test_identical_transactions_different_block_hashes(self):
        kp = ledger.keygen(0)
        tx = ledger.make_transaction(TxKind.GLOBAL_MODEL, digest(b"m"), kp, 5)
        chain = ledger.new_chain()
        chain = ledger.append_block(chain, [tx], kp, timestamp=5)
        chain = ledger.append_block(chain, [tx], kp, timestamp=5)
        assert chain[1].hash() != chain[2].hash()

    def test_append_only_no_mutation(self):
        chain, proposer = build_chain(2)
        before = ledger.export_chain(chain)
        ledger.append_block(chain, [], proposer, timestamp=9)
        assert ledger.export_chain(chain) == before

    def test_tampered_payload_detected(self):
        chain, _ = build_chain(5)
        tampered_tx = chain[3].transactions[0]
        flipped = bytearray(tampered_tx.payload_digest)
        flipped[0] ^= 0x01
        bad_tx = ledger.SignedTransaction(
            tampered_tx.kind, bytes(flipped), tampered_tx.sender_public,
            tampered_tx.signature, tampered_tx.timestamp,
        )
        blocks = list(chain)
        b = blocks[3]
        blocks[3] = ledger.Block(
            b.index, b.previous_hash, (bad_tx,) + b.transactions[1:],
            b.proposer_public, b.proposer_signature, b.timestamp,
        )
        ok, bad = ledger.validate_chain(tuple(blocks))
        assert not ok and bad == 3

    def test_resigned_block_with_other_key_detected(self):
        chain, _ = build_chain(5)
        other = ledger.keygen(999)
        b = chain[4]
        resigned = ledger.Block(
            b.index, b.previous_hash, b.transactions, other.public,
            ledger.sign(other, b.header_bytes()), b.timestamp,
        )
        blocks = list(chain)
        blocks[4] = resigned
        ok, bad = ledger.validate_chain(tuple(blocks))
        # proposer key is part of the signed header; swapping it breaks the
        # hash link to the next block or the header signature itself
        assert not ok and bad <= 4


class TestSerialization:
    def test_export_import_round_trip(self):
        chain, _ = build_chain(6)
        blob = ledger.export_chain(chain)
        back = ledger.import_chain(blob)
        assert back == chain
        ok, _ = ledger.validate_chain(back)
        assert ok

    def test_import_bad_magic(self):
        with pytest.raises(ChainFormatError):
            ledger.import_chain(b"NOTCHAIN" + b"\x00" * 8)

    def test_single_bit_flips_all_detected(self):
        chain, _ = build_chain(10)
        blob = ledger.export_chain(chain)
        # map byte ranges to block indices via the log framing
        offsets = []
        pos = 12  # magic + count
        for i in range(len(chain)):
            length = int.from_bytes(blob[pos : pos + 4], "little")
            offsets.append((i, pos, pos + 4 + length))
            pos += 4 + length
        rng = np.random.default_rng(0)
        for _ in range(100):
            block_idx, start, end = offsets[int(rng.integers(len(offsets)))]
            byte_pos = int(rng.integers(start, end))
            bit = 1 << int(rng.integers(8))
            mutated = bytearray(blob)
            mutated[byte_pos] ^= bit
            ok, bad = ledger.validate_chain_bytes(bytes(mutated))
            assert not ok
            assert bad is not None and bad <= block_idx


class TestProposerSelection:
    def test_single_node_always_selected(self):
        for r in range(10):
            assert ledger.select_proposer([5.0], r, seed=0) == 0

    def test_equal_stakes_balanced(self):
        counts = np.zeros(2, dtype=int)
        for r in range(10_000):
            counts[ledger.select_proposer([1.0, 1.0], r, seed=1)] += 1
        assert abs(counts[0] - 5000) <= 300  # 6-sigma binomial bound

    def test_three_to_one_stakes(self):
        counts = np.zeros(2, dtype=int)
        for r in range(10_000):
            counts[ledger.select_proposer([3.0, 1.0], r, seed=2)] += 1
        assert abs(counts[0] - 7500) <= 300

    def test_zero_total_stake_error(self):
        with pytest.raises(StakeError):
            ledger.select_proposer([0.0, 0.0], 0, seed=0)
        with pytest.raises(StakeError):
            ledger.select_proposer([-1.0, 2.0], 0, seed=0)

    def test_deterministic(self):
        picks = [ledger.select_proposer([2.0, 1.0, 1.0], r, seed=3) for r in range(50)]
        again = [ledger.select_proposer([2.0, 1.0, 1.0], r, seed=3) for r in range(50)]
        assert picks == again


class TestUpdateDigest:
    """chain.log bytes depend on these digests; the constants pin the format."""

    def setup_method(self):
        layout = build_layout(
            ModelSpec(kind="mlp", input_shape=(1,), classes=2, bias=False)
        )
        self.theta = ParameterVector(np.array([0.5, -1.25]), layout)
        self.fisher = ParameterVector(np.array([0.25, 2.0]), layout)
        self.gradient = ParameterVector(np.array([-0.125, 3.0]), layout)

    def test_fedcurv_update_bytes(self):
        update = ClientUpdate(3, 7, self.theta, 11, self.fisher, self.gradient)
        assert ledger.digest_update(update).hex() == (
            "21d7024a807e7a49da4c6219050e89c1b6a770f992323f40cf1ebed4585080b0"
        )

    def test_fedavg_update_bytes(self):
        update = ClientUpdate(3, 7, self.theta, 11)
        assert ledger.digest_update(update).hex() == (
            "bc4383ecf22c247ef7c32325c812aadb4cd9f2ff0161690bab41a3084c95d72f"
        )
