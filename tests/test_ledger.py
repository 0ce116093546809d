import dataclasses
import hashlib
import os
import struct

import numpy as np
import pytest

from bfel import cli, ledger
from bfel.fedcurv import ClientUpdates
from bfel.ledger import (
    ChainFormatError,
    InvalidTransactionError,
    StakeError,
    TxKind,
)
from reference import digest as reference_digest


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
        assert kp.private_key.private_bytes_raw().hex() not in shown

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
        good = ledger.make_transaction(TxKind.CLIENT_UPDATE, digest(b"p"), kp, 1)
        bad = ledger.SignedTransaction(
            TxKind.CLIENT_UPDATE, digest(b"other"), good.sender_public,
            good.signature, 1,
        )
        chain = ledger.new_chain()
        with pytest.raises(InvalidTransactionError, match="transaction 1"):
            ledger.append_block(chain, [good, bad], kp, timestamp=1)

    def test_signed_transaction_of_an_unknown_kind_is_invalid(self, tmp_path, capsys):
        # kinds 1 and 2 are the only ones; a properly signed kind-3
        # transaction in an otherwise valid block fails at that block
        chain, proposer = build_chain(3)
        sender = ledger.keygen(50)
        body = ledger._tx_body(3, 7, digest(b"kind 3"))
        tx = ledger.SignedTransaction(
            3, digest(b"kind 3"), sender.public, ledger.sign(sender, body), 7
        )
        chain = ledger.append_block(chain, [tx], proposer, timestamp=3000)
        chain = ledger.append_block(chain, [], proposer, timestamp=4000)
        blob = ledger.export_chain(chain)
        assert ledger.validate_chain_bytes(blob) == (False, 4)
        path = tmp_path / "chain.log"
        path.write_bytes(blob)
        assert cli.main(["validate-chain", "--chain", str(path)]) == 1
        assert capsys.readouterr().out == "invalid first_invalid_index=4\n"

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


def flip_bit(value: bytes) -> bytes:
    return bytes([value[0] ^ 0x01]) + value[1:]


def set_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(scope="module")
def long_chain():
    """25 blocks of 11 transactions: 300 signatures, two 150-signature
    slices on two CPUs. The parent's slice ends inside block 13."""
    chain, _ = build_chain(25, txs_per_block=11)
    return chain


def replace_block(chain, pos, **fields):
    return chain[:pos] + (dataclasses.replace(chain[pos], **fields),) + chain[pos + 1:]


def flip_tx_signature(chain, pos, tx):
    txs = list(chain[pos].transactions)
    txs[tx] = dataclasses.replace(txs[tx], signature=flip_bit(txs[tx].signature))
    return replace_block(chain, pos, transactions=tuple(txs))


class TestSplitValidation:
    """A chain of 100 or more signatures is verified on every usable CPU,
    with the verdicts of the serial path."""

    def count_parent_verifies(self, monkeypatch, child_raises=False):
        """The parent's `ledger.verify` calls, listed as they happen; with
        child_raises, a verify in a forked child raises."""
        calls, real = [], ledger.verify
        parent = os.getpid()

        def counting(*args):
            if os.getpid() == parent:
                calls.append(1)
            elif child_raises:
                raise RuntimeError("child fails")
            return real(*args)

        monkeypatch.setattr(ledger, "verify", counting)
        return calls

    def both_verdicts(self, monkeypatch, chain):
        set_cpus(monkeypatch, 1)
        serial = ledger.validate_chain(chain)
        assert_no_children()
        set_cpus(monkeypatch, 2)
        split = ledger.validate_chain(chain)
        assert_no_children()
        return serial, split

    def test_valid_chain_validates_with_half_in_the_parent(
        self, monkeypatch, long_chain
    ):
        calls = self.count_parent_verifies(monkeypatch)
        set_cpus(monkeypatch, 2)
        assert ledger.validate_chain(long_chain) == (True, None)
        assert_no_children()
        assert len(calls) == 150
        set_cpus(monkeypatch, 1)
        assert ledger.validate_chain(long_chain) == (True, None)
        assert len(calls) == 150 + 300

    @pytest.mark.parametrize(
        "tamper, bad",
        [
            (lambda c: flip_tx_signature(c, 3, 4), 3),  # the parent's slice
            (lambda c: flip_tx_signature(c, 20, 7), 20),  # the child's slice
            (lambda c: replace_block(  # triple 155 of 300: the child's slice
                c, 13, proposer_signature=flip_bit(c[13].proposer_signature)), 13),
            (lambda c: replace_block(
                c, 9, previous_hash=flip_bit(c[9].previous_hash)), 9),
        ],
        ids=["parent-slice-tx", "child-slice-tx", "proposer", "previous-hash"],
    )
    def test_tampered_chain_gets_the_serial_verdict(
        self, monkeypatch, long_chain, tamper, bad
    ):
        serial, split = self.both_verdicts(monkeypatch, tamper(long_chain))
        assert serial == split == (False, bad)

    def test_random_bit_flips_get_the_serial_verdict(self, monkeypatch, long_chain):
        blob = ledger.export_chain(long_chain)
        rng = np.random.default_rng(23)
        for _ in range(20):
            bit = int(rng.integers(12 * 8, len(blob) * 8))  # past magic and count
            mutated = bytearray(blob)
            mutated[bit // 8] ^= 1 << (bit % 8)
            verdicts = []
            for cpus in (1, 2):
                set_cpus(monkeypatch, cpus)
                verdicts.append(ledger.validate_chain_bytes(bytes(mutated)))
                assert_no_children()
            assert verdicts[0] == verdicts[1]
            assert not verdicts[0][0]

    def test_unparsable_blob_returns_before_any_fork(self, monkeypatch, long_chain):
        forks = []

        def no_fork():
            forks.append(1)
            raise OSError("no fork in this test")

        set_cpus(monkeypatch, 2)
        monkeypatch.setattr(os, "fork", no_fork)
        blob = ledger.export_chain(long_chain)
        assert ledger.validate_chain_bytes(blob[:-1]) == (False, 25)
        assert forks == []

    def test_failed_fork_verifies_in_the_parent(
        self, monkeypatch, long_chain, tmp_path, capsys
    ):
        def failing_fork():
            raise OSError("fork refused")

        calls = self.count_parent_verifies(monkeypatch)
        set_cpus(monkeypatch, 2)
        monkeypatch.setattr(os, "fork", failing_fork)
        assert ledger.validate_chain(long_chain) == (True, None)
        assert len(calls) == 300
        signature = flip_bit(long_chain[25].proposer_signature)
        bad = replace_block(long_chain, 25, proposer_signature=signature)
        assert ledger.validate_chain(bad) == (False, 25)
        for chain, code, out in [
            (long_chain, 0, "valid\n"), (bad, 1, "invalid first_invalid_index=25\n")
        ]:
            path = tmp_path / "chain.log"
            path.write_bytes(ledger.export_chain(chain))
            assert cli.main(["validate-chain", "--chain", str(path)]) == code
            assert capsys.readouterr() == (out, "")
        assert_no_children()

    def test_failed_child_is_verified_in_the_parent(self, monkeypatch, long_chain):
        calls = self.count_parent_verifies(monkeypatch, child_raises=True)
        set_cpus(monkeypatch, 2)
        assert ledger.validate_chain(long_chain) == (True, None)
        assert_no_children()
        assert len(calls) == 300
        bad = flip_tx_signature(long_chain, 20, 7)
        assert ledger.validate_chain(bad) == (False, 20)
        assert_no_children()

    def test_short_chain_is_verified_serially(self, monkeypatch):
        # 33 blocks of 2 transactions: 99 signatures, below two slices
        chain, _ = build_chain(33)

        def no_fork():
            raise AssertionError("a 99-signature chain forked")

        set_cpus(monkeypatch, 2)
        monkeypatch.setattr(os, "fork", no_fork)
        assert ledger.validate_chain(chain) == (True, None)


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
        # digest_update reads only the stacks, so no model spec is needed
        self.theta = np.array([0.5, -1.25])
        self.fisher = np.array([0.25, 2.0])
        self.header = struct.pack("<QQQ", 3, 7, 11)  # client, round, samples

    def updates(self, fisher):
        """Round 7's updates of clients 1 and 3 (11 samples), client 3's
        upload in row 1 of each stack."""
        thetas = np.stack([-self.theta, self.theta])
        if fisher is not None:
            fisher = np.stack([3 * fisher, fisher])
        return ClientUpdates(7, (1, 3), (5, 11), thetas, fisher)

    def test_fedcurv_update_bytes(self):
        want = reference_digest(
            b"bfel-client-update-v2", self.header, self.fisher, self.theta,
        )
        assert ledger.digest_update(self.updates(self.fisher), 1) == want
        assert want.hex() == (
            "0109889ad645d743c004dd70ea8989ad21567951977fce862d1dd3238426862a"
        )

    @pytest.mark.parametrize("form", ["contiguous", "strided", "big-endian"])
    def test_buffer_hash_matches_bytes_copy_formula(self, form):
        values = np.random.default_rng(4).standard_normal(2 * 27_000)
        arrays = {
            "contiguous": values[:27_000],
            "strided": values[::2],
            "big-endian": values[:27_000].astype(">f8"),
        }[form]
        header = b"\x01\x02"
        want = reference_digest(b"tag", header, arrays, values[:3])
        assert ledger._digest(b"tag", header, arrays, values[:3]) == want

    def test_fedavg_update_bytes(self):
        want = reference_digest(b"bfel-plain-update-v1", self.header, self.theta)
        assert ledger.digest_update(self.updates(None), 1) == want
        assert want.hex() == (
            "bc4383ecf22c247ef7c32325c812aadb4cd9f2ff0161690bab41a3084c95d72f"
        )
