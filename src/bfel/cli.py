"""Command-line entry points: run, validate-chain, gossip-sim, bench-latency."""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from . import gossip, ledger
from .fedcurv import RoundNumericalError
from .simulator import parse_config, run_experiment


def _cmd_run(args) -> int:
    config = parse_config(args.config)
    result = run_experiment(config)
    print(
        f"ok rounds={result['rounds']} "
        f"final_global_acc={result['final_global_acc']:.4f} "
        f"metrics={result['metrics_csv']}"
    )
    return 0


def _cmd_validate_chain(args) -> int:
    blob = Path(args.chain).read_bytes()
    ok, bad = ledger.validate_chain_bytes(blob)
    if ok:
        print("valid")
        return 0
    print(f"invalid first_invalid_index={bad}")
    return 1


def _cmd_gossip_sim(args) -> int:
    if args.seeds < 1:  # without a broadcast there is no median to print
        raise ValueError(f"--seeds must be >= 1, got {args.seeds}")
    hops_all = []
    for seed in range(args.seeds):
        net = gossip.GossipNetwork(
            node_count=args.nodes, fanout=args.fanout, seed=seed
        )
        hops, times = gossip.gossip_broadcast(net, origin=0)
        hops_all.append(hops)
        print(
            f"seed={seed} hops={hops} "
            f"last_receive_ms={float(times.max()):.2f}"
        )
    print(f"median_hops={float(np.median(hops_all)):.1f}")
    return 0


def _median_verify_ms(samples: int) -> float:
    """Median wall time of one Ed25519 verify of a transaction, in ms."""
    tx = ledger.make_transaction(
        ledger.TxKind.CLIENT_UPDATE, bytes(32), ledger.keygen(0), timestamp=0
    )
    signed = (tx.sender_public, tx.signed_payload(), tx.signature)
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        ledger.verify(*signed)
        times.append(time.perf_counter() - start)
    return 1000 * statistics.median(times)


def _cmd_bench_latency(args) -> int:
    if args.seed < 0:  # numpy's own error would not name the flag
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    net = gossip.GossipNetwork(
        node_count=args.nodes, fanout=args.fanout, seed=args.seed
    )
    report = gossip.measure_latencies(
        args.concurrency, net=net, use_gossip=not args.no_gossip, seed=args.seed
    )
    out = Path(args.output) if args.output else None
    lines = ["request_id,T,trd_ms,vtr_ms,tct_ms,end_to_end_ms"]
    rows = zip(report.phases_ms.tolist(), report.end_to_end_ms.tolist())
    for i, ((_, trd, vtr, tct), end_to_end) in enumerate(rows):
        lines.append(f"{i},{args.concurrency},{trd},{vtr},{tct},{end_to_end}")
    if out:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text("\n".join(lines) + "\n")
    else:
        print("\n".join(lines))
    print(
        f"median_end_to_end_ms={report.median_end_to_end():.2f} "
        f"total_elapsed_ms={report.total_elapsed_ms:.2f}"
    )
    # the simulated VTR phase beside what one signature check costs here
    samples = 101
    print(
        f"measured_median_verify_ms={_median_verify_ms(samples):.4f} "
        f"verifies={samples} "
        f"simulated_vtr_base_ms={gossip.BASE_VTR_MS:.2f}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bfel",
        description="Federated edge learning simulator with a signed round ledger",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("--config", required=True)
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate-chain", help="validate a chain log")
    p_val.add_argument("--chain", required=True)
    p_val.set_defaults(func=_cmd_validate_chain)

    p_gos = sub.add_parser("gossip-sim", help="simulate gossip broadcasts")
    p_gos.add_argument("--nodes", type=int, required=True)
    p_gos.add_argument("--fanout", type=int, required=True)
    p_gos.add_argument("--seeds", type=int, default=10)
    p_gos.set_defaults(func=_cmd_gossip_sim)

    p_lat = sub.add_parser("bench-latency", help="simulated transaction latencies")
    p_lat.add_argument("--concurrency", type=int, required=True)
    p_lat.add_argument("--nodes", type=int, default=50)
    p_lat.add_argument("--fanout", type=int, default=2)
    p_lat.add_argument("--seed", type=int, default=0)
    p_lat.add_argument("--no-gossip", action="store_true")
    p_lat.add_argument("--output")
    p_lat.set_defaults(func=_cmd_bench_latency)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as e:  # config, data and format errors
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RoundNumericalError as e:
        print(f"error: numerical blow-up in {e}", file=sys.stderr)
        return 3
    except MemoryError as e:  # numpy's _ArrayMemoryError is one
        print(f"error: out of memory: {e or type(e).__name__}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
