"""What each traced function should move, and where.

For every function behind a per-layer metric in BENCHMARK.json: the
end-to-end metric a change to it should move, and the workloads that call
it. A workload not listed calls the function zero times, and a change to
the function should leave that workload's numbers unchanged. The tests
check that every listed workload really calls the function, so a binding
the tracer missed cannot read as zero seconds.

On chain-gossip a "round" is one block commit (sign 11 transactions,
`append_block`, gossip to 128 nodes), so `round_s` there is the commit
time per block.
"""

TRAINING = ("fedcurv-mlp", "fedavg-mlp", "fedcurv-cnn")
FEDCURV = ("fedcurv-mlp", "fedcurv-cnn")
MLP = ("fedcurv-mlp", "fedavg-mlp")
ALL = TRAINING + ("chain-gossip",)

# span name: (end-to-end metrics it should move, workloads that call it)
LAYERS = {
    "models.loss_and_grad": ("round_s", TRAINING),
    "models.sum_squared_loglik_grads": ("round_s", ("fedcurv-mlp",)),
    "models.per_sample_loglik_grad": ("round_s", ("fedcurv-cnn",)),
    "models.forward": ("round_s", TRAINING),
    "models.sgd_step": ("round_s", TRAINING),
    "models.init_params": ("setup_s", TRAINING),
    "data.Dataset.subset": ("round_s", TRAINING),
    "data.Dataset.as_batch": ("round_s", TRAINING),
    "data.Dataset.sample_batch": ("round_s", ("fedcurv-cnn",)),
    "data.load_bfeldata": ("setup_s", ("fedcurv-cnn",)),
    "data.synth_blobs": ("setup_s", MLP),
    "data.partition": ("setup_s", TRAINING),
    "fedcurv.run_round": ("round_s", FEDCURV),
    "fedcurv.compute_fisher_diagonal": ("round_s", FEDCURV),
    "fedcurv.local_train": ("round_s", FEDCURV),
    "fedcurv.server_gradient": ("round_s", FEDCURV),
    "fedcurv.aggregate_fisher": ("round_s", FEDCURV),
    "fedcurv.aggregate_gradients": ("round_s", FEDCURV),
    "fedcurv.invert_fisher": ("round_s", FEDCURV),
    "fedcurv.global_update": ("round_s", FEDCURV),
    "fedcurv.sample_clients": ("round_s", TRAINING),
    "fedcurv.divergence": ("round_s", TRAINING),
    "fedavg.local_train_plain": ("round_s", ("fedavg-mlp",)),
    "fedavg.average_models": ("round_s", ("fedavg-mlp",)),
    "ledger.sign": ("round_s", ALL),
    "ledger.verify": ("round_s validate_s", ALL),
    "ledger.keygen": ("setup_s", ALL),
    "ledger.make_transaction": ("round_s", ALL),
    "ledger.append_block": ("round_s", ALL),
    "ledger.digest_client_update": ("round_s", FEDCURV),
    "ledger.digest_plain_update": ("round_s", ("fedavg-mlp",)),
    "ledger.digest_global_model": ("round_s", TRAINING),
    "ledger.export_chain": ("run_s", ALL),
    "ledger.import_chain": ("validate_s", ("chain-gossip",)),
    "ledger.validate_chain": ("validate_s run_s", ALL),
    "gossip.gossip_broadcast": ("round_s", ("chain-gossip",)),
    "simulator.run_experiment": ("run_s setup_s", TRAINING),
    "simulator.parse_config": ("setup_s", TRAINING),
    "simulator.save_model": ("run_s", TRAINING),
    "cli.main": ("run_s", TRAINING),
}

# per-layer metrics that are not function spans
EXTRAS = {
    "ledger.chain_bytes": ("run_s validate_s", ALL),
    "gossip.hops": ("round_s", ("chain-gossip",)),
    "trace.overhead_run_s": ("none: tracing cost", ALL),
    "trace.overhead_round_s": ("none: tracing cost", ALL),
}


def describe(metric):
    """'moves <metrics> on <workloads>' for a per-layer metric name."""
    span = metric.rsplit(".", 1)[0]
    moves, where = LAYERS.get(span) or EXTRAS[metric]
    return f"moves {moves} on {', '.join(where)}"
