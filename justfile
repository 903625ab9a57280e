# Developer entry points for the SymPLFIED reproduction.
#
# `just build` / `just test` mirror the tier-1 gate; `just repro-tables`
# regenerates every paper table/figure in one command.

# Build the whole workspace in release mode.
build:
    cargo build --release --workspace

# Run the full test suite (unit + integration + property tests).
test:
    cargo test -q --workspace

# Lint gate: formatting and clippy, as CI runs them.
lint:
    cargo fmt --all --check
    cargo clippy --workspace --all-targets -- -D warnings

# The repo benchmark (BENCHMARK.json) as a smoke test: the standalone
# harness under benchmark/ must build against the current crates, pass
# its own unit tests, and reproduce every workload's pinned counts and
# outcome digests in a quick untraced run (non-zero exit otherwise). The
# CI benchmark job runs exactly this recipe. For numbers, run
# `benchmark/run.sh` (and `benchmark/run.sh compare A.json B.json`).
bench-smoke:
    cd benchmark && cargo test --offline
    benchmark/run.sh --quick --no-trace

# Loopback distributed-campaign demo: a coordinator plus N self-spawned
# `symplfied serve` processes on 127.0.0.1 run the quick tcas campaign
# over the sympl_wire TCP protocol, then gate on the distributed report
# reproducing the in-process cluster's outcome digest verbatim. The CI
# distributed-campaign job runs exactly this recipe.
cluster-demo workers="2":
    cargo run --release -p symplfied -- campaign --workload tcas --quick --tasks 16 --spawn-workers {{workers}} --verify-local

# Chaos demo: the fault-tolerance acceptance legs the distributed-campaign
# CI job gates on. Leg 1 SIGKILLs one of three loopback workers after the
# first result and still requires the in-process outcome digest verbatim.
# Leg 2 runs a checkpointing coordinator that aborts mid-campaign (a
# deterministic coordinator crash), and leg 3 resumes from its checkpoint
# — re-running only the missing shards — and again gates on the
# in-process digest.
chaos-demo:
    cargo run --release -p symplfied -- campaign --workload tcas --quick --tasks 16 --spawn-workers 3 --chaos-kill-one --verify-local
    cargo run --release -p symplfied -- campaign --workload tcas --quick --tasks 16 --spawn-workers 2 --checkpoint target/chaos-demo.checkpoint --chaos-abort-after 5
    cargo run --release -p symplfied -- campaign --workload tcas --quick --tasks 16 --spawn-workers 2 --resume target/chaos-demo.checkpoint --verify-local

# Elastic demo: the dynamic-membership acceptance legs the
# distributed-campaign CI job gates on, run on the slow `spin` workload
# (the paper workloads finish too fast for membership events to land
# mid-campaign). Leg 1 runs one coordinator with everything at once —
# SIGKILL one of two loopback workers after the first result, admit two
# late joiners through the join listener (--expect-join exits 2 if none
# arrived in time), force at least one wire-level shard split
# (--expect-split exits 2 if none happened) — and still requires the
# in-process outcome digest verbatim. Legs 2 and 3 prove the checkpoint
# is fleet-blind: a three-worker fleet checkpoints and aborts, then an
# entirely different two-worker fleet resumes it to the same gated
# digest.
elastic-demo:
    cargo run --release -p symplfied -- campaign --workload spin --tasks 3 --spawn-workers 2 --chaos-kill-one --join-late 2 --split-idle --expect-split --expect-join --heartbeat-interval 30 --verify-local
    cargo run --release -p symplfied -- campaign --workload spin --tasks 6 --spawn-workers 3 --checkpoint target/elastic-demo.checkpoint --chaos-abort-after 2
    cargo run --release -p symplfied -- campaign --workload spin --tasks 6 --spawn-workers 2 --resume target/elastic-demo.checkpoint --verify-local

# Memo demo: the cross-campaign memoization acceptance legs the
# distributed-campaign CI job gates on. Leg 1 runs the quick tcas
# campaign cold against a fresh store. Leg 2 reruns it against the saved
# store and gates (--expect-memo-warm exits 2 otherwise) on the run being
# served warm: memo hits present, ≥ 50% of states skipped, and an
# outcome digest identical to an in-process memo-off run. Leg 3 appends a
# dead instruction to tcas (--mutate-program) and gates on the now-stale
# store being *refused* at load (--expect-stale-memo) — the
# incremental-recheck contract: one program edit invalidates the store.
memo-demo:
    rm -f target/memo-demo.symo
    cargo run --release -p symplfied -- campaign --workload tcas --quick --tasks 16 --memo-path target/memo-demo.symo
    cargo run --release -p symplfied -- campaign --workload tcas --quick --tasks 16 --memo-path target/memo-demo.symo --expect-memo-warm
    cargo run --release -p symplfied -- campaign --workload tcas --quick --tasks 16 --memo-path target/memo-demo.symo --mutate-program --expect-stale-memo

# Service demo: the multi-tenant acceptance test. One shared fleet of two
# `symplfied serve` processes runs TWO campaigns concurrently (tcas at
# priority 1, replace at priority 2) from separate coordinators; each must
# reproduce its in-process findings and outcome digest verbatim — the
# determinism contract is tenant-blind.
service-demo:
    cargo test --release -p symplfied --test service

# Regenerate the paper's tables and figures from the assembled workloads
# (`symplfied repro`, whose output crates/core/tests/repro.rs pins), then
# the §6.2 and §6.4 campaigns.
repro-tables:
    cargo run --release -p symplfied -- repro
    cargo run --release -p symplfied -- campaign --workload tcas --quick --tasks 16
    cargo run --release -p symplfied -- campaign --workload replace --quick --tasks 16
