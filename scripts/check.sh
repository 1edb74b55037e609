#!/usr/bin/env bash
# Pre-merge gate for the host kernels and serving runtime: formatting,
# the pimdl-lint static-analysis passes, lints on every workspace crate,
# the crate test suites, the results/ byte gate, and the benchmark
# package's own lints and tests, all offline (see README.md, "Offline
# builds" and "Static analysis").
set -euo pipefail
cd "$(dirname "$0")/.."

WORKSPACE_CRATES=(
    pimdl-tensor pimdl-lutnn pimdl-sim pimdl-nn
    pimdl-engine pimdl-tuner pimdl-serve pimdl-bench
    pimdl-lint
)

echo "==> cargo fmt --check"
cargo fmt --check

# Static analysis: unsafe audit, panic-path, the memory-ordering token
# rule and the L7 untrusted-input taint pass over the whole workspace
# (hard gate; exemptions live in lint-allow.toml and must carry
# justifications). The report ends with a
# per-pass finding-count / wall-time summary; the unsafe-site, lock, and
# taint source/sink censuses land in results/lint_inventory.json for
# drift review.
echo "==> pimdl-lint"
cargo run --offline -q -p pimdl-lint -- --inventory results/lint_inventory.json

# Inventory drift gate: growth in the attack/audit surface (unsafe sites,
# taint sinks, locks) must arrive as an explicit diff to the committed
# results/lint_inventory.json baseline, not a silent regeneration. The
# gate fails when the fresh inventory shows more unsafe sites, taint sinks
# or lock sites (lock fields and lock-constructing lets) than HEAD's copy;
# re-committing the regenerated file (after reviewing the new sites, and
# for a lock the order it is taken in) is the only way through.
echo "==> lint inventory drift gate"
if git cat-file -e HEAD:results/lint_inventory.json 2>/dev/null; then
    python3 - <(git show HEAD:results/lint_inventory.json) \
        results/lint_inventory.json <<'PY'
import json
import sys

base = json.load(open(sys.argv[1]))
cur = json.load(open(sys.argv[2]))
fail = False
for key in ("unsafe_count", "taint_sinks", "lock_count"):
    b, c = int(base.get(key, 0)), int(cur.get(key, 0))
    if c > b:
        print(
            f"ERROR: lint inventory drift: {key} grew {b} -> {c}. Review the"
            " new sites and re-commit results/lint_inventory.json to accept.",
            file=sys.stderr,
        )
        fail = True
    else:
        print(f"inventory {key}: {c} (baseline {b})")
sys.exit(1 if fail else 0)
PY
else
    echo "no committed inventory baseline yet; drift gate skipped"
fi

for crate in "${WORKSPACE_CRATES[@]}"; do
    echo "==> cargo clippy -p ${crate} -- -D warnings"
    cargo clippy --offline -p "${crate}" --all-targets -- -D warnings
done

# The API docs of every workspace crate and the root package build without
# a warning: a broken intra-doc link, or a public doc linking a private
# item, fails here.
echo "==> RUSTDOCFLAGS=-D warnings cargo doc --no-deps"
doc_crates=(-p pimdl)
for crate in "${WORKSPACE_CRATES[@]}"; do
    doc_crates+=(-p "${crate}")
done
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps "${doc_crates[@]}"

# Every workspace crate's own suite. pimdl-bench's lib tests are the
# `reproduce` experiments' unit tests (~10 s in a debug build on two
# cores; the accuracy claims run on one-layer models, and their
# experiment-scale copies in the long accuracy pass below).
for crate in "${WORKSPACE_CRATES[@]}"; do
    echo "==> cargo test -p ${crate} --offline"
    cargo test --offline -p "${crate}"
done

# The tuner's long oracle pass: the #[ignore]d branch-and-bound against
# exhaustive search on ~1,000 small mapping spaces, both row-constant arms,
# CT up to 512 and WRAM down to 96 B, the bounds' and leaf floors'
# admissibility along random paths of ~1,000 more, the node each N_m,
# F_m and CB_m child derives from its parent's against Node::new at its
# corner and its bound against a from-scratch one, and the terms an
# m-tile node shares with its six traversal children against from-scratch
# ones, over every node of ~1,000 more
# (shared_terms_match_from_scratch_terms_wide), the closed-form coarse
# leaf count against the enumeration on ~1,000 random menus, the
# byte-capped pair frontier against the uncapped one's prefix on ~1,000
# spaces, and the capped allocators against an uncapped allocate_global
# and against brute force on ~1,000 requests each (~19 s in a debug build
# on two cores).
echo "==> cargo test -p pimdl-tuner --offline (long oracle pass)"
cargo test --offline -p pimdl-tuner --lib -- --ignored

# The eLUT-NN calibration claims at full size: the #[ignore]d two-block,
# 60-sequence, 8-epoch copies of the random-init recovery and the ordering
# against the soft baseline, which the lib suite above checks on one-block
# models (~4 s in a debug build on two cores).
echo "==> cargo test -p pimdl-lutnn --offline (full-size calibration pass)"
cargo test --offline -p pimdl-lutnn --lib -- --ignored

# The long accuracy pass: the #[ignore]d experiment-scale copies of the
# accuracy claims the lib suite above checks on small models,
# data_efficiency's small_budget_favors_elutnn_full (the four-layer model),
# elutnn_ablation's full_elutnn_beats_floor_full (the two-layer one) and
# accuracy's quick_nlp_subset_preserves_ordering_full (the four-layer
# one), in a debug build as the suite runs them (~40 s on two cores).
echo "==> cargo test -p pimdl-bench --offline (long accuracy pass)"
cargo test --offline -p pimdl-bench --lib -- --ignored

# The INT8 gather's oracle test again in optimised code: it calls each
# arm (AVX-512BW, AVX2, portable) the CPU has. The debug run above catches
# an i16 wrap, but release vectorises differently.
echo "==> cargo test --release -p pimdl-tensor --offline"
cargo test --release --offline -p pimdl-tensor

# The root package's integration suites. The three SimPoller suites,
# tests/{reactor,http,fabric}_pipeline.rs, share one harness (tests/sim/):
# one run driver over the line, HTTP and fabric server loops, checks every
# schedule must pass (each request answered exactly once, results equal to
# the client-side oracle, a closed ledger, bit-identical replays, an HTTP
# `Connection: close` answered and then closed by the server), the
# named scenarios (the 1k-query transcript, the HTTP conformance corpus,
# weighted-fair sharing, shard death mid-batch, ...) and a seeded schedule
# explorer. Plus deploy, end_to_end, failure_injection, pim_binary and the
# cross-crate properties. (The real-socket loopback runs and the
# frame-protocol property corpus are pimdl-serve's own tests, run by the
# loop above.)
echo "==> cargo test -p pimdl --offline"
cargo test --offline -p pimdl

# The explorer's long pass: the #[ignore]d variants, 2000 seeded
# schedules per server loop (~2 min in a debug build).
echo "==> cargo test -p pimdl --offline (long explorer pass)"
cargo test --offline -p pimdl --test reactor_pipeline --test http_pipeline \
    --test fabric_pipeline -- --ignored

# The vendored serde stand-ins are not default members; their own tests pin
# the JSON number encoding every results/*.json below depends on.
echo "==> cargo test -p serde -p serde_json --offline"
cargo test --offline -p serde -p serde_json

# Results gate: the nineteen artefacts `reproduce all` writes are
# deterministic functions of the code (no wall-clock field), so the
# committed results/*.json must regenerate byte for byte. Thirteen are pure
# functions of the cost model and the tuner (~1.9 s release on a two-core
# box, ~1.3 s of it tuner-error, ~0.2 s the alloc-budgets sweep): a cost-term or
# search-order change that moves a figure fails here. Four are the
# algorithm side — table4, table5,
# elutnn-ablation, data-efficiency train, calibrate and score small models
# from fixed seeds (~56 s release: 39 + 10 + 3 + 4) — so a change to the
# encoder walk, a calibration estimator or a kernel under them that moves
# one float fails here. Two are `serving` (~1 s): the DES load curve and
# the same sweep through `Runtime::run_virtual`, so a change to the
# connection core, the line pipeline, the batcher or the scheduler that
# moves one record fails here, and so does a change to the metrics
# sketch (`pimdl-serve`'s `metrics::Histogram`), whose p50/p95/p99 edges
# serving_runtime.json stores as each point's `runtime.*_latency_s`.
# Either way the file (and the EXPERIMENTS.md digits printed from it) is
# re-committed on purpose. It is also the CLI's
# end-to-end smoke.
echo "==> results gate: regenerate and cmp against results/"
gate_dir=$(mktemp -d)
trap 'rm -rf "${gate_dir}"' EXIT
for exp in table1 fig3 fig4 fig10 fig11 fig12 fig13 fig14 fig15 scaling \
    discussion tuner-error alloc-budgets \
    table4 table5 elutnn-ablation data-efficiency serving; do
    cargo run --offline --release -q -p pimdl-bench --bin reproduce -- \
        "${exp}" --json "${gate_dir}" > /dev/null
done
# Every artefact written is compared, and every committed one must have
# been written: an ungated results/*.json cannot reappear.
for fresh in "${gate_dir}"/*.json; do
    cmp "${fresh}" "results/$(basename "${fresh}")"
done
for committed in results/*.json; do
    name=$(basename "${committed}")
    if [[ "${name}" != lint_inventory.json && ! -e "${gate_dir}/${name}" ]]; then
        echo "ERROR: results/${name} is not regenerated by the results gate" >&2
        exit 1
    fi
done

# The benchmark package (bench/, a workspace of its own) compiles against
# these crates' public API and is otherwise only built by the acceptance
# pipeline: lint it and run its unit tests plus the <= 15 s smoke
# self-test, so an API change that breaks it fails here first.
echo "==> bench/: cargo clippy + cargo test --release"
cargo clippy --offline --manifest-path bench/Cargo.toml --all-targets -- -D warnings
cargo test --release --offline --manifest-path bench/Cargo.toml

# Aim 2's size in every log: non-test lines per crate (a report, not a
# gate).
echo "==> scripts/loc.sh"
scripts/loc.sh

echo "All checks passed."
