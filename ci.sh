#!/usr/bin/env sh
# CI gate: formatting, lints as errors, the full test suite, benchmark
# compilation, and a batch-engine smoke run.
# Run from the repository root. Fails fast on the first broken step.
set -eu

cargo fmt --all -- --check
cargo clippy --workspace --all-targets -- -D warnings
cargo test --workspace
# the same suite in the optimized build the benchmark measures: a result
# that holds only in debug (timing, or float codegen) fails here
cargo test --workspace --release -q
# the benchmark package (perfbench/, its own workspace) must keep
# building against the library APIs it imports
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo bench --no-run

# rustdoc is part of the deliverable: every public item documented,
# every intra-doc link resolving (crates/hls, crates/verify and
# crates/obs carry #![warn(missing_docs)])
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

# per-call evaluation counts (DESIGN.md §11.1): the exact-count
# assertions of the observability suite run again with 8 harness
# threads, so sibling tests evaluate while each profile is taken — any
# shared counter reintroduced on the evaluation path trips them
RUST_TEST_THREADS=8 cargo test -q --test observability

# batch execution engine smoke: compile every example datapath and run a
# tiny batch through the bit and jit backends (exit 1 on checker
# errors or panics); the profiled run must produce the same digest as
# the plain one (the observability determinism contract, DESIGN.md
# §11). Every example must also pass the full static gauntlet — T* tape
# translation validation at both optimizer settings, R* value-range
# analysis, warnings denied (exit-status contract in
# src/bin/csfma-lint.rs)
for f in examples/datapaths/*.csfma; do
    cargo run -q --bin csfma-lint -- --tape --ranges --deny-warnings "$f" > /dev/null
    plain=$(cargo run -q --bin csfma-run -- --fuse pcs --batch 16 --threads 2 "$f")
    prof=$(cargo run -q --bin csfma-run -- --profile=json --fuse pcs --batch 16 --threads 2 "$f")
    d1=$(printf '%s\n' "$plain" | sed -n 's/.*digest //p')
    d2=$(printf '%s\n' "$prof" | sed -n 's/.*digest //p')
    [ -n "$d1" ] && [ "$d1" = "$d2" ] || { echo "ci: --profile changed digest on $f ($d1 vs $d2)" >&2; exit 1; }
    # the JIT through the CLI: the fused runs above are refused by the
    # emitter, so run each example unfused, where the native code
    # executes; its digest must equal the bit backend's (DESIGN.md §16)
    jit=$(cargo run -q --bin csfma-run -- --backend jit --dump-jit --batch 64 "$f")
    bit=$(cargo run -q --bin csfma-run -- --backend bit --batch 64 "$f")
    d3=$(printf '%s\n' "$jit" | sed -n 's/.*digest //p')
    d4=$(printf '%s\n' "$bit" | sed -n 's/.*digest //p')
    [ -n "$d3" ] && [ "$d3" = "$d4" ] || { echo "ci: --backend jit digest differs from --backend bit on $f ($d3 vs $d4)" >&2; exit 1; }
    # the bit-plane kernel through the CLI: --batch 16 above is a partial
    # chunk, so only full 64-row chunks run the plane kernel and its
    # in-place register writes; their digest must equal the oracle's
    for fuse in pcs fcs; do
        pb=$(cargo run -q --bin csfma-run -- --fuse $fuse --backend bit --batch 128 "$f")
        po=$(cargo run -q --bin csfma-run -- --fuse $fuse --backend oracle --batch 128 "$f")
        d5=$(printf '%s\n' "$pb" | sed -n 's/.*digest //p')
        d6=$(printf '%s\n' "$po" | sed -n 's/.*digest //p')
        [ -n "$d5" ] && [ "$d5" = "$d6" ] || { echo "ci: --fuse $fuse --backend bit digest differs from --backend oracle on $f ($d5 vs $d6)" >&2; exit 1; }
    done
done

# golden-vector corpus: absolute output bits of the FMA units, the
# compiled example datapaths and the bit-plane chunk kernel — including
# the mutation test that arms the kernel's corruption hook and requires
# the corpus to catch a single flipped plane word (regenerate only after
# an intentional semantics change; see tests/golden_vectors.rs)
cargo test -q --test golden_vectors
cargo test -q --test cli_run

# fusion oracle (DESIGN.md §7 item 5): the incremental-timing pass must
# match the rebuild-per-trial reference node for node and trial for
# trial, including on the ldlsolve-s2 and -s3 kernels and the
# 20,000-case random-graph run that tier-1 skips
cargo test --release -q --test fusion_oracle -- --include-ignored

# optimizer oracle (DESIGN.md §9): the whole tape optimizer (fold/CSE/DCE
# fixpoint, wake-up/select pressure reorder, dead-slot sweep) must emit
# the tapes of a reference that rebuilds the graph every pass, keys CSE
# by encoding bytes and reorders by full rescan, tape for tape, again
# including the ldlsolve-s2 and -s3 kernels that tier-1 skips
cargo test --release -q --test reorder_oracle -- --include-ignored

# compile-gate oracle (DESIGN.md §9): the one-pass structural gate must
# give the two-pass reference's verdict and diagnostics on the 100,000
# random graphs that tier-1 skips; and every tape must still match the
# recorded table (instructions, provenance, constants, names, slot
# counts, fingerprint, optimizer counts), ldlsolve-s2 and -s3 included
cargo test --release -q --test gate_oracle -- --include-ignored
cargo test --release -q --test tape_pin -- --include-ignored

# parser oracle: the borrowed-token parser must build the String-token
# reference's graphs, ranges and positioned errors, including on the 10^6
# seeded one-character mutants that tier-1 skips
cargo test --release -q --test parser_oracle -- --include-ignored

# LZA oracle (DESIGN.md §13.3): the limb-wise early-LZA indicator must
# match the bit-serial reference and the LZA contract, again including
# the cases tier-1 skips: every pair to 11 bits and 10^6 biased random
# pairs at widths 1-200
cargo test --release -q --test lza_oracle -- --include-ignored

# rounding-decision oracle (DESIGN.md §13.3): the limb-wise block
# rounding decision must match the resolve-and-read-two-bits route it
# replaced, again including the 10^7 biased pairs that tier-1 skips
cargo test --release -q --test rounding_oracle -- --include-ignored

# conversion oracle (DESIGN.md §13.3): the word-level binary64 <-> carry-
# save conversions must match the exact routes they replaced, in all five
# rounding modes, again including the 10^6 cases that tier-1 skips
cargo test --release -q --test conversion_oracle -- --include-ignored

# JIT oracle (DESIGN.md §16): the four-row native code must match the
# bit-accurate interpreter on the 20,000 random IEEE graphs that tier-1
# skips, plus the lane-isolation and ragged-tail bailout cases, in the
# optimized build the benchmark measures
cargo test --release -q --test jit_differential -- --include-ignored

# executable filetest corpus: `; run:` directives pin per-backend result
# bits (the bit backend goes through the bit-plane kernel on a full
# 64-lane chunk) and `; run-differential:` sweeps adversarial batches
# across backends at different thread counts
cargo test -q --test filetests

# native-JIT byte-identity (DESIGN.md §16): proptest differentials
# against the bit-accurate interpreter on random IEEE graphs, every
# example datapath, fused fallback, promoted tapes and adversarial
# bailout batches. Run twice: with the JIT armed (on capable hosts the
# emitted code actually executes) and with the CSFMA_JIT kill switch
# thrown (the all-rows interpreter fallback configuration) — both must
# produce identical bytes, which is the whole contract. The rustdoc
# gate above already covers the hls::jit module (crates/hls carries
# #![warn(missing_docs)]).
cargo test -q --test jit_differential
CSFMA_JIT=off cargo test -q --test jit_differential

# plane/scalar equivalence: special-value matrix + proptests over
# full/partial/single-row batches, and ragged-tail thread invariance
# (DESIGN.md §13.3)
cargo test -q --test plane_equivalence
cargo test -q --test determinism

# exhaustive plane == scalar on toy formats (DESIGN.md §13.3): every
# (A, B, C) triple of the 7-bit minifloat through a toy PCS and a toy FCS
# unit, about 1.6M triples each, which tier-1 skips (it runs the 6-bit
# format)
cargo test --release -q --test toy_exhaustive -- --include-ignored

# scheduler torture suite (DESIGN.md §14): rows x threads grid vs the
# 1-thread oracle, robust fault plans under stealing, a pathologically
# skewed mix of tapes through steal_indexed, and direct claim/steal
# races on the deque. Run three ways:
# default harness parallelism, serialized (--test-threads=1 removes
# inter-test contention so a failure reproduces cleanly), and with the
# harness pinned to 2 threads (a *different* contention pattern against
# the executor's own worker pool)
cargo test -q --test scheduler
cargo test -q --test scheduler -- --test-threads=1
RUST_TEST_THREADS=2 cargo test -q --test scheduler

# fuzz targets build and take a short deterministic run through their
# corpora (offline libfuzzer-sys stub — no cargo-fuzz needed; crank
# FUZZ_ITERS for a real session)
cargo build --release --manifest-path fuzz/Cargo.toml
FUZZ_ITERS=2000 ./fuzz/target/release/parser_round_trip fuzz/corpus/parser_round_trip > /dev/null 2>&1
FUZZ_ITERS=2000 ./fuzz/target/release/compile_gate fuzz/corpus/compile_gate > /dev/null 2>&1
FUZZ_ITERS=2000 ./fuzz/target/release/tape_verify fuzz/corpus/tape_verify > /dev/null 2>&1
FUZZ_ITERS=2000 ./fuzz/target/release/serve_frame fuzz/corpus/serve_frame > /dev/null 2>&1

# engine ratios over the scalar oracle, timed in the optimized build:
# bitwise equality on every oracle row, >=5x for the best bit-backend
# graph, >=10x for the PCS datapaths, >=5x for every JIT graph, the
# >=1.5x fused-graph gain over the pre-SoA/pre-optimizer engine, and
# scaling at the host's hardware thread count (tests/engine_ratios.rs)
cargo test --release -q --test engine_ratios -- --include-ignored

# fault-injection campaign: sweep every fault site with single-bit
# transients at a fixed seed; the bin gates zero silent corruptions and
# a >=90% detection rate on every checker-covered site (DESIGN.md §10).
# Every count must also equal the checked-in record (only the timing
# field may move); the run's copy is then discarded
cargo run -q --release -p csfma-bench --bin fault_campaign 2000 42 > /dev/null
drift=$(git diff -U0 -- results/BENCH_faults.json | sed -n '/^[-+][^-+]/p' | grep -v '"eval_us_per_row"' || true)
git checkout -- results/BENCH_faults.json
[ -z "$drift" ] || { printf 'ci: fault_campaign 2000 42 differs from results/BENCH_faults.json:\n%s\n' "$drift" >&2; exit 1; }

# serve smoke: bind an ephemeral port, run one in-process round trip
# (digest checked against a local eval), then drain — exit 1 on any
# failed leg (exit-status contract in src/bin/csfma-serve.rs)
cargo run -q --release --bin csfma-serve -- --self-test > /dev/null
