#!/usr/bin/env bash
# Full local gate: build, tests, lints. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

# A file's non-test code: every line before its first test module, less
# comment lines (doc comments included).
non_test() {
  awk '/^(mod tests|#\[cfg\(test\)\])/{exit} !/^[[:space:]]*\/\//' "$1"
}
# `non_test` stops at a file's first test module, so everything after it
# must be test code: no item at the top level may follow a test module
# unless `#[cfg(test)]` heads it.
if awk 'FNR == 1 { t = 0; prev = "" }
        /^(mod tests|#\[cfg\(test\)\])/ { t = 1 }
        t && /^[^[:space:]})\]\/#]/ && prev !~ /^#\[cfg\(test\)\]/ && !/^mod tests/ { print FILENAME ":" FNR ": " $0 }
        /^[^[:space:]]/ { prev = $0 }' $(find crates/*/src -name '*.rs') | grep .; then
  echo "non-test code after a test module: the line counts and audits below would not see it" >&2
  exit 1
fi

# No program goes unrun: every bin under crates/*/src/bin and every
# example is run by a line of this script (and asserts what it prints),
# and no manifest declares a bench target nor any crate keeps a
# `benches/` directory — e2e_budget is the one timing harness. Checked
# first, so a new program fails at once rather than after the build.
shopt -s nullglob
for f in crates/*/src/bin/*.rs examples/*.rs; do
  case $f in examples/*) kind=example ;; *) kind=bin ;; esac
  name=$(basename "$f" .rs)
  if ! grep -qE "^[^#]*--$kind $name( |\$)" scripts/verify.sh; then
    echo "$f: no line of scripts/verify.sh runs it (--$kind $name); run it here or delete it" >&2
    exit 1
  fi
done
benches=(crates/*/benches vendor/*/benches)
if [ -e benches ]; then benches+=(benches); fi
if [ ${#benches[@]} -ne 0 ]; then
  echo "${benches[*]}: a benches/ directory is back: e2e_budget is the one timing harness" >&2
  exit 1
fi
if grep -nF '[[bench]]' Cargo.toml crates/*/Cargo.toml vendor/*/Cargo.toml; then
  echo "a manifest declares a bench target: e2e_budget is the one timing harness" >&2
  exit 1
fi
shopt -u nullglob

# Every public function has a reader outside the tests. A `pub fn` that
# only tests call goes, or moves into the test module that needs it. The
# exceptions are the references that tests read: oracles a test compares
# the served code with, and fixtures that build inputs of known ground
# truth for more than one test crate. Each row names one test that reads
# it (checked). A row also fails once its name gains a reader or stops
# being a `pub fn`, so the list cannot rot. A reader is a call of the
# name (`name(`, `.name(`) or a path to it (`::name`), outside `use`
# lines and its own `fn`, in the non-test code of crates/, src/,
# examples/ and e2e_budget/src. A bare mention does not count: a field or
# a local variable of the same name would hide an unread method. A grep
# cannot see every reader, so the build, clippy and the tests below
# decide; this step only asks. Checked before the build, like the
# unrun-program check above.
allowlist=$(cat <<'EOF'
apply_rigid_misalignment tests/pipeline_end_to_end.rs fixture: a scan under a known rigid misalignment
band tests/band_classify.rs fixture: the surgery's band, on which the test rebuilds a served scan's distance force
classify_serial crates/segment/tests/classify_props.rs oracle: the serial k-NN pass of the slab-parallel classifier
distance_transform_brute tests/proptest_invariants.rs oracle: the brute-force distance transform
factorize tests/solver_cross_checks.rs oracle: DenseLu, the direct solve of the Krylov cross-check
generate_scan_sequence tests/failure_injection.rs fixture: a scan series with known deformation per stage
grad tests/band_classify.rs oracle: the whole-volume force's ∇φ, which the banded force must equal where it is exact
k_nearest_brute crates/segment/tests/classify_props.rs oracle: the brute-force k-NN vote
simulate tests/scheduler_core.rs oracle: the service's logical-clock reference, the threaded Service's script line for line
sphere crates/surface/tests/evolve_props.rs fixture: a closed surface of known radius
EOF
)
defined=$(for f in $(find crates/*/src -name '*.rs'); do non_test "$f"; done |
  grep -oE '\bpub fn [A-Za-z_][A-Za-z0-9_]*' | awk '{print $3}' | sort -u)
read_names=$(for f in $(find crates src examples e2e_budget/src -name '*.rs' -not -path '*/tests/*'); do non_test "$f"; done |
  awk '/^[[:space:]]*(pub(\([a-z]+\))? )?use / {u = 1} !u {print} u && /;/ {u = 0}' |
  grep -oE '(fn |::)?[A-Za-z_][A-Za-z0-9_]*\(?' |
  sed -nE 's/^::([A-Za-z_][A-Za-z0-9_]*)\(?$/\1/p; s/^([A-Za-z_][A-Za-z0-9_]*)\($/\1/p' | sort -u)
unread=$(comm -23 <(echo "$defined") <(echo "$read_names"))
allowed=$(awk '{print $1}' <<<"$allowlist" | sort)
fail=0
for n in $(comm -23 <(echo "$unread") <(echo "$allowed")); do
  echo "pub fn $n: nothing outside the tests reads it; delete it, make it private, or move it into the test module that needs it" >&2
  fail=1
done
for n in $(comm -13 <(echo "$unread") <(echo "$allowed")); do
  if grep -qx "$n" <<<"$defined"; then
    echo "allowlisted pub fn $n has a reader outside the tests now: drop its row" >&2
  else
    echo "allowlisted $n is no longer a pub fn in crates/*/src: drop its row" >&2
  fi
  fail=1
done
while read -r n test _; do
  if ! grep -qw "$n" "$test" 2>/dev/null; then
    echo "allowlist row $n names $test, which does not read it" >&2
    fail=1
  fi
done <<<"$allowlist"
if [ "$fail" -ne 0 ]; then
  exit 1
fi

cargo build --release
cargo test -q

# Tier-1 runs the root package only. The pipeline itself (core), the
# mesher, rigid registration and the cluster model have unit tests that
# no stage below reaches.
cargo test -q -p brainshift-core -p brainshift-mesh -p brainshift-register -p brainshift-cluster

# Registration: rigid and affine MI registration share one search. The
# ablation bin asserts what it prints — the affine model aligns the
# scale-distorted scan better than the rigid one and recovers its volume
# factor to within 0.5 % (about 2 s).
cargo run -q --release -p brainshift-bench --bin ablation_rigid_affine

# The other figure and ablation bins assert the shape of what they print,
# never its digits (EXPERIMENTS.md has the rows): Fig 4 (the simulation
# beats rigid-only), Fig 5 (the shift concentrates under the craniotomy),
# the gravity cross-check, the solver, partition, material and
# boundary-condition ablations, and the recovery ablation, which runs
# the interior-model, surface-force and resolution studies on one
# generated case.
cargo run -q --release -p brainshift-bench --bin fig4_accuracy
cargo run -q --release -p brainshift-bench --bin fig5_deformation
cargo run -q --release -p brainshift-bench --bin gravity_crossval
cargo run -q --release -p brainshift-bench --bin ablation_precond
cargo run -q --release -p brainshift-bench --bin ablation_partition
cargo run -q --release -p brainshift-bench --bin ablation_materials
cargo run -q --release -p brainshift-bench --bin ablation_bc
cargo run -q --release -p brainshift-bench --bin ablation_recovery

# The scaling figures (Figs 3 and 7–9) are one program; Fig 7 at a small
# size (about 2 s) must still reach the "<10 s total" line. The shapes
# and numerics of every figure are held by tests/simulated_scaling.rs.
# Then the one example: the whole pipeline on a synthetic case, ending
# with the per-stage table (the paper's Fig 6).
cargo run -q --release -p brainshift-bench --bin scaling_figures -- 7 20000 | grep -F '=> <10 s total from'
cargo run -q --release --example quickstart

# Failure paths are part of the contract: run the injection suite
# explicitly so a filtered test run can't silently skip it.
cargo test -q --test failure_injection

# Observability stage: the obs crate's determinism and schema tests
# (logical-clock snapshots, JSON round-trips). That a report binary
# emits a valid brainshift.obs.v1 document into bench_out/ is shown by
# conformance_report below and by the e2e_budget smoke run near the end.
cargo test -q -p brainshift-obs

# Conformance stage: the oracle hierarchy (patch tests, MMS convergence,
# differential solver harness, golden fields) at its acceptance
# thresholds, then the report bin — which exits non-zero unless every
# level passes — writing bench_out/conformance.json.
cargo test -q --test conformance_gate
cargo test -q -p brainshift-conformance
cargo run -q --release -p brainshift-conformance --bin conformance_report

# Per-scan stage: the hot path of one scan, layer by layer. Property
# tests prove a pass over any voxel subset equal to the whole-volume pass
# on the subset and to the fill elsewhere, its leaf visits additive, and
# the parallel slab classifier equal to the serial oracle, labels and
# leaf visits, on a grid of three slabs and a ragged tail, and
# the k-NN vote equal to a brute-force scan under forced distance ties;
# the sparse, imaging and FEM suites pin the fused Gram–Schmidt sweep,
# the distance transform (and its banded form to the whole one wherever
# the surface guard trusts it), the stencil gradient and the resample plan to
# the formulations they replaced, bit for bit, IC(0) to its defining
# product and CG and GMRES to their deadlines (an expired budget stops
# the solve, an unrepresentable one bounds nothing). Running
# them under two worker counts extends the equalities across thread
# counts (the dense reductions sum fixed blocks, so a Krylov solve is the
# same bits at any count), and the root-level goldens pin three whole
# warm scans and six one-shot pipelines to the same bits at both. The
# shared-stiffness suite pins a context rebuilt on the surgery's one K
# (and one restored onto it) to the first context's bits. The band suite
# holds a scan classified on the band around the reference brain
# boundary to the whole volume's field bits, with and without the
# fallback, and its band-only distance force to the whole-volume
# transform's exact cells: the guard's flag must not depend on the
# thread count either. The assembly-order suite holds every entry of `K`
# to the left-to-right sum of its contributions in ascending tet order,
# bit for bit, so `K` is the same bits at either count. The node-block
# suite holds the served solve's 3×3-block `K_ff` and `K_fc` to the
# scalar CSR products, and a CG solve under block-Jacobi IC(0) on 1, 2
# and 4 node-cut blocks to the same solve on scalar CSR, bit for bit; a
# warm CG solve to allocating nothing of the system's size, and a warm
# context solve to copying no reduced vector. The sparse suite holds the
# IC(0) factor to its defining product on the filled node-block pattern
# and its block sweeps to scalar sweeps of its own values, bit for bit.
for threads in 1 4; do
  RAYON_NUM_THREADS=$threads cargo test -q -p brainshift-segment -p brainshift-surface \
    -p brainshift-sparse -p brainshift-imaging -p brainshift-fem
  RAYON_NUM_THREADS=$threads cargo test -q --test warm_scan_bitwise --test shared_stiffness \
    --test band_classify --test assembly_order --test node_blocks
done

# Service stage: the serving layer, all of it — core/queue/cache unit
# tests, the threaded fault-injection, affinity and fleet end-to-end
# tests, the root-level scheduler and affinity property suites on the
# simulator (EDF order, aging bound, threshold-gated stealing,
# byte-deterministic scripts across worker and shard counts), and the
# root-level goldens that pin simulator ≡ parent and threaded service ≡
# simulator, and p95 latency on a logical clock non-increasing across
# 1→2→4 workers — at two rayon thread counts so the determinism claims
# survive parallelism. (The half-memory-budget run is in failure_injection
# above; the open-loop load is the benchmark's small-fleet-open workload.)
RAYON_NUM_THREADS=1 cargo test -q -p brainshift-service
RAYON_NUM_THREADS=4 cargo test -q -p brainshift-service
RAYON_NUM_THREADS=1 cargo test -q --test scheduler_core --test scheduler_props --test affinity_props
RAYON_NUM_THREADS=4 cargo test -q --test scheduler_core --test scheduler_props --test affinity_props

# Scenario stage: the seeded scenario factory. Property tests prove
# generation is a pure function of (kind, seed) — run at two thread
# counts so bitwise determinism survives parallelism — and the keypoint
# differential (monotone recovery, exact at full coverage) rides in the
# conformance gate above. Then the smoke batch: 200 seeded cases from
# all four workload classes served twice through a 2-worker service;
# the binary itself asserts 0 invalid meshes, 0 shed jobs, and
# byte-identical event scripts across the two runs, writing
# bench_out/scenario_suite.json.
RAYON_NUM_THREADS=1 cargo test -q -p brainshift-scenario
RAYON_NUM_THREADS=4 cargo test -q -p brainshift-scenario
cargo run -q --release -p brainshift-bench --bin scenario_suite_json -- 200

# Persist stage: the durability layer. Codec/container round-trip and
# corruption suites in the persist crate; the workspace property tests
# (a restored shard's next scan is bit-identical to an uninterrupted
# run's and its snapshot is the one it was restored from, byte for byte;
# a snapshot carrying the retired event-log section restores warm; a v5
# snapshot is refused; a resident context adds only its warm-start seed
# to a snapshot); and the crash-recovery gate (snapshot a shard
# mid-sequence, restore, finish — fields and event script must be
# byte-identical to an uninterrupted run; a repeated session id is
# refused; a fleet slot keeps the replaced shard's history), at two
# thread counts so the bitwise claims survive parallelism. The snapshot
# and restore times are the traced small-fleet-open run's persist probe.
RAYON_NUM_THREADS=1 cargo test -q -p brainshift-persist
RAYON_NUM_THREADS=4 cargo test -q -p brainshift-persist
RAYON_NUM_THREADS=1 cargo test -q --test persist_props --test persist_recovery
RAYON_NUM_THREADS=4 cargo test -q --test persist_props --test persist_recovery

# Solver stage: the conformance differential harness (eight named
# paths, pairwise ≤1e-6, each distributed path within 1e-12 of its serial
# twin) at two thread counts, so the agreement claims survive
# parallelism. Then the executable distributed solve on a small FEM
# system: CG and GMRES at 1, 2, 4 and 8 rank threads, each rank holding
# its whole nodes' rows of the served `K_ff` as node blocks; the demo
# asserts that every rank count converges.
RAYON_NUM_THREADS=1 cargo test -q -p brainshift-conformance differential
RAYON_NUM_THREADS=4 cargo test -q -p brainshift-conformance differential
cargo run -q --release -p brainshift-bench --bin dist_solve_demo -- 5000

# The benchmark is a package of its own that the root workspace never
# builds: compile it against the current crates and run its shortest
# workload, so an API deletion cannot break it unseen.
cargo run --release --quiet --manifest-path e2e_budget/Cargo.toml -- --workload small-fleet-open --smoke

# Every crate, every target: the bins and each crate's test code are
# linted here, warnings denied.
cargo clippy --workspace --all-targets -- -D warnings

# The numeric kernels must not panic on bad input — constructors return
# typed errors instead. The obs, sparse, FEM, core, service, segment,
# surface, register and cluster crates deny clippy::unwrap_used /
# clippy::panic in their non-test code (see the cfg_attr in each crate's
# lib.rs); lint the libs to enforce it.
cargo clippy -p brainshift-persist -p brainshift-obs -p brainshift-sparse -p brainshift-fem -p brainshift-core -p brainshift-service -p brainshift-segment -p brainshift-surface -p brainshift-scenario -p brainshift-register -p brainshift-cluster --lib -- -D warnings

# Assert audit: non-test sparse, FEM, register and distributed-solve code
# must return typed SparseError/FemError values (or use debug_assert!)
# instead of panicking assert!s — a malformed vector must never take down
# a worker thread. Doc-comment mentions are fine; anything before a file's
# test module is not. (The communicator's and the cost model's asserts,
# cluster/src/{comm,sim}.rs, are still to go: ROADMAP item 5(a).)
for f in crates/sparse/src/*.rs crates/fem/src/*.rs crates/register/src/*.rs crates/cluster/src/dsolve.rs; do
  if non_test "$f" | grep -nE '(^|[^_a-zA-Z0-9])assert(_eq|_ne)?!'; then
    echo "panicking assert in non-test code: $f" >&2
    exit 1
  fi
done

# One FEM solve path and one Krylov call: SolverContext is the only place
# in the FEM crate that solves — the cold entry points are one-shot
# contexts, not a second copy of the solve — and it calls the configured
# method once. A solve that does not converge within its budget degrades;
# nothing retries it with another method, so the escalation ladder and
# BiCGStab do not come back (DESIGN §9, §16). IC(0) is the one incomplete
# factorization; ILU(0) does not come back either.
if grep -rnE 'bicgstab|BiCgStab|EscalationPolicy|EscalationOutcome|RungTrace|solve_escalated|rung_reasons|note_escalated|JOBS_ESCALATED' crates tests examples; then
  echo "the escalation ladder or BiCGStab is back: a failed solve degrades (DESIGN §9)" >&2
  exit 1
fi
for call in 'conjugate_gradient(' 'gmres_with_workspace('; do
  n=$(for f in crates/fem/src/*.rs; do non_test "$f"; done | grep -cF "$call" || true)
  m=$(non_test crates/fem/src/context.rs | grep -cF "$call" || true)
  if [ "$n" -ne 1 ] || [ "$m" -ne 1 ]; then
    echo "expected exactly one non-test '$call' call in crates/fem/src, in context.rs; found $n ($m in context.rs)" >&2
    exit 1
  fi
done
if grep -rnE 'Ilu0|ilu0' crates tests examples; then
  echo "ILU(0) is back: IC(0) is the one incomplete factorization" >&2
  exit 1
fi

# One preconditioner: every FEM solve factors block-Jacobi IC(0) on
# `fem::BLOCKS` blocks (on the symmetric K_ff, the paper's block-Jacobi
# ILU(0)), built in the context only. The preconditioner selector, the
# dense-LU block solve and its diagonal-shift retry do not come back.
if grep -rnwE 'PrecondKind|BlockSolve|BlockFactor|build_preconditioner|num_shifted_blocks' crates tests examples; then
  echo "a removed preconditioner option is back: block-Jacobi IC(0) on fem::BLOCKS blocks is the one FEM preconditioner" >&2
  exit 1
fi

# The conformance differential's shared-memory paths precondition with
# the context's own factor (`SolverContext::preconditioner`); they do not
# factor a second one.
n=$(for f in $(find crates/conformance/src -name '*.rs'); do non_test "$f"; done | grep -cF 'BlockJacobiPrecond::new(' || true)
if [ "$n" -ne 0 ]; then
  echo "found $n non-test 'BlockJacobiPrecond::new(' in crates/conformance/src: use the context's preconditioner" >&2
  exit 1
fi

# One Krylov loop, serial and distributed: the distributed solve runs
# sparse's CG and GMRES on a rank operator whose reductions are
# allreduces (DESIGN §2), so the workspace holds exactly one Arnoldi
# loop — one file with a Givens update — and the distributed GMRES copy,
# the allgather matvec and the old rank types do not come back.
files=$(for f in $(find crates/*/src -name '*.rs'); do non_test "$f" | grep -F '/ denom' >/dev/null && echo "$f"; done || true)
if [ "$files" != crates/sparse/src/gmres.rs ]; then
  echo "expected the one Givens/Arnoldi update ('/ denom') in crates/sparse/src/gmres.rs only; found in: $files" >&2
  exit 1
fi
if grep -rnE '\b(distributed_gmres|distributed_gmres_ghosted|distributed_gmres_impl|allgatherv|LocalSystem|GhostedSystem)\b' crates tests examples; then
  echo "a deleted distributed-solve item is back: solve with cluster::distributed_solve" >&2
  exit 1
fi

# One reduced system: `DirichletStructure` is the only Dirichlet
# substitution. The context builds it and factors the one even-split
# block-Jacobi preconditioner on it, the simulated cluster borrows it
# and runs the crate's only direct GMRES (per-rank block-Jacobi, the
# Fig 7–9 model), and neither the second and third forms of the reduction
# nor the dead RCM and eigenvalue code come back (DESIGN §3, §16).
if grep -rnE 'apply_dirichlet|ReducedSystem|SimProblem|SimOptions|reverse_cuthill_mckee|largest_eigenvalue' crates tests examples; then
  echo "a deleted reduced-system form or dead sparse item is back" >&2
  exit 1
fi
while read -r call home; do
  n=$(for f in crates/fem/src/*.rs; do non_test "$f"; done | grep -cF "$call" || true)
  m=$(non_test "crates/fem/src/$home" | grep -cF "$call" || true)
  if [ "$n" -ne 1 ] || [ "$m" -ne 1 ]; then
    echo "expected exactly one non-test '$call' call in crates/fem/src, in $home; found $n ($m in $home)" >&2
    exit 1
  fi
done <<'EOF'
DirichletStructure::new( context.rs
BlockJacobiPrecond::new( context.rs
gmres( simulate.rs
EOF

# The served solve reads node blocks (DESIGN §3, §20): `K_ff` and `K_fc`
# in `DirichletStructure`, the IC(0) factor in `Ic0` and each rank's rows
# in `RankSystem` are `BsrMatrix`, and no scalar CSR copy of any of them
# comes back beside the blocks: the cluster crate names no `CsrMatrix`
# outside its tests, the distributed solve and the conformance
# differential take `K_ff`'s blocks as they are (no `to_csr()` outside
# their tests), and the scalar principal-block copy does not come back.
# There is one IC(0): it factors straight from a `BsrMatrix`'s diagonal
# blocks on the filled node-block pattern, between nodes, so `Ic0` keeps
# no pad-row `lead`, and neither it nor block-Jacobi takes a `CsrMatrix`.
# The scalar factor copy (`scalar_factor`, `ScaledUpper::blocked`) and the
# `DiagonalBlocks` trait that cut scalar blocks do not come back.
while read -r file name; do
  body=$(awk -v s="pub struct $name {" 'index($0, s) == 1 {f = 1} f; f && /^}/ {exit}' "$file" |
    sed '/^[[:space:]]*\/\//d')
  if [ -z "$body" ]; then
    echo "pub struct $name not found in $file: the node-block guard checks nothing" >&2
    exit 1
  fi
  if grep -nw 'CsrMatrix' <<<"$body"; then
    echo "$name ($file) holds a CsrMatrix: the served solve reads node blocks (BsrMatrix)" >&2
    exit 1
  fi
done <<'EOF'
crates/fem/src/bc.rs DirichletStructure
crates/sparse/src/precond.rs Ic0
crates/cluster/src/dsolve.rs RankSystem
EOF
if grep -rn 'principal_submatrix' crates; then
  echo "the scalar principal-block copy is back: a diagonal block is factored in place (Ic0::new(a, rows))" >&2
  exit 1
fi
if for f in $(find crates/cluster/src -name '*.rs'); do non_test "$f"; done | grep -nw 'CsrMatrix'; then
  echo "crates/cluster/src names CsrMatrix outside its tests: the ranks read node blocks" >&2
  exit 1
fi
for f in $(find crates/cluster/src crates/conformance/src -name '*.rs') crates/bench/src/bin/dist_solve_demo.rs; do
  if non_test "$f" | grep -nF 'to_csr('; then
    echo "a scalar copy of a node-block matrix in $f: the distributed solve reads node blocks" >&2
    exit 1
  fi
done
if awk '/^pub struct Ic0 \{/ {f = 1} f; f && /^}/ {exit}' crates/sparse/src/precond.rs | grep -nw 'lead'; then
  echo "Ic0 holds a pad-row 'lead': its blocks start at a node" >&2
  exit 1
fi
if grep -rnwE 'DiagonalBlocks|scalar_factor' crates tests examples src ||
  grep -rnE 'fn blocked\b|\.blocked\(' crates/sparse/src; then
  echo "a scalar IC(0) path is back: IC(0) factors the BsrMatrix blocks themselves" >&2
  exit 1
fi
if non_test crates/sparse/src/precond.rs |
  awk '/^impl / {c = $2} /^}/ {c = ""}
       (c == "Ic0" || c == "BlockJacobiPrecond") && /fn (new|from_offsets)\(/ {g = 1; sig = ""}
       g {sig = sig $0; if (index($0, "{")) {g = 0; if (sig ~ /CsrMatrix/) print c ": " sig}}' | grep .; then
  echo "Ic0::new or BlockJacobiPrecond::{new, from_offsets} takes a CsrMatrix: they factor BsrMatrix blocks" >&2
  exit 1
fi

# One registration search: rigid and affine MI registration run the same
# coordinate descent through the same level loop on the same metric
# (`crates/register/src/search.rs`). The second optimizer, its selector
# and the affine copy of the metric do not come back.
if grep -rnE 'powell|Powell|OptimizerKind|affine_mutual_information' crates tests examples; then
  echo "a deleted registration optimizer or metric copy is back: both models share search.rs" >&2
  exit 1
fi
n=$(for f in crates/register/src/*.rs; do non_test "$f"; done | grep -cE '\bfn mutual_information\b' || true)
if [ "$n" -ne 1 ]; then
  echo "expected exactly one non-test 'fn mutual_information' in crates/register/src, found $n" >&2
  exit 1
fi

# Fixed parameters stay constants: the paper's chain runs MI rigid
# registration, a k-NN over a fixed prototype model and one active-surface
# evolution with fixed settings, and nothing set the configs, the
# residual history, the convergence-check period, the second stage-timing
# record or the mesh smoother these names held. Options that measurement
# does not justify do not come back as config values. Nor do the
# programs that nothing ran (the four figure bins and the machine table
# that `scaling_figures` replaced, the classifier ablation, five
# examples, the Fig 6 timeline, whose rows quickstart, `scaling_figures 7`
# and tests/simulated_scaling.rs hold, and the three ablations that each
# generated the case `ablation_recovery` now generates once) or the
# library code only they read: the Gaussian classifier, the
# feature-stack volume, stress recovery, the VTK, NRRD and raw writers
# and the zero-fault sequence wrapper. Nor does the test harness that
# lived in the served crates: the second per-scan runner (the service
# and `register_scan` serve every scan) and the hash-routed fleet
# simulator (the `Fleet` places sessions least-loaded). A name may come
# back as a file name too.
removed='RigidRegConfig|AffineRegConfig|MiConfig|record_history|check_every|Timeline|smooth_interior|fig7_deepflow|fig8a_smp|fig8b_ultra80|fig9_large|table_fig3|ablation_classifier|neurosurgery_case|multimodal_fusion|surgery_timeline|gravity_sag|scaling_study|fig6_timeline|ablation_surface_only|ablation_surface_force|ablation_resolution|GaussianClassifier|feature_stack|FeatureStack|evaluate_stress|write_vtk|write_label_slice_pgm|write_raw_f32|read_raw_f32|write_nrrd_f32|write_nrrd_labels|run_scan_sequence|run_scan_sequence_with_faults|FaultInjection|SequenceResult|ScanOutcome|simulate_fleet|FleetSimReport|percentile_us|route_shard'
if grep -rnwE "$removed" crates tests examples || find crates tests examples -name '*.rs' | grep -wE "$removed"; then
  echo "a removed config value, record, smoother or program (or library code only it read) is back: keep fixed parameters as constants, and a program only if verify.sh runs it" >&2
  exit 1
fi

# One intraoperative pipeline: `PreparedSurgery` (surgery.rs) is the only
# place in the workspace that composes classify → surface → solve →
# resample. `run_pipeline` is its one-shot form and calls no stage itself.
for call in 'KdTree::build(' '.classify(' 'evolve_surface' 'SolverContext::new(' \
  'mesh_labeled_volume(' 'displacement_field_from_mesh(' '.solve('; do
  if non_test crates/core/src/pipeline.rs | grep -nF "$call"; then
    echo "pipeline.rs runs a stage itself ('$call'): compose stages in surgery.rs only" >&2
    exit 1
  fi
done
n=$(for f in crates/core/src/*.rs; do non_test "$f"; done | grep -cF 'solve_with(' || true)
if [ "$n" -ne 1 ]; then
  echo "expected exactly one non-test 'solve_with(' call in crates/core/src, found $n" >&2
  exit 1
fi

# One assembly per surgery: `PreparedSurgery::new` assembles K and every
# solver context of the surgery shares it, so rebuilding a context after
# a cache eviction is reduction + factorization only. Nothing else in
# core or the service assembles, or builds a context that assembles.
n=$(for f in crates/core/src/*.rs; do non_test "$f"; done | grep -cF 'assemble_stiffness(' || true)
m=$(non_test crates/core/src/surgery.rs | grep -cF 'assemble_stiffness(' || true)
if [ "$n" -ne 1 ] || [ "$m" -ne 1 ]; then
  echo "expected exactly one non-test 'assemble_stiffness(' call in crates/core/src, in surgery.rs; found $n ($m in surgery.rs)" >&2
  exit 1
fi
# The assembly scatters each tet's 3×3 node-pair blocks into the rows of
# the node range that owns them and sums every entry in ascending tet
# order (DESIGN §19), so `K`'s bits depend on no sort and no thread
# count. No triplet list and no sort come back into the FEM or core crates.
for f in crates/fem/src/*.rs crates/core/src/*.rs; do
  if non_test "$f" | grep -nE '\b(TripletBuilder|par_sort_unstable_by)\b'; then
    echo "a triplet list or a sort is back in $f: assemble by scattering into the node-pair pattern" >&2
    exit 1
  fi
done
for f in crates/service/src/*.rs; do
  if non_test "$f" | grep -nF 'assemble_stiffness('; then
    echo "the service assembles a stiffness matrix ($f): share the surgery's" >&2
    exit 1
  fi
done
for f in crates/core/src/*.rs crates/service/src/*.rs; do
  if non_test "$f" | grep -nF 'SolverContext::new('; then
    echo "SolverContext::new assembles its own K ($f): build contexts with PreparedSurgery::build_solver_context" >&2
    exit 1
  fi
done

# One classification path: `segment::Classifier` is the only place that
# composes feature rows → prototypes → kd-tree → k-NN. `register_scan`
# reaches it through one call and knows none of its parts, the parallel
# slab loop and its serial oracle are the only two callers of the
# per-voxel query, no whole-volume feature matrix comes back beside the
# listed-voxel pass, and nothing carries classification state from one
# scan to the next.
for part in 'KdTree::build(' 'PrototypeModel::' 'label_distance_map(' 'Mutex'; do
  if non_test crates/core/src/surgery.rs | grep -nF "$part"; then
    echo "surgery.rs knows the classifier's algorithm ('$part'): keep it behind segment::Classifier" >&2
    exit 1
  fi
done
n=$(non_test crates/core/src/surgery.rs | grep -cF '.classify(' || true)
if [ "$n" -ne 1 ]; then
  echo "expected exactly one non-test '.classify(' call in surgery.rs, found $n" >&2
  exit 1
fi
n=$(non_test crates/segment/src/classify.rs | grep -cF 'KdTree::build(' || true)
if [ "$n" -ne 1 ]; then
  echo "expected exactly one non-test 'KdTree::build(' call in segment/src/classify.rs, found $n" >&2
  exit 1
fi
n=$(non_test crates/segment/src/classify.rs | grep -cF 'classify_with(' || true)
if [ "$n" -ne 2 ]; then
  echo "expected two non-test 'classify_with(' calls in segment/src/classify.rs (slab loop, serial oracle), found $n" >&2
  exit 1
fi
if grep -rnE '\b(classify_matrix|classify_matrix_serial|FeatureMatrix|to_matrix)\b' crates tests examples; then
  echo "the whole-volume feature matrix is back: Classifier::classify reads the listed voxels' rows in place (DESIGN §13)" >&2
  exit 1
fi
if grep -rn "incremental" crates/segment/src crates/core/src; then
  echo "the incremental re-classification cache was removed (DESIGN §13): do not bring it back" >&2
  exit 1
fi

# One resample traversal and no per-line allocation: the voxel → tet map
# is computed in one place (`ResamplePlan::new`, the only caller of the
# crate's one barycentric solve, `TetShape::shape_values`), the per-scan
# path applies the per-surgery plan instead of rebuilding it, and the
# distance transform allocates its line scratch once per parallel task —
# nothing that allocates appears after the first `for` of any of its
# pass closures.
n=$(for f in crates/fem/src/*.rs; do non_test "$f"; done | grep -cF 'barycentric_in(' || true)
if [ "$n" -ne 1 ]; then
  echo "expected exactly one non-test 'barycentric_in(' call in crates/fem/src, found $n" >&2
  exit 1
fi
n=$(for f in crates/fem/src/*.rs; do non_test "$f"; done | grep -cF 'TetShape::shape_values(' || true)
if [ "$n" -ne 1 ]; then
  echo "expected exactly one non-test 'TetShape::shape_values(' call in crates/fem/src, found $n" >&2
  exit 1
fi
if non_test crates/core/src/surgery.rs | grep -nF 'displacement_field_from_mesh('; then
  echo "register_scan must apply the per-surgery ResamplePlan, not rebuild it" >&2
  exit 1
fi
if awk '/^fn squared_edt_mm/ {f = 1} f && /^}/ {exit} f' crates/imaging/src/dtransform.rs |
  awk '/for_each\(/ {c = 1; l = 0}
       c && /^[[:space:]]*for / {l = 1}
       c && l && /vec!\[|Vec::|line_scratch\(|\.collect\(|\.to_vec\(/ {print}
       /^    }\);/ {c = 0}' | grep -n .; then
  echo "allocation inside a line loop of squared_edt_mm" >&2
  exit 1
fi
if ! grep -qF 'fn squared_edt_mm' crates/imaging/src/dtransform.rs; then
  echo "squared_edt_mm not found: the allocation guard above checks nothing" >&2
  exit 1
fi

# One dispatch core: `core.rs` is the only place in the service crate
# that makes a scheduling decision visible — it alone records events and
# `service.*` metrics, each `EventKind` at exactly one site — and the
# simulator is the only logical-clock event loop.
n=$(for f in crates/service/src/*.rs; do non_test "$f"; done | grep -cF 'advance_to_us(' || true)
if [ "$n" -ne 1 ]; then
  echo "expected exactly one non-test 'advance_to_us(' call in crates/service/src, found $n" >&2
  exit 1
fi
for f in crates/service/src/*.rs; do
  [ "$f" = crates/service/src/core.rs ] && continue
  if non_test "$f" | grep -nE '"service\.|\.record\('; then
    echo "service.* metric literal or EventLog::record call outside the core: $f" >&2
    exit 1
  fi
done
for kind in Enqueue Reject Start Degrade Evict Cancel Complete Shutdown; do
  n=$(non_test crates/service/src/core.rs | grep -cE "EventKind::$kind\b" || true)
  if [ "$n" -ne 1 ]; then
    echo "expected exactly one recording site for EventKind::$kind in core.rs, found $n" >&2
    exit 1
  fi
done

# A shard snapshot holds what a restore reads (DESIGN §15): each
# session's warm-start vector, a stiffness fingerprint, its carry-forward
# field and counters, and the id counters. `restore_shard` rebuilds the
# context on the surgery's one K, so no solver state has a codec and the
# context codec's hooks do not come back; the event log stays with the
# caller, and the recorded-run codec is gone (`simulate` is the
# determinism oracle). `crates/service/src/persist.rs` is the one file
# outside the persist crate that knows the on-disk format: nothing else
# implements `Persist`, and sparse, imaging and fem do not depend on the
# persist crate.
if grep -rnE 'persist_into|decode_preconditioner|share_matrix|StiffnessMismatch' crates tests examples; then
  echo "a deleted solver-state codec is back: snapshots keep only the warm seed (DESIGN §15)" >&2
  exit 1
fi
if grep -rnE 'RecordedRun|ReplayOutcome|SEC_LOG' crates examples; then
  echo "the event-log section or the recorded-run codec is back: a snapshot holds what a restore reads (DESIGN §15)" >&2
  exit 1
fi
for krate in sparse imaging fem; do
  if grep -n 'brainshift-persist' "crates/$krate/Cargo.toml"; then
    echo "$krate depends on brainshift-persist: the on-disk format lives in service/src/persist.rs" >&2
    exit 1
  fi
done
if grep -rnE 'impl\b.*\bPersist for\b' crates --include='*.rs' |
  grep -vE '^(crates/persist/src/|crates/service/src/persist\.rs:)'; then
  echo "a Persist impl outside crates/persist/src and crates/service/src/persist.rs" >&2
  exit 1
fi

# One timing harness: e2e_budget times the warm scan (paper77k-warm),
# the cold rebuild (mid-cold-churn), the service and the snapshot/restore
# (small-fleet-open). The report bins and the criterion benches that timed
# those paths a second time do not come back (the bench-target check at
# the top refuses any bench).
for f in crates/bench/src/bin/warm_solve_json.rs crates/bench/src/bin/persist_report.rs \
  crates/bench/src/bin/service_throughput_json.rs crates/bench/benches/warm_solve.rs; do
  if [ -e "$f" ]; then
    echo "$f is back: e2e_budget is the one timing harness" >&2
    exit 1
  fi
done
if grep -nF 'name = "warm_solve"' crates/bench/Cargo.toml; then
  echo "crates/bench declares the warm-solve criterion bench again: e2e_budget is the one timing harness" >&2
  exit 1
fi
