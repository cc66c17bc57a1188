#!/usr/bin/env bash
# Full local gate: build, tests, lints. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

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

# Failure paths are part of the contract: run the injection suite
# explicitly so a filtered test run can't silently skip it.
cargo test -q --test failure_injection

# Observability stage: the obs crate's determinism and schema tests
# (logical-clock snapshots, JSON round-trips) plus a small warm-solve
# run to prove a report binary emits a valid brainshift.obs.v1 document
# into bench_out/.
cargo test -q -p brainshift-obs
cargo run -q --release -p brainshift-bench --bin warm_solve_json -- 4000 3

# Conformance stage: the oracle hierarchy (patch tests, MMS convergence,
# differential solver harness, golden fields) at its acceptance
# thresholds, then the report bin — which exits non-zero unless every
# level passes — writing bench_out/conformance.json.
cargo test -q --test conformance_gate
cargo test -q -p brainshift-conformance
cargo run -q --release -p brainshift-conformance --bin conformance_report

# Per-scan stage: the hot path of one scan, layer by layer. Property
# tests prove the parallel slab classifier equal to the serial oracle,
# labels and leaf visits, on a grid of three slabs and a ragged tail, and
# the k-NN vote equal to a brute-force scan under forced distance ties;
# the sparse, imaging and FEM suites pin the fused Gram–Schmidt sweep,
# the distance transform, the stencil gradient and the resample plan to
# the formulations they replaced, bit for bit, IC(0) to its defining
# product and CG and GMRES to their deadlines (an expired budget stops
# the solve, an unrepresentable one bounds nothing). Running
# them under two worker counts extends the equalities across thread
# counts (the dense reductions sum fixed blocks, so a Krylov solve is the
# same bits at any count), and the root-level goldens pin three whole
# warm scans and six one-shot pipelines to the same bits at both. The
# shared-stiffness suite pins a context rebuilt on the surgery's one K
# (and one restored onto it) to the first context's bits.
for threads in 1 4; do
  RAYON_NUM_THREADS=$threads cargo test -q -p brainshift-segment -p brainshift-surface \
    -p brainshift-sparse -p brainshift-imaging -p brainshift-fem
  RAYON_NUM_THREADS=$threads cargo test -q --test warm_scan_bitwise --test shared_stiffness
done

# Service stage: the serving layer, all of it — core/queue/cache unit
# tests, the scheduler and affinity property suites on the simulator
# (EDF order, aging bound, threshold-gated stealing, byte-deterministic
# scripts across worker and shard counts), the threaded fault-injection,
# affinity and fleet end-to-end tests, and the root-level goldens that
# pin simulator ≡ parent and threaded service ≡ simulator — at two rayon
# thread counts so the determinism claims survive parallelism. Then a
# small-scale smoke of the open-loop load generator (3 surgeries × 3
# scans, 1.5 s cadence — ~10% utilization on one CPU). It internally
# asserts deadline behaviour never worsens as workers are added, no
# errors at half memory budget, and — always, on a logical clock — p95
# monotone non-increasing across the 1→2→4 worker sweep.
RAYON_NUM_THREADS=1 cargo test -q -p brainshift-service
RAYON_NUM_THREADS=4 cargo test -q -p brainshift-service
RAYON_NUM_THREADS=1 cargo test -q --test scheduler_core
RAYON_NUM_THREADS=4 cargo test -q --test scheduler_core
cargo run -q --release -p brainshift-bench --bin service_throughput_json -- 3 3 1500

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
# (event logs round-trip canonically, a restored shard's next scan is
# bit-identical to an uninterrupted run's, a v5 snapshot is refused, and
# a resident context adds only its warm-start seed to a snapshot); and
# the crash-recovery gate (snapshot a shard mid-sequence, restore, finish
# — fields and event script must be byte-identical to an uninterrupted
# run), at two thread counts so the bitwise claims survive parallelism.
# Then the durability report bin, which prints the shard snapshot's size
# with and without a resident context and the restore time, and asserts
# that the restored session repeats its last scan warm in zero
# iterations, that recovery is byte-exact and that replay-from-log is
# deterministic, writing bench_out/persist.json.
RAYON_NUM_THREADS=1 cargo test -q -p brainshift-persist
RAYON_NUM_THREADS=4 cargo test -q -p brainshift-persist
RAYON_NUM_THREADS=1 cargo test -q --test persist_props --test persist_recovery
RAYON_NUM_THREADS=4 cargo test -q --test persist_props --test persist_recovery
cargo run -q --release -p brainshift-bench --bin persist_report

# Solver stage: the conformance differential harness (seven named
# paths, pairwise ≤1e-6) at two thread counts, so the agreement claims
# survive parallelism.
RAYON_NUM_THREADS=1 cargo test -q -p brainshift-conformance differential
RAYON_NUM_THREADS=4 cargo test -q -p brainshift-conformance differential

# The benchmark is a package of its own that the root workspace never
# builds: compile it against the current crates and run its shortest
# workload, so an API deletion cannot break it unseen.
cargo run --release --quiet --manifest-path e2e_budget/Cargo.toml -- --workload small-fleet-open --smoke

# Every crate, every target: the bench bins and each crate's test code
# are compiled and linted here and nowhere else.
cargo clippy --workspace --all-targets -- -D warnings

# The numeric kernels must not panic on bad input — constructors return
# typed errors instead. The obs, sparse, FEM, core, service, segment,
# surface and register crates deny clippy::unwrap_used / clippy::panic in
# their non-test code (see the cfg_attr in each crate's lib.rs); lint the
# libs to enforce it.
cargo clippy -p brainshift-persist -p brainshift-obs -p brainshift-sparse -p brainshift-fem -p brainshift-core -p brainshift-service -p brainshift-segment -p brainshift-surface -p brainshift-scenario -p brainshift-register --lib -- -D warnings

# Assert audit: non-test sparse, FEM and register code must return typed
# SparseError/FemError values (or use debug_assert!) instead of
# panicking assert!s — a malformed vector must never take down a worker
# thread. Doc-comment mentions are fine; anything before a file's test
# module is not.
non_test() {
  awk '/^(mod tests|#\[cfg\(test\)\])/{exit} !/^[[:space:]]*\/\//' "$1"
}
for f in crates/sparse/src/*.rs crates/fem/src/*.rs crates/register/src/*.rs; do
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

# One reduced system: `DirichletStructure` is the only Dirichlet
# substitution. The context builds it, the simulated cluster borrows it
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
gmres( simulate.rs
EOF

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
# composes stack → prototypes → kd-tree → k-NN. `register_scan` reaches it
# through one call and knows none of its parts, the parallel slab loop
# and its serial oracle are the only two callers of the per-voxel query,
# and nothing carries classification state from one scan to the next.
for part in 'KdTree::build(' 'FeatureStack::' 'PrototypeModel::' 'label_distance_map(' 'Mutex'; do
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

# A restore is a rebuild plus a seed (DESIGN §15): a shard snapshot keeps
# each session's warm-start vector and a stiffness fingerprint, and
# `restore_shard` rebuilds the context on the surgery's one K. So no
# solver state has a codec: the sparse crate keeps exactly one Persist
# impl (`StopReason`, which event logs carry), fem does not depend on the
# persist crate, and the context codec's hooks do not come back.
if grep -rnE 'persist_into|decode_preconditioner|share_matrix|StiffnessMismatch' crates tests examples; then
  echo "a deleted solver-state codec is back: snapshots keep only the warm seed (DESIGN §15)" >&2
  exit 1
fi
if grep -n 'brainshift-persist' crates/fem/Cargo.toml; then
  echo "fem depends on brainshift-persist: solver state is rebuilt on restore, not decoded" >&2
  exit 1
fi
n=$(grep -rhE 'impl\b.*\bPersist for\b' crates/sparse/src | wc -l || true)
m=$(grep -rhE 'impl\b.*\bPersist for StopReason\b' crates/sparse/src | wc -l || true)
if [ "$n" -ne 1 ] || [ "$m" -ne 1 ]; then
  echo "expected exactly one Persist impl in crates/sparse/src, for StopReason; found $n ($m for StopReason)" >&2
  exit 1
fi
