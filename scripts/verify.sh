#!/usr/bin/env bash
# Full local gate: grep-only checks, then build, tests, lints. Run from
# the repo root. Every grep-only check runs before the first `cargo`
# command and reports all it finds; the script then exits once.
set -euo pipefail
cd "$(dirname "$0")/.."
shopt -s extglob
fail=0

# A file's non-test code: every line before its first test module, with
# comment lines (doc comments included) blanked so line numbers stay
# true. `$code` holds that copy of every .rs file; `code` guard rows
# below grep it.
code=$(mktemp -d)
trap 'rm -rf "$code"' EXIT
rs=$(find crates src tests examples e2e_budget/src -name '*.rs')
(cd "$code" && dirname $rs | sort -u | xargs mkdir -p)
awk -v dir="$code" 'FNR == 1 { close(out); out = dir "/" FILENAME; t = 0; printf "" > out }
  /^(mod tests|#\[cfg\(test\)\])/ { t = 1 }
  !t { if (/^[[:space:]]*\/\//) print "" > out; else print > out }' $rs
non_test() {
  cat "$code/$1"
}
# `non_test` stops at a file's first test module, so everything after it
# must be test code: no item at the top level may follow a test module
# unless `#[cfg(test)]` heads it.
if awk 'FNR == 1 { t = 0; prev = "" }
        /^(mod tests|#\[cfg\(test\)\])/ { t = 1 }
        t && /^[^[:space:]})\]\/#]/ && prev !~ /^#\[cfg\(test\)\]/ && !/^mod tests/ { print FILENAME ":" FNR ": " $0 }
        /^[^[:space:]]/ { prev = $0 }' $(find crates/*/src -name '*.rs') | grep .; then
  echo "non-test code after a test module: the line counts and audits below would not see it" >&2
  fail=1
fi

# No program goes unrun: every bin under crates/*/src/bin and every
# example is run by a line of this script (and asserts what it prints),
# or, for a bin, by the digest loop over scripts/bin_stdout.sha256. No
# manifest declares a bench target nor any crate keeps a `benches/`
# directory (guard rows below): e2e_budget is the one timing harness.
for f in crates/*/src/bin/*.rs examples/*.rs; do
  case $f in examples/*) kind=example ;; *) kind=bin ;; esac
  name=$(basename "$f" .rs)
  if ! grep -qE "^[^#]*--$kind $name( |\$)" scripts/verify.sh &&
    ! { [ $kind = bin ] && grep -qE "^[0-9a-f]{64}  $name( |\$)" scripts/bin_stdout.sha256; }; then
    echo "$f: nothing in scripts/verify.sh runs it (--$kind $name); run it here or delete it" >&2
    fail=1
  fi
done

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
# decide; this step only asks.
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

# The guards that keep the paper's chain on one path, one row each:
#   count ; scope ; pattern ; paths ; reason
# - count: the exact number of matching lines; 0 forbids the pattern.
# - scope: `text` greps every line of every file; `code` greps the .rs
#   files' non-test lines (`$code`); `name` greps the paths of files
#   and directories.
# - pattern: one extended regex; no pattern contains `;`.
# - paths: files, globs and directories (searched recursively); `!path`
#   drops a file or directory from them, so new files stay covered.
# - reason: one line, ending with its pointer.
# A path deleted on purpose leaves one row here with its reason.
guards=$(cat <<'EOF'
# One FEM solve path and one Krylov call, no escalation.
0 ; text ; bicgstab|BiCgStab|EscalationPolicy|EscalationOutcome|RungTrace|solve_escalated|rung_reasons|note_escalated|JOBS_ESCALATED ; crates tests examples ; a solve that does not converge within its budget degrades: nothing retries it, so the escalation ladder and BiCGStab do not come back (DESIGN §9)
1 ; code ; conjugate_gradient\( ; crates/fem/src ; SolverContext is the FEM crate's one solve (the cold entry points are one-shot contexts) and calls CG once (DESIGN §3)
1 ; code ; conjugate_gradient\( ; crates/fem/src/context.rs ; the one CG call is SolverContext's (DESIGN §3)
1 ; code ; gmres_with_workspace\( ; crates/fem/src ; SolverContext is the FEM crate's one solve and calls GMRES once (DESIGN §3)
1 ; code ; gmres_with_workspace\( ; crates/fem/src/context.rs ; the one GMRES call is SolverContext's (DESIGN §3)
0 ; text ; Ilu0|ilu0 ; crates tests examples ; IC(0) is the one incomplete factorization: ILU(0) does not come back (DESIGN §2)
0 ; text ; \b(PrecondKind|BlockSolve|BlockFactor|build_preconditioner|num_shifted_blocks)\b ; crates tests examples ; block-Jacobi IC(0) on fem::BLOCKS blocks, built in the context, is the one FEM preconditioner: the selector, the dense-LU block solve and its shift retry do not come back (DESIGN §3)
0 ; code ; BlockJacobiPrecond::new\( ; crates/conformance/src ; the differential's shared-memory paths precondition with the context's own factor (SolverContext::preconditioner), not a second one (DESIGN §10)
# One Krylov loop, serial and distributed.
0 ; code ; / denom ; crates !crates/sparse/src/gmres.rs ; the workspace holds one Arnoldi loop, with its Givens update in sparse/src/gmres.rs; the distributed solve runs it on a rank operator (DESIGN §2)
2 ; code ; / denom ; crates/sparse/src/gmres.rs ; the one Givens/Arnoldi update lives in sparse/src/gmres.rs (DESIGN §2)
0 ; text ; \b(distributed_gmres|distributed_gmres_ghosted|distributed_gmres_impl|allgatherv|LocalSystem|GhostedSystem)\b ; crates tests examples ; the distributed GMRES copy, the allgather matvec and the old rank types do not come back: solve with cluster::distributed_solve (DESIGN §2)
# One reduced system.
0 ; text ; apply_dirichlet|ReducedSystem|SimProblem|SimOptions|reverse_cuthill_mckee|largest_eigenvalue ; crates tests examples ; DirichletStructure is the one Dirichlet substitution: its second and third forms and the dead RCM and eigenvalue code do not come back (DESIGN §3)
1 ; code ; DirichletStructure::new\( ; crates/fem/src ; the context builds the one reduced system and the simulated cluster borrows it (DESIGN §3)
1 ; code ; DirichletStructure::new\( ; crates/fem/src/context.rs ; the one reduced system is built in the context (DESIGN §3)
1 ; code ; BlockJacobiPrecond::new\( ; crates/fem/src ; the context factors the one even-split block-Jacobi preconditioner (DESIGN §3)
1 ; code ; BlockJacobiPrecond::new\( ; crates/fem/src/context.rs ; the one FEM preconditioner is factored in the context (DESIGN §3)
1 ; code ; gmres\( ; crates/fem/src ; the simulated cluster runs the FEM crate's one direct GMRES, per-rank block-Jacobi, the Fig 7–9 model (DESIGN §4)
1 ; code ; gmres\( ; crates/fem/src/simulate.rs ; the one direct GMRES call is the simulated cluster's (DESIGN §4)
# The served solve reads 3×3 node blocks; IC(0) is cut between nodes.
0 ; text ; principal_submatrix ; crates ; a diagonal block is factored in place (Ic0::new(a, rows)): the scalar principal-block copy does not come back (DESIGN §3)
0 ; code ; \bCsrMatrix\b ; crates/cluster/src ; the ranks hold K_ff's node blocks: the cluster crate names no CsrMatrix outside its tests (DESIGN §3)
0 ; code ; to_csr\( ; crates/cluster/src crates/conformance/src crates/bench/src/bin/dist_solve_demo.rs ; the distributed solve and the differential take K_ff's blocks as they are: no scalar copy (DESIGN §3)
0 ; text ; \b(DiagonalBlocks|scalar_factor)\b ; crates tests examples src ; IC(0) factors the BsrMatrix blocks themselves: the scalar factor copy and the trait that cut scalar blocks do not come back (DESIGN §3)
0 ; text ; fn blocked\b|\.blocked\( ; crates/sparse/src ; IC(0) factors the BsrMatrix blocks themselves: ScaledUpper::blocked does not come back (DESIGN §3)
# One registration search.
0 ; text ; powell|Powell|OptimizerKind|affine_mutual_information ; crates tests examples ; rigid and affine MI registration share one coordinate descent and one metric (register/src/search.rs): the second optimizer, its selector and the affine metric copy do not come back (DESIGN §3)
1 ; code ; \bfn mutual_information\b ; crates/register/src ; both registration models read the one MI metric (DESIGN §3)
# Fixed parameters stay constants; no program nothing runs, nor the code only it read.
0 ; text ; \b(RigidRegConfig|AffineRegConfig|MiConfig|record_history|check_every|Timeline|smooth_interior)\b ; crates tests examples ; the registration configs, the residual history, the check period, the second stage-timing record and the mesh smoother held options measurement does not justify: keep fixed parameters as constants (DESIGN §5)
0 ; name ; \b(RigidRegConfig|AffineRegConfig|MiConfig|record_history|check_every|Timeline|smooth_interior)\b ; crates tests examples ; a removed config value, record or smoother does not come back as a file either (DESIGN §5)
0 ; text ; \b(fig7_deepflow|fig8a_smp|fig8b_ultra80|fig9_large|table_fig3|ablation_classifier|neurosurgery_case|multimodal_fusion|surgery_timeline|gravity_sag|scaling_study|fig6_timeline|ablation_surface_only|ablation_surface_force|ablation_resolution)\b ; crates tests examples ; programs that nothing ran: scaling_figures, quickstart, ablation_recovery and tests/simulated_scaling.rs hold their rows, and a program stays only if this script runs it (DESIGN §4)
0 ; name ; \b(fig7_deepflow|fig8a_smp|fig8b_ultra80|fig9_large|table_fig3|ablation_classifier|neurosurgery_case|multimodal_fusion|surgery_timeline|gravity_sag|scaling_study|fig6_timeline|ablation_surface_only|ablation_surface_force|ablation_resolution)\b ; crates tests examples ; a program that nothing ran does not come back as a file (DESIGN §4)
0 ; text ; \b(GaussianClassifier|feature_stack|FeatureStack|evaluate_stress|write_vtk|write_label_slice_pgm|write_raw_f32|read_raw_f32|write_nrrd_f32|write_nrrd_labels|run_scan_sequence)\b ; crates tests examples ; library code only the removed programs read: the Gaussian classifier, the feature-stack volume, stress recovery, the VTK, NRRD and raw writers and the zero-fault sequence wrapper (DESIGN §4)
0 ; name ; \b(GaussianClassifier|feature_stack|FeatureStack|evaluate_stress|write_vtk|write_label_slice_pgm|write_raw_f32|read_raw_f32|write_nrrd_f32|write_nrrd_labels|run_scan_sequence)\b ; crates tests examples ; library code only the removed programs read does not come back as a file (DESIGN §4)
0 ; text ; \b(run_scan_sequence_with_faults|FaultInjection|SequenceResult|ScanOutcome|simulate_fleet|FleetSimReport|percentile_us|route_shard)\b ; crates tests examples ; the served crates carry no test harness: the service and register_scan serve every scan, and the Fleet places sessions least-loaded (ROADMAP item 10)
0 ; name ; \b(run_scan_sequence_with_faults|FaultInjection|SequenceResult|ScanOutcome|simulate_fleet|FleetSimReport|percentile_us|route_shard)\b ; crates tests examples ; the served crates' test harness does not come back as a file (ROADMAP item 10)
# One intraoperative pipeline, one assembly per surgery.
0 ; code ; KdTree::build\(|\.classify\(|evolve_surface|SolverContext::new\(|mesh_labeled_volume\(|displacement_field_from_mesh\(|\.solve\( ; crates/core/src/pipeline.rs ; PreparedSurgery (surgery.rs) alone composes classify → surface → solve → resample; run_pipeline, its one-shot form, runs no stage itself (DESIGN §3)
1 ; code ; solve_with\( ; crates/core/src ; the core crate solves in one place, register_scan (DESIGN §3)
1 ; code ; assemble_stiffness\( ; crates/core/src ; PreparedSurgery::new assembles K once and every solver context of the surgery shares it (DESIGN §3)
1 ; code ; assemble_stiffness\( ; crates/core/src/surgery.rs ; the one assembly per surgery is in PreparedSurgery::new (DESIGN §3)
0 ; code ; assemble_stiffness\( ; crates/service/src ; the service shares the surgery's K: rebuilding a context after an eviction is reduction + factorization only (DESIGN §3)
0 ; code ; \b(TripletBuilder|par_sort_unstable_by)\b ; crates/fem/src crates/core/src ; the assembly scatters into the node-pair pattern and sums in ascending tet order, so K's bits depend on no sort and no thread count (DESIGN §3)
0 ; code ; SolverContext::new\( ; crates/core/src crates/service/src ; SolverContext::new assembles its own K: build contexts with PreparedSurgery::build_solver_context (DESIGN §3)
# One classification path.
0 ; code ; KdTree::build\(|PrototypeModel::|label_distance_map\(|Mutex ; crates/core/src/surgery.rs ; register_scan reaches segment::Classifier through one call and knows none of its parts (DESIGN §13)
1 ; code ; \.classify\( ; crates/core/src/surgery.rs ; register_scan classifies through one Classifier call (DESIGN §13)
1 ; code ; KdTree::build\( ; crates/segment/src/classify.rs ; segment::Classifier alone composes feature rows → prototypes → kd-tree → k-NN (DESIGN §13)
2 ; code ; classify_with\( ; crates/segment/src/classify.rs ; the parallel slab loop and its serial oracle are the per-voxel query's only callers (DESIGN §13)
0 ; text ; \b(classify_matrix|classify_matrix_serial|FeatureMatrix|to_matrix)\b ; crates tests examples ; Classifier::classify reads the listed voxels' rows in place: the whole-volume feature matrix does not come back (DESIGN §13)
0 ; text ; incremental ; crates/segment/src crates/core/src ; nothing carries classification state from one scan to the next: the incremental re-classification cache does not come back (DESIGN §13)
# One resample traversal.
1 ; code ; barycentric_in\( ; crates/fem/src ; ResamplePlan::new computes the voxel → tet map in one place (DESIGN §13)
1 ; code ; TetShape::shape_values\( ; crates/fem/src ; barycentric_in is the caller of the crate's one barycentric solve (DESIGN §13)
0 ; code ; displacement_field_from_mesh\( ; crates/core/src/surgery.rs ; register_scan applies the per-surgery ResamplePlan instead of rebuilding it (DESIGN §13)
# One dispatch core.
1 ; code ; advance_to_us\( ; crates/service/src ; the simulator is the one logical-clock event loop (DESIGN §11)
0 ; code ; "service\.|\.record\( ; crates/service/src !crates/service/src/core.rs ; core.rs alone records events and service.* metrics (DESIGN §11)
1 ; code ; EventKind::Enqueue\b ; crates/service/src/core.rs ; each EventKind has one recording site, in core.rs (DESIGN §11)
1 ; code ; EventKind::Reject\b ; crates/service/src/core.rs ; each EventKind has one recording site, in core.rs (DESIGN §11)
1 ; code ; EventKind::Start\b ; crates/service/src/core.rs ; each EventKind has one recording site, in core.rs (DESIGN §11)
1 ; code ; EventKind::Degrade\b ; crates/service/src/core.rs ; each EventKind has one recording site, in core.rs (DESIGN §11)
1 ; code ; EventKind::Evict\b ; crates/service/src/core.rs ; each EventKind has one recording site, in core.rs (DESIGN §11)
1 ; code ; EventKind::Cancel\b ; crates/service/src/core.rs ; each EventKind has one recording site, in core.rs (DESIGN §11)
1 ; code ; EventKind::Complete\b ; crates/service/src/core.rs ; each EventKind has one recording site, in core.rs (DESIGN §11)
1 ; code ; EventKind::Shutdown\b ; crates/service/src/core.rs ; each EventKind has one recording site, in core.rs (DESIGN §11)
# A shard snapshot holds what a restore reads.
0 ; text ; persist_into|decode_preconditioner|share_matrix|StiffnessMismatch ; crates tests examples ; restore_shard rebuilds the context on the surgery's one K, so no solver state has a codec: snapshots keep only the warm seed (DESIGN §15)
0 ; text ; RecordedRun|ReplayOutcome|SEC_LOG ; crates examples ; the event log stays with the caller and simulate is the determinism oracle: the event-log section and the recorded-run codec do not come back (DESIGN §15)
0 ; text ; brainshift-persist ; crates/sparse/Cargo.toml crates/imaging/Cargo.toml crates/fem/Cargo.toml ; the on-disk format lives in service/src/persist.rs: sparse, imaging and fem do not depend on the persist crate (DESIGN §15)
0 ; text ; impl\b.*\bPersist for\b ; crates !crates/persist/src !crates/service/src/persist.rs ; nothing outside the persist crate and service/src/persist.rs implements Persist (DESIGN §15)
# One timing harness.
0 ; name ; (^|/)benches$ ; crates vendor benches ; e2e_budget is the one timing harness: no crate keeps a benches/ directory (DESIGN §4)
0 ; text ; \[\[bench\]\] ; Cargo.toml crates/*/Cargo.toml vendor/*/Cargo.toml ; e2e_budget is the one timing harness: no manifest declares a bench target (DESIGN §4)
0 ; name ; /(warm_solve_json|persist_report|service_throughput_json)\.rs$|/benches/warm_solve\.rs$ ; crates/bench ; e2e_budget times the warm scan, the cold rebuild, the service and the snapshot/restore: the report bins that timed them a second time do not come back (DESIGN §4)
0 ; text ; name = "warm_solve" ; crates/bench/Cargo.toml ; e2e_budget is the one timing harness: the warm-solve criterion bench does not come back (DESIGN §4)
# Typed errors, not panics.
0 ; code ; \bassert(_eq|_ne)?! ; crates/sparse/src crates/fem/src crates/register/src crates/cluster/src/dsolve.rs ; non-test solver code returns typed errors (or debug_assert!s), so a malformed vector never takes down a worker; the asserts in cluster/src/{comm,sim}.rs are still to go (ROADMAP item 5(a))
EOF
)
# The lines (or, for `name`, the paths) that match a row; fails when
# none of the row's paths exists.
guard_hits() {
  local scope=$1 pattern=$2 p inc=() exc=()
  shift 2
  for p in "$@"; do
    case $p in '!'*) exc+=("${p#!}") ;; *) if [ -e "$p" ]; then inc+=("$p"); fi ;; esac
  done
  [ ${#inc[@]} -gt 0 ] || return 1
  { if [ "$scope" = name ]; then find "${inc[@]}" | grep -E -- "$pattern"
    else grep -rHnE -- "$pattern" "${inc[@]}"; fi || true; } |
    awk -v ex="${exc[*]}" 'BEGIN { n = split(ex, e, " ") }
      { for (i = 1; i <= n; i++) if ($0 == e[i] || index($0, e[i] "/") == 1 || index($0, e[i] ":") == 1) next; print }'
}
while IFS=';' read -r want scope pattern paths reason; do
  case $want in '#'* | '') continue ;; esac
  want=${want//[[:space:]]/} scope=${scope//[[:space:]]/}
  pattern=${pattern##+([[:space:]])} pattern=${pattern%%+([[:space:]])}
  paths=${paths##+([[:space:]])} paths=${paths%%+([[:space:]])} reason=${reason##+([[:space:]])}
  case $scope in
    code) root=$code ;;
    text | name) root=. ;;
    *) echo "guard row /$pattern/ has no scope text, code or name: '$scope'" >&2; fail=1; continue ;;
  esac
  if ! hits=$(cd "$root" && guard_hits "$scope" "$pattern" $paths); then
    echo "guard row /$pattern/ ($scope) searches nothing: no path of '$paths' exists" >&2
    fail=1
  else
    got=$(grep -c . <<<"$hits" || true)
    if [ "$got" -ne "$want" ]; then
      [ -z "$hits" ] || echo "$hits" >&2
      echo "guard: $got lines match /$pattern/ ($scope) in '$paths', expected $want: $reason" >&2
      fail=1
    fi
  fi
done <<<"$guards"

# The guards a line count cannot express.
# The served solve reads node blocks: `DirichletStructure`, `Ic0` and
# `RankSystem` hold no `CsrMatrix`, `Ic0` keeps no pad-row `lead` (its
# blocks start at a node), and neither it nor block-Jacobi takes a
# `CsrMatrix` (DESIGN §3).
while read -r file name; do
  body=$(awk -v s="pub struct $name {" 'index($0, s) == 1 {f = 1} f; f && /^}/ {exit}' "$file" |
    sed '/^[[:space:]]*\/\//d')
  if [ -z "$body" ]; then
    echo "pub struct $name not found in $file: the node-block guard checks nothing" >&2
    fail=1
  elif grep -nw 'CsrMatrix' <<<"$body" ||
    { [ "$name" = Ic0 ] && grep -nw 'lead' <<<"$body"; }; then
    echo "$name ($file) holds a CsrMatrix or a pad-row 'lead': the served solve reads node blocks (BsrMatrix)" >&2
    fail=1
  fi
done <<'EOF'
crates/fem/src/bc.rs DirichletStructure
crates/sparse/src/precond.rs Ic0
crates/cluster/src/dsolve.rs RankSystem
EOF
if non_test crates/sparse/src/precond.rs |
  awk '/^impl / {c = $2} /^}/ {c = ""}
       (c == "Ic0" || c == "BlockJacobiPrecond") && /fn (new|from_offsets)\(/ {g = 1; sig = ""}
       g {sig = sig $0; if (index($0, "{")) {g = 0; if (sig ~ /CsrMatrix/) print c ": " sig}}' | grep .; then
  echo "Ic0::new or BlockJacobiPrecond::{new, from_offsets} takes a CsrMatrix: they factor BsrMatrix blocks" >&2
  fail=1
fi
# The distance transform allocates its line scratch once per parallel
# task: nothing that allocates appears after the first `for` of any of
# its pass closures (DESIGN §13).
if ! grep -qF 'fn squared_edt_mm' crates/imaging/src/dtransform.rs; then
  echo "squared_edt_mm not found: the allocation guard checks nothing" >&2
  fail=1
elif awk '/^fn squared_edt_mm/ {f = 1} f && /^}/ {exit} f' crates/imaging/src/dtransform.rs |
  awk '/for_each\(/ {c = 1; l = 0}
       c && /^[[:space:]]*for / {l = 1}
       c && l && /vec!\[|Vec::|line_scratch\(|\.collect\(|\.to_vec\(/ {print}
       /^    }\);/ {c = 0}' | grep -n .; then
  echo "allocation inside a line loop of squared_edt_mm" >&2
  fail=1
fi
if [ "$fail" -ne 0 ]; then
  exit 1
fi

cargo build --release
cargo test -q

# Tier-1 runs the root package only. The pipeline itself (core), the
# mesher, rigid registration and the cluster model have unit tests that
# no stage below reaches.
cargo test -q -p brainshift-core -p brainshift-mesh -p brainshift-register -p brainshift-cluster

# The figure and ablation bins, the scaling figures (Figs 3 and 7–9, one
# program; Fig 7 at a small size must still reach the "<10 s total"
# line) and the distributed solve demo (CG and GMRES at 1, 2, 4 and 8
# rank threads on the served `K_ff`'s node blocks). Each asserts the
# shape of what it prints (EXPERIMENTS.md has the rows), and its stdout
# must hash to its line of scripts/bin_stdout.sha256, so no printed digit
# moves unseen. A change that moves one on purpose edits that file by
# hand and says why in CHANGES.md. quickstart and the scenario suite
# print wall times and are run without a digest.
while read -r want bin args; do
  got=$(cargo run -q --release -p brainshift-bench --bin "$bin" -- $args </dev/null | sha256sum | cut -d' ' -f1)
  if [ "$got" != "$want" ]; then
    echo "$bin${args:+ $args}: stdout sha256 $got, expected $want (scripts/bin_stdout.sha256)" >&2
    fail=1
  fi
done <scripts/bin_stdout.sha256
if [ "$fail" -ne 0 ]; then
  exit 1
fi
# The one example: the whole pipeline on a synthetic case, ending with
# the per-stage table (the paper's Fig 6).
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
# tests, the root-level scheduler and affinity suites (EDF order, aging
# bound, threshold-gated stealing and byte-deterministic scripts across
# worker and shard counts on the simulator; the threaded service's
# affinity dispatch, narrow-lock claim path and shutdown cancellation,
# and the fleet's placement and metric merge), and the root-level
# goldens that pin simulator ≡ parent and threaded service ≡ simulator,
# and p95 latency on a logical clock non-increasing across 1→2→4
# workers — at two rayon thread counts so the determinism claims
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
# all four workload classes served twice through a 2-worker service,
# each case's session closed once its scan resolves; the binary itself
# asserts 0 invalid meshes, 0 shed jobs, and byte-identical event
# scripts across the two runs, writing bench_out/scenario_suite.json.
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
# parallelism. (The distributed solve demo runs in the digest loop.)
RAYON_NUM_THREADS=1 cargo test -q -p brainshift-conformance differential
RAYON_NUM_THREADS=4 cargo test -q -p brainshift-conformance differential

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
