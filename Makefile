# CI entry points. `make ci` is the full gate; the individual targets
# exist for fast local iteration. Everything runs offline — the lockfile
# is committed and the workspace has no external dependencies.

CARGO ?= cargo

.PHONY: ci build test test-repeat chaos clippy route-digest bench-smoke lint-smoke diff-smoke cov-smoke yardstick loc

ci: build test test-repeat chaos clippy route-digest bench-smoke lint-smoke diff-smoke cov-smoke yardstick loc

# One way to run each tool. The front ends (batnet-lint, batnet-cov,
# batnet-repair, batnet-diff, obs-validate) live in the root package.
RUN      = $(CARGO) run --release --offline
HARNESS  = $(RUN) -p batnet-bench --bin harness --
VALIDATE = $(RUN) -p batnet-repro --bin obs-validate --
OBS_DIFF = $(RUN) -p batnet-obs --bin obs-diff --
OBS_TRACE = $(RUN) -p batnet-obs --bin obs-trace --
LINT     = $(RUN) -p batnet-repro --bin batnet-lint --
COV      = $(RUN) -p batnet-repro --bin batnet-cov --
REPAIR   = $(RUN) -p batnet-repro --bin batnet-repair --
DIFF     = $(RUN) -p batnet-repro --bin batnet-diff --

# The bench gate: re-run a harness experiment ($(1) = its arguments,
# writing $(2)), validate the emitted file, and check its row set
# against the committed baseline $(3) — schema drift, a missing stage or
# a row from nowhere fails. Time is not compared here: that takes the
# benchmark's ten alternating pairs (benchmark/README.md).
define bench-gate
	$(HARNESS) $(1) --out $(2)
	$(VALIDATE) $(2)
	$(OBS_DIFF) $(3) $(2)
endef

build:
	$(CARGO) build --release --offline --workspace

test:
	$(CARGO) test -q --offline --workspace

# The tests that were red off a 1-CPU box share the process-global
# recorder and map width (still statics: ROADMAP item 9); five
# consecutive passes at the default --test-threads is the regression
# gate for that, for the recorder's own concurrency contracts (open
# order, reset, take_tree), for the server's timing-sensitive
# overload and drain tests, for concurrent /diffs sharing a stored
# snapshot's memo lock, and for the BGP colour groups' parallel
# sweep (width 1 vs 4, both scheduler modes).
test-repeat:
	for i in 1 2 3 4 5; do $(CARGO) test -q --offline --test parallel || exit 1; done
	for i in 1 2 3 4 5; do $(CARGO) test -q --offline --test routing colour_groups || exit 1; done
	for i in 1 2 3 4 5; do $(CARGO) test -q --offline -p batnet-obs --test concurrency || exit 1; done
	for i in 1 2 3 4 5; do $(CARGO) test -q --offline -p batnet-serve --lib server || exit 1; done
	for i in 1 2 3 4 5; do $(CARGO) test -q --offline -p batnet-serve --test diff || exit 1; done

# Robustness gate: 25 seeds x all 6 mutation classes over NET1 and the
# N2 data center — zero escaped panics, every quarantined device
# accounted for, monotone degradation, coverage/repair never panic and
# always balance their accounting — plus the invariant-8 service
# sweep: 5 seeds x 7 adversarial client classes against a live
# batnet-serve, every rejection accounted, the listener never down.
chaos: build
	$(RUN) -p batnet-chaos -- --seeds 25 --nets net1,n2 --serve-seeds 5

# No unwrap/panic on library paths of the facade and chaos crates (their
# dependency closure is swept in by cargo, so this effectively covers
# every production crate; topogen exempts itself as fixture-only). The
# recorder crate gets its own unwrap gate: a lock-then-`unwrap()` there
# would turn one contained worker panic into poisoned telemetry for the
# whole process, so every lock must recover via `PoisonError::into_inner`.
# The last invocation enforces the workspace-wide timing discipline from
# clippy.toml (`Instant::now` is disallowed outside batnet_obs::clock) and
# denies unused code, so a deletion cannot leave imports behind, and
# parameters a function only passes to itself when it recurses.
clippy:
	$(CARGO) clippy --offline -p batnet -p batnet-chaos -- -D clippy::unwrap_used -D clippy::panic
	$(CARGO) clippy --offline -p batnet-obs -p batnet-serve -p batnet-lint -p batnet-diff -p batnet-coverage -- -D clippy::unwrap_used
	$(CARGO) clippy --offline --workspace --all-targets -- -D clippy::disallowed_methods -D unused -D clippy::only_used_in_recursion

# Routing-state oracle: per suite network, the device count, the route
# total and one digest of every device's main RIB, best routes, clock,
# FIB and RIB-in plus the convergence report must equal the committed
# results/route-digest.txt. A change that alters routing state on purpose
# updates that file in the same commit and says why in CHANGES.md.
route-digest: build
	$(HARNESS) route-digest > target/route-digest.out
	grep 'digest=' target/route-digest.out | diff results/route-digest.txt -

# Pipeline gate: the N2 rows of Table 2 at `--threads 1` and at the
# default all-core width. Both files validate and both match the
# committed BENCH_table2.json row set (row keys are width-independent);
# the default-width run's span forest is its profile, and folds into a
# flamegraph (exact self time per span path).
bench-smoke: build
	$(call bench-gate,table2 --net N2 --threads 1,target/BENCH_n2_t1.json,BENCH_table2.json)
	$(call bench-gate,table2 --net N2,target/BENCH_n2.json,BENCH_table2.json)
	$(OBS_TRACE) target/BENCH_n2.json --format folded --out target/BENCH_n2.folded

# Lint gate: SARIF output on the smallest and the largest suite network
# validates against the in-tree checker, the clean network passes
# `--deny error`, and the planted undefined-reference fixture fails it —
# proving the exit gate actually gates.
lint-smoke: build
	$(LINT) --net n2 --format sarif --out target/lint-n2.sarif
	$(VALIDATE) target/lint-n2.sarif
	$(LINT) --net n11 --format sarif --out target/lint-n11.sarif
	$(VALIDATE) target/lint-n11.sarif
	$(LINT) --net n2 --deny error --out /dev/null
	! $(LINT) --dir fixtures/lint-bad --deny error --out /dev/null

# Differential-analysis gate: (1) self-diff of the N2 suite network is
# empty, exits 0, and its JSON is byte-identical across two runs and
# across pool widths (`--threads 1` vs all cores — `cmp`, because the
# whole report must match, not just its shape: determinism is the
# contract pre-deployment gating stands on);
# (2) the committed fixture pair with one planted ACL edit reports the
# delta and fails under `--deny any` — proving the gate actually gates;
# (3) the fixture pair whose after side only adds comment lines (every
# span below them shifts) passes `--deny any`;
# (4) the diff bench re-measures its stages, the emitted file validates,
# and its structure matches the committed BENCH_diff.json baseline.
diff-smoke: build
	$(DIFF) --net N2 --format json --out target/diff-self-1.json --deny any
	$(DIFF) --net N2 --format json --out target/diff-self-2.json
	cmp target/diff-self-1.json target/diff-self-2.json
	$(DIFF) --net N2 --threads 1 --format json --out target/diff-self-t1.json
	cmp target/diff-self-1.json target/diff-self-t1.json
	$(VALIDATE) target/diff-self-1.json
	! $(DIFF) --before fixtures/diff-pair/before --after fixtures/diff-pair/after --deny any --out target/diff-pair.txt
	$(DIFF) --before fixtures/diff-shift/before --after fixtures/diff-shift/after --deny any --out target/diff-shift.txt
	$(call bench-gate,diff,target/BENCH_diff_smoke.json,BENCH_diff.json)

# Coverage + repair gate: (1) the N2 coverage report validates, and the
# N2 and N11 reports are each byte-identical across two runs (the JSON
# is the audit artifact, so determinism is the contract); (2) the
# planted lint-bad fixture has a genuine never-touched gap and fails
# `--deny gap` — proving the exit gate actually gates; (3)
# `batnet-repair` reproduces both committed expected patches byte for
# byte (lint-driven delete and diff-driven revert); (4) the cov bench
# re-measures its stages, the emitted file validates, and its structure
# matches the committed BENCH_cov.json.
cov-smoke: build
	$(COV) --net n2 --format json --out target/cov-n2-1.json
	$(VALIDATE) target/cov-n2-1.json
	$(COV) --net n2 --format json --out target/cov-n2-2.json
	cmp target/cov-n2-1.json target/cov-n2-2.json
	$(COV) --net n11 --format json --out target/cov-n11-1.json
	$(COV) --net n11 --format json --out target/cov-n11-2.json
	cmp target/cov-n11-1.json target/cov-n11-2.json
	! $(COV) --dir fixtures/lint-bad --deny gap --out /dev/null
	$(REPAIR) --dir fixtures/repair-bad/lint --check undefined-reference --out target/repair-lint.patch
	cmp target/repair-lint.patch fixtures/repair-bad/lint/expected.patch
	$(REPAIR) --before fixtures/repair-bad/diff/before --after fixtures/repair-bad/diff/after --out target/repair-diff.patch
	cmp target/repair-diff.patch fixtures/repair-bad/diff/expected.patch
	$(call bench-gate,cov,target/BENCH_cov_smoke.json,BENCH_cov.json)

# The yardstick (BENCHMARK.json's command, short): all four workloads,
# timed and traced, at quick size for 1 s each. Exits non-zero on a
# wrong answer (the Tracer-backed oracle), a failed operation, or a
# metric BENCHMARK.json names that the program does not report. The
# numbers are not judged here — that takes ten alternating pairs
# (benchmark/README.md). cargo rewrites the stale benchmark/Cargo.lock
# when it builds; the file is frozen, so it is put back. Then every
# recorded trajectory row must still validate.
yardstick: build
	cp benchmark/Cargo.lock target/benchmark-Cargo.lock
	$(CARGO) run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- run --all --quick --seconds 1; \
		status=$$?; cp target/benchmark-Cargo.lock benchmark/Cargo.lock; exit $$status
	$(VALIDATE) results/TRAJECTORY.jsonl

# The size of the program: non-blank lines in crates/*/src/**/*.rs and
# src/**/*.rs, without each file's column-0 `#[cfg(test)]` + `mod …`
# block (its in-module tests, up to the next column-0 `}`). Integration
# tests, examples and benchmark/ are not counted.
loc:
	@find crates/*/src src -name '*.rs' | LC_ALL=C sort | xargs awk '\
		FNR == 1 { skip = 0; held = 0 } \
		skip { if (/^}/) skip = 0; next } \
		held { held = 0; if (/^mod /) { skip = !/;[[:space:]]*$$/; next } n++ } \
		/^#\[cfg\(test\)\][[:space:]]*$$/ { held = 1; next } \
		NF { n++ } \
		END { print "loc:", n }'
