.PHONY: all build test check validate cli-errors examples trace clean

all: build

build:
	dune build

test:
	dune runtest

# CI entry point: build, then run the tier-1 suite single-domain and
# multi-domain so the determinism guarantee (parallel == sequential, see
# test/test_parallel.ml) is exercised on every run.
check: build
	ICACHE_JOBS=1 dune runtest --force
	ICACHE_JOBS=4 dune runtest --force
	$(MAKE) validate
	$(MAKE) cli-errors
	$(MAKE) examples

# End-to-end check of the structured output path: run the full repro as
# JSON and make sure every report parses back, has its experiment.<id>
# stage row, and the schema v5 run manifest's invariants hold (stage
# seconds >= 0, every metrics hits + misses = lookups trio, counters
# >= 0, each batch field equal to its batch.<field> counter, batch
# cache_hits + simulated <= members, GC sample present).  The same runs
# record a span trace (--trace), which is then validated too: begin/end
# balanced per track, durations non-negative, no unclosed spans.  Run
# single- and multi-domain so the fused batch replay, the parallel staged
# layout builds and the per-worker trace tracks are validated under both
# fan-out modes.  Then each fixture under test/validate/, which breaks
# one invariant, must be rejected: exit 1 with an `invalid:` line that
# matches the pattern paired with it below (`.` stands for a space).
VALIDATE_REJECTS = v4_manifest:schema_version.4 trio_mismatch:'<>.lookups.3' \
  batch_not_counter:batch:.members missing_experiment_row:no.experiment.robust \
  unclosed_span:unclosed.span

validate: build
	ICACHE_JOBS=1 _build/default/bin/icache_opt.exe repro --small --words 60000 --format json \
	  --trace _build/trace_j1.json \
	  | _build/default/bin/icache_opt.exe validate
	_build/default/bin/icache_opt.exe validate _build/trace_j1.json
	ICACHE_JOBS=4 _build/default/bin/icache_opt.exe repro --small --words 60000 --format json \
	  --trace _build/trace_j4.json \
	  | _build/default/bin/icache_opt.exe validate
	_build/default/bin/icache_opt.exe validate _build/trace_j4.json
	@for case in $(VALIDATE_REJECTS); do \
	  f=test/validate/$${case%%:*}.json; want=$${case#*:}; status=0; \
	  err=$$(_build/default/bin/icache_opt.exe validate $$f 2>&1 >/dev/null) || status=$$?; \
	  if [ $$status -ne 1 ] || ! echo "$$err" | grep -q "^invalid: .*$$want"; then \
	    echo "validate: $$f exited $$status ($$err), expected 1 with invalid: ...$$want"; exit 1; \
	  fi; \
	done; echo "validate: rejection fixtures ok"

# Bad command-line input is a usage error (exit 124), never an uncaught
# exception (125) or a silent success (0): invalid cache geometries, a
# non-positive trace length and an out-of-range workload index are
# rejected before any work starts.
cli-errors: build
	@for args in "simulate --size-kb 3" "simulate --assoc 3" \
	  "simulate --line 4096 --size-kb 1" "simulate --line 2" "simulate --words 0" \
	  "simulate --workload 4" "trace --workload 4 -o /dev/null" \
	  "sweep --sizes 3" "sweep --lines 2" "sweep --words 0"; do \
	  status=0; _build/default/bin/icache_opt.exe $$args --small >/dev/null 2>&1 || status=$$?; \
	  if [ $$status -ne 124 ]; then \
	    echo "cli-errors: icache-opt $$args exited $$status, expected 124"; exit 1; \
	  fi; \
	done; echo "cli-errors: ok"

# Run every example end to end; any non-zero exit fails the target.
EXAMPLES = quickstart layout_explorer cache_geometry custom_workload multiprocessor

examples: build
	@for e in $(EXAMPLES); do \
	  _build/default/examples/$$e.exe >/dev/null || { echo "examples: $$e failed"; exit 1; }; \
	done; echo "examples: ok"

# Capture a span timeline of the small repro and print its hot spans.
# The Chrome-format trace lands in _build/trace.json: load it in
# https://ui.perfetto.dev or summarize with `icache-opt trace-summary`.
trace: build
	_build/default/bin/icache_opt.exe repro --small --trace _build/trace.json
	_build/default/bin/icache_opt.exe trace-summary _build/trace.json

clean:
	dune clean
