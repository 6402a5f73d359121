.PHONY: all build test check validate cli-errors trace bench clean

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

# End-to-end check of the structured output path: run the full repro as
# JSON and make sure every report parses back and the run manifest's
# invariants hold (stage seconds >= 0, sim-cache hits + misses = lookups,
# batch cache_hits + simulated <= members, per layout stage
# hits + misses = lookups with seconds >= 0, metrics counters consistent,
# GC sample present).  The same runs record a span trace (--trace), which
# is then validated too: begin/end balanced per track, durations
# non-negative, no unclosed spans.  Run single- and multi-domain so the
# fused batch replay, the parallel staged layout builds and the
# per-worker trace tracks are validated under both fan-out modes.
validate: build
	ICACHE_JOBS=1 _build/default/bin/icache_opt.exe repro --small --words 60000 --format json \
	  --trace _build/trace_j1.json \
	  | _build/default/bin/icache_opt.exe validate
	_build/default/bin/icache_opt.exe validate _build/trace_j1.json
	ICACHE_JOBS=4 _build/default/bin/icache_opt.exe repro --small --words 60000 --format json \
	  --trace _build/trace_j4.json \
	  | _build/default/bin/icache_opt.exe validate
	_build/default/bin/icache_opt.exe validate _build/trace_j4.json

# Bad command-line input is a usage error (exit 124), never an uncaught
# exception (125) or a silent success (0): invalid cache geometries and a
# non-positive trace length are rejected before any work starts.
cli-errors: build
	@for args in "simulate --size-kb 3" "simulate --assoc 3" \
	  "simulate --line 4096 --size-kb 1" "simulate --line 2" "simulate --words 0" \
	  "sweep --sizes 3" "sweep --lines 2" "sweep --words 0"; do \
	  status=0; _build/default/bin/icache_opt.exe $$args --small >/dev/null 2>&1 || status=$$?; \
	  if [ $$status -ne 124 ]; then \
	    echo "cli-errors: icache-opt $$args exited $$status, expected 124"; exit 1; \
	  fi; \
	done; echo "cli-errors: ok"

# Capture a span timeline of the small repro and print its hot spans.
# The Chrome-format trace lands in _build/trace.json: load it in
# https://ui.perfetto.dev or summarize with `icache-opt trace-summary`.
trace: build
	_build/default/bin/icache_opt.exe repro --small --trace _build/trace.json
	_build/default/bin/icache_opt.exe trace-summary _build/trace.json

bench:
	dune exec bench/main.exe -- --no-timing

clean:
	dune clean
