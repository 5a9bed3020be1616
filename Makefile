PYTHON ?= python
export PYTHONPATH := src

.PHONY: test ci bench bench-full bench-obs bench-service bench-gateway bench-cache bench-cdcl bench-cdcl-full bench-recovery chaos docs-check paper-tables

test:
	$(PYTHON) -m pytest tests/

# What .github/workflows/ci.yml runs per Python version.
ci:
	$(PYTHON) -m compileall -q src
	$(PYTHON) -m pytest -x -q
	$(PYTHON) tools/docs_lint.py

# QA hot-path micro-benchmark (< 60 s); writes BENCH_hotpath.json and
# fails if AnnealerDevice.run with the native read-out is slower than
# with the NumPy/Python one or returns a different result, or the
# frontend-cache acceptance solve fails.
bench:
	$(PYTHON) -m benchmarks.bench_hotpath --quick

bench-full:
	$(PYTHON) -m benchmarks.bench_hotpath

# Observability overhead check; needs BENCH_hotpath.json (make bench)
# and fails if the disabled path costs more than 2% over its baseline.
bench-obs:
	$(PYTHON) -m benchmarks.bench_observability --quick

# Solver-service throughput; writes BENCH_service.json and fails if
# modelled throughput at 4 workers is below 2x serial or any service
# run is not bit-identical to the solo baseline.
bench-service:
	$(PYTHON) -m benchmarks.bench_service --quick

# Gateway benchmark; writes BENCH_gateway.json and fails unless wire
# results are bit-identical to solo replays of the routed placements
# and modelled fleet throughput at 4 devices is >= 1.7x one device.
bench-gateway:
	$(PYTHON) -m benchmarks.bench_gateway --quick

# Persistent-cache benchmark; writes BENCH_cache.json and fails
# unless cached results replay bit-identically (solver fields, zero
# QPU billing) and the zipf job-stream replay through the gateway DES
# models >= 3x throughput with the cache on.
bench-cache:
	$(PYTHON) -m benchmarks.bench_cache --quick

# CDCL engine benchmark; writes BENCH_cdcl.json and fails unless the
# native kernel is >= 10x the reference propagation rate with
# bit-identical outcomes (skips cleanly when no C compiler exists).
bench-cdcl:
	$(PYTHON) -m benchmarks.bench_cdcl --quick

bench-cdcl-full:
	$(PYTHON) -m benchmarks.bench_cdcl

# Durability overhead; writes BENCH_recovery.json and fails if the
# write-ahead journal costs more than 5% on the batch path or any
# journaled outcome diverges from the bare run.
bench-recovery:
	$(PYTHON) -m benchmarks.bench_recovery --quick

# Chaos harness (tools/chaos.py): kill -9 a real batch subprocess,
# tear the journal at random offsets, storm a device fleet — fails on
# the first violated recovery invariant.
chaos:
	$(PYTHON) tools/chaos.py torn-tail --trials 10
	$(PYTHON) tools/chaos.py fault-storm --trials 2
	$(PYTHON) tools/chaos.py crash-batch --trials 1 --jobs 2 --count 3

# Docs lint: broken relative links, phantom --flags, undocumented
# solve flags (see tools/docs_lint.py).
docs-check:
	$(PYTHON) tools/docs_lint.py

# Regenerate every paper table / figure reproduction.
paper-tables:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only
