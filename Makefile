PYTEST := PYTHONPATH=src python -m pytest

.PHONY: test test-fast bench bench-cpu lint experiments

## Full tier-1 suite: every test plus the curation-heavy benchmarks (~5 min).
test:
	$(PYTEST) -q

## Fast path: skips tests marked slow (the full-context benchmarks); < 2 min.
test-fast:
	$(PYTEST) -q -m "not slow"

## Only the benchmark suite (regenerates benchmarks/output/).
bench:
	$(PYTEST) -q benchmarks

## CPU-path gate: columnar/scalar golden parity both ways, batched
## seeding, the address generator's scalar draws and the stratified
## sampler against numpy's own, then Bench E-X10 (fails if the columnar
## fast path drops below 10x scalar).
bench-cpu:
	REPRO_COLUMNAR=1 $(PYTEST) -q tests/test_columnar.py
	REPRO_COLUMNAR=0 $(PYTEST) -q tests/test_columnar.py -m "not slow"
	$(PYTEST) -q tests/test_seeding.py tests/test_addresses.py tests/test_sampling.py
	$(PYTEST) -q -s benchmarks/test_cpu_path.py

## Syntax/lint gate: ruff when installed, byte-compilation always.
lint:
	python -m compileall -q src tests benchmarks examples
	@if python -c "import ruff" 2>/dev/null || command -v ruff >/dev/null; then \
		ruff check src tests benchmarks examples; \
	else \
		echo "ruff not installed; compileall gate only"; \
	fi

## Regenerate every paper table/figure.
experiments:
	PYTHONPATH=src python -m repro.experiments
