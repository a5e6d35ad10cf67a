# Convenience targets; everything also works as the plain commands in
# the README (PYTHONPATH=src python -m pytest ...).

.PHONY: test clean bench-smoke native

test:
	PYTHONPATH=src python -m pytest -x -q

# Pre-build the native kernel backend's shared object into the keyed
# cache (~/.cache/repro or $REPRO_NATIVE_CACHE) so the first timed run
# doesn't pay the one-off compile.  Needs a C compiler on PATH; fails
# loudly without one (auto-selection would just fall back instead).
native:
	PYTHONPATH=src python -c "from repro.kernels import native_backend as n; print(n.library_path())"

# Stale src/**/__pycache__ directories are the classic editable-install
# footgun: bytecode compiled against a previous checkout can shadow a
# renamed or deleted module and produce "works here, fails there" runs.
# CI runs this before installing (see .github/workflows/ci.yml); run it
# locally after switching branches.
clean:
	find src tests benchmarks -name __pycache__ -type d -prune -exec rm -rf {} +
	rm -rf .pytest_cache

bench-smoke:
	PYTHONPATH=src python benchmarks/bench_csr.py --smoke
	PYTHONPATH=src python benchmarks/bench_kernels.py --smoke
