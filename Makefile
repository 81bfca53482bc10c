PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint bench bench-smoke bench-e2e paper-claims oracle-soak chaos-soak sanitize-soak serve-soak serve-chaos slo-smoke profile examples

test:
	$(PYTHON) -m pytest -x -q

# Static-analysis gate: the shipped plans and examples must lint clean,
# the analyzer's own tests must pass, and the analyzer and plan compiler
# must import no operator class beyond the ones they name for a reason
# (the import-closure walk in tests/test_operator_declarations.py).
lint:
	$(PYTHON) -m repro lint all examples/
	$(PYTHON) -m pytest -q tests/test_analysis_typeflow.py \
		tests/test_analysis_commsafety.py tests/test_analysis_lint_cli.py \
		tests/test_symbolic.py tests/test_operator_declarations.py

bench:
	$(PYTHON) -m repro bench all

# Wall-clock (not simulated) smoke probes; writes out/bench_smoke.json and
# fails on any of three gates: an armed-but-idle subsystem (fault injector,
# query lifecycle) costing more than 5%, or radix not 2x faster than
# sorted-hash on the skewed join workload.  The two execution modes run the
# same kernels, so there is no mode race.
bench-smoke:
	$(PYTHON) -m repro.bench.smoke --out out/bench_smoke.json

# Contract test of the end-to-end benchmark that gates regressions
# (BENCHMARK.json; see benchmarks/e2e/README.md for running a workload).
bench-e2e:
	$(PYTHON) -m pytest -q benchmarks/e2e

# The paper's claims as assertions: Table 1's size ordering and the
# bounds of Figs. 6-9 and the ablations, on the simulated clock (~10 s).
# The e2e benchmark is its own gate (bench-e2e), so it is left out here.
paper-claims:
	$(PYTHON) -m pytest -q benchmarks --ignore=benchmarks/e2e --benchmark-disable

# Differential-oracle soak: 1,500 random (not derandomized) examples of
# tests/test_oracle.py, with every executed plan statically verified.  Run
# it after any change to how plans execute (~2 min); a failure prints the
# shrunk example to pin as an @example.
define ORACLE_SOAK
import repro.core.executor
repro.core.executor.VERIFY_PLANS = True
from hypothesis import HealthCheck, given, settings, strategies as st
from tests.test_oracle import bulk_cases, cells, check, logical_cases
@settings(max_examples=1500, deadline=None, database=None,
          suppress_health_check=list(HealthCheck))
@given(case=st.one_of(logical_cases(), bulk_cases()), cell=cells)
def explore(case, cell):
    check(case, cell)
explore()
print("oracle soak: 1500 examples OK")
endef
export ORACLE_SOAK

oracle-soak:
	PYTHONPATH=src:. $(PYTHON) -W ignore -c "$$ORACLE_SOAK"

# Seeded fault-injection soak: every builtin plan and TPC-H query must
# stay bit-identical to its fault-free run under transient comm faults,
# a transient mid-stage rank crash (on 4 ranks and on the last of 8), a
# permanent crash (degraded n-1 rerun), and planner-level memory pressure.  Exit 1 on any divergence.
# Fused only: interpreted runs the same data path at another cost rate,
# and the differential oracle keeps that cell.
chaos-soak:
	$(PYTHON) -m repro chaos all --seeds 3
	$(PYTHON) -m repro chaos all --seeds 1 --crash-rank 2 --crash-after 6
	$(PYTHON) -m repro chaos all --seeds 1 --machines 8 --crash-rank 7 \
		--crash-after 6
	$(PYTHON) -m repro chaos all --seeds 1 --crash-rank 1 --crash-after 4 \
		--permanent
	$(PYTHON) -m repro chaos q14 --seeds 1 --strategy broadcast \
		--memory-pressure

# Runtime-sanitizer soak: every builtin plan and TPC-H query runs with the
# MOD050-MOD053 sanitizer armed under the full chaos matrix (fault-free,
# transient faults, permanent-crash degrade, memory pressure); the report
# must be clean and the results bit-identical to the unsanitized run.
# The one-machine run covers the one-way exchange, whose puts send each
# morsel whole, under the sanitizer's put digest.
sanitize-soak:
	$(PYTHON) -m repro sanitize all
	$(PYTHON) -m repro sanitize join q14 --mode interpreted \
		--policies none transient
	$(PYTHON) -m repro sanitize all --machines 1 --policies none transient

# Concurrent-serving soak: 16 interleaved TPC-H queries on one shared
# cluster must be bit-identical to serial runs (clean and under transient
# chaos), with no tenant starved beyond its fair-share weight.
serve-soak:
	$(PYTHON) -m repro serve --queries 16
	$(PYTHON) -m repro serve --queries 16 --chaos

# Query-lifecycle robustness gate: the full chaos matrix (transient,
# crash, straggler, flaky-with-retries) must stay bit-identical to
# serial with journal conservation intact (every submission settled
# once, as its client saw it, steps matching the scheduler's count), and
# the poison-plan breaker scenario must trip the circuit while bystander
# queries on the same server keep matching their serial reference.
# Exports the merged multi-query Chrome trace and the per-profile journal
# JSON as run artifacts (open out/serve_trace.json in chrome://tracing or
# Perfetto).
serve-chaos:
	mkdir -p out
	$(PYTHON) -m repro serve --matrix --queries 8 --sf 0.005 \
		--chrome-out out/serve_trace.json \
		--journal-out out/serve_journals.json

# SLO latency gate: serve a mixed batch and fail if any tenant or
# prepared-plan handle burns past its error budget on the simulated axis.
slo-smoke:
	$(PYTHON) -m repro slo --queries 16 --target 0.01 --objective 0.99

# EXPLAIN ANALYZE a TPC-H query and export the merged operator+substrate
# Chrome trace (open out/profile_trace.json in chrome://tracing or Perfetto).
profile:
	mkdir -p out
	$(PYTHON) -m repro profile tpch --query 12 --machines 4 \
		--chrome-out out/profile_trace.json

examples:
	for f in examples/*.py; do $(PYTHON) $$f || exit 1; done
