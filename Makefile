# Developer entry points. `make test` is the tier-1 gate.

PY ?= python
export PYTHONPATH := src

.PHONY: test smoke test-attacks campaign-demo matrix-demo \
	scaling-demo distributed-demo serve-demo bench bench-solver \
	bench-attack

test:
	$(PY) -m pytest -x -q

smoke:
	$(PY) -m pytest -q -m smoke

# Attack-engine differential grid (portfolio racing + DIP batching);
# slow, races real worker processes, excluded from `make smoke`.
test-attacks:
	$(PY) -m pytest -q -m portfolio

# Cold campaign (real SAT attack), warm rerun (pure cache hits), then the
# cache summary — the whole parallel/caching story in three commands.
campaign-demo:
	$(PY) -m repro.experiments table1 --jobs 4 --cache-dir .repro-cache
	$(PY) -m repro.experiments table1 --jobs 4 --cache-dir .repro-cache
	$(PY) -m repro.experiments status --cache-dir .repro-cache

# A circuit x scheme x attack grid through the campaign executor, cold
# then warm (the rerun is pure cache hits) — the three-axis matrix story
# end to end: an embedded bench circuit plus a parametric synth circuit,
# TriLock plus a baseline and a rival scheme.
matrix-demo:
	$(PY) -m repro.cli matrix \
	    --circuit s27 --circuit "synth?gates=120&ffs=8&pis=4&pos=3" \
	    --scheme "trilock?kappa_s=1..2" --scheme "harpoon?kappa=2" \
	    --scheme "sarlock?g=1" \
	    --attack seq-sat --attack removal \
	    --max-dips 512 --jobs 2 --cache-dir .repro-cache
	$(PY) -m repro.cli matrix \
	    --circuit s27 --circuit "synth?gates=120&ffs=8&pis=4&pos=3" \
	    --scheme "trilock?kappa_s=1..2" --scheme "harpoon?kappa=2" \
	    --scheme "sarlock?g=1" \
	    --attack seq-sat --attack removal \
	    --max-dips 512 --jobs 2 --cache-dir .repro-cache

# Attack-cost scaling laws on a tiny 3-point synth sweep, cold then
# warm: fits T(s) and ndip ~ gates^e per scheme at fixed interface
# width and writes benchmarks/artifacts/BENCH_scaling.json.
scaling-demo:
	$(PY) -m repro.cli scaling --gates "80|160|320" \
	    --scheme "trilock?kappa_s=1&s_pairs=4" --scheme sarlock \
	    --ffs 8 --pis 5 --pos 4 --max-dips 64 \
	    --jobs 2 --cache-dir .repro-cache
	$(PY) -m repro.cli scaling --gates "80|160|320" \
	    --scheme "trilock?kappa_s=1&s_pairs=4" --scheme sarlock \
	    --ffs 8 --pis 5 --pos 4 --max-dips 64 \
	    --jobs 2 --cache-dir .repro-cache

# Scale-out smoke: the same matrix grid through the local pool and
# through the TCP scheduler + two loopback `repro-lock worker` agents,
# asserting identical results and an all-hits warm rerun.
distributed-demo:
	REPRO_SECRET=demo-fleet-secret $(PY) examples/distributed_smoke.py

# Campaign-service smoke: the `repro-lock serve` daemon + HTTP API with
# two loopback workers — two tenants complete, /metrics is live, and a
# warm resubmit finishes from the shared cache with zero cells shipped.
serve-demo:
	REPRO_SECRET=demo-fleet-secret $(PY) examples/serve_smoke.py

bench:
	$(PY) -m pytest benchmarks -q

# Attack hot-path microbench: arena CDCL conflicts/sec, vectorized
# fig3/fig7 sweeps vs per-vector loops (>= 3x gate), end-to-end comb_sat
# wall-clock. Writes benchmarks/artifacts/BENCH_solver.json.
bench-solver:
	$(PY) -m pytest benchmarks/bench_solver.py -q

# End-to-end attack-loop bench: the e2ebench sat-attack workload, traced,
# so the last line carries per-layer oracle / pin / solve / verify times
# next to the digest-checked attack results.
bench-attack:
	$(PY) e2ebench/run.py --workload sat-attack --seed 0 --seconds 10 --trace 1
