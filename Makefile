DUNE ?= dune

.PHONY: all build test doc examples bench-suite-smoke bench-smoke bench-replay bench-engine bench-sip bench-storage bench-server bench-updates bench-reform bench-feedback bench ci clean

all: build

build:
	$(DUNE) build

test:
	$(DUNE) runtest

# API documentation from the odoc comments on every public .mli.
# (If odoc is not installed, `dune build @doc` is a no-op.)
doc:
	$(DUNE) build @doc

# Run every example program to completion (about 2 s in total), so an
# API change that breaks one at run time fails CI, not only the build.
EXAMPLES = $(patsubst %.ml,_build/default/%.exe,$(wildcard examples/*.ml))

examples: build
	set -e; for exe in $(EXAMPLES); do echo "== $$exe"; $$exe > /dev/null; done

# Experiment results go under _build/, never over the checked-in
# BENCH_PR*.json files: a PR commits only its own new BENCH file, so
# the trajectory the checked-in files record is never rewritten.
BENCH_OUT = _build/bench

$(BENCH_OUT):
	mkdir -p $@

# The end-to-end benchmark (bench/suite) at 1/50 of its length, with
# every correctness check.
bench-suite-smoke:
	$(DUNE) build @bench/suite/smoke

# A quick parallel-evaluation smoke run: Figure 2 on a 5k-fact dataset
# at jobs=2, recording per-cell timings (and the jobs=1 baselines) to
# $(BENCH_OUT)/BENCH_PR1.json.
bench-smoke: build | $(BENCH_OUT)
	$(DUNE) exec bench/main.exe -- --exp fig2-small --small 5000 --jobs 2 \
	  --json $(BENCH_OUT)/BENCH_PR1.json

# The E14 workload replay: Zipf-skewed repeated-query traffic against
# a 64-entry plan cache, cold pass vs warm pass, recorded to
# $(BENCH_OUT)/BENCH_PR3.json. Fails if warm answers diverge from cold.
bench-replay: build | $(BENCH_OUT)
	$(DUNE) exec bench/main.exe -- --exp replay --small 5000 \
	  --json $(BENCH_OUT)/BENCH_PR3.json

# The E15 engine comparison: the legacy row-at-a-time engine vs the
# columnar batch engine on the join-heavy workload queries, per
# strategy, with wall times and minor-word allocation deltas recorded
# to $(BENCH_OUT)/BENCH_PR4.json. Fails if the engines disagree on any answer set.
bench-engine: build | $(BENCH_OUT)
	$(DUNE) exec bench/main.exe -- --exp engine --small 5000 \
	  --json $(BENCH_OUT)/BENCH_PR4.json

# The E16 SIP comparison: identical physical plans executed with and
# without Sip_pass reducer annotations on the join-heavy workload
# queries, per strategy, with rows-pruned / arms-elided counts from
# EXPLAIN ANALYZE recorded to $(BENCH_OUT)/BENCH_PR5.json. Fails if the reducers
# change any answer set or fewer than two pairs reach 1.3x.
bench-sip: build | $(BENCH_OUT)
	$(DUNE) exec bench/main.exe -- --exp sip --small 5000 \
	  --json $(BENCH_OUT)/BENCH_PR5.json

# The E17 storage experiment: streaming generator -> compressed
# segmented columns -> binary save -> mmap reopen, with bytes/fact,
# build/save/open times, and zone-map segment-skip counts per workload
# query recorded to $(BENCH_OUT)/BENCH_PR6.json. Fails if answers diverge between
# the in-memory, mmap-backed and reference engines, if the encoded
# columns exceed 50% of flat arrays, or if no query skips 30% of its
# segments.
bench-storage: build | $(BENCH_OUT)
	$(DUNE) exec bench/main.exe -- --exp storage --small 5000 --large 20000 \
	  --json $(BENCH_OUT)/BENCH_PR6.json

# The E18 server experiment: an in-process obda_server driven over
# TCP by the load generator — closed-loop capacity calibration, open
# loop at 0.5x/0.9x/2.0x of measured capacity, a structural-overload
# pass, and a writer-interleaved pass, recorded to $(BENCH_OUT)/BENCH_PR7.json.
# Fails if any pass completes zero requests or sees a protocol error,
# if the warm plan-hit rate drops below 0.90 on a writer-free pass,
# if the overload pass never sheds, or if the writer fails to advance
# the KB generation.
bench-server: build | $(BENCH_OUT)
	$(DUNE) exec bench/main.exe -- --exp server --small 5000 \
	  --json $(BENCH_OUT)/BENCH_PR7.json

# The E19 updates experiment: single-fact insert latency through the
# delta-buffer path vs the pre-delta per-insert re-encode at 100k
# facts, then a Zipf replay with interleaved hot/cold-predicate
# writers under predicate-scoped invalidation, recorded to
# $(BENCH_OUT)/BENCH_PR8.json. Fails if the insert speedup is below 10x, if the
# warm plan-hit rate drops below 0.80 under writers, or if any answer
# diverges from an engine built fresh from the final fact set.
bench-updates: build | $(BENCH_OUT)
	$(DUNE) exec bench/main.exe -- --exp updates --small 5000 --large 100000 \
	  --json $(BENCH_OUT)/BENCH_PR8.json

# The E20 reformulation experiment: per-query reformulation +
# cover-search time, cold through the naive PerfectRef oracle (raw
# fixpoint, full pairwise minimisation) vs cold through the
# specialisation index and pruned minimisation, vs fully warm; the
# safe-cover enumeration, one function on both sides, is timed once
# and counted on each. Recorded to $(BENCH_OUT)/BENCH_PR9.json. Fails if the two
# paths' UCQs or engine answers diverge, if Q6 is below the 2x floor,
# or if fewer than two of Q9-Q11 reach it.
bench-reform: build | $(BENCH_OUT)
	$(DUNE) exec bench/main.exe -- --exp reform --small 5000 \
	  --json $(BENCH_OUT)/BENCH_PR9.json

# The E21 feedback experiment: the E14 Zipf workload replayed with the
# EXPLAIN ANALYZE correction store detached vs trained, per-query root
# q-errors, cover flips and measured evaluation times recorded to
# $(BENCH_OUT)/BENCH_PR10.json. Fails if the q-error geometric mean does not shrink
# under the trained store, if no query flips to a cover with a cheaper
# measured runtime, or if any answer diverges between the passes.
bench-feedback: build | $(BENCH_OUT)
	$(DUNE) exec bench/main.exe -- --exp feedback --small 5000 \
	  --json $(BENCH_OUT)/BENCH_PR10.json

# The full benchmark suite at the default (sequential) job count.
bench: build
	$(DUNE) exec bench/main.exe

ci: test doc examples bench-suite-smoke bench-smoke bench-replay bench-engine bench-sip bench-storage bench-server bench-updates bench-reform bench-feedback

clean:
	$(DUNE) clean
