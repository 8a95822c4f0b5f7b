DUNE ?= dune

.PHONY: all build test doc examples bench-suite-smoke bench-paper-smoke bench ci clean

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

# Every experiment of bench/main.ml once, at small scale, so an
# experiment broken at run time fails CI; per-cell timings are
# recorded to $(BENCH_OUT)/paper.json.
bench-paper-smoke: build | $(BENCH_OUT)
	$(DUNE) exec bench/main.exe -- --small 2000 --large 4000 \
	  --json $(BENCH_OUT)/paper.json

# Every experiment at its default scale.
bench: build
	$(DUNE) exec bench/main.exe

ci: test doc examples bench-suite-smoke bench-paper-smoke

clean:
	$(DUNE) clean
