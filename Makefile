# Convenience targets for the Apollo reproduction.

GO ?= go

.PHONY: all build lint test race stress bench results quick-results cover clean serve-smoke loop-smoke flight-smoke fleet-smoke compile-smoke lineage-smoke vet-bench vet-diff

all: build lint vet-diff test race flight-smoke fleet-smoke compile-smoke lineage-smoke

build:
	$(GO) build ./...
	$(GO) vet ./...

# apollo-vet enforces the project invariants — hot-path no-alloc /
# lock-free, 386 atomic alignment, schema-hash drift, lock-rank order,
# goroutine-leak freedom, deterministic serialization, copy-on-write
# publication discipline, failure-path hygiene (error sinks, cancellable
# blocking, spawn/stop pairing, HTTP deadlines), and live waivers — over
# the whole module; the 386 cross-build keeps the alignment analyzer
# honest against the real compiler.
lint:
	$(GO) run ./cmd/apollo-vet ./...
	GOARCH=386 $(GO) build ./...

# The CI ratchet: fail on any diagnostic not in the committed baseline,
# so the module's finding count can only go down.
vet-diff:
	GO=$(GO) bash scripts/vet_diff.sh

# Self-run benchmark: the full analyzer suite over this module, with the
# machine-readable summary (per-analyzer counts, live waivers, wall
# time) written next to the other results.
vet-bench:
	$(GO) run ./cmd/apollo-vet -summary-out results/vet_summary.json ./...
	@cat results/vet_summary.json

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Scheduler stress: the closed-loop e2e scenario repeated under the
# race detector across a GOMAXPROCS sweep, multiplying the goroutine
# interleavings the single-shot race run explores.
STRESS_COUNT ?= 3
stress:
	$(GO) test -race -count=$(STRESS_COUNT) -run 'ClosedLoop' .

# One benchmark per paper table/figure plus overhead/ablation benches.
bench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate every table and figure of the paper's evaluation.
results:
	$(GO) run ./cmd/apollo-bench -exp all | tee results/full_results.txt

quick-results:
	$(GO) run ./cmd/apollo-bench -exp all -quick

cover:
	$(GO) test -cover ./...

# End-to-end smoke test of the model service against a real daemon:
# record -> train -> push -> predict -> metrics -> shutdown.
serve-smoke:
	GO="$(GO)" ./scripts/serve_smoke.sh

# End-to-end smoke test of the closed training loop against real
# daemons: a stale champion mispredicts a live run, telemetry flows to
# the service spool, apollo-traind retrains and publishes a challenger,
# and the running tuner hot-swaps to it before exiting.
loop-smoke:
	GO="$(GO)" ./scripts/loop_smoke.sh

# End-to-end smoke test of the flight recorder: capture a timed Chrome
# trace and a decision capture from the live debug endpoints of running
# daemons, then validate both with apollo-inspect.
flight-smoke:
	GO="$(GO)" ./scripts/flight_smoke.sh

# End-to-end smoke test of the fleet layer: three replicas with peer
# delta sync, a champion converging to one version/ETag everywhere, a
# synthetic client fleet surviving a kill of the ring-owner replica with
# zero failed predicts, and a collective retrain over the merged spools.
fleet-smoke:
	GO="$(GO)" ./scripts/fleet_smoke.sh

# End-to-end smoke test of the decision path: train -> publish (registry
# validates the tree) -> apollo-inspect models -verify checks the local
# tree walk against the live /predict endpoint, single and batch.
compile-smoke:
	GO="$(GO)" ./scripts/compile_smoke.sh

# End-to-end smoke test of closed-loop lineage tracing: three replicas,
# apollo-traind, and apollo-tune journal loop events into one directory;
# one forced drift cycle must stitch into a complete causal timeline
# with a nonzero loop reaction time, and the publish replica must export
# the apollo_model_lineage info-series.
lineage-smoke:
	GO="$(GO)" ./scripts/lineage_smoke.sh

clean:
	$(GO) clean ./...
