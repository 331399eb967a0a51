#!/bin/sh
# verify.sh — the per-PR gate. Formatting, static checks, the full test
# suite, and a race-checked pass over the concurrency-bearing packages
# (the pdm disk arrays and their diskio layer, the radix kernel's scratch
# pool, which run formation and merges share across in-process cluster
# workers, the stripedmerge engine, the cluster runtime, and the job
# server).
set -eu

cd "$(dirname "$0")"

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== big-endian build (the codec's byte loop is the only path there) =="
GOARCH=s390x go vet ./internal/record ./internal/pdm
GOARCH=s390x go test -c -o /dev/null ./internal/record

echo "== staticcheck =="
if command -v staticcheck >/dev/null 2>&1; then
    staticcheck ./...
else
    echo "staticcheck not installed; skipped (CI runs the pinned version)"
fi

echo "== go build =="
go build ./...

echo "== go test (tier 1) =="
go test ./...

echo "== radix kernel benchmark smoke (one iteration per size) =="
go test -run '^$' -bench SortRadix -benchtime 1x ./internal/pram/

echo "== parallel I/O and striped transfer benchmark smoke (one iteration per store kind; a file-backed memoryload written and read at D=8 B=64) =="
go test -run '^$' -bench 'ParallelIO|Stripe' -benchtime 1x ./internal/pdm/

echo "== go test -race (concurrency layer) =="
go test -race ./internal/diskio/... ./internal/pdm/... ./internal/pram ./internal/guidesort ./internal/cluster/... ./internal/jobs/...

echo "== go test -race (crash recovery + engine parity) =="
go test -race -run 'Robust|Crash|Resume|Cancel|Scrub|EngineParity|EngineAuto' .
go test -race -count=1 -run 'KillRestart|DrainRestart|RecoveryQuarantine' ./internal/jobs/

echo "== go test -race -count=100 (cancel repeat gate: a job reads canceled only after its reservation is returned) =="
go test -race -count=100 -run 'TestServerCancelRunning$' ./internal/jobs/

echo "== go test -race (cluster churn matrix: worker kills and hangs, coordinator kill+resume, and joins at every phase; heartbeat flaps and silences) =="
go test -race -count=1 -run 'Chaos|Degraded|Flap|FailoverJournal|Join|Resume|Dedup' ./internal/cluster/
go test -race -count=1 -run 'ServerCluster' ./internal/jobs/

echo "== go test -count=20 (worker teardown, resume and heartbeat repeat gate: Serve returns only after its sessions have torn down, a session's teardown leaves another session's files of the same job in place, a coordinator killed at any phase resumes, a worker's job error is its loss's cause, late beats within the silence budget never fail a worker over, and a silent worker is lost within it) =="
go test -count=20 -run 'TestJoinThenLossBelowQuorum|TestClusterDegradedBelowQuorum|TestServeWaitsForHandlers|TestSessionsOfOneJobKeepTheirFiles|TestChaosCoordinatorResumeMatrix|TestWorkerErrorIsTheLossCause|TestHeartbeatFlapNoFailover|TestHeartbeatFlapDuringJoin|TestChaosSilentWorkerLost' ./internal/cluster/

echo "== go test -race (straggler matrix: stalls at every phase, hedged re-execution, and demotion fallback) =="
go test -race -count=1 -run 'Stall|Straggler|Hedge' ./internal/cluster/

echo "verify.sh: all checks passed"
